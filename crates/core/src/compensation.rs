//! Compensation-based abort for open nested transactions.
//!
//! Open nesting trades recoverability for concurrency: a subtransaction's
//! low-level (page) effects become visible to other transactions the
//! moment it commits, so a later abort of the *enclosing* transaction
//! cannot restore before-images — other transactions may have built on
//! the state. The standard remedy (Moss, Weikum/Schek; the paper's ref. 19)
//! is **semantic compensation**: for every committed subtransaction the
//! system logs an inverse action (`insert(k)` ⇢ `delete(k)`, an item
//! write ⇢ a write of the previous text), and abort executes the
//! inverses in reverse order as a fresh top-level *compensation
//! transaction* — which the ordinary concurrency machinery serializes
//! like any other transaction.
//!
//! This module holds only the record of one undo, [`Inverse`], so that
//! a transaction's context (`oodb_model::TxnCtx`) can keep its undo
//! stack. The executor that makes inverses also owns their format and
//! runs them: the encyclopedia's `oodb_btree::compensated` builds one
//! per write, decodes it once into a write with its text spelled out,
//! and runs that through its own mutation paths, so compensation is
//! itself recorded and checked.

use crate::commutativity::ActionDescriptor;

/// A compensating action: the descriptor of the operation that undoes
/// one write. State the inverse needs to rebuild (the overwritten item
/// text, the removed payload) travels in the descriptor's arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inverse {
    /// The inverse operation.
    pub descriptor: ActionDescriptor,
}
