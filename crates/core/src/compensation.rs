//! Compensation-based abort for open nested transactions.
//!
//! Open nesting trades recoverability for concurrency: a subtransaction's
//! low-level (page) effects become visible to other transactions the
//! moment it commits, so a later abort of the *enclosing* transaction
//! cannot restore before-images — other transactions may have built on
//! the state. The standard remedy (Moss, Weikum/Schek; the paper's ref. 19)
//! is **semantic compensation**: for every committed subtransaction the
//! system logs an inverse action (`insert(k)` ⇢ `delete(k)`,
//! `deposit(n)` ⇢ `withdraw(n)`, an item write ⇢ a write of the previous
//! text), and abort executes the inverses in reverse order as a fresh
//! top-level *compensation transaction* — which the ordinary
//! concurrency machinery serializes like any other transaction.
//!
//! This module provides the protocol-agnostic pieces:
//!
//! * [`Inverse`] — how to undo one committed action;
//! * [`InverseRegistry`] — deriving inverses from action descriptors for
//!   the common method families (keyed containers, escrow counters).
//!
//! Executors (the encyclopedia, the object model) push inverses onto the
//! running transaction's own undo stack (`oodb_model::TxnCtx`) and apply
//! them in reverse through their own mutation paths on abort, so
//! compensation is itself recorded and checked.
//!
//! ```
//! use oodb_core::compensation::InverseRegistry;
//! use oodb_core::commutativity::{ActionDescriptor, Method};
//!
//! let reg = InverseRegistry::new();
//! let fwd = ActionDescriptor::keyed(Method::Insert, "DBS");
//! let inv = reg.invert(&fwd, None).unwrap();
//! assert_eq!(inv.method, Method::Delete);
//! ```

use crate::commutativity::{ActionDescriptor, Args, Method};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;

/// Signature of a custom inverse builder: forward descriptor + saved
/// state → inverse descriptor (or `None` = not invertible).
pub type InverseFn = fn(&ActionDescriptor, Option<Value>) -> Option<ActionDescriptor>;

/// A compensating action: the descriptor to apply on some object. State
/// the inverse needs to rebuild (the overwritten item text, the removed
/// payload) travels in the descriptor's arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inverse {
    /// Name of the object the compensation targets; a literal name
    /// (`"Enc"`) is borrowed, not copied.
    pub object: Cow<'static, str>,
    /// The inverse operation.
    pub descriptor: ActionDescriptor,
}

impl Inverse {
    /// Build an inverse.
    pub fn new(object: impl Into<Cow<'static, str>>, descriptor: ActionDescriptor) -> Self {
        Inverse {
            object: object.into(),
            descriptor,
        }
    }
}

/// Derives inverses for the standard method families. Custom executors
/// can register additional rules per method.
#[derive(Debug, Default)]
pub struct InverseRegistry {
    custom: HashMap<Method, InverseFn>,
}

impl InverseRegistry {
    /// Registry with the built-in rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a custom inverse builder for `method`.
    pub fn register(&mut self, method: impl Into<Method>, f: InverseFn) {
        self.custom.insert(method.into(), f);
    }

    /// Derive the inverse descriptor of `d`. `saved` carries state
    /// captured before the forward action (previous value, overwritten
    /// text); it moves into the inverse's arguments. Returns `None` for actions with no effect to undo (reads)
    /// and for methods without a known inverse (caller must then fall
    /// back to forbidding early release — i.e. closed nesting).
    pub fn invert(&self, d: &ActionDescriptor, saved: Option<Value>) -> Option<ActionDescriptor> {
        if let Some(f) = self.custom.get(&d.method) {
            return f(d, saved);
        }
        // the forward arguments, then the saved state the inverse rebuilds
        let with_saved = || d.args.iter().cloned().chain(saved).collect::<Args>();
        match d.method {
            // keyed containers
            Method::Insert => Some(ActionDescriptor::new(Method::Delete, d.args.clone())),
            Method::Delete => Some(ActionDescriptor::new(Method::Insert, with_saved())),
            Method::Update => Some(ActionDescriptor::new(Method::Update, with_saved())),
            // escrow counters
            Method::Deposit => Some(ActionDescriptor::new(Method::Withdraw, d.args.clone())),
            Method::Withdraw => Some(ActionDescriptor::new(Method::Deposit, d.args.clone())),
            // reads need no compensation
            _ => None,
        }
    }

    /// True iff the method has a known inverse or needs none.
    pub fn is_compensable(&self, d: &ActionDescriptor) -> bool {
        match d.method {
            Method::Read | Method::Search | Method::Balance | Method::ReadSeq => true,
            _ => self.invert(d, Some(Value::Unit)).is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::key;

    #[test]
    fn builtin_inverses() {
        let reg = InverseRegistry::new();
        let ins = ActionDescriptor::new("insert", vec![key("DBS")]);
        assert_eq!(
            reg.invert(&ins, None).unwrap(),
            ActionDescriptor::new("delete", vec![key("DBS")])
        );
        let del = ActionDescriptor::new("delete", vec![key("DBS")]);
        let inv = reg
            .invert(&del, Some(Value::Str("old text".into())))
            .unwrap();
        assert_eq!(inv.method, Method::Insert);
        assert_eq!(inv.args.len(), 2);
        let dep = ActionDescriptor::new("deposit", vec![Value::Int(5)]);
        assert_eq!(reg.invert(&dep, None).unwrap().method, Method::Withdraw);
        let wd = ActionDescriptor::new("withdraw", vec![Value::Int(5)]);
        assert_eq!(reg.invert(&wd, None).unwrap().method, Method::Deposit);
    }

    #[test]
    fn reads_need_no_compensation() {
        let reg = InverseRegistry::new();
        for m in ["read", "search", "balance", "readSeq"] {
            assert!(reg.invert(&ActionDescriptor::nullary(m), None).is_none());
            assert!(reg.is_compensable(&ActionDescriptor::nullary(m)));
        }
    }

    #[test]
    fn unknown_methods_are_not_compensable() {
        let reg = InverseRegistry::new();
        let d = ActionDescriptor::nullary("frobnicate");
        assert!(reg.invert(&d, None).is_none());
        assert!(!reg.is_compensable(&d));
    }

    #[test]
    fn custom_rules_override() {
        let mut reg = InverseRegistry::new();
        fn inv(_: &ActionDescriptor, _: Option<Value>) -> Option<ActionDescriptor> {
            Some(ActionDescriptor::nullary("defrobnicate"))
        }
        reg.register("frobnicate", inv);
        assert_eq!(
            reg.invert(&ActionDescriptor::nullary("frobnicate"), None)
                .unwrap()
                .method
                .as_str(),
            "defrobnicate"
        );
        assert!(reg.is_compensable(&ActionDescriptor::nullary("frobnicate")));
    }

    #[test]
    fn update_inverse_carries_previous_value() {
        let reg = InverseRegistry::new();
        let upd = ActionDescriptor::new("update", vec![key("DBMS")]);
        let inv = reg.invert(&upd, Some(Value::Str("v1".into()))).unwrap();
        assert_eq!(inv.method, Method::Update);
        assert_eq!(inv.args[1], Value::Str("v1".into()));
    }
}
