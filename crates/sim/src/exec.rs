//! Reusable building blocks for executing encyclopedia operations under
//! semantic locking.
//!
//! The operations and what they mean ([`op_descriptor`],
//! [`page_descriptor`], [`apply_op`], [`write_text`]) live in
//! [`oodb_btree::ops`], beside the encyclopedia they run on; they are
//! re-exported here at their old paths. This module adds the generic
//! [`LockManager`] set up for them ([`enc_lock_manager`]), which the
//! repo benchmark's replays and the engine's lock-stripe oracle use.

use oodb_core::commutativity::RangeSpec;
use oodb_lock::{LockManager, ResourceId};
use std::sync::Arc;

pub use oodb_btree::ops::{apply_op, op_descriptor, page_descriptor, write_text};

/// The Enc-level semantic lock resource. A single logical resource: the
/// lock *modes* (action descriptors) carry all the discrimination.
pub const ENC_RESOURCE: ResourceId = ResourceId(0);

/// A fresh [`LockManager`] with [`ENC_RESOURCE`] registered against the
/// ordered-container commutativity specification from §4 of the paper.
pub fn enc_lock_manager() -> LockManager {
    let mut m = LockManager::new();
    m.register(ENC_RESOURCE, Arc::new(RangeSpec::ordered_container("enc")));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_btree::EncOp;

    #[test]
    fn lock_manager_registers_enc_resource() {
        use oodb_lock::{LockOutcome, OwnerId};
        let mut m = enc_lock_manager();
        let d = op_descriptor(&EncOp::Insert("k".into()));
        assert!(matches!(
            m.acquire(OwnerId(1), &[], ENC_RESOURCE, &d),
            LockOutcome::Granted
        ));
    }
}
