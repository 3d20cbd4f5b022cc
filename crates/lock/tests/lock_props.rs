//! Property-based safety tests for the semantic lock manager: at no point
//! do two granted locks of unrelated owners conflict under the resource's
//! commutativity spec, and releases restore availability.

use oodb_core::commutativity::{ActionDescriptor, EscrowSpec, RangeSpec, ReadWriteSpec, SpecRef};
use oodb_core::value::key;
use oodb_lock::{LockManager, LockOutcome, OwnerId, ResourceId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Acquire { owner: u64, resource: u8, mode: u8 },
    Release { owner: u64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u64..6, 0u8..3, 0u8..5).prop_map(|(owner, resource, mode)| Op::Acquire {
                owner,
                resource,
                mode
            }),
            1 => (0u64..6).prop_map(|owner| Op::Release { owner }),
        ],
        1..80,
    )
}

fn spec_for(resource: u8) -> SpecRef {
    match resource {
        0 => Arc::new(ReadWriteSpec),
        1 => Arc::new(RangeSpec::ordered_container("leaf")),
        _ => Arc::new(EscrowSpec::bounded()),
    }
}

fn mode_for(mode: u8) -> ActionDescriptor {
    match mode {
        0 => ActionDescriptor::nullary("read"),
        1 => ActionDescriptor::nullary("write"),
        2 => ActionDescriptor::new("insert", vec![key("A")]),
        3 => ActionDescriptor::new("insert", vec![key("B")]),
        _ => ActionDescriptor::new("deposit", vec![]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Safety invariant: after any operation sequence, every pair of
    /// granted locks on one resource, held by different owners, commutes.
    #[test]
    fn granted_locks_of_distinct_owners_always_commute(ops in ops()) {
        let mut mgr = LockManager::new();
        for r in 0u8..3 {
            mgr.register(ResourceId(r as u64), spec_for(r));
        }
        // shadow state: resource -> [(owner, descriptor)]
        let mut granted: HashMap<u8, Vec<(u64, ActionDescriptor)>> = HashMap::new();
        for op in &ops {
            match op {
                Op::Acquire { owner, resource, mode } => {
                    let d = mode_for(*mode);
                    match mgr.acquire(OwnerId(*owner), &[], ResourceId(*resource as u64), &d) {
                        LockOutcome::Granted => {
                            granted.entry(*resource).or_default().push((*owner, d));
                        }
                        LockOutcome::Blocked { holders } => {
                            // the manager must name at least one genuine
                            // conflicting holder
                            prop_assert!(!holders.is_empty());
                            let spec = spec_for(*resource);
                            let shadow = granted.entry(*resource).or_default();
                            let real_conflict = shadow.iter().any(|(o, gd)| {
                                *o != *owner && !spec.commutes(gd, &d)
                            });
                            prop_assert!(
                                real_conflict,
                                "blocked without a conflicting grant: {d} on {resource}"
                            );
                        }
                    }
                }
                Op::Release { owner } => {
                    mgr.release_all(OwnerId(*owner));
                    for v in granted.values_mut() {
                        v.retain(|(o, _)| o != owner);
                    }
                }
            }
            // invariant: all granted pairs (distinct owners) commute
            for (r, grants) in &granted {
                let spec = spec_for(*r);
                for i in 0..grants.len() {
                    for j in (i + 1)..grants.len() {
                        let (oa, da) = &grants[i];
                        let (ob, db) = &grants[j];
                        if oa != ob {
                            prop_assert!(
                                spec.commutes(da, db),
                                "incompatible grants coexist on {r}: {da} vs {db}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Liveness-ish: once every other owner releases, any single request
    /// is granted.
    #[test]
    fn release_restores_availability(ops in ops(), resource in 0u8..3, mode in 0u8..5) {
        let mut mgr = LockManager::new();
        for r in 0u8..3 {
            mgr.register(ResourceId(r as u64), spec_for(r));
        }
        for op in &ops {
            if let Op::Acquire { owner, resource, mode } = op {
                let _ = mgr.acquire(
                    OwnerId(*owner),
                    &[],
                    ResourceId(*resource as u64),
                    &mode_for(*mode),
                );
            }
        }
        for o in 0u64..6 {
            mgr.release_all(OwnerId(o));
        }
        prop_assert_eq!(
            mgr.acquire(OwnerId(99), &[], ResourceId(resource as u64), &mode_for(mode)),
            LockOutcome::Granted
        );
        prop_assert_eq!(mgr.held_by(OwnerId(99)), 1);
    }
}
