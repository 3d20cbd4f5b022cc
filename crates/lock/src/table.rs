//! Semantic lock manager.
//!
//! Locking generalized from S/X modes to **commutativity-based modes**
//! (Weihl; the paper's Definition 9): a lock request carries the action's
//! descriptor, and two locks are compatible iff the object's commutativity
//! spec says the actions commute. With page objects and `read`/`write`
//! descriptors this degenerates to classical S/X locking, so the same
//! manager implements both the conventional baseline and the semantic
//! protocols.
//!
//! Nesting follows open nested / multi-level locking: every action
//! acquires its own lock on the object it accesses, and ancestors' locks
//! never block their descendants, nor descendants' locks their ancestors.
//! When a subtransaction commits, the open discipline drops its locks
//! with [`LockManager::release_all`]: the caller's own semantic lock
//! keeps protecting the result.
//!
//! The manager is step-based: [`LockManager::acquire`] never parks a
//! thread; it answers `Granted` or `Blocked{holders}` and the scheduler
//! decides what to do. Waiting edges are tracked internally, and
//! [`LockManager::find_deadlock`] reports a waits-for cycle.

use oodb_core::commutativity::{ActionDescriptor, SpecRef};
use oodb_core::graph::DiGraph;
use std::collections::HashMap;

/// Abstract lock owner: a transaction or action token. The scheduler
/// decides the granularity (top-level txns for flat 2PL, actions for
/// nested protocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

/// Abstract lockable resource (an object of the system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u64);

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; proceed.
    Granted,
    /// Incompatible grants exist; `holders` are their owners.
    Blocked {
        /// Owners of the conflicting grants.
        holders: Vec<OwnerId>,
    },
}

#[derive(Debug, Clone)]
struct Grant {
    owner: OwnerId,
    /// The owner's ancestor chain (nearest first), so descendants pass.
    ancestors: Vec<OwnerId>,
    descriptor: ActionDescriptor,
    /// Reference count for identical re-acquisitions.
    count: u32,
}

/// A semantic lock manager over abstract resources.
#[derive(Clone, Default)]
pub struct LockManager {
    grants: HashMap<ResourceId, Vec<Grant>>,
    specs: HashMap<ResourceId, SpecRef>,
    /// `waiting[o]` = the owners o is currently blocked on.
    waiting: HashMap<OwnerId, Vec<OwnerId>>,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("resources", &self.grants.len())
            .field("grants", &self.grants.values().map(Vec::len).sum::<usize>())
            .field("waiting", &self.waiting.len())
            .finish()
    }
}

impl LockManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the commutativity spec of a resource. Must be called
    /// before the first acquire on it.
    pub fn register(&mut self, resource: ResourceId, spec: SpecRef) {
        self.specs.entry(resource).or_insert(spec);
    }

    /// Request a lock for `owner` (with its ancestor chain) on `resource`
    /// in the mode described by `descriptor`.
    pub fn acquire(
        &mut self,
        owner: OwnerId,
        ancestors: &[OwnerId],
        resource: ResourceId,
        descriptor: &ActionDescriptor,
    ) -> LockOutcome {
        // borrowed, not cloned: `specs` and `grants` are disjoint fields
        let spec = self
            .specs
            .get(&resource)
            .unwrap_or_else(|| panic!("resource {resource:?} not registered"));
        let grants = self.grants.entry(resource).or_default();
        let mut holders: Vec<OwnerId> = Vec::new();
        for g in grants.iter() {
            if g.owner == owner || ancestors.contains(&g.owner) {
                continue; // own or ancestor's lock never blocks
            }
            // a grant whose owner is a *descendant* of the requester also
            // never blocks (the requester called it)
            if g.ancestors.contains(&owner) {
                continue;
            }
            if !spec.commutes(&g.descriptor, descriptor) && !holders.contains(&g.owner) {
                holders.push(g.owner);
            }
        }
        if !holders.is_empty() {
            self.waiting.insert(owner, holders.clone());
            return LockOutcome::Blocked { holders };
        }
        self.waiting.remove(&owner);
        if let Some(g) = grants
            .iter_mut()
            .find(|g| g.owner == owner && g.descriptor == *descriptor)
        {
            g.count += 1;
        } else {
            grants.push(Grant {
                owner,
                ancestors: ancestors.to_vec(),
                descriptor: descriptor.clone(),
                count: 1,
            });
        }
        LockOutcome::Granted
    }

    /// Drop every grant of `owner` (top-level commit or abort; also the
    /// *open* discipline's subtransaction commit).
    pub fn release_all(&mut self, owner: OwnerId) {
        for grants in self.grants.values_mut() {
            grants.retain(|g| g.owner != owner);
        }
        self.waiting.remove(&owner);
    }

    /// Number of grants currently held by `owner`.
    pub fn held_by(&self, owner: OwnerId) -> usize {
        self.grants
            .values()
            .flat_map(|v| v.iter())
            .filter(|g| g.owner == owner)
            .count()
    }

    /// The current grants on `resource` as `(owner, descriptor)` pairs —
    /// a read-only view for observability (e.g. naming the parties of a
    /// traced conflict).
    pub fn grants_on(&self, resource: ResourceId) -> Vec<(OwnerId, ActionDescriptor)> {
        self.grants
            .get(&resource)
            .map(|gs| gs.iter().map(|g| (g.owner, g.descriptor.clone())).collect())
            .unwrap_or_default()
    }

    /// Detect a waits-for cycle. `project` maps lock owners to the
    /// conflict-resolution unit (usually the top-level transaction), so
    /// that cycles among sub-owners of one transaction are not reported.
    /// Returns the cycle's units if found.
    pub fn find_deadlock(&self, project: impl Fn(OwnerId) -> OwnerId) -> Option<Vec<OwnerId>> {
        let mut g: DiGraph<OwnerId> = DiGraph::new();
        for (&waiter, holders) in &self.waiting {
            for &h in holders {
                let (pw, ph) = (project(waiter), project(h));
                if pw != ph {
                    g.add_edge(pw, ph);
                }
            }
        }
        g.find_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_core::commutativity::{EscrowSpec, RangeSpec, ReadWriteSpec};
    use oodb_core::value::key;
    use std::sync::Arc;

    fn rw() -> ActionDescriptor {
        ActionDescriptor::nullary("write")
    }

    fn rd() -> ActionDescriptor {
        ActionDescriptor::nullary("read")
    }

    fn page_manager() -> (LockManager, ResourceId) {
        let mut m = LockManager::new();
        let r = ResourceId(1);
        m.register(r, Arc::new(ReadWriteSpec));
        (m, r)
    }

    #[test]
    fn shared_reads_coexist_writes_block() {
        let (mut m, r) = page_manager();
        assert_eq!(m.acquire(OwnerId(1), &[], r, &rd()), LockOutcome::Granted);
        assert_eq!(m.acquire(OwnerId(2), &[], r, &rd()), LockOutcome::Granted);
        assert_eq!(
            m.acquire(OwnerId(3), &[], r, &rw()),
            LockOutcome::Blocked {
                holders: vec![OwnerId(1), OwnerId(2)]
            }
        );
    }

    #[test]
    fn release_unblocks() {
        let (mut m, r) = page_manager();
        m.acquire(OwnerId(1), &[], r, &rw());
        assert!(matches!(
            m.acquire(OwnerId(2), &[], r, &rw()),
            LockOutcome::Blocked { .. }
        ));
        m.release_all(OwnerId(1));
        assert_eq!(m.acquire(OwnerId(2), &[], r, &rw()), LockOutcome::Granted);
    }

    #[test]
    fn reentrant_and_ancestor_locks_pass() {
        let (mut m, r) = page_manager();
        let parent = OwnerId(10);
        let child = OwnerId(11);
        assert_eq!(m.acquire(parent, &[], r, &rw()), LockOutcome::Granted);
        // same owner again
        assert_eq!(m.acquire(parent, &[], r, &rw()), LockOutcome::Granted);
        // child of the holder passes
        assert_eq!(m.acquire(child, &[parent], r, &rw()), LockOutcome::Granted);
        // a stranger does not
        assert!(matches!(
            m.acquire(OwnerId(99), &[], r, &rw()),
            LockOutcome::Blocked { .. }
        ));
    }

    #[test]
    fn descendants_grant_does_not_block_its_ancestor() {
        let (mut m, r) = page_manager();
        let parent = OwnerId(10);
        let child = OwnerId(11);
        assert_eq!(m.acquire(child, &[parent], r, &rw()), LockOutcome::Granted);
        assert_eq!(m.acquire(parent, &[], r, &rw()), LockOutcome::Granted);
    }

    #[test]
    fn semantic_modes_from_keyed_spec() {
        let mut m = LockManager::new();
        let leaf = ResourceId(7);
        m.register(leaf, Arc::new(RangeSpec::ordered_container("leaf")));
        let i_dbs = ActionDescriptor::new("insert", vec![key("DBS")]);
        let i_dbms = ActionDescriptor::new("insert", vec![key("DBMS")]);
        let s_dbs = ActionDescriptor::new("search", vec![key("DBS")]);
        assert_eq!(
            m.acquire(OwnerId(1), &[], leaf, &i_dbs),
            LockOutcome::Granted
        );
        // different key: compatible (the paper's concurrency gain)
        assert_eq!(
            m.acquire(OwnerId(2), &[], leaf, &i_dbms),
            LockOutcome::Granted
        );
        // same key search: blocked
        assert!(matches!(
            m.acquire(OwnerId(3), &[], leaf, &s_dbs),
            LockOutcome::Blocked { .. }
        ));
    }

    #[test]
    fn escrow_modes() {
        let mut m = LockManager::new();
        let acc = ResourceId(5);
        m.register(acc, Arc::new(EscrowSpec::unbounded()));
        let dep = ActionDescriptor::new("deposit", vec![]);
        let bal = ActionDescriptor::new("balance", vec![]);
        assert_eq!(m.acquire(OwnerId(1), &[], acc, &dep), LockOutcome::Granted);
        assert_eq!(m.acquire(OwnerId(2), &[], acc, &dep), LockOutcome::Granted);
        assert!(matches!(
            m.acquire(OwnerId(3), &[], acc, &bal),
            LockOutcome::Blocked { .. }
        ));
    }

    #[test]
    fn open_child_commit_releases_to_strangers() {
        let (mut m, r) = page_manager();
        let parent = OwnerId(1);
        let child = OwnerId(2);
        m.acquire(child, &[parent], r, &rw());
        // open: drop the child's page lock; a stranger may proceed
        m.release_all(child);
        assert_eq!(m.acquire(OwnerId(9), &[], r, &rw()), LockOutcome::Granted);
        assert_eq!(m.held_by(child), 0);
    }

    #[test]
    fn deadlock_detected_and_projected() {
        let (mut m, r) = page_manager();
        let r2 = ResourceId(2);
        m.register(r2, Arc::new(ReadWriteSpec));
        m.acquire(OwnerId(1), &[], r, &rw());
        m.acquire(OwnerId(2), &[], r2, &rw());
        assert!(matches!(
            m.acquire(OwnerId(1), &[], r2, &rw()),
            LockOutcome::Blocked { .. }
        ));
        assert!(matches!(
            m.acquire(OwnerId(2), &[], r, &rw()),
            LockOutcome::Blocked { .. }
        ));
        let cycle = m.find_deadlock(|o| o).expect("deadlock exists");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn intra_txn_waits_do_not_deadlock_after_projection() {
        let (mut m, r) = page_manager();
        // two sub-owners of the same transaction artificially waiting on
        // each other must vanish under projection
        m.acquire(OwnerId(100), &[], r, &rw());
        assert!(matches!(
            m.acquire(OwnerId(101), &[], r, &rw()),
            LockOutcome::Blocked { .. }
        ));
        // project both to the same top-level id
        assert!(m.find_deadlock(|_| OwnerId(1)).is_none());
    }
}
