//! Identifiers for objects, actions, and transactions.
//!
//! The paper numbers actions hierarchically (`a_121` is the first child of
//! the second child of action `a_1`). We keep that surface notation in
//! [`ActionPath`] for display and paper-faithful output, while the runtime
//! machinery uses dense arena indices ([`ActionIdx`], [`ObjectIdx`],
//! [`TxnIdx`]) for efficiency. The record does not store paths: an action
//! keeps its last segment and its depth, and
//! [`TransactionSystem::path`](crate::system::TransactionSystem::path)
//! rebuilds the number from the parent chain when something wants to
//! print it.

use std::fmt;

/// Dense index of an object inside a [`crate::system::TransactionSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectIdx(pub u32);

/// Dense index of an action inside the action arena of a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionIdx(pub u32);

/// Dense index of a top-level transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnIdx(pub u32);

impl ObjectIdx {
    /// Convert to a `usize` for indexing into arenas.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl ActionIdx {
    /// Convert to a `usize` for indexing into arenas.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl TxnIdx {
    /// Convert to a `usize` for indexing into arenas.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl fmt::Display for ActionIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a#{}", self.0)
    }
}

impl fmt::Display for TxnIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0 + 1)
    }
}

/// Hierarchical action number, as in the paper's `a_121` notation.
///
/// The first segment is the (1-based) top-level transaction number; each
/// further segment is the 1-based position among the siblings of one call
/// level. The root action of transaction `T1` has path `[1]`, its second
/// child `[1, 2]`, and so on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionPath(Vec<u32>);

impl ActionPath {
    /// Path of the root action of the `n`-th (1-based) top-level transaction.
    pub fn root(txn_number: u32) -> Self {
        ActionPath(vec![txn_number])
    }

    /// Create a path from raw segments. Panics if `segments` is empty.
    pub fn new(segments: Vec<u32>) -> Self {
        assert!(
            !segments.is_empty(),
            "an action path has at least one segment"
        );
        ActionPath(segments)
    }

    /// The path of this action's `n`-th (1-based) child.
    pub fn child(&self, n: u32) -> Self {
        let mut v = self.0.clone();
        v.push(n);
        ActionPath(v)
    }

    /// The parent path, or `None` for a root action.
    pub fn parent(&self) -> Option<Self> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(ActionPath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Call depth: 1 for top-level transactions, 2 for their direct
    /// subactions, and so on.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The raw segments.
    pub fn segments(&self) -> &[u32] {
        &self.0
    }

    /// True iff `self` is a proper ancestor of `other` in the call tree.
    pub fn is_ancestor_of(&self, other: &ActionPath) -> bool {
        other.0.len() > self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// True iff `self` is `other` or a proper ancestor of it (the paper's
    /// `t →* a` reflexive-transitive call closure on one tree).
    pub fn is_ancestor_or_self(&self, other: &ActionPath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// 1-based number of the top-level transaction this action belongs to.
    pub fn txn_number(&self) -> u32 {
        self.0[0]
    }
}

impl fmt::Display for ActionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_path_has_depth_one() {
        let p = ActionPath::root(3);
        assert_eq!(p.depth(), 1);
        assert_eq!(p.txn_number(), 3);
        assert_eq!(p.parent(), None);
    }

    #[test]
    fn child_and_parent_roundtrip() {
        let p = ActionPath::root(1).child(2).child(1);
        assert_eq!(p.segments(), &[1, 2, 1]);
        assert_eq!(p.parent().unwrap().segments(), &[1, 2]);
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn ancestor_relation() {
        let root = ActionPath::root(1);
        let c = root.child(2);
        let gc = c.child(1);
        assert!(root.is_ancestor_of(&c));
        assert!(root.is_ancestor_of(&gc));
        assert!(c.is_ancestor_of(&gc));
        assert!(!c.is_ancestor_of(&root));
        assert!(!c.is_ancestor_of(&c));
        assert!(c.is_ancestor_or_self(&c));
        // different transaction
        let other = ActionPath::root(2).child(2);
        assert!(!root.is_ancestor_of(&other));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ActionPath::new(vec![1, 2, 1]).to_string(), "a1.2.1");
        assert_eq!(TxnIdx(0).to_string(), "T1");
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_path_rejected() {
        let _ = ActionPath::new(vec![]);
    }
}
