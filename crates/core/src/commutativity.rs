//! Commutativity specifications (Definition 9).
//!
//! The paper assumes "a commutativity matrix for every object for all
//! their actions", possibly dependent on parameter values (the escrow
//! method) — two actions either *commute* (`a Θ a'`) or are *in conflict*.
//! A [`CommutativitySpec`] is the executable form of that matrix. The
//! specification belongs to the implementor of an object type ("he can
//! specify the semantics of the implemented object type") and is the only
//! semantic knowledge the concurrency machinery consumes.

use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// What the commutativity test sees of an action: the method name plus its
/// parameter values, i.e. the paper's `m(parameters)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActionDescriptor {
    /// Method (operation) name, e.g. `insert`, `search`, `read`, `write`.
    pub method: String,
    /// Parameter values the commutativity decision may depend on.
    pub args: Vec<Value>,
}

impl ActionDescriptor {
    /// Build a descriptor from a method name and arguments.
    pub fn new(method: impl Into<String>, args: Vec<Value>) -> Self {
        ActionDescriptor {
            method: method.into(),
            args,
        }
    }

    /// A descriptor with no arguments.
    pub fn nullary(method: impl Into<String>) -> Self {
        Self::new(method, Vec::new())
    }

    /// First argument interpreted as a key, if present.
    pub fn key(&self) -> Option<&str> {
        self.args.first().and_then(Value::as_key)
    }
}

impl fmt::Display for ActionDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.method)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// Shared, immutable handle to an [`ActionDescriptor`] — the form in
/// which an action of the record stores its `m(parameters)`.
///
/// One operation's descriptor is recorded at every level of its call
/// path (`Enc.search(k)` → `BpTree.search(k)` → each node's `search(k)`),
/// so the levels share one allocation through [`Clone`]. The two page
/// primitives, [`DescriptorRef::read`] and [`DescriptorRef::write`],
/// borrow process-wide constants instead: recording a page access neither
/// allocates nor touches a reference count that other threads write.
///
/// Dereferences to the descriptor; equality, hashing and display are the
/// descriptor's own, so a shared handle and a freshly built descriptor
/// with the same method and arguments are indistinguishable to the
/// commutativity test.
#[derive(Clone)]
pub struct DescriptorRef(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static ActionDescriptor),
    Shared(Arc<ActionDescriptor>),
}

impl DescriptorRef {
    /// The nullary page primitive `read()`.
    pub fn read() -> Self {
        static READ: OnceLock<ActionDescriptor> = OnceLock::new();
        DescriptorRef(Repr::Static(
            READ.get_or_init(|| ActionDescriptor::nullary("read")),
        ))
    }

    /// The nullary page primitive `write()`.
    pub fn write() -> Self {
        static WRITE: OnceLock<ActionDescriptor> = OnceLock::new();
        DescriptorRef(Repr::Static(
            WRITE.get_or_init(|| ActionDescriptor::nullary("write")),
        ))
    }
}

impl From<ActionDescriptor> for DescriptorRef {
    fn from(d: ActionDescriptor) -> Self {
        DescriptorRef(Repr::Shared(Arc::new(d)))
    }
}

impl Deref for DescriptorRef {
    type Target = ActionDescriptor;

    fn deref(&self) -> &ActionDescriptor {
        match &self.0 {
            Repr::Static(d) => d,
            Repr::Shared(d) => d,
        }
    }
}

impl PartialEq for DescriptorRef {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for DescriptorRef {}

impl std::hash::Hash for DescriptorRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for DescriptorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for DescriptorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// The commutativity matrix of one object type.
///
/// Implementations must be **symmetric**: `commutes(a, b) == commutes(b, a)`.
/// This invariant is property-tested for every built-in spec.
pub trait CommutativitySpec: Send + Sync {
    /// True iff the two actions commute (`a Θ b`); false iff they conflict.
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool;

    /// Human-readable name of the specification (for diagnostics/DOT).
    fn name(&self) -> &str;
}

/// Shared handle to a commutativity spec.
pub type SpecRef = Arc<dyn CommutativitySpec>;

/// Classical page semantics: `read`/`read` commutes, any pair involving
/// `write` conflicts, unknown methods conservatively conflict.
///
/// This is the spec of the paper's universal zero-level object type, the
/// *page* ("in database systems exists a common object type which methods
/// call no other actions: the page").
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadWriteSpec;

impl CommutativitySpec for ReadWriteSpec {
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool {
        a.method == "read" && b.method == "read"
    }

    fn name(&self) -> &str {
        "read-write"
    }
}

/// How two operations of a [`KeyedSpec`] interact **on the same key**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SameKeyRule {
    /// Same-key occurrences commute (e.g. two `search` of one key).
    Commute,
    /// Same-key occurrences conflict (e.g. `insert` vs `search` of one key).
    Conflict,
}

/// Key-based semantics for search structures (B⁺-tree nodes, leaves,
/// directories): operations on **different keys always commute** — the
/// source of the extra concurrency in Example 1 — while same-key pairs
/// follow a configurable rule per method pair.
///
/// Methods not registered in the table conservatively conflict with
/// everything (including themselves), and *keyless* methods (e.g. a
/// `readSeq` full scan) conflict with every updater.
#[derive(Debug, Clone)]
pub struct KeyedSpec {
    name: String,
    /// `(method, method) → rule`, stored with the pair in both orders.
    same_key: HashMap<(String, String), SameKeyRule>,
    /// Methods that only read; a keyless scan commutes with these.
    readers: Vec<String>,
    /// Methods that take no key and touch the whole object (scans).
    scans: Vec<String>,
}

impl KeyedSpec {
    /// Empty spec with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        KeyedSpec {
            name: name.into(),
            same_key: HashMap::new(),
            readers: Vec::new(),
            scans: Vec::new(),
        }
    }

    /// Standard spec for an ordered search structure: `insert`, `delete`,
    /// `update` are same-key-conflicting updaters; `search` reads one key;
    /// `readSeq` scans everything.
    pub fn search_structure(name: impl Into<String>) -> Self {
        let mut s = Self::new(name);
        for m in ["insert", "delete", "update"] {
            for m2 in ["insert", "delete", "update", "search"] {
                s = s.rule(m, m2, SameKeyRule::Conflict);
            }
        }
        s = s.rule("search", "search", SameKeyRule::Commute);
        s.readers.push("search".into());
        s.scans.push("readSeq".into());
        s
    }

    /// Register the same-key rule for a method pair (symmetric).
    pub fn rule(mut self, m1: &str, m2: &str, rule: SameKeyRule) -> Self {
        self.same_key.insert((m1.to_owned(), m2.to_owned()), rule);
        self.same_key.insert((m2.to_owned(), m1.to_owned()), rule);
        self
    }

    /// Register a read-only keyed method.
    pub fn reader(mut self, m: &str) -> Self {
        self.readers.push(m.to_owned());
        self
    }

    /// Register a keyless whole-object scan method.
    pub fn scan(mut self, m: &str) -> Self {
        self.scans.push(m.to_owned());
        self
    }

    fn is_scan(&self, d: &ActionDescriptor) -> bool {
        self.scans.contains(&d.method)
    }

    fn is_reader(&self, d: &ActionDescriptor) -> bool {
        self.readers.contains(&d.method) || self.is_scan(d)
    }
}

impl CommutativitySpec for KeyedSpec {
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool {
        // Whole-object scans: commute only with readers.
        if self.is_scan(a) || self.is_scan(b) {
            return self.is_reader(a) && self.is_reader(b);
        }
        match (a.key(), b.key()) {
            (Some(ka), Some(kb)) if ka != kb => true,
            (Some(_), Some(_)) => match self.same_key.get(&(a.method.clone(), b.method.clone())) {
                Some(SameKeyRule::Commute) => true,
                Some(SameKeyRule::Conflict) => false,
                // unknown pair: conservative
                None => false,
            },
            // keyless non-scan methods: conservative
            _ => false,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Escrow-style semantics for numeric counters (accounts, quantities),
/// after O'Neil's escrow method which the paper cites for including
/// "parameter values and the status of accessed objects" in the
/// commutativity definition.
///
/// `deposit(n)` and `withdraw(n)` are blind relative updates and commute
/// with each other; `read`/`balance` conflicts with updates but commutes
/// with itself. `withdraw` pairs conflict when `bounded` is set, modelling
/// the state-dependent case where a lower bound could be violated under
/// reordering.
#[derive(Debug, Clone, Copy)]
pub struct EscrowSpec {
    /// If true, `withdraw`/`withdraw` pairs conflict (bound checks).
    pub bounded: bool,
}

impl EscrowSpec {
    /// Unbounded counters: all relative updates commute.
    pub fn unbounded() -> Self {
        EscrowSpec { bounded: false }
    }

    /// Lower-bounded counters: withdrawals conflict pairwise.
    pub fn bounded() -> Self {
        EscrowSpec { bounded: true }
    }
}

impl CommutativitySpec for EscrowSpec {
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool {
        let class = |d: &ActionDescriptor| match d.method.as_str() {
            "deposit" => Some(0u8),
            "withdraw" => Some(1),
            "read" | "balance" => Some(2),
            _ => None,
        };
        match (class(a), class(b)) {
            (Some(2), Some(2)) => true,                       // read/read
            (Some(2), Some(_)) | (Some(_), Some(2)) => false, // read vs update
            (Some(1), Some(1)) => !self.bounded,              // withdraw/withdraw
            (Some(_), Some(_)) => true,                       // deposit with any update
            _ => false,
        }
    }

    fn name(&self) -> &str {
        if self.bounded {
            "escrow-bounded"
        } else {
            "escrow"
        }
    }
}

/// Explicit commutativity matrix over method names (ignores arguments).
/// Pairs not listed conservatively conflict.
#[derive(Debug, Clone, Default)]
pub struct MatrixSpec {
    name: String,
    commuting: HashMap<(String, String), ()>,
}

impl MatrixSpec {
    /// Empty matrix with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        MatrixSpec {
            name: name.into(),
            commuting: HashMap::new(),
        }
    }

    /// Declare that `m1` and `m2` commute (symmetric).
    pub fn commuting(mut self, m1: &str, m2: &str) -> Self {
        self.commuting.insert((m1.to_owned(), m2.to_owned()), ());
        self.commuting.insert((m2.to_owned(), m1.to_owned()), ());
        self
    }
}

impl CommutativitySpec for MatrixSpec {
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool {
        self.commuting
            .contains_key(&(a.method.clone(), b.method.clone()))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Range semantics for ordered containers: operations carry either a
/// single key or a `[lo, hi]` range (two key arguments), and two
/// operations commute iff their key sets are disjoint, or both only read.
///
/// This is the semantic answer to the *phantom problem* the paper lists
/// among the §1 anomalies: a `rangeScan[lo,hi]` conflicts with exactly
/// the inserts/deletes whose key falls inside `[lo,hi]` — no more (no
/// page-level false sharing) and no less (no phantoms).
#[derive(Debug, Clone)]
pub struct RangeSpec {
    name: String,
    /// Methods that only read (point reads and range scans).
    readers: Vec<String>,
}

impl RangeSpec {
    /// A spec where `readers` (e.g. `search`, `rangeScan`) only read and
    /// everything else updates.
    pub fn new(name: impl Into<String>, readers: &[&str]) -> Self {
        RangeSpec {
            name: name.into(),
            readers: readers.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The standard ordered-container instance: `search`/`rangeScan`/
    /// `readSeq` read; `insert`/`delete`/`update` write. On point
    /// operations this coincides with [`KeyedSpec::search_structure`];
    /// range scans additionally conflict with exactly the updates inside
    /// their interval (semantic phantom protection).
    pub fn ordered_container(name: impl Into<String>) -> Self {
        Self::new(name, &["search", "rangeScan", "readSeq"])
    }

    fn is_reader(&self, d: &ActionDescriptor) -> bool {
        self.readers.contains(&d.method)
    }

    /// The key interval of a descriptor: `[k, k]` for one key argument,
    /// `[lo, hi]` for two. `None` when no key arguments are present
    /// (whole-object operation: overlaps everything).
    fn interval(d: &ActionDescriptor) -> Option<(&str, &str)> {
        let ks: Vec<&str> = d.args.iter().filter_map(Value::as_key).collect();
        match ks.as_slice() {
            [k] => Some((k, k)),
            [lo, hi] => Some((lo.min(hi), lo.max(hi))),
            _ => None,
        }
    }
}

impl CommutativitySpec for RangeSpec {
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool {
        if self.is_reader(a) && self.is_reader(b) {
            return true;
        }
        match (Self::interval(a), Self::interval(b)) {
            (Some((alo, ahi)), Some((blo, bhi))) => ahi < blo || bhi < alo,
            // keyless operation: touches everything
            _ => false,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Every pair of actions commutes. Useful for containers whose methods are
/// fully independent, and as an ablation extreme.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllCommute;

impl CommutativitySpec for AllCommute {
    fn commutes(&self, _: &ActionDescriptor, _: &ActionDescriptor) -> bool {
        true
    }

    fn name(&self) -> &str {
        "all-commute"
    }
}

/// Every pair of actions conflicts — the zero-semantics baseline that
/// degrades oo-serializability to conventional behaviour.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllConflict;

impl CommutativitySpec for AllConflict {
    fn commutes(&self, _: &ActionDescriptor, _: &ActionDescriptor) -> bool {
        false
    }

    fn name(&self) -> &str {
        "all-conflict"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::key;

    fn d(m: &str, args: Vec<Value>) -> ActionDescriptor {
        ActionDescriptor::new(m, args)
    }

    #[test]
    fn read_write_spec() {
        let s = ReadWriteSpec;
        let r = d("read", vec![]);
        let w = d("write", vec![]);
        assert!(s.commutes(&r, &r));
        assert!(!s.commutes(&r, &w));
        assert!(!s.commutes(&w, &r));
        assert!(!s.commutes(&w, &w));
        // unknown method conflicts
        assert!(!s.commutes(&d("mystery", vec![]), &r));
    }

    #[test]
    fn keyed_different_keys_commute() {
        // the paper's Example 1: insert(DBS) Θ insert(DBMS) on a leaf
        let s = KeyedSpec::search_structure("leaf");
        let i1 = d("insert", vec![key("DBS")]);
        let i2 = d("insert", vec![key("DBMS")]);
        assert!(s.commutes(&i1, &i2));
    }

    #[test]
    fn keyed_same_key_insert_search_conflict() {
        // the paper's Example 1: insert(DBS) conflicts with search(DBS)
        let s = KeyedSpec::search_structure("leaf");
        let i = d("insert", vec![key("DBS")]);
        let q = d("search", vec![key("DBS")]);
        assert!(!s.commutes(&i, &q));
        assert!(!s.commutes(&q, &i));
    }

    #[test]
    fn keyed_same_key_searches_commute() {
        let s = KeyedSpec::search_structure("leaf");
        let q = d("search", vec![key("DBS")]);
        assert!(s.commutes(&q, &q.clone()));
    }

    #[test]
    fn keyed_scan_conflicts_with_updates_commutes_with_reads() {
        // Example 4: T2 (changes an item) conflicts with T4's readSeq on
        // LinkedList, but two readSeq commute.
        let s = KeyedSpec::search_structure("list");
        let scan = d("readSeq", vec![]);
        let ins = d("insert", vec![key("DBS")]);
        let q = d("search", vec![key("DBS")]);
        assert!(!s.commutes(&scan, &ins));
        assert!(!s.commutes(&ins, &scan));
        assert!(s.commutes(&scan, &q));
        assert!(s.commutes(&scan, &scan.clone()));
    }

    #[test]
    fn keyed_unknown_method_conflicts() {
        let s = KeyedSpec::search_structure("leaf");
        let m = d("mystery", vec![key("k")]);
        assert!(!s.commutes(&m, &m.clone()));
        // but different keys still commute (key dominance)
        let m2 = d("mystery", vec![key("other")]);
        assert!(s.commutes(&m, &m2));
    }

    #[test]
    fn escrow_updates_commute_reads_conflict() {
        let s = EscrowSpec::unbounded();
        let dep = d("deposit", vec![Value::Int(5)]);
        let wd = d("withdraw", vec![Value::Int(3)]);
        let rd = d("read", vec![]);
        assert!(s.commutes(&dep, &dep.clone()));
        assert!(s.commutes(&dep, &wd));
        assert!(s.commutes(&wd, &wd.clone()));
        assert!(!s.commutes(&rd, &dep));
        assert!(s.commutes(&rd, &rd.clone()));
    }

    #[test]
    fn escrow_bounded_withdrawals_conflict() {
        let s = EscrowSpec::bounded();
        let wd = d("withdraw", vec![Value::Int(3)]);
        let dep = d("deposit", vec![Value::Int(5)]);
        assert!(!s.commutes(&wd, &wd.clone()));
        assert!(s.commutes(&dep, &wd));
    }

    #[test]
    fn matrix_spec_defaults_to_conflict() {
        let s = MatrixSpec::new("m").commuting("a", "b");
        assert!(s.commutes(&d("a", vec![]), &d("b", vec![])));
        assert!(s.commutes(&d("b", vec![]), &d("a", vec![])));
        assert!(!s.commutes(&d("a", vec![]), &d("a", vec![])));
        assert!(!s.commutes(&d("a", vec![]), &d("c", vec![])));
    }

    #[test]
    fn extremes() {
        let a = d("x", vec![]);
        let b = d("y", vec![]);
        assert!(AllCommute.commutes(&a, &b));
        assert!(!AllConflict.commutes(&a, &b));
    }

    #[test]
    fn range_spec_phantoms() {
        let s = RangeSpec::ordered_container("idx");
        let scan = d("rangeScan", vec![key("B"), key("M")]);
        // an insert INSIDE the scanned range is a phantom: conflict
        assert!(!s.commutes(&scan, &d("insert", vec![key("D")])));
        // an insert OUTSIDE commutes
        assert!(s.commutes(&scan, &d("insert", vec![key("Z")])));
        assert!(s.commutes(&scan, &d("insert", vec![key("A")])));
        // boundary keys are inside
        assert!(!s.commutes(&scan, &d("insert", vec![key("B")])));
        assert!(!s.commutes(&scan, &d("insert", vec![key("M")])));
    }

    #[test]
    fn range_spec_reader_pairs_commute() {
        let s = RangeSpec::ordered_container("idx");
        let scan1 = d("rangeScan", vec![key("A"), key("Z")]);
        let scan2 = d("rangeScan", vec![key("B"), key("C")]);
        let point = d("search", vec![key("C")]);
        assert!(s.commutes(&scan1, &scan2));
        assert!(s.commutes(&scan1, &point));
    }

    #[test]
    fn range_spec_overlapping_updates_conflict() {
        let s = RangeSpec::ordered_container("idx");
        let del = d("deleteRange", vec![key("A"), key("F")]);
        assert!(!s.commutes(&del, &d("insert", vec![key("C")])));
        assert!(s.commutes(&del, &d("insert", vec![key("G")])));
        // reversed bounds are normalized
        let rev = d("deleteRange", vec![key("F"), key("A")]);
        assert!(!s.commutes(&rev, &d("insert", vec![key("C")])));
    }

    #[test]
    fn range_spec_keyless_conflicts_with_updates() {
        let s = RangeSpec::ordered_container("idx");
        let compact = d("compact", vec![]);
        assert!(!s.commutes(&compact, &d("insert", vec![key("C")])));
        assert!(!s.commutes(&compact, &compact.clone()));
    }

    #[test]
    fn shared_handles_are_value_identical_to_fresh_descriptors() {
        use std::collections::HashSet;
        let fresh = d("search", vec![key("DBS")]);
        let shared = DescriptorRef::from(fresh.clone());
        let level2 = shared.clone();
        assert_eq!(*shared, fresh);
        assert_eq!(shared, level2);
        assert_eq!(shared.to_string(), fresh.to_string());
        assert_eq!(format!("{shared:?}"), format!("{fresh:?}"));
        // the page constants equal the descriptors executors used to build
        assert_eq!(*DescriptorRef::read(), d("read", vec![]));
        assert_eq!(*DescriptorRef::write(), d("write", vec![]));
        assert_eq!(
            DescriptorRef::read(),
            DescriptorRef::from(d("read", vec![]))
        );
        let set: HashSet<DescriptorRef> = [DescriptorRef::read(), d("read", vec![]).into()]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 1, "hash follows the value, not the handle");
        // and the commutativity test sees no difference
        let s = ReadWriteSpec;
        assert!(s.commutes(&DescriptorRef::read(), &d("read", vec![])));
        assert!(!s.commutes(&DescriptorRef::write(), &DescriptorRef::read()));
    }

    #[test]
    fn descriptor_display() {
        let i = d("insert", vec![key("DBS")]);
        assert_eq!(i.to_string(), "insert(DBS)");
        assert_eq!(d("readSeq", vec![]).to_string(), "readSeq()");
    }
}
