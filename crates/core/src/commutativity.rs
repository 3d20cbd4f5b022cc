//! Commutativity specifications (Definition 9).
//!
//! The paper assumes "a commutativity matrix for every object for all
//! their actions", possibly dependent on parameter values (the escrow
//! method) — two actions either *commute* (`a Θ a'`) or are *in conflict*.
//! A [`CommutativitySpec`] is the executable form of that matrix. The
//! specification belongs to the implementor of an object type ("he can
//! specify the semantics of the implemented object type") and is the only
//! semantic knowledge the concurrency machinery consumes.
//!
//! A matrix is stated over a finite set of operation *kinds* plus
//! predicates on their parameters (Malta & Martinez). Here a kind is a
//! [`Method`] variant, so every built-in spec is a `match` over kinds and
//! a comparison of keys (by their bytes); no spec looks at an operation's
//! name.

use crate::value::{Key, Value};
use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::Arc;

/// Declares [`Method`]'s built-in kinds, each with the name it displays
/// as, in one table.
macro_rules! kinds {
    ($($(#[$doc:meta])* $kind:ident = $name:literal,)*) => {
        /// The operation of an action — the `m` of the paper's
        /// `m(parameters)`.
        ///
        /// Every operation the built-in specs, the lock table,
        /// compensation, recovery and the trace know is a dataless
        /// variant: comparing two of them compares two small
        /// discriminants. Any other name — a transaction root's `J17` or
        /// `C(J5a0)`, a figure's `transfer`, a test's `mystery` — is
        /// [`Method::Named`] and owns its text, so no table grows with the
        /// number of transactions. [`Method::from`] maps a built-in name to
        /// its kind, so a method is `Named` only when its name is no kind's.
        #[derive(Clone, PartialEq, Eq, Hash)]
        pub enum Method {
            $($(#[$doc])* $kind,)*
            /// Any name that is not a built-in kind's.
            Named(Name),
        }

        impl Method {
            /// Every built-in kind, in declaration order.
            pub const KINDS: &'static [Method] = &[$(Method::$kind),*];

            /// The name the method displays as.
            pub fn as_str(&self) -> &str {
                match self {
                    $(Method::$kind => $name,)*
                    Method::Named(name) => name.as_str(),
                }
            }

            fn builtin(name: &str) -> Option<Method> {
                match name {
                    $($name => Some(Method::$kind),)*
                    _ => None,
                }
            }
        }
    };
}

kinds! {
    /// Page primitive `read()`.
    Read = "read",
    /// Page primitive `write()`.
    Write = "write",
    /// Point read of one key.
    Search = "search",
    /// Insert of one key.
    Insert = "insert",
    /// Delete of one key.
    Delete = "delete",
    /// Rewrite of one key's item.
    Update = "update",
    /// Keyless whole-object scan.
    ReadSeq = "readSeq",
    /// Scan of the key interval `[lo, hi]`.
    RangeScan = "rangeScan",
    /// A B-link split installing a separator key in a father node.
    Rearrange = "rearrange",
    /// Keyless whole-container write (the page-level lock ablation).
    ModifySeq = "modifySeq",
    /// Escrow increment.
    Deposit = "deposit",
    /// Escrow decrement.
    Withdraw = "withdraw",
    /// Escrow read.
    Balance = "balance",
}

/// The text of a [`Method::Named`]: only [`Method::from`] builds one, and
/// only for a name that is no built-in kind's, so two methods are equal
/// exactly when their names are.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name(String);

impl Name {
    /// The name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Method {
    /// True for a built-in kind, false for a free-form name.
    pub fn is_kind(&self) -> bool {
        !matches!(self, Method::Named(_))
    }
}

impl From<&str> for Method {
    fn from(name: &str) -> Method {
        Method::builtin(name).unwrap_or_else(|| Method::Named(Name(name.to_owned())))
    }
}

impl From<String> for Method {
    fn from(name: String) -> Method {
        Method::builtin(&name).unwrap_or(Method::Named(Name(name)))
    }
}

impl fmt::Debug for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The parameter values of an action. Up to two are stored inline (a key,
/// a range's bounds, a key and a saved text); more spill into one heap
/// block. Dereferences to `[Value]`.
#[derive(Clone, Default)]
pub struct Args(ArgsRepr);

#[derive(Clone, Default)]
enum ArgsRepr {
    #[default]
    Zero,
    One(Value),
    Two([Value; 2]),
    Many(Box<[Value]>),
}

impl Deref for Args {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match &self.0 {
            ArgsRepr::Zero => &[],
            ArgsRepr::One(v) => std::slice::from_ref(v),
            ArgsRepr::Two(vs) => vs,
            ArgsRepr::Many(vs) => vs,
        }
    }
}

impl FromIterator<Value> for Args {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Args {
        let mut it = iter.into_iter();
        let Some(a) = it.next() else {
            return Args(ArgsRepr::Zero);
        };
        let Some(b) = it.next() else {
            return Args(ArgsRepr::One(a));
        };
        let Some(c) = it.next() else {
            return Args(ArgsRepr::Two([a, b]));
        };
        Args(ArgsRepr::Many([a, b, c].into_iter().chain(it).collect()))
    }
}

impl From<Vec<Value>> for Args {
    fn from(args: Vec<Value>) -> Args {
        args.into_iter().collect()
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl std::hash::Hash for Args {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// What the commutativity test sees of an action: the method plus its
/// parameter values, i.e. the paper's `m(parameters)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActionDescriptor {
    /// The operation, e.g. [`Method::Insert`], [`Method::Read`].
    pub method: Method,
    /// Parameter values the commutativity decision may depend on.
    pub args: Args,
}

impl ActionDescriptor {
    /// Build a descriptor from a method and arguments. A method given by
    /// name is resolved to its kind here, once.
    pub fn new(method: impl Into<Method>, args: impl Into<Args>) -> Self {
        ActionDescriptor {
            method: method.into(),
            args: args.into(),
        }
    }

    /// A descriptor with no arguments.
    pub fn nullary(method: impl Into<Method>) -> Self {
        Self::new(method, Args::default())
    }

    /// `method(key)`: allocation-free for a key that fits inline.
    pub fn keyed(method: Method, key: &str) -> Self {
        ActionDescriptor {
            method,
            args: Args(ArgsRepr::One(Value::Key(Key::new(key)))),
        }
    }

    /// `method(lo,hi)` over the key interval `[lo, hi]`.
    pub fn range(method: Method, lo: &str, hi: &str) -> Self {
        let bounds = [Value::Key(Key::new(lo)), Value::Key(Key::new(hi))];
        ActionDescriptor {
            method,
            args: Args(ArgsRepr::Two(bounds)),
        }
    }

    /// First argument interpreted as a key, if present.
    pub fn key(&self) -> Option<&str> {
        self.args.first().and_then(Value::as_key)
    }

    /// The keys among the arguments, as the specs compare them.
    fn keys(&self) -> impl Iterator<Item = &Key> {
        self.args.iter().filter_map(|v| match v {
            Value::Key(k) => Some(k),
            _ => None,
        })
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

/// The page primitives' descriptors, shared by every thread and never
/// counted.
static READ: ActionDescriptor = ActionDescriptor {
    method: Method::Read,
    args: Args(ArgsRepr::Zero),
};
static WRITE: ActionDescriptor = ActionDescriptor {
    method: Method::Write,
    args: Args(ArgsRepr::Zero),
};

/// Low bit of a [`DescriptorRef`]'s address: set for a `'static`
/// descriptor, clear for one inside an `Arc`.
const STATIC: usize = 1;

/// Shared, immutable handle to an [`ActionDescriptor`] — the form in
/// which an action of the record stores its `m(parameters)`. Eight bytes:
/// the descriptor's address, tagged in its low bit.
///
/// One operation's descriptor is recorded at every level of its call
/// path (`Enc.search(k)` → `BpTree.search(k)` → each node's `search(k)`),
/// so the levels share one allocation through [`Clone`], which counts
/// like an `Arc`'s. The two page primitives, [`DescriptorRef::read`] and
/// [`DescriptorRef::write`], point at process-wide statics and are never
/// counted: recording a page access neither allocates nor writes a
/// reference count that other threads write.
///
/// Dereferences to the descriptor; equality, hashing and display are the
/// descriptor's own, so a shared handle and a freshly built descriptor
/// with the same method and arguments are indistinguishable to the
/// commutativity test.
pub struct DescriptorRef {
    tagged: NonNull<ActionDescriptor>,
}

// The tag needs a free low bit; the record and the recorder's stages need
// the handle at eight bytes, and an optional one at eight too.
const _: () = {
    assert!(std::mem::align_of::<ActionDescriptor>() > STATIC);
    assert!(std::mem::size_of::<DescriptorRef>() == 8);
    assert!(std::mem::size_of::<Option<DescriptorRef>>() == 8);
};

// SAFETY: a `DescriptorRef` is an `Arc<ActionDescriptor>` or a
// `&'static ActionDescriptor`, both `Send` and `Sync` because the
// descriptor is; the handle adds no interior mutability of its own.
unsafe impl Send for DescriptorRef {}
// SAFETY: as for `Send`.
unsafe impl Sync for DescriptorRef {}

impl DescriptorRef {
    /// The nullary page primitive `read()`.
    pub fn read() -> Self {
        Self::from_static(&READ)
    }

    /// The nullary page primitive `write()`.
    pub fn write() -> Self {
        Self::from_static(&WRITE)
    }

    fn from_static(d: &'static ActionDescriptor) -> Self {
        let tagged = (d as *const ActionDescriptor)
            .cast::<u8>()
            .wrapping_add(STATIC);
        // SAFETY: one past the start of a live static is not null.
        let tagged =
            unsafe { NonNull::new_unchecked(tagged.cast::<ActionDescriptor>().cast_mut()) };
        DescriptorRef { tagged }
    }

    fn is_static(&self) -> bool {
        self.tagged.as_ptr() as usize & STATIC != 0
    }
}

impl From<ActionDescriptor> for DescriptorRef {
    fn from(d: ActionDescriptor) -> Self {
        let raw = Arc::into_raw(Arc::new(d));
        // SAFETY: `Arc::into_raw` never returns null.
        let tagged = unsafe { NonNull::new_unchecked(raw.cast_mut()) };
        DescriptorRef { tagged }
    }
}

impl Clone for DescriptorRef {
    fn clone(&self) -> Self {
        if !self.is_static() {
            // SAFETY: the address came from `Arc::into_raw`, and this
            // handle owns one of the counts keeping that `Arc` alive.
            unsafe { Arc::increment_strong_count(self.tagged.as_ptr()) }
        }
        DescriptorRef {
            tagged: self.tagged,
        }
    }
}

impl Drop for DescriptorRef {
    fn drop(&mut self) {
        if !self.is_static() {
            // SAFETY: the address came from `Arc::into_raw`, and this
            // handle gives back the one count it owns, once.
            unsafe { Arc::decrement_strong_count(self.tagged.as_ptr()) }
        }
    }
}

impl Deref for DescriptorRef {
    type Target = ActionDescriptor;

    fn deref(&self) -> &ActionDescriptor {
        let ptr = if self.is_static() {
            self.tagged
                .as_ptr()
                .cast::<u8>()
                .wrapping_sub(STATIC)
                .cast()
        } else {
            self.tagged.as_ptr()
        };
        // SAFETY: untagged, the address is a live static's or that of an
        // `Arc` this handle keeps alive for at least as long as `self`.
        unsafe { &*ptr }
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
/// This invariant is tested exhaustively for every built-in spec.
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
        matches!((&a.method, &b.method), (Method::Read, Method::Read))
    }

    fn name(&self) -> &str {
        "read-write"
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
        use Method::{Balance, Deposit, Read, Withdraw};
        match (&a.method, &b.method) {
            (Read | Balance, Read | Balance) => true,
            (Read | Balance, Deposit | Withdraw) | (Deposit | Withdraw, Read | Balance) => false,
            (Withdraw, Withdraw) => !self.bounded,
            (Deposit, Deposit | Withdraw) | (Withdraw, Deposit) => true,
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

/// Explicit commutativity matrix over built-in kinds (ignores
/// arguments). Pairs not listed, and every free-form name, conservatively
/// conflict.
#[derive(Debug, Clone, Default)]
pub struct MatrixSpec {
    name: String,
    /// Commuting pairs, each stored in both orders.
    commuting: Vec<(Method, Method)>,
}

impl MatrixSpec {
    /// Empty matrix with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        MatrixSpec {
            name: name.into(),
            commuting: Vec::new(),
        }
    }

    /// Declare that `m1` and `m2` commute (symmetric). Panics unless both
    /// are built-in kinds: a matrix is stated over the finite kind set.
    pub fn commuting(mut self, m1: Method, m2: Method) -> Self {
        assert!(
            m1.is_kind() && m2.is_kind(),
            "a matrix entry needs two built-in kinds, got {m1} and {m2}"
        );
        self.commuting.push((m2.clone(), m1.clone()));
        self.commuting.push((m1, m2));
        self
    }
}

impl CommutativitySpec for MatrixSpec {
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool {
        self.commuting
            .iter()
            .any(|(x, y)| *x == a.method && *y == b.method)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Range semantics for ordered containers and search structures (the
/// encyclopedia, B⁺-tree nodes and leaves, the item list): operations
/// carry either a single key or a `[lo, hi]` range (two key arguments),
/// and two operations commute iff their key sets are disjoint, or both
/// only read (`search`, `rangeScan`, `readSeq`). So operations on
/// **different keys always commute** — the source of the extra
/// concurrency in Example 1 — while on the same key only readers do; a
/// keyless writer, or a kind the structure does not define without a
/// key, conservatively conflicts with everything.
///
/// This is also the semantic answer to the *phantom problem* the paper
/// lists among the §1 anomalies: a `rangeScan[lo,hi]` conflicts with
/// exactly the inserts/deletes whose key falls inside `[lo,hi]` — no
/// more (no page-level false sharing) and no less (no phantoms).
#[derive(Debug, Clone)]
pub struct RangeSpec {
    name: String,
}

impl RangeSpec {
    /// The ordered-container spec, with the given diagnostic name.
    pub fn ordered_container(name: impl Into<String>) -> Self {
        RangeSpec { name: name.into() }
    }

    /// The key interval of a descriptor: `[k, k]` for one key argument,
    /// `[lo, hi]` for two. `None` when no key arguments are present
    /// (whole-object operation: overlaps everything).
    fn interval(d: &ActionDescriptor) -> Option<(&Key, &Key)> {
        let mut keys = d.keys();
        let first = keys.next()?;
        match (keys.next(), keys.next()) {
            (None, _) => Some((first, first)),
            (Some(second), None) => Some((first.min(second), first.max(second))),
            (Some(_), Some(_)) => None,
        }
    }
}

impl CommutativitySpec for RangeSpec {
    fn commutes(&self, a: &ActionDescriptor, b: &ActionDescriptor) -> bool {
        use Method::{RangeScan, ReadSeq, Search};
        if let (Search | RangeScan | ReadSeq, Search | RangeScan | ReadSeq) = (&a.method, &b.method)
        {
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
        let s = RangeSpec::ordered_container("leaf");
        let i1 = d("insert", vec![key("DBS")]);
        let i2 = d("insert", vec![key("DBMS")]);
        assert!(s.commutes(&i1, &i2));
    }

    #[test]
    fn keyed_same_key_insert_search_conflict() {
        // the paper's Example 1: insert(DBS) conflicts with search(DBS)
        let s = RangeSpec::ordered_container("leaf");
        let i = d("insert", vec![key("DBS")]);
        let q = d("search", vec![key("DBS")]);
        assert!(!s.commutes(&i, &q));
        assert!(!s.commutes(&q, &i));
    }

    #[test]
    fn keyed_same_key_searches_commute() {
        let s = RangeSpec::ordered_container("leaf");
        let q = d("search", vec![key("DBS")]);
        assert!(s.commutes(&q, &q.clone()));
    }

    #[test]
    fn keyed_scan_conflicts_with_updates_commutes_with_reads() {
        // Example 4: T2 (changes an item) conflicts with T4's readSeq on
        // LinkedList, but two readSeq commute.
        let s = RangeSpec::ordered_container("list");
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
        let s = RangeSpec::ordered_container("leaf");
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
        let s = MatrixSpec::new("m").commuting(Method::Deposit, Method::Balance);
        let (dep, bal) = (d("deposit", vec![]), d("balance", vec![]));
        assert!(s.commutes(&dep, &bal));
        assert!(s.commutes(&bal, &dep));
        assert!(!s.commutes(&dep, &dep));
        assert!(!s.commutes(&dep, &d("withdraw", vec![])));
        assert!(!s.commutes(&d("mystery", vec![]), &d("mystery", vec![])));
    }

    #[test]
    #[should_panic(expected = "two built-in kinds")]
    fn matrix_entries_are_kinds() {
        let _ = MatrixSpec::new("m").commuting(Method::from("a"), Method::Read);
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

    /// Shared handles clone, cross threads and drop like an `Arc`; the
    /// static ones like a reference.
    #[test]
    fn handles_clone_and_drop_across_threads() {
        let handle = DescriptorRef::from(d("insert", vec![key("k")]));
        let clones: Vec<DescriptorRef> = (0..8)
            .map(|i| match i % 2 {
                0 => handle.clone(),
                _ => DescriptorRef::read(),
            })
            .collect();
        drop(handle);
        let shown: Vec<String> = std::thread::spawn(move || {
            let again: Vec<DescriptorRef> = clones.to_vec();
            drop(clones);
            again.iter().map(|c| c.to_string()).collect()
        })
        .join()
        .unwrap();
        assert_eq!(shown[..2], ["insert(k)", "read()"]);
        assert_eq!(shown.len(), 8);
    }

    #[test]
    fn descriptor_display() {
        let i = d("insert", vec![key("DBS")]);
        assert_eq!(i.to_string(), "insert(DBS)");
        assert_eq!(d("readSeq", vec![]).to_string(), "readSeq()");
        assert_eq!(d("C(J5a0)", vec![]).to_string(), "C(J5a0)()");
        let many = d("transfer", vec!["a".into(), "b".into(), Value::Int(3)]);
        assert_eq!(many.to_string(), "transfer(\"a\",\"b\",3)");
    }

    #[test]
    fn names_resolve_to_kinds() {
        for kind in Method::KINDS {
            assert!(kind.is_kind());
            assert_eq!(&Method::from(kind.as_str()), kind);
            assert_eq!(&Method::from(kind.as_str().to_owned()), kind);
        }
        let named = Method::from("J17");
        assert!(!named.is_kind());
        assert_eq!(named.as_str(), "J17");
        assert_eq!(named, Method::from("J17".to_owned()));
        assert_eq!(format!("{named:?}"), "\"J17\"");
    }

    #[test]
    fn keyed_constructors_equal_the_general_one() {
        assert_eq!(
            ActionDescriptor::keyed(Method::Search, "DBS"),
            d("search", vec![key("DBS")])
        );
        assert_eq!(
            ActionDescriptor::range(Method::RangeScan, "B", "M"),
            d("rangeScan", vec![key("B"), key("M")])
        );
        let three: Args = vec![key("a"), key("b"), key("c")].into();
        assert_eq!(three.len(), 3);
        assert_eq!(format!("{three:?}"), "[Key(\"a\"), Key(\"b\"), Key(\"c\")]");
    }
}
