//! Live recording of executions into a core transaction system.
//!
//! The checker side of the reproduction ([`oodb_core`]) works on a
//! *recorded* [`TransactionSystem`] plus [`History`]. This module is the
//! bridge from live code — the B⁺ tree, the object-model dispatcher, the
//! concurrency simulator — to that record: a thread-safe [`Recorder`]
//! owning the system and history, and per-transaction [`TxnCtx`] cursors
//! that executors thread through their call stacks.
//!
//! Every `enter`/`exit` pair records a non-primitive action (a method that
//! sends further messages); every `primitive` records a leaf action *and*
//! appends its execution to the history in real time, realizing Axiom 1's
//! order by construction. Both are thin wrappers over [`TxnCtx::record`],
//! which takes the recorder once for a whole page visit — the actions it
//! opens plus the page primitive under them.
//!
//! # Concurrent recording
//!
//! The engine's latched execution path drives many transactions through
//! the encyclopedia *simultaneously* — page latches, not a global
//! database mutex, order the physical accesses. The recorder is the one
//! piece of shared state every worker still touches on every primitive,
//! so its contract is load-bearing:
//!
//! * [`Recorder`] is `Send + Sync` and cheap to clone; all clones append
//!   into one mutex-guarded system + history. A primitive is created
//!   and claims its history position inside one acquisition of that
//!   mutex, so the position *is* the real execution order of that page
//!   access under whatever latch made the access safe — exactly the
//!   Axiom 1 order the checkers need. Batching the enclosing `enter`s
//!   into the same acquisition changes nothing the checkers see: a
//!   non-primitive action has no history position, and its place in the
//!   call tree depends only on its own transaction's cursor.
//! * [`TxnCtx`] is `Send` but deliberately not `Sync`: a transaction is
//!   one of the paper's Definition 9 processes, driven by exactly one
//!   worker at a time, though it may migrate between workers across
//!   retries. Each cursor keeps its own call-stack, so two transactions
//!   recording interleaved nested actions never see each other's frames.
//!
//! The compile-time assertions below pin both bounds; losing either
//! (say, by storing a non-`Send` field in a cursor) would silently
//! re-serialize the engine behind the recorder.

use oodb_core::commutativity::{DescriptorRef, SpecRef};
use oodb_core::history::History;
use oodb_core::ids::{ActionIdx, ObjectIdx};
use oodb_core::system::TransactionSystem;
use parking_lot::Mutex;
use std::sync::Arc;

struct Inner {
    ts: TransactionSystem,
    history: History,
}

// The latched engine hands recorder clones to every worker thread and
// migrates transaction cursors between workers across retries; both
// bounds are part of the crate's public contract (see module docs).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Recorder>();
    assert_send::<TxnCtx>();
};

/// Shared, thread-safe recorder. Cheap to clone.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with an empty system and history.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(Inner {
                ts: TransactionSystem::new(),
                history: History::new(),
            })),
        }
    }

    /// Get or register the object `name` with commutativity spec `spec`.
    /// If the object already exists, its original spec is kept.
    pub fn object(&self, name: &str, spec: SpecRef) -> ObjectIdx {
        let mut inner = self.inner.lock();
        if let Some(o) = inner.ts.object_by_name(name) {
            return o;
        }
        inner.ts.add_object(name, spec)
    }

    /// Look up an already registered object.
    pub fn find_object(&self, name: &str) -> Option<ObjectIdx> {
        self.inner.lock().ts.object_by_name(name)
    }

    /// Begin a new top-level transaction.
    pub fn begin_txn(&self, name: impl Into<String>) -> TxnCtx {
        let mut inner = self.inner.lock();
        let root = inner.ts.begin_top(name);
        let number = inner.ts.action(root).txn.0;
        drop(inner);
        TxnCtx {
            recorder: self.clone(),
            root,
            number,
            stack: vec![root],
        }
    }

    /// Clone out the recorded system and history for analysis.
    pub fn snapshot(&self) -> (TransactionSystem, History) {
        let inner = self.inner.lock();
        (inner.ts.clone(), inner.history.clone())
    }

    /// Run `f` against the live record under the recorder lock, without
    /// cloning anything. This is the delta-extraction entry point for
    /// incremental certification: the history is append-only, so a
    /// caller tracking its last-seen position reads exactly the suffix
    /// appended since — O(new actions) instead of the O(history) clone
    /// of [`Recorder::snapshot`]. Keep `f` short: recording blocks while
    /// it runs, and it must not call back into this recorder.
    pub fn with_record<R>(&self, f: impl FnOnce(&TransactionSystem, &History) -> R) -> R {
        let inner = self.inner.lock();
        f(&inner.ts, &inner.history)
    }

    /// Consume the recorder (if this is the last handle) or clone,
    /// returning the recorded system and history.
    pub fn finish(self) -> (TransactionSystem, History) {
        match Arc::try_unwrap(self.inner) {
            Ok(m) => {
                let inner = m.into_inner();
                (inner.ts, inner.history)
            }
            Err(arc) => {
                let inner = arc.lock();
                (inner.ts.clone(), inner.history.clone())
            }
        }
    }

    /// Number of primitive executions recorded so far.
    pub fn history_len(&self) -> usize {
        self.inner.lock().history.len()
    }
}

/// Cursor of one in-flight transaction. Not `Sync`: each transaction is
/// driven by one executor at a time (one *process* in the paper's
/// Definition 9 sense).
pub struct TxnCtx {
    recorder: Recorder,
    root: ActionIdx,
    number: u32,
    stack: Vec<ActionIdx>,
}

impl TxnCtx {
    /// The root action (the transaction itself).
    pub fn root(&self) -> ActionIdx {
        self.root
    }

    /// Zero-based number of this top-level transaction (stable key for
    /// compensation logs and schedulers).
    pub fn txn_number(&self) -> u32 {
        self.number
    }

    /// The action currently being recorded into.
    pub fn current(&self) -> ActionIdx {
        *self.stack.last().expect("txn cursor stack never empty")
    }

    /// Current nesting depth (1 = recording directly under the root).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Record one visit under a single acquisition of the recorder: open
    /// the non-primitive actions `enters` in order, each nested in the
    /// one before (they stay open until their matching [`TxnCtx::exit`]),
    /// then record `primitive` under the innermost and execute it in the
    /// history. Returns the last action created.
    ///
    /// Call it while the latch of the page `primitive` accesses is held:
    /// the primitive claims its history position inside the same
    /// acquisition that creates it, so no other thread's access to that
    /// page can fall between the latch's order and the recorded one
    /// (Axiom 1). Panics if there is nothing to record.
    pub fn record(
        &mut self,
        enters: &[(ObjectIdx, &DescriptorRef)],
        primitive: Option<(ObjectIdx, &DescriptorRef)>,
    ) -> ActionIdx {
        assert!(
            !enters.is_empty() || primitive.is_some(),
            "record() with nothing to record"
        );
        let mut idx = self.current();
        let mut guard = self.recorder.inner.lock();
        let inner = &mut *guard;
        for &(object, descriptor) in enters {
            idx = inner.ts.begin_nested(idx, object, descriptor.clone(), true);
            self.stack.push(idx);
        }
        if let Some((object, descriptor)) = primitive {
            idx = inner.ts.begin_nested(idx, object, descriptor.clone(), true);
            inner
                .history
                .execute(&inner.ts, idx)
                .expect("freshly created leaf action is executable");
        }
        idx
    }

    /// Open a non-primitive action on `object`; all actions recorded until
    /// the matching [`TxnCtx::exit`] become its children.
    pub fn enter(&mut self, object: ObjectIdx, descriptor: impl Into<DescriptorRef>) -> ActionIdx {
        self.record(&[(object, &descriptor.into())], None)
    }

    /// Close the action opened by the matching [`TxnCtx::enter`].
    pub fn exit(&mut self) {
        assert!(self.stack.len() > 1, "exit() without matching enter()");
        self.stack.pop();
    }

    /// Close every action opened since the cursor was at nesting `depth`
    /// (a value [`TxnCtx::depth`] returned earlier).
    pub fn exit_to(&mut self, depth: usize) {
        assert!(
            (1..=self.stack.len()).contains(&depth),
            "exit_to({depth}) from depth {}",
            self.stack.len()
        );
        self.stack.truncate(depth);
    }

    /// Record a primitive action on `object` and execute it in the
    /// history (its Axiom 1 timestamp is the moment of this call).
    pub fn primitive(
        &mut self,
        object: ObjectIdx,
        descriptor: impl Into<DescriptorRef>,
    ) -> ActionIdx {
        self.record(&[], Some((object, &descriptor.into())))
    }

    /// Convenience: record a primitive page `read`.
    pub fn page_read(&mut self, page: ObjectIdx) -> ActionIdx {
        self.record(&[], Some((page, &DescriptorRef::read())))
    }

    /// Convenience: record a primitive page `write`.
    pub fn page_write(&mut self, page: ObjectIdx) -> ActionIdx {
        self.record(&[], Some((page, &DescriptorRef::write())))
    }
}

impl Drop for TxnCtx {
    fn drop(&mut self) {
        // Unbalanced enter/exit is a programming error in the executor,
        // but panicking in drop during unwind would abort; only assert in
        // the happy path.
        if !std::thread::panicking() {
            debug_assert_eq!(
                self.stack.len(),
                1,
                "transaction dropped with {} unclosed enter()s",
                self.stack.len() - 1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_core::commutativity::{ActionDescriptor, KeyedSpec, ReadWriteSpec};
    use oodb_core::prelude::{analyze, key, SystemSchedules};

    #[test]
    fn records_example1_shape() {
        let rec = Recorder::new();
        let leaf = rec.object("Leaf11", Arc::new(KeyedSpec::search_structure("leaf")));
        let page = rec.object("Page4712", Arc::new(ReadWriteSpec));

        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        t1.enter(leaf, ActionDescriptor::new("insert", vec![key("DBS")]));
        t1.page_read(page);
        t2.enter(leaf, ActionDescriptor::new("insert", vec![key("DBMS")]));
        t2.page_read(page);
        t1.page_write(page);
        t1.exit();
        t2.page_write(page);
        t2.exit();
        drop(t1);
        drop(t2);

        let (ts, h) = rec.finish();
        assert_eq!(ts.top_level().len(), 2);
        assert_eq!(h.len(), 4);
        h.check_complete(&ts).unwrap();
        // interleaved reads before writes: page-level conflicts both ways
        // => leaf-level action-dep cycle => NOT oo-serializable (lost
        // update), exactly what dependency tracking must catch
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_err());
    }

    #[test]
    fn serializable_interleaving_accepted() {
        let rec = Recorder::new();
        let leaf = rec.object("Leaf11", Arc::new(KeyedSpec::search_structure("leaf")));
        let page = rec.object("Page4712", Arc::new(ReadWriteSpec));

        let mut t1 = rec.begin_txn("T1");
        let mut t2 = rec.begin_txn("T2");
        t1.enter(leaf, ActionDescriptor::new("insert", vec![key("DBS")]));
        t1.page_read(page);
        t1.page_write(page);
        t1.exit();
        t2.enter(leaf, ActionDescriptor::new("insert", vec![key("DBMS")]));
        t2.page_read(page);
        t2.page_write(page);
        t2.exit();
        drop(t1);
        drop(t2);

        let (ts, h) = rec.finish();
        let r = analyze(&ts, &h);
        assert!(r.oo_decentralized.is_ok());
        // and the commuting inserts leave the top level unordered
        let ss = SystemSchedules::infer(&ts, &h);
        assert_eq!(ss.schedule(ts.system_object()).action_deps.edge_count(), 0);
    }

    #[test]
    fn object_registration_is_idempotent() {
        let rec = Recorder::new();
        let a = rec.object("X", Arc::new(ReadWriteSpec));
        let b = rec.object("X", Arc::new(KeyedSpec::search_structure("other")));
        assert_eq!(a, b);
        assert_eq!(rec.find_object("X"), Some(a));
        assert_eq!(rec.find_object("Y"), None);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let rec = Recorder::new();
        let node = rec.object("N", Arc::new(KeyedSpec::search_structure("node")));
        let page = rec.object("P", Arc::new(ReadWriteSpec));
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let rec = rec.clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut t = rec.begin_txn(format!("T{i}"));
                    let search: DescriptorRef =
                        ActionDescriptor::new("search", vec![key(format!("k{i}"))]).into();
                    let read = DescriptorRef::read();
                    start.wait();
                    for _ in 0..250 {
                        // one page visit: the node action and the page
                        // read under it, in one recorder acquisition
                        t.record(&[(node, &search)], Some((page, &read)));
                        t.exit();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.history_len(), 1000);
        let (ts, h) = rec.finish();
        h.check_complete(&ts).unwrap();
        // every visit is atomic: the node action's first child is its
        // page read, created right behind it (consecutive arena slots —
        // no other thread's append fell between them) and executed
        for visit in ts.actions_on(node) {
            let info = ts.action(visit);
            assert_eq!(info.children, vec![ActionIdx(visit.0 + 1)]);
            let read = ts.action(info.children[0]);
            assert_eq!(
                (read.object, read.descriptor.method.as_str()),
                (page, "read")
            );
            assert!(h.position(info.children[0]).is_some());
        }
        // history order is creation order: positions were claimed inside
        // the acquisition that created each primitive
        assert!(h.order().windows(2).all(|w| w[0] < w[1]));
        // pure reads: serializable however interleaved
        assert!(analyze(&ts, &h).oo_decentralized.is_ok());
    }

    #[test]
    fn snapshot_does_not_consume() {
        let rec = Recorder::new();
        let page = rec.object("P", Arc::new(ReadWriteSpec));
        let mut t = rec.begin_txn("T");
        t.page_read(page);
        drop(t);
        let (ts1, h1) = rec.snapshot();
        assert_eq!(h1.len(), 1);
        let mut t = rec.begin_txn("U");
        t.page_read(page);
        drop(t);
        let (ts2, h2) = rec.snapshot();
        assert_eq!(ts1.top_level().len(), 1);
        assert_eq!(ts2.top_level().len(), 2);
        assert_eq!(h2.len(), 2);
    }
}
