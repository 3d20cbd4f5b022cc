//! Live recording of executions into a core transaction system.
//!
//! The checker side of the reproduction ([`oodb_core`]) works on a
//! *recorded* [`TransactionSystem`] plus [`History`]. This module is the
//! bridge from live code — the B⁺ tree, the engine's workers, the
//! repo benchmark's serial replay — to that record: a thread-safe [`Recorder`]
//! owning the system and history, and per-transaction [`TxnCtx`] cursors
//! that executors thread through their call stacks.
//!
//! Every `enter`/`exit` pair records a non-primitive action (a method that
//! sends further messages); every `primitive` records a leaf action *and*
//! its execution in the history, realizing Axiom 1's order by
//! construction. Both are thin wrappers over [`TxnCtx::record`], which
//! stages a whole page visit — the actions it opens plus the page
//! primitive under them — in the transaction's own buffer.
//!
//! # Concurrent recording
//!
//! The engine's latched execution path drives many transactions through
//! the encyclopedia *simultaneously* — page latches, not a global
//! database mutex, order the physical accesses. Only *conflicting*
//! primitives need an order (Axiom 1), so neither a page visit nor the
//! beginning of a transaction takes a process-wide lock: both are
//! **staged** under a ticket and the record is **materialized** later,
//! off the path of whoever staged.
//!
//! * **Ticket under the stage lock, inside the page's order.**
//!   [`TxnCtx::record`] locks the transaction's own stage (contended only
//!   by a drain, for the length of a buffer swap), claims the next value
//!   of one process-wide `AtomicU64` and pushes the visit. The caller
//!   still holds the latch of the page the primitive accesses — or read
//!   it off a seqlock image, and [`TxnCtx::record_validated`] pushes only
//!   if the version has not moved since the copy, while writers claim
//!   with the version odd — so of two conflicting accesses the earlier
//!   draws the smaller ticket: ticket order *is* page order wherever the
//!   checkers need one.
//! * **A root is a staged entry too.** [`Recorder::begin_txn`] builds the
//!   root's descriptor and its stage outside any lock, then under the
//!   short *registry* mutex claims the transaction number and a ticket
//!   together, pushes the root as the stage's first entry and registers
//!   the stage. Numbers and root tickets rise together, so roots
//!   materialize in number order — [`TxnCtx::txn_number`] is the root's
//!   position in [`TransactionSystem::top_level`] before the root exists
//!   (the drain asserts it) — and a root lands in the arena after every
//!   visit ticketed before the transaction began: the arena of a
//!   single-threaded script is its program order.
//! * **The cut is a ticket bound.** A drain, under the registry mutex,
//!   adopts the stages registered since the last cut and claims a ticket
//!   of its own, the *bound*; then it visits the stages one at a time and
//!   takes from each the entries ticketed below the bound (a stage is in
//!   ticket order, so that is a prefix; nearly always all of it, and then
//!   the buffer is swapped, not copied). Nothing below the bound can be
//!   missed: a claim is made inside the stage lock (or the registry
//!   mutex), so a claim the drain did not find in a stage comes after the
//!   drain's visit of that lock and therefore after the bound. The taken
//!   set is exactly the tickets below the bound not taken before — a
//!   prefix of the ticket order — and no two stage locks are ever held
//!   together.
//! * **Drains are serialized by the record lock** and materialize by
//!   merging the taken buffers in ticket order through the same
//!   [`TransactionSystem::begin_nested`] / [`History::execute`] calls a
//!   lock-per-visit recorder would make — a visit's actions in
//!   consecutive arena slots, its primitive at the next history position.
//!   The record is append-only and ticket-ordered. Each transaction's
//!   stack of open actions lives beside the record, where only drains
//!   touch it; a staged action carries the depth it was recorded at, so
//!   [`TxnCtx::exit`] stages nothing.
//! * **Who drains.** Every reader, blocking, before it looks
//!   ([`Recorder::with_record`], [`Recorder::snapshot`],
//!   [`Recorder::finish`], [`Recorder::history_len`]), so certifier,
//!   audit and recovery see exactly the record they would see had every
//!   visit been appended the moment it was made. A cursor whose stage
//!   reaches [`STAGE_BOUND`] entries and a `begin_txn` that is the
//!   [`SLOT_BOUND`]-th since the last cut, blocking, so what is staged
//!   and registered stays bounded with no reader at all. And whoever
//!   calls [`Recorder::drain_if_free`] — the engine's workers, after a
//!   transaction is acknowledged and its locks are released: it drains if
//!   the record lock is free and returns at once if another thread is
//!   draining (that drain, or the next caller, takes the rest).
//! * **Lock order is record → registry → stage**, the registry and a
//!   stage together only in `begin_txn` (its own, not yet visible
//!   stage). A cursor never takes the record lock while it holds its
//!   stage: `record` releases the stage before a bound-triggered drain.
//! * [`Recorder`] is `Send + Sync` and cheap to clone. [`TxnCtx`] is
//!   `Send` but deliberately not `Sync`: a transaction is one of the
//!   paper's Definition 9 processes, driven by exactly one worker at a
//!   time, though it may migrate between workers across retries.
//!
//! The compile-time assertions below pin both bounds; losing either
//! (say, by storing a non-`Send` field in a cursor) would silently
//! re-serialize the engine behind the recorder.
//!
//! # A recorder that records nothing
//!
//! [`Recorder::disabled`] keeps the interface and drops the record: for a
//! run nobody will read — strict 2PL with the audit off, where the locks
//! decide everything and no checker runs. [`Recorder::begin_txn`] still
//! hands out numbers in the same sequence (they name lock owners and
//! log records), a cursor still counts its nesting depth, so the
//! executors' `enter` / `exit` discipline is checked the same way; but a
//! cursor has no stage, a visit claims no ticket and stages nothing, and
//! nothing is ever drained. [`Recorder::object`] still registers what it
//! is asked for, so readers see those objects and an empty system and
//! history; an executor that names its objects lazily asks for none
//! (below, [`TxnCtx::record_validated`]).

use oodb_core::commutativity::{ActionDescriptor, DescriptorRef, SpecRef};
use oodb_core::compensation::Inverse;
use oodb_core::history::History;
use oodb_core::ids::{ActionIdx, ObjectIdx};
use oodb_core::system::TransactionSystem;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Entries a stage may hold: the visit that reaches this many drains
/// the recorder before it returns.
pub const STAGE_BOUND: usize = 1024;

/// Transactions that may begin between two cuts: the `begin_txn` that
/// registers this many drains the recorder before it returns, so a loop
/// that begins transactions and never reads keeps a bounded registry.
pub const SLOT_BOUND: usize = 64;

/// Entries a fresh stage has room for, allocated before the registry
/// mutex is taken so that pushing the root under it cannot allocate.
const STAGE_START: usize = 32;

/// One recorded action waiting to be materialized. The actions of one
/// visit share a ticket and sit next to each other in their stage.
struct Staged {
    ticket: u64,
    /// Open actions of the transaction (root included) when this one was
    /// recorded: its parent is the `depth`-th of them, anything the
    /// cursor opened deeper has been exited since. Zero for the root
    /// itself.
    depth: u32,
    primitive: bool,
    object: ObjectIdx,
    descriptor: DescriptorRef,
}

// a visit's actions sit in their stage until a drain: 32 bytes each, the
// descriptor an 8-byte handle
const _: () = assert!(std::mem::size_of::<Staged>() <= 32);

type Stage = Arc<Mutex<Vec<Staged>>>;

/// A registered stage and, beside the record, what only drains touch.
struct Slot {
    stage: Stage,
    /// The number `begin_txn` handed out: the root's place in
    /// `top_level()`.
    number: u32,
    /// The transaction's open actions as of its last materialized visit,
    /// root at the bottom.
    open: Vec<ActionIdx>,
    /// Set by the cut that found the cursor gone and took all it staged.
    finished: bool,
}

/// What `begin_txn` and a drain's cut agree on, under one short mutex.
#[derive(Default)]
struct Registry {
    /// Stages registered since the last cut.
    pending: Vec<Slot>,
    next_txn: u32,
}

struct Record {
    ts: TransactionSystem,
    history: History,
    slots: Vec<Slot>,
    /// Taken entries with their slot, reused from drain to drain.
    batch: Vec<(u32, Staged)>,
    /// The empty buffer a stage is swapped against, reused likewise.
    spare: Vec<Staged>,
}

/// Counters behind [`Recorder::stats`]. Read without any lock (a metrics
/// poll must not queue behind a drain, nor a drain behind the poll):
/// `Relaxed`, they publish nothing.
#[derive(Default)]
struct Counters {
    drains: AtomicU64,
    drains_skipped: AtomicU64,
    drain_hold_ns: AtomicU64,
    staged_peak: AtomicUsize,
}

impl Record {
    /// Materialize everything ticketed so far (module docs, "the cut").
    fn drain(&mut self, shared: &Shared) {
        let started = Instant::now();
        let Record {
            ts,
            history,
            slots,
            batch,
            spare,
        } = self;
        let bound = {
            let mut registry = shared.registry.lock();
            slots.append(&mut registry.pending);
            shared.tickets.fetch_add(1, Ordering::Relaxed)
        };
        let mut peak = 0;
        for (i, slot) in slots.iter_mut().enumerate() {
            // The cursor holds the only other handle of its stage and
            // never hands it on: a count of one, read before the stage is
            // looked at, means every entry it will ever stage is in there.
            let cursor_gone = Arc::strong_count(&slot.stage) == 1;
            let mut staged = slot.stage.lock();
            peak = peak.max(staged.len());
            let below = staged.partition_point(|s| s.ticket < bound);
            if below == staged.len() {
                std::mem::swap(&mut *staged, spare);
                slot.finished = cursor_gone;
            } else {
                spare.extend(staged.drain(..below));
            }
            drop(staged);
            batch.extend(spare.drain(..).map(|s| (i as u32, s)));
        }
        // each stage's entries are in ticket order already: the stable
        // sort is the k-way merge, and keeps a visit's actions together.
        // One stage's worth — a worker draining its own transaction — is
        // merged as it stands, and the sort would allocate its scratch
        if !batch.windows(2).all(|w| w[0].1.ticket <= w[1].1.ticket) {
            batch.sort_by_key(|(_, s)| s.ticket);
        }
        ts.reserve_actions(batch.len());
        history.reserve(batch.len(), ts.action_count() + batch.len());
        for (i, s) in batch.drain(..) {
            let slot = &mut slots[i as usize];
            slot.open.truncate(s.depth as usize);
            let idx = match slot.open.last() {
                Some(&parent) => ts.begin_nested(parent, s.object, s.descriptor, true),
                None => {
                    let root = ts.begin_top(s.descriptor);
                    assert_eq!(
                        ts.action(root).txn.0,
                        slot.number,
                        "roots materialize in the order their numbers were claimed"
                    );
                    root
                }
            };
            if s.primitive {
                history
                    .execute(ts, idx)
                    .expect("freshly created leaf action is executable");
            } else {
                slot.open.push(idx);
            }
        }
        slots.retain(|slot| !slot.finished);
        let counters = &shared.counters;
        counters.drains.fetch_add(1, Ordering::Relaxed);
        counters.staged_peak.fetch_max(peak, Ordering::Relaxed);
        counters
            .drain_hold_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

struct Shared {
    /// False for [`Recorder::disabled`]: nothing is staged or drained.
    enabled: bool,
    /// The process-wide record lock: taken by readers, by the bounds and
    /// by [`Recorder::drain_if_free`] — never by a visit, never by
    /// [`Recorder::begin_txn`] short of [`SLOT_BOUND`].
    record: Mutex<Record>,
    registry: Mutex<Registry>,
    /// Next ticket; only ever claimed inside a stage lock or the registry
    /// mutex.
    tickets: AtomicU64,
    counters: Counters,
    /// The object every root is an action on.
    system_object: ObjectIdx,
}

impl Shared {
    /// Take the record lock and materialize what is staged.
    fn drained(&self) -> MutexGuard<'_, Record> {
        let mut record = self.record.lock();
        if self.enabled {
            record.drain(self);
        }
        record
    }
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

/// How often the recorder materialized, how long that held the record
/// lock and how much a stage ever held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderStats {
    /// False for a [`Recorder::disabled`] recorder, whose counts stay 0.
    pub enabled: bool,
    /// Drains so far: one per reader call, per [`Recorder::drain_if_free`]
    /// that found the record lock free, per stage that reached
    /// [`STAGE_BOUND`] and per [`SLOT_BOUND`] transactions begun without
    /// any of those.
    pub drains: u64,
    /// [`Recorder::drain_if_free`] calls that found the record lock held
    /// and left their entries to the holder or the next caller.
    pub drains_skipped: u64,
    /// Time the drains spent, summed — all of it under the record lock.
    pub drain_hold_ns: u64,
    /// Most entries any drain found in one stage.
    pub staged_peak: usize,
}

/// Shared, thread-safe recorder. Cheap to clone.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with an empty system and history.
    pub fn new() -> Self {
        Self::build(true)
    }

    /// A recorder that records nothing (module docs, "A recorder that
    /// records nothing"): transactions are numbered, objects registered
    /// when asked for, and every visit is dropped.
    pub fn disabled() -> Self {
        Self::build(false)
    }

    fn build(enabled: bool) -> Self {
        let ts = TransactionSystem::new();
        Recorder {
            shared: Arc::new(Shared {
                enabled,
                system_object: ts.system_object(),
                record: Mutex::new(Record {
                    ts,
                    history: History::new(),
                    slots: Vec::new(),
                    batch: Vec::new(),
                    spare: Vec::new(),
                }),
                registry: Mutex::default(),
                tickets: AtomicU64::new(0),
                counters: Counters::default(),
            }),
        }
    }

    /// Get or register the object `name` with commutativity spec `spec`.
    /// If the object already exists, its original spec is kept.
    pub fn object(&self, name: &str, spec: SpecRef) -> ObjectIdx {
        let mut record = self.shared.record.lock();
        if let Some(o) = record.ts.object_by_name(name) {
            return o;
        }
        record.ts.add_object(name, spec)
    }

    /// False for a [`Recorder::disabled`] recorder.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled
    }

    /// Look up an already registered object.
    pub fn find_object(&self, name: &str) -> Option<ObjectIdx> {
        self.shared.record.lock().ts.object_by_name(name)
    }

    /// Begin a new top-level transaction. The root is staged under a
    /// ticket like a visit, so it follows every visit made before this
    /// call; the record lock is not taken (module docs). A disabled
    /// recorder only numbers the transaction and drops `name`.
    pub fn begin_txn(&self, name: impl Into<String>) -> TxnCtx {
        let shared = &self.shared;
        if !shared.enabled {
            let mut registry = shared.registry.lock();
            let number = registry.next_txn;
            registry.next_txn += 1;
            drop(registry);
            return TxnCtx {
                recorder: self.clone(),
                stage: None,
                number,
                depth: 1,
                undo: Vec::new(),
            };
        }
        let descriptor = ActionDescriptor::nullary(name.into()).into();
        let stage = Stage::new(Mutex::new(Vec::with_capacity(STAGE_START)));
        let registered = stage.clone();
        let (number, crowded) = {
            let mut registry = shared.registry.lock();
            let number = registry.next_txn;
            registry.next_txn += 1;
            stage.lock().push(Staged {
                // Relaxed, as in `record`; the registry mutex orders this
                // claim against the number's and against a cut's bound
                ticket: shared.tickets.fetch_add(1, Ordering::Relaxed),
                depth: 0,
                primitive: false,
                object: shared.system_object,
                descriptor,
            });
            registry.pending.push(Slot {
                stage: registered,
                number,
                open: Vec::new(),
                finished: false,
            });
            (number, registry.pending.len() >= SLOT_BOUND)
        };
        // lock order is record → registry: the registry is released by now
        if crowded {
            shared.drained();
        }
        TxnCtx {
            recorder: self.clone(),
            stage: Some(stage),
            number,
            depth: 1,
            undo: Vec::new(),
        }
    }

    /// Clone out the recorded system and history for analysis.
    pub fn snapshot(&self) -> (TransactionSystem, History) {
        self.with_record(|ts, history| (ts.clone(), history.clone()))
    }

    /// Run `f` against the live record under the record lock, without
    /// cloning anything. This is the delta-extraction entry point for
    /// incremental certification: the history is append-only, so a
    /// caller tracking its last-seen position reads exactly the suffix
    /// appended since — O(new actions) instead of the O(history) clone
    /// of [`Recorder::snapshot`]. Keep `f` short: nothing is materialized
    /// while it runs (transactions do begin and visit), and it must not
    /// call back into this recorder's readers.
    pub fn with_record<R>(&self, f: impl FnOnce(&TransactionSystem, &History) -> R) -> R {
        let record = self.shared.drained();
        f(&record.ts, &record.history)
    }

    /// Consume the recorder (if this is the last handle) or clone,
    /// returning the recorded system and history.
    pub fn finish(self) -> (TransactionSystem, History) {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => {
                drop(shared.drained());
                let record = shared.record.into_inner();
                (record.ts, record.history)
            }
            Err(shared) => Recorder { shared }.snapshot(),
        }
    }

    /// Number of primitive executions recorded so far.
    pub fn history_len(&self) -> usize {
        self.with_record(|_, history| history.len())
    }

    /// Materialize what is staged if nobody else is: returns at once,
    /// having drained or having found the record lock held. For callers
    /// with nothing to read who are off every critical path — a worker
    /// between two transactions — so that the record is built inside the
    /// run without anybody waiting for it. A disabled recorder returns at
    /// once.
    pub fn drain_if_free(&self) {
        if !self.shared.enabled {
            return;
        }
        match self.shared.record.try_lock() {
            Some(mut record) => record.drain(&self.shared),
            None => {
                let skipped = &self.shared.counters.drains_skipped;
                skipped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drain counts, hold time and staging high-water mark, as of the
    /// last drain. Takes no lock.
    pub fn stats(&self) -> RecorderStats {
        let counters = &self.shared.counters;
        RecorderStats {
            enabled: self.shared.enabled,
            drains: counters.drains.load(Ordering::Relaxed),
            drains_skipped: counters.drains_skipped.load(Ordering::Relaxed),
            drain_hold_ns: counters.drain_hold_ns.load(Ordering::Relaxed),
            staged_peak: counters.staged_peak.load(Ordering::Relaxed),
        }
    }
}

/// Cursor of one in-flight transaction. Not `Sync`: each transaction is
/// driven by one executor at a time (one *process* in the paper's
/// Definition 9 sense).
///
/// The cursor also carries the transaction's undo stack: the inverse of
/// each effectful operation, pushed by the executor that ran it
/// ([`TxnCtx::push_inverse`]). It is the transaction's own state, so no
/// other thread touches it: dropping the cursor (commit) discards it,
/// and an abort takes it ([`TxnCtx::take_inverses`]) and runs it in
/// reverse.
pub struct TxnCtx {
    recorder: Recorder,
    /// `None` when the recorder is disabled.
    stage: Option<Stage>,
    number: u32,
    /// Open actions, the root included.
    depth: u32,
    /// Inverses of the effectful operations so far, oldest first.
    undo: Vec<Inverse>,
}

impl TxnCtx {
    /// Zero-based number of this top-level transaction: the position of
    /// its root in `top_level()` once the root is materialized (stable
    /// key for lock owners, log records and schedulers).
    pub fn txn_number(&self) -> u32 {
        self.number
    }

    /// Current nesting depth (1 = recording directly under the root).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Record one visit under one ticket: open the non-primitive actions
    /// `enters` in order, each nested in the one before (they stay open
    /// until their matching [`TxnCtx::exit`]), then record `primitive`
    /// under the innermost and execute it in the history.
    ///
    /// Call it while the latch of the page `primitive` accesses is held:
    /// the ticket is claimed before this returns, so no other thread's
    /// access to that page can fall between the latch's order and the
    /// recorded one (Axiom 1); a read off a validated copy goes through
    /// [`TxnCtx::record_validated`]. The ids are the caller's before the
    /// call, so a disabled cursor drops objects that were registered
    /// for nothing; an executor that registers objects on first use
    /// names them in `record_validated`'s closure instead. Panics if
    /// there is nothing to record.
    pub fn record(
        &mut self,
        enters: &[(ObjectIdx, &DescriptorRef)],
        primitive: Option<(ObjectIdx, &DescriptorRef)>,
    ) {
        assert!(
            !enters.is_empty() || primitive.is_some(),
            "record() with nothing to record"
        );
        self.stage_visit(enters, primitive, || true);
    }

    /// Record the visit `visit` builds (as [`TxnCtx::record`] takes it) of
    /// a page read off a version-validated copy, no latch held: claim the
    /// ticket, then stage only if `still_valid` — the version, looked at
    /// once more — says the copy holds (DESIGN.md §7); an unstaged ticket
    /// is a gap, which a cut skips. Returns whether it was recorded. A
    /// disabled cursor calls neither closure and counts `N` enters, so
    /// object ids built inside `visit` are built only for a recording
    /// cursor: the B-link tree and the item list record every visit
    /// through here, latched ones with `still_valid` `|| true`, and an
    /// unrecorded run registers none of their objects.
    pub fn record_validated<'d, const N: usize>(
        &mut self,
        visit: impl FnOnce() -> (
            [(ObjectIdx, &'d DescriptorRef); N],
            (ObjectIdx, &'d DescriptorRef),
        ),
        still_valid: impl FnOnce() -> bool,
    ) -> bool {
        if self.stage.is_none() {
            self.depth += N as u32;
            return true;
        }
        let (enters, primitive) = visit();
        self.stage_visit(&enters, Some(primitive), still_valid)
    }

    /// Claim a ticket under the stage lock; if `still_valid`, stage under it.
    fn stage_visit(
        &mut self,
        enters: &[(ObjectIdx, &DescriptorRef)],
        primitive: Option<(ObjectIdx, &DescriptorRef)>,
        still_valid: impl FnOnce() -> bool,
    ) -> bool {
        let Some(stage) = &self.stage else {
            self.depth += enters.len() as u32;
            return true;
        };
        let full = {
            let mut stage = stage.lock();
            // Relaxed: the ticket publishes nothing (the stage lock
            // publishes the entry); its order comes from the counter's
            // modification order, which follows happens-before.
            let ticket = self.recorder.shared.tickets.fetch_add(1, Ordering::Relaxed);
            if !still_valid() {
                return false;
            }
            let enters = enters.iter().map(|enter| (false, enter));
            let actions = enters.chain(primitive.iter().map(|primitive| (true, primitive)));
            for (primitive, &(object, descriptor)) in actions {
                stage.push(Staged {
                    ticket,
                    depth: self.depth,
                    primitive,
                    object,
                    descriptor: descriptor.clone(),
                });
                // an entered action stays open: what follows nests in it
                self.depth += u32::from(!primitive);
            }
            stage.len() >= STAGE_BOUND
        };
        // lock order is record → stage: the stage is released by now
        if full {
            self.recorder.shared.drained();
        }
        true
    }

    /// Open a non-primitive action on `object`; all actions recorded until
    /// the matching [`TxnCtx::exit`] become its children.
    pub fn enter(&mut self, object: ObjectIdx, descriptor: impl Into<DescriptorRef>) {
        if self.stage.is_none() {
            // not even the handle: a descriptor given by value stays unboxed
            self.depth += 1;
            return;
        }
        self.record(&[(object, &descriptor.into())], None)
    }

    /// Close the action opened by the matching [`TxnCtx::enter`].
    pub fn exit(&mut self) {
        assert!(self.depth > 1, "exit() without matching enter()");
        self.depth -= 1;
    }

    /// Close every action opened since the cursor was at nesting `depth`
    /// (a value [`TxnCtx::depth`] returned earlier).
    pub fn exit_to(&mut self, depth: usize) {
        assert!(
            (1..=self.depth()).contains(&depth),
            "exit_to({depth}) from depth {}",
            self.depth
        );
        self.depth = depth as u32;
    }

    /// Record a primitive action on `object` and execute it in the
    /// history (its Axiom 1 timestamp is the moment of this call).
    pub fn primitive(&mut self, object: ObjectIdx, descriptor: impl Into<DescriptorRef>) {
        if self.stage.is_some() {
            self.record(&[], Some((object, &descriptor.into())))
        }
    }

    /// Convenience: record a primitive page `read`.
    pub fn page_read(&mut self, page: ObjectIdx) {
        self.record(&[], Some((page, &DescriptorRef::read())))
    }

    /// Convenience: record a primitive page `write`. Like
    /// [`TxnCtx::record`], it takes an id resolved before the call.
    pub fn page_write(&mut self, page: ObjectIdx) {
        self.record(&[], Some((page, &DescriptorRef::write())))
    }

    /// Push the inverse of an effectful operation the transaction just
    /// ran onto its undo stack.
    pub fn push_inverse(&mut self, inverse: Inverse) {
        self.undo.push(inverse);
    }

    /// The transaction's undo stack, oldest inverse first.
    pub fn inverses(&self) -> &[Inverse] {
        &self.undo
    }

    /// Take the undo stack, leaving it empty.
    pub fn take_inverses(&mut self) -> Vec<Inverse> {
        std::mem::take(&mut self.undo)
    }
}

impl Drop for TxnCtx {
    fn drop(&mut self) {
        // Unbalanced enter/exit is a programming error in the executor,
        // but panicking in drop during unwind would abort; only assert in
        // the happy path.
        if !std::thread::panicking() {
            debug_assert_eq!(
                self.depth,
                1,
                "transaction dropped with {} unclosed enter()s",
                self.depth - 1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_core::commutativity::{ActionDescriptor, EscrowSpec, RangeSpec, ReadWriteSpec};
    use oodb_core::prelude::{analyze, key, SystemSchedules};
    use oodb_core::value::Value;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn records_example1_shape() {
        let rec = Recorder::new();
        let leaf = rec.object("Leaf11", Arc::new(RangeSpec::ordered_container("leaf")));
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
        let leaf = rec.object("Leaf11", Arc::new(RangeSpec::ordered_container("leaf")));
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

    /// A method that touches only its receiver's state is recorded as a
    /// primitive on that object: the object's own specification, not a
    /// page's read/write, decides what orders two transactions.
    #[test]
    fn primitives_on_an_escrow_object_follow_its_specification() {
        let deposit = |n| ActionDescriptor::new("deposit", vec![Value::Int(n)]);
        let run = |between: ActionDescriptor| {
            let rec = Recorder::new();
            let acc = rec.object("acc", Arc::new(EscrowSpec::unbounded()));
            let mut t1 = rec.begin_txn("T1");
            let mut t2 = rec.begin_txn("T2");
            t1.primitive(acc, deposit(10));
            t2.primitive(acc, between);
            t1.primitive(acc, deposit(1));
            drop(t1);
            drop(t2);
            rec.finish()
        };

        // deposits commute: interleaving them orders nothing at the top
        let (ts, h) = run(deposit(20));
        assert!(analyze(&ts, &h).oo_decentralized.is_ok());
        let ss = SystemSchedules::infer(&ts, &h);
        assert_eq!(ss.schedule(ts.system_object()).action_deps.edge_count(), 0);

        // a balance read between T1's two deposits: T1 -> T2 and T2 -> T1
        let (ts, h) = run(ActionDescriptor::nullary("balance"));
        assert!(analyze(&ts, &h).oo_decentralized.is_err());
    }

    #[test]
    fn object_registration_is_idempotent() {
        let rec = Recorder::new();
        let a = rec.object("X", Arc::new(ReadWriteSpec));
        let b = rec.object("X", Arc::new(RangeSpec::ordered_container("other")));
        assert_eq!(a, b);
        assert_eq!(rec.find_object("X"), Some(a));
        assert_eq!(rec.find_object("Y"), None);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let rec = Recorder::new();
        let node = rec.object("N", Arc::new(RangeSpec::ordered_container("node")));
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
                        // read under it, under one ticket
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
            let children: Vec<ActionIdx> = ts.children(visit).collect();
            assert_eq!(children, [ActionIdx(visit.0 + 1)]);
            let read = ts.action(children[0]);
            assert_eq!(
                (read.object, read.descriptor.method.as_str()),
                (page, "read")
            );
            assert!(h.position(children[0]).is_some());
        }
        // history order is creation order: positions were claimed inside
        // the acquisition that created each primitive
        assert!(h.order().windows(2).all(|w| w[0] < w[1]));
        // pure reads: serializable however interleaved
        assert!(analyze(&ts, &h).oo_decentralized.is_ok());
    }

    /// The counter value a test smuggled into a visit's `enter`.
    fn stamp(ts: &TransactionSystem, visit: ActionIdx) -> u64 {
        match &ts.action(visit).descriptor.args[..] {
            [Value::Int(n)] => *n as u64,
            other => panic!("visit without a stamp: {other:?}"),
        }
    }

    /// Record one visit of `page` through `node` under `latch`, stamped
    /// with the latch's counter: a read on even stamps, a write on odd.
    fn stamped_visit(
        t: &mut TxnCtx,
        latch: &std::sync::Mutex<u64>,
        node: ObjectIdx,
        page: ObjectIdx,
    ) {
        let mut counter = latch.lock().unwrap();
        let visit: DescriptorRef =
            ActionDescriptor::new("visit", vec![Value::Int(*counter as i64)]).into();
        let access = if counter.is_multiple_of(2) {
            DescriptorRef::read()
        } else {
            DescriptorRef::write()
        };
        t.record(&[(node, &visit)], Some((page, &access)));
        *counter += 1;
        drop(counter);
        t.exit();
    }

    /// What every observer must find, at any moment: the history is the
    /// latch order without a gap (stamps 0, 1, 2, …), and each primitive
    /// sits in the arena slot right behind the visit that made it.
    fn assert_latch_ordered_prefix(ts: &TransactionSystem, h: &History) -> usize {
        for (pos, &p) in h.order().iter().enumerate() {
            let visit = ts.action(p).parent.expect("a primitive has a parent");
            assert_eq!(visit.0 + 1, p.0, "visit and primitive in consecutive slots");
            assert_eq!(
                stamp(ts, visit),
                pos as u64,
                "history position = latch order"
            );
            let method = if pos.is_multiple_of(2) {
                "read"
            } else {
                "write"
            };
            assert_eq!(ts.action(p).descriptor.method.as_str(), method);
            assert_eq!(ts.action(visit).txn, ts.action(p).txn);
        }
        h.len()
    }

    /// Four writers visiting one page under one real latch, each through
    /// `txns` transactions of `visits` visits and, like an engine worker,
    /// an opportunistic drain after each, so drains run while the others
    /// record. The writers' first cursors are registered `spacing` idle
    /// cursors apart (returned, to be kept alive): a drain's pass over
    /// the stages then takes long enough for visits to land in the middle
    /// of it.
    fn latched_writers(
        rec: &Recorder,
        spacing: usize,
        txns: usize,
        visits: usize,
    ) -> (Vec<std::thread::JoinHandle<()>>, Vec<TxnCtx>) {
        let node = rec.object("N", Arc::new(RangeSpec::ordered_container("node")));
        let page = rec.object("P", Arc::new(ReadWriteSpec));
        let latch = Arc::new(std::sync::Mutex::new(0u64));
        let start = Arc::new(std::sync::Barrier::new(4));
        let mut idle = Vec::new();
        let writers = (0..4)
            .map(|i| {
                let mut t = rec.begin_txn(format!("T{i}.0"));
                idle.extend((0..spacing).map(|_| rec.begin_txn("Idle")));
                let (rec, latch, start) = (rec.clone(), latch.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for n in 1..=txns {
                        for _ in 0..visits {
                            stamped_visit(&mut t, &latch, node, page);
                        }
                        if n < txns {
                            t = rec.begin_txn(format!("T{i}.{n}"));
                        }
                        rec.drain_if_free();
                    }
                })
            })
            .collect();
        (writers, idle)
    }

    /// A thread that keeps beginning (and dropping) transactions until
    /// told to stop, so cursors register while cuts are being made.
    /// Returns the number and name of each.
    fn registrar(
        rec: &Recorder,
        who: usize,
        stop: &Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<Vec<(u32, String)>> {
        let (rec, stop) = (rec.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut begun = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let name = format!("R{who}.{}", begun.len());
                begun.push((rec.begin_txn(name.clone()).txn_number(), name));
            }
            begun
        })
    }

    /// Every transaction in `begun` has its root where its number said.
    fn assert_numbers_are_positions(ts: &TransactionSystem, begun: &[(u32, String)]) {
        for (number, name) in begun {
            let root = ts.top_level()[*number as usize];
            assert_eq!(ts.action(root).descriptor.method.as_str(), name);
            assert_eq!(ts.action(root).txn.0, *number);
        }
    }

    #[test]
    fn history_order_is_latch_order() {
        let rec = Recorder::new();
        let stop = Arc::new(AtomicBool::new(false));
        let registrar = registrar(&rec, 0, &stop);
        let (writers, idle) = latched_writers(&rec, 0, 25, 40);
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let begun = registrar.join().unwrap();
        drop(idle);
        let (ts, h) = rec.finish();
        assert_eq!(assert_latch_ordered_prefix(&ts, &h), 4 * 25 * 40);
        // complete, but for the registrar's childless roots
        for p in ts.primitives() {
            assert!(h.position(p).is_some() || ts.action(p).parent.is_none());
        }
        assert_eq!(ts.top_level().len(), 4 * 25 + begun.len());
        assert_numbers_are_positions(&ts, &begun);
    }

    #[test]
    fn every_cut_is_a_prefix_of_the_latch_order() {
        let rec = Recorder::new();
        let stop = Arc::new(AtomicBool::new(false));
        let registrar = registrar(&rec, 0, &stop);
        let (writers, idle) = latched_writers(&rec, 64, 2, 2000);
        let mut seen = 0;
        let mut looks = 0;
        while seen < 4 * 2 * 2000 {
            let len = rec.with_record(assert_latch_ordered_prefix);
            assert!(len >= seen, "the record is append-only");
            seen = len;
            looks += 1;
        }
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let begun = registrar.join().unwrap();
        drop(idle);
        assert!(looks > 1, "the reader ran beside the writers");
        rec.with_record(|ts, _| assert_numbers_are_positions(ts, &begun));
    }

    /// `begin_txn` and a visit complete while another thread holds the
    /// record lock: neither takes it.
    #[test]
    fn a_transaction_begins_and_visits_under_a_held_record_lock() {
        let rec = Recorder::new();
        let page = rec.object("P", Arc::new(ReadWriteSpec));
        let drains = rec.stats().drains;
        let number = rec.with_record(|ts, _| {
            assert!(ts.top_level().is_empty());
            std::thread::scope(|s| {
                let begin = s.spawn(|| {
                    let mut t = rec.begin_txn("T");
                    t.page_read(page);
                    t.txn_number()
                });
                begin.join().unwrap()
            })
        });
        assert_eq!(rec.stats().drains, drains + 1, "the reader's, no other");
        let (ts, h) = rec.finish();
        assert_eq!(ts.top_level(), [ActionIdx(number)]);
        assert_eq!(h.len(), 1);
    }

    /// Four threads begin transactions (one visit each) while two cursors
    /// visit and a reader cuts: no root and no visit is lost, and every
    /// number is its root's position.
    #[test]
    fn concurrent_begins_keep_their_numbers() {
        const BEGINS: usize = 500;
        let rec = Recorder::new();
        let page = rec.object("P", Arc::new(ReadWriteSpec));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(7));
        let visitors: Vec<_> = (0..2)
            .map(|i| {
                let (rec, stop, start) = (rec.clone(), stop.clone(), start.clone());
                std::thread::spawn(move || {
                    let mut t = rec.begin_txn(format!("V{i}"));
                    let mut visits = 0usize;
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        t.page_read(page);
                        visits += 1;
                    }
                    (t.txn_number(), format!("V{i}"), visits)
                })
            })
            .collect();
        let beginners: Vec<_> = (0..4)
            .map(|i| {
                let (rec, start) = (rec.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    (0..BEGINS)
                        .map(|n| {
                            let name = format!("B{i}.{n}");
                            let mut t = rec.begin_txn(name.clone());
                            t.page_read(page);
                            rec.drain_if_free();
                            (t.txn_number(), name)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        start.wait();
        let mut begun = Vec::new();
        // cut for as long as they run (how often is the scheduler's call)
        while beginners.iter().any(|b| !b.is_finished()) {
            rec.with_record(|ts, h| {
                for (position, &root) in ts.top_level().iter().enumerate() {
                    assert_eq!(ts.action(root).txn.0 as usize, position);
                }
                assert!(h.order().windows(2).all(|w| w[0] < w[1]));
            });
        }
        for b in beginners {
            begun.extend(b.join().unwrap());
        }
        stop.store(true, Ordering::Relaxed);
        let mut visits = 0;
        for v in visitors {
            let (number, name, n) = v.join().unwrap();
            begun.push((number, name));
            visits += n;
        }
        let (ts, h) = rec.finish();
        assert_eq!(ts.top_level().len(), 4 * BEGINS + 2);
        assert_eq!(h.len(), 4 * BEGINS + visits);
        h.check_complete(&ts).unwrap();
        assert_numbers_are_positions(&ts, &begun);
    }

    /// Stages registered, adopted by a cut or not yet.
    fn registered(rec: &Recorder) -> usize {
        let record = rec.shared.record.lock();
        let registry = rec.shared.registry.lock();
        record.slots.len() + registry.pending.len()
    }

    #[test]
    fn a_loop_of_begins_stays_under_the_slot_bound() {
        let rec = Recorder::new();
        for _ in 0..100_000 {
            drop(rec.begin_txn("T"));
            // the drain the bound triggers still sees its own cursor alive
            assert!(registered(&rec) <= SLOT_BOUND);
        }
        assert_eq!(rec.stats().drains, 100_000 / SLOT_BOUND as u64);
        let (ts, _) = rec.finish();
        assert_eq!(ts.top_level().len(), 100_000);
    }

    #[test]
    fn one_cursor_never_stages_more_than_the_bound() {
        let rec = Recorder::new();
        let page = rec.object("P", Arc::new(ReadWriteSpec));
        let mut t = rec.begin_txn("Loop");
        for _ in 0..100_000 {
            t.page_read(page);
        }
        drop(t);
        assert_eq!(rec.history_len(), 100_000);
        let stats = rec.stats();
        assert_eq!(stats.staged_peak, STAGE_BOUND);
        // one per full stage (the root is an entry too), history_len
        assert_eq!(stats.drains, 1 + 100_001 / STAGE_BOUND as u64);
    }

    /// Two cursors interleaved on one thread, a third begun between
    /// their visits: the arena and the history are what the
    /// lock-per-visit recorder of the parent commit produced for the
    /// same calls (the literal lists below are its output).
    #[test]
    fn arena_order_is_call_order() {
        let rec = Recorder::new();
        let leaf = rec.object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let page = rec.object("Page", Arc::new(ReadWriteSpec));
        let ins =
            |k: &str| -> DescriptorRef { ActionDescriptor::new("insert", vec![key(k)]).into() };
        let read = DescriptorRef::read();

        let mut t1 = rec.begin_txn("T1");
        t1.record(&[(leaf, &ins("a"))], Some((page, &read)));
        let mut t2 = rec.begin_txn("T2");
        t2.record(&[(leaf, &ins("b"))], Some((page, &read)));
        t1.page_write(page);
        t1.exit();
        let mut t3 = rec.begin_txn("T3");
        t2.page_write(page);
        t2.exit();
        t1.page_read(page);
        t3.enter(leaf, ActionDescriptor::new("insert", vec![key("c")]));
        t3.page_read(page);
        t3.exit();
        assert_eq!(
            (t1.txn_number(), t2.txn_number(), t3.txn_number()),
            (0, 1, 2)
        );
        drop((t1, t2, t3));

        let (ts, h) = rec.finish();
        assert_eq!(ts.top_level(), [ActionIdx(0), ActionIdx(3), ActionIdx(7)]);
        let arena: Vec<(Option<u32>, String)> = ts
            .action_indices()
            .map(|a| {
                let info = ts.action(a);
                (info.parent.map(|p| p.0), info.descriptor.to_string())
            })
            .collect();
        let expected = [
            (None, "T1()"),
            (Some(0), "insert(a)"),
            (Some(1), "read()"),
            (None, "T2()"),
            (Some(3), "insert(b)"),
            (Some(4), "read()"),
            (Some(1), "write()"),
            (None, "T3()"),
            (Some(4), "write()"),
            (Some(0), "read()"),
            (Some(7), "insert(c)"),
            (Some(10), "read()"),
        ];
        assert_eq!(
            arena,
            expected.map(|(parent, d)| (parent, d.to_string())).to_vec()
        );
        let order: Vec<u32> = h.order().iter().map(|a| a.0).collect();
        assert_eq!(order, [2, 5, 6, 8, 9, 11]);
        // sequential siblings: T1's first visit precedes its later read
        assert_eq!(
            ts.precedes(ActionIdx(1)).collect::<Vec<_>>(),
            [ActionIdx(9)]
        );
    }

    /// A disabled recorder numbers transactions like an enabled one and
    /// checks their nesting, but stages, drains and keeps nothing.
    #[test]
    fn a_disabled_recorder_numbers_and_keeps_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let leaf = rec.object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let page = rec.object("Page", Arc::new(ReadWriteSpec));
        let search: DescriptorRef = ActionDescriptor::new("search", vec![key("k")]).into();
        let mut cursors: Vec<TxnCtx> = (0..3).map(|i| rec.begin_txn(format!("T{i}"))).collect();
        let numbers: Vec<u32> = cursors.iter().map(TxnCtx::txn_number).collect();
        assert_eq!(numbers, [0, 1, 2]);
        for t in &mut cursors {
            t.record(&[(leaf, &search)], Some((page, &DescriptorRef::read())));
            t.enter(leaf, ActionDescriptor::new("insert", vec![key("k")]));
            assert_eq!(t.depth(), 3);
            t.page_write(page);
            t.exit_to(1);
        }
        // while the cursors live: nothing staged, the arena not grown
        assert!(cursors.iter().all(|t| t.stage.is_none()));
        assert_eq!(
            rec.with_record(|ts, h| (ts.action_count(), h.len())),
            (0, 0)
        );
        drop(cursors);
        rec.drain_if_free();
        assert_eq!(rec.history_len(), 0);
        assert_eq!(
            rec.stats(),
            RecorderStats {
                enabled: false,
                drains: 0,
                drains_skipped: 0,
                drain_hold_ns: 0,
                staged_peak: 0,
            }
        );
        let (ts, h) = rec.finish();
        assert_eq!((ts.action_count(), h.len()), (0, 0));
        assert_eq!(ts.object_by_name("Page"), Some(page));
        assert!(Recorder::new().stats().enabled);
    }

    /// A visit whose copy no longer holds once its ticket is claimed
    /// stages nothing; one whose copy holds is recorded as `record` would
    /// record it. A disabled cursor calls neither closure.
    #[test]
    fn a_validated_visit_is_staged_only_if_its_copy_still_holds() {
        let rec = Recorder::new();
        let node = rec.object("N", Arc::new(RangeSpec::ordered_container("node")));
        let page = rec.object("P", Arc::new(ReadWriteSpec));
        let search: DescriptorRef = ActionDescriptor::new("search", vec![key("k")]).into();
        let read = DescriptorRef::read();
        let visit = || ([(node, &search)], (page, &read));
        let mut t = rec.begin_txn("T");
        assert!(!t.record_validated(visit, || false));
        assert_eq!(t.depth(), 1, "nothing was entered");
        assert!(t.record_validated(visit, || true));
        assert_eq!(t.depth(), 2);
        t.exit();
        drop(t);
        let (ts, h) = rec.finish();
        assert_eq!((ts.action_count(), h.len()), (3, 1), "root, visit, read");
        h.check_complete(&ts).unwrap();

        type Visit = (
            [(ObjectIdx, &'static DescriptorRef); 2],
            (ObjectIdx, &'static DescriptorRef),
        );
        let never = || -> Visit { panic!("a disabled cursor builds no visit") };
        let mut t = Recorder::disabled().begin_txn("T");
        assert!(t.record_validated(never, || panic!("nor looks again")));
        assert_eq!(t.depth(), 3);
        t.exit_to(1);
    }

    #[test]
    #[should_panic(expected = "exit() without matching enter()")]
    fn a_disabled_recorder_still_checks_the_nesting() {
        let mut t = Recorder::disabled().begin_txn("T");
        t.exit();
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
