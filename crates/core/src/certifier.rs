//! An online oo-serializability certifier (optimistic scheduler).
//!
//! The paper defines oo-serializability as an after-the-fact property of
//! schedules; a DBMS needs an *online* component that admits commits only
//! while the property still holds. Locking (see `oodb-lock`) is the
//! pessimistic route; this module is the optimistic one — a backward-
//! validating **certifier**. It assumes writes deferred to the commit
//! point (the engine's optimistic control): no transaction ever sees
//! another's uncommitted effect, so recoverability needs no commit
//! dependency to wait on and no abort that cascades. What is left is
//! validation, and an abort is only recorded
//! ([`Certifier::register_abort`]).
//!
//! Validation asks whether admitting the candidate to the committed
//! transactions keeps Definition 16, the paper's decentralized check.
//! (The strengthened whole-system check, which also closes the
//! added-relation gap, is a batch check only:
//! [`check_system_global`](crate::serializability::check_system_global).)
//! The certifier maintains one set of dependency relations across
//! attempts, feeds it only the actions appended since the last attempt,
//! and searches for a cycle from the candidate's own edges
//! ([`check_candidate_decentralized`]),
//! so a commit costs its delta plus what its edges reach, not the record.
//! After every finalization it applies the cut
//! ([`crate::retention`]): committed transactions that no retained, live
//! or future transaction can reach leave the maintained relations, so
//! what a commit is checked against follows the concurrency, not the
//! length of the run.
//! Its oracle lives in the tests: a from-scratch replay that re-decides
//! each decision over the final record restricted to the committed
//! transactions plus the candidate, with a fresh
//! [`SystemSchedules::infer_scoped`](crate::schedule::SystemSchedules::infer_scoped)
//! and [`check_system_decentralized`](crate::serializability::check_system_decentralized).
//!
//! ```
//! use oodb_core::certifier::{Certifier, CommitOutcome};
//! use oodb_core::prelude::*;
//! use std::sync::Arc;
//!
//! let mut ts = TransactionSystem::new();
//! let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
//! let page = ts.add_object("Page", Arc::new(ReadWriteSpec));
//! let mut prims = Vec::new();
//! for (name, k) in [("T1", "A"), ("T2", "B")] {
//!     let mut b = ts.txn(name);
//!     b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
//!     prims.push(b.leaf(page, ActionDescriptor::nullary("write")));
//!     b.end();
//!     b.finish();
//! }
//! let h = History::from_order(&ts, &prims).unwrap();
//!
//! let mut cert = Certifier::default();
//! assert_eq!(cert.try_commit(&ts, &h, TxnIdx(0)), CommitOutcome::Committed);
//! assert_eq!(cert.try_commit(&ts, &h, TxnIdx(1)), CommitOutcome::Committed);
//! assert_eq!(cert.stats.aborts, 0);
//! ```

use crate::history::History;
use crate::ids::{ActionIdx, TxnIdx};
use crate::incremental::{FeedOutcome, IncrementalFeed, IncrementalSchedules};
use crate::serializability::{check_candidate_decentralized, Violation};
use crate::system::TransactionSystem;
use std::collections::HashSet;

/// What is left of the retired whole-system online mode: the one check
/// the certifier runs, the paper's Definition 16, kept only as the
/// argument of [`Certifier::new`]. Its one user is the repo benchmark's
/// serial replay (`benchmark/src/replay.rs`); the next change to the
/// benchmark drops it, and [`WaitPolicy`] with it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CertifierMode {
    /// The paper's Definition 16 (decentralized, pairwise added relation).
    #[default]
    Paper,
}

/// What is left of the retired commit-dependency wait: the one policy
/// the certifier has, kept only as the argument of
/// [`Certifier::with_wait_policy`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitPolicy {
    /// Never wait: the only behaviour.
    #[default]
    Ignore,
}

/// Result of a commit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The transaction is now committed.
    Committed,
    /// Validation failed; the transaction must abort (and compensate).
    MustAbort(Violation),
}

/// Backward-validation certifier over a shared recorded system; a new
/// one is [`Certifier::default`].
#[derive(Debug, Default)]
pub struct Certifier {
    /// The maintained dependency relations and the cut.
    feed: IncrementalFeed,
    committed: HashSet<TxnIdx>,
    aborted: HashSet<TxnIdx>,
    /// Monotone counters.
    pub stats: CertifierStats,
}

/// Counters of certifier activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CertifierStats {
    /// Commit attempts.
    pub attempts: u64,
    /// Successful commits.
    pub commits: u64,
    /// Aborts: validation failures plus [`Certifier::register_abort`]s.
    pub aborts: u64,
    /// Actions fed to dependency inference, summed over every decision:
    /// delta lengths, plus full replay lengths on reseeds.
    pub actions_inferred: u64,
    /// Times the certifier rebuilt its schedules from the
    /// restricted history (garbage from excluded transactions outgrew
    /// the live edges).
    pub incremental_reseeds: u64,
    /// Nodes expanded by the candidate-rooted
    /// Definition-16 search, summed over every validation. Follows the
    /// candidate's edges, not the record: 0 for a transaction that
    /// derived no dependency.
    pub check_visited: u64,
    /// Committed transactions the cut dropped from the maintained
    /// relations ([`crate::retention`]).
    pub settled: u64,
    /// Gauge, not a counter: primitives currently held in the maintained
    /// relations — how much history the next commit is checked against.
    pub retained_actions: u64,
}

impl CertifierStats {
    /// Charge one feed of the incremental schedules: the actions it
    /// inferred over, and the reseed if it was one.
    pub fn charge_feed(&mut self, out: FeedOutcome) {
        self.actions_inferred += out.fed as u64;
        if out.reseeded {
            self.incremental_reseeds += 1;
        }
    }
}

impl Certifier {
    /// [`Certifier::default`], for the repo benchmark's call (see
    /// [`CertifierMode`]).
    #[doc(hidden)]
    pub fn new(_mode: CertifierMode) -> Self {
        Self::default()
    }

    /// A no-op. Its one caller is the repo benchmark's serial replay
    /// (`benchmark/src/replay.rs`); the next change to the benchmark
    /// drops that call, and this method and [`WaitPolicy`] go with it.
    #[doc(hidden)]
    pub fn with_wait_policy(self, _policy: WaitPolicy) -> Self {
        self
    }

    /// The live incremental schedules, for diagnostics and tests.
    pub fn incremental(&self) -> &IncrementalSchedules {
        self.feed.schedules()
    }

    /// The transactions that left the maintained relations for good:
    /// aborted, [`retire`](Self::retire)d, and the commits the cut
    /// dropped. For the crate's own tests.
    #[doc(hidden)]
    pub fn excluded(&self) -> &HashSet<TxnIdx> {
        self.feed.excluded()
    }

    /// Fold the actions appended since the last attempt into the live
    /// incremental schedules. Reseeds first when the garbage from
    /// excluded transactions has outgrown the live edges; both costs
    /// land in [`CertifierStats::actions_inferred`].
    pub fn feed_record(&mut self, ts: &TransactionSystem, history: &History) -> FeedOutcome {
        let out = self
            .feed
            .feed_admitted(ts, history, |t| self.committed.contains(&t));
        self.stats.charge_feed(out);
        self.stats.retained_actions = self.feed.retained_actions() as u64;
        out
    }

    /// Committed transactions so far.
    pub fn committed(&self) -> &HashSet<TxnIdx> {
        &self.committed
    }

    /// Aborted transactions so far, plus those [`retire`](Self::retire)d.
    pub fn aborted(&self) -> &HashSet<TxnIdx> {
        &self.aborted
    }

    /// True until `t` commits, aborts or is [`retire`](Self::retire)d.
    pub fn is_live(&self, t: TxnIdx) -> bool {
        !self.committed.contains(&t) && !self.aborted.contains(&t)
    }

    /// How many transactions the next decision can be checked against:
    /// those the maintained relations still track after the last feed
    /// (the commits the cut retained and everything live).
    pub fn retained_txns(&self) -> usize {
        self.feed.retained_txns()
    }

    /// Attempt to commit `candidate`. `ts`/`history` are the full record
    /// (typically a recorder snapshot).
    pub fn try_commit(
        &mut self,
        ts: &TransactionSystem,
        history: &History,
        candidate: TxnIdx,
    ) -> CommitOutcome {
        assert!(
            self.is_live(candidate),
            "transaction {candidate} already finalized"
        );
        self.stats.attempts += 1;
        self.feed_record(ts, history);

        // the rooted search needs every primitive of the candidate, and of
        // each committed transaction when it was the candidate, fed by now:
        // `feed_record` above consumed the record and rejects late arrivals
        let inc = self.feed.schedules();
        let in_scope = |t: TxnIdx| t == candidate || self.committed.contains(&t);
        let visited = &mut self.stats.check_visited;
        let verdict = check_candidate_decentralized(ts, inc, candidate, in_scope, visited);
        let outcome = self.finalize_attempt(candidate, verdict);
        if matches!(outcome, CommitOutcome::MustAbort(_)) {
            // the aborted candidate leaves every future scope: stop
            // feeding its actions and let the garbage trigger a reseed
            self.feed.exclude(candidate);
        }
        self.settle();
        outcome
    }

    /// A transaction just finalized: apply the cut, in the same round
    /// that fed the record.
    fn settle(&mut self) {
        let committed = &self.committed;
        self.stats.settled += self.feed.cut(|t| committed.contains(&t)).len() as u64;
        self.stats.retained_actions = self.feed.retained_actions() as u64;
    }

    fn finalize_attempt(
        &mut self,
        candidate: TxnIdx,
        verdict: Result<(), Violation>,
    ) -> CommitOutcome {
        match verdict {
            Ok(()) => {
                self.committed.insert(candidate);
                self.stats.commits += 1;
                CommitOutcome::Committed
            }
            Err(v) => {
                self.aborted.insert(candidate);
                self.stats.aborts += 1;
                CommitOutcome::MustAbort(v)
            }
        }
    }

    /// Record the abort of a live transaction before its commit point (a
    /// deadline, an injected fault). Writes are deferred to the commit
    /// point, so writers
    /// publish nothing before it: no other transaction can depend on an
    /// aborting one, and nothing cascades.
    pub fn register_abort(&mut self, txn: TxnIdx) {
        assert!(self.is_live(txn), "transaction {txn} already finalized");
        self.aborted.insert(txn);
        self.stats.aborts += 1;
        // actions the finalized transaction already recorded become
        // garbage; the next feed prunes them once they dominate
        self.feed.exclude(txn);
        self.settle();
    }

    /// `txn` is recorded outside certification — a compensation, a state
    /// dump — and will never be a candidate: it is final as it stands,
    /// like an aborted attempt but not counted as one. Its primitives are
    /// never fed, so it cannot hold the cut back the way a transaction
    /// that looks live forever would. Call it before `txn` records (or
    /// at the latest when it has recorded its last primitive).
    pub fn retire(&mut self, txn: TxnIdx) {
        assert!(self.is_live(txn), "transaction {txn} already finalized");
        self.aborted.insert(txn);
        self.feed.exclude(txn);
        self.settle();
    }

    /// The sub-history of committed transactions — the durable execution
    /// whose oo-serializability the certifier guarantees.
    pub fn committed_history(&self, ts: &TransactionSystem, history: &History) -> History {
        restrict_history(ts, history, &self.committed)
    }
}

/// The sub-history containing only primitives of transactions in `scope`,
/// in the original order. Shared by the certifier's validation scope and
/// the engine's committed-projection audit.
pub fn restrict_history(
    ts: &TransactionSystem,
    history: &History,
    scope: &HashSet<TxnIdx>,
) -> History {
    let order: Vec<ActionIdx> = history
        .order()
        .iter()
        .copied()
        .filter(|&a| scope.contains(&ts.action(a).txn))
        .collect();
    History::from_order(ts, &order).expect("restriction of a valid history is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commutativity::{ActionDescriptor, RangeSpec, ReadWriteSpec};
    use crate::schedule::SystemSchedules;
    use crate::serializability::check_system_decentralized;
    use crate::value::key;
    use std::sync::Arc;

    /// The certifier's oracle: every decision restricts the record to its
    /// scope (the committed transactions plus the candidate) and infers
    /// from nothing, and nothing is ever pruned.
    #[derive(Default)]
    struct FromScratch {
        committed: HashSet<TxnIdx>,
        aborted: HashSet<TxnIdx>,
        /// Restricted-history lengths summed over every inference.
        inferred: u64,
    }

    impl FromScratch {
        fn try_commit(&mut self, ts: &TransactionSystem, h: &History, t: TxnIdx) -> CommitOutcome {
            let mut scope = self.committed.clone();
            scope.insert(t);
            let restricted = restrict_history(ts, h, &scope);
            self.inferred += restricted.len() as u64;
            let ss = SystemSchedules::infer_scoped(ts, &restricted, &scope);
            match check_system_decentralized(ts, &ss) {
                Ok(()) => {
                    self.committed.insert(t);
                    CommitOutcome::Committed
                }
                Err(v) => {
                    self.aborted.insert(t);
                    CommitOutcome::MustAbort(v)
                }
            }
        }
    }

    fn desc(m: &str) -> ActionDescriptor {
        ActionDescriptor::nullary(m)
    }

    /// Three txns inserting into one leaf over two pages; T1 and T3 use
    /// the same key with opposing page orders (a cross cycle); T2 uses
    /// its own key (independent).
    fn contended_system() -> (TransactionSystem, History) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let build = |ts: &mut TransactionSystem, name: &str, k: &str| -> Vec<ActionIdx> {
            let mut b = ts.txn(name);
            b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
            let a = b.leaf(p, desc("write"));
            let c = b.leaf(q, desc("write"));
            b.end();
            b.finish();
            vec![a, c]
        };
        let t1 = build(&mut ts, "T1", "K");
        let t2 = build(&mut ts, "T2", "L");
        let t3 = build(&mut ts, "T3", "K");
        let h = History::from_order(&ts, &[t1[0], t3[0], t3[1], t1[1], t2[0], t2[1]]).unwrap();
        (ts, h)
    }

    /// One-directional dependency: T2 searches the key T1 inserted.
    fn chain_system() -> (TransactionSystem, History) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let mut b = ts.txn("T1");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("K")]));
        let w = b.leaf(p, desc("write"));
        b.end();
        b.finish();
        let mut b = ts.txn("T2");
        b.call(leaf, ActionDescriptor::new("search", vec![key("K")]));
        let r = b.leaf(p, desc("read"));
        b.end();
        b.finish();
        let h = History::from_order(&ts, &[w, r]).unwrap();
        (ts, h)
    }

    /// First committer wins: T1 commits although T3 wrote between its two
    /// writes, and T3 then closes the cross cycle against committed T1.
    #[test]
    fn first_committer_wins_a_cross_cycle() {
        let (ts, h) = contended_system();
        let mut cert = Certifier::default();
        assert_eq!(
            cert.try_commit(&ts, &h, TxnIdx(0)),
            CommitOutcome::Committed
        );
        // T3 closes the cycle against committed T1: validation aborts it
        assert!(matches!(
            cert.try_commit(&ts, &h, TxnIdx(2)),
            CommitOutcome::MustAbort(_)
        ));
        assert_eq!(
            cert.try_commit(&ts, &h, TxnIdx(1)),
            CommitOutcome::Committed
        );
        assert_eq!(cert.stats.commits, 2);
        assert_eq!(cert.stats.aborts, 1);
    }

    #[test]
    fn register_abort_finalizes_without_cascading() {
        let (ts, h) = chain_system();
        let mut cert = Certifier::default();
        cert.register_abort(TxnIdx(0));
        assert!(cert.aborted().contains(&TxnIdx(0)));
        assert_eq!(cert.stats.aborts, 1);
        // T2's read is validated against the committed scope, which
        // excludes the aborted T1: it commits
        assert_eq!(
            cert.try_commit(&ts, &h, TxnIdx(1)),
            CommitOutcome::Committed
        );
    }

    #[test]
    #[should_panic(expected = "already finalized")]
    fn double_commit_rejected() {
        let (ts, h) = chain_system();
        let mut cert = Certifier::default();
        cert.try_commit(&ts, &h, TxnIdx(0));
        cert.try_commit(&ts, &h, TxnIdx(0));
    }

    /// The 3-object gap: A@X → B@Y → C@Z → A@X, each hop a cross-object
    /// caller dependency through one shared page. No two hops share an
    /// object pair, so no single object's combined relation is cyclic.
    fn gap_system() -> (TransactionSystem, History) {
        let mut ts = TransactionSystem::new();
        let x = ts.add_object("X", Arc::new(RangeSpec::ordered_container("x")));
        let y = ts.add_object("Y", Arc::new(RangeSpec::ordered_container("y")));
        let z = ts.add_object("Z", Arc::new(RangeSpec::ordered_container("z")));
        let p1 = ts.add_object("P1", Arc::new(ReadWriteSpec));
        let p2 = ts.add_object("P2", Arc::new(ReadWriteSpec));
        let p3 = ts.add_object("P3", Arc::new(ReadWriteSpec));
        let mk = |ts: &mut TransactionSystem, name: &str, o, pa, pb| {
            let mut b = ts.txn(name);
            b.call(o, ActionDescriptor::new("op", vec![key(name)]));
            let first = b.leaf(pa, desc("write"));
            let second = b.leaf(pb, desc("write"));
            b.end();
            b.finish();
            (first, second)
        };
        let a = mk(&mut ts, "A", x, p1, p3);
        let bp = mk(&mut ts, "B", y, p1, p2);
        let c = mk(&mut ts, "C", z, p2, p3);
        let h = History::from_order(&ts, &[a.0, bp.0, bp.1, c.0, c.1, a.1]).unwrap();
        (ts, h)
    }

    #[test]
    fn the_paper_check_admits_the_added_relation_gap() {
        // every one of the three commits: the 3-object cycle lies in no
        // object's relations (the batch `check_system_global` finds it)
        let (ts, h) = gap_system();
        let mut cert = Certifier::default();
        assert_eq!(
            cert.try_commit(&ts, &h, TxnIdx(0)),
            CommitOutcome::Committed
        );
        assert_eq!(
            cert.try_commit(&ts, &h, TxnIdx(1)),
            CommitOutcome::Committed
        );
        assert_eq!(
            cert.try_commit(&ts, &h, TxnIdx(2)),
            CommitOutcome::Committed,
            "the paper's check cannot see the 3-object cycle"
        );
    }

    #[test]
    #[should_panic(expected = "after T1 was admitted")]
    fn actions_of_a_committed_transaction_must_not_arrive_late() {
        let (ts, h) = chain_system();
        let mut cert = Certifier::default();
        // T1 is admitted on a record that lacks its write ...
        let empty = History::from_order(&ts, &[]).unwrap();
        cert.try_commit(&ts, &empty, TxnIdx(0));
        // ... which then shows up: the rooted search would never see the
        // edges it derives between committed transactions
        cert.try_commit(&ts, &h, TxnIdx(1));
    }

    #[test]
    fn all_commit_when_schedule_is_clean() {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("P", Arc::new(ReadWriteSpec));
        let mut prims = Vec::new();
        for (n, k) in [("T1", "A"), ("T2", "B"), ("T3", "C")] {
            let mut b = ts.txn(n);
            b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
            prims.push(b.leaf(p, desc("write")));
            b.end();
            b.finish();
        }
        let h = History::from_order(&ts, &prims).unwrap();
        let mut cert = Certifier::default();
        for t in 0..3 {
            assert_eq!(
                cert.try_commit(&ts, &h, TxnIdx(t)),
                CommitOutcome::Committed
            );
        }
        assert_eq!(cert.stats.aborts, 0);
    }

    /// A transaction nobody finalizes looks live forever and freezes the
    /// cut at its first action; retiring it — what the engine does for
    /// compensations and the state dump — lets everything behind it go.
    #[test]
    fn a_retired_transaction_does_not_hold_the_cut_back() {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("P", Arc::new(ReadWriteSpec));
        let mut prims = Vec::new();
        for (n, k) in [("C", "A"), ("T1", "B"), ("T2", "C")] {
            let mut b = ts.txn(n);
            b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
            prims.push(b.leaf(p, desc("write")));
            b.end();
            b.finish();
        }
        let h = History::from_order(&ts, &prims).unwrap();
        let mut cert = Certifier::default();
        for t in [1, 2] {
            assert_eq!(
                cert.try_commit(&ts, &h, TxnIdx(t)),
                CommitOutcome::Committed
            );
        }
        assert_eq!(
            cert.stats.settled, 0,
            "C was recorded first and is not final"
        );
        assert_eq!(cert.stats.retained_actions, 3);
        cert.retire(TxnIdx(0));
        assert_eq!(cert.stats.settled, 2);
        assert_eq!(cert.stats.aborts, 0, "retiring is not an abort");
        assert_eq!(cert.excluded().len(), 3);
        // the next round replays nothing: the record lies below the cut
        let out = cert.feed_record(&ts, &h);
        assert!(out.reseeded);
        assert_eq!(out.fed, 0);
        assert_eq!(cert.stats.retained_actions, 0);
    }

    /// Four transactions over two keys with opposing page orders inside
    /// each key pair: two independent cross cycles plus chain edges.
    fn four_txn_system() -> (TransactionSystem, History) {
        let mut ts = TransactionSystem::new();
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let build = |ts: &mut TransactionSystem, name: &str, k: &str| -> Vec<ActionIdx> {
            let mut b = ts.txn(name);
            b.call(leaf, ActionDescriptor::new("insert", vec![key(k)]));
            let a = b.leaf(p, desc("write"));
            let c = b.leaf(q, desc("write"));
            b.end();
            b.finish();
            vec![a, c]
        };
        let t1 = build(&mut ts, "T1", "K");
        let t2 = build(&mut ts, "T2", "L");
        let t3 = build(&mut ts, "T3", "K");
        let t4 = build(&mut ts, "T4", "L");
        let h = History::from_order(
            &ts,
            &[t1[0], t3[0], t2[0], t4[0], t3[1], t1[1], t4[1], t2[1]],
        )
        .unwrap();
        (ts, h)
    }

    /// Edge-for-edge oracle: the certifier's live incremental relations,
    /// filtered to the retained transactions (neither aborted nor dropped
    /// by the cut), must equal a fresh `infer_scoped` over the history
    /// restricted to them — per object, per relation, both directions.
    fn assert_incremental_matches_batch(
        cert: &Certifier,
        ts: &TransactionSystem,
        h: &History,
        step: &str,
    ) {
        let inc = cert.incremental();
        let excluded = cert.excluded();
        assert!(
            cert.aborted().is_subset(excluded),
            "aborted transactions leave the feed after {step}"
        );
        let scope: HashSet<TxnIdx> = (0..ts.top_level().len() as u32)
            .map(TxnIdx)
            .filter(|t| !excluded.contains(t))
            .collect();
        let restricted = restrict_history(ts, h, &scope);
        let batch = SystemSchedules::infer_scoped(ts, &restricted, &scope);
        type EdgeSet = HashSet<(ActionIdx, ActionIdx)>;
        let keep = |f: &ActionIdx, t: &ActionIdx| {
            scope.contains(&ts.action(*f).txn) && scope.contains(&ts.action(*t).txn)
        };
        for o in ts.object_indices() {
            let sch = batch.schedule(o);
            for (maintained, inferred, name) in [
                (inc.action_deps(o), &sch.action_deps, "action"),
                (inc.txn_deps(o), &sch.txn_deps, "txn"),
                (inc.added_deps(o), &sch.added_deps, "added"),
            ] {
                let filtered: EdgeSet = maintained
                    .map(|g| {
                        g.edges()
                            .filter(|(f, t)| keep(f, t))
                            .map(|(f, t)| (*f, *t))
                            .collect()
                    })
                    .unwrap_or_default();
                let fresh: EdgeSet = inferred.edges().map(|(f, t)| (*f, *t)).collect();
                assert_eq!(
                    filtered, fresh,
                    "{name} deps of object {o} diverge after {step}"
                );
            }
        }
    }

    fn permutations_of(n: usize) -> Vec<Vec<usize>> {
        fn go(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k == items.len() {
                out.push(items.clone());
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                go(items, k + 1, out);
                items.swap(k, i);
            }
        }
        let mut items: Vec<usize> = (0..n).collect();
        let mut out = Vec::new();
        go(&mut items, 0, &mut out);
        out
    }

    /// Exhaustive small-system differential: over **every** commit/abort
    /// interleaving of 2/3/4-transaction systems (every finalization
    /// order × every commit-vs-abort assignment,
    /// with and without a forced reseed after each step; an abort goes
    /// through [`Certifier::register_abort`], the engine's own path), the
    /// certifier reaches the same decision as the
    /// [`FromScratch`] replay — which never prunes — and its maintained
    /// relations equal fresh scoped inference over the retained
    /// transactions edge for edge after every step.
    #[test]
    fn incremental_state_matches_fresh_inference_after_every_step() {
        for (ts, h) in [chain_system(), contended_system(), four_txn_system()] {
            let n = ts.top_level().len();
            for perm in permutations_of(n) {
                for mask in 0..(1u32 << n) {
                    for force_reseed in [false, true] {
                        let mut cert = Certifier::default();
                        let mut oracle = FromScratch::default();
                        for (step, &t) in perm.iter().enumerate() {
                            let txn = TxnIdx(t as u32);
                            let commit = mask & (1 << t) != 0;
                            if commit {
                                let got = cert.try_commit(&ts, &h, txn);
                                let want = oracle.try_commit(&ts, &h, txn);
                                // decisions agree in kind; the cycle
                                // witness may come out of iteration
                                // order and can differ
                                assert_eq!(
                                    std::mem::discriminant(&got),
                                    std::mem::discriminant(&want),
                                    "decision diverged at step {step}: \
                                     incremental {got:?} vs from-scratch {want:?} \
                                     (perm {perm:?}, mask {mask:b})"
                                );
                            } else {
                                cert.register_abort(txn);
                                oracle.aborted.insert(txn);
                                // the next round feeds what the
                                // aborted transaction left unfed
                                cert.feed_record(&ts, &h);
                            }
                            if force_reseed {
                                let replayed = cert.feed.reseed(&ts, &h);
                                cert.stats.actions_inferred += replayed as u64;
                                cert.stats.incremental_reseeds += 1;
                            }
                            let label = format!(
                                "step {step} (perm {perm:?}, mask {mask:b}, \
                                 forced reseed {force_reseed})"
                            );
                            assert_incremental_matches_batch(&cert, &ts, &h, &label);
                            assert_eq!(
                                cert.committed(),
                                &oracle.committed,
                                "committed sets diverged after {label}"
                            );
                            assert_eq!(
                                cert.aborted(),
                                &oracle.aborted,
                                "aborted sets diverged after {label}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Two callers on *different* objects meeting on two pages in
    /// opposite orders: the 2-cycle lives only in the added relation.
    fn added_cycle_system() -> (TransactionSystem, History) {
        let mut ts = TransactionSystem::new();
        let x = ts.add_object("X", Arc::new(RangeSpec::ordered_container("x")));
        let y = ts.add_object("Y", Arc::new(RangeSpec::ordered_container("y")));
        let p = ts.add_object("PageA", Arc::new(ReadWriteSpec));
        let q = ts.add_object("PageB", Arc::new(ReadWriteSpec));
        let mk = |ts: &mut TransactionSystem, name: &str, o| {
            let mut b = ts.txn(name);
            b.call(o, ActionDescriptor::new("op", vec![key(name)]));
            let first = b.leaf(p, desc("write"));
            let second = b.leaf(q, desc("write"));
            b.end();
            b.finish();
            (first, second)
        };
        let a = mk(&mut ts, "A", x);
        let b = mk(&mut ts, "B", y);
        let h = History::from_order(&ts, &[a.0, b.0, b.1, a.1]).unwrap();
        (ts, h)
    }

    /// Commuting leaf inserts where T1 touches the page on both sides of
    /// T2's access: the page's caller relation is cyclic by itself, and
    /// the page is registered before the leaf, so Definition 16 meets
    /// the transaction dependency cycle first.
    fn txn_cycle_system() -> (TransactionSystem, History) {
        let mut ts = TransactionSystem::new();
        let p = ts.add_object("Page", Arc::new(ReadWriteSpec));
        let leaf = ts.add_object("Leaf", Arc::new(RangeSpec::ordered_container("leaf")));
        let mut b = ts.txn("T1");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("K")]));
        let w1 = b.leaf(p, desc("write"));
        let w2 = b.leaf(p, desc("write"));
        b.end();
        b.finish();
        let mut b = ts.txn("T2");
        b.call(leaf, ActionDescriptor::new("insert", vec![key("L")]));
        let w = b.leaf(p, desc("write"));
        b.end();
        b.finish();
        let h = History::from_order(&ts, &[w1, w, w2]).unwrap();
        (ts, h)
    }

    /// ROADMAP aim 4: whatever the rooted search reports is a real cycle.
    /// Every hop (the closing one included) is an edge of the named
    /// relation at the named object, every node is in the validated
    /// scope, and the cycle passes through the candidate.
    fn assert_witness_is_real(
        ts: &TransactionSystem,
        cert: &Certifier,
        candidate: TxnIdx,
        violation: &Violation,
    ) {
        let inc = cert.incremental();
        let has = |g: Option<&crate::graph::DiGraph<ActionIdx>>, f: ActionIdx, t: ActionIdx| {
            g.is_some_and(|g| g.has_edge(&f, &t))
        };
        type Hop<'a> = Box<dyn Fn(ActionIdx, ActionIdx) -> bool + 'a>;
        let (cycle, is_hop): (&Vec<ActionIdx>, Hop) = match violation {
            Violation::TxnDepCycle { object, cycle } => {
                (cycle, Box::new(|f, t| has(inc.txn_deps(*object), f, t)))
            }
            Violation::ActionDepCycle { object, cycle } => {
                (cycle, Box::new(|f, t| has(inc.action_deps(*object), f, t)))
            }
            Violation::AddedDepCycle { object, cycle } => (
                cycle,
                Box::new(|f, t| {
                    has(inc.action_deps(*object), f, t) || has(inc.added_deps(*object), f, t)
                }),
            ),
            other => panic!("the certifier never reports {other:?}"),
        };
        assert!(!cycle.is_empty(), "{violation:?}");
        for (i, &f) in cycle.iter().enumerate() {
            let t = cycle[(i + 1) % cycle.len()];
            assert!(is_hop(f, t), "hop {f} → {t} is no edge of {violation:?}");
            let owner = ts.action(f).txn;
            assert!(
                owner == candidate || cert.committed().contains(&owner),
                "{f} of {owner} lies outside the scope of {violation:?}"
            );
        }
        assert!(
            cycle.iter().any(|&a| ts.action(a).txn == candidate),
            "{violation:?} misses candidate {candidate}"
        );
    }

    #[test]
    fn every_reported_witness_is_a_genuine_cycle_through_the_candidate() {
        let mut seen = HashSet::new();
        for (ts, h) in [
            contended_system(),
            four_txn_system(),
            gap_system(),
            added_cycle_system(),
            txn_cycle_system(),
        ] {
            for perm in permutations_of(ts.top_level().len()) {
                let mut cert = Certifier::default();
                for &t in &perm {
                    let candidate = TxnIdx(t as u32);
                    if let CommitOutcome::MustAbort(v) = cert.try_commit(&ts, &h, candidate) {
                        assert_witness_is_real(&ts, &cert, candidate, &v);
                        seen.insert(std::mem::discriminant(&v));
                    }
                }
            }
        }
        assert_eq!(seen.len(), 3, "txn, action and added cycles all occur");
    }

    /// The certifier's cost accounting: feeding is charged per appended
    /// action (not per attempt × history).
    #[test]
    fn incremental_accounting_charges_deltas() {
        let (ts, h) = four_txn_system();
        let mut cert = Certifier::default();
        let mut batch = FromScratch::default();
        // the same decision sequence on both: each key's first committer
        // wins, the other closes a cross cycle against it
        for (t, commits) in [(0, true), (2, false), (1, true), (3, false)] {
            let got = cert.try_commit(&ts, &h, TxnIdx(t));
            let want = batch.try_commit(&ts, &h, TxnIdx(t));
            assert_eq!(got == CommitOutcome::Committed, commits, "T{t}: {got:?}");
            assert_eq!(want == CommitOutcome::Committed, commits, "T{t}: {want:?}");
        }
        // the certifier consumed each recorded action at most once plus
        // reseed replays; from scratch re-restricts the record on every
        // attempt and must have inferred strictly more
        assert!(
            cert.stats.actions_inferred < batch.inferred,
            "incremental {} vs from-scratch {}",
            cert.stats.actions_inferred,
            batch.inferred
        );
        assert_eq!(&batch.committed, cert.committed());
        assert_eq!(&batch.aborted, cert.aborted());
    }
}
