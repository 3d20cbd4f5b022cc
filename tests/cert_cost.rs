//! Certification cost follows the candidate's own edges, not the record.
//!
//! Measured on counts, not a clock: `CertifierStats::check_visited` is
//! the number of nodes the candidate-rooted Definition-16 search
//! expanded, `CertifierStats::retained_actions` the number of executed
//! primitives the certifier holds after the cut; both repeat exactly for
//! a given schedule.

use oodb::btree::{Encyclopedia, EncyclopediaConfig};
use oodb::core::certifier::{Certifier, CommitOutcome};
use oodb::core::ids::TxnIdx;
use oodb::model::{Recorder, TxnCtx};

const KEYS: usize = 128;

/// The preloaded item text, and the text a change writes: the same
/// length, so a change rewrites its item in place on the full preloaded
/// item pages instead of moving it to a fresh page (a move writes the
/// page it leaves, which the searches beside it read).
const PRELOADED: &str = "preloaded";
const CHANGED: &str = "rewritten";

fn key(i: usize) -> String {
    format!("k{:04}", i % KEYS)
}

struct Stack {
    rec: Recorder,
    enc: Encyclopedia,
    cert: Certifier,
}

impl Stack {
    /// A fresh encyclopedia whose preload — one transaction, `KEYS`
    /// inserts, the shape of `Engine::preload` — has been certified.
    fn preloaded() -> Stack {
        let rec = Recorder::new();
        let enc = Encyclopedia::create(
            rec.clone(),
            EncyclopediaConfig {
                fanout: 8,
                ..EncyclopediaConfig::default()
            },
        );
        let mut stack = Stack {
            rec,
            enc,
            cert: Certifier::default(),
        };
        let mut setup = stack.rec.begin_txn("Setup");
        for i in 0..KEYS {
            stack.enc.insert(&mut setup, &key(i), PRELOADED);
        }
        stack.commit(setup);
        stack
    }

    /// Certify `ctx` against the live record; returns the nodes its check
    /// visited.
    fn commit(&mut self, ctx: TxnCtx) -> u64 {
        let before = self.cert.stats.check_visited;
        let txn = TxnIdx(ctx.txn_number());
        let cert = &mut self.cert;
        let outcome = self
            .rec
            .with_record(|ts, history| cert.try_commit(ts, history, txn));
        assert_eq!(outcome, CommitOutcome::Committed, "disjoint keys certify");
        self.cert.stats.check_visited - before
    }
}

#[test]
fn a_candidate_without_edges_costs_nothing_to_check() {
    let stack = Stack::preloaded();
    assert!(
        stack.cert.stats.actions_inferred > KEYS as u64,
        "the preload's actions were fed"
    );
    assert_eq!(stack.cert.stats.check_visited, 0);
}

/// Snapshot-style pipeline of depth two: transaction `i` reads, then
/// transaction `i - 1` installs its write and commits, so a candidate
/// has read pages a later committer wrote — real out-edges for the
/// search to follow. Neighbours touch different keys, and the key
/// sequence repeats every `KEYS / 2` transactions over a tree no
/// operation restructures. What a commit visits is bounded by what ran
/// beside it, so one period of commits visits exactly as many nodes with
/// 370 committed transactions behind it as with 50.
#[test]
fn visited_per_commit_is_flat_in_history_length() {
    const PERIOD: usize = KEYS / 2;
    let mut stack = Stack::preloaded();
    let mut visited = Vec::new();
    let mut pending: Option<(TxnCtx, usize)> = None;
    for i in 0..=50 + 6 * PERIOD {
        let mut ctx = stack.rec.begin_txn(format!("J{i}"));
        stack.enc.search(&mut ctx, &key(2 * i));
        if let Some((mut prev, j)) = pending.replace((ctx, i)) {
            stack.enc.change(&mut prev, &key(2 * j + 1), CHANGED);
            visited.push(stack.commit(prev));
        }
    }
    let period_from = |at: usize| visited[at..at + PERIOD].iter().sum::<u64>();
    let (early, late) = (period_from(50), period_from(50 + 5 * PERIOD));
    assert!(early > 0, "the pipeline gives candidates out-edges");
    assert_eq!(
        early, late,
        "nodes visited by {PERIOD} commits from history 50 vs from history 370"
    );
}

/// What the certifier keeps does not grow with the run. A serial stream
/// of six-operation transactions (reads and updates over a tree no
/// operation restructures): the executed primitives held after commit
/// 250 are those held after commit 50, give or take one transaction —
/// at the parent commit it held every primitive ever fed.
#[test]
fn retained_primitives_are_flat_in_history_length() {
    let mut stack = Stack::preloaded();
    let mut retained = Vec::new();
    let mut largest_txn = 0;
    for i in 0..260 {
        let before = stack.rec.history_len();
        let mut ctx = stack.rec.begin_txn(format!("J{i}"));
        for op in 0..6 {
            let k = key(7 * i + 3 * op);
            if op % 3 == 2 {
                stack.enc.change(&mut ctx, &k, CHANGED);
            } else {
                stack.enc.search(&mut ctx, &k);
            }
        }
        largest_txn = largest_txn.max(stack.rec.history_len() - before);
        stack.commit(ctx);
        retained.push(stack.cert.stats.retained_actions);
    }
    let (early, late) = (retained[49], retained[249]);
    assert!(
        early.abs_diff(late) <= largest_txn as u64,
        "{early} primitives retained after commit 50, {late} after commit 250"
    );
    assert!(
        late <= 2 * largest_txn as u64,
        "a serial stream leaves nothing to check against, {late} primitives kept"
    );
    // the preload and every transaction but possibly the last few
    assert!(stack.cert.stats.settled >= 258);
}
