//! Latched-vs-serial differential suite.
//!
//! Workers execute through per-page latch coupling, ordered by the
//! concurrency control alone: strict 2PL's locks, or the optimistic
//! control's install gate. The reference is the serial run — the same
//! workload at `workers: 1`, where no latch or lock can be raced: with
//! disjoint private-write partitions the final database state is
//! commit-order independent, so for every concurrency-control family ×
//! shard count the 4-worker engine must commit the same transactions,
//! pass the same audits, and agree bit-for-bit on final state with it —
//! on spread keys, and on keys that all share one lock stripe. Every run
//! reads inner B-link nodes by version, a recorded one claiming each
//! visit's ticket inside the image's version window. One more row runs
//! strict 2PL with the audit off at fanout 4: that run records nothing
//! while its inserts split leaves, inner nodes and the root; only the
//! final state can vouch for it.
//!
//! A second test pins the rearrange/seq-claim boundary under real
//! concurrency: a tiny fanout forces structure modifications (page
//! splits, including in-place root splits) while many workers run, and
//! the dependency graph reconstructed from the trace ring must match
//! the shutdown audit's committed projection edge-for-edge.

mod common;

use common::analyze::cross_check;
use oodb_engine::{shard_of_key, CcKind, EngineConfig, EngineOutput, TraceMode, STRIPES};
use oodb_sim::{EncOp, EncWorkload};
use proptest::prelude::*;

/// Where the workload's keys fall in the lock table.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Wherever their hash puts them.
    Spread,
    /// Every key on stripe 0: pairs of different keys that one stripe
    /// used to serialize, and that now run side by side.
    OneStripe,
}

impl Layout {
    fn key(self, base: String) -> String {
        match self {
            Layout::Spread => base,
            Layout::OneStripe => (0..)
                .map(|n| format!("{base}n{n}"))
                .find(|k| shard_of_key(k, STRIPES) == 0)
                .expect("some suffix hashes to stripe 0"),
        }
    }

    fn shared_key(self, i: usize) -> String {
        self.key(format!("s{:02}", i % 6))
    }

    fn private_key(self, t: usize, slot: usize) -> String {
        self.key(format!("p{t:02}x{slot}"))
    }

    /// Decode a `(code, roam)` pair into an op whose writes stay inside
    /// transaction `t`'s private partition; reads roam everywhere.
    fn decode_private(self, t: usize, code: u8, roam: usize) -> EncOp {
        match code {
            0 => EncOp::Change(self.private_key(t, 0)),
            1 => EncOp::Insert(self.private_key(t, 1)),
            2 => EncOp::Delete(self.private_key(t, 0)),
            3 => EncOp::Search(self.shared_key(roam)),
            4 => EncOp::Search(self.private_key(roam % 8, 0)),
            _ => EncOp::ReadSeq,
        }
    }
}

#[derive(Debug, Clone)]
struct Workload {
    txns: Vec<Vec<(u8, usize)>>,
    seed: u64,
}

/// An unaudited run goes at fanout 4, so that its few keys split nodes
/// at every level.
fn engine_run(w: &Workload, layout: Layout, row: Row, workers: usize) -> EngineOutput {
    let (kind, shards, audited) = row;
    let mut preload: Vec<String> = (0..6).map(|i| layout.shared_key(i)).collect();
    preload.extend((0..w.txns.len()).map(|t| layout.private_key(t, 0)));
    let defaults = EngineConfig::default();
    let cfg = EngineConfig {
        workers,
        queue_capacity: 16,
        shards,
        seed: w.seed,
        audit: audited,
        fanout: if audited { defaults.fanout } else { 4 },
        ..defaults
    };
    let engine = oodb_engine::Engine::start(cfg, kind);
    engine.preload(&preload);
    for (t, codes) in w.txns.iter().enumerate() {
        let ops: Vec<EncOp> = codes
            .iter()
            .map(|&(code, roam)| layout.decode_private(t, code, roam))
            .collect();
        engine.submit_blocking(ops).expect("accepts until shutdown");
    }
    engine.shutdown()
}

/// `(control, shards, audited)`.
type Row = (CcKind, usize, bool);

/// Every CC family × shard count exercised by the differential, audited,
/// and the unaudited strict-2PL run, which records nothing.
const ROWS: &[Row] = &[
    (CcKind::Pessimistic, 1, true),
    (CcKind::Pessimistic, 4, true),
    (CcKind::PessimisticPage, 1, true),
    (CcKind::Optimistic, 1, true),
    (CcKind::Optimistic, 4, true),
    (CcKind::Pessimistic, 4, false),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random private-write workloads through the real multi-threaded
    /// engine: four workers must reach exactly the state the serial run
    /// reaches, with everything committed and both audits clean where
    /// there is an audit, for every row and both key layouts.
    #[test]
    fn four_workers_match_the_serial_run(
        txns in prop::collection::vec(
            prop::collection::vec((0u8..6, 0usize..8), 2..5), 3..7),
        seed in 0u64..1024,
    ) {
        let w = Workload { txns, seed };
        let runs = [Layout::Spread, Layout::OneStripe]
            .into_iter()
            .flat_map(|layout| ROWS.iter().map(move |&row| (layout, row)));
        for (layout, row) in runs {
            let latched = engine_run(&w, layout, row, 4);
            let serial = engine_run(&w, layout, row, 1);
            prop_assert_eq!(serial.metrics.retries, 0, "one worker: nothing to retry");
            let (kind, shards, audited) = row;
            let label = format!("{layout:?}/{kind:?}/{shards}/audited {audited}");
            for (out, path) in [(&latched, "4 workers"), (&serial, "serial")] {
                prop_assert_eq!(
                    out.metrics.committed as usize,
                    w.txns.len(),
                    "{}/{}: every transaction commits (aborted {})",
                    &label, path, out.metrics.aborted
                );
                prop_assert_eq!(out.audit.is_some(), audited, "{}", &label);
                prop_assert_eq!(out.metrics.recording, audited, "{}", &label);
                let Some(audit) = &out.audit else { continue };
                prop_assert!(
                    audit.report.oo_decentralized.is_ok()
                        && audit.report.oo_global.is_ok(),
                    "{}/{}: merged audit must pass", &label, path
                );
            }
            prop_assert_eq!(
                &latched.final_state, &serial.final_state,
                "{}: 4 workers diverged from the serial run", &label
            );
        }
    }
}

/// Page splits under real concurrency keep the trace and the audit in
/// agreement: a fanout of 4 forces repeated structure modifications —
/// including in-place root splits, whose `rearrange` is recorded on a
/// fresh root-epoch object — while 8 workers interleave. The seq claim
/// and the WAL append happen while the operation's lock (or the install
/// gate) is held, so the dependency graph reconstructed from trace
/// events alone must equal the audit's committed projection
/// edge-for-edge.
///
/// The trace analyzer's (`common::analyze`) index rule assumes no split
/// relocates a key's leaf entry between two accesses of different
/// transactions, so the workload keeps every key inside one
/// transaction's private partition: inserts grow the tree past several
/// root splits, searches and delete probes of *other* partitions miss
/// (pure index reads). Both graphs
/// must then be empty — a `rearrange` recorded on a traversed object
/// (instead of the fresh root-epoch object) would manufacture
/// Definition-5 virtual-object conflicts between the probing
/// transactions and surface here as audit-side extra edges.
#[test]
fn split_under_concurrency_pins_rearrange_seq_boundary() {
    let txn_ops: Vec<Vec<EncOp>> = (0..16)
        .map(|t| {
            let mut ops: Vec<EncOp> = (0..4)
                .map(|s| EncOp::Insert(format!("t{t:02}x{s}")))
                .collect();
            // probes into a neighbour's partition: the slot is never
            // inserted, so both the search and the delete miss and stay
            // index reads
            ops.push(EncOp::Search(format!("t{:02}x9", (t + 1) % 16)));
            ops.push(EncOp::Delete(format!("t{:02}x8", (t + 3) % 16)));
            ops
        })
        .collect();
    let workload = EncWorkload {
        preload_keys: Vec::new(),
        txn_ops,
    };
    for kind in [CcKind::Pessimistic, CcKind::Optimistic] {
        let cfg = EngineConfig {
            workers: 8,
            queue_capacity: 64,
            shards: 4,
            seed: 7,
            fanout: 4,
            trace: TraceMode::ring(),
            ..EngineConfig::default()
        };
        let out = oodb_engine::run_workload(&cfg, kind, &workload);
        assert!(
            out.final_state.len() > cfg.fanout * cfg.fanout,
            "{kind:?}: {} keys survive — more than fanout² forces repeated \
             root splits",
            out.final_state.len()
        );
        let audit = out.audit.expect("audit enabled by default");
        assert!(
            audit.report.oo_decentralized.is_ok() && audit.report.oo_global.is_ok(),
            "{kind:?}: audit must pass under forced splits: {:?}",
            audit.report.oo_decentralized
        );
        let log = out.trace.expect("ring sink captured a trace");
        assert_eq!(log.dropped, 0, "default ring capacity holds the run");
        let check = cross_check(&log.events, &audit);
        assert!(
            check.ok(),
            "{kind:?}: trace/audit graphs diverge under splits: {check}\n  trace: {}\n  audit: {}",
            check.trace,
            check.audit
        );
        assert!(
            check.trace.edges.is_empty() && check.audit.edges.is_empty(),
            "{kind:?}: disjoint partitions must not depend on each other — \
             a split manufactured conflicts: trace {} audit {}",
            check.trace,
            check.audit
        );
    }
}
