//! End-to-end tests of the tracing subsystem: deterministic canonical
//! export, trace-vs-audit dependency-graph agreement across every
//! concurrency-control strategy, ring overflow behavior, and exporter
//! validity on real engine runs.

use oodb_engine::trace::export::{
    to_chrome_trace, to_jsonl, to_jsonl_canonical, validate_json, validate_jsonl,
};
use oodb_engine::{cross_check, CcKind, EngineConfig, TraceMode};
use oodb_sim::{encyclopedia_workload, EncMix, EncWorkloadConfig, Skew};

/// A moderately contended workload: a small key space forces real
/// conflicts, so the reconstructed graph has edges to check.
fn contended_workload(seed: u64) -> oodb_sim::EncWorkload {
    encyclopedia_workload(&EncWorkloadConfig {
        txns: 24,
        ops_per_txn: 4,
        key_space: 8,
        preload: 6,
        mix: EncMix::update_heavy(),
        skew: Skew::Uniform,
        seed,
    })
}

fn cfg(workers: usize, shards: usize, trace: TraceMode) -> EngineConfig {
    EngineConfig {
        workers,
        shards,
        queue_capacity: 64,
        seed: 11,
        trace,
        ..EngineConfig::default()
    }
}

/// One worker and a fixed seed make the execution — and therefore the
/// canonical (timing-stripped) trace — fully deterministic: two runs
/// must produce byte-identical JSONL.
#[test]
fn canonical_jsonl_is_deterministic_for_single_worker_fixed_seed() {
    let run = || {
        let out = oodb_engine::run_workload(
            &cfg(1, 1, TraceMode::ring()),
            CcKind::Pessimistic,
            &contended_workload(5),
        );
        let log = out.trace.expect("ring sink captured a trace");
        assert_eq!(log.dropped, 0, "no events dropped at this capacity");
        to_jsonl_canonical(&log)
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "canonical traces of identical runs must be identical");
    assert!(validate_jsonl(&a), "canonical export is valid JSONL");
}

/// The tentpole invariant: the dependency graph reconstructed from
/// trace events alone matches the shutdown audit's committed projection
/// edge-for-edge — for every strategy, sharded and unsharded.
#[test]
fn trace_graph_matches_audit_for_every_strategy() {
    let mut total_matched = 0usize;
    for kind in [
        CcKind::Pessimistic,
        CcKind::PessimisticPage,
        CcKind::Optimistic,
    ] {
        for shards in [1usize, 4] {
            let config = cfg(3, shards, TraceMode::ring());
            let out = oodb_engine::run_workload(&config, kind, &contended_workload(17));
            let log = out.trace.expect("ring sink captured a trace");
            assert_eq!(log.dropped, 0, "default ring capacity holds the run");
            let audit = out.audit.expect("audit enabled by default");
            let check = cross_check(&log.events, &audit);
            assert!(
                check.ok(),
                "{kind:?} x {shards} shards: trace/audit graphs diverge: {check}\n  trace: {}\n  audit: {}",
                check.trace,
                check.audit
            );
            total_matched += check.matched;
        }
    }
    assert!(
        total_matched > 0,
        "a contended workload must produce at least one dependency edge"
    );
}

/// What a read observes when writes are deferred to the commit point:
/// one job `[Insert("k"), Search("k")]` on an empty tree. The optimistic
/// control's search runs in place on committed state when it is issued,
/// so it misses its own attempt's insert, and its `OpGranted` seq
/// precedes the insert's, which executes at the commit point — the
/// order the certifier checks. Under strict 2PL the insert runs first,
/// in place, and the search hits it.
#[test]
fn a_read_sees_committed_state_when_writes_are_deferred() {
    use oodb_engine::{Engine, TraceEventKind};
    use oodb_sim::EncOp;
    let granted = |kind: CcKind| {
        let engine = Engine::start(cfg(1, 1, TraceMode::ring()), kind);
        engine
            .submit_blocking(vec![EncOp::Insert("k".into()), EncOp::Search("k".into())])
            .expect("accepts until shutdown");
        let out = engine.shutdown();
        assert_eq!(out.metrics.committed, 1, "{kind:?}");
        let log = out.trace.expect("ring sink captured a trace");
        let of = |want: &EncOp| {
            log.events
                .iter()
                .find_map(|e| match &e.kind {
                    TraceEventKind::OpGranted { op, hit, .. } if op == want => Some((e.seq, *hit)),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{kind:?}: no OpGranted for {want:?}"))
        };
        (
            of(&EncOp::Insert("k".into())),
            of(&EncOp::Search("k".into())),
        )
    };

    let ((insert_seq, insert_hit), (search_seq, search_hit)) = granted(CcKind::Optimistic);
    assert!(
        insert_hit,
        "the deferred insert installs at the commit point"
    );
    assert!(
        !search_hit,
        "the search saw committed state, not the buffer"
    );
    assert!(
        search_seq < insert_seq,
        "the search executed before the deferred insert: {search_seq} vs {insert_seq}"
    );

    let ((insert_seq, insert_hit), (search_seq, search_hit)) = granted(CcKind::Pessimistic);
    assert!(
        insert_hit && search_hit,
        "in place, the search hits the insert"
    );
    assert!(insert_seq < search_seq);
}

/// An undersized ring drops the newest events (counted, never blocking
/// the workers) and still drains to a seq-sorted, exportable log.
#[test]
fn ring_overflow_drops_newest_and_stays_consistent() {
    let out = oodb_engine::run_workload(
        &cfg(
            2,
            1,
            TraceMode::Ring {
                capacity_per_lane: 8,
            },
        ),
        CcKind::Pessimistic,
        &contended_workload(23),
    );
    let log = out.trace.expect("ring sink captured a trace");
    assert!(log.dropped > 0, "8 slots per lane cannot hold this run");
    assert!(
        log.events.windows(2).all(|w| w[0].seq <= w[1].seq),
        "drained events are seq-sorted"
    );
    assert!(validate_jsonl(&to_jsonl(&log)));
    assert!(validate_json(&to_chrome_trace(&log)));
}

/// Both exporters emit valid JSON for a real multi-worker run, and the
/// disabled default keeps `EngineOutput::trace` empty.
#[test]
fn exporters_emit_valid_json_and_tracing_is_opt_in() {
    let w = contended_workload(29);
    let off = oodb_engine::run_workload(&cfg(2, 2, TraceMode::Off), CcKind::Optimistic, &w);
    assert!(off.trace.is_none(), "tracing must be opt-in");

    let out = oodb_engine::run_workload(&cfg(2, 2, TraceMode::ring()), CcKind::Optimistic, &w);
    let log = out.trace.expect("ring sink captured a trace");
    let jsonl = to_jsonl(&log);
    assert!(
        validate_jsonl(&jsonl),
        "JSONL exporter emits valid JSON lines"
    );
    assert_eq!(jsonl.lines().count(), log.events.len());
    let chrome = to_chrome_trace(&log);
    assert!(
        validate_json(&chrome),
        "chrome exporter emits one valid JSON document"
    );
    assert!(chrome.contains("\"traceEvents\""));
}
