//! Tests of the tracing subsystem: deterministic canonical export,
//! trace-vs-audit dependency-graph agreement across every
//! concurrency-control strategy, ring overflow behavior, exporter and
//! metrics JSON validity, and the trace analyzer's rules
//! (`common::analyze`) on hand-built traces.

mod common;

use common::analyze::{cross_check, reconstruct_graph};
use common::json::{validate_json, validate_jsonl};
use oodb_core::ids::TxnIdx;
use oodb_engine::trace::export::{to_chrome_trace, to_jsonl, to_jsonl_canonical};
use oodb_engine::trace::{AbortReason, TXN_NONE, WORKER_EXTERNAL};
use oodb_engine::{
    shard_of_key, CcKind, ConcurrencyControl, DurabilityMode, EngineConfig, EngineShared,
    LockingCc, OpGrant, ShardRoute, TraceEvent, TraceEventKind, TraceLog, TraceMode, TxnHandle,
    STRIPES,
};
use oodb_sim::{encyclopedia_workload, EncMix, EncOp, EncWorkload, EncWorkloadConfig, Skew};

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

/// The disjoint-key workload: transaction `i` inserts and updates two
/// keys of its own. Its keys outgrow a leaf at the default fanout, so
/// leaves split mid-run.
fn disjoint_key_workload(txns: usize) -> EncWorkload {
    let txn_ops = (0..txns)
        .map(|i| {
            let (a, b) = (format!("t{i:04}a"), format!("t{i:04}b"));
            vec![
                EncOp::Insert(a.clone()),
                EncOp::Change(a),
                EncOp::Insert(b.clone()),
                EncOp::Change(b),
            ]
        })
        .collect();
    EncWorkload {
        preload_keys: Vec::new(),
        txn_ops,
    }
}

/// The dependency graph reconstructed from trace events alone matches
/// the shutdown audit's committed projection edge-for-edge — for every
/// strategy, sharded and unsharded, and for a splitting run: 96
/// disjoint-key transactions on 8 workers, optimistic, 4 lanes, at the
/// default fanout. The default ring holds every run whole.
#[test]
fn trace_graph_matches_audit_for_every_strategy() {
    let contended = contended_workload(17);
    let mut runs = Vec::new();
    for kind in [
        CcKind::Pessimistic,
        CcKind::PessimisticPage,
        CcKind::Optimistic,
    ] {
        for shards in [1usize, 4] {
            let config = cfg(3, shards, TraceMode::ring());
            runs.push((
                format!("{kind:?} x {shards} shards"),
                config,
                kind,
                &contended,
            ));
        }
    }
    let disjoint = disjoint_key_workload(96);
    let splitting = EngineConfig {
        seed: 42,
        ..cfg(8, 4, TraceMode::ring())
    };
    runs.push((
        "optimistic x4 disjoint keys, splitting".into(),
        splitting,
        CcKind::Optimistic,
        &disjoint,
    ));

    let mut total_matched = 0usize;
    for (label, config, kind, workload) in runs {
        let out = oodb_engine::run_workload(&config, kind, workload);
        let log = out.trace.expect("ring sink captured a trace");
        assert_eq!(
            log.dropped, 0,
            "{label}: default ring capacity holds the run"
        );
        let audit = out.audit.expect("audit enabled by default");
        let check = cross_check(&log.events, &audit);
        assert!(
            check.ok(),
            "{label}: trace/audit graphs diverge: {check}\n  trace: {}\n  audit: {}",
            check.trace,
            check.audit
        );
        total_matched += check.matched;
    }
    assert!(
        total_matched > 0,
        "a contended workload must produce at least one dependency edge"
    );
}

/// The optimistic control on the disjoint-key workload at 1 and at 8
/// metric lanes — one certifier at both, so what must hold is the same
/// on both: every transaction commits and both audits are clean; no
/// certification expands a node (a deferred-write candidate installs
/// last, so it owns no out-edge); and the cut keeps what a commit is
/// checked against (the `component` of its `CertAttempt`) near the
/// in-flight window, well under the record.
#[test]
fn disjoint_keys_certify_against_a_bounded_cut_at_any_lane_count() {
    const TXNS: usize = 384;
    let workload = disjoint_key_workload(TXNS);
    for shards in [1, 8] {
        let config = EngineConfig {
            seed: 42,
            ..cfg(8, shards, TraceMode::ring())
        };
        let out = oodb_engine::run_workload(&config, CcKind::Optimistic, &workload);
        let label = format!("{shards} lanes");
        assert_eq!(out.metrics.committed, TXNS as u64, "{label}");
        assert_eq!(out.metrics.cert_check_visited, 0, "{label}");
        let audit = out.audit.as_ref().expect("audit enabled by default");
        assert!(audit.report.oo_decentralized.is_ok(), "{label}");
        assert!(audit.report.oo_global.is_ok(), "{label}");
        let log = out.trace.as_ref().expect("ring sink captured a trace");
        let largest = log
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::CertAttempt { component, .. } => Some(component),
                _ => None,
            })
            .max()
            .expect("every commit is certified");
        assert!(
            largest <= TXNS / 2,
            "{label}: the cut must keep the retained set near the in-flight \
             window, got {largest} of {TXNS} transactions"
        );
    }
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
    use oodb_engine::Engine;
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

/// A `Conflict` event names the grant that conflicts. T1 holds
/// `search(k024)` and then an insert, and T2 is granted `search(k051)`,
/// all on lock stripe 0: two searches never page-conflict, so T2's one
/// event names T1's insert, and T1, alone on the stripe, has none.
#[test]
fn a_conflict_names_the_grant_that_conflicts() {
    let on_stripe_0 = |k: &str| shard_of_key(k, STRIPES) == 0;
    assert!(on_stripe_0("k024") && on_stripe_0("k051"));
    let inserted = (0..1000)
        .map(|i| format!("k{i:03}"))
        .find(|k| on_stripe_0(k) && k != "k024" && k != "k051")
        .expect("a third key on stripe 0");
    let cc = LockingCc::semantic();
    let shared = EngineShared::new(&cfg(1, 1, TraceMode::ring()), &cc);
    let (t1, t2) = (
        TxnHandle::new(1, 0, TxnIdx(1)),
        TxnHandle::new(2, 0, TxnIdx(2)),
    );
    for (txn, op) in [
        (&t1, EncOp::Search("k024".into())),
        (&t1, EncOp::Insert(inserted.clone())),
        (&t2, EncOp::Search("k051".into())),
    ] {
        assert_eq!(cc.before_op(&shared, txn, &op), OpGrant::Granted);
    }
    cc.after_commit(&shared, &t1);
    cc.after_commit(&shared, &t2);
    let conflicts: Vec<_> = shared
        .trace
        .drain()
        .expect("tracing on")
        .events
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Conflict {
                with,
                ours,
                theirs,
                inherited,
            } => Some((e.txn, with, ours, theirs, inherited)),
            _ => None,
        })
        .collect();
    assert_eq!(
        conflicts,
        vec![(
            2,
            1,
            "search(k051)".to_string(),
            format!("insert({inserted})"),
            false
        )]
    );
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

/// Both exporters and the metrics snapshot emit valid JSON for a real
/// run on two workers and two metric lanes with group commit (so WAL
/// events, the per-lane array and the group-size buckets all appear),
/// and the disabled default keeps `EngineOutput::trace` empty.
#[test]
fn exporters_emit_valid_json_and_tracing_is_opt_in() {
    let w = contended_workload(29);
    let off = oodb_engine::run_workload(&cfg(2, 2, TraceMode::Off), CcKind::Optimistic, &w);
    assert!(off.trace.is_none(), "tracing must be opt-in");

    let config = EngineConfig {
        durability: DurabilityMode::Group {
            max_batch: 4,
            max_wait: std::time::Duration::from_micros(200),
        },
        ..cfg(2, 2, TraceMode::ring())
    };
    let out = oodb_engine::run_workload(&config, CcKind::Optimistic, &w);
    let log = out.trace.expect("ring sink captured a trace");
    let jsonl = to_jsonl(&log);
    assert!(
        validate_jsonl(&jsonl),
        "JSONL exporter emits valid JSON lines"
    );
    assert_eq!(jsonl.lines().count(), log.events.len());
    assert!(jsonl.contains("\"kind\":\"group_flush\""));
    let chrome = to_chrome_trace(&log);
    assert!(
        validate_json(&chrome),
        "chrome exporter emits one valid JSON document"
    );
    assert!(chrome.contains("\"traceEvents\""));
    let metrics = out.metrics.to_json();
    assert!(!metrics.contains("\"wal_group_buckets\":[]"), "{metrics}");
    assert!(validate_json(&metrics), "bad metrics json: {metrics}");
}

// The exporters on a hand-built log.

fn log() -> TraceLog {
    let mk = |seq, kind| TraceEvent {
        seq,
        t_ns: seq * 1500,
        job: 0,
        attempt: 0,
        txn: 1,
        worker: 0,
        kind,
    };
    TraceLog {
        events: vec![
            mk(0, TraceEventKind::AttemptBegin { ops: 2 }),
            mk(
                1,
                TraceEventKind::OpGranted {
                    op: EncOp::Insert("k\"1".into()),
                    shard: ShardRoute::One(0),
                    wait_ns: 42,
                    hit: true,
                },
            ),
            mk(
                2,
                TraceEventKind::Conflict {
                    with: 2,
                    ours: "insert(k1)".into(),
                    theirs: "delete(k1)".into(),
                    inherited: true,
                },
            ),
            mk(
                3,
                TraceEventKind::Aborted {
                    reason: AbortReason::Victim,
                    last: false,
                },
            ),
        ],
        dropped: 1,
    }
}

#[test]
fn jsonl_lines_are_valid_json() {
    let s = to_jsonl(&log());
    assert_eq!(s.lines().count(), 4);
    assert!(validate_jsonl(&s), "invalid jsonl: {s}");
    assert!(s.contains("\"kind\":\"conflict\""));
    assert!(s.contains("\"inherited\":true"));
    // The quote in the key is escaped.
    assert!(s.contains("insert(k\\\"1)"));
}

#[test]
fn canonical_jsonl_omits_timing_and_admission_events() {
    let mut l = log();
    l.events.insert(
        0,
        TraceEvent {
            seq: 0,
            t_ns: 7,
            job: 5,
            attempt: 0,
            txn: TXN_NONE,
            worker: WORKER_EXTERNAL,
            kind: TraceEventKind::JobAdmitted { depth: 1 },
        },
    );
    let s = to_jsonl_canonical(&l);
    assert!(!s.contains("t_ns"));
    assert!(!s.contains("wait_ns"));
    assert!(!s.contains("job_admitted"), "admission events are racy");
    assert_eq!(s.lines().count(), 4, "renumbered over the remainder");
    assert!(s.starts_with("{\"seq\":0,"), "seq renumbered densely");
    assert!(validate_jsonl(&s));
}

#[test]
fn chrome_trace_is_valid_json_with_slices() {
    let s = to_chrome_trace(&log());
    assert!(validate_json(&s), "invalid chrome trace: {s}");
    assert!(s.contains("\"ph\":\"X\""));
    assert!(s.contains("\"ph\":\"i\""));
    assert!(s.contains("\"dropped\":1"));
}

#[test]
fn deadlock_victim_carries_its_cycle_in_both_exports() {
    let mut l = log();
    l.events[2].kind = TraceEventKind::DeadlockVictim {
        victim_job: 5,
        cycle_jobs: vec![0, 5, 3],
    };
    let s = to_jsonl(&l);
    assert!(validate_jsonl(&s), "invalid jsonl: {s}");
    assert!(s.contains("\"kind\":\"deadlock_victim\""));
    assert!(s.contains("\"victim_job\":5,\"cycle_jobs\":[0,5,3]"));
    let chrome = to_chrome_trace(&l);
    assert!(validate_json(&chrome), "invalid chrome trace: {chrome}");
    assert!(chrome.contains("\"cycle_jobs\":[0,5,3]"));
}

#[test]
fn validator_rejects_garbage() {
    assert!(!validate_json("{\"a\":}"));
    assert!(!validate_json("{"));
    assert!(!validate_json("[1,2,"));
    assert!(!validate_json("[-]"), "a lone minus is not a number");
    assert!(!validate_json("{\"a\":-}"));
    assert!(validate_json(" {\"a\": [1, -2.5e3, true, null, \"x\"]} "));
}

// The analyzer's rules on hand-built traces.

fn op(seq: u64, job: u64, op: EncOp) -> TraceEvent {
    // writers in these fixtures succeeded unless stated otherwise
    let hit = matches!(
        op,
        EncOp::Insert(_) | EncOp::Change(_) | EncOp::Delete(_) | EncOp::ReadSeq
    );
    op_with(seq, job, op, hit)
}

fn op_with(seq: u64, job: u64, op: EncOp, hit: bool) -> TraceEvent {
    TraceEvent {
        seq,
        t_ns: 0,
        job,
        attempt: 0,
        txn: TXN_NONE,
        worker: 0,
        kind: TraceEventKind::OpGranted {
            op,
            shard: ShardRoute::One(0),
            wait_ns: 0,
            hit,
        },
    }
}

fn comp(seq: u64, job: u64, op: EncOp) -> TraceEvent {
    TraceEvent {
        seq,
        t_ns: 0,
        job,
        attempt: 0,
        txn: TXN_NONE,
        worker: 0,
        kind: TraceEventKind::CompensationOp { op, hit: true },
    }
}

fn committed(seq: u64, job: u64) -> TraceEvent {
    TraceEvent {
        seq,
        t_ns: 0,
        job,
        attempt: 0,
        txn: TXN_NONE,
        worker: 0,
        kind: TraceEventKind::Committed,
    }
}

#[test]
fn conflicting_ops_make_an_edge_in_seq_order() {
    let events = vec![
        op(0, 0, EncOp::Insert("k".into())),
        op(1, 1, EncOp::Delete("k".into())),
        committed(2, 0),
        committed(3, 1),
    ];
    let g = reconstruct_graph(&events);
    assert_eq!(g.nodes.len(), 2);
    assert_eq!(
        g.edges.iter().cloned().collect::<Vec<_>>(),
        vec![("J1".into(), "J2".into())]
    );
}

#[test]
fn commuting_and_uncommitted_ops_make_no_edge() {
    let events = vec![
        // disjoint keys commute
        op(0, 0, EncOp::Insert("a".into())),
        op(1, 1, EncOp::Delete("b".into())),
        // job 2 conflicts with job 0 but never commits
        op(2, 2, EncOp::Delete("a".into())),
        committed(3, 0),
        committed(4, 1),
    ];
    let g = reconstruct_graph(&events);
    assert_eq!(g.nodes.len(), 2);
    assert!(g.edges.is_empty(), "unexpected edges: {g}");
}

#[test]
fn probes_and_readers_commute() {
    let events = vec![
        // both searches miss: index probes of the same key commute
        op_with(0, 0, EncOp::Search("k".into()), false),
        op_with(1, 1, EncOp::Search("k".into()), false),
        op(2, 2, EncOp::ReadSeq),
        op(3, 2, EncOp::Insert("z".into())),
        committed(4, 0),
        committed(5, 1),
        committed(6, 2),
    ];
    let g = reconstruct_graph(&events);
    assert!(g.edges.is_empty(), "unexpected edges: {g}");
}

#[test]
fn failed_writes_conflict_like_probes() {
    let events = vec![
        // both deletes miss: two index probes of the same key commute
        op_with(0, 0, EncOp::Delete("k".into()), false),
        op_with(1, 1, EncOp::Delete("k".into()), false),
        committed(2, 0),
        committed(3, 1),
    ];
    let g = reconstruct_graph(&events);
    assert!(g.edges.is_empty(), "unexpected edges: {g}");

    let events = vec![
        // a failed insert still READS the index entry the delete
        // removes
        op_with(0, 0, EncOp::Insert("k".into()), false),
        op(1, 1, EncOp::Delete("k".into())),
        committed(2, 0),
        committed(3, 1),
    ];
    let g = reconstruct_graph(&events);
    assert_eq!(
        g.edges.iter().cloned().collect::<Vec<_>>(),
        vec![("J1".into(), "J2".into())]
    );
}

#[test]
fn update_depends_only_on_probes_of_nothing() {
    // an update writes only the item text; a probe that stopped at
    // the index does not depend on it
    let events = vec![
        op(0, 9, EncOp::Insert("k".into())),
        op_with(1, 0, EncOp::Insert("k".into()), false), // duplicate: probe
        op(2, 1, EncOp::Change("k".into())),
        committed(3, 9),
        committed(4, 0),
        committed(5, 1),
    ];
    let g = reconstruct_graph(&events);
    assert!(
        !g.edges.contains(&("J1".into(), "J2".into())),
        "probe vs item update must not depend: {g}"
    );
    // ...but both depend on the index writer that created the key
    assert!(g.edges.contains(&("J10".into(), "J1".into())));
    assert!(g.edges.contains(&("J10".into(), "J2".into())));
}

#[test]
fn item_generations_separate_updates_across_reincarnation() {
    let events = vec![
        op(0, 0, EncOp::Insert("k".into())), // creates generation 1
        op(1, 1, EncOp::Change("k".into())), // writes generation 1
        op(2, 2, EncOp::Delete("k".into())), // kills generation 1
        op(3, 2, EncOp::Insert("k".into())), // creates generation 2
        op(4, 3, EncOp::Change("k".into())), // writes generation 2
        committed(5, 0),
        committed(6, 1),
        committed(7, 2),
        committed(8, 3),
    ];
    let g = reconstruct_graph(&events);
    // updates of different incarnations touch different items, and
    // neither touches the index beyond a read
    assert!(
        !g.edges.contains(&("J2".into(), "J4".into())),
        "cross-generation updates must not depend: {g}"
    );
    // every op still orders against the index writers
    for e in [
        ("J1", "J2"),
        ("J1", "J3"),
        ("J1", "J4"),
        ("J2", "J3"),
        ("J3", "J4"),
    ] {
        assert!(
            g.edges.contains(&(e.0.into(), e.1.into())),
            "missing {e:?}: {g}"
        );
    }
}

#[test]
fn compensation_revives_membership_for_scans() {
    // an aborted delete is compensated by a re-insert; a later scan
    // reads the *compensated* item, so an update after the scan
    // depends on it
    let events = vec![
        op(0, 9, EncOp::Insert("k".into())),   // generation 1
        op(1, 5, EncOp::Delete("k".into())),   // aborted attempt
        comp(2, 5, EncOp::Insert("k".into())), // revives as generation 2
        op(3, 0, EncOp::ReadSeq),              // reads generation 2
        op(4, 1, EncOp::Change("k".into())),   // writes generation 2
        committed(5, 9),
        committed(6, 0),
        committed(7, 1),
    ];
    let g = reconstruct_graph(&events);
    assert!(
        g.edges.contains(&("J1".into(), "J2".into())),
        "scan must depend on the compensated item's updater: {g}"
    );
    assert!(
        !g.nodes.contains("J6"),
        "aborted attempts contribute no nodes: {g}"
    );
}

#[test]
fn write_then_scan_orders_the_scanner_after() {
    let events = vec![
        op(0, 0, EncOp::Insert("k".into())),
        op(1, 1, EncOp::ReadSeq),
        committed(2, 0),
        committed(3, 1),
    ];
    let g = reconstruct_graph(&events);
    assert_eq!(
        g.edges.iter().cloned().collect::<Vec<_>>(),
        vec![("J1".into(), "J2".into())]
    );
}

#[test]
fn range_scan_conflicts_with_in_range_index_writers_only() {
    let events = vec![
        op(0, 0, EncOp::Insert("c".into())),
        op_with(1, 1, EncOp::Range("a".into(), "m".into()), true),
        op(2, 2, EncOp::Insert("d".into())), // phantom inside [a,m]
        op(3, 3, EncOp::Insert("z".into())), // outside
        op(4, 4, EncOp::Change("c".into())), // writes the scanned item
        committed(5, 0),
        committed(6, 1),
        committed(7, 2),
        committed(8, 3),
        committed(9, 4),
    ];
    let g = reconstruct_graph(&events);
    assert!(g.edges.contains(&("J1".into(), "J2".into())), "{g}");
    assert!(g.edges.contains(&("J2".into(), "J3".into())), "{g}");
    assert!(
        !g.edges.contains(&("J2".into(), "J4".into()))
            && !g.edges.contains(&("J4".into(), "J2".into())),
        "out-of-range insert commutes with the scan: {g}"
    );
    assert!(
        g.edges.contains(&("J2".into(), "J5".into())),
        "update of a scanned item depends on the scan: {g}"
    );
}
