//! Quantitative experiments B1, B4, B5, B8–B11, B14 and B16 (see
//! DESIGN.md §4).
//!
//! Every function returns a rendered table plus, where benches reuse the
//! computation, the raw series. Absolute numbers are counts, rates or
//! wall-clock times of engine runs; the paper's claims are about *shape*
//! (who wins, where the gap opens), which EXPERIMENTS.md records.

use crate::table::{f3, Table};
use oodb_engine::{AuditOutput, CcKind, EngineConfig};
use oodb_sim::{
    acceptance_rates, conflict_rates, encyclopedia_workload, AcceptanceConfig, EncMix, EncWorkload,
    EncWorkloadConfig, Skew,
};
use std::time::Instant;

/// The audited record of a one-worker strict-2PL engine run of `w`
/// under `cfg` (its worker count aside), and how many leading
/// transactions of it are the preload. One worker runs the transactions
/// one after another: the record is deterministic, and no attempt is
/// ever retried, so neither an aborted attempt nor a compensation can
/// count as a measured transaction.
pub fn engine_record(cfg: &EngineConfig, w: &EncWorkload) -> (AuditOutput, usize) {
    let cfg = EngineConfig {
        workers: 1,
        audit: true,
        ..cfg.clone()
    };
    let out = oodb_engine::run_workload(&cfg, CcKind::Pessimistic, w);
    assert_eq!(out.metrics.retries, 0, "one worker never retries");
    assert_eq!(out.metrics.committed as usize, w.txn_ops.len());
    let audit = out.audit.expect("audit enabled");
    (audit, usize::from(!w.preload_keys.is_empty()))
}

/// **B1** — conflict rates, conventional vs oo, sweeping keys-per-page
/// (tree fanout) and key skew. The paper's §2 argument: "every node …
/// contains many keys (rough up to 500). Operations on these keys will
/// often conflict at the page level but commute at the node level."
pub fn b1() -> String {
    let mut t = Table::new(&[
        "fanout",
        "skew",
        "prim-conflict-rate",
        "conv-ordered-pairs",
        "oo-ordered-pairs",
        "conv-rate",
        "oo-rate",
        "gain",
    ]);
    for &fanout in &[4usize, 16, 64, 128] {
        for skew in [Skew::Uniform, Skew::Zipf(1.0)] {
            let cfg = EncWorkloadConfig {
                txns: 10,
                ops_per_txn: 6,
                key_space: 512,
                preload: 128,
                mix: EncMix::insert_only(),
                skew,
                seed: 21,
            };
            let ecfg = EngineConfig {
                fanout,
                ..EngineConfig::default()
            };
            let (rec, setup) = engine_record(&ecfg, &encyclopedia_workload(&cfg));
            let r = conflict_rates(&rec.ts, &rec.history, setup);
            let (conv, oo) = (r.conventional_ordered_pairs, r.oo_ordered_pairs);
            t.row(vec![
                fanout.to_string(),
                format!("{skew:?}"),
                f3(r.primitive_conflict_rate()),
                conv.to_string(),
                oo.to_string(),
                f3(r.conventional_rate()),
                f3(r.oo_rate()),
                if conv > 0 {
                    format!("{:.1}x", conv as f64 / (oo.max(1)) as f64)
                } else {
                    "-".into()
                },
            ]);
        }
    }
    format!(
        "B1 — rate of conflicting accesses: conventional vs oo-serializability\n\
         (insert-only encyclopedia workload, 10 txns x 6 ops, recorded by\n\
         one-worker strict-2PL engine runs)\n\n{}",
        t.render()
    )
}

/// **B4** — overhead ablation: wall-clock cost of dependency inference
/// per recorded action, as histories grow.
pub fn b4() -> String {
    let mut t = Table::new(&[
        "txns",
        "actions",
        "primitives",
        "infer-total-ms",
        "infer-us/action",
    ]);
    for &txns in &[4usize, 8, 16, 32] {
        let cfg = EncWorkloadConfig {
            txns,
            ops_per_txn: 8,
            key_space: 512,
            preload: 128,
            mix: EncMix::update_heavy(),
            ..Default::default()
        };
        let ecfg = EngineConfig {
            fanout: 16,
            ..EngineConfig::default()
        };
        let (rec, _) = engine_record(&ecfg, &encyclopedia_workload(&cfg));
        let actions = rec.ts.action_count();
        let start = Instant::now();
        let iters = 5;
        for _ in 0..iters {
            let ss = oodb_core::schedule::SystemSchedules::infer(&rec.ts, &rec.history);
            std::hint::black_box(ss.trace().len());
        }
        let total = start.elapsed().as_secs_f64() * 1000.0 / iters as f64;
        t.row(vec![
            txns.to_string(),
            actions.to_string(),
            rec.history.len().to_string(),
            format!("{total:.2}"),
            format!("{:.2}", total * 1000.0 / actions as f64),
        ]);
    }
    format!(
        "B4 — cost of dependency tracking: SystemSchedules::infer on\n\
         the records of one-worker strict-2PL engine runs (mean of 5 runs)\n\n{}",
        t.render()
    )
}

/// **B5** — schedule-acceptance rates: what fraction of random
/// (operation-atomic) interleavings each definition accepts, sweeping
/// same-key contention, plus the no-semantics ablation.
pub fn b5() -> String {
    let mut t = Table::new(&[
        "keys/leaf",
        "samples",
        "conventional",
        "oo (paper)",
        "oo (global)",
        "oo (no semantics)",
        "inclusion-violations",
    ]);
    for &keys in &[1usize, 2, 4, 16] {
        let cfg = AcceptanceConfig {
            txns: 3,
            ops_per_txn: 2,
            leaves: 2,
            keys_per_leaf: keys,
            pages_per_leaf: 1,
            search_fraction: 0.25,
            seed: 13,
        };
        let samples = 400;
        let r = acceptance_rates(&cfg, samples, 2);
        t.row(vec![
            keys.to_string(),
            samples.to_string(),
            format!(
                "{} ({})",
                r.conventional,
                f3(r.conventional as f64 / samples as f64)
            ),
            format!("{} ({})", r.oo, f3(r.oo as f64 / samples as f64)),
            format!(
                "{} ({})",
                r.oo_global,
                f3(r.oo_global as f64 / samples as f64)
            ),
            format!(
                "{} ({})",
                r.oo_no_semantics,
                f3(r.oo_no_semantics as f64 / samples as f64)
            ),
            r.inclusion_violations.to_string(),
        ]);
    }
    format!(
        "B5 — acceptance rates over random operation-atomic interleavings\n\
         (3 txns x 2 keyed ops on 2 leaves / 1 page each; fewer keys per\n\
         leaf = more same-key conflicts = smaller semantic gain)\n\n{}",
        t.render()
    )
}

/// The columns of [`engine_rows`].
const ENGINE_COLUMNS: [&str; 8] = [
    "executor",
    "workers",
    "committed",
    "retries",
    "throughput/s",
    "e2e-p50-us",
    "e2e-p99-us",
    "oo-serializable",
];

/// The engine configuration of [`engine_rows`] at `workers` workers.
fn rows_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 32,
        seed: 31,
        ..EngineConfig::default()
    }
}

/// One audited engine run of `w` per worker count and control, rendered
/// as [`ENGINE_COLUMNS`] rows — B9's table and B8's protocol rows.
fn engine_rows(w: &EncWorkload, workers: &[usize], kinds: &[CcKind]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for &workers in workers {
        for &kind in kinds {
            let out = oodb_engine::run_workload(&rows_config(workers), kind, w);
            let audit = out.audit.as_ref().expect("audit enabled");
            rows.push(vec![
                format!("engine/{}", out.cc_name),
                workers.to_string(),
                out.metrics.committed.to_string(),
                out.metrics.retries.to_string(),
                f3(out.metrics.throughput_per_sec),
                out.metrics.e2e_p50.as_micros().to_string(),
                out.metrics.e2e_p99.as_micros().to_string(),
                audit.report.oo_decentralized.is_ok().to_string(),
            ]);
        }
    }
    rows
}

/// **B8** — range queries vs concurrent inserts: the phantom problem
/// (§1's anomaly list) handled semantically. Interval-precise
/// `rangeScan` locks admit every out-of-range insert; the page-level
/// ablation read-locks the whole container for a scan. The protocol rows
/// run the workload through the engine under semantic and page-level
/// strict 2PL, audited; the ordered-pair columns come from the record of
/// a one-worker run at the rows' configuration.
pub fn b8() -> String {
    let mut header = vec!["txns"];
    header.extend(ENGINE_COLUMNS);
    header.extend(["conv-ordered-pairs", "oo-ordered-pairs"]);
    let mut t = Table::new(&header);
    for &txns in &[8usize, 24] {
        let wcfg = EncWorkloadConfig {
            txns,
            ops_per_txn: 5,
            key_space: 512,
            preload: 256,
            mix: EncMix::range_heavy(),
            skew: Skew::Uniform,
            seed: 23,
        };
        let w = encyclopedia_workload(&wcfg);
        let (rec, setup) = engine_record(&rows_config(1), &w);
        let rates = conflict_rates(&rec.ts, &rec.history, setup);
        let kinds = [CcKind::Pessimistic, CcKind::PessimisticPage];
        for row in engine_rows(&w, &[4], &kinds) {
            let mut cells = vec![txns.to_string()];
            cells.extend(row);
            cells.push(rates.conventional_ordered_pairs.to_string());
            cells.push(rates.oo_ordered_pairs.to_string());
            t.row(cells);
        }
    }
    format!(
        "B8 — range scans vs inserts (phantom handling): interval-precise\n\
         semantic locks vs page-level locks on the engine (ranges ~1/16 of\n\
         the key space; every run audited); ordered-pair columns from a\n\
         one-worker run of the same workload and configuration\n\n{}",
        t.render()
    )
}

/// **B9** — the worker-pool engine: semantic vs page-level locking vs
/// optimistic certification, across worker counts. The operational
/// trade-offs of the paper's protocol in one table: semantic locking
/// retries only on true semantic conflicts,
/// the page-level ablation serializes the hot key space, and optimistic
/// certification trades lock waits for validation work and commit
/// dependencies. Every run is audited for oo-serializability.
pub fn b9() -> String {
    let w = encyclopedia_workload(&EncWorkloadConfig {
        txns: 24,
        ops_per_txn: 4,
        key_space: 24,
        preload: 12,
        mix: EncMix::update_heavy(),
        skew: Skew::Zipf(0.8),
        seed: 31,
    });
    let kinds = [
        CcKind::Pessimistic,
        CcKind::PessimisticPage,
        CcKind::Optimistic,
    ];
    let mut t = Table::new(&ENGINE_COLUMNS);
    for row in engine_rows(&w, &[2, 4, 8], &kinds) {
        t.row(row);
    }
    format!(
        "B9 — worker-pool engine: semantic vs page-level 2PL vs optimistic\n\
         certification, across worker counts\n\
         (one contended update-heavy workload; every run audited)\n\n{}",
        t.render()
    )
}

/// The B10 disjoint-key workload: transaction `i` touches only its own
/// two keys (insert + update each), so the concurrency control is the
/// only shared bottleneck the protocol itself can decentralize.
pub fn b10_workload(txns: usize) -> (Vec<String>, Vec<Vec<oodb_sim::EncOp>>) {
    use oodb_sim::EncOp;
    let mut ops = Vec::with_capacity(txns);
    for i in 0..txns {
        let a = format!("t{i:04}a");
        let b = format!("t{i:04}b");
        ops.push(vec![
            EncOp::Insert(a.clone()),
            EncOp::Change(a),
            EncOp::Insert(b.clone()),
            EncOp::Change(b),
        ]);
    }
    (Vec::new(), ops)
}

/// One audited run of the B10 disjoint-key workload on 8 workers.
fn b10_engine_run(
    kind: CcKind,
    shards: usize,
    txns: usize,
    trace: oodb_engine::TraceMode,
) -> oodb_engine::EngineOutput {
    let (preload, txn_ops) = b10_workload(txns);
    let cfg = EngineConfig {
        workers: 8,
        queue_capacity: 64,
        shards,
        seed: 42,
        trace,
        ..EngineConfig::default()
    };
    let engine = oodb_engine::Engine::start(cfg, kind);
    engine.preload(&preload);
    for ops in txn_ops {
        engine
            .submit_blocking(ops)
            .expect("engine accepts work until shutdown");
    }
    engine.shutdown()
}

/// One audited B10 run; returns the engine output for the scaling table.
pub fn b10_run(kind: CcKind, shards: usize, txns: usize) -> oodb_engine::EngineOutput {
    b10_engine_run(kind, shards, txns, oodb_engine::TraceMode::Off)
}

/// **B10** — metric-lane accounting: committed-transaction throughput at
/// 1, 2, 4 and 8 lanes (`shards`), both protocols, on a low-contention
/// disjoint-key workload. The optimistic strategy keeps one certifier at
/// every shard count (shards only feed its metric lanes), and its
/// candidate-rooted Definition-16 search follows the candidate's edges
/// over the few transactions the cut retains, so the optimistic rows sit
/// level by construction. Strict 2PL keeps its one striped lock table at
/// every shard count too, so its rows differ only in the metric lanes.
/// Every run is audited (committed projection, Definition 16).
pub fn b10() -> String {
    const TXNS: usize = 120;
    let mut t = Table::new(&[
        "cc",
        "shards",
        "committed",
        "retries",
        "cross-shard",
        "throughput/s",
        "speedup",
        "oo-serializable",
    ]);
    for kind in [CcKind::Pessimistic, CcKind::Optimistic] {
        let mut base = None;
        for &shards in &[1usize, 2, 4, 8] {
            let out = b10_run(kind, shards, TXNS);
            let audit = out.audit.as_ref().expect("audit enabled");
            let tput = out.metrics.throughput_per_sec;
            let base_tput = *base.get_or_insert(tput);
            t.row(vec![
                out.cc_name.to_string(),
                shards.to_string(),
                out.metrics.committed.to_string(),
                out.metrics.retries.to_string(),
                out.metrics.cross_shard.to_string(),
                f3(tput),
                format!("{:.2}x", tput / base_tput.max(1e-9)),
                audit.report.oo_decentralized.is_ok().to_string(),
            ]);
        }
    }
    format!(
        "B10 — metric-lane accounting at 1–8 lanes: committed-txn\n\
         throughput vs `shards` ({TXNS} disjoint-key transactions,\n\
         8 workers). `shards` selects metric lanes only — one lock table\n\
         and one certifier at every count — so the rows are level by\n\
         construction; speedup is relative to the same protocol at 1 lane;\n\
         every run audited\n\n{}",
        t.render()
    )
}

/// One B11 run of the B10 disjoint-key workload under a given trace
/// mode (4 shards, optimistic certification — the strategy with the
/// most per-event instrumentation).
pub fn b11_run(trace: oodb_engine::TraceMode, txns: usize) -> oodb_engine::EngineOutput {
    b10_engine_run(CcKind::Optimistic, 4, txns, trace)
}

/// **B11** — tracing overhead. Three passes over the B10 disjoint-key
/// workload: trace off (no sink — one branch per would-be event), the
/// per-worker ring sink, and the ring sink plus a full JSONL + Chrome
/// export pass. That the traced run's dependency graph matches the audit
/// is asserted by the engine's trace test, not here. Also emits each
/// pass's `MetricsSnapshot::to_json()` line so runs can be diffed by
/// machine.
pub fn b11() -> String {
    use oodb_engine::trace::export::{to_chrome_trace, to_jsonl};
    use oodb_engine::TraceMode;

    const TXNS: usize = 120;
    let mut t = Table::new(&[
        "trace",
        "committed",
        "throughput/s",
        "vs off",
        "events",
        "dropped",
        "export-ms",
    ]);
    let mut json_lines = Vec::new();

    let off = b11_run(TraceMode::Off, TXNS);
    let base = off.metrics.throughput_per_sec;
    assert!(off.trace.is_none(), "tracing is opt-in");
    t.row(vec![
        "off".into(),
        off.metrics.committed.to_string(),
        f3(base),
        "1.00x".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    json_lines.push(format!("  off:  {}", off.metrics.to_json()));

    for (label, export) in [("ring", false), ("ring+export", true)] {
        let out = b11_run(TraceMode::ring(), TXNS);
        let log = out.trace.as_ref().expect("ring sink captured a trace");
        let export_ms = if export {
            let t0 = std::time::Instant::now();
            let jsonl = to_jsonl(log);
            let chrome = to_chrome_trace(log);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(!jsonl.is_empty() && !chrome.is_empty());
            format!("{ms:.1}")
        } else {
            "-".into()
        };
        let tput = out.metrics.throughput_per_sec;
        t.row(vec![
            label.into(),
            out.metrics.committed.to_string(),
            f3(tput),
            format!("{:.2}x", tput / base.max(1e-9)),
            log.events.len().to_string(),
            log.dropped.to_string(),
            export_ms,
        ]);
        json_lines.push(format!("  {label}: {}", out.metrics.to_json()));
    }

    format!(
        "B11 — tracing overhead on the B10 disjoint-key workload\n\
         ({TXNS} transactions, 8 workers, 4 shards, optimistic; `vs off`\n\
         is throughput relative to the untraced pass)\n\n{}\n\n\
         metrics (machine-readable, one JSON object per pass):\n{}",
        t.render(),
        json_lines.join("\n")
    )
}

/// One B14 run: an uncontended update-heavy workload (so all 8 workers
/// reach their commit points concurrently) under a chosen durability
/// mode, with a simulated 200µs fsync. Uncontended on purpose: B14
/// measures the *device* amortization, so lock conflicts must not
/// serialize the committers first.
pub fn b14_run(mode: oodb_engine::DurabilityMode, txns: usize) -> oodb_engine::EngineOutput {
    let w = encyclopedia_workload(&EncWorkloadConfig {
        txns,
        ops_per_txn: 4,
        key_space: 512,
        preload: 64,
        mix: EncMix::update_heavy(),
        skew: Skew::Uniform,
        seed: 1415,
    });
    let cfg = EngineConfig {
        workers: 8,
        queue_capacity: 64,
        seed: 1415,
        durability: mode,
        fsync_latency: if mode.is_on() {
            std::time::Duration::from_micros(200)
        } else {
            std::time::Duration::ZERO
        },
        ..EngineConfig::default()
    };
    let engine = oodb_engine::Engine::start(cfg, CcKind::Pessimistic);
    engine.preload(&w.preload_keys);
    for ops in &w.txn_ops {
        engine
            .submit_blocking(ops.clone())
            .expect("engine accepts work until shutdown");
    }
    engine.shutdown()
}

/// **B14** — group commit amortizes the fsync. Every commit is
/// acknowledged only once its write-ahead-log commit record is durable;
/// the group(1) baseline forces the device once per logged commit,
/// while under group commit the log flusher lets one fsync cover every
/// commit parked with it — and no worker waits for either. With a 200µs
/// device, fsyncs-per-commit falls as `max_batch` grows (the table shows
/// the ratios; the test pins the counts behind them: a flush of fewer
/// than `max_batch` commits ended on the deadline or the idle rule) —
/// and `off` must stay
/// the exact pre-durability engine (zero WAL work). Every durable run's
/// log is replayed through crash recovery and its committed projection
/// re-audited.
pub fn b14() -> String {
    use oodb_engine::DurabilityMode;

    const TXNS: usize = 96;
    let mut t = Table::new(&[
        "durability",
        "committed",
        "wal-recs",
        "wal-bytes",
        "fsyncs",
        "fsyncs/commit",
        "group-mean",
        "ends f/d/i",
        "parked-peak",
        "throughput/s",
        "recovered",
    ]);
    for mode in [
        DurabilityMode::Off,
        DurabilityMode::Group {
            max_batch: 1,
            max_wait: std::time::Duration::ZERO,
        },
        DurabilityMode::Group {
            max_batch: 4,
            max_wait: std::time::Duration::from_millis(5),
        },
        DurabilityMode::Group {
            max_batch: 16,
            max_wait: std::time::Duration::from_millis(5),
        },
    ] {
        let out = b14_run(mode, TXNS);
        let recovered = match out.wal.as_ref() {
            Some(image) => {
                let r = oodb_engine::recover(image, EngineConfig::default().fanout);
                (r.consistent() && r.final_state == out.final_state).to_string()
            }
            None => "n/a".to_string(),
        };
        let commits = out.metrics.committed.max(1);
        t.row(vec![
            mode.label(),
            out.metrics.committed.to_string(),
            out.metrics.wal_appends.to_string(),
            out.metrics.wal_bytes.to_string(),
            out.metrics.fsyncs.to_string(),
            format!("{:.3}", out.metrics.fsyncs as f64 / commits as f64),
            format!("{:.1}", out.metrics.wal_group_mean),
            format!(
                "{}/{}/{}",
                out.metrics.wal_flush_full,
                out.metrics.wal_flush_deadline,
                out.metrics.wal_flush_idle
            ),
            out.metrics.wal_parked_peak.to_string(),
            f3(out.metrics.throughput_per_sec),
            recovered,
        ]);
    }
    format!(
        "B14 — group commit amortizes the fsync ({TXNS} update-heavy\n\
         uncontended transactions, 8 workers, simulated 200µs fsync;\n\
         acknowledgements park with the log flusher, no worker waits for\n\
         the device; fsyncs/commit is the amortization ratio, group-mean\n\
         the average commits per device flush, ends full/deadline/idle\n\
         what ended each gather; `recovered` replays the run's WAL\n\
         through crash recovery and checks state equality plus the\n\
         committed-projection audit; `off` is the memory-only baseline)\n\
         \n{}",
        t.render()
    )
}

/// One B16 run: a search-only workload over disjoint uniformly-spread
/// keys, with the buffer pool sized well below the working set and a
/// simulated per-miss device latency — so every search pays real
/// (simulated) IO and the only question is whether concurrent readers
/// can overlap it: searches latch only the leaf (inner nodes are read by
/// version) and the miss sleep happens outside every lock.
pub fn b16_run(workers: usize) -> oodb_engine::EngineOutput {
    const KEYS: usize = 1024;
    let w = encyclopedia_workload(&EncWorkloadConfig {
        txns: 48,
        ops_per_txn: 4,
        key_space: KEYS,
        preload: KEYS,
        mix: EncMix {
            insert: 0.0,
            search: 1.0,
            change: 0.0,
            delete: 0.0,
            read_seq: 0.0,
            range: 0.0,
        },
        skew: Skew::Uniform,
        seed: 1617,
    });
    let cfg = EngineConfig {
        workers,
        queue_capacity: 64,
        seed: 1617,
        fanout: 8,
        pool_frames: 64,
        io_latency: std::time::Duration::from_micros(1200),
        ..EngineConfig::default()
    };
    let engine = oodb_engine::Engine::start(cfg, CcKind::Pessimistic);
    engine.preload(&w.preload_keys);
    for ops in &w.txn_ops {
        engine
            .submit_blocking(ops.clone())
            .expect("engine accepts work until shutdown");
    }
    engine.shutdown()
}

/// **B16** — disjoint-key read scaling under the latched encyclopedia.
/// The tentpole claim of the latch-coupling change: read throughput on
/// an IO-bound working set scales with workers, because page-miss
/// latencies overlap instead of queueing behind one lock.
pub fn b16() -> String {
    let mut t = Table::new(&["workers", "committed", "throughput/s", "speedup"]);
    let mut base = None;
    for workers in [1usize, 2, 4, 8] {
        let out = b16_run(workers);
        let tput = out.metrics.throughput_per_sec;
        let base = *base.get_or_insert(tput);
        t.row(vec![
            workers.to_string(),
            out.metrics.committed.to_string(),
            f3(tput),
            format!("{:.2}x", tput / base.max(f64::MIN_POSITIVE)),
        ]);
    }
    format!(
        "B16 — disjoint-key read scaling under latched execution\n\
         (48 search-only transactions over 1024 preloaded keys, fanout 8,\n\
         64-frame buffer pool, simulated 1.2ms page-miss IO; speedup is\n\
         relative to 1 worker; page-miss IO overlaps across workers)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's body rows, split into cells.
    fn rows(s: &str) -> Vec<Vec<&str>> {
        s.lines()
            .skip_while(|l| !l.starts_with('-'))
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split_whitespace().collect())
            .collect()
    }

    /// The paper's claim, row by row: on every fanout and skew the
    /// conventional definition orders strictly more transaction pairs
    /// than oo-serializability.
    #[test]
    fn b1_table_is_complete_and_shows_gain() {
        let s = b1();
        let rows = rows(&s);
        assert_eq!(rows.len(), 8, "4 fanouts x 2 skews: {s}");
        for r in &rows {
            let conv: usize = r[3].parse().unwrap();
            let oo: usize = r[4].parse().unwrap();
            assert!(conv > oo, "conventional > oo ordered pairs: {r:?}\n{s}");
        }
    }

    /// A small update-heavy workload's one-worker engine record.
    fn small_record(fanout: usize, cfg: EncWorkloadConfig) -> oodb_sim::ConflictRates {
        let ecfg = EngineConfig {
            fanout,
            ..EngineConfig::default()
        };
        let (rec, setup) = engine_record(&ecfg, &encyclopedia_workload(&cfg));
        conflict_rates(&rec.ts, &rec.history, setup)
    }

    #[test]
    fn conflict_rates_oo_never_exceeds_conventional() {
        for seed in 0..4 {
            let rates = small_record(
                16,
                EncWorkloadConfig {
                    txns: 6,
                    ops_per_txn: 6,
                    preload: 40,
                    key_space: 80,
                    mix: EncMix::update_heavy(),
                    seed,
                    ..Default::default()
                },
            );
            assert!(
                rates.oo_ordered_pairs <= rates.conventional_ordered_pairs,
                "seed {seed}: oo {} > conventional {}",
                rates.oo_ordered_pairs,
                rates.conventional_ordered_pairs
            );
            assert_eq!(rates.txns, 6);
            assert_eq!(rates.txn_pairs, 15);
        }
    }

    /// Inserts of distinct keys into a small tree: heavy page sharing, no
    /// semantic conflicts — the paper's ideal case.
    #[test]
    fn conflict_rates_commuting_inserts_show_a_gap() {
        // large fanout: everything lands on few pages
        let rates = small_record(
            64,
            EncWorkloadConfig {
                txns: 8,
                ops_per_txn: 4,
                preload: 0,
                key_space: 1_000,
                mix: EncMix::insert_only(),
                skew: Skew::Uniform,
                seed: 5,
            },
        );
        assert!(
            rates.conventional_ordered_pairs > 0,
            "page sharing must order txns conventionally"
        );
        assert!(
            rates.oo_ordered_pairs < rates.conventional_ordered_pairs,
            "insert-only distinct keys must show the oo gap: oo={} conv={}",
            rates.oo_ordered_pairs,
            rates.conventional_ordered_pairs
        );
    }

    #[test]
    fn conflict_rates_are_well_formed() {
        let r = small_record(
            8,
            EncWorkloadConfig {
                txns: 4,
                ops_per_txn: 4,
                preload: 10,
                key_space: 20,
                ..Default::default()
            },
        );
        assert!(r.conflicting_prim_pairs <= r.cross_txn_prim_pairs);
        assert!(r.conventional_ordered_pairs <= r.txn_pairs);
        assert!(r.oo_ordered_pairs <= r.txn_pairs);
        assert!((0.0..=1.0).contains(&r.conventional_rate()));
        assert!((0.0..=1.0).contains(&r.oo_rate()));
        assert!((0.0..=1.0).contains(&r.primitive_conflict_rate()));
    }

    #[test]
    fn b4_reports_costs() {
        let s = b4();
        assert!(s.contains("infer-us/action"));
        assert!(s.lines().count() >= 4 + 3);
    }

    /// Both locking controls commit every transaction of the
    /// range-heavy workload with a clean audit, and the conventional
    /// ordered pairs are never fewer than the oo ones.
    #[test]
    fn b8_range_scans_show_semantic_gain() {
        let s = b8();
        let rows: Vec<Vec<&str>> = s
            .lines()
            .skip_while(|l| !l.starts_with('-'))
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), 4, "two sizes x two controls: {s}");
        for exec in ["engine/pessimistic", "engine/pessimistic-page"] {
            assert_eq!(rows.iter().filter(|r| r[1] == exec).count(), 2, "{s}");
        }
        for r in &rows {
            assert_eq!(r[3], r[0], "every transaction commits: {s}");
            assert_eq!(r[8], "true", "every audit clean: {s}");
            let conv: usize = r[9].parse().unwrap();
            let oo: usize = r[10].parse().unwrap();
            assert!(conv >= oo, "conventional >= oo ordered pairs: {s}");
        }
    }

    /// Known flaky on the `engine/optimistic` rows: the certifier validates
    /// the recorded system as is, the audit its Definition-5 extension,
    /// and after a B-link split the two can disagree (ROADMAP open
    /// item). 100 alternating runs of the three optimistic rows on a 2-CPU
    /// box: 30 with a failing audit under the incremental certifier, 28
    /// under a from-scratch one that ran no rooted search.
    #[test]
    fn b9_engine_rows_are_sound_and_complete() {
        let s = b9();
        for exec in [
            "engine/pessimistic",
            "engine/pessimistic-page",
            "engine/optimistic",
        ] {
            assert!(s.contains(exec), "missing {exec}: {s}");
        }
        assert!(
            !s.contains("false"),
            "every audited run oo-serializable: {s}"
        );
    }

    /// The acceptance floor for the engine on the disjoint-key workload
    /// at 1 and at 8 shards — the same certifier, so what must hold is
    /// the same on both: every run commits everything and audits clean;
    /// no search expands a node (a snapshot-exec candidate installs last,
    /// so it owns no out-edge); the cut keeps what a commit is checked
    /// against (the `component` of its `CertAttempt`) well under the
    /// record; and the lane accounting costs nothing visible (best of
    /// three timed pairs — the true ratio is 1, so one noisy pair proves
    /// nothing).
    #[test]
    fn b10_sharded_optimistic_scales() {
        use oodb_engine::trace::TraceEventKind;
        use oodb_engine::TraceMode;
        let mut best = 0.0_f64;
        for _ in 0..3 {
            let one = b10_run(CcKind::Optimistic, 1, 96);
            let eight = b10_run(CcKind::Optimistic, 8, 96);
            for (label, out) in [("1 shard", &one), ("8 shards", &eight)] {
                assert_eq!(out.metrics.committed, 96, "{label}");
                assert_eq!(out.metrics.cert_check_visited, 0, "{label}");
                let audit = out.audit.as_ref().expect("audit enabled");
                assert!(audit.report.oo_decentralized.is_ok(), "{label}");
                assert!(audit.report.oo_global.is_ok(), "{label}");
            }
            let ratio = eight.metrics.throughput_per_sec / one.metrics.throughput_per_sec.max(1e-9);
            best = best.max(ratio);
            if best >= 0.67 {
                break;
            }
        }
        assert!(
            best >= 0.67,
            "8-shard optimistic fell behind 1-shard: best of 3 pairs {best:.2}x"
        );

        const TXNS: usize = 384;
        for shards in [1, 8] {
            let out = b10_engine_run(CcKind::Optimistic, shards, TXNS, TraceMode::ring());
            assert_eq!(out.metrics.committed, TXNS as u64);
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
                "{shards} shards: the cut must keep the retained set near the \
                 in-flight window, got {largest} of {TXNS} transactions"
            );
        }
    }

    /// B11 on counts: the untraced run captures nothing and the default
    /// ring holds the whole traced run. The throughput ratio is a clock
    /// reading, printed by `experiments b11`, not asserted; that a
    /// disabled tracer does no work is `trace::tests`' count.
    #[test]
    fn b11_ring_tracing_captures_the_whole_run() {
        use oodb_engine::TraceMode;
        let off = b11_run(TraceMode::Off, 96);
        assert!(off.trace.is_none(), "off mode captures nothing");
        let ring = b11_run(TraceMode::ring(), 96);
        let log = ring.trace.as_ref().expect("ring sink captured a trace");
        assert_eq!(log.dropped, 0, "default ring capacity holds the run");
    }

    /// B14's floor on counts, which hold whatever the arrival timing:
    /// group(1) forces once per logged commit; under group(k) a flush of
    /// fewer than k commits is one whose gather ended on the deadline or
    /// the idle rule (a full gather takes everything parked, so at least
    /// k), and none takes more than the parked list holds. The
    /// fsyncs-per-commit ratios stay in `experiments b14`'s table.
    #[test]
    fn b14_group_commit_amortizes_fsyncs() {
        use oodb_engine::durability::PARK_BOUND;
        use oodb_engine::DurabilityMode;
        const TXNS: usize = 96;
        // off must be the exact pre-durability engine
        let off = b14_run(DurabilityMode::Off, TXNS);
        assert!(off.wal.is_none());
        assert_eq!(off.metrics.wal_appends, 0);
        assert_eq!(off.metrics.fsyncs, 0);
        let durable = |mode| {
            let out = b14_run(mode, TXNS);
            assert_eq!(out.metrics.committed as usize, TXNS);
            let image = out.wal.as_ref().expect("durable run keeps its log");
            let r = oodb_engine::recover(image, EngineConfig::default().fanout);
            assert!(r.consistent(), "{}: recovery audit failed", out.cc_name);
            assert_eq!(r.final_state, out.final_state, "replay must match");
            let m = out.metrics;
            assert_eq!(m.group_commits, m.fsyncs, "every flush acknowledges");
            assert_eq!(
                m.wal_flush_full + m.wal_flush_deadline + m.wal_flush_idle,
                m.fsyncs,
                "every flush has one reason"
            );
            m
        };
        let m = durable(DurabilityMode::Group {
            max_batch: 1,
            max_wait: std::time::Duration::ZERO,
        });
        assert_eq!(
            m.fsyncs, m.wal_group_buckets[0],
            "group(1): every flush covers one commit"
        );
        // commits acknowledged ÷ flushes, exact: one commit per force
        assert_eq!(m.wal_group_mean, 1.0, "group(1): {m}");
        for k in [4usize, 16] {
            let m = durable(DurabilityMode::Group {
                max_batch: k,
                max_wait: std::time::Duration::from_millis(5),
            });
            // buckets[i] counts flushes of [2^i, 2^(i+1)) commits
            assert!(k.is_power_of_two(), "a bucket boundary");
            let short: u64 = m.wal_group_buckets[..k.ilog2() as usize].iter().sum();
            assert!(
                short <= m.wal_flush_deadline + m.wal_flush_idle,
                "group({k}): {short} flushes of fewer than {k} commits, but only \
                 {} gathers ended on the deadline and {} on the idle rule",
                m.wal_flush_deadline,
                m.wal_flush_idle
            );
            let most = PARK_BOUND * k;
            assert!(
                m.wal_group_buckets[most.ilog2() as usize + 1..]
                    .iter()
                    .all(|&c| c == 0)
                    && m.wal_parked_peak <= most as u64,
                "group({k}): a flush above {most} commits: {m}"
            );
        }
    }

    #[test]
    fn b16_latched_reads_scale() {
        let one = b16_run(1);
        let eight = b16_run(8);
        for (label, out) in [("1 worker", &one), ("8 workers", &eight)] {
            assert_eq!(
                out.metrics.committed as usize, 48,
                "{label}: read-only workload commits everything"
            );
            let audit = out.audit.as_ref().expect("audit enabled");
            assert!(
                audit.report.oo_decentralized.is_ok() && audit.report.oo_global.is_ok(),
                "{label}: committed projection must certify"
            );
        }
        let speedup = eight.metrics.throughput_per_sec / one.metrics.throughput_per_sec.max(1e-9);
        assert!(
            speedup >= 3.0,
            "latched disjoint-key reads must scale: 8 workers gave only \
             {speedup:.2}x over 1 worker"
        );
    }

    #[test]
    fn b5_no_inclusion_violations() {
        let s = b5();
        // the last column must be all zeros
        for line in s.lines().skip_while(|l| !l.starts_with('-')).skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            assert!(line.trim_end().ends_with('0'), "inclusion violated: {line}");
        }
    }
}
