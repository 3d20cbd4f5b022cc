//! The transaction engine end to end: one workload, every concurrency
//! control, live metrics, and a full serializability audit.
//!
//! Run with: `cargo run --example engine`
//!
//! With `--json <path>` the final run's `MetricsSnapshot` is dumped as
//! JSON to `<path>` (`MetricsSnapshot::to_json`) for ad-hoc runs;
//! measured runs belong to the repo benchmark in `benchmark/`.
//!
//! With `--trace <path>` the last run (optimistic on 4 shards) is traced:
//! the structured event log is written to `<path>` as JSONL and to
//! `<path>.chrome.json` in Chrome `trace_event` format (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>).

use oodb::engine::trace::export::{to_chrome_trace, to_jsonl};
use oodb::engine::{CcKind, DurabilityMode, EngineConfig};
use oodb::sim::{encyclopedia_workload, EncMix, EncWorkloadConfig, Skew};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("usage: engine [--trace <path>] [--json <path>]");
                std::process::exit(2);
            })
        })
    };
    let trace_path = flag("--trace");
    let json_path = flag("--json");

    let workload = encyclopedia_workload(&EncWorkloadConfig {
        txns: 24,
        ops_per_txn: 4,
        key_space: 24,
        preload: 12,
        mix: EncMix::update_heavy(),
        skew: Skew::Zipf(0.8),
        seed: 7,
    });

    println!("24 update-heavy transactions on 24 hot keys, 8 workers:\n");
    // the third field: run through the write-ahead log with group commit
    let combos = [
        (CcKind::Pessimistic, 1, false),
        (CcKind::PessimisticPage, 1, false),
        (CcKind::Optimistic, 1, false),
        (CcKind::Pessimistic, 4, false),
        (CcKind::Pessimistic, 4, true),
        (CcKind::Optimistic, 4, false),
    ];
    for (i, (kind, shards, durable)) in combos.into_iter().enumerate() {
        let trace = trace_path.is_some() && i == combos.len() - 1;
        let cfg = EngineConfig {
            workers: 8,
            queue_capacity: 16,
            shards,
            seed: 7,
            trace,
            durability: if durable {
                DurabilityMode::Group {
                    max_batch: 4,
                    max_wait: std::time::Duration::from_micros(200),
                }
            } else {
                DurabilityMode::Off
            },
            fsync_latency: std::time::Duration::from_micros(if durable { 50 } else { 0 }),
            ..EngineConfig::default()
        };
        let out = oodb::engine::run_workload(&cfg, kind, &workload);
        let audit = out.audit.expect("audit enabled");
        let mut label = format!("{} x{shards}", out.cc_name);
        if durable {
            label.push_str(" +wal");
        }
        println!("{label:<22} {}", out.metrics);
        if durable {
            // no worker waits for the device: acknowledgements park with
            // the log flusher, which says why each gather ended
            let m = &out.metrics;
            println!(
                "{:<22} log: {} fsyncs for {} logged commits (gathers ended full {}, \
                 deadline {}, idle {}), at most {} parked, append to ack p50 {:?}",
                "",
                m.fsyncs,
                m.wal_commits_acked,
                m.wal_flush_full,
                m.wal_flush_deadline,
                m.wal_flush_idle,
                m.wal_parked_peak,
                m.phase_fsync.p50
            );
        }
        // under strict 2PL a wait ends at a release or a verdict: how
        // many acquisitions blocked, and how many deadlocks were broken
        // (each victim is the youngest job of its cycle and retries)
        if out.metrics.lock_blocks > 0 {
            println!(
                "{:<22} locks: {} acquisitions blocked, {} deadlock victims, lock-wait p99 {:?}",
                "",
                out.metrics.lock_blocks,
                out.metrics.deadlock_victims,
                out.metrics.lock_wait_p99
            );
        }
        // the record is built after the acknowledgement, on the worker's
        // time: `drain` is off the transaction's latency, `exec` is on it
        println!(
            "{:<22} per commit: exec p50 {:?}, then drain p50 {:?}",
            "", out.metrics.phase_exec.p50, out.metrics.phase_drain.p50
        );
        // what the buffer pool saw: a latch wait is two traversals
        // meeting on one page in conflicting modes
        println!(
            "{:<22} pool: {:.1} page visits per commit, {} of them waited for a latch",
            "",
            (out.metrics.pool_hits + out.metrics.pool_misses) as f64
                / out.metrics.committed.max(1) as f64,
            out.metrics.pool_latch_waits
        );
        println!(
            "{:<22} audit ({:?}): oo-decentralized {}, oo-global {}, conventional {}\n",
            "",
            audit.scope,
            verdict(audit.report.oo_decentralized.is_ok()),
            verdict(audit.report.oo_global.is_ok()),
            verdict(audit.report.conventional.is_ok()),
        );
        if i == combos.len() - 1 {
            if let Some(path) = &json_path {
                std::fs::write(path, out.metrics.to_json()).expect("write metrics JSON");
                println!("{:<22} metrics json -> {path}\n", "");
            }
        }
        if let (Some(path), Some(log)) = (&trace_path, &out.trace) {
            let chrome_path = format!("{path}.chrome.json");
            std::fs::write(path, to_jsonl(log)).expect("write JSONL trace");
            std::fs::write(&chrome_path, to_chrome_trace(log)).expect("write Chrome trace");
            println!(
                "{:<22} trace: {} events ({} dropped) -> {path}, {chrome_path}\n",
                "",
                log.events.len(),
                log.dropped
            );
        }
    }
    println!(
        "Semantic locking retries only on true semantic conflicts; the\n\
         page-level ablation serializes the hot keys; optimistic\n\
         certification trades locks for validation aborts. The optimistic rows\n\
         run the optimistic certifier with writes deferred to the commit\n\
         point; reads see committed state when issued. The deferred\n\
         writes install atomically with certification, so no\n\
         transaction ever sees an uncommitted effect. Strict 2PL keeps\n\
         one lock table striped by key hash and the optimistic rows one\n\
         certifier at every shard count;\n\
         x4 only accounts per shard (shard-ops, cross-shard), so x1 and\n\
         x4 decide alike — run `experiments b10`\n\
         for the disjoint-key sweep. All runs are oo-serializable — the\n\
         page-level run is even conventionally serializable, at the\n\
         price of concurrency."
    );
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}
