//! Quantitative experiments B1, B4, B5, B8 and B14 (see DESIGN.md §4).
//!
//! Every function returns a rendered table of counts and of ratios of
//! counts over audited engine runs; no table reads a clock. The paper's
//! claims are about *shape* (who wins, where the gap opens), which
//! EXPERIMENTS.md records. Wall-clock numbers belong to the repository
//! benchmark (`benchmark/`), whose gated runs can resolve them.

use crate::table::{f3, Table};
use oodb_engine::{AuditOutput, CcKind, EngineConfig};
use oodb_sim::{
    acceptance_rates, conflict_rates, encyclopedia_workload, AcceptanceConfig, EncMix, EncWorkload,
    EncWorkloadConfig, Skew,
};

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

/// **B4** — the cost of dependency tracking, in counts: how many
/// derivations one batch `SystemSchedules::infer` pass makes over the
/// record as histories grow. Its wall-clock time is the benchmark's
/// `core.infer_ms` row.
pub fn b4() -> String {
    let mut t = Table::new(&[
        "txns",
        "actions",
        "primitives",
        "derivations",
        "derivations/action",
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
        let ss = oodb_core::schedule::SystemSchedules::infer(&rec.ts, &rec.history);
        let derivations = ss.trace().len();
        t.row(vec![
            txns.to_string(),
            actions.to_string(),
            rec.history.len().to_string(),
            derivations.to_string(),
            format!("{:.2}", derivations as f64 / actions as f64),
        ]);
    }
    format!(
        "B4 — cost of dependency tracking: derivations of one\n\
         SystemSchedules::infer pass over the records of one-worker\n\
         strict-2PL engine runs\n\n{}",
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

/// The engine configuration of B8's runs at `workers` workers.
fn b8_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 32,
        seed: 31,
        ..EngineConfig::default()
    }
}

/// **B8** — range queries vs concurrent inserts: the phantom problem
/// (§1's anomaly list) handled semantically. Interval-precise
/// `rangeScan` locks admit every out-of-range insert; the page-level
/// ablation read-locks the whole container for a scan. The protocol rows
/// run the workload through the engine under semantic and page-level
/// strict 2PL, audited; the ordered-pair columns come from the record of
/// a one-worker run at the rows' configuration.
pub fn b8() -> String {
    const WORKERS: usize = 4;
    let mut t = Table::new(&[
        "txns",
        "executor",
        "workers",
        "committed",
        "retries",
        "oo-serializable",
        "conv-ordered-pairs",
        "oo-ordered-pairs",
    ]);
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
        let (rec, setup) = engine_record(&b8_config(1), &w);
        let rates = conflict_rates(&rec.ts, &rec.history, setup);
        for kind in [CcKind::Pessimistic, CcKind::PessimisticPage] {
            let out = oodb_engine::run_workload(&b8_config(WORKERS), kind, &w);
            let audit = out.audit.as_ref().expect("audit enabled");
            t.row(vec![
                txns.to_string(),
                format!("engine/{}", out.cc_name),
                WORKERS.to_string(),
                out.metrics.committed.to_string(),
                out.metrics.retries.to_string(),
                audit.report.oo_decentralized.is_ok().to_string(),
                rates.conventional_ordered_pairs.to_string(),
                rates.oo_ordered_pairs.to_string(),
            ]);
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

    /// Both locking controls commit every transaction of the
    /// range-heavy workload with a clean audit, and the conventional
    /// ordered pairs are never fewer than the oo ones.
    #[test]
    fn b8_range_scans_show_semantic_gain() {
        let s = b8();
        let rows = rows(&s);
        assert_eq!(rows.len(), 4, "two sizes x two controls: {s}");
        for exec in ["engine/pessimistic", "engine/pessimistic-page"] {
            assert_eq!(rows.iter().filter(|r| r[1] == exec).count(), 2, "{s}");
        }
        for r in &rows {
            assert_eq!(r[3], r[0], "every transaction commits: {s}");
            assert_eq!(r[5], "true", "every audit clean: {s}");
            let conv: usize = r[6].parse().unwrap();
            let oo: usize = r[7].parse().unwrap();
            assert!(conv >= oo, "conventional >= oo ordered pairs: {s}");
        }
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
