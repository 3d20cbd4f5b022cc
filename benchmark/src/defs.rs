//! The metrics the benchmark reports: names, units, directions and the
//! regression bounds. `BENCHMARK.json` is rendered from these tables
//! (`oodb-benchmark manifest`) and a test keeps the two equal.

use crate::gen;
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported value. `n` is how many samples stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

/// Which value of a run's repetitions the run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The median: counts and sizes, which noise moves either way.
    Median,
    /// The mean of the best quarter ([`stats::best_quarter_mean`]): the
    /// timings. On this shared VM interference comes in stretches of a
    /// minute or so and only ever adds time, so the median of eight
    /// repetitions jumps whenever more than four of them were hit, while
    /// the fastest two stay put as long as any quarter of the run was
    /// quiet; averaging two keeps one lucky repetition from setting the
    /// value. README "Choosing the statistic" has the numbers.
    BestQuarter,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
    pub pick: Pick,
}

/// What a user of the engine sees, per workload.
///
/// The issue's sixth metric, the serial tail (`txn_tail_us`), is reported
/// as the per-layer `engine.txn_tail_us` and has no bound: on this
/// shared host a p99 cannot hold one. The host steals time in slices
/// that a p50 never notices (a register-only loop of 90 µs has a p99 of
/// 117 µs in its quiet hours and 165 µs in its busy ones), and
/// `hot_update`'s p99 read 128 µs for twenty runs and 270 µs for the next
/// dozen at a p50 of 76 µs throughout — the driver refuses a benchmark
/// whose same-code runs spread wider than the bound, and 0.25 is the
/// widest bound there is.
///
/// `commit_frac` is the issue's `failed_frac` turned around (committed ÷
/// submitted over both phases): the driver wants metrics that are never
/// 0 and relative bounds, and 1 − 0.001 is the same gate as "failures
/// may rise 0.001 absolute" from a baseline of none.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "commits_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        pick: Pick::BestQuarter,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        pick: Pick::BestQuarter,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        pick: Pick::Median,
    },
    EndToEnd {
        name: "commit_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        pick: Pick::Median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        pick: Pick::BestQuarter,
    },
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Single-layer metrics, layer = crate. No bounds: they explain a
/// movement of an end-to-end metric, they never gate one.
pub const PER_LAYER: [(&str, &str, Better); 65] = [
    ("engine.loaded_e2e_p50_us", "us", L),
    ("engine.loaded_e2e_p99_us", "us", L),
    ("engine.phase_queue_p50_us", "us", L),
    ("engine.phase_wait_p50_us", "us", L),
    ("engine.phase_exec_p50_us", "us", L),
    ("engine.phase_fsync_p50_us", "us", L),
    ("engine.lock_wait_p99_us", "us", L),
    ("engine.retries_per_commit", "ratio", L),
    ("engine.cert_actions_per_commit", "count", L),
    ("engine.cert_reseeds", "count", L),
    ("engine.degrade_ratio", "ratio", H),
    ("engine.wal_bytes_per_commit", "bytes", L),
    ("engine.fsyncs_per_commit", "ratio", L),
    ("engine.wal_group_mean", "count", H),
    ("engine.recover_ms", "ms", L),
    ("engine.recover_us_per_record", "us", L),
    ("engine.cross_shard_frac", "ratio", L),
    ("engine.shard_imbalance", "ratio", L),
    ("engine.txn_tail_us", "us", L),
    ("engine.submit_ns", "ns", L),
    ("engine.start_ms", "ms", L),
    ("engine.shutdown_ms", "ms", L),
    ("engine.audit_ms_150", "ms", L),
    ("engine.overhead_us", "us", L),
    ("btree.search_ns", "ns", L),
    ("btree.insert_ns", "ns", L),
    ("btree.insert_split_ns", "ns", L),
    ("btree.change_ns", "ns", L),
    ("btree.delete_ns", "ns", L),
    ("btree.range_ns_per_key", "ns", L),
    ("btree.pages_per_search", "count", L),
    ("btree.depth", "count", L),
    ("btree.pages_per_key", "ratio", L),
    ("btree.self_frac", "ratio", L),
    ("storage.pin_hit_ns", "ns", L),
    ("storage.xlatch_hit_ns", "ns", L),
    ("storage.miss_ns", "ns", L),
    ("storage.alloc_ns", "ns", L),
    ("storage.hit_rate", "ratio", H),
    ("storage.evictions_per_op", "ratio", L),
    ("storage.writebacks_per_op", "ratio", L),
    ("model.begin_txn_ns", "ns", L),
    ("model.append_ns", "ns", L),
    ("model.actions_per_op", "count", L),
    ("model.rss_kb_per_txn", "kB", L),
    ("core.infer_ms", "ms", L),
    ("core.infer_scoped_ms", "ms", L),
    ("core.feed_ns_per_action", "ns", L),
    ("core.try_commit_us_h50", "us", L),
    ("core.try_commit_us_h200", "us", L),
    ("core.try_commit_growth", "ratio", L),
    ("core.check_ms", "ms", L),
    ("lock.acquire_ns", "ns", L),
    ("lock.acquire_conflict_ns", "ns", L),
    ("lock.release_all_ns", "ns", L),
    ("lock.find_deadlock_us", "us", L),
    ("recovery.encode_ns", "ns", L),
    ("recovery.append_ns", "ns", L),
    ("recovery.force_ns", "ns", L),
    ("recovery.decode_ns", "ns", L),
    ("recovery.bytes_per_op", "bytes", L),
    ("recovery.scan_mb_per_s", "MB/s", H),
    ("ledger.sum_us", "us", L),
    ("ledger.residual_frac", "ratio", L),
    ("trace.overhead_frac", "ratio", L),
];

impl EndToEnd {
    /// The value a run reports out of its repetitions' values.
    pub fn reported(&self, reps: &[f64]) -> f64 {
        match self.pick {
            Pick::Median => stats::median(reps),
            Pick::BestQuarter => stats::best_quarter_mean(reps, self.better == Better::Higher),
        }
    }

    /// How far the repetitions disagree about the reported `value`, as a
    /// share of it. For a median, the first to the third quartile; for a
    /// best-quarter mean, the distance to the quartile on the good side:
    /// whether the rest of that quarter confirms its fastest members.
    pub fn disagreement(&self, value: f64, reps: &stats::Summary) -> f64 {
        if value == 0.0 {
            return 0.0;
        }
        let gap = match (self.pick, self.better) {
            (Pick::Median, _) => reps.q3 - reps.q1,
            (Pick::BestQuarter, Better::Lower) => reps.q1 - value,
            (Pick::BestQuarter, Better::Higher) => value - reps.q3,
        };
        gap.abs() / value.abs()
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|d| d.name == name)
}

fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|d| d.0 == name).map(|d| d.1)
}

/// A per-layer metric by its declared name; the unit comes from the
/// table, so a typo cannot reach the output.
pub fn layer(name: &str, value: f64, n: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: per_layer_unit(name).unwrap_or_else(|| panic!("undeclared per-layer metric {name}")),
        n,
    }
}

/// The `BENCHMARK.json` this harness implements.
pub fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.into());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(s)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(gen::NOMINAL_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                gen::specs()
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", s(d.name)),
                            ("unit", s(d.unit)),
                            ("better", s(d.better.label())),
                            ("bound", Json::Num(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// [`manifest`] with one entry per line, for reviewable diffs.
pub fn manifest_text() -> String {
    let manifest = manifest();
    let entries = manifest.entries();
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Obj(_))) => {
                let lines: Vec<String> = items
                    .iter()
                    .map(|v| format!("    {}", v.render()))
                    .collect();
                out.push_str(&format!(
                    "  \"{key}\": [\n{}\n  ]{comma}\n",
                    lines.join(",\n")
                ));
            }
            other => out.push_str(&format!("  \"{key}\": {}{comma}\n", other.render())),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&manifest_text()).expect("the pretty form parses"),
            manifest()
        );
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: oodb-benchmark manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn timings_report_the_best_quarter_and_sizes_the_median() {
        let reps = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 30.0];
        let summary = stats::Summary::of(&reps);
        let p50 = end_to_end("txn_p50_us").expect("declared");
        assert_eq!(p50.reported(&reps), 8.5, "the two fastest of eight");
        // q1 sits at 9.75: (9.75 − 8.5) ÷ 8.5
        assert!((p50.disagreement(8.5, &summary) - 1.25 / 8.5).abs() < 1e-12);
        let commits = end_to_end("commits_per_s").unwrap();
        assert_eq!(commits.reported(&reps), 22.0, "the two highest");
        let rss = end_to_end("peak_rss_mb").unwrap();
        assert_eq!(rss.reported(&reps), 11.5);
        // q1 9.75, q3 13.25: 3.5 ÷ 11.5
        assert!((rss.disagreement(11.5, &summary) - 3.5 / 11.5).abs() < 1e-12);
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.0));
        names.extend(gen::specs().iter().map(|w| w.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        assert!(gen::specs()
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(manifest().render().len() < 64 * 1024);
    }
}
