//! Workload regime matrix: a declarative sweep over contention regime
//! × concurrency control × sharding × durability, each cell run against
//! the real engine.
//!
//! A [`Regime`] names one point in the space; [`smoke`] and [`full`]
//! are the two curated presets (smoke = the CI matrix, seconds on one
//! core; full = the B15 narrative matrix). [`run_matrix`] executes
//! every cell audited and returns [`CellResult`]s ready for the
//! [`crate::report`] serializer, so the same cells feed both the
//! rendered B15 table and the persisted `BENCH_<commit>.json`.

use crate::report::CellResult;
use crate::table::{f3, Table};
use oodb_engine::{CcKind, DurabilityMode, EngineConfig, EngineOutput};
use oodb_sim::{encyclopedia_workload, EncMix, EncWorkloadConfig, Skew};
use std::time::Duration;

/// One cell of the regime matrix: a named contention regime plus the
/// engine strategy knobs it runs under.
#[derive(Debug, Clone)]
pub struct Regime {
    /// Short contention-regime name (`uniform-read`, `zipf-write`, ...).
    pub contention: &'static str,
    /// Size of the key universe.
    pub key_space: usize,
    /// Zipf exponent, or `None` for uniform key choice.
    pub zipf: Option<f64>,
    /// Fraction of operations that are point reads (searches).
    pub read_fraction: f64,
    /// Fraction of operations that are range scans.
    pub scan_fraction: f64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Concurrency-control shards.
    pub shards: usize,
    /// Concurrency-control strategy.
    pub cc: CcKind,
    /// Commit durability mode.
    pub durability: DurabilityMode,
    /// Simulated fsync latency (only meaningful with durability on).
    pub fsync_latency: Duration,
}

impl Regime {
    /// A baseline cell: the given contention regime under the given CC,
    /// no durability.
    #[allow(clippy::too_many_arguments)]
    pub fn base(
        contention: &'static str,
        key_space: usize,
        zipf: Option<f64>,
        read_fraction: f64,
        scan_fraction: f64,
        ops_per_txn: usize,
        cc: CcKind,
        shards: usize,
    ) -> Regime {
        Regime {
            contention,
            key_space,
            zipf,
            read_fraction,
            scan_fraction,
            ops_per_txn,
            shards,
            cc,
            durability: DurabilityMode::Off,
            fsync_latency: Duration::ZERO,
        }
    }

    /// Stable cell identifier: every dimension that distinguishes cells,
    /// joined with `/`. Unique within each preset (tested).
    pub fn id(&self) -> String {
        format!(
            "{}/{}/sh{}/{}",
            self.contention,
            self.cc.label(),
            self.shards,
            self.durability.label(),
        )
    }

    /// Dimension name → rendered value pairs for the report.
    pub fn dims(&self) -> Vec<(String, String)> {
        vec![
            ("contention".into(), self.contention.into()),
            ("key_space".into(), self.key_space.to_string()),
            (
                "zipf".into(),
                self.zipf.map_or("uniform".into(), |z| format!("{z}")),
            ),
            ("read_fraction".into(), format!("{}", self.read_fraction)),
            ("scan_fraction".into(), format!("{}", self.scan_fraction)),
            ("ops_per_txn".into(), self.ops_per_txn.to_string()),
            ("shards".into(), self.shards.to_string()),
            ("cc".into(), self.cc.label().into()),
            ("durability".into(), self.durability.label()),
        ]
    }

    /// The operation mix implied by the read/scan fractions: the
    /// remainder is writes, split insert/change/delete 50/40/10.
    pub fn mix(&self) -> EncMix {
        let write = (1.0 - self.read_fraction - self.scan_fraction).max(0.0);
        EncMix {
            insert: write * 0.5,
            search: self.read_fraction,
            change: write * 0.4,
            delete: write * 0.1,
            read_seq: 0.0,
            range: self.scan_fraction,
        }
    }

    /// The engine configuration for this cell (4 workers, audited).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            shards: self.shards,
            seed: 42,
            durability: self.durability,
            fsync_latency: self.fsync_latency,
            ..EngineConfig::default()
        }
    }

    /// The workload configuration for this cell at the given size.
    pub fn workload_config(&self, txns: usize) -> EncWorkloadConfig {
        EncWorkloadConfig {
            txns,
            ops_per_txn: self.ops_per_txn,
            key_space: self.key_space,
            preload: self.key_space / 2,
            mix: self.mix(),
            skew: self.zipf.map_or(Skew::Uniform, Skew::Zipf),
            seed: 42,
        }
    }
}

/// One contention corner:
/// (name, key_space, zipf, read_fraction, scan_fraction, ops_per_txn).
type Contention = (&'static str, usize, Option<f64>, f64, f64, usize);

/// The contention corners shared by both presets.
const CONTENTION: [Contention; 4] = [
    // big uniform key space, read-mostly: the low-contention floor
    ("uniform-read", 256, None, 0.8, 0.05, 6),
    // big uniform key space, write-heavy: structural contention only
    ("uniform-write", 256, None, 0.2, 0.0, 6),
    // skewed reads over a small hot set: shared hot keys, few conflicts
    ("zipf-read", 64, Some(0.9), 0.8, 0.05, 6),
    // skewed writes over a tiny hot set: the worst-case regime
    ("zipf-write", 32, Some(0.99), 0.2, 0.0, 6),
];

const ALL_CC: [CcKind; 3] = [
    CcKind::Pessimistic,
    CcKind::PessimisticPage,
    CcKind::Optimistic,
];

/// Cells beyond the base grid: the durability ablations, unbatched vs
/// group commit under a simulated 50µs fsync.
fn ablations() -> Vec<Regime> {
    let mut v = Vec::new();
    for durability in [
        DurabilityMode::PerCommit,
        DurabilityMode::Group {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
        },
    ] {
        let (name, ks, zipf, rf, sf, ops) = CONTENTION[1]; // uniform-write
        let mut r = Regime::base(name, ks, zipf, rf, sf, ops, CcKind::Pessimistic, 1);
        r.durability = durability;
        r.fsync_latency = Duration::from_micros(50);
        v.push(r);
    }
    v
}

/// The CI smoke preset: the 4 contention corners × 3 CC strategies ×
/// {1, 4} shards (24 base cells) plus the ablation cells — 26 cells,
/// seconds on a single core at smoke size.
pub fn smoke() -> Vec<Regime> {
    let mut v = Vec::new();
    for (name, ks, zipf, rf, sf, ops) in CONTENTION {
        for cc in ALL_CC {
            for shards in [1, 4] {
                v.push(Regime::base(name, ks, zipf, rf, sf, ops, cc, shards));
            }
        }
    }
    v.extend(ablations());
    v
}

/// The full preset: the same cells as [`smoke`] (run larger via
/// `txns`), plus an 8-shard column for the scaling view.
pub fn full() -> Vec<Regime> {
    let mut v = smoke();
    for (name, ks, zipf, rf, sf, ops) in CONTENTION {
        for cc in [CcKind::Pessimistic, CcKind::Optimistic] {
            v.push(Regime::base(name, ks, zipf, rf, sf, ops, cc, 8));
        }
    }
    v
}

/// Transactions per cell for each preset.
pub mod size {
    /// Smoke cells are tiny: CI runs the whole matrix in seconds.
    pub const SMOKE_TXNS: usize = 32;
    /// Full cells are large enough for stable quantiles.
    pub const FULL_TXNS: usize = 160;
}

/// Run one cell audited and return the raw engine output.
pub fn run_cell(r: &Regime, txns: usize) -> EngineOutput {
    let workload = encyclopedia_workload(&r.workload_config(txns));
    let out = oodb_engine::run_workload(&r.engine_config(), r.cc, &workload);
    let audit = out.audit.as_ref().expect("matrix cells run audited");
    assert!(
        audit.report.oo_decentralized.is_ok(),
        "cell {} violated oo-serializability",
        r.id()
    );
    out
}

/// Run every cell of a preset and package the results for the report.
pub fn run_matrix(regimes: &[Regime], txns: usize) -> Vec<CellResult> {
    regimes
        .iter()
        .map(|r| {
            let out = run_cell(r, txns);
            CellResult {
                id: r.id(),
                dims: r.dims(),
                throughput_per_sec: out.metrics.throughput_per_sec,
                metrics_json: out.metrics.to_json(),
            }
        })
        .collect()
}

/// **B15** — the first full regime-matrix narrative: every contention
/// corner under every CC strategy, with the per-commit phase breakdown
/// (queue / wait / exec / fsync) that locates where latency lives in
/// each regime. The same cells serialize to `BENCH_<commit>.json` via
/// `cargo run -p oodb-bench --bin bench_matrix -- run`.
pub fn b15() -> String {
    let regimes = smoke();
    let mut t = Table::new(&[
        "cell",
        "committed",
        "retries",
        "tput/s",
        "e2e-p50",
        "e2e-p99",
        "e2e-p999",
        "q-p50",
        "wait-p50",
        "exec-p50",
        "fsync-p50",
    ]);
    for r in &regimes {
        let out = run_cell(r, size::SMOKE_TXNS);
        let m = &out.metrics;
        t.row(vec![
            r.id(),
            m.committed.to_string(),
            m.retries.to_string(),
            f3(m.throughput_per_sec),
            fmt_us(m.e2e_p50.as_nanos() as u64),
            fmt_us(m.e2e_p99.as_nanos() as u64),
            fmt_us(m.e2e_p999.as_nanos() as u64),
            fmt_us(m.phase_queue.p50.as_nanos() as u64),
            fmt_us(m.phase_wait.p50.as_nanos() as u64),
            fmt_us(m.phase_exec.p50.as_nanos() as u64),
            fmt_us(m.phase_fsync.p50.as_nanos() as u64),
        ]);
    }
    format!(
        "B15 — workload regime matrix ({} cells, {} txns each, 4 workers,\n\
         all audited). Contention corners x {{pessimistic, pessimistic-page,\n\
         optimistic}} x {{1, 4}} shards, plus durability ablations.\n\
         Latencies are per-commit phase medians: queue wait / grant-or-cert\n\
         wait / execution / fsync wait.\n\n{}",
        regimes.len(),
        size::SMOKE_TXNS,
        t.render()
    )
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}us", ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn smoke_preset_has_at_least_24_unique_cells() {
        let regimes = smoke();
        assert!(regimes.len() >= 24, "only {} cells", regimes.len());
        let ids: BTreeSet<String> = regimes.iter().map(Regime::id).collect();
        assert_eq!(ids.len(), regimes.len(), "cell ids must be unique");
        // the grid covers every CC strategy and both shard counts
        for cc in ALL_CC {
            assert!(regimes.iter().any(|r| r.cc == cc));
        }
        assert!(regimes.iter().any(|r| r.shards == 4));
        assert!(regimes.iter().any(|r| r.durability != DurabilityMode::Off));
    }

    #[test]
    fn full_preset_extends_smoke() {
        let (s, f) = (smoke(), full());
        assert!(f.len() > s.len());
        let ids: BTreeSet<String> = f.iter().map(Regime::id).collect();
        assert_eq!(ids.len(), f.len(), "cell ids must be unique");
    }

    #[test]
    fn mix_weights_are_a_distribution() {
        for r in smoke() {
            let m = r.mix();
            let sum = m.insert + m.search + m.change + m.delete + m.read_seq + m.range;
            assert!((sum - 1.0).abs() < 1e-9, "{}: weights sum to {sum}", r.id());
        }
    }

    #[test]
    fn one_cell_runs_audited_and_serializes() {
        let r = &smoke()[0];
        let cells = run_matrix(std::slice::from_ref(r), 8);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].id, r.id());
        let v = crate::report::Json::parse(&cells[0].metrics_json).expect("metrics JSON parses");
        assert!(v.path("phases.exec.p50_ns").is_some());
    }
}
