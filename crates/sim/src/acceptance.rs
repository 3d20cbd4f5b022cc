//! Schedule-acceptance sampling (experiment B5).
//!
//! For a fixed set of transactions, sample many random (conform)
//! interleavings of their primitives and count how many each definition of
//! serializability accepts. oo-serializability must accept a superset of
//! the conventionally serializable schedules; the surplus is the
//! concurrency the paper's definition unlocks. An ablation rebuilds the
//! same system with *no semantic knowledge* (every object's matrix =
//! all-conflict), showing the gain collapse back to the conventional
//! level.

use oodb_core::commutativity::{ActionDescriptor, AllConflict, RangeSpec, ReadWriteSpec, SpecRef};
use oodb_core::history::History;
use oodb_core::ids::ActionIdx;
use oodb_core::prelude::analyze;
use oodb_core::system::TransactionSystem;
use oodb_core::value::key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Blueprint of a synthetic nested-transaction population, mirroring the
/// encyclopedia shape: each transaction performs keyed operations on
/// leaves, each touching pages.
#[derive(Debug, Clone)]
pub struct AcceptanceConfig {
    /// Number of transactions.
    pub txns: usize,
    /// Leaf-level operations per transaction.
    pub ops_per_txn: usize,
    /// Distinct leaves.
    pub leaves: usize,
    /// Distinct keys per leaf (lower = more same-key conflicts).
    pub keys_per_leaf: usize,
    /// Pages per leaf (1 = maximal page sharing).
    pub pages_per_leaf: usize,
    /// Fraction of operations that are searches (rest inserts).
    pub search_fraction: f64,
    /// Seed for the transaction shapes.
    pub seed: u64,
}

impl Default for AcceptanceConfig {
    fn default() -> Self {
        AcceptanceConfig {
            txns: 3,
            ops_per_txn: 2,
            leaves: 2,
            keys_per_leaf: 4,
            pages_per_leaf: 1,
            search_fraction: 0.3,
            seed: 17,
        }
    }
}

/// Acceptance counts over one sample run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AcceptanceRates {
    /// Interleavings sampled.
    pub samples: usize,
    /// Accepted by conventional conflict serializability.
    pub conventional: usize,
    /// Accepted by oo-serializability (decentralized Definition 16).
    pub oo: usize,
    /// Accepted by the strengthened (global) oo check.
    pub oo_global: usize,
    /// Accepted by oo with semantics ablated (all-conflict matrices).
    pub oo_no_semantics: usize,
    /// Samples where conventional accepted but oo rejected (must be 0).
    pub inclusion_violations: usize,
}

/// Build the synthetic system; `semantic` = false replaces every
/// commutativity matrix with all-conflict (the ablation). Primitives are
/// grouped per operation: interleavings keep each operation's page
/// accesses contiguous — the atomicity a protocol's latching guarantees.
type OpPrims = Vec<Vec<Vec<ActionIdx>>>;

fn build_system(cfg: &AcceptanceConfig, semantic: bool) -> (TransactionSystem, OpPrims) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ts = TransactionSystem::new();
    let leaf_spec: SpecRef = if semantic {
        Arc::new(RangeSpec::ordered_container("leaf"))
    } else {
        Arc::new(AllConflict)
    };
    let page_spec: SpecRef = if semantic {
        Arc::new(ReadWriteSpec)
    } else {
        Arc::new(AllConflict)
    };
    let leaves: Vec<_> = (0..cfg.leaves)
        .map(|i| ts.add_object(format!("Leaf{i}"), leaf_spec.clone()))
        .collect();
    let pages: Vec<Vec<_>> = (0..cfg.leaves)
        .map(|l| {
            (0..cfg.pages_per_leaf)
                .map(|p| ts.add_object(format!("Page{l}_{p}"), page_spec.clone()))
                .collect()
        })
        .collect();

    let mut prims_per_txn: OpPrims = Vec::new();
    for t in 0..cfg.txns {
        let mut ops = Vec::new();
        let mut b = ts.txn(format!("T{}", t + 1));
        for _ in 0..cfg.ops_per_txn {
            let l = rng.gen_range(0..cfg.leaves);
            let k = rng.gen_range(0..cfg.keys_per_leaf);
            let p = rng.gen_range(0..cfg.pages_per_leaf);
            let is_search = rng.gen_bool(cfg.search_fraction);
            let m = if is_search { "search" } else { "insert" };
            b.call(
                leaves[l],
                ActionDescriptor::new(m, vec![key(format!("k{k}"))]),
            );
            let mut prims = vec![b.leaf(pages[l][p], ActionDescriptor::nullary("read"))];
            if !is_search {
                prims.push(b.leaf(pages[l][p], ActionDescriptor::nullary("write")));
            }
            b.end();
            ops.push(prims);
        }
        b.finish();
        prims_per_txn.push(ops);
    }
    (ts, prims_per_txn)
}

/// Sample `samples` random conform interleavings and count acceptances.
pub fn acceptance_rates(cfg: &AcceptanceConfig, samples: usize, seed: u64) -> AcceptanceRates {
    let (ts, prims) = build_system(cfg, true);
    let (ts_flat, prims_flat) = build_system(cfg, false);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = AcceptanceRates {
        samples,
        ..Default::default()
    };
    for _ in 0..samples {
        // one random interleaving shape shared by both systems (their
        // transaction structures are identical by construction)
        let order = random_interleaving(&prims, &mut rng);
        let h = History::from_order(&ts, &order).expect("valid interleaving");
        let r = analyze(&ts, &h);
        let conv_ok = r.conventional.is_ok();
        let oo_ok = r.oo_decentralized.is_ok();
        if conv_ok {
            out.conventional += 1;
            if !oo_ok {
                out.inclusion_violations += 1;
            }
        }
        if oo_ok {
            out.oo += 1;
        }
        if r.oo_global.is_ok() {
            out.oo_global += 1;
        }
        // ablated system: same positions, flat semantics
        let order_flat: Vec<ActionIdx> = order
            .iter()
            .map(|a| map_action(&prims, &prims_flat, *a))
            .collect();
        let h_flat = History::from_order(&ts_flat, &order_flat).expect("valid interleaving");
        if analyze(&ts_flat, &h_flat).oo_decentralized.is_ok() {
            out.oo_no_semantics += 1;
        }
    }
    out
}

/// Translate an action of the semantic system into the corresponding
/// action of the ablated twin (identical construction order).
fn map_action(prims: &OpPrims, prims_flat: &OpPrims, a: ActionIdx) -> ActionIdx {
    for (t, ops) in prims.iter().enumerate() {
        for (o, row) in ops.iter().enumerate() {
            if let Some(i) = row.iter().position(|&x| x == a) {
                return prims_flat[t][o][i];
            }
        }
    }
    unreachable!("action belongs to some transaction");
}

/// Random order-preserving merge of the per-transaction operation lists;
/// each operation's primitives stay contiguous (operation atomicity).
fn random_interleaving(prims: &OpPrims, rng: &mut StdRng) -> Vec<ActionIdx> {
    let mut cursors = vec![0usize; prims.len()];
    let mut out = Vec::new();
    loop {
        let live: Vec<usize> = (0..prims.len())
            .filter(|&i| cursors[i] < prims[i].len())
            .collect();
        if live.is_empty() {
            return out;
        }
        let pick = live[rng.gen_range(0..live.len())];
        out.extend_from_slice(&prims[pick][cursors[pick]]);
        cursors[pick] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusion_holds_and_oo_accepts_at_least_conventional() {
        let cfg = AcceptanceConfig::default();
        let r = acceptance_rates(&cfg, 200, 1);
        assert_eq!(r.samples, 200);
        assert_eq!(r.inclusion_violations, 0);
        assert!(
            r.oo >= r.conventional,
            "oo {} < conventional {}",
            r.oo,
            r.conventional
        );
        // global strengthening can only reject more than decentralized
        assert!(r.oo_global <= r.oo);
    }

    #[test]
    fn semantics_ablation_collapses_the_gain() {
        // with all-conflict matrices, nothing commutes: the oo definition
        // degenerates and accepts no more than the semantic version
        let cfg = AcceptanceConfig {
            txns: 3,
            ops_per_txn: 2,
            leaves: 1,
            keys_per_leaf: 8, // mostly distinct keys: big semantic gain
            pages_per_leaf: 1,
            search_fraction: 0.0,
            seed: 5,
        };
        let r = acceptance_rates(&cfg, 300, 2);
        assert!(
            r.oo > r.oo_no_semantics,
            "semantic gain expected: oo={} ablated={}",
            r.oo,
            r.oo_no_semantics
        );
        assert!(
            r.oo_no_semantics <= r.conventional + r.samples / 10,
            "ablated oo should be near conventional: ablated={} conv={}",
            r.oo_no_semantics,
            r.conventional
        );
    }

    #[test]
    fn rates_are_deterministic() {
        let cfg = AcceptanceConfig::default();
        let a = acceptance_rates(&cfg, 50, 9);
        let b = acceptance_rates(&cfg, 50, 9);
        assert_eq!(a, b);
    }
}
