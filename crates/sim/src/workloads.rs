//! Workload generators.
//!
//! Two families, matching the paper's running example and Figure 1's
//! contrast:
//!
//! * **Encyclopedia** — the §2 running example: keyed inserts, searches,
//!   item changes, deletions, sequential reads and range queries over the
//!   B⁺-tree + item-list database, with uniform or Zipf key skew. The
//!   operations themselves ([`EncOp`], [`EncWorkload`]) belong to
//!   [`oodb_btree::ops`] and are re-exported here.
//! * **Banking** — Figure 1's "conventional transactions": short
//!   operations on small account objects (deposit / withdraw / transfer /
//!   balance).

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use oodb_btree::ops::{EncOp, EncWorkload};

/// Operation-mix ratios (need not sum to 1; normalized internally).
#[derive(Debug, Clone, Copy)]
pub struct EncMix {
    /// Weight of inserts.
    pub insert: f64,
    /// Weight of searches.
    pub search: f64,
    /// Weight of item changes.
    pub change: f64,
    /// Weight of deletions.
    pub delete: f64,
    /// Weight of sequential scans.
    pub read_seq: f64,
    /// Weight of range queries.
    pub range: f64,
}

impl EncMix {
    /// A read-mostly mix (70% search).
    pub fn read_mostly() -> Self {
        EncMix {
            insert: 0.15,
            search: 0.70,
            change: 0.10,
            delete: 0.04,
            read_seq: 0.01,
            range: 0.0,
        }
    }

    /// An update-heavy mix.
    pub fn update_heavy() -> Self {
        EncMix {
            insert: 0.40,
            search: 0.20,
            change: 0.30,
            delete: 0.08,
            read_seq: 0.02,
            range: 0.0,
        }
    }

    /// Insert-only (pure index growth, the Example 1 situation).
    pub fn insert_only() -> Self {
        EncMix {
            insert: 1.0,
            search: 0.0,
            change: 0.0,
            delete: 0.0,
            read_seq: 0.0,
            range: 0.0,
        }
    }

    /// Analytics-flavoured mix: range queries against concurrent inserts
    /// (the phantom battleground of experiment B8).
    pub fn range_heavy() -> Self {
        EncMix {
            insert: 0.45,
            search: 0.10,
            change: 0.0,
            delete: 0.0,
            read_seq: 0.0,
            range: 0.45,
        }
    }
}

/// Key-popularity skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Every key equally likely.
    Uniform,
    /// Zipf with the given exponent (1.0 = classic).
    Zipf(f64),
}

/// Configuration of an encyclopedia workload.
#[derive(Debug, Clone)]
pub struct EncWorkloadConfig {
    /// Number of concurrent transactions.
    pub txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Size of the key universe.
    pub key_space: usize,
    /// Operation mix.
    pub mix: EncMix,
    /// Key skew.
    pub skew: Skew,
    /// RNG seed (workloads are fully deterministic).
    pub seed: u64,
    /// Keys preloaded before the measured transactions run.
    pub preload: usize,
}

impl Default for EncWorkloadConfig {
    fn default() -> Self {
        EncWorkloadConfig {
            txns: 8,
            ops_per_txn: 10,
            key_space: 200,
            mix: EncMix::read_mostly(),
            skew: Skew::Uniform,
            seed: 42,
            preload: 100,
        }
    }
}

/// Simple Zipf sampler over `0..n` (rank 1 most popular).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }
}

impl Distribution<usize> for ZipfSampler {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Key name for index `i` (zero-padded so lexicographic = numeric order).
pub fn key_name(i: usize) -> String {
    format!("k{i:06}")
}

/// Generate an encyclopedia workload.
pub fn encyclopedia_workload(cfg: &EncWorkloadConfig) -> EncWorkload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zipf = match cfg.skew {
        Skew::Zipf(s) => Some(ZipfSampler::new(cfg.key_space, s)),
        Skew::Uniform => None,
    };
    let pick_key = |rng: &mut StdRng| -> String {
        let i = match &zipf {
            Some(z) => z.sample(rng),
            None => rng.gen_range(0..cfg.key_space),
        };
        key_name(i)
    };
    let preload_keys: Vec<String> = (0..cfg.preload.min(cfg.key_space)).map(key_name).collect();
    let weights = [
        cfg.mix.insert,
        cfg.mix.search,
        cfg.mix.change,
        cfg.mix.delete,
        cfg.mix.read_seq,
        cfg.mix.range,
    ];
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "operation mix must have positive weight");
    let mut txn_ops = Vec::with_capacity(cfg.txns);
    for _ in 0..cfg.txns {
        let mut ops = Vec::with_capacity(cfg.ops_per_txn);
        for _ in 0..cfg.ops_per_txn {
            let mut u = rng.gen_range(0.0..total);
            let mut choice = 0usize;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    choice = i;
                    break;
                }
                u -= w;
            }
            let op = match choice {
                0 => EncOp::Insert(pick_key(&mut rng)),
                1 => EncOp::Search(pick_key(&mut rng)),
                2 => EncOp::Change(pick_key(&mut rng)),
                3 => EncOp::Delete(pick_key(&mut rng)),
                4 => EncOp::ReadSeq,
                _ => {
                    // a window of ~1/16 of the key space
                    let width = (cfg.key_space / 16).max(1);
                    let lo = rng.gen_range(0..cfg.key_space);
                    let hi = (lo + width).min(cfg.key_space - 1);
                    EncOp::Range(key_name(lo), key_name(hi))
                }
            };
            ops.push(op);
        }
        txn_ops.push(ops);
    }
    EncWorkload {
        preload_keys,
        txn_ops,
    }
}

/// One banking operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankOp {
    /// Deposit `amount` into account `acc`.
    Deposit {
        /// Target account index.
        acc: usize,
        /// Amount.
        amount: i64,
    },
    /// Withdraw `amount` from account `acc`.
    Withdraw {
        /// Source account index.
        acc: usize,
        /// Amount.
        amount: i64,
    },
    /// Move `amount` between two accounts.
    Transfer {
        /// Source account index.
        from: usize,
        /// Target account index.
        to: usize,
        /// Amount.
        amount: i64,
    },
    /// Read an account balance.
    Balance {
        /// Account index.
        acc: usize,
    },
}

/// Configuration of a banking workload.
#[derive(Debug, Clone)]
pub struct BankWorkloadConfig {
    /// Number of concurrent transactions.
    pub txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Number of accounts.
    pub accounts: usize,
    /// Fraction of balance reads (the rest are updates).
    pub read_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BankWorkloadConfig {
    fn default() -> Self {
        BankWorkloadConfig {
            txns: 8,
            ops_per_txn: 6,
            accounts: 16,
            read_fraction: 0.2,
            seed: 7,
        }
    }
}

/// Generate a banking workload.
pub fn banking_workload(cfg: &BankWorkloadConfig) -> Vec<Vec<BankOp>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.txns)
        .map(|_| {
            (0..cfg.ops_per_txn)
                .map(|_| {
                    let acc = rng.gen_range(0..cfg.accounts);
                    if rng.gen_bool(cfg.read_fraction) {
                        BankOp::Balance { acc }
                    } else {
                        match rng.gen_range(0..3) {
                            0 => BankOp::Deposit {
                                acc,
                                amount: rng.gen_range(1..100),
                            },
                            1 => BankOp::Withdraw {
                                acc,
                                amount: rng.gen_range(1..50),
                            },
                            _ => BankOp::Transfer {
                                from: acc,
                                to: (acc + 1 + rng.gen_range(0..cfg.accounts - 1)) % cfg.accounts,
                                amount: rng.gen_range(1..50),
                            },
                        }
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encyclopedia_workload_is_deterministic() {
        let cfg = EncWorkloadConfig::default();
        let a = encyclopedia_workload(&cfg);
        let b = encyclopedia_workload(&cfg);
        assert_eq!(a.txn_ops, b.txn_ops);
        assert_eq!(a.preload_keys, b.preload_keys);
        assert_eq!(a.txn_ops.len(), cfg.txns);
        assert!(a.txn_ops.iter().all(|t| t.len() == cfg.ops_per_txn));
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = EncWorkloadConfig::default();
        let a = encyclopedia_workload(&cfg);
        cfg.seed = 43;
        let b = encyclopedia_workload(&cfg);
        assert_ne!(a.txn_ops, b.txn_ops);
    }

    #[test]
    fn insert_only_mix_generates_only_inserts() {
        let cfg = EncWorkloadConfig {
            mix: EncMix::insert_only(),
            ..Default::default()
        };
        let w = encyclopedia_workload(&cfg);
        assert!(w
            .txn_ops
            .iter()
            .flatten()
            .all(|op| matches!(op, EncOp::Insert(_))));
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let z = ZipfSampler::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<usize> = (0..5000).map(|_| z.sample(&mut rng)).collect();
        let low = samples.iter().filter(|&&s| s < 10).count();
        let high = samples.iter().filter(|&&s| s >= 90).count();
        assert!(
            low > high * 3,
            "zipf must prefer popular ranks: low={low} high={high}"
        );
        assert!(samples.iter().all(|&s| s < 100));
    }

    #[test]
    fn banking_ops_within_ranges() {
        let cfg = BankWorkloadConfig::default();
        let w = banking_workload(&cfg);
        assert_eq!(w.len(), cfg.txns);
        for op in w.iter().flatten() {
            match op {
                BankOp::Deposit { acc, amount } | BankOp::Withdraw { acc, amount } => {
                    assert!(*acc < cfg.accounts);
                    assert!(*amount > 0);
                }
                BankOp::Transfer { from, to, amount } => {
                    assert!(*from < cfg.accounts && *to < cfg.accounts);
                    assert_ne!(from, to);
                    assert!(*amount > 0);
                }
                BankOp::Balance { acc } => assert!(*acc < cfg.accounts),
            }
        }
    }

    #[test]
    fn key_names_sort_numerically() {
        assert!(key_name(9) < key_name(10));
        assert!(key_name(99) < key_name(100));
    }
}
