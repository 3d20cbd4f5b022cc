//! Benchmark-owned input generation: the seven workloads, a seeded
//! PRNG, and uniform/Zipf key pickers that emit `Vec<EncOp>`.
//!
//! Nothing here calls `oodb_sim::encyclopedia_workload` or the `rand`
//! shim: the inputs are part of the benchmark's definition, so a later
//! refactor of `sim` cannot silently change what is measured. The
//! checksum test at the bottom pins the streams.

use oodb_engine::CcKind;
use oodb_sim::EncOp;
use std::collections::BTreeMap;

/// Operations per transaction, on every workload.
pub const OPS_PER_TXN: usize = 6;

/// `run_seconds` of `BENCHMARK.json`.
pub const NOMINAL_SECONDS: u64 = 30;

/// Repetitions in a run of `seconds`: eight at [`NOMINAL_SECONDS`]. A
/// longer run repeats more often; it never lengthens a repetition,
/// because per-commit cost grows with the history behind it and the
/// transaction counts are part of each workload's definition.
pub fn reps(seconds: u64) -> usize {
    (seconds * 4 / 15).clamp(3, 16) as usize
}

/// SplitMix64: tiny, seedable, and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Self {
        Prng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias < 2⁻⁴⁰ for our `n`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How keys are picked from `0..key_space`.
#[derive(Debug, Clone)]
pub enum KeyPicker {
    Uniform(usize),
    /// Cumulative Zipf weights; rank 0 is the hottest key.
    Zipf(Vec<f64>),
}

impl KeyPicker {
    pub fn zipf(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        KeyPicker::Zipf(cdf)
    }

    pub fn pick(&self, rng: &mut Prng) -> usize {
        match self {
            KeyPicker::Uniform(n) => rng.below(*n),
            KeyPicker::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&p| p <= u).min(cdf.len() - 1)
            }
        }
    }
}

/// Key `i`, zero-padded so lexicographic order is numeric order.
pub fn key_name(i: usize) -> String {
    format!("k{i:06}")
}

/// Operation shares in tenths of a percent; they sum to 1000.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub search: u32,
    pub range: u32,
    pub insert: u32,
    pub change: u32,
    pub delete: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    Uniform,
    Zipf(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preload {
    None,
    /// Every second key (the even indices), so half the universe exists.
    Half,
    All,
}

/// One workload of the benchmark. Everything the engine is configured
/// with and everything the generator draws from is stated here.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and applies the
    /// bounds. The others run under `run` / `trace` / `spread` only: the
    /// driver's time limit leaves room for four workloads at 30 s.
    pub gated: bool,
    pub cc: CcKind,
    pub shards: usize,
    pub pool_frames: usize,
    pub durable: bool,
    pub key_space: usize,
    pub preload: Preload,
    pub skew: Skew,
    pub mix: Mix,
    /// Keys covered by one range operation.
    pub range_window: usize,
    /// Loaded-phase transactions per repetition.
    pub loaded: usize,
    /// Serial-phase transactions per repetition.
    pub serial: usize,
}

const READ_ONLY: Mix = Mix {
    search: 1000,
    range: 0,
    insert: 0,
    change: 0,
    delete: 0,
};

/// 80 % search, 5 % range, 15 % writes split 50/40/10.
const OCC_MIX: Mix = Mix {
    search: 800,
    range: 50,
    insert: 75,
    change: 60,
    delete: 15,
};

/// The seven workloads; `BENCHMARK.json` lists the gated four in this
/// order.
pub fn specs() -> Vec<Spec> {
    let base = Spec {
        name: "",
        why: "",
        gated: false,
        cc: CcKind::Pessimistic,
        shards: 1,
        pool_frames: 4096,
        durable: false,
        key_space: 4096,
        preload: Preload::All,
        skew: Skew::Uniform,
        mix: READ_ONLY,
        range_window: 16,
        loaded: 0,
        serial: 0,
    };
    vec![
        Spec {
            name: "read_fit",
            why: "point reads over 4096 keys in a pool that holds them all: the uncontended CPU path the cost ledger reconciles",
            gated: true,
            loaded: 10_000,
            serial: 4_000,
            ..base.clone()
        },
        Spec {
            name: "read_cold",
            why: "the same reads over 8192 keys with 128 pool frames (<10% resident): only the miss/evict/write-back path differs from read_fit",
            key_space: 8192,
            pool_frames: 128,
            loaded: 5_000,
            serial: 2_000,
            ..base.clone()
        },
        Spec {
            name: "insert_grow",
            why: "inserts of uniform keys from a 900000-key universe into an empty tree: X-latch coupling, splits, page allocation, growth",
            key_space: 900_000,
            preload: Preload::None,
            mix: Mix { search: 0, insert: 1000, ..READ_ONLY },
            loaded: 3_500,
            serial: 2_000,
            ..base.clone()
        },
        Spec {
            name: "hot_update",
            why: "Zipf 0.99 over 32 keys, 80% writes: semantic lock conflicts, waits, deadlock victims, compensation and retry",
            key_space: 32,
            preload: Preload::Half,
            skew: Skew::Zipf(0.99),
            mix: Mix { search: 200, range: 0, insert: 100, change: 600, delete: 100 },
            gated: true,
            loaded: 10_000,
            serial: 8_000,
            ..base.clone()
        },
        Spec {
            name: "occ_mixed",
            why: "optimistic MVCC + incremental certification on one shard, 80% reads over 256 keys: the single-shard certifier cliff",
            cc: CcKind::Optimistic,
            key_space: 256,
            preload: Preload::Half,
            mix: OCC_MIX,
            gated: true,
            loaded: 50,
            serial: 100,
            ..base.clone()
        },
        Spec {
            name: "occ_mixed_sh4",
            why: "the occ_mixed operations on 4 shards: component-scoped validation, guards the sharded path when occ_mixed is optimised",
            cc: CcKind::Optimistic,
            shards: 4,
            key_space: 256,
            preload: Preload::Half,
            mix: OCC_MIX,
            loaded: 1_800,
            serial: 1_000,
            ..base.clone()
        },
        Spec {
            name: "durable_write",
            why: "80% writes on 4 shards with group commit (8, 200us) and 50us fsync: the only run that logs, group-commits and recovers",
            shards: 4,
            durable: true,
            preload: Preload::Half,
            mix: Mix { search: 200, range: 0, insert: 400, change: 320, delete: 80 },
            gated: true,
            loaded: 4_000,
            serial: 2_000,
            ..base
        },
    ]
}

pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The workload shrunk for the audited verification run: the audit
    /// is quadratic in the preload transaction's length (4096 preloaded
    /// keys cost 23 s, 8192 cost 92 s), so a preloaded key space is cut
    /// to 256 keys. Operations, mix, skew and engine shape are unchanged.
    pub fn for_verification(&self) -> Spec {
        let mut s = self.clone();
        if s.preload != Preload::None {
            s.key_space = s.key_space.min(256);
        }
        s
    }

    pub fn preload_keys(&self) -> Vec<String> {
        match self.preload {
            Preload::None => Vec::new(),
            Preload::Half => (0..self.key_space).step_by(2).map(key_name).collect(),
            Preload::All => (0..self.key_space).map(key_name).collect(),
        }
    }

    /// `txns` transactions of [`OPS_PER_TXN`] operations. `stream`
    /// separates the phases of one run: the same `(seed, stream)` always
    /// gives the same transactions, and a longer request extends a
    /// shorter one.
    pub fn transactions(&self, seed: u64, stream: u64, txns: usize) -> Vec<Vec<EncOp>> {
        let m = self.mix;
        assert_eq!(
            m.search + m.range + m.insert + m.change + m.delete,
            1000,
            "{}: mix",
            self.name
        );
        let mut rng = Prng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let picker = match self.skew {
            Skew::Uniform => KeyPicker::Uniform(self.key_space),
            Skew::Zipf(theta) => KeyPicker::zipf(self.key_space, theta),
        };
        (0..txns)
            .map(|_| {
                (0..OPS_PER_TXN)
                    .map(|_| self.op(&mut rng, &picker))
                    .collect()
            })
            .collect()
    }

    fn op(&self, rng: &mut Prng, picker: &KeyPicker) -> EncOp {
        let m = self.mix;
        let draw = rng.below(1000) as u32;
        let k = picker.pick(rng);
        if draw < m.search {
            EncOp::Search(key_name(k))
        } else if draw < m.search + m.range {
            let hi = (k + self.range_window - 1).min(self.key_space - 1);
            EncOp::Range(key_name(k), key_name(hi))
        } else if draw < m.search + m.range + m.insert {
            EncOp::Insert(key_name(k))
        } else if draw < m.search + m.range + m.insert + m.change {
            EncOp::Change(key_name(k))
        } else {
            EncOp::Delete(key_name(k))
        }
    }
}

/// The database a serial execution of `txns` must end in: the same
/// operations applied in order to a `BTreeMap`. Transaction `i` (0-based
/// submission order) writes with value tag `i + 1`, as the engine does.
pub fn oracle(preload: &[String], txns: &[Vec<EncOp>]) -> Vec<(String, String)> {
    let mut db: BTreeMap<String, String> = BTreeMap::new();
    let setup: Vec<EncOp> = preload.iter().cloned().map(EncOp::Insert).collect();
    for (tag, ops) in
        std::iter::once((0, &setup)).chain(txns.iter().enumerate().map(|(i, t)| (i + 1, t)))
    {
        for op in ops {
            let text = oodb_sim::exec::write_text(op, tag);
            match op {
                EncOp::Insert(k) => {
                    db.entry(k.clone())
                        .or_insert_with(|| text.expect("insert writes"));
                }
                EncOp::Change(k) => {
                    if let Some(v) = db.get_mut(k) {
                        *v = text.expect("change writes");
                    }
                }
                EncOp::Delete(k) => {
                    db.remove(k);
                }
                EncOp::Search(_) | EncOp::Range(..) | EncOp::ReadSeq => {}
            }
        }
    }
    db.into_iter().collect()
}

/// FNV-1a over a canonical byte form of the transactions.
#[cfg(test)]
pub fn checksum(txns: &[Vec<EncOp>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ops in txns {
        for op in ops {
            let (tag, a, b) = match op {
                EncOp::Insert(k) => (b'I', k.as_str(), ""),
                EncOp::Search(k) => (b'S', k.as_str(), ""),
                EncOp::Change(k) => (b'C', k.as_str(), ""),
                EncOp::Delete(k) => (b'D', k.as_str(), ""),
                EncOp::Range(lo, hi) => (b'R', lo.as_str(), hi.as_str()),
                EncOp::ReadSeq => (b'Q', "", ""),
            };
            eat(&[tag]);
            eat(a.as_bytes());
            eat(&[0xff]);
            eat(b.as_bytes());
        }
        eat(&[0xfe]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_1000() {
        for s in specs() {
            let m = s.mix;
            assert_eq!(
                m.search + m.range + m.insert + m.change + m.delete,
                1000,
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let p = KeyPicker::zipf(32, 0.99);
        let mut rng = Prng::new(1);
        let mut hits = [0usize; 32];
        for _ in 0..20_000 {
            hits[p.pick(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[31]);
    }

    #[test]
    fn a_longer_stream_extends_a_shorter_one() {
        let s = spec("hot_update").unwrap();
        let short = s.transactions(42, 1, 50);
        let long = s.transactions(42, 1, 80);
        assert_eq!(short[..], long[..50]);
        assert_ne!(s.transactions(42, 2, 50), short, "streams are independent");
    }

    #[test]
    fn oracle_applies_the_encyclopedia_semantics() {
        let txns = vec![
            vec![EncOp::Insert("a".into()), EncOp::Insert("b".into())],
            vec![
                EncOp::Insert("a".into()),
                EncOp::Change("b".into()),
                EncOp::Change("z".into()),
            ],
            vec![EncOp::Delete("p".into()), EncOp::Search("a".into())],
        ];
        let got = oracle(&["p".to_string()], &txns);
        assert_eq!(
            got,
            vec![
                ("a".to_string(), "text for a".to_string()),
                ("b".to_string(), "changed by 2".to_string()),
            ]
        );
    }

    /// The inputs are the benchmark: a change to these numbers is a
    /// change of benchmark and needs its own issue.
    #[test]
    fn first_1000_transactions_are_pinned_at_seed_42() {
        let pinned: [(&str, u64); 7] = PINNED;
        for (name, want) in pinned {
            let s = spec(name).unwrap();
            let got = checksum(&s.transactions(42, 0, 1000));
            assert_eq!(got, want, "{name}: checksum {got:#018x}");
            assert_ne!(
                checksum(&s.transactions(43, 0, 1000)),
                got,
                "{name}: seed must matter"
            );
        }
    }

    const PINNED: [(&str, u64); 7] = [
        ("read_fit", 0x031968f28d380880),
        ("read_cold", 0x2d3cefc69242b4c3),
        ("insert_grow", 0x2212bff0b6fe8e96),
        ("hot_update", 0xbd92d28246664361),
        ("occ_mixed", 0xd907bb57d4a35ba3),
        ("occ_mixed_sh4", 0xd907bb57d4a35ba3),
        ("durable_write", 0x338d422ab2f627f7),
    ];
}
