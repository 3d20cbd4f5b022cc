//! Order statistics the harness reports: medians over repetitions and
//! the highest percentile a sample can support.

/// Sort a copy; NaNs are a harness bug.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median (mean of the two middle values for an even count); 0.0 when
/// empty, which the callers print with its sample count of 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-quantile with linear interpolation between the two nearest
/// order statistics (position `p·(n−1)`); 0.0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of the best quarter of `values` (rounded up: the best two of
/// eight, the best one of three); 0.0 when empty.
pub fn best_quarter_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = sorted(values);
    if higher_is_better {
        v.reverse();
    }
    let keep = v.len().div_ceil(4);
    if keep == 0 {
        0.0
    } else {
        v[..keep].iter().sum::<f64>() / keep as f64
    }
}

/// The five-number summary of one end-to-end metric over a run's
/// repetitions — what a result file keeps beside the reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            min: quantile(values, 0.0),
            q1: quantile(values, 0.25),
            median: median(values),
            q3: quantile(values, 0.75),
            max: quantile(values, 1.0),
            n: values.len(),
        }
    }
}

/// The `q`-quantile by nearest rank on already sorted values.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p99.9 / p99 / p90 that has at least ten samples
/// beyond it, with its label; falls back to the maximum (`max`) on
/// fewer than 100 samples.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    let v = sorted(values);
    if v.is_empty() {
        return (0.0, "max");
    }
    for (q, label) in [(0.999, "p99.9"), (0.99, "p99"), (0.90, "p90")] {
        let rank = (q * v.len() as f64).ceil() as usize;
        if v.len() - rank >= 10 {
            return (quantile_sorted(&v, q), label);
        }
    }
    (v[v.len() - 1], "max")
}

/// Distance between the first and third quartile as a share of the
/// median, with the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the spread the driver gates on.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // position k·(n+1)/4, 1-based, clamped to the data
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn five_numbers_over_repetitions() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.0, 3.0, 3));
        assert_eq!((s.q1, s.q3), (1.5, 2.5));
        assert_eq!(Summary::of(&[4.0, 2.0]).median, 3.0);
        assert_eq!(Summary::of(&[]).n, 0);
        // nine repetitions: the quartiles are the 3rd and the 7th value
        let r = Summary::of(&ramp(9));
        assert_eq!((r.q1, r.median, r.q3), (3.0, 5.0, 7.0));
        // eight: position 0.25·7 = 1.75 between the 2nd and the 3rd
        assert_eq!(Summary::of(&ramp(8)).q1, 2.75);
    }

    #[test]
    fn best_quarter_is_rounded_up_and_follows_the_direction() {
        // eight repetitions: the two lowest, or the two highest
        assert_eq!(best_quarter_mean(&ramp(8), false), 1.5);
        assert_eq!(best_quarter_mean(&ramp(8), true), 7.5);
        // nine: three; three: one
        assert_eq!(best_quarter_mean(&ramp(9), false), 2.0);
        assert_eq!(best_quarter_mean(&[5.0, 3.0, 4.0], true), 5.0);
        assert_eq!(best_quarter_mean(&[], true), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 3000 samples: p99.9 leaves 3 beyond, p99 leaves 30
        assert_eq!(tail(&ramp(3000)), (2970.0, "p99"));
        // 10000 samples: p99.9 leaves exactly 10
        assert_eq!(tail(&ramp(10_000)), (9990.0, "p99.9"));
        // 100 samples: p99 leaves 1, p90 leaves 10
        assert_eq!(tail(&ramp(100)), (90.0, "p90"));
        // 99 samples: p90 leaves 9 — nothing qualifies
        assert_eq!(tail(&ramp(99)), (99.0, "max"));
        assert_eq!(tail(&[]), (0.0, "max"));
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let got = iqr_share(&ramp(10));
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
    }
}
