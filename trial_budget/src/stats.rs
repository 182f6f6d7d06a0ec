//! Order statistics for segment timings and trial-latency samples.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Interquartile range as a share of the median (0 when the median
    /// is 0) — the spread the benchmark contract gates on.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty sample: every caller has at least one
/// segment.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method), so the spread printed here
/// is the spread the driver will compute. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// The tail percentile to report for a latency sample: p95 when there
/// are at least 200 samples; otherwise the highest percentile that
/// still has ten samples beyond it; `None` when even that does not
/// exist (ten samples or fewer). Returns `(percentile, value)`.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n >= 200 {
        // Nearest-rank p95: at least 5 % of the samples (≥ 10) lie beyond.
        let rank = ((0.95 * n as f64).ceil() as usize).clamp(1, n);
        return Some((95.0, v[rank - 1]));
    }
    if n <= 10 {
        return None;
    }
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let q = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!((quartiles(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // ≥ 200 samples: p95.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((95.0, 190.0)));
        // 50 samples: ten beyond → the 40th value, p80.
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (pct, value) = tail_percentile(&v).unwrap();
        assert_eq!(value, 40.0);
        assert!((pct - 80.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // 11 samples: only the minimum has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).unwrap().1, 1.0);
        // ≤ 10 samples: no percentile qualifies.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        assert_eq!(tail_percentile(&[]), None);
    }
}
