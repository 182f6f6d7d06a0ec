//! Error-propagation profiles across MPI ranks (paper §3.2).
//!
//! For a 1-error-per-test deployment at scale `p`, the profile histograms
//! "how many ranks were contaminated by the end of the run" over all
//! tests. Observation 3: grouping a large-scale profile into `S` uniform
//! groups reproduces the small-scale (`S`-rank) profile — quantified by
//! cosine similarity (Table 2, Figures 1–2).

use resilim_inject::TestOutcome;
use serde::{Deserialize, Serialize};

/// Histogram of contaminated-rank counts for a fault-injection deployment
/// at scale `p`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagationProfile {
    /// Scale of the deployment (number of ranks).
    pub p: usize,
    /// `counts[x-1]` = number of tests that contaminated exactly `x` ranks.
    pub counts: Vec<u64>,
}

impl PropagationProfile {
    /// Empty profile for scale `p`.
    pub fn new(p: usize) -> PropagationProfile {
        PropagationProfile {
            p,
            counts: vec![0; p],
        }
    }

    /// Build from test outcomes; contamination counts are clamped to
    /// `[1, p]` (a fired injection contaminates at least its own rank).
    pub fn from_outcomes<'a>(
        p: usize,
        outcomes: impl IntoIterator<Item = &'a TestOutcome>,
    ) -> PropagationProfile {
        let mut prof = PropagationProfile::new(p);
        for o in outcomes {
            prof.record(o);
        }
        prof
    }

    /// Record one test.
    pub fn record(&mut self, o: &TestOutcome) {
        let x = (o.contaminated_ranks as usize).clamp(1, self.p);
        self.counts[x - 1] += 1;
    }

    /// Total number of recorded tests.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `r_x` — the probability that exactly `x` ranks end up contaminated
    /// (Eq. 3). `x` is 1-based.
    pub fn r(&self, x: usize) -> f64 {
        let total = self.total();
        if total == 0 || x == 0 || x > self.p {
            return 0.0;
        }
        self.counts[x - 1] as f64 / total as f64
    }

    /// All `r_x` as a vector (index 0 ↔ x = 1).
    pub fn r_vec(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }

    /// Group the profile into `groups` uniform buckets (Figure 1c): bucket
    /// `j` (1-based) aggregates `x ∈ ((j−1)·p/groups, j·p/groups]`.
    /// Returns the per-bucket probability mass.
    pub fn group(&self, groups: usize) -> Vec<f64> {
        assert!(groups >= 1 && groups <= self.p, "need 1 ≤ groups ≤ p");
        assert!(
            self.p.is_multiple_of(groups),
            "uniform grouping needs groups | p ({} into {})",
            self.p,
            groups
        );
        let width = self.p / groups;
        let total = self.total().max(1) as f64;
        (0..groups)
            .map(|j| self.counts[j * width..(j + 1) * width].iter().sum::<u64>() as f64 / total)
            .collect()
    }

    /// Merge another profile (same `p`).
    pub fn merge(&mut self, other: &PropagationProfile) {
        assert_eq!(self.p, other.p, "cannot merge profiles of different scales");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }
}

/// Cosine similarity of two non-negative vectors, in `[0, 1]`
/// (the paper's Table 2 metric). Zero vectors yield 0.
///
/// ```
/// use resilim_core::cosine_similarity;
/// let small = [0.77, 0.0, 0.01, 0.22];          // 4-rank histogram
/// let grouped = [0.75, 0.01, 0.02, 0.22];       // grouped 64-rank histogram
/// assert!(cosine_similarity(&small, &grouped) > 0.99);
/// ```
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine similarity needs equal lengths");
    let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(p: usize, data: &[(usize, u64)]) -> PropagationProfile {
        let mut prof = PropagationProfile::new(p);
        for &(x, n) in data {
            prof.counts[x - 1] = n;
        }
        prof
    }

    #[test]
    fn r_values_normalize() {
        crate::verifies!(EQ3);
        let prof = profile(8, &[(1, 77), (8, 22), (3, 1)]);
        assert_eq!(prof.total(), 100);
        assert!((prof.r(1) - 0.77).abs() < 1e-12);
        assert!((prof.r(8) - 0.22).abs() < 1e-12);
        assert_eq!(prof.r(0), 0.0);
        assert_eq!(prof.r(9), 0.0);
        let sum: f64 = prof.r_vec().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_clamps() {
        let mut prof = PropagationProfile::new(4);
        prof.record(&TestOutcome::sdc(0, 1)); // clamped to 1
        prof.record(&TestOutcome::sdc(9, 1)); // clamped to 4
        assert_eq!(prof.counts, vec![1, 0, 0, 1]);
    }

    #[test]
    fn grouping_preserves_mass() {
        crate::verifies!(EQ5);
        let prof = profile(64, &[(1, 70), (2, 5), (33, 3), (64, 22)]);
        let g = prof.group(8);
        assert_eq!(g.len(), 8);
        let sum: f64 = g.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // x = 1, 2 fall in group 1; x = 33 in group 5; x = 64 in group 8.
        assert!((g[0] - 0.75).abs() < 1e-12);
        assert!((g[4] - 0.03).abs() < 1e-12);
        assert!((g[7] - 0.22).abs() < 1e-12);
    }

    #[test]
    fn paper_fig1_grouping_scenario() {
        crate::verifies!(EQ5, O3);
        // CG-style bimodal: the grouped 64-rank profile must match the
        // 8-rank profile almost perfectly.
        let small = profile(8, &[(1, 77), (8, 22), (4, 1)]);
        let large = profile(64, &[(1, 76), (2, 2), (64, 22)]);
        let sim = cosine_similarity(&small.r_vec(), &large.group(8));
        assert!(sim > 0.99, "sim = {sim}");
    }

    #[test]
    fn divergent_profiles_have_low_similarity() {
        crate::verifies!(O3, TABLE2);
        // Paper's CG 4V64 case: 4-rank execution propagates almost always,
        // 64-rank execution mostly does not.
        let small = profile(4, &[(4, 95), (1, 5)]);
        let large = profile(64, &[(1, 75), (64, 25)]);
        let sim = cosine_similarity(&small.r_vec(), &large.group(4));
        assert!(sim < 0.5, "sim = {sim}");
    }

    #[test]
    fn cosine_similarity_properties() {
        let a = [0.5, 0.5];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn merge_profiles() {
        crate::verifies!(INV_MERGE);
        let mut a = profile(4, &[(1, 10)]);
        let b = profile(4, &[(1, 5), (4, 5)]);
        a.merge(&b);
        assert_eq!(a.counts, vec![15, 0, 0, 5]);
    }

    #[test]
    #[should_panic(expected = "different scales")]
    fn merge_rejects_scale_mismatch() {
        let mut a = PropagationProfile::new(4);
        a.merge(&PropagationProfile::new(8));
    }

    #[test]
    #[should_panic(expected = "uniform grouping")]
    fn group_rejects_non_divisor() {
        profile(64, &[(1, 1)]).group(7);
    }
}
