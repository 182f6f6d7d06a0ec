//! Sparse sampling of the serial multi-error curve (paper §4.2, "Model
//! usage").
//!
//! Measuring `FI_ser_x` for every `x ∈ [1, p]` would need `p` serial
//! deployments; instead the paper measures `S` sample cases and maps every
//! `x` to its bucket's sample. The bucket of `x` is `⌈x·S/p⌉` (the uniform
//! `S`-way split of `[1, p]` that Figure 1c and Eq. 8 use).
//!
//! The paper is internally inconsistent about the sample points
//! themselves: Eq. 7's expansion uses `{1, 2p/S, 3p/S, …, p}`
//! (= bucket upper edges with `x₁ = 1`) while Eq. 8's worked example uses
//! `{1, 16, 32, 64}` for `S = 4, p = 64`. Both are provided;
//! `examples/ablations.rs` compares them (see DESIGN.md).

use serde::{Deserialize, Serialize};

/// Strategy for choosing the `S` serial sample cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SamplePoints {
    /// `{1, 2p/S, 3p/S, …, p}` — Eq. 7's points (bucket upper edges,
    /// anchored at 1). The default.
    #[default]
    BucketUpper,
    /// `{1, p/S, 2p/S, …, (S−2)p/S, p}` — the points of the paper's Eq. 8
    /// worked example (`{1, 16, 32, 64}` for `S = 4, p = 64`).
    PaperEq8,
    /// `{1, mid of bucket 2, …, mid of bucket S}` — bucket midpoints,
    /// anchored at 1 (an ablation alternative).
    BucketMid,
}

/// The 1-based bucket index of `x` under an `S`-way uniform split of
/// `[1, p]`: `⌈x·S/p⌉`.
///
/// ```
/// use resilim_core::bucket_of;
/// assert_eq!(bucket_of(16, 64, 4), 1); // FI_ser_16 ≈ bucket 1's sample
/// assert_eq!(bucket_of(17, 64, 4), 2);
/// ```
#[inline]
pub fn bucket_of(x: usize, p: usize, s: usize) -> usize {
    assert!(x >= 1 && x <= p, "x = {x} out of [1, {p}]");
    assert!(
        s >= 1 && p.is_multiple_of(s),
        "need s | p (s = {s}, p = {p})"
    );
    x.div_ceil(p / s)
}

/// The `S` sample cases of `x` for predicting scale `p` (ascending).
///
/// ```
/// use resilim_core::{sample_cases, SamplePoints};
/// // Eq. 7's points for S = 4, p = 64:
/// assert_eq!(sample_cases(64, 4, SamplePoints::BucketUpper), [1, 32, 48, 64]);
/// ```
pub fn sample_cases(p: usize, s: usize, strategy: SamplePoints) -> Vec<usize> {
    assert!(
        s >= 1 && s <= p && p.is_multiple_of(s),
        "need s | p (s = {s}, p = {p})"
    );
    if s == 1 {
        return vec![1];
    }
    let width = p / s;
    match strategy {
        SamplePoints::BucketUpper => {
            let mut v = vec![1];
            v.extend((2..=s).map(|j| j * width));
            v
        }
        SamplePoints::PaperEq8 => {
            // With one-wide buckets (s = p) the first interior point
            // `1·width` would collide with the anchor at 1; every bucket
            // is a single case, so the only valid sample set is the
            // identity.
            if width == 1 {
                return (1..=p).collect();
            }
            let mut v = vec![1];
            v.extend((1..s - 1).map(|j| j * width));
            v.push(p);
            v
        }
        SamplePoints::BucketMid => {
            let mut v = vec![1];
            v.extend((2..=s).map(|j| (j - 1) * width + width.div_ceil(2)));
            v
        }
    }
}

/// The sample case that stands in for `x` (paper: `FI_ser_x` is
/// approximated by the sample of bucket `⌈x·S/p⌉`).
pub fn sample_for(x: usize, p: usize, s: usize, strategy: SamplePoints) -> usize {
    let cases = sample_cases(p, s, strategy);
    cases[bucket_of(x, p, s) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_uniformly() {
        crate::verifies!(EQ8);
        // p = 64, S = 4: buckets are 1..16, 17..32, 33..48, 49..64.
        assert_eq!(bucket_of(1, 64, 4), 1);
        assert_eq!(bucket_of(16, 64, 4), 1);
        assert_eq!(bucket_of(17, 64, 4), 2);
        assert_eq!(bucket_of(32, 64, 4), 2);
        assert_eq!(bucket_of(33, 64, 4), 3);
        assert_eq!(bucket_of(48, 64, 4), 3);
        assert_eq!(bucket_of(49, 64, 4), 4);
        assert_eq!(bucket_of(64, 64, 4), 4);
    }

    #[test]
    fn eq7_sample_points() {
        crate::verifies!(EQ7);
        assert_eq!(
            sample_cases(64, 4, SamplePoints::BucketUpper),
            vec![1, 32, 48, 64]
        );
        assert_eq!(
            sample_cases(64, 8, SamplePoints::BucketUpper),
            vec![1, 16, 24, 32, 40, 48, 56, 64]
        );
    }

    #[test]
    fn eq8_sample_points() {
        crate::verifies!(EQ7, EQ8);
        assert_eq!(
            sample_cases(64, 4, SamplePoints::PaperEq8),
            vec![1, 16, 32, 64]
        );
        assert_eq!(
            sample_cases(64, 8, SamplePoints::PaperEq8),
            vec![1, 8, 16, 24, 32, 40, 48, 64]
        );
    }

    #[test]
    fn mid_sample_points() {
        assert_eq!(
            sample_cases(64, 4, SamplePoints::BucketMid),
            vec![1, 24, 40, 56]
        );
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(sample_cases(64, 1, SamplePoints::BucketUpper), vec![1]);
        assert_eq!(
            sample_cases(4, 4, SamplePoints::BucketUpper),
            vec![1, 2, 3, 4]
        );
        for x in 1..=4 {
            assert_eq!(bucket_of(x, 4, 4), x);
        }
    }

    #[test]
    fn eq8_one_wide_buckets_degenerate_to_identity() {
        // s = p makes every bucket a single case; Eq. 8's interior
        // points would otherwise start at 1·width = 1 and duplicate the
        // anchor (and skip p−1 entirely).
        assert_eq!(sample_cases(4, 4, SamplePoints::PaperEq8), vec![1, 2, 3, 4]);
        assert_eq!(
            sample_cases(8, 8, SamplePoints::PaperEq8),
            (1..=8).collect::<Vec<_>>()
        );
        for x in 1..=8 {
            assert_eq!(sample_for(x, 8, 8, SamplePoints::PaperEq8), x);
        }
    }

    #[test]
    fn sample_for_matches_paper_example() {
        crate::verifies!(EQ7, EQ8);
        // Paper §4.2: FI_ser_2..16 ≈ FI_ser_1; FI_ser_17..31 ≈ FI_ser_32.
        for x in 1..=16 {
            assert_eq!(sample_for(x, 64, 4, SamplePoints::BucketUpper), 1);
        }
        for x in 17..=32 {
            assert_eq!(sample_for(x, 64, 4, SamplePoints::BucketUpper), 32);
        }
        for x in 49..=64 {
            assert_eq!(sample_for(x, 64, 4, SamplePoints::BucketUpper), 64);
        }
    }

    #[test]
    fn sample_points_are_within_their_buckets_or_anchor() {
        crate::verifies!(EQ7);
        for s in [2usize, 4, 8, 16] {
            for strategy in [
                SamplePoints::BucketUpper,
                SamplePoints::PaperEq8,
                SamplePoints::BucketMid,
            ] {
                let cases = sample_cases(64, s, strategy);
                assert_eq!(cases.len(), s, "{strategy:?} s={s}");
                assert_eq!(cases[0], 1);
                assert!(
                    cases.windows(2).all(|w| w[0] < w[1]),
                    "{strategy:?} {cases:?}"
                );
                assert!(*cases.last().unwrap() <= 64);
                if !matches!(strategy, SamplePoints::BucketMid) {
                    assert_eq!(*cases.last().unwrap(), 64);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn bucket_rejects_zero() {
        bucket_of(0, 64, 4);
    }
}
