//! Property-based tests on the model layer: invariants of the predictor,
//! propagation grouping, and sampling, over randomized measurement data.

use proptest::prelude::*;
use resilim::core::{
    bucket_of, cosine_similarity, prediction_error, rmse, sample_cases, sample_for, FiResult,
    ModelInputs, OutcomeKind, PaperEq8, PropagationProfile, SamplePoints, StopRule, TestOutcome,
};
use std::collections::BTreeMap;

const ALL_STRATEGIES: [SamplePoints; 3] = [
    SamplePoints::BucketUpper,
    SamplePoints::PaperEq8,
    SamplePoints::BucketMid,
];

fn arbitrary_fi() -> impl Strategy<Value = FiResult> {
    (0u64..200, 0u64..200, 0u64..50).prop_map(|(s, d, f)| {
        let mut fi = FiResult::new();
        for _ in 0..s.max(1) {
            fi.record(&TestOutcome::success(false, 1, 1));
        }
        for _ in 0..d {
            fi.record(&TestOutcome::sdc(1, 1));
        }
        for _ in 0..f {
            fi.record(&TestOutcome::failure(
                resilim::core::FailureKind::Crash,
                1,
                1,
            ));
        }
        fi
    })
}

/// (p, s) pairs with s | p, both powers of two.
fn scales() -> impl Strategy<Value = (usize, usize)> {
    (1u32..6, 0u32..4).prop_map(|(lp, ds)| {
        let p = 1usize << (lp + ds);
        let s = 1usize << ds.min(lp + ds);
        (p, s.min(p))
    })
}

/// Like [`scales`] but also generates the s = p degenerate pairs
/// (one-wide buckets), which the sampling layer must handle.
fn sampling_scales() -> impl Strategy<Value = (usize, usize)> {
    (0u32..7, 0u32..7).prop_map(|(ls, extra)| {
        let s = 1usize << ls;
        let p = s << extra.min(7 - ls);
        (p, s)
    })
}

/// One test outcome of any class, contaminating `0..max_contam` ranks
/// (so out-of-range counts reach the profiles' clamping too).
fn arbitrary_outcome(max_contam: usize) -> impl Strategy<Value = TestOutcome> {
    (0u8..3, any::<bool>(), 0usize..max_contam).prop_map(|(kind, masked, c)| match kind {
        0 => TestOutcome::success(masked, c, 1),
        1 => TestOutcome::sdc(c, 1),
        _ => TestOutcome::failure(resilim::core::FailureKind::Crash, c, 1),
    })
}

/// Model inputs at `(p, s)`: serial results for every sample case and for
/// x = 1..=s, then the small-scale per-contamination results (masked out
/// where `observed` is false), then the parallel-unique result, all drawn
/// in order from `fis`; the small-scale profile is `hist[..s]`.
fn model_inputs(
    (p, s): (usize, usize),
    strategy: SamplePoints,
    fis: &[FiResult],
    observed: &[bool],
    hist: &[u64],
    unique_share: f64,
    alpha_threshold: f64,
) -> ModelInputs {
    let mut it = fis.iter().copied();
    let mut serial = BTreeMap::new();
    for x in sample_cases(p, s, strategy).into_iter().chain(1..=s) {
        serial.entry(x).or_insert_with(|| it.next().unwrap());
    }
    let mut small_prop = PropagationProfile::new(s);
    small_prop.counts.copy_from_slice(&hist[..s]);
    let small_by_contam = observed[..s]
        .iter()
        .map(|&seen| it.next().filter(|_| seen))
        .collect();
    ModelInputs {
        p,
        s,
        strategy,
        serial,
        small_prop,
        small_by_contam,
        unique_share,
        fi_unique: it.next(),
        alpha_threshold,
    }
}

proptest! {
    /// The predictor output is always a probability distribution when its
    /// inputs are.
    #[test]
    fn prediction_is_a_distribution(
        (p, s) in scales(),
        fis in prop::collection::vec(arbitrary_fi(), 40),
        hist in prop::collection::vec(1u64..100, 40),
        unique_share in 0.0f64..0.3,
    ) {
        let cases = sample_cases(p, s, SamplePoints::BucketUpper);
        let mut serial = BTreeMap::new();
        let mut it = fis.iter();
        for &x in &cases {
            serial.insert(x, *it.next().unwrap());
        }
        for x in 1..=s {
            serial.entry(x).or_insert_with(|| *it.next().unwrap());
        }
        let mut small_prop = PropagationProfile::new(s);
        for (i, h) in hist.iter().take(s).enumerate() {
            small_prop.counts[i] = *h;
        }
        let small_by_contam = (0..s).map(|_| it.next().copied()).collect();
        let inputs = ModelInputs {
            p,
            s,
            strategy: SamplePoints::BucketUpper,
            serial,
            small_prop,
            small_by_contam,
            unique_share,
            fi_unique: Some(*it.next().unwrap()),
            alpha_threshold: 0.20,
        };
        let pred = PaperEq8::new(inputs).predict();
        let total: f64 = pred.rates.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "rates sum to {total}");
        for r in pred.rates {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
        }
        prop_assert_eq!(pred.per_bucket.len(), s);
    }

    /// The prediction is a convex combination: it never leaves the hull of
    /// its bucket values and the unique term.
    #[test]
    fn prediction_within_input_hull(
        fis in prop::collection::vec(arbitrary_fi(), 10),
        hist in prop::collection::vec(1u64..50, 4),
    ) {
        let (p, s) = (64usize, 4usize);
        let mut serial = BTreeMap::new();
        let mut it = fis.iter();
        for &x in &sample_cases(p, s, SamplePoints::BucketUpper) {
            serial.insert(x, *it.next().unwrap());
        }
        for x in 1..=s {
            serial.entry(x).or_insert_with(|| *it.next().unwrap());
        }
        let mut small_prop = PropagationProfile::new(s);
        small_prop.counts.copy_from_slice(&hist);
        let inputs = ModelInputs {
            p, s,
            strategy: SamplePoints::BucketUpper,
            serial: serial.clone(),
            small_prop,
            small_by_contam: vec![None; s],
            unique_share: 0.0,
            fi_unique: None,
            alpha_threshold: 0.20,
        };
        let pred = PaperEq8::new(inputs).predict();
        let lo = serial.values().map(|f| f.success_rate()).fold(1.0, f64::min);
        let hi = serial.values().map(|f| f.success_rate()).fold(0.0, f64::max);
        prop_assert!(pred.success() >= lo - 1e-12 && pred.success() <= hi + 1e-12);
    }

    /// Grouping conserves probability mass and never exceeds 1 per bucket.
    #[test]
    fn grouping_conserves_mass(
        counts in prop::collection::vec(0u64..1000, 64),
        log_groups in 0u32..7,
    ) {
        let mut prof = PropagationProfile::new(64);
        prof.counts.copy_from_slice(&counts);
        prop_assume!(prof.total() > 0);
        let groups = 1usize << log_groups;
        let g = prof.group(groups);
        let mass: f64 = g.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(g.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
    }

    /// Every x lands in exactly the bucket whose sample case represents it,
    /// and bucket indices are monotone in x.
    #[test]
    fn bucket_map_is_total_and_monotone((p, s) in sampling_scales()) {
        let mut prev = 1;
        for x in 1..=p {
            let b = bucket_of(x, p, s);
            prop_assert!((1..=s).contains(&b));
            prop_assert!(b >= prev);
            prev = b;
        }
        // Each bucket gets exactly p/s values of x.
        for j in 1..=s {
            let n = (1..=p).filter(|&x| bucket_of(x, p, s) == j).count();
            prop_assert_eq!(n, p / s);
        }
    }

    /// `sample_cases` returns strictly increasing, in-range points that
    /// cover every bucket exactly once, for all s | p power-of-two pairs
    /// and all strategies.
    #[test]
    fn sample_cases_cover_every_bucket_once((p, s) in sampling_scales()) {
        for strategy in ALL_STRATEGIES {
            let cases = sample_cases(p, s, strategy);
            prop_assert_eq!(cases.len(), s, "{:?} p={} s={}", strategy, p, s);
            prop_assert!(
                cases.windows(2).all(|w| w[0] < w[1]),
                "{:?} not strictly increasing: {:?}", strategy, cases
            );
            prop_assert!(
                cases.iter().all(|&c| (1..=p).contains(&c)),
                "{:?} out of range: {:?}", strategy, cases
            );
            // Bucket coverage: each of the s buckets is hit exactly once.
            // The anchor at x = 1 always sits in bucket 1; Eq. 7/8 list
            // their remaining points in bucket order, so the j-th case
            // must land in (or, for the upper-edge anchor conventions,
            // on the boundary of) bucket j. The strict form we require:
            // the multiset {bucket_of(case)} = {1, …, s} — except
            // PaperEq8's interior points j·p/s, which are the *lower*
            // edge of bucket j+1's predecessor (⌈(j·p/s)·s/p⌉ = j), so
            // they land in bucket j while standing for bucket j+1 in the
            // paper's own Eq. 8 indexing. We therefore check coverage of
            // the sorted bucket list against the identity for the two
            // bucket-anchored strategies and a "no bucket hit twice by a
            // non-adjacent index" relaxation for PaperEq8.
            let buckets: Vec<usize> =
                cases.iter().map(|&c| bucket_of(c, p, s)).collect();
            match strategy {
                SamplePoints::BucketUpper | SamplePoints::BucketMid => {
                    let expect: Vec<usize> = (1..=s).collect();
                    prop_assert_eq!(
                        &buckets, &expect,
                        "{:?} p={} s={} cases={:?}", strategy, p, s, cases
                    );
                }
                SamplePoints::PaperEq8 => {
                    // j-th case (1-based) represents bucket j; it lands
                    // in bucket j or j−1 (lower-edge convention).
                    for (i, &b) in buckets.iter().enumerate() {
                        let j = i + 1;
                        prop_assert!(
                            b == j || b + 1 == j,
                            "PaperEq8 p={} s={} case {} in bucket {}", p, s, j, b
                        );
                    }
                    // Last point is p → bucket s, so the curve's tail is
                    // anchored and every bucket has a representative.
                    prop_assert_eq!(*buckets.last().unwrap(), s);
                }
            }
        }
    }

    /// `sample_for(x)` returns a member of `sample_cases` that represents
    /// x's bucket: for the bucket-anchored strategies the sample lies in
    /// the same bucket as x (or is the x = 1 anchor of bucket 1).
    #[test]
    fn sample_for_stays_in_bucket((p, s) in sampling_scales()) {
        for strategy in ALL_STRATEGIES {
            let cases = sample_cases(p, s, strategy);
            for x in 1..=p {
                let sx = sample_for(x, p, s, strategy);
                prop_assert!(cases.contains(&sx));
                let bx = bucket_of(x, p, s);
                let bs = bucket_of(sx, p, s);
                match strategy {
                    SamplePoints::BucketUpper | SamplePoints::BucketMid => {
                        prop_assert_eq!(
                            bs, bx,
                            "{:?} p={} s={} x={} -> sample {}", strategy, p, s, x, sx
                        );
                    }
                    SamplePoints::PaperEq8 => {
                        // Lower-edge convention: bucket j's stand-in may
                        // sit on bucket j−1's upper boundary.
                        prop_assert!(
                            bs == bx || bs + 1 == bx,
                            "PaperEq8 p={} s={} x={} (bucket {}) -> sample {} (bucket {})",
                            p, s, x, bx, sx, bs
                        );
                    }
                }
            }
            // sample_for is monotone in x (bucket map is monotone and
            // cases are increasing).
            let mut prev = 0;
            for x in 1..=p {
                let sx = sample_for(x, p, s, strategy);
                prop_assert!(sx >= prev);
                prev = sx;
            }
        }
    }

    /// Regrouping a propagation profile commutes: grouping p→g₂ and then
    /// regrouping to a coarser g₁ equals grouping p→g₁ directly — the
    /// metamorphic form of "refining the profile never changes the mass a
    /// coarse bucket sees" behind the paper's cosine-similarity argument
    /// (Table 2).
    #[test]
    fn grouping_refinement_is_consistent(
        counts in prop::collection::vec(0u64..1000, 64),
        log_fine in 0u32..7,
        log_coarse in 0u32..7,
    ) {
        prop_assume!(log_coarse <= log_fine);
        let mut prof = PropagationProfile::new(64);
        prof.counts.copy_from_slice(&counts);
        prop_assume!(prof.total() > 0);
        let fine = 1usize << log_fine;
        let coarse = 1usize << log_coarse;
        let direct = prof.group(coarse);
        let via_fine = prof.group(fine);
        // Sum each run of fine/coarse consecutive fine buckets.
        let ratio = fine / coarse;
        for (j, &d) in direct.iter().enumerate() {
            let refolded: f64 = via_fine[j * ratio..(j + 1) * ratio].iter().sum();
            prop_assert!(
                (refolded - d).abs() < 1e-9,
                "bucket {}: direct {} vs refolded {}", j, d, refolded
            );
        }
        // And the coarse self-similarity of the refold is exact.
        let refolded: Vec<f64> = (0..coarse)
            .map(|j| via_fine[j * ratio..(j + 1) * ratio].iter().sum())
            .collect();
        prop_assert!((cosine_similarity(&direct, &refolded) - 1.0).abs() < 1e-9);
    }

    /// Cosine similarity is symmetric, bounded, and 1 on self.
    #[test]
    fn cosine_similarity_properties(
        a in prop::collection::vec(0.0f64..1.0, 8),
        b in prop::collection::vec(0.0f64..1.0, 8),
    ) {
        let ab = cosine_similarity(&a, &b);
        let ba = cosine_similarity(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        if a.iter().any(|&x| x > 0.0) {
            prop_assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-9);
        }
    }

    /// RMSE is zero iff all pairs agree, and scales with uniform offset.
    #[test]
    fn rmse_properties(values in prop::collection::vec(0.0f64..1.0, 1..20), off in 0.01f64..0.5) {
        let exact: Vec<(f64, f64)> = values.iter().map(|&v| (v, v)).collect();
        prop_assert!(rmse(&exact) < 1e-12);
        let offset: Vec<(f64, f64)> = values.iter().map(|&v| (v, v + off)).collect();
        prop_assert!((rmse(&offset) - off).abs() < 1e-9);
    }

    /// The per-trial error is a symmetric distance, and RMSE (Eq. 9) sits
    /// between the mean and the largest per-trial error.
    #[test]
    fn rmse_is_bounded_by_mean_and_max_error(
        pairs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30),
    ) {
        let errors: Vec<f64> = pairs.iter().map(|&(m, p)| prediction_error(m, p)).collect();
        for (&(m, p), &e) in pairs.iter().zip(&errors) {
            prop_assert!(e >= 0.0);
            prop_assert_eq!(e, prediction_error(p, m));
            prop_assert_eq!(prediction_error(m, m), 0.0);
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let max = errors.iter().copied().fold(0.0, f64::max);
        let r = rmse(&pairs);
        prop_assert!(mean <= r + 1e-12, "mean {} > rmse {}", mean, r);
        prop_assert!(r <= max + 1e-12, "rmse {} > max {}", r, max);
    }

    /// Merging two deployments equals recording both sets of outcomes, and
    /// the merged success rate is the count-weighted mean of the two.
    #[test]
    fn fi_merge_equals_recording_both(
        a in prop::collection::vec(arbitrary_outcome(8), 0..40),
        b in prop::collection::vec(arbitrary_outcome(8), 1..40),
    ) {
        let (fa, fb) = (FiResult::from_outcomes(&a), FiResult::from_outcomes(&b));
        let mut merged = fa;
        merged.merge(&fb);
        prop_assert_eq!(merged, FiResult::from_outcomes(a.iter().chain(&b)));
        let (na, nb) = (fa.total() as f64, fb.total() as f64);
        let weighted = (na * fa.success_rate() + nb * fb.success_rate()) / (na + nb);
        prop_assert!((merged.success_rate() - weighted).abs() < 1e-12);
    }

    /// A deployment's rates partition 1 (0 everywhere when empty), each
    /// class's rate matches its slot in `rates()`, and only successes
    /// can be masked.
    #[test]
    fn fi_rates_partition_and_masked_successes(
        outcomes in prop::collection::vec(arbitrary_outcome(8), 0..60),
    ) {
        let fi = FiResult::from_outcomes(&outcomes);
        prop_assert_eq!(fi.total(), outcomes.len() as u64);
        let sum: f64 = fi.rates().iter().sum();
        let expect = if outcomes.is_empty() { 0.0 } else { 1.0 };
        prop_assert!((sum - expect).abs() < 1e-12, "rates sum to {}", sum);
        for kind in OutcomeKind::ALL {
            prop_assert_eq!(fi.rate(kind), fi.rates()[kind.index()]);
        }
        prop_assert!(fi.masked <= fi.counts[OutcomeKind::Success.index()]);
        prop_assert_eq!(fi.masked, outcomes.iter().filter(|o| o.masked).count() as u64);
    }

    /// The Wilson interval lies in [0, 1], contains the observed rate, and
    /// widens monotonically with the confidence multiplier.
    #[test]
    fn wilson_interval_brackets_the_rate(
        fi in arbitrary_fi(),
        z in 0.5f64..3.0,
        dz in 0.0f64..2.0,
    ) {
        for kind in OutcomeKind::ALL {
            let (lo, hi) = fi.wilson_ci(kind, z);
            let rate = fi.rate(kind);
            prop_assert!(0.0 <= lo && hi <= 1.0, "{}: ({}, {})", kind, lo, hi);
            prop_assert!(lo <= rate + 1e-12 && rate <= hi + 1e-12,
                "{}: rate {} outside ({}, {})", kind, rate, lo, hi);
            let (wide_lo, wide_hi) = fi.wilson_ci(kind, z + dz);
            prop_assert!(wide_lo <= lo + 1e-12 && hi <= wide_hi + 1e-12,
                "{}: z {} gives ({}, {}), z {} gives ({}, {})",
                kind, z, lo, hi, z + dz, wide_lo, wide_hi);
        }
    }

    /// A stop rule is satisfied only past its trial floor and under its
    /// width target, and relaxing either one never withdraws a stop.
    #[test]
    fn stop_rule_needs_floor_and_width(
        fi in arbitrary_fi(),
        target in 0.01f64..0.3,
        min_tests in 0u64..400,
    ) {
        let rule = StopRule::new(target).with_min_tests(min_tests);
        let widest = rule.widest_halfwidth(&fi);
        prop_assert!((0.0..=0.5 + 1e-12).contains(&widest));
        prop_assert_eq!(rule.satisfied(&fi), fi.total() >= min_tests && widest <= target);
        prop_assert!(!rule.with_min_tests(fi.total() + 1).satisfied(&fi));
        if rule.satisfied(&fi) {
            prop_assert!(StopRule::new(target * 2.0).with_min_tests(min_tests).satisfied(&fi));
            prop_assert!(rule.with_min_tests(min_tests / 2).satisfied(&fi));
        }
    }

    /// A propagation profile clamps contamination into [1, p], merges like
    /// the concatenation of its outcomes, and its `r` agrees with `r_vec`.
    #[test]
    fn propagation_profile_clamps_and_merges(
        p in prop::sample::select(vec![1usize, 2, 4, 8, 16, 32, 64]),
        a in prop::collection::vec(arbitrary_outcome(70), 0..40),
        b in prop::collection::vec(arbitrary_outcome(70), 1..40),
    ) {
        let mut merged = PropagationProfile::from_outcomes(p, &a);
        merged.merge(&PropagationProfile::from_outcomes(p, &b));
        let all: Vec<TestOutcome> = a.into_iter().chain(b).collect();
        prop_assert_eq!(&merged, &PropagationProfile::from_outcomes(p, &all));
        prop_assert_eq!(merged.total(), all.len() as u64);
        let at_most_one = all.iter().filter(|o| o.contaminated_ranks <= 1).count() as u64;
        let at_least_p = all.iter().filter(|o| o.contaminated_ranks as usize >= p).count() as u64;
        prop_assert!(merged.counts[0] >= at_most_one);
        prop_assert!(merged.counts[p - 1] >= at_least_p);
        for x in 2..p {
            let exact = all.iter().filter(|o| o.contaminated_ranks as usize == x).count() as u64;
            prop_assert_eq!(merged.counts[x - 1], exact);
        }
        let r = merged.r_vec();
        prop_assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for x in 1..=p {
            prop_assert_eq!(merged.r(x), r[x - 1]);
        }
        prop_assert_eq!(merged.r(0), 0.0);
        prop_assert_eq!(merged.r(p + 1), 0.0);
    }

    /// The model reads its measurements only as rates: scaling every
    /// count (serial, small-scale, unique, and the profile) by a power of
    /// two leaves the prediction bitwise unchanged.
    #[test]
    fn prediction_is_invariant_to_count_scaling(
        scale in scales(),
        strategy in prop::sample::select(ALL_STRATEGIES.to_vec()),
        fis in prop::collection::vec(arbitrary_fi(), 40),
        observed in prop::collection::vec(any::<bool>(), 8),
        hist in prop::collection::vec(1u64..100, 8),
        unique_share in 0.0f64..0.3,
        log_k in 1u32..5,
    ) {
        let k = 1u64 << log_k;
        let scaled_fis: Vec<FiResult> = fis
            .iter()
            .map(|fi| FiResult { counts: fi.counts.map(|c| c * k), masked: fi.masked * k })
            .collect();
        let scaled_hist: Vec<u64> = hist.iter().map(|h| h * k).collect();
        let base = PaperEq8::new(model_inputs(
            scale, strategy, &fis, &observed, &hist, unique_share, 0.20,
        ))
        .predict();
        let scaled = PaperEq8::new(model_inputs(
            scale, strategy, &scaled_fis, &observed, &scaled_hist, unique_share, 0.20,
        ))
        .predict();
        prop_assert_eq!(base.rates, scaled.rates);
        prop_assert_eq!(base.common_rates, scaled.common_rates);
        prop_assert_eq!(base.divergence, scaled.divergence);
        prop_assert_eq!(base.used_alpha, scaled.used_alpha);
        for (b, s) in base.per_bucket.iter().zip(&scaled.per_bucket) {
            prop_assert_eq!((b.weight, b.rates, b.tuned), (s.weight, s.rates, s.tuned));
        }
    }

    /// α fine-tuning (Eq. 8) is on exactly when the divergence exceeds
    /// the threshold, and then replaces every observed bucket's serial
    /// value with its small-scale result; otherwise each bucket keeps the
    /// serial value at its sample case, weighted by the small profile.
    #[test]
    fn alpha_tuning_replaces_exactly_the_observed_buckets(
        scale in scales(),
        strategy in prop::sample::select(ALL_STRATEGIES.to_vec()),
        fis in prop::collection::vec(arbitrary_fi(), 40),
        observed in prop::collection::vec(any::<bool>(), 8),
        hist in prop::collection::vec(1u64..100, 8),
        alpha_threshold in 0.0f64..1.0,
    ) {
        let inputs = model_inputs(scale, strategy, &fis, &observed, &hist, 0.0, alpha_threshold);
        let pred = PaperEq8::new(inputs.clone()).predict();
        prop_assert_eq!(pred.used_alpha, pred.divergence > alpha_threshold);
        let (p, s) = scale;
        prop_assert_eq!(pred.per_bucket.len(), s);
        let cases = sample_cases(p, s, strategy);
        let weights = inputs.small_prop.r_vec();
        for (j, term) in pred.per_bucket.iter().enumerate() {
            prop_assert_eq!(term.bucket, j + 1);
            prop_assert_eq!(term.sample_x, cases[j]);
            prop_assert_eq!(term.weight, weights[j]);
            match inputs.small_by_contam[j] {
                Some(small) if pred.used_alpha => {
                    prop_assert!(term.tuned);
                    prop_assert_eq!(term.rates, small.rates());
                }
                _ => {
                    prop_assert!(!term.tuned);
                    prop_assert_eq!(term.rates, inputs.serial[&term.sample_x].rates());
                }
            }
        }
    }

    /// When the small-scale run agrees with the serial one at every
    /// contamination count, the divergence is zero and no bucket is tuned.
    #[test]
    fn agreeing_small_scale_never_tunes(
        scale in scales(),
        fis in prop::collection::vec(arbitrary_fi(), 40),
        hist in prop::collection::vec(1u64..100, 8),
    ) {
        let (_, s) = scale;
        let mut inputs = model_inputs(
            scale, SamplePoints::BucketUpper, &fis, &[true; 8], &hist, 0.0, 0.20,
        );
        inputs.small_by_contam = (1..=s).map(|x| Some(inputs.serial[&x])).collect();
        let pred = PaperEq8::new(inputs).predict();
        prop_assert_eq!(pred.divergence, 0.0);
        prop_assert!(!pred.used_alpha);
        prop_assert!(pred.per_bucket.iter().all(|t| !t.tuned));
    }

    /// Eq. 1: the prediction mixes the common-computation rates and the
    /// parallel-unique rates linearly in `unique_share`, and the common
    /// term does not depend on it.
    #[test]
    fn unique_term_is_a_linear_mixture(
        scale in scales(),
        fis in prop::collection::vec(arbitrary_fi(), 40),
        hist in prop::collection::vec(1u64..100, 8),
        unique_share in 0.0f64..1.0,
    ) {
        let inputs = |share| model_inputs(
            scale, SamplePoints::BucketUpper, &fis, &[true; 8], &hist, share, 0.20,
        );
        let mixed_inputs = inputs(unique_share);
        let unique = mixed_inputs.fi_unique.unwrap().rates();
        let common_only = PaperEq8::new(inputs(0.0)).predict();
        let mixed = PaperEq8::new(mixed_inputs).predict();
        prop_assert_eq!(common_only.rates, common_only.common_rates);
        prop_assert_eq!(mixed.common_rates, common_only.common_rates);
        for ((&rate, &common), &unique) in mixed.rates.iter().zip(&mixed.common_rates).zip(&unique) {
            let expect = (1.0 - unique_share) * common + unique_share * unique;
            prop_assert!((rate - expect).abs() < 1e-12);
        }
        prop_assert!((mixed.rates.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
