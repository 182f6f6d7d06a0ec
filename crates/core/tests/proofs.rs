//! Proof-grade checks for the pure arithmetic at the heart of the
//! reproduction: exhaustive small-domain enumeration (not sampling) of
//! the algebraic identities the paper's closed forms and this repo's
//! aggregation rest on. Each proof attests the claim it verifies with
//! `verifies!`; `resilim trace-matrix` joins the attestations against
//! the claims registry (DESIGN.md §13).
//!
//! The default domain bound keeps the suite fast enough for every
//! `cargo test`; nightly CI re-runs it larger via the
//! `RESILIM_PROOF_BOUND` environment variable (see
//! `.github/workflows/nightly-check.yml`).

use resilim_core::{
    prediction_error, rmse, verifies, FiResult, ModelInputs, PaperEq8, PropagationProfile,
    SamplePoints, StopRule,
};
use resilim_inject::{FailureKind, OutcomeKind, TestOutcome};
use std::collections::BTreeMap;

/// Per-component count bound for exhaustive `FiResult` enumeration.
/// Default 3; nightly raises it (`RESILIM_PROOF_BOUND=5`) so the same
/// proofs run over a strictly larger domain.
fn bound() -> u64 {
    match std::env::var("RESILIM_PROOF_BOUND") {
        Ok(v) => v
            .parse()
            .expect("RESILIM_PROOF_BOUND must be a small integer"),
        Err(_) => 3,
    }
}

/// Every reachable `FiResult` with each outcome count in `0..=b`:
/// `masked` only ever counts masked successes, so `masked <=
/// counts[Success]` is the reachable envelope.
fn all_fi(b: u64) -> Vec<FiResult> {
    let mut out = Vec::new();
    for success in 0..=b {
        for sdc in 0..=b {
            for failure in 0..=b {
                for masked in 0..=success {
                    let mut fi = FiResult::new();
                    fi.counts[OutcomeKind::Success.index()] = success;
                    fi.counts[OutcomeKind::Sdc.index()] = sdc;
                    fi.counts[OutcomeKind::Failure.index()] = failure;
                    fi.masked = masked;
                    out.push(fi);
                }
            }
        }
    }
    out
}

/// Scale every count of `fi` by `k` (proportional growth: the rates are
/// unchanged, only the sample size grows).
fn scale(fi: &FiResult, k: u64) -> FiResult {
    let mut s = *fi;
    for c in &mut s.counts {
        *c *= k;
    }
    s.masked *= k;
    s
}

fn merge(a: &FiResult, b: &FiResult) -> FiResult {
    let mut m = *a;
    m.merge(b);
    m
}

// ---------------------------------------------------------------------
// FiResult / FiAccumulator merge algebra (INV_MERGE)
// ---------------------------------------------------------------------

#[test]
fn proof_merge_commutative_and_identity() {
    verifies!(INV_MERGE);
    let domain = all_fi(bound());
    let empty = FiResult::new();
    for a in &domain {
        assert_eq!(merge(a, &empty), *a, "right identity failed for {a:?}");
        assert_eq!(merge(&empty, a), *a, "left identity failed for {a:?}");
        for b in &domain {
            assert_eq!(
                merge(a, b),
                merge(b, a),
                "commutativity failed: {a:?} {b:?}"
            );
        }
    }
}

#[test]
fn proof_merge_associative() {
    verifies!(INV_MERGE);
    // Triples cube the domain; a reduced bound keeps the proof
    // exhaustive yet fast (the nightly bound covers more).
    let domain = all_fi(bound().min(2));
    for a in &domain {
        for b in &domain {
            let ab = merge(a, b);
            for c in &domain {
                assert_eq!(
                    merge(&ab, c),
                    merge(a, &merge(b, c)),
                    "associativity failed: {a:?} {b:?} {c:?}"
                );
            }
        }
    }
}

/// The small outcome vocabulary the accumulator proofs fold over: every
/// outcome kind at several contamination counts, including the
/// never-fired (x = 0) trial that lands in the uncontaminated bucket.
fn outcome_vocab() -> Vec<TestOutcome> {
    let mut v = vec![TestOutcome::success(true, 0, 0)];
    for x in [1usize, 2, 4] {
        v.push(TestOutcome::success(false, x, 1));
        v.push(TestOutcome::sdc(x, 1));
        v.push(TestOutcome::failure(FailureKind::Crash, x, 1));
    }
    v.push(TestOutcome::failure(FailureKind::Hang, 1, 1));
    v
}

#[test]
fn proof_accumulator_fold_is_order_invariant() {
    verifies!(INV_MERGE, EQ3);
    // Exhaust every multiset of up to 3 outcomes from the vocabulary
    // (as ordered index triples, which covers every permutation of
    // every multiset) and check the fold ignores order.
    let vocab = outcome_vocab();
    let procs = 2usize;
    let fold = |ix: &[usize]| {
        let mut acc = resilim_core::FiAccumulator::new(procs);
        for &i in ix {
            acc.record(&vocab[i]);
        }
        acc
    };
    let n = vocab.len();
    for i in 0..n {
        for j in 0..n {
            assert_eq!(fold(&[i, j]), fold(&[j, i]), "pair fold order mattered");
            for k in 0..n {
                let sorted = {
                    let mut s = [i, j, k];
                    s.sort_unstable();
                    s
                };
                assert_eq!(
                    fold(&[i, j, k]),
                    fold(&sorted),
                    "triple fold order mattered for ({i},{j},{k})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rates are a probability distribution (EQ2 / EQ3)
// ---------------------------------------------------------------------

#[test]
fn proof_rates_partition_unity() {
    verifies!(EQ2, EQ3);
    for fi in all_fi(bound()) {
        let rates = fi.rates();
        for r in rates {
            assert!((0.0..=1.0).contains(&r), "rate out of range: {fi:?}");
            assert!(r.is_finite(), "rate not finite: {fi:?}");
        }
        if fi.total() == 0 {
            // Empty results are NaN-free zeros, not 0/0.
            assert_eq!(rates, [0.0; 3], "empty result must have zero rates");
        } else {
            let sum: f64 = rates.iter().sum();
            // Three divisions by the same total: off by at most a few ulps.
            assert!((sum - 1.0).abs() < 1e-12, "rates sum {sum} for {fi:?}");
        }
    }
}

#[test]
fn proof_propagation_r_is_a_distribution() {
    verifies!(EQ3);
    // Exhaust small propagation profiles: p in {1, 2, 3}, counts 0..=b.
    let b = bound();
    for p in 1usize..=3 {
        let mut counts = vec![0u64; p];
        loop {
            let prof = PropagationProfile {
                p,
                counts: counts.clone(),
            };
            let rv = prof.r_vec();
            if prof.total() > 0 {
                let sum: f64 = rv.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "r_vec sum {sum} for {counts:?}");
            } else {
                assert!(rv.iter().all(|&r| r == 0.0));
            }
            for (x, &r) in rv.iter().enumerate() {
                assert_eq!(prof.r(x + 1), r);
            }
            assert_eq!(prof.r(0), 0.0);
            assert_eq!(prof.r(p + 1), 0.0);
            // Odometer over the count vector.
            let mut i = 0;
            while i < p && counts[i] == b {
                counts[i] = 0;
                i += 1;
            }
            if i == p {
                break;
            }
            counts[i] += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Grouping conserves mass and refines consistently (EQ5 / O3)
// ---------------------------------------------------------------------

#[test]
fn proof_grouping_conserves_and_refines() {
    verifies!(EQ5, O3);
    // p = 4: exhaust counts in 0..=b, check every divisor grouping.
    let b = bound();
    let p = 4usize;
    let mut counts = vec![0u64; p];
    loop {
        let prof = PropagationProfile {
            p,
            counts: counts.clone(),
        };
        if prof.total() > 0 {
            let fine = prof.group(4); // identity grouping = r_vec
            let mid = prof.group(2);
            let coarse = prof.group(1);
            let sum = |v: &[f64]| v.iter().sum::<f64>();
            assert!((sum(&fine) - 1.0).abs() < 1e-12);
            assert!((sum(&mid) - 1.0).abs() < 1e-12);
            assert!((sum(&coarse) - 1.0).abs() < 1e-12);
            // Refinement consistency: coarse buckets are sums of fine ones.
            assert!((mid[0] - (fine[0] + fine[1])).abs() < 1e-12);
            assert!((mid[1] - (fine[2] + fine[3])).abs() < 1e-12);
            assert!((coarse[0] - 1.0).abs() < 1e-12);
        }
        let mut i = 0;
        while i < p && counts[i] == b {
            counts[i] = 0;
            i += 1;
        }
        if i == p {
            break;
        }
        counts[i] += 1;
    }
}

// ---------------------------------------------------------------------
// Wilson interval sanity (INV_WILSON)
// ---------------------------------------------------------------------

#[test]
fn proof_wilson_bounds_and_width_monotone() {
    verifies!(INV_WILSON);
    let domain = all_fi(bound());
    for fi in &domain {
        for kind in OutcomeKind::ALL {
            for z in [1.0, 1.96, 2.58] {
                let (lo, hi) = fi.wilson_ci(kind, z);
                assert!(
                    (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi),
                    "bounds out of [0,1]: {fi:?} {lo} {hi}"
                );
                assert!(lo <= hi, "inverted interval: {fi:?}");
                if fi.total() > 0 {
                    let phat = fi.rate(kind);
                    assert!(
                        lo <= phat + 1e-12 && phat <= hi + 1e-12,
                        "interval misses point estimate: {fi:?} {lo} {phat} {hi}"
                    );
                }
                // Proportional growth at the same rate never widens the
                // interval (width is monotone non-increasing in n).
                let mut prev = hi - lo;
                for k in [2u64, 4, 8] {
                    let (slo, shi) = scale(fi, k).wilson_ci(kind, z);
                    let width = shi - slo;
                    assert!(
                        width <= prev + 1e-12,
                        "width grew under scaling: {fi:?} k={k} {width} > {prev}"
                    );
                    prev = width;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stop-rule monotonicity (INV_STOP)
// ---------------------------------------------------------------------

#[test]
fn proof_stop_rule_monotone_under_proportional_growth() {
    verifies!(INV_STOP);
    let domain = all_fi(bound());
    let rules = [
        StopRule::new(0.05).with_min_tests(0),
        StopRule::new(0.1).with_min_tests(2),
        StopRule::new(0.25).with_min_tests(5),
        StopRule::new(0.45).with_min_tests(1),
    ];
    for fi in &domain {
        for rule in &rules {
            // Halfwidth is monotone non-increasing under scaling, so a
            // satisfied rule stays satisfied at every larger k.
            if rule.satisfied(fi) {
                for k in [2u64, 3, 8, 32] {
                    let grown = scale(fi, k);
                    assert!(
                        rule.satisfied(&grown),
                        "rule {rule:?} un-satisfied by growth x{k} of {fi:?} \
                         (halfwidth {} -> {})",
                        rule.widest_halfwidth(fi),
                        rule.widest_halfwidth(&grown)
                    );
                }
            }
        }
    }
}

#[test]
fn stop_rule_min_tests_edge_cases() {
    verifies!(INV_STOP);
    // min_tests = 0: the trial floor vanishes, only the width gates.
    let zero_floor = StopRule::new(0.49).with_min_tests(0);
    assert!(
        !zero_floor.satisfied(&FiResult::new()),
        "empty result has halfwidth 0.5 and must not satisfy a 0.49 target"
    );
    let loose = StopRule::new(0.5).with_min_tests(0);
    assert!(
        loose.satisfied(&FiResult::new()),
        "empty result exactly meets a 0.5 half-width target with no floor"
    );

    // An all-one-kind distribution: the observed class pins phat = 1,
    // the unobserved classes pin phat = 0; all three Wilson intervals
    // shrink with n, so widest_halfwidth is driven by n alone.
    let mut fi = FiResult::new();
    for _ in 0..100 {
        fi.record(&TestOutcome::success(false, 1, 1));
    }
    let rule = StopRule::new(0.05).with_min_tests(10);
    assert!(
        rule.widest_halfwidth(&fi) < 0.05,
        "n=100 all-success is tight"
    );
    assert!(rule.satisfied(&fi));

    // min_tests above the total vetoes however narrow the intervals are.
    assert!(!rule.with_min_tests(101).satisfied(&fi));
    assert!(rule.with_min_tests(100).satisfied(&fi));

    // Interaction: widest_halfwidth ignores the floor entirely.
    assert_eq!(
        rule.with_min_tests(0).widest_halfwidth(&fi),
        rule.with_min_tests(10_000).widest_halfwidth(&fi)
    );
}

// ---------------------------------------------------------------------
// Eq. 1 mixture and Eq. 8 weighted sum (EQ1 / EQ2 / EQ4 / EQ8)
// ---------------------------------------------------------------------

/// A `FiResult` with the given counts (masked stays 0; the predictor
/// only reads rates).
fn fi(success: u64, sdc: u64, failure: u64) -> FiResult {
    let mut f = FiResult::new();
    f.counts[OutcomeKind::Success.index()] = success;
    f.counts[OutcomeKind::Sdc.index()] = sdc;
    f.counts[OutcomeKind::Failure.index()] = failure;
    f
}

/// Every nonzero rate triple with counts in `0..=b`.
fn nonzero_fi(b: u64) -> Vec<FiResult> {
    all_fi(b)
        .into_iter()
        .filter(|f| f.total() > 0 && f.masked == 0)
        .collect()
}

#[test]
fn proof_eq8_is_the_weighted_sum() {
    verifies!(EQ4, EQ8);
    // s = 2, p = 4: exhaust propagation weights and two serial bucket
    // values over the small domain; the prediction must equal the
    // hand-computed weighted sum in every component.
    let b = bound().min(2);
    let serial_domain = nonzero_fi(b);
    for w1 in 0..=b {
        for w2 in 0..=b {
            if w1 + w2 == 0 {
                continue;
            }
            for s1 in &serial_domain {
                for s2 in &serial_domain {
                    let mut serial = BTreeMap::new();
                    serial.insert(1, *s1);
                    serial.insert(4, *s2);
                    let mut small_prop = PropagationProfile::new(2);
                    small_prop.counts = vec![w1, w2];
                    let inputs = ModelInputs {
                        p: 4,
                        s: 2,
                        strategy: SamplePoints::BucketUpper,
                        serial,
                        small_prop,
                        small_by_contam: vec![None, None],
                        unique_share: 0.0,
                        fi_unique: None,
                        alpha_threshold: f64::INFINITY,
                    };
                    let pred = PaperEq8::new(inputs).predict();
                    let total = (w1 + w2) as f64;
                    let (r1, r2) = (w1 as f64 / total, w2 as f64 / total);
                    for k in 0..3 {
                        let expect = r1 * s1.rates()[k] + r2 * s2.rates()[k];
                        assert!(
                            (pred.rates[k] - expect).abs() < 1e-12,
                            "Eq.8 mismatch at class {k}: {} vs {expect}",
                            pred.rates[k]
                        );
                    }
                    // Distributions in, distribution out (Eq. 2).
                    let sum: f64 = pred.rates.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-9, "prediction sum {sum}");
                }
            }
        }
    }
}

#[test]
fn proof_eq8_monotone_in_serial_success() {
    verifies!(EQ8, O4);
    // Raising any bucket's serial success rate (mass moved from SDC to
    // success) never lowers the predicted success rate.
    let run = |s1: FiResult, s2: FiResult| -> f64 {
        let mut serial = BTreeMap::new();
        serial.insert(1, s1);
        serial.insert(4, s2);
        let mut small_prop = PropagationProfile::new(2);
        small_prop.counts = vec![3, 1];
        PaperEq8::new(ModelInputs {
            p: 4,
            s: 2,
            strategy: SamplePoints::BucketUpper,
            serial,
            small_prop,
            small_by_contam: vec![None, None],
            unique_share: 0.0,
            fi_unique: None,
            alpha_threshold: f64::INFINITY,
        })
        .predict()
        .success()
    };
    let n = bound().max(2);
    for good in 0..=n {
        for better in good..=n {
            for other in 0..=n {
                let lo = run(fi(good, n - good, 0), fi(other, n - other, 0));
                let hi = run(fi(better, n - better, 0), fi(other, n - other, 0));
                assert!(
                    hi >= lo - 1e-12,
                    "bucket-1 success {good}->{better} lowered prediction {lo}->{hi}"
                );
                // Same in the second bucket.
                let lo = run(fi(other, n - other, 0), fi(good, n - good, 0));
                let hi = run(fi(other, n - other, 0), fi(better, n - better, 0));
                assert!(hi >= lo - 1e-12, "bucket-2 monotonicity violated");
            }
        }
    }
}

#[test]
fn proof_eq8_degenerates_when_s_equals_p() {
    verifies!(EQ8);
    // s = p makes the bucket map the identity: the prediction is
    // exactly the propagation-weighted mixture of the per-x serial
    // results — no sparsity left.
    let b = bound().min(2);
    let values = nonzero_fi(b);
    for p in [1usize, 2] {
        for va in &values {
            for vb in &values {
                let pick = |x: usize| if x == 1 { *va } else { *vb };
                let serial: BTreeMap<usize, FiResult> = (1..=p).map(|x| (x, pick(x))).collect();
                for w1 in 1..=b {
                    let mut prop = PropagationProfile::new(p);
                    for (x, c) in prop.counts.iter_mut().enumerate() {
                        *c = if x == 0 { w1 } else { 1 };
                    }
                    let total: u64 = prop.counts.iter().sum();
                    let weights = prop.r_vec();
                    let pred = PaperEq8::new(ModelInputs {
                        p,
                        s: p,
                        strategy: SamplePoints::BucketUpper,
                        serial: serial.clone(),
                        small_prop: prop,
                        small_by_contam: vec![None; p],
                        unique_share: 0.0,
                        fi_unique: None,
                        alpha_threshold: f64::INFINITY,
                    })
                    .predict();
                    let mut expect = [0.0f64; 3];
                    for (x, w) in weights.iter().enumerate() {
                        for (e, rate) in expect.iter_mut().zip(pick(x + 1).rates()) {
                            *e += w * rate;
                        }
                    }
                    for (got, want) in pred.rates.iter().zip(expect) {
                        assert!(
                            (got - want).abs() < 1e-12,
                            "s==p degeneracy broken (p={p}, total={total})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn proof_eq1_mixture_is_convex() {
    verifies!(EQ1, EQ2);
    // The parallel-unique mixture interpolates linearly between the
    // common term (share 0) and the unique term (share 1), staying a
    // probability distribution throughout.
    let b = bound().min(2);
    let values = nonzero_fi(b);
    for common in &values {
        for unique in &values {
            let mut results = Vec::new();
            for share in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let mut serial = BTreeMap::new();
                serial.insert(1, *common);
                let mut small_prop = PropagationProfile::new(1);
                small_prop.counts = vec![1];
                let pred = PaperEq8::new(ModelInputs {
                    p: 1,
                    s: 1,
                    strategy: SamplePoints::BucketUpper,
                    serial,
                    small_prop,
                    small_by_contam: vec![None],
                    unique_share: share,
                    fi_unique: Some(*unique),
                    alpha_threshold: f64::INFINITY,
                })
                .predict();
                for k in 0..3 {
                    let expect = (1.0 - share) * common.rates()[k] + share * unique.rates()[k];
                    assert!(
                        (pred.rates[k] - expect).abs() < 1e-12,
                        "Eq.1 mixture wrong at share {share}"
                    );
                }
                let sum: f64 = pred.rates.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9);
                results.push(pred.success());
            }
            // Endpoint checks: share 0 is pure common, share 1 pure unique.
            assert!((results[0] - common.success_rate()).abs() < 1e-12);
            assert!((results[4] - unique.success_rate()).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Alpha fine-tuning (EQ6)
// ---------------------------------------------------------------------

#[test]
fn proof_alpha_zero_divergence_never_tunes() {
    verifies!(EQ6);
    // When the small-scale conditionals equal the serial results
    // exactly, divergence is 0 and fine-tuning must stay off at any
    // positive threshold — the substitution only fires on disagreement.
    let b = bound().min(2);
    for serial_fi in nonzero_fi(b) {
        let mut serial = BTreeMap::new();
        serial.insert(1, serial_fi);
        serial.insert(4, serial_fi);
        let mut small_prop = PropagationProfile::new(2);
        small_prop.counts = vec![1, 1];
        let predictor = PaperEq8::new(ModelInputs {
            p: 4,
            s: 2,
            strategy: SamplePoints::BucketUpper,
            serial,
            small_prop,
            small_by_contam: vec![Some(serial_fi), Some(serial_fi)],
            unique_share: 0.0,
            fi_unique: None,
            alpha_threshold: 1e-9,
        });
        assert_eq!(predictor.divergence(), 0.0);
        let pred = predictor.predict();
        assert!(!pred.used_alpha);
        assert!(pred.per_bucket.iter().all(|bkt| !bkt.tuned));
    }
}

// ---------------------------------------------------------------------
// Accuracy metrics (EQ9) — direct unit coverage of accuracy.rs
// ---------------------------------------------------------------------

#[test]
fn prediction_error_exact_match_is_zero() {
    verifies!(EQ9);
    for v in [0.0, 0.25, 0.5, 1.0] {
        assert_eq!(prediction_error(v, v), 0.0);
    }
    // Hand-computed: |0.83 - 0.6| = 0.23 pp on the rate scale.
    assert!((prediction_error(0.83, 0.6) - 0.23).abs() < 1e-12);
    assert!((prediction_error(0.6, 0.83) - 0.23).abs() < 1e-12);
}

#[test]
fn rmse_known_values_and_empty_slice() {
    verifies!(EQ9);
    assert_eq!(rmse(&[]), 0.0, "empty slice is defined as zero error");
    assert_eq!(rmse(&[(0.4, 0.4), (0.9, 0.9)]), 0.0);
    // 3-4-5 style: errors 0.3 and 0.4 -> sqrt((0.09 + 0.16)/2) = 0.3535...
    let pairs = [(0.5, 0.2), (0.1, 0.5)];
    assert!((rmse(&pairs) - (0.25f64 / 2.0).sqrt()).abs() < 1e-12);
    // RMSE of a single pair is the absolute error.
    assert!((rmse(&[(0.9, 0.65)]) - 0.25).abs() < 1e-12);
    // Order of pairs is irrelevant.
    let swapped = [(0.1, 0.5), (0.5, 0.2)];
    assert_eq!(rmse(&pairs), rmse(&swapped));
}

// ---------------------------------------------------------------------
// Property tests (randomized, on top of the exhaustive proofs)
// ---------------------------------------------------------------------

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Satellite: rates() of any nonzero outcome mix sums to 1
        /// within ulp-scale epsilon; empty results are exact zeros.
        #[test]
        fn rates_sum_to_one(
            success in 0u64..10_000,
            sdc in 0u64..10_000,
            failure in 0u64..10_000,
        ) {
            verifies!(EQ2);
            let f = fi(success, sdc, failure);
            let rates = f.rates();
            if f.total() == 0 {
                prop_assert_eq!(rates, [0.0; 3]);
            } else {
                let sum: f64 = rates.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-12, "sum = {}", sum);
            }
            for r in rates {
                prop_assert!(r.is_finite());
            }
        }

        /// Wilson interval stays sane at arbitrary counts, not just the
        /// exhaustive small domain.
        #[test]
        fn wilson_bounds_hold_at_scale(
            success in 0u64..1_000_000,
            sdc in 0u64..1_000_000,
        ) {
            verifies!(INV_WILSON);
            let f = fi(success, sdc, 0);
            let (lo, hi) = f.wilson_ci(OutcomeKind::Success, 1.96);
            prop_assert!((0.0..=1.0).contains(&lo));
            prop_assert!((0.0..=1.0).contains(&hi));
            prop_assert!(lo <= hi);
        }
    }
}
