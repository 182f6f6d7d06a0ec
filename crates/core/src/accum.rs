//! Online campaign aggregation: fold one outcome at a time.
//!
//! [`FiAccumulator`] is the incremental form of the batch campaign fold
//! (overall [`FiResult`], [`PropagationProfile`], conditional-on-
//! contamination results, and the uncontaminated bucket). Folding the
//! same outcomes in the same order produces bitwise-identical statistics
//! to the batch construction — the campaign layer delegates its batch
//! aggregation to this type, so the two cannot drift apart.
//!
//! [`StopRule`] is the adaptive-stopping criterion built on top: stop a
//! campaign once every outcome class's Wilson interval is narrower than
//! a target half-width (and a minimum trial floor is met). The paper
//! trades trials for confidence with sparse sampling (Eq. 7); a stop
//! rule makes the same trade inside a single deployment.

use crate::fi::FiResult;
use crate::propagation::PropagationProfile;
use resilim_inject::{OutcomeKind, TestOutcome};
use serde::{Deserialize, Serialize};

/// Incremental aggregation of one deployment's trial outcomes.
///
/// ```
/// use resilim_core::{FiAccumulator, FiResult, TestOutcome};
/// let outcomes = [TestOutcome::success(true, 1, 1), TestOutcome::sdc(4, 1)];
/// let mut acc = FiAccumulator::new(4);
/// for o in &outcomes {
///     acc.record(o);
/// }
/// assert_eq!(*acc.fi(), FiResult::from_outcomes(&outcomes));
/// assert_eq!(acc.by_contam()[3].total(), 1); // the 4-rank SDC
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FiAccumulator {
    procs: usize,
    fi: FiResult,
    prop: PropagationProfile,
    by_contam: Vec<FiResult>,
    uncontaminated: FiResult,
}

impl FiAccumulator {
    /// Empty accumulator for a `procs`-rank deployment.
    pub fn new(procs: usize) -> FiAccumulator {
        FiAccumulator {
            procs,
            fi: FiResult::new(),
            prop: PropagationProfile::new(procs),
            by_contam: vec![FiResult::new(); procs],
            uncontaminated: FiResult::new(),
        }
    }

    /// Fold one trial outcome.
    ///
    /// `by_contam[x-1]` collects the trials that contaminated exactly
    /// `x ∈ [1, procs]` ranks (over-counts clamp down); trials that
    /// contaminated *no* rank go to the separate uncontaminated bucket
    /// so the x=1 class is not polluted by trials where the planned
    /// fault never fired.
    pub fn record(&mut self, outcome: &TestOutcome) {
        self.fi.record(outcome);
        self.prop.record(outcome);
        match outcome.contaminated_ranks as usize {
            0 => self.uncontaminated.record(outcome),
            x => self.by_contam[x.min(self.procs) - 1].record(outcome),
        }
    }

    /// Rank count of the deployment.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Trials folded so far.
    pub fn total(&self) -> u64 {
        self.fi.total()
    }

    /// The overall statistical summary so far.
    pub fn fi(&self) -> &FiResult {
        &self.fi
    }

    /// The contaminated-rank histogram so far.
    pub fn prop(&self) -> &PropagationProfile {
        &self.prop
    }

    /// Results conditioned on contamination count (`[x-1]` = exactly
    /// `x` ranks).
    pub fn by_contam(&self) -> &[FiResult] {
        &self.by_contam
    }

    /// Trials that contaminated no rank.
    pub fn uncontaminated(&self) -> &FiResult {
        &self.uncontaminated
    }

    /// Consume the accumulator into its four statistics, in the batch
    /// fold's historical order.
    pub fn into_parts(self) -> (FiResult, PropagationProfile, Vec<FiResult>, FiResult) {
        (self.fi, self.prop, self.by_contam, self.uncontaminated)
    }
}

/// Adaptive-stopping criterion: a campaign may stop once every outcome
/// class's Wilson score interval is narrower than `2 × ci_halfwidth`
/// and at least `min_tests` trials have been folded.
///
/// Decisions are monotone under proportional growth: scaling every
/// outcome count by the same factor never widens a Wilson interval, so
/// once a rule is satisfied it stays satisfied (the property test in
/// `resilim-core` pins this).
///
/// ```
/// use resilim_core::{FiResult, StopRule, TestOutcome};
/// let rule = StopRule::new(0.2).with_min_tests(10);
/// let mut fi = FiResult::new();
/// for _ in 0..100 {
///     fi.record(&TestOutcome::success(true, 1, 1));
/// }
/// assert!(rule.satisfied(&fi));
/// assert!(!rule.satisfied(&FiResult::new()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopRule {
    /// Target half-width of every outcome class's Wilson interval.
    pub ci_halfwidth: f64,
    /// Never stop before this many trials, however narrow the
    /// intervals (tiny campaigns satisfy any width vacuously).
    pub min_tests: u64,
    /// Confidence multiplier of the Wilson interval (1.96 ≈ 95 %).
    pub z: f64,
}

/// Trial floor applied when none is given (`StopRule::new`).
pub const DEFAULT_MIN_TESTS: u64 = 50;

/// Wilson confidence multiplier applied when none is given (95 %).
const DEFAULT_Z: f64 = 1.96;

impl StopRule {
    /// Rule targeting `ci_halfwidth` at 95 % confidence with the
    /// default trial floor ([`DEFAULT_MIN_TESTS`]).
    pub fn new(ci_halfwidth: f64) -> StopRule {
        StopRule {
            ci_halfwidth,
            min_tests: DEFAULT_MIN_TESTS,
            z: DEFAULT_Z,
        }
    }

    /// Replace the minimum-trial floor.
    pub fn with_min_tests(mut self, min_tests: u64) -> StopRule {
        self.min_tests = min_tests;
        self
    }

    /// Half-width of the widest outcome class's Wilson interval.
    pub fn widest_halfwidth(&self, fi: &FiResult) -> f64 {
        OutcomeKind::ALL
            .into_iter()
            .map(|kind| {
                let (lo, hi) = fi.wilson_ci(kind, self.z);
                (hi - lo) / 2.0
            })
            .fold(0.0, f64::max)
    }

    /// Whether `fi` has converged enough to stop.
    pub fn satisfied(&self, fi: &FiResult) -> bool {
        fi.total() >= self.min_tests && self.widest_halfwidth(fi) <= self.ci_halfwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_inject::FailureKind;

    fn mixed_outcomes(n: usize) -> Vec<TestOutcome> {
        (0..n)
            .map(|i| match i % 4 {
                0 => TestOutcome::success(true, 0, 0),
                1 => TestOutcome::success(false, 1, 1),
                2 => TestOutcome::sdc((i % 7) + 1, 1),
                _ => TestOutcome::failure(FailureKind::Crash, 2, 1),
            })
            .collect()
    }

    /// The batch fold the accumulator must match bitwise (mirrors the
    /// campaign layer's historical aggregation).
    fn batch(
        procs: usize,
        outcomes: &[TestOutcome],
    ) -> (FiResult, PropagationProfile, Vec<FiResult>, FiResult) {
        let mut fi = FiResult::new();
        let mut prop = PropagationProfile::new(procs);
        let mut by_contam = vec![FiResult::new(); procs];
        let mut uncontaminated = FiResult::new();
        for outcome in outcomes {
            fi.record(outcome);
            prop.record(outcome);
            match outcome.contaminated_ranks as usize {
                0 => uncontaminated.record(outcome),
                x => by_contam[x.min(procs) - 1].record(outcome),
            }
        }
        (fi, prop, by_contam, uncontaminated)
    }

    #[test]
    fn accumulator_matches_batch_fold_bitwise() {
        crate::verifies!(INV_MERGE);
        for procs in [1usize, 2, 4, 8] {
            let outcomes = mixed_outcomes(40);
            let mut acc = FiAccumulator::new(procs);
            for o in &outcomes {
                acc.record(o);
            }
            let (fi, prop, by_contam, uncontaminated) = batch(procs, &outcomes);
            assert_eq!(*acc.fi(), fi);
            assert_eq!(acc.prop().counts, prop.counts);
            assert_eq!(acc.by_contam(), by_contam.as_slice());
            assert_eq!(*acc.uncontaminated(), uncontaminated);
            let parts = acc.into_parts();
            assert_eq!(parts.0, fi);
            assert_eq!(parts.3, uncontaminated);
        }
    }

    #[test]
    fn stop_rule_respects_min_tests_floor() {
        crate::verifies!(INV_STOP);
        let rule = StopRule::new(0.9).with_min_tests(10);
        let mut fi = FiResult::new();
        for _ in 0..9 {
            fi.record(&TestOutcome::success(true, 1, 1));
        }
        // Intervals are narrow enough but the floor is not met.
        assert!(rule.widest_halfwidth(&fi) <= 0.9);
        assert!(!rule.satisfied(&fi));
        fi.record(&TestOutcome::success(true, 1, 1));
        assert!(rule.satisfied(&fi));
    }

    #[test]
    fn stop_rule_tracks_widest_class() {
        let mut fi = FiResult::new();
        for i in 0..200 {
            if i % 2 == 0 {
                fi.record(&TestOutcome::success(false, 1, 1));
            } else {
                fi.record(&TestOutcome::sdc(1, 1));
            }
        }
        // A 50/50 split at n=200 has half-width ≈ 0.068.
        let w = StopRule::new(0.05).widest_halfwidth(&fi);
        assert!(w > 0.05 && w < 0.10, "w = {w}");
        assert!(!StopRule::new(0.05).with_min_tests(1).satisfied(&fi));
        assert!(StopRule::new(0.10).with_min_tests(1).satisfied(&fi));
    }

    #[test]
    fn empty_result_never_satisfies_a_sub_half_target() {
        crate::verifies!(INV_STOP);
        // Even with a zero floor, the empty interval is (0, 1): half-width 0.5.
        assert!(!StopRule::new(0.4)
            .with_min_tests(0)
            .satisfied(&FiResult::new()));
    }

    #[test]
    fn stop_rule_serde_round_trip() {
        let rule = StopRule::new(0.02).with_min_tests(77);
        let json = serde_json::to_string(&rule).unwrap();
        let back: StopRule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rule);
    }
}
