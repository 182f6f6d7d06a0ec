//! Built-in [`TrialConsumer`]s: online aggregation (with adaptive
//! stopping) and obs trial events — plus the batch fold
//! (`aggregate_outcomes`) the check oracles re-derive results with.
//! (Persistence is `crate::recordlog::LogConsumer`.)

use super::stream::{TrialConsumer, TrialRecord};
use resilim_core::{FiAccumulator, FiResult, PropagationProfile, StopRule, TrialFeatures};
use resilim_inject::{OutcomeKind, TestOutcome};
use resilim_obs as obs;

/// Aggregate per-test outcomes into the campaign statistics (batch
/// form; delegates to the same [`FiAccumulator`] the streaming path
/// folds with, so the two are identical by construction).
///
/// `by_contam[x-1]` summarizes the tests that contaminated exactly
/// `x ∈ [1, procs]` ranks (counts above `procs` clamp down). Tests with
/// `contaminated_ranks == 0` are returned separately: folding them into
/// the x=1 bucket (as this code once did via `clamp(1, procs)`) skews the
/// conditional success rate the model conditions on, because a test where
/// the fault never materialized is always a masked success.
pub fn aggregate_outcomes(
    procs: usize,
    outcomes: &[TestOutcome],
) -> (FiResult, PropagationProfile, Vec<FiResult>, FiResult) {
    let mut acc = FiAccumulator::new(procs);
    for outcome in outcomes {
        acc.record(outcome);
    }
    acc.into_parts()
}

/// The aggregation consumer: folds every delivered outcome into a
/// [`FiAccumulator`] and, when a [`StopRule`] is set, requests an early
/// stop at the first in-order trial where the rule is satisfied.
pub struct CampaignAccumulator {
    acc: FiAccumulator,
    outcomes: Vec<TestOutcome>,
    /// Feature records of freshly executed trials, in delivery order
    /// (resumed records carry none — theirs are in the feature store).
    features: Vec<TrialFeatures>,
    stop: Option<StopRule>,
    satisfied: bool,
}

impl CampaignAccumulator {
    /// Accumulator for a `procs`-rank deployment; `stop = None` never
    /// requests a stop (fixed-`tests` mode).
    pub fn new(procs: usize, stop: Option<StopRule>) -> CampaignAccumulator {
        CampaignAccumulator {
            acc: FiAccumulator::new(procs),
            outcomes: Vec::new(),
            features: Vec::new(),
            stop,
            satisfied: false,
        }
    }

    /// Consume into `(outcomes, features, fi, prop, by_contam,
    /// uncontaminated)`.
    pub fn into_parts(
        self,
    ) -> (
        Vec<TestOutcome>,
        Vec<TrialFeatures>,
        FiResult,
        PropagationProfile,
        Vec<FiResult>,
        FiResult,
    ) {
        let (fi, prop, by_contam, uncontaminated) = self.acc.into_parts();
        (
            self.outcomes,
            self.features,
            fi,
            prop,
            by_contam,
            uncontaminated,
        )
    }
}

impl TrialConsumer for CampaignAccumulator {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        self.acc.record(&rec.outcome);
        self.outcomes.push(rec.outcome);
        if let Some(features) = rec.features {
            self.features.push(features);
        }
        if let Some(rule) = &self.stop {
            if !self.satisfied && rule.satisfied(self.acc.fi()) {
                self.satisfied = true;
                return true;
            }
        }
        false
    }
}

/// Obs consumer: emits one structured `trial` event per freshly
/// executed record, in trial-index order (resumed trials were someone
/// else's events).
pub(super) struct ObsTrialConsumer {
    campaign: u64,
}

impl ObsTrialConsumer {
    /// Consumer emitting under campaign id `campaign`.
    pub(super) fn new(campaign: u64) -> ObsTrialConsumer {
        ObsTrialConsumer { campaign }
    }
}

impl TrialConsumer for ObsTrialConsumer {
    fn consume(&mut self, rec: &TrialRecord) -> bool {
        if !rec.resumed && obs::enabled() {
            obs::emit(&obs::Event::Trial {
                campaign: self.campaign,
                test: rec.index,
                kind: match rec.outcome.kind {
                    OutcomeKind::Success => "success",
                    OutcomeKind::Sdc => "sdc",
                    OutcomeKind::Failure => "failure",
                },
                masked: rec.outcome.masked,
                contaminated: rec.outcome.contaminated_ranks as usize,
                fired: rec.outcome.injections_fired as usize,
                latency_us: rec.latency_us,
            });
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: usize, outcome: TestOutcome) -> TrialRecord {
        TrialRecord {
            index,
            outcome,
            attempts: 1,
            resumed: false,
            latency_us: 0,
            features: Some(TrialFeatures::quiet(
                outcome.kind,
                4,
                100,
                [1.0, 0.0, 0.0, 0.0, 0.0],
            )),
        }
    }

    #[test]
    fn accumulator_consumer_matches_batch_aggregate() {
        let outcomes = vec![
            TestOutcome::success(true, 0, 0),
            TestOutcome::success(false, 2, 1),
            TestOutcome::sdc(4, 1),
            TestOutcome::sdc(9, 1),
        ];
        let mut acc = CampaignAccumulator::new(4, None);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(!acc.consume(&rec(i, *o)));
        }
        let (streamed, features, fi, prop, by_contam, uncontaminated) = acc.into_parts();
        let (bfi, bprop, bby, bunc) = aggregate_outcomes(4, &outcomes);
        assert_eq!(streamed, outcomes);
        assert_eq!(features.len(), outcomes.len());
        assert_eq!(fi, bfi);
        assert_eq!(prop.counts, bprop.counts);
        assert_eq!(by_contam, bby);
        assert_eq!(uncontaminated, bunc);
    }

    #[test]
    fn accumulator_requests_stop_when_rule_satisfied() {
        let rule = StopRule::new(0.45).with_min_tests(5);
        let mut acc = CampaignAccumulator::new(1, Some(rule));
        let mut stopped_at = None;
        for i in 0..100 {
            if acc.consume(&rec(i, TestOutcome::success(true, 1, 1))) {
                stopped_at = Some(i);
                break;
            }
        }
        let at = stopped_at.expect("a uniform stream converges");
        assert!(at >= 4, "min_tests floor ignored (stopped at {at})");
        assert!(at < 99, "rule never satisfied");
        assert_eq!(acc.into_parts().0.len(), at + 1);
    }
}
