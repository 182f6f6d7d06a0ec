//! Property-based tests for online aggregation and adaptive stopping.

use proptest::prelude::*;
use resilim_core::{
    FailureKind, FiAccumulator, FiResult, PropagationProfile, StopRule, TestOutcome,
};

/// Any outcome that satisfies the injector's causality invariant:
/// contamination requires a fired fault, and failures carry a detail.
fn outcome(procs: usize) -> impl Strategy<Value = TestOutcome> {
    prop_oneof![
        Just(TestOutcome::success(true, 0, 0)),
        (1..=procs, 1..3usize).prop_map(|(c, f)| TestOutcome::success(true, c, f)),
        (1..=procs, 1..3usize).prop_map(|(c, f)| TestOutcome::success(false, c, f)),
        // Contamination counts above `procs` exercise the clamp.
        (1..=2 * procs, 1..3usize).prop_map(|(c, f)| TestOutcome::sdc(c, f)),
        (1..=procs, 1..3usize).prop_map(|(c, f)| TestOutcome::failure(FailureKind::Crash, c, f)),
        (1..=procs, 1..3usize).prop_map(|(c, f)| TestOutcome::failure(FailureKind::Hang, c, f)),
    ]
}

proptest! {
    /// Folding outcomes one at a time equals the batch construction
    /// bitwise — all four statistics, for any stream and deployment size.
    #[test]
    fn accumulator_equals_batch_fold(
        procs in 1..9usize,
        outcomes in prop::collection::vec(outcome(8), 0..120),
    ) {
        let mut acc = FiAccumulator::new(procs);
        for o in &outcomes {
            acc.record(o);
        }

        let mut fi = FiResult::new();
        let mut prop = PropagationProfile::new(procs);
        let mut by_contam = vec![FiResult::new(); procs];
        let mut uncontaminated = FiResult::new();
        for o in &outcomes {
            fi.record(o);
            prop.record(o);
            match o.contaminated_ranks as usize {
                0 => uncontaminated.record(o),
                x => by_contam[x.min(procs) - 1].record(o),
            }
        }

        prop_assert_eq!(FiResult::from_outcomes(&outcomes), fi);
        prop_assert_eq!(acc.total(), outcomes.len() as u64);
        let (afi, aprop, aby, aunc) = acc.into_parts();
        prop_assert_eq!(afi, fi);
        prop_assert_eq!(aprop.counts, prop.counts);
        prop_assert_eq!(aby, by_contam);
        prop_assert_eq!(aunc, uncontaminated);
    }

    /// Stop decisions are monotone in trial count: once a rule is
    /// satisfied at some class mix, observing proportionally more trials
    /// of the same mix never un-satisfies it (Wilson intervals only
    /// narrow as n grows at fixed rates).
    #[test]
    fn stop_rule_is_monotone_under_proportional_growth(
        succ in 0..40u64,
        sdc in 0..40u64,
        fail in 0..40u64,
        scale in 2..6u64,
        halfwidth in 0.01..0.6f64,
        min_tests in 0..60u64,
    ) {
        let fold = |m: u64| {
            let mut fi = FiResult::new();
            for _ in 0..succ * m {
                fi.record(&TestOutcome::success(false, 1, 1));
            }
            for _ in 0..sdc * m {
                fi.record(&TestOutcome::sdc(1, 1));
            }
            for _ in 0..fail * m {
                fi.record(&TestOutcome::failure(FailureKind::Crash, 1, 1));
            }
            fi
        };
        let rule = StopRule::new(halfwidth).with_min_tests(min_tests);
        let small = fold(1);
        let large = fold(scale);
        prop_assert!(
            !rule.satisfied(&small) || rule.satisfied(&large),
            "rule satisfied at n={} but not at n={}: widths {} -> {}",
            small.total(),
            large.total(),
            rule.widest_halfwidth(&small),
            rule.widest_halfwidth(&large),
        );
    }

    /// The widest half-width shrinks (weakly) as the same mix is scaled
    /// up, independent of any particular rule.
    #[test]
    fn widest_halfwidth_shrinks_with_n(
        succ in 1..40u64,
        sdc in 0..40u64,
        scale in 2..6u64,
    ) {
        let fold = |m: u64| {
            let mut fi = FiResult::new();
            for _ in 0..succ * m {
                fi.record(&TestOutcome::success(false, 1, 1));
            }
            for _ in 0..sdc * m {
                fi.record(&TestOutcome::sdc(1, 1));
            }
            fi
        };
        let rule = StopRule::new(0.0);
        let before = rule.widest_halfwidth(&fold(1));
        let after = rule.widest_halfwidth(&fold(scale));
        prop_assert!(after <= before + 1e-12, "{after} > {before}");
    }
}
