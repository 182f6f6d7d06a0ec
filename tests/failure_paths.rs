//! Failure-injection tests: drive the crash and hang classification paths
//! end-to-end through the campaign layer.

use resilim::apps::pennant::PennantProblem;
use resilim::apps::ProblemSpec;
use resilim::core::OutcomeKind;
use resilim::harness::{CampaignRunner, CampaignSpec, ErrorSpec};
use resilim::inject::{ctx, InjectionPlan, Operand, RankCtx, Region, Target, Tf64};
use resilim::simmpi::{PanicKind, World};

/// PENNANT's mesh-inversion guard: corrupting a point coordinate hard
/// enough produces a non-positive zone volume, which aborts the run like
/// the original's "zone volume went negative" error. The campaign layer
/// must classify that as a Failure (crash), not SDC.
#[test]
fn pennant_crash_is_classified_as_failure() {
    let runner = CampaignRunner::new();
    // Sweep seeds until a crash shows up; exponent-bit flips in position
    // updates invert zones readily, so a few hundred tests suffice.
    let result = runner.run(&CampaignSpec::new(
        ProblemSpec::Pennant(PennantProblem::default()),
        2,
        ErrorSpec::OneParallel,
        250,
        0xFA11,
    ));
    let failures = result.fi.counts[OutcomeKind::Failure.index()];
    assert!(
        failures > 0,
        "expected at least one crash from 250 PENNANT injections: {:?}",
        result.fi
    );
    // Every failure outcome carries its failure kind.
    for o in &result.outcomes {
        if o.kind == OutcomeKind::Failure {
            assert!(o.failure.is_some());
        }
    }
    // And successes + SDC + failures partition the tests.
    assert_eq!(result.fi.total(), 250);
}

/// A deterministic crash: flip the sign bit of a coordinate early in the
/// run and check the world reports the primary panic, with secondary
/// fabric deaths distinguished.
#[test]
fn primary_crash_vs_secondary_fabric_death() {
    let world = World::new(4);
    let prob = PennantProblem::default();
    let results = world.run_with_ctx(
        |rank| {
            let plan = if rank == 1 {
                // Sign-flip an early multiplication result: coordinates go
                // negative, the shoelace area guard trips.
                InjectionPlan::single(Target {
                    region: Region::Common,
                    op_index: 5,
                    bit: 63,
                    operand: Operand::Result,
                })
            } else {
                InjectionPlan::none()
            };
            Some(RankCtx::new(rank, plan))
        },
        move |comm| resilim::apps::pennant::run(&prob, comm),
    );
    let kinds: Vec<Option<PanicKind>> = results
        .iter()
        .map(|r| r.result.as_ref().err().map(|p| p.kind))
        .collect();
    // The corruption crosses the rank boundary through the point-sum
    // exchange, so the injected rank *or* its neighbour hits the volume
    // guard first — which one is fixed by the run-to-block schedule, not
    // by a race, so `kinds` repeats exactly. At least one rank must die
    // of the *primary* crash, and the others of crash/secondary causes.
    assert!(
        kinds.contains(&Some(PanicKind::Crash)),
        "no primary crash observed: {kinds:?}"
    );
    for (rank, kind) in kinds.iter().enumerate() {
        assert!(
            matches!(
                kind,
                Some(PanicKind::FabricDead) | Some(PanicKind::RecvTimeout) | Some(PanicKind::Crash)
            ),
            "rank {rank}: {kind:?}"
        );
    }
}

/// The hang guard converts a runaway loop into a classified hang.
#[test]
fn hang_guard_end_to_end() {
    let world = World::new(2);
    let results = world.run_with_ctx(
        |rank| Some(RankCtx::profiling(rank).with_op_cap(500)),
        |comm| {
            // A "convergence" loop whose corrupted predicate never fires.
            let mut acc = Tf64::new(1.0);
            while acc > 0.0 {
                acc += 1.0;
            }
            comm.barrier();
        },
    );
    for r in results {
        let err = r.result.unwrap_err();
        assert_eq!(err.kind, PanicKind::HangGuard);
    }
    ctx::take();
}

/// Injection into an operand that later feeds a division can produce
/// non-finite values; those must classify as SDC (failed checker), never
/// as silent success.
#[test]
fn non_finite_output_is_never_success() {
    let runner = CampaignRunner::new();
    let result = runner.run(&CampaignSpec::new(
        resilim::apps::App::Cg.default_spec(),
        1,
        ErrorSpec::SerialErrors(8),
        150,
        0xBAD,
    ));
    // Reconstruct: any outcome that was a success must have come from a
    // finite digest (passes_checker rejects non-finite); nothing to
    // assert per-test here beyond the partition, but the rates must be
    // consistent and the campaign must have observed real SDC.
    assert!(result.fi.sdc_rate() > 0.0);
    let sum: f64 = result.fi.rates().iter().sum();
    assert!((sum - 1.0).abs() < 1e-12);
}
