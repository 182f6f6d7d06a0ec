//! Cross-crate tests pinning down injection semantics: region targeting,
//! significance classification, and golden-profile consistency between
//! planning and execution.

use resilim::apps::{ft, App};
use resilim::harness::GoldenRun;
use resilim::inject::ctx::significant_divergence;
use resilim::inject::{InjectionPlan, Operand, RankCtx, Region, Target};
use resilim::simmpi::World;

/// A plan targeting the parallel-unique region must fire inside FT's
/// four-step twiddle scaling, and only there.
#[test]
fn parallel_unique_targets_fire_in_the_right_region() {
    let prob = ft::FtProblem::default();
    let world = World::new(4);
    let plan = InjectionPlan::single(Target {
        region: Region::ParallelUnique,
        op_index: 3,
        bit: 54,
        operand: Operand::A,
    });
    let results = world.run_with_ctx(
        move |rank| {
            let p = if rank == 2 {
                plan.clone()
            } else {
                InjectionPlan::none()
            };
            Some(RankCtx::new(rank, p))
        },
        move |comm| ft::run(&prob, comm),
    );
    let report = results[2].ctx_report.as_ref().unwrap();
    assert_eq!(report.fired.len(), 1);
    assert_eq!(report.fired[0].target.region, Region::ParallelUnique);
    // FT has real parallel-unique work at every rank.
    assert!(report.profile.injectable(Region::ParallelUnique) > 0);
}

/// The golden profile predicts exactly how many injectable ops a rank
/// executes: a plan at index `count - 1` fires; at `count` it cannot.
#[test]
fn golden_profile_bounds_the_index_space() {
    let spec = App::Lu.default_spec();
    let golden = GoldenRun::measure(&spec, 2);
    let count = golden.profiles[1].injectable(Region::Common);
    assert!(count > 0);

    let run_with_index = |op_index: u64| -> usize {
        let spec = spec.clone();
        let world = World::new(2);
        let plan = InjectionPlan::single(Target {
            region: Region::Common,
            op_index,
            bit: 0, // low bit: cannot change control flow enough to matter
            operand: Operand::A,
        });
        let results = world.run_with_ctx(
            move |rank| {
                let p = if rank == 1 {
                    plan.clone()
                } else {
                    InjectionPlan::none()
                };
                Some(RankCtx::new(rank, p))
            },
            move |comm| spec.run_rank(comm),
        );
        results[1].ctx_report.as_ref().unwrap().fired.len()
    };
    assert_eq!(run_with_index(count - 1), 1, "last op must be reachable");
    assert_eq!(run_with_index(count), 0, "beyond the profile nothing fires");
}

/// The significance predicate: relative thresholding with sane edge
/// behaviour on zeros, infinities and NaNs.
#[test]
fn significance_predicate_edges() {
    // Identical bits: never significant, at any threshold.
    assert!(!significant_divergence(1.0, 1.0, 0.0));
    assert!(!significant_divergence(f64::NAN, f64::NAN, 1e-9));
    // Bitwise mode flags even a one-ulp difference.
    let one_ulp_up = f64::from_bits(1.0f64.to_bits() + 1);
    assert!(significant_divergence(1.0, one_ulp_up, 0.0));
    // Relative mode tolerates sub-threshold noise...
    assert!(!significant_divergence(1.0, one_ulp_up, 1e-9));
    assert!(!significant_divergence(1.0, 1.0 + 1e-12, 1e-9));
    // ...but flags real divergence.
    assert!(significant_divergence(1.0, 1.1, 1e-9));
    // Scale invariance: the same relative error at any magnitude.
    assert!(!significant_divergence(1e20, 1e20 * (1.0 + 1e-12), 1e-9));
    assert!(significant_divergence(1e-20, 1.1e-20, 1e-9));
    // Non-finite disagreements are always significant.
    assert!(significant_divergence(f64::NAN, 1.0, 1e-3));
    assert!(significant_divergence(f64::INFINITY, 1.0, 1e-3));
    // Sign flips around zero.
    assert!(significant_divergence(-1.0, 1.0, 1e-9));
}

/// The same plan injected twice produces bitwise-identical corrupted
/// digests: the whole pipeline is deterministic under corruption too.
#[test]
fn corrupted_runs_are_reproducible() {
    let run_once = || -> Vec<u64> {
        let spec = App::Mg.default_spec();
        let world = World::new(4);
        let plan = InjectionPlan::single(Target {
            region: Region::Common,
            op_index: 1234,
            bit: 53,
            operand: Operand::B,
        });
        let results = world.run_with_ctx(
            move |rank| {
                let p = if rank == 3 {
                    plan.clone()
                } else {
                    InjectionPlan::none()
                };
                Some(RankCtx::new(rank, p))
            },
            move |comm| spec.run_rank(comm),
        );
        results[0]
            .result
            .as_ref()
            .unwrap()
            .digest
            .iter()
            .map(|d| d.to_bits())
            .collect()
    };
    assert_eq!(run_once(), run_once());
}
