//! Single-trial execution: draw the injection plan, run the world on
//! one of its two carriers, harvest and classify the outcome.

use super::spec::{CampaignSpec, ErrorSpec};
use crate::golden::GoldenRun;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resilim_core::{TrialFeatures, SPREAD_WINDOWS};
use resilim_inject::fault::draw_operand;
use resilim_inject::{
    FailureKind, FaultPattern, InjectionPlan, RankCtx, Region, Target, TestOutcome,
};
use resilim_simmpi::{MsgFault, PanicKind, RankOutcome, World};
use std::collections::HashMap;
use std::time::Duration;

/// Plan and execute a single fault-injection test: on fresh rank threads
/// when `spawn_per_trial` (the reference carrier), on pooled coroutines
/// otherwise, under the wall-clock watchdog when `deadline` is set. The
/// second return is whether the watchdog killed the trial (see
/// [`classify_failure`]) — a trial that completes despite a late trip is
/// classified normally. The third is the trial's extracted
/// [`TrialFeatures`], harvested from the same per-rank context reports
/// the classification reads (no extra instrumentation pass).
pub(super) fn execute_trial(
    spec: &CampaignSpec,
    golden: &GoldenRun,
    test: usize,
    spawn_per_trial: bool,
    deadline: Option<Duration>,
) -> (TestOutcome, bool, TrialFeatures) {
    let mut rng =
        SmallRng::seed_from_u64(spec.seed ^ resilim_apps::util::splitmix64(test as u64 + 0x1000));
    let (plans, msg_fault) = plan_test(&mut rng, spec, golden);

    // Comm-graph position of the injecting rank: its share of the
    // deployment's golden-run message sends. Every plan shape has at
    // most one injecting rank (op models key a single rank; message
    // models name the corrupted send's source).
    let inject_rank = if plans.len() == 1 {
        plans.keys().next().copied()
    } else {
        msg_fault.as_ref().map(|f| f.src)
    };
    let golden_sends: u64 = golden.profiles.iter().map(|p| p.msgs_sent).sum();
    let inject_rank_msg_share = match inject_rank {
        Some(rank) if golden_sends > 0 => {
            golden.profiles[rank].msgs_sent as f64 / golden_sends as f64
        }
        _ => 0.0,
    };

    let world = World::new(spec.procs)
        .with_msg_fault(msg_fault)
        .with_deadline(deadline);
    let app = spec.spec.clone();
    let plans_ref = &plans;
    let kill_on_fire = spec.fault_model.kills_on_fire();
    let op_cap = golden.op_cap();
    let mk_ctx = move |rank: usize| {
        let plan = plans_ref
            .get(&rank)
            .cloned()
            .unwrap_or_else(InjectionPlan::none);
        Some(
            RankCtx::new(rank, plan)
                .with_op_cap(op_cap)
                .with_taint_threshold(spec.taint_threshold)
                .with_op_mask(spec.op_mask)
                .with_kill_on_fire(kill_on_fire)
                .with_replication(spec.replicate),
        )
    };
    let body = move |comm: &resilim_simmpi::Comm| app.run_rank(comm);
    let results = if spawn_per_trial {
        world.run_spawned(mk_ctx, body)
    } else {
        world.run_with_ctx(mk_ctx, body)
    };

    // Harvest: contamination, fired count, detection, failures, rank-0
    // output. Every field is a function of the seed for a *failed* trial
    // too: its ranks were torn down in the fabric's schedule order, so
    // how many had seen the taint by then is no thread race.
    let mut contaminated = 0usize;
    let mut fired = 0usize;
    let mut detected = false;
    let mut output = None;
    // Feature accumulators, reduced from the same reports.
    let mut per_kind = [0u64; 5];
    let mut unique_ops = 0u64;
    let mut total_ops = 0u64;
    let mut max_rank_ops = 0u64;
    let mut taint_crossings = 0u64;
    // First-contamination op indices, plus the earliest-contaminated
    // rank's message counters at that moment (rank order breaks ties,
    // deterministically, because `results` is rank-ordered).
    let mut contam_ops: Vec<u64> = Vec::new();
    let mut earliest: Option<(u64, u64, u64)> = None;
    for r in &results {
        let report = r.ctx_report.as_ref().expect("ctx always installed");
        if report.contaminated {
            contaminated += 1;
        }
        let rank_ops = report.profile.total();
        total_ops += rank_ops;
        max_rank_ops = max_rank_ops.max(rank_ops);
        unique_ops += report.profile.region(Region::ParallelUnique).total();
        for region in &report.profile.regions {
            for (acc, n) in per_kind.iter_mut().zip(region.per_kind.iter()) {
                *acc += n;
            }
        }
        taint_crossings += report.tainted_msgs_recvd;
        if let Some(op) = report.first_contam_op {
            contam_ops.push(op);
            if earliest.is_none_or(|(e, _, _)| op < e) {
                earliest = Some((op, report.msgs_sent_at_contam, report.msgs_recvd_at_contam));
            }
        }
        // A wire corruption is a fired injection too: the fault reached
        // a live message even though no op-level target existed.
        fired += report.fired.len() + report.wire_fired as usize;
        detected |= report.detected;
        if let (0, Ok(out)) = (r.rank, &r.result) {
            output = Some(out.clone());
        }
    }
    let (failure, wall_clock_kill) = classify_failure(&results);
    // A DUE kill *is* a detection event even if the killed rank's report
    // was the only witness.
    let detected = detected || failure == Some(FailureKind::Due);

    // Reduce the accumulators into the feature record. The label and
    // detection flag are stamped below once the outcome is classified.
    let mut spread_window = [0u32; SPREAD_WINDOWS];
    for &op in &contam_ops {
        let w = ((op as u128 * SPREAD_WINDOWS as u128) / max_rank_ops.max(1) as u128) as usize;
        spread_window[w.min(SPREAD_WINDOWS - 1)] += 1;
    }
    let spread_rate = match (contam_ops.iter().min(), contam_ops.iter().max()) {
        (Some(&lo), Some(&hi)) if contam_ops.len() >= 2 && hi > lo => {
            (contam_ops.len() - 1) as f64 / (hi - lo) as f64
        }
        _ => 0.0,
    };
    let (first_contam_op, msgs_sent_before, msgs_recvd_before) = match earliest {
        Some((op, sent, recvd)) => (op as i64, sent, recvd),
        None => (-1, 0, 0),
    };
    let mut features = TrialFeatures {
        label: 0,
        detected,
        procs: spec.procs as u32,
        contaminated_ranks: contaminated as u32,
        total_ops,
        op_mix: per_kind.map(|n| {
            if total_ops > 0 {
                n as f64 / total_ops as f64
            } else {
                0.0
            }
        }),
        unique_frac: if total_ops > 0 {
            unique_ops as f64 / total_ops as f64
        } else {
            0.0
        },
        first_contam_op,
        spread_window,
        spread_rate,
        inject_rank_msg_share,
        msgs_sent_before_contam: msgs_sent_before,
        msgs_recvd_before_contam: msgs_recvd_before,
        taint_crossings,
    };

    // `contaminated` may legitimately be 0: a planned fault whose
    // target op was never reached fires nothing and taints nothing.
    // Such tests are aggregated into `uncontaminated`, not `by_contam`.
    if let Some(kind) = failure {
        let outcome = TestOutcome::failure(kind, contaminated, fired).with_detected(detected);
        features.label = outcome.kind.index() as u8;
        return (outcome, wall_clock_kill, features);
    }
    let output = output.expect("rank 0 finished without failure");
    let outcome = if output.identical(&golden.output) {
        TestOutcome::success(true, contaminated, fired)
    } else if output.passes_checker(&golden.output, spec.spec.app().epsilon()) {
        TestOutcome::success(false, contaminated, fired)
    } else {
        TestOutcome::sdc(contaminated, fired)
    };
    let outcome = outcome.with_detected(detected);
    features.label = outcome.kind.index() as u8;
    (outcome, false, features)
}

/// A trial's failure class, read off its ranks' outcomes, and whether it
/// was a wall-clock kill — the watchdog's doing, not the trial's.
///
/// A rank that ended [`PanicKind::FabricDead`] died of somebody else's
/// failure; every other kind is a *primary* cause. The primary cause
/// wins over secondary deaths, a later one over an earlier one, and a
/// DUE kill over everything (the one injected fault halted that rank;
/// every other death is fallout). With no primary cause anywhere the
/// class defaults to crash.
///
/// The kill rule is exact, because a fabric has only two poisoners: a
/// panicking rank, whose own kind is always primary (`World`'s
/// `run_rank` classifies the panic and only then poisons), and the
/// world's watchdog (`watched`). A `FabricDead` error exists only on an
/// already-dead fabric (`Fabric::send` and `Fabric::recv` check before
/// anything else). So a failed trial in which *every* failed rank is
/// `FabricDead` was killed by the wall clock, and one with any primary
/// cause has that cause as its real outcome, however late the watchdog
/// fired too; a run that finished before the poison landed has no
/// failure at all, so it is not a kill either.
fn classify_failure<T>(results: &[RankOutcome<T>]) -> (Option<FailureKind>, bool) {
    let mut failure = None;
    let mut primary = false;
    for kind in results
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .map(|p| p.kind)
    {
        primary |= kind != PanicKind::FabricDead;
        failure = Some(match (failure, kind) {
            (Some(FailureKind::Due), _) => FailureKind::Due,
            (Some(prev), PanicKind::FabricDead) => prev,
            (_, PanicKind::HangGuard | PanicKind::RecvTimeout) => FailureKind::Hang,
            (_, PanicKind::Due) => FailureKind::Due,
            (_, PanicKind::Crash | PanicKind::FabricDead) => FailureKind::Crash,
        });
    }
    (failure, failure.is_some() && !primary)
}

/// Draw the injection plan(s) for one test: a map rank → plan, plus the
/// armed wire fault for message-targeting models (`None` otherwise).
fn plan_test(
    rng: &mut SmallRng,
    spec: &CampaignSpec,
    golden: &GoldenRun,
) -> (HashMap<usize, InjectionPlan>, Option<MsgFault>) {
    let mut plans = HashMap::new();
    // Message-targeting models corrupt a payload on the wire instead of
    // an FP operand: the site is a message, drawn uniformly over every
    // numeric send of the golden execution, and no op plan exists.
    if spec.fault_model.targets_messages() {
        let total: u64 = golden.profiles.iter().map(|p| p.msgs_sent).sum();
        assert!(
            total > 0,
            "--fault-model msg needs a communicating deployment (no sends profiled)"
        );
        let mut g = rng.gen_range(0..total);
        let mut src = 0;
        for (rank, profile) in golden.profiles.iter().enumerate() {
            if g < profile.msgs_sent {
                src = rank;
                break;
            }
            g -= profile.msgs_sent;
        }
        let fault = MsgFault {
            src,
            msg_index: g,
            elem_sel: rng.next_u64(),
            bit: rng.gen_range(0..64),
        };
        return (plans, Some(fault));
    }
    match spec.errors {
        ErrorSpec::OneParallel | ErrorSpec::OneParallelMultiBit(_) => {
            // Uniform over every injectable op of the whole execution.
            let total = golden.injectable_total();
            assert!(total > 0, "no injectable ops profiled");
            let mut g = rng.gen_range(0..total);
            let mut chosen = None;
            'outer: for (rank, profile) in golden.profiles.iter().enumerate() {
                for region in Region::ALL {
                    let count = profile.injectable(region);
                    if g < count {
                        chosen = Some((rank, region, g));
                        break 'outer;
                    }
                    g -= count;
                }
            }
            let (rank, region, op_index) = chosen.expect("g < total");
            // The fault model decides what the fault *is* at the drawn
            // site. The default model's draws are proven bit-identical
            // to the pre-trait code, so historical campaigns reproduce.
            let pattern = match spec.errors {
                ErrorSpec::OneParallelMultiBit(k) => FaultPattern::MultiBit(k),
                _ => FaultPattern::SingleBit,
            };
            let targets = spec.fault_model.op_targets(rng, pattern, region, op_index);
            plans.insert(rank, InjectionPlan::multi(targets));
        }
        ErrorSpec::OneParallelUnique => {
            // This arm's draw order predates the fault-model trait (bit
            // before operand) and is frozen for reproducibility; models
            // with their own bit geometry are restricted to `par` by
            // CLI validation, and DUE's draws equal the baseline's.
            assert!(
                !matches!(spec.fault_model, resilim_inject::FaultModelSpec::Burst(_)),
                "--fault-model burst is only defined for --errors par"
            );
            // Uniform over the parallel-unique ops of the whole execution.
            let total = golden.injectable(Region::ParallelUnique);
            assert!(
                total > 0,
                "OneParallelUnique needs parallel-unique computation"
            );
            let mut g = rng.gen_range(0..total);
            let mut chosen = None;
            for (rank, profile) in golden.profiles.iter().enumerate() {
                let count = profile.injectable(Region::ParallelUnique);
                if g < count {
                    chosen = Some((rank, g));
                    break;
                }
                g -= count;
            }
            let (rank, op_index) = chosen.expect("g < total");
            plans.insert(
                rank,
                InjectionPlan::single(Target {
                    region: Region::ParallelUnique,
                    op_index,
                    bit: rng.gen_range(0..64),
                    operand: draw_operand(rng),
                }),
            );
        }
        ErrorSpec::SerialErrors(x) => {
            assert!(
                !matches!(spec.fault_model, resilim_inject::FaultModelSpec::Burst(_)),
                "--fault-model burst is only defined for --errors par"
            );
            let total = golden.profiles[0].injectable(Region::Common);
            assert!(
                (x as u64) <= total,
                "cannot inject {x} distinct errors into {total} ops"
            );
            let mut indices = std::collections::BTreeSet::new();
            while indices.len() < x {
                indices.insert(rng.gen_range(0..total));
            }
            let targets = indices
                .into_iter()
                .map(|op_index| Target {
                    region: Region::Common,
                    op_index,
                    bit: rng.gen_range(0..64),
                    operand: draw_operand(rng),
                })
                .collect();
            plans.insert(0, InjectionPlan::multi(targets));
        }
    }
    (plans, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_simmpi::RankPanic;
    use PanicKind::{Crash, Due, FabricDead, HangGuard};

    /// Synthetic rank outcomes: `None` finished, `Some(kind)` panicked.
    fn ended(kinds: &[Option<PanicKind>]) -> Vec<RankOutcome<()>> {
        kinds
            .iter()
            .enumerate()
            .map(|(rank, kind)| RankOutcome {
                rank,
                result: kind.map_or(Ok(()), |kind| {
                    Err(RankPanic {
                        kind,
                        message: String::new(),
                    })
                }),
                ctx_report: None,
            })
            .collect()
    }

    #[test]
    fn a_wall_clock_kill_is_a_failure_with_no_primary_cause() {
        let kill = (Some(FailureKind::Crash), true);
        assert_eq!(classify_failure(&ended(&[Some(FabricDead); 3])), kill);
        assert_eq!(
            classify_failure(&ended(&[None, Some(FabricDead)])),
            kill,
            "a rank that finished first changes nothing"
        );
        // Any primary cause is the trial's own outcome, never retried.
        let cases = [
            (
                vec![Some(FabricDead), Some(Crash), Some(FabricDead)],
                FailureKind::Crash,
            ),
            (vec![Some(HangGuard), Some(FabricDead)], FailureKind::Hang),
            (vec![Some(FabricDead), Some(Due)], FailureKind::Due),
            (vec![Some(Due), Some(Crash)], FailureKind::Due),
        ];
        for (kinds, class) in cases {
            assert_eq!(
                classify_failure(&ended(&kinds)),
                (Some(class), false),
                "{kinds:?}"
            );
        }
        assert_eq!(classify_failure(&ended(&[None, None])), (None, false));
    }

    #[test]
    fn real_worlds_under_a_deadline_are_killed_only_when_it_fires() {
        // Real worlds under a watchdog that never fires: a hang-guard trip
        // is a hang and a clean run is no failure at all.
        let world = World::new(2).with_deadline(Some(Duration::from_secs(30)));
        let spinning = world.run_with_ctx(
            |rank| Some(RankCtx::profiling(rank).with_op_cap(100)),
            |comm| {
                let mut acc = resilim_inject::Tf64::ZERO;
                if comm.rank() == 1 {
                    loop {
                        acc += 1.0;
                    }
                }
                comm.barrier();
            },
        );
        assert_eq!(
            classify_failure(&spinning),
            (Some(FailureKind::Hang), false)
        );
        let clean = world.run_spawned(|_| None, |comm| comm.barrier());
        assert_eq!(classify_failure(&clean), (None, false));

        // And one that does fire, on a rank wedged in untracked code.
        let wedged = World::new(2)
            .with_deadline(Some(Duration::from_millis(50)))
            .run_spawned(
                |_| None,
                |comm| {
                    if comm.rank() == 1 {
                        loop {
                            std::thread::sleep(Duration::from_millis(2));
                            comm.send(0, 8, &[]);
                        }
                    }
                    comm.barrier();
                },
            );
        assert_eq!(classify_failure(&wedged), (Some(FailureKind::Crash), true));
    }
}
