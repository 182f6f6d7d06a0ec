//! Single-trial execution: draw the injection plan, run the world on an
//! [`ExecBackend`], harvest and classify the outcome.

use super::spec::{CampaignSpec, ErrorSpec};
use crate::golden::GoldenRun;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resilim_apps::AppOutput;
use resilim_core::{TrialFeatures, SPREAD_WINDOWS};
use resilim_inject::{
    FailureKind, FaultPattern, InjectionPlan, Operand, RankCtx, Region, Target, TestOutcome,
};
use resilim_simmpi::{ExecBackend, MsgFault, PanicKind, World};
use std::collections::HashMap;

/// Plan and execute a single fault-injection test on `backend`. The
/// second return is whether the wall-clock watchdog tripped *and* the
/// trial failed because of it — a trial that completes despite a late
/// trip is classified normally. The third is the trial's extracted
/// [`TrialFeatures`], harvested from the same per-rank context reports
/// the classification reads (no extra instrumentation pass).
pub(super) fn execute_trial(
    spec: &CampaignSpec,
    golden: &GoldenRun,
    op_cap: u64,
    test: usize,
    backend: &dyn ExecBackend<AppOutput>,
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

    let world = World::new(spec.procs).with_msg_fault(msg_fault);
    let app = spec.spec.clone();
    let plans_ref = &plans;
    let kill_on_fire = spec.fault_model.kills_on_fire();
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
                .with_kill_on_fire(kill_on_fire),
        )
    };
    let body = move |comm: &resilim_simmpi::Comm| app.run_rank(comm);
    let (results, tripped) = backend.run(&world, &mk_ctx, &body);

    // Harvest: contamination, fired count, detection, failures, rank-0
    // output. Every field is a function of the seed for a *failed* trial
    // too: its ranks were torn down in the fabric's schedule order, so
    // how many had seen the taint by then is no thread race.
    let mut contaminated = 0usize;
    let mut fired = 0usize;
    let mut detected = false;
    let mut failure: Option<FailureKind> = None;
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
        match &r.result {
            Ok(out) => {
                if r.rank == 0 {
                    output = Some(out.clone());
                }
            }
            Err(panic) => {
                let kind = match panic.kind {
                    PanicKind::HangGuard | PanicKind::RecvTimeout => FailureKind::Hang,
                    PanicKind::Crash => FailureKind::Crash,
                    PanicKind::Due => FailureKind::Due,
                    // Secondary death: keep looking for the primary
                    // cause; default to crash if none found.
                    PanicKind::FabricDead => FailureKind::Crash,
                };
                failure = Some(match (failure, panic.kind) {
                    // A DUE kill is the primary cause by construction
                    // (the one injected fault halted that rank; every
                    // other death is fallout), so it is never displaced.
                    (Some(FailureKind::Due), _) => FailureKind::Due,
                    // A real crash/hang overrides a secondary failure.
                    (Some(prev), PanicKind::FabricDead) => prev,
                    _ => kind,
                });
            }
        }
    }
    // A DUE kill *is* a detection event even if the killed rank's report
    // was the only witness.
    let detected = detected || failure == Some(FailureKind::Due);
    // A watchdog trip only counts when it actually killed the trial:
    // a run that completed before the poison landed has a legitimate
    // outcome and must not be reclassified (or retried).
    let tripped = tripped && failure.is_some();

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
        return (outcome, tripped, features);
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
            let targets = spec
                .fault_model
                .model()
                .op_targets(rng, pattern, region, op_index);
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

fn draw_operand(rng: &mut SmallRng) -> Operand {
    if rng.gen_bool(0.5) {
        Operand::A
    } else {
        Operand::B
    }
}
