//! A trial's schedule is a function of its seed — also when it fails.
//!
//! While ranks were free-running threads, `contaminated_ranks` of a
//! *failed* trial was a race: which ranks had already seen the taint when
//! the crash tore the job down depended on thread timing (Pennant p=4
//! read 4 or 3 on the same seed about one run in forty). Under the
//! fabric's run-to-block schedule the teardown point is fixed, so the
//! full [`TestOutcome`](resilim_inject::TestOutcome) of every failing
//! trial must repeat exactly: at any worker count, on both carriers.
//!
//! Single `#[test]` on purpose: the second half reads the process-global
//! obs counters.

use resilim_apps::App;
use resilim_core::OutcomeKind;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec, TrialExecutor};
use resilim_inject::{FaultModelSpec, TestOutcome};
use resilim_obs as obs;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Failure re-executions the race check must reach. The old race showed
/// about once in fifty (5 differing outcomes in 264 re-executions), so
/// the debug suite's fifth of the full count — which CI's release-profile
/// step runs — still cannot miss it.
const REEXECUTIONS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    10_000
};

/// A failing trial — campaign, index — and what it must keep reporting.
type Failing = (CampaignSpec, usize, TestOutcome);

fn runner(jobs: Option<usize>, spawn_per_trial: bool) -> CampaignRunner {
    let runner = match jobs {
        Some(k) => CampaignRunner::new().with_test_parallelism(k),
        None => CampaignRunner::new().with_auto_parallelism(),
    };
    if spawn_per_trial {
        runner.with_spawn_per_trial()
    } else {
        runner
    }
}

/// Re-execute every failing trial `rounds` times on `runner`, from as
/// many threads at once as its `--jobs` resolves to; any deviation from
/// the recorded outcome is a failure.
fn reexecute(runner: &CampaignRunner, failing: &[Failing], rounds: usize, label: &str) {
    // One golden profile per campaign: the runner caches it.
    let work: Vec<(TrialExecutor, usize, TestOutcome)> = failing
        .iter()
        .map(|(spec, trial, outcome)| (runner.trial_executor(spec), *trial, *outcome))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // (`--jobs` resolves the same at every rank count.)
        for _ in 0..runner.effective_parallelism(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= work.len() * rounds {
                    break;
                }
                let (exec, trial, expected) = &work[i % work.len()];
                assert_eq!(
                    exec.run_trial(*trial).outcome,
                    *expected,
                    "{label}: {:?} p={} seed={} trial {trial} re-executed differently",
                    exec.spec().spec.app(),
                    exec.spec().procs,
                    exec.spec().seed,
                );
            });
        }
    });
}

#[test]
fn failed_trials_and_handoff_counts_repeat_exactly() {
    // --- 1. the race is gone -------------------------------------------
    // Pennant's mesh-inversion guard is what crashes under single-bit
    // flips; CG and LU all but never fail that way (their campaigns are
    // kept small and contribute whatever they do produce), so they are
    // also run under the DUE model, where every fired fault kills its
    // rank and the survivors are torn down wherever they happen to be.
    let mut failing: Vec<Failing> = Vec::new();
    for seed in [2018u64, 1_714_072_273] {
        for procs in [4usize, 8] {
            for (app, model, tests) in [
                (App::Pennant, FaultModelSpec::BitFlip, 120),
                (App::Cg, FaultModelSpec::BitFlip, 30),
                (App::Lu, FaultModelSpec::BitFlip, 30),
                (App::Cg, FaultModelSpec::Due, 12),
                (App::Lu, FaultModelSpec::Due, 12),
            ] {
                let spec = CampaignSpec::new(
                    app.default_spec(),
                    procs,
                    ErrorSpec::OneParallel,
                    tests,
                    seed,
                )
                .with_fault_model(model);
                let result = runner(Some(1), false).run_uncached(&spec);
                let failed = result.outcomes.iter().enumerate();
                failing.extend(
                    failed
                        .filter(|(_, o)| o.kind == OutcomeKind::Failure)
                        .map(|(t, o)| (spec.clone(), t, *o)),
                );
            }
        }
    }
    for app in [App::Pennant, App::Cg, App::Lu] {
        for procs in [4, 8] {
            assert!(
                failing
                    .iter()
                    .any(|(spec, ..)| spec.spec.app() == app && spec.procs == procs),
                "{app:?} p={procs} contributes no failing trial"
            );
        }
    }
    assert!(
        failing
            .iter()
            .any(|(spec, _, o)| (1..spec.procs).contains(&(o.contaminated_ranks as usize))),
        "need failures torn down mid-propagation: that is where the race was"
    );

    // jobs ∈ {1, 4, auto} × {pooled, spawn-per-trial}, same share each.
    let configs = [
        (Some(1), false),
        (Some(4), false),
        (None, false),
        (Some(1), true),
        (Some(4), true),
        (None, true),
    ];
    let rounds = REEXECUTIONS.div_ceil(failing.len() * configs.len());
    for (jobs, spawn_per_trial) in configs {
        let label = format!("jobs={jobs:?} spawn_per_trial={spawn_per_trial}");
        reexecute(&runner(jobs, spawn_per_trial), &failing, rounds, &label);
    }

    // --- 2. with the recorder on, the schedule itself repeats ----------
    // Handoffs per campaign are equal on both carriers and run to run; a
    // clean campaign receives, and counts, every message it sends.
    let clean = CampaignSpec::new(App::Ft.default_spec(), 8, ErrorSpec::OneParallel, 8, 2018);
    let crashing = CampaignSpec::new(
        App::Pennant.default_spec(),
        4,
        ErrorSpec::OneParallel,
        40,
        2018,
    );
    obs::set_enabled(true);
    let counted = |spec: &CampaignSpec, spawn_per_trial: bool| {
        let result = runner(Some(1), spawn_per_trial).run_uncached(spec);
        (
            result.outcomes.clone(),
            result.metrics.counter(obs::Counter::RankSwitches),
            result.metrics.counter(obs::Counter::DeadlocksDetected),
            result.metrics.counter(obs::Counter::MsgsSent),
            result.metrics.counter(obs::Counter::MsgsRecvd),
        )
    };
    for spec in [&clean, &crashing] {
        let pooled = counted(spec, false);
        assert_eq!(pooled, counted(spec, true), "carriers diverge");
        assert_eq!(pooled, counted(spec, false), "schedule does not repeat");
        assert!(pooled.1 > 0, "a p>1 campaign hands the baton around");
    }
    obs::set_enabled(false);
    let (outcomes, _, deadlocks, sent, recvd) = counted(&clean, false);
    assert_eq!((deadlocks, sent, recvd), (0, 0, 0), "recorder off: silent");
    obs::set_enabled(true);
    let (traced, _, deadlocks, sent, recvd) = counted(&clean, false);
    obs::set_enabled(false);
    assert_eq!(outcomes, traced);
    assert!(
        traced.iter().all(|o| o.kind != OutcomeKind::Failure),
        "the clean campaign must not tear a fabric down"
    );
    assert_eq!(deadlocks, 0);
    assert!(sent > 0);
    assert_eq!(sent, recvd, "every sent message was received and counted");
}
