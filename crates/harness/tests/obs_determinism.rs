//! The observability layer must be a pure observer: enabling tracing may
//! not change any campaign statistic, and the trace must reconcile with
//! the statistics it narrates — per campaign, also across the campaigns
//! of one experiment.
//!
//! Single `#[test]` on purpose: the recorder and sink registry are
//! process-global, so concurrent tests would see each other's events.

use resilim_apps::App;
use resilim_harness::experiments::{self, ExperimentConfig};
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec};
use resilim_obs as obs;
use std::sync::Arc;

#[test]
fn tracing_is_deterministic_and_reconciles() {
    let spec = CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, 12, 4242);

    // Baseline: recorder off.
    obs::set_enabled(false);
    let baseline = CampaignRunner::new().run_uncached(&spec);

    // Same deployment with tracing on, into a memory sink.
    let sink = Arc::new(obs::MemorySink::new());
    obs::clear_sinks();
    obs::add_sink(sink.clone());
    obs::set_enabled(true);
    let traced = CampaignRunner::new().run_uncached(&spec);
    obs::set_enabled(false);
    obs::clear_sinks();

    // Determinism: every statistic is bitwise identical.
    assert_eq!(baseline.outcomes, traced.outcomes);
    assert_eq!(baseline.fi, traced.fi);
    assert_eq!(baseline.prop.counts, traced.prop.counts);
    assert_eq!(baseline.by_contam, traced.by_contam);
    assert_eq!(baseline.uncontaminated, traced.uncontaminated);

    // The baseline run observed nothing.
    assert_eq!(
        baseline.metrics.counter(obs::Counter::TrialsRun),
        0,
        "disabled recorder must stay silent"
    );

    // Reconciliation: the trace retells exactly the campaign that ran.
    let events = sink.events();
    let campaign_id = events
        .iter()
        .find_map(|e| match e {
            obs::Event::CampaignStart {
                campaign,
                app,
                procs,
                tests,
                ..
            } => {
                assert_eq!(app, "lu");
                assert_eq!(*procs, spec.procs);
                assert_eq!(*tests, spec.tests);
                Some(*campaign)
            }
            _ => None,
        })
        .expect("exactly one campaign started while tracing");

    let mut trials = 0usize;
    let mut fired_in_trials = 0usize;
    let mut contaminated_in_trials = 0usize;
    let mut injection_events = 0usize;
    let mut taint_events = 0usize;
    let mut ended = false;
    for e in &events {
        match e {
            obs::Event::Trial {
                campaign,
                fired,
                contaminated,
                ..
            } => {
                assert_eq!(*campaign, campaign_id);
                trials += 1;
                fired_in_trials += fired;
                contaminated_in_trials += contaminated;
            }
            obs::Event::InjectionFired { .. } => injection_events += 1,
            obs::Event::TaintBorn { .. } => taint_events += 1,
            obs::Event::CampaignEnd {
                campaign, trials, ..
            } => {
                assert_eq!(*campaign, campaign_id);
                assert_eq!(*trials, spec.tests);
                ended = true;
            }
            _ => {}
        }
    }
    assert!(ended, "campaign_end event missing");
    assert_eq!(trials, spec.tests, "one trial event per test");

    let fired_in_outcomes: usize = traced
        .outcomes
        .iter()
        .map(|o| o.injections_fired as usize)
        .sum();
    let contam_in_outcomes: usize = traced
        .outcomes
        .iter()
        .map(|o| o.contaminated_ranks as usize)
        .sum();
    assert_eq!(fired_in_trials, fired_in_outcomes);
    assert_eq!(
        injection_events, fired_in_outcomes,
        "one event per fired fault"
    );
    assert_eq!(contaminated_in_trials, contam_in_outcomes);
    // Each rank transitions to contaminated at most once per trial, so
    // taint-born events equal the summed contaminated-rank counts.
    assert_eq!(taint_events, contam_in_outcomes);

    // The campaign's metrics delta tells the same story as the events.
    assert_eq!(
        traced.metrics.counter(obs::Counter::TrialsRun),
        spec.tests as u64
    );
    assert_eq!(
        traced.metrics.counter(obs::Counter::InjectionsFired),
        fired_in_outcomes as u64
    );
    assert_eq!(
        traced.metrics.counter(obs::Counter::TaintBorn),
        contam_in_outcomes as u64
    );
    assert_eq!(
        traced.metrics.hist_total(obs::Hist::TrialLatencyUs),
        spec.tests as u64
    );
    assert!(traced.metrics.counter(obs::Counter::MsgsSent) > 0);
    assert_eq!(
        traced.metrics.counter(obs::Counter::MsgsSent),
        traced.metrics.counter(obs::Counter::MsgsRecvd),
        "every sent message was received (clean fabric)"
    );

    // Worker utilization: busy time is the per-trial sum, wall is the
    // worker region × worker count — busy can never exceed wall beyond
    // clock granularity (busy and wall come from independent Instant
    // reads, one pair per trial; see obs::CLOCK_EPSILON_NS), and a
    // sequential run keeps both meaningful (workers = 1).
    let busy = traced.metrics.counter(obs::Counter::WorkerBusyNanos);
    let wall = traced.metrics.counter(obs::Counter::WorkerWallNanos);
    assert!(busy > 0, "sequential run records worker busy time");
    assert!(
        obs::busy_within_wall(busy, wall, spec.tests as u64),
        "utilization must be ≤ 100% (busy {busy} vs wall {wall})"
    );

    // Same invariants under parallel workers, which must also stay
    // bitwise deterministic with the recorder on (no sinks attached).
    obs::set_enabled(true);
    let parallel = CampaignRunner::new()
        .with_test_parallelism(3)
        .run_uncached(&spec);
    obs::set_enabled(false);
    assert_eq!(baseline.outcomes, parallel.outcomes);
    let busy = parallel.metrics.counter(obs::Counter::WorkerBusyNanos);
    let wall = parallel.metrics.counter(obs::Counter::WorkerWallNanos);
    assert!(busy > 0);
    assert!(
        obs::busy_within_wall(busy, wall, spec.tests as u64),
        "parallel utilization must be ≤ 100% (busy {busy} vs wall {wall})"
    );

    // Attribution across an experiment's campaigns: Table 2 runs its 18
    // campaigns one at a time, so the per-campaign `campaign_end` counts
    // partition the process's counts over the call exactly.
    let sink = Arc::new(obs::MemorySink::new());
    obs::add_sink(sink.clone());
    obs::set_enabled(true);
    let before = obs::MetricsSnapshot::capture();
    let cfg = ExperimentConfig {
        tests: 4,
        ..Default::default()
    };
    experiments::table2(&CampaignRunner::new().with_auto_parallelism(), &cfg);
    let process = obs::MetricsSnapshot::capture().delta(&before);
    obs::set_enabled(false);
    obs::clear_sinks();
    let (mut ended, mut switches, mut ended_trials, mut trial_events) = (0, 0, 0, 0);
    for e in &sink.events() {
        match e {
            obs::Event::CampaignEnd {
                trials,
                rank_switches,
                ..
            } => {
                ended += 1;
                switches += rank_switches;
                ended_trials += trials;
            }
            obs::Event::Trial { .. } => trial_events += 1,
            _ => {}
        }
    }
    assert_eq!(ended, 18, "one campaign_end per Table 2 campaign");
    assert_eq!(
        switches,
        process.counter(obs::Counter::RankSwitches),
        "campaign_end rank_switches must sum to the process's"
    );
    assert_eq!(ended_trials, trial_events, "one trial event per trial");
}
