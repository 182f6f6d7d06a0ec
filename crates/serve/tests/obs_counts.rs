//! The daemon's counters count what their docs say: `serve_submits`
//! only accepted and deduplicated submissions, never refused ones, and
//! each terminal campaign once under its terminal state.
//!
//! One `#[test]` only: the recorder and its counters are process-global,
//! so a second test in this binary would race on the deltas.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec};
use resilim_obs::{Counter, MetricsSnapshot};
use resilim_serve::{CampaignState, Scheduler};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn spec(app: App, procs: usize, errors: ErrorSpec, tests: usize) -> CampaignSpec {
    CampaignSpec::new(app.default_spec(), procs, errors, tests, 7)
}

/// How far `counter` moved since `before`.
fn moved(before: &MetricsSnapshot, counter: Counter) -> u64 {
    MetricsSnapshot::capture().delta(before).counter(counter)
}

#[test]
fn serve_counters_count_accepted_submissions_and_terminal_states() {
    resilim_obs::set_enabled(true);
    let sched = Scheduler::new(CampaignRunner::new(), 2, None);

    // MG at p=2 has no parallel-unique operations: `open_run` refuses it.
    let before = MetricsSnapshot::capture();
    let refused = spec(App::Mg, 2, ErrorSpec::OneParallelUnique, 4);
    assert!(sched.submit(&refused).is_err());
    assert_eq!(moved(&before, Counter::ServeSubmits), 0);
    assert_eq!(moved(&before, Counter::ServeDedupHits), 0);

    let small = spec(App::Lu, 2, ErrorSpec::OneParallel, 6);
    let accepted = MetricsSnapshot::capture();
    let (id, deduped) = sched.submit(&small).expect("submit");
    assert!(!deduped);
    assert_eq!(moved(&accepted, Counter::ServeSubmits), 1);
    assert_eq!(moved(&accepted, Counter::ServeDedupHits), 0);

    let before = MetricsSnapshot::capture();
    let (again, deduped) = sched.submit(&small).expect("resubmit");
    assert!(deduped);
    assert_eq!(again, id);
    assert_eq!(moved(&before, Counter::ServeSubmits), 1);
    assert_eq!(moved(&before, Counter::ServeDedupHits), 1);

    assert_eq!(sched.wait(id, WAIT), Some(CampaignState::Done));
    assert_eq!(moved(&accepted, Counter::ServeCampaignsDone), 1);
    assert_eq!(moved(&accepted, Counter::ServeCampaignsCancelled), 0);

    // Far more trials than can finish before the cancel lands.
    let before = MetricsSnapshot::capture();
    let long = spec(App::Lu, 2, ErrorSpec::OneParallel, 100_000);
    let (long_id, _) = sched.submit(&long).expect("submit long");
    assert!(sched.cancel(long_id));
    assert_eq!(sched.wait(long_id, WAIT), Some(CampaignState::Cancelled));
    assert_eq!(moved(&before, Counter::ServeCampaignsCancelled), 1);
    assert_eq!(moved(&before, Counter::ServeCampaignsDone), 0);

    sched.shutdown();
    resilim_obs::set_enabled(false);
}
