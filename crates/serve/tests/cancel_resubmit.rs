//! A cancelled deployment can be submitted again in the same scheduler:
//! the cancel releases its key, so the resubmission registers a new
//! campaign (not a dedup hit on the dead one), resumes exactly the
//! trials delivered before the cancel from the ledger, and ends bitwise
//! identical to a solo run.
//!
//! Single `#[test]` on purpose: it reads process-global obs counters.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, CampaignSummary, ErrorSpec};
use resilim_obs as obs;
use resilim_serve::{CampaignState, Scheduler, WatchEvent};
use std::time::Duration;

#[test]
fn cancelled_deployment_resubmits_and_resumes_its_delivered_trials() {
    let store = std::env::temp_dir().join(format!("resilim-serve-resubmit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let spec = CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, 400, 13);
    let solo = CampaignSummary::of(&spec, &CampaignRunner::new().run_uncached(&spec));

    let sched = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
    let (first, deduped) = sched.submit(&spec).unwrap();
    assert!(!deduped);
    let progress = sched.watch(first).unwrap();
    loop {
        match progress.recv_timeout(Duration::from_secs(60)).unwrap() {
            WatchEvent::Progress { done, .. } if done >= 10 => break,
            WatchEvent::Progress { .. } => {}
            WatchEvent::Terminal { .. } => panic!("campaign ended before the cancel"),
        }
    }
    assert!(sched.cancel(first));
    let delivered = sched.status(first).unwrap().done;
    assert!((10..400).contains(&delivered), "cancelled at {delivered}");

    obs::set_enabled(true);
    let before = obs::MetricsSnapshot::capture();
    let (second, deduped) = sched.submit(&spec).unwrap();
    assert!(!deduped, "a cancelled campaign is not joined");
    assert_ne!(second, first);
    assert_eq!(
        sched.wait(second, Duration::from_secs(120)),
        Some(CampaignState::Done)
    );
    let metrics = obs::MetricsSnapshot::capture().delta(&before);
    obs::set_enabled(false);
    assert_eq!(
        metrics.counter(obs::Counter::TrialsResumed),
        delivered as u64
    );
    let mut resumed = sched.summary(second).unwrap();
    resumed.wall_secs = solo.wall_secs;
    assert_eq!(resumed, solo);

    // The dead campaign stays listed as cancelled; resubmitting the
    // finished one is a dedup hit again.
    assert_eq!(sched.status(first).unwrap().state, "cancelled");
    assert_eq!(sched.submit(&spec).unwrap(), (second, true));
    sched.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}
