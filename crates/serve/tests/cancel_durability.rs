//! Cancelling (or draining) a campaign whose ledger writes are batched
//! must not lose the records still sitting in the write buffer: the
//! ledger keeps *everything delivered so far*, so a resubmission resumes
//! exactly those trials and ends bitwise identical to a solo run.
//!
//! Single `#[test]` on purpose: it reads process-global obs counters.

use resilim_apps::App;
use resilim_harness::{
    CampaignRunner, CampaignSpec, CampaignSummary, ErrorSpec, FeatureStore, TrialLedger,
};
use resilim_obs as obs;
use resilim_serve::{CampaignState, Scheduler, WatchEvent};
use std::time::Duration;

#[test]
fn cancel_keeps_every_delivered_record_and_resubmission_resumes_them() {
    let store = std::env::temp_dir().join(format!("resilim-serve-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let spec = CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, 400, 5);
    let solo = CampaignSummary::of(&spec, &CampaignRunner::new().run_uncached(&spec));

    // Batch 7: up to six delivered records wait in the consumer buffer
    // between writes. Cancel once a few batches' worth were delivered —
    // 400 trials cannot have finished by then.
    let first = Scheduler::new(
        CampaignRunner::new().with_trial_batch(7),
        2,
        Some(store.clone()),
    );
    let (id, _) = first.submit(&spec).unwrap();
    let progress = first.watch(id).unwrap();
    loop {
        match progress.recv_timeout(Duration::from_secs(60)).unwrap() {
            WatchEvent::Progress { done, .. } if done >= 20 => break,
            WatchEvent::Progress { .. } => {}
            WatchEvent::Terminal { .. } => panic!("campaign ended before the cancel"),
        }
    }
    assert!(first.cancel(id));
    let delivered = first.status(id).unwrap().done;
    assert!((20..400).contains(&delivered), "cancelled at {delivered}");
    // Everything delivered is on disk the moment `cancel` returns, not
    // only once the scheduler is dropped…
    let key = spec.ledger_key();
    let ledgered = TrialLedger::load(store.join("ledger"), &key, spec.seed);
    assert_eq!(ledgered.len(), delivered, "buffered records were lost");
    assert!((0..delivered).all(|t| ledgered.contains_key(&t)));
    assert_eq!(
        FeatureStore::load(store.join("features"), &key, spec.seed).len(),
        delivered
    );
    // …and nothing in flight at the cancel is written afterwards.
    first.shutdown();
    assert_eq!(
        TrialLedger::load(store.join("ledger"), &key, spec.seed).len(),
        delivered
    );

    // A fresh scheduler resumes exactly the delivered trials and ends
    // where the solo run ends.
    obs::set_enabled(true);
    let before = obs::MetricsSnapshot::capture();
    let second = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
    let (id, deduped) = second.submit(&spec).unwrap();
    assert!(!deduped);
    assert_eq!(
        second.wait(id, Duration::from_secs(120)),
        Some(CampaignState::Done)
    );
    let metrics = obs::MetricsSnapshot::capture().delta(&before);
    obs::set_enabled(false);
    assert_eq!(
        metrics.counter(obs::Counter::TrialsResumed),
        delivered as u64
    );
    assert_eq!(
        metrics.counter(obs::Counter::TrialsRun),
        (400 - delivered) as u64
    );
    let mut resumed = second.summary(id).unwrap();
    resumed.wall_secs = solo.wall_secs;
    assert_eq!(resumed, solo);
    let _ = std::fs::remove_dir_all(&store);
}
