//! Feature-pipeline determinism: the per-trial feature shard a campaign
//! writes under `--store DIR/features/` must be **bitwise identical** no
//! matter how the trials were scheduled — jobs ∈ {1, 4, auto} × batch ∈
//! {1, 7, 64}, one-shot runner or daemon-served. Features ride the same
//! reorder buffer as outcomes, so any scheduling-dependent byte is a
//! pipeline bug.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec, FeatureStore};
use resilim_serve::{CampaignState, Scheduler};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resilim-featdet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::new(App::Cg.default_spec(), 2, ErrorSpec::OneParallel, 24, 5)
}

/// The single feature shard a run produced, as raw bytes.
fn shard_bytes(features_dir: &Path) -> Vec<u8> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(features_dir)
        .expect("features dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "one shard per single-process run");
    std::fs::read(&files[0]).unwrap()
}

#[test]
fn features_are_bitwise_identical_across_schedules() {
    let s = spec();
    let mut reference: Option<Vec<u8>> = None;
    for (name, jobs) in [
        ("jobs=1", Some(1)),
        ("jobs=4", Some(4)),
        ("jobs=auto", None),
    ] {
        for batch in [1usize, 7, 64] {
            let dir = temp_dir(&format!("{name}-b{batch}"));
            let runner = match jobs {
                Some(k) => CampaignRunner::new().with_test_parallelism(k),
                None => CampaignRunner::new().with_auto_parallelism(),
            };
            let runner = runner
                .with_feature_dir(dir.join("features"))
                .with_trial_batch(batch);
            let result = runner.run_uncached(&s);
            assert_eq!(result.features.len(), s.tests, "{name} batch={batch}");
            let bytes = shard_bytes(&dir.join("features"));
            assert!(!bytes.is_empty(), "{name} batch={batch} wrote nothing");
            match &reference {
                None => reference = Some(bytes),
                Some(want) => {
                    assert_eq!(&bytes, want, "{name} batch={batch} shard diverges")
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let reference = reference.unwrap();

    // Daemon-served over a shared pool, batched claims: same bytes.
    let dir = temp_dir("serve");
    let sched = Scheduler::new(
        CampaignRunner::new().with_trial_batch(7),
        4,
        Some(dir.clone()),
    );
    let (id, deduped) = sched.submit(&s).unwrap();
    assert!(!deduped);
    assert_eq!(
        sched.wait(id, Duration::from_secs(120)),
        Some(CampaignState::Done)
    );
    sched.shutdown();
    let served = shard_bytes(&dir.join("features"));
    assert_eq!(served, reference, "daemon-served shard diverges");

    // And the loader reads back exactly one record per trial.
    let loaded = FeatureStore::load(dir.join("features"), &s.ledger_key(), s.seed);
    assert_eq!(loaded.len(), s.tests);
    let _ = std::fs::remove_dir_all(&dir);
}
