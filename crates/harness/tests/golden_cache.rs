//! Persistent golden-run cache: a second "invocation" (fresh runner on
//! the same store directory) must skip re-profiling entirely, and
//! corrupted or stale-version cache files must fall back to re-measuring
//! instead of erroring, and a temp file left by a killed save is ignored.
//!
//! Single test function: the obs recorder is process-global, so the
//! counter-delta assertions must not run concurrently with other golden
//! measurements in this binary.

use resilim_apps::App;
use resilim_harness::{golden_cache_file_name, CampaignRunner, CampaignSpec, ErrorSpec};
use resilim_inject::OpMask;
use resilim_obs as obs;

#[test]
fn disk_cache_skips_reprofiling_and_tolerates_corruption() {
    let dir = std::env::temp_dir().join(format!("resilim-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app_spec = App::Lu.default_spec();
    let spec = CampaignSpec::new(app_spec.clone(), 2, ErrorSpec::OneParallel, 8, 5);
    let file = dir.join(golden_cache_file_name(&app_spec, 2, OpMask::FP_ARITH));

    // First invocation: measures the golden run and persists it.
    let first = CampaignRunner::new()
        .with_golden_dir(&dir)
        .run_uncached(&spec);
    assert!(file.is_file(), "golden record persisted at {file:?}");

    // Second invocation (fresh runner = fresh process's memory cache):
    // must hit the disk cache and re-profile nothing.
    obs::set_enabled(true);
    let before = obs::MetricsSnapshot::capture();
    let second = CampaignRunner::new()
        .with_golden_dir(&dir)
        .run_uncached(&spec);
    let delta = obs::MetricsSnapshot::capture().delta(&before);
    obs::set_enabled(false);
    assert_eq!(
        delta.counter(obs::Counter::GoldenCacheMisses),
        0,
        "warm disk cache must not re-profile"
    );
    assert!(delta.counter(obs::Counter::GoldenCacheHits) >= 1);
    assert_eq!(first.outcomes, second.outcomes);
    assert_eq!(first.fi, second.fi);

    // Corrupted record: fall back to re-measuring, then re-persist.
    std::fs::write(&file, "definitely { not json").unwrap();
    let after_corruption = CampaignRunner::new()
        .with_golden_dir(&dir)
        .run_uncached(&spec);
    assert_eq!(first.outcomes, after_corruption.outcomes);
    let rewritten = std::fs::read_to_string(&file).unwrap();
    assert!(
        rewritten.contains("\"version\""),
        "re-measured record rewritten over the corrupt one"
    );

    // Stale version: a syntactically valid record from a different cache
    // generation is ignored, not trusted and not fatal.
    let v = resilim_harness::GOLDEN_CACHE_VERSION;
    let mut stale = rewritten.replacen(&format!("\"version\":{v}"), "\"version\":999999", 1);
    if stale == rewritten {
        stale = rewritten.replacen(&format!("\"version\": {v}"), "\"version\": 999999", 1);
    }
    assert_ne!(stale, rewritten, "version field located in the record");
    std::fs::write(&file, stale).unwrap();
    let after_stale = CampaignRunner::new()
        .with_golden_dir(&dir)
        .run_uncached(&spec);
    assert_eq!(first.outcomes, after_stale.outcomes);

    // A save killed between temp-write and rename leaves a `*.tmp.*`
    // sibling behind: a completed save leaves none of its own, and a
    // torn one beside the record is ignored by the next lookup.
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    assert_eq!(listing(), [file.file_name().unwrap()]);
    std::fs::write(format!("{}.tmp.4242", file.display()), "{\"version\":").unwrap();
    obs::set_enabled(true);
    let before = obs::MetricsSnapshot::capture();
    let after_leftover = CampaignRunner::new()
        .with_golden_dir(&dir)
        .run_uncached(&spec);
    let delta = obs::MetricsSnapshot::capture().delta(&before);
    obs::set_enabled(false);
    assert_eq!(delta.counter(obs::Counter::GoldenCacheMisses), 0);
    assert_eq!(first.outcomes, after_leftover.outcomes);

    let _ = std::fs::remove_dir_all(&dir);
}
