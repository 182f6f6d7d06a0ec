//! Durable-ledger contracts: a killed-and-resumed campaign, a sharded
//! campaign merged from its ledgers, and a ledger with a corrupted tail
//! must all reproduce the uninterrupted single-process run *bitwise* —
//! same outcomes vector, same statistics. Trials are fully determined by
//! `(spec, seed, trial index)`, so any partition of "who ran what when"
//! may not leak into the results.

use resilim_apps::App;
use resilim_core::StopRule;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec, Shard, TrialLedger};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resilim-ledres-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(tests: usize) -> CampaignSpec {
    CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, tests, 11)
}

/// The ledger file a single-process run of `key` appended in this test
/// process (tests run in-process, so the pid suffix is ours).
fn own_ledger_file(dir: &std::path::Path, key: &str) -> PathBuf {
    dir.join(TrialLedger::file_name(key))
}

#[test]
fn kill_and_resume_is_bitwise_identical() {
    let dir = temp_dir("resume");
    let spec = spec(14);
    let fresh = CampaignRunner::new().run_uncached(&spec);

    // "Interrupted" run: execute everything, then cut the ledger off
    // after 6 records — exactly what a kill at trial 6 leaves behind
    // (append-only file, flushed per record).
    CampaignRunner::new()
        .with_ledger_dir(&dir)
        .run_uncached(&spec);
    let file = own_ledger_file(&dir, &spec.ledger_key());
    let raw = std::fs::read_to_string(&file).unwrap();
    let kept: String = raw.lines().take(6).map(|l| format!("{l}\n")).collect();
    std::fs::write(&file, kept).unwrap();
    assert_eq!(
        TrialLedger::load(&dir, &spec.ledger_key(), spec.seed).len(),
        6
    );

    // Resume at jobs=1 and at jobs=4: both must re-run exactly the
    // missing 8 trials and reproduce the uninterrupted result bitwise.
    for runner in [
        CampaignRunner::new(),
        CampaignRunner::new().with_test_parallelism(4),
    ] {
        let resumed = runner
            .with_ledger_dir(&dir)
            .with_resume(true)
            .run_uncached(&spec);
        assert_eq!(resumed.outcomes, fresh.outcomes);
        assert_eq!(resumed.fi, fresh.fi);
        assert_eq!(resumed.prop.counts, fresh.prop.counts);
        assert_eq!(resumed.by_contam, fresh.by_contam);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_after_corruption_equals_fresh_run() {
    let dir = temp_dir("corrupt");
    let spec = spec(10);
    let fresh = CampaignRunner::new().run_uncached(&spec);

    CampaignRunner::new()
        .with_ledger_dir(&dir)
        .run_uncached(&spec);
    let file = own_ledger_file(&dir, &spec.ledger_key());
    let raw = std::fs::read_to_string(&file).unwrap();
    let lines: Vec<&str> = raw.lines().collect();
    assert_eq!(lines.len(), 10);
    // Rebuild the file with: interleaved garbage, a stale-version record
    // claiming trial 3 crashed (must be ignored — v != LEDGER_VERSION),
    // a record for a *different* campaign key, and a truncated tail.
    let stale = lines[3].replacen("{\"v\":1,", "{\"v\":999,", 1);
    assert_ne!(stale, lines[3], "fixture relies on the v:1 prefix");
    let foreign = lines[4].replacen(&spec.ledger_key(), "some-other-campaign", 1);
    let mut mangled = String::new();
    for l in &lines[..6] {
        mangled.push_str(l);
        mangled.push('\n');
    }
    mangled.push_str("}}} not a record {{{\n");
    mangled.push_str(&stale);
    mangled.push('\n');
    mangled.push_str(&foreign);
    mangled.push('\n');
    // lines[6..] lost; last surviving line cut mid-record.
    mangled.push_str(&lines[6][..lines[6].len() / 2]);
    std::fs::write(&file, mangled).unwrap();

    let loaded = TrialLedger::load(&dir, &spec.ledger_key(), spec.seed);
    assert_eq!(loaded.len(), 6, "only the 6 intact records survive");

    let resumed = CampaignRunner::new()
        .with_ledger_dir(&dir)
        .with_resume(true)
        .run_uncached(&spec);
    assert_eq!(resumed.outcomes, fresh.outcomes);
    assert_eq!(resumed.fi, fresh.fi);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_ledgers_merge_into_the_single_process_result() {
    let dir = temp_dir("shards");
    let spec = spec(13);
    let fresh = CampaignRunner::new().run_uncached(&spec);

    // jobs=1 shards and jobs=auto shards must both reassemble bitwise.
    for auto in [false, true] {
        let _ = std::fs::remove_dir_all(&dir);
        let mut ran = 0usize;
        for index in 0..3 {
            let mut runner = CampaignRunner::new()
                .with_ledger_dir(&dir)
                .with_shard(Shard { index, count: 3 });
            if auto {
                runner = runner.with_auto_parallelism();
            }
            let partial = runner.run_uncached(&spec);
            ran += partial.outcomes.len();
        }
        assert_eq!(ran, spec.tests, "shards partition the trial space");

        let merged = CampaignRunner::new()
            .with_ledger_dir(&dir)
            .merged_from_ledger(&spec)
            .unwrap();
        assert_eq!(merged.outcomes, fresh.outcomes, "auto={auto}");
        assert_eq!(merged.fi, fresh.fi);
        assert_eq!(merged.prop.counts, fresh.prop.counts);
        assert_eq!(merged.by_contam, fresh.by_contam);
        assert_eq!(merged.uncontaminated, fresh.uncontaminated);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_reports_missing_trials() {
    let dir = temp_dir("missing");
    let spec = spec(9);
    // Only shard 0/3 ran: merge must name the gap, not fabricate data.
    CampaignRunner::new()
        .with_ledger_dir(&dir)
        .with_shard(Shard { index: 0, count: 3 })
        .run_uncached(&spec);
    let err = CampaignRunner::new()
        .with_ledger_dir(&dir)
        .merged_from_ledger(&spec)
        .unwrap_err();
    assert!(err.contains("6/9 trials missing"), "{err}");
    // No ledger dir at all is a distinct, earlier error.
    let err = CampaignRunner::new().merged_from_ledger(&spec).unwrap_err();
    assert!(err.contains("ledger directory"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A merge is a run that executes nothing, so it honours the stop rule:
/// the ledger of a live adaptive campaign holds only its stopped prefix,
/// and merging it rebuilds that prefix instead of reporting the trials
/// past the stop as missing.
#[test]
fn adaptive_ledger_merges_into_the_stopped_result() {
    let dir = temp_dir("adaptive");
    let spec = spec(60).with_stop(StopRule::new(0.3).with_min_tests(8));
    let runner = CampaignRunner::new().with_ledger_dir(&dir);
    let live = runner.run_uncached(&spec);
    assert!(live.stopped_early, "the fixture relies on an early stop");
    let merged = runner.merged_from_ledger(&spec).unwrap();
    assert_eq!(merged.stopped_early, live.stopped_early);
    assert_eq!(merged.outcomes, live.outcomes);
    assert_eq!(merged.fi, live.fi);

    // A trial lost *before* the stop point leaves the prefix unfinished:
    // the merge still names the gap.
    let file = own_ledger_file(&dir, &spec.ledger_key());
    let raw = std::fs::read_to_string(&file).unwrap();
    let kept: String = raw
        .lines()
        .filter(|l| !l.contains("\"trial\":3,"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(kept.lines().count() + 1, raw.lines().count());
    std::fs::write(&file, kept).unwrap();
    let err = runner.merged_from_ledger(&spec).unwrap_err();
    assert!(err.contains("ledger incomplete"), "{err}");
    assert!(err.contains("(e.g. trial 3)"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn campaigns_sharing_a_ledger_dir_stay_isolated() {
    let dir = temp_dir("isolation");
    let a = spec(8);
    let mut b = spec(8);
    b.seed = 12; // same deployment, different campaign seed

    CampaignRunner::new().with_ledger_dir(&dir).run_uncached(&a);
    assert_eq!(TrialLedger::load(&dir, &a.ledger_key(), a.seed).len(), 8);
    // B's key/seed sees none of A's records...
    assert!(TrialLedger::load(&dir, &b.ledger_key(), b.seed).is_empty());

    // ...so resuming B in the shared directory re-runs everything and
    // still equals a fresh, ledger-free run of B.
    let fresh_b = CampaignRunner::new().run_uncached(&b);
    let resumed_b = CampaignRunner::new()
        .with_ledger_dir(&dir)
        .with_resume(true)
        .run_uncached(&b);
    assert_eq!(resumed_b.outcomes, fresh_b.outcomes);
    assert_eq!(resumed_b.fi, fresh_b.fi);
    std::fs::remove_dir_all(&dir).unwrap();
}
