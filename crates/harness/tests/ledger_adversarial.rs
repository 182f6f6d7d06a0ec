//! Adversarial merge contracts: `resilim merge` (the
//! `merged_from_ledger` path) must fail *loudly* on ledger directories
//! that lenient resume would shrug off — a duplicated trial record
//! (overlapping shards, or one shard run twice into a shared store) and
//! a record whose deployment identity is inconsistent (key matches, seed
//! field does not). Silently deduping or adopting either would let a
//! misconfigured shard matrix double-count or cross-pollinate campaigns.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec, Shard, TrialLedger};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resilim-ledadv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(tests: usize) -> CampaignSpec {
    CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, tests, 11)
}

/// Run all 3 shards of `spec` into `dir` and return one intact record
/// line from shard 0's ledger file.
fn run_shards(dir: &std::path::Path, spec: &CampaignSpec) -> String {
    for index in 0..3 {
        CampaignRunner::new()
            .with_ledger_dir(dir)
            .with_shard(Shard { index, count: 3 })
            .run_uncached(spec);
    }
    let file = dir.join(TrialLedger::file_name(&spec.ledger_key()));
    std::fs::read_to_string(&file)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string()
}

/// A ledger file for `spec`'s key that no live process owns — what a
/// run from another pid leaves behind. Loads read only files named for
/// the key, so a planted file must carry that name to be seen at all.
fn planted(dir: &std::path::Path, spec: &CampaignSpec, tag: &str) -> PathBuf {
    dir.join(format!(
        "{}zzz-{tag}.jsonl",
        TrialLedger::file_prefix(&spec.ledger_key())
    ))
}

#[test]
fn merge_rejects_duplicated_trial_record() {
    let dir = temp_dir("dup");
    let spec = spec(12);
    let line = run_shards(&dir, &spec);

    // Sanity: the untampered directory merges.
    CampaignRunner::new()
        .with_ledger_dir(&dir)
        .merged_from_ledger(&spec)
        .unwrap();

    // Drop a copy of an existing record into a second ledger file — the
    // on-disk shape of "the same shard ran twice into this store".
    std::fs::write(planted(&dir, &spec, "dup"), format!("{line}\n")).unwrap();
    let err = CampaignRunner::new()
        .with_ledger_dir(&dir)
        .merged_from_ledger(&spec)
        .unwrap_err();
    assert!(err.contains("duplicate record"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_identity_mismatched_record() {
    let dir = temp_dir("identity");
    let spec = spec(12);
    let line = run_shards(&dir, &spec);

    // Forge a record wearing this campaign's key but a different seed
    // field, for a trial index the shards never ledgered — adopting it
    // would silently splice a foreign deployment's outcome in.
    let forged = line
        .replace("\"seed\":11", "\"seed\":12")
        .replace("\"trial\":0", "\"trial\":999");
    assert_ne!(forged, line, "fixture relies on seed/trial spellings");
    std::fs::write(planted(&dir, &spec, "forged"), format!("{forged}\n")).unwrap();
    let err = CampaignRunner::new()
        .with_ledger_dir(&dir)
        .merged_from_ledger(&spec)
        .unwrap_err();
    assert!(err.contains("identity"), "{err}");

    // Lenient resume still treats the forged record as foreign and
    // reproduces the fresh run — strictness is a merge-only contract.
    let fresh = CampaignRunner::new().run_uncached(&spec);
    let resumed = CampaignRunner::new()
        .with_ledger_dir(&dir)
        .with_resume(true)
        .run_uncached(&spec);
    assert_eq!(resumed.outcomes, fresh.outcomes);
    std::fs::remove_dir_all(&dir).unwrap();
}
