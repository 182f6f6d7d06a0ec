//! The `campaign` and `merge` commands: run one deployment, or
//! reassemble its shard ledgers (and feature shards, in the same pass).

use crate::opts::{emit, one_deployment, Options};
use resilim_harness::store::{CampaignSummary, ResultStore};
use resilim_harness::CampaignRunner;

/// Run one deployment; print or `--store` its summary.
pub fn campaign(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let (_, spec) = one_deployment(opts)?;
    let (app, procs, errors) = (spec.spec.app(), spec.procs, spec.errors);
    // An unwritable `--store` is an error before any trial runs, not a
    // silently non-durable campaign.
    let result = runner.try_run(&spec).map_err(|e| e.to_string())?;
    if let Some(shard) = runner.shard() {
        // A shard's result is partial: it is ledgered for
        // `resilim merge`, never stored as a campaign summary.
        let text = format!(
            "{app} p={procs} {:?} shard {shard}: ran {} of {} trials \
             (ledgered; run `resilim merge` once every shard finished)\n",
            errors,
            result.outcomes.len(),
            spec.tests,
        );
        let value = serde_json::json!({
            "app": app.name(),
            "procs": procs,
            "shard": shard.to_string(),
            "trials_ran": result.outcomes.len(),
            "tests": spec.tests,
        });
        return emit(opts, text, &value);
    }
    let summary = CampaignSummary::of(&spec, &result);
    if let Some(dir) = &opts.store {
        let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
        let path = store.save(&summary).map_err(|e| e.to_string())?;
        eprintln!("saved {}", path.display());
    }
    let stopped = if result.stopped_early {
        format!(
            " — stopped early at {} of {} planned",
            summary.tests, spec.tests
        )
    } else {
        String::new()
    };
    let text = format!(
        "{app} p={procs} {:?}: success {:.1}%  SDC {:.1}%  failure {:.1}%  ({} tests, {:.2}s){stopped}\n{}",
        errors,
        summary.fi.success_rate() * 100.0,
        summary.fi.sdc_rate() * 100.0,
        summary.fi.failure_rate() * 100.0,
        summary.tests,
        summary.wall_secs,
        detection_line(&summary),
    );
    emit(opts, text, &summary)
}

/// One extra text line for non-baseline campaigns: the fault model, the
/// DUE/detected tallies, and the detection coverage the mitigation
/// achieved. Empty for baseline campaigns, whose output must stay
/// byte-identical to pre-fault-model builds.
fn detection_line(summary: &CampaignSummary) -> String {
    if summary.fault_model.is_default() && !summary.replicate {
        return String::new();
    }
    let coverage = summary
        .detection_coverage
        .map_or("n/a".to_string(), |c| format!("{:.1}%", c * 100.0));
    format!(
        "  fault model {}{}: due {}  detected {}  detection coverage {}\n",
        summary.fault_model.cli_name(),
        if summary.replicate { " +replicate" } else { "" },
        summary.due,
        summary.detected,
        coverage,
    )
}

/// Aggregate a deployment's shard ledgers into one summary (`--store`).
pub fn merge(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    if opts.store.is_none() {
        return Err("merge needs --store DIR (the shards' ledger directory)".into());
    }
    let (_, spec) = one_deployment(opts)?;
    let (app, procs, errors) = (spec.spec.app(), spec.procs, spec.errors);
    let result = runner.merged_from_ledger(&spec)?;
    let summary = CampaignSummary::of(&spec, &result);
    if let Some(dir) = &opts.store {
        let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
        let path = store.save(&summary).map_err(|e| e.to_string())?;
        eprintln!("saved {}", path.display());
    }
    // Feature shards merge in the same pass (corruption-tolerant load):
    // report how many per-trial records the shards recovered so partial
    // feature coverage is visible, not silent.
    let features = if result.features.is_empty() {
        String::new()
    } else {
        format!(
            "  merged {} of {} per-trial feature records\n",
            result.features.len(),
            summary.tests,
        )
    };
    let text = format!(
        "{app} p={procs} {:?} (merged from ledger): success {:.1}%  SDC {:.1}%  failure {:.1}%  ({} tests)\n{features}{}",
        errors,
        summary.fi.success_rate() * 100.0,
        summary.fi.sdc_rate() * 100.0,
        summary.fi.failure_rate() * 100.0,
        summary.tests,
        detection_line(&summary),
    );
    emit(opts, text, &summary)
}
