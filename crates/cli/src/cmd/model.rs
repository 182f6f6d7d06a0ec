//! The `model` command: predict from a `--store` directory (offline).
//!
//! Builds the paper's closed-form model from the serial + small-scale
//! campaigns ledgered in the store and prints its large-scale prediction.

use crate::opts::{emit, one_app, Options};
use resilim_core::{PaperEq8, SamplePoints};
use resilim_harness::experiments::{assemble_inputs, LARGE_SCALE};
use resilim_harness::{CampaignRunner, CampaignSummary};

/// Eq. 8 for the one `--apps` app: [`PaperEq8`] → rates at `--scale`
/// (default [`LARGE_SCALE`]) from `--small` ranks (default 4). Each
/// input campaign is the one `--tests`/`--seed`/`--adaptive` name,
/// merged from the store's ledger, so a one-shot, sharded or served
/// store reads alike and a missing campaign is an error naming it. The
/// offline model reads baseline-fault-model campaigns only and leaves
/// out Eq. 1's parallel-unique term (its share is 0).
pub fn model(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let app = one_app(opts)?;
    if opts.store.is_none() {
        return Err("model needs --store DIR".into());
    }
    let p = opts.scale.unwrap_or(LARGE_SCALE);
    let s = opts.small.unwrap_or(4);
    if s == 0 || s > p || !p.is_multiple_of(s) {
        return Err(format!("--small {s} must divide --scale {p}"));
    }
    let inputs = assemble_inputs(p, s, SamplePoints::default(), 0.0, |procs, errors| {
        let spec = opts.cfg.campaign(app.default_spec(), procs, errors);
        Ok::<_, String>(CampaignSummary::of(
            &spec,
            &runner.merged_from_ledger(&spec)?,
        ))
    })?;
    let pred = PaperEq8::new(inputs).predict();
    let text = format!(
        "predicted {app} at {p} ranks (from stored serial + {s}-rank data):\n  \
         success {:.1}%  SDC {:.1}%  failure {:.1}%  (alpha: {})\n",
        pred.success() * 100.0,
        pred.sdc() * 100.0,
        pred.failure() * 100.0,
        if pred.used_alpha { "yes" } else { "no" },
    );
    emit(opts, text, &pred)
}
