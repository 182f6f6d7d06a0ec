//! The `model` command: predict from a `--store` directory (offline).
//!
//! Builds the paper's closed-form model from stored serial +
//! small-scale summaries and prints its large-scale prediction.

use crate::opts::{emit, Options};
use resilim_core::{PaperEq8, SamplePoints};
use resilim_harness::experiments::LARGE_SCALE;
use resilim_harness::store::{model_inputs_from_store, ResultStore};

/// Eq. 8 over the store's serial + small-scale summaries of the first
/// `--apps` app: [`PaperEq8`] → rates at `--scale` (default
/// [`LARGE_SCALE`]) from `--small` ranks (default 4).
pub fn model(opts: &Options) -> Result<(), String> {
    let dir = opts.store.as_ref().ok_or("model needs --store DIR")?;
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let app = opts.apps()[0];
    let p = opts.scale.unwrap_or(LARGE_SCALE);
    let s = opts.small.unwrap_or(4);
    let inputs = model_inputs_from_store(&store, app.name(), p, s, SamplePoints::default())?;
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
