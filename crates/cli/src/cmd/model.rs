//! The `model` command: predict from a `--store` directory (offline).
//!
//! `--predictor eq8` (the default) keeps the original behavior: build
//! the paper's closed-form model from stored serial + small-scale
//! summaries and print its large-scale prediction. `--predictor
//! logistic|stumps` trains the selected learned predictor on the
//! per-trial feature store under `DIR/features/` and reports Fig 3-style
//! curves — outcome rates by contaminated-rank count, measured next to
//! predicted — with the eq8 prediction alongside when the store also
//! holds the summaries eq8 needs.

use crate::opts::{emit, Options};
use resilim_core::{
    empirical_rates, fit_predictor, mean_rates, PaperEq8, PredictorKind, SamplePoints,
    TrialFeatures,
};
use resilim_harness::experiments::LARGE_SCALE;
use resilim_harness::store::{model_inputs_from_store, ResultStore};
use resilim_harness::FeatureStore;
use std::collections::BTreeMap;

/// Predict from a `--store` directory: closed-form eq8, or a learned
/// predictor trained on the feature store.
pub fn model(opts: &Options) -> Result<(), String> {
    match opts.predictor {
        PredictorKind::Eq8 => eq8(opts),
        kind => learned(opts, kind),
    }
}

/// The original closed-form path: stored serial + small-scale summaries
/// → [`PaperEq8`] → large-scale rates. Output is unchanged from before
/// the predictor registry existed.
fn eq8(opts: &Options) -> Result<(), String> {
    let dir = opts.store.as_ref().ok_or("model needs --store DIR")?;
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let app = *opts.apps.first().ok_or("model needs --apps <one app>")?;
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

/// One contaminated-rank bucket of the Fig 3-style curve: how trials
/// with that many contaminated ranks actually ended vs what the learned
/// predictor assigns them.
#[derive(serde::Serialize)]
struct CurvePoint {
    contaminated_ranks: u32,
    trials: usize,
    /// Measured [success, SDC, failure] rates within the bucket.
    measured: [f64; 3],
    /// Mean predicted [success, SDC, failure] probability in the bucket.
    predicted: [f64; 3],
}

/// The learned-predictor report: overall rates plus the per-bucket curve.
#[derive(serde::Serialize)]
struct LearnedReport {
    predictor: &'static str,
    records: usize,
    /// Empirical [success, SDC, failure] rates over the whole store.
    measured: [f64; 3],
    /// Mean predicted rates over the whole store.
    predicted: [f64; 3],
    /// The closed-form model's rates, when the store also holds the
    /// serial + small-scale summaries it needs (side-by-side column).
    eq8: Option<[f64; 3]>,
    curve: Vec<CurvePoint>,
}

/// Train `kind` on every record in `DIR/features/` and report curves.
fn learned(opts: &Options, kind: PredictorKind) -> Result<(), String> {
    let dir = opts.store.as_ref().ok_or("model needs --store DIR")?;
    let features_dir = std::path::Path::new(dir).join("features");
    let data = FeatureStore::load_all(&features_dir);
    if data.is_empty() {
        return Err(format!(
            "no feature records under {} — run campaigns with --store {dir} first",
            features_dir.display()
        ));
    }
    let predict = fit_predictor(kind, &data)?;
    let report = build_report(kind, &data, &predict, eq8_rates(opts));
    let text = render(&report);
    emit(opts, text, &report)
}

/// The eq8 side-by-side column: `None` when the store lacks the serial +
/// small-scale summaries the closed-form model needs (a feature store
/// written by plain campaigns has no obligation to hold them).
fn eq8_rates(opts: &Options) -> Option<[f64; 3]> {
    let dir = opts.store.as_ref()?;
    let store = ResultStore::open(dir).ok()?;
    let app = *opts.apps.first()?;
    let p = opts.scale.unwrap_or(LARGE_SCALE);
    let s = opts.small.unwrap_or(4);
    let inputs = model_inputs_from_store(&store, app.name(), p, s, SamplePoints::default()).ok()?;
    let pred = PaperEq8::new(inputs).predict();
    Some([pred.success(), pred.sdc(), pred.failure()])
}

fn build_report(
    kind: PredictorKind,
    data: &[TrialFeatures],
    predict_one: &dyn Fn(&TrialFeatures) -> [f64; 3],
    eq8: Option<[f64; 3]>,
) -> LearnedReport {
    let mut buckets: BTreeMap<u32, Vec<&TrialFeatures>> = BTreeMap::new();
    for f in data {
        buckets.entry(f.contaminated_ranks).or_default().push(f);
    }
    let curve = buckets
        .into_iter()
        .map(|(contaminated_ranks, records)| {
            let mut measured = [0.0f64; 3];
            for f in &records {
                measured[f.label.min(2) as usize] += 1.0;
            }
            let n = records.len();
            CurvePoint {
                contaminated_ranks,
                trials: n,
                measured: measured.map(|c| c / n as f64),
                predicted: mean_rates(records.iter().copied(), predict_one),
            }
        })
        .collect();
    LearnedReport {
        predictor: kind.name(),
        records: data.len(),
        measured: empirical_rates(data),
        predicted: mean_rates(data, predict_one),
        eq8,
        curve,
    }
}

fn pct(r: [f64; 3]) -> String {
    format!(
        "success {:5.1}%  SDC {:5.1}%  failure {:5.1}%",
        r[0] * 100.0,
        r[1] * 100.0,
        r[2] * 100.0
    )
}

fn render(report: &LearnedReport) -> String {
    let mut text = format!(
        "{} trained on {} feature records:\n  measured:  {}\n  predicted: {}\n",
        report.predictor,
        report.records,
        pct(report.measured),
        pct(report.predicted),
    );
    match report.eq8 {
        Some(r) => text.push_str(&format!("  eq8:       {}\n", pct(r))),
        None => text.push_str("  eq8:       n/a (store lacks serial + small-scale summaries)\n"),
    }
    text.push_str("  by contaminated ranks (measured | predicted):\n");
    for p in &report.curve {
        text.push_str(&format!(
            "    {:>3} ranks  {:>6} trials   {}  |  {}\n",
            p.contaminated_ranks,
            p.trials,
            pct(p.measured),
            pct(p.predicted),
        ));
    }
    text
}
