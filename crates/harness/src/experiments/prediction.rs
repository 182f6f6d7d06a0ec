//! Figures 5, 6 and 7 — the headline experiment: predict the
//! fault-injection result of a large-scale execution from serial and
//! small-scale measurements, and compare against the actually measured
//! large-scale result.

use crate::campaign::{CampaignRunner, ErrorSpec};
use crate::experiments::ExperimentConfig;
use crate::report::{pct, Table};
use crate::store::CampaignSummary;
use resilim_apps::{App, ProblemSpec};
use resilim_core::{prediction_error, ModelInputs, PaperEq8, SamplePoints, ALPHA_THRESHOLD};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Parallel-unique shares below this are ignored (Observation 2: "the
/// chance to inject an error into it is small").
const UNIQUE_SHARE_CUTOFF: f64 = 0.005;

/// Measured-vs-predicted for one app at one `(p, s)` configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionRow {
    /// Workload label.
    pub app: String,
    /// Target (large) scale.
    pub p: usize,
    /// Small scale used for the prediction.
    pub s: usize,
    /// Measured large-scale rates `[success, sdc, failure]`.
    pub measured: [f64; 3],
    /// Predicted rates `[success, sdc, failure]`.
    pub predicted: [f64; 3],
    /// `|measured − predicted|` on the success rate (percentage points).
    pub error: f64,
    /// Wilson 95 % interval of the measured success rate — the resolution
    /// limit any prediction can be judged against at this test count.
    pub measured_ci: (f64, f64),
    /// Whether α fine-tuning was active.
    pub used_alpha: bool,
    /// The parallel-unique share used as `prob₂`.
    pub unique_share: f64,
}

/// A full prediction experiment (one figure).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionReport {
    /// Target scale.
    pub p: usize,
    /// Small scale.
    pub s: usize,
    /// Per-app rows.
    pub rows: Vec<PredictionRow>,
    /// Average success-rate prediction error.
    pub avg_error: f64,
    /// Maximum success-rate prediction error.
    pub max_error: f64,
}

/// Run the prediction pipeline for `apps`, predicting scale `p` from
/// serial runs plus an `s`-rank small-scale execution (Eq. 1 + Eq. 8),
/// then validate against a measured `p`-rank campaign.
pub fn prediction(
    runner: &CampaignRunner,
    cfg: &ExperimentConfig,
    apps: &[App],
    p: usize,
    s: usize,
    strategy: SamplePoints,
) -> PredictionReport {
    let mut rows = Vec::new();
    for &app in apps {
        assert!(
            p <= app.max_procs(),
            "{app} does not decompose to {p} ranks"
        );
        let inputs = build_inputs(runner, cfg, &app.default_spec(), p, s, strategy);
        let pred = PaperEq8::new(inputs).predict();

        // Validation: the actually measured large-scale campaign.
        let measured = runner.run(&cfg.campaign(app.default_spec(), p, ErrorSpec::OneParallel));

        let m = measured.fi.rates();
        rows.push(PredictionRow {
            app: app.name().to_string(),
            p,
            s,
            measured: m,
            predicted: pred.rates,
            error: prediction_error(m[0], pred.rates[0]),
            measured_ci: measured
                .fi
                .wilson_ci(resilim_core::OutcomeKind::Success, 1.96),
            used_alpha: pred.used_alpha,
            unique_share: runner.golden().get(&app.default_spec(), p).unique_share(),
        });
    }
    let avg_error = rows.iter().map(|r| r.error).sum::<f64>() / rows.len().max(1) as f64;
    let max_error = rows.iter().map(|r| r.error).fold(0.0, f64::max);
    PredictionReport {
        p,
        s,
        rows,
        avg_error,
        max_error,
    }
}

/// Assemble the model inputs for `problem` — **only** serial and
/// small-scale measurements (plus the target-scale op-share, which the
/// paper takes as given from an execution-time model).
pub fn build_inputs(
    runner: &CampaignRunner,
    cfg: &ExperimentConfig,
    problem: &ProblemSpec,
    p: usize,
    s: usize,
    strategy: SamplePoints,
) -> ModelInputs {
    // prob₂ from the target-scale op profile: a fault-free profile, the
    // share the paper takes as given from an execution-time model.
    let unique_share = runner.golden().get(problem, p).unique_share();
    let Ok(inputs) = assemble_inputs(p, s, strategy, unique_share, |procs, errors| {
        let spec = cfg.campaign(problem.clone(), procs, errors);
        Ok::<_, Infallible>(CampaignSummary::of(&spec, &runner.run(&spec)))
    });
    inputs
}

/// The one place Eq. 8's [`ModelInputs`] are built from measured
/// campaigns, live ([`build_inputs`]) or offline (`resilim model`, which
/// merges each campaign from a store's ledger).
/// `measure(procs, errors)` looks up one campaign of the workload. Read:
/// the serial campaigns at every [`ModelInputs::serial_cases`], the
/// `s`-rank 1-error campaign (propagation profile + conditionals) and,
/// when the target-scale `unique_share` clears `UNIQUE_SHARE_CUTOFF` (0.5 %),
/// the `s`-rank parallel-unique campaign behind Eq. 1's prob₂ term.
pub fn assemble_inputs<E>(
    p: usize,
    s: usize,
    strategy: SamplePoints,
    unique_share: f64,
    measure: impl Fn(usize, ErrorSpec) -> Result<CampaignSummary, E>,
) -> Result<ModelInputs, E> {
    let mut serial = BTreeMap::new();
    for x in ModelInputs::serial_cases(p, s, strategy) {
        serial.insert(x, measure(1, ErrorSpec::SerialErrors(x))?.fi);
    }
    let small = measure(s, ErrorSpec::OneParallel)?;
    let (unique_share, fi_unique) = if unique_share > UNIQUE_SHARE_CUTOFF {
        let unique = measure(s, ErrorSpec::OneParallelUnique)?;
        (unique_share, Some(unique.fi))
    } else {
        (0.0, None)
    };
    Ok(ModelInputs {
        p,
        s,
        strategy,
        serial,
        // `None` where a contamination class was never observed.
        small_by_contam: small
            .by_contam
            .iter()
            .map(|fi| (fi.total() > 0).then_some(*fi))
            .collect(),
        small_prop: small.prop,
        unique_share,
        fi_unique,
        alpha_threshold: ALPHA_THRESHOLD,
    })
}

impl PredictionReport {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Prediction for {} ranks from serial + {}-rank small scale",
                self.p, self.s
            ),
            &[
                "benchmark",
                "measured success (95% CI)",
                "predicted success",
                "error",
                "alpha",
                "measured SDC",
                "predicted SDC",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                format!(
                    "{} ({}-{})",
                    pct(r.measured[0]),
                    pct(r.measured_ci.0),
                    pct(r.measured_ci.1)
                ),
                pct(r.predicted[0]),
                format!("{:.1} pp", r.error * 100.0),
                if r.used_alpha { "yes" } else { "no" }.to_string(),
                pct(r.measured[1]),
                pct(r.predicted[1]),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "average error {:.1} pp, max error {:.1} pp\n",
            self.avg_error * 100.0,
            self.max_error * 100.0
        ));
        out
    }
}

impl PredictionReport {
    /// Render measured-vs-predicted success rates as an SVG bar chart.
    pub fn to_svg(&self) -> String {
        crate::plot::BarChart {
            title: format!(
                "Prediction for {} ranks from serial + {}-rank small scale",
                self.p, self.s
            ),
            y_label: "success rate".into(),
            categories: self.rows.iter().map(|r| r.app.clone()).collect(),
            series: vec![
                (
                    "measured".into(),
                    self.rows.iter().map(|r| r.measured[0]).collect(),
                ),
                (
                    "predicted".into(),
                    self.rows.iter().map(|r| r.predicted[0]).collect(),
                ),
            ],
            y_max: 1.0,
        }
        .to_svg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_pipeline_wiring() {
        // Reduced scales so the unit test stays fast: predict p = 4 from
        // s = 2 for one app.
        let runner = CampaignRunner::new();
        let cfg = ExperimentConfig {
            tests: 30,
            seed: 11,
            ..Default::default()
        };
        let report = prediction(&runner, &cfg, &[App::Lu], 4, 2, SamplePoints::BucketUpper);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        for k in 0..3 {
            assert!((0.0..=1.0).contains(&row.measured[k]));
            assert!((0.0..=1.0).contains(&row.predicted[k]));
        }
        let psum: f64 = row.predicted.iter().sum();
        assert!((psum - 1.0).abs() < 1e-9, "predicted rates sum to {psum}");
        assert!(report.max_error >= report.avg_error);
        assert!(report.render().contains("Prediction for 4 ranks"));
        assert!(report.to_svg().contains("measured"));
    }

    #[test]
    fn ft_prediction_includes_unique_term() {
        let runner = CampaignRunner::new();
        let cfg = ExperimentConfig {
            tests: 20,
            seed: 11,
            ..Default::default()
        };
        let ft = App::Ft.default_spec();
        let inputs = build_inputs(&runner, &cfg, &ft, 4, 2, SamplePoints::BucketUpper);
        assert!(inputs.unique_share > UNIQUE_SHARE_CUTOFF);
        assert!(inputs.fi_unique.is_some());
    }
}
