//! Weak-scaling extension study (beyond the paper, which considers strong
//! scaling only): grow the problem with the rank count and ask
//!
//! 1. how the measured resilience evolves with scale (bigger problem +
//!    more ranks = more exposure per run — the paper's §1 "ever-increasing
//!    threat" narrative, quantified), and
//! 2. whether the serial + small-scale prediction methodology still works
//!    when the serial runs use the (large) weak problem of the target
//!    scale.

use crate::campaign::{CampaignRunner, ErrorSpec};
use crate::experiments::{build_inputs, ExperimentConfig};
use crate::report::{pct, Table};
use resilim_apps::App;
use resilim_core::{prediction_error, PaperEq8, SamplePoints};
use serde::{Deserialize, Serialize};

/// One app at one weak-scaled target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeakRow {
    /// Workload label.
    pub app: String,
    /// Target scale (and problem-size multiplier).
    pub p: usize,
    /// Measured rates `[success, sdc, failure]` at the target.
    pub measured: [f64; 3],
    /// Predicted rates from serial + small-scale runs of the same weak
    /// problem.
    pub predicted: [f64; 3],
    /// Success-rate prediction error (percentage points).
    pub error: f64,
    /// Whether α fine-tuning was active.
    pub used_alpha: bool,
}

/// The study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeakScaling {
    /// Small scale used for every prediction.
    pub s: usize,
    /// Rows, grouped by app then ascending scale.
    pub rows: Vec<WeakRow>,
}

/// Run the weak-scaling study: for each app and target scale, measure the
/// weak-problem campaign and predict it from serial + `s`-rank inputs.
pub fn weak_scaling(
    runner: &CampaignRunner,
    cfg: &ExperimentConfig,
    apps: &[App],
    s: usize,
    targets: &[usize],
) -> WeakScaling {
    let mut rows = Vec::new();
    for &app in apps {
        for &p in targets {
            let problem = app.weak_spec(p);
            let measured = runner.run(&cfg.campaign(problem.clone(), p, ErrorSpec::OneParallel));
            let inputs = build_inputs(runner, cfg, &problem, p, s, SamplePoints::default());
            let pred = PaperEq8::new(inputs).predict();
            let m = measured.fi.rates();
            rows.push(WeakRow {
                app: app.name().to_string(),
                p,
                measured: m,
                predicted: pred.rates,
                error: prediction_error(m[0], pred.rates[0]),
                used_alpha: pred.used_alpha,
            });
        }
    }
    WeakScaling { s, rows }
}

impl WeakScaling {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Weak scaling (extension): problem grows with ranks; predictions from serial + {} ranks",
                self.s
            ),
            &["benchmark", "ranks", "measured success", "predicted", "error", "measured SDC"],
        );
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                r.p.to_string(),
                pct(r.measured[0]),
                pct(r.predicted[0]),
                format!("{:.1} pp", r.error * 100.0),
                pct(r.measured[1]),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_specs_decompose_and_run() {
        // Every app's weak problem at p = 4 must run fault-free at p = 4.
        let runner = CampaignRunner::new();
        for app in App::ALL {
            let golden = runner.golden().get(&app.weak_spec(4), 4);
            assert!(golden.injectable_total() > 0, "{app}");
        }
    }

    #[test]
    fn weak_study_wiring() {
        let runner = CampaignRunner::new();
        let cfg = ExperimentConfig {
            tests: 10,
            seed: 2,
            ..Default::default()
        };
        let study = weak_scaling(&runner, &cfg, &[App::Lu], 2, &[4]);
        assert_eq!(study.rows.len(), 1);
        let row = &study.rows[0];
        assert!((row.measured.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((row.predicted.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(study.render().contains("Weak scaling"));
    }

    /// The measured target campaign is the one the config implies, as
    /// the model inputs are: under an adaptive rule both stop early.
    #[test]
    fn measured_campaign_follows_an_adaptive_config() {
        let runner = CampaignRunner::new();
        let cfg = ExperimentConfig {
            tests: 60,
            seed: 2,
            stop: Some(resilim_core::StopRule::new(0.3).with_min_tests(8)),
        };
        let study = weak_scaling(&runner, &cfg, &[App::Lu], 2, &[4]);
        let target = runner.run(&cfg.campaign(App::Lu.weak_spec(4), 4, ErrorSpec::OneParallel));
        assert!(target.stopped_early, "the rule must stop before 60 trials");
        assert_eq!(study.rows[0].measured, target.fi.rates());
    }
}
