//! Figure 8 — the accuracy/cost tradeoff of the small-scale size: RMSE of
//! the prediction across all benchmarks, and fault-injection execution
//! time, as the small scale grows from 4 to 32 ranks.

use crate::campaign::{CampaignRunner, ErrorSpec};
use crate::experiments::{prediction, ExperimentConfig, LARGE_SCALE};
use crate::report::{num, Table};
use resilim_apps::App;
use resilim_core::{rmse, SamplePoints};
use serde::{Deserialize, Serialize};

/// One sensitivity point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Point {
    /// Small-scale size.
    pub s: usize,
    /// RMSE of the success-rate prediction over all benchmarks (Eq. 9).
    pub rmse: f64,
    /// Average small-scale campaign wall time, normalized by the serial
    /// 1-error campaign wall time (the paper's "execution time normalized
    /// by that of serial execution").
    pub fi_time_normalized: f64,
}

/// The full sensitivity study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    /// Target scale all predictions aim at.
    pub p: usize,
    /// One point per small-scale size.
    pub points: Vec<Fig8Point>,
}

/// Regenerate Figure 8: predictions for `p = 64` using small scales
/// `scales` (paper: 4, 8, 16, 32), over all apps.
///
/// The scale points run one after another, so each campaign's wall
/// clock — the FI-time column — is measured with the host to itself
/// (each campaign already runs its trials on every core). Points share
/// their serial sub-campaigns through the runner's campaign cache.
pub fn fig8(runner: &CampaignRunner, cfg: &ExperimentConfig, scales: &[usize]) -> Fig8 {
    let apps: Vec<App> = App::ALL.to_vec();
    let point_for = |s: usize| -> Fig8Point {
        let report = prediction(
            runner,
            cfg,
            &apps,
            LARGE_SCALE,
            s,
            SamplePoints::BucketUpper,
        );
        let pairs: Vec<(f64, f64)> = report
            .rows
            .iter()
            .map(|r| (r.measured[0], r.predicted[0]))
            .collect();

        // Fault-injection time: small-scale campaign wall, normalized by
        // the serial 1-error campaign wall, averaged over apps.
        let mut ratios = Vec::with_capacity(apps.len());
        for &app in &apps {
            let small = runner.run(&cfg.campaign(app.default_spec(), s, ErrorSpec::OneParallel));
            let serial =
                runner.run(&cfg.campaign(app.default_spec(), 1, ErrorSpec::SerialErrors(1)));
            let denom = serial.wall.as_secs_f64().max(1e-9);
            ratios.push(small.wall.as_secs_f64() / denom);
        }
        let fi_time_normalized = ratios.iter().sum::<f64>() / ratios.len() as f64;

        Fig8Point {
            s,
            rmse: rmse(&pairs),
            fi_time_normalized,
        }
    };
    Fig8 {
        p: LARGE_SCALE,
        points: scales.iter().map(|&s| point_for(s)).collect(),
    }
}

impl Fig8 {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Figure 8: accuracy vs fault-injection time (predicting {} ranks)",
                self.p
            ),
            &[
                "small scale",
                "RMSE (success rate)",
                "FI time (normalized to serial)",
            ],
        );
        for pt in &self.points {
            t.row(vec![
                pt.s.to_string(),
                num(pt.rmse),
                format!("{:.2}x", pt.fi_time_normalized),
            ]);
        }
        t.render()
    }
}

impl Fig8 {
    /// Render the RMSE and FI-time sweeps as stacked SVG line charts.
    pub fn to_svg(&self) -> String {
        use crate::plot::{stack_svgs, LineChart};
        let labels: Vec<String> = self.points.iter().map(|p| p.s.to_string()).collect();
        let rmse = LineChart {
            title: format!(
                "Figure 8a: prediction RMSE vs small scale (target {})",
                self.p
            ),
            y_label: "RMSE (success rate)".into(),
            x_labels: labels.clone(),
            series: vec![("RMSE".into(), self.points.iter().map(|p| p.rmse).collect())],
        };
        let time = LineChart {
            title: "Figure 8b: fault-injection time vs small scale".into(),
            y_label: "normalized to serial".into(),
            x_labels: labels,
            series: vec![(
                "FI time".into(),
                self.points.iter().map(|p| p.fi_time_normalized).collect(),
            )],
        };
        stack_svgs(&[rmse.to_svg(), time.to_svg()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_rendering() {
        resilim_core::verifies!(FIG8);
        let fig = Fig8 {
            p: 64,
            points: vec![
                Fig8Point {
                    s: 4,
                    rmse: 0.08,
                    fi_time_normalized: 1.5,
                },
                Fig8Point {
                    s: 8,
                    rmse: 0.05,
                    fi_time_normalized: 2.3,
                },
            ],
        };
        let text = fig.render();
        assert!(text.contains("small scale"));
        assert!(text.contains("2.30x"));
        let svg = fig.to_svg();
        assert!(svg.contains("Figure 8a") && svg.contains("Figure 8b"));
    }
}
