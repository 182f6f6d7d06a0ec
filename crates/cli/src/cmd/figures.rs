//! Figure commands: `fig1`/`fig2`, `fig3`, `fig5`/`fig6`, `fig7`, `fig8`.

use super::tables::apps_at_scale;
use crate::opts::{emit, write_svg, Options};
use resilim_apps::App;
use resilim_core::SamplePoints;
use resilim_harness::experiments::{self, LARGE_SCALE, XLARGE_SCALE};
use resilim_harness::CampaignRunner;

/// Figures 1–2 — propagation histograms (8 vs 64 ranks).
pub fn propagation(opts: &Options, runner: &CampaignRunner, command: &str) -> Result<(), String> {
    let app = if command == "fig1" { App::Cg } else { App::Ft };
    let small = opts.small.unwrap_or(8);
    let large = opts.scale.unwrap_or(LARGE_SCALE);
    let fig = experiments::fig_propagation(runner, &opts.cfg, app, small, large);
    write_svg(opts, fig.to_svg())?;
    emit(opts, fig.render(), &fig)
}

/// Figure 3 — serial multi-error vs parallel contamination.
pub fn fig3(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let fig = experiments::fig3(runner, &opts.cfg, opts.apps(), opts.small.unwrap_or(8));
    write_svg(opts, fig.to_svg())?;
    emit(opts, fig.render(), &fig)
}

/// Figures 5–6 — prediction for 64 ranks from serial + small-scale data.
pub fn prediction(opts: &Options, runner: &CampaignRunner, command: &str) -> Result<(), String> {
    let s = opts.small.unwrap_or(if command == "fig5" { 4 } else { 8 });
    let p = opts.scale.unwrap_or(LARGE_SCALE);
    let apps = apps_at_scale(opts, p);
    let report = experiments::prediction(runner, &opts.cfg, &apps, p, s, SamplePoints::default());
    write_svg(opts, report.to_svg())?;
    emit(opts, report.render(), &report)
}

/// Figure 7 — prediction for 128 ranks (CG, FT) from both small scales.
pub fn fig7(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let p = opts.scale.unwrap_or(XLARGE_SCALE);
    let apps = apps_at_scale(opts, p);
    if apps.is_empty() {
        return Err(format!("no selected app decomposes to {p} ranks"));
    }
    let mut text = String::new();
    let mut reports = Vec::new();
    for s in [4usize, 8] {
        let report =
            experiments::prediction(runner, &opts.cfg, &apps, p, s, SamplePoints::default());
        text.push_str(&report.render());
        reports.push(report);
    }
    emit(opts, text, &reports)
}

/// Figure 8 — sensitivity: small-scale size vs RMSE and FI time.
pub fn fig8(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let fig = experiments::fig8(runner, &opts.cfg, &[4, 8, 16, 32]);
    write_svg(opts, fig.to_svg())?;
    emit(opts, fig.render(), &fig)
}
