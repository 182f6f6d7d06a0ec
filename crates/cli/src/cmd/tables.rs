//! Text-report commands: `table1`, `table2`, `apps`, `motivation`, `weak`.

use crate::opts::{emit, Options};
use resilim_apps::App;
use resilim_harness::experiments;
use resilim_harness::CampaignRunner;

/// Table 1 — parallel-unique computation share.
pub fn table1(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let t = experiments::table1(runner);
    emit(opts, t.render(), &t)
}

/// Table 2 — propagation cosine similarity (4V64, 8V64).
pub fn table2(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let t = experiments::table2(runner, &opts.cfg);
    emit(opts, t.render(), &t)
}

/// Fault-free verification runs of every selected application.
pub fn apps(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let mut text = String::from("fault-free verification runs\n");
    let mut rows = Vec::new();
    for &app in opts.apps() {
        let golden = runner.golden().get(&app.default_spec(), 1);
        let par = runner
            .golden()
            .get(&app.default_spec(), 4.min(app.max_procs()));
        let diff = par.output.max_rel_diff(&golden.output).unwrap();
        text.push_str(&format!(
            "{app}: digest {:?}\n  serial-vs-4-rank rel diff {diff:.2e}, ops {}, unique share {:.2}%\n",
            &golden.output.digest,
            golden.injectable_total(),
            par.unique_share() * 100.0,
        ));
        rows.push(serde_json::json!({
            "app": app.name(),
            "digest": golden.output.digest,
            "rel_diff_serial_vs_4": diff,
            "unique_share": par.unique_share(),
        }));
    }
    emit(opts, text, &rows)
}

/// §1 motivation — op-count / FI-time growth with scale.
pub fn motivation(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let m = experiments::motivation(runner, &opts.cfg, opts.scale.unwrap_or(4));
    emit(opts, m.render(), &m)
}

/// Weak-scaling extension study (not in the paper).
pub fn weak(opts: &Options, runner: &CampaignRunner) -> Result<(), String> {
    let s = opts.small.unwrap_or(4);
    let targets: Vec<usize> = match opts.scale {
        Some(p) => vec![p],
        None => vec![4, 16],
    };
    let study = experiments::weak_scaling(runner, &opts.cfg, opts.apps(), s, &targets);
    emit(opts, study.render(), &study)
}

/// Selected apps that decompose to at least `p` ranks.
pub(super) fn apps_at_scale(opts: &Options, p: usize) -> Vec<App> {
    opts.apps()
        .iter()
        .copied()
        .filter(|a| a.max_procs() >= p)
        .collect()
}
