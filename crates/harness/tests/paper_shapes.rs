//! The paper's headline *shapes* at 80 tests per deployment: propagation
//! profiles that transfer across scales (Table 2, Figs. 1–2) and
//! predictions that land within tens of percentage points of the
//! measured rates (Figs. 5–7). Loose, noise-tolerant bounds on the same
//! pipelines `resilim table2|fig1|fig2|fig5|fig6|fig7` render.
//!
//! Full-size campaigns: ignored in debug builds, run in release with
//! `cargo test --release -p resilim-harness --test paper_shapes`.

use resilim_apps::App;
use resilim_core::{verifies, SamplePoints};
use resilim_harness::experiments::{self, ExperimentConfig};
use resilim_harness::CampaignRunner;

fn setup() -> (CampaignRunner, ExperimentConfig) {
    let cfg = ExperimentConfig {
        tests: 80,
        ..Default::default()
    };
    (CampaignRunner::new().with_auto_parallelism(), cfg)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size campaigns; CI runs it in release"
)]
fn table2_mean_similarity_is_high() {
    verifies!(TABLE2, O3);
    let (runner, cfg) = setup();
    let table2 = experiments::table2(&runner, &cfg);
    let mean = table2.rows.iter().map(|r| r.similarity).sum::<f64>() / table2.rows.len() as f64;
    assert!(mean > 0.9, "propagation similarity collapsed: {mean}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size campaigns; CI runs it in release"
)]
fn fig1_fig2_grouped_similarity_is_high() {
    verifies!(O3);
    let (runner, cfg) = setup();
    for (fig, app) in [(1, App::Cg), (2, App::Ft)] {
        let prop = experiments::fig_propagation(&runner, &cfg, app, 8, 64);
        assert!(
            prop.similarity > 0.8,
            "figure {fig}: grouped similarity collapsed ({})",
            prop.similarity
        );
    }
}

/// Paper: 8 % and 7 % average error at 64 ranks from s = 4 and s = 8.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size campaigns; CI runs it in release"
)]
fn fig5_fig6_prediction_error_is_small() {
    verifies!(EQ8, O4);
    let (runner, cfg) = setup();
    for (fig, s) in [(5, 4), (6, 8)] {
        let report =
            experiments::prediction(&runner, &cfg, &App::ALL, 64, s, SamplePoints::BucketUpper);
        assert!(
            report.avg_error < 0.20,
            "figure {fig} average error too large: {}",
            report.avg_error
        );
    }
}

/// 128-rank predictions for the apps that decompose that far.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size campaigns; CI runs it in release"
)]
fn fig7_prediction_error_is_small() {
    verifies!(EQ8, O4);
    let (runner, cfg) = setup();
    for s in [4, 8] {
        let report = experiments::prediction(
            &runner,
            &cfg,
            &[App::Cg, App::Ft],
            128,
            s,
            SamplePoints::BucketUpper,
        );
        assert!(
            report.avg_error < 0.25,
            "figure 7 (s={s}) error: {}",
            report.avg_error
        );
    }
}
