//! Quickstart: predict the resilience of a 64-rank CG execution from
//! serial and 4-rank measurements — the paper's headline workflow —
//! then validate the prediction against an actually measured 64-rank
//! fault-injection campaign.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use resilim::apps::App;
use resilim::core::{prediction_error, PaperEq8, SamplePoints};
use resilim::harness::experiments::{build_inputs, ExperimentConfig};
use resilim::harness::{CampaignRunner, CampaignSpec, ErrorSpec};

fn main() {
    let runner = CampaignRunner::new();
    let cfg = ExperimentConfig {
        tests: 120, // the paper uses 4000; this is a demo
        ..Default::default()
    };
    let app = App::Cg;
    let (large, small) = (64, 4);

    // 1. Gather the model's inputs: serial multi-error campaigns at the
    //    sparse sample cases, plus one small-scale campaign for the
    //    propagation profile r' (and the α fine-tuning data).
    println!("measuring serial + {small}-rank inputs for {app}...");
    let problem = app.default_spec();
    let inputs = build_inputs(
        &runner,
        &cfg,
        &problem,
        large,
        small,
        SamplePoints::BucketUpper,
    );
    println!(
        "  serial sample cases: {:?}",
        inputs.serial.keys().collect::<Vec<_>>()
    );
    println!(
        "  propagation r' at {small} ranks: {:?}",
        inputs
            .small_prop
            .r_vec()
            .iter()
            .map(|r| format!("{:.2}", r))
            .collect::<Vec<_>>()
    );

    // 2. Predict the 64-rank fault-injection result (Eq. 1 + Eq. 8).
    let prediction = PaperEq8::new(inputs).predict();
    println!(
        "predicted {large}-rank rates: success {:.1}%  SDC {:.1}%  failure {:.1}%  (alpha: {})",
        prediction.success() * 100.0,
        prediction.sdc() * 100.0,
        prediction.failure() * 100.0,
        if prediction.used_alpha { "yes" } else { "no" },
    );

    // 3. Validate: actually run the 64-rank campaign (this is the step the
    //    model lets you skip on a real machine).
    println!("measuring the real {large}-rank campaign for comparison...");
    let measured = runner.run(&CampaignSpec::new(
        app.default_spec(),
        large,
        ErrorSpec::OneParallel,
        cfg.tests,
        cfg.seed,
    ));
    println!(
        "measured  {large}-rank rates: success {:.1}%  SDC {:.1}%  failure {:.1}%",
        measured.fi.success_rate() * 100.0,
        measured.fi.sdc_rate() * 100.0,
        measured.fi.failure_rate() * 100.0,
    );
    println!(
        "prediction error on the success rate: {:.1} percentage points",
        prediction_error(measured.fi.success_rate(), prediction.success()) * 100.0
    );
}
