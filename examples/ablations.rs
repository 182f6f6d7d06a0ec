//! Ablation studies over the design choices DESIGN.md calls out, at 80
//! tests per deployment (EXPERIMENTS.md quotes these rows):
//!
//! 1. **Serial sample-point strategy** (Eq. 7 vs the paper's Eq. 8 worked
//!    example vs bucket midpoints) — prediction error per strategy.
//! 2. **α fine-tuning policy** — the paper's 20 % threshold vs never vs
//!    always.
//! 3. **Contamination-significance threshold** θ — bitwise vs relative
//!    thresholds, and what that does to propagation profiles.
//! 4. **Fault pattern** — single-bit vs multi-bit flips (the model claims
//!    pattern-independence; the campaign layer supports both).
//! 5. **Instruction type** — the paper's FP add/sub/mul target set vs
//!    divisions vs all tracked operations (§2's generality claim).
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use resilim::apps::App;
use resilim::core::{prediction_error, PaperEq8, SamplePoints};
use resilim::harness::experiments::{build_inputs, ExperimentConfig};
use resilim::harness::{CampaignRunner, CampaignSpec, ErrorSpec};
use resilim::inject::OpMask;

fn main() {
    let cfg = ExperimentConfig {
        tests: 80,
        ..Default::default()
    };
    let runner = CampaignRunner::new();
    let apps = [App::Cg, App::Ft, App::MiniFe];
    println!("ablations with {} tests per deployment\n", cfg.tests);

    // ---------------------------------------------------------------
    // 1. Sample-point strategy.
    // ---------------------------------------------------------------
    println!("== ablation 1: serial sample-point strategy (p=64, s=4, alpha off) ==");
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "app", "BucketUpper", "PaperEq8", "BucketMid"
    );
    for app in apps {
        let measured = runner
            .run(&CampaignSpec::new(
                app.default_spec(),
                64,
                ErrorSpec::OneParallel,
                cfg.tests,
                cfg.seed,
            ))
            .fi
            .success_rate();
        let mut row = format!("{:<10}", app.name());
        let problem = app.default_spec();
        for strategy in [
            SamplePoints::BucketUpper,
            SamplePoints::PaperEq8,
            SamplePoints::BucketMid,
        ] {
            // Disable alpha so the serial sample points actually matter
            // (with alpha active, bucket values come from the small scale
            // and every strategy coincides).
            let mut inputs = build_inputs(&runner, &cfg, &problem, 64, 4, strategy);
            inputs.alpha_threshold = f64::INFINITY;
            let pred = PaperEq8::new(inputs).predict();
            row.push_str(&format!(
                "{:>13.1}pp",
                prediction_error(measured, pred.success()) * 100.0
            ));
        }
        println!("{row}");
    }

    // ---------------------------------------------------------------
    // 2. Alpha policy (threshold 0.20 = paper, inf = never, 0 = always).
    // ---------------------------------------------------------------
    println!("\n== ablation 2: alpha fine-tuning policy (p=64, s=4) ==");
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "app", "paper(0.20)", "never", "always"
    );
    for app in apps {
        let measured = runner
            .run(&CampaignSpec::new(
                app.default_spec(),
                64,
                ErrorSpec::OneParallel,
                cfg.tests,
                cfg.seed,
            ))
            .fi
            .success_rate();
        let mut row = format!("{:<10}", app.name());
        let problem = app.default_spec();
        for threshold in [0.20, f64::INFINITY, 0.0] {
            let mut inputs =
                build_inputs(&runner, &cfg, &problem, 64, 4, SamplePoints::BucketUpper);
            inputs.alpha_threshold = threshold;
            let pred = PaperEq8::new(inputs).predict();
            row.push_str(&format!(
                "{:>13.1}pp",
                prediction_error(measured, pred.success()) * 100.0
            ));
        }
        println!("{row}");
    }

    // ---------------------------------------------------------------
    // 3. Contamination-significance threshold.
    // ---------------------------------------------------------------
    println!("\n== ablation 3: contamination threshold θ (CG, 8 ranks) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>16}",
        "θ", "1 rank", "all ranks", "mean contam"
    );
    for theta in [0.0, 1e-12, 1e-9, 1e-6] {
        let mut spec = CampaignSpec::new(
            App::Cg.default_spec(),
            8,
            ErrorSpec::OneParallel,
            cfg.tests,
            cfg.seed,
        );
        spec.taint_threshold = theta;
        let result = runner.run(&spec);
        let r = result.prop.r_vec();
        let mean: f64 = r.iter().enumerate().map(|(i, p)| (i + 1) as f64 * p).sum();
        println!(
            "{:<10e} {:>11.1}% {:>11.1}% {:>16.2}",
            theta,
            r[0] * 100.0,
            r[7] * 100.0,
            mean
        );
    }

    // ---------------------------------------------------------------
    // 4. Fault pattern: single vs multi-bit flips.
    // ---------------------------------------------------------------
    println!("\n== ablation 4: fault pattern (LU, 8 ranks) ==");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "pattern", "success", "SDC", "failure"
    );
    for (label, errors) in [
        ("1-bit", ErrorSpec::OneParallel),
        ("2-bit", ErrorSpec::OneParallelMultiBit(2)),
        ("4-bit", ErrorSpec::OneParallelMultiBit(4)),
        ("8-bit", ErrorSpec::OneParallelMultiBit(8)),
    ] {
        let result = runner.run(&CampaignSpec::new(
            App::Lu.default_spec(),
            8,
            errors,
            cfg.tests,
            cfg.seed,
        ));
        let [s, d, f] = result.fi.rates();
        println!(
            "{label:<12} {:>9.1}% {:>9.1}% {:>9.1}%",
            s * 100.0,
            d * 100.0,
            f * 100.0
        );
    }

    // ---------------------------------------------------------------
    // 5. Instruction-type mask: which op kinds are injection targets.
    // ---------------------------------------------------------------
    println!("\n== ablation 5: instruction-type mask (CG, 8 ranks) ==");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "mask", "success", "SDC", "failure"
    );
    for mask in [OpMask::FP_ARITH, OpMask::DIV, OpMask::ALL] {
        let mut spec = CampaignSpec::new(
            App::Cg.default_spec(),
            8,
            ErrorSpec::OneParallel,
            cfg.tests,
            cfg.seed,
        );
        spec.op_mask = mask;
        let result = runner.run(&spec);
        let [s, d, f] = result.fi.rates();
        println!(
            "{:<12} {:>9.1}% {:>9.1}% {:>9.1}%",
            mask.to_string(),
            s * 100.0,
            d * 100.0,
            f * 100.0
        );
    }
}
