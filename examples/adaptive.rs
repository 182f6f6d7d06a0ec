//! Adaptive-stopping savings: how many trials (and how much wall time)
//! a CI-targeted stop rule saves relative to the fixed campaign size
//! you would have to pick up front to guarantee the same Wilson
//! half-width (EXPERIMENTS.md quotes these rows).
//!
//! Without adaptive stopping, a campaign targeting half-width `h` must
//! be sized for the worst case: the Wilson interval is widest at
//! p̂ = 0.5, giving n ≈ (z / 2h)² trials (≈ 151 for h = 0.08 at 95 %).
//! The adaptive campaign runs the *same* deployment with a
//! [`StopRule`] targeting `h` and stops as soon as its in-order prefix
//! is that tight — which happens early whenever the outcome
//! distribution is skewed (intervals narrow faster away from 0.5).
//! Both runs end at or below the target half-width; the trial and
//! wall-time deltas are pure savings.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```

use resilim::apps::App;
use resilim::core::StopRule;
use resilim::harness::{CampaignRunner, CampaignSpec, ErrorSpec};

fn main() {
    let halfwidth = 0.08;
    let seed = 2018u64;
    let rule = StopRule::new(halfwidth).with_min_tests(20);
    // Worst-case a-priori sizing: Wilson ≈ normal half-width z·√(p̂q̂/n)
    // maximized at p̂ = 0.5 → n = (z / 2h)².
    let fixed_tests = (rule.z / (2.0 * halfwidth)).powi(2).ceil() as usize;
    let deployments = [
        (App::Cg, 2usize, ErrorSpec::OneParallel),
        (App::Lu, 4, ErrorSpec::OneParallel),
        (App::Ft, 2, ErrorSpec::OneParallelMultiBit(2)),
    ];

    println!(
        "adaptive stopping at half-width {halfwidth} vs a-priori worst-case sizing \
         ({fixed_tests} trials, seed {seed})\n"
    );
    println!(
        "{:<26} {:>6} {:>8} {:>8} {:>9} {:>10} {:>10} {:>10}",
        "deployment", "procs", "fixed", "adapt", "saved", "fixed-hw", "adapt-hw", "adapt(s)"
    );

    let mut total_fixed = 0usize;
    let mut total_adaptive = 0usize;
    let mut wall_fixed = 0.0f64;
    let mut wall_adaptive = 0.0f64;
    for (app, procs, errors) in deployments {
        let runner = CampaignRunner::new().with_auto_parallelism();
        let fixed_spec = CampaignSpec::new(app.default_spec(), procs, errors, fixed_tests, seed);
        let fixed = runner.run_uncached(&fixed_spec);
        let adaptive_spec = fixed_spec.clone().with_stop(rule);
        let adaptive = runner.run_uncached(&adaptive_spec);

        let n_fixed = fixed.outcomes.len();
        let n_adaptive = adaptive.outcomes.len();
        assert!(
            n_adaptive <= n_fixed,
            "adaptive ran {n_adaptive} of a {n_fixed}-trial ceiling"
        );
        assert!(
            rule.satisfied(&adaptive.fi),
            "adaptive campaign stopped without satisfying its rule"
        );
        total_fixed += n_fixed;
        total_adaptive += n_adaptive;
        wall_fixed += fixed.wall.as_secs_f64();
        wall_adaptive += adaptive.wall.as_secs_f64();
        println!(
            "{:<26} {:>6} {:>8} {:>8} {:>8.1}% {:>10.4} {:>10.4} {:>10.2}",
            format!("{}/{:?}", app.name(), errors),
            procs,
            n_fixed,
            n_adaptive,
            100.0 * (n_fixed - n_adaptive) as f64 / n_fixed as f64,
            rule.widest_halfwidth(&fixed.fi),
            rule.widest_halfwidth(&adaptive.fi),
            adaptive.wall.as_secs_f64(),
        );
    }

    assert!(
        total_adaptive < total_fixed,
        "adaptive stopping saved no trials ({total_adaptive} vs {total_fixed})"
    );
    println!(
        "\ntotal: {total_adaptive} adaptive vs {total_fixed} fixed trials \
         ({:.1}% fewer at the same guaranteed half-width), \
         wall {wall_adaptive:.2}s vs {wall_fixed:.2}s",
        100.0 * (total_fixed - total_adaptive) as f64 / total_fixed as f64
    );
}
