//! Cross-crate integration tests: the full paper pipeline at reduced
//! scales and test counts, exercising every layer together (inject →
//! simmpi → apps → campaign → model).

use resilim::apps::App;
use resilim::core::{cosine_similarity, OutcomeKind, PaperEq8, SamplePoints};
use resilim::harness::experiments::{build_inputs, ExperimentConfig};
use resilim::harness::{CampaignRunner, CampaignSpec, ErrorSpec};

fn cfg(tests: usize) -> ExperimentConfig {
    ExperimentConfig {
        tests,
        seed: 777,
        ..Default::default()
    }
}

#[test]
fn every_app_survives_a_small_campaign() {
    let runner = CampaignRunner::new();
    for app in App::ALL {
        let result = runner.run(&CampaignSpec::new(
            app.default_spec(),
            4,
            ErrorSpec::OneParallel,
            12,
            777,
        ));
        assert_eq!(result.fi.total(), 12, "{app}");
        // Single-bit FP flips must not kill every run of any app.
        assert!(result.fi.success_rate() > 0.0, "{app}: {:?}", result.fi);
        // Each test fired exactly one fault.
        assert!(
            result.outcomes.iter().all(|o| o.injections_fired == 1),
            "{app}"
        );
    }
}

#[test]
fn rates_always_partition() {
    let runner = CampaignRunner::new();
    let result = runner.run(&CampaignSpec::new(
        App::Pennant.default_spec(),
        2,
        ErrorSpec::OneParallel,
        20,
        1,
    ));
    let rates = result.fi.rates();
    assert!((rates.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    assert_eq!(
        result.prop.total(),
        result.fi.total(),
        "every test lands in exactly one propagation bin"
    );
}

#[test]
fn prediction_pipeline_end_to_end() {
    // Predict p = 8 from s = 2 for one cheap app and check the prediction
    // is a sane probability triple near the measured value.
    let runner = CampaignRunner::new();
    let cfg = cfg(40);
    let lu = App::Lu.default_spec();
    let inputs = build_inputs(&runner, &cfg, &lu, 8, 2, SamplePoints::BucketUpper);
    let pred = PaperEq8::new(inputs).predict();
    let measured = runner.run(&CampaignSpec::new(
        App::Lu.default_spec(),
        8,
        ErrorSpec::OneParallel,
        cfg.tests,
        cfg.seed,
    ));
    let m = measured.fi.success_rate();
    assert!((0.0..=1.0).contains(&pred.success()));
    let total: f64 = pred.rates.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    // With 40 tests the tolerance is generous; the point is wiring, not
    // statistical accuracy.
    assert!(
        (m - pred.success()).abs() < 0.45,
        "measured {m} vs predicted {}",
        pred.success()
    );
}

#[test]
fn grouped_propagation_matches_small_scale() {
    // Observation 3 at reduced scale: 2-rank profile vs grouped 8-rank
    // profile for the wavefront app.
    let runner = CampaignRunner::new();
    let campaign = |procs| {
        runner.run(&CampaignSpec::new(
            App::Lu.default_spec(),
            procs,
            ErrorSpec::OneParallel,
            60,
            5,
        ))
    };
    let small = campaign(2);
    let large = campaign(8);
    let sim = cosine_similarity(&small.prop.r_vec(), &large.prop.group(2));
    assert!(sim > 0.8, "similarity {sim}");
}

#[test]
fn serial_multi_error_monotonicity() {
    // More injected errors -> no higher success rate (within noise), and
    // many errors eventually dominate a small problem.
    let runner = CampaignRunner::new();
    let success_at = |x: usize| {
        runner
            .run(&CampaignSpec::new(
                App::Cg.default_spec(),
                1,
                ErrorSpec::SerialErrors(x),
                60,
                9,
            ))
            .fi
            .success_rate()
    };
    let s1 = success_at(1);
    let s16 = success_at(16);
    let s64 = success_at(64);
    assert!(s1 >= s16 - 0.1, "s1 {s1} vs s16 {s16}");
    assert!(s16 >= s64 - 0.1, "s16 {s16} vs s64 {s64}");
    assert!(s64 < s1, "64 errors should beat the checker more often");
}

#[test]
fn masked_tests_are_bitwise_identical_successes() {
    let runner = CampaignRunner::new();
    let result = runner.run(&CampaignSpec::new(
        App::Mg.default_spec(),
        1,
        ErrorSpec::SerialErrors(1),
        50,
        3,
    ));
    // Masked count is bounded by the success count.
    assert!(result.fi.masked <= result.fi.counts[OutcomeKind::Success.index()]);
    // Low mantissa bits get absorbed often: some tests must be masked.
    assert!(result.fi.masked > 0);
}

#[test]
fn campaign_results_identical_across_runners() {
    // Same seeds, fresh runner: bitwise identical statistics.
    let spec = CampaignSpec::new(App::Ft.default_spec(), 4, ErrorSpec::OneParallel, 15, 123);
    let a = CampaignRunner::new().run_uncached(&spec);
    let b = CampaignRunner::new().run_uncached(&spec);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.prop.counts, b.prop.counts);
}

#[test]
fn taint_threshold_affects_contamination_not_outcomes() {
    // A tighter (0 = bitwise) threshold can only see *more* contamination;
    // outcome classification (digest-based) is unchanged.
    let mk = |theta: f64| {
        let mut spec = CampaignSpec::new(
            App::MiniFe.default_spec(),
            4,
            ErrorSpec::OneParallel,
            25,
            11,
        );
        spec.taint_threshold = theta;
        CampaignRunner::new().run_uncached(&spec)
    };
    let bitwise = mk(0.0);
    let thresholded = mk(1e-9);
    assert_eq!(bitwise.fi.rates(), thresholded.fi.rates());
    for (a, b) in bitwise.outcomes.iter().zip(thresholded.outcomes.iter()) {
        assert!(a.contaminated_ranks >= b.contaminated_ranks);
        assert_eq!(a.kind, b.kind);
    }
}
