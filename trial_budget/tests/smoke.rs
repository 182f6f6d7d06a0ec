//! Runs the benchmark binary at `--quick` size for every workload, in
//! both modes, and validates what it prints against the contract: the
//! result line's shape, every registered metric present once with its
//! unit, `failed ≤ attempted`, `correct: true` — and keeps
//! `BENCHMARK.json` equal to the registry it is generated from.

use serde_json::Value;
use std::collections::HashSet;
use std::path::Path;
use std::process::Command;
use trial_budget::metrics::{manifest, per_layer, END_TO_END};
use trial_budget::workload::Workload;

fn run(workload: Workload, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_trial-budget"))
        .args(["--workload", workload.name(), "--quick", "--seed", "7"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn trial-budget");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} trace={trace} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    serde_json::from_str(line).unwrap_or_else(|e| panic!("result line {line:?}: {e}"))
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Validate one result object against the expected `(name, unit)` set.
fn validate(result: &Value, expected: &[(String, &str)], what: &str) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}: exactly the contract's keys"
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}"
    );
    let attempted = result.get("attempted").and_then(Value::as_u64).unwrap();
    let failed = result.get("failed").and_then(Value::as_u64).unwrap();
    assert!(attempted >= 1 && failed <= attempted, "{what}");
    assert_eq!(failed, 0, "{what}: no operation fails on these workloads");

    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let mut seen = HashSet::new();
    for (name, m) in metrics {
        assert!(name_ok(name), "{what}: bad metric name {name:?}");
        assert!(seen.insert(name.as_str()), "{what}: {name} printed twice");
        let fields: Vec<&str> = m
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{what}: {name}");
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
    assert_eq!(metrics.len(), expected.len(), "{what}: metric count");
    for (name, unit) in expected {
        let m = metrics
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            m.1.get("unit").and_then(Value::as_str),
            Some(*unit),
            "{what}: {name}"
        );
    }
}

fn smoke(workload: Workload) {
    let end_to_end: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    let layers: Vec<(String, &str)> = per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
    assert!(end_to_end.len() <= 16 && layers.len() <= 128);

    let untraced = run(workload, false);
    validate(
        &untraced,
        &end_to_end,
        &format!("{} untraced", workload.name()),
    );
    let value = |r: &Value, name: &str| {
        r.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap()
    };
    for m in &END_TO_END {
        assert!(value(&untraced, m.name) > 0.0, "{} is never 0", m.name);
    }

    let traced = run(workload, true);
    validate(&traced, &layers, &format!("{} traced", workload.name()));
    let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/bench")
        .join(format!("trace-{}.jsonl", workload.name()));
    let spans = std::fs::read_to_string(&trace_file).expect("span file written");
    assert!(spans.lines().count() > 10, "a traced run records spans");
    for line in spans.lines().take(50) {
        let span: Value = serde_json::from_str(line).expect("span lines are JSON");
        for key in ["id", "parent", "campaign", "name", "start_ns", "end_ns"] {
            assert!(span.get(key).is_some(), "span lacks {key}: {line}");
        }
    }

    // The contrasts the workloads were chosen for.
    let msgs = value(&traced, "simmpi.msgs_per_trial");
    let jobs = value(&traced, "simmpi.rank_jobs_per_record");
    match workload {
        Workload::SerialP1 => assert!(msgs == 0.0 && jobs == 1.0),
        Workload::SmallP4P8 => assert!(msgs > 0.0 && jobs == 6.0),
        Workload::LargeP64 => assert!(msgs > 0.0 && jobs == 64.0),
        Workload::StoreResumeP4 => {
            assert!(msgs == 0.0 && jobs == 0.0, "a full store executes nothing");
            assert_eq!(value(&traced, "harness.exec.trial_samples"), 0.0);
        }
        Workload::ServedMix => assert!(msgs > 0.0 && jobs > 1.0),
    }
    assert!(value(&traced, "bench.span_coverage") > 0.5);
    // Same seed → same computation, on either driver.
    assert_eq!(
        value(&traced, "harness.exec.outcome_digest32"),
        value(&run(workload, true), "harness.exec.outcome_digest32"),
    );
}

#[test]
fn serial_p1() {
    smoke(Workload::SerialP1);
}

#[test]
fn small_p4p8() {
    smoke(Workload::SmallP4P8);
}

#[test]
fn large_p64() {
    smoke(Workload::LargeP64);
}

#[test]
fn store_resume_p4() {
    smoke(Workload::StoreResumeP4);
}

#[test]
fn served_mix() {
    smoke(Workload::ServedMix);
}

#[test]
fn benchmark_json_is_the_registry() {
    let committed: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with: trial-budget --print-manifest > BENCHMARK.json"
    );
    let keys: Vec<&str> = committed
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trial-budget"))
            .args(args)
            .output()
            .expect("spawn trial-budget");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no result on a usage error"
        );
    }
}
