//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` is generated from this table
//! (`trial-budget --print-manifest`) and a test keeps the two equal.

use crate::probes::SCALES;
use crate::workload::Workload;
use resilim_apps::App;
use serde_json::{json, Value};

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// One end-to-end metric.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The four end-to-end metrics, the same on every workload.
///
/// The bounds are wider than the 10–15 % the issue started from: on
/// the shared 2-vCPU host this was built on, identical work repeats
/// within 4–24 % (interquartile, ten runs) whatever the statistic or
/// the run length — README.md, "Run-to-run spread", has the numbers.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "trials_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_trial",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

/// One per-layer metric.
pub struct PerLayer {
    /// Name (`<layer>.<what>`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

/// Every per-layer metric the traced mode emits, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
    };
    add("host.cores", "count", "higher");
    add("host.cal_unit_ms", "ms", "lower");
    add("host.slowdown_x", "x", "lower");
    for what in ["raw", "ctx", "pending", "tainted"] {
        add(&format!("inject.ns_per_op_{what}"), "ns", "lower");
    }
    add("inject.hook_ratio", "x", "lower");
    add("inject.ops_per_trial", "count", "lower");
    add("inject.hook_share", "share", "lower");
    for kind in ["untracked", "tracked"] {
        for app in App::ALL {
            add(&format!("apps.{kind}_ms_p1.{}", app.name()), "ms", "lower");
        }
    }
    for p in SCALES {
        add(&format!("simmpi.dispatch_us_p{p}"), "us", "lower");
    }
    for what in ["barrier", "allreduce"] {
        for p in [4, 64] {
            add(&format!("simmpi.{what}_us_p{p}"), "us", "lower");
        }
    }
    add("simmpi.alltoall_us_p64", "us", "lower");
    add("simmpi.p2p_rtt_us", "us", "lower");
    add("simmpi.msgs_per_trial", "count", "lower");
    add("simmpi.rank_jobs_per_record", "count", "lower");
    add("simmpi.pool_spawn_ms", "ms", "lower");
    add("simmpi.pool_threads_spawned", "count", "lower");
    add("simmpi.sys_cpu_share", "share", "lower");
    add("simmpi.overhead_share", "share", "lower");
    add("harness.golden.measure_ms", "ms", "lower");
    add("harness.golden.disk_hit_us", "us", "lower");
    add("harness.golden.mem_hit_us", "us", "lower");
    add("harness.exec.trial_us_p50", "us", "lower");
    add("harness.exec.trial_us_p95", "us", "lower");
    add("harness.exec.trial_samples", "count", "higher");
    for p in SCALES {
        for app in App::ALL {
            add(
                &format!("harness.exec.trial_ms_p{p}.{}", app.name()),
                "ms",
                "lower",
            );
        }
    }
    add("harness.exec.overhead_us", "us", "lower");
    for what in ["success", "sdc", "failure"] {
        add(&format!("harness.exec.outcomes_{what}"), "count", "higher");
    }
    add("harness.exec.outcome_digest32", "count", "higher");
    add("harness.stream.push_us_per_record_inorder", "us", "lower");
    add("harness.stream.push_us_per_record_reversed", "us", "lower");
    add("core.accum.push_ns_per_outcome", "ns", "lower");
    add("harness.ledger.append_us_per_record_b1", "us", "lower");
    add("harness.ledger.append_us_per_record_b64", "us", "lower");
    add("harness.ledger.load_us_per_record", "us", "lower");
    add("harness.ledger.bytes_per_record", "B", "lower");
    add("harness.features.append_us_per_record_b64", "us", "lower");
    add("harness.features.load_us_per_record", "us", "lower");
    add("harness.features.bytes_per_record", "B", "lower");
    add("harness.runner.resume_us_per_record", "us", "lower");
    add("harness.runner.merge_us_per_record", "us", "lower");
    add("harness.runner.jobs_resolved", "count", "higher");
    add("harness.runner.jobs2_speedup", "x", "higher");
    add("harness.runner.worker_util", "share", "higher");
    add("harness.runner.engine_overhead_share", "share", "lower");
    add("core.model.eq8_predict_us", "us", "lower");
    add("core.learn.logistic_fit_ms_per_1k", "ms", "lower");
    add("obs.enabled_over_disabled", "x", "lower");
    add("obs.events_per_trial", "count", "lower");
    add("bench.traced_over_untraced", "x", "lower");
    add("bench.span_coverage", "share", "higher");
    add("serve.daemon_start_ms", "ms", "lower");
    add("serve.journal_replay_ms", "ms", "lower");
    add("serve.submit_rtt_us", "us", "lower");
    add("serve.dedup_rtt_us", "us", "lower");
    add("serve.status_rtt_us", "us", "lower");
    add("serve.first_progress_ms", "ms", "lower");
    add("serve.turnaround_s_p50", "s", "lower");
    add("serve.vs_oneshot_ratio", "x", "higher");
    add("serve.fair_share_skew", "share", "lower");
    add("serve.drain_ms", "ms", "lower");
    v
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = Workload::ALL
        .into_iter()
        .map(|w| json!({"name": w.name(), "why": w.why()}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better}))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "trial_budget/Cargo.toml", "--"
        ],
        "paths": ["trial_budget"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_fits_the_contract() {
        let layers = per_layer();
        assert!(END_TO_END.len() <= 16 && layers.len() <= 128);
        let mut seen = HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(layers.iter().map(|m| m.name.clone()))
            .chain(Workload::ALL.iter().map(|w| w.name().to_string()))
        {
            assert!(name_ok(&name), "bad name {name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
