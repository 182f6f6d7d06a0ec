//! Golden snapshot of `resilim metrics --json`: the JSON report for a
//! fixed trace must be byte-stable — same field order, same formatting,
//! no platform-dependent values. Downstream tooling parses this output;
//! an intentional schema change must update the snapshot here.

use std::process::Command;

const TRACE: &str = concat!(
    "{\"ev\":\"campaign_start\",\"campaign\":1,\"app\":\"cg\",\"procs\":4,\"tests\":3,\"errors\":\"OneParallel\"}\n",
    "{\"ev\":\"injection_fired\",\"rank\":0,\"region\":\"common\",\"op_index\":5,\"bit\":9}\n",
    "{\"ev\":\"trial\",\"campaign\":1,\"test\":0,\"kind\":\"success\",\"masked\":true,\"contaminated\":1,\"fired\":1,\"latency_us\":100}\n",
    "{\"ev\":\"trial\",\"campaign\":1,\"test\":1,\"kind\":\"sdc\",\"masked\":false,\"contaminated\":4,\"fired\":1,\"latency_us\":300}\n",
    "{\"ev\":\"cache_lookup\",\"cache\":\"golden\",\"hit\":true}\n",
    "{\"ev\":\"check_case\",\"case\":0,\"seed\":1000,\"app\":\"cg\",\"procs\":2,\"tests\":8,\"ok\":true,\"oracle\":\"\"}\n",
    "{\"ev\":\"check_shrink\",\"case\":0,\"attempt\":1,\"accepted\":false,\"procs\":2,\"tests\":4}\n",
    "{\"ev\":\"campaign_end\",\"campaign\":1,\"wall_us\":450,\"trials\":2,\"rank_switches\":706,\"deadlocks\":1}\n",
);

const GOLDEN: &str = r#"{
  "events": 8,
  "apps": [
    {
      "app": "cg",
      "campaigns": 1,
      "trials": 2,
      "success": 1,
      "sdc": 1,
      "failure": 0,
      "latency_us_p50_p90_p99": [
        300,
        300,
        300
      ],
      "taint_spread": {
        "1": 1,
        "4": 1
      }
    }
  ],
  "golden_cache": [
    1,
    1
  ],
  "campaign_cache": [
    0,
    0
  ],
  "injections_fired": 1,
  "taint_born": 0,
  "hang_guard_trips": 0,
  "trial_retries": 0,
  "rank_switches": 706,
  "deadlocks_detected": 1,
  "check_cases": 1,
  "check_violations": 0,
  "check_shrinks": 1
}
"#;

#[test]
fn metrics_json_output_matches_golden_snapshot() {
    let path = std::env::temp_dir().join(format!(
        "resilim-metrics-golden-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, TRACE).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(["metrics", "--trace", path.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn resilim");
    std::fs::remove_file(&path).unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("metrics output is UTF-8");
    assert_eq!(
        stdout, GOLDEN,
        "metrics --json drifted from the golden snapshot"
    );
}

/// The live counter block (`--metrics`, stderr) and the offline report
/// of the same run's trace (`resilim metrics --json`) are two views of
/// one record: every evented counter must agree between them.
#[test]
fn live_and_offline_reports_agree() {
    let path =
        std::env::temp_dir().join(format!("resilim-metrics-live-{}.jsonl", std::process::id()));
    let trace = path.to_str().unwrap();
    let live = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(["campaign", "--apps", "lu", "--scale", "2", "--tests", "12"])
        .args(["--seed", "4242", "--trace", trace, "--metrics"])
        .output()
        .expect("spawn resilim");
    assert!(
        live.status.success(),
        "{}",
        String::from_utf8_lossy(&live.stderr)
    );
    let offline = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(["metrics", "--trace", trace, "--json"])
        .output()
        .expect("spawn resilim");
    std::fs::remove_file(&path).unwrap();
    assert!(offline.status.success());

    // `    name value` lines of the counter block; a zero counter is not
    // printed and reads 0.
    let stderr = String::from_utf8(live.stderr).expect("metrics report is UTF-8");
    let block = stderr
        .split_once("\n  counters:\n")
        .expect("a counter block")
        .1;
    let counter = |name: &str| -> u64 {
        block
            .lines()
            .filter_map(|line| line.trim().split_once(char::is_whitespace))
            .find(|(key, _)| *key == name)
            .map_or(0, |(_, v)| v.trim().parse().expect("counter value"))
    };
    let stdout = String::from_utf8(offline.stdout).expect("metrics output is UTF-8");
    let report: serde_json::Value = serde_json::from_str(&stdout).expect("metrics --json parses");
    let field = |key: &str| report.get(key).and_then(|v| v.as_u64()).expect(key);
    // The offline caches are `[hits, lookups]`.
    let cache = |key: &str| {
        let pair = report.get(key).and_then(|v| v.as_array()).expect(key);
        [0, 1].map(|i| pair[i].as_u64().expect(key))
    };

    for name in [
        "injections_fired",
        "taint_born",
        "hang_guard_trips",
        "trial_retries",
    ] {
        assert_eq!(counter(name), field(name), "{name}");
    }
    for cache_name in ["golden", "campaign"] {
        let hits = counter(&format!("{cache_name}_cache_hits"));
        let misses = counter(&format!("{cache_name}_cache_misses"));
        assert_eq!(
            [hits, hits + misses],
            cache(&format!("{cache_name}_cache")),
            "{cache_name} cache"
        );
    }
    // The run did fire faults, so the comparison is not of two zeros.
    assert_eq!(counter("injections_fired"), 12);
}
