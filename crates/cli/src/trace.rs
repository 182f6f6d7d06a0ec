//! Offline aggregation of a `--trace` JSONL file: the `resilim metrics`
//! subcommand.
//!
//! The trace format is one JSON object per line with an `"ev"`
//! discriminator (written by `resilim_obs::JsonlSink`). Trials are joined
//! to their application through the `campaign_start` event that carries
//! the same `campaign` id; a single forward pass suffices because a
//! campaign's start always precedes its trials in the file.

use serde_json::Value;
use std::collections::BTreeMap;

/// Aggregate of one application's trials in a trace.
#[derive(Debug, Default)]
pub struct AppAggregate {
    /// Campaigns started for this app.
    pub campaigns: u64,
    /// Trials observed.
    pub trials: u64,
    /// Trials per outcome kind.
    pub success: u64,
    /// SDC trials.
    pub sdc: u64,
    /// Failed trials (crash/hang).
    pub failure: u64,
    /// Trial latencies, microseconds (sorted by [`TraceReport::from_file`]).
    pub latencies_us: Vec<u64>,
    /// Taint spread: contaminated-rank count → trials.
    pub taint_spread: BTreeMap<u64, u64>,
}

impl AppAggregate {
    /// The `q` quantile of the trial latencies: the sorted latency at
    /// index `round(q·(n−1))` (halves round up), an element of the data,
    /// never an interpolation. This is not the nearest-rank percentile:
    /// for [100, 300] the p50 is 300, where nearest-rank gives 100.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        if self.latencies_us.is_empty() {
            return None;
        }
        let n = self.latencies_us.len();
        let idx = ((q.clamp(0.0, 1.0) * (n - 1) as f64).round()) as usize;
        Some(self.latencies_us[idx.min(n - 1)])
    }
}

/// Everything `resilim metrics` reports about one trace file.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Lines parsed.
    pub events: u64,
    /// Per-app aggregates, keyed by app name.
    pub apps: BTreeMap<String, AppAggregate>,
    /// Golden-cache (hits, lookups).
    pub golden_cache: (u64, u64),
    /// Campaign-cache (hits, lookups).
    pub campaign_cache: (u64, u64),
    /// `injection_fired` events.
    pub injections_fired: u64,
    /// `taint_born` events.
    pub taint_born: u64,
    /// `hang_guard_trip` events.
    pub hang_guard_trips: u64,
    /// `trial_retry` events (watchdog-tripped trials re-run).
    pub trial_retries: u64,
    /// Baton handoffs between ranks, summed over `campaign_end` events.
    pub rank_switches: u64,
    /// Deadlocks the fabric detected, summed over `campaign_end` events.
    pub deadlocks_detected: u64,
    /// `check_case` events (differential-check cases run).
    pub check_cases: u64,
    /// `check_case` events with `ok: false` (oracle violations).
    pub check_violations: u64,
    /// `check_shrink` events (minimization attempts).
    pub check_shrinks: u64,
}

fn get_u64(obj: &Value, key: &str) -> u64 {
    obj.get(key).and_then(Value::as_u64).unwrap_or(0)
}

impl TraceReport {
    /// Parse and aggregate a JSONL trace file.
    pub fn from_file(path: &str) -> Result<TraceReport, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut report = TraceReport::default();
        // campaign id → app name, built from campaign_start events.
        let mut campaign_app: BTreeMap<u64, String> = BTreeMap::new();
        for (lineno, line) in raw.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obj: Value =
                serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
            let ev = obj
                .get("ev")
                .and_then(Value::as_str)
                .ok_or(format!("{path}:{}: missing \"ev\"", lineno + 1))?;
            report.events += 1;
            match ev {
                "campaign_start" => {
                    let app = obj
                        .get("app")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string();
                    campaign_app.insert(get_u64(&obj, "campaign"), app.clone());
                    report.apps.entry(app).or_default().campaigns += 1;
                }
                "trial" => {
                    let app = campaign_app
                        .get(&get_u64(&obj, "campaign"))
                        .cloned()
                        .unwrap_or_else(|| "unknown".to_string());
                    let agg = report.apps.entry(app).or_default();
                    agg.trials += 1;
                    match obj.get("kind").and_then(Value::as_str).unwrap_or("") {
                        "success" => agg.success += 1,
                        "sdc" => agg.sdc += 1,
                        _ => agg.failure += 1,
                    }
                    agg.latencies_us.push(get_u64(&obj, "latency_us"));
                    *agg.taint_spread
                        .entry(get_u64(&obj, "contaminated"))
                        .or_default() += 1;
                }
                "cache_lookup" => {
                    let hit = matches!(obj.get("hit"), Some(Value::Bool(true)));
                    // A golden disk hit is already counted by its
                    // "golden" lookup; any other cache name is skipped.
                    let slot = match obj.get("cache").and_then(Value::as_str) {
                        Some("golden") => &mut report.golden_cache,
                        Some("campaign") => &mut report.campaign_cache,
                        _ => continue,
                    };
                    slot.0 += u64::from(hit);
                    slot.1 += 1;
                }
                "injection_fired" => report.injections_fired += 1,
                "taint_born" => report.taint_born += 1,
                "hang_guard_trip" => report.hang_guard_trips += 1,
                "trial_retry" => report.trial_retries += 1,
                "campaign_end" => {
                    report.rank_switches += get_u64(&obj, "rank_switches");
                    report.deadlocks_detected += get_u64(&obj, "deadlocks");
                }
                "check_case" => {
                    report.check_cases += 1;
                    if !matches!(obj.get("ok"), Some(Value::Bool(true))) {
                        report.check_violations += 1;
                    }
                }
                "check_shrink" => report.check_shrinks += 1,
                _ => {}
            }
        }
        for agg in report.apps.values_mut() {
            agg.latencies_us.sort_unstable();
        }
        Ok(report)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!("trace report ({} events)\n", self.events);
        for (app, agg) in &self.apps {
            let pct = |n: u64| {
                if agg.trials == 0 {
                    0.0
                } else {
                    100.0 * n as f64 / agg.trials as f64
                }
            };
            let p = |q| {
                agg.latency_percentile(q)
                    .map_or_else(|| "-".to_string(), |v| v.to_string())
            };
            out.push_str(&format!(
                "  {app}: {} campaigns, {} trials  success {:.1}%  SDC {:.1}%  failure {:.1}%\n    \
                 trial latency p50/p90/p99: {}/{}/{} us\n    taint spread: {}\n",
                agg.campaigns,
                agg.trials,
                pct(agg.success),
                pct(agg.sdc),
                pct(agg.failure),
                p(0.5),
                p(0.9),
                p(0.99),
                agg.taint_spread
                    .iter()
                    .map(|(ranks, n)| format!("{ranks}r\u{00d7}{n}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ));
        }
        for (label, (hits, lookups)) in [
            ("golden cache", self.golden_cache),
            ("campaign cache", self.campaign_cache),
        ] {
            if lookups > 0 {
                out.push_str(&format!(
                    "  {label} hit rate: {:.1}% ({hits}/{lookups})\n",
                    100.0 * hits as f64 / lookups as f64
                ));
            }
        }
        out.push_str(&format!(
            "  injections fired: {}  taint born: {}  hang-guard trips: {}  trial retries: {}\n",
            self.injections_fired, self.taint_born, self.hang_guard_trips, self.trial_retries
        ));
        out.push_str(&format!(
            "  rank switches: {}  deadlocks detected: {}\n",
            self.rank_switches, self.deadlocks_detected
        ));
        if self.check_cases > 0 {
            out.push_str(&format!(
                "  check cases: {}  violations: {}  shrink attempts: {}\n",
                self.check_cases, self.check_violations, self.check_shrinks
            ));
        }
        out
    }

    /// JSON form for `--json`.
    pub fn to_json_value(&self) -> Value {
        let apps: Vec<Value> = self
            .apps
            .iter()
            .map(|(app, agg)| {
                Value::Object(vec![
                    ("app".into(), Value::Str(app.clone())),
                    ("campaigns".into(), Value::U64(agg.campaigns)),
                    ("trials".into(), Value::U64(agg.trials)),
                    ("success".into(), Value::U64(agg.success)),
                    ("sdc".into(), Value::U64(agg.sdc)),
                    ("failure".into(), Value::U64(agg.failure)),
                    (
                        "latency_us_p50_p90_p99".into(),
                        Value::Array(
                            [0.5, 0.9, 0.99]
                                .iter()
                                .map(|&q| match agg.latency_percentile(q) {
                                    Some(v) => Value::U64(v),
                                    None => Value::Null,
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "taint_spread".into(),
                        Value::Object(
                            agg.taint_spread
                                .iter()
                                .map(|(ranks, n)| (ranks.to_string(), Value::U64(*n)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("events".into(), Value::U64(self.events)),
            ("apps".into(), Value::Array(apps)),
            (
                "golden_cache".into(),
                Value::Array(vec![
                    Value::U64(self.golden_cache.0),
                    Value::U64(self.golden_cache.1),
                ]),
            ),
            (
                "campaign_cache".into(),
                Value::Array(vec![
                    Value::U64(self.campaign_cache.0),
                    Value::U64(self.campaign_cache.1),
                ]),
            ),
            ("injections_fired".into(), Value::U64(self.injections_fired)),
            ("taint_born".into(), Value::U64(self.taint_born)),
            ("hang_guard_trips".into(), Value::U64(self.hang_guard_trips)),
            ("trial_retries".into(), Value::U64(self.trial_retries)),
            ("rank_switches".into(), Value::U64(self.rank_switches)),
            (
                "deadlocks_detected".into(),
                Value::U64(self.deadlocks_detected),
            ),
            ("check_cases".into(), Value::U64(self.check_cases)),
            ("check_violations".into(), Value::U64(self.check_violations)),
            ("check_shrinks".into(), Value::U64(self.check_shrinks)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(lines: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "resilim-trace-test-{}-{}.jsonl",
            std::process::id(),
            lines.len()
        ));
        std::fs::write(&path, lines).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn aggregates_trials_per_app() {
        let path = write_temp(concat!(
            "{\"ev\":\"cache_lookup\",\"cache\":\"campaign\",\"hit\":false}\n",
            "{\"ev\":\"cache_lookup\",\"cache\":\"golden\",\"hit\":true}\n",
            "{\"ev\":\"cache_lookup\",\"cache\":\"golden-disk\",\"hit\":true}\n",
            "{\"ev\":\"campaign_start\",\"campaign\":1,\"app\":\"cg\",\"procs\":4,\"tests\":3,\"errors\":\"OneParallel\"}\n",
            "{\"ev\":\"injection_fired\",\"rank\":0,\"region\":\"common\",\"op_index\":5,\"bit\":9}\n",
            "{\"ev\":\"trial\",\"campaign\":1,\"test\":0,\"kind\":\"success\",\"masked\":true,\"contaminated\":1,\"fired\":1,\"latency_us\":100}\n",
            "{\"ev\":\"trial\",\"campaign\":1,\"test\":1,\"kind\":\"sdc\",\"masked\":false,\"contaminated\":4,\"fired\":1,\"latency_us\":300}\n",
            "{\"ev\":\"trial\",\"campaign\":1,\"test\":2,\"kind\":\"failure\",\"masked\":false,\"contaminated\":4,\"fired\":1,\"latency_us\":200}\n",
            "{\"ev\":\"campaign_end\",\"campaign\":1,\"wall_us\":700,\"trials\":3,\"rank_switches\":1059,\"deadlocks\":1}\n",
        ));
        let report = TraceReport::from_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(report.events, 9);
        let cg = &report.apps["cg"];
        assert_eq!(cg.trials, 3);
        assert_eq!((cg.success, cg.sdc, cg.failure), (1, 1, 1));
        assert_eq!(cg.latencies_us, vec![100, 200, 300]);
        assert_eq!(cg.taint_spread[&4], 2);
        assert_eq!(report.golden_cache, (1, 1));
        assert_eq!(report.campaign_cache, (0, 1));
        assert_eq!(report.injections_fired, 1);
        assert_eq!((report.rank_switches, report.deadlocks_detected), (1059, 1));
        let text = report.render();
        assert!(text.contains("rank switches: 1059  deadlocks detected: 1"));
        assert!(text.contains("cg: 1 campaigns, 3 trials"));
        assert!(text.contains("campaign cache hit rate: 0.0% (0/1)"));
    }

    #[test]
    fn aggregates_check_events() {
        let path = write_temp(concat!(
            "{\"ev\":\"check_case\",\"case\":0,\"seed\":1000,\"app\":\"cg\",\"procs\":2,\"tests\":8,\"ok\":true,\"oracle\":\"\"}\n",
            "{\"ev\":\"check_case\",\"case\":1,\"seed\":1001,\"app\":\"ft\",\"procs\":4,\"tests\":8,\"ok\":false,\"oracle\":\"bucket-cover\"}\n",
            "{\"ev\":\"check_shrink\",\"case\":1,\"attempt\":1,\"accepted\":true,\"procs\":2,\"tests\":4}\n",
        ));
        let report = TraceReport::from_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(report.check_cases, 2);
        assert_eq!(report.check_violations, 1);
        assert_eq!(report.check_shrinks, 1);
        assert!(report
            .render()
            .contains("check cases: 2  violations: 1  shrink attempts: 1"));
    }

    #[test]
    fn percentiles_are_exact_order_stats() {
        let mut agg = AppAggregate::default();
        assert_eq!(agg.latency_percentile(0.5), None);
        agg.latencies_us = (1..=100).collect();
        assert_eq!(agg.latency_percentile(0.0), Some(1));
        assert_eq!(agg.latency_percentile(0.5), Some(51));
        assert_eq!(agg.latency_percentile(0.99), Some(99));
        assert_eq!(agg.latency_percentile(1.0), Some(100));
    }

    #[test]
    fn bad_lines_are_reported_with_position() {
        let path = write_temp(
            "{\"ev\":\"campaign_end\",\"campaign\":1,\"wall_us\":1,\"trials\":0}\nnot json\n",
        );
        let err = TraceReport::from_file(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.contains(":2"), "{err}");
    }
}
