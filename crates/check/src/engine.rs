//! The check engine: the case loop, repro records, and replay.
//!
//! `run_check` drives randomized (or smoke-roster) cases through the
//! oracle library, emits `check_case` obs events and counters as it
//! goes, and on the first violation shrinks the case and writes a
//! self-contained JSON repro record. `replay` is the other direction:
//! re-run exactly the recorded case + oracle from such a record.

use crate::case::CaseSpec;
use crate::ops::SamplingOps;
use crate::oracles::{check_case, run_oracle, Oracle, Violation};
use crate::shrink::shrink;
use resilim_inject::FaultModelSpec;
use resilim_obs as obs;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Repro-record format version; bump on incompatible schema change.
/// Version 2: [`CaseSpec`] gained `fault_model` and `replicate`.
pub const REPRO_VERSION: u32 = 2;

/// A self-contained failing-case record: everything needed to replay
/// the violation deterministically (`resilim check --replay FILE`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproRecord {
    /// Schema version ([`REPRO_VERSION`]).
    pub version: u32,
    /// Violated oracle ([`Oracle::name`] spelling).
    pub oracle: String,
    /// The violation message, as observed on the minimal case.
    pub message: String,
    /// The minimal (shrunk) failing case.
    pub case: CaseSpec,
    /// The originally generated case the minimum was shrunk from
    /// (`None` when shrinking could not reduce it).
    pub original: Option<CaseSpec>,
}

impl ReproRecord {
    /// Deterministic file name for this record.
    pub fn file_name(&self) -> String {
        format!("repro-case{}-{}.json", self.case.id, self.oracle)
    }
}

/// What to run: how many cases, under which seed, within which budget.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Number of randomized cases (ignored in smoke mode; a budget,
    /// when set, may stop the run earlier or extend it).
    pub cases: u64,
    /// Wall-clock budget: keep generating cases until it is spent.
    pub budget: Option<Duration>,
    /// Master seed for case generation.
    pub master_seed: u64,
    /// Run the fixed smoke roster instead of randomized cases.
    pub smoke: bool,
    /// Where to write repro records (skipped when `None`).
    pub repro_dir: Option<PathBuf>,
    /// Pin every case's fault model (`check --fault-model`, the nightly
    /// sweep). `None` keeps the generator's randomized model dimension.
    pub fault_model: Option<FaultModelSpec>,
    /// Force every case to run replicated (`check --replicate`).
    pub replicate: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            cases: 25,
            budget: None,
            master_seed: 0xC0FFEE,
            smoke: false,
            repro_dir: None,
            fault_model: None,
            replicate: false,
        }
    }
}

/// What a check run found.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Cases fully checked (including the failing one, if any).
    pub cases_run: u64,
    /// The first violation, shrunk to a minimal repro (`None` = clean).
    pub violation: Option<ReproRecord>,
    /// Shrink attempts spent minimizing the violation.
    pub shrink_attempts: u64,
    /// Where the repro record was written, if anywhere.
    pub repro_path: Option<PathBuf>,
}

impl CheckReport {
    /// True when every case passed every oracle.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

/// Run the check loop. Stops at the first violation (after shrinking
/// and recording it) or when the case count / budget is exhausted.
pub fn run_check(cfg: &CheckConfig, ops: &dyn SamplingOps) -> CheckReport {
    let started = Instant::now();
    let roster = if cfg.smoke {
        Some(CaseSpec::smoke_roster())
    } else {
        None
    };
    let mut report = CheckReport {
        cases_run: 0,
        violation: None,
        shrink_attempts: 0,
        repro_path: None,
    };
    let mut index = 0u64;
    loop {
        let mut case = match &roster {
            Some(r) => {
                if index as usize >= r.len() {
                    break;
                }
                r[index as usize].clone()
            }
            None => {
                let keep_going = match cfg.budget {
                    Some(b) => started.elapsed() < b,
                    None => index < cfg.cases,
                };
                if !keep_going {
                    break;
                }
                CaseSpec::generate(cfg.master_seed, index)
            }
        };
        index += 1;
        if let Some(model) = cfg.fault_model {
            case.fault_model = model;
            // burst/msg are only defined for `par` errors; pinning a
            // model narrows the error dimension rather than generating
            // invalid cases.
            if !matches!(model, FaultModelSpec::BitFlip | FaultModelSpec::Due) {
                case.errors = resilim_harness::ErrorSpec::OneParallel;
            }
        }
        if cfg.replicate {
            case.replicate = true;
        }
        let outcome = check_case(&case, ops);
        report.cases_run += 1;
        obs::count(obs::Counter::CheckCasesRun, 1);
        obs::emit(&obs::Event::CheckCase {
            case: case.id,
            seed: case.seed,
            app: case.app.clone(),
            procs: case.procs,
            tests: case.tests,
            ok: outcome.is_ok(),
            oracle: outcome
                .as_ref()
                .err()
                .map_or(String::new(), |v| v.oracle.name().to_string()),
        });
        if let Err(violation) = outcome {
            obs::count(obs::Counter::CheckViolations, 1);
            let shrunk = shrink(&case, &violation, ops);
            report.shrink_attempts = shrunk.attempts;
            let record = ReproRecord {
                version: REPRO_VERSION,
                oracle: shrunk.violation.oracle.name().to_string(),
                message: shrunk.violation.message.clone(),
                original: (shrunk.case != case).then(|| case.clone()),
                case: shrunk.case,
            };
            if let Some(dir) = &cfg.repro_dir {
                if std::fs::create_dir_all(dir).is_ok() {
                    let path = dir.join(record.file_name());
                    let json =
                        serde_json::to_string(&record).expect("repro records are plain data");
                    if std::fs::write(&path, json).is_ok() {
                        report.repro_path = Some(path);
                    }
                }
            }
            report.violation = Some(record);
            break;
        }
    }
    report
}

/// Replay a repro record: re-run exactly the recorded case against the
/// recorded oracle.
///
/// * `Err(_)` — the record itself is unusable (unknown oracle, invalid
///   case spec); nothing was run.
/// * `Ok(Some(v))` — the violation reproduced (the expected outcome
///   when replaying against the same code that produced the record).
/// * `Ok(None)` — the case now passes (the bug is fixed, or the record
///   was produced under `--inject-bug` and replayed without it).
pub fn replay(record: &ReproRecord, ops: &dyn SamplingOps) -> Result<Option<Violation>, String> {
    if record.version != REPRO_VERSION {
        return Err(format!(
            "repro record version {} (this binary speaks {REPRO_VERSION})",
            record.version
        ));
    }
    let oracle = Oracle::parse(&record.oracle)
        .ok_or_else(|| format!("unknown oracle '{}' in repro record", record.oracle))?;
    record
        .case
        .validate()
        .map_err(|e| format!("invalid case in repro record: {e}"))?;
    Ok(run_oracle(&record.case, oracle, ops).err())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CoreOps, OffByOneBucket};

    #[test]
    fn counted_run_is_deterministic_and_clean_on_core() {
        let cfg = CheckConfig {
            cases: 2,
            ..CheckConfig::default()
        };
        let a = run_check(&cfg, &CoreOps);
        assert!(a.clean(), "core violated an oracle: {:?}", a.violation);
        assert_eq!(a.cases_run, 2);
    }

    #[test]
    fn injected_bug_is_caught_shrunk_and_recorded() {
        let dir = std::env::temp_dir().join(format!("resilim-check-repro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CheckConfig {
            cases: 5,
            repro_dir: Some(dir.clone()),
            ..CheckConfig::default()
        };
        let report = run_check(&cfg, &OffByOneBucket);
        let record = report.violation.expect("bug must be caught");
        // The pure bucket-cover oracle fires on the very first case.
        assert_eq!(report.cases_run, 1);
        assert_eq!(record.oracle, "bucket-cover");
        assert_eq!(record.version, REPRO_VERSION);
        // Shrunk to the floor of every dimension.
        assert_eq!(record.case.procs, 2);
        assert_eq!(record.case.tests, 4);
        // The record round-trips through its on-disk JSON form.
        let path = report.repro_path.expect("repro file written");
        let loaded: ReproRecord =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded, record);
        // Replay reproduces under the bug and passes on the real code.
        assert!(replay(&loaded, &OffByOneBucket).unwrap().is_some());
        assert!(replay(&loaded, &CoreOps).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rejects_broken_records() {
        let mut record = ReproRecord {
            version: REPRO_VERSION,
            oracle: "bucket-cover".into(),
            message: String::new(),
            case: CaseSpec::smoke_roster().remove(0),
            original: None,
        };
        // Retired oracle names (folded into `identity`, or deleted with
        // the learned predictors) are unknown too.
        for retired in [
            "no-such-oracle",
            "replay",
            "streaming-identity",
            "ledger-roundtrip",
            "serve-identity",
            "predictor-divergence",
        ] {
            record.oracle = retired.into();
            let err = replay(&record, &CoreOps).unwrap_err();
            assert!(err.contains("unknown oracle"), "{retired}: {err}");
        }
        record.oracle = "bucket-cover".into();
        record.version = REPRO_VERSION + 1;
        assert!(replay(&record, &CoreOps).is_err());
        record.version = REPRO_VERSION;
        record.case.app = "no-such-app".into();
        assert!(replay(&record, &CoreOps).is_err());
    }
}
