//! The summary of one campaign: what `resilim campaign`, `merge` and
//! `submit --watch` print and the serve protocol carries.
//!
//! A fault-injection campaign is expensive; the model that consumes it is
//! not. [`CampaignSummary`] is the serializable essence of one deployment
//! (everything the model needs, nothing the simulator owns). A stored
//! campaign's one record is its trial ledger: `resilim model` rebuilds
//! each summary it reads from there
//! ([`merged_from_ledger`](crate::CampaignRunner::merged_from_ledger)),
//! which mirrors the paper's workflow — collect serial and small-scale
//! measurements on whatever machine is available, then predict large
//! scales offline.

use crate::campaign::{CampaignResult, CampaignSpec, ErrorSpec};
use resilim_core::{FiResult, PropagationProfile};
use resilim_inject::FaultModelSpec;
use serde::{Deserialize, Serialize, Value};

/// The serializable essence of one campaign.
///
/// Serde impls are hand-written: the fault-model fields are emitted only
/// for non-default models (or under replication), so the `resilim
/// campaign` JSON of a baseline campaign stays byte-identical to what
/// builds before fault models emitted, and such JSON loads with the
/// defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Application name.
    pub app: String,
    /// Rank count of the deployment.
    pub procs: usize,
    /// Fault pattern.
    pub errors: ErrorSpec,
    /// Number of tests the campaign actually ran (equal to the spec's
    /// `tests` in fixed mode; fewer when an adaptive stop rule ended the
    /// campaign early).
    pub tests: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Contamination-significance threshold used.
    pub taint_threshold: f64,
    /// Outcome statistics.
    pub fi: FiResult,
    /// Contaminated-rank histogram.
    pub prop: PropagationProfile,
    /// Outcome statistics conditioned on contamination count.
    pub by_contam: Vec<FiResult>,
    /// Statistics over tests that contaminated no rank (the planned fault
    /// never fired); kept out of `by_contam` so x=1 stays conditional on
    /// genuine single-rank contamination.
    pub uncontaminated: FiResult,
    /// Campaign wall-clock seconds.
    pub wall_secs: f64,
    /// The fault model injected (`--fault-model`; default: single-bit
    /// flip, the paper baseline).
    pub fault_model: FaultModelSpec,
    /// Whether TeaMPI-style replica comparison ran (`--replicate`).
    pub replicate: bool,
    /// Trials killed by a detected-uncorrectable error.
    pub due: u64,
    /// Trials whose corruption was detected (DUE kill or replica
    /// comparison).
    pub detected: u64,
    /// `P(detected | contaminated)`; `None` when undefined (no trial
    /// contaminated a rank) — and always `None` in legacy records.
    pub detection_coverage: Option<f64>,
}

impl CampaignSummary {
    /// Build the summary of a finished campaign.
    pub fn of(spec: &CampaignSpec, result: &CampaignResult) -> CampaignSummary {
        CampaignSummary {
            app: spec.spec.app().name().to_string(),
            procs: spec.procs,
            errors: spec.errors,
            tests: result.outcomes.len(),
            seed: spec.seed,
            taint_threshold: spec.taint_threshold,
            fi: result.fi,
            prop: result.prop.clone(),
            by_contam: result.by_contam.clone(),
            uncontaminated: result.uncontaminated,
            wall_secs: result.wall.as_secs_f64(),
            fault_model: spec.fault_model,
            replicate: spec.replicate,
            due: result.due_count() as u64,
            detected: result.detected_count() as u64,
            // Coverage is a property of a deployed detector (DUE
            // machinery or replication); without one it is undefined,
            // not zero.
            detection_coverage: if spec.fault_model.is_default() && !spec.replicate {
                None
            } else {
                result.detection_coverage()
            },
        }
    }

    /// Whether the fault-model fields carry information worth emitting.
    fn models_faults(&self) -> bool {
        !self.fault_model.is_default() || self.replicate
    }
}

impl Serialize for CampaignSummary {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("app".to_string(), self.app.to_value()),
            ("procs".to_string(), self.procs.to_value()),
            ("errors".to_string(), self.errors.to_value()),
            ("tests".to_string(), self.tests.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            (
                "taint_threshold".to_string(),
                self.taint_threshold.to_value(),
            ),
            ("fi".to_string(), self.fi.to_value()),
            ("prop".to_string(), self.prop.to_value()),
            ("by_contam".to_string(), self.by_contam.to_value()),
            ("uncontaminated".to_string(), self.uncontaminated.to_value()),
            ("wall_secs".to_string(), self.wall_secs.to_value()),
        ];
        if self.models_faults() {
            fields.push((
                "fault_model".to_string(),
                self.fault_model.cli_name().to_value(),
            ));
            fields.push(("replicate".to_string(), self.replicate.to_value()));
            fields.push(("due".to_string(), self.due.to_value()));
            fields.push(("detected".to_string(), self.detected.to_value()));
            fields.push((
                "detection_coverage".to_string(),
                self.detection_coverage.to_value(),
            ));
        }
        Value::Object(fields)
    }
}

impl Deserialize for CampaignSummary {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let fault_model = match serde::field(v, "fault_model") {
            Value::Null => FaultModelSpec::default(),
            other => {
                FaultModelSpec::parse(&String::from_value(other)?).map_err(serde::Error::new)?
            }
        };
        Ok(CampaignSummary {
            app: Deserialize::from_value(serde::field(v, "app"))?,
            procs: Deserialize::from_value(serde::field(v, "procs"))?,
            errors: Deserialize::from_value(serde::field(v, "errors"))?,
            tests: Deserialize::from_value(serde::field(v, "tests"))?,
            seed: Deserialize::from_value(serde::field(v, "seed"))?,
            taint_threshold: Deserialize::from_value(serde::field(v, "taint_threshold"))?,
            fi: Deserialize::from_value(serde::field(v, "fi"))?,
            prop: Deserialize::from_value(serde::field(v, "prop"))?,
            by_contam: Deserialize::from_value(serde::field(v, "by_contam"))?,
            uncontaminated: Deserialize::from_value(serde::field(v, "uncontaminated"))?,
            wall_secs: Deserialize::from_value(serde::field(v, "wall_secs"))?,
            fault_model,
            replicate: match serde::field(v, "replicate") {
                Value::Null => false,
                other => Deserialize::from_value(other)?,
            },
            due: match serde::field(v, "due") {
                Value::Null => 0,
                other => Deserialize::from_value(other)?,
            },
            detected: match serde::field(v, "detected") {
                Value::Null => 0,
                other => Deserialize::from_value(other)?,
            },
            detection_coverage: Deserialize::from_value(serde::field(v, "detection_coverage"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignRunner;
    use resilim_apps::App;

    /// A fresh runner over the ledger and feature store under `dir`.
    fn stored_runner(dir: &std::path::Path) -> CampaignRunner {
        CampaignRunner::new()
            .with_ledger_dir(dir.join("ledger"))
            .with_feature_dir(dir.join("features"))
    }

    /// The offline half of the workflow: Eq. 8's inputs for `app`, each
    /// campaign merged from the ledger under `dir`.
    fn offline_inputs(
        dir: &std::path::Path,
        cfg: &crate::experiments::ExperimentConfig,
        app: App,
        (p, s): (usize, usize),
    ) -> Result<resilim_core::ModelInputs, String> {
        let runner = stored_runner(dir);
        let strategy = resilim_core::SamplePoints::BucketUpper;
        crate::experiments::assemble_inputs(p, s, strategy, 0.0, |procs, errors| {
            let spec = cfg.campaign(app.default_spec(), procs, errors);
            Ok(CampaignSummary::of(
                &spec,
                &runner.merged_from_ledger(&spec)?,
            ))
        })
    }

    #[test]
    fn model_inputs_reconstructed_from_store() {
        let dir = std::env::temp_dir().join(format!("resilim-store-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::experiments::ExperimentConfig {
            tests: 12,
            seed: 3,
            stop: None,
        };
        let (p, s) = (4usize, 2usize);
        let strategy = resilim_core::SamplePoints::BucketUpper;
        // Measure everything the model needs into the ledger.
        let runner = stored_runner(&dir);
        let serial = resilim_core::ModelInputs::serial_cases(p, s, strategy)
            .into_iter()
            .map(|x| (1, ErrorSpec::SerialErrors(x)));
        for (procs, errors) in serial.chain([(s, ErrorSpec::OneParallel)]) {
            let spec = cfg.campaign(App::Lu.default_spec(), procs, errors);
            runner.try_run(&spec).unwrap();
        }

        // Offline: a fresh runner merges the inputs and predicts.
        let inputs = offline_inputs(&dir, &cfg, App::Lu, (p, s)).unwrap();
        let pred = resilim_core::PaperEq8::new(inputs).predict();
        let total: f64 = pred.rates.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);

        // LU has no parallel-unique computation, so the live route over
        // the same campaigns predicts the very same bits.
        let live = crate::experiments::build_inputs(
            &CampaignRunner::new(),
            &cfg,
            &App::Lu.default_spec(),
            p,
            s,
            strategy,
        );
        let live = resilim_core::PaperEq8::new(live).predict();
        assert_eq!(live.rates.map(f64::to_bits), pred.rates.map(f64::to_bits));

        // A missing deployment is an error naming it, not a panic.
        let err = offline_inputs(&dir, &cfg, App::Cg, (p, s)).unwrap_err();
        assert!(
            err.contains("cg --scale 1 --errors ser:1 --seed 3") && err.contains("12/12"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn summary(errors: ErrorSpec) -> CampaignSummary {
        CampaignSummary {
            app: "cg".into(),
            procs: 4,
            errors,
            tests: 100,
            seed: 1,
            taint_threshold: 1e-9,
            fi: FiResult::new(),
            prop: PropagationProfile::new(4),
            by_contam: vec![],
            uncontaminated: FiResult::new(),
            wall_secs: 0.0,
            fault_model: FaultModelSpec::default(),
            replicate: false,
            due: 0,
            detected: 0,
            detection_coverage: None,
        }
    }

    /// Baseline summaries must serialize without any fault-model field:
    /// the `resilim campaign` JSON of a default campaign is byte-identical
    /// to what pre-fault-model builds emitted.
    #[test]
    fn baseline_summary_serializes_like_legacy() {
        let s = summary(ErrorSpec::OneParallel);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("fault_model"), "{json}");
        assert!(!json.contains("replicate"), "{json}");
        assert!(!json.contains("detection_coverage"), "{json}");
        // And a legacy record (no fault-model fields) loads with defaults.
        let back: CampaignSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn modeled_summary_roundtrips_with_fault_fields() {
        let mut s = summary(ErrorSpec::OneParallel);
        s.fault_model = FaultModelSpec::Due;
        s.replicate = true;
        s.due = 12;
        s.detected = 30;
        s.detection_coverage = Some(0.75);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"fault_model\":\"due\""), "{json}");
        let back: CampaignSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
