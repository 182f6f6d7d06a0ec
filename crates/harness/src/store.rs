//! Persisting campaign results: measure once, model later.
//!
//! A fault-injection campaign is expensive; the model that consumes it is
//! not. [`CampaignSummary`] is the serializable record of one deployment
//! (everything the model needs, nothing the simulator owns), and
//! [`ResultStore`] is a directory of them. This mirrors the paper's
//! workflow: collect serial and small-scale measurements on whatever
//! machine is available, then predict large scales offline.

use crate::campaign::{CampaignResult, CampaignSpec, ErrorSpec};
use resilim_core::{FiResult, PropagationProfile};
use resilim_inject::FaultModelSpec;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// The serializable essence of one campaign.
///
/// Serde impls are hand-written: the fault-model fields are emitted only
/// for non-default models (or under replication), so summaries — and the
/// `resilim campaign` JSON output built from them — of baseline campaigns
/// stay byte-identical to records written before fault models existed,
/// and old files load with the defaults.
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

    /// The conditional results in the model's optional form.
    pub fn by_contam_optional(&self) -> Vec<Option<FiResult>> {
        self.by_contam
            .iter()
            .map(|fi| if fi.total() > 0 { Some(*fi) } else { None })
            .collect()
    }

    /// Canonical file name for this deployment. Baseline campaigns keep
    /// their historical names; non-default models (and replication) get
    /// a suffix so they never clobber a baseline record.
    pub fn file_name(&self) -> String {
        let errors = match self.errors {
            ErrorSpec::OneParallel => "par1".to_string(),
            ErrorSpec::SerialErrors(x) => format!("ser{x}"),
            ErrorSpec::OneParallelUnique => "unique1".to_string(),
            ErrorSpec::OneParallelMultiBit(k) => format!("par1x{k}bit"),
        };
        let mut tag = String::new();
        if !self.fault_model.is_default() {
            // "burst:3" → "burst3": keep file names shell-friendly.
            tag.push('_');
            tag.extend(self.fault_model.cli_name().chars().filter(|c| *c != ':'));
        }
        if self.replicate {
            tag.push_str("_repl");
        }
        format!(
            "{}_p{}_{}_n{}_s{}{}.json",
            self.app, self.procs, errors, self.tests, self.seed, tag
        )
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

/// Write `contents` to `path` so that readers — and a process killed
/// mid-write — never observe a half-written file: write a sibling
/// `<name>.tmp.<pid>`, then rename it over `path`. Shared by the
/// summary store and the golden cache; their loaders only look at
/// `*.json`, so a temp file a crash left behind is ignored.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// A directory of saved campaign summaries.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) a store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Save a summary under its canonical name; returns the path.
    pub fn save(&self, summary: &CampaignSummary) -> std::io::Result<PathBuf> {
        let path = self.dir.join(summary.file_name());
        let json = serde_json::to_string_pretty(summary)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        write_atomic(&path, &json)?;
        Ok(path)
    }

    /// Load one summary by file name.
    pub fn load(&self, file_name: &str) -> std::io::Result<CampaignSummary> {
        let raw = std::fs::read_to_string(self.dir.join(file_name))?;
        serde_json::from_str(&raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Load every summary in the store.
    pub fn load_all(&self) -> std::io::Result<Vec<CampaignSummary>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "json") {
                let raw = std::fs::read_to_string(entry.path())?;
                if let Ok(summary) = serde_json::from_str(&raw) {
                    out.push(summary);
                }
            }
        }
        out.sort_by_key(CampaignSummary::file_name);
        Ok(out)
    }
}

/// Assemble [`ModelInputs`](resilim_core::ModelInputs) for predicting
/// scale `p` of `app` from the summaries saved in `store` — the offline
/// half of the paper's workflow.
///
/// Requires: serial campaigns (`SerialErrors(x)`) at every sample case of
/// `(p, s, strategy)` plus `x = 1..=s`, and a 1-error campaign at `s`
/// ranks. The offline path predicts without Eq. 1's parallel-unique term:
/// `unique_share` is 0, so no parallel-unique campaign is read.
pub fn model_inputs_from_store(
    store: &ResultStore,
    app: &str,
    p: usize,
    s: usize,
    strategy: resilim_core::SamplePoints,
) -> Result<resilim_core::ModelInputs, String> {
    let all = store
        .load_all()
        .map_err(|e| format!("cannot read store: {e}"))?;
    // The paper's model is calibrated on baseline (single-bit, unmitigated)
    // measurements only; summaries from other fault models never feed it.
    let baseline = |sum: &&CampaignSummary| sum.fault_model.is_default() && !sum.replicate;
    let serial_at = |x: usize| -> Option<FiResult> {
        all.iter()
            .filter(baseline)
            .find(|sum| {
                sum.app == app && sum.procs == 1 && sum.errors == ErrorSpec::SerialErrors(x)
            })
            .map(|sum| sum.fi)
    };
    let mut serial = std::collections::BTreeMap::new();
    let mut needed: Vec<usize> = resilim_core::sample_cases(p, s, strategy);
    needed.extend(1..=s);
    for x in needed {
        let fi = serial_at(x).ok_or(format!("store is missing serial campaign x={x} for {app}"))?;
        serial.insert(x, fi);
    }
    let small = all
        .iter()
        .filter(baseline)
        .find(|sum| sum.app == app && sum.procs == s && sum.errors == ErrorSpec::OneParallel)
        .ok_or(format!(
            "store is missing the {s}-rank 1-error campaign for {app}"
        ))?;
    Ok(resilim_core::ModelInputs {
        p,
        s,
        strategy,
        serial,
        small_prop: small.prop.clone(),
        small_by_contam: small.by_contam_optional(),
        unique_share: 0.0,
        fi_unique: None,
        alpha_threshold: resilim_core::ALPHA_THRESHOLD,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignRunner;
    use resilim_apps::App;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("resilim-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn summary_roundtrips_through_disk() {
        let runner = CampaignRunner::new();
        let spec = CampaignSpec::new(App::Lu.default_spec(), 2, ErrorSpec::OneParallel, 10, 5);
        let result = runner.run(&spec);
        let summary = CampaignSummary::of(&spec, &result);

        let store = ResultStore::open(temp_dir("roundtrip")).unwrap();
        let path = store.save(&summary).unwrap();
        assert!(path.exists());
        let loaded = store.load(&summary.file_name()).unwrap();
        assert_eq!(loaded, summary);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    /// A save killed between temp-write and rename leaves a `*.tmp.*`
    /// file behind; it is not a summary and must not fail the listing.
    #[test]
    fn leftover_temp_files_are_ignored() {
        let store = ResultStore::open(temp_dir("tmp")).unwrap();
        let saved = summary(ErrorSpec::OneParallel);
        let path = store.save(&saved).unwrap();
        assert_eq!(
            std::fs::read_dir(store.dir()).unwrap().count(),
            1,
            "a completed save leaves no temp file of its own"
        );
        std::fs::write(
            format!("{}.tmp.4242", path.display()),
            "{\"app\":\"cg\",\"pro",
        )
        .unwrap();
        assert_eq!(store.load_all().unwrap(), vec![saved]);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn load_all_finds_everything() {
        let runner = CampaignRunner::new();
        let store = ResultStore::open(temp_dir("all")).unwrap();
        for x in [1usize, 2] {
            let spec =
                CampaignSpec::new(App::Lu.default_spec(), 1, ErrorSpec::SerialErrors(x), 8, 5);
            let result = runner.run(&spec);
            store.save(&CampaignSummary::of(&spec, &result)).unwrap();
        }
        let all = store.load_all().unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|s| s.app == "lu" && s.tests == 8));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn model_inputs_reconstructed_from_store() {
        let runner = CampaignRunner::new();
        let store = ResultStore::open(temp_dir("model")).unwrap();
        let (p, s) = (4usize, 2usize);
        // Measure and persist everything the model needs.
        let mut cases: Vec<usize> =
            resilim_core::sample_cases(p, s, resilim_core::SamplePoints::BucketUpper);
        cases.extend(1..=s);
        cases.sort_unstable();
        cases.dedup();
        for x in cases {
            let spec =
                CampaignSpec::new(App::Lu.default_spec(), 1, ErrorSpec::SerialErrors(x), 12, 3);
            let result = runner.run(&spec);
            store.save(&CampaignSummary::of(&spec, &result)).unwrap();
        }
        let spec = CampaignSpec::new(App::Lu.default_spec(), s, ErrorSpec::OneParallel, 12, 3);
        let result = runner.run(&spec);
        store.save(&CampaignSummary::of(&spec, &result)).unwrap();

        // Offline: rebuild the inputs and predict.
        let inputs =
            model_inputs_from_store(&store, "lu", p, s, resilim_core::SamplePoints::BucketUpper)
                .unwrap();
        let pred = resilim_core::PaperEq8::new(inputs).predict();
        let total: f64 = pred.rates.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);

        // Missing data is reported, not panicked.
        let err =
            model_inputs_from_store(&store, "cg", p, s, resilim_core::SamplePoints::BucketUpper)
                .unwrap_err();
        assert!(err.contains("missing"), "{err}");
        std::fs::remove_dir_all(store.dir()).unwrap();
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

    #[test]
    fn file_names_distinguish_deployments() {
        let mut variants: Vec<CampaignSummary> = [
            ErrorSpec::OneParallel,
            ErrorSpec::SerialErrors(16),
            ErrorSpec::OneParallelUnique,
            ErrorSpec::OneParallelMultiBit(3),
        ]
        .into_iter()
        .map(summary)
        .collect();
        // Every fault model (and replication) is its own deployment too.
        for fm in FaultModelSpec::ALL {
            let mut s = summary(ErrorSpec::OneParallel);
            s.fault_model = fm;
            variants.push(s);
        }
        let mut repl = summary(ErrorSpec::OneParallel);
        repl.replicate = true;
        variants.push(repl);
        let names: Vec<String> = variants.iter().map(CampaignSummary::file_name).collect();
        // The default-model variant appears twice by construction (first
        // array + ALL[0]); dedup that one expected collision.
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len() - 1, "{names:?}");
        assert!(names.iter().any(|n| n.contains("burst3")));
        assert!(names.iter().any(|n| n.ends_with("_repl.json")));
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
