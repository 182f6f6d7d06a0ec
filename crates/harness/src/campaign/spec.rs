//! Campaign vocabulary: what to run ([`CampaignSpec`], [`ErrorSpec`])
//! and what comes back ([`CampaignResult`]).

use crate::golden::GoldenRun;
use resilim_apps::ProblemSpec;
use resilim_core::{FiResult, PropagationProfile, StopRule, TrialFeatures};
use resilim_inject::{FailureKind, FaultModelSpec, OpMask, TestOutcome};
use resilim_obs as obs;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// What faults a campaign injects per test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorSpec {
    /// One single-bit error at a uniformly random injectable operation of
    /// the whole parallel execution (any rank, any region) — the paper's
    /// standard parallel deployment.
    OneParallel,
    /// `x` single-bit errors at distinct random operations of the *common*
    /// computation of a serial run (`FI_ser_x`; requires `procs == 1`).
    SerialErrors(usize),
    /// One single-bit error targeted into the *parallel-unique* region of
    /// a uniformly random rank (`FI_par_unique`'s measurement).
    OneParallelUnique,
    /// Like [`ErrorSpec::OneParallel`] but flipping `k` bits of the chosen
    /// operand (multi-bit extension; `examples/ablations.rs`).
    OneParallelMultiBit(u8),
}

impl ErrorSpec {
    /// Parse the CLI spelling: `par`, `ser:N` (N ≥ 1), `unique`, or
    /// `multi:K` (K in 1..=64, the bits of one operand). `procs` is the
    /// deployment's rank count, needed because `ser:N` campaigns are only
    /// defined serially.
    pub fn parse(spec: &str, procs: usize) -> Result<ErrorSpec, String> {
        if spec == "par" {
            return Ok(ErrorSpec::OneParallel);
        }
        if spec == "unique" {
            return Ok(ErrorSpec::OneParallelUnique);
        }
        if let Some(n) = spec.strip_prefix("ser:") {
            if procs != 1 {
                return Err("ser:N campaigns need --scale 1".into());
            }
            let n: usize = n.parse().map_err(|e| format!("ser:N: {e}"))?;
            if n == 0 {
                return Err("ser:N needs N >= 1 (ser:0 would inject nothing)".into());
            }
            return Ok(ErrorSpec::SerialErrors(n));
        }
        if let Some(k) = spec.strip_prefix("multi:") {
            let k: u8 = k.parse().map_err(|e| format!("multi:K: {e}"))?;
            if !(1..=64).contains(&k) {
                return Err(format!(
                    "multi:K needs K in 1..=64 (the bits of one operand), got {k}"
                ));
            }
            return Ok(ErrorSpec::OneParallelMultiBit(k));
        }
        Err(format!(
            "unknown --errors '{spec}' (par|ser:N|unique|multi:K)"
        ))
    }

    /// The CLI spelling [`ErrorSpec::parse`] accepts — the wire form
    /// service submissions carry, chosen over the serde encoding so that
    /// hand-written requests use the same vocabulary as the command line.
    pub fn cli_name(&self) -> String {
        match self {
            ErrorSpec::OneParallel => "par".to_string(),
            ErrorSpec::SerialErrors(x) => format!("ser:{x}"),
            ErrorSpec::OneParallelUnique => "unique".to_string(),
            ErrorSpec::OneParallelMultiBit(k) => format!("multi:{k}"),
        }
    }
}

/// Validate a fault-model choice against the deployment shape it will
/// run in. Shared by the CLI front end and the `resilim serve` wire
/// protocol so a bad combination is rejected identically everywhere:
/// burst defines its own bit geometry (no `multi:K`/`unique`/`ser:N`),
/// and a wire fault needs a communicating (`par`, multi-rank) world.
pub fn validate_fault_model(
    model: FaultModelSpec,
    errors: ErrorSpec,
    procs: usize,
) -> Result<(), String> {
    if matches!(model, FaultModelSpec::Burst(_)) && !matches!(errors, ErrorSpec::OneParallel) {
        return Err("fault model burst needs errors=par (the burst defines its own bits)".into());
    }
    if model.targets_messages() {
        if !matches!(errors, ErrorSpec::OneParallel) {
            return Err("fault model msg needs errors=par (the fault site is a message)".into());
        }
        if procs < 2 {
            return Err("fault model msg needs >= 2 ranks (a 1-rank world sends nothing)".into());
        }
    }
    Ok(())
}

/// Default contamination-significance threshold (relative): a rank counts
/// as contaminated when it holds a value diverging from the fault-free
/// shadow by more than this. Mirrors F-SEFI's application-level memory
/// comparison, which is tolerance-based rather than bitwise; see
/// DESIGN.md ("contamination significance").
pub const DEFAULT_TAINT_THRESHOLD: f64 = 1e-9;

/// A campaign specification.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The workload.
    pub spec: ProblemSpec,
    /// Rank count.
    pub procs: usize,
    /// Fault pattern.
    pub errors: ErrorSpec,
    /// Number of fault-injection tests (an upper bound when `stop` is
    /// set: the campaign may stop earlier once the rule is satisfied).
    pub tests: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Contamination-significance threshold (see
    /// [`DEFAULT_TAINT_THRESHOLD`]); 0 = bitwise.
    pub taint_threshold: f64,
    /// Which operation kinds are injection targets (the paper's default:
    /// floating-point add/sub/mul).
    pub op_mask: OpMask,
    /// What each injected fault *is* (`--fault-model`): the paper's
    /// single-bit operand flip by default; burst, DUE, or wire (message)
    /// corruption otherwise. See [`FaultModelSpec`].
    pub fault_model: FaultModelSpec,
    /// TeaMPI-style replication mitigation (`--replicate`): replica pairs
    /// compare message payloads at communication points, and trials
    /// report whether the corruption was detected. Observation-only — it
    /// never changes any trial's outcome class.
    pub replicate: bool,
    /// Adaptive-stopping rule; `None` (the default) runs exactly
    /// `tests` trials. The rule is evaluated on the in-order trial
    /// prefix only, so a stopped campaign's result is deterministic for
    /// a fixed seed+config regardless of worker count.
    pub stop: Option<StopRule>,
}

impl CampaignSpec {
    /// Spec with the default contamination threshold.
    pub fn new(
        spec: ProblemSpec,
        procs: usize,
        errors: ErrorSpec,
        tests: usize,
        seed: u64,
    ) -> CampaignSpec {
        CampaignSpec {
            spec,
            procs,
            errors,
            tests,
            seed,
            taint_threshold: DEFAULT_TAINT_THRESHOLD,
            op_mask: OpMask::FP_ARITH,
            fault_model: FaultModelSpec::default(),
            replicate: false,
            stop: None,
        }
    }

    /// Stop adaptively under `rule` instead of always running `tests`
    /// trials (`tests` remains the hard ceiling).
    pub fn with_stop(mut self, rule: StopRule) -> CampaignSpec {
        self.stop = Some(rule);
        self
    }

    /// Inject faults under `model` instead of the default single-bit flip.
    pub fn with_fault_model(mut self, model: FaultModelSpec) -> CampaignSpec {
        self.fault_model = model;
        self
    }

    /// Enable TeaMPI-style replica payload comparison.
    pub fn with_replication(mut self, replicate: bool) -> CampaignSpec {
        self.replicate = replicate;
        self
    }

    /// Identity of the *aggregated result*: the ledger key plus
    /// everything that shapes aggregation without affecting any single
    /// trial (`tests`, the stop rule). The stop suffix is emitted only
    /// when a rule is set, so fixed-`tests` keys are unchanged.
    ///
    /// Public because result-level deduplication lives on it: the
    /// campaign cache here and the `resilim serve` daemon's idempotent
    /// submission both treat two specs with equal cache keys as the
    /// same campaign.
    pub fn cache_key(&self) -> String {
        let mut key = format!("{}|n={}", self.trial_key(), self.tests);
        if let Some(rule) = &self.stop {
            key.push_str(&format!(
                "|stop=ci{},min{},z{}",
                rule.ci_halfwidth, rule.min_tests, rule.z
            ));
        }
        key
    }

    /// The durable-ledger identity of this deployment: everything that
    /// determines a trial's outcome *except* the trial count, so a
    /// shard, a resumed run, and a differently-sized campaign of the
    /// same deployment all share ledger records (trial `i` is fully
    /// determined by `(spec, seed, i)`, never by `tests`).
    ///
    /// Audit of result-affecting fields (every one below feeds the
    /// private `exec` layer's planning or classification):
    /// * problem parameters — `spec.cache_key()` (the full `Debug` form
    ///   of [`ProblemSpec`], so any new problem knob joins automatically)
    /// * `procs` — the rank count trials execute at
    /// * `errors` — the fault pattern (includes the sample-point
    ///   strategy's error count for `SerialErrors(x)`)
    /// * `seed` — the root of every per-trial RNG
    /// * `taint_threshold` (θ) — contamination classification
    /// * `op_mask` — the injectable-op sample space
    /// * `fault_model` — what a fired fault does to its target (suffixed
    ///   only when non-default, so pre-existing ledgers keep matching)
    /// * `replicate` — replica comparison sets the `detected` flag on
    ///   recorded outcomes (suffixed only when enabled, same reason)
    ///
    /// Deliberately excluded: `tests` (see above) and `stop` — the stop
    /// rule decides *how many* trials aggregate, never how any trial
    /// runs, so adaptive and fixed campaigns of one deployment share
    /// ledger records too.
    pub fn ledger_key(&self) -> String {
        self.trial_key()
    }

    /// Everything that determines a single trial's outcome.
    fn trial_key(&self) -> String {
        let mut key = format!(
            "{}|p={}|{:?}|seed={}|theta={}|mask={}",
            self.spec.cache_key(),
            self.procs,
            self.errors,
            self.seed,
            self.taint_threshold,
            self.op_mask
        );
        // Appended only when non-default so that every key minted before
        // fault models existed still identifies the same trials.
        if !self.fault_model.is_default() {
            key.push_str(&format!("|fm={}", self.fault_model.cli_name()));
        }
        if self.replicate {
            key.push_str("|repl");
        }
        key
    }
}

/// A campaign's results.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Rank count of the deployment.
    pub procs: usize,
    /// Statistical summary over all tests.
    pub fi: FiResult,
    /// Contaminated-rank histogram over all tests.
    pub prop: PropagationProfile,
    /// Results conditioned on contamination count: `by_contam[x-1]`
    /// summarizes the tests that contaminated exactly `x ∈ [1, procs]`
    /// ranks.
    pub by_contam: Vec<FiResult>,
    /// Tests that contaminated *no* rank (a planned fault never reached
    /// its target op). Kept out of `by_contam` so the x=1 bucket is not
    /// polluted by tests where nothing happened.
    pub uncontaminated: FiResult,
    /// Raw per-test outcomes (test `i` used seed `hash(seed, i)`).
    pub outcomes: Vec<TestOutcome>,
    /// Per-trial feature records in delivery order — the learned
    /// predictors' training data. May be shorter than `outcomes` when
    /// resumed trials' features are not on disk (feature extraction
    /// postdates the ledger), and empty for merged results without a
    /// feature store.
    pub features: Vec<TrialFeatures>,
    /// Whether an adaptive [`StopRule`] ended the campaign before its
    /// `tests` ceiling (always `false` in fixed mode).
    pub stopped_early: bool,
    /// Wall-clock time of the whole campaign (the paper's "fault
    /// injection time").
    pub wall: Duration,
    /// The golden run the campaign classified against.
    pub golden: Arc<GoldenRun>,
    /// Observability counters/histograms accumulated while this campaign
    /// ran (all zeros unless the recorder was enabled). Snapshot deltas
    /// of process-wide counters: exact on every one-shot path, which runs
    /// one campaign at a time; under `resilim serve`, whose campaigns
    /// overlap, they include the neighbours' work.
    pub metrics: obs::MetricsSnapshot,
}

impl CampaignResult {
    /// Trials a detected-uncorrectable error killed (`--fault-model due`).
    pub fn due_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.failure == Some(FailureKind::Due))
            .count()
    }

    /// Trials where the corruption was detected (DUE kill or replica
    /// payload comparison).
    pub fn detected_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.detected).count()
    }

    /// Detection coverage: `P(detected | at least one rank contaminated)`
    /// — the fraction of trials with observable corruption that a
    /// deployed detector (DUE machinery or `--replicate` comparison)
    /// actually flagged. `None` when no trial contaminated any rank, so
    /// coverage is undefined rather than misleadingly zero.
    pub fn detection_coverage(&self) -> Option<f64> {
        let contaminated: Vec<&TestOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.contaminated_ranks > 0)
            .collect();
        if contaminated.is_empty() {
            return None;
        }
        let detected = contaminated.iter().filter(|o| o.detected).count();
        Some(detected as f64 / contaminated.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_apps::App;
    use resilim_inject::OpMask;

    fn base() -> CampaignSpec {
        CampaignSpec::new(App::Cg.default_spec(), 4, ErrorSpec::OneParallel, 50, 7)
    }

    /// Regression for the ledger-key audit: every result-affecting
    /// field must produce a distinct ledger key, and the two
    /// aggregation-only fields (`tests`, `stop`) must change the cache
    /// key but *not* the ledger key.
    #[test]
    fn ledger_key_separates_every_result_affecting_field() {
        let a = base();
        let variants: Vec<(&str, CampaignSpec)> = vec![
            ("spec", {
                let mut s = base();
                s.spec = App::Ft.default_spec();
                s
            }),
            ("procs", {
                let mut s = base();
                s.procs = 8;
                s
            }),
            ("errors", {
                let mut s = base();
                s.errors = ErrorSpec::OneParallelUnique;
                s
            }),
            ("errors-x", {
                let mut s = base();
                s.procs = 1;
                s.errors = ErrorSpec::SerialErrors(3);
                s
            }),
            ("seed", {
                let mut s = base();
                s.seed = 8;
                s
            }),
            ("theta", {
                let mut s = base();
                s.taint_threshold = 1e-6;
                s
            }),
            ("mask", {
                let mut s = base();
                s.op_mask = OpMask::DIV;
                s
            }),
            ("fault-model", {
                base().with_fault_model(FaultModelSpec::Burst(3))
            }),
            ("replicate", base().with_replication(true)),
        ];
        for (field, v) in &variants {
            assert_ne!(
                a.ledger_key(),
                v.ledger_key(),
                "field {field} must be part of the ledger key"
            );
            assert_ne!(
                a.cache_key(),
                v.cache_key(),
                "field {field} must be part of the cache key"
            );
        }
    }

    #[test]
    fn tests_and_stop_affect_cache_key_only() {
        let a = base();
        let mut more_tests = base();
        more_tests.tests = 51;
        let adaptive = base().with_stop(StopRule::new(0.05));
        for (field, v) in [("tests", &more_tests), ("stop", &adaptive)] {
            assert_eq!(
                a.ledger_key(),
                v.ledger_key(),
                "{field} must not change the ledger key (trials are shared)"
            );
            assert_ne!(
                a.cache_key(),
                v.cache_key(),
                "{field} must change the cache key (results differ)"
            );
        }
        // Distinct stop rules are distinct results.
        let tighter = base().with_stop(StopRule::new(0.02));
        assert_ne!(adaptive.cache_key(), tighter.cache_key());
    }

    #[test]
    fn cli_spellings_round_trip_through_parse() {
        let specs = [
            (ErrorSpec::OneParallel, 4),
            (ErrorSpec::SerialErrors(3), 1),
            (ErrorSpec::OneParallelUnique, 4),
            (ErrorSpec::OneParallelMultiBit(2), 4),
            (ErrorSpec::OneParallelMultiBit(1), 4),
            (ErrorSpec::OneParallelMultiBit(64), 4),
        ];
        for (errors, procs) in specs {
            assert_eq!(ErrorSpec::parse(&errors.cli_name(), procs), Ok(errors));
        }
        assert!(ErrorSpec::parse("ser:2", 4).is_err(), "ser needs procs=1");
        assert!(ErrorSpec::parse("ser:x", 1).is_err());
        assert!(ErrorSpec::parse("multi:x", 4).is_err());
        assert!(ErrorSpec::parse("bogus", 4).is_err());
    }

    #[test]
    fn error_counts_outside_the_draw_are_refused() {
        // Zero errors would report a campaign that injected nothing as
        // 100 % success; past 64 distinct bits the bit draw never ends.
        for (spelling, procs) in [
            ("ser:0", 1),
            ("multi:0", 4),
            ("multi:65", 4),
            ("multi:255", 4),
        ] {
            let err = ErrorSpec::parse(spelling, procs).unwrap_err();
            assert!(err.contains("needs"), "{spelling}: {err}");
        }
        assert!(ErrorSpec::parse("multi:256", 4).is_err());
    }

    /// Keys minted before fault models existed must keep identifying the
    /// same trials: the default model and no replication add nothing.
    #[test]
    fn default_fault_model_leaves_keys_unchanged() {
        let key = base().ledger_key();
        assert!(!key.contains("|fm="), "default model must not tag keys");
        assert!(!key.contains("|repl"), "no replication must not tag keys");
        let tagged = base()
            .with_fault_model(FaultModelSpec::Due)
            .with_replication(true)
            .ledger_key();
        assert!(tagged.contains("|fm=due"));
        assert!(tagged.ends_with("|repl"));
    }

    #[test]
    fn detection_stats_count_due_and_detected_trials() {
        use resilim_core::FiAccumulator;
        let outcomes = vec![
            TestOutcome::success(true, 0, 0),
            TestOutcome::sdc(2, 1),
            TestOutcome::failure(FailureKind::Due, 1, 1).with_detected(true),
            TestOutcome::sdc(3, 1).with_detected(true),
        ];
        let mut acc = FiAccumulator::new(4);
        for o in &outcomes {
            acc.record(o);
        }
        let (fi, prop, by_contam, uncontaminated) = acc.into_parts();
        let result = CampaignResult {
            procs: 4,
            fi,
            prop,
            by_contam,
            uncontaminated,
            outcomes,
            features: Vec::new(),
            stopped_early: false,
            wall: Duration::ZERO,
            golden: Arc::new(GoldenRun::measure(&App::Cg.default_spec(), 1)),
            metrics: obs::MetricsSnapshot::default(),
        };
        assert_eq!(result.due_count(), 1);
        assert_eq!(result.detected_count(), 2);
        // 3 contaminated trials, 2 detected.
        assert_eq!(result.detection_coverage(), Some(2.0 / 3.0));
    }

    #[test]
    fn detection_coverage_is_undefined_without_contamination() {
        use resilim_core::FiAccumulator;
        let outcomes = vec![TestOutcome::success(true, 0, 0)];
        let mut acc = FiAccumulator::new(1);
        for o in &outcomes {
            acc.record(o);
        }
        let (fi, prop, by_contam, uncontaminated) = acc.into_parts();
        let result = CampaignResult {
            procs: 1,
            fi,
            prop,
            by_contam,
            uncontaminated,
            outcomes,
            features: Vec::new(),
            stopped_early: false,
            wall: Duration::ZERO,
            golden: Arc::new(GoldenRun::measure(&App::Cg.default_spec(), 1)),
            metrics: obs::MetricsSnapshot::default(),
        };
        assert_eq!(result.detection_coverage(), None);
    }

    #[test]
    fn fixed_mode_cache_key_has_no_stop_suffix() {
        assert!(!base().cache_key().contains("stop="));
        assert!(base()
            .with_stop(StopRule::new(0.05))
            .cache_key()
            .contains("stop="));
    }
}
