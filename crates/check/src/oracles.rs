//! The oracle library: what "the model and the measurement agree" means,
//! decomposed into independently checkable invariants.
//!
//! Each oracle is a pure function of a [`CaseSpec`] (plus the
//! [`SamplingOps`] seam): it re-derives everything it needs from the
//! case's seed, so a violated oracle replays from the repro record
//! alone. Oracles are ordered cheap-first in [`Oracle::ALL`]; the
//! engine stops at the first violation and hands it to the shrinker.

use crate::case::CaseSpec;
use crate::ops::SamplingOps;
use resilim_core::{
    cosine_similarity, fit_predictor, mean_rates, ModelInputs, PaperEq8, PredictorKind,
    SamplePoints, ALPHA_THRESHOLD,
};
use resilim_harness::{
    aggregate_outcomes, CampaignResult, CampaignRunner, CampaignSummary, ErrorSpec,
};
use resilim_inject::{FailureKind, FaultModelSpec, OutcomeKind};
use resilim_serve::{Client, Daemon, ServeConfig, SubmitSpec};
use std::collections::BTreeMap;

/// The oracles `resilim check` runs, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Sampling layer: `bucket_of` total/monotone/uniform,
    /// `sample_cases` strictly increasing, in range, covering every
    /// bucket exactly once; `sample_for` bucket-consistent. Pure math —
    /// no campaign runs.
    BucketCover,
    /// Measured campaign: outcome counts form a probability
    /// distribution, conditional results partition the totals, the
    /// propagation histogram conserves trials, and uncontaminated
    /// trials never fired an injection.
    Distribution,
    /// Propagation grouping: mass conservation at every divisor
    /// grouping, refinement consistency (group p→coarse equals group
    /// p→fine refolded), cosine self-similarity exactly 1.
    Grouping,
    /// Bitwise replay identity: jobs=1, jobs=4, jobs=auto, and the
    /// spawn-per-trial backend produce identical outcome vectors.
    Replay,
    /// Streaming aggregation identity: every campaign's online
    /// aggregates (FiResult, propagation profile, conditional splits)
    /// are bitwise equal to batch re-aggregation of its outcome vector,
    /// across jobs=1, jobs=4, jobs=auto, and the spawn-per-trial
    /// backend.
    StreamingIdentity,
    /// Durable-ledger round trip: a ledgered run merged back from disk
    /// equals the live result bitwise.
    LedgerRoundtrip,
    /// Service identity: the same campaign submitted over a daemon's
    /// unix socket (`resilim serve`) yields a summary bitwise equal to
    /// the one-shot CLI path — concurrency, the wire protocol, and the
    /// scheduler's delivery pipeline introduce no divergence.
    ServeIdentity,
    /// Fault-model laws, on model campaigns derived from the case: DUE
    /// is all-or-nothing (fired ⇒ detected rank-kill failure, not fired
    /// ⇒ anything but), message corruption always finds a wire to
    /// corrupt, burst outcomes stay causally consistent, and TeaMPI
    /// replication observes without perturbing (outcomes identical to
    /// the unreplicated run modulo the `detected` bit, which it may only
    /// ever add).
    FaultModels,
    /// Predicted vs measured: the closed-form prediction from
    /// serial + small-scale inputs is a probability distribution and
    /// stays within a (generous, documented) divergence bound of the
    /// measured large-scale result.
    ModelDivergence,
    /// Learned vs closed-form: the registry's learned predictors
    /// (logistic, stumps), trained on the measured campaign's own
    /// per-trial features, emit probability distributions whose
    /// campaign-level rates track the measured rates in-sample and stay
    /// within a documented bound of the PaperEq8 prediction built from
    /// the same case.
    PredictorDivergence,
}

impl Oracle {
    /// Every oracle, cheap-first.
    pub const ALL: [Oracle; 10] = [
        Oracle::BucketCover,
        Oracle::Distribution,
        Oracle::Grouping,
        Oracle::Replay,
        Oracle::StreamingIdentity,
        Oracle::LedgerRoundtrip,
        Oracle::ServeIdentity,
        Oracle::FaultModels,
        Oracle::ModelDivergence,
        Oracle::PredictorDivergence,
    ];

    /// Stable kebab-case name (traces, repro records, CLI).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::BucketCover => "bucket-cover",
            Oracle::Distribution => "distribution",
            Oracle::Grouping => "grouping",
            Oracle::Replay => "replay",
            Oracle::StreamingIdentity => "streaming-identity",
            Oracle::LedgerRoundtrip => "ledger-roundtrip",
            Oracle::ServeIdentity => "serve-identity",
            Oracle::FaultModels => "fault-models",
            Oracle::ModelDivergence => "model-divergence",
            Oracle::PredictorDivergence => "predictor-divergence",
        }
    }

    /// Parse a kebab-case spelling.
    pub fn parse(s: &str) -> Option<Oracle> {
        Oracle::ALL.into_iter().find(|o| o.name() == s)
    }
}

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated oracle.
    pub oracle: Oracle,
    /// What disagreed (shown to the user; stored in the repro record).
    pub message: String,
}

impl Violation {
    fn new(oracle: Oracle, message: impl Into<String>) -> Violation {
        Violation {
            oracle,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle.name(), self.message)
    }
}

macro_rules! ensure {
    ($oracle:expr, $cond:expr, $($msg:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(Violation::new($oracle, format!($($msg)+)));
        }
    }};
}

/// Run every oracle against `case`, cheapest first, sharing one
/// measured ground-truth campaign, and one runner between the two
/// divergence oracles so the model inputs are measured once.
/// `Ok(())` = the case is clean.
pub fn check_case(case: &CaseSpec, ops: &dyn SamplingOps) -> Result<(), Violation> {
    case.validate()
        .map_err(|e| Violation::new(Oracle::Distribution, e))?;
    bucket_cover(case, ops)?;
    let measured = run_measured(case)?;
    distribution(case, &measured)?;
    grouping(case, &measured)?;
    replay_identity(case, &measured)?;
    streaming_identity(case, &measured)?;
    ledger_roundtrip(case, &measured)?;
    serve_identity(case, &measured)?;
    fault_models(case, &measured)?;
    let runner = CampaignRunner::new();
    model_divergence(case, &measured, &runner)?;
    predictor_divergence(case, &measured, &runner)?;
    Ok(())
}

/// Run exactly one oracle against `case` (the shrinker's and replay's
/// entry point: re-checks only the violated invariant).
pub fn run_oracle(case: &CaseSpec, oracle: Oracle, ops: &dyn SamplingOps) -> Result<(), Violation> {
    case.validate().map_err(|e| Violation::new(oracle, e))?;
    match oracle {
        Oracle::BucketCover => bucket_cover(case, ops),
        Oracle::Distribution => distribution(case, &run_measured(case)?),
        Oracle::Grouping => grouping(case, &run_measured(case)?),
        Oracle::Replay => replay_identity(case, &run_measured(case)?),
        Oracle::StreamingIdentity => streaming_identity(case, &run_measured(case)?),
        Oracle::LedgerRoundtrip => ledger_roundtrip(case, &run_measured(case)?),
        Oracle::ServeIdentity => serve_identity(case, &run_measured(case)?),
        Oracle::FaultModels => fault_models(case, &run_measured(case)?),
        Oracle::ModelDivergence => {
            model_divergence(case, &run_measured(case)?, &CampaignRunner::new())
        }
        Oracle::PredictorDivergence => {
            predictor_divergence(case, &run_measured(case)?, &CampaignRunner::new())
        }
    }
}

/// The measured ground-truth campaign, jobs = 1.
fn run_measured(case: &CaseSpec) -> Result<CampaignResult, Violation> {
    let spec = case
        .measured_campaign()
        .map_err(|e| Violation::new(Oracle::Distribution, e))?;
    Ok(CampaignRunner::new().run_uncached(&spec))
}

/// Sampling-layer invariants, checked through the [`SamplingOps`] seam
/// at the case's own scale and at a larger virtual scale (pure math —
/// a mis-bucketing bug is caught without running a single campaign).
fn bucket_cover(case: &CaseSpec, ops: &dyn SamplingOps) -> Result<(), Violation> {
    resilim_core::verifies!(EQ7, EQ8);
    let o = Oracle::BucketCover;
    let virtual_p = (case.procs * 16).max(64);
    for (p, s) in [(case.procs, case.s), (virtual_p, case.s), (64, 8)] {
        // bucket_of: total, in range, monotone, exactly p/s values per
        // bucket.
        let mut counts = vec![0usize; s];
        let mut prev = 1usize;
        for x in 1..=p {
            let b = ops.bucket_of(x, p, s);
            ensure!(
                o,
                (1..=s).contains(&b),
                "bucket_of({x}, {p}, {s}) = {b} out of [1, {s}]"
            );
            ensure!(
                o,
                b >= prev,
                "bucket_of not monotone at x = {x} (p={p}, s={s}): {b} < {prev}"
            );
            prev = b;
            counts[b - 1] += 1;
        }
        for (j, &n) in counts.iter().enumerate() {
            ensure!(
                o,
                n == p / s,
                "bucket {} of (p={p}, s={s}) holds {n} values of x, expected {}",
                j + 1,
                p / s
            );
        }
        for strategy in [
            SamplePoints::BucketUpper,
            SamplePoints::PaperEq8,
            SamplePoints::BucketMid,
        ] {
            let cases = ops.sample_cases(p, s, strategy);
            ensure!(
                o,
                cases.len() == s,
                "{strategy:?}(p={p}, s={s}) returned {} points, expected {s}",
                cases.len()
            );
            ensure!(
                o,
                cases.windows(2).all(|w| w[0] < w[1]),
                "{strategy:?}(p={p}, s={s}) not strictly increasing: {cases:?}"
            );
            ensure!(
                o,
                cases.iter().all(|&c| (1..=p).contains(&c)),
                "{strategy:?}(p={p}, s={s}) out of range: {cases:?}"
            );
            // Coverage: the j-th point stands in for bucket j. The
            // bucket-anchored strategies land exactly in bucket j;
            // PaperEq8's interior points are lower edges and may land
            // one bucket early (the paper's own Eq. 8 convention).
            for (i, &c) in cases.iter().enumerate() {
                let j = i + 1;
                let b = ops.bucket_of(c, p, s);
                let ok = match strategy {
                    SamplePoints::PaperEq8 => b == j || b + 1 == j,
                    _ => b == j,
                };
                ensure!(
                    o,
                    ok,
                    "{strategy:?}(p={p}, s={s}): point {c} (index {j}) lands in bucket {b}"
                );
            }
            // sample_for consistency with the bucket map.
            for x in 1..=p {
                let sx = ops.sample_for(x, p, s, strategy);
                ensure!(
                    o,
                    cases.contains(&sx),
                    "sample_for({x}) = {sx} not a sample point"
                );
                let bx = ops.bucket_of(x, p, s);
                let bs = ops.bucket_of(sx, p, s);
                let ok = match strategy {
                    SamplePoints::PaperEq8 => bs == bx || bs + 1 == bx,
                    _ => bs == bx,
                };
                ensure!(
                    o,
                    ok,
                    "{strategy:?}(p={p}, s={s}): x = {x} (bucket {bx}) maps to sample {sx} (bucket {bs})"
                );
            }
        }
    }
    Ok(())
}

/// Distribution-sum and partition invariants of the measured campaign.
fn distribution(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    resilim_core::verifies!(EQ2, EQ3);
    let o = Oracle::Distribution;
    let n = case.tests as u64;
    ensure!(
        o,
        m.outcomes.len() as u64 == n,
        "{} outcomes for {} trials",
        m.outcomes.len(),
        n
    );
    ensure!(
        o,
        m.fi.total() == n,
        "fi.total() = {} for {} trials",
        m.fi.total(),
        n
    );
    let rates = m.fi.rates();
    let sum: f64 = rates.iter().sum();
    ensure!(
        o,
        (sum - 1.0).abs() < 1e-9,
        "outcome rates sum to {sum}: {rates:?}"
    );
    ensure!(
        o,
        rates.iter().all(|r| (0.0..=1.0).contains(r)),
        "outcome rate outside [0, 1]: {rates:?}"
    );
    // Conditional results partition the totals, per outcome class.
    let bucket_total: u64 = m.by_contam.iter().map(|fi| fi.total()).sum();
    ensure!(
        o,
        bucket_total + m.uncontaminated.total() == m.fi.total(),
        "by_contam ({bucket_total}) + uncontaminated ({}) != fi ({})",
        m.uncontaminated.total(),
        m.fi.total()
    );
    for k in 0..3 {
        let split: u64 =
            m.by_contam.iter().map(|fi| fi.counts[k]).sum::<u64>() + m.uncontaminated.counts[k];
        ensure!(
            o,
            split == m.fi.counts[k],
            "outcome class {k}: conditional counts sum to {split}, campaign says {}",
            m.fi.counts[k]
        );
    }
    ensure!(
        o,
        m.prop.total() == n,
        "propagation histogram holds {} trials, expected {n}",
        m.prop.total()
    );
    // Per-trial causality: no contamination without a fired fault, and
    // failure details accompany exactly the Failure kind.
    for (i, out) in m.outcomes.iter().enumerate() {
        ensure!(
            o,
            out.is_causally_consistent(),
            "trial {i} is causally inconsistent: {out:?}"
        );
    }
    Ok(())
}

/// Grouping conservation and refinement consistency on the *measured*
/// propagation profile (metamorphic: real data, relations that must
/// hold regardless of its values).
fn grouping(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    resilim_core::verifies!(EQ5, O3, TABLE2);
    let o = Oracle::Grouping;
    let r = m.prop.r_vec();
    let sum: f64 = r.iter().sum();
    ensure!(o, (sum - 1.0).abs() < 1e-9, "r_vec sums to {sum}");
    // Divisor groupings conserve mass.
    let divisors: Vec<usize> = (1..=case.procs)
        .filter(|g| case.procs.is_multiple_of(*g))
        .collect();
    for &g in &divisors {
        let grouped = m.prop.group(g);
        let mass: f64 = grouped.iter().sum();
        ensure!(o, (mass - 1.0).abs() < 1e-9, "group({g}) mass = {mass}");
        ensure!(
            o,
            grouped.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)),
            "group({g}) entry outside [0, 1]: {grouped:?}"
        );
        ensure!(
            o,
            (cosine_similarity(&grouped, &grouped) - 1.0).abs() < 1e-9,
            "cosine self-similarity of group({g}) != 1"
        );
    }
    // Refinement consistency: folding a fine grouping must equal the
    // direct coarse grouping — refining the profile never changes the
    // mass a coarse bucket sees (the relation behind the paper's
    // cosine-similarity scaling argument, Table 2).
    for &fine in &divisors {
        for &coarse in &divisors {
            if coarse > fine || !fine.is_multiple_of(coarse) {
                continue;
            }
            let direct = m.prop.group(coarse);
            let via = m.prop.group(fine);
            let ratio = fine / coarse;
            let refolded: Vec<f64> = (0..coarse)
                .map(|j| via[j * ratio..(j + 1) * ratio].iter().sum())
                .collect();
            for (j, (&d, &f)) in direct.iter().zip(refolded.iter()).enumerate() {
                ensure!(
                    o,
                    (d - f).abs() < 1e-9,
                    "refold {fine}->{coarse} bucket {j}: direct {d} vs refolded {f}"
                );
            }
            ensure!(
                o,
                (cosine_similarity(&direct, &refolded) - 1.0).abs() < 1e-9,
                "cosine(direct, refolded) != 1 for {fine}->{coarse}"
            );
        }
    }
    Ok(())
}

/// Bitwise replay identity across every execution backend.
fn replay_identity(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    let o = Oracle::Replay;
    let spec = case.measured_campaign().map_err(|e| Violation::new(o, e))?;
    let backends: [(&str, CampaignRunner); 3] = [
        ("jobs=4", CampaignRunner::new().with_test_parallelism(4)),
        ("jobs=auto", CampaignRunner::new().with_auto_parallelism()),
        (
            "spawn-per-trial",
            CampaignRunner::new().with_spawn_per_trial(),
        ),
    ];
    for (name, runner) in backends {
        let other = runner.run_uncached(&spec);
        ensure!(
            o,
            other.outcomes == m.outcomes,
            "{name} diverges from jobs=1: first mismatch at trial {}",
            m.outcomes
                .iter()
                .zip(other.outcomes.iter())
                .position(|(a, b)| a != b)
                .map_or_else(|| "<length>".to_string(), |i| i.to_string())
        );
        ensure!(o, other.fi == m.fi, "{name}: aggregated FiResult diverges");
        ensure!(
            o,
            other.prop.counts == m.prop.counts,
            "{name}: propagation histogram diverges"
        );
    }
    Ok(())
}

/// Streaming aggregation identity: the campaign's online aggregates
/// (built trial-by-trial through the reorder buffer) must be bitwise
/// equal to batch re-aggregation of its final outcome vector, for every
/// execution backend. This is the differential oracle for the streaming
/// pipeline: a reordering bug, a dropped record, or a divergent
/// accumulator shows up as streamed ≠ batch.
fn streaming_identity(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    resilim_core::verifies!(INV_MERGE);
    let o = Oracle::StreamingIdentity;
    let spec = case.measured_campaign().map_err(|e| Violation::new(o, e))?;
    let compare = |name: &str, r: &CampaignResult| -> Result<(), Violation> {
        let (fi, prop, by_contam, uncontaminated) = aggregate_outcomes(spec.procs, &r.outcomes);
        ensure!(o, r.fi == fi, "{name}: streamed FiResult != batch");
        ensure!(
            o,
            r.prop.counts == prop.counts,
            "{name}: streamed propagation profile != batch"
        );
        ensure!(
            o,
            r.by_contam == by_contam,
            "{name}: streamed by-contamination split != batch"
        );
        ensure!(
            o,
            r.uncontaminated == uncontaminated,
            "{name}: streamed uncontaminated split != batch"
        );
        Ok(())
    };
    compare("jobs=1", m)?;
    // Batched admission (`--batch`) must be observationally invisible:
    // the reorder buffer delivers in owned-index order whatever the push
    // granularity, so every batch size must reproduce the jobs=1 result
    // bitwise. 7 (odd, not a divisor of typical test counts) and 64 (the
    // reorder-window size) are the adversarial choices.
    let backends: [(&str, CampaignRunner); 6] = [
        ("jobs=4", CampaignRunner::new().with_test_parallelism(4)),
        ("jobs=auto", CampaignRunner::new().with_auto_parallelism()),
        (
            "spawn-per-trial",
            CampaignRunner::new().with_spawn_per_trial(),
        ),
        ("batch=7", CampaignRunner::new().with_trial_batch(7)),
        (
            "batch=7 jobs=4",
            CampaignRunner::new()
                .with_test_parallelism(4)
                .with_trial_batch(7),
        ),
        (
            "batch=64 jobs=4",
            CampaignRunner::new()
                .with_test_parallelism(4)
                .with_trial_batch(64),
        ),
    ];
    for (name, runner) in backends {
        compare(name, &runner.run_uncached(&spec))?;
    }
    Ok(())
}

/// Durable-ledger round trip: run with a ledger, merge from disk,
/// compare bitwise against the live result.
fn ledger_roundtrip(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    let o = Oracle::LedgerRoundtrip;
    let spec = case.measured_campaign().map_err(|e| Violation::new(o, e))?;
    let dir = std::env::temp_dir().join(format!(
        "resilim-check-ledger-{}-{}-{}",
        std::process::id(),
        case.id,
        case.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = CampaignRunner::new().with_ledger_dir(&dir);
    runner.run_uncached(&spec);
    let merged = runner.merged_from_ledger(&spec);
    let result = (|| {
        let merged = merged.map_err(|e| Violation::new(o, format!("merge failed: {e}")))?;
        ensure!(
            o,
            merged.outcomes == m.outcomes,
            "ledger round trip diverges from the live run"
        );
        ensure!(o, merged.fi == m.fi, "merged FiResult diverges");
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Service identity: submit the measured campaign through a real
/// daemon socket and require the summary a client receives to be
/// bitwise equal (modulo wall clock) to the one-shot run. Exercises
/// the whole serving stack — wire protocol, scheduler admission,
/// reorder delivery, finalization — against the same ground truth.
fn serve_identity(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    let o = Oracle::ServeIdentity;
    let spec = case.measured_campaign().map_err(|e| Violation::new(o, e))?;
    let want = CampaignSummary::of(&spec, m);
    let dir = std::env::temp_dir().join(format!(
        "resilim-check-serve-{}-{}-{}",
        std::process::id(),
        case.id,
        case.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| Violation::new(o, format!("tmp dir: {e}")))?;
    let socket = dir.join("check.sock");
    let result = (|| {
        let daemon = Daemon::spawn(ServeConfig {
            socket: socket.clone(),
            store: None,
            workers: 2,
            // Batched claims through the scheduler must not change the
            // summary either.
            batch: 7,
        })
        .map_err(|e| Violation::new(o, format!("daemon spawn: {e}")))?;
        let mut client = Client::connect_retry(&socket, std::time::Duration::from_secs(10))
            .map_err(|e| Violation::new(o, format!("connect: {e}")))?;
        let (_id, summary) = client
            .submit_and_wait(SubmitSpec::of_campaign(&spec))
            .map_err(|e| Violation::new(o, format!("submit: {e}")))?;
        daemon.stop();
        let mut got =
            summary.ok_or_else(|| Violation::new(o, "campaign finished without a summary"))?;
        got.wall_secs = want.wall_secs;
        ensure!(
            o,
            got == want,
            "daemon-served summary diverges from the one-shot run"
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Fault-model laws (DESIGN.md §12), checked on mini-campaigns derived
/// from the case (same app, scale, trial count, and seed; `par` errors,
/// which every non-default model is defined for).
///
/// * **Replication is observation**: toggling `--replicate` on the
///   measured campaign must reproduce every outcome bitwise except the
///   `detected` bit, and replication may only ever *add* detection.
/// * **DUE is all-or-nothing**: a trial that fired its fault died as a
///   detected rank kill; a trial that never fired cannot report one.
/// * **Message corruption always lands**: every trial of the `msg`
///   model corrupts exactly one wire payload, so every trial fires.
/// * **Burst stays causal**: multi-bit corruption obeys the same
///   per-trial causality the single-bit model does.
fn fault_models(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    let o = Oracle::FaultModels;
    let runner = CampaignRunner::new();
    let spec = case.measured_campaign().map_err(|e| Violation::new(o, e))?;

    // Replication metamorphic, against the measured run itself.
    let mut flipped_spec = spec.clone();
    flipped_spec.replicate = !spec.replicate;
    let flipped = runner.run_uncached(&flipped_spec);
    let (plain, repl) = if spec.replicate {
        (&flipped, m)
    } else {
        (m, &flipped)
    };
    ensure!(
        o,
        plain.outcomes.len() == repl.outcomes.len(),
        "replication changed the trial count"
    );
    for (i, (p, r)) in plain.outcomes.iter().zip(repl.outcomes.iter()).enumerate() {
        ensure!(
            o,
            p.with_detected(false) == r.with_detected(false),
            "replication perturbed trial {i}: {p:?} vs {r:?}"
        );
        ensure!(
            o,
            !p.detected || r.detected,
            "replication lost a detection at trial {i}"
        );
    }

    // The model laws, on a baseline-shaped derivation of the case.
    let mut base = spec;
    base.errors = ErrorSpec::OneParallel;
    base.replicate = false;

    let mut due_spec = base.clone();
    due_spec.fault_model = FaultModelSpec::Due;
    let due = runner.run_uncached(&due_spec);
    for (i, out) in due.outcomes.iter().enumerate() {
        if out.injections_fired > 0 {
            ensure!(
                o,
                out.failure == Some(FailureKind::Due) && out.detected,
                "due trial {i} fired but did not die detected: {out:?}"
            );
        } else {
            ensure!(
                o,
                out.failure != Some(FailureKind::Due),
                "due trial {i} reported a DUE without firing: {out:?}"
            );
        }
    }

    let mut msg_spec = base.clone();
    msg_spec.fault_model = FaultModelSpec::Msg;
    let msg = runner.run_uncached(&msg_spec);
    for (i, out) in msg.outcomes.iter().enumerate() {
        ensure!(
            o,
            out.injections_fired >= 1,
            "msg trial {i} never corrupted a wire payload: {out:?}"
        );
        ensure!(o, out.is_causally_consistent(), "msg trial {i}: {out:?}");
    }

    let mut burst_spec = base;
    burst_spec.fault_model = FaultModelSpec::Burst(3);
    let burst = runner.run_uncached(&burst_spec);
    for (i, out) in burst.outcomes.iter().enumerate() {
        ensure!(o, out.is_causally_consistent(), "burst trial {i}: {out:?}");
    }
    Ok(())
}

/// Maximum tolerated |predicted − measured| success-rate gap.
///
/// The paper reports worst-case divergences around 30% (Figure 7's
/// CoMD outlier); on top of that the mini-campaigns here estimate both
/// sides from a handful of trials, so half a binomial 3σ of sampling
/// noise is added. This oracle is an alarm for *gross* disagreement
/// (a broken bucket map, inverted rates, mass loss) — model accuracy
/// itself is evaluated by the repro pipeline's tables, not here.
pub fn divergence_bound(tests: usize) -> f64 {
    0.35 + 1.5 * (0.25 / tests as f64).sqrt()
}

/// Build the closed-form model's inputs from the case's serial +
/// small-scale campaigns (cached across oracles through `runner`'s
/// campaign cache). Shared by the two divergence oracles.
fn eq8_inputs(
    case: &CaseSpec,
    runner: &CampaignRunner,
    o: Oracle,
) -> Result<ModelInputs, Violation> {
    let mut serial = BTreeMap::new();
    for x in ModelInputs::serial_cases(case.procs, case.s, case.strategy) {
        let spec = case.serial_campaign(x).map_err(|e| Violation::new(o, e))?;
        serial.insert(x, runner.run(&spec).fi);
    }
    let small_spec = case.small_campaign().map_err(|e| Violation::new(o, e))?;
    let small = runner.run(&small_spec);
    Ok(ModelInputs {
        p: case.procs,
        s: case.s,
        strategy: case.strategy,
        serial,
        small_prop: small.prop.clone(),
        small_by_contam: small.by_contam_optional(),
        unique_share: 0.0,
        fi_unique: None,
        alpha_threshold: ALPHA_THRESHOLD,
    })
}

/// Predicted-vs-measured divergence plus predictor distribution
/// invariants, using the case's serial + small-scale campaigns as model
/// inputs — the end-to-end differential test of the paper's pipeline.
fn model_divergence(
    case: &CaseSpec,
    m: &CampaignResult,
    runner: &CampaignRunner,
) -> Result<(), Violation> {
    resilim_core::verifies!(EQ1, EQ4, EQ6, O4);
    let o = Oracle::ModelDivergence;
    // Eq. 8 models the baseline single-bit-flip process; a measured
    // campaign under another fault model (or with a detector deployed)
    // is a different experiment, so the divergence bound does not apply.
    if !case.fault_model.is_default() || case.replicate {
        return Ok(());
    }
    let pred = PaperEq8::new(eq8_inputs(case, runner, o)?).predict();
    let sum: f64 = pred.rates.iter().sum();
    ensure!(o, (sum - 1.0).abs() < 1e-9, "predicted rates sum to {sum}");
    ensure!(
        o,
        pred.rates
            .iter()
            .all(|r| (-1e-12..=1.0 + 1e-12).contains(r)),
        "predicted rate outside [0, 1]: {:?}",
        pred.rates
    );
    let gap = (pred.success() - m.fi.success_rate()).abs();
    let bound = divergence_bound(case.tests);
    ensure!(
        o,
        gap <= bound,
        "predicted success {:.3} vs measured {:.3}: gap {gap:.3} exceeds bound {bound:.3}",
        pred.success(),
        m.fi.success_rate()
    );
    Ok(())
}

/// Maximum tolerated gap between a learned predictor's in-sample rates
/// and the measured campaign rates it trained on.
///
/// Both learners' campaign-level prediction is the mean of their
/// per-trial probabilities over the training set, which at the optimum
/// matches the empirical class rates exactly (the softmax bias
/// condition / the Newton leaf condition). The slack covers a fixed,
/// finite optimization budget on small and near-degenerate training
/// sets — a larger gap means the feature pipeline or a learner broke,
/// not that optimization was unlucky.
pub const IN_SAMPLE_BOUND: f64 = 0.15;

/// Learned-predictor laws, on the measured campaign's own features:
///
/// * **Features are per-trial**: the feature stream carries exactly one
///   record per trial, label-consistent with the outcome vector (both
///   flow through the same reorder buffer).
/// * **Distributions stay lawful**: each learned predictor's rates are
///   a probability distribution.
/// * **In-sample fidelity**: trained on the campaign's features, the
///   learned rates track the measured rates within [`IN_SAMPLE_BOUND`].
/// * **Bounded disagreement with eq8**: the learned prediction stays
///   within [`divergence_bound`]` + `[`IN_SAMPLE_BOUND`] of the
///   closed-form prediction built from the same case — by the triangle
///   inequality through the measured rates, gross disagreement means
///   one of the two predictors is broken.
fn predictor_divergence(
    case: &CaseSpec,
    m: &CampaignResult,
    runner: &CampaignRunner,
) -> Result<(), Violation> {
    resilim_core::verifies!(INV_PREDICT);
    let o = Oracle::PredictorDivergence;
    // Like model_divergence: eq8 models the baseline single-bit-flip
    // process, so other fault models are a different experiment.
    if !case.fault_model.is_default() || case.replicate {
        return Ok(());
    }
    ensure!(
        o,
        m.features.len() == m.outcomes.len(),
        "feature pipeline produced {} records for {} trials",
        m.features.len(),
        m.outcomes.len()
    );
    for (i, (f, out)) in m.features.iter().zip(m.outcomes.iter()).enumerate() {
        ensure!(
            o,
            f.outcome() == out.kind,
            "trial {i}: feature label {:?} disagrees with outcome {:?}",
            f.outcome(),
            out.kind
        );
    }
    if m.features.len() < 2 {
        return Ok(()); // nothing to train on
    }
    let measured = m.fi.rates();
    let eq8 = PaperEq8::new(eq8_inputs(case, runner, o)?).predict();
    let bound = divergence_bound(case.tests) + IN_SAMPLE_BOUND;
    for kind in [PredictorKind::Logistic, PredictorKind::Stumps] {
        let predict = fit_predictor(kind, &m.features)
            .map_err(|e| Violation::new(o, format!("{} failed to fit: {e}", kind.name())))?;
        let rates = mean_rates(&m.features, predict);
        let sum: f64 = rates.iter().sum();
        ensure!(
            o,
            (sum - 1.0).abs() < 1e-6,
            "{} rates sum to {sum}",
            kind.name()
        );
        ensure!(
            o,
            rates.iter().all(|r| (-1e-12..=1.0 + 1e-12).contains(r)),
            "{} rate outside [0, 1]: {rates:?}",
            kind.name(),
        );
        for (k, (learned, truth)) in rates.iter().zip(measured).enumerate() {
            let gap = (learned - truth).abs();
            ensure!(
                o,
                gap <= IN_SAMPLE_BOUND,
                "{} class {k}: learned {learned:.3} vs measured {truth:.3} (in-sample gap {gap:.3} > {IN_SAMPLE_BOUND})",
                kind.name()
            );
        }
        let success = rates[OutcomeKind::Success.index()];
        let gap = (success - eq8.success()).abs();
        ensure!(
            o,
            gap <= bound,
            "{} success {success:.3} vs eq8 {:.3}: gap {gap:.3} exceeds bound {bound:.3}",
            kind.name(),
            eq8.success()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CoreOps, OffByOneBucket};

    #[test]
    fn oracle_names_round_trip() {
        for o in Oracle::ALL {
            assert_eq!(Oracle::parse(o.name()), Some(o));
        }
        assert_eq!(Oracle::parse("nope"), None);
    }

    #[test]
    fn bucket_cover_passes_on_core_and_fails_on_bug() {
        let case = CaseSpec::smoke_roster().remove(0);
        bucket_cover(&case, &CoreOps).unwrap();
        let v = bucket_cover(&case, &OffByOneBucket).unwrap_err();
        assert_eq!(v.oracle, Oracle::BucketCover);
    }

    #[test]
    fn divergence_bound_is_generous_but_not_vacuous() {
        assert!(divergence_bound(8) < 1.0);
        assert!(divergence_bound(8) > divergence_bound(1000));
        assert!(divergence_bound(1000) > 0.35);
    }

    #[test]
    fn predictor_divergence_passes_on_a_smoke_case() {
        resilim_core::verifies!(INV_PREDICT);
        let case = CaseSpec::smoke_roster().remove(0);
        let measured = run_measured(&case).unwrap();
        assert_eq!(measured.features.len(), measured.outcomes.len());
        predictor_divergence(&case, &measured, &CampaignRunner::new()).unwrap();
    }

    #[test]
    fn predictor_divergence_catches_a_dropped_feature_stream() {
        let case = CaseSpec::smoke_roster().remove(0);
        let mut measured = run_measured(&case).unwrap();
        measured.features.pop();
        let v = predictor_divergence(&case, &measured, &CampaignRunner::new()).unwrap_err();
        assert_eq!(v.oracle, Oracle::PredictorDivergence);
        assert!(v.message.contains("feature pipeline"), "{}", v.message);
    }
}
