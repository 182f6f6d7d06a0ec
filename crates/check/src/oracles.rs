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
use resilim_core::{cosine_similarity, ModelInputs, PaperEq8, SamplePoints};
use resilim_harness::experiments::{build_inputs, ExperimentConfig};
use resilim_harness::{
    aggregate_outcomes, CampaignResult, CampaignRunner, CampaignSummary, ErrorSpec,
};
use resilim_inject::{FailureKind, FaultModelSpec};
use resilim_serve::{Client, Daemon, ServeConfig, SubmitSpec};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// propagation histogram conserves trials, uncontaminated trials
    /// never fired an injection, and the feature stream carries one
    /// record per trial labelled with that trial's outcome.
    Distribution,
    /// Propagation grouping: mass conservation at every divisor
    /// grouping, refinement consistency (group p→coarse equals group
    /// p→fine refolded), cosine self-similarity exactly 1.
    Grouping,
    /// Execution-shape identity: every way resilim produces the case's
    /// campaign — parallel workers, the spawn-per-trial carrier, batched
    /// admission, a ledger and feature store merged back from disk, a
    /// daemon over its socket — yields the measured jobs=1 result
    /// bitwise, whose streamed aggregates equal the batch fold of its
    /// outcomes.
    Identity,
    /// Fault-model laws, on model campaigns derived from the case: DUE
    /// is all-or-nothing (fired ⇒ detected rank-kill failure, not fired
    /// ⇒ anything but), message corruption always finds a wire to
    /// corrupt, burst outcomes stay causally consistent, and TeaMPI
    /// replication observes without perturbing (outcomes identical to
    /// the unreplicated run modulo the `detected` bit, which it may only
    /// ever add).
    FaultModels,
    /// Predicted vs measured: the closed-form prediction (Eq. 1 over
    /// Eq. 8, its inputs assembled by the harness's `build_inputs` from
    /// serial, small-scale and parallel-unique campaigns, as the figures
    /// assemble them) is a probability distribution and
    /// stays within a (generous, documented) divergence bound of the
    /// measured large-scale result.
    ModelDivergence,
}

impl Oracle {
    /// Every oracle, cheap-first.
    pub const ALL: [Oracle; 6] = [
        Oracle::BucketCover,
        Oracle::Distribution,
        Oracle::Grouping,
        Oracle::Identity,
        Oracle::FaultModels,
        Oracle::ModelDivergence,
    ];

    /// Stable kebab-case name (traces, repro records, CLI).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::BucketCover => "bucket-cover",
            Oracle::Distribution => "distribution",
            Oracle::Grouping => "grouping",
            Oracle::Identity => "identity",
            Oracle::FaultModels => "fault-models",
            Oracle::ModelDivergence => "model-divergence",
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
/// measured ground-truth campaign.
/// `Ok(())` = the case is clean.
pub fn check_case(case: &CaseSpec, ops: &dyn SamplingOps) -> Result<(), Violation> {
    case.validate()
        .map_err(|e| Violation::new(Oracle::Distribution, e))?;
    bucket_cover(case, ops)?;
    let measured = run_measured(case)?;
    distribution(case, &measured)?;
    grouping(case, &measured)?;
    identity(case, &measured)?;
    fault_models(case, &measured)?;
    model_divergence(case, &measured)?;
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
        Oracle::Identity => identity(case, &run_measured(case)?),
        Oracle::FaultModels => fault_models(case, &run_measured(case)?),
        Oracle::ModelDivergence => model_divergence(case, &run_measured(case)?),
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
    // Features are per-trial: one record per outcome, label-consistent
    // with it (both flow through the same reorder buffer).
    ensure!(
        o,
        m.features.len() == m.outcomes.len(),
        "feature pipeline produced {} records for {} trials",
        m.features.len(),
        m.outcomes.len()
    );
    for (i, (f, out)) in m.features.iter().zip(&m.outcomes).enumerate() {
        ensure!(
            o,
            f.outcome() == out.kind,
            "trial {i}: feature label {:?} disagrees with outcome {:?}",
            f.outcome(),
            out.kind
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

/// Execution-shape identity: every producer of the case's campaign must
/// reproduce the measured jobs=1 result bitwise — its outcomes, its
/// per-trial features, and its summary minus wall clock (the daemon's
/// client sees only the summary). The reference's own streamed
/// aggregates must equal the batch fold of its outcomes, so by
/// transitivity every producer's do too: a reordering bug, a dropped
/// record, a lossy store or a divergent accumulator shows up as a
/// mismatch here.
///
/// Batch sizes 7 (odd, not a divisor of typical test counts) and 64 (the
/// reorder-window size) are the adversarial admission granularities.
fn identity(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    resilim_core::verifies!(INV_MERGE);
    let o = Oracle::Identity;
    let spec = case.measured_campaign().map_err(|e| Violation::new(o, e))?;
    let (fi, prop, by_contam, uncontaminated) = aggregate_outcomes(spec.procs, &m.outcomes);
    ensure!(
        o,
        m.fi == fi
            && m.prop.counts == prop.counts
            && m.by_contam == by_contam
            && m.uncontaminated == uncontaminated,
        "jobs=1: streamed aggregates != batch fold of its outcomes"
    );
    let want = CampaignSummary::of(&spec, m);
    let same_summary = |name: &str, mut got: CampaignSummary| {
        got.wall_secs = want.wall_secs;
        ensure!(o, got == want, "{name}: summary diverges from jobs=1");
        Ok(())
    };
    let same = |name: &str, r: &CampaignResult| {
        ensure!(
            o,
            r.outcomes == m.outcomes,
            "{name} diverges from jobs=1: first mismatch at trial {}",
            m.outcomes
                .iter()
                .zip(r.outcomes.iter())
                .position(|(a, b)| a != b)
                .map_or_else(|| "<length>".to_string(), |i| i.to_string())
        );
        ensure!(
            o,
            r.features == m.features,
            "{name}: per-trial features diverge from jobs=1"
        );
        same_summary(name, CampaignSummary::of(&spec, r))
    };
    static SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "resilim-check-identity-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let runners: [(&str, CampaignRunner); 6] = [
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
        for (name, runner) in runners {
            same(name, &runner.run_uncached(&spec))?;
        }
        let stored = CampaignRunner::new()
            .with_ledger_dir(dir.join("ledger"))
            .with_feature_dir(dir.join("features"));
        same("ledgered", &stored.run_uncached(&spec))?;
        let merged = stored
            .merged_from_ledger(&spec)
            .map_err(|e| Violation::new(o, format!("merge failed: {e}")))?;
        same("merged from ledger", &merged)?;
        let socket = dir.join("check.sock");
        let daemon = Daemon::spawn(ServeConfig {
            socket: socket.clone(),
            store: None,
            workers: 2,
            batch: 7,
        })
        .map_err(|e| Violation::new(o, format!("daemon spawn: {e}")))?;
        let served = Client::connect_retry(&socket, std::time::Duration::from_secs(10))
            .and_then(|mut client| client.submit_and_wait(SubmitSpec::of_campaign(&spec)));
        daemon.stop();
        let (_id, summary) = served.map_err(|e| Violation::new(o, format!("daemon: {e}")))?;
        same_summary(
            "daemon",
            summary.ok_or_else(|| Violation::new(o, "campaign finished without a summary"))?,
        )
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
fn divergence_bound(tests: usize) -> f64 {
    0.35 + 1.5 * (0.25 / tests as f64).sqrt()
}

/// The closed-form model's inputs for the case, assembled by the
/// harness's own [`build_inputs`] — serial, small-scale and (above the
/// cutoff) parallel-unique campaigns, so Eq. 1's prob₂ term is checked
/// as the Fig. 5–8 pipelines ship it.
fn case_inputs(case: &CaseSpec) -> Result<ModelInputs, Violation> {
    let app = case
        .resolve_app()
        .map_err(|e| Violation::new(Oracle::ModelDivergence, e))?;
    let cfg = ExperimentConfig {
        tests: case.tests,
        seed: case.seed,
        stop: None,
    };
    Ok(build_inputs(
        &CampaignRunner::new(),
        &cfg,
        &app.default_spec(),
        case.procs,
        case.s,
        case.strategy,
    ))
}

/// Predicted-vs-measured divergence plus predictor distribution
/// invariants, using the case's serial, small-scale and parallel-unique
/// campaigns as model inputs — the end-to-end differential test of the
/// paper's pipeline.
fn model_divergence(case: &CaseSpec, m: &CampaignResult) -> Result<(), Violation> {
    resilim_core::verifies!(EQ1, EQ4, EQ6, O4);
    let o = Oracle::ModelDivergence;
    // Eq. 8 models the baseline single-bit-flip process; a measured
    // campaign under another fault model (or with a detector deployed)
    // is a different experiment, so the divergence bound does not apply.
    if !case.fault_model.is_default() || case.replicate {
        return Ok(());
    }
    let pred = PaperEq8::new(case_inputs(case)?).predict();
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

    /// The divergence oracle predicts with Eq. 1's parallel-unique term,
    /// as the figures do: FT's unique share clears the cutoff, so its
    /// inputs carry prob₂ and the measured `FI_par_unique`.
    #[test]
    fn ft_smoke_case_inputs_include_the_unique_term() {
        let case = CaseSpec::smoke_roster()
            .into_iter()
            .find(|c| c.app == "ft")
            .unwrap();
        let inputs = case_inputs(&case).unwrap();
        assert!(inputs.unique_share > 0.0, "{}", inputs.unique_share);
        assert!(inputs.fi_unique.is_some());
    }

    /// The distribution oracle holds the feature stream to one record per
    /// trial, each labelled with its trial's outcome.
    #[test]
    fn distribution_catches_a_broken_feature_stream() {
        let case = CaseSpec::smoke_roster().remove(0);
        let measured = run_measured(&case).unwrap();
        distribution(&case, &measured).unwrap();
        let mut dropped = measured.clone();
        dropped.features.pop();
        let v = distribution(&case, &dropped).unwrap_err();
        assert_eq!(v.oracle, Oracle::Distribution);
        assert!(v.message.contains("feature pipeline"), "{}", v.message);
        let mut relabelled = measured;
        relabelled.features[0].label = (relabelled.features[0].label + 1) % 3;
        let v = distribution(&case, &relabelled).unwrap_err();
        assert_eq!(v.oracle, Oracle::Distribution);
        assert!(v.message.contains("feature label"), "{}", v.message);
    }

    /// Each of the identity oracle's comparisons catches a perturbed
    /// reference on its own: the outcome change keeps the batch fold
    /// (only the `detected` bit moves), the feature pop touches no
    /// aggregate, and the `by_contam` change meets the streamed-vs-batch
    /// check, which runs before any producer.
    #[test]
    fn identity_catches_a_perturbed_reference() {
        let case = CaseSpec::smoke_roster().remove(0);
        let measured = run_measured(&case).unwrap();
        identity(&case, &measured).unwrap();
        let caught = |perturb: &dyn Fn(&mut CampaignResult)| {
            let mut m = measured.clone();
            perturb(&mut m);
            let v = identity(&case, &m).unwrap_err();
            assert_eq!(v.oracle, Oracle::Identity);
            v.message
        };
        let msg = caught(&|m| m.outcomes[0].detected ^= true);
        assert!(msg.contains("first mismatch at trial 0"), "{msg}");
        let msg = caught(&|m| {
            m.features.pop();
        });
        assert!(msg.contains("per-trial features diverge"), "{msg}");
        let msg = caught(&|m| m.by_contam[0].counts[0] += 1);
        assert!(msg.contains("streamed aggregates != batch fold"), "{msg}");
    }
}
