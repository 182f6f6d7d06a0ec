//! Resilience predictors: the [`Predictor`] trait, its registry
//! ([`PredictorKind`]), and the paper's closed-form model [`PaperEq8`]
//! (paper §4, Equations 1–8).
//!
//! `FI_par = prob₁ · FI_common + prob₂ · FI_unique` where
//! `FI_common = Σⱼ r'ⱼ · FI_ser(xⱼ)`:
//!
//! * `r'ⱼ` — probability that one injected error contaminates a number of
//!   ranks falling in bucket `j`, measured on the **small-scale**
//!   execution (Observation 3 / Eq. 5 / Eq. 8);
//! * `FI_ser(xⱼ)` — the fault-injection result of a **serial** run with
//!   `xⱼ` errors injected into the common computation (Observation 4),
//!   measured at the `S` sparse sample cases (Eq. 7);
//! * **α fine-tuning** — when serial multi-error injection diverges from
//!   the small-scale results by more than a threshold (paper: 20 %), the
//!   bucket values are replaced by the small-scale per-contamination
//!   results (`FI'_ser(xⱼ) = FI_small_par(j)`, §4.2);
//! * `prob₂` — the probability an error lands in the parallel-unique
//!   computation (its share of injectable operations), with `FI_unique`
//!   measured by region-targeted injection at the small scale.
//!
//! The learned predictors of the registry (logistic regression and
//! gradient-boosted stumps over per-trial
//! [`TrialFeatures`](crate::TrialFeatures)) live in [`crate::learn`]; they implement the
//! same [`Predictor`] trait, so `resilim model` and the
//! `predictor-divergence` check oracle treat all three uniformly.

use crate::fi::FiResult;
use crate::propagation::PropagationProfile;
use crate::sampling::{sample_cases, SamplePoints};
use resilim_inject::OutcomeKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything the predictor needs, all measured at small scale or serially.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelInputs {
    /// Target (large) scale `p`.
    pub p: usize,
    /// Small scale `S` (also the number of serial sample cases).
    pub s: usize,
    /// Serial sample-point selection strategy.
    pub strategy: SamplePoints,
    /// `FI_ser_x` at (at least) the sample cases: map from `x` (number of
    /// errors injected into a serial run) to the deployment result.
    pub serial: BTreeMap<usize, FiResult>,
    /// Propagation profile of the small-scale 1-error deployment (`r'`).
    pub small_prop: PropagationProfile,
    /// Small-scale results *conditioned on contamination count*:
    /// `small_by_contam[x-1]` = result over tests that contaminated exactly
    /// `x` ranks (`None` when never observed). Used for the α check and
    /// fine-tuning.
    pub small_by_contam: Vec<Option<FiResult>>,
    /// `prob₂`: fraction of injectable operations in parallel-unique code
    /// at the target scale (0 disables the Eq. 1 second term).
    pub unique_share: f64,
    /// Result of the small-scale deployment targeted at parallel-unique
    /// computation (`FI_par_unique`); required when `unique_share > 0`.
    pub fi_unique: Option<FiResult>,
    /// Relative divergence (on the success rate) beyond which α
    /// fine-tuning activates. The paper uses [`ALPHA_THRESHOLD`].
    pub alpha_threshold: f64,
}

impl ModelInputs {
    /// The serial campaigns (`FI_ser_x`) the model reads when predicting
    /// `p` from `s`: the sample cases, plus `x = 1..=s` for the α check
    /// against the small scale's conditional results (§4.2). Ascending,
    /// no duplicates.
    ///
    /// ```
    /// use resilim_core::{ModelInputs, SamplePoints};
    /// let cases = ModelInputs::serial_cases(64, 4, SamplePoints::BucketUpper);
    /// assert_eq!(cases, [1, 2, 3, 4, 32, 48, 64]);
    /// ```
    pub fn serial_cases(p: usize, s: usize, strategy: SamplePoints) -> Vec<usize> {
        let mut cases = sample_cases(p, s, strategy);
        cases.extend(1..=s);
        cases.sort_unstable();
        cases.dedup();
        cases
    }
}

/// The paper's α fine-tuning threshold (§4.2): serial-vs-small-scale
/// divergence beyond 20 % switches the buckets to the small-scale results.
pub const ALPHA_THRESHOLD: f64 = 0.20;

/// One bucket's contribution to the prediction (for reporting).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BucketTerm {
    /// 1-based bucket index `j`.
    pub bucket: usize,
    /// The serial sample case `xⱼ` standing in for this bucket.
    pub sample_x: usize,
    /// Bucket weight `r'ⱼ` from the small-scale propagation profile.
    pub weight: f64,
    /// The (possibly fine-tuned) outcome rates used for this bucket
    /// `[success, sdc, failure]`.
    pub rates: [f64; 3],
    /// Whether α fine-tuning replaced the serial value for this bucket.
    pub tuned: bool,
}

/// The model's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted rates `[success, sdc, failure]` for the target scale.
    pub rates: [f64; 3],
    /// Whether α fine-tuning was active.
    pub used_alpha: bool,
    /// Measured serial-vs-small divergence that drove the α decision.
    pub divergence: f64,
    /// Per-bucket breakdown of the common-computation term.
    pub per_bucket: Vec<BucketTerm>,
    /// The common-computation rates before the Eq. 1 mixture.
    pub common_rates: [f64; 3],
}

impl Prediction {
    /// Predicted success rate (the headline number of Figures 5–7).
    pub fn success(&self) -> f64 {
        self.rates[OutcomeKind::Success.index()]
    }
    /// Predicted SDC rate.
    pub fn sdc(&self) -> f64 {
        self.rates[OutcomeKind::Sdc.index()]
    }
    /// Predicted failure rate.
    pub fn failure(&self) -> f64 {
        self.rates[OutcomeKind::Failure.index()]
    }
}

/// A resilience predictor: anything that can produce the outcome-rate
/// distribution of a deployment.
///
/// [`PaperEq8`] is the paper's closed-form model; the learned models in
/// [`crate::learn`] implement the same trait from per-trial features. The
/// registry ([`PredictorKind`]) enumerates the available implementations
/// so front ends can select one by name.
pub trait Predictor {
    /// Stable registry name (`eq8`, `logistic`, `stumps`).
    fn name(&self) -> &'static str;
    /// Produce the predicted outcome-rate distribution.
    fn predict(&self) -> Prediction;
}

/// The predictor registry: every [`Predictor`] implementation, by stable
/// CLI name. `resilim model --predictor <name>` and the check suite's
/// `predictor-divergence` oracle select implementations through this
/// enum, so adding a predictor means adding a variant here (and the
/// compiler then points at every front end that must learn about it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// The paper's closed-form sparse model ([`PaperEq8`]).
    Eq8,
    /// Multinomial logistic regression over per-trial features
    /// ([`crate::learn::LogisticModel`]).
    Logistic,
    /// Gradient-boosted decision stumps over per-trial features
    /// ([`crate::learn::StumpsModel`]).
    Stumps,
}

impl PredictorKind {
    /// Every registered predictor, in presentation order.
    pub const ALL: [PredictorKind; 3] = [
        PredictorKind::Eq8,
        PredictorKind::Logistic,
        PredictorKind::Stumps,
    ];

    /// Stable CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Eq8 => "eq8",
            PredictorKind::Logistic => "logistic",
            PredictorKind::Stumps => "stumps",
        }
    }

    /// Parse the CLI spelling.
    pub fn parse(name: &str) -> Result<PredictorKind, String> {
        PredictorKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = PredictorKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown predictor '{name}' ({})", names.join("|"))
            })
    }
}

/// The paper's closed-form predictor (Eq. 1 + Eq. 8): validates inputs
/// once, predicts any number of times.
#[derive(Debug, Clone)]
pub struct PaperEq8 {
    inputs: ModelInputs,
}

impl PaperEq8 {
    /// Wrap validated inputs.
    ///
    /// # Panics
    /// If `s ∤ p`, a serial sample case is missing, the small profile has
    /// the wrong scale, or `unique_share > 0` without `fi_unique`.
    pub fn new(inputs: ModelInputs) -> PaperEq8 {
        assert!(
            inputs.s >= 1 && inputs.p.is_multiple_of(inputs.s),
            "need s | p"
        );
        assert_eq!(
            inputs.small_prop.p, inputs.s,
            "small-scale propagation profile must be at scale s"
        );
        for &x in &sample_cases(inputs.p, inputs.s, inputs.strategy) {
            assert!(
                inputs.serial.contains_key(&x),
                "missing serial sample case FI_ser_{x}"
            );
        }
        assert!(
            inputs.unique_share == 0.0 || inputs.fi_unique.is_some(),
            "unique_share > 0 requires fi_unique"
        );
        assert!(
            (0.0..=1.0).contains(&inputs.unique_share),
            "unique_share must be a probability"
        );
        PaperEq8 { inputs }
    }

    /// The inputs.
    pub fn inputs(&self) -> &ModelInputs {
        &self.inputs
    }

    /// Serial-vs-small-scale divergence: the maximum relative difference,
    /// over the contamination counts `x ≤ S` where both a small-scale
    /// conditional result and an exact serial measurement at `x` exist
    /// (`x = 1` always qualifies), across **all three outcome classes**
    /// (a "fault injection result" in the paper is the full outcome
    /// distribution, not just the success rate).
    ///
    /// Each class's relative difference uses a 5-percentage-point floor in
    /// the denominator so that sampling noise on near-zero rates does not
    /// spuriously trigger fine-tuning.
    pub fn divergence(&self) -> f64 {
        let mut worst = 0.0f64;
        for x in 1..=self.inputs.s {
            let (Some(Some(small)), Some(serial)) = (
                self.inputs.small_by_contam.get(x - 1),
                self.inputs.serial.get(&x),
            ) else {
                continue;
            };
            if small.total() == 0 || serial.total() == 0 {
                continue;
            }
            for (sp, sr) in small.rates().into_iter().zip(serial.rates()) {
                let scale = sp.max(sr).max(0.05);
                worst = worst.max((sp - sr).abs() / scale);
            }
        }
        worst
    }

    /// Run the model (Eq. 1 + Eq. 8).
    pub fn predict(&self) -> Prediction {
        let inp = &self.inputs;
        let cases = sample_cases(inp.p, inp.s, inp.strategy);
        let divergence = self.divergence();
        let used_alpha = divergence > inp.alpha_threshold;

        let weights = inp.small_prop.r_vec(); // r'_j, j = 1..=s
        let mut common = [0.0f64; 3];
        let mut per_bucket = Vec::with_capacity(inp.s);
        for (j, (&x, &w)) in cases.iter().zip(weights.iter()).enumerate() {
            // Fine-tuned bucket value: FI'_ser(x_j) = FI_small_par(j+1)
            // when tuning is active and the class was observed.
            let (rates, tuned) = if used_alpha {
                match inp.small_by_contam.get(j).and_then(|o| o.as_ref()) {
                    Some(small) if small.total() > 0 => (small.rates(), true),
                    _ => (inp.serial[&x].rates(), false),
                }
            } else {
                (inp.serial[&x].rates(), false)
            };
            for k in 0..3 {
                common[k] += w * rates[k];
            }
            per_bucket.push(BucketTerm {
                bucket: j + 1,
                sample_x: x,
                weight: w,
                rates,
                tuned,
            });
        }

        // Eq. 1 mixture with the parallel-unique term.
        let mut rates = common;
        if inp.unique_share > 0.0 {
            let unique = inp
                .fi_unique
                .as_ref()
                .expect("validated at construction")
                .rates();
            for k in 0..3 {
                rates[k] = (1.0 - inp.unique_share) * common[k] + inp.unique_share * unique[k];
            }
        }

        Prediction {
            rates,
            used_alpha,
            divergence,
            per_bucket,
            common_rates: common,
        }
    }
}

impl Predictor for PaperEq8 {
    fn name(&self) -> &'static str {
        PredictorKind::Eq8.name()
    }

    fn predict(&self) -> Prediction {
        PaperEq8::predict(self)
    }
}

/// A [`Prediction`] carrying only an outcome-rate distribution — how the
/// learned predictors (which have no bucket structure or α machinery)
/// report through the shared [`Prediction`] type.
pub fn flat_prediction(rates: [f64; 3]) -> Prediction {
    Prediction {
        rates,
        used_alpha: false,
        divergence: 0.0,
        per_bucket: Vec::new(),
        common_rates: rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_inject::TestOutcome;

    fn fi(success: u64, sdc: u64, failure: u64) -> FiResult {
        let mut f = FiResult::new();
        for _ in 0..success {
            f.record(&TestOutcome::success(false, 1, 1));
        }
        for _ in 0..sdc {
            f.record(&TestOutcome::sdc(1, 1));
        }
        for _ in 0..failure {
            f.record(&TestOutcome::failure(
                resilim_inject::FailureKind::Crash,
                1,
                1,
            ));
        }
        f
    }

    fn base_inputs() -> ModelInputs {
        // Small scale S = 4, target p = 64.
        let mut serial = BTreeMap::new();
        serial.insert(1, fi(90, 10, 0));
        serial.insert(32, fi(60, 40, 0));
        serial.insert(48, fi(50, 50, 0));
        serial.insert(64, fi(40, 60, 0));
        let mut small_prop = PropagationProfile::new(4);
        small_prop.counts = vec![70, 0, 0, 30]; // r'_1 = .7, r'_4 = .3
        ModelInputs {
            p: 64,
            s: 4,
            strategy: SamplePoints::BucketUpper,
            serial,
            small_prop,
            small_by_contam: vec![Some(fi(88, 12, 0)), None, None, Some(fi(42, 58, 0))],
            unique_share: 0.0,
            fi_unique: None,
            alpha_threshold: 0.20,
        }
    }

    #[test]
    fn eq8_weighted_sum() {
        crate::verifies!(EQ4, EQ8);
        let pred = PaperEq8::new(base_inputs()).predict();
        // No tuning (divergence |0.88-0.90|/0.88 ≈ 2 % < 20 %):
        // success = 0.7·0.9 + 0·0.6 + 0·0.5 + 0.3·0.4 = 0.75.
        assert!(!pred.used_alpha);
        assert!((pred.success() - 0.75).abs() < 1e-12, "{}", pred.success());
        assert!((pred.sdc() - 0.25).abs() < 1e-12);
        assert_eq!(pred.per_bucket.len(), 4);
        assert_eq!(pred.per_bucket[1].sample_x, 32);
    }

    #[test]
    fn rates_sum_to_one_when_inputs_do() {
        crate::verifies!(EQ2);
        let pred = PaperEq8::new(base_inputs()).predict();
        let sum: f64 = pred.rates.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_tuning_activates_on_divergence() {
        crate::verifies!(EQ6, O4);
        let mut inputs = base_inputs();
        // Serial says 90 % success at x = 1 but the small scale says 50 %.
        inputs.small_by_contam[0] = Some(fi(50, 50, 0));
        let predictor = PaperEq8::new(inputs);
        assert!(predictor.divergence() > 0.20);
        let pred = predictor.predict();
        assert!(pred.used_alpha);
        // Tuned buckets use small-scale values: 0.7·0.5 + 0.3·0.42 = 0.476.
        assert!((pred.success() - 0.476).abs() < 1e-12, "{}", pred.success());
        assert!(pred.per_bucket[0].tuned);
        // Bucket 2 had no observed class -> serial fallback, not tuned.
        assert!(!pred.per_bucket[1].tuned);
    }

    #[test]
    fn unique_term_mixes_eq1() {
        crate::verifies!(EQ1);
        let mut inputs = base_inputs();
        inputs.unique_share = 0.10;
        inputs.fi_unique = Some(fi(20, 80, 0));
        let pred = PaperEq8::new(inputs).predict();
        // common success = 0.75; mixed = 0.9·0.75 + 0.1·0.2 = 0.695.
        assert!((pred.success() - 0.695).abs() < 1e-12, "{}", pred.success());
        assert!((pred.common_rates[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "missing serial sample case")]
    fn missing_sample_case_rejected() {
        let mut inputs = base_inputs();
        inputs.serial.remove(&48);
        PaperEq8::new(inputs);
    }

    #[test]
    #[should_panic(expected = "requires fi_unique")]
    fn unique_share_without_fi_unique_rejected() {
        let mut inputs = base_inputs();
        inputs.unique_share = 0.1;
        PaperEq8::new(inputs);
    }

    #[test]
    fn s_equals_p_degenerates_to_direct_measurement() {
        crate::verifies!(EQ8);
        // When S = p, the bucket map is identity and the prediction with
        // α tuning equals the small-scale conditional mixture.
        let mut serial = BTreeMap::new();
        for x in 1..=4 {
            serial.insert(x, fi(80, 20, 0));
        }
        let mut small_prop = PropagationProfile::new(4);
        small_prop.counts = vec![50, 20, 20, 10];
        let inputs = ModelInputs {
            p: 4,
            s: 4,
            strategy: SamplePoints::BucketUpper,
            serial,
            small_prop,
            small_by_contam: vec![None; 4],
            unique_share: 0.0,
            fi_unique: None,
            alpha_threshold: 0.20,
        };
        let pred = PaperEq8::new(inputs).predict();
        assert!((pred.success() - 0.8).abs() < 1e-12);
    }

    /// Golden snapshot of the pre-refactor `Predictor` output: routing
    /// `PaperEq8` through the new trait must stay *bitwise* identical.
    /// The expected values are the exact IEEE-754 bit patterns the
    /// concrete pre-trait implementation produced on `base_inputs()`
    /// (with and without α tuning and the Eq. 1 unique term).
    #[test]
    fn paper_eq8_via_trait_is_bitwise_identical_to_snapshot() {
        crate::verifies!(EQ8, INV_PREDICT);
        let snapshot = |inputs: ModelInputs| -> [u64; 3] {
            let p: &dyn Predictor = &PaperEq8::new(inputs);
            let pred = p.predict();
            [
                pred.rates[0].to_bits(),
                pred.rates[1].to_bits(),
                pred.rates[2].to_bits(),
            ]
        };
        // Plain Eq. 8: success = 0.7·0.9 + 0.3·0.4 = 0.75 exactly as the
        // f64 sum evaluates it.
        assert_eq!(
            snapshot(base_inputs()),
            [0.75f64.to_bits(), 0.25f64.to_bits(), 0.0f64.to_bits()]
        );
        // α-tuned: 0.7·0.5 + 0.3·0.42 — committed bit patterns.
        let mut tuned = base_inputs();
        tuned.small_by_contam[0] = Some(fi(50, 50, 0));
        assert_eq!(
            snapshot(tuned),
            [0x3FDE76C8B4395810, 0x3FE0C49BA5E353F8, 0],
            "α-tuned rates drifted from the pre-refactor snapshot"
        );
        // Eq. 1 mixture: 0.9·0.75 + 0.1·0.2 — committed bit patterns.
        let mut mixed = base_inputs();
        mixed.unique_share = 0.10;
        mixed.fi_unique = Some(fi(20, 80, 0));
        assert_eq!(
            snapshot(mixed),
            [0x3FE63D70A3D70A3E, 0x3FD3851EB851EB86, 0],
            "Eq. 1-mixed rates drifted from the pre-refactor snapshot"
        );
    }

    #[test]
    fn registry_names_round_trip() {
        for kind in PredictorKind::ALL {
            assert_eq!(PredictorKind::parse(kind.name()), Ok(kind));
        }
        assert!(PredictorKind::parse("crystal-ball").is_err());
        let via_trait: &dyn Predictor = &PaperEq8::new(base_inputs());
        assert_eq!(via_trait.name(), "eq8");
    }

    #[test]
    fn flat_prediction_carries_rates_only() {
        let pred = flat_prediction([0.5, 0.3, 0.2]);
        assert_eq!(pred.rates, [0.5, 0.3, 0.2]);
        assert_eq!(pred.common_rates, [0.5, 0.3, 0.2]);
        assert!(!pred.used_alpha);
        assert!(pred.per_bucket.is_empty());
    }
}
