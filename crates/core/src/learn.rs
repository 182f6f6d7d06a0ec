//! Learned resilience predictors: no-heavy-deps in-repo learners over
//! per-trial [`TrialFeatures`].
//!
//! Two learners that train on a feature store instead of evaluating the
//! paper's closed form. A fitted model is a function from one trial's
//! features to its `[success, sdc, failure]` probabilities
//! ([`fit_predictor`] returns it as a closure); a campaign-level
//! prediction is that function's mean over the trials ([`mean_rates`]):
//!
//! * [`LogisticModel`] — multinomial (3-class softmax) logistic
//!   regression fit by full-batch gradient descent on standardized
//!   features;
//! * [`StumpsModel`] — one-vs-rest gradient-boosted decision stumps
//!   (logistic loss, Newton leaf values).
//!
//! Both are deliberately dependency-free and **deterministic**: no
//! random initialization, fixed iteration counts, and fixed feature/
//! threshold scan order, so the same feature store always yields the
//! same model byte for byte — the property the CI predictor smoke job
//! and the `predictor-divergence` oracle rely on.

use crate::features::{TrialFeatures, FEATURE_DIM};
use crate::model::PredictorKind;

/// Gradient-descent iterations for [`LogisticModel::fit`].
const LOGISTIC_ITERS: usize = 400;
/// Gradient-descent learning rate (standardized features keep this safe).
const LOGISTIC_LR: f64 = 0.5;
/// Boosting rounds per class for [`StumpsModel::fit`].
const STUMP_ROUNDS: usize = 30;
/// Boosting shrinkage.
const STUMP_LR: f64 = 0.3;
/// Logit clamp: keeps sigmoids away from exact 0/1 (and the Newton leaf
/// denominator away from 0) on separable data.
const LOGIT_CLAMP: f64 = 8.0;

/// Empirical outcome rates `[success, sdc, failure]` of a feature set.
pub fn empirical_rates(data: &[TrialFeatures]) -> [f64; 3] {
    let mut counts = [0usize; 3];
    for f in data {
        counts[f.outcome().index()] += 1;
    }
    let total = data.len().max(1) as f64;
    counts.map(|c| c as f64 / total)
}

/// Mean predicted `[success, sdc, failure]` probabilities over a set of
/// trials (zeros for an empty set).
pub fn mean_rates<'a>(
    records: impl IntoIterator<Item = &'a TrialFeatures>,
    predict: impl Fn(&TrialFeatures) -> [f64; 3],
) -> [f64; 3] {
    let mut sum = [0.0f64; 3];
    let mut n = 0usize;
    for f in records {
        for (s, p) in sum.iter_mut().zip(predict(f)) {
            *s += p;
        }
        n += 1;
    }
    sum.map(|s| s / n.max(1) as f64)
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z.clamp(-LOGIT_CLAMP, LOGIT_CLAMP)).exp())
}

/// Per-feature standardization parameters shared by both learners: the
/// learned weights live in standardized space, so a model carries its
/// training means/stds and applies them at prediction time.
#[derive(Debug, Clone)]
struct Standardizer {
    means: [f64; FEATURE_DIM],
    stds: [f64; FEATURE_DIM],
}

impl Standardizer {
    fn fit(rows: &[[f64; FEATURE_DIM]]) -> Standardizer {
        let n = rows.len().max(1) as f64;
        let mut means = [0.0; FEATURE_DIM];
        for row in rows {
            for (m, x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = [0.0; FEATURE_DIM];
        for row in rows {
            for ((s, m), x) in stds.iter_mut().zip(&means).zip(row) {
                *s += (x - m) * (x - m);
            }
        }
        for s in &mut stds {
            // Constant features standardize to 0 (std 1 avoids 0/0).
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Standardizer { means, stds }
    }

    fn apply(&self, row: &[f64; FEATURE_DIM]) -> [f64; FEATURE_DIM] {
        let mut out = *row;
        for ((x, m), s) in out.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
        out
    }
}

/// Multinomial logistic regression over [`TrialFeatures`].
#[derive(Debug, Clone)]
pub struct LogisticModel {
    standardizer: Standardizer,
    /// Per-class weight vector, bias last.
    weights: [[f64; FEATURE_DIM + 1]; 3],
}

impl LogisticModel {
    /// Fit by full-batch gradient descent (deterministic: zero init,
    /// fixed iteration count and order).
    pub fn fit(data: &[TrialFeatures]) -> Result<LogisticModel, String> {
        if data.len() < 2 {
            return Err(format!(
                "logistic predictor needs at least 2 feature records, got {}",
                data.len()
            ));
        }
        let rows: Vec<[f64; FEATURE_DIM]> = data.iter().map(|f| f.vector()).collect();
        let standardizer = Standardizer::fit(&rows);
        let x: Vec<[f64; FEATURE_DIM]> = rows.iter().map(|r| standardizer.apply(r)).collect();
        let y: Vec<usize> = data.iter().map(|f| f.outcome().index()).collect();
        let n = x.len() as f64;

        let mut weights = [[0.0f64; FEATURE_DIM + 1]; 3];
        for _ in 0..LOGISTIC_ITERS {
            let mut grad = [[0.0f64; FEATURE_DIM + 1]; 3];
            for (xi, &yi) in x.iter().zip(&y) {
                let p = softmax_probs(&weights, xi);
                for (c, g) in grad.iter_mut().enumerate() {
                    let err = p[c] - if yi == c { 1.0 } else { 0.0 };
                    for (gj, xj) in g.iter_mut().zip(xi) {
                        *gj += err * xj;
                    }
                    g[FEATURE_DIM] += err;
                }
            }
            for (w, g) in weights.iter_mut().zip(&grad) {
                for (wj, gj) in w.iter_mut().zip(g) {
                    *wj -= LOGISTIC_LR * gj / n;
                }
            }
        }
        Ok(LogisticModel {
            standardizer,
            weights,
        })
    }

    /// Predicted class probabilities for one trial.
    pub fn predict_one(&self, f: &TrialFeatures) -> [f64; 3] {
        softmax_probs(&self.weights, &self.standardizer.apply(&f.vector()))
    }
}

fn softmax_probs(weights: &[[f64; FEATURE_DIM + 1]; 3], x: &[f64; FEATURE_DIM]) -> [f64; 3] {
    let mut z = [0.0f64; 3];
    for (zc, w) in z.iter_mut().zip(weights) {
        *zc = w[FEATURE_DIM]
            + w[..FEATURE_DIM]
                .iter()
                .zip(x)
                .map(|(wj, xj)| wj * xj)
                .sum::<f64>();
    }
    let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut e = z.map(|zc| (zc - max).exp());
    let sum: f64 = e.iter().sum();
    for ec in &mut e {
        *ec /= sum;
    }
    e
}

/// One decision stump of a boosted ensemble: `x[feature] <= threshold`
/// adds `left`, else `right`, to the class logit.
#[derive(Debug, Clone, Copy)]
struct Stump {
    feature: usize,
    threshold: f64,
    left: f64,
    right: f64,
}

/// One-vs-rest gradient-boosted decision stumps over [`TrialFeatures`].
#[derive(Debug, Clone)]
pub struct StumpsModel {
    standardizer: Standardizer,
    /// Per-class prior logit.
    base: [f64; 3],
    /// Per-class boosted ensemble.
    stumps: [Vec<Stump>; 3],
}

impl StumpsModel {
    /// Fit per-class boosted stumps with logistic loss (deterministic:
    /// fixed rounds, fixed feature/threshold scan order, first-best tie
    /// break).
    pub fn fit(data: &[TrialFeatures]) -> Result<StumpsModel, String> {
        if data.len() < 2 {
            return Err(format!(
                "stumps predictor needs at least 2 feature records, got {}",
                data.len()
            ));
        }
        let rows: Vec<[f64; FEATURE_DIM]> = data.iter().map(|f| f.vector()).collect();
        let standardizer = Standardizer::fit(&rows);
        let x: Vec<[f64; FEATURE_DIM]> = rows.iter().map(|r| standardizer.apply(r)).collect();
        let n = x.len();
        let rates = empirical_rates(data);

        let mut base = [0.0f64; 3];
        let mut stumps: [Vec<Stump>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for c in 0..3 {
            let y: Vec<f64> = data
                .iter()
                .map(|f| if f.outcome().index() == c { 1.0 } else { 0.0 })
                .collect();
            // Prior log-odds of the class, clamped on pure data.
            let p0 = rates[c].clamp(1e-6, 1.0 - 1e-6);
            base[c] = (p0 / (1.0 - p0)).ln().clamp(-LOGIT_CLAMP, LOGIT_CLAMP);
            let mut logit: Vec<f64> = vec![base[c]; n];
            for _ in 0..STUMP_ROUNDS {
                // Pseudo-residuals and Newton weights for logistic loss.
                let p: Vec<f64> = logit.iter().map(|&z| sigmoid(z)).collect();
                let resid: Vec<f64> = y.iter().zip(&p).map(|(yi, pi)| yi - pi).collect();
                let hess: Vec<f64> = p.iter().map(|pi| (pi * (1.0 - pi)).max(1e-6)).collect();
                let Some(stump) = best_stump(&x, &resid, &hess) else {
                    break;
                };
                for (zi, xi) in logit.iter_mut().zip(&x) {
                    *zi += stump_value(&stump, xi);
                    *zi = zi.clamp(-LOGIT_CLAMP, LOGIT_CLAMP);
                }
                stumps[c].push(stump);
            }
        }
        Ok(StumpsModel {
            standardizer,
            base,
            stumps,
        })
    }

    /// Predicted class probabilities for one trial (per-class sigmoids,
    /// normalized across the three classes).
    pub fn predict_one(&self, f: &TrialFeatures) -> [f64; 3] {
        let x = self.standardizer.apply(&f.vector());
        let mut p = [0.0f64; 3];
        for (c, pc) in p.iter_mut().enumerate() {
            let mut z = self.base[c];
            for s in &self.stumps[c] {
                z += stump_value(s, &x);
            }
            *pc = sigmoid(z);
        }
        let sum: f64 = p.iter().sum();
        if sum > 0.0 {
            for pc in &mut p {
                *pc /= sum;
            }
        }
        p
    }
}

fn stump_value(s: &Stump, x: &[f64; FEATURE_DIM]) -> f64 {
    if x[s.feature] <= s.threshold {
        s.left
    } else {
        s.right
    }
}

/// The least-squares-best stump for the Newton-weighted residuals:
/// scans features in index order and thresholds at midpoints of sorted
/// distinct values, keeping the first best split (deterministic tie
/// break). Leaf values are shrunk Newton steps `Σr / Σh`.
fn best_stump(x: &[[f64; FEATURE_DIM]], resid: &[f64], hess: &[f64]) -> Option<Stump> {
    let total_r: f64 = resid.iter().sum();
    let total_h: f64 = hess.iter().sum();
    let mut best: Option<(f64, Stump)> = None;
    for feature in 0..FEATURE_DIM {
        let mut order: Vec<usize> = (0..x.len()).collect();
        order.sort_by(|&a, &b| {
            x[a][feature]
                .partial_cmp(&x[b][feature])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut left_r = 0.0f64;
        let mut left_h = 0.0f64;
        for (rank, &i) in order.iter().enumerate() {
            left_r += resid[i];
            left_h += hess[i];
            let next = match order.get(rank + 1) {
                Some(&j) => x[j][feature],
                None => break,
            };
            let here = x[i][feature];
            if next <= here {
                continue; // no distinct boundary between equal values
            }
            let right_r = total_r - left_r;
            let right_h = total_h - left_h;
            // Score: weighted-least-squares gain of the two Newton leaves.
            let gain = left_r * left_r / left_h + right_r * right_r / right_h;
            if best.as_ref().is_none_or(|(g, _)| gain > *g + 1e-12) {
                best = Some((
                    gain,
                    Stump {
                        feature,
                        threshold: (here + next) / 2.0,
                        left: STUMP_LR * left_r / left_h,
                        right: STUMP_LR * right_r / right_h,
                    },
                ));
            }
        }
    }
    best.map(|(_, s)| s)
}

/// Train the learned predictor `kind` selects on a feature set, as a
/// function from one trial's features to its `[success, sdc, failure]`
/// probabilities. Errors on [`PredictorKind::Eq8`] (which is built from
/// [`ModelInputs`](crate::ModelInputs), not features) and on degenerate
/// feature sets.
#[allow(clippy::type_complexity)]
pub fn fit_predictor(
    kind: PredictorKind,
    data: &[TrialFeatures],
) -> Result<Box<dyn Fn(&TrialFeatures) -> [f64; 3]>, String> {
    match kind {
        PredictorKind::Eq8 => Err("eq8 is built from model inputs, not features".into()),
        PredictorKind::Logistic => {
            let model = LogisticModel::fit(data)?;
            Ok(Box::new(move |f: &TrialFeatures| model.predict_one(f)))
        }
        PredictorKind::Stumps => {
            let model = StumpsModel::fit(data)?;
            Ok(Box::new(move |f: &TrialFeatures| model.predict_one(f)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_inject::OutcomeKind;

    /// A synthetic, linearly separable-ish feature set: quiet trials
    /// succeed, widely spread trials fail, the rest SDC.
    fn dataset() -> Vec<TrialFeatures> {
        let mut data = Vec::new();
        for i in 0..30u32 {
            let spread = i % 3;
            let mut f = TrialFeatures::quiet(
                match spread {
                    0 => OutcomeKind::Success,
                    1 => OutcomeKind::Sdc,
                    _ => OutcomeKind::Failure,
                },
                4,
                1000 + i as u64,
                [0.4, 0.2, 0.3, 0.05, 0.05],
            );
            f.contaminated_ranks = spread + 1;
            f.first_contam_op = (10 * (i + 1)) as i64;
            f.spread_rate = spread as f64 * 0.01;
            f.taint_crossings = (spread * 2) as u64;
            data.push(f);
        }
        data
    }

    #[test]
    fn logistic_learns_the_class_rates() {
        crate::verifies!(INV_PREDICT);
        let data = dataset();
        let model = LogisticModel::fit(&data).unwrap();
        let rates = empirical_rates(&data);
        let pred = mean_rates(&data, |f| model.predict_one(f));
        for (p, r) in pred.iter().zip(&rates) {
            assert!(
                (p - r).abs() < 0.05,
                "predicted {pred:?} vs empirical {rates:?}"
            );
        }
        // A separable example is classified correctly.
        let p = model.predict_one(&data[2]);
        assert_eq!(data[2].outcome().index(), 2);
        assert!(p[2] > p[0] && p[2] > p[1], "{p:?}");
    }

    #[test]
    fn stumps_learn_the_class_rates() {
        crate::verifies!(INV_PREDICT);
        let data = dataset();
        let model = StumpsModel::fit(&data).unwrap();
        let rates = empirical_rates(&data);
        let pred = mean_rates(&data, |f| model.predict_one(f));
        for (p, r) in pred.iter().zip(&rates) {
            assert!(
                (p - r).abs() < 0.10,
                "predicted {pred:?} vs empirical {rates:?}"
            );
        }
        let p = model.predict_one(&data[0]);
        assert!(p[0] > p[1] && p[0] > p[2], "{p:?}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = dataset();
        for kind in [PredictorKind::Logistic, PredictorKind::Stumps] {
            let a = mean_rates(&data, fit_predictor(kind, &data).unwrap());
            let b = mean_rates(&data, fit_predictor(kind, &data).unwrap());
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(LogisticModel::fit(&[]).is_err());
        assert!(StumpsModel::fit(&dataset()[..1]).is_err());
        assert!(fit_predictor(PredictorKind::Eq8, &dataset()).is_err());
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let data: Vec<TrialFeatures> = (0..10)
            .map(|i| {
                TrialFeatures::quiet(OutcomeKind::Success, 2, 100 + i, [1.0, 0.0, 0.0, 0.0, 0.0])
            })
            .collect();
        for kind in [PredictorKind::Logistic, PredictorKind::Stumps] {
            let predict = fit_predictor(kind, &data).unwrap();
            assert!(mean_rates(&data, predict)[0] > 0.9, "{kind:?}");
        }
    }
}
