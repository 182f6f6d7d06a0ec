//! A multinomial logistic regression over per-trial [`TrialFeatures`].
//!
//! [`LogisticModel`] is a 3-class softmax fit by full-batch gradient
//! descent on standardized features, deterministic by construction (zero
//! initialization, fixed iteration count and order), so the same feature
//! set always yields the same model byte for byte.
//!
//! It is not a resilience predictor: its inputs are features of trials
//! that have already run, so it can only re-describe a measured campaign,
//! never forecast an unmeasured scale (that is [`PaperEq8`](crate::PaperEq8)'s
//! job). It is kept only because the benchmark's `core.learn` probe
//! (`trial_budget/src/probes.rs`) times [`LogisticModel::fit`]; it goes
//! when that probe does.

use crate::features::{TrialFeatures, FEATURE_DIM};

/// Gradient-descent iterations for [`LogisticModel::fit`].
const LOGISTIC_ITERS: usize = 400;
/// Gradient-descent learning rate (standardized features keep this safe).
const LOGISTIC_LR: f64 = 0.5;

/// Per-feature standardization parameters: the learned weights live in
/// standardized space, so a model carries its training means/stds and
/// applies them at prediction time.
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
        let data = dataset();
        let model = LogisticModel::fit(&data).unwrap();
        let n = data.len() as f64;
        let (mut rates, mut pred) = ([0.0f64; 3], [0.0f64; 3]);
        for f in &data {
            rates[f.outcome().index()] += 1.0 / n;
            for (s, p) in pred.iter_mut().zip(model.predict_one(f)) {
                *s += p / n;
            }
        }
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
        assert!(LogisticModel::fit(&data[..1]).is_err());
    }
}
