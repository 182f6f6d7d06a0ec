//! Randomized mini-campaign specifications.
//!
//! A [`CaseSpec`] is the *entire* identity of one differential-check
//! case: which app kernel, at how many ranks, under which injection
//! plan, sampled at which model resolution, with which seed. Every
//! field is plain serde data, so a failing case round-trips through a
//! JSON repro record and replays bitwise (`resilim check --replay`).
//!
//! Generation is deterministic: case `i` of master seed `m` is a pure
//! function of `(m, i)` — the same draw the campaign layer uses for its
//! trials (`splitmix64`-keyed `SmallRng`), so a check run is itself a
//! reproducible campaign of campaigns.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resilim_apps::App;
use resilim_core::SamplePoints;
use resilim_harness::{CampaignSpec, ErrorSpec};
use resilim_inject::FaultModelSpec;
use serde::{Deserialize, Serialize};

/// One randomized differential-check case (a mini-campaign).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseSpec {
    /// Case index within its check run (trace correlation only).
    pub id: u64,
    /// The case's seed: campaign seed of every campaign the oracles run.
    pub seed: u64,
    /// Application name (CLI spelling, [`App::name`]).
    pub app: String,
    /// Rank count of the measured ("large-scale") campaign. Power of
    /// two, ≥ 2.
    pub procs: usize,
    /// Model sampling resolution: bucket count and small-scale rank
    /// count (`s | procs`).
    pub s: usize,
    /// Trials per campaign.
    pub tests: usize,
    /// Fault pattern of the measured campaign.
    pub errors: ErrorSpec,
    /// Serial sample-point strategy the model side uses.
    pub strategy: SamplePoints,
    /// Fault model of the measured campaign (the model-input campaigns
    /// always measure the baseline single-bit flip).
    pub fault_model: FaultModelSpec,
    /// Run the measured campaign under TeaMPI-style rank replication.
    pub replicate: bool,
}

impl CaseSpec {
    /// Deterministically generate case `index` of `master_seed`.
    pub fn generate(master_seed: u64, index: u64) -> CaseSpec {
        let mut rng = SmallRng::seed_from_u64(resilim_apps::util::splitmix64(
            master_seed ^ (index.wrapping_mul(0x9e37_79b9)),
        ));
        let app = App::ALL[rng.gen_range(0..App::ALL.len())];
        let procs = if rng.gen_bool(0.5) { 2 } else { 4 };
        let s = if procs == 4 && rng.gen_bool(0.5) {
            4
        } else {
            2
        };
        let tests = [8usize, 12, 16][rng.gen_range(0..3usize)];
        let errors = if rng.gen_bool(0.7) {
            ErrorSpec::OneParallel
        } else {
            ErrorSpec::OneParallelMultiBit(2)
        };
        let strategy = [
            SamplePoints::BucketUpper,
            SamplePoints::PaperEq8,
            SamplePoints::BucketMid,
        ][rng.gen_range(0..3usize)];
        let seed = rng.gen_range(0..u64::MAX / 2);
        // The fault-model dimensions are drawn after every legacy field,
        // so adding them did not reshuffle the cases older master seeds
        // generate. Burst and msg are only defined for `par` errors.
        let fault_model = match rng.gen_range(0..10u32) {
            0 => FaultModelSpec::Due,
            1 | 2 if errors == ErrorSpec::OneParallel => {
                FaultModelSpec::Burst([2u8, 3, 4][rng.gen_range(0..3usize)])
            }
            3 | 4 if errors == ErrorSpec::OneParallel => FaultModelSpec::Msg,
            _ => FaultModelSpec::BitFlip,
        };
        let replicate = rng.gen_bool(0.25);
        CaseSpec {
            id: index,
            seed,
            app: app.name().to_string(),
            procs,
            s,
            tests,
            errors,
            strategy,
            fault_model,
            replicate,
        }
    }

    /// The fixed smoke roster: one small case per shipped app, cycling
    /// rank counts and strategies — the fast PR gate (`check --smoke`).
    pub fn smoke_roster() -> Vec<CaseSpec> {
        App::ALL
            .iter()
            .enumerate()
            .map(|(i, app)| {
                let procs = if i % 2 == 0 { 2 } else { 4 };
                CaseSpec {
                    id: i as u64,
                    seed: 1000 + i as u64,
                    app: app.name().to_string(),
                    procs,
                    s: 2,
                    tests: 8,
                    errors: ErrorSpec::OneParallel,
                    strategy: [
                        SamplePoints::BucketUpper,
                        SamplePoints::PaperEq8,
                        SamplePoints::BucketMid,
                    ][i % 3],
                    fault_model: FaultModelSpec::default(),
                    replicate: false,
                }
            })
            .collect()
    }

    /// The app this case runs, or an error naming the unknown spelling
    /// (repro records are hand-editable; fail helpfully).
    pub fn resolve_app(&self) -> Result<App, String> {
        App::parse(&self.app).ok_or_else(|| format!("unknown app '{}' in case spec", self.app))
    }

    /// The measured ("ground truth") campaign this case checks against.
    /// Only the measured side carries the case's fault model and
    /// replication: the model-input campaigns measure the baseline
    /// process the paper's predictor is defined over.
    pub fn measured_campaign(&self) -> Result<CampaignSpec, String> {
        let app = self.resolve_app()?;
        Ok(CampaignSpec::new(
            app.default_spec(),
            self.procs,
            self.errors,
            self.tests,
            self.seed,
        )
        .with_fault_model(self.fault_model)
        .with_replication(self.replicate))
    }

    /// Structural validity: the invariants generation and shrinking must
    /// preserve (and hand-edited repro records must satisfy).
    pub fn validate(&self) -> Result<(), String> {
        self.resolve_app()?;
        if !self.procs.is_power_of_two() || self.procs < 2 {
            return Err(format!("procs = {} must be a power of two ≥ 2", self.procs));
        }
        if self.s < 2 || !self.procs.is_multiple_of(self.s) {
            return Err(format!("s = {} must divide procs = {}", self.s, self.procs));
        }
        if self.tests == 0 {
            return Err("tests must be ≥ 1".into());
        }
        if let ErrorSpec::SerialErrors(_) = self.errors {
            return Err("check cases measure parallel deployments".into());
        }
        resilim_harness::validate_fault_model(self.fault_model, self.errors, self.procs)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for i in 0..50 {
            let a = CaseSpec::generate(7, i);
            let b = CaseSpec::generate(7, i);
            assert_eq!(a, b);
            a.validate().unwrap();
        }
        // Different master seeds give different rosters.
        assert_ne!(CaseSpec::generate(7, 0), CaseSpec::generate(8, 0));
    }

    #[test]
    fn generation_covers_the_space() {
        let cases: Vec<CaseSpec> = (0..60).map(|i| CaseSpec::generate(42, i)).collect();
        let apps: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.app.as_str()).collect();
        assert!(apps.len() >= 4, "60 cases should hit most apps: {apps:?}");
        assert!(cases.iter().any(|c| c.procs == 2));
        assert!(cases.iter().any(|c| c.procs == 4));
        assert!(cases.iter().any(|c| c.s == 4));
        assert!(cases
            .iter()
            .any(|c| matches!(c.errors, ErrorSpec::OneParallelMultiBit(_))));
        // The fault-model dimensions are exercised too.
        assert!(cases.iter().any(|c| c.fault_model == FaultModelSpec::Due));
        assert!(cases
            .iter()
            .any(|c| matches!(c.fault_model, FaultModelSpec::Burst(_))));
        assert!(cases.iter().any(|c| c.fault_model == FaultModelSpec::Msg));
        assert!(cases.iter().any(|c| c.replicate));
        assert!(cases
            .iter()
            .any(|c| c.fault_model.is_default() && !c.replicate));
    }

    #[test]
    fn smoke_roster_covers_every_app() {
        let roster = CaseSpec::smoke_roster();
        assert_eq!(roster.len(), App::ALL.len());
        for (case, app) in roster.iter().zip(App::ALL) {
            assert_eq!(case.app, app.name());
            case.validate().unwrap();
        }
    }

    #[test]
    fn case_round_trips_through_json() {
        let case = CaseSpec::generate(3, 14);
        let json = serde_json::to_string(&case).unwrap();
        let back: CaseSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(case, back);
    }
}
