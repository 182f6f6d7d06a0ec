//! One entry point per paper artifact.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — parallel-unique computation share |
//! | [`table2`] | Table 2 — propagation cosine similarity (4V64, 8V64) |
//! | [`fig_propagation`] | Figures 1–2 — propagation histograms + grouping |
//! | [`fig3`] | Figure 3 — serial multi-error vs parallel multi-contamination |
//! | [`prediction`] | Figures 5, 6, 7 — predicted vs measured at scale |
//! | [`fig8`] | Figure 8 — accuracy/cost sensitivity in the small scale |
//! | [`motivation`] | §1 — instruction-count and FI-time growth with scale |
//! | [`weak_scaling`] | extension (not in the paper): weak-scaled problems |
//!
//! Every experiment takes the shared
//! [`CampaignRunner`](crate::campaign::CampaignRunner) (so deployments
//! are cached across experiments) and an [`ExperimentConfig`].

mod fig3;
mod fig8;
mod motivation;
mod prediction;
mod propagation;
mod table1;
mod table2;
mod weak;

pub use fig3::{fig3, Fig3, Fig3App};
pub use fig8::{fig8, Fig8, Fig8Point};
pub use motivation::{motivation, Motivation, MotivationRow};
pub use prediction::{assemble_inputs, build_inputs, prediction, PredictionReport, PredictionRow};
pub use propagation::{fig_propagation, PropagationFigure};
pub use table1::{table1, Table1, Table1Row};
pub use table2::{table2, Table2, Table2Row};
pub use weak::{weak_scaling, WeakRow, WeakScaling};

use crate::campaign::{CampaignSpec, ErrorSpec};
use serde::{Deserialize, Serialize};

/// Shared experiment knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Fault-injection tests per deployment. The paper uses 4000; the
    /// default here is sized for a single-core laptop run and can be
    /// raised with `--tests` (results stabilize per the Wilson intervals
    /// reported alongside).
    pub tests: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Optional adaptive stop rule applied to every campaign the
    /// experiment runs; `tests` becomes an upper bound when set.
    pub stop: Option<resilim_core::StopRule>,
}

impl ExperimentConfig {
    /// The campaign this config implies for one deployment: the
    /// [`CampaignSpec::new`] defaults plus this config's `tests`, `seed`
    /// and `stop`. Only the workload, scale, and fault pattern vary per
    /// call site.
    pub fn campaign(
        &self,
        spec: resilim_apps::ProblemSpec,
        procs: usize,
        errors: ErrorSpec,
    ) -> CampaignSpec {
        CampaignSpec {
            stop: self.stop,
            ..CampaignSpec::new(spec, procs, errors, self.tests, self.seed)
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            tests: 200,
            seed: 2018,
            stop: None,
        }
    }
}

/// The standard large scale used by Figures 5/6/8.
pub const LARGE_SCALE: usize = 64;
/// The extended scale of Figure 7.
pub const XLARGE_SCALE: usize = 128;
