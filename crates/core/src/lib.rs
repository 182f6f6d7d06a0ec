#![warn(missing_docs)]
//! # resilim-core
//!
//! The modeling contribution of *Modeling Application Resilience in
//! Large-scale Parallel Execution* (ICPP 2018) as a pure-data library:
//! given fault-injection measurements from **serial** and **small-scale**
//! executions, predict the fault-injection result of a **large-scale**
//! execution without ever running it.
//!
//! The pipeline (paper §4):
//!
//! 1. Measure [`FiResult`]s for serial runs with `x` errors injected, at a
//!    sparse set of sample cases ([`sampling`], Eq. 7's bucket map).
//! 2. Measure the error-propagation profile of a small-scale run
//!    ([`PropagationProfile`]): how many ranks does one injected error
//!    contaminate? Observation 3 says its grouped shape predicts the
//!    large-scale profile (quantified with [`propagation::cosine_similarity`],
//!    Table 2).
//! 3. If the serial results diverge from the small-scale results by more
//!    than a threshold (20 %), fine-tune with α factors (§4.2).
//! 4. Combine: `FI_par = prob₁·FI_common + prob₂·FI_unique` (Eq. 1) with
//!    `FI_common = Σ r'_j · FI_ser(x_j)` (Eq. 4/8).
//!
//! Everything here operates on plain measurement data — the crate is
//! independent of the simulator and can be applied to externally collected
//! fault-injection results (see `examples/external_data.rs`).

pub mod accum;
pub mod accuracy;
pub mod claims;
pub mod features;
pub mod fi;
pub mod learn;
pub mod model;
pub mod propagation;
pub mod sampling;

pub use accum::{FiAccumulator, StopRule};
pub use accuracy::{prediction_error, rmse};
pub use claims::{Claim, ClaimKind};
pub use features::{TrialFeatures, FEATURE_DIM, FEATURE_SCHEMA_VERSION, SPREAD_WINDOWS};
pub use fi::FiResult;
pub use learn::LogisticModel;
pub use model::{ModelInputs, PaperEq8, Prediction, ALPHA_THRESHOLD};
pub use propagation::{cosine_similarity, PropagationProfile};
pub use sampling::{bucket_of, sample_cases, sample_for, SamplePoints};

// Re-export the outcome vocabulary shared with the injector.
pub use resilim_inject::{FailureKind, OutcomeKind, TestOutcome};
