//! Fault-injection campaigns: many randomized tests of one deployment.
//!
//! A *deployment* (paper §2) fixes the application, the scale, and the
//! fault pattern; a *campaign* runs up to `tests` randomized
//! fault-injection tests of that deployment and summarizes them as a
//! [`resilim_core::FiResult`] plus a [`resilim_core::PropagationProfile`].
//!
//! Every test is fully determined by `(spec, seed, test_index)`: the
//! random draws (dynamic op index, bit position, operand) happen up front
//! into an [`resilim_inject::InjectionPlan`], so campaigns are
//! reproducible and individual tests can be replayed.
//!
//! The module is a pipeline of layers:
//!
//! * [`spec`] — the vocabulary: [`CampaignSpec`] (what to run, including
//!   the optional adaptive [`resilim_core::StopRule`]) and
//!   [`CampaignResult`].
//! * [`exec`](self) — one trial: plan → run the world on its pooled or
//!   spawned carrier → classify, wall-clock kills told apart from the
//!   trial's own failures (private).
//! * [`stream`] — completed trials flow as [`TrialRecord`] events
//!   through a deterministic reorder buffer into composable
//!   [`TrialConsumer`]s.
//! * [`aggregate`] — the built-in consumers: online aggregation with
//!   adaptive stopping and obs trial events (persistence is
//!   `crate::recordlog::LogConsumer`).
//! * [`run`] — [`CampaignRun`]: one campaign in flight — executor,
//!   claim cursor, pipeline and sinks, result assembly. The state
//!   machine every scheduler drives.
//! * [`runner`] — [`CampaignRunner`]: configuration, caching, and the
//!   one-shot scheduling policy over a [`CampaignRun`]; [`work_loop`],
//!   the worker body it shares with `resilim serve`.

pub mod aggregate;
mod exec;
pub mod run;
pub mod runner;
pub mod spec;
pub mod stream;

pub use aggregate::{aggregate_outcomes, CampaignAccumulator};
pub use run::CampaignRun;
pub use runner::{work_loop, CampaignRunner, TrialExecutor};
pub use spec::{
    validate_fault_model, CampaignResult, CampaignSpec, ErrorSpec, DEFAULT_TAINT_THRESHOLD,
};
pub use stream::{TrialConsumer, TrialPipeline, TrialRecord};
