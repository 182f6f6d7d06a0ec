#![warn(missing_docs)]
//! # resilim-harness
//!
//! The experiment layer of the `resilim` workspace: it drives
//! fault-injection *campaigns* (many randomized tests of one deployment)
//! over the ported applications, caches fault-free *golden* runs, and
//! packages the paper's tables and figures as reproducible pipelines.
//!
//! * [`golden`] — fault-free profiling runs: per-rank dynamic-op profiles
//!   (the injection sample space), golden digests (the SDC reference), and
//!   hang-guard budgets.
//! * [`campaign`] — deployment specs and the campaign runner: seeds →
//!   injection plans → simulated runs → outcome classification →
//!   [`FiResult`](resilim_core::FiResult) +
//!   [`PropagationProfile`](resilim_core::PropagationProfile).
//! * [`experiments`] — one entry point per paper artifact (Table 1/2,
//!   Figures 1–3 and 5–8) returning typed, serializable results that the
//!   CLI renders.
//! * [`ledger`] — durable per-trial ledger (append-only JSONL): crash
//!   recovery (`--resume`), deterministic sharding (`--shard i/N` +
//!   `resilim merge`), and watchdog retry with backoff.
//! * [`features`] — durable per-trial feature store, keyed and sharded
//!   exactly like the ledger.
//! * [`recordlog`] — the one append-only JSONL record log both of them
//!   instantiate, and the buffered consumer that feeds it.
//! * [`report`] — plain-text table rendering.
//! * [`store`] — JSON persistence of campaign summaries ("measure once,
//!   model later").
//! * [`plot`] — dependency-free SVG rendering of the figures.

pub mod campaign;
pub mod experiments;
pub mod features;
pub mod golden;
pub mod ledger;
pub mod plot;
pub mod recordlog;
pub mod report;
pub mod store;

pub use campaign::{
    aggregate_outcomes, validate_fault_model, CampaignAccumulator, CampaignResult, CampaignRun,
    CampaignRunner, CampaignSpec, ErrorSpec, TrialConsumer, TrialExecutor, TrialPipeline,
    TrialRecord,
};
pub use features::FeatureStore;
pub use golden::{golden_cache_file_name, GoldenRun, GoldenStore, GOLDEN_CACHE_VERSION};
pub use ledger::{Shard, TrialLedger, LEDGER_VERSION};
pub use store::{CampaignSummary, ResultStore};
