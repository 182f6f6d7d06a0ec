#![warn(missing_docs)]
//! # trial_budget
//!
//! The repo's benchmark: campaign trials per second at the scales the
//! paper trades between (1, 4/8 and 64 ranks), resumed from a store,
//! and served by the daemon — plus an outside-in time budget that
//! attributes a trial's cost to each crate by timing calls into its
//! public API. See `README.md` for how to run it and what each number
//! means; `BENCHMARK.json` at the repo root is generated from
//! [`metrics`].

pub mod drive;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
