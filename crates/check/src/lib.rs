#![warn(missing_docs)]
//! # resilim-check
//!
//! Differential & metamorphic validation of the resilience model: the
//! paper's whole claim is that a cheap serial/small-scale model predicts
//! expensive large-scale fault-injection outcomes, so this crate
//! continuously cross-validates the predictor of `resilim_core` (and
//! the campaign machinery underneath them) against measured ground truth
//! on randomized mini-campaigns.
//!
//! The pieces (DESIGN.md §8):
//!
//! * [`CaseSpec`] — one randomized mini-campaign (app, rank count,
//!   sampling resolution, injection plan), generated deterministically
//!   from a master seed so every case is replayable from its record.
//! * [`SamplingOps`] — the seam between the oracles and the sampling
//!   layer under test; [`CoreOps`] delegates to `resilim_core`,
//!   [`OffByOneBucket`] deliberately mis-buckets (the acceptance test
//!   that the engine *catches, shrinks, and replays* a model bug).
//! * [`oracles`] — the oracle library: distribution/partition
//!   invariants (and one label-consistent feature record per trial),
//!   bucket-cover, grouping conservation & refinement consistency, the
//!   fault-model laws, bitwise identity of every execution shape
//!   (workers, carriers, batching, ledger merge, daemon) with the jobs=1
//!   result, and predicted-vs-measured divergence.
//! * [`engine`] — the case loop (budgeted or counted), obs events
//!   (`check_case` / `check_shrink`) and counters, repro-record
//!   emission, and deterministic replay.
//! * [`mod@shrink`] — greedy minimization of a failing case (fewer trials →
//!   fewer ranks → smaller app → simpler plan), re-checking only the
//!   violated oracle.
//!
//! * [`trace`] — the claims-to-oracle traceability matrix: scans the
//!   workspace for `verifies!` attestations, joins them against the
//!   claims registry (`resilim_core::claims`), and renders the matrix
//!   `resilim trace-matrix` commits as `docs/TRACEABILITY.md`.
//!
//! The CLI front-end is `resilim check` (`--smoke`, `--budget`,
//! `--replay FILE`).

pub mod case;
pub mod engine;
pub mod ops;
pub mod oracles;
pub mod shrink;
pub mod trace;

pub use case::CaseSpec;
pub use engine::{replay, run_check, CheckConfig, CheckReport, ReproRecord, REPRO_VERSION};
pub use ops::{CoreOps, OffByOneBucket, SamplingOps};
pub use oracles::{check_case, run_oracle, Oracle, Violation};
pub use shrink::{shrink, ShrinkResult, MAX_SHRINK_ATTEMPTS};
pub use trace::{build_matrix, scan_attestations, ArtifactKind, Attestation, Matrix};
