#![warn(missing_docs)]
//! # resilim-simmpi
//!
//! An in-process MPI runtime for resilience studies: the ranks of a
//! simulated job communicate through an in-memory fabric that also
//! schedules them — exactly one rank of a world runs at a time, until it
//! blocks (run to block), as a user-level coroutine on the calling
//! thread. The runtime exists so that the `resilim` workspace can execute
//! the paper's MPI workloads at 1–128 "ranks" on a single machine, with
//! three properties real MPI does not give us:
//!
//! * **Taint-carrying messages** — every message is a
//!   [`Tf64`](resilim_inject::Tf64) buffer, so an error injected in one
//!   rank observably contaminates every rank whose memory it reaches
//!   (paper §3.2, Figures 1–2).
//! * **Deterministic collectives** — reductions fold contributions in rank
//!   order, so a fault-free run is bit-reproducible and "output identical
//!   to the fault-free run" is a meaningful (bitwise) predicate.
//! * **A deterministic schedule** — which rank runs when is a function of
//!   the rank bodies alone, so even a *failed* trial (who was torn down
//!   where) repeats exactly, and a deadlock is detected the moment it
//!   forms instead of by a timer.
//!
//! A [`World`] is run one way per carrier: [`World::run_with_ctx`] puts
//! its ranks on coroutines cached in the process-wide [`WorldPool`] (the
//! fast path), [`World::run_spawned`] on fresh threads (the independent
//! reference it must match bitwise). Everything else about a run is a
//! property of the world or of the rank contexts it is handed: a wire
//! fault ([`World::with_msg_fault`]), a wall-clock watchdog
//! ([`World::with_deadline`], honoured by both carriers), TeaMPI-style
//! replica comparison
//! ([`RankCtx::with_replication`](resilim_inject::RankCtx::with_replication)).
//!
//! A rank that fails comes back as a [`RankPanic`] whose [`PanicKind`] is
//! read off the panic payload's type: the injection layer's
//! [`Trip`](resilim_inject::ctx::Trip) (hang guard, DUE kill), the
//! fabric's own cause (the deadlock rule, a dead fabric), or — any other
//! payload — an application crash. No panic text is ever classified.
//!
//! ## Example
//!
//! ```
//! use resilim_simmpi::{World, ReduceOp};
//! use resilim_inject::Tf64;
//!
//! let world = World::new(4);
//! let results = world.run(|comm| {
//!     let mine = [Tf64::new((comm.rank() + 1) as f64)];
//!     let total = comm.allreduce(ReduceOp::Sum, &mine);
//!     total[0].value()
//! });
//! for r in &results {
//!     assert_eq!(*r.result.as_ref().unwrap(), 10.0);
//! }
//! ```

mod baton;
mod carrier;
mod comm;
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod coroutine;
mod error;
mod fabric;
mod pool;
mod world;

pub use comm::{Comm, Gathered, ReduceOp};
pub use error::{PanicKind, RankPanic};
pub use fabric::MsgFault;
pub use pool::WorldPool;
pub use world::{RankOutcome, World};
