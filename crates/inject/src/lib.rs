#![warn(missing_docs)]
//! # resilim-inject
//!
//! The fault-injection substrate of the `resilim` workspace: a
//! tracked-scalar replacement for the binary-level F-SEFI injector used by
//! the paper *Modeling Application Resilience in Large-scale Parallel
//! Execution* (ICPP 2018).
//!
//! ## How it works
//!
//! Applications do their floating-point arithmetic on [`Tf64`] instead of
//! `f64`. Every injectable operation (add, sub, mul by default) routes
//! through a per-thread [`RankCtx`] hook that
//!
//! 1. **counts** the dynamic operation index, per [`Region`] (common vs
//!    parallel-unique computation, Observation 1/2 of the paper),
//! 2. **injects** a bit flip into a chosen operand when the dynamic index
//!    matches a [`Target`] of the installed [`InjectionPlan`], and
//! 3. **tracks contamination** via *shadow execution*: every [`Tf64`]
//!    carries both the corrupted value and the value the fault-free
//!    execution would have produced. A value is *tainted* exactly when the
//!    two differ bitwise, so rounding absorption, multiplication by zero,
//!    and min/max selection mask errors just like they do on real hardware.
//!
//! The shadow world follows the corrupted world's control flow (comparisons
//! are decided by corrupted values), mirroring how trace-based injectors
//! such as F-SEFI observe a single — corrupted — execution.
//!
//! ## Example
//!
//! ```
//! use resilim_inject::{Tf64, RankCtx, InjectionPlan, Target, Region, Operand, ctx};
//!
//! // Build a plan that flips bit 52 of operand A of the 2nd dynamic FP op.
//! let plan = InjectionPlan::single(Target {
//!     region: Region::Common,
//!     op_index: 1,
//!     bit: 52,
//!     operand: Operand::A,
//! });
//! ctx::install(RankCtx::new(0, plan));
//!
//! let a = Tf64::new(1.0);
//! let b = Tf64::new(2.0);
//! let s = a + b;          // op 0: clean
//! let t = s * b;          // op 1: operand A (= s) gets bit 52 flipped
//! assert!(t.is_tainted());
//! assert_eq!(t.shadow(), 6.0);
//!
//! let report = ctx::take().unwrap().into_report();
//! assert_eq!(report.fired.len(), 1);
//! assert!(report.contaminated);
//! ```

pub mod ctx;
pub mod fault;
pub mod mask;
pub mod outcome;
pub mod plan;
pub mod profile;
pub mod region;
pub mod tf64;

pub use ctx::{CtxReport, FiredRecord, RankCtx};
pub use fault::FaultModelSpec;
pub use mask::OpMask;
pub use outcome::{FailureKind, OutcomeKind, TestOutcome};
pub use plan::{FaultPattern, InjectionPlan, Operand, Target};
pub use profile::{OpKind, OpProfile, RegionCounts};
pub use region::{Region, RegionGuard};
pub use tf64::Tf64;
