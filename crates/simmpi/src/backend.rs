//! Execution backends: *what carries* a world's ranks.
//!
//! The runtime has two ways to execute a trial — as coroutines on the
//! calling thread, their stacks cached process-wide ([`PooledBackend`],
//! the fast path), or on fresh threads per trial ([`SpawnedBackend`],
//! the reference path tests use as an oracle). Both follow the one
//! schedule the fabric computes. Campaign runners used to pick between
//! them with an ad-hoc flag; [`ExecBackend`] makes the duality a first-
//! class, object-safe trait so callers can hold a `dyn ExecBackend<T>`
//! and the two paths stay interchangeable by construction.

use crate::world::{RankOutcome, World};
use resilim_inject::RankCtx;
use std::time::Duration;

use crate::comm::Comm;

/// Per-rank context factory passed to a backend (`mk_ctx(rank)`).
pub type CtxFactory<'a> = dyn Fn(usize) -> Option<RankCtx> + Send + Sync + 'a;

/// Rank body passed to a backend.
pub type RankBody<'a, T> = dyn Fn(&Comm) -> T + Send + Sync + 'a;

/// A strategy for executing one world run (one fault-injection trial).
///
/// Implementations must preserve the [`World::run_spawned`] semantics:
/// results in rank order, fabric poisoned on any rank panic, contexts
/// harvested even from panicking ranks. The returned `bool` reports
/// whether a trial watchdog tripped (always `false` for backends with
/// no deadline support).
pub trait ExecBackend<T: Send>: Send + Sync {
    /// Stable human-readable name (shows up in traces and test labels).
    fn name(&self) -> &'static str;

    /// Execute `body` on every rank of `world`.
    fn run(
        &self,
        world: &World,
        mk_ctx: &CtxFactory<'_>,
        body: &RankBody<'_, T>,
    ) -> (Vec<RankOutcome<T>>, bool);
}

/// Ranks on the process-wide [`WorldPool`](crate::WorldPool), with an
/// optional per-trial wall-clock watchdog (see
/// [`World::run_with_ctx_deadline`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PooledBackend {
    /// Trial deadline; `None` disables the watchdog.
    pub deadline: Option<Duration>,
}

impl PooledBackend {
    /// Pool-backed execution without a watchdog.
    pub fn new() -> PooledBackend {
        PooledBackend::default()
    }

    /// Pool-backed execution that trips after `deadline`.
    pub fn with_deadline(deadline: Option<Duration>) -> PooledBackend {
        PooledBackend { deadline }
    }
}

impl<T: Send> ExecBackend<T> for PooledBackend {
    fn name(&self) -> &'static str {
        "pooled"
    }

    fn run(
        &self,
        world: &World,
        mk_ctx: &CtxFactory<'_>,
        body: &RankBody<'_, T>,
    ) -> (Vec<RankOutcome<T>>, bool) {
        world.run_with_ctx_deadline(mk_ctx, body, self.deadline)
    }
}

/// Fresh OS threads per trial — the reference path. No watchdog
/// plumbing: the tripped flag is always `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnedBackend;

impl<T: Send> ExecBackend<T> for SpawnedBackend {
    fn name(&self) -> &'static str {
        "spawned"
    }

    fn run(
        &self,
        world: &World,
        mk_ctx: &CtxFactory<'_>,
        body: &RankBody<'_, T>,
    ) -> (Vec<RankOutcome<T>>, bool) {
        (world.run_spawned(mk_ctx, body), false)
    }
}

/// Boxed backends are backends: campaign runners hold
/// `Box<dyn ExecBackend<T>>` and wrappers like [`ReplicatedBackend`] can
/// compose over them without knowing the concrete inner type.
impl<T: Send, B: ExecBackend<T> + ?Sized> ExecBackend<T> for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(
        &self,
        world: &World,
        mk_ctx: &CtxFactory<'_>,
        body: &RankBody<'_, T>,
    ) -> (Vec<RankOutcome<T>>, bool) {
        (**self).run(world, mk_ctx, body)
    }
}

/// TeaMPI-style rank replication as a backend wrapper: every rank context
/// is armed with replica payload comparison ([`RankCtx::with_replication`]),
/// so the shadow world acts as the clean replica and message payloads are
/// compared between worlds at every send and receive point. Divergence
/// surfaces as the `detected` flag in the rank's context report — the
/// mitigation *detects* corruption, it never alters execution, so outcomes
/// are bitwise identical to the unreplicated run modulo that flag.
pub struct ReplicatedBackend<B> {
    inner: B,
}

impl<B> ReplicatedBackend<B> {
    /// Wrap a backend with replica payload comparison.
    pub fn new(inner: B) -> ReplicatedBackend<B> {
        ReplicatedBackend { inner }
    }
}

impl<T: Send, B: ExecBackend<T>> ExecBackend<T> for ReplicatedBackend<B> {
    fn name(&self) -> &'static str {
        "replicated"
    }

    fn run(
        &self,
        world: &World,
        mk_ctx: &CtxFactory<'_>,
        body: &RankBody<'_, T>,
    ) -> (Vec<RankOutcome<T>>, bool) {
        let replicated = move |rank: usize| mk_ctx(rank).map(|c| c.with_replication(true));
        self.inner.run(world, &replicated, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;
    use resilim_inject::Tf64;

    fn sum_under(backend: &dyn ExecBackend<f64>) -> Vec<f64> {
        let world = World::new(4);
        let (outcomes, tripped) = backend.run(&world, &|_| None, &|comm| {
            let mine = [Tf64::new((comm.rank() + 1) as f64)];
            comm.allreduce(ReduceOp::Sum, &mine)[0].value()
        });
        assert!(!tripped);
        outcomes
            .into_iter()
            .map(|o| *o.result.as_ref().unwrap())
            .collect()
    }

    #[test]
    fn backends_agree_through_the_trait_object() {
        let pooled = sum_under(&PooledBackend::new());
        let spawned = sum_under(&SpawnedBackend);
        assert_eq!(pooled, vec![10.0; 4]);
        assert_eq!(pooled, spawned);
        assert_eq!(ExecBackend::<f64>::name(&PooledBackend::new()), "pooled");
        assert_eq!(ExecBackend::<f64>::name(&SpawnedBackend), "spawned");
    }

    #[test]
    fn boxed_backend_delegates() {
        let boxed: Box<dyn ExecBackend<f64>> = Box::new(PooledBackend::new());
        assert_eq!(boxed.name(), "pooled");
        assert_eq!(sum_under(&boxed), vec![10.0; 4]);
    }

    #[test]
    fn replicated_backend_detects_divergent_payloads() {
        use resilim_inject::{InjectionPlan, Operand, Region, Target};
        let world = World::new(2);
        let mk_ctx = |rank: usize| {
            let plan = if rank == 0 {
                InjectionPlan::single(Target {
                    region: Region::Common,
                    op_index: 0,
                    bit: 55,
                    operand: Operand::A,
                })
            } else {
                InjectionPlan::none()
            };
            Some(resilim_inject::RankCtx::new(rank, plan))
        };
        let body = |comm: &Comm| {
            let mine = Tf64::new(1.0) + Tf64::new(2.0); // corrupted on rank 0
            comm.allreduce_scalar(ReduceOp::Sum, mine).value()
        };

        let backend = ReplicatedBackend::new(PooledBackend::new());
        assert_eq!(ExecBackend::<f64>::name(&backend), "replicated");
        let (outcomes, tripped) = backend.run(&world, &mk_ctx, &body);
        assert!(!tripped);
        // The corrupted payload crossed the fabric: both the sender's and
        // the receiver's replica compare points saw the divergence.
        for o in &outcomes {
            assert!(o.ctx_report.as_ref().unwrap().detected, "rank {}", o.rank);
        }

        // Replication only observes: values are identical to the plain run.
        let (plain, _) = PooledBackend::new().run(&world, &mk_ctx, &body);
        for (r, p) in outcomes.iter().zip(plain.iter()) {
            assert_eq!(r.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert!(!p.ctx_report.as_ref().unwrap().detected);
        }
    }
}
