//! The world runner: runs every rank of a simulated job over one shared
//! fabric, installs injection contexts, and collects results, panics, and
//! contamination reports.
//!
//! Exactly one rank of a world runs at a time, in the order the
//! [fabric](crate::fabric) schedules (run to block). By default the
//! ranks are coroutines on the calling thread, their stacks cached in a
//! [`WorldPool`]; [`World::run_spawned`] carries the same schedule on
//! fresh OS threads — the independent reference the pooled path must
//! match bitwise (see `carrier.rs`). A world's optional wall-clock
//! deadline ([`World::with_deadline`]) is honoured on both.

use crate::carrier::{self, Carrier};
use crate::comm::Comm;
use crate::error::RankPanic;
use crate::fabric::{Fabric, MsgFault};
use crate::pool::WorldPool;
use parking_lot::{Condvar, Mutex};
use resilim_inject::{ctx, CtxReport, RankCtx};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// What one rank produced.
#[derive(Debug)]
pub struct RankOutcome<T> {
    /// Rank id.
    pub rank: usize,
    /// The rank body's return value, or its classified panic.
    pub result: Result<T, RankPanic>,
    /// The injection context report, when a context was installed.
    pub ctx_report: Option<CtxReport>,
}

/// A simulated MPI world: `size` ranks over one fabric.
#[derive(Debug, Clone)]
pub struct World {
    size: usize,
    msg_fault: Option<MsgFault>,
    deadline: Option<Duration>,
}

thread_local! {
    pub(crate) static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Install (once per process) a panic hook that silences panics of rank
/// bodies — fault-injection campaigns deliberately panic thousands of
/// times, and the default hook would flood stderr. Every other panic
/// keeps the previous behaviour.
pub(crate) fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// What a world borrows from the thread it runs on, given back on drop:
/// ranks run on the *caller's* thread (a campaign worker, a serve
/// worker, `main`), so its panic-hook flag and any injection context it
/// had installed must survive the world.
struct CallerState {
    quiet_panics: bool,
    ctx: Option<RankCtx>,
}

impl CallerState {
    fn borrow() -> CallerState {
        CallerState {
            quiet_panics: QUIET_PANICS.get(),
            ctx: ctx::take(),
        }
    }
}

impl Drop for CallerState {
    fn drop(&mut self) {
        QUIET_PANICS.set(self.quiet_panics);
        if let Some(ctx) = self.ctx.take() {
            ctx::install(ctx);
        }
    }
}

impl World {
    /// A world of `size` ranks.
    pub fn new(size: usize) -> World {
        assert!(size >= 1, "a world needs at least one rank");
        World {
            size,
            msg_fault: None,
            deadline: None,
        }
    }

    /// Arm a wire fault: every fabric this world creates corrupts the
    /// matching message (see [`MsgFault`]).
    pub fn with_msg_fault(mut self, fault: Option<MsgFault>) -> World {
        self.msg_fault = fault;
        self
    }

    /// Arm a wall-clock watchdog (`None` disarms it): every run of this
    /// world, on either carrier, has its fabric poisoned once `deadline`
    /// has passed (MPI-abort semantics), so a rank wedged in untracked
    /// code fails at its next fabric call and every blocked rank when its
    /// turn comes.
    ///
    /// Deadlock needs no deadline — the fabric detects it exactly — and
    /// ranks spinning in tracked computation are reaped by the injection
    /// hang guard's op budget. The watchdog is for what the schedule
    /// cannot see: a loop without tracked ops, a sleep, foreign I/O. Its
    /// victims end [`PanicKind::FabricDead`](crate::PanicKind) on every
    /// failed rank, which is how callers tell a wall-clock kill from the
    /// trial's own failure (a panicking rank's kind is never that).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> World {
        self.deadline = deadline;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `body` on every rank without injection contexts.
    pub fn run<T, F>(&self, body: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
    {
        self.run_with_ctx(|_| None, body)
    }

    /// Run `body` on every rank; `mk_ctx(rank)` supplies an optional
    /// injection context per rank (installed before the body, harvested
    /// after it — even when the body panics).
    ///
    /// If any rank panics the fabric is poisoned, so every other rank fails
    /// fast instead of hanging (MPI-abort semantics); ranks that block on
    /// receives nothing can ever match fail at once (deadlock ⇒ hang).
    /// Results come back in rank order.
    ///
    /// Ranks execute on the process-wide [`WorldPool`]; semantics are
    /// identical to [`World::run_spawned`], which tests use as the oracle.
    /// The whole world runs on the calling thread (a single-rank world
    /// inline, with no rank context at all).
    pub fn run_with_ctx<T, F, M>(&self, mk_ctx: M, body: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
        M: Fn(usize) -> Option<RankCtx> + Send + Sync,
    {
        self.run_pooled(WorldPool::global(), mk_ctx, body)
    }

    /// [`World::run_with_ctx`] on an explicit pool (tests use private
    /// pools to assert context reuse).
    pub fn run_pooled<T, F, M>(&self, pool: &WorldPool, mk_ctx: M, body: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
        M: Fn(usize) -> Option<RankCtx> + Send + Sync,
    {
        install_quiet_hook();
        let fabric = Fabric::new(self.size, self.msg_fault, carrier::pooled::carrier());
        let contexts = pool.dispatch(self.size);
        let rank_job = |rank| run_rank(rank, &fabric, &mk_ctx, &body);
        watched(&fabric, self.deadline, || {
            let _caller = CallerState::borrow();
            if self.size == 1 {
                vec![rank_job(0)]
            } else {
                carrier::pooled::run(contexts, &fabric, rank_job)
            }
        })
    }

    /// The reference execution path: `size` fresh scoped threads for this
    /// run only, the baton moved by `park`/`unpark`. Same schedule, no
    /// mechanism shared with the pooled carrier — the implementation the
    /// pooled path must match bitwise.
    pub fn run_spawned<T, F, M>(&self, mk_ctx: M, body: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(&Comm) -> T + Send + Sync,
        M: Fn(usize) -> Option<RankCtx> + Send + Sync,
    {
        install_quiet_hook();
        let fabric = Fabric::new(self.size, self.msg_fault, Carrier::threads());
        watched(&fabric, self.deadline, || {
            carrier::run_on_threads(&fabric, |rank| run_rank(rank, &fabric, &mk_ctx, &body))
        })
    }
}

/// Run `world` under an optional wall-clock watchdog that poisons
/// `fabric` once `deadline` has passed — with [`run_rank`]'s poison on a
/// rank panic, the only two ways a fabric dies.
fn watched<R>(fabric: &Fabric, deadline: Option<Duration>, world: impl FnOnce() -> R) -> R {
    let Some(deadline) = deadline else {
        return world();
    };
    // The watchdog borrows the fabric, so it must be a scoped thread; it
    // is signalled (not detached) so a fast trial never leaves a timer
    // thread behind.
    let finished = (Mutex::new(false), Condvar::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let wake = Instant::now() + deadline;
            let (lock, cv) = &finished;
            let mut done = lock.lock();
            while !*done {
                if cv.wait_until(&mut done, wake).timed_out() {
                    if !*done {
                        fabric.poison();
                    }
                    break;
                }
            }
        });
        let out = world();
        let (lock, cv) = &finished;
        *lock.lock() = true;
        cv.notify_all();
        out
    })
}

/// One rank's whole trial: context install, body under `catch_unwind`,
/// context harvest, fabric poison on panic, baton handed on. Shared by
/// both carriers so they cannot diverge; the panic is caught here, on
/// the rank's own stack.
fn run_rank<T, F, M>(rank: usize, fabric: &Fabric, mk_ctx: &M, body: &F) -> RankOutcome<T>
where
    F: Fn(&Comm) -> T,
    M: Fn(usize) -> Option<RankCtx>,
{
    // On a rank thread of its own this is all there is to it; on the
    // caller's thread `CallerState` puts the flag back afterwards.
    QUIET_PANICS.set(true);
    if let Some(c) = mk_ctx(rank) {
        ctx::install(c);
    }
    let comm = Comm::new(rank, fabric);
    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&comm)));
    let ctx_report = ctx::take().map(RankCtx::into_report);
    let result = result.map_err(|payload| {
        fabric.poison();
        RankPanic::from_payload(payload.as_ref())
    });
    fabric.exit(rank);
    RankOutcome {
        rank,
        result,
        ctx_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PanicKind, ReduceOp};
    use resilim_inject::{InjectionPlan, Operand, Region, Target, Tf64};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn serial_world() {
        let world = World::new(1);
        let results = world.run(|comm| {
            assert!(comm.is_serial());
            comm.allreduce_scalar(ReduceOp::Sum, Tf64::new(5.0)).value()
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].result.as_ref().unwrap(), &5.0);
    }

    #[test]
    fn results_in_rank_order() {
        let world = World::new(8);
        let results = world.run(|comm| comm.rank() * 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.rank, i);
            assert_eq!(*r.result.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn spawned_and_pooled_backends_agree() {
        // The replay oracle of `resilim check` asserts campaign-level
        // bitwise identity across the two carriers; this pins the
        // substrate half of that contract: the same body over the same
        // contexts returns identical rank results whether ranks come
        // on pooled rank contexts or on freshly spawned threads.
        let world = World::new(4);
        let mk_ctx = |rank| Some(resilim_inject::RankCtx::profiling(rank));
        let body = |comm: &Comm| {
            let local = Tf64::new(comm.rank() as f64 + 1.0);
            comm.allreduce_scalar(ReduceOp::Sum, local).value()
        };
        let pooled = world.run_with_ctx(mk_ctx, body);
        let spawned = world.run_spawned(mk_ctx, body);
        assert_eq!(pooled.len(), spawned.len());
        for (p, s) in pooled.iter().zip(spawned.iter()) {
            assert_eq!(p.rank, s.rank);
            assert_eq!(*p.result.as_ref().unwrap(), 10.0);
            assert_eq!(p.result.as_ref().unwrap(), s.result.as_ref().unwrap());
            let (pr, sr) = (
                p.ctx_report.as_ref().unwrap(),
                s.ctx_report.as_ref().unwrap(),
            );
            assert_eq!(
                pr.profile.injectable(Region::Common),
                sr.profile.injectable(Region::Common),
                "op profiles must match bitwise"
            );
            assert_eq!(pr.contaminated, sr.contaminated);
        }
    }

    #[test]
    fn one_crash_poisons_everyone() {
        let results = World::new(4).run(|comm| {
            if comm.rank() == 2 {
                panic!("simulated application abort");
            }
            // Everyone else blocks on a collective that can never finish.
            comm.barrier();
        });
        assert_eq!(
            kinds(&results),
            [
                Some(PanicKind::FabricDead),
                Some(PanicKind::FabricDead),
                Some(PanicKind::Crash),
                Some(PanicKind::FabricDead),
            ]
        );
    }

    fn kinds<T>(results: &[RankOutcome<T>]) -> Vec<Option<PanicKind>> {
        results
            .iter()
            .map(|r| r.result.as_ref().err().map(|p| p.kind))
            .collect()
    }

    /// Both carriers of the schedule, by name.
    type Carried = fn(&World, fn(&Comm)) -> Vec<RankOutcome<()>>;
    const CARRIERS: [(&str, Carried); 2] = [
        ("pooled", |w, body| w.run(body)),
        ("spawned", |w, body| w.run_spawned(|_| None, body)),
    ];

    #[test]
    fn mutual_receive_is_a_deadlock_detected_at_once() {
        // No deadline armed, nothing to time out: the second rank to block
        // finds nobody runnable and fails on the spot; its panic poisons
        // the fabric for the first.
        for (carrier, run) in CARRIERS {
            let start = Instant::now();
            let results = run(&World::new(2), |comm| {
                let _ = comm.recv(1 - comm.rank(), 0xdead);
            });
            assert!(start.elapsed() < Duration::from_secs(1), "{carrier}");
            assert_eq!(
                kinds(&results),
                [Some(PanicKind::FabricDead), Some(PanicKind::RecvTimeout)],
                "{carrier}"
            );
        }
    }

    #[test]
    fn a_receive_from_a_rank_that_already_left_is_a_deadlock() {
        // Ranks 1 and 2 return without sending; an exiting rank cannot
        // fail, so the verdict lands on the rank still waiting for them.
        for (carrier, run) in CARRIERS {
            let start = Instant::now();
            let results = run(&World::new(3), |comm| {
                if comm.rank() == 0 {
                    let _ = comm.recv(2, 7);
                }
            });
            assert!(start.elapsed() < Duration::from_secs(1), "{carrier}");
            assert_eq!(
                kinds(&results),
                [Some(PanicKind::RecvTimeout), None, None],
                "{carrier}"
            );
            assert_eq!(
                results[0].result.as_ref().unwrap_err().message,
                "deadlock: rank 0 waiting for src 2 tag 7",
                "{carrier}"
            );
        }
    }

    #[test]
    fn a_panic_that_names_a_cause_in_words_is_a_crash() {
        // A cause travels as the payload's type. A rank body's own panic
        // is a crash whatever its text says, and the text is kept.
        static WORDS: [&str; 4] = [
            "resilim-simmpi: receive timed out: rank 0 waiting for src 1 tag 0",
            "resilim-simmpi: fabric dead (another rank failed)",
            "resilim: hang guard tripped (op budget exceeded)",
            "resilim: detected uncorrectable error (rank killed)",
        ];
        for (carrier, run) in CARRIERS {
            let results = run(&World::new(4), |comm| panic!("{}", WORDS[comm.rank()]));
            assert_eq!(kinds(&results), [Some(PanicKind::Crash); 4], "{carrier}");
            for (r, words) in results.iter().zip(WORDS) {
                assert_eq!(r.result.as_ref().unwrap_err().message, words, "{carrier}");
            }
        }
    }

    #[test]
    fn a_send_outside_the_world_is_a_crash() {
        // Rank 0's bad destination is its own bug; rank 1 then finds the
        // fabric dead before its destination is looked at.
        for (carrier, run) in CARRIERS {
            let results = run(&World::new(2), |comm| comm.send(2, 0, &[]));
            assert_eq!(
                kinds(&results),
                [Some(PanicKind::Crash), Some(PanicKind::FabricDead)],
                "{carrier}"
            );
            assert_eq!(
                results[0].result.as_ref().unwrap_err().message,
                "resilim-simmpi: invalid rank 2 (world size 2)",
                "{carrier}"
            );
        }
    }

    #[test]
    fn a_blocked_receive_completes_when_its_message_is_sent_later() {
        // Rank 0 blocks first; rank 1 sends the wrong tag (buffered, wakes
        // nobody), then the right one. Out-of-order tags, both carriers.
        for (carrier, run) in CARRIERS {
            let results = run(&World::new(2), |comm| {
                if comm.rank() == 0 {
                    assert_eq!(comm.recv(1, 5), [Tf64::new(42.0)]);
                    assert_eq!(comm.recv(1, 4), [Tf64::new(41.0)]);
                } else {
                    comm.send(0, 4, &[Tf64::new(41.0)]);
                    comm.send(0, 5, &[Tf64::new(42.0)]);
                }
            });
            assert_eq!(kinds(&results), [None, None], "{carrier}");
        }
    }

    /// Five ranks, all but rank 0 blocked on a message that never comes
    /// and rank 0 holding the baton, torn down from that point: by rank 0
    /// crashing (`outside: false`), or by a `poison()` from another thread
    /// first — all the watchdog does — which rank 0, wedged in untracked
    /// code, waits to see before it crashes the same way. Returns the
    /// order the ranks unwound in and how each ended.
    fn torn_down(pooled: bool, outside: bool) -> (Vec<usize>, Vec<Option<PanicKind>>) {
        struct Unwound<'a>(&'a Mutex<Vec<usize>>, usize);
        impl Drop for Unwound<'_> {
            fn drop(&mut self) {
                self.0.lock().push(self.1);
            }
        }
        const PROCS: usize = 5;
        install_quiet_hook();
        let _caller = CallerState::borrow();
        let carrier = if pooled {
            carrier::pooled::carrier()
        } else {
            Carrier::threads()
        };
        let fabric = Fabric::new(PROCS, None, carrier);
        let pool = WorldPool::new();
        let order = Mutex::new(Vec::new());
        let wedged = AtomicBool::new(false);
        let body = |comm: &Comm| {
            let _unwound = Unwound(&order, comm.rank());
            if comm.rank() == 0 {
                // Blocks once; by the next-rank rule the baton is back
                // only when ranks 1..PROCS are all blocked.
                comm.recv(PROCS - 1, 1);
                if outside {
                    wedged.store(true, Ordering::SeqCst);
                    while !fabric.is_dead() {
                        std::thread::yield_now();
                    }
                }
                panic!("simulated application abort");
            }
            if comm.rank() == PROCS - 1 {
                comm.send(0, 1, &[]);
            }
            comm.recv(0, 2);
        };
        let rank_job = |rank| run_rank(rank, &fabric, &|_| None, &body);
        let results = std::thread::scope(|scope| {
            scope.spawn(|| {
                if outside {
                    while !wedged.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    fabric.poison();
                }
            });
            if pooled {
                carrier::pooled::run(pool.dispatch(PROCS), &fabric, rank_job)
            } else {
                carrier::run_on_threads(&fabric, rank_job)
            }
        });
        (order.into_inner(), kinds(&results))
    }

    #[test]
    fn a_poison_from_outside_tears_down_like_a_crash_at_the_same_point() {
        // `poison()` from a thread without the baton is one flag store;
        // the blocked ranks are readied by the next handoff, so teardown
        // runs in schedule order from the baton holder on either way.
        let mut expected = vec![Some(PanicKind::FabricDead); 5];
        expected[0] = Some(PanicKind::Crash);
        for pooled in [true, false] {
            for outside in [false, true] {
                let (order, kinds) = torn_down(pooled, outside);
                let label = format!("pooled={pooled} outside={outside}");
                assert_eq!(order, [0, 1, 2, 3, 4], "{label}");
                assert_eq!(kinds, expected, "{label}");
            }
        }
    }

    #[test]
    fn the_world_gives_the_callers_thread_back_as_it_found_it() {
        // Ranks run on this very thread: its panic-hook flag and an
        // injection context it had installed must both survive — through
        // a multi-rank world, a crashing one, and the inline p=1 case.
        let mine = RankCtx::profiling(7).with_op_cap(1234);
        assert!(
            ctx::install(mine).is_none(),
            "leaked context from another test"
        );
        for procs in [1, 3] {
            let results = World::new(procs).run_with_ctx(
                |rank| Some(RankCtx::profiling(rank)),
                |comm| {
                    assert!(QUIET_PANICS.get());
                    let _ = Tf64::new(1.0) + Tf64::new(2.0);
                    comm.barrier();
                    if comm.rank() == 0 {
                        panic!("boom");
                    }
                },
            );
            assert_eq!(results[0].ctx_report.as_ref().unwrap().rank, 0);
            assert!(
                !QUIET_PANICS.get(),
                "p={procs}: rank panics stay quiet, ours do not"
            );
            assert!(ctx::is_installed(), "p={procs}");
        }
        let mine = ctx::take().expect("the caller's context came back");
        assert_eq!(mine.rank(), 7);
        assert_eq!(mine.profile().total(), 0, "no rank's ops leaked into it");
    }

    #[test]
    fn ctx_reports_collected_on_success() {
        let world = World::new(3);
        let results = world.run_with_ctx(
            |rank| Some(resilim_inject::RankCtx::profiling(rank)),
            |comm| {
                let a = Tf64::new(comm.rank() as f64);
                let _ = a * a + a;
                comm.rank()
            },
        );
        for (i, r) in results.iter().enumerate() {
            let report = r.ctx_report.as_ref().unwrap();
            assert_eq!(report.rank, i);
            assert_eq!(report.profile.injectable(Region::Common), 2);
        }
    }

    #[test]
    fn ctx_reports_collected_on_panic() {
        let world = World::new(2);
        let results = world.run_with_ctx(
            |rank| Some(resilim_inject::RankCtx::profiling(rank)),
            |comm| {
                let a = Tf64::new(1.0);
                let _ = a + a;
                if comm.rank() == 0 {
                    panic!("boom");
                }
                comm.barrier();
            },
        );
        let report0 = results[0].ctx_report.as_ref().unwrap();
        assert_eq!(report0.profile.injectable(Region::Common), 1);
        assert!(results[0].result.is_err());
    }

    #[test]
    fn taint_crosses_ranks_via_messages() {
        // Rank 0 gets an injected error that reaches its send buffer; the
        // receiving rank must be flagged contaminated.
        let world = World::new(2);
        let results = world.run_with_ctx(
            |rank| {
                let plan = if rank == 0 {
                    InjectionPlan::single(Target {
                        region: Region::Common,
                        op_index: 0,
                        bit: 55, // exponent bit: never rounded away
                        operand: Operand::A,
                    })
                } else {
                    InjectionPlan::none()
                };
                Some(resilim_inject::RankCtx::new(rank, plan))
            },
            |comm| {
                let mine = Tf64::new(1.0) + Tf64::new(2.0); // op 0: corrupted on rank 0
                let sum = comm.allreduce_scalar(ReduceOp::Sum, mine);
                sum.is_tainted()
            },
        );
        for r in &results {
            assert!(
                r.result.as_ref().unwrap(),
                "allreduce result must be tainted"
            );
            assert!(r.ctx_report.as_ref().unwrap().contaminated);
        }
    }

    #[test]
    fn absorbed_taint_does_not_cross_ranks() {
        // Rank 0's error is multiplied by zero before communication: the
        // other rank must stay clean.
        let world = World::new(2);
        let results = world.run_with_ctx(
            |rank| {
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
            },
            |comm| {
                let corrupted = Tf64::new(1.0) + Tf64::new(2.0); // corrupted on rank 0
                let masked = corrupted * Tf64::ZERO; // absorbed
                let sum = comm.allreduce_scalar(ReduceOp::Sum, masked);
                sum.is_tainted()
            },
        );
        assert!(!results[0].result.as_ref().unwrap());
        assert!(results[0].ctx_report.as_ref().unwrap().contaminated); // had the error
        assert!(!results[1].ctx_report.as_ref().unwrap().contaminated); // never saw it
    }

    #[test]
    fn hang_guard_classified() {
        let world = World::new(1);
        let results = world.run_with_ctx(
            |rank| Some(resilim_inject::RankCtx::profiling(rank).with_op_cap(100)),
            |_comm| {
                let mut acc = Tf64::ZERO;
                loop {
                    acc += 1.0; // trips the guard long before looping forever
                    if acc.value() < 0.0 {
                        break;
                    }
                }
            },
        );
        let err = results[0].result.as_ref().unwrap_err();
        assert_eq!(err.kind, PanicKind::HangGuard);
        assert!(results[0].ctx_report.as_ref().unwrap().hang_guard_tripped);
    }

    #[test]
    fn deadline_reaps_a_wedged_world() {
        // Rank 1 is wedged in *untracked* code — no tracked op for the
        // hang guard, no receive for the deadlock rule — and only touches
        // the fabric now and then. Nothing but the wall-clock watchdog
        // can end this trial: once it has poisoned the fabric, rank 1's
        // next send fails, and rank 0 (blocked on a message that never
        // comes) fails when its turn arrives. No rank has a cause of its
        // own: every one ends `FabricDead`, the mark of a wall-clock kill.
        let world = World::new(2).with_deadline(Some(Duration::from_millis(50)));
        for (carrier, run) in CARRIERS {
            let results = run(&world, |comm| {
                if comm.rank() == 0 {
                    let _ = comm.recv(1, 7);
                } else {
                    loop {
                        std::thread::sleep(Duration::from_millis(2));
                        comm.send(0, 8, &[]);
                    }
                }
            });
            assert_eq!(
                kinds(&results),
                [Some(PanicKind::FabricDead), Some(PanicKind::FabricDead)],
                "{carrier}"
            );
        }
    }

    #[test]
    fn deadline_untouched_run_reports_untripped() {
        // A world that finishes well inside its deadline is not touched,
        // and does not wait for the watchdog to time out either.
        let world = World::new(2).with_deadline(Some(Duration::from_secs(30)));
        for (carrier, run) in CARRIERS {
            let start = Instant::now();
            let results = run(&world, |comm| {
                let sum = comm.allreduce_scalar(ReduceOp::Sum, Tf64::new(1.0));
                assert_eq!(sum.value(), 2.0);
            });
            assert!(start.elapsed() < Duration::from_secs(10), "{carrier}");
            assert_eq!(kinds(&results), [None, None], "{carrier}");
        }
    }

    #[test]
    fn replicated_contexts_detect_divergent_payloads() {
        // TeaMPI-style replication is a property of each rank's context:
        // the shadow world is the clean replica, and payloads are compared
        // between worlds at every send and receive point.
        let world = World::new(2);
        let mk_ctx = |replicate: bool| {
            move |rank: usize| {
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
                Some(RankCtx::new(rank, plan).with_replication(replicate))
            }
        };
        let body = |comm: &Comm| {
            let mine = Tf64::new(1.0) + Tf64::new(2.0); // corrupted on rank 0
            comm.allreduce_scalar(ReduceOp::Sum, mine).value()
        };
        let replicated = world.run_with_ctx(mk_ctx(true), body);
        // The corrupted payload crossed the fabric: both the sender's and
        // the receiver's replica compare points saw the divergence.
        for o in &replicated {
            assert!(o.ctx_report.as_ref().unwrap().detected, "rank {}", o.rank);
        }
        // Replication only observes: values are identical to the plain run.
        let plain = world.run_with_ctx(mk_ctx(false), body);
        for (r, p) in replicated.iter().zip(plain.iter()) {
            assert_eq!(r.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert!(!p.ctx_report.as_ref().unwrap().detected);
        }
    }

    /// Child half of the test below: a rank panics *loudly* (the default
    /// hook runs, on the rank's own stack) and the world still classifies
    /// it and tears down.
    #[test]
    #[ignore = "run by a_loud_rank_panic_with_a_full_backtrace_is_caught_on_its_own_stack"]
    fn loud_rank_panic_child() {
        let results = World::new(3).run(|comm| {
            if comm.rank() == 1 {
                QUIET_PANICS.set(false);
                panic!("loud rank panic");
            }
            comm.barrier();
        });
        assert_eq!(
            kinds(&results),
            [
                Some(PanicKind::FabricDead),
                Some(PanicKind::Crash),
                Some(PanicKind::FabricDead),
            ]
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "re-runs the test binary as a child process")]
    fn a_loud_rank_panic_with_a_full_backtrace_is_caught_on_its_own_stack() {
        // `RUST_BACKTRACE=full` makes the default hook walk and symbolize
        // the whole panicking stack — a coroutine stack here — before the
        // unwind reaches `run_rank`'s `catch_unwind`. The style is read
        // once per process, hence the child.
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "world::tests::loud_rank_panic_child"])
            .args(["--ignored", "--nocapture", "--test-threads=1"])
            .env("RUST_BACKTRACE", "full")
            .output()
            .expect("re-run this test binary");
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(child.status.success(), "{stderr}");
        assert!(stderr.contains("loud rank panic"), "{stderr}");
        assert!(stderr.contains("stack backtrace"), "{stderr}");
        assert!(stderr.contains("loud_rank_panic_child"), "{stderr}");
    }

    #[test]
    fn largest_paper_scale_completes() {
        // p=128 is the paper's largest deployment.
        let world = World::new(128);
        let results = world.run(|comm| {
            let x = [Tf64::new(1.0)];
            comm.barrier();
            comm.allreduce(ReduceOp::Sum, &x)[0].value()
        });
        assert!(results.iter().all(|r| *r.result.as_ref().unwrap() == 128.0));
    }
}
