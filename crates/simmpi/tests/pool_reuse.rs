//! Pool robustness: trials that crash, trip the hang guard, are killed
//! by a DUE, or die on a poisoned fabric must leave the rank-context
//! cache reusable, and the pooled execution path must match the
//! spawn-per-trial path bitwise.
//!
//! This binary also audits heap traffic with a counting global allocator
//! (per-thread counters, so concurrent tests don't pollute the
//! measurement): the zero-injection tracked-op hot path performs no
//! allocation per op, a rank switch performs none either, and a pooled
//! world frees every block it allocates.

use resilim_inject::{ctx, InjectionPlan, Operand, RankCtx, Region, Target, Tf64};
use resilim_simmpi::{PanicKind, ReduceOp, World, WorldPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations; delegates everything to [`System`].
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn allocs_here() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// This thread's deallocation count so far.
fn frees_here() -> u64 {
    FREES.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocation during thread teardown (after the TLS
        // slot is destroyed) still works.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One block before, one block after: a realloc frees what it
        // allocates as far as the block balance is concerned.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Whether this target carries pooled ranks on cached coroutine stacks
/// (elsewhere they are threads and the cache stays empty).
const CONTEXTS_CACHED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux", not(miri)));

#[test]
fn pool_survives_crash_hang_and_poison_trials() {
    let pool = WorldPool::new();
    let procs = 4;

    // Trial 1: rank 2 crashes; everyone else dies on the poisoned fabric.
    let results = World::new(procs).run_pooled(
        &pool,
        |_| None,
        |comm| {
            if comm.rank() == 2 {
                panic!("simulated application abort");
            }
            comm.barrier();
        },
    );
    assert_eq!(
        results[2].result.as_ref().unwrap_err().kind,
        PanicKind::Crash
    );
    for rank in [0usize, 1, 3] {
        assert_eq!(
            results[rank].result.as_ref().unwrap_err().kind,
            PanicKind::FabricDead
        );
    }

    // Trial 2: every rank trips the hang guard.
    let results = World::new(procs).run_pooled(
        &pool,
        |rank| Some(RankCtx::profiling(rank).with_op_cap(50)),
        |_comm| {
            let mut acc = Tf64::ZERO;
            loop {
                acc += 1.0;
                if acc.value() < 0.0 {
                    break;
                }
            }
        },
    );
    for r in &results {
        assert_eq!(r.result.as_ref().unwrap_err().kind, PanicKind::HangGuard);
        assert!(r.ctx_report.as_ref().unwrap().hang_guard_tripped);
    }

    // Trial 3: a DUE kills rank 1 at its first op, mid-collective for
    // everyone else; the killed rank's context is still harvested.
    let results = World::new(procs).run_pooled(
        &pool,
        |rank| {
            let plan = if rank == 1 {
                InjectionPlan::single(Target {
                    region: Region::Common,
                    op_index: 0,
                    bit: 55,
                    operand: Operand::A,
                })
            } else {
                InjectionPlan::none()
            };
            Some(RankCtx::new(rank, plan).with_kill_on_fire(true))
        },
        |comm| {
            comm.barrier();
            let mine = Tf64::new(1.0) + Tf64::new(comm.rank() as f64);
            comm.allreduce_scalar(ReduceOp::Sum, mine).value()
        },
    );
    assert_eq!(results[1].result.as_ref().unwrap_err().kind, PanicKind::Due);
    assert_eq!(results[1].ctx_report.as_ref().unwrap().fired.len(), 1);
    for rank in [0usize, 2, 3] {
        assert_eq!(
            results[rank].result.as_ref().unwrap_err().kind,
            PanicKind::FabricDead
        );
    }

    // Trial 4: a deadlock (everyone waits for rank 0, which waits too).
    let results = World::new(procs).run_pooled(
        &pool,
        |_| None,
        |comm| {
            let _ = comm.recv(0, 1);
        },
    );
    assert!(results.iter().all(|r| r.result.is_err()));

    // Trial 5: a clean collective must still work on the same contexts,
    // with no stale injection context or taint leaking in from the
    // failed trials.
    let results = World::new(procs).run_pooled(
        &pool,
        |rank| Some(RankCtx::profiling(rank)),
        |comm| {
            let mine = [Tf64::new((comm.rank() + 1) as f64)];
            comm.allreduce(ReduceOp::Sum, &mine)[0]
        },
    );
    for r in &results {
        let total = r.result.as_ref().unwrap();
        assert_eq!(total.value(), 10.0);
        assert!(!total.is_tainted());
        let report = r.ctx_report.as_ref().unwrap();
        assert!(!report.contaminated);
        assert!(report.fired.is_empty());
        assert!(!report.hang_guard_tripped);
    }

    // All five trials ran on the same four rank contexts.
    let cached = if CONTEXTS_CACHED { procs } else { 0 };
    assert_eq!(pool.threads_spawned(), cached);
    assert_eq!(pool.idle_threads(), cached);
    assert_eq!(pool.jobs_dispatched(), 5 * procs);
}

/// Concurrent worlds on one pool never wait for each other's contexts:
/// each leases what is idle and creates the rest, and all of it comes
/// back.
#[test]
fn concurrent_worlds_share_the_pool() {
    let pool = WorldPool::new();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                for _ in 0..20 {
                    let results = World::new(8).run_pooled(
                        &pool,
                        |_| None,
                        |comm| {
                            let x = [Tf64::new(1.0)];
                            comm.allreduce(ReduceOp::Sum, &x)[0].value()
                        },
                    );
                    assert!(results.iter().all(|r| *r.result.as_ref().unwrap() == 8.0));
                }
            });
        }
    });
    assert_eq!(pool.jobs_dispatched(), 3 * 20 * 8);
    assert_eq!(pool.idle_threads(), pool.threads_spawned());
    if CONTEXTS_CACHED {
        assert!((8..=24).contains(&pool.threads_spawned()));
    }
}

/// A single-rank world runs inline on the caller: it counts as one rank
/// job and needs no rank context at all.
#[test]
fn serial_world_runs_inline_without_a_context() {
    let pool = WorldPool::new();
    let caller = std::thread::current().id();
    let results = World::new(1).run_pooled(&pool, |_| None, |_| std::thread::current().id());
    assert_eq!(*results[0].result.as_ref().unwrap(), caller);
    assert_eq!(pool.jobs_dispatched(), 1);
    assert_eq!(pool.threads_spawned(), 0);
}

/// A rank's entry frame never returns, so anything it still owned at its
/// final switch would leak once per rank per trial. After warm-up, a
/// thousand p=8 worlds — clean ones and crashing ones — must free exactly
/// as many blocks as they allocate.
#[test]
fn pooled_worlds_free_every_block_they_allocate() {
    let pool = WorldPool::new();
    let trial = |crash: bool| {
        let results = World::new(8).run_pooled(
            &pool,
            |rank| Some(RankCtx::profiling(rank)),
            |comm| {
                let mine = [Tf64::new(comm.rank() as f64)];
                let total = comm.allreduce(ReduceOp::Sum, &mine)[0];
                if crash && comm.rank() == 3 {
                    panic!("simulated application abort");
                }
                comm.barrier();
                total.value()
            },
        );
        assert_eq!(results[0].result.is_err(), crash);
    };
    trial(false);
    trial(true);
    let (allocs, frees) = (allocs_here(), frees_here());
    for i in 0..1000 {
        trial(i % 10 == 9);
    }
    let (allocs, frees) = (allocs_here() - allocs, frees_here() - frees);
    assert!(allocs > 0, "the counting allocator is live");
    // Where ranks are threads, blocks cross threads and these per-thread
    // counts do not balance; there is no entry frame to leak from either.
    if CONTEXTS_CACHED {
        assert_eq!(allocs, frees, "blocks leaked over 1000 worlds");
    }
}

#[test]
fn pooled_matches_spawned_bitwise() {
    let procs = 4;
    let mk_ctx = |rank: usize| {
        let plan = if rank == 1 {
            InjectionPlan::single(Target {
                region: Region::Common,
                op_index: 3,
                bit: 55,
                operand: Operand::A,
            })
        } else {
            InjectionPlan::none()
        };
        Some(RankCtx::new(rank, plan))
    };
    let body = |comm: &resilim_simmpi::Comm| {
        let mut acc = Tf64::new(1.0);
        for i in 0..8 {
            acc = acc * Tf64::new(1.0 + (comm.rank() + i) as f64 * 0.125) + Tf64::new(0.5);
        }
        let total = comm.allreduce_scalar(ReduceOp::Sum, acc);
        (total.value().to_bits(), total.is_tainted())
    };

    let pooled = World::new(procs).run_pooled(&WorldPool::new(), mk_ctx, body);
    let spawned = World::new(procs).run_spawned(mk_ctx, body);
    for (a, b) in pooled.iter().zip(&spawned) {
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        let (ra, rb) = (
            a.ctx_report.as_ref().unwrap(),
            b.ctx_report.as_ref().unwrap(),
        );
        assert_eq!(ra.profile, rb.profile);
        assert_eq!(ra.fired, rb.fired);
        assert_eq!(ra.contaminated, rb.contaminated);
    }
}

/// The thread carrier under load: p=8, 10 080 point-to-point messages,
/// each pair received in the reverse of the order it was sent in (the
/// mailboxes buffer unexpected messages) and from a peer that, more
/// often than not, has not sent yet (the receive blocks: thousands of
/// handoffs), with tracked ops in between. The baton is the only
/// synchronisation between the rank threads — no lock guards the
/// mailboxes — so every receive must find exactly what the pooled
/// (single-thread) run finds: results and op profiles equal bitwise.
/// Runs in debug and, in CI, in release.
#[test]
fn thread_carrier_under_message_load_matches_pooled_bitwise() {
    const PROCS: usize = 8;
    const ROUNDS: u64 = 90;
    let mk_ctx = |rank: usize| Some(RankCtx::profiling(rank));
    let body = |comm: &resilim_simmpi::Comm| {
        let me = comm.rank();
        let mut acc = Tf64::new(me as f64 + 1.0);
        for round in 0..ROUNDS {
            for k in 1..PROCS {
                let (dst, src) = ((me + k) % PROCS, (me + PROCS - k) % PROCS);
                comm.send(dst, 2 * round, &[acc]);
                comm.send(dst, 2 * round + 1, &[acc + Tf64::new(k as f64)]);
                let late = comm.recv(src, 2 * round + 1)[0];
                let early = comm.recv(src, 2 * round)[0];
                // Order-sensitive on purpose.
                acc = (acc * Tf64::new(0.5) + late) * Tf64::new(0.25) + early;
            }
        }
        acc.value().to_bits()
    };
    let pooled = World::new(PROCS).run_pooled(&WorldPool::new(), mk_ctx, body);
    let spawned = World::new(PROCS).run_spawned(mk_ctx, body);
    for (a, b) in pooled.iter().zip(&spawned) {
        assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        let (ra, rb) = (
            a.ctx_report.as_ref().unwrap(),
            b.ctx_report.as_ref().unwrap(),
        );
        assert_eq!(ra.profile, rb.profile);
        assert_eq!(ra.msgs_recvd, 2 * (PROCS as u64 - 1) * ROUNDS);
        assert_eq!(ra.msgs_recvd, rb.msgs_recvd);
    }
}

/// A rank switch — block in a receive, park the injection context, swap
/// stacks, unpark — must not touch the heap. Measured inside one p=8
/// world over barriers, whose messages are empty (`Vec::new()` does not
/// allocate) and whose mailboxes stop growing after the first few: 200
/// barriers are ~1 600 handoffs and 2 800 messages, and every rank's
/// allocations land on this thread's counter (where ranks are threads,
/// rank 0 counts its own only).
#[test]
fn rank_switches_do_not_allocate() {
    let results = World::new(8).run_pooled(
        &WorldPool::new(),
        |rank| Some(RankCtx::profiling(rank)),
        |comm| {
            let mut acc = Tf64::new(1.0);
            for _ in 0..8 {
                comm.barrier(); // warm-up: mailboxes reach their capacity
            }
            let before = allocs_here();
            for _ in 0..200 {
                acc = acc * Tf64::new(0.5) + Tf64::new(1.0);
                comm.barrier();
            }
            (allocs_here() - before, acc.value())
        },
    );
    let (allocs, _) = results[0].result.as_ref().unwrap();
    assert_eq!(*allocs, 0, "allocations over 200 barriers at p=8");
    let report = results[0].ctx_report.as_ref().unwrap();
    assert_eq!(
        report.profile.total(),
        400,
        "the context came back each time"
    );
}

/// The zero-injection hot path — context installed, plan empty — must
/// not touch the heap: not per op (cells only), not in `take()`, and not
/// in `into_report()` (`CtxReport.fired` stays an unallocated empty
/// `Vec`, op counters flush into plain arrays).
#[test]
fn zero_injection_hot_path_does_not_allocate() {
    // Warm up the thread-local machinery (first install may lazily
    // initialize TLS) before taking the baseline.
    assert!(ctx::install(RankCtx::profiling(0)).is_none());
    let mut warm = Tf64::new(1.0);
    for _ in 0..16 {
        warm = warm * Tf64::new(0.5) + Tf64::new(0.25);
    }
    drop(ctx::take().unwrap().into_report());

    ctx::install(RankCtx::new(0, InjectionPlan::none()));
    let before = allocs_here();
    let mut acc = Tf64::new(1.0);
    let payload = [Tf64::new(1.0), Tf64::new(2.0)];
    for i in 0..10_000 {
        acc = acc * Tf64::new(0.999) + Tf64::new(i as f64 * 1e-9);
        acc = acc.min(Tf64::new(1e6)) / Tf64::new(1.0000001);
        // The per-message feature hooks (msgs_recvd / taint-crossing stamp,
        // msgs_sent) are part of the audited region: they too must stay on
        // cells only.
        ctx::note_values(&payload);
        let _ = ctx::note_msg_send(&payload);
    }
    let report = ctx::take().unwrap().into_report();
    let during = allocs_here() - before;
    assert!(report.fired.is_empty());
    assert_eq!(report.profile.total(), 40_000);
    assert_eq!(report.msgs_recvd, 10_000);
    assert_eq!(report.profile.msgs_sent, 10_000);
    assert_eq!(report.tainted_msgs_recvd, 0);
    assert_eq!(report.first_contam_op, None);
    assert_eq!(
        during, 0,
        "zero-injection hot path allocated {during} times in 40k ops"
    );
    assert!(acc.value().is_finite());
}

#[test]
fn global_pool_reused_across_runs() {
    let before = WorldPool::global().jobs_dispatched();
    for _ in 0..3 {
        let results = World::new(8).run(|comm| {
            let x = [Tf64::new(1.0)];
            comm.allreduce(ReduceOp::Sum, &x)[0].value()
        });
        assert!(results.iter().all(|r| *r.result.as_ref().unwrap() == 8.0));
    }
    assert_eq!(WorldPool::global().jobs_dispatched(), before + 24);
}
