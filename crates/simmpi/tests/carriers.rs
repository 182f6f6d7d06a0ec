//! One schedule, two carriers: pooled (coroutine) and spawned (thread)
//! worlds make the same handoffs, and a world leaves the panic hook of
//! the thread it ran on as it found it.
//!
//! Single `#[test]` on purpose: the obs recorder and the panic hook are
//! process-global, so concurrent tests would see each other's counts.

use resilim_inject::{RankCtx, Tf64};
use resilim_obs as obs;
use resilim_simmpi::{Comm, ReduceOp, World};
use std::sync::atomic::{AtomicUsize, Ordering};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// A body with point-to-point traffic, out-of-order tags and every
/// collective shape the apps use; `fail` makes the last rank crash
/// mid-run, so teardown handoffs are compared too.
fn body(fail: bool) -> impl Fn(&Comm) -> f64 + Send + Sync {
    move |comm: &Comm| {
        let (me, p) = (comm.rank(), comm.size());
        let mine = [Tf64::new(me as f64 + 1.0)];
        let mut acc = comm.allreduce(ReduceOp::Sum, &mine)[0];
        for round in 0..3u64 {
            let got = comm.sendrecv((me + 1) % p, (me + p - 1) % p, round, &[acc]);
            acc += got[0];
            comm.barrier();
        }
        if fail && me == p - 1 {
            panic!("simulated application abort");
        }
        let all = comm.alltoallv(vec![vec![acc]; p]);
        let gathered = comm.allgather(&all[me]);
        comm.allreduce_scalar(ReduceOp::Max, gathered.part(0)[0])
            .value()
    }
}

/// Rank switches and deadlocks one run adds to the global counters.
fn counted<R>(run: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = obs::MetricsSnapshot::capture();
    let out = run();
    let delta = obs::MetricsSnapshot::capture().delta(&before);
    (
        out,
        delta.counter(obs::Counter::RankSwitches),
        delta.counter(obs::Counter::DeadlocksDetected),
    )
}

#[test]
fn both_carriers_follow_one_schedule_and_leave_the_panic_hook_alone() {
    // Installed before the first world, so it is what the runtime's quiet
    // hook chains to: every panic that is *not* a rank's lands here.
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    obs::set_enabled(true);
    for procs in [2usize, 5, 8] {
        for fail in [false, true] {
            let world = World::new(procs);
            let mk_ctx = |rank| Some(RankCtx::profiling(rank));
            let (pooled, pooled_switches, _) = counted(|| world.run_with_ctx(mk_ctx, body(fail)));
            let (spawned, spawned_switches, _) = counted(|| world.run_spawned(mk_ctx, body(fail)));
            let (_, again, _) = counted(|| world.run_with_ctx(mk_ctx, body(fail)));
            let label = format!("p={procs} fail={fail}");
            assert!(
                pooled_switches >= procs as u64,
                "{label}: {pooled_switches}"
            );
            assert_eq!(
                pooled_switches, spawned_switches,
                "{label}: carriers diverge"
            );
            assert_eq!(pooled_switches, again, "{label}: schedule does not repeat");
            for (a, b) in pooled.iter().zip(&spawned) {
                assert_eq!(
                    a.result.as_ref().map_err(|p| p.kind),
                    b.result.as_ref().map_err(|p| p.kind),
                    "{label} rank {}",
                    a.rank
                );
                assert_eq!(
                    a.ctx_report.as_ref().unwrap().profile,
                    b.ctx_report.as_ref().unwrap().profile,
                    "{label} rank {}",
                    a.rank
                );
            }
        }
    }

    // A single-rank world runs inline: nothing to switch to.
    let (_, switches, _) = counted(|| World::new(1).run(body(false)));
    assert_eq!(switches, 0);

    // A deadlock is counted once, on either carrier, and costs the
    // handoffs that led into it plus the teardown.
    let stuck = |comm: &Comm| {
        let _ = comm.recv((comm.rank() + 1) % comm.size(), 9);
    };
    let (_, pooled_switches, pooled_deadlocks) = counted(|| World::new(3).run(stuck));
    let (_, spawned_switches, spawned_deadlocks) =
        counted(|| World::new(3).run_spawned(|_| None, stuck));
    assert_eq!((pooled_deadlocks, spawned_deadlocks), (1, 1));
    assert_eq!(pooled_switches, spawned_switches);

    // With the recorder off the schedule is not counted at all.
    obs::set_enabled(false);
    let (_, switches, deadlocks) = counted(|| World::new(3).run(stuck));
    assert_eq!((switches, deadlocks), (0, 0));

    // Every panic so far was a rank's: silenced. One on this thread —
    // which just ran all those pooled worlds — is ours again.
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "rank panics are quiet"
    );
    let caught = std::panic::catch_unwind(|| panic!("the harness itself failed"));
    assert!(caught.is_err());
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "a panic after a world run must reach the hook"
    );
}
