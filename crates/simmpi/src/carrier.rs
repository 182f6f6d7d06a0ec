//! Carriers: how a handoff the fabric decided on moves the CPU.
//!
//! The schedule — who runs next, what counts as a deadlock — lives in
//! [`crate::fabric`] and exists once. A carrier only executes it, and
//! there are two:
//!
//! * **Threads** ([`run_on_threads`]): every rank is a fresh OS thread
//!   and the baton moves with `unpark`/`park`. It runs on every target
//!   and shares no mechanism with the coroutine switch, which is what
//!   makes `World::run_spawned` the replay oracle's independent
//!   reference. A handoff costs a kernel wake-up (≈ 25 µs on a 2-vCPU
//!   guest), so as the *fast* path it was measured and rejected: a CG
//!   p=64 trial makes ~13 k handoffs.
//! * **Coroutines** ([`pooled`], x86_64 Linux): every rank is a stackful
//!   coroutine on the thread that runs the world; a handoff is a
//!   user-level register swap plus parking the rank's injection context
//!   (a block copy, nothing re-packed). Measured on the same guest: a
//!   p=2 ping-pong round trip — two messages, two handoffs — takes
//!   ≈ 0.25 µs, a p=64 barrier — 126 messages, ~64 handoffs — ≈ 9 µs.
//!   `World::run_pooled` uses it where it exists and the thread carrier
//!   elsewhere — chosen by target, never by an option.

use crate::fabric::Fabric;
use std::sync::OnceLock;
use std::thread::Thread;

/// How one fabric's handoffs move the CPU.
pub(crate) enum Carrier {
    /// Ranks are coroutines of the thread that runs the world.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    Coroutines,
    /// Ranks are OS threads, published here by [`run_on_threads`] once
    /// all of them exist.
    Threads(OnceLock<Vec<Thread>>),
}

impl Carrier {
    /// The thread carrier, its ranks not spawned yet.
    pub(crate) fn threads() -> Carrier {
        Carrier::Threads(OnceLock::new())
    }

    /// The fabric moved the baton from `from` to `to`: let `to` run, and
    /// return once `from` holds the baton again.
    pub(crate) fn switch(&self, fabric: &Fabric, from: usize, to: usize) {
        match self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
            Carrier::Coroutines => pooled::switch(),
            Carrier::Threads(threads) => {
                unpark(threads, to);
                await_baton(threads, fabric, from);
            }
        }
    }

    /// The fabric moved the baton to `to` and the caller has finished.
    pub(crate) fn pass(&self, to: usize) {
        match self {
            // The finished coroutine returns to its driver loop, which
            // resumes whoever the fabric says is running.
            #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
            Carrier::Coroutines => {}
            Carrier::Threads(threads) => unpark(threads, to),
        }
    }
}

fn unpark(threads: &OnceLock<Vec<Thread>>, rank: usize) {
    threads
        .get()
        .expect("rank threads are published before any runs")[rank]
        .unpark();
}

/// Park until every rank thread is published and `me` holds the baton.
/// Checks before parking and after every wake-up, so neither a spurious
/// wake-up nor an unpark that arrives early can be missed.
fn await_baton(threads: &OnceLock<Vec<Thread>>, fabric: &Fabric, me: usize) {
    while threads.get().is_none() || fabric.running() != Some(me) {
        std::thread::park();
    }
}

/// Run `job(rank)` for every rank of `fabric` on a fresh scoped thread
/// each, one at a time in the fabric's schedule, and return the results
/// in rank order. `job` must end with `fabric.exit(rank)`.
pub(crate) fn run_on_threads<R: Send>(fabric: &Fabric, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = match fabric.carrier() {
        Carrier::Threads(threads) => threads,
        #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
        Carrier::Coroutines => panic!("fabric built for the coroutine carrier"),
    };
    std::thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = (0..fabric.size())
            .map(|rank| {
                scope.spawn(move || {
                    await_baton(threads, fabric, rank);
                    job(rank)
                })
            })
            .collect();
        threads
            .set(handles.iter().map(|h| h.thread().clone()).collect())
            .expect("one world per fabric");
        // Rank 0 holds the first baton.
        unpark(threads, 0);
        handles
            .into_iter()
            .map(|h| h.join().expect("rank jobs catch their own panics"))
            .collect()
    })
}

/// The carrier behind `World::run_pooled` on this target: coroutines.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
pub(crate) mod pooled {
    use super::Carrier;
    use crate::coroutine::{self, Coroutine, Stack};
    use crate::fabric::Fabric;
    use parking_lot::Mutex;
    use resilim_inject::ctx;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(crate) fn carrier() -> Carrier {
        Carrier::Coroutines
    }

    /// Suspend the running rank; its driver resumes the baton holder.
    pub(super) fn switch() {
        // Thread-locals belong to the thread, not to the coroutine: the
        // rank's injection context leaves with it and comes back with it,
        // parked on the rank's own stack in the form it runs in.
        let parked = ctx::park();
        coroutine::suspend();
        if let Some(parked) = parked {
            ctx::unpark(parked);
        }
    }

    /// Idle rank stacks, kept across worlds (a `WorldPool`'s cache).
    #[derive(Default)]
    pub(crate) struct ContextCache {
        idle: Mutex<Vec<Stack>>,
        created: AtomicUsize,
    }

    impl ContextCache {
        pub(crate) fn created(&self) -> usize {
            self.created.load(Ordering::Relaxed)
        }

        pub(crate) fn idle(&self) -> usize {
            self.idle.lock().len()
        }

        fn lease(&self, n: usize) -> Vec<Stack> {
            let mut stacks = {
                let mut idle = self.idle.lock();
                let keep = idle.len().saturating_sub(n);
                idle.split_off(keep)
            };
            self.created.fetch_add(n - stacks.len(), Ordering::Relaxed);
            stacks.resize_with(n, Stack::new);
            stacks
        }
    }

    /// Run `job(rank)` for every rank of `fabric` as a coroutine on the
    /// calling thread, in the fabric's schedule, and return the results
    /// in rank order. `job` must end with `fabric.exit(rank)`.
    ///
    /// Every coroutine has run to completion when this returns (the
    /// baton is `None` only once every rank is done), which is what lets
    /// `job` borrow from the caller.
    pub(crate) fn run<R: Send>(
        cache: &ContextCache,
        fabric: &Fabric,
        job: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let mut slots: Vec<Option<R>> = (0..fabric.size()).map(|_| None).collect();
        let job = &job;
        let mut ranks: Vec<Coroutine<'_>> = slots
            .iter_mut()
            .zip(cache.lease(fabric.size()))
            .enumerate()
            .map(|(rank, (slot, stack))| Coroutine::new(stack, move || *slot = Some(job(rank))))
            .collect();
        // Run to block: whoever holds the baton runs until it blocks or
        // finishes, at which point the fabric has named its successor.
        while let Some(rank) = fabric.running() {
            ranks[rank].resume();
        }
        cache
            .idle
            .lock()
            .extend(ranks.into_iter().filter_map(Coroutine::into_stack));
        slots
            .into_iter()
            .map(|slot| slot.expect("every rank ran to completion"))
            .collect()
    }
}

/// The carrier behind `World::run_pooled` on this target: no coroutine
/// switch here, so threads.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
pub(crate) mod pooled {
    use super::Carrier;
    use crate::fabric::Fabric;

    pub(crate) fn carrier() -> Carrier {
        Carrier::threads()
    }

    /// Nothing to cache: rank threads are spawned per world.
    #[derive(Default)]
    pub(crate) struct ContextCache;

    impl ContextCache {
        pub(crate) fn created(&self) -> usize {
            0
        }

        pub(crate) fn idle(&self) -> usize {
            0
        }
    }

    pub(crate) fn run<R: Send>(
        _cache: &ContextCache,
        fabric: &Fabric,
        job: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        super::run_on_threads(fabric, job)
    }
}
