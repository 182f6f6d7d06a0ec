//! The rank-context cache behind pooled worlds.
//!
//! Fault-injection campaigns run thousands of short trials. A pooled
//! world ([`World::run_pooled`](crate::World::run_pooled)) runs every rank
//! as a coroutine on the calling thread (see `carrier.rs`); what is
//! worth keeping between trials is the ranks' guard-paged stacks, and a
//! [`WorldPool`] is that cache plus the counters the benchmark reads.
//!
//! Robustness is by construction: a stack carries no state from one
//! world to the next (a rank that crashed, tripped the hang guard or
//! died on a poisoned fabric still ran to completion — its panic is
//! caught on its own stack), so any finished world leaves the cache
//! reusable. Concurrent worlds never wait for each other: a lease takes
//! what is idle and creates the rest.

use crate::carrier::pooled::ContextCache;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A reusable cache of rank contexts (see module docs).
#[derive(Default)]
pub struct WorldPool {
    contexts: ContextCache,
    dispatched: AtomicUsize,
}

impl WorldPool {
    /// An empty pool; rank contexts are created on demand and kept.
    pub fn new() -> WorldPool {
        WorldPool::default()
    }

    /// The process-wide pool used by
    /// [`World::run_with_ctx`](crate::World::run_with_ctx).
    pub fn global() -> &'static WorldPool {
        static GLOBAL: OnceLock<WorldPool> = OnceLock::new();
        GLOBAL.get_or_init(WorldPool::new)
    }

    /// Rank contexts (coroutine stacks, not OS threads: the name is what
    /// the benchmark compiles against) ever created by this pool. A
    /// campaign that reuses them keeps this at its high-water
    /// mark of concurrently running ranks instead of `trials * procs`.
    /// Zero on targets where pooled worlds run on threads, and for
    /// single-rank worlds, which run inline.
    pub fn threads_spawned(&self) -> usize {
        self.contexts.created()
    }

    /// Rank contexts currently idle in the cache.
    pub fn idle_threads(&self) -> usize {
        self.contexts.idle()
    }

    /// Total rank jobs ever run through this pool: `procs` per executed
    /// world, the inline single-rank case included.
    pub fn jobs_dispatched(&self) -> usize {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// The cache and a note that a world of `procs` ranks runs on it.
    pub(crate) fn dispatch(&self, procs: usize) -> &ContextCache {
        self.dispatched.fetch_add(procs, Ordering::Relaxed);
        &self.contexts
    }
}
