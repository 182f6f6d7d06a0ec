//! `resilim-obs` — campaign observability: structured events, counters,
//! log-bucketed histograms, and pluggable sinks.
//!
//! Design constraints (see DESIGN.md):
//!
//! * **Zero dependencies** — this crate sits below every `resilim-*`
//!   crate and uses only `std`, so `inject`/`simmpi` can instrument their
//!   hot paths without a dependency cycle or an external crate.
//! * **No-op when disabled** — every entry point first checks
//!   [`enabled`], a single relaxed atomic load. The default is *off*;
//!   nothing is measured, timed, or allocated until a front-end (the CLI,
//!   a test) opts in.
//! * **Deterministic-safe** — instrumentation is strictly observational.
//!   No code path reads a counter, histogram, or sink back into campaign
//!   logic, so enabling the recorder cannot change a campaign statistic.
//!
//! * **One call per observed happening** — [`emit`] both delivers an
//!   [`Event`] to the sinks and bumps the [`Counter`]s it implies, from
//!   one table in this crate, so the trace and the counter block cannot
//!   disagree. [`count`] is only for happenings that have no event
//!   (fabric messages, ops per rank, worker time, resumed trials).
//!
//! The expensive granularity rule: events and timers are per-trial or
//! per-fire — never per floating-point operation.
//! Per-op data (ops per region) is aggregated by the existing
//! `OpProfile` counters and flushed once per rank.

mod event;
mod metrics;
mod sink;

pub use event::{as_micros, Event};
pub use metrics::{
    busy_within_wall, count, observe, timer, Counter, Hist, MetricsSnapshot, CLOCK_EPSILON_NS,
    HIST_BUCKETS,
};
pub use sink::{
    add_sink, clear_sinks, emit, flush_sinks, EventSink, JsonlSink, MemorySink, ProgressSink,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAMPAIGN_SEQ: AtomicU64 = AtomicU64::new(1);

/// Whether the recorder is on. The disabled fast path everywhere is this
/// one relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on or off (process-global).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocate a process-unique campaign id for tagging trace events.
pub fn next_campaign_id() -> u64 {
    CAMPAIGN_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Serializes unit tests that flip the global [`enabled`] flag.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_ids_are_unique_and_nonzero() {
        let a = next_campaign_id();
        let b = next_campaign_id();
        assert!(a > 0);
        assert_ne!(a, b);
    }

    #[test]
    fn enabled_flag_toggles() {
        let _guard = test_lock();
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
