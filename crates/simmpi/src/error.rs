//! How a failed rank's cause reaches the caller.
//!
//! A rank fails by panicking, and every abort the harness raises itself
//! ends its rank with a typed payload ([`std::panic::panic_any`]) owned
//! by the crate that raises it: the injection layer's
//! [`Trip`](resilim_inject::ctx::Trip) for the hang guard and a DUE kill,
//! the fabric's own `Abort` for the deadlock rule and a dead fabric.
//! [`RankPanic::from_payload`] reads the cause off the payload's type; any
//! other payload is the application's own panic, a [`PanicKind::Crash`]
//! whose text is kept as the message.

use resilim_inject::ctx::Trip;
use serde::{Deserialize, Serialize};
use std::any::Any;

/// Why the fabric ended a rank: the error of a failed send or receive,
/// and the panic payload [`Comm`](crate::Comm) ends the rank with
/// (`MPI_ERRORS_ARE_FATAL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Abort {
    /// The deadlock rule: no matching message can ever arrive, because
    /// every other rank is blocked or done. The fabric's scheduler
    /// detects it the moment it forms.
    Deadlock {
        /// Receiving rank.
        rank: usize,
        /// Expected source rank.
        src: usize,
        /// Expected message tag.
        tag: u64,
    },
    /// The fabric was poisoned: another rank failed, or the world's
    /// watchdog fired.
    FabricDead,
}

/// Classification of a rank's panic, read off the panic payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PanicKind {
    /// The injection hang guard tripped (op budget exceeded) — the run
    /// would not have terminated in a reasonable time.
    HangGuard,
    /// The deadlock rule: the rank blocked on a receive nothing can ever
    /// match, because every other rank is blocked or done — a
    /// communication partner stopped participating.
    RecvTimeout,
    /// Secondary failure: this rank died only because the fabric was
    /// poisoned by another rank's failure (or by the world's watchdog).
    FabricDead,
    /// A detected-uncorrectable error killed the rank
    /// (`--fault-model due`).
    Due,
    /// Any other panic: models an application crash.
    Crash,
}

/// A captured rank panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankPanic {
    /// Classified cause.
    pub kind: PanicKind,
    /// What happened, for people: the cause in words (a deadlock names
    /// the rank, the source and the tag it waited for), or a crash's own
    /// panic text.
    pub message: String,
}

impl RankPanic {
    /// Classify a panic payload coming out of `catch_unwind` by its type.
    pub fn from_payload(payload: &(dyn Any + Send)) -> RankPanic {
        let (kind, message) = if let Some(trip) = payload.downcast_ref::<Trip>() {
            match trip {
                Trip::HangGuard => (PanicKind::HangGuard, "hang guard tripped".into()),
                Trip::Due => (PanicKind::Due, "detected uncorrectable error".into()),
            }
        } else if let Some(abort) = payload.downcast_ref::<Abort>() {
            match *abort {
                Abort::Deadlock { rank, src, tag } => (
                    PanicKind::RecvTimeout,
                    format!("deadlock: rank {rank} waiting for src {src} tag {tag}"),
                ),
                Abort::FabricDead => (PanicKind::FabricDead, "fabric dead".into()),
            }
        } else if let Some(s) = payload.downcast_ref::<&'static str>() {
            (PanicKind::Crash, (*s).to_string())
        } else if let Some(s) = payload.downcast_ref::<String>() {
            (PanicKind::Crash, s.clone())
        } else {
            (PanicKind::Crash, "<non-string panic payload>".into())
        };
        RankPanic { kind, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(payload: impl Any + Send) -> RankPanic {
        let boxed: Box<dyn Any + Send> = Box::new(payload);
        RankPanic::from_payload(boxed.as_ref())
    }

    #[test]
    fn classify_trips() {
        assert_eq!(classify(Trip::HangGuard).kind, PanicKind::HangGuard);
        assert_eq!(classify(Trip::Due).kind, PanicKind::Due);
    }

    #[test]
    fn classify_aborts() {
        let deadlock = classify(Abort::Deadlock {
            rank: 3,
            src: 0,
            tag: 7,
        });
        assert_eq!(deadlock.kind, PanicKind::RecvTimeout);
        assert_eq!(deadlock.message, "deadlock: rank 3 waiting for src 0 tag 7");
        assert_eq!(classify(Abort::FabricDead).kind, PanicKind::FabricDead);
    }

    #[test]
    fn any_other_payload_is_a_crash_with_its_text() {
        let crash = classify("index out of bounds".to_string());
        assert_eq!(crash.kind, PanicKind::Crash);
        assert_eq!(crash.message, "index out of bounds");
        assert_eq!(classify("plain crash").message, "plain crash");
        assert_eq!(classify(42u8).kind, PanicKind::Crash);
    }
}
