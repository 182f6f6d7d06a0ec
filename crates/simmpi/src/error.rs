//! Runtime errors and panic classification.

use serde::{Deserialize, Serialize};

/// Errors surfaced by fabric operations.
///
/// Application code does not handle these: the [`Comm`](crate::Comm)
/// wrappers convert them into panics with recognisable messages so that a
/// single failed rank tears down the whole simulated job, exactly like an
/// MPI abort. The [`World`](crate::World) runner classifies those panics
/// back into [`PanicKind`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MpiError {
    /// No matching message can ever arrive: every other rank is blocked
    /// or done (a deadlock, detected by the fabric's scheduler the moment
    /// it forms — the name dates from when a timer inferred it).
    RecvTimeout {
        /// Receiving rank.
        rank: usize,
        /// Expected source rank.
        src: usize,
        /// Expected message tag.
        tag: u64,
    },
    /// The fabric was poisoned because another rank panicked.
    FabricDead,
    /// A rank index was out of range.
    InvalidRank {
        /// The offending rank index.
        rank: usize,
        /// Number of ranks in the world.
        size: usize,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::RecvTimeout { rank, src, tag } => write!(
                f,
                "{RECV_TIMEOUT_MSG}: rank {rank} waiting for src {src} tag {tag}"
            ),
            MpiError::FabricDead => write!(f, "{FABRIC_DEAD_MSG}"),
            MpiError::InvalidRank { rank, size } => {
                write!(f, "resilim-simmpi: invalid rank {rank} (world size {size})")
            }
        }
    }
}

/// Marker message for receive-timeout panics.
pub(crate) const RECV_TIMEOUT_MSG: &str = "resilim-simmpi: receive timed out";
/// Marker message for fabric-poisoned panics (secondary failures).
pub(crate) const FABRIC_DEAD_MSG: &str = "resilim-simmpi: fabric dead (another rank failed)";

/// Classification of a rank's panic, recovered from the panic payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PanicKind {
    /// The injection hang guard tripped (op budget exceeded) — the run
    /// would not have terminated in a reasonable time.
    HangGuard,
    /// A receive that nothing can ever match (deadlock) — a communication
    /// partner stopped participating.
    RecvTimeout,
    /// Secondary failure: this rank died only because the fabric was
    /// poisoned by another rank's failure.
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
    /// The panic message (best-effort string extraction).
    pub message: String,
}

impl RankPanic {
    /// Classify a panic payload coming out of `catch_unwind`.
    pub fn from_payload(payload: &(dyn std::any::Any + Send)) -> RankPanic {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        let kind = if message.contains(resilim_inject::ctx::HANG_GUARD_MSG) {
            PanicKind::HangGuard
        } else if message.contains(RECV_TIMEOUT_MSG) {
            PanicKind::RecvTimeout
        } else if message.contains(FABRIC_DEAD_MSG) {
            PanicKind::FabricDead
        } else if message.contains(resilim_inject::ctx::DUE_MSG) {
            PanicKind::Due
        } else {
            PanicKind::Crash
        };
        RankPanic { kind, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(msg: &str) -> PanicKind {
        let boxed: Box<dyn std::any::Any + Send> = Box::new(msg.to_string());
        RankPanic::from_payload(boxed.as_ref()).kind
    }

    #[test]
    fn classify_hang_guard() {
        assert_eq!(
            classify(resilim_inject::ctx::HANG_GUARD_MSG),
            PanicKind::HangGuard
        );
    }

    #[test]
    fn classify_timeout() {
        assert_eq!(
            classify("resilim-simmpi: receive timed out: rank 3 waiting for src 0 tag 7"),
            PanicKind::RecvTimeout
        );
    }

    #[test]
    fn classify_fabric_dead() {
        assert_eq!(classify(FABRIC_DEAD_MSG), PanicKind::FabricDead);
    }

    #[test]
    fn classify_due() {
        assert_eq!(classify(resilim_inject::ctx::DUE_MSG), PanicKind::Due);
    }

    #[test]
    fn classify_other_as_crash() {
        assert_eq!(classify("index out of bounds"), PanicKind::Crash);
    }

    #[test]
    fn static_str_payload() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("plain crash");
        assert_eq!(
            RankPanic::from_payload(boxed.as_ref()).kind,
            PanicKind::Crash
        );
    }

    #[test]
    fn error_display() {
        let e = MpiError::RecvTimeout {
            rank: 1,
            src: 0,
            tag: 42,
        };
        assert!(e.to_string().contains("rank 1"));
        assert!(MpiError::FabricDead.to_string().contains("fabric dead"));
    }
}
