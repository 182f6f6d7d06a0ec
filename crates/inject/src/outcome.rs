//! Fault-injection test outcomes (paper §2).
//!
//! Every fault-injection test ends in exactly one of three outcomes:
//!
//! * **Success** — the output is bitwise identical to the fault-free run,
//!   *or* differs but passes the application's checker;
//! * **SDC** (silent data corruption) — the output differs from the
//!   fault-free run and fails the checker;
//! * **Failure** — the application crashed or hung.

use serde::{Deserialize, Serialize};

/// Why a test counted as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// A rank panicked (models an application crash/abort).
    Crash,
    /// The hang guard tripped: the run executed far more FP ops than the
    /// fault-free run, or a receive timed out.
    Hang,
    /// A detected-uncorrectable error killed a rank (`--fault-model due`):
    /// the hardware flagged the corruption and halted the rank instead of
    /// letting it continue with a wrong value.
    Due,
}

/// The three paper-defined outcome classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutcomeKind {
    /// Output valid (identical to fault-free, or passes the checker).
    Success,
    /// Output differs from fault-free and fails the checker.
    Sdc,
    /// Crash or hang.
    Failure,
}

impl OutcomeKind {
    /// All outcome kinds, index-aligned with [`OutcomeKind::index`].
    pub const ALL: [OutcomeKind; 3] =
        [OutcomeKind::Success, OutcomeKind::Sdc, OutcomeKind::Failure];

    /// Stable array index.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            OutcomeKind::Success => 0,
            OutcomeKind::Sdc => 1,
            OutcomeKind::Failure => 2,
        }
    }
}

impl std::fmt::Display for OutcomeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutcomeKind::Success => write!(f, "success"),
            OutcomeKind::Sdc => write!(f, "SDC"),
            OutcomeKind::Failure => write!(f, "failure"),
        }
    }
}

/// Full record of one fault-injection test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestOutcome {
    /// Outcome class.
    pub kind: OutcomeKind,
    /// Failure detail when `kind == Failure`.
    pub failure: Option<FailureKind>,
    /// Whether the output was bitwise identical to the fault-free run
    /// (error fully masked end-to-end).
    pub masked: bool,
    /// Number of MPI ranks contaminated by the end of the run (≥ 1 for any
    /// test whose injection fired; the paper's Figures 1/2 histogram this).
    pub contaminated_ranks: u32,
    /// Number of planned faults that actually fired.
    pub injections_fired: u32,
    /// Whether the corruption was *detected* during the run — by the DUE
    /// machinery (the kill is the detection) or by a replica payload
    /// comparison under `--replicate`. Always `false` for undetectable
    /// silent corruption without a detector deployed.
    pub detected: bool,
}

// Campaigns keep every delivered outcome (results, loaded ledgers, the
// reorder buffer), so the record stays at two `u32` counts and four
// one-byte fields.
const _: () = assert!(std::mem::size_of::<TestOutcome>() == 12);

/// A rank or fault count as stored in a [`TestOutcome`].
fn count(n: usize) -> u32 {
    u32::try_from(n).expect("a trial's rank and fault counts fit in u32")
}

impl TestOutcome {
    /// A successful, fully masked test with `contaminated` contaminated ranks.
    pub fn success(masked: bool, contaminated: usize, fired: usize) -> Self {
        TestOutcome {
            kind: OutcomeKind::Success,
            failure: None,
            masked,
            contaminated_ranks: count(contaminated),
            injections_fired: count(fired),
            detected: false,
        }
    }

    /// An SDC test.
    pub fn sdc(contaminated: usize, fired: usize) -> Self {
        TestOutcome {
            kind: OutcomeKind::Sdc,
            failure: None,
            masked: false,
            contaminated_ranks: count(contaminated),
            injections_fired: count(fired),
            detected: false,
        }
    }

    /// A failed (crashed/hung) test.
    pub fn failure(kind: FailureKind, contaminated: usize, fired: usize) -> Self {
        TestOutcome {
            kind: OutcomeKind::Failure,
            failure: Some(kind),
            masked: false,
            contaminated_ranks: count(contaminated),
            injections_fired: count(fired),
            detected: false,
        }
    }

    /// Mark whether the corruption was detected (DUE kill or replica
    /// payload comparison).
    pub fn with_detected(mut self, detected: bool) -> Self {
        self.detected = detected;
        self
    }

    /// Causality invariant every recorded outcome must satisfy: a test
    /// whose planned faults never fired cannot have contaminated any
    /// rank, and a `Failure` kind carries a failure detail (and only a
    /// `Failure` does). The distribution oracle of `resilim check`
    /// asserts this over every measured trial.
    pub fn is_causally_consistent(&self) -> bool {
        let fired_implies_taint = self.injections_fired > 0 || self.contaminated_ranks == 0;
        let failure_detail_matches = (self.kind == OutcomeKind::Failure) == self.failure.is_some();
        // Detection is an observation of a real corruption: it cannot
        // happen in a trial where nothing fired. And a DUE kill *is* a
        // detection, so a Due failure must carry `detected`.
        let detected_implies_fired = !self.detected || self.injections_fired > 0;
        let due_implies_detected = self.failure != Some(FailureKind::Due) || self.detected;
        fired_implies_taint
            && failure_detail_matches
            && detected_implies_fired
            && due_implies_detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_align() {
        for (i, k) in OutcomeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn constructors() {
        let s = TestOutcome::success(true, 1, 1);
        assert_eq!(s.kind, OutcomeKind::Success);
        assert!(s.masked);
        let d = TestOutcome::sdc(3, 1);
        assert_eq!(d.kind, OutcomeKind::Sdc);
        assert_eq!(d.contaminated_ranks, 3);
        let f = TestOutcome::failure(FailureKind::Hang, 2, 1);
        assert_eq!(f.kind, OutcomeKind::Failure);
        assert_eq!(f.failure, Some(FailureKind::Hang));
    }

    #[test]
    fn display() {
        assert_eq!(OutcomeKind::Success.to_string(), "success");
        assert_eq!(OutcomeKind::Sdc.to_string(), "SDC");
        assert_eq!(OutcomeKind::Failure.to_string(), "failure");
    }

    #[test]
    fn causal_consistency() {
        assert!(TestOutcome::success(true, 0, 0).is_causally_consistent());
        assert!(TestOutcome::success(false, 2, 1).is_causally_consistent());
        assert!(TestOutcome::failure(FailureKind::Crash, 1, 1).is_causally_consistent());
        // Contamination without a fired injection is impossible.
        assert!(!TestOutcome::success(false, 1, 0).is_causally_consistent());
        // Failure detail must accompany exactly the Failure kind.
        let mut broken = TestOutcome::sdc(1, 1);
        broken.failure = Some(FailureKind::Hang);
        assert!(!broken.is_causally_consistent());
        let mut missing = TestOutcome::failure(FailureKind::Hang, 1, 1);
        missing.failure = None;
        assert!(!missing.is_causally_consistent());
    }

    #[test]
    fn detection_causality() {
        // A DUE kill is itself a detection event.
        let due = TestOutcome::failure(FailureKind::Due, 1, 1);
        assert!(!due.is_causally_consistent());
        assert!(due.with_detected(true).is_causally_consistent());
        // Replica detection on a fired trial is fine; detection with no
        // fired injection is impossible.
        assert!(TestOutcome::sdc(2, 1)
            .with_detected(true)
            .is_causally_consistent());
        assert!(!TestOutcome::success(true, 0, 0)
            .with_detected(true)
            .is_causally_consistent());
    }

    #[test]
    fn serde_roundtrip() {
        let o = TestOutcome::failure(FailureKind::Crash, 4, 2);
        let s = serde_json::to_string(&o).unwrap();
        let back: TestOutcome = serde_json::from_str(&s).unwrap();
        assert_eq!(back, o);
        // The on-disk form a ledger line carries parses and prints back
        // byte for byte.
        for line in [
            r#"{"kind":"Failure","failure":"Due","masked":false,"contaminated_ranks":64,"injections_fired":8,"detected":true}"#,
            r#"{"kind":"Success","failure":null,"masked":true,"contaminated_ranks":0,"injections_fired":1,"detected":false}"#,
        ] {
            let o: TestOutcome = serde_json::from_str(line).unwrap();
            assert_eq!(serde_json::to_string(&o).unwrap(), line);
        }
    }
}
