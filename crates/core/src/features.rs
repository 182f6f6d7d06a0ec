//! Per-trial feature records: what one fault-injection trial did.
//!
//! [`TrialFeatures`] is the fixed-size record of the dynamic features the
//! instrumentation observes for free — operation mix, taint spread,
//! communication position — for one trial: the harness extracts it from
//! the per-rank context reports at classification time, streams it
//! through the same reorder buffer as the trial outcome (so extraction is
//! deterministic across worker counts and batch sizes), and persists it
//! in the feature store next to the trial ledger. PARIS (Guo et al.)
//! learns from features like these, but taken from runs without fault
//! injection; these are measured on the injected trials themselves, so
//! they describe a campaign rather than predict one. They stay as a
//! per-trial audit record: `resilim check`'s `identity` oracle compares
//! them across execution shapes, and its `distribution` oracle holds
//! them to one label-consistent record per trial.
//!
//! The record is `Copy` on purpose: it rides inside the harness's
//! `TrialRecord` (also `Copy`) through lock-free batch hand-off, so every
//! per-rank quantity is reduced to fixed-size scalars at harvest time.

use resilim_inject::OutcomeKind;
use serde::{Deserialize, Serialize};

/// Version of the feature schema, bumped whenever a field is added,
/// removed, or its meaning changes — mirrors `REPRO_VERSION` in the check
/// crate and `LEDGER_VERSION` in the harness: persisted feature records
/// carry it, and loaders skip records from other versions instead of
/// silently misinterpreting them.
pub const FEATURE_SCHEMA_VERSION: u32 = 1;

/// Number of op-index windows in the contamination trajectory.
pub const SPREAD_WINDOWS: usize = 4;

/// Length of [`TrialFeatures::vector`].
pub const FEATURE_DIM: usize = 19;

/// The dynamic features of one fault-injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialFeatures {
    /// Outcome class index (`OutcomeKind::index`): 0 success, 1 SDC,
    /// 2 failure — the training label.
    pub label: u8,
    /// Whether the corruption was detected (DUE kill or replica compare).
    pub detected: bool,
    /// Rank count of the deployment.
    pub procs: u32,
    /// Ranks contaminated by the end of the trial.
    pub contaminated_ranks: u32,
    /// Total tracked operations across all ranks.
    pub total_ops: u64,
    /// Dynamic-op mix by category: fraction of tracked operations that
    /// were add/sub/mul/div/other (`OpKind` order), over all ranks and
    /// regions.
    pub op_mix: [f64; 5],
    /// Share of tracked operations in the parallel-unique region.
    pub unique_frac: f64,
    /// Earliest per-rank operation index at which any rank first became
    /// contaminated; `-1` when no rank was ever contaminated.
    pub first_contam_op: i64,
    /// Contaminated-rank count trajectory: how many ranks became
    /// contaminated in each quarter of the per-rank op-index range
    /// (window `w` covers first-contamination indices in
    /// `[w, w+1) · max_ops/4`).
    pub spread_window: [u32; SPREAD_WINDOWS],
    /// Taint-spread rate: contaminated ranks per tracked op-index between
    /// the earliest and latest first-contamination events (0 when at most
    /// one rank was contaminated).
    pub spread_rate: f64,
    /// Comm-graph position of the injecting rank: its share of the
    /// deployment's golden-run message sends (0.5 = average sender when
    /// uniform; 0 when the deployment sends nothing or the trial has no
    /// single injecting rank).
    pub inject_rank_msg_share: f64,
    /// Messages the earliest-contaminated rank had sent when it first
    /// became contaminated.
    pub msgs_sent_before_contam: u64,
    /// Numeric messages the earliest-contaminated rank had received when
    /// it first became contaminated.
    pub msgs_recvd_before_contam: u64,
    /// Taint crossings stamped by the fabric: numeric messages whose
    /// payload carried significant taint into a receiving rank, summed
    /// over all ranks.
    pub taint_crossings: u64,
}

impl TrialFeatures {
    /// A features record for a trial where nothing fired: all counters
    /// zero, labeled with `label`.
    pub fn quiet(
        label: OutcomeKind,
        procs: u32,
        total_ops: u64,
        op_mix: [f64; 5],
    ) -> TrialFeatures {
        TrialFeatures {
            label: label.index() as u8,
            detected: false,
            procs,
            contaminated_ranks: 0,
            total_ops,
            op_mix,
            unique_frac: 0.0,
            first_contam_op: -1,
            spread_window: [0; SPREAD_WINDOWS],
            spread_rate: 0.0,
            inject_rank_msg_share: 0.0,
            msgs_sent_before_contam: 0,
            msgs_recvd_before_contam: 0,
            taint_crossings: 0,
        }
    }

    /// The training label as an [`OutcomeKind`].
    pub fn outcome(&self) -> OutcomeKind {
        match self.label {
            0 => OutcomeKind::Success,
            1 => OutcomeKind::Sdc,
            _ => OutcomeKind::Failure,
        }
    }

    /// Flatten into [`LogisticModel`](crate::LogisticModel)'s input
    /// vector (the label and the detection flag are *not* features —
    /// they are what it fits). Counts enter as `ln(1 + x)` so scale
    /// differences across deployments do not drown the mix fractions.
    pub fn vector(&self) -> [f64; FEATURE_DIM] {
        let ln1p = |x: u64| (1.0 + x as f64).ln();
        let windows = self.spread_window.map(|w| w as f64);
        [
            self.procs as f64,
            self.contaminated_ranks as f64,
            self.contaminated_ranks as f64 / self.procs.max(1) as f64,
            ln1p(self.total_ops),
            self.op_mix[0],
            self.op_mix[1],
            self.op_mix[2],
            self.op_mix[3],
            self.op_mix[4],
            self.unique_frac,
            // Never-contaminated keeps a neutral 0; contaminated trials
            // report the (log-scaled) op index of first contamination.
            if self.first_contam_op < 0 {
                0.0
            } else {
                ln1p(self.first_contam_op as u64)
            },
            windows[0],
            windows[1],
            windows[2],
            windows[3],
            self.spread_rate,
            self.inject_rank_msg_share,
            ln1p(self.msgs_sent_before_contam) + ln1p(self.msgs_recvd_before_contam),
            ln1p(self.taint_crossings),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrialFeatures {
        TrialFeatures {
            label: 1,
            detected: true,
            procs: 4,
            contaminated_ranks: 3,
            total_ops: 4000,
            op_mix: [0.5, 0.1, 0.3, 0.05, 0.05],
            unique_frac: 0.02,
            first_contam_op: 120,
            spread_window: [1, 2, 0, 0],
            spread_rate: 0.01,
            inject_rank_msg_share: 0.25,
            msgs_sent_before_contam: 3,
            msgs_recvd_before_contam: 5,
            taint_crossings: 7,
        }
    }

    #[test]
    fn vector_has_the_feature_dim() {
        let f = sample();
        let v = f.vector();
        assert_eq!(v.len(), FEATURE_DIM);
        assert_eq!(v[0], 4.0);
        assert_eq!(v[1], 3.0);
        assert_eq!(v[2], 0.75);
        assert!(v.iter().all(|x| x.is_finite()));
        assert_eq!(f.outcome(), resilim_inject::OutcomeKind::Sdc);
    }

    #[test]
    fn quiet_trial_has_neutral_feature_values() {
        let f = TrialFeatures::quiet(OutcomeKind::Success, 2, 100, [1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(f.contaminated_ranks, 0);
        assert_eq!(f.first_contam_op, -1);
        // The never-contaminated sentinel maps to a neutral 0 feature.
        assert_eq!(f.vector()[10], 0.0);
        assert_eq!(f.outcome(), OutcomeKind::Success);
    }

    #[test]
    fn features_round_trip_through_serde() {
        let f = sample();
        let json = serde_json::to_string(&f).unwrap();
        let back: TrialFeatures = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
