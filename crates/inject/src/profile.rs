//! Dynamic operation profiles.
//!
//! A fault-free *profiling run* counts every tracked floating-point
//! operation, per [`Region`] and per [`OpKind`]. Profiles serve three
//! purposes:
//!
//! * they define the sample space for random injection (a target op index
//!   is drawn uniformly from `0..injectable(region)`),
//! * they measure the parallel-unique share of computation (Table 1 of the
//!   paper; `prob_1`/`prob_2` of Equation 1), and
//! * they provide the hang-guard budget (a corrupted run executing far more
//!   ops than the fault-free run is classified as a hang).

use crate::mask::OpMask;
use crate::region::Region;
use serde::{Deserialize, Serialize};

/// Kinds of tracked floating-point operations.
///
/// Which kinds are *injectable* is the campaign's [`OpMask`]: by default
/// `Add`, `Sub` and `Mul` (the paper injects into floating point addition
/// and multiplication). Every kind is counted and participates in taint
/// propagation, whether or not the mask makes it an injection target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Floating-point addition.
    Add,
    /// Floating-point subtraction.
    Sub,
    /// Floating-point multiplication.
    Mul,
    /// Floating-point division (not a target under the default mask).
    Div,
    /// Everything else routed through the hook (sqrt, abs, min/max, exp, …).
    Other,
}

impl OpKind {
    /// All kinds, index-aligned with [`OpKind::index`].
    pub const ALL: [OpKind; 5] = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Other,
    ];

    /// Stable array index.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            OpKind::Add => 0,
            OpKind::Sub => 1,
            OpKind::Mul => 2,
            OpKind::Div => 3,
            OpKind::Other => 4,
        }
    }

    /// Whether this kind is an injection target under the *default* mask
    /// ([`OpMask::FP_ARITH`], the paper's add/sub/mul). What a campaign
    /// injects into is its own [`OpMask`]: ask [`OpMask::contains`].
    #[inline]
    pub const fn injectable(self) -> bool {
        matches!(self, OpKind::Add | OpKind::Sub | OpKind::Mul)
    }
}

/// Operation counts for one region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionCounts {
    /// Count of injectable ops — the injection sample space: the ops of
    /// the kinds in the [`OpMask`] the run was counted with.
    pub injectable: u64,
    /// Per-kind counts, indexed by [`OpKind::index`].
    pub per_kind: [u64; 5],
}

impl RegionCounts {
    /// Total tracked ops in this region.
    pub fn total(&self) -> u64 {
        self.per_kind.iter().sum()
    }
}

/// Sum of the per-kind counts (indexed by [`OpKind::index`]) of the kinds
/// in `mask`.
pub(crate) fn masked_sum(per_kind: &[u64; 5], mask: OpMask) -> u64 {
    OpKind::ALL
        .into_iter()
        .filter(|k| mask.contains(*k))
        .map(|k| per_kind[k.index()])
        .sum()
}

/// The dynamic-op profile of one rank's execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpProfile {
    /// Counts per region, indexed by [`Region::index`].
    pub regions: [RegionCounts; 2],
    /// Numeric messages (all but the barrier's empty tokens) this rank
    /// sent through the fabric.
    /// The message-corruption fault model draws its injection site
    /// uniformly from `0..msgs_sent` across ranks, exactly as op faults
    /// draw from `0..injectable`.
    pub msgs_sent: u64,
}

impl OpProfile {
    /// Counts for a region.
    #[inline]
    pub fn region(&self, r: Region) -> &RegionCounts {
        &self.regions[r.index()]
    }

    /// Injectable ops in a region (the sample space for targets there).
    pub fn injectable(&self, r: Region) -> u64 {
        self.region(r).injectable
    }

    /// Total injectable ops across regions.
    pub fn injectable_total(&self) -> u64 {
        self.regions.iter().map(|c| c.injectable).sum()
    }

    /// Total tracked ops across regions and kinds.
    pub fn total(&self) -> u64 {
        self.regions.iter().map(|c| c.total()).sum()
    }

    /// Merge another profile into this one (summing all counters).
    pub fn merge(&mut self, other: &OpProfile) {
        for (mine, theirs) in self.regions.iter_mut().zip(other.regions.iter()) {
            mine.injectable += theirs.injectable;
            for (m, t) in mine.per_kind.iter_mut().zip(theirs.per_kind.iter()) {
                *m += *t;
            }
        }
        self.msgs_sent += other.msgs_sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opkind_indices_align() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn injectable_kinds() {
        assert!(OpKind::Add.injectable());
        assert!(OpKind::Sub.injectable());
        assert!(OpKind::Mul.injectable());
        assert!(!OpKind::Div.injectable());
        assert!(!OpKind::Other.injectable());
    }

    fn sample_profile() -> OpProfile {
        let mut p = OpProfile::default();
        p.regions[Region::Common.index()] = RegionCounts {
            injectable: 90,
            per_kind: [40, 20, 30, 5, 5],
        };
        p.regions[Region::ParallelUnique.index()] = RegionCounts {
            injectable: 10,
            per_kind: [4, 3, 3, 0, 1],
        };
        p
    }

    #[test]
    fn share_and_totals() {
        let p = sample_profile();
        assert_eq!(p.injectable_total(), 100);
        assert_eq!(p.total(), 111);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = sample_profile();
        a.msgs_sent = 5;
        let mut b = sample_profile();
        b.msgs_sent = 7;
        a.merge(&b);
        assert_eq!(a.injectable_total(), 200);
        assert_eq!(a.total(), 222);
        assert_eq!(a.msgs_sent, 12);
    }
}
