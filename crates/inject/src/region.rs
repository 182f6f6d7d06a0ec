//! Computation regions: common vs parallel-unique code.
//!
//! Observation 1 of the paper splits parallel execution into *common
//! computation* (also executed by the serial run) and *parallel-unique
//! computation* (boundary preparation, transpose packing, …). Applications
//! mark parallel-unique stretches with a [`RegionGuard`]; the injection
//! context counts dynamic FP operations per region so that
//!
//! * Table 1 (parallel-unique share) can be measured, and
//! * injections can be targeted at a specific region (the
//!   `FI_par_unique` term of Equation 1).

use serde::{Deserialize, Serialize};

/// Which part of the computation a dynamic FP operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Region {
    /// Computation executed by serial and parallel runs alike.
    Common,
    /// Computation that only exists in parallel execution (halo packing,
    /// transpose staging, partial-result preparation, …).
    ParallelUnique,
}

impl Region {
    /// All regions, in a fixed order usable for array indexing.
    pub const ALL: [Region; 2] = [Region::Common, Region::ParallelUnique];

    /// Stable index of the region (for compact per-region arrays).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Region::Common => 0,
            Region::ParallelUnique => 1,
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Common => write!(f, "common"),
            Region::ParallelUnique => write!(f, "parallel-unique"),
        }
    }
}

/// RAII guard that switches the current thread's injection context into a
/// region and restores the previous region on drop.
///
/// Created via [`crate::ctx::enter_region`]. A guard taken while no context
/// is installed is a no-op.
#[must_use = "the region is only active while the guard is alive"]
pub struct RegionGuard {
    pub(crate) prev: Option<Region>,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            crate::ctx::set_region(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_display() {
        assert_eq!(Region::Common.to_string(), "common");
        assert_eq!(Region::ParallelUnique.to_string(), "parallel-unique");
    }

    #[test]
    fn region_serde_roundtrip() {
        for r in Region::ALL {
            let s = serde_json::to_string(&r).unwrap();
            let back: Region = serde_json::from_str(&s).unwrap();
            assert_eq!(back, r);
        }
    }
}
