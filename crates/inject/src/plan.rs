//! Injection plans: *where* and *how* faults are injected.
//!
//! A fault injection *test* (paper §2) randomly selects a dynamic
//! floating-point instruction and flips a random bit in one of its
//! operands. In this crate that selection is precomputed into an
//! [`InjectionPlan`] — a set of [`Target`]s — so a test is fully
//! deterministic and reproducible from its seed.
//!
//! Plans with multiple targets express the paper's *serial multi-error*
//! deployments (`FI_ser_x`: a serial run with `x` errors injected into the
//! common computation, §3.3/§4).

use crate::region::Region;

/// Which input operand of an FP operation receives the bit flip (on a
/// unary operation both name its one operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Left-hand operand.
    A,
    /// Right-hand operand.
    B,
}

/// One planned fault: flip `bit` of `operand` of the `op_index`-th dynamic
/// injectable FP operation executed in `region` (per-region counting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Region whose dynamic-op counter the index refers to.
    pub region: Region,
    /// Zero-based dynamic index among injectable ops in `region`.
    pub op_index: u64,
    /// Bit position to flip, `0..=63` over the IEEE-754 binary64 pattern.
    pub bit: u8,
    /// Which operand is corrupted.
    pub operand: Operand,
}

impl Target {
    /// Flip this target's bit(s) in a raw `f64`.
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ (1u64 << (self.bit & 63)))
    }
}

/// A full plan for one fault-injection test: all faults to inject into one
/// rank's execution.
///
/// Targets are stored sorted by `(region, op_index)`; duplicate
/// `(region, op_index)` pairs are allowed (two flips on the same dynamic
/// op) and fire in order. Plans are never persisted: a trial's plan is
/// re-drawn from its seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    targets: Vec<Target>,
}

impl InjectionPlan {
    /// The empty plan: count ops, inject nothing (profiling mode).
    pub fn none() -> Self {
        InjectionPlan::default()
    }

    /// Plan with a single target.
    pub fn single(t: Target) -> Self {
        InjectionPlan { targets: vec![t] }
    }

    /// Plan with arbitrarily many targets (serial multi-error deployments).
    pub fn multi(mut targets: Vec<Target>) -> Self {
        targets.sort_by_key(|t| (t.region, t.op_index));
        InjectionPlan { targets }
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when this plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Targets in firing order.
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// Split the plan into per-region firing queues (ascending `op_index`).
    pub(crate) fn into_queues(self) -> [std::collections::VecDeque<Target>; 2] {
        let mut queues: [std::collections::VecDeque<Target>; 2] = Default::default();
        for t in self.targets {
            queues[t.region.index()].push_back(t);
        }
        queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_flips_exactly_one_bit() {
        let t = Target {
            region: Region::Common,
            op_index: 0,
            bit: 7,
            operand: Operand::A,
        };
        let x = 3.25_f64;
        let y = t.apply(x);
        assert_eq!(x.to_bits() ^ y.to_bits(), 1 << 7);
        // Applying twice restores the original value.
        assert_eq!(t.apply(y).to_bits(), x.to_bits());
    }

    #[test]
    fn apply_masks_bit_index() {
        let t = Target {
            region: Region::Common,
            op_index: 0,
            bit: 64 + 3, // masked to 3
            operand: Operand::B,
        };
        let x = 1.0_f64;
        assert_eq!(t.apply(x).to_bits(), x.to_bits() ^ (1 << 3));
    }

    #[test]
    fn sign_bit_flip_negates() {
        let t = Target {
            region: Region::Common,
            op_index: 0,
            bit: 63,
            operand: Operand::A,
        };
        assert_eq!(t.apply(2.5), -2.5);
    }

    #[test]
    fn multi_plan_sorts_targets() {
        let mk = |region, op_index| Target {
            region,
            op_index,
            bit: 0,
            operand: Operand::A,
        };
        let plan = InjectionPlan::multi(vec![
            mk(Region::ParallelUnique, 5),
            mk(Region::Common, 9),
            mk(Region::Common, 2),
        ]);
        let idx: Vec<_> = plan
            .targets()
            .iter()
            .map(|t| (t.region, t.op_index))
            .collect();
        assert_eq!(
            idx,
            vec![
                (Region::Common, 2),
                (Region::Common, 9),
                (Region::ParallelUnique, 5)
            ]
        );
    }

    #[test]
    fn queues_split_by_region() {
        let mk = |region, op_index| Target {
            region,
            op_index,
            bit: 1,
            operand: Operand::B,
        };
        let plan = InjectionPlan::multi(vec![
            mk(Region::Common, 3),
            mk(Region::ParallelUnique, 1),
            mk(Region::Common, 7),
        ]);
        let queues = plan.into_queues();
        assert_eq!(queues[Region::Common.index()].len(), 2);
        assert_eq!(queues[Region::ParallelUnique.index()].len(), 1);
    }

    #[test]
    fn empty_plan() {
        assert!(InjectionPlan::none().is_empty());
        assert_eq!(InjectionPlan::none().len(), 0);
    }
}
