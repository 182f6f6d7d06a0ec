//! [`Tf64`]: a tracked IEEE-754 binary64 scalar.
//!
//! A `Tf64` carries two worlds:
//!
//! * **value** — what the (possibly corrupted) execution actually computes;
//! * **shadow** — what the fault-free execution would have computed along
//!   the *same control path*.
//!
//! A value is *tainted* exactly when the two differ bitwise. This gives
//! physically faithful error propagation: a flipped low mantissa bit that
//! is rounded away, multiplied by zero, or discarded by a `min`/`max`
//! selection stops being tainted, while an error that survives arithmetic
//! keeps its taint through arbitrarily long dataflow — including message
//! payloads between simulated MPI ranks.
//!
//! Comparisons (`PartialOrd`/`PartialEq`) are decided by the corrupted
//! world, because that is the execution that actually runs; the shadow
//! world follows along the corrupted control path (the same approximation
//! made by trace-based injectors).

use crate::ctx::{hook_binop, hook_unop};
use crate::profile::OpKind;
use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A tracked `f64` (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tf64 {
    v: f64,
    sh: f64,
}

impl Tf64 {
    /// An untainted zero.
    pub const ZERO: Tf64 = Tf64 { v: 0.0, sh: 0.0 };
    /// An untainted one.
    pub const ONE: Tf64 = Tf64 { v: 1.0, sh: 1.0 };

    /// An untainted tracked scalar.
    #[inline]
    pub const fn new(x: f64) -> Tf64 {
        Tf64 { v: x, sh: x }
    }

    /// Assemble from explicit corrupted/shadow values (MPI-internal
    /// reductions, values born tainted in tests and probes).
    ///
    /// A value whose worlds differ is *born tainted*, and the rank that
    /// builds it must watch its ops' results from then on: built on a
    /// thread whose installed context is not contaminated, it puts that
    /// context into watching mode (see [`ctx`](crate::ctx)), so that
    /// whatever it grows into is marked as soon as it diverges
    /// significantly. A context installed *after* the value was built
    /// does not know of it: build tainted values under the context that
    /// computes with them, or hand them over through
    /// [`ctx::note_values`](crate::ctx::note_values) as the fabric does.
    #[inline]
    pub fn from_parts(value: f64, shadow: f64) -> Tf64 {
        let t = Tf64::computed(value, shadow);
        if t.is_tainted() {
            crate::ctx::note_born_taint();
        }
        t
    }

    /// Assemble a value computed from values the rank already holds (the
    /// hook's results, a flipped operand): its taint, if any, is accounted
    /// for, so unlike [`Tf64::from_parts`] this checks nothing.
    #[inline]
    pub(crate) const fn computed(value: f64, shadow: f64) -> Tf64 {
        Tf64 {
            v: value,
            sh: shadow,
        }
    }

    /// This value with bit `bit` (`< 64`) of its corrupted world flipped,
    /// for a payload that is leaving the rank: the fabric's wire fault.
    /// Unlike [`Tf64::from_parts`] it leaves the calling (sending) rank's
    /// mode alone; the element is the receiver's, whose
    /// [`ctx::note_values`](crate::ctx::note_values) accounts for it.
    #[inline]
    pub fn flipped_in_transit(self, bit: u8) -> Tf64 {
        Tf64::computed(f64::from_bits(self.v.to_bits() ^ (1u64 << bit)), self.sh)
    }

    /// The corrupted-world value (what the run actually computes).
    #[inline]
    pub const fn value(self) -> f64 {
        self.v
    }

    /// The fault-free shadow value.
    #[inline]
    pub const fn shadow(self) -> f64 {
        self.sh
    }

    /// True when corrupted and shadow worlds differ bitwise.
    ///
    /// Two NaNs with identical bit patterns compare untainted: bitwise
    /// comparison deliberately side-steps `NaN != NaN`.
    #[inline]
    pub fn is_tainted(self) -> bool {
        self.v.to_bits() != self.sh.to_bits()
    }

    /// Whether the corrupted value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.v.is_finite()
    }

    /// Square root (tracked, not injectable).
    #[inline]
    pub fn sqrt(self) -> Tf64 {
        hook_unop(OpKind::Other, self, f64::sqrt)
    }

    /// Absolute value (tracked, not injectable).
    #[inline]
    pub fn abs(self) -> Tf64 {
        hook_unop(OpKind::Other, self, f64::abs)
    }

    /// Natural exponential (tracked, not injectable).
    #[inline]
    pub fn exp(self) -> Tf64 {
        hook_unop(OpKind::Other, self, f64::exp)
    }

    /// Natural logarithm (tracked, not injectable).
    #[inline]
    pub fn ln(self) -> Tf64 {
        hook_unop(OpKind::Other, self, f64::ln)
    }

    /// Sine (tracked, not injectable).
    #[inline]
    pub fn sin(self) -> Tf64 {
        hook_unop(OpKind::Other, self, f64::sin)
    }

    /// Cosine (tracked, not injectable).
    #[inline]
    pub fn cos(self) -> Tf64 {
        hook_unop(OpKind::Other, self, f64::cos)
    }

    /// Selection minimum: each world selects independently, so an error in
    /// a non-selected candidate is masked (as on real hardware).
    #[inline]
    pub fn min(self, other: Tf64) -> Tf64 {
        hook_binop(OpKind::Other, self, other, f64::min)
    }

    /// Selection maximum (see [`Tf64::min`]).
    #[inline]
    pub fn max(self, other: Tf64) -> Tf64 {
        hook_binop(OpKind::Other, self, other, f64::max)
    }

    /// Integer power via tracked multiplications.
    pub fn powi(self, n: i32) -> Tf64 {
        hook_binop(OpKind::Other, self, Tf64::new(n as f64), |a, b| {
            a.powi(b as i32)
        })
    }
}

impl From<f64> for Tf64 {
    #[inline]
    fn from(x: f64) -> Tf64 {
        Tf64::new(x)
    }
}

impl From<i32> for Tf64 {
    #[inline]
    fn from(x: i32) -> Tf64 {
        Tf64::new(x as f64)
    }
}

macro_rules! binop_impl {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $kind:expr, $f:expr) => {
        impl $trait for Tf64 {
            type Output = Tf64;
            #[inline]
            fn $method(self, rhs: Tf64) -> Tf64 {
                hook_binop($kind, self, rhs, $f)
            }
        }
        impl $trait<f64> for Tf64 {
            type Output = Tf64;
            #[inline]
            fn $method(self, rhs: f64) -> Tf64 {
                hook_binop($kind, self, Tf64::new(rhs), $f)
            }
        }
        impl $trait<Tf64> for f64 {
            type Output = Tf64;
            #[inline]
            fn $method(self, rhs: Tf64) -> Tf64 {
                hook_binop($kind, Tf64::new(self), rhs, $f)
            }
        }
        impl $assign_trait for Tf64 {
            #[inline]
            fn $assign_method(&mut self, rhs: Tf64) {
                *self = hook_binop($kind, *self, rhs, $f);
            }
        }
        impl $assign_trait<f64> for Tf64 {
            #[inline]
            fn $assign_method(&mut self, rhs: f64) {
                *self = hook_binop($kind, *self, Tf64::new(rhs), $f);
            }
        }
    };
}

binop_impl!(Add, add, AddAssign, add_assign, OpKind::Add, |a, b| a + b);
binop_impl!(Sub, sub, SubAssign, sub_assign, OpKind::Sub, |a, b| a - b);
binop_impl!(Mul, mul, MulAssign, mul_assign, OpKind::Mul, |a, b| a * b);
binop_impl!(Div, div, DivAssign, div_assign, OpKind::Div, |a, b| a / b);

impl Neg for Tf64 {
    type Output = Tf64;
    /// Negation is untracked (sign flip cannot absorb or create taint and
    /// is not an FP ALU op in the paper's injectable set).
    #[inline]
    fn neg(self) -> Tf64 {
        Tf64::computed(-self.v, -self.sh)
    }
}

impl PartialEq for Tf64 {
    /// Decided by the corrupted world (the execution that actually runs).
    #[inline]
    fn eq(&self, other: &Tf64) -> bool {
        self.v == other.v
    }
}

impl PartialEq<f64> for Tf64 {
    #[inline]
    fn eq(&self, other: &f64) -> bool {
        self.v == *other
    }
}

impl PartialOrd for Tf64 {
    /// Decided by the corrupted world.
    #[inline]
    fn partial_cmp(&self, other: &Tf64) -> Option<Ordering> {
        self.v.partial_cmp(&other.v)
    }
}

impl PartialOrd<f64> for Tf64 {
    #[inline]
    fn partial_cmp(&self, other: &f64) -> Option<Ordering> {
        self.v.partial_cmp(other)
    }
}

impl std::fmt::Display for Tf64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_tainted() {
            write!(f, "{}~(sh {})", self.v, self.sh)
        } else {
            write!(f, "{}", self.v)
        }
    }
}

/// Sum of a slice with a fixed left-to-right order (deterministic across
/// runs, which golden-output comparison relies on).
pub fn sum(xs: &[Tf64]) -> Tf64 {
    let mut acc = Tf64::ZERO;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Dot product with fixed order.
pub fn dot(a: &[Tf64], b: &[Tf64]) -> Tf64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = Tf64::ZERO;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_matches_f64() {
        let a = Tf64::new(3.5);
        let b = Tf64::new(-1.25);
        assert_eq!((a + b).value(), 3.5 + -1.25);
        assert_eq!((a - b).value(), 3.5 - -1.25);
        assert_eq!((a * b).value(), 3.5 * -1.25);
        assert_eq!((a / b).value(), 3.5 / -1.25);
        assert_eq!((-a).value(), -3.5);
        assert_eq!(a.sqrt().value(), 3.5f64.sqrt());
        assert_eq!(a.abs().value(), 3.5);
        assert_eq!(b.abs().value(), 1.25);
    }

    #[test]
    fn mixed_f64_ops() {
        let a = Tf64::new(2.0);
        assert_eq!((a + 1.0).value(), 3.0);
        assert_eq!((1.0 + a).value(), 3.0);
        assert_eq!((a * 4.0).value(), 8.0);
        assert_eq!((8.0 / a).value(), 4.0);
        let mut m = a;
        m += 1.0;
        m *= 2.0;
        assert_eq!(m.value(), 6.0);
    }

    #[test]
    fn taint_propagates_through_arithmetic() {
        let t = Tf64::from_parts(1.0 + 1e-9, 1.0);
        assert!(t.is_tainted());
        let clean = Tf64::new(2.0);
        assert!((t + clean).is_tainted());
        assert!((t * clean).is_tainted());
        assert!((clean / t).is_tainted());
        assert!(t.sqrt().is_tainted());
    }

    #[test]
    fn taint_absorbed_by_zero_multiplication() {
        let t = Tf64::from_parts(1.0 + 1e-9, 1.0);
        let z = Tf64::ZERO;
        let out = t * z;
        assert!(!out.is_tainted());
        assert_eq!(out.value(), 0.0);
    }

    #[test]
    fn taint_absorbed_by_rounding() {
        // 1e20 + tiny == 1e20 in binary64.
        let t = Tf64::from_parts(1e-9, 2e-9);
        assert!(t.is_tainted());
        let big = Tf64::new(1e20);
        let out = big + t;
        assert!(!out.is_tainted());
    }

    #[test]
    fn taint_masked_by_min_selection() {
        let corrupt_large = Tf64::from_parts(99.0, 5.0);
        let small = Tf64::new(1.0);
        // Both worlds select 1.0 -> untainted.
        assert!(!corrupt_large.min(small).is_tainted());
        // max selects 99.0 in corrupted world, 5.0 in shadow -> tainted.
        assert!(corrupt_large.max(small).is_tainted());
    }

    #[test]
    fn comparisons_follow_corrupted_world() {
        let t = Tf64::from_parts(10.0, 1.0);
        assert!(t > 5.0);
        assert!(t > Tf64::new(5.0));
        assert!(t == 10.0);
    }

    #[test]
    fn nan_same_bits_is_untainted() {
        let n = f64::NAN;
        let t = Tf64::from_parts(n, n);
        assert!(!t.is_tainted());
    }

    #[test]
    fn slice_helpers() {
        let xs = [Tf64::new(1.0), Tf64::new(2.0), Tf64::new(3.0)];
        assert_eq!(sum(&xs).value(), 6.0);
        assert_eq!(dot(&xs, &xs).value(), 14.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Tf64::new(1.5).to_string(), "1.5");
        assert_eq!(Tf64::from_parts(1.5, 2.0).to_string(), "1.5~(sh 2)");
    }

    #[test]
    fn neg_preserves_taint_state() {
        let t = Tf64::from_parts(1.0, 2.0);
        assert!((-t).is_tainted());
        let c = Tf64::new(1.0);
        assert!(!(-c).is_tainted());
    }

    #[test]
    fn powi() {
        let a = Tf64::new(2.0);
        assert_eq!(a.powi(10).value(), 1024.0);
    }
}
