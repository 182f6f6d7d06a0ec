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
//!
//! ## Kernel blocks
//!
//! Every `Tf64` operator goes through the per-op hooks of
//! [`ctx`](crate::ctx). A hot loop whose op counts are known before it
//! runs is written once as a [`Block`], generic over the sealed
//! [`Arith`] trait, and run by [`run_block`]: when
//! [`ctx::charge`](crate::ctx::charge) counts its ops in one step it runs
//! on a plain twin of `Tf64` — private to this crate, the same IEEE op on
//! each world, no hook — and otherwise on `Tf64`, op by op. Both are the
//! same generic code, so they run the same ops on the same operands in
//! the same order; [`Block`] lists the rules a block keeps. [`sum`] and
//! [`dot`] are blocks.

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

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Tf64 {}
    impl Sealed for super::Plain {}
}

/// The two-world arithmetic a kernel [`Block`] is written over. Sealed:
/// its two impls are [`Tf64`], whose ops go through the per-op hooks, and
/// a plain twin private to this crate, whose ops are the same IEEE ops on
/// the same two worlds with no hook. [`run_block`] picks one per block,
/// so a block's code is written once and both versions run the same ops
/// on the same operands in the same order.
pub trait Arith:
    sealed::Sealed
    + Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Neg<Output = Self>
{
    /// An untainted zero.
    const ZERO: Self;
    /// An untainted constant ([`Tf64::new`]).
    fn new(x: f64) -> Self;
    /// A tracked scalar the block reads.
    fn from_tf64(x: Tf64) -> Self;
    /// A scalar the block hands back.
    fn to_tf64(self) -> Tf64;
    /// A slice of tracked scalars, read in place.
    fn view(xs: &[Tf64]) -> &[Self];
    /// A slice of tracked scalars, written in place.
    fn view_mut(xs: &mut [Tf64]) -> &mut [Self];
    /// Natural exponential ([`Tf64::exp`]).
    fn exp(self) -> Self;
}

impl Arith for Tf64 {
    const ZERO: Tf64 = Tf64::ZERO;
    #[inline]
    fn new(x: f64) -> Tf64 {
        Tf64::new(x)
    }
    #[inline]
    fn from_tf64(x: Tf64) -> Tf64 {
        x
    }
    #[inline]
    fn to_tf64(self) -> Tf64 {
        self
    }
    #[inline]
    fn view(xs: &[Tf64]) -> &[Tf64] {
        xs
    }
    #[inline]
    fn view_mut(xs: &mut [Tf64]) -> &mut [Tf64] {
        xs
    }
    #[inline]
    fn exp(self) -> Tf64 {
        Tf64::exp(self)
    }
}

/// The plain twin of [`Tf64`]: the same two worlds, each op computed as
/// the hook computes it but without the hook (see [`Arith`]). Private, so
/// only [`run_block`] can run a block on it — after
/// [`ctx::charge`](crate::ctx::charge) counted the block's ops.
#[derive(Clone, Copy)]
#[repr(transparent)]
struct Plain(Tf64);

impl Plain {
    /// `f` applied to each world's operand pair.
    #[inline(always)]
    fn zip(self, rhs: Plain, f: impl Fn(f64, f64) -> f64) -> Plain {
        Plain(Tf64::computed(f(self.0.v, rhs.0.v), f(self.0.sh, rhs.0.sh)))
    }
}

impl Arith for Plain {
    const ZERO: Plain = Plain(Tf64::ZERO);
    #[inline]
    fn new(x: f64) -> Plain {
        Plain(Tf64::new(x))
    }
    #[inline]
    fn from_tf64(x: Tf64) -> Plain {
        Plain(x)
    }
    #[inline]
    fn to_tf64(self) -> Tf64 {
        self.0
    }
    #[inline]
    fn view(xs: &[Tf64]) -> &[Plain] {
        // SAFETY: `Plain` is a `repr(transparent)` wrapper of `Tf64`, so
        // the two slices have the same layout, length and lifetime.
        unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<Plain>(), xs.len()) }
    }
    #[inline]
    fn view_mut(xs: &mut [Tf64]) -> &mut [Plain] {
        // SAFETY: as in `view`; the borrow is exclusive for its lifetime.
        unsafe { std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast::<Plain>(), xs.len()) }
    }
    #[inline]
    fn exp(self) -> Plain {
        Plain(Tf64::computed(self.0.v.exp(), self.0.sh.exp()))
    }
}

macro_rules! plain_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $f:expr) => {
        impl $trait for Plain {
            type Output = Plain;
            #[inline(always)]
            fn $method(self, rhs: Plain) -> Plain {
                self.zip(rhs, $f)
            }
        }
        impl $assign_trait for Plain {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: Plain) {
                *self = self.zip(rhs, $f);
            }
        }
    };
}

plain_binop!(Add, add, AddAssign, add_assign, |a, b| a + b);
plain_binop!(Sub, sub, SubAssign, sub_assign, |a, b| a - b);
plain_binop!(Mul, mul, MulAssign, mul_assign, |a, b| a * b);
plain_binop!(Div, div, DivAssign, div_assign, |a, b| a / b);

impl Neg for Plain {
    type Output = Plain;
    /// Untracked, as [`Tf64`]'s negation is.
    #[inline(always)]
    fn neg(self) -> Plain {
        Plain(-self.0)
    }
}

/// A kernel block: a stretch of tracked arithmetic whose op counts are
/// known before it runs. [`run_block`] charges [`Block::ops`] to the
/// current region at once and runs [`Block::run`] on the plain twin, or,
/// where the block holds an injection target or the hang guard's op (or
/// the context is watching), runs it on [`Tf64`] op by op.
///
/// A block must keep four rules, or the charge and the ops that run
/// disagree:
///
/// 1. its counts are a function of sizes alone;
/// 2. it runs in one region;
/// 3. it makes no fabric call and enters no region;
/// 4. it has no value-dependent branch, check or panic.
pub trait Block {
    /// What the block hands back.
    type Output;
    /// Ops the block runs per kind, indexed by [`OpKind::index`]; exact.
    fn ops(&self) -> [u64; 5];
    /// The block's arithmetic, written once over either [`Arith`] impl.
    fn run<T: Arith>(self) -> Self::Output;
}

/// Run `block`: hook-free if [`ctx::charge`](crate::ctx::charge) counted
/// its ops, op by op through the hooks otherwise.
#[inline]
pub fn run_block<B: Block>(block: B) -> B::Output {
    if crate::ctx::charge(block.ops()) {
        block.run::<Plain>()
    } else {
        block.run::<Tf64>()
    }
}

/// [`sum`] as a block.
struct Sum<'a>(&'a [Tf64]);

impl Block for Sum<'_> {
    type Output = Tf64;
    fn ops(&self) -> [u64; 5] {
        [self.0.len() as u64, 0, 0, 0, 0]
    }
    fn run<T: Arith>(self) -> Tf64 {
        let mut acc = T::ZERO;
        for &x in T::view(self.0) {
            acc += x;
        }
        acc.to_tf64()
    }
}

/// [`dot`] as a block.
struct Dot<'a>(&'a [Tf64], &'a [Tf64]);

impl Block for Dot<'_> {
    type Output = Tf64;
    fn ops(&self) -> [u64; 5] {
        let n = self.0.len() as u64;
        [n, 0, n, 0, 0]
    }
    fn run<T: Arith>(self) -> Tf64 {
        let mut acc = T::ZERO;
        for (&x, &y) in T::view(self.0).iter().zip(T::view(self.1)) {
            acc += x * y;
        }
        acc.to_tf64()
    }
}

/// Sum of a slice with a fixed left-to-right order (deterministic across
/// runs, which golden-output comparison relies on).
pub fn sum(xs: &[Tf64]) -> Tf64 {
    run_block(Sum(xs))
}

/// Dot product with fixed order.
pub fn dot(a: &[Tf64], b: &[Tf64]) -> Tf64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    run_block(Dot(a, b))
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

    /// A chain of every [`Arith`] op over the slice, in place.
    fn chain<T: Arith>(xs: &mut [Tf64]) -> Tf64 {
        let v = T::view_mut(xs);
        for i in 1..v.len() {
            let prev = v[i - 1];
            v[i] = prev * v[i] + v[i] - T::new(0.5) / prev;
            v[i] -= -prev;
            v[i] *= T::from_tf64(Tf64::new(0.75));
            v[i] /= T::new(1.5);
        }
        v[0] = v[0].exp();
        let mut acc = T::ZERO;
        for &x in T::view(xs) {
            acc += x;
        }
        acc.to_tf64()
    }

    #[test]
    fn plain_twin_matches_the_hooked_ops_bit_for_bit() {
        let xs: Vec<Tf64> = (0..9)
            .map(|i| Tf64::computed(0.3 + i as f64, 0.3 + i as f64 * (1.0 + 1e-9)))
            .collect();
        let (mut hooked, mut plain) = (xs.clone(), xs);
        let bits = |t: Tf64| (t.value().to_bits(), t.shadow().to_bits());
        assert_eq!(
            bits(chain::<Tf64>(&mut hooked)),
            bits(chain::<Plain>(&mut plain))
        );
        assert_eq!(
            hooked.iter().map(|&t| bits(t)).collect::<Vec<_>>(),
            plain.iter().map(|&t| bits(t)).collect::<Vec<_>>()
        );
        assert!(plain[1..].iter().all(|t| t.is_tainted()));
    }

    #[test]
    fn blocks_count_what_the_hooks_count() {
        use crate::{ctx, RankCtx, Region};
        let xs: Vec<Tf64> = (0..7).map(|i| Tf64::new(i as f64 * 0.5)).collect();
        let profile = |charged: bool| {
            assert!(ctx::install(RankCtx::profiling(0)).is_none());
            if !charged {
                // Watching refuses every block: each runs per op.
                let _ = Tf64::from_parts(1.0, 1.0 + f64::EPSILON);
            }
            let d = dot(&xs, &xs);
            let s = sum(&xs);
            let report = ctx::take().unwrap().into_report();
            ((d.value(), s.value()), report.profile)
        };
        let (charged, per_op) = (profile(true), profile(false));
        assert_eq!(charged, per_op);
        assert_eq!(charged.0, (22.75, 10.5));
        assert_eq!(charged.1.region(Region::Common).per_kind, [14, 0, 7, 0, 0]);
    }

    #[test]
    fn powi() {
        let a = Tf64::new(2.0);
        assert_eq!(a.powi(10).value(), 1024.0);
    }
}
