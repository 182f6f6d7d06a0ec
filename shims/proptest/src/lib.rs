//! Offline stand-in for `proptest`.
//!
//! Runs each property as a fixed number of deterministically-sampled
//! cases (seeded from the test's name) instead of the real crate's
//! adaptive generation and shrinking. The strategy surface matches what
//! this workspace's tests use: `u8`/`u32`/`u64`/`usize`, `i64` and `f64`
//! ranges, `any::<u64>()` and `any::<bool>()`, `Just`, `prop_oneof!`,
//! `prop::sample::select`, `prop::collection::vec`, 2- to 4-tuple
//! strategies, `prop_map`, and the `prop::num::f64` class strategies
//! with `|` union.
//! No shrinking: a failing case reports its seed and values instead.

/// Deterministic test-case RNG (splitmix64).
pub mod test_runner {
    /// Per-test random source; every case's draws derive from the test
    /// name and case index only.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test name (FNV-1a) — stable across runs.
        pub fn from_name(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0);
            self.next_u64() % n
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;

    /// A source of sampled values.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erase this strategy (an arm of a [`Union`]).
        fn boxed(self) -> Box<dyn Strategy<Value = Self::Value>>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Strategy always producing one fixed value (`proptest::strategy::Just`).
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed same-typed strategies — the target of
    /// the [`prop_oneof!`](crate::prop_oneof) macro.
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Union over a non-empty list of alternatives.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].sample(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let width = (self.end as i128 - self.start as i128) as u64;
                    self.start.wrapping_add(rng.below(width) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty strategy range");
                    let width = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                    self.start().wrapping_add(rng.below(width) as $t)
                }
            }
        )*};
    }
    impl_int_range!(u8, u32, u64, usize);

    impl Strategy for std::ops::Range<i64> {
        type Value = i64;
        fn sample(&self, rng: &mut TestRng) -> i64 {
            assert!(self.start < self.end, "empty strategy range");
            let width = (self.end as i128 - self.start as i128) as u64;
            (self.start as i128 + rng.below(width) as i128) as i64
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident : $i:tt),+)),+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy!((A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));
}

pub use strategy::{Just, Strategy};

/// Uniform choice among alternative strategies producing the same type
/// (`proptest::prop_oneof!`; weights are not supported).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        $crate::strategy::Union::new(::std::vec![$($crate::Strategy::boxed($strat)),+])
    }};
}

/// Types with a canonical "anything" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type behind [`any`].
    type Strategy: Strategy<Value = Self>;
    /// The full-range strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-range strategy marker for [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl Strategy for Any<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for u64 {
    type Strategy = Any<u64>;
    fn arbitrary() -> Any<u64> {
        Any(std::marker::PhantomData)
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Arbitrary for bool {
    type Strategy = Any<bool>;
    fn arbitrary() -> Any<bool> {
        Any(std::marker::PhantomData)
    }
}

/// `any::<T>()` — the full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// `prop::sample` — choosing among fixed alternatives.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy over an explicit list of options.
    pub struct Select<T>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// Uniform choice from a non-empty list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select(options)
    }
}

/// `prop::collection` — container strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Sizes a generated collection: a fixed length or a half-open range.
    pub trait SizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// Strategy for `Vec<S::Value>` with a [`SizeRange`] length.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec(strategy, len)`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// `prop::num` — numeric class strategies.
pub mod num {
    /// `f64` classes.
    pub mod f64 {
        use crate::{Strategy, TestRng};

        /// A union of `f64` value classes, sampled uniformly by class.
        /// Classes combine with `|` (e.g. `NORMAL | SUBNORMAL | ZERO`).
        #[derive(Debug, Clone, Copy)]
        pub struct F64Class {
            mask: u8,
        }

        /// Normal (non-zero, non-subnormal, finite) values of either sign.
        pub const NORMAL: F64Class = F64Class { mask: 1 };
        /// Subnormal values of either sign.
        pub const SUBNORMAL: F64Class = F64Class { mask: 2 };
        /// Positive and negative zero.
        pub const ZERO: F64Class = F64Class { mask: 4 };

        impl std::ops::BitOr for F64Class {
            type Output = F64Class;
            fn bitor(self, rhs: F64Class) -> F64Class {
                F64Class {
                    mask: self.mask | rhs.mask,
                }
            }
        }

        impl Strategy for F64Class {
            type Value = f64;
            fn sample(&self, rng: &mut TestRng) -> f64 {
                let classes: Vec<u8> = (0..3)
                    .map(|i| 1u8 << i)
                    .filter(|c| self.mask & c != 0)
                    .collect();
                assert!(!classes.is_empty(), "empty f64 class mask");
                let class = classes[rng.below(classes.len() as u64) as usize];
                let sign = rng.next_u64() & (1 << 63);
                match class {
                    1 => loop {
                        let x = f64::from_bits(rng.next_u64());
                        if x.is_normal() {
                            return x;
                        }
                    },
                    2 => f64::from_bits(sign | (1 + rng.below((1u64 << 52) - 1))),
                    _ => f64::from_bits(sign),
                }
            }
        }
    }
}

/// Namespaced re-exports matching `proptest::prop::*` paths.
pub mod prop {
    pub use crate::collection;
    pub use crate::num;
    pub use crate::sample;
}

/// Per-property configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 32 }
    }
}

/// Sentinel prefix distinguishing `prop_assume!` rejections from real
/// assertion failures inside the generated test loop.
#[doc(hidden)]
pub const ASSUME_REJECT: &str = "__proptest_shim_assume__";

/// Run one sampled case of a property body. The body is a closure so the
/// `prop_assert*!` macros can `return` its failure.
#[doc(hidden)]
pub fn run_case(case: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    case()
}

/// Define property tests: each `#[test] fn name(pat in strategy, ...)
/// { body }` becomes a test running `cases` deterministic samples. As
/// with the real crate, the `#[test]` attribute is written at the call
/// site; the macro passes attributes through and adds none.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $(let $pat = $crate::Strategy::sample(&$strat, &mut __rng);)*
                match $crate::run_case(|| { $body ::std::result::Result::Ok(()) }) {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err(e) if e.starts_with($crate::ASSUME_REJECT) => {}
                    ::std::result::Result::Err(e) => {
                        panic!("property {} failed at case {}: {}", stringify!($name), __case, e)
                    }
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Assert inside a property; failure reports the sampled case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)
            ));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($a), stringify!($b), __a, __b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(__a == __b) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?}): {}",
                stringify!($a), stringify!($b), __a, __b, format!($($fmt)+)
            ));
        }
    }};
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($a), stringify!($b), __a
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {} (both {:?}): {}",
                stringify!($a), stringify!($b), __a, format!($($fmt)+)
            ));
        }
    }};
}

/// Skip cases that don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::string::String::from($crate::ASSUME_REJECT));
        }
    };
}

/// The glob-import surface: `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{any, Arbitrary, ProptestConfig};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -5i64..5, z in 0.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.0..1.0).contains(&z), "z = {z}");
        }

        #[test]
        fn vec_and_select(
            v in prop::collection::vec(0u32..7, 2..5),
            pick in prop::sample::select(vec![10usize, 20, 30]),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&e| e < 7));
            prop_assert_eq!(pick % 10, 0);
        }

        #[test]
        fn tuples_map_and_assume((a, b) in (0u32..100, 0u32..100).prop_map(|(x, y)| (x, x + y))) {
            prop_assume!(a % 7 != 0);
            prop_assert!(b >= a);
            prop_assert_ne!(a % 7, 0);
        }

        #[test]
        fn f64_classes(x in prop::num::f64::NORMAL | prop::num::f64::SUBNORMAL | prop::num::f64::ZERO) {
            prop_assert!(x == 0.0 || x.is_normal() || x.is_subnormal());
        }

        #[test]
        fn any_u64_covers_high_bits(x in any::<u64>()) {
            let _ = x;
        }

        #[test]
        fn oneof_and_just(
            x in prop_oneof![
                Just(0usize),
                (1usize..4).prop_map(|v| v * 10),
                10usize..=12,
            ],
        ) {
            prop_assert!(x == 0 || (10..=12).contains(&x) || x == 20 || x == 30, "x = {x}");
        }

        #[test]
        fn inclusive_ranges_hit_both_ends(x in 5u8..=6) {
            prop_assert!(x == 5 || x == 6);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::from_name("t");
        let mut b = crate::test_runner::TestRng::from_name("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
