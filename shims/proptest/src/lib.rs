//! Offline stand-in for the crates.io `proptest` crate.
//!
//! The build container has no registry access, so the workspace vendors a
//! minimal property-testing engine with proptest's *names and shapes*:
//! the [`Strategy`] trait with `prop_map`, range/tuple/`Just` strategies,
//! [`collection::vec`], [`option::of`], `prop_oneof!`, and the
//! `proptest! { #[test] fn f(x in strat) { .. } }` macro with
//! `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from real proptest, deliberate for an offline shim:
//!
//! * **No shrinking.** A failing case reports the generated inputs
//!   verbatim (cases are deterministic per test name + case index, so a
//!   failure reproduces exactly on re-run).
//! * **No persistence files.** Regressions are re-found by the fixed seed
//!   schedule rather than recorded.
//!
//! Each test runs [`ProptestConfig::cases`] generated cases (default 256,
//! like proptest).

use std::fmt;

pub mod strategy;

pub use strategy::{BoxedStrategy, Just, Strategy, Union};

/// Deterministic split-mix RNG driving generation.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a hash of a test name: the per-test base seed.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases to run.
    pub cases: u32,
    /// Accepted for source compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A failed property within a test body (`prop_assert!` and friends).
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Constructs a failure from any displayable message. Usable as a
    /// function value, e.g. `.map_err(TestCaseError::fail)?`.
    pub fn fail<M: fmt::Display>(message: M) -> TestCaseError {
        TestCaseError {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact length or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                min: r.start,
                max: r.end.max(r.start + 1),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min).max(1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy producing `Option<S::Value>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` roughly three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Arbitrary values (`proptest::prelude::any`).
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.next_f64()
        }
    }

    /// Strategy for [`Arbitrary`] types.
    pub struct Any<T> {
        _marker: PhantomData<fn() -> T>,
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Everything a test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, ProptestConfig,
        TestCaseError,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {{
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: `{:?}`\n right: `{:?}`",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// Fails the current case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: `{:?}`",
                l
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($s)),+])
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the same surface the workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
///
///     #[test]
///     fn prop(xs in proptest::collection::vec(any::<u64>(), 1..9)) {
///         prop_assert!(xs.len() < 9);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let base = $crate::fnv1a(stringify!($name));
            for case in 0..cfg.cases {
                let mut rng = $crate::TestRng::new(
                    base ^ (case as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}\n"),+),
                    $(&$arg),+
                );
                let run = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                };
                match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => {
                        panic!(
                            "proptest {} failed at case {}/{}: {}\ninputs:\n{}",
                            stringify!($name), case, cfg.cases, e, inputs
                        );
                    }
                    ::std::result::Result::Err(payload) => {
                        eprintln!(
                            "proptest {} panicked at case {}/{}\ninputs:\n{}",
                            stringify!($name), case, cfg.cases, inputs
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::TestRng::new(42);
        let mut b = crate::TestRng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(7);
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (0u8..=255).generate(&mut rng);
            let _ = w; // full domain: just must not panic
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_and_option_shapes() {
        let mut rng = crate::TestRng::new(9);
        let mut saw_none = false;
        let mut saw_some = false;
        for _ in 0..200 {
            let v = crate::collection::vec(any::<u64>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            match crate::option::of(any::<u64>()).generate(&mut rng) {
                None => saw_none = true,
                Some(_) => saw_some = true,
            }
        }
        assert!(saw_none && saw_some);
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = crate::TestRng::new(11);
        let strat = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(strat.generate(&mut rng) - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_and_checks(
            xs in crate::collection::vec((0u64..100).prop_map(|v| v * 2), 1..10),
            flag in any::<bool>(),
        ) {
            prop_assert!(!xs.is_empty());
            for x in &xs {
                prop_assert_eq!(x % 2, 0, "mapped strategy must double: {}", x);
            }
            let _ = flag;
        }
    }
}
