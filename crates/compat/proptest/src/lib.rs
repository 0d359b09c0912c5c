//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of the proptest API this workspace uses:
//!
//! * the [`proptest!`] macro with `#![proptest_config(...)]` and
//!   `arg in strategy` parameter syntax;
//! * range strategies over the primitive integer/float types;
//! * [`collection::vec`] for vectors of ranged values;
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Unlike the real crate there is no shrinking: a failing case panics
//! immediately and prints the sampled values, which is enough to reproduce
//! (sampling is deterministic per test name).

/// Deterministic RNG used to drive strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x5851_F42D_4C95_7F2D,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

pub mod strategy {
    use super::TestRng;

    /// A value source: the stand-in's version of `proptest::strategy::Strategy`.
    pub trait Strategy {
        /// The type of values produced.
        type Value: core::fmt::Debug;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128 + 1) as u128;
                    (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    int_strategies!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let (start, end) = (*self.start(), *self.end());
            start + rng.next_f64() * (end - start)
        }
    }

    /// A constant strategy (`Just(v)`), for completeness.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + core::fmt::Debug>(pub T);

    impl<T: Clone + core::fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`fn@vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = Strategy::sample(&self.len, rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    use super::TestRng;

    /// Error type produced by `prop_assert!` and friends.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            Self {
                message: message.into(),
            }
        }

        /// The failure message.
        pub fn message(&self) -> &str {
            &self.message
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Per-test execution settings.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to sample and execute.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Creates a config executing `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            Self { cases }
        }
    }

    /// Drives the cases of one property test deterministically.
    #[derive(Debug)]
    pub struct TestRunner {
        config: ProptestConfig,
        rng: TestRng,
    }

    impl TestRunner {
        /// Creates a runner whose RNG stream is derived from the test name.
        pub fn new(config: ProptestConfig, name: &str) -> Self {
            // FNV-1a over the test name gives each test its own stream.
            let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self {
                config,
                rng: TestRng::new(hash),
            }
        }

        /// Number of cases to execute.
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// The runner's RNG.
        pub fn rng(&mut self) -> &mut TestRng {
            &mut self.rng
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests; see the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config, concat!(module_path!(), "::", stringify!($name)));
            for case in 0..runner.cases() {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), runner.rng());)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> = (|| {
                    { $body }
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(err) = outcome {
                    panic!(
                        "property test {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name),
                        case + 1,
                        runner.cases(),
                        err,
                        [$(format!(concat!(stringify!($arg), " = {:?}"), $arg)),+].join(", "),
                    );
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    (($cfg:expr);) => {};
}

/// Fails the current property-test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current property-test case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Fails the current property-test case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the rest of the case when the assumption does not hold.
///
/// The stand-in cannot resample, so an unmet assumption simply ends the case
/// successfully (matching proptest's "discard" semantics closely enough for
/// the rejection rates this workspace uses).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 3usize..17, b in -2.0..2.0, c in 0u64..5) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-2.0..2.0).contains(&b));
            prop_assert!(c < 5);
        }

        #[test]
        fn vec_strategy_respects_lengths(v in crate::collection::vec(0usize..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    #[should_panic(expected = "property test")]
    #[allow(unnameable_test_items)]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            #[test]
            fn always_fails(x in 0usize..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }

    #[test]
    fn sampling_is_deterministic() {
        let mut a = TestRunner::new(ProptestConfig::with_cases(8), "t");
        let mut b = TestRunner::new(ProptestConfig::with_cases(8), "t");
        for _ in 0..100 {
            assert_eq!(a.rng().next_u64(), b.rng().next_u64());
        }
    }
}
