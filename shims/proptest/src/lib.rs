//! Offline stand-in for `proptest`.
//!
//! Supports the subset the workspace uses: the `proptest!` block macro with
//! an optional `#![proptest_config(...)]` attribute, numeric range
//! strategies (`lo..hi`, `lo..=hi`), `collection::vec`, and
//! `prop_assert!`/`prop_assert_eq!`.
//! Instead of shrinking random failures, cases are generated from a
//! deterministic per-test seed, so failures reproduce exactly across runs.

use std::ops::{Range, RangeInclusive};

/// Everything the `proptest!` blocks need in scope.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Per-block configuration (only the case count is honoured).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the suite fast while still
        // probing each property from many directions.
        ProptestConfig { cases: 64 }
    }
}

/// A failed property case; produced by the `prop_assert*` macros.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Deterministic SplitMix64 generator used for case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name, so every property gets its own
    /// reproducible stream.
    pub fn deterministic(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: hash }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9007199254740992.0)
    }
}

/// Value-generation strategies; numeric ranges implement this.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + (self.end() - self.start()) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (self.end - self.start) * (rng.unit_f64() as f32)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "cannot generate from empty range");
                (self.start as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                (*self.start() as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from a range; built by
    /// [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `Vec` strategy drawing a length from `len`, then that many elements
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::generate(&self.len, rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over deterministically generated
/// inputs; the failing case's inputs are reported on panic.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            $vis fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            Ok(())
                        })();
                    if let Err(err) = outcome {
                        panic!(
                            "property '{}' failed at case {}: {}\n  inputs: {}",
                            stringify!($name),
                            case,
                            err,
                            format!(
                                concat!($(stringify!($arg), " = {:?}  ",)+),
                                $($arg),+
                            ),
                        );
                    }
                }
            }
        )*
    };
}

/// Property-scoped assertion: fails only the current case, with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Property-scoped equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    proptest! {
        #[test]
        fn ranges_respected(x in 0.25f64..0.75, n in 3usize..7) {
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert!((3..7).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Doc comments and config are accepted.
        #[test]
        fn config_controls_cases(seed in 0u64..100) {
            prop_assert_eq!(seed, seed);
        }
    }

    #[test]
    fn deterministic_rng_reproduces() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "property 'always_fails' failed")]
    fn failures_report_inputs() {
        mod inner {
            #[allow(unused_imports)]
            use crate::prelude::*;
            proptest! {
                pub fn always_fails(v in 0u32..10) {
                    prop_assert!(v > 100, "v was {}", v);
                }
            }
        }
        inner::always_fails();
    }
}
