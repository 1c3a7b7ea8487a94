//! Offline mini property-testing harness.
//!
//! The build environment cannot fetch the real `proptest` crate, so this shim
//! implements the exact subset the workspace's tests use: the `proptest!`
//! macro with an optional `#![proptest_config(...)]` header, range and
//! `prop::collection::vec` strategies, and the `prop_assert*` macros. Inputs
//! are drawn from a deterministic per-case RNG rather than shrunk on failure;
//! a failing case therefore reports the concrete assertion, not a minimal
//! input, which is an acceptable trade for a dependency-free build.
#![forbid(unsafe_code)]

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A generator of random test inputs.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Number-of-elements specification for [`vec()`]: an exact size or a
    /// half-open range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self {
                lo: exact,
                hi: exact + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "empty size range");
            Self {
                lo: range.start,
                hi: range.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a strategy for vectors whose elements come from `element` and
    /// whose length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi.max(self.size.lo + 1));
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Builds the deterministic RNG for one test case. Public for the macro
/// expansion only.
#[doc(hidden)]
pub fn test_rng(case: u64) -> StdRng {
    StdRng::seed_from_u64(0xD1F0_5EED_0000_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Property assertion; identical to `assert!` in this shim.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion; identical to `assert_eq!` in this shim.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion; identical to `assert_ne!` in this shim.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Test-case assumption: a failed assumption skips the current random case
/// (the shim's expansion runs cases in a loop, so this is a plain
/// `continue`). Real proptest additionally re-draws a replacement input;
/// the shim simply moves on to the next seed.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            continue;
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr; $( $(#[$attr:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_rng(__case as u64);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { ... }`
/// becomes a `#[test]` that runs the body against `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!($crate::ProptestConfig::default(); $($rest)*);
    };
}

/// The names `use proptest::prelude::*` is expected to bring into scope.
pub mod prelude {
    /// Alias so `prop::collection::vec(...)` resolves as in real proptest.
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 0u64..100, y in -1.0f64..1.0) {
            prop_assert!(x < 100);
            prop_assert!((-1.0..1.0).contains(&y));
        }

        #[test]
        fn vec_strategy_controls_length(
            fixed in prop::collection::vec(0.0f64..1.0, 7),
            ranged in prop::collection::vec(prop::collection::vec(0u32..5, 2), 3..6),
        ) {
            prop_assert_eq!(fixed.len(), 7);
            prop_assert!((3..6).contains(&ranged.len()));
            prop_assert_ne!(ranged.len(), 0);
        }
    }

    proptest! {
        #[test]
        fn assumptions_skip_cases(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_also_works(x in 1usize..4) {
            prop_assert!((1..4).contains(&x));
        }
    }
}
