//! Offline shim of `proptest`.
//!
//! Upstream proptest is a full property-testing framework with shrinking;
//! this shim keeps the same surface syntax (`proptest!`, `prop_assert*!`,
//! range/tuple/`prop_map`/`collection::vec` strategies) but runs each test as
//! a fixed number of deterministically-seeded random cases with **no
//! shrinking** — a failing case prints its inputs via the assertion message
//! instead of a minimized counterexample.

/// Strategy trait: a recipe for generating values of `Self::Value`.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// Generates random values for property tests.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through a function.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty => $via:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as $via).wrapping_sub(self.start as $via) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as $via).wrapping_sub(lo as $via) as u64;
                    lo.wrapping_add(rng.below(span.saturating_add(1)) as $t)
                }
            }
        )*};
    }
    range_strategy!(
        usize => u64, u64 => u64, u32 => u32, u16 => u16, u8 => u8,
        i64 => i64, i32 => i32, i16 => i16, i8 => i8
    );

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        elem: S,
        len: std::ops::Range<usize>,
    }

    /// Generates `Vec`s whose length is drawn from `len` and whose elements
    /// come from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Config and RNG plumbing used by the `proptest!` expansion.
pub mod test_runner {
    /// Number-of-cases configuration (`ProptestConfig::with_cases(n)`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// How many random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// SplitMix64 RNG, seeded deterministically from the test name so runs
    /// are reproducible.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from an arbitrary string (FNV-1a hash).
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound == 0` yields the full u64 range.
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return self.next_u64();
            }
            if bound.is_power_of_two() {
                return self.next_u64() & (bound - 1);
            }
            let zone = u64::MAX - (u64::MAX % bound);
            loop {
                let x = self.next_u64();
                if x < zone {
                    return x % bound;
                }
            }
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Everything tests import (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespace matching upstream's `prop::` re-exports.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    // Internal expansion arm — must precede the catch-all below or the
    // `@cfg` re-invocation would match the catch-all and recurse forever.
    (@cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..cfg.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);
                    )+
                    $body
                }
            }
        )*
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// `assert!` under a name call sites expect; no shrinking, plain panic.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a name call sites expect.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a name call sites expect.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(
            a in 3usize..10,
            pair in (0u32..4, -2i64..=2),
            xs in prop::collection::vec(0u8..5, 1..6)
        ) {
            prop_assert!((3..10).contains(&a));
            prop_assert!(pair.0 < 4);
            prop_assert!((-2..=2).contains(&pair.1));
            prop_assert!(!xs.is_empty() && xs.len() < 6);
            prop_assert!(xs.iter().all(|&x| x < 5));
        }

        #[test]
        fn prop_map_composes(v in (1usize..5, 1usize..5).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..25).contains(&v));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut r1 = crate::test_runner::TestRng::from_name("x");
        let mut r2 = crate::test_runner::TestRng::from_name("x");
        let s = 0usize..100;
        for _ in 0..50 {
            assert_eq!(s.clone().sample(&mut r1), s.clone().sample(&mut r2));
        }
    }
}
