//! An offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, implementing exactly the API subset this workspace uses.
//!
//! The build environment has no access to a crates registry, so the real
//! proptest cannot be a dependency. Property-based tests are too valuable
//! to drop, hence this shim: the same `proptest!` macro surface,
//! [`Strategy`](strategy::Strategy) combinators, and collection/array/
//! tuple strategies, driven by the workspace's own seeded [`fp_prng`]
//! generator.
//!
//! Differences from the real crate (documented, deliberate):
//!
//! * **No shrinking.** A failing case panics with its case index and
//!   derived seed; reproduce it by rerunning the test (sampling is fully
//!   deterministic per test name).
//! * **Rejections are bounded, not fatal.** `prop_filter` rejections
//!   resample up to a fixed factor of the case count, then the run simply
//!   stops early instead of erroring.
//! * `prop_assume!` skips the rest of the case rather than resampling.
//! * String strategies support only the `.{lo,hi}` pattern form (any
//!   other pattern yields the pattern itself as a literal).
//!
//! The default case count is 64 per test (override with the
//! `PROPTEST_CASES` environment variable), keeping full-workspace test
//! runs fast while preserving real randomized coverage.

#![forbid(unsafe_code)]

/// The generator driving all sampling.
pub type TestRng = fp_prng::Xoshiro256;

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use super::TestRng;

    /// A boxed, type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    /// A source of pseudo-random values of one type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value; `None` signals a filter rejection (the runner
        /// resamples).
        fn try_sample(&self, rng: &mut TestRng) -> Option<Self::Value>;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Rejects values failing `f` (the runner resamples; `_reason` is
        /// kept for API compatibility).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            _reason: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { inner: self, f }
        }

        /// Chains into a dependent strategy built from each value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases this strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn try_sample(&self, rng: &mut TestRng) -> Option<Self::Value> {
            (**self).try_sample(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn try_sample(&self, _rng: &mut TestRng) -> Option<T> {
            Some(self.0.clone())
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn try_sample(&self, rng: &mut TestRng) -> Option<O> {
            self.inner.try_sample(rng).map(&self.f)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn try_sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            self.inner.try_sample(rng).filter(|v| (self.f)(v))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn try_sample(&self, rng: &mut TestRng) -> Option<S2::Value> {
            (self.f)(self.inner.try_sample(rng)?).try_sample(rng)
        }
    }

    /// Uniform choice between same-valued strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        /// The alternatives (non-empty).
        pub options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn try_sample(&self, rng: &mut TestRng) -> Option<T> {
            assert!(!self.options.is_empty(), "prop_oneof! needs an option");
            let i = rng.gen_range(0..self.options.len());
            self.options[i].try_sample(rng)
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn try_sample(&self, rng: &mut TestRng) -> Option<$t> {
                    Some(rng.gen_range(self.clone()))
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn try_sample(&self, rng: &mut TestRng) -> Option<$t> {
                    Some(rng.gen_range(self.clone()))
                }
            }
        )*};
    }

    impl_int_range!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

    macro_rules! impl_float_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn try_sample(&self, rng: &mut TestRng) -> Option<$t> {
                    Some(rng.gen_range(self.clone()))
                }
            }
        )*};
    }

    impl_float_range!(f32, f64);

    macro_rules! impl_tuple {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn try_sample(&self, rng: &mut TestRng) -> Option<Self::Value> {
                    let ($($name,)+) = self;
                    Some(($($name.try_sample(rng)?,)+))
                }
            }
        };
    }

    impl_tuple!(A);
    impl_tuple!(A, B);
    impl_tuple!(A, B, C);
    impl_tuple!(A, B, C, D);
    impl_tuple!(A, B, C, D, E);
    impl_tuple!(A, B, C, D, E, F);

    /// Pattern strategy for strings: supports the `.{lo,hi}` form (a
    /// string of `lo..=hi` arbitrary characters); any other pattern is
    /// produced verbatim.
    impl Strategy for &'static str {
        type Value = String;
        fn try_sample(&self, rng: &mut TestRng) -> Option<String> {
            let Some((lo, hi)) = parse_dot_repeat(self) else {
                return Some((*self).to_owned());
            };
            let len = rng.gen_range(lo..=hi);
            let mut out = String::with_capacity(len);
            for _ in 0..len {
                out.push(arbitrary_char(rng));
            }
            Some(out)
        }
    }

    fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
        let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = rest.split_once(',')?;
        let lo: usize = lo.trim().parse().ok()?;
        let hi: usize = hi.trim().parse().ok()?;
        (lo <= hi).then_some((lo, hi))
    }

    /// A character mix biased towards the bytes grammars care about
    /// (ASCII punctuation, digits, whitespace) with some multibyte
    /// outliers.
    fn arbitrary_char(rng: &mut TestRng) -> char {
        const SPICE: &[char] = &[
            '(',
            ')',
            '#',
            'x',
            'X',
            '\n',
            '\t',
            ' ',
            '0',
            '9',
            '\u{e9}',
            '\u{1F600}',
            '\u{0}',
        ];
        if rng.gen_bool(0.3) {
            SPICE[rng.gen_range(0..SPICE.len())]
        } else {
            char::from(rng.gen_range(0x20u8..0x7F))
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec`s of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn try_sample(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.try_sample(rng)?);
            }
            Some(out)
        }
    }
}

pub mod array {
    //! Fixed-size array strategies.

    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy for `[S::Value; N]` sampling `element` independently.
    pub struct UniformArray<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];
        fn try_sample(&self, rng: &mut TestRng) -> Option<Self::Value> {
            let mut out = Vec::with_capacity(N);
            for _ in 0..N {
                out.push(self.0.try_sample(rng)?);
            }
            out.try_into().ok()
        }
    }

    /// An array of 4 independent samples.
    pub fn uniform4<S: Strategy>(element: S) -> UniformArray<S, 4> {
        UniformArray(element)
    }

    /// An array of 5 independent samples.
    pub fn uniform5<S: Strategy>(element: S) -> UniformArray<S, 5> {
        UniformArray(element)
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::strategy::Strategy;
    use super::TestRng;

    /// The strategy behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// A fair coin.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn try_sample(&self, rng: &mut TestRng) -> Option<bool> {
            Some(rng.next_u64() & 1 == 1)
        }
    }
}

pub mod test_runner {
    //! The per-test case loop.

    use super::TestRng;

    /// Per-test configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// What one sampled case did.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CaseOutcome {
        /// The case body ran (asserts passed or it panicked out).
        Pass,
        /// A strategy-level rejection; resample.
        Reject,
    }

    fn fnv1a(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Runs up to `config.cases` accepted cases of `case`, seeding each
    /// deterministically from `name` and the case index.
    pub fn run_cases(
        config: &ProptestConfig,
        name: &str,
        mut case: impl FnMut(&mut TestRng) -> CaseOutcome,
    ) {
        let mut master = fp_prng::SplitMix64::new(fnv1a(name));
        let mut accepted = 0u32;
        let mut attempts = 0u64;
        let max_attempts = u64::from(config.cases) * 16 + 256;
        while accepted < config.cases && attempts < max_attempts {
            attempts += 1;
            let mut rng = TestRng::seed_from_u64(master.next_u64());
            if case(&mut rng) == CaseOutcome::Pass {
                accepted += 1;
            }
        }
    }
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests. See the crate docs for the supported form.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]: expands the test functions with
/// the config expression already resolved to a depth-zero binding.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __proptest_config = $cfg;
                $crate::test_runner::run_cases(
                    &__proptest_config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__proptest_rng| {
                        $(
                            let $arg = match $crate::strategy::Strategy::try_sample(
                                &($strat),
                                __proptest_rng,
                            ) {
                                ::core::option::Option::Some(v) => v,
                                ::core::option::Option::None => {
                                    return $crate::test_runner::CaseOutcome::Reject;
                                }
                            };
                        )+
                        let mut __proptest_case = || $body;
                        let () = __proptest_case();
                        $crate::test_runner::CaseOutcome::Pass
                    },
                );
            }
        )+
    };
}

/// `assert!` under a proptest-compatible name (no shrinking here, so a
/// plain panic is the failure report).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the rest of the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice among same-typed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::OneOf {
            options: vec![$($crate::strategy::Strategy::boxed($s)),+],
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn runner_is_deterministic() {
        use crate::test_runner::{run_cases, CaseOutcome};
        let collect = |name: &str| {
            let mut seen = Vec::new();
            run_cases(&ProptestConfig::with_cases(8), name, |rng| {
                seen.push(Strategy::try_sample(&(0u64..1000), rng).unwrap());
                CaseOutcome::Pass
            });
            seen
        };
        assert_eq!(collect("a"), collect("a"));
        assert_ne!(collect("a"), collect("b"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_and_tuples(x in 1u64..10, (a, b) in (0i32..5, 0i32..5), flip in crate::bool::ANY) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((0..5).contains(&a) && (0..5).contains(&b));
            let _ = flip;
        }

        #[test]
        fn combinators_compose(v in crate::collection::vec((1u64..6).prop_map(|n| n * 2), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|n| n % 2 == 0));
        }

        #[test]
        fn oneof_and_filter(word in prop_oneof![Just("aa"), Just("bb")],
                            n in (0u32..100).prop_filter("even", |n| n % 2 == 0)) {
            prop_assert!(word == "aa" || word == "bb");
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn string_pattern(text in ".{0,40}") {
            prop_assert!(text.chars().count() <= 40);
        }

        #[test]
        fn arrays_fill(arr in crate::array::uniform5(1u64..4)) {
            prop_assert!(arr.iter().all(|&v| (1..4).contains(&v)));
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n < 5);
            prop_assert!(n < 5);
        }
    }
}
