//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment for this repository has no network access, so the
//! real proptest cannot be fetched. This crate vendors the small subset of
//! its API that the workspace's property tests use: the [`proptest!`] and
//! [`prop_compose!`] macros, range/tuple/`Vec`/`Option` strategies, a
//! regex-subset string strategy, and `any::<T>()`.
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** A failing case reports its case index and the
//!   deterministic per-test seed instead of a minimized input.
//! - **Deterministic by default.** Each test derives its RNG seed from the
//!   test's module path, so runs are reproducible without a persistence
//!   file. Set `PROPTEST_CASES` to change the case count (default 64).
//! - `prop_assert!`/`prop_assert_eq!` panic directly rather than returning
//!   `Err`, which is equivalent under this runner.

use std::fmt;
use std::ops::Range;

/// Number of cases each `proptest!` test runs (env `PROPTEST_CASES`, default 64).
pub fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Deterministic splitmix64 generator used by the test runner.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Derives a stable seed from a test name (an FNV-1a-shaped hash whose
    /// multiplier is not FNV's prime; changing it changes every case).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift bounded sampling; bias is negligible for test data.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of test inputs. The offline analogue of proptest's strategy
/// trait: no shrink tree, only generation.
pub trait Strategy {
    /// The type of the generated values.
    type Value;
    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty => $u:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
signed_range_strategy!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

/// String strategy from a regex subset: literal characters, `\x` escapes,
/// `[a-z0-9_]` character classes (with ranges), and `{m}` / `{m,n}`
/// repetition after a class or literal.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    #[derive(Clone)]
    enum Piece {
        Lit(char),
        Class(Vec<char>),
    }
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let piece = match chars[i] {
            '\\' => {
                i += 1;
                let c = *chars.get(i).expect("dangling escape in pattern");
                i += 1;
                Piece::Lit(c)
            }
            '[' => {
                let mut set = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        let (lo, hi) = (chars[i], chars[i + 2]);
                        for c in lo..=hi {
                            set.push(c);
                        }
                        i += 3;
                    } else {
                        set.push(chars[i]);
                        i += 1;
                    }
                }
                assert!(i < chars.len(), "unterminated class in pattern");
                i += 1; // consume ']'
                assert!(!set.is_empty(), "empty class in pattern");
                Piece::Class(set)
            }
            c => {
                i += 1;
                Piece::Lit(c)
            }
        };
        // Optional {m} / {m,n} repetition.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .expect("unterminated repetition in pattern")
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse::<u64>().expect("bad repetition"),
                    b.trim().parse::<u64>().expect("bad repetition"),
                ),
                None => {
                    let n = body.trim().parse::<u64>().expect("bad repetition");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let count = lo + if hi > lo { rng.below(hi - lo + 1) } else { 0 };
        for _ in 0..count {
            match &piece {
                Piece::Lit(c) => out.push(*c),
                Piece::Class(set) => out.push(set[rng.below(set.len() as u64) as usize]),
            }
        }
    }
    out
}

impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

macro_rules! tuple_strategy {
    ($(($($n:ident),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($n,)+) = self;
                ($($n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

/// Wraps a generation closure as a strategy; the expansion target of
/// [`prop_compose!`].
pub struct FnStrategy<V, F: Fn(&mut TestRng) -> V> {
    f: F,
}

impl<V, F: Fn(&mut TestRng) -> V> FnStrategy<V, F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        FnStrategy { f }
    }
}

impl<V, F: Fn(&mut TestRng) -> V> Strategy for FnStrategy<V, F> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.f)(rng)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, broad range; the tests that use any::<f64>() only need
        // "some finite number".
        (rng.unit_f64() - 0.5) * 2e9
    }
}

/// The strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over all values of `T` (see [`Arbitrary`]).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length bound for [`vec()`]: an exact `usize` or a `Range<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: u64,
        hi: u64, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n as u64,
                hi: n as u64 + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start as u64,
                hi: r.end as u64,
            }
        }
    }

    /// Strategy producing `Vec`s of an element strategy's values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.lo + rng.below(self.size.hi - self.size.lo);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `Option`s of an inner strategy's values.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            // Match proptest's default 3:1 Some:None weighting.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `prop::option::of(strategy)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Mirror of proptest's prelude.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, proptest, Strategy,
    };

    /// The `prop` module path used by `prop::collection::vec` etc.
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Reports a failing case before the panic unwinds.
pub fn report_failure(test: &str, case: u64, total: u64) {
    eprintln!("proptest-shim: case {case}/{total} of `{test}` failed (deterministic seed; re-run reproduces it)");
}

impl fmt::Display for TestRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TestRng({:#x})", self.state)
    }
}

/// Property-test entry point: mirrors `proptest! { #[test] fn name(arg in strategy, ...) { body } }`.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block)*) => {
        $( $crate::__proptest_args!{ @munch [$(#[$meta])*] $name [] [$body] $($args)* } )*
    };
}

/// Internal: accumulates `(mutability, name, strategy)` triples, then emits.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_args {
    (@munch [$($meta:tt)*] $name:ident [$($acc:tt)*] [$body:block]) => {
        $crate::__proptest_emit!{ [$($meta)*] $name [$($acc)*] [$body] }
    };
    (@munch [$($meta:tt)*] $name:ident [$($acc:tt)*] [$body:block] mut $arg:ident in $strat:expr, $($rest:tt)*) => {
        $crate::__proptest_args!{ @munch [$($meta)*] $name [$($acc)* {[mut] $arg ($strat)}] [$body] $($rest)* }
    };
    (@munch [$($meta:tt)*] $name:ident [$($acc:tt)*] [$body:block] mut $arg:ident in $strat:expr) => {
        $crate::__proptest_args!{ @munch [$($meta)*] $name [$($acc)* {[mut] $arg ($strat)}] [$body] }
    };
    (@munch [$($meta:tt)*] $name:ident [$($acc:tt)*] [$body:block] $arg:ident in $strat:expr, $($rest:tt)*) => {
        $crate::__proptest_args!{ @munch [$($meta)*] $name [$($acc)* {[] $arg ($strat)}] [$body] $($rest)* }
    };
    (@munch [$($meta:tt)*] $name:ident [$($acc:tt)*] [$body:block] $arg:ident in $strat:expr) => {
        $crate::__proptest_args!{ @munch [$($meta)*] $name [$($acc)* {[] $arg ($strat)}] [$body] }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_emit {
    ([$($meta:tt)*] $name:ident [$({[$($m:tt)*] $arg:ident ($strat:expr)})*] [$body:block]) => {
        $($meta)*
        fn $name() {
            let __total = $crate::cases();
            let mut __rng =
                $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__total {
                $( let $($m)* $arg = $crate::Strategy::generate(&($strat), &mut __rng); )*
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || $body),
                );
                if let Err(e) = __outcome {
                    $crate::report_failure(stringify!($name), __case, __total);
                    ::std::panic::resume_unwind(e);
                }
            }
        }
    };
}

/// Mirrors `prop_compose! { fn name(outer: T)(arg in strategy, ...) -> Ret { body } }`.
#[macro_export]
macro_rules! prop_compose {
    ($vis:vis fn $name:ident($($oarg:ident : $oty:ty),* $(,)?)($($args:tt)*) -> $ret:ty $body:block) => {
        $vis fn $name($($oarg : $oty),*) -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy::new(move |__rng: &mut $crate::TestRng| -> $ret {
                $crate::__prop_compose_args!{ @munch [$body] __rng $($args)* }
            })
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __prop_compose_args {
    (@munch [$body:block] $rng:ident) => { $body };
    (@munch [$body:block] $rng:ident $arg:ident in $strat:expr, $($rest:tt)*) => {{
        let $arg = $crate::Strategy::generate(&($strat), $rng);
        $crate::__prop_compose_args!{ @munch [$body] $rng $($rest)* }
    }};
    (@munch [$body:block] $rng:ident $arg:ident in $strat:expr) => {{
        let $arg = $crate::Strategy::generate(&($strat), $rng);
        $crate::__prop_compose_args!{ @munch [$body] $rng }
    }};
}

/// Asserting macro; panics directly under this runner.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion; panics directly under this runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion; panics directly under this runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let f = (0.5f64..2.5).generate(&mut rng);
            assert!((0.5..2.5).contains(&f));
            let i = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = TestRng::new(2);
        for _ in 0..200 {
            let v = collection::vec(0u32..5, 2..7).generate(&mut rng);
            assert!(v.len() >= 2 && v.len() < 7);
            let exact = collection::vec(0u32..5, 4usize).generate(&mut rng);
            assert_eq!(exact.len(), 4);
        }
    }

    #[test]
    fn option_strategy_produces_both() {
        let mut rng = TestRng::new(3);
        let strat = option::of(0u32..10);
        let vals: Vec<_> = (0..200).map(|_| strat.generate(&mut rng)).collect();
        assert!(vals.iter().any(|v| v.is_none()));
        assert!(vals.iter().any(|v| v.is_some()));
    }

    #[test]
    fn regex_subset_generator() {
        let mut rng = TestRng::new(4);
        for _ in 0..100 {
            let s = "[a-z]{1,20}\\.[a-z]{2,10}\\.[a-z]{2,3}".generate(&mut rng);
            let parts: Vec<&str> = s.split('.').collect();
            assert_eq!(parts.len(), 3, "{s}");
            assert!((1..=20).contains(&parts[0].len()));
            assert!((2..=10).contains(&parts[1].len()));
            assert!((2..=3).contains(&parts[2].len()));
            assert!(s.chars().all(|c| c == '.' || c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn tuple_strategy_composes() {
        let mut rng = TestRng::new(5);
        let (a, b) = (0u64..10, any::<bool>()).generate(&mut rng);
        assert!(a < 10);
        let _: bool = b;
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(x in 0u64..100, mut v in crate::collection::vec(0u32..10, 0..5)) {
            prop_assert!(x < 100);
            v.sort();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    prop_compose! {
        fn arb_pair(offset: u64)(a in 0u64..10, b in 0u64..10) -> (u64, u64) {
            (a + offset, b + offset)
        }
    }

    proptest! {
        #[test]
        fn composed_strategies_work(p in arb_pair(100)) {
            prop_assert!(p.0 >= 100 && p.0 < 110);
            prop_assert!(p.1 >= 100 && p.1 < 110);
        }
    }
}
