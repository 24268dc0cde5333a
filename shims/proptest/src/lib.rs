//! Offline stand-in for `proptest`.
//!
//! Supports the subset this workspace's property tests use:
//!
//! * `proptest! { #![proptest_config(ProptestConfig::with_cases(N))]
//!   #[test] fn name(x in lo..hi, ...) { ... } }`
//! * integer and float [`Range`]/[`RangeInclusive`] strategies,
//! * tuples of strategies and [`collection::vec`] for sequences,
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`.
//!
//! Sampling is deterministic: the RNG is seeded from the test name,
//! so failures reproduce without a persistence file. There is no
//! shrinking — the case index and the assert message locate failures.
//!
//! That gap is deliberate. Real proptest shrinks by walking a value's
//! strategy tree ("try a smaller integer"), which works for the
//! scalar inputs these macros generate but is useless for the one
//! consumer that genuinely needs minimization: the differential
//! harness in `crates/conformance`, whose test inputs are whole IR
//! *programs*. Informative reductions there are structural — delete a
//! statement, unwrap a data region, pin a loop to one trip — so that
//! crate carries its own greedy delta-debugger (`conformance::shrink`)
//! instead of routing programs through a value-shrinking API that
//! cannot express those edits.

use std::ops::{Range, RangeInclusive};

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy, TestRng,
    };
}

/// Per-block configuration; only `cases` is meaningful here.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic splitmix64 stream seeded from the test name.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A value generator.
pub trait Strategy {
    type Value;
    fn sample_value(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (self.start as i128 + draw) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

impl_int_strategy!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample_value(&self, rng: &mut TestRng) -> f64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + u * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample_value(&self, rng: &mut TestRng) -> f32 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (self.start as f64 + u * (self.end as f64 - self.start as f64)) as f32
    }
}

/// Tuples of strategies sample componentwise, left to right.
macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample_value(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy!((A.0, B.1)(A.0, B.1, C.2)(A.0, B.1, C.2, D.3));

/// Sequence strategies, mirroring proptest's `collection` module.
pub mod collection {
    use super::{Strategy, TestRng};

    /// The strategy behind [`vec()`]: a length drawn from `len`, then
    /// that many independent draws from `elem`.
    pub struct VecStrategy<S> {
        elem: S,
        len: std::ops::Range<usize>,
    }

    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.clone().sample_value(rng);
            (0..n).map(|_| self.elem.sample_value(rng)).collect()
        }
    }
}

/// Explicit value lists are occasionally handy as strategies.
impl<T: Clone> Strategy for Vec<T> {
    type Value = T;
    fn sample_value(&self, rng: &mut TestRng) -> T {
        assert!(!self.is_empty(), "empty strategy vec");
        self[(rng.next_u64() as usize) % self.len()].clone()
    }
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::sample_value(&($strat), &mut rng);)*
                    let outcome: ::core::result::Result<(), ::std::string::String> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    if let ::core::result::Result::Err(msg) = outcome {
                        panic!(
                            "property `{}` failed at case {}/{}\n  inputs: {}\n  {}",
                            stringify!($name),
                            case,
                            cfg.cases,
                            format!(
                                concat!($(stringify!($arg), " = {:?}  ",)*),
                                $($arg),*
                            ),
                            msg,
                        );
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),*) $body
            )*
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), left, right
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a), stringify!($b), left
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(
            a in 3usize..10,
            b in -4i64..4,
            c in 1u32..=5,
            f in -1.5f64..1.5,
        ) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-4..4).contains(&b));
            prop_assert!((1..=5).contains(&c));
            prop_assert!((-1.5..1.5).contains(&f), "f out of range: {f}");
            prop_assert_eq!(a, a);
            prop_assert_ne!(a + 1, a);
        }

        #[test]
        fn tuples_and_vecs_compose(
            pair in (0u8..4, 10u32..20),
            seq in crate::collection::vec((0u8..4, 0i16..3), 1..9),
        ) {
            prop_assert!(pair.0 < 4 && (10..20).contains(&pair.1));
            prop_assert!((1..9).contains(&seq.len()));
            prop_assert!(seq.iter().all(|(a, b)| *a < 4 && (0..3).contains(b)));
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed at case 0")]
    fn failures_panic_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
