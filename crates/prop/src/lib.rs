//! # kset-prop — in-tree deterministic property testing
//!
//! A minimal, dependency-free property-testing harness for the `kset`
//! workspace, replacing the external `proptest` dev-dependency so the
//! randomized property tier builds and runs fully offline.
//!
//! ## Model
//!
//! * **Generators** ([`Gen`], built from [`in_range`], [`choice`],
//!   [`bools`], [`unit_f64`], [`vec_in`]/[`vec_exact`], [`option_of`],
//!   [`btree_map_in`], tuples, and [`GenExt::map`]) draw raw `u64`
//!   choices from a [`Source`] — a recorded *choice tape*.
//! * **The runner** ([`Runner`]) derives a stable base seed from the
//!   property name, evaluates a configurable number of cases, and on
//!   failure **shrinks the tape greedily** (block deletions, then
//!   per-choice reductions toward zero). Raw choice `0` always maps to
//!   a generator's simplest value, so tape-level shrinking composes
//!   through arbitrary generator nesting.
//! * **Replay**: every failure report prints a `KSET_PROP_SEED=<seed>`
//!   line; exporting that variable ([`SEED_ENV`]) re-runs exactly that
//!   case and re-shrinks it deterministically to the identical minimal
//!   case — mirroring how the model checker replays counterexample
//!   schedules byte-stably.
//!
//! ## Example
//!
//! ```
//! use kset_prop::{in_range, prop_assert, vec_in, Runner};
//!
//! Runner::new("doctest_sum_is_bounded").cases(64).run(
//!     (in_range(0u64..10), vec_in(in_range(0u64..10), 0..5)),
//!     |(x, xs)| {
//!         prop_assert!(x + xs.iter().sum::<u64>() < 50, "x = {x}, xs = {xs:?}");
//!         Ok(())
//!     },
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, missing_debug_implementations)]

mod gen;
mod rng;
mod runner;
mod source;

pub use gen::{
    bools, btree_map_in, choice, in_range, option_of, unit_f64, vec_exact, vec_in, BTreeMapGen,
    BoolGen, Choice, Gen, GenExt, Map, OptionGen, RangeGen, TapeInt, UnitF64, VecGen,
};
pub use rng::{fnv64, SplitMix64};
pub use runner::{CaseResult, Failed, Runner, SEED_ENV};
pub use source::Source;

/// Fail the current case unless `cond` holds.
///
/// Expands to an early `return Err(...)`, so it is only usable inside a
/// property closure returning [`CaseResult`]. An optional trailing
/// format string and arguments are appended to the report.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::Failed::new(::std::format!(
                "assertion failed: `{}` at {}:{}",
                ::core::stringify!($cond),
                ::core::file!(),
                ::core::line!(),
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::Failed::new(::std::format!(
                "assertion failed: `{}` at {}:{}: {}",
                ::core::stringify!($cond),
                ::core::file!(),
                ::core::line!(),
                ::std::format!($($fmt)+),
            )));
        }
    };
}

/// Fail the current case unless the two expressions compare equal,
/// reporting both values. Optional trailing format arguments as in
/// [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::core::result::Result::Err($crate::Failed::new(::std::format!(
                "assertion failed: `{} == {}` at {}:{}\n    left: {:?}\n    right: {:?}",
                ::core::stringify!($left),
                ::core::stringify!($right),
                ::core::file!(),
                ::core::line!(),
                l,
                r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::core::result::Result::Err($crate::Failed::new(::std::format!(
                "assertion failed: `{} == {}` at {}:{}: {}\n    left: {:?}\n    right: {:?}",
                ::core::stringify!($left),
                ::core::stringify!($right),
                ::core::file!(),
                ::core::line!(),
                ::std::format!($($fmt)+),
                l,
                r,
            )));
        }
    }};
}

/// Discard the current case unless `cond` holds: the runner counts it
/// as rejected rather than failed, and the shrinker never accepts a
/// candidate that trips an assumption.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::Failed::rejected());
        }
    };
}
