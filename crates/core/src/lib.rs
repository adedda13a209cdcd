//! # kset-core — the k-set consensus problem, precisely
//!
//! Problem definitions from *"On k-Set Consensus Problems in Asynchronous
//! Systems"* (De Prisco, Malkhi, Reiter — PODC'99 / TPDS'01), Section 2.
//!
//! The `SC(k, t, C)` problem: each of `n` processes starts with an input;
//! every correct process must irreversibly decide a value such that
//!
//! * **Termination** — every correct process eventually decides;
//! * **Agreement** — the set of values decided by correct processes has
//!   size at most `k`;
//! * **Validity** — one of the six conditions of [`ValidityCondition`].
//!
//! This crate provides:
//!
//! * [`ValidityCondition`] — SV1, SV2, RV1, RV2, WV1, WV2 as executable
//!   predicates over a completed run ([`RunRecord`]);
//! * [`ProblemSpec`] — a validated `SC(k, t, C)` instance and its
//!   [`ProblemSpec::check`] verdict over a run;
//! * [`lattice`] — the "weaker-than" relation of the paper's Figure 1,
//!   *derived* by exhaustive enumeration rather than transcribed, plus the
//!   transcription to compare against;
//! * [`json`] and [`cli`] — the report format and the command-line reader
//!   the workspace's binaries share.
//!
//! ```
//! use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
//!
//! // SC(2, 1, RV1) among 4 processes.
//! let spec = ProblemSpec::new(4, 2, 1, ValidityCondition::RV1)?;
//!
//! // A run: inputs 10,20,30,40; process 3 crashed; the rest decided 10 or 20.
//! let record = RunRecord::new(vec![10, 20, 30, 40])
//!     .with_faulty([3])
//!     .with_decisions([(0, 10), (1, 20), (2, 10)]);
//!
//! let report = spec.check(&record);
//! assert!(report.is_ok());
//! # Ok::<(), kset_core::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, missing_debug_implementations)]

pub mod cli;
pub mod json;
pub mod lattice;
mod record;
mod spec;
mod validity;

pub use record::{DenseRun, RunRecord, RunView};
pub use spec::{CheckReport, ProblemSpec, SpecError, Violation};
pub use validity::ValidityCondition;

/// Marker alias for types usable as consensus input/decision values.
///
/// Everything in the workspace is generic over this bound; experiments use
/// `u64`, tests also exercise strings and tuples.
pub trait Value: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug {}

impl<T: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug> Value for T {}
