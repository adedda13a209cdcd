//! # kset-experiments — regenerate every figure of the paper
//!
//! The executable side of the reproduction. Two complementary halves:
//!
//! * **Analytic**: the `fig1_lattice`, `fig2_mp_cr`, `fig4_mp_byz`,
//!   `fig5_sm_cr` and `fig6_sm_byz` binaries render the machine-checked
//!   validity lattice and the four solvability atlases at the paper's
//!   `n = 64` (backed by `kset-regions`).
//! * **Empirical**: [`cells`] runs the *designated* protocol of every
//!   solvable cell inside the simulator, under crash plans, Byzantine
//!   strategies and partition schedules, and checks Termination, Agreement
//!   and Validity on every run (`empirical_atlas` binary);
//!   [`counterexamples`] re-enacts the paper's impossibility constructions
//!   as concrete runs that demonstrably violate the predicted property
//!   just outside each protocol's proven region (`counterexamples`
//!   binary).
//!
//! The `reproduce_all` binary drives everything and emits the summary
//! tables recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs, missing_debug_implementations)]

pub mod campaign;
pub mod cells;
pub mod checker;
pub mod counterexamples;
pub mod engine;
pub mod exhaustive;
pub mod explorer;
pub mod figures;
pub mod record_sink;
pub mod report;
pub mod visited;
