//! # kset-serve — consensus as a service
//!
//! The simulation stack in this workspace was built to *check* k-set
//! consensus protocols: one run at a time, driven to completion, inspected
//! for violations. This crate turns the same machinery inside out and runs
//! it as a *service*: millions of short-lived consensus instances
//! multiplexed over a small pool of worker threads, each instance advanced
//! a few events at a time through the steppable [`Session`] API from
//! `kset-sim`.
//!
//! The shape mirrors how k-set consensus is actually consumed in systems
//! (one instance per slot/decree, vast numbers of tiny instances, latency
//! and throughput as the service-level metrics) rather than how it is
//! proved (one adversarial run under a microscope):
//!
//! * [`Server`] owns the worker pool. Each worker keeps a bounded set of
//!   live instances and advances every one of them by a bounded *wave* of
//!   events per scheduling round, so a slow instance cannot starve its
//!   neighbours and memory stays proportional to the live set, not the
//!   total workload.
//! * [`ServeClient`] is the cloneable submission handle: [`propose`] hands
//!   a vector of inputs (one per process) to a worker, sharded by instance
//!   id; backpressure is a bounded queue, so a producer that outruns the
//!   workers blocks instead of ballooning memory.
//! * Each finished instance comes back as a [`Decision`] carrying a
//!   [`RunRecord`] (the same record type the experiment pipelines consume),
//!   the number of kernel events the run took, the submit-to-decide
//!   latency and the part of it spent queued.
//! * Workers allocate nothing per instance once warm: a finished
//!   [`Instance`] is [restarted](Instance::restart) in place for a later
//!   proposal, and each wave's decisions travel as one compact
//!   [`DecisionBatch`] whose records are built by the thread that reads
//!   them.
//! * [`wire`] adds a deliberately minimal line protocol (`RUN` / `FLUSH` /
//!   `STATS`) so the `kset-serve` binary can expose the whole thing over a
//!   TCP socket.
//!
//! Every run is still the deterministic kernel underneath: instance `id`
//! with seed `s` replays bit-for-bit through the ordinary
//! [`run`](kset_net::MpSystem::run) entry points, which is what the
//! `session_parity` integration test pins.
//!
//! ## Example
//!
//! ```
//! use kset_serve::{ServeConfig, Server, Workload};
//!
//! let server = Server::start(ServeConfig {
//!     threads: 2,
//!     ..ServeConfig::new(Workload::flood_min(3, 1))
//! });
//! let client = server.client();
//! for i in 0..64u64 {
//!     client.propose(vec![i, i + 1, i + 2]).unwrap();
//! }
//! let mut decided = 0;
//! while decided < 64 {
//!     let decision = server.recv_decision().unwrap();
//!     assert!(decision.record.terminated());
//!     decided += 1;
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.decided, 64);
//! ```
//!
//! [`Session`]: kset_sim::Session
//! [`RunRecord`]: kset_core::RunRecord
//! [`propose`]: ServeClient::propose

#![forbid(unsafe_code)]
#![deny(missing_docs, missing_debug_implementations)]

mod decision;
mod instance;
mod server;
pub mod wire;

pub use decision::{Decision, DecisionBatch};
pub use instance::{Instance, Propose, Workload};
pub use server::{ServeClient, ServeConfig, ServeStats, Server};
