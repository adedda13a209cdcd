//! # kset-sim — deterministic discrete-event kernel for asynchronous systems
//!
//! This crate is the simulation substrate underneath the whole `kset`
//! workspace. It models the asynchronous system of De Prisco, Malkhi &
//! Reiter's *"On k-Set Consensus Problems in Asynchronous Systems"*
//! (PODC'99 / TPDS'01): `n` processes take steps at arbitrary (but finite)
//! relative speeds, communication events are delayed arbitrarily (but
//! finitely), and up to `t` processes may fail by crashing or Byzantine
//! deviation.
//!
//! Asynchrony in that model *is* adversarial scheduling, so the kernel makes
//! the scheduler a first-class, pluggable object:
//!
//! * [`RandomScheduler`] explores seeded pseudo-random schedules — every run
//!   is reproducible from its seed.
//! * [`FifoScheduler`] delivers events oldest-first (a benign schedule);
//!   [`LifoScheduler`] newest-first (a maximally reordering one).
//! * [`GatedScheduler`] composes any scheduler with [`DelayRule`]s, the
//!   mechanism used to re-enact the paper's indistinguishability
//!   constructions (e.g. "*all messages sent to processes in `g_i` by
//!   processes not in `g_i` are delayed until all processes in `g_i` have
//!   decided*", Lemma 3.3). Rules still guarantee finite delay: when every
//!   pending event is held, the gate expires and the underlying scheduler
//!   picks among all of them.
//!
//! Failures are described by a [`FaultPlan`]:
//!
//! * [`FaultSpec::Crash`] stops a process after a chosen number of atomic
//!   *actions*. Sends count as individual actions, so a crash budget can cut
//!   a broadcast in half — the exact capability needed by the proofs of
//!   Lemmas 3.5 and 4.2 ("*fails right after sending its last message*").
//! * [`FaultSpec::Byzantine`] marks a slot whose behaviour is supplied by the
//!   caller (see `kset-adversary` for a strategy library).
//!
//! The kernel itself is model-agnostic: it stores opaque payloads `E` and
//! exposes only [`EventMeta`] to schedulers. On top of it, this crate also
//! hosts the substrate-generic runtime: the [`Substrate`] trait captures
//! what distinguishes one communication model from another (payloads,
//! process interface, delivery semantics, digest hooks), and the [`System`]
//! builder drives any substrate through one shared run loop into one
//! generic [`Outcome`]. The message-passing and shared-memory models
//! (`kset-net`, `kset-shmem`) are thin [`Substrate`] implementations plus
//! model-specific facades. See `ARCHITECTURE.md` ("The substrate layer")
//! for the full picture.
//!
//! ## Example
//!
//! ```
//! use kset_sim::{EventKind, EventMeta, Kernel, RandomScheduler};
//!
//! // A kernel carrying string payloads, scheduled pseudo-randomly.
//! let mut kernel: Kernel<&'static str> = Kernel::new(RandomScheduler::from_seed(7));
//! kernel.post(EventMeta::new(EventKind::LocalStep, 0), "hello");
//! kernel.post(EventMeta::new(EventKind::LocalStep, 1), "world");
//! let mut seen = Vec::new();
//! while let Some((meta, payload)) = kernel.next_event() {
//!     seen.push((meta.target, payload));
//! }
//! assert_eq!(seen.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, missing_debug_implementations)]

mod arena;
mod choice;
mod config;
mod deviate;
mod digest;
mod drivers;
mod error;
mod event;
mod fault;
mod fifo_channels;
mod fork;
mod gate;
mod kernel;
mod metrics;
mod outcome;
mod replay;
mod sched;
mod session;
mod state;
mod substrate;
mod trace;

pub use arena::{DigestMode, RunArena};
pub use choice::{ChoiceLog, ChoiceOption, ChoicePoint, ChoiceScheduler};
pub use config::{RunConfig, System};
pub use deviate::{Deviation, DeviationPolicy};
pub use digest::{Fnv64, Mix64, StateDigest};
pub use drivers::DigestedRun;
pub use error::SimError;
pub use event::{ChannelId, EventId, EventKind, EventMeta, ProcessId};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use fifo_channels::ChannelFifo;
pub use fork::{AlwaysBranch, ForkConfig, ForkCounters, ForkGate, ForkSession, RunSnapshot};
pub use gate::{DelayRule, GatedScheduler, Until};
pub use kernel::{EventHasher, Kernel, KernelSnapshot};
pub use metrics::{Histogram, MetricsConfig, ProcessMetrics, RunMetrics, HISTOGRAM_BUCKETS};
pub use outcome::Outcome;
pub use replay::{RecordingScheduler, ReplayScheduler};
pub use sched::{
    FifoScheduler, LifoScheduler, RandomScheduler, Scheduler, ScriptedScheduler,
    StarvationScheduler,
};
pub use session::{Delivery, DeviantDelivery, FaithfulDelivery, Payload, Poll, Session};
pub use state::RunState;
pub use substrate::{
    CallInfo, ContextCore, Effect, Substrate, SubstrateAdv, SubstrateDigest, SubstrateFork,
};
pub use trace::{RunStats, Trace, TraceEntry};
