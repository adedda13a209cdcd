//! # kset-shmem — single-writer multi-reader atomic registers over `kset-sim`
//!
//! The shared-memory model of the paper (Section 4): processes communicate
//! through single-writer multi-reader (SWMR) *atomic* registers [Lamport 86].
//! The memory itself never fails; processes accessing it may crash or behave
//! Byzantine — but even a Byzantine process can only write **its own**
//! registers, the integrity guarantee the paper motivates with replicated
//! middleware.
//!
//! ## How atomicity and asynchrony are realized
//!
//! Operations are split into invocation and response, as in the standard
//! model:
//!
//! * A **write** takes effect at its invocation (when the buffered effect is
//!   drained) and completes when the `WriteAck` response fires. Its
//!   linearization point is the invocation, so a process that crashes right
//!   after issuing its last write leaves the value visible — exactly the
//!   situation the proof of Lemma 4.2 constructs.
//! * A **read** returns the register content at the moment its response
//!   event fires; that firing is its linearization point. Because the
//!   scheduler chooses when responses fire, the asynchronous adversary fully
//!   controls which (legal) value every read observes.
//!
//! Both points lie between invocation and response, so every execution is
//! linearizable — the kernel *is* the linearization order.
//!
//! Single-writer is enforced **statically**: [`SmContext::write`] takes only
//! a slot index and always targets a register owned by the calling process.
//! There is no API through which any process, Byzantine or not, can write a
//! register it does not own.
//!
//! Like `kset-net`, this crate is a thin face of the substrate-generic
//! runtime in `kset-sim`: it contributes [`SmSubstrate`] (an implementation
//! of [`kset_sim::Substrate`] describing register linearization), while the
//! builder, run loop, and fault/metrics plumbing live in
//! [`kset_sim::System`]. See `ARCHITECTURE.md` ("The substrate layer").
//!
//! ```
//! use kset_shmem::{RegisterId, SmContext, SmProcess, SmSystem};
//!
//! /// Writes its input to its register, reads process 0's register, and
//! /// decides whatever it finds there (retrying until the write landed).
//! struct FollowZero {
//!     input: u32,
//! }
//!
//! impl SmProcess for FollowZero {
//!     type Val = u32;
//!     type Output = u32;
//!
//!     fn on_start(&mut self, ctx: &mut SmContext<'_, u32, u32>) {
//!         ctx.write(0, self.input);
//!         ctx.read(RegisterId::new(0, 0));
//!     }
//!
//!     fn on_read(
//!         &mut self,
//!         reg: RegisterId,
//!         value: Option<u32>,
//!         ctx: &mut SmContext<'_, u32, u32>,
//!     ) {
//!         match value {
//!             Some(v) => ctx.decide(v),
//!             None => ctx.read(reg), // not written yet: retry
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), kset_sim::SimError> {
//! let outcome = SmSystem::new(3).seed(11).run_with(|p| {
//!     Box::new(FollowZero { input: p as u32 * 10 })
//!         as Box<dyn SmProcess<Val = u32, Output = u32>>
//! })?;
//! assert!(outcome.terminated);
//! assert!(outcome.decisions.values().all(|&v| v == 0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, missing_debug_implementations)]

mod outcome;
mod process;
mod register;
mod system;

pub use outcome::SmOutcome;
pub use process::{fork_in_place, DynSmProcess, RawSmAction, SmContext, SmProcess};
pub use register::{Memory, RegisterId};
pub use system::{SmOp, SmSession, SmSubstrate, SmSystem};
