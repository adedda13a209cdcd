//! The substrate abstraction: what distinguishes one communication model
//! from another.
//!
//! The paper studies k-set consensus across a *four-model* map — message
//! passing and shared memory, each under crash and Byzantine failures. The
//! two communication substrates share almost all of their runtime: the
//! builder, the kernel-driving loop, crash budgets, metrics, tracing, and
//! the outcome shape are identical. What actually differs is captured by
//! the [`Substrate`] trait:
//!
//! * the **payload** carried by kernel events beyond the universal
//!   `Start`/`Step` pair (a message in transit vs. a pending register
//!   operation response);
//! * the **process interface** (callback set and buffered action type);
//! * the **delivery semantics**: how a buffered action turns into kernel
//!   events and mutations of the shared state (message posting vs. register
//!   linearization);
//! * the **digest hooks** used by the model checker's state deduplication.
//!
//! [`crate::System`] owns everything else and drives any substrate through
//! one generic run loop. `kset-net` and `kset-shmem` are thin
//! implementations of this trait plus backward-compatible facades.

use crate::digest::Fnv64;
use crate::error::SimError;
use crate::event::{EventKind, ProcessId};

/// Per-callback context handed to the substrate when it invokes a process:
/// who is being called, in which system, at what virtual time, and whether
/// it already decided. Substrates repackage this into their model-specific
/// context type (`MpContext`, `SmContext`, ...).
#[derive(Clone, Copy, Debug)]
pub struct CallInfo {
    /// The process being called.
    pub me: ProcessId,
    /// Number of processes in the system.
    pub n: usize,
    /// Kernel virtual time of the event being dispatched.
    pub now: u64,
    /// Whether the process has already decided.
    pub decided: bool,
}

/// Shared core of the per-callback effect contexts (`MpContext`,
/// `SmContext`, ...): the caller's identity view plus the buffered-action
/// sink. Model crates wrap this in their context type (adding the
/// model-specific verbs like `send` or `write`) and `Deref` to it, so the
/// identity accessors are written once here.
#[derive(Debug)]
pub struct ContextCore<'a, A> {
    info: CallInfo,
    actions: &'a mut Vec<A>,
}

impl<'a, A> ContextCore<'a, A> {
    /// Builds a core over a caller-owned action buffer.
    pub fn new(info: CallInfo, actions: &'a mut Vec<A>) -> Self {
        ContextCore { info, actions }
    }

    /// This process's identifier, in `0..n`.
    pub fn me(&self) -> ProcessId {
        self.info.me
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.info.n
    }

    /// Current virtual time (events fired so far). Protocols in this
    /// workspace never branch on it; it exists for logging and debugging.
    pub fn now(&self) -> u64 {
        self.info.now
    }

    /// Whether this process has already decided in this run.
    ///
    /// Deciding is irreversible but not terminal: the paper's Byzantine
    /// protocols require processes to keep echoing after deciding.
    pub fn has_decided(&self) -> bool {
        self.info.decided
    }

    /// Marks the process decided, so [`ContextCore::has_decided`] flips
    /// within the same callback. Called by the wrapping context's `decide`.
    pub fn mark_decided(&mut self) {
        self.info.decided = true;
    }

    /// Buffers one action for the runtime to apply after the callback.
    pub fn push(&mut self, action: A) {
        self.actions.push(action);
    }
}

/// What one buffered process action amounts to, as seen by the generic run
/// loop. Returned by [`Substrate::apply`] after the substrate performed any
/// model-specific mutation of the shared state (e.g. a register write,
/// which linearizes at apply time).
#[derive(Clone, Debug)]
pub enum Effect<P, V> {
    /// Post a substrate event to the kernel (a message delivery, an
    /// operation response, ...). `source` is the process the event is
    /// attributed to; `target` is the process whose handler will run.
    Post {
        /// Event kind, for schedulers, delay rules and metrics attribution.
        kind: EventKind,
        /// Process whose handler fires when the event is scheduled.
        target: ProcessId,
        /// Process the event originates from.
        source: ProcessId,
        /// Substrate payload delivered with the event.
        payload: P,
    },
    /// The process decided `V` (first decision wins; later ones are
    /// ignored by the run loop).
    Decide(V),
    /// The process requested another spontaneous local step.
    Step,
}

/// One communication model, plugged into the generic [`crate::System`].
///
/// All methods are static: a substrate is a type-level description, not a
/// value. Mutable per-run state lives either in the processes themselves or
/// in the run's [`Substrate::Shared`] state (the shared-memory model keeps
/// its register store there; message passing has none).
pub trait Substrate {
    /// Event payload beyond the universal start/step events: a message in
    /// transit, a pending operation response, ...
    type Payload: Clone;
    /// The (usually boxed) protocol state machine driven by this substrate.
    type Process;
    /// Buffered effect type produced by process callbacks.
    type Action;
    /// Decision value type.
    type Output;
    /// Run-global state owned by the substrate (register store, ...); `()`
    /// when the model has none.
    type Shared;

    /// Fresh shared state for a run of `n` processes.
    fn new_shared(n: usize) -> Self::Shared;

    /// Invokes the process's start callback, buffering actions into `out`.
    fn on_start(
        proc: &mut Self::Process,
        shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    );

    /// Invokes the process's spontaneous-step callback.
    fn on_step(
        proc: &mut Self::Process,
        shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    );

    /// Delivers a substrate event to the process. This is where delivery
    /// semantics live: the shared-memory substrate resolves the register
    /// content *here* (the read's linearization point); message passing
    /// hands over the message as sent.
    fn on_payload(
        proc: &mut Self::Process,
        payload: Self::Payload,
        source: Option<ProcessId>,
        shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    );

    /// Converts one buffered action of process `me` into an [`Effect`],
    /// mutating the shared state if the model calls for it (a register
    /// write linearizes here, while the acting process is still within its
    /// crash budget).
    ///
    /// # Errors
    ///
    /// Model-specific validation, e.g. [`SimError::ProcessOutOfRange`] for
    /// a send to a process outside `0..n`.
    fn apply(
        action: Self::Action,
        me: ProcessId,
        n: usize,
        shared: &mut Self::Shared,
    ) -> Result<Effect<Self::Payload, Self::Output>, SimError>;
}

/// Digest hooks for substrates whose runs can be fingerprinted — what
/// [`crate::System::run_digested_in`] and the model checker's state
/// deduplication build on.
///
/// A separate trait because digests constrain the substrate's value types
/// (`StateDigest` bounds) that plain execution does not need.
pub trait SubstrateDigest: Substrate {
    /// Stable digest of one process's protocol state.
    fn digest_process(proc: &Self::Process) -> u64;

    /// Feeds one pending substrate payload into a per-event hasher. Tags
    /// must not collide with the run loop's own `Start = 0` / `Step = 1`.
    fn digest_payload(payload: &Self::Payload, h: &mut Fnv64);

    /// Feeds the shared state (if any) into the run digest. Called after
    /// the per-process digests and before the pending-pool digest.
    fn digest_shared(shared: &Self::Shared, h: &mut Fnv64);

    /// Feeds the part of the shared state *owned by* `owner` into `h` —
    /// the shared-memory substrate hashes `owner`'s registers as
    /// `(slot, value)` pairs, dropping the owner id itself. Used by the
    /// symmetry-canonical digest, which folds each process's registers
    /// into that process's id-free component so the combined fingerprint
    /// is invariant under process-id permutation. Substrates without
    /// per-process shared state (message passing) keep the default no-op.
    fn digest_shared_of(_shared: &Self::Shared, _owner: ProcessId, _h: &mut Fnv64) {}

    /// Like [`SubstrateDigest::digest_payload`] but **process-id-free**:
    /// any process id the payload carries redundantly with the event's
    /// `target`/`source` (e.g. the register owner inside a shared-memory
    /// read response, which always equals the event source) must be
    /// dropped, because the symmetry-canonical digest re-keys events by
    /// the id-free components of their target and source instead. The
    /// default forwards to `digest_payload`, which is correct whenever the
    /// payload carries no process ids (the message-passing substrate's
    /// protocol messages carry values, not ids).
    fn digest_payload_symm(payload: &Self::Payload, h: &mut Fnv64) {
        Self::digest_payload(payload, h);
    }
}

/// Adversarial-delivery hook for substrates whose payloads can be corrupted
/// in transit — what [`crate::System::run_digested_adv_in`] and the Byzantine /
/// lossy-network model checker build on.
///
/// A [`crate::Deviation::Forge`] replaces the *value content* of a delivery
/// with a forged `u64` drawn from the proposal domain while keeping the
/// event's envelope (source, target, kind) intact: the receiver observes a
/// syntactically well-formed message or register read that simply carries a
/// value the faithful execution never produced. This models a Byzantine
/// sender (message passing) or a Byzantine register owner (shared memory)
/// without simulating the deviating process's internals — the deviation
/// space lives entirely in the scheduler's branch points.
///
/// A separate trait because only value-carrying substrates instantiated at
/// `u64` proposal values can interpret a forged `u64`; plain execution and
/// generic substrates never need this.
pub trait SubstrateAdv: Substrate {
    /// Delivers `payload` to the process as if its carried value were
    /// `forged`. Implementations mirror [`Substrate::on_payload`] exactly,
    /// substituting the forged value for the payload's own at the same
    /// linearization point; payloads that carry no corruptible value (e.g.
    /// a write acknowledgement) must be delivered faithfully.
    fn on_forged(
        proc: &mut Self::Process,
        payload: Self::Payload,
        forged: u64,
        source: Option<ProcessId>,
        shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    );
}

/// Fork hooks for substrates whose mid-run state can be snapshotted — what
/// the forking model-checker executor (`crate::ForkSession`) builds on.
///
/// Forking a run means duplicating everything that evolves during it: the
/// kernel's share (pending pool, clock, run state) is handled generically
/// by [`crate::Kernel::snapshot`]; the substrate's share is its processes
/// and its shared state, which only the substrate knows how to clone.
///
/// A separate trait (rather than `Clone` bounds on [`Substrate`]'s
/// associated types) because processes are usually boxed trait objects:
/// cloning one needs a virtual hook on the process trait, and a process
/// without such a hook — a caller-supplied Byzantine strategy, say — must
/// be refused at run time ([`crate::ForkSession::new`] returns `None`),
/// not fail to compile.
pub trait SubstrateFork: SubstrateDigest {
    /// Clones one process's protocol state, or `None` when this process
    /// cannot be forked. A single unforkable process means no
    /// [`crate::ForkSession`] can be built over the run's processes.
    fn fork_process(proc: &Self::Process) -> Option<Self::Process>;

    /// [`SubstrateFork::fork_process`] into an existing slot: overwrites
    /// `dst` with a copy of `src`, reusing `dst`'s allocation where the
    /// substrate can. Returns `false`, leaving `dst` as it was, when `src`
    /// cannot be forked. The default re-forks and replaces `dst`.
    fn fork_process_into(src: &Self::Process, dst: &mut Self::Process) -> bool {
        match Self::fork_process(src) {
            Some(copy) => {
                *dst = copy;
                true
            }
            None => false,
        }
    }

    /// Clones the substrate's shared state (the register store; `()` for
    /// message passing).
    fn fork_shared(shared: &Self::Shared) -> Self::Shared;

    /// [`SubstrateFork::fork_shared`] into an existing value, reusing its
    /// buffers where the substrate can. The default replaces `dst`.
    fn fork_shared_into(src: &Self::Shared, dst: &mut Self::Shared) {
        *dst = Self::fork_shared(src);
    }
}
