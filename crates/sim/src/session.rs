//! The steppable session: one live run, driven one fired event at a time.
//!
//! [`Session`] owns everything a run needs — the kernel, the processes,
//! the substrate's shared state, the decision table, and (when digesting)
//! the incremental digest engine — and exposes the run loop's body as
//! [`Session::step`]: fire one event, dispatch its callback, observe the
//! digest. The classic run-to-completion entry points on
//! [`System`](crate::System) are thin loops over `step` (see the driver
//! layer in `drivers.rs`), and a server multiplexing many concurrent
//! instances interleaves `step` calls across sessions instead.
//!
//! The delivery seam ([`Delivery`], sealed) keeps the crash-model hot path
//! free of deviation branches: [`FaithfulDelivery`] dispatches every fired
//! event as-is, [`DeviantDelivery`] honours the scheduler's
//! [`Deviation`]s (drop, forge) for Byzantine and lossy-network
//! adversaries. A discipline dispatches into the `(RunCore, Kernel)` pair
//! rather than into a whole session, so the forking executor
//! (`crate::fork`) runs the very same drop/forge code under either
//! discipline, along with the same [`DigestEngine`]: replayed, forked, and
//! stepped runs agree on semantics by construction.

use std::marker::PhantomData;

use crate::arena::{DigestMode, RunArena};
use crate::config::RunConfig;
use crate::deviate::Deviation;
use crate::digest::{Fnv64, Mix64, StateDigest};
use crate::error::SimError;
use crate::event::{EventKind, EventMeta, ProcessId};
use crate::fault::{FaultKind, FaultPlan};
use crate::kernel::Kernel;
use crate::outcome::Outcome;
use crate::substrate::{CallInfo, Effect, Substrate, SubstrateAdv, SubstrateDigest};

/// Kernel payloads of a substrate-generic run: the universal start/step
/// events plus whatever the substrate delivers. Exposed because the
/// sealed [`Delivery`] seam names it; never constructed outside the crate.
#[derive(Clone, Debug)]
pub enum Payload<P> {
    /// The process's initial step.
    Start,
    /// A requested spontaneous step.
    Step,
    /// A substrate event (message in transit, operation response, ...).
    Sub(P),
}

/// What one [`Session::step`] call observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Poll {
    /// Every correct process has decided; the run is over. No event fired.
    Decided,
    /// One event fired (and was dispatched, observed, and counted);
    /// the run continues.
    Pending,
    /// No events remain but some correct process is undecided — the run is
    /// over and will report `terminated == false`. No event fired.
    Idle,
}

mod sealed {
    /// Seals [`super::Delivery`]: the two delivery disciplines are the
    /// crate's own, and external implementations could break the parity
    /// guarantees between the stepped, replayed, and forked executors.
    pub trait Sealed {}
    impl Sealed for super::FaithfulDelivery {}
    impl Sealed for super::DeviantDelivery {}
}

/// How fired events turn into process callbacks inside a [`Session`] or a
/// [`ForkSession`](crate::ForkSession): the static seam between the
/// crash-model run loop (every delivery is faithful) and the adversarial
/// one (the scheduler's [`Deviation`] may drop or corrupt a delivery in
/// transit). A sealed trait with unit-struct implementations rather than a
/// runtime branch, so the crash-model hot path compiles exactly as before
/// — no per-event match on a deviation that is statically known to be
/// [`Deviation::Faithful`].
pub trait Delivery<S: Substrate>: sealed::Sealed + Sized {
    /// Dispatches one fired event into the run state per this discipline.
    ///
    /// # Errors
    ///
    /// Any error surfaced by [`Substrate::apply`].
    #[doc(hidden)]
    fn deliver(
        core: &mut RunCore<S>,
        kernel: &mut Kernel<Payload<S::Payload>>,
        meta: &EventMeta,
        payload: Payload<S::Payload>,
    ) -> Result<(), SimError>;
}

/// Every delivery is faithful; a scheduler deviation reaching this loop is
/// a harness bug (the checker must route active adversary spaces through
/// [`DeviantDelivery`]: the `*_adv` entry points or a deviant fork session).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaithfulDelivery;

impl<S: Substrate> Delivery<S> for FaithfulDelivery {
    fn deliver(
        core: &mut RunCore<S>,
        kernel: &mut Kernel<Payload<S::Payload>>,
        meta: &EventMeta,
        payload: Payload<S::Payload>,
    ) -> Result<(), SimError> {
        debug_assert!(
            matches!(kernel.last_deviation(), Deviation::Faithful),
            "scheduler produced a deviation on the faithful run loop; \
             use a `*_adv` entry point"
        );
        core.step_event(kernel, meta, payload, S::on_payload)
    }
}

/// Applies the scheduler's [`Deviation`] at delivery time: faithful events
/// dispatch as usual, dropped ones charge [`crate::RunState::drops`] and
/// vanish, forged ones route through [`SubstrateAdv::on_forged`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviantDelivery;

impl<S: SubstrateAdv> Delivery<S> for DeviantDelivery {
    fn deliver(
        core: &mut RunCore<S>,
        kernel: &mut Kernel<Payload<S::Payload>>,
        meta: &EventMeta,
        payload: Payload<S::Payload>,
    ) -> Result<(), SimError> {
        match kernel.last_deviation() {
            Deviation::Faithful => core.step_event(kernel, meta, payload, S::on_payload),
            Deviation::Drop => {
                // The delivery is suppressed outright: no callback runs, no
                // lazy start fires (the target never observes the event).
                // The charge makes the loss state-visible, so dedup cannot
                // merge a run that spent loss budget with one that did not.
                kernel.state_mut().charge_drop();
                Ok(())
            }
            Deviation::Forge(v) => {
                core.step_event(kernel, meta, payload, |p, x, source, sh, info, out| {
                    S::on_forged(p, x, v, source, sh, info, out)
                })
            }
        }
    }
}

/// The mutable per-run state a delivery dispatches into: processes, shared
/// state, decision/start tables, and the effect buffer. Split from the
/// kernel so one event's dispatch borrows both halves disjointly — and so
/// the forking executor (`crate::fork`) can snapshot/restore this state
/// while calling the very same dispatch methods the stepped run loop uses.
///
/// Declared `pub` only because the sealed [`Delivery`] seam names it; the
/// module is private and the type is not re-exported, so nothing outside
/// the crate can name or build one.
pub struct RunCore<S: Substrate> {
    pub(crate) n: usize,
    pub(crate) plan: FaultPlan,
    pub(crate) procs: Vec<S::Process>,
    pub(crate) shared: S::Shared,
    pub(crate) decisions: Vec<Option<S::Output>>,
    pub(crate) started: Vec<bool>,
    pub(crate) buf: Vec<S::Action>,
}

impl<S: Substrate> std::fmt::Debug for RunCore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCore")
            .field("n", &self.n)
            .field("started", &self.started)
            .finish()
    }
}

impl<S: Substrate> RunCore<S> {
    /// Fresh per-run state over `procs` under `plan`.
    pub(crate) fn new(n: usize, plan: FaultPlan, procs: Vec<S::Process>) -> Self {
        RunCore {
            n,
            plan,
            procs,
            shared: S::new_shared(n),
            decisions: (0..n).map(|_| None).collect(),
            started: vec![false; n],
            buf: Vec::new(),
        }
    }

    /// Returns to the state [`RunCore::new`] leaves, keeping the processes
    /// (the caller re-initialises them) and every buffer's capacity.
    fn reset(&mut self) {
        self.shared = S::new_shared(self.n);
        self.decisions.iter_mut().for_each(|d| *d = None);
        self.started.fill(false);
        self.buf.clear();
    }

    /// Handles one fired event end to end: crash filtering, lazy start, and
    /// dispatch of the appropriate callback, with `on_sub` delivering a
    /// substrate event ([`Substrate::on_payload`] faithfully,
    /// [`SubstrateAdv::on_forged`] for a forge). Shared verbatim by both
    /// delivery disciplines, the stepped session and the forking executor
    /// (`crate::fork`), so they all agree on delivery semantics by
    /// construction.
    pub(crate) fn step_event<F>(
        &mut self,
        kernel: &mut Kernel<Payload<S::Payload>>,
        meta: &EventMeta,
        payload: Payload<S::Payload>,
        on_sub: F,
    ) -> Result<(), SimError>
    where
        F: FnOnce(
            &mut S::Process,
            S::Payload,
            Option<ProcessId>,
            &S::Shared,
            CallInfo,
            &mut Vec<S::Action>,
        ),
    {
        let pid = meta.target;
        if kernel.state().has_crashed(pid) {
            return Ok(());
        }
        // A process's first step is always its `on_start`: if
        // another event (an early delivery) reaches it before its
        // explicit start event fired, start it lazily first. (In
        // substrates where every non-start event at a process is
        // caused by that process's own earlier actions — shared
        // memory — the lazy branch never triggers.)
        if !self.started[pid] {
            self.started[pid] = true;
            self.dispatch(kernel, pid, |p, sh, info, out| {
                S::on_start(p, sh, info, out)
            })?;
            if matches!(payload, Payload::Start) {
                return Ok(());
            }
            if kernel.state().has_crashed(pid) {
                return Ok(());
            }
        } else if matches!(payload, Payload::Start) {
            // Explicit start event arriving after a lazy start: spent.
            return Ok(());
        }
        match payload {
            Payload::Start => unreachable!("start handled above"),
            // A deviation policy only offers forgery on substrate
            // deliveries; a diverged replay script landing one on a local
            // step delivers it faithfully.
            Payload::Step => {
                self.dispatch(kernel, pid, |p, sh, info, out| S::on_step(p, sh, info, out))?;
            }
            Payload::Sub(x) => {
                let source = meta.source;
                self.dispatch(kernel, pid, |p, sh, info, out| {
                    on_sub(p, x, source, sh, info, out)
                })?;
            }
        }
        Ok(())
    }

    /// Dispatches one callback to `pid` under its crash budget, then drains
    /// the buffered effects. Returns early (after marking the crash) when
    /// the budget runs out.
    fn dispatch<F>(
        &mut self,
        kernel: &mut Kernel<Payload<S::Payload>>,
        pid: ProcessId,
        call: F,
    ) -> Result<(), SimError>
    where
        F: FnOnce(&mut S::Process, &S::Shared, CallInfo, &mut Vec<S::Action>),
    {
        let done = kernel.state().actions_of(pid);
        if self.plan.remaining_budget(pid, done) == Some(0) {
            crash(kernel, pid);
            return Ok(());
        }
        kernel.state_mut().charge_action(pid);

        self.buf.clear();
        let info = CallInfo {
            me: pid,
            n: self.n,
            now: kernel.now(),
            decided: self.decisions[pid].is_some(),
        };
        call(&mut self.procs[pid], &self.shared, info, &mut self.buf);

        for action in self.buf.drain(..) {
            let done = kernel.state().actions_of(pid);
            if self.plan.remaining_budget(pid, done) == Some(0) {
                crash(kernel, pid);
                break;
            }
            kernel.state_mut().charge_action(pid);
            match S::apply(action, pid, self.n, &mut self.shared)? {
                Effect::Post {
                    kind,
                    target,
                    source,
                    payload,
                } => {
                    kernel.post(
                        EventMeta::new(kind, target).from_process(source),
                        Payload::Sub(payload),
                    );
                }
                Effect::Decide(v) => {
                    if self.decisions[pid].is_none() {
                        self.decisions[pid] = Some(v);
                        kernel.note_decision(pid);
                    }
                }
                Effect::Step => {
                    kernel.post(EventMeta::new(EventKind::LocalStep, pid), Payload::Step);
                }
            }
        }
        Ok(())
    }
}

/// The first moves of every run: marks the plan's Byzantine slots in the
/// run state and posts each process's start event, in process order.
pub(crate) fn begin_run<P>(kernel: &mut Kernel<Payload<P>>, plan: &FaultPlan) {
    let n = kernel.state().n();
    for pid in 0..n {
        if plan.spec(pid).kind() == FaultKind::Byzantine {
            kernel.state_mut().mark_byzantine(pid);
        }
    }
    for pid in 0..n {
        kernel.post(EventMeta::new(EventKind::LocalStep, pid), Payload::Start);
    }
}

/// The [`Outcome`] of the run `kernel` has executed under `plan`, with
/// `decisions` its decision table indexed by process: the one assembly
/// behind [`Session::finish`] and
/// [`ForkSession::export_outcome`](crate::ForkSession::export_outcome).
pub(crate) fn outcome_of<P, V>(
    kernel: &Kernel<Payload<P>>,
    plan: &FaultPlan,
    decisions: impl IntoIterator<Item = Option<V>>,
) -> Outcome<V> {
    Outcome {
        decisions: decisions
            .into_iter()
            .enumerate()
            .filter_map(|(p, d)| d.map(|v| (p, v)))
            .collect(),
        correct: plan.correct_set(),
        faulty: plan.faulty_set(),
        terminated: kernel.state().all_correct_decided(),
        stats: *kernel.stats(),
        trace: kernel.trace().clone(),
        metrics: kernel.metrics().cloned(),
    }
}

fn crash<P>(kernel: &mut Kernel<Payload<P>>, pid: ProcessId) {
    kernel.state_mut().mark_crashed(pid);
    // Steps and deliveries *to* the crashed process will never be handled;
    // substrate events it already caused stay pending (the network is
    // reliable, and a linearized write stays visible).
    kernel.cancel_where(|m| m.target == pid);
}

/// The incremental digest state of one run: the per-process digest cache,
/// the emitted digest chain, and the scratch vectors of the canonical
/// encoding. Owned by a digesting [`Session`] and by the forking executor
/// (`crate::fork`), which snapshots/restores `proc_digests` and truncates
/// `digests` at branch points.
pub(crate) struct DigestEngine {
    pub(crate) mode: DigestMode,
    /// Clone of the fault plan handed to the canonical digest; `None` in
    /// plain mode, which never reads it.
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) proc_digests: Vec<u64>,
    pub(crate) digests: Vec<u64>,
    pub(crate) components: Vec<u64>,
    pub(crate) sorted: Vec<u64>,
}

impl DigestEngine {
    /// An engine with empty buffers (they grow on first use).
    pub(crate) fn new(mode: DigestMode, plan: Option<FaultPlan>) -> Self {
        DigestEngine {
            mode,
            plan,
            proc_digests: Vec::new(),
            digests: Vec::new(),
            components: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// An engine whose scratch buffers are recycled from `arena` (the
    /// digest chain and per-process cache cleared, the canonical scratch
    /// taken as-is) — the model checker's hot construction path.
    pub(crate) fn from_arena(
        mode: DigestMode,
        plan: Option<FaultPlan>,
        arena: &mut RunArena,
    ) -> Self {
        let mut digests = std::mem::take(&mut arena.digests);
        digests.clear();
        let mut proc_digests = std::mem::take(&mut arena.proc_digests);
        proc_digests.clear();
        DigestEngine {
            mode,
            plan,
            proc_digests,
            digests,
            components: std::mem::take(&mut arena.components),
            sorted: std::mem::take(&mut arena.sorted),
        }
    }

    /// Returns the scratch buffers to `arena`, handing the digest chain to
    /// the caller (return it via [`RunArena::put_digests`] once consumed).
    pub(crate) fn into_arena(self, arena: &mut RunArena) -> Vec<u64> {
        arena.proc_digests = self.proc_digests;
        arena.components = self.components;
        arena.sorted = self.sorted;
        self.digests
    }

    /// Returns every buffer (digest chain included) to `arena` — the
    /// error-path teardown, where no caller consumes the chain.
    pub(crate) fn abandon_into(self, arena: &mut RunArena) {
        let digests = self.into_arena(arena);
        arena.digests = digests;
    }

    /// Maintains the incremental digest state after one fired event and
    /// pushes the resulting run digest: refreshes only the dispatched
    /// process's cached component (lazy-initializing the cache on the
    /// first event), then folds the per-mode fingerprint. Shared verbatim
    /// by the stepped session and the forking executor, which restores
    /// `proc_digests` from snapshots and relies on this method's
    /// lazy-init/refresh split matching replay exactly.
    pub(crate) fn observe<S>(
        &mut self,
        fired: &EventMeta,
        kernel: &Kernel<Payload<S::Payload>>,
        procs: &[S::Process],
        decisions: &[Option<S::Output>],
        shared: &S::Shared,
    ) where
        S: SubstrateDigest,
        S::Output: StateDigest,
    {
        let n = procs.len();
        // Only the dispatched process can have changed its protocol
        // state or decision; every other cached component is current.
        if self.proc_digests.is_empty() {
            self.proc_digests
                .extend(procs.iter().map(|p| S::digest_process(p)));
        } else {
            self.proc_digests[fired.target] = S::digest_process(&procs[fired.target]);
        }
        let d = match self.mode {
            DigestMode::Plain => {
                plain_digest::<S>(n, &self.proc_digests, kernel, decisions, shared)
            }
            DigestMode::Canonical => self.canonical::<S>(n, kernel, decisions, shared),
        };
        self.digests.push(d);
    }

    /// The symmetry-canonical digest: invariant under any permutation of
    /// process ids applied consistently to processes, crash flags,
    /// decisions, per-process shared state and pending events.
    ///
    /// Each process contributes an id-free *component* — its remaining
    /// crash budget, its Byzantine role, protocol-state digest, crashed
    /// flag, decision, and its slice of the shared state
    /// ([`SubstrateDigest::digest_shared_of`]).
    /// The state fingerprint is the hash of the *sorted* component list
    /// plus a pool sum whose events are re-keyed by the components of their
    /// target and source (with the id-free payload hash) instead of by raw
    /// process ids.
    ///
    /// When two components tie, the component→process map is ambiguous and
    /// the re-keyed pool could merge states that differ only behind the
    /// tie; the digest then falls back to hashing the id-sensitive
    /// [`plain_digest`] under a distinct domain tag. That is a *finer*
    /// partition (plain-equal states are equal outright), so the fallback
    /// is always sound — it only forfeits the reduction on tied states.
    fn canonical<S>(
        &mut self,
        n: usize,
        kernel: &Kernel<Payload<S::Payload>>,
        decisions: &[Option<S::Output>],
        shared: &S::Shared,
    ) -> u64
    where
        S: SubstrateDigest,
        S::Output: StateDigest,
    {
        let plan = self
            .plan
            .as_ref()
            .expect("canonical mode requires the fault plan");
        let components = &mut self.components;
        components.clear();
        for (pid, decision) in decisions.iter().enumerate().take(n) {
            let mut ch = Mix64::new();
            // The crash budget is part of the state a permutation must
            // respect: swapping a process that may still crash with one
            // that cannot is not a symmetry of the remaining execution
            // tree.
            match plan.remaining_budget(pid, kernel.state().actions_of(pid)) {
                None => {
                    ch.mix(0);
                    ch.mix(0);
                }
                Some(b) => {
                    ch.mix(1);
                    ch.mix(b);
                }
            }
            // So is the Byzantine role: a Byzantine slot's outgoing
            // deliveries may deviate, a correct one's may not, and the
            // budget above reads `None` for both. Mixed only when set, so
            // crash-plan components stay bit-identical.
            if kernel.state().is_byzantine(pid) {
                ch.mix(0xB2);
            }
            ch.mix(self.proc_digests[pid]);
            ch.mix(u64::from(kernel.state().has_crashed(pid)));
            mix_decision(&mut ch, decision);
            let mut sh = Fnv64::new();
            S::digest_shared_of(shared, pid, &mut sh);
            ch.mix(sh.finish());
            components.push(ch.finish());
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(components);
        self.sorted.sort_unstable();
        let ties = self.sorted.windows(2).any(|w| w[0] == w[1]);
        let mut h = Mix64::new();
        if ties {
            h.mix(0xFF);
            h.mix(plain_digest::<S>(
                n,
                &self.proc_digests,
                kernel,
                decisions,
                shared,
            ));
        } else {
            h.mix(0xAA);
            for &c in self.sorted.iter() {
                h.mix(c);
            }
            let mut pool = 0u64;
            kernel.for_each_pending_hashed(|meta, aux| {
                let mut eh = Mix64::new();
                eh.mix(components[meta.target]);
                match meta.source {
                    None => {
                        eh.mix(0);
                        eh.mix(0);
                    }
                    Some(s) => {
                        eh.mix(1);
                        eh.mix(components[s]);
                    }
                }
                eh.mix(aux);
                pool = pool.wrapping_add(eh.finish());
            });
            h.mix(pool);
        }
        // Ties already mixed the drop count via the plain fallback; mixing
        // it again is harmless and keeps the two branches uniformly
        // drop-aware.
        mix_drops(&mut h, kernel.state().drops());
        h.finish()
    }
}

/// Per-event digest observation installed into a [`Session`]; a plain
/// function pointer (specialized per substrate at the driver layer) so the
/// non-digesting hot path stores `None` and pays one branch, not a
/// virtual call.
pub(crate) type ObserveFn<S> =
    fn(&EventMeta, &Kernel<Payload<<S as Substrate>::Payload>>, &RunCore<S>, &mut DigestEngine);

/// The incremental observer: [`DigestEngine::observe`] on the dispatched
/// event — the discipline of `run_digested_in` and `run_digested_adv_in`.
pub(crate) fn observe_incremental<S>(
    fired: &EventMeta,
    kernel: &Kernel<Payload<S::Payload>>,
    core: &RunCore<S>,
    dig: &mut DigestEngine,
) where
    S: SubstrateDigest,
    S::Output: StateDigest,
{
    dig.observe::<S>(fired, kernel, &core.procs, &core.decisions, &core.shared);
}

/// The from-scratch observer: recomputes [`state_digest`] after every
/// event — the historical implementation, kept as the oracle the property
/// suite pins the incremental engine against.
pub(crate) fn observe_reference<S>(
    _fired: &EventMeta,
    kernel: &Kernel<Payload<S::Payload>>,
    core: &RunCore<S>,
    dig: &mut DigestEngine,
) where
    S: SubstrateDigest,
    S::Output: StateDigest,
{
    dig.digests.push(state_digest::<S>(
        kernel,
        &core.procs,
        &core.decisions,
        &core.shared,
    ));
}

/// One live run over substrate `S` under delivery discipline `D`, driven
/// one fired event at a time.
///
/// Build one via [`System::session`](crate::System::session), with `D`
/// [`DeviantDelivery`] for a deviation-honouring run, call [`Session::step`] until it reports
/// [`Poll::Decided`] or [`Poll::Idle`], then [`Session::finish`] for the
/// [`Outcome`]. The run-to-completion entry points on
/// [`System`](crate::System) are exactly this loop.
pub struct Session<S: Substrate, D = FaithfulDelivery> {
    pub(crate) kernel: Kernel<Payload<S::Payload>>,
    pub(crate) core: RunCore<S>,
    pub(crate) observe: Option<ObserveFn<S>>,
    pub(crate) dig: DigestEngine,
    _delivery: PhantomData<D>,
}

impl<S: Substrate, D> std::fmt::Debug for Session<S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("n", &self.core.n)
            .field("events_fired", &self.kernel.stats().events_fired)
            .field("decided", &self.kernel.state().all_correct_decided())
            .finish()
    }
}

impl<S: Substrate, D: Delivery<S>> Session<S, D> {
    /// Builds a session from a resolved configuration: constructs the
    /// kernel (scheduler, limits, instrumentation, recycled pool buffers
    /// from `arena`), marks Byzantine slots, posts every process's start
    /// event, and initializes the per-run state. `observe`, when given,
    /// runs after every fired event against the digest engine `dig`.
    pub(crate) fn build(
        config: RunConfig,
        procs: Vec<S::Process>,
        arena: &mut RunArena,
        hasher: Option<crate::kernel::EventHasher<Payload<S::Payload>>>,
        observe: Option<ObserveFn<S>>,
        dig: DigestEngine,
    ) -> Self {
        let n = config.n;
        let mut kernel: Kernel<Payload<S::Payload>> = Kernel::with_processes(config.scheduler, n);
        if let Some(limit) = config.event_limit {
            kernel = kernel.event_limit(limit);
        }
        if config.trace_capacity > 0 {
            kernel = kernel.trace_capacity(config.trace_capacity);
        }
        if config.metrics.enabled {
            kernel = kernel.collect_metrics(config.metrics);
        }
        if let Some(hasher) = hasher {
            kernel = kernel.event_hasher(hasher);
        }
        kernel = kernel.recycled_buffers(
            std::mem::take(&mut arena.metas),
            std::mem::take(&mut arena.hashes),
            std::mem::take(&mut arena.payload_hashes),
        );
        begin_run(&mut kernel, &config.plan);

        Session {
            kernel,
            core: RunCore::new(n, config.plan, procs),
            observe,
            dig,
            _delivery: PhantomData,
        }
    }

    /// Starts a new run in this session, as if it had been built afresh
    /// by `System::new(n).seed(seed)` with the same fault plan, event
    /// limit, trace capacity, metrics and digest settings: the kernel
    /// restarts under that seed ([`Kernel::restart`]; a delay-rule or
    /// other non-random scheduler is replaced), the decision and start
    /// tables clear, the substrate's shared state is rebuilt, every
    /// process's start event is posted again, and `init(p, slot)`
    /// re-initialises process `p` in place — typically
    /// `Protocol::new(..).fork_into(slot)`, which copies into the existing
    /// box.
    ///
    /// Buffers keep their capacity, so once a recycled session has run a
    /// few times, restarting and running it again allocates nothing (for
    /// substrates whose shared state is allocation-free, such as message
    /// passing). This is how `kset-serve` recycles finished instances.
    pub fn restart(&mut self, seed: u64, mut init: impl FnMut(ProcessId, &mut S::Process)) {
        self.kernel.restart(seed);
        begin_run(&mut self.kernel, &self.core.plan);
        self.core.reset();
        for (pid, slot) in self.core.procs.iter_mut().enumerate() {
            init(pid, slot);
        }
        self.dig.digests.clear();
        self.dig.proc_digests.clear();
    }

    /// Advances the run by at most one fired event.
    ///
    /// Checks the two termination conditions first (in the same order as
    /// the classic run loop): every correct process decided →
    /// [`Poll::Decided`]; no event pending → [`Poll::Idle`]. Otherwise the
    /// scheduler picks an event, the delivery discipline dispatches it,
    /// the digest observer (if any) fingerprints the new state, and the
    /// call reports [`Poll::Pending`].
    ///
    /// `step` is a no-op returning `Decided`/`Idle` once the run is over,
    /// so drivers and servers may poll it idempotently.
    ///
    /// # Errors
    ///
    /// * [`SimError::EventLimitExceeded`] if the protocol livelocks.
    /// * Any error surfaced by [`Substrate::apply`], e.g.
    ///   [`SimError::ProcessOutOfRange`] for a send outside `0..n`.
    pub fn step(&mut self) -> Result<Poll, SimError> {
        if self.kernel.state().all_correct_decided() {
            return Ok(Poll::Decided);
        }
        let Some((meta, payload)) = self.kernel.next_checked()? else {
            return Ok(Poll::Idle);
        };
        D::deliver(&mut self.core, &mut self.kernel, &meta, payload)?;
        if let Some(observe) = self.observe {
            observe(&meta, &self.kernel, &self.core, &mut self.dig);
        }
        Ok(Poll::Pending)
    }

    /// Whether every correct process has decided — the condition under
    /// which [`Session::step`] reports [`Poll::Decided`].
    pub fn decided(&self) -> bool {
        self.kernel.state().all_correct_decided()
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.core.n
    }

    /// The kernel's aggregate counters so far.
    pub fn stats(&self) -> &crate::trace::RunStats {
        self.kernel.stats()
    }

    /// The decision table so far, indexed by process id.
    pub fn decisions(&self) -> &[Option<S::Output>] {
        &self.core.decisions
    }

    /// Ends the run and assembles the [`Outcome`], exactly as the
    /// run-to-completion entry points do: `terminated` is whether every
    /// correct process decided, decisions/fault sets/statistics/trace/
    /// metrics are read out of the run state.
    pub fn finish(self) -> (Outcome<S::Output>, S::Shared) {
        let mut arena = RunArena::new();
        let (outcome, _digests, shared) = self.finish_into(&mut arena);
        (outcome, shared)
    }

    /// [`Session::finish`] returning the kernel's pool buffers and the
    /// digest scratch to `arena`, and handing back the digest chain — the
    /// driver-layer teardown.
    pub(crate) fn finish_into(
        self,
        arena: &mut RunArena,
    ) -> (Outcome<S::Output>, Vec<u64>, S::Shared) {
        let outcome = outcome_of(&self.kernel, &self.core.plan, self.core.decisions);
        let (metas, hashes, payload_hashes) = self.kernel.reclaim_buffers();
        arena.metas = metas;
        arena.hashes = hashes;
        arena.payload_hashes = payload_hashes;
        let digests = self.dig.into_arena(arena);
        (outcome, digests, self.core.shared)
    }

    /// Error-path teardown: returns every recyclable buffer (digest chain
    /// included) to `arena` and drops the rest of the run.
    pub(crate) fn abandon_into(self, arena: &mut RunArena) {
        self.dig.abandon_into(arena);
    }
}

/// Per-event hashes installed into the kernel when a run is digested: the
/// first value is the id-sensitive event hash, computed identically by the
/// reference pool walk in [`state_digest`] (which calls this function, so
/// the incrementally maintained pool sum equals the from-scratch one by
/// construction); the second is the id-free payload hash the canonical
/// digest re-keys by component.
///
/// Payload *contents* hash byte-wise through the substrate's
/// [`SubstrateDigest`] hooks ([`Fnv64`]); the event-level composition —
/// target, source, payload-kind tag, payload hash — folds word-wise
/// through [`Mix64`], since each part is already a word.
pub(crate) fn event_hashes<S: SubstrateDigest>(
    meta: &EventMeta,
    payload: &Payload<S::Payload>,
) -> (u64, u64) {
    let mut eh = Mix64::new();
    eh.mix(meta.target as u64);
    match meta.source {
        None => {
            eh.mix(0);
            eh.mix(0);
        }
        Some(s) => {
            eh.mix(1);
            eh.mix(s as u64);
        }
    }
    let mut ah = Mix64::new();
    match payload {
        Payload::Start => {
            eh.mix(0);
            ah.mix(0);
        }
        Payload::Step => {
            eh.mix(1);
            ah.mix(1);
        }
        Payload::Sub(p) => {
            let mut ph = Fnv64::new();
            S::digest_payload(p, &mut ph);
            eh.mix(2);
            eh.mix(ph.finish());
            let mut sh = Fnv64::new();
            S::digest_payload_symm(p, &mut sh);
            ah.mix(2);
            ah.mix(sh.finish());
        }
    }
    (eh.finish(), ah.finish())
}

/// Mixes a decision slot as a fixed two-word `(tag, value)` pair, so every
/// process contributes the same number of words regardless of decision
/// status and word positions never shift across states.
fn mix_decision<T: StateDigest>(h: &mut Mix64, decision: &Option<T>) {
    match decision {
        None => {
            h.mix(0);
            h.mix(0);
        }
        Some(v) => {
            h.mix(1);
            h.mix(v.state_digest());
        }
    }
}

/// The id-sensitive digest over cached per-process digests and the
/// kernel's incrementally maintained pool sum. Bit-for-bit the same value
/// as [`state_digest`] recomputed from scratch. Every input here is
/// already a word-sized digest, so the composition folds through
/// [`Mix64`]: four words per process, one for the shared state, one for
/// the pool — a handful of multiplies per event instead of a byte-wise
/// hash over the whole encoding.
fn plain_digest<S>(
    n: usize,
    proc_digests: &[u64],
    kernel: &Kernel<Payload<S::Payload>>,
    decisions: &[Option<S::Output>],
    shared: &S::Shared,
) -> u64
where
    S: SubstrateDigest,
    S::Output: StateDigest,
{
    let mut h = Mix64::new();
    for pid in 0..n {
        h.mix(proc_digests[pid]);
        h.mix(u64::from(kernel.state().has_crashed(pid)));
        mix_decision(&mut h, &decisions[pid]);
    }
    let mut sh = Fnv64::new();
    S::digest_shared(shared, &mut sh);
    h.mix(sh.finish());
    h.mix(kernel.pool_digest());
    mix_drops(&mut h, kernel.state().drops());
    h.finish()
}

/// Folds the run's suppressed-delivery count into a digest — but only when
/// nonzero, so every crash-model digest stays bit-for-bit what it was
/// before lossy adversaries existed. Under a loss budget the count is real
/// state (it bounds the drops still available), so two otherwise-equal
/// states with different counts must not dedup together.
fn mix_drops(h: &mut Mix64, drops: u64) {
    if drops != 0 {
        h.mix(0xD0);
        h.mix(drops);
    }
}

/// Reference digest of the full system state, recomputed from scratch:
/// per-process protocol state, crash and decision status, the substrate's
/// shared state, plus the pending pool as an id-insensitive multiset. The
/// hot paths use the incremental engine in
/// [`System::run_digested_in`](crate::System::run_digested_in) instead;
/// this walk survives as the oracle behind
/// [`System::run_digested_reference`](crate::System::run_digested_reference).
fn state_digest<S>(
    kernel: &Kernel<Payload<S::Payload>>,
    procs: &[S::Process],
    decisions: &[Option<S::Output>],
    shared: &S::Shared,
) -> u64
where
    S: SubstrateDigest,
    S::Output: StateDigest,
{
    let mut h = Mix64::new();
    for (pid, proc) in procs.iter().enumerate() {
        h.mix(S::digest_process(proc));
        h.mix(u64::from(kernel.state().has_crashed(pid)));
        mix_decision(&mut h, &decisions[pid]);
    }
    let mut sh = Fnv64::new();
    S::digest_shared(shared, &mut sh);
    h.mix(sh.finish());
    // The pending pool hashes as a sum over per-event digests: insensitive
    // to pool order and to event ids, both of which are schedule artifacts.
    // Each event hashes through `event_hashes` itself, so this walk equals
    // the kernel's incrementally maintained sum by construction.
    let mut pool = 0u64;
    kernel.for_each_pending(|meta, payload| {
        pool = pool.wrapping_add(event_hashes::<S>(meta, payload).0);
    });
    h.mix(pool);
    mix_drops(&mut h, kernel.state().drops());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FifoScheduler;
    use crate::substrate::CallInfo;

    /// A two-line substrate whose processes are bare state words: enough
    /// to feed [`DigestEngine::canonical`] hand-built component inputs.
    struct Words;

    impl Substrate for Words {
        type Payload = ();
        type Process = u64;
        type Action = ();
        type Output = u64;
        type Shared = ();

        fn new_shared(_n: usize) {}
        fn on_start(_: &mut u64, _: &(), _: CallInfo, _: &mut Vec<()>) {}
        fn on_step(_: &mut u64, _: &(), _: CallInfo, _: &mut Vec<()>) {}
        fn on_payload(
            _: &mut u64,
            _: (),
            _: Option<ProcessId>,
            _: &(),
            _: CallInfo,
            _: &mut Vec<()>,
        ) {
        }
        fn apply(_: (), _: ProcessId, _: usize, _: &mut ()) -> Result<Effect<(), u64>, SimError> {
            Ok(Effect::Step)
        }
    }

    impl SubstrateDigest for Words {
        fn digest_process(proc: &u64) -> u64 {
            *proc
        }
        fn digest_payload(_: &(), _: &mut Fnv64) {}
        fn digest_shared(_: &(), _: &mut Fnv64) {}
    }

    /// The canonical digest of the quiescent state where process `p` holds
    /// `states[p]` and the slots in `byzantine` are marked Byzantine.
    fn canonical_of(states: [u64; 2], byzantine: &[ProcessId]) -> u64 {
        let plan = FaultPlan::byzantine(2, byzantine);
        let mut kernel: Kernel<Payload<()>> =
            Kernel::with_processes(FifoScheduler, 2).event_hasher(event_hashes::<Words>);
        for &p in byzantine {
            kernel.state_mut().mark_byzantine(p);
        }
        let mut dig = DigestEngine::new(DigestMode::Canonical, Some(plan));
        dig.proc_digests = states.to_vec();
        dig.canonical::<Words>(2, &kernel, &[None, None], &())
    }

    #[test]
    fn canonical_digest_separates_byzantine_roles() {
        // The same protocol states with the Byzantine mark on a different
        // process: its deviation options differ, so symmetry must not
        // merge the two.
        assert_ne!(canonical_of([3, 5], &[0]), canonical_of([3, 5], &[1]));
        // Swapping states *and* the mark together is a true permutation.
        assert_eq!(canonical_of([3, 5], &[0]), canonical_of([5, 3], &[1]));
        // Crash-model states (no mark) stay permutation-invariant.
        assert_eq!(canonical_of([3, 5], &[]), canonical_of([5, 3], &[]));
    }
}
