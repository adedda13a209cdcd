//! The forking executor: snapshot/restore run state at branch points
//! instead of replaying every schedule prefix from the root.
//!
//! The model checker's historical execution strategy is stateless
//! re-execution: each enumerated schedule replays its full choice prefix
//! from the initial state before reaching its first *new* decision point,
//! so a run at depth `d` pays `O(d)` redundant kernel dispatches. After the
//! allocation and digest work was hoisted out of the hot loop (see
//! `PERFORMANCE.md`), that redundant prefix execution is what remains.
//!
//! [`ForkSession`] removes it. One session owns a single live run — the
//! kernel, the processes, the substrate's shared state, the decision
//! table, and the incremental digest caches — and executes schedules
//! *in place*:
//!
//! * While a run executes, the session clones the full mid-run state into
//!   a [`RunSnapshot`] just before each decision point where the explorer
//!   may later branch ([`Kernel::snapshot`] for the kernel's share, the
//!   substrate's [`SubstrateFork`] hooks for processes and shared state).
//! * When the explorer later explores a sibling branching at depth `d`, it
//!   resumes from the snapshot taken there: the kernel, processes, shared
//!   state and digest caches are restored, the shared [`ChoiceLog`] and
//!   digest vector are truncated back to `d` (valid under the explorer's
//!   LIFO stack discipline — every run executed since the snapshot was
//!   taken shares its first `d` events), and execution continues with only
//!   the *new* suffix.
//!
//! Resumed runs are **bit-identical** to from-the-root replays of the same
//! prefix: the run loop is the very same session code (the `RunCore` event
//! dispatch and `DigestEngine` observation every driver in
//! `crate::drivers` steps through), the restored scheduler replays the
//! remaining prefix entries through the ordinary in-prefix fast path, and
//! the restored kernel reproduces the same event ids, digests and run
//! statistics. The checker's replay mode is this same session with
//! snapshots off (`max_branch_depth` 0): every run restarts from the root
//! snapshot. Its independent cross-check is the suites that compare
//! forked runs, resumed and from the root, with `System::run_digested_in`
//! replays (`tests/fork_deviation_parity.rs`).
//!
//! Deviation patterns fork too. A session built with
//! [`ForkSession::deviant`] installs the pattern's [`DeviationPolicy`] on
//! its scheduler and dispatches through [`DeviantDelivery`], the very
//! drop/forge code the replay entry points (`System::run_digested_adv_in`)
//! step through. A branch point is then a pending event *variant* — each
//! Byzantine forge or drop, each lossy drop is a sibling — and the drop
//! count and Byzantine marks ride in the kernel's run state, which every
//! snapshot carries. Sessions built with [`ForkSession::new`] keep the
//! statically faithful dispatch of the crash model.
//!
//! Snapshots are a pure optimization with two throttles. A caller-supplied
//! [`ForkGate`] predicts whether the walk can still branch beyond a given
//! point; once it cannot, the rest of the run takes no snapshots. And an
//! optional byte budget bounds the live snapshot spine, degrading
//! gracefully to replay-from-root when exceeded.
//!
//! The same gate can also end a run early. [`ForkGate::covered`] answers
//! the explorer's visited-store coverage check at each beyond-prefix state;
//! once a state is covered the explorer's walk stops reading the run there,
//! so the session stops executing it there too ([`ForkSession::truncated`]).
//! Such a run's log and digests are a prefix of the full run's; resuming a
//! sibling from any earlier snapshot is unaffected.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::mem::size_of;
use std::rc::Rc;

use crate::arena::{DigestMode, RunArena};
use crate::choice::{ChoiceLog, ChoiceScheduler};
use crate::deviate::DeviationPolicy;
use crate::digest::StateDigest;
use crate::error::SimError;
use crate::event::{EventId, EventMeta, ProcessId};
use crate::fault::FaultPlan;
use crate::kernel::{Kernel, KernelSnapshot};
use crate::outcome::Outcome;
use crate::session::{
    self, Delivery, DeviantDelivery, DigestEngine, FaithfulDelivery, Payload, RunCore,
};
use crate::substrate::{SubstrateAdv, SubstrateFork};

/// How the explorer steers a forked run: where it takes snapshots and
/// where it stops.
///
/// The gate mirrors the explorer's own post-run walk. If the coverage
/// check that walk performs at depth `d` would make it stop there, no
/// branch at depth `≥ d` can ever be scheduled and nothing the run does
/// past `d` is ever read. Because the visited store only grows, a cover
/// seen at execution time is already final — the walk, running later
/// against a superset store, stops at or before the same depth.
///
/// [`ForkGate::covered`] acts on that directly: the session stops the run
/// at the first covered state. [`ForkGate::branches_beyond`] is the milder
/// throttle for gates that let every run finish: it only stops snapshot
/// taking.
pub trait ForkGate {
    /// Whether the explorer's walk can still branch at or beyond the
    /// decision point at `depth` (fired events so far), whose
    /// *predecessor* state digests to `fp`. Consulted only at branchy
    /// beyond-prefix points; a `false` return permanently disables
    /// snapshotting for the rest of the run, which still executes to
    /// termination.
    fn branches_beyond(&mut self, depth: usize, fp: u64) -> bool;

    /// Whether the beyond-prefix state after `depth > 0` fired events,
    /// which digests to `fp`, is already covered, so the run can stop
    /// before its `depth`-th pick. Consulted at every beyond-prefix depth
    /// while some correct process is undecided and an event is pending; a
    /// `true` return ends the run there ([`ForkSession::truncated`]). The
    /// default never stops a run.
    fn covered(&mut self, depth: usize, fp: u64) -> bool {
        let _ = (depth, fp);
        false
    }

    /// Observes one beyond-prefix fired event, so the gate can evolve any
    /// per-run state the walk's coverage check depends on (the explorer's
    /// sleep set shrinks as its events fire).
    fn on_fired(&mut self, target: ProcessId);

    /// Whether the pending event `id` sleeps at the current decision point
    /// — a sleeping event never seeds a sibling work item, so a point
    /// whose every alternative sleeps takes no snapshot. The default (`false`,
    /// nothing sleeps) over-approximates branchiness, which only costs
    /// snapshots the walk will not consume; under-approximating instead
    /// would degrade the skipped point's siblings to replay-from-root.
    /// Either way execution observables are unaffected.
    fn is_asleep(&self, id: EventId) -> bool {
        let _ = id;
        false
    }
}

/// The trivial gate: always predicts a branch, never evolves, never stops
/// a run. Snapshot taking is then throttled only by the byte budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysBranch;

impl ForkGate for AlwaysBranch {
    fn branches_beyond(&mut self, _depth: usize, _fp: u64) -> bool {
        true
    }

    fn on_fired(&mut self, _target: ProcessId) {}
}

/// Static configuration of a [`ForkSession`].
#[derive(Clone, Copy, Debug)]
pub struct ForkConfig {
    /// Number of processes.
    pub n: usize,
    /// Whether the scheduler prefers no-op events beyond the prefix
    /// (partial-order reduction) — must match the replay configuration for
    /// run parity.
    pub por: bool,
    /// How states are fingerprinted — must match the replay configuration.
    pub digest: DigestMode,
    /// Kernel event limit override; `None` keeps the kernel default.
    pub event_limit: Option<u64>,
    /// Decision depths `≥ max_branch_depth` never branch in the explorer's
    /// walk, so no snapshot is taken at them.
    pub max_branch_depth: usize,
    /// Upper bound on the total estimated bytes of live snapshots; a
    /// candidate point whose snapshot would exceed it is skipped (its
    /// siblings then replay from the root instead). `None` is unbounded.
    pub budget_bytes: Option<usize>,
}

/// How a [`ForkSession`]'s runs started and how many snapshots they took,
/// counted since the session was built ([`ForkSession::counters`]).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ForkCounters {
    /// Snapshots taken at branch points.
    pub snapshots: u64,
    /// Runs that started by copying a snapshot's state into the session:
    /// every [`ForkSession::run_root`] and [`ForkSession::resume`], and each
    /// [`ForkSession::resume_rc`] whose snapshot still had other owners.
    pub resumes_copied: u64,
    /// Runs that started by taking over the buffers of a snapshot no one
    /// else held ([`ForkSession::resume_rc`]'s swap path).
    pub resumes_moved: u64,
}

/// Cap on the session's free list of reclaimed snapshot buffers. Far above
/// any live spine depth the explorer produces; purely a leak guard.
const SNAPSHOT_POOL_CAP: usize = 256;

/// The owned buffers of one snapshot, split out from [`RunSnapshot`]'s
/// metadata so they can be recycled: a dropped snapshot pushes its buffers
/// onto the session's free-list pool, and the next snapshot refills them in
/// place (`clone_from`, [`Kernel::snapshot_into`], and the substrate's
/// [`SubstrateFork::fork_process_into`] and
/// [`SubstrateFork::fork_shared_into`]) instead of allocating afresh. A
/// snapshot's process boxes are the one thing not pooled: each snapshot
/// boxes its `n` process copies anew, and a resume copies them into the
/// session's own boxes in place.
struct SnapshotBufs<S: SubstrateFork> {
    kernel: KernelSnapshot<Payload<S::Payload>>,
    procs: Vec<S::Process>,
    /// A pool seed holds an empty placeholder (`Substrate::new_shared(0)`);
    /// every snapshot overwrites it.
    shared: S::Shared,
    decisions: Vec<Option<S::Output>>,
    started: Vec<bool>,
    proc_digests: Vec<u64>,
}

impl<S: SubstrateFork> Default for SnapshotBufs<S> {
    fn default() -> Self {
        SnapshotBufs {
            kernel: KernelSnapshot::default(),
            procs: Vec::new(),
            shared: S::new_shared(0),
            decisions: Vec::new(),
            started: Vec::new(),
            proc_digests: Vec::new(),
        }
    }
}

/// One snapshot of a run's full mid-execution state, taken just before a
/// decision point: the kernel's pool/clock/state/statistics, the forked
/// processes and shared state, the decision and start tables, and the
/// incremental per-process digest cache. Reference-counted because one
/// snapshot can seed several sibling work items.
pub struct RunSnapshot<S: SubstrateFork> {
    depth: usize,
    bufs: SnapshotBufs<S>,
    bytes: usize,
    live_bytes: Rc<Cell<usize>>,
    pool: Rc<RefCell<Vec<SnapshotBufs<S>>>>,
}

impl<S: SubstrateFork> std::fmt::Debug for RunSnapshot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSnapshot")
            .field("depth", &self.depth)
            .field("pending", &self.bufs.kernel.pending_len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl<S: SubstrateFork> RunSnapshot<S> {
    /// The decision depth this snapshot was taken at: `depth` events have
    /// fired, the `depth`-th pick has not yet been made.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The byte estimate this snapshot is accounted at in the session's
    /// live-byte budget.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

impl<S: SubstrateFork> Drop for RunSnapshot<S> {
    fn drop(&mut self) {
        let live = self.live_bytes.get();
        self.live_bytes.set(live.saturating_sub(self.bytes));
        // Free the process boxes and recycle every other buffer. Pooling the
        // boxes too spared each snapshot its `n` allocations but measured a
        // higher peak RSS on the Byzantine certification cell
        // (PERFORMANCE.md, "Allocation-free forked runs").
        self.bufs.procs.clear();
        let mut pool = self.pool.borrow_mut();
        if pool.len() < SNAPSHOT_POOL_CAP {
            pool.push(std::mem::take(&mut self.bufs));
        }
    }
}

/// A long-lived forking executor over one fault plan: executes schedule
/// prefixes like `System::run_digested_in` does, but in place, taking
/// [`RunSnapshot`]s at prospective branch points and resuming siblings
/// from them instead of replaying the shared prefix.
///
/// The delivery discipline `D` is the same sealed seam the stepped
/// [`Session`](crate::Session) uses: [`FaithfulDelivery`] (built by
/// [`ForkSession::new`]) for crash patterns, [`DeviantDelivery`] (built by
/// [`ForkSession::deviant`]) for Byzantine and lossy-network patterns.
///
/// Tracing and metrics are unconditionally disabled — the checker's hot
/// path never enables them, and [`Kernel::snapshot`] requires it.
pub struct ForkSession<S: SubstrateFork, D = FaithfulDelivery>
where
    S::Output: StateDigest + Clone,
{
    por: bool,
    /// The deviation space installed on the scheduler, mirrored here so
    /// branch prediction counts the same variants the picks expand; `None`
    /// for faithful sessions.
    policy: Option<DeviationPolicy>,
    max_branch_depth: usize,
    budget_bytes: Option<usize>,
    live_bytes: Rc<Cell<usize>>,
    kernel: Kernel<Payload<S::Payload>>,
    picker: Rc<RefCell<ChoiceScheduler>>,
    log: Rc<RefCell<ChoiceLog>>,
    root: Rc<RunSnapshot<S>>,
    /// The live run state — the same structure every stepped
    /// [`Session`](crate::Session) dispatches into, so forked and stepped
    /// runs share their event semantics by construction.
    core: RunCore<S>,
    /// The incremental digest state, shared with the stepped session layer
    /// the same way; the session snapshots/restores its `proc_digests`
    /// cache and truncates its `digests` chain at branch points.
    dig: DigestEngine,
    /// Snapshots taken during the current run, in (strictly ascending)
    /// depth order.
    snaps: Vec<Rc<RunSnapshot<S>>>,
    /// Free list of buffers reclaimed from dropped snapshots.
    pool: Rc<RefCell<Vec<SnapshotBufs<S>>>>,
    /// The prefix the latest resume replaced, kept for
    /// [`ForkSession::take_spent_prefix`].
    spent_prefix: Vec<usize>,
    counters: ForkCounters,
    cur_prefix_len: usize,
    last_truncated: bool,
    _delivery: PhantomData<D>,
}

impl<S: SubstrateFork, D> std::fmt::Debug for ForkSession<S, D>
where
    S::Output: StateDigest + Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkSession")
            .field("n", &self.core.n)
            .field("depth", &self.dig.digests.len())
            .field("snapshots", &self.snaps.len())
            .field("live_bytes", &self.live_bytes.get())
            .finish()
    }
}

impl<S: SubstrateFork> ForkSession<S>
where
    S::Output: StateDigest + Clone,
{
    /// Builds a session over `procs` (the initial, un-started processes)
    /// under `plan`, or `None` when any process is not forkable
    /// ([`SubstrateFork::fork_process`] returned `None`): the session
    /// keeps a copy of the initial processes to start every run from.
    ///
    /// Every delivery is faithful: Byzantine slots of `plan` are marked in
    /// the run state but never deviate. Build a deviation pattern's
    /// session with [`ForkSession::deviant`] instead.
    pub fn new(config: ForkConfig, plan: FaultPlan, procs: Vec<S::Process>) -> Option<Self> {
        Self::build(config, plan, procs)
    }
}

impl<S: SubstrateFork + SubstrateAdv> ForkSession<S, DeviantDelivery>
where
    S::Output: StateDigest + Clone,
{
    /// [`ForkSession::new`] for a deviation pattern: installs `policy` on
    /// the session's scheduler, so every pick expands the pending events'
    /// deviation variants exactly as `System::run_digested_adv_in` under a
    /// `ChoiceScheduler::with_policy` scheduler does, and dispatches fired
    /// events through [`DeviantDelivery`]. Resumed runs are bit-identical
    /// — choice log with deviations, digests, decisions — to those
    /// replays. An inactive `policy` behaves like [`ForkSession::new`].
    pub fn deviant(
        config: ForkConfig,
        plan: FaultPlan,
        procs: Vec<S::Process>,
        policy: DeviationPolicy,
    ) -> Option<Self> {
        let mut session = Self::build(config, plan, procs)?;
        session.picker.borrow_mut().set_policy(Some(policy.clone()));
        session.policy = policy.is_active().then_some(policy);
        Some(session)
    }
}

impl<S: SubstrateFork, D: Delivery<S>> ForkSession<S, D>
where
    S::Output: StateDigest + Clone,
{
    /// The shared constructor of every delivery discipline; the scheduler
    /// starts policy-free.
    fn build(config: ForkConfig, plan: FaultPlan, procs: Vec<S::Process>) -> Option<Self> {
        let n = config.n;
        assert!(n > 0, "fork session needs at least one process");
        assert_eq!(procs.len(), n, "one process per slot");
        assert_eq!(plan.n(), n, "fault plan size must match n");

        let forked: Option<Vec<S::Process>> = procs.iter().map(S::fork_process).collect();
        let forked = forked?;

        let picker = Rc::new(RefCell::new(
            ChoiceScheduler::with_log(Vec::new(), ChoiceLog::default()).prefer_noops(config.por),
        ));
        let log = picker.borrow().log_handle();
        let mut kernel: Kernel<Payload<S::Payload>> =
            Kernel::with_processes(Rc::clone(&picker), n).event_hasher(session::event_hashes::<S>);
        if let Some(limit) = config.event_limit {
            kernel = kernel.event_limit(limit);
        }
        session::begin_run(&mut kernel, &plan);

        let canonical_plan = matches!(config.digest, DigestMode::Canonical).then(|| plan.clone());
        let core = RunCore::new(n, plan, procs);
        let live_bytes = Rc::new(Cell::new(0));
        let pool = Rc::new(RefCell::new(Vec::new()));
        let root = Rc::new(RunSnapshot {
            depth: 0,
            bufs: SnapshotBufs {
                kernel: kernel.snapshot(),
                procs: forked,
                shared: S::fork_shared(&core.shared),
                decisions: (0..n).map(|_| None).collect(),
                started: vec![false; n],
                // Empty on purpose: the incremental digest cache lazy-inits
                // on the first fired event, exactly as a fresh replay run
                // does.
                proc_digests: Vec::new(),
            },
            bytes: 0,
            live_bytes: Rc::clone(&live_bytes),
            pool: Rc::clone(&pool),
        });

        Some(ForkSession {
            por: config.por,
            policy: None,
            max_branch_depth: config.max_branch_depth,
            budget_bytes: config.budget_bytes,
            live_bytes,
            kernel,
            picker,
            log,
            root,
            core,
            dig: DigestEngine::new(config.digest, canonical_plan),
            snaps: Vec::new(),
            pool,
            spent_prefix: Vec::new(),
            counters: ForkCounters::default(),
            cur_prefix_len: 0,
            last_truncated: false,
            _delivery: PhantomData,
        })
    }

    /// Executes `prefix` from the initial state (resuming from the root
    /// snapshot, which is equivalent to a fresh replay).
    ///
    /// # Errors
    ///
    /// See [`crate::System::run`] — the same event-limit and substrate
    /// errors surface here.
    pub fn run_root(
        &mut self,
        prefix: Vec<usize>,
        gate: &mut impl ForkGate,
    ) -> Result<(), SimError> {
        let root = Rc::clone(&self.root);
        self.resume(&root, prefix, gate)
    }

    /// Resumes execution of `prefix` from `snap`, which must have been
    /// taken by this session at a depth `d ≤ prefix.len()` such that the
    /// first `d` entries of `prefix` equal the schedule the snapshot was
    /// taken under — the explorer's LIFO stack discipline guarantees both.
    ///
    /// # Errors
    ///
    /// See [`crate::System::run`].
    pub fn resume(
        &mut self,
        snap: &RunSnapshot<S>,
        prefix: Vec<usize>,
        gate: &mut impl ForkGate,
    ) -> Result<(), SimError> {
        let depth = snap.depth;
        debug_assert!(depth <= prefix.len(), "snapshot deeper than its prefix");
        self.snaps.clear();
        self.cur_prefix_len = prefix.len();
        self.counters.resumes_copied += 1;

        self.kernel.restore(&snap.bufs.kernel);
        fork_procs::<S>(&snap.bufs.procs, &mut self.core.procs);
        S::fork_shared_into(&snap.bufs.shared, &mut self.core.shared);
        self.core.decisions.clone_from(&snap.bufs.decisions);
        self.core.started.clone_from(&snap.bufs.started);
        self.dig.proc_digests.clone_from(&snap.bufs.proc_digests);
        self.rewind(prefix, depth);

        self.run_to_completion(gate)
    }

    /// [`ForkSession::resume`], consuming the caller's snapshot handle.
    ///
    /// When the handle is the last one alive — no sibling work item still
    /// queues on the same snapshot — the snapshot's buffers are *moved*
    /// into the session by pointer swap instead of cloned: no process
    /// re-fork, no pending-pool copy, and the session's previous buffers
    /// ride the dropped snapshot back into the recycling pool. Otherwise
    /// this is exactly [`ForkSession::resume`].
    ///
    /// # Errors
    ///
    /// See [`crate::System::run`].
    pub fn resume_rc(
        &mut self,
        snap: Rc<RunSnapshot<S>>,
        prefix: Vec<usize>,
        gate: &mut impl ForkGate,
    ) -> Result<(), SimError> {
        // Drop the session's own handles from the previous run first, so a
        // snapshot whose only other owner was the spine can be stolen.
        self.snaps.clear();
        let mut owned = match Rc::try_unwrap(snap) {
            Ok(owned) => owned,
            Err(shared) => return self.resume(&shared, prefix, gate),
        };
        let depth = owned.depth;
        debug_assert!(depth <= prefix.len(), "snapshot deeper than its prefix");
        self.cur_prefix_len = prefix.len();
        self.counters.resumes_moved += 1;

        self.kernel.restore_swap(&mut owned.bufs.kernel);
        std::mem::swap(&mut self.core.procs, &mut owned.bufs.procs);
        std::mem::swap(&mut self.core.shared, &mut owned.bufs.shared);
        std::mem::swap(&mut self.core.decisions, &mut owned.bufs.decisions);
        std::mem::swap(&mut self.core.started, &mut owned.bufs.started);
        std::mem::swap(&mut self.dig.proc_digests, &mut owned.bufs.proc_digests);
        // Reclaim the swapped-out buffers before the run so its first
        // snapshot finds them in the pool.
        drop(owned);
        self.rewind(prefix, depth);

        self.run_to_completion(gate)
    }

    /// Cuts the digest chain and choice log back to `depth` and hands the
    /// scheduler `prefix`, keeping the prefix it replaces for
    /// [`ForkSession::take_spent_prefix`].
    fn rewind(&mut self, prefix: Vec<usize>, depth: usize) {
        self.dig.digests.truncate(depth);
        self.log.borrow_mut().truncate(depth);
        self.spent_prefix = self.picker.borrow_mut().rewind(prefix, depth);
    }

    /// The prefix vector the latest run replaced in the scheduler (empty
    /// before the second run), for the caller to refill as a later run's
    /// prefix: a caller that recycles these never allocates prefixes in
    /// the steady state.
    pub fn take_spent_prefix(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.spent_prefix)
    }

    /// How this session's runs started and how many snapshots they took,
    /// since it was built.
    pub fn counters(&self) -> ForkCounters {
        self.counters
    }

    /// The snapshot taken at decision depth `depth` during the most recent
    /// run, if one was.
    pub fn snapshot_at(&self, depth: usize) -> Option<Rc<RunSnapshot<S>>> {
        self.snaps
            .binary_search_by_key(&depth, |s| s.depth)
            .ok()
            .map(|i| Rc::clone(&self.snaps[i]))
    }

    /// Copies the just-finished run out of the session into recycled
    /// buffers from `arena`: the choice log, the digest sequence, and an
    /// [`Outcome`] shaped exactly like `System::run_digested_in`'s. Return the
    /// log and digests to the arena once consumed, as with
    /// `System::run_digested_in`.
    ///
    /// The explorer's hot loop avoids these copies: it reads the log and
    /// digests in place via [`ForkSession::log`] and
    /// [`ForkSession::digests`] and takes only the
    /// [`ForkSession::export_outcome`] scalars.
    pub fn export_run(&self, arena: &mut RunArena) -> (Outcome<S::Output>, Vec<u64>, ChoiceLog) {
        let mut log = arena.take_log();
        log.copy_from(&self.log.borrow());
        let mut digests = std::mem::take(&mut arena.digests);
        digests.clear();
        digests.extend_from_slice(&self.dig.digests);
        (self.export_outcome(), digests, log)
    }

    /// The scalar observables of the just-finished run — decisions, fault
    /// sets, termination flag, kernel statistics — without the per-run log
    /// and digest copies of [`ForkSession::export_run`].
    pub fn export_outcome(&self) -> Outcome<S::Output> {
        session::outcome_of(
            &self.kernel,
            &self.core.plan,
            self.core.decisions.iter().cloned(),
        )
    }

    /// System-state digests of the just-finished run, one per fired event.
    pub fn digests(&self) -> &[u64] {
        &self.dig.digests
    }

    /// Decision table of the just-finished run, indexed by process —
    /// the allocation-free alternative to
    /// [`ForkSession::export_outcome`]'s decision map.
    pub fn decisions(&self) -> &[Option<S::Output>] {
        &self.core.decisions
    }

    /// Whether every correct process decided in the just-finished run.
    pub fn terminated(&self) -> bool {
        self.kernel.state().all_correct_decided()
    }

    /// Whether the just-finished run stopped at a state the gate reported
    /// [covered](ForkGate::covered) instead of running to termination. Its
    /// log and digests then end at that state, and its decisions are the
    /// partial ones made so far.
    pub fn truncated(&self) -> bool {
        self.last_truncated
    }

    /// Read access to the session's choice log — after a run completes,
    /// the log of that run up to where it stopped, shared prefix
    /// included. Release the borrow before the next
    /// [`ForkSession::resume`].
    pub fn log(&self) -> std::cell::Ref<'_, ChoiceLog> {
        self.log.borrow()
    }

    /// Executes the current schedule until every correct process has
    /// decided, nothing is pending, or `gate` reports a covered state.
    fn run_to_completion(&mut self, gate: &mut impl ForkGate) -> Result<(), SimError> {
        let mut gate_open = true;
        self.last_truncated = false;
        loop {
            if self.kernel.state().all_correct_decided() {
                break;
            }
            let depth = self.dig.digests.len();
            // A covered beyond-prefix state ends the run before its pick:
            // the walk stops reading the run here, so nothing past it is
            // observed. A state with nothing pending is terminal anyway
            // and never counts as truncated.
            if depth > 0
                && depth >= self.cur_prefix_len
                && self.kernel.pending_len() > 0
                && gate.covered(depth, self.dig.digests[depth - 1])
            {
                self.last_truncated = true;
                break;
            }
            // Branchiness (a scan of the small pending pool) is checked
            // before `branches_beyond`, so non-branchy points — the
            // majority — cost that gate nothing. A gate that stops runs
            // at covered states never reaches a point past the walk's cut;
            // one that lets runs finish learns of the cut only at the next
            // *branchy* point.
            // A lone pending event can still branch under a policy: its
            // forge/drop variants are siblings of its faithful delivery.
            if gate_open
                && depth >= self.cur_prefix_len
                && depth < self.max_branch_depth
                && (self.kernel.pending_len() > 1 || self.policy.is_some())
                && self.point_is_branchy(&*gate)
            {
                if depth > 0 && !gate.branches_beyond(depth, self.dig.digests[depth - 1]) {
                    // The walk will stop at or before this depth; nothing
                    // beyond it can branch, in this run or its suffix.
                    gate_open = false;
                } else {
                    self.take_snapshot(depth);
                }
            }
            let Some((meta, payload)) = self.kernel.next_checked()? else {
                break;
            };
            D::deliver(&mut self.core, &mut self.kernel, &meta, payload)?;
            session::observe_incremental::<S>(&meta, &self.kernel, &self.core, &mut self.dig);
            if depth >= self.cur_prefix_len {
                gate.on_fired(meta.target);
            }
        }
        Ok(())
    }

    /// Whether the upcoming decision point can branch in the explorer's
    /// walk, i.e. whether some pending alternative would seed a sibling
    /// work item. Mirrors the walk's child-generation rule exactly:
    ///
    /// * Under partial-order reduction a point with any pending no-op (an
    ///   event targeting a decided or crashed process) is *forced* — the
    ///   walk treats it as having one successor — so it never branches.
    /// * Otherwise the scheduler takes the minimum-id pending event, and an
    ///   alternative seeds a child only if it is not a no-op and not in the
    ///   explorer's sleep set ([`ForkGate::is_asleep`]).
    /// * Under a policy each live event contributes one alternative per
    ///   deviation variant ([`DeviationPolicy::for_each_deviation`]); the
    ///   default pick is the minimum-id event's faithful variant, so its
    ///   own forge/drop variants are siblings too.
    ///
    /// Imprecision here is performance-only: a false positive wastes one
    /// snapshot the walk never consumes, a false negative degrades that
    /// point's siblings to replay-from-root.
    fn point_is_branchy(&self, gate: &impl ForkGate) -> bool {
        // One pass computes the noop census, the minimum id and the count
        // of live (non-noop, awake) alternatives; ids are unique, so "not
        // the minimum-id event" is exactly "not the running minimum's slot".
        let state = self.kernel.state();
        let policy = self.policy.as_ref();
        let mut min_id: Option<EventId> = None;
        let mut min_live = false;
        let mut live = 0usize;
        let mut any_noop = false;
        self.kernel.for_each_pending(|m, _| {
            let noop = state.has_decided(m.target) || state.has_crashed(m.target);
            any_noop |= noop;
            let alive = !noop && !gate.is_asleep(m.id);
            if alive {
                match policy {
                    None => live += 1,
                    Some(policy) => policy.for_each_deviation(m, false, state, |_| live += 1),
                }
            }
            if min_id.map_or(true, |id| m.id < id) {
                min_id = Some(m.id);
                min_live = alive;
            }
        });
        if self.por && any_noop {
            return false;
        }
        // Some live alternative besides the default (minimum-id) pick.
        live > usize::from(min_live)
    }

    fn take_snapshot(&mut self, depth: usize) {
        let bytes = self.estimated_bytes();
        if let Some(budget) = self.budget_bytes {
            if self.live_bytes.get().saturating_add(bytes) > budget {
                return;
            }
        }
        self.live_bytes.set(self.live_bytes.get() + bytes);
        self.counters.snapshots += 1;
        let mut bufs = self.pool.borrow_mut().pop().unwrap_or_default();
        self.kernel.snapshot_into(&mut bufs.kernel);
        fork_procs::<S>(&self.core.procs, &mut bufs.procs);
        S::fork_shared_into(&self.core.shared, &mut bufs.shared);
        bufs.decisions.clone_from(&self.core.decisions);
        bufs.started.clone_from(&self.core.started);
        bufs.proc_digests.clone_from(&self.dig.proc_digests);
        self.snaps.push(Rc::new(RunSnapshot {
            depth,
            bufs,
            bytes,
            live_bytes: Rc::clone(&self.live_bytes),
            pool: Rc::clone(&self.pool),
        }));
    }

    /// Budget-accounting estimate of one snapshot's footprint. A
    /// heuristic, not an exact measure: per-process protocol state is
    /// charged a flat allowance on top of its handle size.
    fn estimated_bytes(&self) -> usize {
        let per_event = size_of::<EventMeta>() + size_of::<Payload<S::Payload>>() + 16;
        let per_proc = size_of::<S::Process>() + size_of::<Option<S::Output>>() + 64;
        256 + self.kernel.pending_len() * per_event + self.core.n * per_proc
    }
}

/// Overwrites `dst` with copies of `src`, slot by slot, reusing `dst`'s
/// process boxes wherever the substrate copies in place.
fn fork_procs<S: SubstrateFork>(src: &[S::Process], dst: &mut Vec<S::Process>) {
    const FORKABLE: &str = "processes were forkable at session creation";
    dst.truncate(src.len());
    for (from, to) in src.iter().zip(dst.iter_mut()) {
        assert!(S::fork_process_into(from, to), "{FORKABLE}");
    }
    let kept = dst.len();
    dst.extend(
        src[kept..]
            .iter()
            .map(|p| S::fork_process(p).expect(FORKABLE)),
    );
}
