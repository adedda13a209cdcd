//! One exploration task: the DFS over a stack of work items on a fork
//! session, the walk that stages each run's siblings and deduplicates its
//! states, and the gate that stops a run at a covered state.

use std::rc::Rc;

use kset_core::ProblemSpec;
use kset_net::MpSubstrate;
use kset_shmem::SmSubstrate;
use kset_sim::{
    ChoiceLog, Delivery, DeviantDelivery, EventId, FaultPlan, ForkCounters, ForkGate, ForkSession,
    ProcessId, RunSnapshot, SubstrateAdv, SubstrateFork,
};

use super::run::{
    distinct_correct_decisions, mp_processes, plan_slots, sm_processes, violation_of,
    BYZANTINE_WITHOUT_POLICY,
};
use super::{CheckerConfig, Counterexample, ForkMode, SleepEntry, Visited, WorkItem};
use crate::visited::Sharded;

/// Runs one exploration task may execute before it spills the rest of its
/// DFS stack back to the scheduler as a single continuation task. The
/// budget is a constant of the algorithm — never derived from the thread
/// count — so the task decomposition is identical for every `threads`
/// value. It sets the engine's re-synchronization granularity twice over:
/// no worker can run ahead of the shared dedup table by more than this
/// many schedules, and no task is large enough to leave sibling workers
/// idle behind it. The continuation carries the *whole* stack (rather
/// than one task per stacked item) so adjacent sibling subtrees keep
/// exploring under one task-local table — splitting them apart would put
/// heavily-overlapping regions into the same wave, exactly where they
/// cannot share dedup state.
pub(super) const TASK_BUDGET: u64 = 2048;

/// Counters and outcome of one exploration task (a subtree DFS), merged
/// by [`explore_pattern`](super::explore_pattern) in task order.
pub(super) struct TaskOutcome {
    pub(super) runs: u64,
    /// Kernel events executed, shared prefixes resumed from a snapshot
    /// excluded (operational: see [`RunGauge`](super::RunGauge)).
    pub(super) events_fired: u64,
    /// Forked runs stopped at a covered state (operational).
    pub(super) truncated_runs: u64,
    /// The task's fork session's snapshot and resume counts (operational).
    pub(super) fork: ForkCounters,
    /// The gate's probes of the frozen wave store, and how many of them
    /// it covered (operational).
    pub(super) store_probes: u64,
    pub(super) store_hits: u64,
    pub(super) states: usize,
    pub(super) sleep_skips: u64,
    pub(super) dedup_hits: u64,
    pub(super) complete: bool,
    pub(super) worst_agreement: usize,
    pub(super) violation: Option<Counterexample>,
    /// The task's own insertions, folded into the shared snapshot at the
    /// wave barrier so later waves prune against them.
    pub(super) visited: Visited,
    /// The remaining DFS stack when the task's run budget ran out,
    /// re-enqueued verbatim as one continuation task; empty when the task
    /// finished.
    pub(super) spill: Vec<WorkItem>,
}

impl TaskOutcome {
    fn new() -> Self {
        TaskOutcome {
            runs: 0,
            events_fired: 0,
            truncated_runs: 0,
            fork: ForkCounters::default(),
            store_probes: 0,
            store_hits: 0,
            states: 0,
            sleep_skips: 0,
            dedup_hits: 0,
            complete: true,
            worst_agreement: 0,
            violation: None,
            visited: Visited::default(),
            spill: Vec::new(),
        }
    }
}

/// Reusable buffers for [`walk_run`], owned by one exploration task. The
/// walk's transient storage (taken indices, staged siblings, explored
/// entries) keeps its capacity across runs, and the sleep and prefix
/// vectors of completed work items back free lists that child items draw
/// from — in the steady state the walk allocates nothing.
#[derive(Default)]
struct WalkScratch {
    /// The current run's taken canonical indices (child-prefix source).
    taken: Vec<usize>,
    /// Entries already explored at the current point (sleep-set seeds).
    explored: Vec<SleepEntry>,
    /// Siblings staged at the current point, drained onto the stack in
    /// reverse canonical order.
    children: Vec<WorkItem>,
    /// Free list of sleep vectors recycled from completed work items.
    sleeps: Vec<Vec<SleepEntry>>,
    /// Free list of prefix vectors recycled from executed work items (the
    /// fork session hands them back; see
    /// [`ForkSession::take_spent_prefix`]).
    prefixes: Vec<Vec<usize>>,
}

/// Walks the beyond-prefix decision points of one executed run: dedup
/// bookkeeping against the task-local `visited`, sibling generation into
/// `push` (per point, in reverse canonical order, so the canonically
/// first sibling pops first under LIFO — the order the accumulated sleep
/// sets assume).
///
/// `push` receives each staged child in the order it should enter the
/// caller's DFS stack; the explorer pairs it with the snapshot taken at
/// its branch point, if any.
///
/// `prefix_len` and `sleep` are the executed work item's fields; the prefix itself was consumed by the session's scheduler, and
/// only its length matters here (in-prefix points were already walked when
/// the prefix was recorded — the [`kset_sim::ChoiceScheduler`] does not
/// even log their options). `proof` is what the run's [`WalkGate`]
/// already established about its states against `global`.
#[allow(clippy::too_many_arguments)]
fn walk_run(
    cfg: &CheckerConfig,
    prefix_len: usize,
    sleep: Vec<SleepEntry>,
    log: &ChoiceLog,
    digests: &[u64],
    proof: GateProof,
    global: &Sharded,
    out: &mut TaskOutcome,
    push: &mut impl FnMut(WorkItem),
    scratch: &mut WalkScratch,
) {
    let mut sleep = sleep;
    let WalkScratch {
        taken,
        explored,
        children,
        sleeps,
        prefixes,
    } = scratch;
    taken.clear();
    taken.extend((0..log.len()).map(|i| log.taken(i)));
    // The gate already saw the frozen `global` miss at every depth the run
    // reached; only this task's table, which has grown since, is re-probed.
    let probe_global = proof == GateProof::None;
    let mut cut = false;
    for d in prefix_len..log.len() {
        let point = log.point(d);

        // Deduplicate on the state this point decides from (the state
        // after d fired events; the root state, d = 0, is unique per
        // pattern anyway). `global` is the frozen pre-wave snapshot; new
        // insertions go to the task-local table.
        if cfg.dedup && d > 0 {
            let fingerprint = digests[d - 1];
            let covered = if !probe_global && out.visited.inserted() < cfg.max_states {
                // Only the task-local table is asked: one probe decides
                // and records.
                let inserted = out.visited.insert_unless_covered(fingerprint, &sleep);
                out.states += usize::from(inserted);
                !inserted
            } else {
                // Task-local table first: it is small and cache-hot, and
                // `||` makes the probe order invisible to the verdict.
                let covered = out.visited.covers(fingerprint, &sleep)
                    || (probe_global && global.covers(fingerprint, &sleep));
                if !covered && out.visited.inserted() < cfg.max_states {
                    out.visited.insert(fingerprint, &sleep);
                    out.states += 1;
                }
                covered
            };
            if covered {
                out.dedup_hits += 1;
                cut = true;
                break;
            }
        }

        let taken_meta = point.taken_meta();
        if !point.forced {
            // Alternatives in canonical order; `explored` grows so each
            // later sibling sleeps on the earlier ones (their subtrees
            // complete first under LIFO scheduling).
            explored.clear();
            explored.push(SleepEntry {
                id: taken_meta.id,
                target: taken_meta.target,
            });
            for (i, opt) in point.options.iter().enumerate() {
                if i == point.taken || opt.noop {
                    continue;
                }
                if sleep.iter().any(|s| s.id == opt.meta.id) {
                    out.sleep_skips += 1;
                    continue;
                }
                let mut prefix = prefixes.pop().unwrap_or_default();
                prefix.clear();
                prefix.reserve(d + 1);
                prefix.extend_from_slice(&taken[..d]);
                prefix.push(i);
                let mut child_sleep = sleeps.pop().unwrap_or_default();
                child_sleep.clear();
                child_sleep.extend(
                    sleep
                        .iter()
                        .chain(explored.iter())
                        .filter(|s| s.target != opt.meta.target)
                        .copied(),
                );
                children.push(WorkItem {
                    prefix,
                    sleep: child_sleep,
                });
                explored.push(SleepEntry {
                    id: opt.meta.id,
                    target: opt.meta.target,
                });
            }
            // Reverse so the canonically-first sibling pops first; its
            // whole subtree finishes before the next sibling, which is
            // what the accumulated sleep sets assume.
            for child in children.drain(..).rev() {
                push(child);
            }
        }
        // Firing the taken event wakes its dependents.
        sleep.retain(|s| s.target != taken_meta.target);
    }
    // A run the gate stopped at a covered state ends where the walk would
    // have cut it: the cover the gate saw there still holds (stores only
    // grow, and the gate's sleep set evolved exactly as this walk's).
    if !cut && proof == GateProof::Covered {
        out.dedup_hits += 1;
    }
    // The walked item's sleep vector feeds the free list.
    sleeps.push(sleep);
}

/// What a run's [`WalkGate`] established while the run executed, handed
/// to [`walk_run`] so it does not re-prove it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GateProof {
    /// Nothing: the gate does not stop runs early ([`ForkMode::Replay`],
    /// or a search without dedup). The walk probes both stores.
    None,
    /// The frozen wave store missed at every beyond-prefix state the run
    /// reached, and the run ran to termination.
    Misses,
    /// As [`GateProof::Misses`] below the log's end, and the stores cover
    /// the state at the log's end: the run stopped there.
    Covered,
}

/// What one exploration task runs against: the cell, its fault pattern
/// (`crashed` is the pattern's faulty set) and the frozen wave store.
pub(super) struct Task<'a> {
    pub(super) cfg: &'a CheckerConfig,
    pub(super) inputs: &'a [u64],
    pub(super) spec: &'a ProblemSpec,
    pub(super) plan: &'a FaultPlan,
    pub(super) crashed: &'a [ProcessId],
    pub(super) global: &'a Sharded,
}

/// Runs one exploration task: a serial DFS over the stack segment
/// `stack`, pruning against the frozen `global` snapshot plus a
/// task-owned visited table. Stops at the task's first violation (in DFS
/// order), at the `max_runs` truncation bound (marking the verdict
/// incomplete), or after `budget` runs — in which case the unexplored
/// stack is spilled back to the scheduler, not dropped.
///
/// The task runs on one [`ForkSession`] of the pattern: the statically
/// faithful one without a deviation policy, a [`ForkSession::deviant`] one
/// under it. Every
/// [`QuorumProtocol`](crate::exhaustive::QuorumProtocol)'s processes are
/// forkable, so the session is always built.
pub(super) fn explore_task(task: &Task, stack: Vec<WorkItem>, budget: u64) -> TaskOutcome {
    let (protocol, inputs, t) = (task.cfg.protocol, task.inputs, task.cfg.t);
    if protocol.shared_memory() {
        let procs = sm_processes(protocol, inputs, t);
        explore_task_on::<SmSubstrate<u64, u64>>(task, stack, budget, procs)
    } else {
        let procs = mp_processes(protocol, inputs, t);
        explore_task_on::<MpSubstrate<u64, u64>>(task, stack, budget, procs)
    }
}

/// [`explore_task`] on substrate `Sub`: builds the pattern's session over
/// `procs` and runs the task on it.
fn explore_task_on<Sub>(
    task: &Task,
    stack: Vec<WorkItem>,
    budget: u64,
    procs: Vec<Sub::Process>,
) -> TaskOutcome
where
    Sub: SubstrateFork<Output = u64> + SubstrateAdv,
{
    const FORKABLE: &str = "every checked protocol's processes are forkable";
    let (cfg, plan) = (task.cfg, task.plan);
    let config = cfg.fork_config(task.inputs);
    match cfg.pattern_policy(plan) {
        None => {
            // The same fail-closed rule as [`execute_schedule_in`]: a
            // Byzantine slot on the faithful path would certify crash
            // semantics under a Byzantine label.
            assert!(!plan.has_byzantine(), "{BYZANTINE_WITHOUT_POLICY}");
            let mut session = ForkSession::<Sub>::new(config, plan.clone(), procs).expect(FORKABLE);
            explore_stack(task, &mut session, stack, budget)
        }
        Some(policy) => {
            let mut session =
                ForkSession::<Sub, DeviantDelivery>::deviant(config, plan.clone(), procs, policy)
                    .expect(FORKABLE);
            explore_stack(task, &mut session, stack, budget)
        }
    }
}

/// The checker's [`ForkGate`]: a mirror of [`walk_run`]'s dedup rule that
/// runs *during* execution, so the forking executor stops a run at the
/// first beyond-prefix state the walk would cut it at.
///
/// `covered` probes the task-local table as it stood when the run started
/// and the frozen wave store — never this run's own insertions, which the
/// walk makes only after the run, so a state repeated within one run never
/// stops it. Because visited stores only grow, a cover observed here still
/// holds when the walk reaches the same depth, and the walk cuts there or
/// earlier. The sleep set evolves exactly as the walk's: `on_fired` wakes
/// dependents of each beyond-prefix fired event. Since the run ends at the
/// cut, every point it reaches can still branch: `branches_beyond` always
/// answers true.
///
/// Stopping at a covered state rests on the premise dedup already rests
/// on: the first expansion of `(fingerprint, sleep ⊆ current)` explores
/// every continuation, the canonical one included. So `active` is off
/// without dedup, and under [`ForkMode::Replay`], which runs every
/// schedule to termination; the gate then never stops a run.
struct WalkGate<'a> {
    active: bool,
    global: &'a Sharded,
    visited: &'a Visited,
    sleep: Vec<SleepEntry>,
    /// Probes of `global` (made when `visited` misses) and their covers.
    store_probes: u64,
    store_hits: u64,
}

impl ForkGate for WalkGate<'_> {
    fn branches_beyond(&mut self, _depth: usize, _fingerprint: u64) -> bool {
        true
    }

    fn covered(&mut self, _depth: usize, fingerprint: u64) -> bool {
        if !self.active {
            return false;
        }
        if self.visited.covers(fingerprint, &self.sleep) {
            return true;
        }
        self.store_probes += 1;
        let covered = self.global.covers(fingerprint, &self.sleep);
        self.store_hits += u64::from(covered);
        covered
    }

    fn on_fired(&mut self, target: ProcessId) {
        self.sleep.retain(|s| s.target != target);
    }

    fn is_asleep(&self, id: EventId) -> bool {
        self.sleep.iter().any(|s| s.id == id)
    }
}

/// The explorer's one execute–score–walk loop: one [`ForkSession`] owns
/// the kernel, process and digest state for the whole task, each work item
/// resumes from the snapshot captured at its branch point (or replays from
/// the root when none was — [`ForkMode::Replay`], byte budget, restored
/// continuation), and the walk attaches the current run's snapshots to the
/// children it stages. Under [`ForkMode::Auto`] a run stops at its first
/// covered state ([`WalkGate`]); it still counts as a run, but its partial
/// decisions are neither checked nor scored. All observables — verdicts,
/// counters, counterexample bytes — are identical in both modes
/// (`tests/fork_parity.rs` pins this).
fn explore_stack<Sub, D>(
    task: &Task,
    session: &mut ForkSession<Sub, D>,
    stack: Vec<WorkItem>,
    budget: u64,
) -> TaskOutcome
where
    Sub: SubstrateFork<Output = u64>,
    D: Delivery<Sub>,
{
    let Task {
        cfg,
        inputs,
        spec,
        plan,
        crashed,
        global,
    } = *task;
    let mut out = TaskOutcome::new();
    // The DFS stack pairs each item with the snapshot to resume from.
    // LIFO order is what makes resumption sound: everything pushed above
    // an item branches at least as deep as the item's own branch point,
    // so the session's choice log always still carries the item's prefix
    // when its turn comes.
    let mut stack: Vec<(WorkItem, Option<Rc<RunSnapshot<Sub>>>)> =
        stack.into_iter().map(|item| (item, None)).collect();
    let mut scratch = WalkScratch::default();
    // The gate's copy of each item's sleep set, refilled in place per run.
    let mut gate_sleep = Vec::new();
    // Derived, not a knob: see [`WalkGate`] for why replay and searches
    // without dedup run every schedule to termination.
    let truncate = cfg.fork == ForkMode::Auto && cfg.dedup;
    while let Some((item, snap)) = stack.pop() {
        if out.runs >= cfg.max_runs {
            out.complete = false;
            break;
        }
        if out.runs >= budget {
            stack.push((item, snap));
            // Snapshots are a per-task acceleration, not search state:
            // spills shed them so WorkItem — and with it the campaign
            // checkpoint format — stays replayable everywhere.
            out.spill = stack.into_iter().map(|(item, _)| item).collect();
            break;
        }
        let WorkItem { prefix, sleep } = item;
        let prefix_len = prefix.len();
        let resumed_at = snap.as_ref().map_or(0, |snapshot| snapshot.depth());
        gate_sleep.clear();
        gate_sleep.extend_from_slice(&sleep);
        let mut gate = WalkGate {
            active: truncate,
            global,
            visited: &out.visited,
            sleep: gate_sleep,
            store_probes: 0,
            store_hits: 0,
        };
        match snap {
            Some(snapshot) => session.resume_rc(snapshot, prefix, &mut gate),
            None => session.run_root(prefix, &mut gate),
        }
        .expect("checker-built system configurations are valid");
        gate_sleep = gate.sleep;
        out.store_probes += gate.store_probes;
        out.store_hits += gate.store_hits;
        scratch.prefixes.push(session.take_spent_prefix());
        let truncated = session.truncated();
        let proof = match (truncate, truncated) {
            (false, _) => GateProof::None,
            (true, false) => GateProof::Misses,
            (true, true) => GateProof::Covered,
        };
        out.runs += 1;
        out.events_fired += (session.digests().len() - resumed_at) as u64;
        out.truncated_runs += u64::from(truncated);

        // A truncated run's decisions are partial; the expansion that
        // covers its last state checks every continuation from there.
        if !truncated {
            // Read the run's observables in place — no per-run export
            // copies, and `crashed` doubles as the (task-constant) faulty
            // set.
            let decisions = session.decisions();
            out.worst_agreement = out
                .worst_agreement
                .max(distinct_correct_decisions(decisions, crashed));
            if let Some(message) =
                violation_of(spec, inputs, decisions, crashed, session.terminated())
            {
                let log = session.log();
                let (plan_crashed, plan_byzantine) = plan_slots(plan);
                out.violation = Some(Counterexample {
                    crashed: plan_crashed,
                    byzantine: plan_byzantine,
                    choices: log.taken_indices(),
                    fired: log.fired_script(),
                    violation: message,
                });
                break;
            }
        }
        let log = session.log();
        walk_run(
            cfg,
            prefix_len,
            sleep,
            &log,
            session.digests(),
            proof,
            global,
            &mut out,
            &mut |child: WorkItem| {
                let snapshot = session.snapshot_at(child.prefix.len() - 1);
                stack.push((child, snapshot));
            },
            &mut scratch,
        );
        drop(log);
    }
    out.fork = session.counters();
    out
}
