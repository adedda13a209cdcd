//! Schedule-space model checking of the *real* simulator.
//!
//! The repository verifies protocols three ways, with complementary trust
//! stories:
//!
//! * [`crate::exhaustive`] enumerates outcome *profiles* analytically — it
//!   argues on paper which quorums are schedulable, then checks every
//!   combination. Fast and complete, but it trusts a hand-written model of
//!   each protocol's decision function.
//! * [`crate::explorer`] (`probe_cell`) throws random seeds and partition
//!   schedules at a cell — it runs the real code, but only samples the
//!   schedule space.
//! * This module closes the gap: it drives the **actual**
//!   [`kset_net::MpSystem`] / [`kset_shmem::SmSystem`] kernels through
//!   *every* scheduler decision at small `n`, so the verdict is both
//!   systematic (like `exhaustive`) and about the deployed code (like
//!   `probe_cell`).
//!
//! # How exploration works
//!
//! The checker is a *stateless* (re-execution based) explorer in the style
//! of systematic concurrency testers: a schedule is a sequence of canonical
//! choice indices (see [`kset_sim::ChoiceScheduler`]); the engine runs the
//! kernel under a prefix, reads the recorded [`kset_sim::ChoiceLog`] back,
//! and pushes one work item per untried alternative at every beyond-prefix
//! decision point. Because the kernel is deterministic given the prefix,
//! re-execution is exact. One executor runs every work item: a
//! [`kset_sim::ForkSession`] per task, which resumes an item from the
//! snapshot taken at its branch point or replays it from the root, and
//! under [`ForkMode::Auto`] stops a run at its first state the visited
//! stores already cover, the point where the walk would stop reading it
//! anyway.
//! States are fingerprinted under a digest mode the cell's inputs select
//! (see [`CheckerConfig::digest`]).
//!
//! Three reductions keep the tree tractable without losing soundness:
//!
//! * **No-op pruning** — events targeting decided or crashed processes
//!   cannot change protocol state (every handler in this workspace guards
//!   on `has_decided`, and the kernel drops deliveries to crashed
//!   processes). The scheduler fires them eagerly as *forced* points and
//!   the explorer never branches over them.
//! * **Sleep sets** — two deliveries to *different* processes commute: a
//!   handler mutates only its own process's state, and the events it posts
//!   get distinct ids either way, which the state digest ignores. After
//!   fully exploring the subtree that fires event `a` at a point, `a` is
//!   put to sleep in the sibling subtrees so interleavings differing only
//!   in the order of independent events are visited once.
//! * **State-digest deduplication** — [`kset_sim::StateDigest`]
//!   fingerprints of the full system state (per-process protocol state,
//!   crash flags, decisions, shared registers, pending pool as a multiset)
//!   let the explorer cut off a node whose state was already expanded.
//!   Combining this with sleep sets is only sound under a subset rule: a
//!   node is pruned only if the state was previously visited with a sleep
//!   set **contained in** the current one (otherwise the earlier visit
//!   explored strictly fewer successors).
//!
//! Crash behaviour is quantified separately: solving `SC(k, t, C)` means
//! surviving *every* pattern of at most `t` silent crashes under every
//! schedule, so [`check_cell`] runs one exploration per pattern from
//! [`kset_adversary::plans::all_silent_crash_patterns`].
//!
//! # Parallel exploration
//!
//! Stateless re-execution is embarrassingly parallel: two work items never
//! share kernel state, so any partition of the tree can run on any worker.
//! [`explore_pattern`] shards each crash pattern's tree at its **first
//! deviation from the canonical run**: the empty-prefix run is executed
//! once, every sibling it would enqueue becomes an independent *task*, and
//! [`crate::engine::parallel_drain_watched`] drains the tasks in waves
//! across [`CheckerConfig::threads`] workers, each claiming the next task
//! from one shared FIFO queue. Tasks are not subtrees run to completion:
//! after a constant run budget (`TASK_BUDGET` schedules) a task spills its
//! remaining DFS stack back into the queue as fresh tasks, which both
//! load-balances wildly skewed subtrees and bounds how stale any worker's
//! view of the dedup table can get.
//!
//! Four rules keep every observable — verdicts, counters, counterexample
//! bytes — **identical for every thread count**:
//!
//! * **Dedup sharing is chunk-synchronized.** Unrestricted sharing of the
//!   visited table would stay *sound* under concurrent insertion
//!   (deduplication only ever over-approximates "explore again"; a missed
//!   or lost hit costs time, never coverage), but whether a hit lands
//!   would depend on worker timing, and with it the run counters. So each
//!   task inserts into a table of its own and prunes against it plus a
//!   **frozen snapshot**: the shared store holding the tables of every
//!   task in *earlier* waves. What a task can see is then a function of
//!   its index alone. The price is the hits two tasks in the *same* wave
//!   could have fed each other; that is the whole time-vs-determinism
//!   trade, and it is bounded by the wave width.
//! * **The barrier fold is partitioned, not raced.** The shared store is
//!   split into [`crate::visited::SHARDS`] tables by fingerprint bits
//!   ([`crate::visited::shard_of`]). Each task groups its table's entries
//!   by shard before it returns; at the barrier the workers fold the
//!   shards in parallel, each shard on one worker, the wave's tables in
//!   claim order. Every shard then absorbs its entries in the order one
//!   serial fold would, for any worker count.
//! * **Early exit is chunk-aligned.** Tasks are processed in fixed-size
//!   waves; a violation stops the search at the next wave boundary, and
//!   every task of a processed wave runs to completion. The executed set
//!   is therefore a pure function of the task list.
//! * **The reported violation is the canonically first one** — lowest task
//!   index, not earliest wall-clock discovery — and shrinking re-executes
//!   deterministically from it.
//!
//! When a run violates the `SC(k, t, C)` specification, the schedule is
//! [shrunk][shrink_counterexample] greedily and emitted as a plain-text
//! replay script (see [`write_counterexample`]) that the `model_check`
//! binary can re-execute deterministically.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use crate::campaign::store::CampaignStore;
use crate::engine::{DrainExit, WaveControl};

use kset_adversary::plans::{all_byzantine_patterns, all_silent_crash_patterns};
use kset_core::{ProblemSpec, ValidityCondition};
use kset_net::{DynMpProcess, MpSubstrate};
use kset_protocols::{FloodMin, ProtocolA, ProtocolB, ProtocolE, ProtocolF};
use kset_regions::Model;
use kset_shmem::{DynSmProcess, SmSubstrate};
use kset_sim::{
    ChoiceLog, ChoiceScheduler, Delivery, Deviation, DeviantDelivery, DeviationPolicy, DigestMode,
    EventId, FaultKind, FaultPlan, FaultSpec, ForkConfig, ForkCounters, ForkGate, ForkSession,
    MetricsConfig, ProcessId, RunArena, RunMetrics, RunSnapshot, RunStats, SimError, SubstrateAdv,
    SubstrateFork, System,
};

use crate::cells::DEFAULT_VALUE;
use crate::exhaustive::QuorumProtocol;
use crate::record_sink::{RunOutcome, RunRecord};

/// The checker's input: a cell plus exploration bounds and switches.
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// Protocol under test.
    pub protocol: QuorumProtocol,
    /// System size (keep small: the tree is exponential in events).
    pub n: usize,
    /// Agreement bound of the specification.
    pub k: usize,
    /// Fault budget; also sizes the crash-pattern quantification.
    pub t: usize,
    /// Validity condition of the specification.
    pub validity: ValidityCondition,
    /// Maximum decision depth at which the explorer still branches;
    /// beyond it, runs continue with defaults (the verdict is then marked
    /// incomplete if alternatives were dropped).
    pub depth: usize,
    /// CHESS-style preemption bound: maximum number of branch decisions
    /// that switch away from a process which still had an enabled event.
    /// `None` means unbounded.
    pub preemptions: Option<usize>,
    /// Run budget of one crash pattern's exploration. Enforced per task
    /// and, deterministically, at every wave boundary of the parallel
    /// drain (see the module docs), so the total may overshoot by at most
    /// one wave of task budgets; hitting it marks the verdict incomplete.
    pub max_runs: u64,
    /// Maximum number of sleep-set entries cached per task's visited
    /// table; when full, exploration continues but stops memoizing
    /// (sound, just slower).
    pub max_states: usize,
    /// Partial-order reduction (no-op preference + sleep sets). Disabling
    /// explores the raw schedule tree.
    pub por: bool,
    /// State-digest deduplication.
    pub dedup: bool,
    /// Emit a progress line to stderr at the first wave barrier after
    /// each multiple of this many runs of a fault pattern.
    pub progress: Option<u64>,
    /// Worker threads for the parallel exploration engine. Verdicts,
    /// counters and counterexamples are identical for every value (see
    /// the module docs); only wall-clock time changes.
    pub threads: usize,
    /// How the task's fork session reaches each work item's first
    /// beyond-prefix decision point: replay from the root, or (the
    /// default) resume from a branch-point snapshot under a byte budget
    /// with replay from the root as the fallback. Like `threads`, this is
    /// a pure execution strategy — verdicts, counters and counterexample
    /// bytes are identical for every value (pinned by
    /// `tests/fork_parity.rs`).
    pub fork: ForkMode,
    /// The adversary the cell is certified against — which fault patterns
    /// are quantified and which in-transit deviations each pattern may
    /// apply (see [`AdversaryModel`]). Must match the protocol's
    /// substrate; [`CheckerConfig::validate`] rejects mismatches.
    pub adversary: AdversaryModel,
    /// The forged-value menu of a Byzantine adversary: every value a
    /// Byzantine-sourced delivery may be corrupted to. Each menu entry
    /// multiplies the branch factor of every Byzantine-sourced event, so
    /// keep it to the values the protocol can actually distinguish
    /// (for the canonical inputs, a subset of them). Empty menu + no
    /// silence collapses the behaviour space to crash-only.
    pub byz_menu: Vec<u64>,
    /// Whether a Byzantine process may additionally *withhold* any of its
    /// messages (selective silence) — one extra `drop` branch per
    /// Byzantine-sourced delivery.
    pub byz_silence: bool,
    /// Message-drop budget of the lossy-network adversary: the scheduler
    /// may drop up to this many deliveries per run, each drop an extra
    /// branch point. `0` disables loss.
    pub loss_budget: u64,
    /// Override for the run inputs; `None` means [`canonical_inputs`].
    /// Byzantine frontiers are input-sensitive (an all-equal vector pins
    /// down validity where all-distinct inputs leave it vacuous), so the
    /// certification cells below set this explicitly.
    pub inputs: Option<Vec<u64>>,
}

/// Execution strategy for reaching a work item's branch point — see
/// [`CheckerConfig::fork`]. Both modes run on the same explorer and fork
/// session; they differ only in the session's snapshot depth and in
/// whether a run may stop early.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForkMode {
    /// Re-execute every work item's prefix from the initial state and run
    /// it to termination: the session takes no snapshot (its
    /// `max_branch_depth` is 0) and the walk's gate never stops a run. The
    /// stateless configuration, kept as the cross-check of
    /// [`ForkMode::Auto`].
    Replay,
    /// Resume every work item from the snapshot taken at its branch
    /// point. Items whose snapshot was elided replay: spilled
    /// continuations, and points reached while a task's live snapshot
    /// bytes exceed a fixed budget. Unless the search is depth- or
    /// preemption-bounded, a run stops at its first state the visited
    /// stores already cover, where the walk would stop reading it: all of
    /// its continuations are explored from the covering state. The
    /// default.
    Auto,
}

/// Per-task live-snapshot byte budget of [`ForkMode::Auto`]. Generous for
/// the small-`n` cells the checker targets (an `n = 4` snapshot is ~2 KiB
/// and a task's DFS stack holds at most a few thousand), yet it bounds
/// memory on raw (`--no-por --no-dedup`) explosions and larger `n`.
const AUTO_FORK_BUDGET: usize = 64 << 20;

impl fmt::Display for ForkMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ForkMode::Replay => "replay",
            ForkMode::Auto => "auto",
        })
    }
}

/// Parses a fork mode as accepted by the `model_check` binary
/// (`replay`/`auto`, case-insensitive).
pub fn parse_fork_mode(arg: &str) -> Option<ForkMode> {
    Some(match arg.trim().to_ascii_lowercase().as_str() {
        "replay" => ForkMode::Replay,
        "auto" => ForkMode::Auto,
        _ => return None,
    })
}

/// The adversary a cell is certified against.
///
/// The crash adversaries quantify over
/// [`all_silent_crash_patterns`]; the Byzantine adversaries over
/// [`all_byzantine_patterns`], with each Byzantine slot's in-transit
/// behaviour (forged values from [`CheckerConfig::byz_menu`], selective
/// silence) an extra branch point of every schedule; the lossy adversary
/// keeps the crash pattern space but lets the scheduler drop up to
/// [`CheckerConfig::loss_budget`] deliveries per run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdversaryModel {
    /// Message passing, at most `t` silent crashes (the paper's Section 3
    /// crash model; the default for MP protocols).
    MpCrash,
    /// Shared memory, at most `t` silent crashes (Section 4; the default
    /// for SM protocols).
    SmCrash,
    /// Message passing, at most `t` Byzantine processes whose outgoing
    /// messages may be forged or withheld in transit (Section 3's
    /// Byzantine rows — Lemmas 3.10–3.13).
    MpByz,
    /// Shared memory, at most `t` Byzantine processes whose register
    /// reads may surface forged values (Section 4's Byzantine rows —
    /// Lemmas 4.9–4.10).
    SmByz,
    /// Message passing with silent crashes *and* a bounded number of
    /// message drops per run — the lossy-network variant.
    MpLossy,
}

impl AdversaryModel {
    /// Whether this adversary lives on the shared-memory substrate.
    pub fn shared_memory(&self) -> bool {
        matches!(self, AdversaryModel::SmCrash | AdversaryModel::SmByz)
    }

    /// Whether the fault-pattern space contains Byzantine slots.
    pub fn is_byzantine(&self) -> bool {
        matches!(self, AdversaryModel::MpByz | AdversaryModel::SmByz)
    }

    /// Whether the scheduler may drop deliveries outright.
    pub fn is_lossy(&self) -> bool {
        matches!(self, AdversaryModel::MpLossy)
    }

    /// The stable slug used in file names, bench JSON and CLI parsing.
    pub fn slug(&self) -> &'static str {
        match self {
            AdversaryModel::MpCrash => "mp_crash",
            AdversaryModel::SmCrash => "sm_crash",
            AdversaryModel::MpByz => "mp_byz",
            AdversaryModel::SmByz => "sm_byz",
            AdversaryModel::MpLossy => "mp_lossy",
        }
    }
}

impl fmt::Display for AdversaryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Parses an adversary model as accepted by the `model_check` binary's
/// `--model` flag (the slugs of [`AdversaryModel::slug`],
/// case-insensitive).
pub fn parse_adversary_model(arg: &str) -> Option<AdversaryModel> {
    Some(match arg.trim().to_ascii_lowercase().as_str() {
        "mp_crash" => AdversaryModel::MpCrash,
        "sm_crash" => AdversaryModel::SmCrash,
        "mp_byz" => AdversaryModel::MpByz,
        "sm_byz" => AdversaryModel::SmByz,
        "mp_lossy" => AdversaryModel::MpLossy,
        _ => return None,
    })
}

impl CheckerConfig {
    /// A configuration with effectively unbounded exploration (the
    /// practical limits `max_runs`/`max_states` still apply), and
    /// partial-order reduction and dedup enabled.
    pub fn new(
        protocol: QuorumProtocol,
        n: usize,
        k: usize,
        t: usize,
        validity: ValidityCondition,
    ) -> Self {
        CheckerConfig {
            protocol,
            n,
            k,
            t,
            validity,
            depth: usize::MAX,
            preemptions: None,
            max_runs: 10_000_000,
            max_states: 1 << 22,
            por: true,
            dedup: true,
            progress: None,
            threads: crate::engine::available_threads(),
            fork: ForkMode::Auto,
            adversary: if protocol.shared_memory() {
                AdversaryModel::SmCrash
            } else {
                AdversaryModel::MpCrash
            },
            byz_menu: Vec::new(),
            byz_silence: false,
            loss_budget: 0,
            inputs: None,
        }
    }

    /// The paper-region model the configured adversary certifies against.
    /// The lossy variant keeps the crash model's region bookkeeping: it
    /// is the crash adversary over an unreliable network, and the
    /// [`kset_regions::Model`] taxonomy has no separate row for it.
    pub fn model(&self) -> Model {
        match self.adversary {
            AdversaryModel::MpCrash | AdversaryModel::MpLossy => Model::MpCrash,
            AdversaryModel::SmCrash => Model::SmCrash,
            AdversaryModel::MpByz => Model::MpByzantine,
            AdversaryModel::SmByz => Model::SmByzantine,
        }
    }

    /// Rejects configurations whose verdict would be *about the wrong
    /// model*: a substrate mismatch between adversary and protocol, a
    /// Byzantine behaviour menu under a non-Byzantine adversary (it would
    /// silently never branch), a loss budget under a loss-free adversary,
    /// or an input vector of the wrong length. [`check_cell`] treats any
    /// of these as a hard error — certifying under a model the caller did
    /// not ask for is precisely the failure mode this guards against.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.adversary.shared_memory() != self.protocol.shared_memory() {
            return Err(format!(
                "adversary model {} runs on the {} substrate but protocol {} is {}; \
                 pick a matching --model",
                self.adversary,
                if self.adversary.shared_memory() { "shared-memory" } else { "message-passing" },
                self.protocol.name(),
                if self.protocol.shared_memory() { "shared-memory" } else { "message-passing" },
            ));
        }
        if !self.adversary.is_byzantine() && (!self.byz_menu.is_empty() || self.byz_silence) {
            return Err(format!(
                "Byzantine behaviour space (menu {:?}, silence {}) configured under \
                 non-Byzantine adversary {}; it would never apply",
                self.byz_menu, self.byz_silence, self.adversary,
            ));
        }
        if !self.adversary.is_lossy() && self.loss_budget > 0 {
            return Err(format!(
                "loss budget {} configured under loss-free adversary {}",
                self.loss_budget, self.adversary,
            ));
        }
        if let Some(inputs) = &self.inputs {
            if inputs.len() != self.n {
                return Err(format!(
                    "inputs {:?} has length {} but n = {}",
                    inputs,
                    inputs.len(),
                    self.n,
                ));
            }
        }
        Ok(())
    }

    /// The input vector the cell runs with: the explicit override, or the
    /// canonical all-distinct vector.
    pub fn cell_inputs(&self) -> Vec<u64> {
        self.inputs
            .clone()
            .unwrap_or_else(|| canonical_inputs(self.n))
    }

    /// The deviation policy of the configured adversary, `None` when the
    /// behaviour space is empty (crash adversaries, or a Byzantine/lossy
    /// adversary with no menu, no silence and no budget — which by design
    /// collapses to the crash-only checker, bit for bit).
    pub fn deviation_policy(&self) -> Option<DeviationPolicy> {
        let policy = if self.adversary.is_byzantine() {
            DeviationPolicy::byzantine(self.byz_menu.clone(), self.byz_silence)
        } else if self.adversary.is_lossy() {
            DeviationPolicy::lossy(self.loss_budget)
        } else {
            return None;
        };
        policy.is_active().then_some(policy)
    }

    /// The deviation policy *one pattern's* exploration runs under: the
    /// cell policy, dropped entirely for Byzantine-adversary patterns
    /// without a single Byzantine slot. Such patterns cannot deviate, and
    /// taking the literal crash-only code path (the statically faithful
    /// delivery on either executor) keeps them byte-identical to the crash
    /// checker.
    pub fn pattern_policy(&self, plan: &FaultPlan) -> Option<DeviationPolicy> {
        let policy = self.deviation_policy()?;
        if self.adversary.is_byzantine() && !plan.has_byzantine() {
            return None;
        }
        Some(policy)
    }

    /// The fault patterns the cell quantifies over: every assignment of
    /// at most `t` Byzantine/silent slots for an *active* Byzantine
    /// adversary, every pattern of at most `t` silent crashes otherwise.
    /// An inactive Byzantine space (empty menu, no silence) deliberately
    /// collapses to the crash enumeration — a Byzantine process with no
    /// available deviation *is* a correct process, and enumerating
    /// behaviour-free Byzantine slots would only re-explore crash
    /// subsets.
    pub fn fault_plans(&self) -> Vec<FaultPlan> {
        if self.adversary.is_byzantine() && self.deviation_policy().is_some() {
            all_byzantine_patterns(self.n, self.t)
        } else {
            all_silent_crash_patterns(self.n, self.t)
        }
    }

    /// The digest mode this cell's exploration runs under, derived from
    /// [`CheckerConfig::cell_inputs`]: [`DigestMode::Canonical`] when some
    /// input value repeats, [`DigestMode::Plain`] otherwise. Reported, not
    /// configurable.
    pub fn digest(&self) -> DigestMode {
        digest_mode(&self.cell_inputs())
    }

    /// The fork session's configuration for an exploration over `inputs`:
    /// the cell's `n`, reductions and digest mode, the [`ForkMode::Auto`]
    /// byte budget, and branch snapshots cut off at the explorer's depth
    /// bound (beyond it nothing branches, so a snapshot could never be
    /// consumed) — or at depth 0 under [`ForkMode::Replay`], so that no
    /// snapshot is taken and every run replays from the root.
    fn fork_config(&self, inputs: &[u64]) -> ForkConfig {
        ForkConfig {
            n: self.n,
            por: self.por,
            digest: digest_mode(inputs),
            event_limit: None,
            max_branch_depth: match self.fork {
                ForkMode::Replay => 0,
                ForkMode::Auto => self.depth,
            },
            budget_bytes: Some(AUTO_FORK_BUDGET),
        }
    }
}

/// The digest mode of an exploration over `inputs`. Canonical digests
/// merge states that differ only by a permutation of process ids (symmetry
/// reduction). Processes holding the same input are interchangeable, so a
/// repeated value is where the canonical digest merges states and pays
/// for itself; with all-distinct inputs it merges nothing and only costs
/// (`PERFORMANCE.md` has both sides measured). Verdicts, worst agreement
/// and counterexample bytes are identical under either mode.
fn digest_mode(inputs: &[u64]) -> DigestMode {
    if (1..inputs.len()).any(|i| inputs[..i].contains(&inputs[i])) {
        DigestMode::Canonical
    } else {
        DigestMode::Plain
    }
}

/// The canonical model-checking inputs: process `p` starts with value `p`.
/// All-distinct inputs maximize the number of observable decision profiles,
/// which is what makes small-`n` verdicts meaningful.
pub fn canonical_inputs(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// Builds the boxed process vector for a message-passing protocol cell —
/// the single construction point shared by the explorer's fork sessions,
/// [`execute_schedule_in`] and the fired-id replayer.
///
/// # Panics
///
/// Panics on a shared-memory protocol; callers gate on
/// [`QuorumProtocol::shared_memory`].
fn mp_processes(
    protocol: QuorumProtocol,
    inputs: &[u64],
    t: usize,
) -> Vec<DynMpProcess<u64, u64>> {
    let n = inputs.len();
    (0..n)
        .map(|p| match protocol {
            QuorumProtocol::FloodMin => FloodMin::boxed(n, t, inputs[p]),
            QuorumProtocol::ProtocolA => ProtocolA::boxed(n, t, inputs[p], DEFAULT_VALUE),
            QuorumProtocol::ProtocolB => ProtocolB::boxed(n, t, inputs[p], DEFAULT_VALUE),
            _ => unreachable!("shared_memory() gates the protocol"),
        })
        .collect()
}

/// [`mp_processes`] for the shared-memory protocols.
fn sm_processes(
    protocol: QuorumProtocol,
    inputs: &[u64],
    t: usize,
) -> Vec<DynSmProcess<u64, u64>> {
    let n = inputs.len();
    (0..n)
        .map(|p| match protocol {
            QuorumProtocol::ProtocolE => ProtocolE::boxed(n, t, inputs[p], DEFAULT_VALUE),
            QuorumProtocol::ProtocolF => ProtocolF::boxed(n, t, inputs[p], DEFAULT_VALUE),
            _ => unreachable!("shared_memory() gates the protocol"),
        })
        .collect()
}

/// One executed schedule, distilled for the explorer.
#[derive(Clone, Debug)]
pub struct ScheduleRun {
    /// The recorded decision points, one per fired event.
    pub log: ChoiceLog,
    /// System-state digest after each fired event (`digests[i]` is the
    /// state `log.point(i)` produced).
    pub digests: Vec<u64>,
    /// Decisions by process id.
    pub decisions: BTreeMap<ProcessId, u64>,
    /// Faulty processes of the run.
    pub faulty: Vec<ProcessId>,
    /// Whether every correct process decided.
    pub terminated: bool,
    /// Kernel aggregate counters.
    pub stats: RunStats,
    /// Per-process metrics when requested.
    pub metrics: Option<RunMetrics>,
}

impl ScheduleRun {
    /// Number of distinct values decided by correct processes.
    pub fn distinct_correct_decisions(&self) -> usize {
        let n = self.decisions.keys().next_back().map_or(0, |&p| p + 1);
        distinct_correct_decisions(&decision_table(&self.decisions, n), &self.faulty)
    }

    /// Checks the run, executed over `inputs`, against `spec`;
    /// `Some(message)` on violation.
    fn violation(&self, spec: &ProblemSpec, inputs: &[u64]) -> Option<String> {
        let decisions = decision_table(&self.decisions, inputs.len());
        violation_of(spec, inputs, &decisions, &self.faulty, self.terminated)
    }
}

/// A decision map as a table with one slot per process of an `n`-process
/// run: the dense form the explorer scores its runs in.
fn decision_table(decisions: &BTreeMap<ProcessId, u64>, n: usize) -> Vec<Option<u64>> {
    let mut table = vec![None; n];
    for (&p, &v) in decisions {
        table[p] = Some(v);
    }
    table
}

/// Number of distinct values decided by correct processes in a
/// process-indexed decision table, counted by first occurrence — no
/// per-call allocation (`n` is single digits).
fn distinct_correct_decisions(decisions: &[Option<u64>], faulty: &[ProcessId]) -> usize {
    let mut count = 0;
    for (p, v) in decisions
        .iter()
        .enumerate()
        .filter_map(|(p, d)| d.map(|v| (p, v)))
    {
        if faulty.contains(&p) {
            continue;
        }
        let seen = decisions[..p]
            .iter()
            .enumerate()
            .any(|(q, w)| !faulty.contains(&q) && *w == Some(v));
        if !seen {
            count += 1;
        }
    }
    count
}

/// The fail-closed panic of the explorer and [`execute_schedule_in`] for a
/// fault plan with Byzantine slots but no deviation policy.
const BYZANTINE_WITHOUT_POLICY: &str = "fault plan contains Byzantine slots but no deviation \
     policy was supplied; the run would certify crash semantics under a Byzantine label";

/// Executes one schedule of `protocol` under `plan`, following `prefix`
/// and then scheduler defaults, against the real kernel. `policy` is the
/// pattern's deviation space ([`CheckerConfig::pattern_policy`]); `None`
/// runs the crash-only fast path.
///
/// A convenience wrapper over [`execute_schedule_in`] with a throwaway
/// [`RunArena`] and the plain digest mode — fine for one-off replays
/// (shrinking, record emission, counterexample replay).
///
/// # Errors
///
/// Propagates simulator errors (e.g. the event limit, which bounds
/// protocols with unbounded retries such as Protocol F).
#[allow(clippy::too_many_arguments)]
pub fn execute_schedule(
    protocol: QuorumProtocol,
    inputs: &[u64],
    t: usize,
    plan: &FaultPlan,
    policy: Option<&DeviationPolicy>,
    prefix: &[usize],
    por: bool,
    metrics: bool,
) -> Result<ScheduleRun, SimError> {
    let mut arena = RunArena::new();
    execute_schedule_in(
        protocol,
        inputs,
        t,
        plan,
        policy,
        prefix.to_vec(),
        por,
        metrics,
        DigestMode::Plain,
        &mut arena,
    )
}

/// [`execute_schedule`] recycling per-run storage from `arena` and
/// fingerprinting states under `mode`, for callers that run many
/// schedules back to back.
///
/// The run's choice log and digest vector are *taken* from the arena;
/// return them via [`RunArena::put_log`]/[`RunArena::put_digests`] once
/// the [`ScheduleRun`] has been consumed, so the next run reuses their
/// capacity.
///
/// # Errors
///
/// See [`execute_schedule`].
#[allow(clippy::too_many_arguments)]
pub fn execute_schedule_in(
    protocol: QuorumProtocol,
    inputs: &[u64],
    t: usize,
    plan: &FaultPlan,
    policy: Option<&DeviationPolicy>,
    prefix: Vec<usize>,
    por: bool,
    metrics: bool,
    mode: DigestMode,
    arena: &mut RunArena,
) -> Result<ScheduleRun, SimError> {
    // A Byzantine slot without a deviation space would run the normal
    // protocol under crash semantics and certify the *wrong model* —
    // every caller must collapse such plans to crash patterns (see
    // [`CheckerConfig::pattern_policy`]) before reaching the executor.
    assert!(
        policy.is_some() || !plan.has_byzantine(),
        "{BYZANTINE_WITHOUT_POLICY}"
    );
    let n = inputs.len();
    // The prefix is consumed (the scheduler owns it for the run), so the
    // exploration loop moves each work item's prefix here instead of
    // copying it — one fewer allocation per executed schedule.
    let sched = ChoiceScheduler::with_log(prefix, arena.take_log())
        .prefer_noops(por)
        .with_policy(policy.cloned());
    let log = sched.log_handle();
    // The kernel consumes (and at run end drops) the scheduler, so once
    // the run returns this handle is the log's only owner and the
    // recorded points move out without the per-run deep clone the
    // explorer used to pay on its hottest path.
    let take_log = |log: std::rc::Rc<std::cell::RefCell<ChoiceLog>>| -> ChoiceLog {
        match std::rc::Rc::try_unwrap(log) {
            Ok(cell) => cell.into_inner(),
            Err(shared) => shared.borrow().clone(),
        }
    };
    let metrics_config = if metrics {
        MetricsConfig::enabled()
    } else {
        MetricsConfig::disabled()
    };
    // Both models run through the same substrate-generic `System`; only the
    // process vector differs, so the run configuration and the `ScheduleRun`
    // assembly below are provably shared code.
    let sys = System::new(n)
        .scheduler(sched)
        .fault_plan(plan.clone())
        .metrics(metrics_config)
        .digest_mode(mode);
    // The deviation-aware kernel path is taken only under an active
    // policy: with `policy == None` the run goes through the exact
    // delivery path the crash-only checker always used, so crash
    // certifications stay byte-identical.
    let (outcome, digests) = if protocol.shared_memory() {
        let procs = sm_processes(protocol, inputs, t);
        let (outcome, digests, _) = if policy.is_some() {
            sys.run_digested_adv_in::<SmSubstrate<u64, u64>>(procs, arena)?
        } else {
            sys.run_digested_in::<SmSubstrate<u64, u64>>(procs, arena)?
        };
        (outcome, digests)
    } else {
        let procs = mp_processes(protocol, inputs, t);
        let (outcome, digests, _) = if policy.is_some() {
            sys.run_digested_adv_in::<MpSubstrate<u64, u64>>(procs, arena)?
        } else {
            sys.run_digested_in::<MpSubstrate<u64, u64>>(procs, arena)?
        };
        (outcome, digests)
    };
    Ok(ScheduleRun {
        log: take_log(log),
        digests,
        decisions: outcome.decisions,
        faulty: outcome.faulty,
        terminated: outcome.terminated,
        stats: outcome.stats,
        metrics: outcome.metrics,
    })
}

/// Checks one run against `SC(k, t, C)`; `Some(message)` on violation.
/// The run is read in place through a borrowed [`kset_core::DenseRun`]
/// over its process-indexed decision table, so a passing run — the
/// overwhelmingly common case — costs no allocation.
fn violation_of(
    spec: &ProblemSpec,
    inputs: &[u64],
    decisions: &[Option<u64>],
    faulty: &[ProcessId],
    terminated: bool,
) -> Option<String> {
    let report = spec.check(&kset_core::DenseRun::new(inputs, decisions, faulty, terminated));
    (!report.is_ok()).then(|| report.to_string())
}

/// A violating schedule, shrunk and ready for emission/replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// The crashed processes of the violating fault pattern.
    pub crashed: Vec<ProcessId>,
    /// The Byzantine processes of the violating fault pattern (empty for
    /// crash and lossy adversaries).
    pub byzantine: Vec<ProcessId>,
    /// The (shrunk) canonical choice prefix that reproduces it.
    pub choices: Vec<usize>,
    /// Every event id the violating run fires, in order, paired with the
    /// deviation applied to it — a
    /// [`kset_sim::ReplayScheduler::with_deviations`] script. Crash-only
    /// runs carry [`Deviation::Faithful`] throughout.
    pub fired: Vec<(EventId, Deviation)>,
    /// The specification violations of the run.
    pub violation: String,
}

/// Splits a fault plan into its crashed and Byzantine slots — the two
/// header lists of a counterexample script.
fn plan_slots(plan: &FaultPlan) -> (Vec<ProcessId>, Vec<ProcessId>) {
    let mut crashed = Vec::new();
    let mut byzantine = Vec::new();
    for p in 0..plan.n() {
        match plan.spec(p).kind() {
            FaultKind::Crash => crashed.push(p),
            FaultKind::Byzantine => byzantine.push(p),
            FaultKind::Correct => {}
        }
    }
    (crashed, byzantine)
}

/// Verdict of exploring one crash pattern's schedule tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternVerdict {
    /// The planned faulty processes of the pattern — silently crashed
    /// slots and (under a Byzantine adversary) Byzantine slots alike.
    pub crashed: Vec<ProcessId>,
    /// Schedules executed.
    pub runs: u64,
    /// Sleep-set entries cached across every task's visited table.
    pub states: usize,
    /// Branches skipped because the alternative was asleep.
    pub sleep_skips: u64,
    /// Nodes cut off by state-digest deduplication.
    pub dedup_hits: u64,
    /// Whether the tree was explored exhaustively (no bound truncated it).
    /// Meaningless once a violation is found — the search stops early.
    pub complete: bool,
    /// Largest number of distinct correct decisions observed in any run.
    pub worst_agreement: usize,
    /// Exploration tasks the engine executed for this pattern: the
    /// canonical run, one per first deviation from it, and one per
    /// budget-split continuation (see the module docs).
    pub tasks: u64,
    /// The first violation found, already shrunk.
    pub violation: Option<Counterexample>,
}

/// The exploration *frontier* types shared with the campaign layer.
///
/// The checker keeps its machinery private, but a resumable campaign
/// (`crate::campaign`) must persist and restore exactly the frontier of an
/// exploration: the outstanding work items, the verdict so far, and the
/// sleep sets both carry. This module is the one sanctioned home for that
/// plumbing — everything here is either `pub` because the
/// [`crate::campaign::store::CampaignStore`] trait is public API
/// ([`SleepEntry`]), or `pub(crate)` for the campaign snapshot codec
/// ([`WorkItem`], [`PatternState`]). Nothing else in the checker is
/// visible outside this file.
pub(crate) mod frontier {
    use super::{EventId, PatternVerdict, ProcessId};

    /// One sleeping event: put to sleep after its subtree was fully
    /// explored, woken (removed) by firing any *dependent* event — one
    /// with the same target process.
    ///
    /// Public because the campaign layer ([`crate::campaign`]) persists
    /// and queries sleep sets through the
    /// [`crate::campaign::store::CampaignStore`] trait; everything else
    /// about the sleep-set machinery stays internal.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct SleepEntry {
        /// The sleeping event.
        pub id: EventId,
        /// The event's target process (dependency key for wake-ups).
        pub target: ProcessId,
    }

    /// One work item of the re-execution DFS: run `prefix`, then branch
    /// on the beyond-prefix decision points.
    ///
    /// Deliberately *execution-strategy free*: the forking executor pairs
    /// items with branch-point snapshots on its task-local stack, but
    /// spills, checkpoints and the campaign codec only ever see this
    /// replayable form.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct WorkItem {
        /// Canonical choice indices to replay before branching.
        pub prefix: Vec<usize>,
        /// Events asleep at the item's branch point.
        pub sleep: Vec<SleepEntry>,
        /// Preemptions already spent by the prefix.
        pub preemptions: usize,
    }

    /// The resumable state of one crash pattern's exploration at a wave
    /// boundary: the verdict accumulated so far and the outstanding task
    /// queue. Together with the shared visited store this is exactly what
    /// a campaign checkpoint persists — the drain is a pure function of
    /// `(verdict, queue, store)`, so restoring all three resumes the
    /// exploration bit-identically (see `CAMPAIGNS.md`).
    #[derive(Debug)]
    pub struct PatternState {
        /// Counters and (possible) violation accumulated so far.
        pub verdict: PatternVerdict,
        /// Outstanding task stacks, in claim order.
        pub queue: Vec<Vec<WorkItem>>,
    }
}

pub use frontier::SleepEntry;
pub(crate) use frontier::{PatternState, WorkItem};
pub use crate::visited::Visited;
use crate::visited::{Sharded, SHARDS};

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
const TASK_BUDGET: u64 = 2048;

/// Counters and outcome of one exploration task (a subtree DFS), merged
/// by [`explore_pattern`] in task order.
struct TaskOutcome {
    runs: u64,
    /// Kernel events executed, shared prefixes resumed from a snapshot
    /// excluded (operational: see [`RunGauge`]).
    events_fired: u64,
    /// Forked runs stopped at a covered state (operational).
    truncated_runs: u64,
    /// The task's fork session's snapshot and resume counts (operational).
    fork: ForkCounters,
    /// The gate's probes of the frozen wave store, and how many of them
    /// it covered (operational).
    store_probes: u64,
    store_hits: u64,
    states: usize,
    sleep_skips: u64,
    dedup_hits: u64,
    complete: bool,
    worst_agreement: usize,
    violation: Option<Counterexample>,
    /// The task's own insertions, folded into the shared snapshot at the
    /// wave barrier so later waves prune against them.
    visited: Visited,
    /// The remaining DFS stack when the task's run budget ran out,
    /// re-enqueued verbatim as one continuation task; empty when the task
    /// finished.
    spill: Vec<WorkItem>,
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
/// `prefix_len`, `preemptions` and `sleep` are the executed work item's
/// fields; the prefix itself was consumed by the session's scheduler, and
/// only its length matters here (in-prefix points were already walked when
/// the prefix was recorded — the [`kset_sim::ChoiceScheduler`] does not
/// even log their options). `proof` is what the run's [`WalkGate`]
/// already established about its states against `global`.
#[allow(clippy::too_many_arguments)]
fn walk_run<S: CampaignStore>(
    cfg: &CheckerConfig,
    prefix_len: usize,
    preemptions: usize,
    sleep: Vec<SleepEntry>,
    log: &ChoiceLog,
    digests: &[u64],
    proof: GateProof,
    global: &S,
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
            if d >= cfg.depth {
                // Depth bound: drop this point's alternatives.
                let dropped = point.options.iter().enumerate().any(|(i, o)| {
                    i != point.taken
                        && !o.noop
                        && !sleep.iter().any(|s| s.id == o.meta.id)
                });
                if dropped {
                    out.complete = false;
                }
            } else {
                let prev_target =
                    (d > 0).then(|| log.point(d - 1).taken_meta().target);
                // Alternatives in canonical order; `explored` grows so
                // each later sibling sleeps on the earlier ones (their
                // subtrees complete first under LIFO scheduling).
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
                    let mut preemptions = preemptions;
                    if let Some(bound) = cfg.preemptions {
                        let preempts = prev_target.is_some_and(|prev| {
                            opt.meta.target != prev
                                && point
                                    .options
                                    .iter()
                                    .any(|o| !o.noop && o.meta.target == prev)
                        });
                        if preempts {
                            preemptions += 1;
                        }
                        if preemptions > bound {
                            out.complete = false;
                            continue;
                        }
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
                        preemptions,
                    });
                    explored.push(SleepEntry {
                        id: opt.meta.id,
                        target: opt.meta.target,
                    });
                }
                // Reverse so the canonically-first sibling pops first;
                // its whole subtree finishes before the next sibling,
                // which is what the accumulated sleep sets assume.
                for child in children.drain(..).rev() {
                    push(child);
                }
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
    /// or a bounded search). The walk probes both stores.
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
struct Task<'a, S> {
    cfg: &'a CheckerConfig,
    inputs: &'a [u64],
    spec: &'a ProblemSpec,
    plan: &'a FaultPlan,
    crashed: &'a [ProcessId],
    global: &'a S,
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
/// under it. Every [`QuorumProtocol`]'s processes are forkable, so the
/// session is always built.
fn explore_task<S: CampaignStore>(
    task: &Task<S>,
    stack: Vec<WorkItem>,
    budget: u64,
) -> TaskOutcome {
    let (protocol, inputs, t) = (task.cfg.protocol, task.inputs, task.cfg.t);
    if protocol.shared_memory() {
        let procs = sm_processes(protocol, inputs, t);
        explore_task_on::<SmSubstrate<u64, u64>, S>(task, stack, budget, procs)
    } else {
        let procs = mp_processes(protocol, inputs, t);
        explore_task_on::<MpSubstrate<u64, u64>, S>(task, stack, budget, procs)
    }
}

/// [`explore_task`] on substrate `Sub`: builds the pattern's session over
/// `procs` and runs the task on it.
fn explore_task_on<Sub, S>(
    task: &Task<S>,
    stack: Vec<WorkItem>,
    budget: u64,
    procs: Vec<Sub::Process>,
) -> TaskOutcome
where
    Sub: SubstrateFork<Output = u64> + SubstrateAdv,
    S: CampaignStore,
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
/// every continuation, the canonical one included. Depth- and
/// preemption-bounded searches do not guarantee that premise, so `active`
/// is off for them (and without dedup), and under [`ForkMode::Replay`],
/// which runs every schedule to termination; the gate then never stops a
/// run.
struct WalkGate<'a, S: CampaignStore> {
    active: bool,
    global: &'a S,
    visited: &'a Visited,
    sleep: Vec<SleepEntry>,
    /// Probes of `global` (made when `visited` misses) and their covers.
    store_probes: u64,
    store_hits: u64,
}

impl<S: CampaignStore> ForkGate for WalkGate<'_, S> {
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
fn explore_stack<Sub, D, S>(
    task: &Task<S>,
    session: &mut ForkSession<Sub, D>,
    stack: Vec<WorkItem>,
    budget: u64,
) -> TaskOutcome
where
    Sub: SubstrateFork<Output = u64>,
    D: Delivery<Sub>,
    S: CampaignStore,
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
    // Derived, not a knob: see [`WalkGate`] for why replay and bounded
    // searches run every schedule to termination.
    let truncate = cfg.fork == ForkMode::Auto
        && cfg.dedup
        && cfg.depth == usize::MAX
        && cfg.preemptions.is_none();
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
        let WorkItem {
            prefix,
            sleep,
            preemptions,
        } = item;
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
            preemptions,
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

/// Phase 1 of a pattern's exploration: executes the canonical
/// (empty-prefix) run, seeds the first-deviation task queue, and returns
/// the root task's visited table (which the caller absorbs into the
/// shared store — exactly the serial explorer's view after run 1).
///
/// `seeded` comes back in claim order: the walk emits stack order, and
/// reversing it reproduces the serial explorer's pop order (deepest
/// deviation first), so violated cells exit after the same shallow wave
/// of small subtrees the serial search would have tried first.
pub(crate) fn seed_pattern(
    cfg: &CheckerConfig,
    inputs: &[u64],
    spec: &ProblemSpec,
    plan: &FaultPlan,
) -> (PatternState, Visited) {
    let crashed = plan.faulty_set();
    // The canonical run is a one-run task over an empty store. It runs in
    // the replay configuration, because its children leave the task as
    // bare work items and a snapshot would go unused, and it runs even
    // under `--max-runs 0`. Its staged children spill in stack order.
    let root_cfg = CheckerConfig {
        fork: ForkMode::Replay,
        max_runs: u64::MAX,
        ..cfg.clone()
    };
    let root = WorkItem {
        prefix: Vec::new(),
        sleep: Vec::new(),
        preemptions: 0,
    };
    let task = Task {
        cfg: &root_cfg,
        inputs,
        spec,
        plan,
        crashed: &crashed,
        global: &Sharded::<Visited>::new(1),
    };
    let mut root_out = explore_task(&task, vec![root], 1);
    let mut seeded = std::mem::take(&mut root_out.spill);
    seeded.reverse();
    let verdict = PatternVerdict {
        crashed,
        runs: root_out.runs,
        states: root_out.states,
        sleep_skips: root_out.sleep_skips,
        dedup_hits: root_out.dedup_hits,
        complete: root_out.complete,
        worst_agreement: root_out.worst_agreement,
        tasks: 1,
        violation: root_out.violation,
    };
    let queue: Vec<Vec<WorkItem>> = seeded.into_iter().map(|item| vec![item]).collect();
    (
        PatternState { verdict, queue },
        std::mem::take(&mut root_out.visited),
    )
}

/// Phase 2 of a pattern's exploration, generic over the shared visited
/// store and resumable at any wave boundary: drains the task queue in
/// waves. Each task partitions its visited table by the store's shards
/// before it returns; at the wave barrier the tasks' counters are folded
/// into the verdict in claim order, and their tables into `store` in one
/// [`CampaignStore::absorb`] call, shard by shard on the engine's
/// workers. Tasks that exhaust [`TASK_BUDGET`] spill their remaining
/// stack back into the queue as fresh tasks.
///
/// `on_wave` runs between waves with the store, the verdict so far, and
/// the remaining queue; returning [`WaveControl::Pause`] ends the drain
/// with [`DrainExit::Paused`] (the campaign layer checkpoints there).
/// The observer never influences exploration, so verdicts and counters
/// are independent of when — or whether — it pauses. The drained tasks'
/// operational counters come back in a [`RunGauge`], outside the verdict
/// a checkpoint persists.
///
/// With [`CheckerConfig::progress`] set to `N`, the first wave barrier
/// after the pattern's cumulative runs pass each multiple of `N` prints
/// one progress line to stderr (see `OBSERVABILITY.md`).
pub(crate) fn drain_pattern<S: CampaignStore + Sync>(
    cfg: &CheckerConfig,
    inputs: &[u64],
    spec: &ProblemSpec,
    plan: &FaultPlan,
    store: &mut S,
    state: PatternState,
    mut on_wave: impl FnMut(&mut S, &PatternVerdict, &VecDeque<Vec<WorkItem>>) -> WaveControl,
) -> (PatternVerdict, DrainExit, RunGauge) {
    let PatternState { verdict, queue } = state;
    let crashed = verdict.crashed.clone();
    if verdict.violation.is_some() || queue.is_empty() {
        return (verdict, DrainExit::Drained, RunGauge::default());
    }
    let mut drain_state = (store, verdict, RunGauge::default());
    let mut reported = drain_state.1.runs;
    let exit = crate::engine::parallel_drain_watched(
        cfg.threads,
        queue,
        &mut drain_state,
        |_, (store, _, _), stack| {
            let task = Task {
                cfg,
                inputs,
                spec,
                plan,
                crashed: &crashed,
                global: &**store,
            };
            let mut out = explore_task(&task, stack, TASK_BUDGET);
            let table = std::mem::take(&mut out.visited).partition(store.shard_count());
            (out, table)
        },
        |(store, v, gauge), wave, queue| {
            let mut tables = Vec::with_capacity(wave.len());
            for (out, table) in wave {
                tables.push(table);
                gauge.add_task(&out);
                v.runs += out.runs;
                v.states += out.states;
                v.sleep_skips += out.sleep_skips;
                v.dedup_hits += out.dedup_hits;
                v.complete &= out.complete;
                v.worst_agreement = v.worst_agreement.max(out.worst_agreement);
                v.tasks += 1;
                if !out.spill.is_empty() {
                    queue.push(out.spill);
                }
                if v.violation.is_none() {
                    v.violation = out.violation;
                }
            }
            let folding = Instant::now();
            store.absorb(&tables, cfg.threads);
            gauge.fold_s += folding.elapsed().as_secs_f64();
            gauge.waves += 1;
            v.violation.is_some() || v.runs >= cfg.max_runs
        },
        |(store, v, gauge), queue| {
            if let Some(every) = cfg.progress.filter(|&every| every > 0) {
                if v.runs / every > reported / every {
                    reported = v.runs;
                    eprintln!(
                        "[model_check] {} crashed={:?}: pattern at {} runs, {} states, {} dedup hits, {} sleep skips, {} queued tasks, {} store entries, {} events fired, {} truncated runs, {} waves, {:.3} s folding, {} snapshots, {} copied resumes, {} moved resumes, {} store probes, {} store hits",
                        cfg.protocol.name(),
                        v.crashed,
                        v.runs,
                        v.states,
                        v.dedup_hits,
                        v.sleep_skips,
                        queue.len(),
                        store.entries(),
                        gauge.events_fired,
                        gauge.truncated_runs,
                        gauge.waves,
                        gauge.fold_s,
                        gauge.snapshots,
                        gauge.resumes_copied,
                        gauge.resumes_moved,
                        gauge.store_probes,
                        gauge.store_hits,
                    );
                }
            }
            on_wave(store, v, queue)
        },
    );
    let (_, mut verdict, gauge) = drain_state;
    if matches!(exit, DrainExit::Stopped { work_left: true }) && verdict.violation.is_none() {
        // The pattern-level run budget cut the drain short.
        verdict.complete = false;
    }
    (verdict, exit, gauge)
}

/// Explores every schedule of `protocol` under one crash pattern,
/// checking each completed run against `spec`, across
/// [`CheckerConfig::threads`] workers. Stops at the canonically first
/// violation (unshrunk; [`check_cell`] shrinks it) at the next task-chunk
/// boundary. Every field of the verdict is identical for every thread
/// count (see the module docs).
///
/// This is the in-memory fast path: the shared store is a [`Sharded`]
/// store of [`SHARDS`] [`Visited`] tables. The campaign layer
/// (`crate::campaign`) runs the same `seed_pattern`/`drain_pattern`
/// machinery against a disk-backed store with checkpoint hooks, and is
/// pinned to produce bit-identical verdicts.
///
/// # Panics
///
/// Panics on simulator configuration errors (the checker builds its own
/// systems, so these are bugs, not inputs).
pub fn explore_pattern(
    cfg: &CheckerConfig,
    inputs: &[u64],
    spec: &ProblemSpec,
    plan: &FaultPlan,
) -> PatternVerdict {
    explore_pattern_gauged(cfg, inputs, spec, plan).0
}

/// [`explore_pattern`], also reporting the shared store's size at its
/// largest wave barrier and the drained tasks' execution counters.
fn explore_pattern_gauged(
    cfg: &CheckerConfig,
    inputs: &[u64],
    spec: &ProblemSpec,
    plan: &FaultPlan,
) -> (PatternVerdict, VisitedGauge, RunGauge) {
    let (state, root_visited) = seed_pattern(cfg, inputs, spec, plan);
    let mut store = Sharded::<Visited>::new(SHARDS);
    store.fold(&[root_visited.partition(SHARDS)], cfg.threads);
    let mut gauge = VisitedGauge::of(&store);
    let (verdict, _, runs) =
        drain_pattern(cfg, inputs, spec, plan, &mut store, state, |store, _, _| {
            gauge = gauge.max(VisitedGauge::of(store));
            WaveControl::Continue
        });
    (verdict, gauge.max(VisitedGauge::of(&store)), runs)
}

/// The memory gauge of a cell's exploration: the largest in-memory
/// visited store any of its patterns kept, read at wave barriers (where
/// the store has just absorbed a wave and is largest), summed over the
/// store's shards. Operational, not contract-covered: `bytes` depends on
/// the tables' layout history.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct VisitedGauge {
    /// Most live minimal entries ([`Visited::live_entries`]).
    pub entries: u64,
    /// Most resident bytes ([`Visited::resident_bytes`]).
    pub bytes: u64,
}

impl VisitedGauge {
    fn of(store: &Sharded<Visited>) -> Self {
        VisitedGauge {
            entries: store.live_entries(),
            bytes: store.tables().iter().map(Visited::resident_bytes).sum(),
        }
    }

    fn max(self, other: Self) -> Self {
        VisitedGauge {
            entries: self.entries.max(other.entries),
            bytes: self.bytes.max(other.bytes),
        }
    }
}

/// The execution gauge of a cell's exploration: how much kernel work its
/// exploration tasks did, and what its wave barriers cost. Operational,
/// not contract-covered: under [`ForkMode::Auto`] the explorer resumes
/// shared prefixes from snapshots and stops runs at covered states, under
/// [`ForkMode::Replay`] it does neither, so the event and fork figures
/// depend on the fork mode while every verdict counter does not, and `fold_s` is a wall-clock time. The
/// canonical seed run of each pattern, and the fold of its table, are not
/// counted.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct RunGauge {
    /// Kernel events fired, shared prefixes resumed from a snapshot
    /// excluded.
    pub events_fired: u64,
    /// Forked runs stopped at a state the visited stores already covered.
    pub truncated_runs: u64,
    /// Wall-clock seconds spent folding task tables into the shared
    /// store at wave barriers.
    pub fold_s: f64,
    /// Waves drained, each ending at one barrier fold.
    pub waves: u64,
    /// Fork snapshots taken at branch points.
    pub snapshots: u64,
    /// Forked runs that started by copying a snapshot's state (runs from
    /// the root included).
    pub resumes_copied: u64,
    /// Forked runs that started by taking over a snapshot no other work
    /// item held.
    pub resumes_moved: u64,
    /// The walk gate's probes of the frozen wave store (made at the
    /// beyond-prefix states the task-local table does not cover).
    pub store_probes: u64,
    /// Those probes the wave store covered.
    pub store_hits: u64,
}

impl RunGauge {
    /// Adds one exploration task's execution counters.
    fn add_task(&mut self, out: &TaskOutcome) {
        self.events_fired += out.events_fired;
        self.truncated_runs += out.truncated_runs;
        self.snapshots += out.fork.snapshots;
        self.resumes_copied += out.fork.resumes_copied;
        self.resumes_moved += out.fork.resumes_moved;
        self.store_probes += out.store_probes;
        self.store_hits += out.store_hits;
    }

    /// Adds another pattern's gauge.
    fn add(&mut self, other: &RunGauge) {
        self.events_fired += other.events_fired;
        self.truncated_runs += other.truncated_runs;
        self.fold_s += other.fold_s;
        self.waves += other.waves;
        self.snapshots += other.snapshots;
        self.resumes_copied += other.resumes_copied;
        self.resumes_moved += other.resumes_moved;
        self.store_probes += other.store_probes;
        self.store_hits += other.store_hits;
    }
}

/// Greedily shrinks a violating choice prefix: first each entry is driven
/// towards the canonical default `0`, then the tail is trimmed while the
/// violation persists. Every step re-executes the real kernel, so the
/// result is a genuine, minimal-ish witness — and the procedure is
/// deterministic, so the emitted script is stable across re-runs.
pub fn shrink_counterexample(
    cfg: &CheckerConfig,
    inputs: &[u64],
    spec: &ProblemSpec,
    plan: &FaultPlan,
    choices: Vec<usize>,
) -> Counterexample {
    let policy = cfg.pattern_policy(plan);
    let still_violates = |prefix: &[usize]| -> bool {
        execute_schedule(
            cfg.protocol,
            inputs,
            cfg.t,
            plan,
            policy.as_ref(),
            prefix,
            cfg.por,
            false,
        )
        .ok()
        .is_some_and(|run| run.violation(spec, inputs).is_some())
    };
    let mut best = choices;
    for i in 0..best.len() {
        if best[i] != 0 {
            let mut candidate = best.clone();
            candidate[i] = 0;
            if still_violates(&candidate) {
                best = candidate;
            }
        }
    }
    while !best.is_empty() && still_violates(&best[..best.len() - 1]) {
        best.pop();
    }
    let run = execute_schedule(
        cfg.protocol,
        inputs,
        cfg.t,
        plan,
        policy.as_ref(),
        &best,
        cfg.por,
        false,
    )
    .expect("shrunk prefix replays");
    let violation = run
        .violation(spec, inputs)
        .expect("shrinking preserves the violation");
    let (crashed, byzantine) = plan_slots(plan);
    Counterexample {
        crashed,
        byzantine,
        choices: best,
        fired: run.log.fired_script(),
        violation,
    }
}

/// Verdict of model-checking one cell across every crash pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellVerdict {
    /// Per-pattern results, in [`CheckerConfig::fault_plans`] order. The
    /// search stops at the first violating pattern, so later patterns may
    /// be absent.
    pub patterns: Vec<PatternVerdict>,
    /// Worst agreement across all explored patterns and schedules.
    pub worst_agreement: usize,
    /// Whether every pattern was explored exhaustively.
    pub complete: bool,
    /// Total schedules executed.
    pub runs: u64,
    /// The first violation found (shrunk), if any.
    pub counterexample: Option<Counterexample>,
}

impl CellVerdict {
    /// Whether the protocol solves the cell as far as the exploration saw:
    /// no violating schedule in any explored pattern.
    pub fn holds(&self) -> bool {
        self.counterexample.is_none()
    }
}

impl fmt::Display for CellVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} over {} crash pattern(s): {} runs, worst agreement {}{}",
            if self.holds() { "HOLDS" } else { "VIOLATED" },
            self.patterns.len(),
            self.runs,
            self.worst_agreement,
            if self.complete { "" } else { " (bounded)" },
        )?;
        if let Some(ce) = &self.counterexample {
            write!(f, "; counterexample: crashed={:?}, ", ce.crashed)?;
            // Only Byzantine cells name their slots, so crash-adversary
            // verdict lines stay byte-identical to earlier recordings.
            if !ce.byzantine.is_empty() {
                write!(f, "byzantine={:?}, ", ce.byzantine)?;
            }
            write!(f, "{} choice(s), {}", ce.choices.len(), ce.violation)?;
        }
        Ok(())
    }
}

/// Model-checks `SC(k, t, C)` for the configured protocol and cell:
/// explores every schedule of every fault pattern of the configured
/// adversary ([`CheckerConfig::fault_plans`]), stopping at (and
/// shrinking) the first violation.
///
/// # Panics
///
/// Panics if the cell coordinates are rejected by [`ProblemSpec::new`],
/// or — the hard guard against certifying the wrong model — if the
/// configuration fails [`CheckerConfig::validate`].
pub fn check_cell(cfg: &CheckerConfig) -> CellVerdict {
    check_cell_gauged(cfg).0
}

/// [`check_cell`], also reporting the [`VisitedGauge`] and the
/// [`RunGauge`] of the exploration (the memory and execution figures of
/// `model_check --bench-json` rows).
///
/// # Panics
///
/// As [`check_cell`].
pub fn check_cell_gauged(cfg: &CheckerConfig) -> (CellVerdict, VisitedGauge, RunGauge) {
    if let Err(message) = cfg.validate() {
        panic!("invalid checker configuration: {message}");
    }
    let inputs = cfg.cell_inputs();
    let spec = ProblemSpec::new(cfg.n, cfg.k, cfg.t, cfg.validity)
        .expect("checker cell coordinates are valid");
    let mut verdict = CellVerdict {
        patterns: Vec::new(),
        worst_agreement: 0,
        complete: true,
        runs: 0,
        counterexample: None,
    };
    let mut gauge = VisitedGauge::default();
    let mut runs = RunGauge::default();
    for plan in cfg.fault_plans() {
        let (mut pattern, pattern_gauge, pattern_runs) =
            explore_pattern_gauged(cfg, &inputs, &spec, &plan);
        gauge = gauge.max(pattern_gauge);
        runs.add(&pattern_runs);
        verdict.worst_agreement = verdict.worst_agreement.max(pattern.worst_agreement);
        verdict.runs += pattern.runs;
        verdict.complete &= pattern.complete;
        if let Some(raw) = pattern.violation.take() {
            let shrunk = shrink_counterexample(cfg, &inputs, &spec, &plan, raw.choices);
            pattern.violation = Some(shrunk.clone());
            verdict.patterns.push(pattern);
            verdict.counterexample = Some(shrunk);
            break;
        }
        verdict.patterns.push(pattern);
    }
    (verdict, gauge, runs)
}

/// Re-runs one representative schedule per explored pattern with metrics
/// enabled and packages each as a [`RunRecord`] for the JSONL pipeline
/// (`OBSERVABILITY.md`). The record's `seed` field carries the crash
/// pattern's index — the checker is seedless — and the protocol is tagged
/// `MC(<name>)` so checker records are distinguishable from seed sweeps.
pub fn to_run_records(cfg: &CheckerConfig, verdict: &CellVerdict) -> Vec<RunRecord> {
    let inputs = cfg.cell_inputs();
    // The explored patterns are a prefix of the cell's plan enumeration
    // (the search stops at the first violating pattern), so zipping
    // recovers each verdict's *exact* plan — including Byzantine slots,
    // which a reconstruction from the crashed list alone would silently
    // demote to crashes.
    verdict
        .patterns
        .iter()
        .zip(cfg.fault_plans())
        .enumerate()
        .map(|(index, (pattern, plan))| {
            debug_assert_eq!(pattern.crashed, plan.faulty_set());
            let prefix: Vec<usize> = pattern
                .violation
                .as_ref()
                .map(|ce| ce.choices.clone())
                .unwrap_or_default();
            let run = execute_schedule(
                cfg.protocol,
                &inputs,
                cfg.t,
                &plan,
                cfg.pattern_policy(&plan).as_ref(),
                &prefix,
                cfg.por,
                true,
            )
            .expect("explored patterns replay");
            let violation = pattern
                .violation
                .as_ref()
                .map(|ce| ce.violation.clone());
            RunRecord::new(
                cfg.model(),
                cfg.validity,
                cfg.n,
                cfg.k,
                cfg.t,
                index as u64,
                format!("MC({})", cfg.protocol.name()),
                RunOutcome {
                    terminated: run.terminated,
                    decided: run.decisions.len(),
                    distinct_decisions: run.distinct_correct_decisions(),
                    violation,
                },
                run.stats,
                run.metrics,
            )
        })
        .collect()
}

/// Cross-validates a [`check_cell`] verdict against the analytic
/// enumerator: both must agree, per crash pattern, on the worst-case
/// agreement and on whether `SC(k, t, C)` holds. Returns the
/// disagreements (empty = the two verification routes confirm each
/// other).
///
/// Only meaningful for complete (unbounded) explorations; bounded runs
/// can legitimately under-approximate `worst_agreement`.
pub fn cross_validate(cfg: &CheckerConfig, verdict: &CellVerdict) -> Vec<String> {
    let inputs = cfg.cell_inputs();
    let mut disagreements = Vec::new();
    if cfg.deviation_policy().is_some() {
        // The analytic enumerator models crash quorums only; there is no
        // second verification route for Byzantine or lossy behaviour
        // spaces (their oracle is the replay of the emitted script).
        disagreements.push(format!(
            "adversary model {} has no analytic enumeration oracle; comparison void",
            cfg.adversary,
        ));
        return disagreements;
    }
    if !verdict.complete {
        disagreements.push("exploration was bounded; comparison void".to_string());
        return disagreements;
    }
    let mut analytic_worst = 0;
    let mut analytic_violated = false;
    for plan in all_silent_crash_patterns(cfg.n, cfg.t) {
        let crashed = plan.faulty_set();
        let report = crate::exhaustive::verify(cfg.protocol, &inputs, cfg.t, &crashed, 1 << 40)
            .expect("small-n enumerations fit any budget");
        analytic_worst = analytic_worst.max(report.worst_agreement);
        analytic_violated |= !report.satisfies(cfg.k, cfg.validity);
        // The checker stops at the first violating pattern, so per-pattern
        // agreement is only comparable while both sides are clean.
        if let Some(pattern) = verdict
            .patterns
            .iter()
            .find(|p| p.crashed == crashed && p.violation.is_none())
        {
            if pattern.worst_agreement != report.worst_agreement {
                disagreements.push(format!(
                    "crashed={crashed:?}: checker worst agreement {} vs analytic {}",
                    pattern.worst_agreement, report.worst_agreement
                ));
            }
        }
    }
    if verdict.holds() == analytic_violated {
        disagreements.push(format!(
            "checker says SC({}, {}, {}) {}, analytic enumeration says {}",
            cfg.k,
            cfg.t,
            cfg.validity,
            if verdict.holds() { "holds" } else { "fails" },
            if analytic_violated { "fails" } else { "holds" },
        ));
    }
    disagreements
}

/// Parses a protocol name as accepted by the `model_check` binary:
/// the display name (case-insensitive, spaces optional) or the short
/// forms `floodmin`/`a`/`b`/`e`/`f`.
pub fn parse_protocol(arg: &str) -> Option<QuorumProtocol> {
    let norm: String = arg
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect::<String>()
        .to_ascii_lowercase();
    Some(match norm.as_str() {
        "floodmin" => QuorumProtocol::FloodMin,
        "a" | "protocola" => QuorumProtocol::ProtocolA,
        "b" | "protocolb" => QuorumProtocol::ProtocolB,
        "e" | "protocole" => QuorumProtocol::ProtocolE,
        "f" | "protocolf" => QuorumProtocol::ProtocolF,
        _ => return None,
    })
}

/// Parses a validity condition by its display name (case-insensitive).
pub fn parse_validity(arg: &str) -> Option<ValidityCondition> {
    ValidityCondition::ALL
        .into_iter()
        .find(|v| v.to_string().eq_ignore_ascii_case(arg.trim()))
}

/// A counterexample file read back from disk (see [`write_counterexample`]
/// for the format).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SavedCounterexample {
    /// Protocol the schedule violates.
    pub protocol: QuorumProtocol,
    /// System size.
    pub n: usize,
    /// Agreement bound.
    pub k: usize,
    /// Fault budget.
    pub t: usize,
    /// Validity condition.
    pub validity: ValidityCondition,
    /// Adversary the cell was certified against (v1 scripts default to
    /// the protocol substrate's crash adversary).
    pub adversary: AdversaryModel,
    /// Input override the cell ran with; `None` = canonical inputs.
    pub inputs: Option<Vec<u64>>,
    /// The Byzantine forged-value menu of the recording configuration.
    pub byz_menu: Vec<u64>,
    /// Whether selective silence was in the behaviour space.
    pub byz_silence: bool,
    /// The lossy adversary's per-run drop budget.
    pub loss_budget: u64,
    /// The violating fault pattern and schedule.
    pub counterexample: Counterexample,
}

impl SavedCounterexample {
    /// Reconstructs the fault plan of the recorded run: silent crashes
    /// plus the recorded Byzantine slots.
    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::silent_crashes(self.n, &self.counterexample.crashed);
        for &p in &self.counterexample.byzantine {
            plan.set(p, FaultSpec::Byzantine);
        }
        plan
    }

    /// The checker configuration of the recorded cell, whose
    /// [`CheckerConfig::cell_inputs`] and [`CheckerConfig::pattern_policy`]
    /// the script replays under.
    fn config(&self) -> CheckerConfig {
        CheckerConfig {
            adversary: self.adversary,
            inputs: self.inputs.clone(),
            byz_menu: self.byz_menu.clone(),
            byz_silence: self.byz_silence,
            loss_budget: self.loss_budget,
            ..CheckerConfig::new(self.protocol, self.n, self.k, self.t, self.validity)
        }
    }
}

/// Writes a counterexample as a plain-text replay script:
///
/// ```text
/// # kset model_check counterexample v1
/// # protocol: FloodMin
/// # n: 4
/// # k: 2
/// # t: 2
/// # validity: RV1
/// # crashed:
/// # choices: 3 6
/// # violation: agreement violated: ...
/// 0
/// 4
/// ...
/// ```
///
/// Header lines carry the cell and the shrunk choice prefix; each body
/// line is one fired event id, in order — the exact
/// [`kset_sim::ReplayScheduler`] script of the violating run. The format
/// is deliberately line-based and deterministic: re-running the checker on
/// an unchanged workspace produces a byte-identical file, so these scripts
/// can be committed as regression pins.
///
/// A cell recorded under a non-crash adversary (or with explicit inputs)
/// is emitted as **v2**, which adds `# model:`, `# inputs:`,
/// `# byz-menu:`, `# byz-silence:`, `# loss-budget:` and `# byzantine:`
/// headers, and suffixes each deviating body line with the deviation in
/// its [`Deviation`] display syntax (`17 forge:0`, `23 drop`). Crash
/// cells keep emitting v1 bytes, so committed crash scripts never churn.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_counterexample(
    path: &Path,
    cfg: &CheckerConfig,
    ce: &Counterexample,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let v2 = cfg.adversary.is_byzantine() || cfg.adversary.is_lossy() || cfg.inputs.is_some();
    let mut out = Vec::new();
    writeln!(
        out,
        "# kset model_check counterexample v{}",
        if v2 { 2 } else { 1 }
    )?;
    writeln!(out, "# protocol: {}", cfg.protocol.name())?;
    writeln!(out, "# n: {}", cfg.n)?;
    writeln!(out, "# k: {}", cfg.k)?;
    writeln!(out, "# t: {}", cfg.t)?;
    writeln!(out, "# validity: {}", cfg.validity)?;
    if v2 {
        writeln!(out, "# model: {}", cfg.adversary)?;
        writeln!(
            out,
            "# inputs:{}",
            cfg.cell_inputs()
                .iter()
                .map(|v| format!(" {v}"))
                .collect::<String>()
        )?;
        writeln!(
            out,
            "# byz-menu:{}",
            cfg.byz_menu.iter().map(|v| format!(" {v}")).collect::<String>()
        )?;
        writeln!(out, "# byz-silence: {}", cfg.byz_silence)?;
        writeln!(out, "# loss-budget: {}", cfg.loss_budget)?;
        writeln!(
            out,
            "# byzantine:{}",
            ce.byzantine
                .iter()
                .map(|p| format!(" {p}"))
                .collect::<String>()
        )?;
    }
    writeln!(
        out,
        "# crashed:{}",
        ce.crashed
            .iter()
            .map(|p| format!(" {p}"))
            .collect::<String>()
    )?;
    writeln!(
        out,
        "# choices:{}",
        ce.choices.iter().map(|c| format!(" {c}")).collect::<String>()
    )?;
    writeln!(out, "# violation: {}", ce.violation.replace('\n', "; "))?;
    for (id, deviation) in &ce.fired {
        match deviation {
            Deviation::Faithful => writeln!(out, "{}", id.as_u64())?,
            other => writeln!(out, "{} {}", id.as_u64(), other)?,
        }
    }
    fs::write(path, out)
}

/// Parses the deviation suffix of a v2 body line (`forge:<v>` or `drop`);
/// `None` on anything else.
fn parse_deviation(token: &str) -> Option<Deviation> {
    if token == "drop" {
        return Some(Deviation::Drop);
    }
    token
        .strip_prefix("forge:")
        .and_then(|v| v.parse().ok())
        .map(Deviation::Forge)
}

/// Reads a counterexample script written by [`write_counterexample`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on malformed headers or body.
pub fn read_counterexample(path: &Path) -> io::Result<SavedCounterexample> {
    let text = fs::read_to_string(path)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut fields: HashMap<&str, &str> = HashMap::new();
    let mut fired = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix('#') {
            if let Some((key, value)) = rest.split_once(':') {
                // `forge:0` in a byz-menu header would split wrong, but
                // headers always start with a known key, so the first ':'
                // is the separator for every header this format emits.
                fields.insert(key.trim(), value.trim());
            }
        } else if !line.trim().is_empty() {
            let mut tokens = line.split_whitespace();
            let id = tokens.next().expect("non-empty line has a token");
            let raw: u64 = id
                .parse()
                .map_err(|e| bad(format!("bad event id {line:?}: {e}")))?;
            let deviation = match tokens.next() {
                None => Deviation::Faithful,
                Some(token) => parse_deviation(token)
                    .ok_or_else(|| bad(format!("bad deviation in line {line:?}")))?,
            };
            fired.push((EventId::from_u64(raw), deviation));
        }
    }
    let field = |key: &str| {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| bad(format!("missing header '# {key}: ...'")))
    };
    let num = |key: &str| -> io::Result<usize> {
        field(key)?
            .parse()
            .map_err(|e| bad(format!("bad {key}: {e}")))
    };
    let list = |key: &str| -> io::Result<Vec<usize>> {
        field(key)?
            .split_whitespace()
            .map(|w| w.parse().map_err(|e| bad(format!("bad {key}: {e}"))))
            .collect()
    };
    // The v2 headers are optional with crash-model defaults, so v1 files
    // (and hand-trimmed scripts) keep reading unchanged.
    let opt_list = |key: &str| -> io::Result<Vec<u64>> {
        match fields.get(key) {
            None => Ok(Vec::new()),
            Some(value) => value
                .split_whitespace()
                .map(|w| w.parse().map_err(|e| bad(format!("bad {key}: {e}"))))
                .collect(),
        }
    };
    let protocol = parse_protocol(field("protocol")?)
        .ok_or_else(|| bad(format!("unknown protocol {:?}", fields["protocol"])))?;
    let validity = parse_validity(field("validity")?)
        .ok_or_else(|| bad(format!("unknown validity {:?}", fields["validity"])))?;
    let adversary = match fields.get("model") {
        None => {
            if protocol.shared_memory() {
                AdversaryModel::SmCrash
            } else {
                AdversaryModel::MpCrash
            }
        }
        Some(value) => parse_adversary_model(value)
            .ok_or_else(|| bad(format!("unknown adversary model {value:?}")))?,
    };
    let inputs = match fields.get("inputs") {
        None => None,
        Some(value) => Some(
            value
                .split_whitespace()
                .map(|w| w.parse().map_err(|e| bad(format!("bad inputs: {e}"))))
                .collect::<io::Result<Vec<u64>>>()?,
        ),
    };
    let byz_silence = match fields.get("byz-silence") {
        None => false,
        Some(value) => value
            .parse()
            .map_err(|e| bad(format!("bad byz-silence: {e}")))?,
    };
    let loss_budget = match fields.get("loss-budget") {
        None => 0,
        Some(value) => value
            .parse()
            .map_err(|e| bad(format!("bad loss-budget: {e}")))?,
    };
    let byzantine = match fields.get("byzantine") {
        None => Vec::new(),
        Some(value) => value
            .split_whitespace()
            .map(|w| w.parse().map_err(|e| bad(format!("bad byzantine: {e}"))))
            .collect::<io::Result<Vec<usize>>>()?,
    };
    Ok(SavedCounterexample {
        protocol,
        n: num("n")?,
        k: num("k")?,
        t: num("t")?,
        validity,
        adversary,
        inputs,
        byz_menu: opt_list("byz-menu")?,
        byz_silence,
        loss_budget,
        counterexample: Counterexample {
            crashed: list("crashed")?,
            byzantine,
            choices: list("choices")?,
            fired,
            violation: field("violation")?.to_string(),
        },
    })
}

/// Replays a saved counterexample deterministically via its choice prefix
/// and re-checks the specification. Returns the replayed run and its
/// violation message (`None` means the script no longer violates — i.e.
/// the protocol or kernel changed since the script was recorded).
pub fn replay_counterexample(saved: &SavedCounterexample) -> (ScheduleRun, Option<String>) {
    let cfg = saved.config();
    let inputs = cfg.cell_inputs();
    let spec = ProblemSpec::new(saved.n, saved.k, saved.t, saved.validity)
        .expect("saved cell coordinates are valid");
    let plan = saved.plan();
    let run = execute_schedule(
        saved.protocol,
        &inputs,
        saved.t,
        &plan,
        cfg.pattern_policy(&plan).as_ref(),
        &saved.counterexample.choices,
        true,
        false,
    )
    .expect("saved schedules replay");
    let violation = run.violation(&spec, &inputs);
    (run, violation)
}

/// Replays the *fired id* body of a saved counterexample through a
/// [`kset_sim::ReplayScheduler`] and re-checks the specification.
///
/// Returns the violation message (`None` if the script no longer
/// violates) and the scheduler's divergence count — `0` means every
/// scripted id was found pending when its turn came, i.e. the replay
/// reproduced the recorded run event-for-event.
pub fn replay_fired(saved: &SavedCounterexample) -> (Option<String>, u64) {
    use std::cell::RefCell;

    let inputs = saved.config().cell_inputs();
    let spec = ProblemSpec::new(saved.n, saved.k, saved.t, saved.validity)
        .expect("saved cell coordinates are valid");
    let plan = saved.plan();
    let sched = Rc::new(RefCell::new(kset_sim::ReplayScheduler::with_deviations(
        saved.counterexample.fired.iter().copied(),
    )));
    let (n, t) = (saved.n, saved.t);
    let sys = System::new(n).scheduler(Rc::clone(&sched)).fault_plan(plan);
    // `run_adv` applies the scripted deviations through the same
    // deviation-aware delivery the checker recorded them with; for an
    // all-faithful (crash) script it is the faithful path, event for
    // event.
    let outcome = if saved.protocol.shared_memory() {
        sys.run_adv::<SmSubstrate<u64, u64>>(sm_processes(saved.protocol, &inputs, t))
            .expect("saved schedules replay")
    } else {
        sys.run_adv::<MpSubstrate<u64, u64>>(mp_processes(saved.protocol, &inputs, t))
            .expect("saved schedules replay")
    };
    let decisions = decision_table(&outcome.decisions, n);
    let violation = violation_of(
        &spec,
        &inputs,
        &decisions,
        &outcome.faulty,
        outcome.terminated,
    );
    let divergences = sched.borrow().divergences();
    (violation, divergences)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(
        protocol: QuorumProtocol,
        n: usize,
        k: usize,
        t: usize,
        validity: ValidityCondition,
    ) -> CheckerConfig {
        CheckerConfig::new(protocol, n, k, t, validity)
    }

    /// The in-memory form of `ce` as [`write_counterexample`] would save
    /// it for `cfg`.
    fn saved(cfg: &CheckerConfig, ce: Counterexample) -> SavedCounterexample {
        SavedCounterexample {
            protocol: cfg.protocol,
            n: cfg.n,
            k: cfg.k,
            t: cfg.t,
            validity: cfg.validity,
            adversary: cfg.adversary,
            inputs: cfg.inputs.clone(),
            byz_menu: cfg.byz_menu.clone(),
            byz_silence: cfg.byz_silence,
            loss_budget: cfg.loss_budget,
            counterexample: ce,
        }
    }

    #[test]
    fn floodmin_n3_t1_k2_holds_and_matches_exhaustive() {
        let cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        let disagreements = cross_validate(&cfg, &check_cell(&cfg));
        assert!(disagreements.is_empty(), "{disagreements:?}");
    }

    #[test]
    fn floodmin_consensus_with_crashes_is_violated_and_shrinks() {
        // k = 1 (consensus) with t = 1 is unsolvable (t >= k); the checker
        // must find a schedule with two distinct decisions.
        let cfg = cfg(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
        let verdict = check_cell(&cfg);
        assert!(!verdict.holds());
        let ce = verdict.counterexample.expect("violation found");
        assert!(ce.violation.contains("greement"), "{}", ce.violation);
        // The shrunk prefix still reproduces, and replay is exact.
        let saved = saved(&cfg, ce);
        let (_, violation) = replay_counterexample(&saved);
        assert!(violation.is_some());
        // The fired-id script replays exactly: zero divergences.
        let (violation, divergences) = replay_fired(&saved);
        assert!(violation.is_some());
        assert_eq!(divergences, 0);
    }

    #[test]
    fn protocol_a_n3_t1_k2_rv2_matches_exhaustive() {
        let cfg = cfg(QuorumProtocol::ProtocolA, 3, 2, 1, ValidityCondition::RV2);
        let disagreements = cross_validate(&cfg, &check_cell(&cfg));
        assert!(disagreements.is_empty(), "{disagreements:?}");
    }

    #[test]
    fn protocol_e_n3_t1_k2_rv2_matches_exhaustive() {
        // Shared-memory substrate: digests cover registers too.
        let cfg = cfg(QuorumProtocol::ProtocolE, 3, 2, 1, ValidityCondition::RV2);
        let disagreements = cross_validate(&cfg, &check_cell(&cfg));
        assert!(disagreements.is_empty(), "{disagreements:?}");
    }

    #[test]
    fn reductions_do_not_change_the_verdict() {
        // The reduced and the raw tree must agree on worst agreement —
        // the soundness smoke test for sleep sets + dedup.
        let mut reduced = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        let mut raw = reduced.clone();
        raw.por = false;
        raw.dedup = false;
        raw.max_runs = 300_000;
        reduced.max_runs = 300_000;
        let rv = check_cell(&reduced);
        let bv = check_cell(&raw);
        assert!(rv.complete && bv.complete, "raise max_runs");
        assert_eq!(rv.worst_agreement, bv.worst_agreement);
        assert_eq!(rv.holds(), bv.holds());
        // And the reductions actually reduce.
        assert!(rv.runs < bv.runs, "{} !< {}", rv.runs, bv.runs);
        // Each reduction alone is sound too.
        for (por, dedup) in [(true, false), (false, true)] {
            let mut one = reduced.clone();
            one.por = por;
            one.dedup = dedup;
            let v = check_cell(&one);
            assert!(v.complete, "por={por} dedup={dedup}: raise max_runs");
            assert_eq!(v.worst_agreement, rv.worst_agreement, "por={por} dedup={dedup}");
        }
    }

    #[test]
    fn empty_prefix_runs_the_canonical_schedule_to_termination() {
        for n in [4, 8, 16] {
            let run = execute_schedule(
                QuorumProtocol::FloodMin,
                &canonical_inputs(n),
                1,
                &FaultPlan::all_correct(n),
                None,
                &[],
                true,
                false,
            )
            .expect("schedule executes");
            assert!(run.terminated, "n = {n}");
        }
    }

    #[test]
    fn counterexample_files_roundtrip_and_are_byte_stable() {
        let cfg = cfg(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
        let verdict = check_cell(&cfg);
        let ce = verdict.counterexample.expect("violation found");
        let dir = std::env::temp_dir().join("kset_checker_test");
        let path = dir.join("ce.schedule");
        write_counterexample(&path, &cfg, &ce).unwrap();
        let bytes1 = fs::read(&path).unwrap();
        let saved = read_counterexample(&path).unwrap();
        assert_eq!(saved.counterexample, ce);
        assert_eq!(saved.protocol, cfg.protocol);
        // A second full run of the checker emits the identical file.
        let verdict2 = check_cell(&cfg);
        write_counterexample(&path, &cfg, verdict2.counterexample.as_ref().unwrap()).unwrap();
        let bytes2 = fs::read(&path).unwrap();
        assert_eq!(bytes1, bytes2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_records_cover_each_explored_pattern() {
        let cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        let verdict = check_cell(&cfg);
        let records = to_run_records(&cfg, &verdict);
        // n = 3, t = 1: failure-free + one pattern per process.
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.protocol == "MC(FloodMin)"));
        assert!(records.iter().all(|r| r.outcome.clean()));
        assert!(records.iter().all(|r| r.metrics.is_some()));
    }

    #[test]
    fn repeated_inputs_select_canonical_digests() {
        for n in 1..=5 {
            assert_eq!(digest_mode(&canonical_inputs(n)), DigestMode::Plain, "n = {n}");
        }
        assert_eq!(digest_mode(&[1, 1, 1]), DigestMode::Canonical);
        assert_eq!(digest_mode(&[0, 0, 1, 2]), DigestMode::Canonical);
        assert_eq!(digest_mode(&[2, 0, 1, 0]), DigestMode::Canonical);
        let mut cell = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        assert_eq!(cell.digest(), DigestMode::Plain);
        cell.inputs = Some(vec![1, 1, 1]);
        assert_eq!(cell.digest(), DigestMode::Canonical);
    }

    #[test]
    fn depth_bound_marks_verdict_incomplete() {
        let mut shallow = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        shallow.depth = 1;
        let verdict = check_cell(&shallow);
        assert!(!verdict.complete);
    }

    #[test]
    fn preemption_bound_zero_explores_fewer_schedules() {
        let full = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        let mut bounded = full.clone();
        bounded.preemptions = Some(0);
        let fv = check_cell(&full);
        let bv = check_cell(&bounded);
        assert!(bv.runs <= fv.runs);
    }

    #[test]
    fn parsers_accept_the_documented_forms() {
        assert_eq!(parse_protocol("FloodMin"), Some(QuorumProtocol::FloodMin));
        assert_eq!(parse_protocol("protocol a"), Some(QuorumProtocol::ProtocolA));
        assert_eq!(parse_protocol("f"), Some(QuorumProtocol::ProtocolF));
        assert_eq!(parse_protocol("nonsense"), None);
        assert_eq!(parse_validity("rv1"), Some(ValidityCondition::RV1));
        assert_eq!(parse_validity("bogus"), None);
        assert_eq!(parse_adversary_model("mp_byz"), Some(AdversaryModel::MpByz));
        assert_eq!(parse_adversary_model("SM_BYZ"), Some(AdversaryModel::SmByz));
        assert_eq!(parse_adversary_model("mp_lossy"), Some(AdversaryModel::MpLossy));
        assert_eq!(parse_adversary_model("byzantine"), None);
    }

    /// The canonical MP/Byz violated cell: one Byzantine slot forging a 0
    /// into all-equal proposals of 1 breaks RV1 for FloodMin (Lemma
    /// 3.10), and the recorded deviation script replays exactly.
    fn mp_byz_violated_cfg() -> CheckerConfig {
        let mut cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        cfg.adversary = AdversaryModel::MpByz;
        cfg.byz_menu = vec![0];
        cfg.byz_silence = true;
        cfg.inputs = Some(vec![1, 1, 1]);
        cfg
    }

    #[test]
    fn byzantine_mp_cell_is_violated_and_replays_with_deviations() {
        let cfg = mp_byz_violated_cfg();
        let verdict = check_cell(&cfg);
        assert!(!verdict.holds());
        let ce = verdict.counterexample.expect("violation found");
        assert!(!ce.byzantine.is_empty(), "a Byzantine slot must be blamed");
        assert!(
            ce.fired.iter().any(|(_, d)| *d != Deviation::Faithful),
            "the script must record the deviation that broke the run: {:?}",
            ce.fired,
        );
        // The v2 file format round-trips the deviations and is byte-stable.
        let dir = std::env::temp_dir().join("kset_checker_byz_test");
        let path = dir.join("ce.schedule");
        write_counterexample(&path, &cfg, &ce).unwrap();
        let bytes1 = fs::read(&path).unwrap();
        let saved = read_counterexample(&path).unwrap();
        assert_eq!(saved.counterexample, ce);
        assert_eq!(saved.adversary, AdversaryModel::MpByz);
        assert_eq!(saved.byz_menu, vec![0]);
        assert!(saved.byz_silence);
        assert_eq!(saved.inputs, Some(vec![1, 1, 1]));
        write_counterexample(&path, &cfg, &ce).unwrap();
        assert_eq!(bytes1, fs::read(&path).unwrap());
        let _ = fs::remove_dir_all(&dir);
        // Both the choice-replay and the fired-script replay reproduce.
        let (_, violation) = replay_counterexample(&saved);
        assert!(violation.is_some());
        let (violation, divergences) = replay_fired(&saved);
        assert!(violation.is_some());
        assert_eq!(divergences, 0);
    }

    #[test]
    fn byzantine_mp_weak_validity_cell_holds() {
        // Lemma 3.12: (k-1)(n-2t) >= n-t at (n,k,t) = (3,3,1), so
        // Protocol A solves SC(3, 1, WV2) against the same adversary that
        // breaks RV1 — the other side of the MP Byzantine frontier.
        let mut cfg = cfg(QuorumProtocol::ProtocolA, 3, 3, 1, ValidityCondition::WV2);
        cfg.adversary = AdversaryModel::MpByz;
        cfg.byz_menu = vec![0];
        cfg.byz_silence = true;
        cfg.inputs = Some(vec![1, 1, 1]);
        let verdict = check_cell(&cfg);
        assert!(verdict.complete, "exploration must exhaust the space");
        assert!(verdict.holds());
    }

    #[test]
    fn byzantine_sm_strong_validity_cell_is_violated() {
        // Lemma 4.9: 2t >= n and t >= k at (n,k,t) = (3,2,2) makes RV2
        // unsolvable in SM/Byz; a forged register read breaks Protocol E.
        let mut cfg = cfg(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::RV2);
        cfg.adversary = AdversaryModel::SmByz;
        cfg.byz_menu = vec![0];
        cfg.inputs = Some(vec![1, 1, 1]);
        let verdict = check_cell(&cfg);
        assert!(!verdict.holds());
        let ce = verdict.counterexample.expect("violation found");
        assert!(!ce.byzantine.is_empty());
        let saved = saved(&cfg, ce);
        let (violation, divergences) = replay_fired(&saved);
        assert!(violation.is_some());
        assert_eq!(divergences, 0);
    }

    #[test]
    fn lossy_adversary_quantifies_over_drops() {
        // One allowed drop starves FloodMin's t = 1 resilience: the
        // checker must find a schedule where a correct process never
        // decides, and the script must record the drop.
        let mut cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        cfg.adversary = AdversaryModel::MpLossy;
        cfg.loss_budget = 1;
        let verdict = check_cell(&cfg);
        assert!(!verdict.holds());
        let ce = verdict.counterexample.expect("violation found");
        assert!(ce.byzantine.is_empty(), "lossy keeps the crash pattern space");
        assert!(
            ce.fired.iter().any(|(_, d)| *d == Deviation::Drop),
            "{:?}",
            ce.fired,
        );
    }

    #[test]
    fn empty_deviation_menu_is_inert() {
        // A Byzantine adversary with nothing to forge and no silence is
        // the crash checker: identical verdict, counters and
        // counterexample (satellite of the parity suite in
        // `tests/adversary_parity.rs`).
        let crash = cfg(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
        let mut byz = crash.clone();
        byz.adversary = AdversaryModel::MpByz;
        let cv = check_cell(&crash);
        let bv = check_cell(&byz);
        assert_eq!(cv.runs, bv.runs);
        assert_eq!(cv.worst_agreement, bv.worst_agreement);
        assert_eq!(cv.counterexample, bv.counterexample);
    }

    #[test]
    fn validate_rejects_inconsistent_adversaries() {
        let base = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        // Substrate mismatch: an SM adversary on an MP protocol.
        let mut bad = base.clone();
        bad.adversary = AdversaryModel::SmByz;
        assert!(bad.validate().is_err());
        // Byzantine knobs under a crash adversary.
        let mut bad = base.clone();
        bad.byz_menu = vec![0];
        assert!(bad.validate().is_err());
        // A loss budget without the lossy adversary.
        let mut bad = base.clone();
        bad.loss_budget = 2;
        assert!(bad.validate().is_err());
        // An input vector of the wrong arity.
        let mut bad = base.clone();
        bad.inputs = Some(vec![1, 1]);
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid checker configuration")]
    fn check_cell_refuses_an_unsupported_model_combination() {
        // Satellite guard: an unsupported model must be a hard error at
        // the door, never a silently wrong-model certification.
        let mut cfg = cfg(QuorumProtocol::ProtocolE, 3, 2, 1, ValidityCondition::RV2);
        cfg.adversary = AdversaryModel::MpByz; // MP adversary, SM protocol
        let _ = check_cell(&cfg);
    }

    #[test]
    #[should_panic(expected = "no deviation policy")]
    fn byzantine_plan_without_policy_is_rejected() {
        // Satellite guard: a Byzantine fault plan fed through the
        // crash-only execution path would silently certify crash
        // semantics under a Byzantine label.
        let inputs = canonical_inputs(3);
        let plan = kset_adversary::plans::first_t_byzantine(3, 1);
        let _ = execute_schedule(
            QuorumProtocol::FloodMin,
            &inputs,
            1,
            &plan,
            None,
            &[],
            true,
            false,
        );
    }

    #[test]
    fn cross_validation_is_void_for_deviation_adversaries() {
        let cfg = mp_byz_violated_cfg();
        let verdict = check_cell(&cfg);
        let disagreements = cross_validate(&cfg, &verdict);
        assert_eq!(disagreements.len(), 1);
        assert!(disagreements[0].contains("comparison void"), "{disagreements:?}");
    }
}
