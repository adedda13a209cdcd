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
//!
//! The configuration and parsers live here; `run.rs` executes, shrinks
//! and replays schedules, `explore.rs` runs one exploration task,
//! `drive.rs` holds the verdicts, the gauges and the one pattern loop
//! behind [`check_cell`] and every campaign, `bench.rs` the bench report
//! and progress lines those gauges are written into, and `script.rs` the
//! counterexample script format.

mod bench;
mod drive;
mod explore;
mod run;
mod script;
#[cfg(test)]
mod tests;

use std::fmt;
use std::num::NonZeroU64;

use kset_adversary::plans::{all_byzantine_patterns, all_silent_crash_patterns};
use kset_core::{ProblemSpec, ValidityCondition};
use kset_regions::Model;
use kset_sim::{DeviationPolicy, DigestMode, FaultPlan, ForkConfig};

use crate::exhaustive::QuorumProtocol;

pub use crate::visited::Visited;
pub use bench::{bench_report, BenchCell};
pub use drive::{
    check_cell, check_cell_gauged, explore_pattern, CellVerdict, Counterexample, PatternVerdict,
    RunGauge, SleepEntry, VisitedGauge,
};
pub(crate) use drive::{drive_cell, CellHooks, PatternState, WorkItem};
pub use run::{
    cross_validate, execute_schedule, execute_schedule_in, replay_counterexample, replay_fired,
    shrink_counterexample, to_run_records, ScheduleRun,
};
pub(crate) use script::{numbers, Header};
pub use script::{read_counterexample, write_counterexample, SavedCounterexample};

/// The checker's input: a cell plus its run bound and switches.
#[derive(Clone, PartialEq, Eq, Debug)]
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
    /// Run budget of one crash pattern's exploration, and the checker's
    /// one bound. Enforced per task and, deterministically, at every wave
    /// boundary of the parallel drain (see the module docs), so the total
    /// may overshoot by at most one wave of task budgets; hitting it marks
    /// the verdict incomplete.
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
    pub progress: Option<NonZeroU64>,
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
    /// bytes exceed a fixed budget. With deduplication on, a run stops at
    /// its first state the visited stores already cover, where the walk
    /// would stop reading it: all of its continuations are explored from
    /// the covering state. The default.
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
    /// The crash adversary of `protocol`'s substrate: the default of a
    /// cell, and of a script or manifest that names no model.
    pub(crate) fn crash_for(protocol: QuorumProtocol) -> Self {
        if protocol.shared_memory() {
            AdversaryModel::SmCrash
        } else {
            AdversaryModel::MpCrash
        }
    }

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
            max_runs: 10_000_000,
            max_states: 1 << 22,
            por: true,
            dedup: true,
            progress: None,
            threads: kset_core::cli::available_threads(),
            fork: ForkMode::Auto,
            adversary: AdversaryModel::crash_for(protocol),
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

    /// Rejects cell coordinates [`ProblemSpec::new`] rejects (`n = 0`,
    /// `k` outside `1..=n`, `t > n`) and `t = n`, which leaves every
    /// checked protocol an empty quorum, and configurations whose verdict
    /// would be *about the wrong model*: a substrate mismatch between
    /// adversary and protocol, a
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
        if let Err(e) = ProblemSpec::new(self.n, self.k, self.t, self.validity) {
            return Err(e.to_string());
        }
        if self.t >= self.n {
            return Err(format!(
                "t = {} leaves no quorum of n - t processes at n = {}",
                self.t, self.n
            ));
        }
        if self.adversary.shared_memory() != self.protocol.shared_memory() {
            return Err(format!(
                "adversary model {} runs on the {} substrate but protocol {} is {}; \
                 pick a matching --model",
                self.adversary,
                if self.adversary.shared_memory() {
                    "shared-memory"
                } else {
                    "message-passing"
                },
                self.protocol.name(),
                if self.protocol.shared_memory() {
                    "shared-memory"
                } else {
                    "message-passing"
                },
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
    /// byte budget, and branch snapshots at every depth — or at none under
    /// [`ForkMode::Replay`], so that every run replays from the root.
    pub(super) fn fork_config(&self, inputs: &[u64]) -> ForkConfig {
        ForkConfig {
            n: self.n,
            por: self.por,
            digest: digest_mode(inputs),
            event_limit: None,
            max_branch_depth: match self.fork {
                ForkMode::Replay => 0,
                ForkMode::Auto => usize::MAX,
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
