//! The checker's one pattern loop and what it folds: the frontier a
//! campaign checkpoints, the pattern and cell verdicts, the memory and
//! execution gauges, the seed run and the wave drain of one pattern.

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroU64;
use std::time::Instant;

use kset_core::ProblemSpec;
use kset_sim::{Deviation, EventId, FaultPlan, ProcessId};

use super::bench::progress_line;
use super::explore::{explore_task, Task, TaskOutcome, TASK_BUDGET};
use super::{shrink_counterexample, CheckerConfig, ForkMode, Visited};
use crate::engine::{DrainExit, WaveControl};
use crate::visited::{Sharded, SHARDS};

/// One sleeping event: put to sleep after its subtree was fully
/// explored, woken (removed) by firing any *dependent* event — one
/// with the same target process.
///
/// Public because the visited tables ([`Visited::covers`]) are queried
/// with sleep sets; everything else about the sleep-set machinery stays
/// internal.
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
pub(crate) struct WorkItem {
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
pub(crate) struct PatternState {
    /// Counters and (possible) violation accumulated so far.
    pub verdict: PatternVerdict,
    /// Outstanding task stacks, in claim order.
    pub queue: Vec<Vec<WorkItem>>,
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

/// Phase 1 of a pattern's exploration: executes the canonical
/// (empty-prefix) run, seeds the first-deviation task queue, and returns
/// the root task's visited table (which the caller absorbs into the
/// shared store — exactly the serial explorer's view after run 1).
///
/// `seeded` comes back in claim order: the walk emits stack order, and
/// reversing it reproduces the serial explorer's pop order (deepest
/// deviation first), so violated cells exit after the same shallow wave
/// of small subtrees the serial search would have tried first.
fn seed_pattern(
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
        global: &Sharded::new(1),
    };
    let mut root_out = explore_task(&task, vec![root], 1);
    let mut seeded = std::mem::take(&mut root_out.spill);
    seeded.reverse();
    let mut verdict = PatternVerdict {
        crashed,
        runs: 0,
        states: 0,
        sleep_skips: 0,
        dedup_hits: 0,
        complete: true,
        worst_agreement: 0,
        tasks: 0,
        violation: None,
    };
    verdict.add_task(&mut root_out);
    let queue: Vec<Vec<WorkItem>> = seeded.into_iter().map(|item| vec![item]).collect();
    (
        PatternState { verdict, queue },
        std::mem::take(&mut root_out.visited),
    )
}

/// Phase 2 of a pattern's exploration, resumable at any wave boundary:
/// drains the task queue in waves. Each task partitions its visited table
/// by the store's shards before it returns; at the wave barrier the
/// tasks' counters are folded into the verdict in claim order, and their
/// tables into `store` in one [`Sharded::fold`], shard by shard on the
/// engine's workers. Tasks that exhaust [`TASK_BUDGET`] spill their
/// remaining stack back into the queue as fresh tasks.
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
/// one progress line, a compact JSON object, to stderr (see
/// `OBSERVABILITY.md`).
fn drain_pattern(
    cfg: &CheckerConfig,
    inputs: &[u64],
    spec: &ProblemSpec,
    plan: &FaultPlan,
    store: &mut Sharded,
    state: PatternState,
    mut on_wave: impl FnMut(&Sharded, &PatternVerdict, &VecDeque<Vec<WorkItem>>) -> WaveControl,
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
                global: store,
            };
            let mut out = explore_task(&task, stack, TASK_BUDGET);
            let table = std::mem::take(&mut out.visited).partition(store.shard_count());
            (out, table)
        },
        |(store, v, gauge), wave, queue| {
            let mut tables = Vec::with_capacity(wave.len());
            for (mut out, table) in wave {
                tables.push(table);
                gauge.add_task(&out);
                v.add_task(&mut out);
                if !out.spill.is_empty() {
                    queue.push(out.spill);
                }
            }
            let folding = Instant::now();
            store.fold(&tables, cfg.threads);
            gauge.fold_s += folding.elapsed().as_secs_f64();
            gauge.waves += 1;
            v.violation.is_some() || v.runs >= cfg.max_runs
        },
        |(store, v, gauge), queue| {
            if let Some(every) = cfg.progress.map(NonZeroU64::get) {
                if v.runs / every > reported / every {
                    reported = v.runs;
                    let line = progress_line(cfg, v, queue.len(), VisitedGauge::of(store), gauge);
                    eprintln!("{line}");
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
/// This is one step of the pattern loop ([`check_cell`]): a [`Sharded`]
/// store of [`SHARDS`] [`Visited`] tables, allocated after the pattern's
/// seed run and dropped on return. A campaign (`crate::campaign`) runs the
/// same step with checkpoint hooks, and is pinned to produce bit-identical
/// verdicts.
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
    run_pattern(cfg, inputs, spec, plan, None, &[], None, &mut VisitedGauge::default()).0
}

/// What a caller of the pattern loop does at its boundaries. Hooks
/// observe the exploration and may pause it, but never steer it, so
/// verdicts and counters do not depend on when, or whether, they pause.
pub(crate) trait CellHooks {
    /// Between two waves of a pattern: `done` holds the finished
    /// patterns, `partial`, `queue` and `store` the drained pattern so
    /// far.
    fn wave(
        &mut self,
        store: &Sharded,
        done: &[PatternVerdict],
        partial: &PatternVerdict,
        queue: &VecDeque<Vec<WorkItem>>,
    ) -> WaveControl;

    /// After a pattern's verdict, its violation shrunk, joined `done`;
    /// `decided` when no pattern follows. A pause is ignored once the
    /// cell is decided.
    fn pattern(&mut self, done: &[PatternVerdict], decided: bool) -> WaveControl;
}

/// One pattern of the loop: seeds it, allocates its store and folds the
/// seed run's table into it — unless `partial` resumes the pattern with
/// its store — and drains it, `hooks` watching the waves. The store is
/// dropped on return. `visited` rises to the store's size at every wave
/// barrier.
#[allow(clippy::too_many_arguments)]
fn run_pattern(
    cfg: &CheckerConfig,
    inputs: &[u64],
    spec: &ProblemSpec,
    plan: &FaultPlan,
    partial: Option<(PatternState, Sharded)>,
    done: &[PatternVerdict],
    mut hooks: Option<&mut (dyn CellHooks + '_)>,
    visited: &mut VisitedGauge,
) -> (PatternVerdict, DrainExit, RunGauge) {
    let (state, mut store) = partial.unwrap_or_else(|| {
        let (state, root) = seed_pattern(cfg, inputs, spec, plan);
        let mut store = Sharded::new(SHARDS);
        store.fold(&[root.partition(SHARDS)], cfg.threads);
        (state, store)
    });
    *visited = visited.max(VisitedGauge::of(&store));
    let drained = drain_pattern(cfg, inputs, spec, plan, &mut store, state, |store, partial, queue| {
        *visited = visited.max(VisitedGauge::of(store));
        match hooks.as_mut() {
            Some(hooks) => hooks.wave(store, done, partial, queue),
            None => WaveControl::Continue,
        }
    });
    *visited = visited.max(VisitedGauge::of(&store));
    drained
}

/// The checker's one pattern loop, behind [`check_cell`] and every
/// campaign: explores the cell's fault plans from the first one not in
/// `done` (resuming `partial` and its store, if any), shrinks the first
/// violation and stops there, and folds the pattern verdicts into the
/// cell's — `None` when a hook paused the loop — next to the gauges of
/// the patterns it ran. `hooks` run at every wave and pattern boundary.
///
/// # Panics
///
/// Panics if `cfg` fails [`CheckerConfig::validate`]: the hard guard
/// against certifying the wrong model.
pub(crate) fn drive_cell(
    cfg: &CheckerConfig,
    mut done: Vec<PatternVerdict>,
    mut partial: Option<(PatternState, Sharded)>,
    mut hooks: Option<&mut dyn CellHooks>,
) -> (Option<CellVerdict>, VisitedGauge, RunGauge) {
    if let Err(message) = cfg.validate() {
        panic!("invalid checker configuration: {message}");
    }
    let inputs = cfg.cell_inputs();
    let spec = ProblemSpec::new(cfg.n, cfg.k, cfg.t, cfg.validity)
        .expect("validate accepts only valid cell coordinates");
    let plans = cfg.fault_plans();
    let mut visited = VisitedGauge::default();
    let mut runs = RunGauge::default();
    for (index, plan) in plans.iter().enumerate().skip(done.len()) {
        let (mut pattern, exit, pattern_runs) = run_pattern(
            cfg,
            &inputs,
            &spec,
            plan,
            partial.take(),
            &done,
            hooks.as_deref_mut(),
            &mut visited,
        );
        runs.add(&pattern_runs);
        if matches!(exit, DrainExit::Paused) {
            return (None, visited, runs);
        }
        if let Some(raw) = pattern.violation.take() {
            pattern.violation = Some(shrink_counterexample(cfg, &inputs, &spec, plan, raw.choices));
        }
        let decided = pattern.violation.is_some() || index + 1 == plans.len();
        done.push(pattern);
        if let Some(hooks) = hooks.as_deref_mut() {
            if hooks.pattern(&done, decided) == WaveControl::Pause && !decided {
                return (None, visited, runs);
            }
        }
        if decided {
            break;
        }
    }
    (Some(CellVerdict::of(done)), visited, runs)
}

/// The memory gauge of a cell's exploration: the largest in-memory
/// visited store any of its patterns kept, read at wave barriers (where
/// the store has just absorbed a wave and is largest), summed over the
/// store's shards. Operational, not contract-covered: `bytes` and `slots`
/// depend on the tables' layout and growth history.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct VisitedGauge {
    /// Most live minimal entries ([`Visited::live_entries`]).
    pub entries: u64,
    /// Most resident bytes ([`Visited::resident_bytes`]).
    pub bytes: u64,
    /// Fingerprints of the store with the most index slots
    /// ([`Visited::fingerprints`]); over `slots`, its index load.
    pub fingerprints: u64,
    /// Most index slots ([`Visited::slots`]).
    pub slots: u64,
}

impl VisitedGauge {
    fn of(store: &Sharded) -> Self {
        let tables = store.tables();
        VisitedGauge {
            entries: store.live_entries(),
            bytes: tables.iter().map(Visited::resident_bytes).sum(),
            fingerprints: tables.iter().map(Visited::fingerprints).sum(),
            slots: tables.iter().map(Visited::slots).sum(),
        }
    }

    fn max(self, other: Self) -> Self {
        let (slots, fingerprints) =
            (self.slots, self.fingerprints).max((other.slots, other.fingerprints));
        VisitedGauge {
            entries: self.entries.max(other.entries),
            bytes: self.bytes.max(other.bytes),
            fingerprints,
            slots,
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

impl PatternVerdict {
    /// Adds one exploration task's verdict counters, tasks in claim
    /// order: the first task's violation is the pattern's.
    fn add_task(&mut self, out: &mut TaskOutcome) {
        self.runs += out.runs;
        self.states += out.states;
        self.sleep_skips += out.sleep_skips;
        self.dedup_hits += out.dedup_hits;
        self.complete &= out.complete;
        self.worst_agreement = self.worst_agreement.max(out.worst_agreement);
        self.tasks += 1;
        if self.violation.is_none() {
            self.violation = out.violation.take();
        }
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
    /// Folds the explored patterns' verdicts, in plan order, into the
    /// cell's; the last pattern's violation, if any, is the cell's.
    pub(crate) fn of(patterns: Vec<PatternVerdict>) -> Self {
        let mut verdict = CellVerdict {
            patterns: Vec::new(),
            worst_agreement: 0,
            complete: true,
            runs: 0,
            counterexample: None,
        };
        for pattern in patterns {
            verdict.worst_agreement = verdict.worst_agreement.max(pattern.worst_agreement);
            verdict.runs += pattern.runs;
            verdict.complete &= pattern.complete;
            verdict.counterexample.clone_from(&pattern.violation);
            verdict.patterns.push(pattern);
        }
        verdict
    }

    /// Whether the protocol solves the cell as far as the exploration saw:
    /// no violating schedule in any explored pattern.
    pub fn holds(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Whether no explored run violated the cell but a bound cut the
    /// exploration short: not a certification.
    pub fn bounded(&self) -> bool {
        self.holds() && !self.complete
    }

    /// The bounds of `cfg` that can have cut the exploration short, as
    /// the flags that set them (`--max-runs 0`); empty unless the verdict
    /// is [bounded](CellVerdict::bounded). `--max-states` never cuts it:
    /// past it a task only stops memoizing.
    pub fn bounds(&self, cfg: &CheckerConfig) -> Vec<String> {
        let mut bounds = Vec::new();
        if !self.bounded() {
            return bounds;
        }
        if self.cut_by_max_runs(cfg) {
            bounds.push(format!("--max-runs {}", cfg.max_runs));
        }
        if cfg.depth != usize::MAX {
            bounds.push(format!("--depth {}", cfg.depth));
        }
        if let Some(preemptions) = cfg.preemptions {
            bounds.push(format!("--preemptions {preemptions}"));
        }
        bounds
    }

    /// Whether some pattern stopped incomplete at `cfg`'s run budget.
    fn cut_by_max_runs(&self, cfg: &CheckerConfig) -> bool {
        self.patterns
            .iter()
            .any(|p| !p.complete && p.runs >= cfg.max_runs)
    }

    /// The verdict line of the cell checked under `cfg`: the display, a
    /// bounded verdict naming its [bounds](CellVerdict::bounds).
    pub fn line(&self, cfg: &CheckerConfig) -> String {
        let mut bounds = self.bounds(cfg);
        if self.bounded() && self.cut_by_max_runs(cfg) {
            bounds[0].push_str(" (each pattern stops at the first wave barrier past it)");
        }
        let mut line = String::new();
        self.write(&mut line, &bounds.join(" or "))
            .expect("a String takes any line");
        line
    }

    /// Writes the verdict line, a bounded verdict `BOUNDED by {bounds}`.
    fn write(&self, out: &mut impl fmt::Write, bounds: &str) -> fmt::Result {
        match (self.holds(), self.bounded()) {
            (true, false) => out.write_str("HOLDS")?,
            (true, true) if bounds.is_empty() => out.write_str("BOUNDED")?,
            (true, true) => write!(out, "BOUNDED by {bounds}")?,
            (false, _) => out.write_str("VIOLATED")?,
        }
        write!(
            out,
            " over {} crash pattern(s): {} runs, worst agreement {}",
            self.patterns.len(),
            self.runs,
            self.worst_agreement,
        )?;
        // A violation is a violation under any bound; its line keeps the
        // marker it always had.
        if !self.holds() && !self.complete {
            out.write_str(" (bounded)")?;
        }
        if let Some(ce) = &self.counterexample {
            write!(out, "; counterexample: crashed={:?}, ", ce.crashed)?;
            // Only Byzantine cells name their slots, so crash-adversary
            // verdict lines stay byte-identical to earlier recordings.
            if !ce.byzantine.is_empty() {
                write!(out, "byzantine={:?}, ", ce.byzantine)?;
            }
            write!(out, "{} choice(s), {}", ce.choices.len(), ce.violation)?;
        }
        Ok(())
    }
}

impl fmt::Display for CellVerdict {
    /// The verdict line; [`CellVerdict::line`] also names the bounds of a
    /// bounded one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, "")
    }
}

/// Model-checks `SC(k, t, C)` for the configured protocol and cell:
/// explores every schedule of every fault pattern of the configured
/// adversary ([`CheckerConfig::fault_plans`]), stopping at (and
/// shrinking) the first violation.
///
/// # Panics
///
/// Panics — the hard guard against certifying the wrong model — if the
/// configuration fails [`CheckerConfig::validate`], which also rejects
/// the cell coordinates [`ProblemSpec::new`] rejects.
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
    let (verdict, visited, runs) = drive_cell(cfg, Vec::new(), None, None);
    let verdict = verdict.expect("only hooks pause, and there are none");
    (verdict, visited, runs)
}
