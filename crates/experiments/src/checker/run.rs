//! Running schedules against the real kernel: the process vectors, one
//! schedule's execution, shrinking a violation, the JSONL run records, the
//! cross-check against the analytic enumerator, and both replays of a
//! saved counterexample.

use std::collections::BTreeMap;
use std::rc::Rc;

use kset_adversary::plans::all_silent_crash_patterns;
use kset_core::ProblemSpec;
use kset_net::{DynMpProcess, MpSubstrate};
use kset_protocols::{FloodMin, ProtocolA, ProtocolB, ProtocolE, ProtocolF};
use kset_shmem::{DynSmProcess, SmSubstrate};
use kset_sim::{
    ChoiceLog, ChoiceScheduler, DeviationPolicy, DigestMode, FaultKind, FaultPlan, MetricsConfig,
    ProcessId, RunArena, RunMetrics, RunStats, SimError, System,
};

use super::{CellVerdict, CheckerConfig, Counterexample, SavedCounterexample};
use crate::cells::DEFAULT_VALUE;
use crate::exhaustive::QuorumProtocol;
use crate::record_sink::{RunOutcome, RunRecord};

/// Builds the boxed process vector for a message-passing protocol cell —
/// the single construction point shared by the explorer's fork sessions,
/// [`execute_schedule_in`] and the fired-id replayer.
///
/// # Panics
///
/// Panics on a shared-memory protocol; callers gate on
/// [`QuorumProtocol::shared_memory`].
pub(super) fn mp_processes(
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
pub(super) fn sm_processes(
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
pub(super) fn distinct_correct_decisions(decisions: &[Option<u64>], faulty: &[ProcessId]) -> usize {
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
pub(super) const BYZANTINE_WITHOUT_POLICY: &str =
    "fault plan contains Byzantine slots but no deviation \
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
pub(super) fn violation_of(
    spec: &ProblemSpec,
    inputs: &[u64],
    decisions: &[Option<u64>],
    faulty: &[ProcessId],
    terminated: bool,
) -> Option<String> {
    let report = spec.check(&kset_core::DenseRun::new(
        inputs, decisions, faulty, terminated,
    ));
    (!report.is_ok()).then(|| report.to_string())
}

/// Splits a fault plan into its crashed and Byzantine slots — the two
/// header lists of a counterexample script.
pub(super) fn plan_slots(plan: &FaultPlan) -> (Vec<ProcessId>, Vec<ProcessId>) {
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
            let violation = pattern.violation.as_ref().map(|ce| ce.violation.clone());
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

/// Cross-validates a [`check_cell`](super::check_cell) verdict against the analytic
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
