//! Per-cell empirical validation: run the designated protocol of a
//! solvable atlas cell and check all three `SC` conditions.
//!
//! For every cell the analytic atlas classifies as solvable, the citation
//! names the protocol (Protocol A, FloodMin, C(ℓ), ...). This module maps
//! the citation back to an executable configuration, runs it across a mix
//! of fault plans and schedules, and checks each completed run against
//! `SC(k, t, C)` with the `kset-core` checker.
//!
//! It also holds the one sampled-run path that validation and the
//! boundary probes ([`crate::explorer`]) share: the seed loop, the runner
//! that maps a protocol name to its processes, and the sweep that runs a
//! list of cells on the engine and merges their results in cell order.

use std::ops::Range;

use kset_adversary::{plans, EchoSplitter, GroupMimic, Scribbler, Silent, SmSilent};
use kset_core::cli::{self, Args};
use kset_core::json::{ObjectWriter, ToJson};
use kset_core::{ProblemSpec, ValidityCondition};
use kset_net::{DynMpProcess, MpSubstrate};
use kset_protocols::{
    CMsg, DMsg, FloodMin, ProtocolA, ProtocolB, ProtocolC, ProtocolD, ProtocolE, ProtocolF,
    SimSlot, Simulated,
};
use kset_regions::{classify, math, CellClass, Model};
use kset_shmem::{DynSmProcess, SmSubstrate};
use kset_sim::{DelayRule, FaultPlan, MetricsConfig, Outcome, ProcessId, SimError, System, Until};

use crate::engine;
use crate::record_sink::{RunOutcome, RunRecord};

/// The default decision value used by the default-deciding protocols.
/// Drawn far outside the input domain `0..n` used by the sweeps.
pub const DEFAULT_VALUE: u64 = u64::MAX;

/// Result of empirically validating one cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellValidation {
    /// The model of the cell.
    pub model: Model,
    /// The validity condition.
    pub validity: ValidityCondition,
    /// System size.
    pub n: usize,
    /// Agreement bound.
    pub k: usize,
    /// Fault budget.
    pub t: usize,
    /// Which protocol ran, e.g. `"Protocol A"`.
    pub protocol: &'static str,
    /// Completed runs.
    pub runs: usize,
    /// Runs violating any `SC` condition (should be 0).
    pub violations: usize,
    /// First violation message, if any.
    pub first_violation: Option<String>,
}

impl CellValidation {
    /// True when every run satisfied the specification.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

impl ToJson for CellValidation {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("model", &self.model)
            .field("validity", &self.validity)
            .field("n", &self.n)
            .field("k", &self.k)
            .field("t", &self.t)
            .field("protocol", self.protocol)
            .field("runs", &self.runs)
            .field("violations", &self.violations)
            .field("first_violation", &self.first_violation)
            .finish();
    }
}

/// Fault-plan variants cycled through per seed, crash models.
fn crash_plan(n: usize, t: usize, seed: u64) -> FaultPlan {
    match seed % 3 {
        0 => plans::all_correct(n),
        1 => plans::last_t_silent(n, t),
        _ => {
            // Crash the first t processes with staggered budgets so that
            // partial broadcasts occur.
            let mut plan = plans::all_correct(n);
            for (i, pid) in (0..t).enumerate() {
                plan.set(
                    pid,
                    kset_sim::FaultSpec::Crash {
                        after_actions: 1 + (seed + i as u64) % (n as u64 + 2),
                    },
                );
            }
            plan
        }
    }
}

/// Fault-plan variants for Byzantine models (strategies chosen by caller).
fn byz_plan(n: usize, t: usize, seed: u64) -> FaultPlan {
    match seed % 2 {
        0 => plans::all_correct(n),
        _ => plans::first_t_byzantine(n, t),
    }
}

/// Partition-style delay rules for a message-passing run: on every fifth
/// seed, split the processes into groups, each isolated (except from the
/// faulty set) until it decides — legal asynchronous behaviour that mirrors
/// the paper's proof schedules. Other seeds run unshaped.
fn mp_schedule_rules(n: usize, seed: u64, faulty: &[usize]) -> Vec<DelayRule> {
    if seed % 5 != 4 {
        return Vec::new();
    }
    let groups = 2 + (seed as usize / 5) % 2;
    let mut rules = Vec::new();
    for g in 0..groups {
        let members: Vec<usize> = (0..n).filter(|p| p % groups == g).collect();
        if !members.is_empty() {
            rules.push(DelayRule::isolate_with_allies(members, faulty.to_vec()));
        }
    }
    rules
}

/// Freeze-style delay rules for a shared-memory run: on every fifth seed,
/// the top half of the processes is frozen until the bottom half decided
/// (the Lemma 4.3 / 4.9 shape). The rules carry an expiry deadline because
/// shared-memory protocols busy-wait: when the bottom half *cannot* decide
/// alone (e.g. it is below a quorum), its polling keeps the run "live"
/// forever and only a finite delay bound lets the frozen half proceed.
fn sm_schedule_rules(n: usize, seed: u64) -> Vec<DelayRule> {
    if seed % 5 != 4 || n < 2 {
        return Vec::new();
    }
    let first: Vec<usize> = (0..n / 2).collect();
    (n / 2..n)
        .map(|p| {
            DelayRule::freeze_process(p, Until::AllDecided(first.clone())).expires_at(5_000)
        })
        .collect()
}

/// Inputs for a run: unanimous on even seeds (exercising the V2-style
/// premises), spread otherwise.
fn inputs_for(n: usize, seed: u64) -> Vec<u64> {
    if seed % 2 == 0 {
        vec![seed % 7; n]
    } else {
        (0..n).map(|p| (p as u64 + seed) % (n as u64)).collect()
    }
}

/// Validates one solvable cell with `seeds` randomized runs.
///
/// Returns `None` when the cell is not classified solvable, or when its
/// citation has no executable runner (the trivial fringes).
///
/// # Errors
///
/// Propagates simulator errors (event-limit exhaustion etc.) — these are
/// harness failures, distinct from specification violations, which are
/// *counted* in the returned [`CellValidation`].
pub fn validate_cell(
    model: Model,
    validity: ValidityCondition,
    n: usize,
    k: usize,
    t: usize,
    seeds: Range<u64>,
) -> Result<Option<CellValidation>, SimError> {
    validate_cell_with(model, validity, n, k, t, seeds, MetricsConfig::disabled(), |_| {})
}

/// [`validate_cell`] with per-run observability: collects kernel metrics
/// according to `metrics` and hands every run to `on_record` as a
/// [`RunRecord`] (in seed order), ready for JSONL emission.
///
/// # Errors
///
/// See [`validate_cell`].
#[allow(clippy::too_many_arguments)]
pub fn validate_cell_with(
    model: Model,
    validity: ValidityCondition,
    n: usize,
    k: usize,
    t: usize,
    seeds: Range<u64>,
    metrics: MetricsConfig,
    on_record: impl FnMut(RunRecord),
) -> Result<Option<CellValidation>, SimError> {
    let CellClass::Solvable(citation) = classify(model, validity, n, k, t) else {
        return Ok(None);
    };
    let Some(protocol) = protocol_name(citation.lemma) else {
        return Ok(None); // fringe citations have no single runner
    };
    let spec = ProblemSpec::new(n, k, t, validity).expect("domain-checked parameters");
    let setup = |seed| {
        let plan = if model.is_byzantine() {
            byz_plan(n, t, seed)
        } else {
            crash_plan(n, t, seed)
        };
        let rules = if model.is_shared_memory() {
            sm_schedule_rules(n, seed)
        } else {
            mp_schedule_rules(n, seed, &plan.faulty_set())
        };
        RunSetup {
            inputs: inputs_for(n, seed),
            plan,
            rules,
        }
    };
    let tally = sample(model, &spec, protocol, seeds, metrics, setup, on_record)?;
    Ok(Some(CellValidation {
        model,
        validity,
        n,
        k,
        t,
        protocol,
        runs: tally.runs,
        violations: tally.violations,
        first_violation: tally
            .first_violation
            .map(|(seed, msg)| format!("seed {seed}: {msg}")),
    }))
}

/// Maps a lemma citation to the protocol it names.
fn protocol_name(lemma: &str) -> Option<&'static str> {
    Some(match lemma {
        "Lemma 3.1" => "FloodMin",
        "Lemma 4.4" => "SIM(FloodMin)",
        "Lemma 3.7" | "Lemma 3.12" | "Lemma 3.13" => "Protocol A",
        "Lemma 3.8" => "Protocol B",
        "Lemma 4.6" => "SIM(Protocol B)",
        "Lemma 3.15" => "Protocol C",
        "Lemma 4.11" => "SIM(Protocol C)",
        "Lemma 3.16" => "Protocol D",
        "Lemma 4.13" => "SIM(Protocol D)",
        "Lemma 4.5" | "Lemma 4.10" => "Protocol E",
        "Lemma 4.7" | "Lemma 4.12" => "Protocol F",
        _ => return None,
    })
}

/// A cell of the sampled sweeps at a fixed `n`: `(model, validity, k, t)`.
pub(crate) type SweepCell = (Model, ValidityCondition, usize, usize);

/// Every cell the sampled sweeps visit at `n`, in the order their rows
/// and records are merged: each model, each validity, `k` in `2..n`, `t`
/// in `1..=n`.
pub(crate) fn atlas_cells(n: usize) -> impl Iterator<Item = SweepCell> {
    Model::ALL.into_iter().flat_map(move |model| {
        ValidityCondition::ALL
            .into_iter()
            .flat_map(move |validity| {
                (2..n).flat_map(move |k| (1..=n).map(move |t| (model, validity, k, t)))
            })
    })
}

/// Runs `run_cell` on every cell, one task per cell on a `threads`
/// worker pool. Each run is single-threaded and deterministic and the
/// rows and records are merged in cell order, so the result is the same
/// for every thread count.
///
/// # Panics
///
/// On a simulator failure, naming the cell.
pub(crate) fn sweep<T: Send>(
    threads: usize,
    cells: Vec<SweepCell>,
    run_cell: impl Fn(SweepCell, &mut Vec<RunRecord>) -> Result<Option<T>, SimError> + Sync,
) -> (Vec<T>, Vec<RunRecord>) {
    let results = engine::parallel_map(threads, cells, |_, cell| {
        let mut records = Vec::new();
        match run_cell(cell, &mut records) {
            Ok(row) => (row, records),
            Err(e) => {
                let (model, validity, k, t) = cell;
                panic!("simulator failure at {model} {validity} k={k} t={t}: {e}")
            }
        }
    });
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (row, cell_records) in results {
        rows.extend(row);
        records.extend(cell_records);
    }
    (rows, records)
}

/// Validates every solvable cell of the four atlases at `n` with `seeds`
/// runs each (the sweep of `empirical_atlas` and `reproduce_all`): the
/// rows and every run's record, in cell order, on `threads` workers.
///
/// # Panics
///
/// On a simulator failure, naming the cell.
pub fn validate_atlas(
    n: usize,
    seeds: u64,
    metrics: MetricsConfig,
    threads: usize,
) -> (Vec<CellValidation>, Vec<RunRecord>) {
    sweep(
        threads,
        atlas_cells(n).collect(),
        |(model, validity, k, t), records| {
            validate_cell_with(model, validity, n, k, t, 0..seeds, metrics, |r| {
                records.push(r)
            })
        },
    )
}

/// How one sampled run starts, apart from its seed: the inputs, the
/// fault plan and the delay rules.
pub(crate) struct RunSetup {
    pub(crate) inputs: Vec<u64>,
    pub(crate) plan: FaultPlan,
    pub(crate) rules: Vec<DelayRule>,
}

/// What [`sample`] counted over one cell.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) runs: usize,
    pub(crate) violations: usize,
    /// The seed and checker message of the first violating run.
    pub(crate) first_violation: Option<(u64, String)>,
}

/// The seed loop of both sampled sweeps: runs `protocol` once per seed on
/// the cell `model` and `spec` name, as `setup` configures the seed,
/// checks the run against `spec`, hands its record to `on_record` and
/// counts it.
pub(crate) fn sample(
    model: Model,
    spec: &ProblemSpec,
    protocol: &'static str,
    seeds: Range<u64>,
    metrics: MetricsConfig,
    mut setup: impl FnMut(u64) -> RunSetup,
    mut on_record: impl FnMut(RunRecord),
) -> Result<Tally, SimError> {
    let (n, k, t) = (spec.n(), spec.k(), spec.t());
    let mut tally = Tally::default();
    for seed in seeds {
        let RunSetup {
            inputs,
            plan,
            rules,
        } = setup(seed);
        // Byzantine models fill their faulty slots with strategies; in a
        // crash model the faulty slots run the protocol until they crash.
        let byzantine = if model.is_byzantine() {
            plan.faulty_set()
        } else {
            Vec::new()
        };
        let mut system = System::new(n)
            .seed(seed)
            .metrics(metrics)
            .fault_plan(plan)
            .delay_rules(rules);
        if protocol.starts_with("SIM(") {
            system = system.event_limit(SIM_EVENT_LIMIT);
        }
        let run = run_protocol(system, protocol, spec, &inputs, seed, &byzantine)?;
        let outcome = RunOutcome::of(&run, Some((spec, &inputs)));
        tally.runs += 1;
        if let Some(msg) = &outcome.violation {
            tally.violations += 1;
            tally
                .first_violation
                .get_or_insert_with(|| (seed, msg.clone()));
        }
        on_record(RunRecord::new(
            model,
            spec.validity(),
            n,
            k,
            t,
            seed,
            protocol,
            outcome,
            run.stats,
            run.metrics,
        ));
    }
    Ok(tally)
}

/// Event limit for SIMULATION runs (polling-heavy).
const SIM_EVENT_LIMIT: u64 = 20_000_000;

/// Runs a message-passing protocol on `system`.
fn mp<M: Clone>(
    system: System,
    factory: impl FnMut(ProcessId) -> DynMpProcess<M, u64>,
) -> Result<Outcome<u64>, SimError> {
    system.run_with::<MpSubstrate<M, u64>, _>(factory)
}

/// Runs a shared-memory protocol on `system`.
fn sm<Val: Clone>(
    system: System,
    factory: impl FnMut(ProcessId) -> DynSmProcess<Val, u64>,
) -> Result<Outcome<u64>, SimError> {
    system.run_with::<SmSubstrate<Val, u64>, _>(factory)
}

/// Runs `protocol` once on `system`, which the caller configured. The
/// name only picks the processes: the protocol on every slot, except a
/// Byzantine strategy on each slot in `byzantine`.
fn run_protocol(
    system: System,
    protocol: &str,
    spec: &ProblemSpec,
    inputs: &[u64],
    seed: u64,
    byzantine: &[usize],
) -> Result<Outcome<u64>, SimError> {
    let (n, t) = (spec.n(), spec.t());
    let byz = |p: usize| byzantine.contains(&p);
    match protocol {
        "FloodMin" => mp(system, |p| FloodMin::boxed(n, t, inputs[p])),
        "Protocol A" => mp(system, |p| -> DynMpProcess<u64, u64> {
            if !byz(p) {
                ProtocolA::boxed(n, t, inputs[p], DEFAULT_VALUE)
            } else if seed % 4 < 2 {
                // Alternate silent and group-mimicking adversaries.
                Box::new(Silent::new())
            } else {
                Box::new(GroupMimic::from_assignment(
                    (0..n).map(|q| (q as u64 + seed) % 5).collect(),
                ))
            }
        }),
        "Protocol B" => mp(system, |p| ProtocolB::boxed(n, t, inputs[p], DEFAULT_VALUE)),
        "Protocol C" => {
            let l = math::protocol_c_witness(n, spec.k(), t)
                .expect("cell classified solvable by Lemma 3.15");
            mp(system, |p| -> DynMpProcess<CMsg<u64>, u64> {
                if !byz(p) {
                    ProtocolC::boxed(n, t, l, inputs[p], DEFAULT_VALUE)
                } else if seed % 4 < 2 {
                    Box::new(Silent::new())
                } else {
                    Box::new(EchoSplitter::new(vec![seed, seed + 1]))
                }
            })
        }
        "Protocol D" => mp(system, |p| -> DynMpProcess<DMsg<u64>, u64> {
            if byz(p) {
                Box::new(Silent::new())
            } else {
                ProtocolD::boxed(n, t, inputs[p])
            }
        }),
        "Protocol E" => sm(system, |p| -> DynSmProcess<u64, u64> {
            if !byz(p) {
                ProtocolE::boxed(n, t, inputs[p], DEFAULT_VALUE)
            } else if seed % 4 < 2 {
                Box::new(SmSilent::new())
            } else {
                Box::new(Scribbler::new(vec![seed, seed + 1, seed + 2]))
            }
        }),
        "Protocol F" => sm(system, |p| -> DynSmProcess<u64, u64> {
            if !byz(p) {
                ProtocolF::boxed(n, t, inputs[p], DEFAULT_VALUE)
            } else if seed % 4 < 2 {
                Box::new(SmSilent::new())
            } else {
                Box::new(Scribbler::new(vec![seed, seed + 1]))
            }
        }),
        "SIM(FloodMin)" => sm(system, |p| {
            Simulated::boxed(n, FloodMin::new(n, t, inputs[p]))
        }),
        "SIM(Protocol B)" => sm(system, |p| {
            Simulated::boxed(n, ProtocolB::new(n, t, inputs[p], DEFAULT_VALUE))
        }),
        "SIM(Protocol C)" => {
            let l = math::protocol_c_witness(n, spec.k(), t)
                .expect("cell classified solvable by Lemma 4.11");
            sm(system, |p| -> DynSmProcess<SimSlot<CMsg<u64>>, u64> {
                if byz(p) {
                    Box::new(SmSilent::new())
                } else {
                    Simulated::boxed(n, ProtocolC::new(n, t, l, inputs[p], DEFAULT_VALUE))
                }
            })
        }
        "SIM(Protocol D)" => sm(system, |p| -> DynSmProcess<SimSlot<DMsg<u64>>, u64> {
            if byz(p) {
                Box::new(SmSilent::new())
            } else {
                Simulated::boxed(n, ProtocolD::new(n, t, inputs[p]))
            }
        }),
        other => unreachable!("no runner for {other}"),
    }
}

/// The command line of the two sampled sweeps, `empirical_atlas` and
/// `boundary_scan`: `[n] [seeds] [--json PATH] [--threads N]`.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// System size, at least 3.
    pub n: usize,
    /// Seeds (runs) per cell, at least 1.
    pub seeds: u64,
    /// Where to write one `RunRecord` JSON line per run.
    pub json: Option<String>,
    /// Worker threads.
    pub threads: usize,
}

impl SweepArgs {
    /// Reads the command line of `bin`, with defaults `n` and `seeds`.
    pub fn parse(bin: &'static str, n: usize, seeds: u64) -> Self {
        let mut args = Args::new(bin);
        let (mut n_arg, mut seeds_arg) = (None, None);
        let mut json = None;
        let mut threads = cli::available_threads();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => json = Some(args.value("--json")),
                "--threads" => threads = args.threads(),
                other => match other.parse() {
                    Ok(v) if n_arg.is_none() => n_arg = Some(v),
                    Ok(v) if seeds_arg.is_none() => seeds_arg = Some(v as u64),
                    _ => args.unknown(other),
                },
            }
        }
        let (n, seeds) = (n_arg.unwrap_or(n), seeds_arg.unwrap_or(seeds));
        if n < 3 {
            args.error(format_args!("n must be at least 3, got {n}"));
        }
        if seeds == 0 {
            args.error(format_args!("n = {n} with 0 seeds samples no run"));
        }
        SweepArgs {
            n,
            seeds,
            json,
            threads,
        }
    }

    /// Kernel metrics are collected when the runs are recorded.
    pub fn metrics(&self) -> MetricsConfig {
        if self.json.is_some() {
            MetricsConfig::enabled()
        } else {
            MetricsConfig::disabled()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floodmin_cell_validates_cleanly() {
        let v = validate_cell(Model::MpCrash, ValidityCondition::RV1, 8, 4, 3, 0..6)
            .unwrap()
            .expect("cell is solvable");
        assert_eq!(v.protocol, "FloodMin");
        assert_eq!(v.runs, 6);
        assert!(v.clean(), "{:?}", v.first_violation);
    }

    #[test]
    fn impossible_cell_returns_none() {
        let v = validate_cell(Model::MpCrash, ValidityCondition::RV1, 8, 4, 4, 0..2).unwrap();
        assert!(v.is_none());
    }

    #[test]
    fn protocol_e_cell_validates_at_huge_t() {
        let v = validate_cell(Model::SmCrash, ValidityCondition::RV2, 8, 2, 7, 0..6)
            .unwrap()
            .expect("Protocol E cell");
        assert_eq!(v.protocol, "Protocol E");
        assert!(v.clean(), "{:?}", v.first_violation);
    }

    #[test]
    fn byzantine_wv2_cell_validates() {
        // MP/Byz WV2 via Protocol A: n = 8, t = 2 (2t < n), need
        // (k-1)(n-2t) >= n-t: (k-1)*4 >= 6 -> k >= 3.
        let v = validate_cell(Model::MpByzantine, ValidityCondition::WV2, 8, 3, 2, 0..6)
            .unwrap()
            .expect("Protocol A byz cell");
        assert_eq!(v.protocol, "Protocol A");
        assert!(v.clean(), "{:?}", v.first_violation);
    }

    #[test]
    fn simulated_cell_validates() {
        let v = validate_cell(Model::SmCrash, ValidityCondition::RV1, 6, 3, 2, 0..3)
            .unwrap()
            .expect("SIM(FloodMin) cell");
        assert_eq!(v.protocol, "SIM(FloodMin)");
        assert!(v.clean(), "{:?}", v.first_violation);
    }
}
