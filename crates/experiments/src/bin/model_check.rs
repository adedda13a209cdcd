//! Systematic schedule-space model checking of the real simulator.
//!
//! Unlike `exhaustive_check` (analytic outcome enumeration) and
//! `boundary_scan` (seed sampling), this binary drives the actual
//! `MpSystem`/`SmSystem` kernels through *every* scheduler decision at
//! small `n`, with partial-order reduction and state-digest deduplication
//! (see `kset_experiments::checker`).
//!
//! Usage:
//!
//! ```text
//! model_check                      # the default small-n certification run
//! model_check --smoke              # bounded CI variant (seconds)
//! model_check --protocol f --n 3 --k 3 --t 1 --validity SV2
//! model_check --replay PATH        # re-execute a saved counterexample
//! ```
//!
//! Flags for explicit cells: `--protocol {floodmin|a|b|e|f}`, `--n N`,
//! `--k K`, `--t T`, `--validity {SV1|SV2|RV1|RV2|WV1|WV2}`. Adversary
//! (defaults to the substrate's crash model): `--model
//! {mp_crash|sm_crash|mp_byz|sm_byz|mp_lossy}`, `--byz-menu v1,v2,...`
//! (the forgeable-value menu of each Byzantine slot), `--byz-silence`
//! (Byzantine slots may also withhold deliveries), `--loss-budget N`
//! (drops per run under `mp_lossy`), `--inputs v0,v1,...` (explicit
//! proposal vector, e.g. an all-equal vector for validity frontiers).
//! Bounds:
//! `--depth D`, `--preemptions P`, `--max-runs R` (each fault pattern
//! stops at the first wave barrier past `R` runs, so it may overshoot by
//! up to a wave of task budgets; the verdict line prints the runs done),
//! `--max-states S` (past `S` entries a task stops memoizing: slower,
//! never bounded). A cell that held in every run explored, but that a
//! bound cut short, reads `BOUNDED by <bound> over …`, not `HOLDS`.
//!
//! Exit status: 0 when every cell came out as expected (an explicit
//! cell: held, or was violated by a counterexample that replays), 1 on a
//! failure, 2 on a usage or configuration error, 3 when every cell came
//! out as expected but at least one only within a bound (`BOUNDED`: not a
//! certification).
//! Parallelism: `--threads N` (`0`/`auto` = available parallelism, the
//! default; every verdict, counter and counterexample byte is identical
//! for every `N`). Symmetry reduction has no flag: a cell whose inputs
//! repeat a value deduplicates on fingerprints canonicalized modulo
//! process-id permutation, a cell with all-distinct inputs on plain ones
//! (see `PERFORMANCE.md`). Ablation: `--no-por`, `--no-dedup`. Execution
//! strategy: `--fork-mode {auto|replay}` selects how work items reach
//! their branch points — `auto` (default) resumes from branch-point
//! snapshots under a byte budget with replay from the root as the
//! fallback, `replay` re-executes every prefix from the root on the same
//! explorer (the cross-check); verdicts, counters and counterexample
//! bytes are identical for both. Observability:
//! `--progress N` (a stderr counter line each time a fault pattern's runs
//! pass a multiple of N, N ≥ 1), `--json PATH` (one `RunRecord` per explored
//! crash pattern, schema in `OBSERVABILITY.md`), `--bench-json PATH`
//! (machine-readable wall-clock/throughput summary of the checked cells,
//! with the digest mode each ran under — the format recorded in
//! `BENCH_model_check.json`).
//! Counterexamples are written to `--counterexample PATH` (default
//! `target/model_check/<cell>.schedule`) and replayed with `--replay`.
//!
//! Campaigns (`CAMPAIGNS.md`): `--campaign-dir PATH` turns an explicit
//! cell into a checkpointed, resumable on-disk job; `--checkpoint-every N`
//! sets the snapshot cadence in runs (default 250000), and
//! `--resume` continues a killed campaign from its last durable
//! checkpoint — with bit-identical verdicts, counters, and counterexample
//! bytes to an uninterrupted run. On `--resume` the cell and bounds may
//! be omitted (the campaign manifest restores them).
//! `--pause-after-checkpoints N` stops cleanly after N checkpoints of
//! this invocation (the kill/resume test hook).

use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use kset_core::cli::{self, usage_error};
use kset_core::ValidityCondition;
use kset_experiments::campaign::{
    manifest::read_manifest, resume_campaign_gauged, run_campaign_gauged, CampaignOptions,
    CampaignOutcome,
};
use kset_experiments::checker::{
    check_cell_gauged, cross_validate, parse_adversary_model, parse_protocol, parse_validity,
    read_counterexample, parse_fork_mode, replay_fired, to_run_records, write_counterexample,
    bench_report, AdversaryModel, BenchCell, CellVerdict, CheckerConfig, ForkMode,
};
use kset_experiments::exhaustive::QuorumProtocol;
use kset_experiments::record_sink::write_jsonl;

/// The binary's name in usage errors.
const BIN: &str = "model_check";

/// Exit status of a run whose cells all came out as expected, at least
/// one of them only within a bound (`BOUNDED`): distinct from success
/// (0), failure (1) and usage errors (2), because a bounded "holds" is
/// not a certification.
const EXIT_BOUNDED: u8 = 3;

/// What the checked cells add up to.
#[derive(Clone, Copy)]
struct Status {
    /// Every cell came out as expected.
    ok: bool,
    /// Some cell held only within a bound.
    bounded: bool,
}

impl Status {
    const OK: Status = Status {
        ok: true,
        bounded: false,
    };

    fn and(self, other: Status) -> Status {
        Status {
            ok: self.ok && other.ok,
            bounded: self.bounded || other.bounded,
        }
    }

    fn exit_code(self) -> ExitCode {
        match self {
            Status { ok: false, .. } => ExitCode::FAILURE,
            Status { bounded: true, .. } => ExitCode::from(EXIT_BOUNDED),
            Status { .. } => ExitCode::SUCCESS,
        }
    }
}

#[derive(Default)]
struct Args {
    protocol: Option<QuorumProtocol>,
    n: Option<usize>,
    k: Option<usize>,
    t: Option<usize>,
    validity: Option<ValidityCondition>,
    model: Option<AdversaryModel>,
    byz_menu: Option<Vec<u64>>,
    byz_silence: bool,
    loss_budget: Option<u64>,
    inputs: Option<Vec<u64>>,
    depth: Option<usize>,
    preemptions: Option<usize>,
    max_runs: Option<u64>,
    max_states: Option<usize>,
    no_por: bool,
    no_dedup: bool,
    progress: Option<NonZeroU64>,
    threads: Option<usize>,
    fork: Option<ForkMode>,
    counterexample: Option<PathBuf>,
    replay: Option<PathBuf>,
    json: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    smoke: bool,
    campaign_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: bool,
    pause_after_checkpoints: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args::default();
    let mut args = cli::Args::new(BIN);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--protocol" => {
                let wants = "floodmin|a|b|e|f";
                parsed.protocol = Some(args.parsed("--protocol", wants, parse_protocol))
            }
            "--n" => parsed.n = Some(args.number("--n")),
            "--k" => parsed.k = Some(args.number("--k")),
            "--t" => parsed.t = Some(args.number("--t")),
            "--validity" => {
                let wants = "SV1|SV2|RV1|RV2|WV1|WV2";
                parsed.validity = Some(args.parsed("--validity", wants, parse_validity))
            }
            "--model" => {
                let wants = "mp_crash|sm_crash|mp_byz|sm_byz|mp_lossy";
                parsed.model = Some(args.parsed("--model", wants, parse_adversary_model))
            }
            "--byz-menu" => parsed.byz_menu = Some(u64_list(&mut args, "--byz-menu")),
            "--byz-silence" => parsed.byz_silence = true,
            "--loss-budget" => parsed.loss_budget = Some(args.number("--loss-budget")),
            "--inputs" => parsed.inputs = Some(u64_list(&mut args, "--inputs")),
            "--depth" => parsed.depth = Some(args.number("--depth")),
            "--preemptions" => parsed.preemptions = Some(args.number("--preemptions")),
            "--max-runs" => parsed.max_runs = Some(args.number("--max-runs")),
            "--max-states" => parsed.max_states = Some(args.number("--max-states")),
            "--no-por" => parsed.no_por = true,
            "--no-dedup" => parsed.no_dedup = true,
            "--progress" => parsed.progress = NonZeroU64::new(args.positive("--progress")),
            "--threads" => parsed.threads = Some(args.threads()),
            "--fork-mode" => {
                parsed.fork = Some(args.parsed("--fork-mode", "auto|replay", parse_fork_mode))
            }
            "--counterexample" => {
                parsed.counterexample = Some(args.value("--counterexample").into())
            }
            "--replay" => parsed.replay = Some(args.value("--replay").into()),
            "--json" => parsed.json = Some(args.value("--json").into()),
            "--bench-json" => parsed.bench_json = Some(args.value("--bench-json").into()),
            "--smoke" => parsed.smoke = true,
            "--campaign-dir" => parsed.campaign_dir = Some(args.value("--campaign-dir").into()),
            "--checkpoint-every" => {
                parsed.checkpoint_every = Some(args.number("--checkpoint-every"))
            }
            "--resume" => parsed.resume = true,
            "--pause-after-checkpoints" => {
                parsed.pause_after_checkpoints = Some(args.number("--pause-after-checkpoints"))
            }
            other => args.unknown(other),
        }
    }
    parsed
}

/// The value after `flag` as a comma-separated list of numbers.
fn u64_list(args: &mut cli::Args, flag: &str) -> Vec<u64> {
    args.parsed(flag, "a comma-separated list of numbers", |raw| {
        let tokens = raw.split(',').map(str::trim).filter(|token| !token.is_empty());
        tokens.map(|token| token.parse().ok()).collect()
    })
}

/// Applies the `--model`/`--byz-*`/`--loss-budget`/`--inputs` flags on
/// top of the substrate-default crash adversary, then rejects
/// inconsistent combinations (wrong substrate, Byzantine knobs under a
/// crash model, ...) before any exploration starts.
fn apply_adversary(cfg: &mut CheckerConfig, args: &Args) {
    if let Some(model) = args.model {
        cfg.adversary = model;
    }
    if let Some(menu) = &args.byz_menu {
        cfg.byz_menu = menu.clone();
    }
    if args.byz_silence {
        cfg.byz_silence = true;
    }
    if let Some(budget) = args.loss_budget {
        cfg.loss_budget = budget;
    }
    if let Some(inputs) = &args.inputs {
        cfg.inputs = Some(inputs.clone());
    }
    if let Err(message) = cfg.validate() {
        eprintln!("model_check: invalid configuration: {message}");
        std::process::exit(2);
    }
}

fn apply_bounds(cfg: &mut CheckerConfig, args: &Args) {
    if let Some(d) = args.depth {
        cfg.depth = d;
    }
    cfg.preemptions = args.preemptions.or(cfg.preemptions);
    if let Some(r) = args.max_runs {
        cfg.max_runs = r;
    }
    if let Some(s) = args.max_states {
        cfg.max_states = s;
    }
    cfg.por = !args.no_por;
    cfg.dedup = !args.no_dedup;
    apply_execution(cfg, args);
}

/// Applies `--progress`, `--threads` and `--fork-mode`, which a resumed
/// campaign may change: they reach no verdict or counter.
fn apply_execution(cfg: &mut CheckerConfig, args: &Args) {
    cfg.progress = args.progress;
    if let Some(threads) = args.threads {
        cfg.threads = threads;
    }
    if let Some(fork) = args.fork {
        cfg.fork = fork;
    }
}

fn default_counterexample_path(cfg: &CheckerConfig) -> PathBuf {
    // The lossy adversary shares `Model::MpCrash` for the figure-region
    // lookup but must not collide with crash schedules on disk; the
    // crash and Byzantine adversaries keep the historical region slugs.
    let slug: &str = if cfg.adversary.is_lossy() {
        cfg.adversary.slug()
    } else {
        kset_experiments::record_sink::model_slug(cfg.model())
    };
    PathBuf::from("target/model_check").join(format!(
        "{}_{}_n{}k{}t{}_{}.schedule",
        slug,
        cfg.validity,
        cfg.n,
        cfg.k,
        cfg.t,
        cfg.protocol.name().replace(' ', ""),
    ))
}

/// Checks one cell — in memory, or as the campaign in `campaign` — and
/// reports it: prints the verdict, writes and replays a counterexample
/// when violated, emits run records when asked, and adds the cell's bench
/// row. Returns whether the outcome matched `expect_holds` (`None` = any
/// outcome is fine) and was bounded, and the verdict, `None` when the
/// campaign paused.
fn run_cell(
    cfg: &CheckerConfig,
    args: &Args,
    expect_holds: Option<bool>,
    bench: &mut Vec<BenchCell>,
    campaign: Option<(&Path, &CampaignOptions)>,
) -> (Status, Option<CellVerdict>) {
    let started = Instant::now();
    let (verdict, visited, runs) = match campaign {
        None => check_cell_gauged(cfg),
        Some((dir, opts)) => {
            let outcome = if args.resume {
                resume_campaign_gauged(cfg, dir, opts)
            } else {
                run_campaign_gauged(cfg, dir, opts)
            }
            .unwrap_or_else(|e| {
                eprintln!("model_check: campaign error: {e}");
                std::process::exit(2);
            });
            match outcome {
                (CampaignOutcome::Paused { checkpoints, runs }, _, _) => {
                    println!(
                        "campaign paused at checkpoint {checkpoints} with {runs} run(s) recorded; \
                         continue with --resume"
                    );
                    return (Status::OK, None);
                }
                (CampaignOutcome::Finished(verdict), visited, runs) => (*verdict, visited, runs),
            }
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    bench.push(BenchCell::of(cfg, &verdict, visited, runs, wall_s));
    println!(
        "SC(k={}, t={}, {}) for {} at n={}: {}",
        cfg.k,
        cfg.t,
        cfg.validity,
        cfg.protocol.name(),
        cfg.n,
        verdict.line(cfg)
    );
    let mut ok = true;
    if let Some(ce) = &verdict.counterexample {
        let path = args
            .counterexample
            .clone()
            .unwrap_or_else(|| default_counterexample_path(cfg));
        write_counterexample(&path, cfg, ce).expect("write counterexample");
        let saved = read_counterexample(&path).expect("re-read counterexample");
        let (violation, divergences) = replay_fired(&saved);
        println!(
            "  counterexample written to {} ({} choices, {} events); replay: {} with {} divergence(s)",
            path.display(),
            ce.choices.len(),
            ce.fired.len(),
            if violation.is_some() {
                "still violates"
            } else {
                "NO LONGER VIOLATES"
            },
            divergences,
        );
        if violation.is_none() || divergences != 0 {
            ok = false;
        }
    }
    if let Some(json) = &args.json {
        let records = to_run_records(cfg, &verdict);
        let written = write_jsonl(json, &records).expect("write --json records");
        println!("  ({written} run records written to {})", json.display());
    }
    if let Some(expected) = expect_holds {
        if verdict.holds() != expected {
            println!(
                "  UNEXPECTED: this cell should {}",
                if expected { "hold" } else { "be violated" }
            );
            ok = false;
        }
    }
    if let Some((dir, _)) = campaign {
        if let Ok(manifest) = read_manifest(dir) {
            println!(
                "  campaign manifest: {} (status {}, {} checkpoint(s), {} resume(s))",
                dir.join("MANIFEST").display(),
                manifest.status,
                manifest.checkpoints,
                manifest.resumes,
            );
        }
    }
    let bounded = verdict.bounded();
    (Status { ok, bounded }, Some(verdict))
}

/// Cross-validates the checker against the analytic enumerator on a cell
/// where both are complete; prints and returns agreement.
fn run_cross_validation(cfg: &CheckerConfig, verdict: &CellVerdict) -> bool {
    let disagreements = cross_validate(cfg, verdict);
    if disagreements.is_empty() {
        println!(
            "  cross-validation vs exhaustive enumeration: agree on every crash pattern"
        );
        true
    } else {
        for d in &disagreements {
            println!("  DISAGREEMENT: {d}");
        }
        false
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let saved = read_counterexample(path).unwrap_or_else(|e| {
            usage_error(BIN, format!("cannot read counterexample {}: {e}", path.display()))
        });
        let (violation, divergences) = replay_fired(&saved);
        println!(
            "replayed {} ({} at n={}, k={}, t={}, {}; model={}; crashed={:?}; byzantine={:?}): {} divergence(s)",
            path.display(),
            saved.protocol.name(),
            saved.n,
            saved.k,
            saved.t,
            saved.validity,
            saved.adversary,
            saved.counterexample.crashed,
            saved.counterexample.byzantine,
            divergences,
        );
        return match violation {
            Some(message) => {
                println!("violation reproduced: {message}");
                ExitCode::SUCCESS
            }
            None => {
                println!("violation NOT reproduced — protocol or kernel changed since recording");
                ExitCode::FAILURE
            }
        };
    }

    let mut bench: Vec<BenchCell> = Vec::new();
    let report_bench = |cells: &[BenchCell], threads: usize, fork: ForkMode| {
        if let Some(path) = &args.bench_json {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).expect("create --bench-json directory");
            }
            let report = bench_report(threads, fork, cells) + "\n";
            std::fs::write(path, report).expect("write --bench-json");
            println!("  (timing summary written to {})", path.display());
        }
    };

    let explicit = args.protocol.map(|protocol| {
        let n = args.n.unwrap_or_else(|| usage_error(BIN, "--protocol needs --n"));
        let k = args.k.unwrap_or_else(|| usage_error(BIN, "--protocol needs --k"));
        let t = args.t.unwrap_or_else(|| usage_error(BIN, "--protocol needs --t"));
        let validity = args
            .validity
            .unwrap_or_else(|| usage_error(BIN, "--protocol needs --validity"));
        let mut cfg = CheckerConfig::new(protocol, n, k, t, validity);
        apply_adversary(&mut cfg, &args);
        apply_bounds(&mut cfg, &args);
        cfg
    });

    if let Some(dir) = &args.campaign_dir {
        // Campaign mode: an explicit cell driven as a checkpointed,
        // resumable on-disk job (see CAMPAIGNS.md). On --resume the cell
        // may be omitted; the campaign manifest restores it.
        let cfg = if let Some(cfg) = explicit {
            cfg
        } else if args.resume {
            let manifest = read_manifest(dir).unwrap_or_else(|e| {
                eprintln!("model_check: cannot resume: {e}");
                std::process::exit(2);
            });
            let mut cfg = manifest.checker_config();
            // The cell and bounds come from the manifest.
            apply_execution(&mut cfg, &args);
            cfg
        } else {
            eprintln!(
                "model_check: --campaign-dir needs an explicit cell \
                 (--protocol/--n/--k/--t/--validity), or --resume"
            );
            std::process::exit(2);
        };
        let opts = CampaignOptions {
            checkpoint_every: args
                .checkpoint_every
                .unwrap_or(CampaignOptions::default().checkpoint_every),
            pause_after_checkpoints: args.pause_after_checkpoints,
        };
        let (status, verdict) = run_cell(&cfg, &args, None, &mut bench, Some((dir, &opts)));
        if verdict.is_some() {
            report_bench(&bench, cfg.threads, cfg.fork);
        }
        return status.exit_code();
    }

    if let Some(cfg) = explicit {
        // Explicit single-cell mode.
        let (status, _) = run_cell(&cfg, &args, None, &mut bench, None);
        report_bench(&bench, cfg.threads, cfg.fork);
        return status.exit_code();
    }

    // Certification runs: a solvable crash cell verified exhaustively and
    // cross-validated, a just-outside crash cell where a violating
    // schedule must exist, be shrunk, and replay deterministically, then
    // one cell on each side of a Byzantine frontier (MP and SM) with the
    // replay of the emitted deviation script as the oracle.
    let (n_holds, n_viol) = if args.smoke { (3, 3) } else { (4, 4) };

    println!("=== model_check: systematic schedule exploration of the real kernel ===\n");
    println!("[1/4] solvable crash cell (FloodMin, t < k — Lemma 3.1):");
    let mut holds_cfg = CheckerConfig::new(
        QuorumProtocol::FloodMin,
        n_holds,
        2,
        1,
        ValidityCondition::RV1,
    );
    apply_bounds(&mut holds_cfg, &args);
    let (mut status, verdict) = run_cell(&holds_cfg, &args, Some(true), &mut bench, None);
    let verdict = verdict.expect("an in-memory check never pauses");
    status.ok &= run_cross_validation(&holds_cfg, &verdict);

    println!("\n[2/4] unsolvable crash cell (FloodMin, t >= k — outside Lemma 3.1):");
    let mut viol_cfg = CheckerConfig::new(
        QuorumProtocol::FloodMin,
        n_viol,
        if args.smoke { 1 } else { 2 },
        if args.smoke { 1 } else { 2 },
        ValidityCondition::RV1,
    );
    apply_bounds(&mut viol_cfg, &args);
    status = status.and(run_cell(&viol_cfg, &args, Some(false), &mut bench, None).0);

    // One Byzantine slot with a zero-forging menu against RV1 on
    // all-equal inputs: every correct process must decide the proposed 1,
    // but a forged 0 drags FloodMin's minimum down — SC(1-set consensus,
    // RV1) is violated for any t >= 1 in MP/Byz (Lemma 3.10).
    println!("\n[3/4] unsolvable Byzantine MP cell (FloodMin under mp_byz — Lemma 3.10):");
    let mut mp_byz_cfg =
        CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    mp_byz_cfg.adversary = AdversaryModel::MpByz;
    mp_byz_cfg.byz_menu = vec![0];
    mp_byz_cfg.byz_silence = true;
    mp_byz_cfg.inputs = Some(vec![1, 1, 1]);
    apply_bounds(&mut mp_byz_cfg, &args);
    status = status.and(run_cell(&mp_byz_cfg, &args, Some(false), &mut bench, None).0);

    // Protocol E under weak validity tolerates any number of Byzantine
    // registers for k >= 2 (Lemma 4.10): WV2 only binds when *all*
    // processes are correct, so forged reads cannot manufacture a
    // violation.
    println!("\n[4/4] solvable Byzantine SM cell (Protocol E under sm_byz — Lemma 4.10):");
    let mut sm_byz_cfg =
        CheckerConfig::new(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::WV2);
    sm_byz_cfg.adversary = AdversaryModel::SmByz;
    sm_byz_cfg.byz_menu = vec![0];
    sm_byz_cfg.inputs = Some(vec![1, 1, 1]);
    apply_bounds(&mut sm_byz_cfg, &args);
    status = status.and(run_cell(&sm_byz_cfg, &args, Some(true), &mut bench, None).0);
    report_bench(&bench, sm_byz_cfg.threads, sm_byz_cfg.fork);

    println!(
        "\n{}",
        match status {
            Status { ok: false, .. } => "model_check: FAILURES (see above)",
            Status { bounded: true, .. } =>
                "model_check: BOUNDED — every cell came out as expected, but a bound cut \
                 the exploration short: not a certification",
            Status { .. } => "model_check: all certifications passed",
        }
    );
    status.exit_code()
}
