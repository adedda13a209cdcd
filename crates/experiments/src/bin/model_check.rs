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
//! `--depth D`, `--preemptions P`, `--max-runs R`, `--max-states S`.
//! Parallelism: `--threads N` (`0`/`auto` = available parallelism, the
//! default; every verdict, counter and counterexample byte is identical
//! for every `N`). Reductions: `--symmetry` deduplicates on fingerprints
//! canonicalized modulo process-id permutation (off by default — on the
//! canonical all-distinct inputs it merges nothing and measurably loses;
//! see `PERFORMANCE.md`), `--no-symmetry` forces it off explicitly.
//! Ablation: `--no-por`, `--no-dedup`. Execution strategy:
//! `--fork-mode {fork|replay|auto}` selects how work items reach their
//! branch points — `fork` resumes from branch-point snapshots, `replay`
//! re-executes prefixes from the root (the oracle), `auto` (default)
//! forks under a byte budget with replay fallback; verdicts, counters and
//! counterexample bytes are identical for every mode. Observability:
//! `--progress N` (stderr counters every N runs), `--json PATH` (one
//! `RunRecord` per explored crash pattern, schema in `OBSERVABILITY.md`),
//! `--bench-json PATH` (machine-readable wall-clock/throughput summary of
//! the checked cells — the format recorded in `BENCH_model_check.json`).
//! Counterexamples are written to `--counterexample PATH` (default
//! `target/model_check/<cell>.schedule`) and replayed with `--replay`.
//!
//! Campaigns (`CAMPAIGNS.md`): `--campaign-dir PATH` turns an explicit
//! cell into a checkpointed, resumable on-disk job; `--checkpoint-every N`
//! sets the snapshot cadence in runs (default 250000), `--campaign-shards
//! N` the visited-store shard count (default 16, fixed at creation), and
//! `--resume` continues a killed campaign from its last durable
//! checkpoint — with bit-identical verdicts, counters, and counterexample
//! bytes to an uninterrupted run. On `--resume` the cell and bounds may
//! be omitted (the campaign manifest restores them).
//! `--pause-after-checkpoints N` stops cleanly after N checkpoints of
//! this invocation (the kill/resume test hook).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use kset_core::ValidityCondition;
use kset_experiments::campaign::{
    manifest::read_manifest, resume_campaign, run_campaign, CampaignOptions, CampaignOutcome,
};
use kset_experiments::checker::{
    check_cell_gauged, cross_validate, parse_adversary_model, parse_protocol, parse_validity,
    read_counterexample, parse_fork_mode, replay_fired, to_run_records, write_counterexample,
    AdversaryModel, CellVerdict, CheckerConfig, ForkMode, RunGauge, VisitedGauge,
};
use kset_experiments::exhaustive::QuorumProtocol;
use kset_experiments::record_sink::JsonlSink;

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
    symmetry: bool,
    no_symmetry: bool,
    progress: Option<u64>,
    threads: Option<usize>,
    fork: Option<ForkMode>,
    counterexample: Option<PathBuf>,
    replay: Option<PathBuf>,
    json: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    smoke: bool,
    campaign_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    campaign_shards: Option<usize>,
    resume: bool,
    pause_after_checkpoints: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        protocol: None,
        n: None,
        k: None,
        t: None,
        validity: None,
        model: None,
        byz_menu: None,
        byz_silence: false,
        loss_budget: None,
        inputs: None,
        depth: None,
        preemptions: None,
        max_runs: None,
        max_states: None,
        no_por: false,
        no_dedup: false,
        symmetry: false,
        no_symmetry: false,
        progress: None,
        threads: None,
        fork: None,
        counterexample: None,
        replay: None,
        json: None,
        bench_json: None,
        smoke: false,
        campaign_dir: None,
        checkpoint_every: None,
        campaign_shards: None,
        resume: false,
        pause_after_checkpoints: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--protocol" => {
                let raw = value("--protocol");
                parsed.protocol = Some(parse_protocol(&raw).unwrap_or_else(|| {
                    usage_error(&format!("--protocol wants floodmin|a|b|e|f, got {raw:?}"))
                }));
            }
            "--n" => parsed.n = Some(number("--n", value("--n"))),
            "--k" => parsed.k = Some(number("--k", value("--k"))),
            "--t" => parsed.t = Some(number("--t", value("--t"))),
            "--validity" => {
                let raw = value("--validity");
                parsed.validity = Some(parse_validity(&raw).unwrap_or_else(|| {
                    usage_error(&format!(
                        "--validity wants SV1|SV2|RV1|RV2|WV1|WV2, got {raw:?}"
                    ))
                }));
            }
            "--model" => {
                let raw = value("--model");
                parsed.model = Some(parse_adversary_model(&raw).unwrap_or_else(|| {
                    usage_error(&format!(
                        "--model wants mp_crash|sm_crash|mp_byz|sm_byz|mp_lossy, got {raw:?}"
                    ))
                }));
            }
            "--byz-menu" => {
                parsed.byz_menu = Some(parse_u64_list(&value("--byz-menu"), "--byz-menu"))
            }
            "--byz-silence" => parsed.byz_silence = true,
            "--loss-budget" => {
                parsed.loss_budget = Some(number("--loss-budget", value("--loss-budget")))
            }
            "--inputs" => parsed.inputs = Some(parse_u64_list(&value("--inputs"), "--inputs")),
            "--depth" => parsed.depth = Some(number("--depth", value("--depth"))),
            "--preemptions" => {
                parsed.preemptions = Some(number("--preemptions", value("--preemptions")))
            }
            "--max-runs" => parsed.max_runs = Some(number("--max-runs", value("--max-runs"))),
            "--max-states" => {
                parsed.max_states = Some(number("--max-states", value("--max-states")))
            }
            "--no-por" => parsed.no_por = true,
            "--no-dedup" => parsed.no_dedup = true,
            "--symmetry" => parsed.symmetry = true,
            "--no-symmetry" => parsed.no_symmetry = true,
            "--progress" => parsed.progress = Some(number("--progress", value("--progress"))),
            "--threads" => {
                let raw = value("--threads");
                parsed.threads =
                    Some(kset_experiments::engine::parse_threads(&raw).unwrap_or_else(|| {
                        usage_error(&format!("--threads wants a count, 0 or 'auto', got {raw:?}"))
                    }));
            }
            "--fork-mode" => {
                let raw = value("--fork-mode");
                parsed.fork = Some(parse_fork_mode(&raw).unwrap_or_else(|| {
                    usage_error(&format!("--fork-mode wants fork|replay|auto, got {raw:?}"))
                }));
            }
            "--counterexample" => parsed.counterexample = Some(value("--counterexample").into()),
            "--replay" => parsed.replay = Some(value("--replay").into()),
            "--json" => parsed.json = Some(value("--json").into()),
            "--bench-json" => parsed.bench_json = Some(value("--bench-json").into()),
            "--smoke" => parsed.smoke = true,
            "--campaign-dir" => parsed.campaign_dir = Some(value("--campaign-dir").into()),
            "--checkpoint-every" => {
                parsed.checkpoint_every =
                    Some(number("--checkpoint-every", value("--checkpoint-every")))
            }
            "--campaign-shards" => {
                parsed.campaign_shards =
                    Some(number("--campaign-shards", value("--campaign-shards")))
            }
            "--resume" => parsed.resume = true,
            "--pause-after-checkpoints" => {
                parsed.pause_after_checkpoints = Some(number(
                    "--pause-after-checkpoints",
                    value("--pause-after-checkpoints"),
                ))
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Reports a bad command line and exits 2: a usage error, not a panic.
fn usage_error(message: &str) -> ! {
    eprintln!("model_check: usage error: {message}");
    std::process::exit(2);
}

/// Parses a numeric flag value, or exits with a usage error.
fn number<T: std::str::FromStr>(flag: &str, raw: String) -> T {
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} wants a number, got {raw:?}")))
}

fn parse_u64_list(raw: &str, flag: &str) -> Vec<u64> {
    raw.split(',')
        .map(str::trim)
        .filter(|token| !token.is_empty())
        .map(|token| {
            token.parse().unwrap_or_else(|_| {
                usage_error(&format!(
                    "{flag} wants a comma-separated list of numbers, got {raw:?}"
                ))
            })
        })
        .collect()
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
    // Off by default; `--symmetry` opts in, `--no-symmetry` pins the
    // default explicitly (and wins if both are given).
    cfg.symmetry = args.symmetry && !args.no_symmetry;
    cfg.progress = args.progress;
    if let Some(threads) = args.threads {
        cfg.threads = threads;
    }
    if let Some(fork) = args.fork {
        cfg.fork = fork;
    }
}

/// One timed cell for the `--bench-json` summary.
struct BenchCell {
    label: String,
    model: String,
    verdict: &'static str,
    /// `true` when the exploration hit `max_runs`/`max_states` before
    /// exhausting the schedule space: a bounded "holds" is *not* a
    /// certification, and the JSON says so explicitly so the row cannot
    /// be misread as one.
    bounded: bool,
    patterns: usize,
    runs: u64,
    states: usize,
    tasks: u64,
    /// The in-memory visited store at its largest and the execution
    /// counters; `None` for campaigns, whose store occupancy is in the
    /// MANIFEST instead and whose execution spans resumes.
    gauges: Option<(VisitedGauge, RunGauge)>,
    wall_s: f64,
}

impl BenchCell {
    fn from_verdict(
        cfg: &CheckerConfig,
        verdict: &CellVerdict,
        gauges: Option<(VisitedGauge, RunGauge)>,
        wall_s: f64,
    ) -> Self {
        BenchCell {
            label: format!(
                "{} SC(k={},t={},{}) n={}",
                cfg.protocol.name(),
                cfg.k,
                cfg.t,
                cfg.validity,
                cfg.n
            ),
            model: cfg.adversary.to_string(),
            verdict: if verdict.holds() { "holds" } else { "violated" },
            bounded: !verdict.complete,
            patterns: verdict.patterns.len(),
            runs: verdict.runs,
            states: verdict.patterns.iter().map(|p| p.states).sum(),
            tasks: verdict.patterns.iter().map(|p| p.tasks).sum(),
            gauges,
            wall_s,
        }
    }
}

/// Writes the machine-readable timing summary. Hand-rolled JSON: every
/// value is a number or an escape-free string, and CI greps its exact
/// `"key": value` layout.
fn write_bench_json(
    path: &PathBuf,
    threads: usize,
    symmetry: bool,
    fork: ForkMode,
    cells: &[BenchCell],
) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let total_wall: f64 = cells.iter().map(|c| c.wall_s).sum();
    let total_runs: u64 = cells.iter().map(|c| c.runs).sum();
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"model_check_certification\",\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"symmetry\": {symmetry},\n"));
    out.push_str(&format!("  \"fork_mode\": \"{fork}\",\n"));
    out.push_str(&format!(
        "  \"host_logical_cpus\": {},\n",
        kset_experiments::engine::available_threads()
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let gauges = c.gauges.map_or(String::new(), |(visited, runs)| {
            format!(
                "\"visited_entries\": {}, \"visited_bytes\": {}, \"events_fired\": {}, \"truncated_runs\": {}, ",
                visited.entries, visited.bytes, runs.events_fired, runs.truncated_runs
            )
        });
        out.push_str(&format!(
            "    {{\"cell\": \"{}\", \"model\": \"{}\", \"verdict\": \"{}\", \"bounded\": {}, \"patterns\": {}, \"runs\": {}, \"states\": {}, \"tasks\": {}, {}\"wall_s\": {:.3}, \"runs_per_s\": {:.0}}}{}\n",
            c.label,
            c.model,
            c.verdict,
            c.bounded,
            c.patterns,
            c.runs,
            c.states,
            c.tasks,
            gauges,
            c.wall_s,
            c.runs as f64 / c.wall_s.max(1e-9),
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"total_runs\": {total_runs},\n"));
    out.push_str(&format!("  \"total_wall_s\": {total_wall:.3},\n"));
    out.push_str(&format!(
        "  \"runs_per_s\": {:.0}\n",
        total_runs as f64 / total_wall.max(1e-9)
    ));
    out.push_str("}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
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

/// Checks one cell, printing the verdict; writes + replays a
/// counterexample when violated; emits run records when asked. Returns
/// whether the outcome matched `expect_holds` (`None` = any outcome is
/// fine).
fn run_cell(
    cfg: &CheckerConfig,
    args: &Args,
    expect_holds: Option<bool>,
    bench: &mut Vec<BenchCell>,
) -> (bool, CellVerdict) {
    let started = Instant::now();
    let (verdict, visited, runs) = check_cell_gauged(cfg);
    let ok = report_cell(
        cfg,
        args,
        expect_holds,
        bench,
        &verdict,
        Some((visited, runs)),
        started.elapsed().as_secs_f64(),
    );
    (ok, verdict)
}

/// The reporting half of [`run_cell`], shared with campaign mode (which
/// produces its verdict through the checkpointed driver instead of
/// [`check_cell_gauged`] but emits the identical output from it).
fn report_cell(
    cfg: &CheckerConfig,
    args: &Args,
    expect_holds: Option<bool>,
    bench: &mut Vec<BenchCell>,
    verdict: &CellVerdict,
    gauges: Option<(VisitedGauge, RunGauge)>,
    wall_s: f64,
) -> bool {
    bench.push(BenchCell::from_verdict(cfg, verdict, gauges, wall_s));
    println!(
        "SC(k={}, t={}, {}) for {} at n={}: {}",
        cfg.k,
        cfg.t,
        cfg.validity,
        cfg.protocol.name(),
        cfg.n,
        verdict
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
        let mut sink = JsonlSink::create(json).expect("create --json sink");
        for record in to_run_records(cfg, verdict) {
            sink.write(&record).expect("write run record");
        }
        let written = sink.finish().expect("flush --json sink");
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
    ok
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
            usage_error(&format!("cannot read counterexample {}: {e}", path.display()))
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
    let report_bench = |bench: &[BenchCell], threads: usize, fork: ForkMode| {
        if let Some(path) = &args.bench_json {
            write_bench_json(path, threads, args.symmetry && !args.no_symmetry, fork, bench)
                .expect("write --bench-json");
            println!("  (timing summary written to {})", path.display());
        }
    };

    if let Some(dir) = &args.campaign_dir {
        // Campaign mode: an explicit cell driven as a checkpointed,
        // resumable on-disk job (see CAMPAIGNS.md). On --resume the cell
        // may be omitted; the campaign manifest restores it.
        let cfg = if let Some(protocol) = args.protocol {
            let n = args.n.unwrap_or_else(|| usage_error("--campaign-dir needs --n"));
            let k = args.k.unwrap_or_else(|| usage_error("--campaign-dir needs --k"));
            let t = args.t.unwrap_or_else(|| usage_error("--campaign-dir needs --t"));
            let validity = args
                .validity
                .unwrap_or_else(|| usage_error("--campaign-dir needs --validity"));
            let mut cfg = CheckerConfig::new(protocol, n, k, t, validity);
            apply_adversary(&mut cfg, &args);
            apply_bounds(&mut cfg, &args);
            cfg
        } else if args.resume {
            let manifest = read_manifest(dir).unwrap_or_else(|e| {
                eprintln!("model_check: cannot resume: {e}");
                std::process::exit(2);
            });
            let mut cfg = manifest.checker_config();
            // Contract-covered knobs may still be set; the cell and
            // bounds come from the manifest.
            cfg.progress = args.progress;
            if let Some(threads) = args.threads {
                cfg.threads = threads;
            }
            if let Some(fork) = args.fork {
                cfg.fork = fork;
            }
            cfg
        } else {
            eprintln!(
                "model_check: --campaign-dir needs an explicit cell \
                 (--protocol/--n/--k/--t/--validity), or --resume"
            );
            std::process::exit(2);
        };
        let opts = CampaignOptions {
            shards: args.campaign_shards.unwrap_or(CampaignOptions::default().shards),
            checkpoint_every: args
                .checkpoint_every
                .unwrap_or(CampaignOptions::default().checkpoint_every),
            pause_after_checkpoints: args.pause_after_checkpoints,
        };
        let started = Instant::now();
        let outcome = if args.resume {
            resume_campaign(&cfg, dir, &opts)
        } else {
            run_campaign(&cfg, dir, &opts)
        }
        .unwrap_or_else(|e| {
            eprintln!("model_check: campaign error: {e}");
            std::process::exit(2);
        });
        return match outcome {
            CampaignOutcome::Paused { checkpoints, runs } => {
                println!(
                    "campaign paused at checkpoint {checkpoints} with {runs} run(s) recorded; \
                     continue with --resume"
                );
                ExitCode::SUCCESS
            }
            CampaignOutcome::Finished(verdict) => {
                let ok = report_cell(
                    &cfg,
                    &args,
                    None,
                    &mut bench,
                    &verdict,
                    None,
                    started.elapsed().as_secs_f64(),
                );
                if let Ok(manifest) = read_manifest(dir) {
                    println!(
                        "  campaign manifest: {} (status {}, {} checkpoint(s), {} resume(s))",
                        dir.join("MANIFEST").display(),
                        manifest.status,
                        manifest.checkpoints,
                        manifest.resumes,
                    );
                }
                report_bench(&bench, cfg.threads, cfg.fork);
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
        };
    }

    if let Some(protocol) = args.protocol {
        // Explicit single-cell mode.
        let n = args.n.unwrap_or_else(|| usage_error("--protocol needs --n"));
        let k = args.k.unwrap_or_else(|| usage_error("--protocol needs --k"));
        let t = args.t.unwrap_or_else(|| usage_error("--protocol needs --t"));
        let validity = args
            .validity
            .unwrap_or_else(|| usage_error("--protocol needs --validity"));
        let mut cfg = CheckerConfig::new(protocol, n, k, t, validity);
        apply_adversary(&mut cfg, &args);
        apply_bounds(&mut cfg, &args);
        let (ok, _) = run_cell(&cfg, &args, None, &mut bench);
        report_bench(&bench, cfg.threads, cfg.fork);
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    // Certification runs: a solvable crash cell verified exhaustively and
    // cross-validated, a just-outside crash cell where a violating
    // schedule must exist, be shrunk, and replay deterministically, then
    // one cell on each side of a Byzantine frontier (MP and SM) with the
    // replay of the emitted deviation script as the oracle.
    let (n_holds, n_viol) = if args.smoke { (3, 3) } else { (4, 4) };
    let mut ok = true;

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
    let (cell_ok, verdict) = run_cell(&holds_cfg, &args, Some(true), &mut bench);
    ok &= cell_ok;
    ok &= run_cross_validation(&holds_cfg, &verdict);

    println!("\n[2/4] unsolvable crash cell (FloodMin, t >= k — outside Lemma 3.1):");
    let mut viol_cfg = CheckerConfig::new(
        QuorumProtocol::FloodMin,
        n_viol,
        if args.smoke { 1 } else { 2 },
        if args.smoke { 1 } else { 2 },
        ValidityCondition::RV1,
    );
    apply_bounds(&mut viol_cfg, &args);
    ok &= run_cell(&viol_cfg, &args, Some(false), &mut bench).0;

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
    ok &= run_cell(&mp_byz_cfg, &args, Some(false), &mut bench).0;

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
    ok &= run_cell(&sm_byz_cfg, &args, Some(true), &mut bench).0;
    report_bench(&bench, sm_byz_cfg.threads, sm_byz_cfg.fork);

    println!(
        "\n{}",
        if ok {
            "model_check: all certifications passed"
        } else {
            "model_check: FAILURES (see above)"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
