//! One-shot reproduction driver: Figure 1, all four atlases at `n = 64`,
//! the empirical validation pass, and the impossibility re-enactments.
//!
//! Usage: `reproduce_all [--empirical-n N] [--seeds S] [--json PATH]
//! [--threads T]` (defaults: N = 8, S = 5, T = available parallelism; a
//! bad command line exits 2).
//! Atlas CSVs are written to `target/figures/`. With `--json`, every
//! empirical run is additionally emitted as one `RunRecord` JSON line
//! (with kernel metrics enabled) to `PATH` — see `OBSERVABILITY.md` for
//! the schema — and a per-protocol metrics rollup is printed after the
//! validation table. Empirical cells run on a work-stealing pool; every
//! table, artifact and record file is merged in cell order and therefore
//! byte-identical for every thread count.

use std::fs;
use std::io::Write as _;

use kset_core::cli::{available_threads, Args};
use kset_core::json;
use kset_core::lattice::Lattice;
use kset_experiments::cells::validate_atlas;
use kset_experiments::record_sink::{model_slug, write_jsonl};
use kset_experiments::{counterexamples, report};
use kset_regions::{render, Atlas, Model};
use kset_sim::MetricsConfig;

fn main() {
    let mut empirical_n = 8usize;
    let mut seeds = 5u64;
    let mut json_path: Option<String> = None;
    let mut threads = available_threads();
    let mut args = Args::new("reproduce_all");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--empirical-n" => empirical_n = args.number("--empirical-n"),
            "--seeds" => seeds = args.number("--seeds"),
            "--json" => json_path = Some(args.value("--json")),
            "--threads" => threads = args.threads(),
            other => args.unknown(other),
        }
    }
    if empirical_n < 3 {
        args.error(format_args!("--empirical-n must be at least 3, got {empirical_n}"));
    }
    if seeds == 0 {
        args.error("--seeds must be at least 1: 0 seeds sample no run");
    }

    // Figure 1.
    println!("==================== FIGURE 1 ====================");
    assert_eq!(
        Lattice::derive(),
        Lattice::paper(),
        "derived lattice must equal the paper's Figure 1"
    );
    print!("{}", Lattice::paper().render_ascii());
    println!("derived == paper: OK\n");

    // Figures 2, 4, 5, 6 at the paper's n = 64.
    fs::create_dir_all("target/figures").expect("create target/figures");
    for model in Model::ALL {
        println!(
            "==================== FIGURE {} ({model}) ====================",
            model.figure()
        );
        let atlas = Atlas::compute(model, 64);
        print!("{}", render::atlas_ascii(&atlas));
        let path = format!(
            "target/figures/fig{}_{}.csv",
            model.figure(),
            model_slug(model)
        );
        let mut f = fs::File::create(&path).expect("create csv");
        f.write_all(render::atlas_csv(&atlas).as_bytes())
            .expect("write csv");
        println!("(csv written to {path})\n");
    }

    // Empirical validation. With --json, collect kernel metrics and write
    // one RunRecord per run; the metrics make each run ~equally fast but
    // carry per-process attribution, so they are opt-in.
    println!("==================== EMPIRICAL VALIDATION ====================");
    let metrics = if json_path.is_some() {
        MetricsConfig::enabled()
    } else {
        MetricsConfig::disabled()
    };
    let (rows, records) = validate_atlas(empirical_n, seeds, metrics, threads);
    print!("{}", report::validation_table(&rows));
    let total_runs: usize = rows.iter().map(|r| r.runs).sum();
    assert_eq!(
        records.len(),
        total_runs,
        "one record per empirical run, table and JSONL must agree"
    );
    let violations: usize = rows.iter().map(|r| r.violations).sum();
    assert_eq!(violations, 0, "empirical validation found violations");
    let json_rows: Vec<String> = rows.iter().map(json::to_string).collect();
    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    fs::write("target/figures/empirical_validation.json", json).expect("write json artifact");
    println!("(per-cell results written to target/figures/empirical_validation.json)");
    if let Some(path) = &json_path {
        let written = write_jsonl(path, &records).expect("write --json records");
        println!("({written} run records written to {path})");
        println!("==================== METRICS ROLLUP ====================");
        print!("{}", report::metrics_table(&records));
    }
    println!("empirical validation: OK\n");

    // Counterexamples.
    println!("==================== IMPOSSIBILITY RE-ENACTMENTS ====================");
    let list = counterexamples::all().expect("constructions run");
    for cx in &list {
        println!("{cx}\n");
        assert_ne!(cx.report, "ok", "{} must violate its property", cx.lemma);
    }
    println!("{} constructions re-enacted: OK", list.len());
}
