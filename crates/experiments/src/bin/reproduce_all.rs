//! One-shot reproduction driver: Figure 1, all four atlases at `n = 64`,
//! the empirical validation pass, and the impossibility re-enactments.
//!
//! Usage: `reproduce_all [--empirical-n N] [--seeds S] [--json PATH]
//! [--threads T]` (defaults: N = 8, S = 3, T = available parallelism).
//! Atlas CSVs are written to `target/figures/`. With `--json`, every
//! empirical run is additionally emitted as one `RunRecord` JSON line
//! (with kernel metrics enabled) to `PATH` — see `OBSERVABILITY.md` for
//! the schema — and a per-protocol metrics rollup is printed after the
//! validation table. Empirical cells run on a work-stealing pool; every
//! table, artifact and record file is merged in cell order and therefore
//! byte-identical for every thread count.

use std::fs;
use std::io::Write as _;

use kset_core::lattice::Lattice;
use kset_core::ValidityCondition;
use kset_experiments::cells::validate_cell_with;
use kset_experiments::engine;
use kset_experiments::record_sink::JsonlSink;
use kset_experiments::{counterexamples, json, report};
use kset_regions::{render, Atlas, Model};
use kset_sim::MetricsConfig;

/// Reports a bad command line and exits 2: a usage error, not a panic.
fn usage_error(message: &str) -> ! {
    eprintln!("reproduce_all: usage error: {message}");
    std::process::exit(2);
}

/// Parses a numeric flag value, or exits with a usage error.
fn number<T: std::str::FromStr>(flag: &str, raw: String) -> T {
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} wants a number, got {raw:?}")))
}

fn main() {
    let mut empirical_n = 8usize;
    let mut seeds = 5u64;
    let mut json_path: Option<String> = None;
    let mut threads = engine::available_threads();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--empirical-n" => empirical_n = number("--empirical-n", value("--empirical-n")),
            "--seeds" => seeds = number("--seeds", value("--seeds")),
            "--json" => json_path = Some(value("--json")),
            "--threads" => {
                let raw = value("--threads");
                threads = engine::parse_threads(&raw).unwrap_or_else(|| {
                    usage_error(&format!(
                        "--threads wants a count, 0 or 'auto', got {raw:?}"
                    ))
                });
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
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
        let path = format!("target/figures/fig{}_{}.csv", model.figure(), slug(model));
        let mut f = fs::File::create(&path).expect("create csv");
        f.write_all(render::atlas_csv(&atlas).as_bytes())
            .expect("write csv");
        println!("(csv written to {path})\n");
    }

    // Empirical validation. With --json, collect kernel metrics and stream
    // one RunRecord per run; the metrics make each run ~equally fast but
    // carry per-process attribution, so they are opt-in.
    println!("==================== EMPIRICAL VALIDATION ====================");
    let metrics = if json_path.is_some() {
        MetricsConfig::enabled()
    } else {
        MetricsConfig::disabled()
    };
    let mut sink = json_path
        .as_ref()
        .map(|p| JsonlSink::create(p).expect("create --json sink"));
    let mut cells: Vec<(Model, ValidityCondition, usize, usize)> = Vec::new();
    for model in Model::ALL {
        for validity in ValidityCondition::ALL {
            for k in 2..empirical_n {
                for t in 1..=empirical_n {
                    cells.push((model, validity, k, t));
                }
            }
        }
    }
    let results = engine::parallel_map(threads, cells, |_, (model, validity, k, t)| {
        let mut cell_records = Vec::new();
        let cell = validate_cell_with(
            model,
            validity,
            empirical_n,
            k,
            t,
            0..seeds,
            metrics,
            |record| cell_records.push(record),
        );
        match cell {
            Ok(row) => (row, cell_records),
            Err(e) => panic!("simulator failure: {e}"),
        }
    });
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for (row, cell_records) in results {
        rows.extend(row);
        if let Some(sink) = sink.as_mut() {
            for record in &cell_records {
                sink.write(record).expect("write run record");
            }
        }
        records.extend(cell_records);
    }
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
    if let Some(sink) = sink {
        let written = sink.finish().expect("flush --json sink");
        println!(
            "({} run records written to {})",
            written,
            json_path.as_deref().unwrap_or_default()
        );
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

fn slug(model: Model) -> &'static str {
    match model {
        Model::MpCrash => "mp_cr",
        Model::MpByzantine => "mp_byz",
        Model::SmCrash => "sm_cr",
        Model::SmByzantine => "sm_byz",
    }
}
