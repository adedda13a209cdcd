//! Empirically validates the solvable regions of all four atlases.
//!
//! For every solvable cell of every panel at a test-scale `n`, runs the
//! cell's designated protocol in the simulator across several seeds, fault
//! plans (crash budgets, silent and active Byzantine strategies), and
//! checks Termination / Agreement / Validity on each run.
//!
//! Usage: `empirical_atlas [n] [seeds] [--json PATH] [--threads N]`
//! (defaults: n = 8, seeds = 5, threads = available parallelism; `n` is
//! at least 3). With `--json`, every run is emitted as a `RunRecord` JSON
//! line with kernel metrics (schema: `OBSERVABILITY.md`); cells run one
//! task each on a work-stealing pool, but rows and records are merged in
//! `(model, validity, k, t)` order so all output is byte-identical for
//! every thread count. Exits 1 if any run violates its specification, and 2 on
//! a bad command line.

use kset_experiments::cells::{validate_atlas, SweepArgs};
use kset_experiments::record_sink::write_jsonl;
use kset_experiments::report;

fn main() {
    let args = SweepArgs::parse("empirical_atlas", 8, 5);
    let (n, seeds) = (args.n, args.seeds);
    let (rows, records) = validate_atlas(n, seeds, args.metrics(), args.threads);
    let total_runs: usize = rows.iter().map(|r| r.runs).sum();
    let violations: usize = rows.iter().map(|r| r.violations).sum();

    println!("=== Empirical atlas validation (n = {n}, {seeds} seeds/cell) ===\n");
    println!("per-protocol rollup:");
    println!("protocol          cells  runs   violations");
    println!("----------------  -----  -----  ----------");
    for (protocol, cells, runs, viol) in report::rollup(&rows) {
        println!("{protocol:<16}  {cells:<5}  {runs:<5}  {viol}");
    }
    println!(
        "\ntotal: {} solvable cells, {} runs, {} violations",
        rows.len(),
        total_runs,
        violations
    );

    if let Some(path) = &args.json {
        let written = write_jsonl(path, &records).expect("write --json records");
        assert_eq!(written, total_runs, "one record per run");
        println!("\n{written} run records written to {path}");
        println!("\nper-protocol metrics rollup:");
        print!("{}", report::metrics_table(&records));
    }

    for r in rows.iter().filter(|r| !r.clean()) {
        println!(
            "VIOLATION: {} {} k={} t={}: {}",
            r.model,
            r.validity,
            r.k,
            r.t,
            r.first_violation.as_deref().unwrap_or("?")
        );
    }
    if violations > 0 {
        std::process::exit(1);
    }
    println!("all runs satisfied SC(k, t, C): OK");
}
