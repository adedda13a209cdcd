//! Scans the frontier of each panel: for cells just outside the solvable
//! region, throws the panel's protocol at them under partition and freeze
//! schedules, and reports how many runs violate `SC(k, t, C)`.
//!
//! A violation is a reproducible certificate (its seed is printed) that
//! the protocol genuinely fails there — tightness evidence complementing
//! the hand-staged constructions in the `counterexamples` binary.
//!
//! Usage: `boundary_scan [n] [seeds] [--json PATH] [--threads N]`
//! (defaults: n = 10, seeds = 12, threads = available parallelism; `n` is
//! at least 3, and a bad command line exits 2). With
//! `--json`, every probe run is emitted as a `RunRecord` JSON line with
//! kernel metrics; violating runs carry the checker's message in
//! `outcome.violation` (schema: `OBSERVABILITY.md`). Probes run on a
//! work-stealing pool; the table and the record file are merged in cell
//! order, so they are byte-identical for every thread count.

use kset_experiments::cells::SweepArgs;
use kset_experiments::explorer::probe_frontier;
use kset_experiments::record_sink::write_jsonl;

fn main() {
    let args = SweepArgs::parse("boundary_scan", 10, 12);
    let n = args.n;
    let (probes, records) = probe_frontier(n, args.seeds, args.metrics(), args.threads);

    println!("=== Boundary scan: protocols just outside their regions (n = {n}) ===\n");
    println!("model   validity  k   t   class       protocol    violations/runs  first seed");
    println!("------  --------  --  --  ----------  ----------  ---------------  ----------");

    for p in &probes {
        println!(
            "{:<6}  {:<8}  {:<2}  {:<2}  {:<10}  {:<10}  {:>3}/{:<12}  {}",
            p.model.shorthand(),
            p.validity.name(),
            p.k,
            p.t,
            p.class,
            p.protocol,
            p.violations,
            p.runs,
            p.first_violating_seed
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
    let probed = probes.len();
    let with_violations = probes.iter().filter(|p| p.violations > 0).count();
    println!("\n{probed} frontier cells probed; {with_violations} yielded violation certificates");
    println!("(violations are expected OUTSIDE the regions — they evidence tightness; a probe");
    println!(" finding none proves nothing, since impossibility quantifies over all protocols)");
    if let Some(path) = &args.json {
        let written = write_jsonl(path, &records).expect("write --json records");
        println!("({written} probe run records written to {path})");
    }
}
