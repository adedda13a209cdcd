//! Runs every impossibility re-enactment and prints the violating runs.
//!
//! Each construction stages the run described in one of the paper's
//! impossibility proofs (partition schedules, crash placements, Byzantine
//! mimicry) and demonstrates the predicted violation of Termination,
//! Agreement or Validity on a concrete execution.

use kset_core::cli::Args;

fn main() {
    Args::new("counterexamples").finish();
    println!("=== Impossibility constructions, re-enacted ===\n");
    let list = match kset_experiments::counterexamples::all() {
        Ok(list) => list,
        Err(e) => {
            eprintln!("simulator failure: {e}");
            std::process::exit(1);
        }
    };
    let mut ok = true;
    for cx in &list {
        println!("{cx}\n");
        if cx.report == "ok" {
            eprintln!("ERROR: {} failed to produce a violation!", cx.lemma);
            ok = false;
        }
    }
    println!("{} constructions re-enacted", list.len());
    if !ok {
        std::process::exit(1);
    }
    println!("every construction violated exactly what its lemma predicts: OK");
}
