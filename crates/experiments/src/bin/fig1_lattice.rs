//! Regenerates Figure 1: the "weaker-than" lattice of validity conditions.
//!
//! The lattice is *derived* by exhaustive enumeration of abstract runs and
//! compared against the transcription of the paper's figure; the binary
//! fails loudly if they ever diverge.

use kset_core::cli::Args;
use kset_core::lattice::Lattice;
use kset_core::ValidityCondition;

fn main() {
    Args::new("fig1_lattice").finish();
    println!("=== Figure 1: validity conditions, weaker-than lattice ===\n");
    let derived = Lattice::derive();
    let paper = Lattice::paper();
    if derived != paper {
        eprintln!("DERIVED LATTICE DIFFERS FROM THE PAPER'S FIGURE 1!");
        std::process::exit(1);
    }
    print!("{}", derived.render_ascii());
    println!("\nHasse edges (stronger -> weaker), derived by enumeration:");
    for (s, w) in derived.hasse_edges() {
        println!("  {s} -> {w}");
    }
    println!("\nFull implication closure:");
    for c in ValidityCondition::ALL {
        let implied: Vec<&str> = ValidityCondition::ALL
            .iter()
            .filter(|&&d| derived.implies(c, d))
            .map(|d| d.name())
            .collect();
        println!("  {c} implies {{{}}}", implied.join(", "));
    }
    println!("\nderived lattice == paper Figure 1: OK");
}
