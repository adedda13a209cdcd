//! Prints the open problems of the paper as concrete cell inventories:
//! for every panel of every figure, the cells between the best known
//! protocol and the best known impossibility bound.
//!
//! Usage: `open_problems [n]` (default n = 64, as in the paper).

use kset_core::cli::Args;
use kset_core::ValidityCondition;
use kset_regions::gaps::GapReport;
use kset_regions::{Atlas, Model};

fn main() {
    let mut args = Args::new("open_problems");
    let n = match args.next() {
        None => 64,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 3 => n,
            Ok(_) => args.error(format_args!("n must be at least 3, got {raw}")),
            Err(_) => args.error(format_args!("n wants a number, got {raw:?}")),
        },
    };
    args.finish();

    println!("=== Open problems (gaps between protocols and bounds), n = {n} ===\n");
    let mut total = 0;
    for model in Model::ALL {
        let atlas = Atlas::compute(model, n);
        println!("--- Figure {} ({model}) ---", model.figure());
        for v in ValidityCondition::ALL {
            let gaps = GapReport::of(atlas.panel(v));
            if gaps.closed() {
                println!("{model} {v}: fully characterized, no open cells");
            } else {
                print!("{}", gaps.render());
                if let Some(w) = gaps.widest() {
                    println!(
                        "  widest gap: k = {} open across {} values of t",
                        w.k,
                        w.width()
                    );
                }
            }
            total += gaps.open_cells();
        }
        println!();
    }
    println!("total open cells across all 24 panels: {total}");
    println!("(cf. paper §5: \"in a few cases there is still a gap to be filled\")");
}
