//! Regenerates Figure 2: the MP/CR solvability atlas.
//!
//! Usage: `fig2_mp_cr [n] [--csv FILE]` (default n = 64, as in the paper).

use kset_experiments::figures::figure_main;
use kset_regions::Model;

fn main() {
    figure_main(Model::MpCrash);
}
