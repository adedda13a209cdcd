//! Regenerates Figure 5: the SM/CR solvability atlas.
//!
//! Usage: `fig5_sm_cr [n] [--csv FILE]` (default n = 64, as in the paper).

use kset_experiments::figures::figure_main;
use kset_regions::Model;

fn main() {
    figure_main(Model::SmCrash);
}
