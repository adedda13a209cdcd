//! Regenerates Figure 6: the SM/Byz solvability atlas.
//!
//! Usage: `fig6_sm_byz [n] [--csv FILE]` (default n = 64, as in the paper).

use kset_experiments::figures::figure_main;
use kset_regions::Model;

fn main() {
    figure_main(Model::SmByzantine);
}
