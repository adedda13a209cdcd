//! Regenerates Figure 4: the MP/Byz solvability atlas.
//!
//! Usage: `fig4_mp_byz [n] [--csv FILE]` (default n = 64, as in the paper).

use kset_experiments::figures::figure_main;
use kset_regions::Model;

fn main() {
    figure_main(Model::MpByzantine);
}
