//! Query and render the solvability atlases programmatically.
//!
//! Classifies a few interesting `SC(k, t, C)` instances across all four
//! models, then renders one full panel — the API behind the `fig*`
//! binaries.
//!
//! ```sh
//! cargo run --example region_atlas
//! ```

use kset::core::ValidityCondition as VC;
use kset::regions::{classify, render, Atlas, CellClass, Model};

fn describe(model: Model, v: VC, n: usize, k: usize, t: usize) {
    let cell = classify(model, v, n, k, t);
    let verdict = match cell {
        CellClass::Solvable(c) => format!("solvable   — {} ({})", c.lemma, c.means),
        CellClass::Impossible(c) => format!("impossible — {} ({})", c.lemma, c.means),
        CellClass::Open => "open problem".to_string(),
    };
    println!(
        "{:<7} SC(k={k:<2}, t={t:<2}, {v}) n={n}: {verdict}",
        model.shorthand()
    );
}

fn main() {
    println!("--- the classical split (Chaudhuri's k-set consensus) ---");
    describe(Model::MpCrash, VC::RV1, 64, 5, 4);
    describe(Model::MpCrash, VC::RV1, 64, 5, 5);

    println!("\n--- default decisions change everything ---");
    describe(Model::MpCrash, VC::RV2, 64, 2, 31);
    describe(Model::MpCrash, VC::RV2, 64, 2, 32); // the isolated open point
    describe(Model::MpCrash, VC::RV2, 64, 2, 33);
    describe(Model::SmCrash, VC::RV2, 64, 2, 63); // shared memory: any t

    println!("\n--- Byzantine failures ---");
    describe(Model::MpByzantine, VC::RV1, 64, 63, 1); // hopeless
    describe(Model::MpByzantine, VC::SV2, 64, 32, 21); // Protocol C(1)
    describe(Model::MpByzantine, VC::WV1, 64, 11, 10); // Protocol D
    describe(Model::SmByzantine, VC::WV2, 64, 2, 64); // Protocol E again

    println!("\n--- one full panel, as in the paper's figures ---\n");
    let atlas = Atlas::compute(Model::SmCrash, 16);
    print!("{}", render::panel_ascii(atlas.panel(VC::SV2)));
}
