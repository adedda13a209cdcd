//! ASCII and CSV renderings of atlases — the textual form of the paper's
//! region figures.
//!
//! The paper fills solvable regions with a honeycomb pattern and impossible
//! regions with a brick pattern; we use `o` and `#` respectively, with `.`
//! for open cells, axes `t` rightwards and `k` upwards, exactly the figure
//! orientation.

use std::fmt::Write as _;

use crate::atlas::{Atlas, Panel};
use crate::classify::CellClass;

/// Renders one panel as an ASCII grid with axes and a lemma legend.
pub fn panel_ascii(panel: &Panel) -> String {
    let n = panel.n();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — validity {} (n = {})",
        panel.model(),
        panel.validity(),
        n
    );
    for k in (2..n).rev() {
        let _ = write!(out, "k={k:>3} |");
        for t in 1..=n {
            out.push(panel.cell(k, t).glyph());
        }
        out.push('\n');
    }
    let _ = write!(out, "      +");
    out.push_str(&"-".repeat(n));
    out.push('\n');
    let _ = writeln!(out, "       t = 1 .. {n}");
    let (s, i, o) = panel.census();
    let _ = writeln!(
        out,
        "cells: {s} solvable (o), {i} impossible (#), {o} open (.)"
    );
    for (class, count) in panel.legend() {
        match class {
            CellClass::Solvable(c) => {
                let _ = writeln!(
                    out,
                    "  o {:>4} cells  {} [{}] — {}",
                    count, c.lemma, c.formula, c.means
                );
            }
            CellClass::Impossible(c) => {
                let _ = writeln!(
                    out,
                    "  # {:>4} cells  {} [{}] — {}",
                    count, c.lemma, c.formula, c.means
                );
            }
            CellClass::Open => {
                let _ = writeln!(out, "  . {count:>4} cells  open problem");
            }
        }
    }
    out
}

/// Renders a whole atlas (all six panels) as the textual Figure
/// `atlas.model().figure()`.
pub fn atlas_ascii(atlas: &Atlas) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Figure {}: {} model, n = {} ===",
        atlas.model().figure(),
        atlas.model(),
        atlas.n()
    );
    let _ = writeln!(
        out,
        "(o = solvable / honeycomb, # = impossible / brick, . = open)\n"
    );
    for panel in atlas.panels() {
        out.push_str(&panel_ascii(panel));
        out.push('\n');
    }
    out
}

/// Renders an atlas as CSV rows `model,validity,n,k,t,class,lemma`.
pub fn atlas_csv(atlas: &Atlas) -> String {
    let mut out = String::from("model,validity,n,k,t,class,lemma\n");
    for panel in atlas.panels() {
        for (k, t, cell) in panel.cells() {
            let (class, lemma) = match cell {
                CellClass::Solvable(c) => ("solvable", c.lemma),
                CellClass::Impossible(c) => ("impossible", c.lemma),
                CellClass::Open => ("open", ""),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                panel.model().shorthand(),
                panel.validity(),
                panel.n(),
                k,
                t,
                class,
                lemma
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use kset_core::ValidityCondition as VC;

    #[test]
    fn panel_ascii_has_one_row_per_k_and_full_width() {
        let panel = Panel::compute(Model::MpCrash, VC::RV1, 16);
        let art = panel_ascii(&panel);
        let rows: Vec<&str> = art.lines().filter(|l| l.starts_with("k=")).collect();
        assert_eq!(rows.len(), 14); // k = 2..=15
        for row in rows {
            let grid: &str = row.split('|').nth(1).unwrap();
            assert_eq!(grid.len(), 16);
        }
        // Top row is k = 15 (axes upward like the figures).
        assert!(art.lines().next().unwrap().contains("RV1"));
        assert!(art.contains("k= 15 |"));
    }

    #[test]
    fn rv1_panel_renders_the_diagonal() {
        let panel = Panel::compute(Model::MpCrash, VC::RV1, 8);
        let art = panel_ascii(&panel);
        // Row k=3: solvable for t in {1,2}, impossible after.
        let row = art
            .lines()
            .find(|l| l.starts_with("k=  3"))
            .expect("row for k=3");
        assert!(row.ends_with("oo######"));
    }

    #[test]
    fn atlas_ascii_mentions_figure_number_and_all_panels() {
        let atlas = Atlas::compute(Model::SmByzantine, 8);
        let art = atlas_ascii(&atlas);
        assert!(art.contains("Figure 6"));
        for v in VC::ALL {
            assert!(art.contains(&format!("validity {v}")));
        }
    }

    #[test]
    fn csv_has_header_and_full_cartesian_body() {
        let atlas = Atlas::compute(Model::MpCrash, 8);
        let csv = atlas_csv(&atlas);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "model,validity,n,k,t,class,lemma");
        assert_eq!(lines.len(), 1 + 6 * (8 - 2) * 8);
        assert!(lines[1].starts_with("MP/CR,SV1,8,2,1,impossible,"));
    }

    #[test]
    fn legend_lists_lemmas_in_ascii() {
        let panel = Panel::compute(Model::MpCrash, VC::SV2, 16);
        let art = panel_ascii(&panel);
        assert!(art.contains("Lemma 3.8"));
        assert!(art.contains("Lemma 3.6"));
        assert!(art.contains("open problem"));
    }
}
