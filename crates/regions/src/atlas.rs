//! Whole-figure atlases: one classified grid per validity condition.

use kset_core::ValidityCondition as VC;

use crate::classify::{classify, CellClass};
use crate::model::Model;

/// One panel of a figure: the classified `(k, t)` grid for a single
/// validity condition, over the paper's domain `2 <= k <= n-1`,
/// `1 <= t <= n`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Panel {
    model: Model,
    validity: VC,
    n: usize,
    /// `grid[k - 2][t - 1]`.
    grid: Vec<Vec<CellClass>>,
}

impl Panel {
    /// Classifies the full grid for `(model, validity)` at system size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (the domain `2 <= k <= n-1` would be empty).
    pub fn compute(model: Model, validity: VC, n: usize) -> Self {
        assert!(n >= 3, "atlas domain requires n >= 3");
        let grid = (2..n)
            .map(|k| {
                (1..=n)
                    .map(|t| classify(model, validity, n, k, t))
                    .collect()
            })
            .collect();
        Panel {
            model,
            validity,
            n,
            grid,
        }
    }

    /// The model of this panel.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The validity condition of this panel.
    pub fn validity(&self) -> VC {
        self.validity
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Classification of cell `(k, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `t` lies outside the panel domain.
    pub fn cell(&self, k: usize, t: usize) -> CellClass {
        assert!((2..self.n).contains(&k), "k out of panel domain");
        assert!((1..=self.n).contains(&t), "t out of panel domain");
        self.grid[k - 2][t - 1]
    }

    /// Iterates `(k, t, class)` over the whole panel.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, CellClass)> + '_ {
        self.grid.iter().enumerate().flat_map(move |(ki, row)| {
            row.iter()
                .enumerate()
                .map(move |(ti, &c)| (ki + 2, ti + 1, c))
        })
    }

    /// Counts `(solvable, impossible, open)` cells.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for (_, _, c) in self.cells() {
            match c {
                CellClass::Solvable(_) => counts.0 += 1,
                CellClass::Impossible(_) => counts.1 += 1,
                CellClass::Open => counts.2 += 1,
            }
        }
        counts
    }

    /// Distinct citations appearing in the panel, with their cell counts,
    /// solvable first — the panel's legend.
    pub fn legend(&self) -> Vec<(CellClass, usize)> {
        let mut entries: Vec<(CellClass, usize)> = Vec::new();
        for (_, _, c) in self.cells() {
            if let Some(e) = entries.iter_mut().find(|(e, _)| *e == c) {
                e.1 += 1;
            } else {
                entries.push((c, 1));
            }
        }
        entries.sort_by_key(|(c, count)| {
            (
                match c {
                    CellClass::Solvable(_) => 0u8,
                    CellClass::Impossible(_) => 1,
                    CellClass::Open => 2,
                },
                usize::MAX - count,
            )
        });
        entries
    }
}

/// A full figure: six panels (one per validity condition) for one model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Atlas {
    model: Model,
    n: usize,
    panels: Vec<Panel>,
}

impl Atlas {
    /// Computes the atlas of `model` at system size `n` (the paper draws
    /// its figures for `n = 64`).
    pub fn compute(model: Model, n: usize) -> Self {
        let panels = VC::ALL
            .iter()
            .map(|&v| Panel::compute(model, v, n))
            .collect();
        Atlas { model, n, panels }
    }

    /// The model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The panel for `validity`.
    pub fn panel(&self, validity: VC) -> &Panel {
        self.panels
            .iter()
            .find(|p| p.validity() == validity)
            .expect("atlas holds all six panels")
    }

    /// All six panels in [`VC::ALL`] order.
    pub fn panels(&self) -> &[Panel] {
        &self.panels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_holds_six_panels_in_order() {
        let atlas = Atlas::compute(Model::MpCrash, 16);
        assert_eq!(atlas.panels().len(), 6);
        for (p, v) in atlas.panels().iter().zip(VC::ALL) {
            assert_eq!(p.validity(), v);
            assert_eq!(p.model(), Model::MpCrash);
            assert_eq!(p.n(), 16);
        }
    }

    #[test]
    fn panel_census_sums_to_domain_size() {
        let panel = Panel::compute(Model::MpCrash, VC::SV2, 16);
        let (s, i, o) = panel.census();
        assert_eq!(s + i + o, (16 - 2) * 16);
        assert!(s > 0 && i > 0 && o > 0, "SV2 panel has all three classes");
    }

    #[test]
    fn rv1_panel_is_a_clean_split() {
        let panel = Panel::compute(Model::MpCrash, VC::RV1, 16);
        let (_, _, open) = panel.census();
        assert_eq!(open, 0, "Lemmas 3.1/3.2 leave nothing open");
        assert_eq!(panel.cell(5, 4).glyph(), 'o');
        assert_eq!(panel.cell(5, 5).glyph(), '#');
    }

    #[test]
    fn cells_iterator_matches_cell_lookup() {
        let panel = Panel::compute(Model::SmCrash, VC::RV2, 8);
        for (k, t, c) in panel.cells() {
            assert_eq!(panel.cell(k, t), c);
        }
    }

    #[test]
    fn legend_counts_cover_the_panel() {
        let panel = Panel::compute(Model::MpByzantine, VC::WV2, 16);
        let total: usize = panel.legend().iter().map(|(_, c)| c).sum();
        assert_eq!(total, (16 - 2) * 16);
        // Legend is deduplicated.
        let legend = panel.legend();
        for (i, (a, _)) in legend.iter().enumerate() {
            for (b, _) in &legend[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k out of panel domain")]
    fn cell_out_of_domain_panics() {
        let panel = Panel::compute(Model::MpCrash, VC::RV1, 8);
        let _ = panel.cell(8, 1);
    }
}
