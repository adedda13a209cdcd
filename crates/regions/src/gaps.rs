//! Gap analysis: the open problems of the paper, as data.
//!
//! The paper closes with "in a few cases there is still a gap to be
//! filled". This module makes those gaps first-class: for any panel it
//! extracts the open cells, groups them into per-`k` intervals of `t`
//! (the shape a human would describe), and summarizes each panel's
//! frontier — the largest solvable `t` and smallest impossible `t` per
//! row.

use kset_core::ValidityCondition as VC;

use crate::atlas::Panel;
use crate::classify::CellClass;
use crate::model::Model;

/// The open cells of one `k`-row, as a closed interval of `t`.
///
/// Open regions are always `t`-intervals per row because classification is
/// monotone in `t` (asserted by the classifier tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpenInterval {
    /// The row.
    pub k: usize,
    /// Smallest open `t`.
    pub t_min: usize,
    /// Largest open `t`.
    pub t_max: usize,
}

impl OpenInterval {
    /// Number of open cells in the interval.
    pub fn width(&self) -> usize {
        self.t_max - self.t_min + 1
    }
}

/// Summary of one panel's gap structure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GapReport {
    /// Model of the panel.
    pub model: Model,
    /// Validity condition of the panel.
    pub validity: VC,
    /// System size.
    pub n: usize,
    /// Open intervals, ascending by `k`.
    pub intervals: Vec<OpenInterval>,
}

impl GapReport {
    /// Extracts the gap structure of `panel`.
    pub fn of(panel: &Panel) -> Self {
        let mut intervals = Vec::new();
        for k in 2..panel.n() {
            let mut t_min = None;
            let mut t_max = None;
            for t in 1..=panel.n() {
                if matches!(panel.cell(k, t), CellClass::Open) {
                    t_min.get_or_insert(t);
                    t_max = Some(t);
                }
            }
            if let (Some(t_min), Some(t_max)) = (t_min, t_max) {
                intervals.push(OpenInterval { k, t_min, t_max });
            }
        }
        GapReport {
            model: panel.model(),
            validity: panel.validity(),
            n: panel.n(),
            intervals,
        }
    }

    /// Total number of open cells.
    pub fn open_cells(&self) -> usize {
        self.intervals.iter().map(OpenInterval::width).sum()
    }

    /// True when the panel is completely characterized.
    pub fn closed(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The widest single-row gap, if any.
    pub fn widest(&self) -> Option<OpenInterval> {
        self.intervals
            .iter()
            .copied()
            .max_by_key(OpenInterval::width)
    }

    /// Human-readable rendering, one line per interval.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} {} (n = {}): {} open cells in {} row-intervals",
            self.model,
            self.validity,
            self.n,
            self.open_cells(),
            self.intervals.len()
        );
        for iv in &self.intervals {
            if iv.t_min == iv.t_max {
                let _ = writeln!(out, "  k = {:<3} open at t = {}", iv.k, iv.t_min);
            } else {
                let _ = writeln!(
                    out,
                    "  k = {:<3} open for t in {}..={}",
                    iv.k, iv.t_min, iv.t_max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atlas::Panel;

    #[test]
    fn closed_panels_report_no_gaps() {
        for v in [VC::RV1, VC::WV1, VC::SV1] {
            let panel = Panel::compute(Model::MpCrash, v, 16);
            let gaps = GapReport::of(&panel);
            assert!(gaps.closed(), "{v} should be fully characterized");
            assert_eq!(gaps.open_cells(), 0);
            assert!(gaps.widest().is_none());
        }
    }

    #[test]
    fn rv2_gaps_are_single_points_on_divisor_rows() {
        // n = 16: the isolated open points sit at k | 16, i.e. k in
        // {2, 4, 8}, each a single cell at t = (k-1)n/k.
        let panel = Panel::compute(Model::MpCrash, VC::RV2, 16);
        let gaps = GapReport::of(&panel);
        let expected = vec![
            OpenInterval {
                k: 2,
                t_min: 8,
                t_max: 8,
            },
            OpenInterval {
                k: 4,
                t_min: 12,
                t_max: 12,
            },
            OpenInterval {
                k: 8,
                t_min: 14,
                t_max: 14,
            },
        ];
        assert_eq!(gaps.intervals, expected);
        assert_eq!(gaps.open_cells(), 3);
    }

    #[test]
    fn byzantine_wv1_has_the_substantial_gap() {
        let panel = Panel::compute(Model::MpByzantine, VC::WV1, 16);
        let gaps = GapReport::of(&panel);
        assert!(!gaps.closed());
        // "Substantial": some row is open across multiple t values.
        assert!(gaps.widest().expect("has gaps").width() > 1);
    }

    #[test]
    fn render_mentions_every_interval_row() {
        let panel = Panel::compute(Model::MpCrash, VC::SV2, 16);
        let gaps = GapReport::of(&panel);
        let text = gaps.render();
        for iv in &gaps.intervals {
            assert!(text.contains(&format!("k = {:<3}", iv.k)), "{text}");
        }
        assert!(text.contains("open cells"));
    }

    #[test]
    fn open_intervals_are_really_intervals() {
        // Cross-check the monotonicity assumption: within each reported
        // interval every cell is open, outside none are.
        for model in Model::ALL {
            for v in VC::ALL {
                let panel = Panel::compute(model, v, 12);
                let gaps = GapReport::of(&panel);
                let mut from_scan = 0;
                for (k, t, c) in panel.cells() {
                    let open = matches!(c, CellClass::Open);
                    if open {
                        from_scan += 1;
                    }
                    let in_interval = gaps
                        .intervals
                        .iter()
                        .any(|iv| iv.k == k && (iv.t_min..=iv.t_max).contains(&t));
                    assert_eq!(open, in_interval, "{model} {v} k={k} t={t}");
                }
                assert_eq!(from_scan, gaps.open_cells());
            }
        }
    }
}
