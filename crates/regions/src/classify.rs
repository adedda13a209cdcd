//! Cell classification: base lemma facts closed under the paper's
//! propagation rules.

use kset_core::lattice::Lattice;
use kset_core::ValidityCondition as VC;

use crate::facts::{Fact, IMPOSSIBLE, SOLVABLE};
use crate::model::Model;

/// Why a cell is classified the way it is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Citation {
    /// Lemma (or fringe rule) establishing the classification.
    pub lemma: &'static str,
    /// Protocol or technique.
    pub means: &'static str,
    /// The paper's bounding formula for the region.
    pub formula: &'static str,
}

/// The classification of one `(k, t)` cell of an atlas panel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellClass {
    /// A protocol exists; the citation names it.
    Solvable(Citation),
    /// No protocol exists; the citation names the lower bound.
    Impossible(Citation),
    /// Between the known protocols and bounds — open in the paper.
    Open,
}

impl CellClass {
    /// The citation, if the cell is classified.
    pub fn citation(&self) -> Option<Citation> {
        match self {
            CellClass::Solvable(c) | CellClass::Impossible(c) => Some(*c),
            CellClass::Open => None,
        }
    }

    /// Single-character glyph used by the ASCII atlas: `o` solvable,
    /// `#` impossible (the paper's honeycomb resp. brick fill), `.` open.
    pub fn glyph(&self) -> char {
        match self {
            CellClass::Solvable(_) => 'o',
            CellClass::Impossible(_) => '#',
            CellClass::Open => '.',
        }
    }
}

/// Fringe rules outside the atlas domain `2 <= k <= n-1`, `t >= 1`.
const FRINGE_K_EQ_N: Citation = Citation {
    lemma: "trivial (k = n)",
    means: "every process decides its own input",
    formula: "k = n",
};
const FRINGE_T_EQ_0: Citation = Citation {
    lemma: "trivial (t = 0)",
    means: "wait for all n inputs, decide the minimum",
    formula: "t = 0",
};
const FRINGE_K_EQ_1: Citation = Citation {
    lemma: "FLP [17] / [24]",
    means: "consensus is unsolvable for any nontrivial validity",
    formula: "k = 1, t >= 1",
};

fn applies_solvable(fact: &Fact, model: Model, validity: VC, lat: &Lattice) -> bool {
    // A protocol transfers to `model` and its validity implies `validity`.
    fact.model.transfers_to(model) && lat.implies(fact.validity, validity)
}

fn applies_impossible(fact: &Fact, model: Model, validity: VC, lat: &Lattice) -> bool {
    // An impossibility for a weaker validity in a reachable model kills us:
    // if SC(validity) were solvable in `model`, transfer + weakening would
    // solve SC(fact.validity) in fact.model.
    model.transfers_to(fact.model) && lat.implies(validity, fact.validity)
}

/// Ranks candidate citations: exact (model, validity) matches first, then
/// exact model, then exact validity, then anything — so each cell cites the
/// most specific lemma available, like the paper's figures do.
fn specificity(fact: &Fact, model: Model, validity: VC) -> u8 {
    match (fact.model == model, fact.validity == validity) {
        (true, true) => 0,
        (true, false) => 1,
        (false, true) => 2,
        (false, false) => 3,
    }
}

/// Classifies `SC(k, t, validity)` in `model` over `n` processes.
///
/// Outside the paper's atlas domain the trivial fringes apply: `k >= n` is
/// solvable by self-decision (even with validity SV1 under Byzantine
/// failures), `t = 0` is solvable by waiting for all inputs, and `k = 1` is
/// classical consensus, impossible for `t >= 1` by FLP / Loui–Abu-Amara.
///
/// # Panics
///
/// Panics if `n == 0`, `k == 0`, `k > n`, or `t > n`.
pub fn classify(model: Model, validity: VC, n: usize, k: usize, t: usize) -> CellClass {
    assert!(n > 0, "n must be positive");
    assert!(k >= 1 && k <= n, "k must be in 1..=n");
    assert!(t <= n, "t must be in 0..=n");

    // Fringes, in the order the paper dispatches them (§2).
    if k == n {
        return CellClass::Solvable(FRINGE_K_EQ_N);
    }
    if t == 0 {
        return CellClass::Solvable(FRINGE_T_EQ_0);
    }
    if k == 1 {
        return CellClass::Impossible(FRINGE_K_EQ_1);
    }

    let lat = Lattice::paper();

    let best = |table: &'static [Fact], applies: &dyn Fn(&Fact) -> bool| -> Option<&'static Fact> {
        table
            .iter()
            .filter(|f| applies(f) && f.covers(n, k, t))
            .min_by_key(|f| specificity(f, model, validity))
    };

    let solvable = best(SOLVABLE, &|f| applies_solvable(f, model, validity, &lat));
    let impossible = best(IMPOSSIBLE, &|f| {
        applies_impossible(f, model, validity, &lat)
    });

    match (solvable, impossible) {
        (Some(s), None) => CellClass::Solvable(Citation {
            lemma: s.lemma,
            means: s.means,
            formula: s.formula,
        }),
        (None, Some(i)) => CellClass::Impossible(Citation {
            lemma: i.lemma,
            means: i.means,
            formula: i.formula,
        }),
        (None, None) => CellClass::Open,
        (Some(s), Some(i)) => unreachable!(
            "lemmas contradict at {model} {validity} n={n} k={k} t={t}: {} vs {}",
            s.lemma, i.lemma
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 64;

    fn cls(model: Model, v: VC, k: usize, t: usize) -> CellClass {
        classify(model, v, N, k, t)
    }

    fn is_solv(c: CellClass) -> bool {
        matches!(c, CellClass::Solvable(_))
    }
    fn is_imp(c: CellClass) -> bool {
        matches!(c, CellClass::Impossible(_))
    }

    /// Total order used for monotonicity checks: more failures can only
    /// make the problem harder, larger k only easier.
    fn rank(c: CellClass) -> u8 {
        match c {
            CellClass::Impossible(_) => 0,
            CellClass::Open => 1,
            CellClass::Solvable(_) => 2,
        }
    }

    #[test]
    fn no_cell_is_ever_contradictory_and_classification_is_monotone() {
        for model in Model::ALL {
            for v in VC::ALL {
                for k in 2..N {
                    let mut prev = u8::MAX;
                    for t in 1..=N {
                        let c = cls(model, v, k, t); // panics on contradiction
                        let r = rank(c);
                        assert!(
                            r <= prev,
                            "{model} {v}: rank must not increase with t at k={k}, t={t}"
                        );
                        prev = r;
                    }
                }
                for t in 1..=N {
                    let mut prev = 0;
                    for k in 2..N {
                        let r = rank(cls(model, v, k, t));
                        assert!(
                            r >= prev,
                            "{model} {v}: rank must not decrease with k at k={k}, t={t}"
                        );
                        prev = r;
                    }
                }
            }
        }
    }

    #[test]
    fn fringes() {
        for model in Model::ALL {
            for v in VC::ALL {
                assert!(is_solv(classify(model, v, N, N, N)), "k = n trivial");
                assert!(is_solv(classify(model, v, N, 2, 0)), "t = 0 trivial");
                assert!(is_imp(classify(model, v, N, 1, 1)), "k = 1 is consensus");
            }
        }
    }

    #[test]
    fn figure_2_mp_crash_panels() {
        use Model::MpCrash as M;
        // RV1/WV1: split exactly at t = k.
        for v in [VC::RV1, VC::WV1] {
            assert!(is_solv(cls(M, v, 5, 4)));
            assert!(is_imp(cls(M, v, 5, 5)));
        }
        // SV1: impossible everywhere.
        assert!(is_imp(cls(M, VC::SV1, 63, 1)));
        // RV2/WV2: Protocol A up to kt < (k-1)n; open point at kt = (k-1)n;
        // impossible beyond. k = 2: boundary t = 32.
        for v in [VC::RV2, VC::WV2] {
            assert!(is_solv(cls(M, v, 2, 31)));
            assert_eq!(cls(M, v, 2, 32), CellClass::Open);
            assert!(is_imp(cls(M, v, 2, 33)));
            // k = 3 does not divide 64: no open cell on that row.
            assert!(is_solv(cls(M, v, 3, 42)));
            assert!(is_imp(cls(M, v, 3, 43)));
        }
        // SV2: B solvable 2kt < (k-1)n; impossible (2k+1)t >= kn; gap between.
        assert!(is_solv(cls(M, VC::SV2, 2, 15))); // 60 < 64
        assert_eq!(cls(M, VC::SV2, 2, 16), CellClass::Open); // 64 !< 64; 80 < 128
        assert!(is_imp(cls(M, VC::SV2, 2, 26))); // 130 >= 128
    }

    #[test]
    fn figure_4_mp_byzantine_panels() {
        use Model::MpByzantine as M;
        // SV1 and RV1: impossible everywhere.
        assert!(is_imp(cls(M, VC::SV1, 63, 1)));
        assert!(is_imp(cls(M, VC::RV1, 63, 1)));
        // WV1: Protocol D for k >= Z(n,t); impossible t >= k.
        // t = 10 < n/3: Z = 11.
        assert!(is_solv(cls(M, VC::WV1, 11, 10)));
        assert!(is_imp(cls(M, VC::WV1, 10, 10)));
        // SV2 via C(l): k=32, t=21 solvable with l=1; t >= n/2 never.
        assert!(is_solv(cls(M, VC::SV2, 32, 21)));
        assert!(is_imp(cls(M, VC::SV2, 32, 32))); // 65*32 >= 32*64 via L3.6
                                                  // RV2 impossible at t >= kn/(2(k+1)).
        assert!(is_imp(cls(M, VC::RV2, 2, 22))); // 6*22 >= 128? 132 >= 128 yes
                                                 // WV2: Protocol A large-t regime: k >= t+1, 2t >= n.
        assert!(is_solv(cls(M, VC::WV2, 40, 33)));
        // WV2 impossible needs both t >= kn/(2k+1) and t >= k.
        assert!(is_imp(cls(M, VC::WV2, 5, 30))); // 330 >= 320 and 30 >= 5
        assert_eq!(cls(M, VC::WV2, 5, 29), CellClass::Open); // 319 < 320
    }

    #[test]
    fn figure_5_sm_crash_panels() {
        use Model::SmCrash as M;
        // RV2/WV2: solvable everywhere (Protocol E).
        for v in [VC::RV2, VC::WV2] {
            for t in [1usize, 32, 63, 64] {
                assert!(is_solv(cls(M, v, 2, t)), "{v} t={t}");
            }
        }
        // RV1/WV1: exact split at t = k, same as message passing.
        for v in [VC::RV1, VC::WV1] {
            assert!(is_solv(cls(M, v, 5, 4)));
            assert!(is_imp(cls(M, v, 5, 5)));
        }
        // SV1: impossible everywhere.
        assert!(is_imp(cls(M, VC::SV1, 63, 1)));
        // SV2: Protocol F solvable whenever k > t+1, even huge t.
        assert!(is_solv(cls(M, VC::SV2, 63, 61)));
        // Impossible requires t >= n/2 and t >= k.
        assert!(is_imp(cls(M, VC::SV2, 30, 32)));
        // k = t+1 with t >= n/2 - 1 but t < n/2: open (the paper's gap).
        assert_eq!(cls(M, VC::SV2, 32, 31), CellClass::Open);
    }

    #[test]
    fn figure_6_sm_byzantine_panels() {
        use Model::SmByzantine as M;
        // SV1/RV1: impossible everywhere.
        assert!(is_imp(cls(M, VC::SV1, 63, 1)));
        assert!(is_imp(cls(M, VC::RV1, 63, 1)));
        // WV2: Protocol E still works against Byzantine writers.
        assert!(is_solv(cls(M, VC::WV2, 2, 64)));
        // RV2: unlike SM/CR, Protocol E does NOT give RV2 here; the
        // solvable region comes from SV2 protocols (F / SIM C(l)).
        assert!(is_solv(cls(M, VC::RV2, 63, 61))); // F: k > t+1
        assert!(is_imp(cls(M, VC::RV2, 30, 32))); // Lemma 4.9
        assert_eq!(cls(M, VC::RV2, 2, 20), CellClass::Open); // E unavailable
                                                             // WV1: SIM of Protocol D.
        assert!(is_solv(cls(M, VC::WV1, 11, 10)));
        assert!(is_imp(cls(M, VC::WV1, 10, 10)));
        // SV2: F region.
        assert!(is_solv(cls(M, VC::SV2, 63, 61)));
        assert!(is_imp(cls(M, VC::SV2, 30, 32)));
    }

    #[test]
    fn citations_prefer_the_most_specific_lemma() {
        // SM/CR RV1 should cite Lemma 4.4 (the SM statement), not 3.1.
        let CellClass::Solvable(c) = cls(Model::SmCrash, VC::RV1, 5, 4) else {
            panic!("expected solvable");
        };
        assert_eq!(c.lemma, "Lemma 4.4");
        // MP/CR RV1 cites Lemma 3.1.
        let CellClass::Solvable(c) = cls(Model::MpCrash, VC::RV1, 5, 4) else {
            panic!("expected solvable");
        };
        assert_eq!(c.lemma, "Lemma 3.1");
        // MP/CR WV2 in the Protocol A region cites 3.7 via weakening
        // (the most specific available: same model, weaker validity...
        // actually Lemma 3.7 is RV2; no WV2-specific solvable fact in MP/CR).
        let CellClass::Solvable(c) = cls(Model::MpCrash, VC::WV2, 2, 31) else {
            panic!("expected solvable");
        };
        assert_eq!(c.lemma, "Lemma 3.7");
        // SM/Byz WV1 cites the SIMULATION lemma 4.13, not 3.16.
        let CellClass::Solvable(c) = cls(Model::SmByzantine, VC::WV1, 11, 10) else {
            panic!("expected solvable");
        };
        assert_eq!(c.lemma, "Lemma 4.13");
    }

    #[test]
    fn crash_solvable_cells_stay_solvable_in_shared_memory() {
        // SIMULATION direction: MP/CR solvable => SM/CR solvable.
        for v in VC::ALL {
            for k in (2..N).step_by(7) {
                for t in (1..=N).step_by(5) {
                    if is_solv(cls(Model::MpCrash, v, k, t)) {
                        assert!(is_solv(cls(Model::SmCrash, v, k, t)), "{v} k={k} t={t}");
                    }
                    if is_imp(cls(Model::SmCrash, v, k, t)) {
                        assert!(is_imp(cls(Model::MpCrash, v, k, t)), "{v} k={k} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn byzantine_impossible_contains_crash_impossible() {
        for (cr, byz) in [
            (Model::MpCrash, Model::MpByzantine),
            (Model::SmCrash, Model::SmByzantine),
        ] {
            for v in VC::ALL {
                for k in (2..N).step_by(7) {
                    for t in (1..=N).step_by(5) {
                        if is_imp(cls(cr, v, k, t)) {
                            assert!(is_imp(cls(byz, v, k, t)), "{v} k={k} t={t}");
                        }
                        if is_solv(cls(byz, v, k, t)) {
                            assert!(is_solv(cls(cr, v, k, t)), "{v} k={k} t={t}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn weaker_validity_is_never_harder() {
        use kset_core::lattice::Lattice;
        let lat = Lattice::paper();
        for model in Model::ALL {
            for c in VC::ALL {
                for d in VC::ALL {
                    if !lat.weaker_than(c, d) {
                        continue; // c weaker than d
                    }
                    for k in (2..N).step_by(9) {
                        for t in (1..=N).step_by(7) {
                            if is_solv(cls(model, d, k, t)) {
                                assert!(is_solv(cls(model, c, k, t)));
                            }
                            if is_imp(cls(model, c, k, t)) {
                                assert!(is_imp(cls(model, d, k, t)));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=n")]
    fn classify_rejects_k_zero() {
        let _ = classify(Model::MpCrash, VC::RV1, 4, 0, 1);
    }

    #[test]
    fn glyphs() {
        assert_eq!(cls(Model::MpCrash, VC::RV1, 5, 4).glyph(), 'o');
        assert_eq!(cls(Model::MpCrash, VC::RV1, 5, 5).glyph(), '#');
        assert_eq!(cls(Model::MpCrash, VC::SV2, 2, 16).glyph(), '.');
        assert!(cls(Model::MpCrash, VC::SV2, 2, 16).citation().is_none());
    }
}
