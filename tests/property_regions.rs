//! Property tests over the atlas engine: the classification invariants
//! hold for every system size, not just the paper's n = 64.
//!
//! Runs on the in-tree `kset-prop` harness; a failure prints a
//! `KSET_PROP_SEED` replay line (see `ARCHITECTURE.md`).

use kset_prop::{in_range, prop_assert, prop_assert_eq, prop_assume, Runner};

use kset::core::lattice::Lattice;
use kset::core::ValidityCondition;
use kset::regions::gaps::GapReport;
use kset::regions::{classify, Atlas, CellClass, Model};

fn rank(c: CellClass) -> u8 {
    match c {
        CellClass::Impossible(_) => 0,
        CellClass::Open => 1,
        CellClass::Solvable(_) => 2,
    }
}

/// Classification is monotone in both axes for every n.
#[test]
fn monotone_in_k_and_t_for_all_n() {
    Runner::new("monotone_in_k_and_t_for_all_n")
        .cases(24)
        .run(in_range(3usize..28), |n| {
            for model in Model::ALL {
                for v in ValidityCondition::ALL {
                    for k in 2..n {
                        for t in 1..n {
                            let here = rank(classify(model, v, n, k, t));
                            let more_t = rank(classify(model, v, n, k, t + 1));
                            prop_assert!(more_t <= here, "{model} {v} n={n} k={k} t={t}");
                            if k + 1 < n {
                                let more_k = rank(classify(model, v, n, k + 1, t));
                                prop_assert!(more_k >= here, "{model} {v} n={n} k={k} t={t}");
                            }
                        }
                    }
                }
            }
            Ok(())
        });
}

/// Model-power and lattice propagation hold for every n: Byzantine
/// solvable  =>  crash solvable; SM impossible => MP impossible;
/// stronger-validity solvable => weaker-validity solvable.
#[test]
fn propagation_invariants_for_all_n() {
    Runner::new("propagation_invariants_for_all_n")
        .cases(24)
        .run(
            (
                in_range(3usize..22),
                in_range(0usize..8),
                in_range(0usize..8),
            ),
            |(n, k_off, t_off)| {
                let k = 2 + k_off % (n - 2).max(1);
                let t = 1 + t_off % n;
                prop_assume!(k < n && t <= n);
                let lat = Lattice::paper();
                for v in ValidityCondition::ALL {
                    let mp_cr = classify(Model::MpCrash, v, n, k, t);
                    let mp_byz = classify(Model::MpByzantine, v, n, k, t);
                    let sm_cr = classify(Model::SmCrash, v, n, k, t);
                    let sm_byz = classify(Model::SmByzantine, v, n, k, t);
                    // Failure containment.
                    if matches!(mp_byz, CellClass::Solvable(_)) {
                        prop_assert!(matches!(mp_cr, CellClass::Solvable(_)));
                    }
                    if matches!(sm_byz, CellClass::Solvable(_)) {
                        prop_assert!(matches!(sm_cr, CellClass::Solvable(_)));
                    }
                    // SIMULATION direction.
                    if matches!(mp_cr, CellClass::Solvable(_)) {
                        prop_assert!(matches!(sm_cr, CellClass::Solvable(_)));
                    }
                    if matches!(sm_cr, CellClass::Impossible(_)) {
                        prop_assert!(matches!(mp_cr, CellClass::Impossible(_)));
                    }
                    // Lattice propagation.
                    for w in ValidityCondition::ALL {
                        if lat.weaker_than(w, v)
                            && matches!(
                                classify(Model::MpCrash, v, n, k, t),
                                CellClass::Solvable(_)
                            )
                        {
                            prop_assert!(matches!(
                                classify(Model::MpCrash, w, n, k, t),
                                CellClass::Solvable(_)
                            ));
                        }
                    }
                }
                Ok(())
            },
        );
}

/// Panel censuses sum to the domain size, and gap reports agree with
/// the raw open-cell counts, for every n.
#[test]
fn census_and_gap_consistency() {
    Runner::new("census_and_gap_consistency")
        .cases(24)
        .run(in_range(3usize..20), |n| {
            for model in Model::ALL {
                let atlas = Atlas::compute(model, n);
                for panel in atlas.panels() {
                    let (s, i, o) = panel.census();
                    prop_assert_eq!(s + i + o, (n - 2) * n);
                    let gaps = GapReport::of(panel);
                    prop_assert_eq!(gaps.open_cells(), o);
                }
            }
            Ok(())
        });
}

/// Known always-true panel facts at every size: SV1 is all-impossible,
/// SM/CR RV2 and WV2 are all-solvable, Byzantine RV1 is all-impossible.
#[test]
fn structural_panel_facts() {
    Runner::new("structural_panel_facts")
        .cases(24)
        .run(in_range(3usize..24), |n| {
            let cells = (n - 2) * n;
            for model in Model::ALL {
                let atlas = Atlas::compute(model, n);
                let (_, i, _) = atlas.panel(ValidityCondition::SV1).census();
                prop_assert_eq!(i, cells, "{} SV1 must be all-impossible", model);
            }
            for v in [ValidityCondition::RV2, ValidityCondition::WV2] {
                let atlas = Atlas::compute(Model::SmCrash, n);
                let (s, _, _) = atlas.panel(v).census();
                prop_assert_eq!(s, cells, "SM/CR {} must be all-solvable", v);
            }
            for model in [Model::MpByzantine, Model::SmByzantine] {
                let atlas = Atlas::compute(model, n);
                let (_, i, _) = atlas.panel(ValidityCondition::RV1).census();
                prop_assert_eq!(i, cells, "{} RV1 must be all-impossible", model);
            }
            Ok(())
        });
}
