//! Integration of the analytic atlas with the empirical machinery: the
//! atlas's solvable cells validate empirically, and each impossibility
//! construction breaks its protocol exactly where the atlas says it must.

use kset::core::ValidityCondition;
use kset::regions::{classify, CellClass, Model};
use kset_experiments::cells::validate_cell;
use kset_experiments::counterexamples;

#[test]
fn every_solvable_cell_at_n7_validates_empirically() {
    // The full 4-model x 6-validity grid at a small n, 2 seeds per cell.
    // This is the integration-test twin of the `empirical_atlas` binary.
    let n = 7;
    let mut cells = 0;
    for model in Model::ALL {
        for validity in ValidityCondition::ALL {
            for k in 2..n {
                for t in 1..=n {
                    if let Some(v) = validate_cell(model, validity, n, k, t, 0..2).unwrap() {
                        assert!(
                            v.clean(),
                            "{model} {validity} k={k} t={t}: {:?}",
                            v.first_violation
                        );
                        cells += 1;
                    }
                }
            }
        }
    }
    assert!(
        cells > 200,
        "expected a substantial solvable region, got {cells}"
    );
}

#[test]
fn counterexamples_sit_in_impossible_or_open_territory() {
    // Each construction's (model, validity, k, t) must NOT be classified
    // solvable — otherwise the construction would contradict a lemma.
    let placements = [
        (Model::MpCrash, ValidityCondition::WV2, 6, 2, 4), // Lemma 3.3
        (Model::MpCrash, ValidityCondition::SV1, 4, 2, 1), // Lemma 3.5
        (Model::MpCrash, ValidityCondition::SV2, 4, 2, 2), // Lemma 3.6
        (Model::MpByzantine, ValidityCondition::WV2, 7, 2, 4), // Lemma 3.9
        (Model::MpByzantine, ValidityCondition::RV1, 4, 3, 1), // Lemma 3.10
        (Model::SmCrash, ValidityCondition::SV2, 6, 3, 3), // Lemma 4.3
        (Model::SmByzantine, ValidityCondition::RV2, 4, 2, 1), // Lemma 4.9
    ];
    for (model, validity, n, k, t) in placements {
        let cell = classify(model, validity, n, k, t);
        assert!(
            !matches!(cell, CellClass::Solvable(_)),
            "{model} {validity} n={n} k={k} t={t} must not be solvable, got {cell:?}"
        );
    }
}

#[test]
fn all_counterexamples_violate_their_predicted_property() {
    use kset_experiments::counterexamples::Violated;
    let list = counterexamples::all().unwrap();
    assert_eq!(list.len(), 8);
    let expected = [
        ("Lemma 3.3", Violated::Agreement),
        ("Lemma 3.5", Violated::Validity),
        ("Lemma 3.6", Violated::Agreement),
        ("Lemma 3.9", Violated::Agreement),
        ("Lemma 3.10", Violated::Validity),
        ("Lemma 3.14", Violated::Termination),
        ("Lemma 4.3", Violated::Agreement),
        ("Lemma 4.9", Violated::Validity),
    ];
    for (cx, (lemma, violated)) in list.iter().zip(expected) {
        assert_eq!(cx.lemma, lemma);
        assert_eq!(cx.violated, violated, "{lemma}");
        assert_ne!(cx.report, "ok", "{lemma} must be a genuine violation");
        // The checker's report agrees with the predicted class.
        let needle = match violated {
            Violated::Agreement => "agreement allows",
            Violated::Validity => "validity",
            Violated::Termination => "never decided",
        };
        assert!(
            cx.report.contains(needle),
            "{lemma}: report {:?} lacks {:?}",
            cx.report,
            needle
        );
    }
}

#[test]
fn atlas_census_matches_known_paper_counts_at_n64() {
    use kset::regions::Atlas;
    // Structural pins for the paper-scale figures. RV1 in MP/CR splits the
    // 62x64 grid exactly along t = k; RV2 leaves exactly 5 open points
    // (the divisors 2, 4, 8, 16, 32 of 64); SV1 is all-impossible.
    let atlas = Atlas::compute(Model::MpCrash, 64);
    let (s, i, o) = atlas.panel(ValidityCondition::SV1).census();
    assert_eq!((s, i, o), (0, 62 * 64, 0));

    let (_, _, o) = atlas.panel(ValidityCondition::RV1).census();
    assert_eq!(o, 0);
    let solvable_rv1: usize = (2..64).map(|k| (k - 1).min(64)).sum();
    let (s, _, _) = atlas.panel(ValidityCondition::RV1).census();
    assert_eq!(s, solvable_rv1);

    let (_, _, o) = atlas.panel(ValidityCondition::RV2).census();
    assert_eq!(o, 5, "open points are exactly the k | 64 boundary cells");
    let (_, _, o) = atlas.panel(ValidityCondition::WV2).census();
    assert_eq!(o, 5);
}
