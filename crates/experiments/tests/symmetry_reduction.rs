//! Symmetry reduction is an *optimization*, not a semantics change. The
//! checker runs on canonical (symmetry-reduced) digests exactly when a
//! cell's inputs repeat a value, and those cells must keep what plain
//! (id-sensitive) digests certified: verdict, worst agreement and the
//! shrunk counterexample's exact bytes. The literals were recorded with
//! plain digests; crash cells are also cross-validated against the
//! analytic enumerator.

use kset_core::ValidityCondition::{self, RV1, RV2, WV2};
use kset_experiments::checker::{
    check_cell, cross_validate, write_counterexample, AdversaryModel, CheckerConfig,
};
use kset_experiments::exhaustive::QuorumProtocol::{self, FloodMin, ProtocolA, ProtocolE};
use kset_sim::DigestMode;

/// Checks `cfg`, which must run on canonical digests, against the plain
/// digests' worst agreement and counterexample script (`None`: holds).
fn assert_pinned(cfg: &CheckerConfig, worst_agreement: usize, script: Option<&str>) {
    assert_eq!(cfg.digest(), DigestMode::Canonical, "{:?}", cfg.inputs);
    let v = check_cell(cfg);
    assert!(v.complete, "{v}");
    assert_eq!(
        (v.holds(), v.worst_agreement),
        (script.is_none(), worst_agreement),
        "{v}"
    );
    if let Some(script) = script {
        let path = std::env::temp_dir().join(format!(
            "kset-symmetry-{}-{}-{}{}{}.schedule",
            std::process::id(),
            cfg.protocol.name().replace(' ', ""),
            cfg.n,
            cfg.k,
            cfg.t,
        ));
        write_counterexample(&path, cfg, v.counterexample.as_ref().unwrap()).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert_eq!(text, script);
    }
    if cfg.deviation_policy().is_none() {
        assert_eq!(cross_validate(cfg, &v), Vec::<String>::new());
    }
}

/// A Byzantine frontier cell on unanimous inputs, forged-value menu `[0]`
/// (plus silence in message passing).
fn byzantine(
    protocol: QuorumProtocol,
    (n, k, t): (usize, usize, usize),
    validity: ValidityCondition,
    adversary: AdversaryModel,
) -> CheckerConfig {
    let mut cfg = CheckerConfig::new(protocol, n, k, t, validity);
    cfg.adversary = adversary;
    cfg.byz_menu = vec![0];
    cfg.byz_silence = adversary == AdversaryModel::MpByz;
    cfg.inputs = Some(vec![1; n]);
    cfg
}

/// A FloodMin RV1 crash cell on `inputs`.
fn crash(inputs: &[u64], k: usize, t: usize) -> CheckerConfig {
    let mut cfg = CheckerConfig::new(FloodMin, inputs.len(), k, t, RV1);
    cfg.inputs = Some(inputs.to_vec());
    cfg
}

#[test]
fn holding_cell_verdicts_agree_at_n3() {
    // Lemma 3.12, and a crash cell on repeated inputs.
    assert_pinned(
        &byzantine(ProtocolA, (3, 3, 1), WV2, AdversaryModel::MpByz),
        2,
        None,
    );
    assert_pinned(&crash(&[0, 1, 1], 2, 1), 2, None);
    // Lemma 4.10: minutes in the debug profile, so only when asked for.
    if std::env::var_os("KSET_SLOW_PARITY").is_some() {
        assert_pinned(
            &byzantine(ProtocolE, (3, 2, 2), WV2, AdversaryModel::SmByz),
            2,
            None,
        );
    }
}

#[test]
fn violated_cell_counterexamples_match_at_n3() {
    // Lemma 3.10: a forged 0 breaks FloodMin's RV1.
    assert_pinned(
        &byzantine(FloodMin, (3, 2, 1), RV1, AdversaryModel::MpByz),
        2,
        Some(
            "# kset model_check counterexample v2\n# protocol: FloodMin\n# n: 3\n# k: 2\n\
             # t: 1\n# validity: RV1\n# model: mp_byz\n# inputs: 1 1 1\n# byz-menu: 0\n\
             # byz-silence: true\n# loss-budget: 0\n# byzantine: 0\n# crashed:\n\
             # choices: 0 0 0 0 0 1\n# violation: validity RV1 violated: the decision of \
             any correct process is equal to the input of some process\n\
             0\n1\n2\n3\n4\n5 forge:0\n6\n9\n7\n10\n8\n",
        ),
    );
    // Lemma 4.6: a forged register read breaks Protocol E's RV2.
    assert_pinned(
        &byzantine(ProtocolE, (3, 2, 2), RV2, AdversaryModel::SmByz),
        2,
        Some(
            "# kset model_check counterexample v2\n# protocol: Protocol E\n# n: 3\n# k: 2\n\
             # t: 2\n# validity: RV2\n# model: sm_byz\n# inputs: 1 1 1\n# byz-menu: 0\n\
             # byz-silence: false\n# loss-budget: 0\n# byzantine: 0\n# crashed:\n\
             # choices: 0 0 0 0 0 0 0 0 0 0 0 0 1\n# violation: validity RV2 violated: \
             if all processes start with v then correct processes decide v\n\
             0\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12 forge:0\n13\n14\n",
        ),
    );
    assert_pinned(
        &crash(&[0, 1, 1], 1, 1),
        2,
        Some(
            "# kset model_check counterexample v2\n# protocol: FloodMin\n# n: 3\n# k: 1\n\
             # t: 1\n# validity: RV1\n# model: mp_crash\n# inputs: 0 1 1\n# byz-menu:\n\
             # byz-silence: false\n# loss-budget: 0\n# byzantine:\n# crashed:\n\
             # choices: 0 0 0 0 0 1 3 1 2 1 1\n\
             # violation: 2 distinct values decided, agreement allows 1\n\
             0\n1\n2\n3\n4\n6\n9\n7\n10\n8\n11\n",
        ),
    );
}

#[test]
fn violated_cell_counterexamples_match_at_n4() {
    // The default certification's violated cell, two processes sharing
    // an input.
    assert_pinned(
        &crash(&[0, 1, 2, 2], 2, 2),
        3,
        Some(
            "# kset model_check counterexample v2\n# protocol: FloodMin\n# n: 4\n# k: 2\n\
             # t: 2\n# validity: RV1\n# model: mp_crash\n# inputs: 0 1 2 2\n# byz-menu:\n\
             # byz-silence: false\n# loss-budget: 0\n# byzantine:\n# crashed:\n\
             # choices: 0 0 0 0 0 0 2 5 8 2 4 6 2 3 0 3 2 2\n\
             # violation: 3 distinct values decided, agreement allows 2\n\
             0\n1\n2\n3\n4\n5\n8\n12\n16\n9\n13\n17\n10\n14\n6\n18\n15\n19\n",
        ),
    );
}
