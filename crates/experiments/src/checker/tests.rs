//! Unit tests of the checker: verdicts, shrinking, replay and the script
//! format on small cells.

use std::fs;

use kset_sim::{Deviation, DigestMode, FaultPlan};

use super::*;

fn cfg(
    protocol: QuorumProtocol,
    n: usize,
    k: usize,
    t: usize,
    validity: ValidityCondition,
) -> CheckerConfig {
    CheckerConfig::new(protocol, n, k, t, validity)
}

/// The in-memory form of `ce` as [`write_counterexample`] would save
/// it for `cfg`.
fn saved(cfg: &CheckerConfig, ce: Counterexample) -> SavedCounterexample {
    SavedCounterexample {
        protocol: cfg.protocol,
        n: cfg.n,
        k: cfg.k,
        t: cfg.t,
        validity: cfg.validity,
        adversary: cfg.adversary,
        inputs: cfg.inputs.clone(),
        byz_menu: cfg.byz_menu.clone(),
        byz_silence: cfg.byz_silence,
        loss_budget: cfg.loss_budget,
        counterexample: ce,
    }
}

#[test]
fn floodmin_n3_t1_k2_holds_and_matches_exhaustive() {
    let cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    let disagreements = cross_validate(&cfg, &check_cell(&cfg));
    assert!(disagreements.is_empty(), "{disagreements:?}");
}

#[test]
fn floodmin_consensus_with_crashes_is_violated_and_shrinks() {
    // k = 1 (consensus) with t = 1 is unsolvable (t >= k); the checker
    // must find a schedule with two distinct decisions.
    let cfg = cfg(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let verdict = check_cell(&cfg);
    assert!(!verdict.holds());
    let ce = verdict.counterexample.expect("violation found");
    assert!(ce.violation.contains("greement"), "{}", ce.violation);
    // The shrunk prefix still reproduces, and replay is exact.
    let saved = saved(&cfg, ce);
    let (_, violation) = replay_counterexample(&saved);
    assert!(violation.is_some());
    // The fired-id script replays exactly: zero divergences.
    let (violation, divergences) = replay_fired(&saved);
    assert!(violation.is_some());
    assert_eq!(divergences, 0);
}

#[test]
fn protocol_a_n3_t1_k2_rv2_matches_exhaustive() {
    let cfg = cfg(QuorumProtocol::ProtocolA, 3, 2, 1, ValidityCondition::RV2);
    let disagreements = cross_validate(&cfg, &check_cell(&cfg));
    assert!(disagreements.is_empty(), "{disagreements:?}");
}

#[test]
fn protocol_e_n3_t1_k2_rv2_matches_exhaustive() {
    // Shared-memory substrate: digests cover registers too.
    let cfg = cfg(QuorumProtocol::ProtocolE, 3, 2, 1, ValidityCondition::RV2);
    let disagreements = cross_validate(&cfg, &check_cell(&cfg));
    assert!(disagreements.is_empty(), "{disagreements:?}");
}

#[test]
fn reductions_do_not_change_the_verdict() {
    // The reduced and the raw tree must agree on worst agreement —
    // the soundness smoke test for sleep sets + dedup.
    let mut reduced = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    let mut raw = reduced.clone();
    raw.por = false;
    raw.dedup = false;
    raw.max_runs = 300_000;
    reduced.max_runs = 300_000;
    let rv = check_cell(&reduced);
    let bv = check_cell(&raw);
    assert!(rv.complete && bv.complete, "raise max_runs");
    assert_eq!(rv.worst_agreement, bv.worst_agreement);
    assert_eq!(rv.holds(), bv.holds());
    // And the reductions actually reduce.
    assert!(rv.runs < bv.runs, "{} !< {}", rv.runs, bv.runs);
    // Each reduction alone is sound too.
    for (por, dedup) in [(true, false), (false, true)] {
        let mut one = reduced.clone();
        one.por = por;
        one.dedup = dedup;
        let v = check_cell(&one);
        assert!(v.complete, "por={por} dedup={dedup}: raise max_runs");
        assert_eq!(v.worst_agreement, rv.worst_agreement, "por={por} dedup={dedup}");
    }
}

#[test]
fn empty_prefix_runs_the_canonical_schedule_to_termination() {
    for n in [4, 8, 16] {
        let run = execute_schedule(
            QuorumProtocol::FloodMin,
            &canonical_inputs(n),
            1,
            &FaultPlan::all_correct(n),
            None,
            &[],
            true,
            false,
        )
        .expect("schedule executes");
        assert!(run.terminated, "n = {n}");
    }
}

#[test]
fn counterexample_files_roundtrip_and_are_byte_stable() {
    let cfg = cfg(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let verdict = check_cell(&cfg);
    let ce = verdict.counterexample.expect("violation found");
    let dir = std::env::temp_dir().join("kset_checker_test");
    let path = dir.join("ce.schedule");
    write_counterexample(&path, &cfg, &ce).unwrap();
    let bytes1 = fs::read(&path).unwrap();
    let saved = read_counterexample(&path).unwrap();
    assert_eq!(saved.counterexample, ce);
    assert_eq!(saved.protocol, cfg.protocol);
    // A second full run of the checker emits the identical file.
    let verdict2 = check_cell(&cfg);
    write_counterexample(&path, &cfg, verdict2.counterexample.as_ref().unwrap()).unwrap();
    let bytes2 = fs::read(&path).unwrap();
    assert_eq!(bytes1, bytes2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_records_cover_each_explored_pattern() {
    let cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    let verdict = check_cell(&cfg);
    let records = to_run_records(&cfg, &verdict);
    // n = 3, t = 1: failure-free + one pattern per process.
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.protocol == "MC(FloodMin)"));
    assert!(records.iter().all(|r| r.outcome.clean()));
    assert!(records.iter().all(|r| r.metrics.is_some()));
}

#[test]
fn repeated_inputs_select_canonical_digests() {
    for n in 1..=5 {
        assert_eq!(digest_mode(&canonical_inputs(n)), DigestMode::Plain, "n = {n}");
    }
    assert_eq!(digest_mode(&[1, 1, 1]), DigestMode::Canonical);
    assert_eq!(digest_mode(&[0, 0, 1, 2]), DigestMode::Canonical);
    assert_eq!(digest_mode(&[2, 0, 1, 0]), DigestMode::Canonical);
    let mut cell = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    assert_eq!(cell.digest(), DigestMode::Plain);
    cell.inputs = Some(vec![1, 1, 1]);
    assert_eq!(cell.digest(), DigestMode::Canonical);
}

#[test]
fn depth_bound_marks_verdict_incomplete() {
    let mut shallow = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    shallow.depth = 1;
    let verdict = check_cell(&shallow);
    assert!(!verdict.complete);
}

#[test]
fn preemption_bound_zero_explores_fewer_schedules() {
    let full = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    let mut bounded = full.clone();
    bounded.preemptions = Some(0);
    let fv = check_cell(&full);
    let bv = check_cell(&bounded);
    assert!(bv.runs <= fv.runs);
}

#[test]
fn parsers_accept_the_documented_forms() {
    assert_eq!(parse_protocol("FloodMin"), Some(QuorumProtocol::FloodMin));
    assert_eq!(parse_protocol("protocol a"), Some(QuorumProtocol::ProtocolA));
    assert_eq!(parse_protocol("f"), Some(QuorumProtocol::ProtocolF));
    assert_eq!(parse_protocol("nonsense"), None);
    assert_eq!(parse_validity("rv1"), Some(ValidityCondition::RV1));
    assert_eq!(parse_validity("bogus"), None);
    assert_eq!(parse_adversary_model("mp_byz"), Some(AdversaryModel::MpByz));
    assert_eq!(parse_adversary_model("SM_BYZ"), Some(AdversaryModel::SmByz));
    assert_eq!(parse_adversary_model("mp_lossy"), Some(AdversaryModel::MpLossy));
    assert_eq!(parse_adversary_model("byzantine"), None);
}

/// The canonical MP/Byz violated cell: one Byzantine slot forging a 0
/// into all-equal proposals of 1 breaks RV1 for FloodMin (Lemma
/// 3.10), and the recorded deviation script replays exactly.
fn mp_byz_violated_cfg() -> CheckerConfig {
    let mut cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.adversary = AdversaryModel::MpByz;
    cfg.byz_menu = vec![0];
    cfg.byz_silence = true;
    cfg.inputs = Some(vec![1, 1, 1]);
    cfg
}

#[test]
fn byzantine_mp_cell_is_violated_and_replays_with_deviations() {
    let cfg = mp_byz_violated_cfg();
    let verdict = check_cell(&cfg);
    assert!(!verdict.holds());
    let ce = verdict.counterexample.expect("violation found");
    assert!(!ce.byzantine.is_empty(), "a Byzantine slot must be blamed");
    assert!(
        ce.fired.iter().any(|(_, d)| *d != Deviation::Faithful),
        "the script must record the deviation that broke the run: {:?}",
        ce.fired,
    );
    // The v2 file format round-trips the deviations and is byte-stable.
    let dir = std::env::temp_dir().join("kset_checker_byz_test");
    let path = dir.join("ce.schedule");
    write_counterexample(&path, &cfg, &ce).unwrap();
    let bytes1 = fs::read(&path).unwrap();
    let saved = read_counterexample(&path).unwrap();
    assert_eq!(saved.counterexample, ce);
    assert_eq!(saved.adversary, AdversaryModel::MpByz);
    assert_eq!(saved.byz_menu, vec![0]);
    assert!(saved.byz_silence);
    assert_eq!(saved.inputs, Some(vec![1, 1, 1]));
    write_counterexample(&path, &cfg, &ce).unwrap();
    assert_eq!(bytes1, fs::read(&path).unwrap());
    let _ = fs::remove_dir_all(&dir);
    // Both the choice-replay and the fired-script replay reproduce.
    let (_, violation) = replay_counterexample(&saved);
    assert!(violation.is_some());
    let (violation, divergences) = replay_fired(&saved);
    assert!(violation.is_some());
    assert_eq!(divergences, 0);
}

#[test]
fn byzantine_mp_weak_validity_cell_holds() {
    // Lemma 3.12: (k-1)(n-2t) >= n-t at (n,k,t) = (3,3,1), so
    // Protocol A solves SC(3, 1, WV2) against the same adversary that
    // breaks RV1 — the other side of the MP Byzantine frontier.
    let mut cfg = cfg(QuorumProtocol::ProtocolA, 3, 3, 1, ValidityCondition::WV2);
    cfg.adversary = AdversaryModel::MpByz;
    cfg.byz_menu = vec![0];
    cfg.byz_silence = true;
    cfg.inputs = Some(vec![1, 1, 1]);
    let verdict = check_cell(&cfg);
    assert!(verdict.complete, "exploration must exhaust the space");
    assert!(verdict.holds());
}

#[test]
fn byzantine_sm_strong_validity_cell_is_violated() {
    // Lemma 4.9: 2t >= n and t >= k at (n,k,t) = (3,2,2) makes RV2
    // unsolvable in SM/Byz; a forged register read breaks Protocol E.
    let mut cfg = cfg(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::RV2);
    cfg.adversary = AdversaryModel::SmByz;
    cfg.byz_menu = vec![0];
    cfg.inputs = Some(vec![1, 1, 1]);
    let verdict = check_cell(&cfg);
    assert!(!verdict.holds());
    let ce = verdict.counterexample.expect("violation found");
    assert!(!ce.byzantine.is_empty());
    let saved = saved(&cfg, ce);
    let (violation, divergences) = replay_fired(&saved);
    assert!(violation.is_some());
    assert_eq!(divergences, 0);
}

#[test]
fn lossy_adversary_quantifies_over_drops() {
    // One allowed drop starves FloodMin's t = 1 resilience: the
    // checker must find a schedule where a correct process never
    // decides, and the script must record the drop.
    let mut cfg = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.adversary = AdversaryModel::MpLossy;
    cfg.loss_budget = 1;
    let verdict = check_cell(&cfg);
    assert!(!verdict.holds());
    let ce = verdict.counterexample.expect("violation found");
    assert!(ce.byzantine.is_empty(), "lossy keeps the crash pattern space");
    assert!(
        ce.fired.iter().any(|(_, d)| *d == Deviation::Drop),
        "{:?}",
        ce.fired,
    );
}

#[test]
fn empty_deviation_menu_is_inert() {
    // A Byzantine adversary with nothing to forge and no silence is
    // the crash checker: identical verdict, counters and
    // counterexample (a companion of the parity suite in
    // `tests/adversary_parity.rs`).
    let crash = cfg(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let mut byz = crash.clone();
    byz.adversary = AdversaryModel::MpByz;
    let cv = check_cell(&crash);
    let bv = check_cell(&byz);
    assert_eq!(cv.runs, bv.runs);
    assert_eq!(cv.worst_agreement, bv.worst_agreement);
    assert_eq!(cv.counterexample, bv.counterexample);
}

#[test]
fn validate_rejects_inconsistent_adversaries() {
    let base = cfg(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    // Substrate mismatch: an SM adversary on an MP protocol.
    let mut bad = base.clone();
    bad.adversary = AdversaryModel::SmByz;
    assert!(bad.validate().is_err());
    // Byzantine knobs under a crash adversary.
    let mut bad = base.clone();
    bad.byz_menu = vec![0];
    assert!(bad.validate().is_err());
    // A loss budget without the lossy adversary.
    let mut bad = base.clone();
    bad.loss_budget = 2;
    assert!(bad.validate().is_err());
    // An input vector of the wrong arity.
    let mut bad = base.clone();
    bad.inputs = Some(vec![1, 1]);
    assert!(bad.validate().is_err());
}

#[test]
#[should_panic(expected = "invalid checker configuration")]
fn check_cell_refuses_an_unsupported_model_combination() {
    // Guard: an unsupported model must be a hard error at
    // the door, never a silently wrong-model certification.
    let mut cfg = cfg(QuorumProtocol::ProtocolE, 3, 2, 1, ValidityCondition::RV2);
    cfg.adversary = AdversaryModel::MpByz; // MP adversary, SM protocol
    let _ = check_cell(&cfg);
}

#[test]
#[should_panic(expected = "no deviation policy")]
fn byzantine_plan_without_policy_is_rejected() {
    // Guard: a Byzantine fault plan fed through the
    // crash-only execution path would silently certify crash
    // semantics under a Byzantine label.
    let inputs = canonical_inputs(3);
    let plan = kset_adversary::plans::first_t_byzantine(3, 1);
    let _ = execute_schedule(
        QuorumProtocol::FloodMin,
        &inputs,
        1,
        &plan,
        None,
        &[],
        true,
        false,
    );
}

#[test]
fn cross_validation_is_void_for_deviation_adversaries() {
    let cfg = mp_byz_violated_cfg();
    let verdict = check_cell(&cfg);
    let disagreements = cross_validate(&cfg, &verdict);
    assert_eq!(disagreements.len(), 1);
    assert!(disagreements[0].contains("comparison void"), "{disagreements:?}");
}
