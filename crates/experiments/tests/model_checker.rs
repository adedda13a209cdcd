//! End-to-end certification of the schedule-space model checker against
//! the repo's other two verification routes.
//!
//! Three independent methods look at the same cells of the solvability
//! atlas:
//!
//! * `exhaustive` — analytic enumeration of reachable outcome vectors;
//! * `explorer::probe_cell` — seed-sampled adversarial runs of the real
//!   kernel;
//! * `checker` — systematic exploration of *every* schedule of the real
//!   kernel at small `n`.
//!
//! These tests pin the pairwise agreements at sizes small enough for CI.

use kset_core::{json, ValidityCondition};
use kset_experiments::checker::{
    check_cell, cross_validate, read_counterexample, replay_fired, write_counterexample,
    CheckerConfig,
};
use kset_experiments::exhaustive::QuorumProtocol;
use kset_experiments::explorer::probe_cell;
use kset_regions::Model;

#[test]
fn checker_and_exhaustive_agree_on_a_solvable_cell() {
    // FloodMin with t < k solves SC(k, t, RV1) — Lemma 3.1. Both routes
    // must report that it holds, with the same worst-case agreement per
    // crash pattern.
    let cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    let verdict = check_cell(&cfg);
    assert!(verdict.complete, "n = 3 must be exhaustible: {verdict}");
    assert!(verdict.holds(), "{verdict}");
    let disagreements = cross_validate(&cfg, &verdict);
    assert!(disagreements.is_empty(), "{disagreements:?}");
}

#[test]
fn checker_rediscovers_the_violation_that_seed_search_finds() {
    // SC(1, 1, RV1) (consensus with one crash) is impossible; the seed
    // explorer finds a violating run by sampling, the checker finds one
    // by systematic search. They must agree the cell is broken.
    let probe = probe_cell(Model::MpCrash, ValidityCondition::RV1, 3, 1, 1, 0..200)
        .expect("probe runs")
        .expect("cell is not solvable, so it is probed");
    assert!(
        probe.violations > 0,
        "seed search should find a violation: {probe:?}"
    );

    let cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let verdict = check_cell(&cfg);
    assert!(!verdict.holds(), "{verdict}");
    let ce = verdict
        .counterexample
        .as_ref()
        .expect("violated verdicts carry a counterexample");
    assert!(!ce.fired.is_empty());
}

#[test]
fn shrunk_counterexamples_replay_exactly_and_are_byte_stable() {
    let cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);

    // The exploration order is deterministic, so two independent searches
    // must shrink to the identical schedule...
    let first = check_cell(&cfg);
    let second = check_cell(&cfg);
    let ce1 = first.counterexample.expect("violated");
    let ce2 = second.counterexample.expect("violated");
    assert_eq!(ce1, ce2);

    // ...and the file written for it must be byte-identical across runs.
    let dir = std::env::temp_dir().join(format!("kset-model-checker-{}", std::process::id()));
    let path1 = dir.join("ce1.schedule");
    let path2 = dir.join("ce2.schedule");
    write_counterexample(&path1, &cfg, &ce1).expect("write");
    write_counterexample(&path2, &cfg, &ce2).expect("write");
    let bytes1 = std::fs::read(&path1).expect("read back");
    let bytes2 = std::fs::read(&path2).expect("read back");
    assert_eq!(bytes1, bytes2);
    assert!(!bytes1.is_empty());

    // The round-tripped script re-executes with zero divergence and still
    // violates the specification.
    let saved = read_counterexample(&path1).expect("parse");
    assert_eq!(saved.n, 3);
    assert_eq!(saved.counterexample.fired, ce1.fired);
    let (violation, divergences) = replay_fired(&saved);
    assert!(violation.is_some(), "replay must still violate");
    assert_eq!(divergences, 0, "replay must follow the script exactly");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_exploration_is_reported_as_incomplete_not_as_a_verdict() {
    // A run budget that truncates the search may not silently certify the
    // cell: `complete` must be false and cross-validation must refuse.
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.max_runs = 10;
    let verdict = check_cell(&cfg);
    assert!(!verdict.complete);
    let disagreements = cross_validate(&cfg, &verdict);
    assert_eq!(disagreements.len(), 1);
    assert!(disagreements[0].contains("bounded"), "{disagreements:?}");
}

#[test]
fn progress_lines_fire_on_patterns_longer_than_a_task() {
    // A task stops at 2048 runs, so `--progress 3000` fires only if it
    // counts a whole pattern: each of this cell's patterns runs past
    // 3 × 2048 schedules.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_model_check"))
        .args([
            "--protocol",
            "a",
            "--n",
            "3",
            "--k",
            "3",
            "--t",
            "1",
            "--validity",
            "WV2",
        ])
        .args([
            "--model",
            "mp_byz",
            "--byz-menu",
            "0",
            "--byz-silence",
            "--inputs",
            "1,1,1",
        ])
        .args(["--threads", "1", "--progress", "3000"])
        .output()
        .expect("run model_check");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let runs: Vec<u64> = stderr
        .lines()
        .map(|line| {
            let value = json::parse(line).expect(line);
            let fields = value.fields().expect(line);
            assert_eq!(
                fields.get::<String>("protocol").as_deref(),
                Ok("Protocol A"),
                "{line}"
            );
            for gauge in ["queued_tasks", "store_entries"] {
                fields.get::<u64>(gauge).expect(line);
            }
            fields.get::<u64>("runs").expect(line)
        })
        .collect();
    assert!(!runs.is_empty(), "no progress line: {stderr}");
    assert!(runs.iter().all(|&r| r >= 3000), "{runs:?}");
}
