//! Thread-count independence of the parallel exploration engine.
//!
//! The engine's contract (see `checker`'s module docs) is that worker
//! count is a pure throughput knob: verdicts, every aggregate counter
//! and the shrunk counterexample are functions of the task list alone,
//! never of worker timing. These tests pin that contract on a cell from
//! each side of the Lemma 3.1 frontier — one where the specification
//! holds (the full tree is explored and the counters summarize it) and
//! one where it is violated (early exit and shrinking are exercised).

use kset_core::ValidityCondition;
use kset_experiments::checker::{
    check_cell, check_cell_gauged, write_counterexample, CheckerConfig, ForkMode,
};
use kset_experiments::exhaustive::QuorumProtocol;

fn cell(k: usize, t: usize, threads: usize) -> CheckerConfig {
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, k, t, ValidityCondition::RV1);
    cfg.threads = threads;
    cfg
}

#[test]
fn holding_cell_verdict_is_thread_count_independent() {
    // FloodMin with t < k solves SC(k, t, RV1) — the solvable side of the
    // Lemma 3.1 frontier. Exhaustive certification must produce the same
    // counters serially and on four workers.
    let serial = check_cell(&cell(2, 1, 1));
    let parallel = check_cell(&cell(2, 1, 4));
    assert!(serial.complete && serial.holds(), "{serial}");
    assert_eq!(serial, parallel);
}

#[test]
fn fork_gauges_count_every_forked_run_at_any_thread_count() {
    // Every run past a pattern's canonical seed run starts on the forking
    // executor, by copying a snapshot or by taking one over; each task
    // runs on its own session, so the gauges follow the task list, not
    // the workers.
    let mut gauges = Vec::new();
    for threads in [1, 2] {
        let mut cfg = cell(2, 1, threads);
        cfg.fork = ForkMode::Auto;
        let (verdict, _, gauge) = check_cell_gauged(&cfg);
        assert!(verdict.complete && verdict.holds(), "{verdict}");
        let seed_runs = verdict.patterns.len() as u64;
        assert_eq!(
            gauge.resumes_copied + gauge.resumes_moved,
            verdict.runs - seed_runs,
            "{threads} thread(s): {gauge:?}"
        );
        assert!(gauge.snapshots > 0 && gauge.resumes_moved > 0, "{gauge:?}");
        gauges.push((gauge.snapshots, gauge.resumes_copied, gauge.resumes_moved));
    }
    assert_eq!(gauges[0], gauges[1], "fork gauges depend on the thread count");
}

#[test]
fn store_probe_gauges_follow_the_task_list_and_vanish_under_replay() {
    // The walk gate probes the frozen wave store, which every worker
    // count folds identically, so its probes and covers are the same at
    // any thread count; replay runs every schedule to termination and
    // its gate never probes.
    let mut gauges = Vec::new();
    for threads in [1, 2, 3] {
        let mut cfg = cell(2, 1, threads);
        cfg.fork = ForkMode::Auto;
        let (_, _, gauge) = check_cell_gauged(&cfg);
        assert!(
            gauge.store_hits > 0 && gauge.store_hits < gauge.store_probes,
            "{gauge:?}"
        );
        gauges.push((gauge.store_probes, gauge.store_hits));
    }
    assert!(
        gauges.iter().all(|&gauge| gauge == gauges[0]),
        "store gauges depend on the thread count: {gauges:?}"
    );
    let mut cfg = cell(2, 1, 2);
    cfg.fork = ForkMode::Replay;
    let (_, _, gauge) = check_cell_gauged(&cfg);
    assert_eq!((gauge.store_probes, gauge.store_hits), (0, 0));
}

#[test]
fn violated_cell_counterexample_is_byte_identical_across_thread_counts() {
    // SC(1, 1, RV1) is consensus with one crash — the impossible side of
    // the frontier. The violation, the chunk-aligned early exit, and the
    // shrunk replay script must all be thread-count independent.
    let serial = check_cell(&cell(1, 1, 1));
    let parallel = check_cell(&cell(1, 1, 4));
    assert!(!serial.holds(), "{serial}");
    assert_eq!(serial, parallel);

    // The emitted schedule files must be byte-identical, not merely
    // equal as structs.
    let dir = std::env::temp_dir().join(format!("kset-parallel-engine-{}", std::process::id()));
    let p1 = dir.join("serial.schedule");
    let p4 = dir.join("parallel.schedule");
    let ce1 = serial.counterexample.expect("violated");
    let ce4 = parallel.counterexample.expect("violated");
    write_counterexample(&p1, &cell(1, 1, 1), &ce1).expect("write");
    write_counterexample(&p4, &cell(1, 1, 4), &ce4).expect("write");
    let b1 = std::fs::read(&p1).expect("read back");
    let b4 = std::fs::read(&p4).expect("read back");
    assert!(!b1.is_empty());
    assert_eq!(b1, b4, "shrunk scripts must not depend on thread count");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversubscription_and_odd_thread_counts_agree_too() {
    // Worker counts far above the host's core count (and a count that
    // does not divide the wave size) still may not shift any counter.
    let baseline = check_cell(&cell(2, 1, 1));
    for threads in [3, 7, 32] {
        let other = check_cell(&cell(2, 1, threads));
        assert_eq!(baseline, other);
    }
}
