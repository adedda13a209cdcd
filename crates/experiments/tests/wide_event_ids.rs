//! A checker cell whose runs allocate event ids of 64 and more.
//!
//! The visited table stores sleep sets as event-id bitmaps, one word per
//! 64 ids; the `n = 4` certification's runs stay below id 19, inside
//! one word. FloodMin at `n = 9`
//! fires 80 to 89 events per run, so its sleep sets need two-word
//! bitmaps. This suite pins that the cell really does, then checks that
//! a bounded exploration of it gives identical verdicts and counters
//! under the replay and forking executors, one and two threads, and in
//! memory and as a campaign whose checkpoints write and restore the
//! visited store.

use std::fs;

use kset_core::ValidityCondition;
use kset_experiments::campaign::{resume_campaign, run_campaign, CampaignOptions, CampaignOutcome};
use kset_experiments::checker::{
    check_cell, execute_schedule, CheckerConfig, ForkMode,
};
use kset_experiments::exhaustive::QuorumProtocol;

/// FloodMin SC(2, 1, RV1) at n = 9, bounded to 300 runs per crash
/// pattern.
fn wide_cell() -> CheckerConfig {
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 9, 2, 1, ValidityCondition::RV1);
    cfg.max_runs = 300;
    cfg
}

#[test]
fn every_pattern_allocates_event_ids_past_one_bitmap_word() {
    let cfg = wide_cell();
    for plan in cfg.fault_plans() {
        let run = execute_schedule(
            cfg.protocol,
            &cfg.cell_inputs(),
            cfg.t,
            &plan,
            None,
            &[],
            cfg.por,
            false,
        )
        .expect("valid configuration");
        let widest = run
            .log
            .fired_script()
            .iter()
            .map(|(id, _)| id.as_u64())
            .max();
        assert!(
            widest >= Some(64),
            "pattern {:?}: widest id {widest:?}",
            plan.faulty_set()
        );
    }
}

#[test]
fn wide_cell_is_identical_across_executors_threads_and_stores() {
    let mut oracle_cfg = wide_cell();
    oracle_cfg.fork = ForkMode::Replay;
    oracle_cfg.threads = 1;
    let oracle = check_cell(&oracle_cfg);
    assert!(!oracle.complete, "the bound must cut the exploration");
    assert!(
        oracle
            .patterns
            .iter()
            .all(|p| p.states > 0 && p.dedup_hits > 0),
        "every pattern must store and hit visited entries"
    );
    for (fork, threads) in [
        (ForkMode::Auto, 1),
        (ForkMode::Auto, 2),
        (ForkMode::Replay, 2),
    ] {
        let mut cfg = wide_cell();
        cfg.fork = fork;
        cfg.threads = threads;
        assert_eq!(check_cell(&cfg), oracle, "{fork}, {threads} thread(s)");
    }

    let dir = std::env::temp_dir().join(format!("kset_wide_event_ids_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        checkpoint_every: 500,
        pause_after_checkpoints: Some(1),
    };
    let mut cfg = wide_cell();
    cfg.threads = 2;
    let mut outcome = run_campaign(&cfg, &dir, &opts).expect("campaign");
    let mut pauses = 0;
    let verdict = loop {
        match outcome {
            CampaignOutcome::Finished(verdict) => break verdict,
            CampaignOutcome::Paused { .. } => {
                pauses += 1;
                outcome = resume_campaign(&cfg, &dir, &opts).expect("resume");
            }
        }
    };
    assert!(pauses > 0, "the campaign never checkpointed");
    assert_eq!(*verdict, oracle, "checkpointed campaign");
    let _ = fs::remove_dir_all(&dir);
}
