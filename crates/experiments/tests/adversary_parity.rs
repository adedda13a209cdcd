//! Adversary-space parity and invariance of the exploration engine.
//!
//! Two contracts:
//!
//! * **Inert deviation spaces are the crash checker.** A Byzantine
//!   adversary with an empty forging menu and no selective silence (or a
//!   lossy adversary with a zero drop budget) adds no branch points, so
//!   its verdicts, per-pattern counters, and counterexample schedules
//!   must be identical — field for field, and byte for byte in the
//!   schedule body — to the crash-only checker's, across every fork mode
//!   and thread count.
//! * **Active deviation spaces are execution-strategy-invariant.** A
//!   Byzantine or lossy cell's verdict, counters and recorded deviation
//!   script do not depend on `--fork-mode` or `--threads`, and a Byzantine
//!   cell survives a campaign kill/resume cycle bit-identically (the
//!   checkpoint codec round-trips Byzantine slots and deviations).

use std::fs;
use std::path::PathBuf;

use kset_core::ValidityCondition;
use kset_experiments::campaign::{
    resume_campaign, run_campaign, CampaignOptions, CampaignOutcome,
};
use kset_experiments::checker::{
    check_cell, write_counterexample, AdversaryModel, CellVerdict, CheckerConfig, ForkMode,
};
use kset_experiments::exhaustive::QuorumProtocol;

/// The schedule body of a counterexample file: everything after the
/// `# ...` header block. The headers necessarily name the adversary the
/// file was recorded under; the body is the schedule itself and must not
/// depend on an inert adversary label.
fn schedule_body(bytes: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(bytes).expect("schedule files are UTF-8");
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .flat_map(|line| line.bytes().chain(std::iter::once(b'\n')))
        .collect()
}

/// Pins that `deviant` explores exactly like plain `crash` — verdict,
/// counters, counterexample, schedule-body bytes — for every fork mode
/// and thread count.
fn assert_crash_parity(context: &str, crash: &CheckerConfig, deviant: &CheckerConfig) {
    let dir = std::env::temp_dir().join(format!(
        "kset_adversary_parity_{}_{context}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for mode in [ForkMode::Replay, ForkMode::Auto] {
        for threads in [1usize, 2] {
            let scoped = format!("{context} [{mode}, {threads} thread(s)]");
            let mut crash = crash.clone();
            crash.fork = mode;
            crash.threads = threads;
            let mut deviant = deviant.clone();
            deviant.fork = mode;
            deviant.threads = threads;
            let cv = check_cell(&crash);
            let dv = check_cell(&deviant);
            assert_eq!(dv, cv, "{scoped}");
            if let (Some(c), Some(d)) = (&cv.counterexample, &dv.counterexample) {
                let crash_path = dir.join(format!("crash_{mode}_{threads}.schedule"));
                let deviant_path = dir.join(format!("deviant_{mode}_{threads}.schedule"));
                write_counterexample(&crash_path, &crash, c).unwrap();
                write_counterexample(&deviant_path, &deviant, d).unwrap();
                assert_eq!(
                    schedule_body(&fs::read(&crash_path).unwrap()),
                    schedule_body(&fs::read(&deviant_path).unwrap()),
                    "{scoped}: schedule bodies differ"
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_menu_byzantine_matches_crash_on_message_passing() {
    // Both sides of the crash verdict: a holds cell and a violated cell.
    for (k, t) in [(2usize, 1usize), (1, 1)] {
        let crash = CheckerConfig::new(QuorumProtocol::FloodMin, 3, k, t, ValidityCondition::RV1);
        let mut byz = crash.clone();
        byz.adversary = AdversaryModel::MpByz;
        assert_crash_parity(&format!("mp_k{k}_t{t}"), &crash, &byz);
    }
}

#[test]
fn empty_menu_byzantine_matches_crash_on_shared_memory() {
    for (k, t) in [(2usize, 1usize), (1, 1)] {
        let crash = CheckerConfig::new(QuorumProtocol::ProtocolE, 3, k, t, ValidityCondition::RV1);
        let mut byz = crash.clone();
        byz.adversary = AdversaryModel::SmByz;
        assert_crash_parity(&format!("sm_k{k}_t{t}"), &crash, &byz);
    }
}

#[test]
fn zero_budget_lossy_matches_crash() {
    let crash = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let mut lossy = crash.clone();
    lossy.adversary = AdversaryModel::MpLossy;
    assert_crash_parity("lossy_zero", &crash, &lossy);
}

/// The canonical active MP/Byz cell of the certification run.
fn mp_byz_cell() -> CheckerConfig {
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.adversary = AdversaryModel::MpByz;
    cfg.byz_menu = vec![0];
    cfg.byz_silence = true;
    cfg.inputs = Some(vec![1, 1, 1]);
    cfg
}

#[test]
fn active_byzantine_cell_is_mode_and_thread_invariant() {
    let mut reference = mp_byz_cell();
    reference.fork = ForkMode::Replay;
    reference.threads = 1;
    let oracle = check_cell(&reference);
    assert!(!oracle.holds(), "the MP/Byz RV1 cell must be violated");
    let ce = oracle.counterexample.as_ref().expect("violation recorded");
    assert!(!ce.byzantine.is_empty());
    for mode in [ForkMode::Replay, ForkMode::Auto] {
        for threads in [1usize, 2, 4] {
            let mut cfg = mp_byz_cell();
            cfg.fork = mode;
            cfg.threads = threads;
            let verdict = check_cell(&cfg);
            assert_eq!(verdict, oracle, "mp_byz [{mode}, {threads} thread(s)]");
        }
    }
}

/// The lossy-network FloodMin RV1 cell with one message the network may
/// lose: violated (a lost message starves a correct process).
fn mp_lossy_cell() -> CheckerConfig {
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.adversary = AdversaryModel::MpLossy;
    cfg.loss_budget = 1;
    cfg
}

#[test]
fn active_lossy_cell_is_mode_and_thread_invariant() {
    // Verdict, counters and the v2 counterexample file — deviation script
    // included — must not depend on the executor or the thread count.
    let dir = std::env::temp_dir().join(format!(
        "kset_adversary_parity_lossy_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let write = |cfg: &CheckerConfig, verdict: &CellVerdict, name: &str| -> Vec<u8> {
        let ce = verdict.counterexample.as_ref().expect("violation recorded");
        let path = dir.join(name);
        write_counterexample(&path, cfg, ce).unwrap();
        fs::read(&path).unwrap()
    };
    let mut reference = mp_lossy_cell();
    reference.fork = ForkMode::Replay;
    reference.threads = 1;
    let oracle = check_cell(&reference);
    assert!(!oracle.holds(), "the MP/lossy RV1 cell must be violated");
    let oracle_bytes = write(&reference, &oracle, "oracle.schedule");
    assert!(
        std::str::from_utf8(&oracle_bytes).unwrap().contains("drop"),
        "the lossy counterexample must record its drop"
    );
    for mode in [ForkMode::Replay, ForkMode::Auto] {
        for threads in [1usize, 2] {
            let scoped = format!("mp_lossy [{mode}, {threads} thread(s)]");
            let mut cfg = mp_lossy_cell();
            cfg.fork = mode;
            cfg.threads = threads;
            let verdict = check_cell(&cfg);
            assert_eq!(verdict, oracle, "{scoped}");
            assert_eq!(
                write(&cfg, &verdict, &format!("{mode}_{threads}.schedule")),
                oracle_bytes,
                "{scoped}: counterexample bytes differ"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn byzantine_campaign_kill_resume_matches_in_memory_verdict() {
    // The checkpoint codec must round-trip Byzantine slots and recorded
    // deviations: a campaign paused at every checkpoint and resumed to
    // completion converges to the uninterrupted verdict bit-identically.
    let reference_cfg = mp_byz_cell();
    let reference = check_cell(&reference_cfg);

    let dir: PathBuf = std::env::temp_dir().join(format!(
        "kset_adversary_parity_campaign_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        checkpoint_every: 0,
        pause_after_checkpoints: Some(1),
    };
    let mut outcome = run_campaign(&reference_cfg, &dir, &opts).expect("campaign create");
    let mut interruptions = 0;
    let verdict = loop {
        match outcome {
            CampaignOutcome::Finished(verdict) => break *verdict,
            CampaignOutcome::Paused { .. } => {
                interruptions += 1;
                assert!(interruptions < 20_000, "campaign does not converge");
                outcome = resume_campaign(&reference_cfg, &dir, &opts).expect("campaign resume");
            }
        }
    };
    assert!(interruptions > 0, "the pause hook never fired");
    assert_eq!(verdict, reference, "byzantine campaign vs in-memory");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn campaign_rejects_invalid_adversary_configurations() {
    // The campaign door must apply the same validation as `check_cell`:
    // a substrate-mismatched adversary is an error, not a wrong-model
    // certification baked into a manifest.
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.adversary = AdversaryModel::SmByz;
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "kset_adversary_parity_invalid_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let err = run_campaign(&cfg, &dir, &CampaignOptions::default())
        .expect_err("invalid configuration must not start a campaign");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let _ = fs::remove_dir_all(&dir);
}
