//! Fork-mode == replay-mode bit-identity of the exploration engine.
//!
//! The forking executor's contract (`CheckerConfig::fork`): execution
//! strategy is unobservable. For every cell, every thread count, every
//! configuration knob and both digest modes, `ForkMode::Auto` produces
//! verdicts, per-pattern counters, and counterexample bytes identical to
//! `ForkMode::Replay`, the same explorer with snapshots and early stops
//! off (every run from the root). This suite pins that on both substrates
//! (message passing and shared memory), across a deterministic
//! pseudo-random sweep of cells, inputs and configurations, and through a
//! campaign kill/resume cycle running on the forking executor. The forking
//! executor also stops runs at states the visited stores already cover,
//! which replay never does; `truncation_is_unobservable` pins that this
//! changes no observable either.

use std::fs;
use std::path::PathBuf;

use kset_core::ValidityCondition;
use kset_experiments::campaign::{resume_campaign, run_campaign, CampaignOptions, CampaignOutcome};
use kset_experiments::checker::{
    check_cell, check_cell_gauged, write_counterexample, AdversaryModel, CellVerdict,
    CheckerConfig, ForkMode,
};
use kset_experiments::exhaustive::QuorumProtocol;

/// xorshift64*: a tiny deterministic generator for the config sweep (the
/// suite must be reproducible — no entropy sources).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[test]
fn random_configurations_match_replay() {
    // A deterministic sweep over the configuration space: protocol,
    // cell shape, POR/dedup toggles, repeated inputs (1 in 3 cells, which
    // then run on canonical digests), run truncation, thread count. Every sampled point must be
    // mode-invariant — including truncated (incomplete) verdicts, where
    // the exact cut depends on run order and would expose any divergence
    // between the executors.
    let mut rng = XorShift(0x5eed_f0cc_5eed_f0cc);
    let protocols = [
        QuorumProtocol::FloodMin,
        QuorumProtocol::ProtocolA,
        QuorumProtocol::ProtocolB,
        QuorumProtocol::ProtocolE,
        QuorumProtocol::ProtocolF,
    ];
    for sample in 0..24 {
        let protocol = protocols[rng.below(protocols.len() as u64) as usize];
        let n = 3 + rng.below(2) as usize;
        let t = rng.below(n as u64 - 1) as usize;
        let k = 1 + rng.below(n as u64 - 1) as usize;
        let mut cfg = CheckerConfig::new(protocol, n, k, t, ValidityCondition::RV1);
        cfg.por = rng.below(4) != 0;
        cfg.dedup = rng.below(4) != 0;
        if rng.below(3) == 0 {
            // The last two processes share a value: canonical digests.
            cfg.inputs = Some((0..n as u64).map(|p| p.min(n as u64 - 2)).collect());
        }
        // The draws of the retired depth and preemption bounds, kept so
        // every other field of the 24 cells stays as it was drawn.
        if rng.below(3) == 0 {
            rng.below(8);
        }
        if rng.below(3) == 0 {
            rng.below(3);
        }
        cfg.max_runs = 500 + rng.below(4_000);
        cfg.threads = 1 + rng.below(3) as usize;
        let mut replay_cfg = cfg.clone();
        replay_cfg.fork = ForkMode::Replay;
        assert_eq!(
            check_cell(&cfg),
            check_cell(&replay_cfg),
            "sample {sample}: {protocol:?} n={n} k={k} t={t} por={} dedup={} inputs={:?} \
             max_runs={} threads={}",
            cfg.por,
            cfg.dedup,
            cfg.inputs,
            cfg.max_runs,
            cfg.threads
        );
    }
}

#[test]
fn counterexample_scripts_are_byte_identical() {
    // The violated n=4 cell of the default certification: the replay
    // scripts emitted under each mode must match byte for byte.
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 4, 2, 2, ValidityCondition::RV1);
    cfg.threads = 2;
    let dir = std::env::temp_dir().join(format!("kset_fork_parity_ce_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut scripts = Vec::new();
    for mode in [ForkMode::Replay, ForkMode::Auto] {
        let mut cfg = cfg.clone();
        cfg.fork = mode;
        let verdict = check_cell(&cfg);
        let ce = verdict.counterexample.as_ref().expect("cell is violated");
        let path = dir.join(format!("{mode}.schedule"));
        write_counterexample(&path, &cfg, ce).unwrap();
        scripts.push(fs::read(&path).unwrap());
    }
    assert_eq!(scripts[0], scripts[1], "auto script differs from replay");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn campaign_kill_resume_under_fork_mode() {
    // A campaign driven on the forking executor, killed at every checkpoint (the
    // deterministic pause hook) and resumed to completion, must converge
    // to the replay-mode in-memory verdict. Spilled continuations cross
    // the checkpoint boundary as replayable work items — this exercises
    // exactly the snapshot-shedding path of the fork executor's spill.
    let mut reference_cfg =
        CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    reference_cfg.threads = 1;
    reference_cfg.fork = ForkMode::Replay;
    let reference = check_cell(&reference_cfg);
    assert!(reference.holds());

    let dir: PathBuf =
        std::env::temp_dir().join(format!("kset_fork_parity_campaign_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut cfg = reference_cfg.clone();
    cfg.fork = ForkMode::Auto;
    let opts = CampaignOptions {
        checkpoint_every: 0,
        pause_after_checkpoints: Some(1),
    };
    let mut outcome = run_campaign(&cfg, &dir, &opts).expect("campaign create");
    let mut interruptions = 0;
    let verdict = loop {
        match outcome {
            CampaignOutcome::Finished(verdict) => break *verdict,
            CampaignOutcome::Paused { .. } => {
                interruptions += 1;
                assert!(interruptions < 20_000, "campaign does not converge");
                outcome = resume_campaign(&cfg, &dir, &opts).expect("campaign resume");
            }
        }
    };
    assert!(interruptions > 0, "the pause hook never fired");
    assert_eq!(verdict, reference, "forking campaign vs replay reference");
    let _ = fs::remove_dir_all(&dir);
}

/// The counterexample file of `verdict` as `cfg` writes it (v2 for the
/// deviation cells), or `None` when the cell holds.
fn counterexample_bytes(
    dir: &std::path::Path,
    cfg: &CheckerConfig,
    verdict: &CellVerdict,
) -> Option<Vec<u8>> {
    let ce = verdict.counterexample.as_ref()?;
    let path = dir.join("cell.schedule");
    write_counterexample(&path, cfg, ce).unwrap();
    Some(fs::read(&path).unwrap())
}

#[test]
fn truncation_is_unobservable() {
    // Auto stops runs at covered states; replay runs every schedule to
    // termination. Across crash, Byzantine and lossy cells, on plain and
    // canonical digests, in memory at one and two threads and as a
    // campaign, the two must agree on every verdict
    // field and counterexample byte — and truncation must actually have
    // fired.
    let mut cells: Vec<(String, CheckerConfig)> = Vec::new();
    for (protocol, n, k, t) in [
        (QuorumProtocol::FloodMin, 3, 2, 1),
        (QuorumProtocol::FloodMin, 3, 1, 1),
        (QuorumProtocol::FloodMin, 4, 3, 2),
        (QuorumProtocol::FloodMin, 4, 2, 2), // violated
        (QuorumProtocol::ProtocolA, 3, 2, 1),
        (QuorumProtocol::ProtocolB, 3, 2, 1),
        (QuorumProtocol::ProtocolE, 3, 2, 1),
        (QuorumProtocol::ProtocolE, 3, 1, 1),
        (QuorumProtocol::ProtocolF, 3, 2, 1),
        (QuorumProtocol::ProtocolF, 3, 1, 1),
    ] {
        let mut cfg = CheckerConfig::new(protocol, n, k, t, ValidityCondition::RV1);
        cfg.max_runs = 30_000;
        cells.push((format!("{protocol:?} n={n} k={k} t={t}"), cfg));
    }
    // Repeated inputs run on canonical digests: a holding and a violated
    // crash cell.
    for (k, t) in [(2, 1), (1, 1)] {
        let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, k, t, ValidityCondition::RV1);
        cfg.inputs = Some(vec![0, 1, 1]);
        cells.push((format!("FloodMin n=3 k={k} t={t} inputs 0,1,1"), cfg));
    }
    // Lemma 4.9: a forged register read breaks Protocol E's RV2.
    let mut sm_byz = CheckerConfig::new(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::RV2);
    sm_byz.adversary = AdversaryModel::SmByz;
    sm_byz.byz_menu = vec![0];
    sm_byz.inputs = Some(vec![1, 1, 1]);
    cells.push(("ProtocolE n=3 k=2 t=2 RV2 sm_byz".into(), sm_byz));
    let mut lossy = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    lossy.adversary = AdversaryModel::MpLossy;
    lossy.loss_budget = 1;
    cells.push(("FloodMin n=3 k=2 t=1 mp_lossy".into(), lossy));

    let dir: PathBuf = std::env::temp_dir().join(format!(
        "kset_fork_parity_truncation_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut violated = 0;
    let mut truncated_cells = 0;
    for (name, cell) in &cells {
        let mut truncated_runs = 0;
        let mut replay_cfg = cell.clone();
        replay_cfg.fork = ForkMode::Replay;
        replay_cfg.threads = 1;
        let (oracle, _, replay_gauge) = check_cell_gauged(&replay_cfg);
        assert_eq!(
            replay_gauge.truncated_runs, 0,
            "{name}: replay truncated a run"
        );
        assert_eq!(replay_gauge.snapshots, 0, "{name}: replay took a snapshot");
        let oracle_bytes = counterexample_bytes(&dir, &replay_cfg, &oracle);
        violated += usize::from(oracle_bytes.is_some());
        for threads in [1, 2] {
            let context = format!("{name} [auto, {threads} thread(s)]");
            let mut cfg = cell.clone();
            cfg.fork = ForkMode::Auto;
            cfg.threads = threads;
            let (verdict, _, gauge) = check_cell_gauged(&cfg);
            assert_eq!(verdict, oracle, "{context}");
            assert_eq!(
                counterexample_bytes(&dir, &cfg, &verdict),
                oracle_bytes,
                "{context}: counterexample bytes differ"
            );
            truncated_runs += gauge.truncated_runs;
        }
        let mut cfg = cell.clone();
        cfg.fork = ForkMode::Auto;
        cfg.threads = 2;
        let campaign_dir = dir.join("campaign");
        let _ = fs::remove_dir_all(&campaign_dir);
        let opts = CampaignOptions {
            checkpoint_every: u64::MAX,
            pause_after_checkpoints: None,
        };
        let CampaignOutcome::Finished(verdict) =
            run_campaign(&cfg, &campaign_dir, &opts).expect("campaign")
        else {
            panic!("{name}: an unpaused campaign paused");
        };
        // Every cell whose walk cut a run somewhere must have stopped a
        // forked run early. The RV1 cells of Protocols A, B, E and F
        // violate on their root run, so they never fork.
        let dedup_hits: u64 = oracle.patterns.iter().map(|p| p.dedup_hits).sum();
        assert_eq!(
            truncated_runs > 0,
            dedup_hits > 0,
            "{name}: {truncated_runs} truncated runs against {dedup_hits} dedup hits"
        );
        truncated_cells += usize::from(truncated_runs > 0);
        let context = format!("{name} [campaign]");
        assert_eq!(*verdict, oracle, "{context}");
        assert_eq!(
            counterexample_bytes(&dir, &cfg, &verdict),
            oracle_bytes,
            "{context}: counterexample bytes differ"
        );
    }
    assert!(violated >= 3, "the violated cells lost their violations");
    assert_eq!(truncated_cells, 8, "cells that truncated a run");
    let _ = fs::remove_dir_all(&dir);
}
