//! The line-based decoders fail closed: counterexample scripts (v1 and
//! v2) and campaign MANIFESTs round-trip through their writers, and every
//! truncation or single-byte corruption of a written file reads back as an
//! `InvalidData` error or as a value replay and `--resume` can run —
//! never as a panic, and never as a cell `CheckerConfig::validate`
//! rejects or a faulty process id outside `0..n`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use kset_core::ValidityCondition;
use kset_experiments::campaign::manifest::{
    manifest_path, read_manifest, write_manifest, CampaignStatus, Manifest,
};
use kset_experiments::checker::{
    read_counterexample, write_counterexample, AdversaryModel, CheckerConfig, Counterexample,
    SavedCounterexample,
};
use kset_experiments::exhaustive::QuorumProtocol;
use kset_prop::{in_range, prop_assert, prop_assert_eq, Runner};
use kset_sim::{Deviation, EventId};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kset_decoder_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recorded cells and their violations: a v1 crash script, and v2
/// scripts of Byzantine (MP and SM), lossy, and explicit-input cells.
fn scripts() -> Vec<(CheckerConfig, Counterexample)> {
    let fired = |deviations: &[(u64, Deviation)]| -> Vec<(EventId, Deviation)> {
        deviations.iter().map(|&(id, d)| (EventId::from_u64(id), d)).collect()
    };
    let crash = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let mut mp_byz = crash.clone();
    mp_byz.k = 2;
    mp_byz.adversary = AdversaryModel::MpByz;
    mp_byz.byz_menu = vec![0, 2];
    mp_byz.byz_silence = true;
    mp_byz.inputs = Some(vec![1, 1, 1]);
    let mut sm_byz =
        CheckerConfig::new(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::RV2);
    sm_byz.adversary = AdversaryModel::SmByz;
    sm_byz.byz_menu = vec![0];
    let mut lossy = crash.clone();
    lossy.k = 2;
    lossy.adversary = AdversaryModel::MpLossy;
    lossy.loss_budget = 1;
    let mut inputs = CheckerConfig::new(QuorumProtocol::ProtocolA, 4, 2, 1, ValidityCondition::WV2);
    inputs.inputs = Some(vec![2, 0, 1, 2]);
    let ce = |crashed: Vec<usize>, byzantine: Vec<usize>, fired| Counterexample {
        crashed,
        byzantine,
        choices: vec![0, 3, 1],
        fired,
        violation: "agreement violated: 2 distinct decisions".to_string(),
    };
    let faithful = fired(&[(0, Deviation::Faithful), (4, Deviation::Faithful), (7, Deviation::Faithful)]);
    vec![
        (crash, ce(vec![1], vec![], faithful.clone())),
        (
            mp_byz,
            ce(vec![], vec![2], fired(&[(0, Deviation::Faithful), (5, Deviation::Forge(0)), (9, Deviation::Drop)])),
        ),
        (sm_byz, ce(vec![0], vec![2], fired(&[(3, Deviation::Forge(0)), (11, Deviation::Faithful)]))),
        (lossy, ce(vec![2], vec![], fired(&[(1, Deviation::Drop), (6, Deviation::Faithful)]))),
        (inputs, ce(vec![3], vec![], faithful)),
    ]
}

/// What [`read_counterexample`] must return for a script written from
/// `cfg` and `ce`: v2 scripts record the cell's inputs explicitly.
fn expected(cfg: &CheckerConfig, ce: &Counterexample) -> SavedCounterexample {
    let v2 = cfg.adversary.is_byzantine() || cfg.adversary.is_lossy() || cfg.inputs.is_some();
    SavedCounterexample {
        protocol: cfg.protocol,
        n: cfg.n,
        k: cfg.k,
        t: cfg.t,
        validity: cfg.validity,
        adversary: cfg.adversary,
        inputs: v2.then(|| cfg.cell_inputs()),
        byz_menu: cfg.byz_menu.clone(),
        byz_silence: cfg.byz_silence,
        loss_budget: cfg.loss_budget,
        counterexample: ce.clone(),
    }
}

/// Manifests of a crash cell (no adversary keys), a Byzantine cell with
/// inputs, a lossy cell, and a bounded, finished crash campaign.
fn manifests() -> Vec<Manifest> {
    let (mp_byz, lossy) = (&scripts()[1].0, &scripts()[3].0);
    let crash = CheckerConfig::new(QuorumProtocol::FloodMin, 4, 2, 1, ValidityCondition::RV1);
    let mut bounded = CheckerConfig::new(QuorumProtocol::ProtocolF, 3, 3, 1, ValidityCondition::SV2);
    bounded.depth = 12;
    bounded.preemptions = Some(2);
    bounded.max_runs = 5_000;
    bounded.por = false;
    let mut finished = Manifest::new(&bounded, 3);
    finished.status = CampaignStatus::Holds;
    finished.resumes = 2;
    finished.checkpoints = 9;
    finished.runs = 4_321;
    finished.states = 1_234;
    finished.dedup_hits = 56;
    finished.sleep_skips = 78;
    finished.patterns_done = 4;
    finished.store_entries = 90;
    finished.store_log_bytes = 12_345;
    vec![
        Manifest::new(&crash, 16),
        Manifest::new(mp_byz, 4),
        Manifest::new(lossy, 2),
        finished,
    ]
}

/// Every script's bytes, as [`write_counterexample`] writes them.
fn script_bytes(dir: &Path) -> Vec<Vec<u8>> {
    let path = dir.join("written.schedule");
    scripts()
        .iter()
        .map(|(cfg, ce)| {
            write_counterexample(&path, cfg, ce).unwrap();
            fs::read(&path).unwrap()
        })
        .collect()
}

/// Every manifest's bytes, as [`write_manifest`] writes them.
fn manifest_bytes(dir: &Path) -> Vec<Vec<u8>> {
    manifests()
        .iter()
        .map(|manifest| {
            write_manifest(dir, manifest).unwrap();
            fs::read(manifest_path(dir)).unwrap()
        })
        .collect()
}

/// Reads `bytes` as a script: `Err` must be `InvalidData`, and an `Ok`
/// must hold a cell that validates and faulty ids below `n`.
fn script_fails_closed(path: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(path, bytes).unwrap();
    match read_counterexample(path) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
        Err(e) => Err(format!("wrong error kind: {e:?}")),
        Ok(saved) => {
            let cfg = CheckerConfig {
                adversary: saved.adversary,
                inputs: saved.inputs.clone(),
                byz_menu: saved.byz_menu.clone(),
                byz_silence: saved.byz_silence,
                loss_budget: saved.loss_budget,
                ..CheckerConfig::new(saved.protocol, saved.n, saved.k, saved.t, saved.validity)
            };
            cfg.validate()?;
            let ce = &saved.counterexample;
            match ce.crashed.iter().chain(&ce.byzantine).find(|&&p| p >= saved.n) {
                Some(p) => Err(format!("process {p} accepted at n = {}", saved.n)),
                None => Ok(()),
            }
        }
    }
}

/// Reads `bytes` as `dir`'s MANIFEST: `Err` must be `InvalidData`, and an
/// `Ok` must hold a cell that validates and at least one shard.
fn manifest_fails_closed(dir: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(manifest_path(dir), bytes).unwrap();
    match read_manifest(dir) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
        Err(e) => Err(format!("wrong error kind: {e:?}")),
        Ok(manifest) if manifest.shards == 0 => Err("zero shards accepted".to_string()),
        Ok(manifest) => manifest.checker_config().validate(),
    }
}

/// Checks `fails_closed` on every truncation of each file, and on every
/// replacement of one byte by a digit or a byte the formats give meaning
/// to (the corruptions that can turn a valid field into an invalid one).
fn every_truncation_and_field_corruption(
    files: &[Vec<u8>],
    mut fails_closed: impl FnMut(&[u8]) -> Result<(), String>,
) {
    const BYTES: &[u8] = b"0379 :#\n\xff";
    for bytes in files {
        for cut in 0..bytes.len() {
            if let Err(e) = fails_closed(&bytes[..cut]) {
                panic!("prefix {cut} of\n{}: {e}", String::from_utf8_lossy(bytes));
            }
        }
        for at in 0..bytes.len() {
            for &byte in BYTES {
                let mut corrupt = bytes.clone();
                corrupt[at] = byte;
                if let Err(e) = fails_closed(&corrupt) {
                    panic!("{:?}: {e}", String::from_utf8_lossy(&corrupt));
                }
            }
        }
    }
}

#[test]
fn counterexample_scripts_round_trip() {
    let dir = tmp_dir("script_round_trip");
    let path = dir.join("ce.schedule");
    for (cfg, ce) in scripts() {
        write_counterexample(&path, &cfg, &ce).unwrap();
        let saved = read_counterexample(&path).unwrap();
        assert_eq!(saved, expected(&cfg, &ce));
        // The writer is a function of the value it read back.
        let bytes = fs::read(&path).unwrap();
        let cfg = CheckerConfig {
            inputs: saved.inputs.clone(),
            ..cfg
        };
        write_counterexample(&path, &cfg, &saved.counterexample).unwrap();
        assert_eq!(fs::read(&path).unwrap(), bytes);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifests_round_trip() {
    let dir = tmp_dir("manifest_round_trip");
    for manifest in manifests() {
        write_manifest(&dir, &manifest).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), manifest);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn script_decoder_fails_closed() {
    let dir = tmp_dir("script_corruption");
    let files = script_bytes(&dir);
    let path = dir.join("corrupt.schedule");
    every_truncation_and_field_corruption(&files, |bytes| script_fails_closed(&path, bytes));
    let cases = (in_range(0..files.len()), in_range(0..usize::MAX), in_range(0u16..256));
    Runner::new("script_decoder_fails_closed_on_any_byte").cases(2048).run(
        cases,
        |(which, at, byte)| {
            let mut bytes = files[which].clone();
            let at = at % bytes.len();
            bytes[at] = byte as u8;
            let verdict = script_fails_closed(&path, &bytes);
            prop_assert!(verdict.is_ok(), "{verdict:?}");
            Ok(())
        },
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_decoder_fails_closed() {
    let dir = tmp_dir("manifest_corruption");
    let files = manifest_bytes(&dir);
    every_truncation_and_field_corruption(&files, |bytes| manifest_fails_closed(&dir, bytes));
    let cases = (in_range(0..files.len()), in_range(0..usize::MAX), in_range(0u16..256));
    Runner::new("manifest_decoder_fails_closed_on_any_byte").cases(2048).run(
        cases,
        |(which, at, byte)| {
            let mut bytes = files[which].clone();
            let at = at % bytes.len();
            bytes[at] = byte as u8;
            prop_assert_eq!(manifest_fails_closed(&dir, &bytes), Ok(()));
            Ok(())
        },
    );
    let _ = fs::remove_dir_all(&dir);
}
