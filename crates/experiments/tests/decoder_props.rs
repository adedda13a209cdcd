//! The campaign and counterexample decoders fail closed: counterexample
//! scripts (v1 and v2) and campaign MANIFESTs round-trip through their
//! writers, and every truncation or single-byte corruption of a written
//! file reads back as an `InvalidData` error or as a value replay and
//! `--resume` can run — never as a panic, and never as a cell
//! `CheckerConfig::validate` rejects or a faulty process id outside
//! `0..n`. A campaign snapshot holding a visited store resumes to the
//! uninterrupted verdict, and `--resume` refuses every truncation and
//! single-byte corruption of it, a malformed store record under a valid
//! checksum, and a directory an earlier format wrote, changing no file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use kset_core::ValidityCondition;
use kset_experiments::campaign::manifest::{
    manifest_path, read_manifest, write_manifest, CampaignStatus, Manifest,
};
use kset_experiments::campaign::{
    resume_campaign, run_campaign, CampaignOptions, CampaignOutcome, UnsupportedVersion,
};
use kset_experiments::checker::{
    check_cell, read_counterexample, write_counterexample, AdversaryModel, CheckerConfig,
    Counterexample, SavedCounterexample,
};
use kset_experiments::exhaustive::QuorumProtocol;
use kset_prop::{in_range, prop_assert, prop_assert_eq, Runner};
use kset_sim::{Deviation, EventId};

mod common;
use common::tree_bytes;

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
        deviations
            .iter()
            .map(|&(id, d)| (EventId::from_u64(id), d))
            .collect()
    };
    let crash = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let mut mp_byz = crash.clone();
    mp_byz.k = 2;
    mp_byz.adversary = AdversaryModel::MpByz;
    mp_byz.byz_menu = vec![0, 2];
    mp_byz.byz_silence = true;
    mp_byz.inputs = Some(vec![1, 1, 1]);
    let mut sm_byz = CheckerConfig::new(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::RV2);
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
    let faithful = fired(&[
        (0, Deviation::Faithful),
        (4, Deviation::Faithful),
        (7, Deviation::Faithful),
    ]);
    vec![
        (crash, ce(vec![1], vec![], faithful.clone())),
        (
            mp_byz,
            ce(
                vec![],
                vec![2],
                fired(&[
                    (0, Deviation::Faithful),
                    (5, Deviation::Forge(0)),
                    (9, Deviation::Drop),
                ]),
            ),
        ),
        (
            sm_byz,
            ce(
                vec![0],
                vec![2],
                fired(&[(3, Deviation::Forge(0)), (11, Deviation::Faithful)]),
            ),
        ),
        (
            lossy,
            ce(
                vec![2],
                vec![],
                fired(&[(1, Deviation::Drop), (6, Deviation::Faithful)]),
            ),
        ),
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
/// inputs, a lossy cell, and a finished crash campaign of a cell with a
/// run bound, as it finished holding and as `--max-runs` cut it short.
fn manifests() -> Vec<Manifest> {
    let (mp_byz, lossy) = (&scripts()[1].0, &scripts()[3].0);
    let crash = CheckerConfig::new(QuorumProtocol::FloodMin, 4, 2, 1, ValidityCondition::RV1);
    let mut bounded =
        CheckerConfig::new(QuorumProtocol::ProtocolF, 3, 3, 1, ValidityCondition::SV2);
    bounded.max_runs = 5_000;
    bounded.por = false;
    let mut finished = Manifest::new(&bounded, 1_000);
    finished.status = CampaignStatus::Holds;
    finished.resumes = 2;
    finished.checkpoints = 9;
    finished.runs = 4_321;
    finished.states = 1_234;
    finished.dedup_hits = 56;
    finished.sleep_skips = 78;
    finished.patterns_done = 4;
    finished.store_entries = 90;
    finished.checkpoint_bytes = 12_345;
    finished.checkpoint_ms = 67;
    let mut cut_short = finished.clone();
    cut_short.status = CampaignStatus::Bounded;
    cut_short.bound = Some("--max-runs 5000".to_string());
    vec![
        Manifest::new(&crash, 250_000),
        Manifest::new(mp_byz, 0),
        Manifest::new(lossy, 250_000),
        finished,
        cut_short,
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
            match ce
                .crashed
                .iter()
                .chain(&ce.byzantine)
                .find(|&&p| p >= saved.n)
            {
                Some(p) => Err(format!("process {p} accepted at n = {}", saved.n)),
                None => Ok(()),
            }
        }
    }
}

/// Reads `bytes` as `dir`'s MANIFEST: `Err` must be `InvalidData`, and an
/// `Ok` must hold a cell that validates.
fn manifest_fails_closed(dir: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(manifest_path(dir), bytes).unwrap();
    match read_manifest(dir) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
        Err(e) => Err(format!("wrong error kind: {e:?}")),
        Ok(manifest) => manifest.config.validate(),
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
    let cases = (
        in_range(0..files.len()),
        in_range(0..usize::MAX),
        in_range(0u16..256),
    );
    Runner::new("script_decoder_fails_closed_on_any_byte")
        .cases(2048)
        .run(cases, |(which, at, byte)| {
            let mut bytes = files[which].clone();
            let at = at % bytes.len();
            bytes[at] = byte as u8;
            let verdict = script_fails_closed(&path, &bytes);
            prop_assert!(verdict.is_ok(), "{verdict:?}");
            Ok(())
        });
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_decoder_fails_closed() {
    let dir = tmp_dir("manifest_corruption");
    let files = manifest_bytes(&dir);
    every_truncation_and_field_corruption(&files, |bytes| manifest_fails_closed(&dir, bytes));
    let cases = (
        in_range(0..files.len()),
        in_range(0..usize::MAX),
        in_range(0u16..256),
    );
    Runner::new("manifest_decoder_fails_closed_on_any_byte")
        .cases(2048)
        .run(cases, |(which, at, byte)| {
            let mut bytes = files[which].clone();
            let at = at % bytes.len();
            bytes[at] = byte as u8;
            prop_assert_eq!(manifest_fails_closed(&dir, &bytes), Ok(()));
            Ok(())
        });
    let _ = fs::remove_dir_all(&dir);
}

/// The checksum a snapshot ends with: FNV-1a over its little-endian
/// words.
fn checksum(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The n = 3 FloodMin holds cell, one worker, each task memoizing at
/// most 8 states: that keeps the store, and each snapshot, a few KiB, so
/// every truncation and corruption of one can be resumed.
fn snapshot_cell() -> CheckerConfig {
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.threads = 1;
    cfg.max_states = 8;
    cfg
}

/// Pauses at every wave and pattern boundary.
fn pause_at_every_checkpoint() -> CampaignOptions {
    CampaignOptions {
        checkpoint_every: 0,
        pause_after_checkpoints: Some(1),
    }
}

/// Creates a campaign of [`snapshot_cell`] in `dir`, paused at its first
/// checkpoint: a wave barrier, so its snapshot holds the in-progress
/// pattern's visited store. Returns the snapshot's bytes.
fn paused_with_a_store(dir: &Path) -> Vec<u8> {
    let _ = fs::remove_dir_all(dir);
    let outcome = run_campaign(&snapshot_cell(), dir, &pause_at_every_checkpoint()).unwrap();
    assert!(matches!(outcome, CampaignOutcome::Paused { .. }));
    let manifest = read_manifest(dir).unwrap();
    assert!(manifest.store_entries > 0, "the snapshot holds no store");
    fs::read(dir.join("snapshot.bin")).unwrap()
}

/// Writes `bytes` as `dir`'s snapshot and resumes: the resume must fail
/// with `InvalidData` and leave every file of `dir` as it was.
fn resume_fails_closed(dir: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(dir.join("snapshot.bin"), bytes).unwrap();
    let before = tree_bytes(dir);
    let err = match resume_campaign(&snapshot_cell(), dir, &pause_at_every_checkpoint()) {
        Ok(_) => return Err("a corrupt snapshot resumed".to_string()),
        Err(e) => e,
    };
    if err.kind() != io::ErrorKind::InvalidData {
        return Err(format!("wrong error kind: {err:?}"));
    }
    if tree_bytes(dir) != before {
        return Err(format!("the refused resume changed the campaign: {err}"));
    }
    Ok(())
}

#[test]
fn snapshots_with_a_store_round_trip() {
    // Every checkpoint of the campaign, most of them at wave barriers with
    // a store, is read back by the next resume; the campaign ends at the
    // verdict of the uninterrupted check.
    let dir = tmp_dir("snapshot_round_trip");
    paused_with_a_store(&dir);
    let mut resumes = 0;
    let verdict = loop {
        match resume_campaign(&snapshot_cell(), &dir, &pause_at_every_checkpoint()).unwrap() {
            CampaignOutcome::Finished(verdict) => break verdict,
            CampaignOutcome::Paused { .. } => resumes += 1,
        }
    };
    assert!(resumes > 0);
    assert_eq!(*verdict, check_cell(&snapshot_cell()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_decoder_fails_closed() {
    let dir = tmp_dir("snapshot_corruption");
    let good = paused_with_a_store(&dir);
    for cut in 0..good.len() {
        if let Err(e) = resume_fails_closed(&dir, &good[..cut]) {
            panic!("prefix {cut}: {e}");
        }
    }
    for at in 0..good.len() {
        let mut corrupt = good.clone();
        corrupt[at] ^= 0x5a;
        if let Err(e) = resume_fails_closed(&dir, &corrupt) {
            panic!("byte {at}: {e}");
        }
    }
    let cases = (in_range(0..good.len()), in_range(1u16..256));
    Runner::new("snapshot_decoder_fails_closed_on_any_byte")
        .cases(512)
        .run(cases, |(at, flip)| {
            let mut corrupt = good.clone();
            corrupt[at] ^= flip as u8;
            prop_assert_eq!(resume_fails_closed(&dir, &corrupt), Ok(()));
            Ok(())
        });
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_store_records_are_refused_under_a_valid_checksum() {
    // The store's records fill the snapshot's body after the task queue;
    // each record below is appended there and the checksum recomputed.
    let dir = tmp_dir("snapshot_records");
    let good = paused_with_a_store(&dir);
    let body = &good[..good.len() - 8];
    // Fingerprints of the store's first and last shard (of 64).
    let (first, last) = (0u64, 63u64 << 32);
    let malformed: [(&str, Vec<u64>); 9] = [
        ("no bucket length", vec![last]),
        ("bucket past the end", vec![last, 1_000, 1, 0b101]),
        ("empty bucket", vec![last, 0]),
        ("width past 8 words", vec![last, 2, 9, 1]),
        ("ragged bitmaps", vec![last, 4, 2, 1, 2, 3]),
        ("id list past the bucket", vec![last, 3, 0, 5, 600]),
        ("descending ids", vec![last, 4, 0, 2, 700, 600]),
        ("shard out of order", vec![first, 2, 1, 0b11]),
        ("an id no run creates", vec![last, 3, 0, 1, 1 << 40]),
    ];
    for (what, words) in malformed {
        let tail: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut bytes = [body, &tail].concat();
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        if let Err(e) = resume_fails_closed(&dir, &bytes) {
            panic!("{what}: {e}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Runs `model_check --campaign-dir dir --resume` and asserts a refusal:
/// exit 2, nothing on stdout, `needle` on stderr, and no file of `dir`
/// changed.
fn assert_resume_refused(dir: &Path, needle: &str) {
    let before = tree_bytes(dir);
    let resume = Command::new(env!("CARGO_BIN_EXE_model_check"))
        .arg("--campaign-dir")
        .arg(dir)
        .args(["--resume", "--threads", "1"])
        .output()
        .expect("resume campaign");
    assert_eq!(resume.status.code(), Some(2), "{resume:?}");
    assert!(resume.stdout.is_empty(), "{resume:?}");
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert!(stderr.contains(needle), "{stderr}");
    assert_eq!(
        tree_bytes(dir),
        before,
        "the refused resume changed the campaign"
    );
}

#[test]
fn model_check_resume_refuses_a_corrupt_snapshot_and_changes_nothing() {
    let dir = tmp_dir("cli_corrupt_snapshot");
    let mut bytes = paused_with_a_store(&dir);
    let at = bytes.len() / 2;
    bytes[at] ^= 1;
    fs::write(dir.join("snapshot.bin"), &bytes).unwrap();
    assert_resume_refused(&dir, "checksum mismatch");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn model_check_resume_refuses_a_directory_of_the_append_log_store() {
    // What the append-log store left behind: a MANIFEST v1 with `shards`
    // and `store_log_bytes`, a snapshot v2 of log coordinates, and one
    // append log per shard.
    let dir = tmp_dir("cli_old_format");
    let manifest = "# kset campaign manifest v1\nprotocol: FloodMin\nn: 3\nk: 2\nt: 1\n\
        validity: RV1\nsymmetry: false\ndepth: unbounded\npreemptions: unbounded\n\
        max_runs: 10000000\nmax_states: 4194304\npor: true\ndedup: true\nshards: 16\n\
        config_digest: 55df527f019effa4\nstatus: running\nresumes: 0\ncheckpoints: 1\n\
        runs: 5639\nstates: 5358\ndedup_hits: 5000\nsleep_skips: 3246\n\
        patterns_done: 1\nstore_entries: 0\nstore_log_bytes: 0\n";
    fs::write(manifest_path(&dir), manifest).unwrap();
    let mut snapshot = b"KSETCKPT".to_vec();
    for word in [2, 0x55df_527f_019e_ffa4, 1, 16]
        .into_iter()
        .chain([0; 16])
        .chain([0, 0])
    {
        snapshot.extend_from_slice(&u64::to_le_bytes(word));
    }
    let sum = checksum(&snapshot);
    snapshot.extend_from_slice(&sum.to_le_bytes());
    fs::write(dir.join("snapshot.bin"), &snapshot).unwrap();
    for shard in 0..16 {
        fs::write(dir.join(format!("shard-{shard:03}.gen-1.log")), []).unwrap();
    }
    let err = read_manifest(&dir).unwrap_err();
    let skew = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<UnsupportedVersion>());
    assert_eq!(
        skew.map(|skew| (skew.found, skew.supported)),
        Some((1, 3)),
        "{err}"
    );
    assert_resume_refused(&dir, "unsupported format version 1");
    let _ = fs::remove_dir_all(&dir);

    // What the format with the depth and preemption bounds left behind: a
    // MANIFEST v2 recording both, and a snapshot v3 whose work items
    // carry a preemption count.
    let dir = tmp_dir("cli_bounds_format");
    let manifest = "# kset campaign manifest v2\nprotocol: FloodMin\nn: 3\nk: 2\nt: 1\n\
        validity: RV1\nsymmetry: false\ndepth: unbounded\npreemptions: unbounded\n\
        max_runs: 10000000\nmax_states: 4194304\npor: true\ndedup: true\n\
        config_digest: 55df527f019effa4\nstatus: running\nbound: none\nresumes: 0\n\
        checkpoints: 1\nruns: 5639\nstates: 5358\ndedup_hits: 5000\nsleep_skips: 3246\n\
        patterns_done: 1\nstore_entries: 0\ncheckpoint_bytes: 400\ncheckpoint_ms: 1\n";
    fs::write(manifest_path(&dir), manifest).unwrap();
    let mut snapshot = b"KSETCKPT".to_vec();
    for word in [3, 0x55df_527f_019e_ffa4, 0, 0] {
        snapshot.extend_from_slice(&u64::to_le_bytes(word));
    }
    let sum = checksum(&snapshot);
    snapshot.extend_from_slice(&sum.to_le_bytes());
    fs::write(dir.join("snapshot.bin"), &snapshot).unwrap();
    let err = read_manifest(&dir).unwrap_err();
    let skew = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<UnsupportedVersion>());
    assert_eq!(
        skew.map(|skew| (skew.found, skew.supported)),
        Some((2, 3)),
        "{err}"
    );
    assert_resume_refused(&dir, "unsupported format version 2");

    // A snapshot v3 behind a current MANIFEST is refused by its own
    // version, before any of its words are read.
    let mut bytes = paused_with_a_store(&dir);
    bytes[8..16].copy_from_slice(&3u64.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    fs::write(dir.join("snapshot.bin"), &bytes).unwrap();
    let before = tree_bytes(&dir);
    let err = resume_campaign(&snapshot_cell(), &dir, &pause_at_every_checkpoint()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let skew = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<UnsupportedVersion>());
    assert_eq!(
        skew.map(|skew| (skew.found, skew.supported)),
        Some((3, 4)),
        "{err}"
    );
    assert_eq!(
        tree_bytes(&dir),
        before,
        "the refused resume changed the campaign"
    );
    assert_resume_refused(&dir, "unsupported format version 3");
    let _ = fs::remove_dir_all(&dir);
}
