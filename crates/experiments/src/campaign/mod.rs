//! Checkpointed, resumable certification campaigns.
//!
//! A *campaign* is a [`crate::checker::check_cell`] run turned into a
//! restartable production job (ROADMAP item 3): the exploration state
//! lives in a campaign directory on disk, is checkpointed atomically at
//! wave boundaries, and a killed campaign resumed via `model_check
//! --resume` produces **bit-identical verdicts, counters, and
//! counterexample bytes** to an uninterrupted run — the same determinism
//! contract PR 3 established for `--threads`, extended across process
//! lifetimes. `CAMPAIGNS.md` is the operator's guide; this module is the
//! mechanism.
//!
//! # On-disk layout
//!
//! ```text
//! <campaign-dir>/
//!   MANIFEST                   # human-readable summary + lifecycle (manifest.rs)
//!   snapshot.bin               # checksummed resume point (snapshot.rs)
//!   shard-000.gen-3.log        # visited-store append logs, one per shard,
//!   shard-001.gen-3.log        #   tagged with the current log generation
//!   ...                        #   (shard.rs + store.rs)
//! ```
//!
//! # Why resume is exact
//!
//! The parallel drain processes tasks in fixed waves; at a wave boundary
//! the triple `(pattern verdict so far, outstanding task queue, shared
//! visited store)` is a pure function of the pattern's initial queue —
//! independent of thread count, wall-clock, and of whether any checkpoint
//! was taken ([`crate::engine::parallel_drain_watched`]). A checkpoint
//! durably persists exactly that triple (plus the finished patterns'
//! verdicts); resuming restores it and re-enters the drain at the same
//! boundary. Work done after the last checkpoint is simply re-executed —
//! re-execution is deterministic, so the campaign converges to the same
//! bytes either way.

pub mod manifest;
pub(crate) mod snapshot;
pub mod shard;
pub mod store;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use kset_core::ProblemSpec;

use crate::checker::{
    shrink_counterexample, CellVerdict, CheckerConfig, PatternState, PatternVerdict,
};
use crate::checker::{drain_pattern, seed_pattern};
use crate::engine::{DrainExit, WaveControl};

use manifest::{
    config_digest, manifest_path, read_manifest, uses_canonical_digests, write_manifest,
    CampaignStatus, Manifest,
};
use snapshot::{read_snapshot, write_snapshot, Snapshot};
use store::{CampaignStore, DiskStore};

/// Campaign-layer knobs (the checker knobs stay in [`CheckerConfig`]).
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Shard count of the visited store. Fixed at creation; ignored on
    /// resume (the manifest's layout wins).
    pub shards: usize,
    /// Checkpoint once at least this many runs have accumulated since the
    /// last checkpoint (checked at wave boundaries, so the actual spacing
    /// overshoots by up to one wave). `0` checkpoints at every boundary.
    pub checkpoint_every: u64,
    /// Testing hook: stop the campaign (exit cleanly, resumable) after
    /// this many checkpoints have been written *in this invocation*. This
    /// is how the kill/resume suites abort deterministically at a chosen
    /// snapshot; production campaigns leave it `None`.
    pub pause_after_checkpoints: Option<u64>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            shards: 16,
            checkpoint_every: 250_000,
            pause_after_checkpoints: None,
        }
    }
}

/// How a campaign invocation ended.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// Every crash pattern is explored (or a violation was found and
    /// shrunk): the final verdict, byte-identical to
    /// [`crate::checker::check_cell`] on the same configuration.
    Finished(Box<CellVerdict>),
    /// [`CampaignOptions::pause_after_checkpoints`] stopped the
    /// invocation; the directory resumes from the last checkpoint.
    Paused {
        /// Checkpoints written over the campaign's whole life so far.
        checkpoints: u64,
        /// Cumulative runs recorded at the last checkpoint.
        runs: u64,
    },
}

/// Why [`resume_campaign`] refused a campaign whose MANIFEST records a
/// digest mode other than the one its inputs select — for example a
/// unanimous-input campaign an older build explored with plain digests.
/// Its visited store holds fingerprints of the other mode, so resuming
/// would mix two state partitions. Carried as the payload of the
/// [`io::ErrorKind::InvalidData`] error; the directory is left untouched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DigestModeMismatch {
    /// The MANIFEST's `symmetry:` value.
    pub recorded: bool,
    /// Whether the campaign's inputs select canonical digests.
    pub derived: bool,
}

impl fmt::Display for DigestModeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = |canonical: bool| if canonical { "canonical" } else { "plain" };
        write!(
            f,
            "campaign was explored with {} digests but its inputs select {} digests; \
             start a new campaign",
            mode(self.recorded),
            mode(self.derived),
        )
    }
}

impl std::error::Error for DigestModeMismatch {}

/// Creates a fresh campaign in `dir` and drives it (to completion, or to
/// a [`CampaignOutcome::Paused`] stop).
///
/// # Errors
///
/// [`io::ErrorKind::AlreadyExists`] if `dir` already holds a campaign
/// (resume it instead); otherwise propagates I/O errors.
///
/// # Panics
///
/// Panics if the cell coordinates are rejected by [`ProblemSpec::new`]
/// (same contract as [`crate::checker::check_cell`]).
pub fn run_campaign(
    cfg: &CheckerConfig,
    dir: &Path,
    opts: &CampaignOptions,
) -> io::Result<CampaignOutcome> {
    if let Err(message) = cfg.validate() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid checker configuration: {message}"),
        ));
    }
    if manifest_path(dir).exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{} already holds a campaign manifest; pass --resume to continue it",
                dir.display()
            ),
        ));
    }
    fs::create_dir_all(dir)?;
    let store = DiskStore::create(dir, opts.shards)?;
    let manifest = Manifest::new(cfg, opts.shards);
    write_manifest(dir, &manifest)?;
    drive(cfg, dir, opts, store, manifest, Vec::new(), None, 0)
}

/// Resumes the campaign in `dir` from its last durable checkpoint.
///
/// The exploration-relevant configuration must match the campaign's
/// (config digest); `--threads`, `--progress` and the checkpoint cadence
/// may differ freely — they are outside the determinism contract's
/// inputs. A campaign killed before its first checkpoint resumes from
/// the beginning.
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] if `dir` has no manifest;
/// [`io::ErrorKind::InvalidData`] on a configuration mismatch (a
/// [`DigestModeMismatch`] payload when the recorded digest mode is not the
/// one the inputs select), an already-finished campaign, or corrupt
/// campaign files. A refused resume writes nothing.
///
/// # Panics
///
/// Panics if the cell coordinates are rejected by [`ProblemSpec::new`].
pub fn resume_campaign(
    cfg: &CheckerConfig,
    dir: &Path,
    opts: &CampaignOptions,
) -> io::Result<CampaignOutcome> {
    if let Err(message) = cfg.validate() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid checker configuration: {message}"),
        ));
    }
    let mut manifest = read_manifest(dir)?;
    let derived = uses_canonical_digests(&manifest.checker_config());
    if manifest.symmetry != derived {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            DigestModeMismatch {
                recorded: manifest.symmetry,
                derived,
            },
        ));
    }
    let digest = config_digest(cfg);
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if manifest.config_digest != digest {
        return Err(bad(format!(
            "campaign in {} was created with a different configuration \
             (digest {:016x}, this invocation {:016x}); rerun with the original cell and bounds",
            dir.display(),
            manifest.config_digest,
            digest
        )));
    }
    if manifest.status != CampaignStatus::Running {
        return Err(bad(format!(
            "campaign in {} already finished ({}); nothing to resume",
            dir.display(),
            manifest.status
        )));
    }
    let (store, patterns_done, in_progress) = match read_snapshot(dir) {
        Ok(snap) => {
            if snap.config_digest != digest {
                return Err(bad(format!(
                    "snapshot in {} disagrees with the manifest's configuration digest",
                    dir.display()
                )));
            }
            if snap.watermarks.len() != manifest.shards {
                return Err(bad(format!(
                    "snapshot in {} records {} shard(s), manifest says {}",
                    dir.display(),
                    snap.watermarks.len(),
                    manifest.shards
                )));
            }
            let store = DiskStore::open(dir, snap.generation, &snap.watermarks)?;
            (store, snap.patterns_done, snap.in_progress)
        }
        // Killed before the first checkpoint: the campaign starts over.
        // Generation 0 with zero watermarks truncates any partial appends
        // and discards stray generations a mid-flush crash left behind.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let store = DiskStore::open(dir, 0, &vec![0; manifest.shards])?;
            (store, Vec::new(), None)
        }
        Err(e) => return Err(e),
    };
    manifest.resumes += 1;
    write_manifest(dir, &manifest)?;
    let resumed_runs = cumulative_runs(&patterns_done, in_progress.as_ref());
    drive(
        cfg,
        dir,
        opts,
        store,
        manifest,
        patterns_done,
        in_progress,
        resumed_runs,
    )
}

/// Runs recorded so far: finished patterns plus the in-progress partial.
fn cumulative_runs(done: &[PatternVerdict], partial: Option<&PatternState>) -> u64 {
    done.iter().map(|p| p.runs).sum::<u64>() + partial.map_or(0, |s| s.verdict.runs)
}

/// Refreshes the manifest's cumulative counters from the authoritative
/// exploration state.
fn refresh_counters(
    manifest: &mut Manifest,
    store: &DiskStore,
    done: &[PatternVerdict],
    partial: Option<&PatternVerdict>,
) {
    let verdicts = done.iter().chain(partial);
    let mut runs = 0;
    let mut states = 0u64;
    let mut dedup_hits = 0;
    let mut sleep_skips = 0;
    for v in verdicts {
        runs += v.runs;
        states += v.states as u64;
        dedup_hits += v.dedup_hits;
        sleep_skips += v.sleep_skips;
    }
    manifest.runs = runs;
    manifest.states = states;
    manifest.dedup_hits = dedup_hits;
    manifest.sleep_skips = sleep_skips;
    manifest.patterns_done = done.len() as u64;
    let occ = store.occupancy();
    manifest.store_entries = occ.entries;
    manifest.store_log_bytes = occ.log_bytes;
}

/// Writes one durable checkpoint: flushes the store, snapshots
/// `(finished patterns, in-progress state, store coordinates)`, deletes
/// superseded log generations, and rewrites the manifest.
fn write_checkpoint(
    dir: &Path,
    store: &mut DiskStore,
    digest: u64,
    patterns_done: &[PatternVerdict],
    in_progress: Option<PatternState>,
    manifest: &mut Manifest,
) -> io::Result<()> {
    let (generation, watermarks) = store.flush()?;
    let snapshot = Snapshot {
        config_digest: digest,
        generation,
        watermarks,
        patterns_done: patterns_done.to_vec(),
        in_progress,
    };
    write_snapshot(dir, &snapshot)?;
    // Only now is it safe to drop generations the old snapshot needed.
    store.cleanup()?;
    manifest.checkpoints += 1;
    refresh_counters(
        manifest,
        store,
        patterns_done,
        snapshot.in_progress.as_ref().map(|s| &s.verdict),
    );
    write_manifest(dir, manifest)?;
    Ok(())
}

/// Aggregates finished pattern verdicts exactly as
/// [`crate::checker::check_cell`] does.
fn cell_verdict(patterns: Vec<PatternVerdict>) -> CellVerdict {
    let mut verdict = CellVerdict {
        patterns: Vec::new(),
        worst_agreement: 0,
        complete: true,
        runs: 0,
        counterexample: None,
    };
    for pattern in patterns {
        verdict.worst_agreement = verdict.worst_agreement.max(pattern.worst_agreement);
        verdict.runs += pattern.runs;
        verdict.complete &= pattern.complete;
        if let Some(ce) = &pattern.violation {
            verdict.counterexample = Some(ce.clone());
        }
        verdict.patterns.push(pattern);
    }
    verdict
}

/// The campaign main loop: explores the remaining crash patterns,
/// checkpointing at the configured cadence and at every pattern boundary.
#[allow(clippy::too_many_arguments)]
fn drive(
    cfg: &CheckerConfig,
    dir: &Path,
    opts: &CampaignOptions,
    mut store: DiskStore,
    mut manifest: Manifest,
    mut patterns_done: Vec<PatternVerdict>,
    mut in_progress: Option<PatternState>,
    mut last_checkpoint_runs: u64,
) -> io::Result<CampaignOutcome> {
    let inputs = cfg.cell_inputs();
    let spec = ProblemSpec::new(cfg.n, cfg.k, cfg.t, cfg.validity)
        .expect("campaign cell coordinates are valid");
    // The adversary's own pattern enumeration: Byzantine assignments when
    // the behaviour space is active, silent-crash subsets otherwise —
    // seed/drain/shrink derive each pattern's deviation policy from
    // `cfg` internally, so the campaign loop is adversary-agnostic.
    let plans = cfg.fault_plans();
    let digest = manifest.config_digest;
    let mut session_checkpoints = 0u64;

    let start = patterns_done.len();
    for (index, plan) in plans.iter().enumerate().skip(start) {
        let state = match in_progress.take() {
            // Restored mid-pattern: the store already holds this
            // pattern's visited set.
            Some(state) => state,
            None => {
                let (state, root_visited) = seed_pattern(cfg, &inputs, &spec, plan);
                let root = root_visited.partition(store.shard_count());
                store.absorb(&[root], cfg.threads);
                state
            }
        };
        let done_runs: u64 = patterns_done.iter().map(|p| p.runs).sum();
        let mut checkpoint_error: Option<io::Error> = None;
        let (verdict, exit, _) = {
            let manifest = &mut manifest;
            let patterns_done = &patterns_done;
            let last_checkpoint_runs = &mut last_checkpoint_runs;
            let session_checkpoints = &mut session_checkpoints;
            let checkpoint_error = &mut checkpoint_error;
            drain_pattern(
                cfg,
                &inputs,
                &spec,
                plan,
                &mut store,
                state,
                |store, verdict, queue| {
                    let total = done_runs + verdict.runs;
                    if total.saturating_sub(*last_checkpoint_runs) < opts.checkpoint_every {
                        return WaveControl::Continue;
                    }
                    let partial = PatternState {
                        verdict: verdict.clone(),
                        queue: queue.iter().cloned().collect(),
                    };
                    match write_checkpoint(
                        dir,
                        store,
                        digest,
                        patterns_done,
                        Some(partial),
                        manifest,
                    ) {
                        Ok(()) => {
                            *last_checkpoint_runs = total;
                            *session_checkpoints += 1;
                            if opts
                                .pause_after_checkpoints
                                .is_some_and(|p| *session_checkpoints >= p)
                            {
                                WaveControl::Pause
                            } else {
                                WaveControl::Continue
                            }
                        }
                        Err(e) => {
                            *checkpoint_error = Some(e);
                            WaveControl::Pause
                        }
                    }
                },
            )
        };
        if let Some(e) = checkpoint_error {
            return Err(e);
        }
        if matches!(exit, DrainExit::Paused) {
            return Ok(CampaignOutcome::Paused {
                checkpoints: manifest.checkpoints,
                runs: manifest.runs,
            });
        }

        let mut pattern = verdict;
        if let Some(raw) = pattern.violation.take() {
            let shrunk = shrink_counterexample(cfg, &inputs, &spec, plan, raw.choices);
            pattern.violation = Some(shrunk);
            patterns_done.push(pattern);
            manifest.status = CampaignStatus::Violated;
            write_checkpoint(dir, &mut store, digest, &patterns_done, None, &mut manifest)?;
            return Ok(CampaignOutcome::Finished(Box::new(cell_verdict(
                patterns_done,
            ))));
        }
        patterns_done.push(pattern);

        // Pattern boundary: the visited set is per-pattern, so clear the
        // store into a fresh log generation and checkpoint the boundary.
        let finished = index + 1 == plans.len();
        if finished {
            manifest.status = CampaignStatus::Holds;
        }
        store.reset()?;
        write_checkpoint(dir, &mut store, digest, &patterns_done, None, &mut manifest)?;
        last_checkpoint_runs = patterns_done.iter().map(|p| p.runs).sum();
        session_checkpoints += 1;
        if !finished
            && opts
                .pause_after_checkpoints
                .is_some_and(|p| session_checkpoints >= p)
        {
            return Ok(CampaignOutcome::Paused {
                checkpoints: manifest.checkpoints,
                runs: manifest.runs,
            });
        }
    }
    Ok(CampaignOutcome::Finished(Box::new(cell_verdict(
        patterns_done,
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_cell;
    use crate::exhaustive::QuorumProtocol;
    use kset_core::ValidityCondition;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kset_campaign_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn n3_cfg() -> CheckerConfig {
        let mut cfg =
            CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        cfg.threads = 1;
        cfg
    }

    #[test]
    fn uninterrupted_campaign_matches_check_cell() {
        let dir = tmp_dir("uninterrupted");
        let cfg = n3_cfg();
        let outcome = run_campaign(&cfg, &dir, &CampaignOptions::default()).unwrap();
        let CampaignOutcome::Finished(verdict) = outcome else {
            panic!("no pause requested");
        };
        assert_eq!(*verdict, check_cell(&cfg));
        // Finished campaigns refuse both re-creation and resumption.
        let again = run_campaign(&cfg, &dir, &CampaignOptions::default()).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::AlreadyExists);
        let resumed = resume_campaign(&cfg, &dir, &CampaignOptions::default()).unwrap_err();
        assert_eq!(resumed.kind(), io::ErrorKind::InvalidData);
        assert!(resumed.to_string().contains("finished"), "{resumed}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paused_campaign_resumes_to_the_identical_verdict() {
        let dir = tmp_dir("paused");
        let cfg = n3_cfg();
        let opts = CampaignOptions {
            shards: 4,
            checkpoint_every: 0, // every wave and every pattern boundary
            pause_after_checkpoints: Some(1),
        };
        let mut outcome = run_campaign(&cfg, &dir, &opts).unwrap();
        let mut pauses = 0;
        let verdict = loop {
            match outcome {
                CampaignOutcome::Finished(v) => break v,
                CampaignOutcome::Paused { .. } => {
                    pauses += 1;
                    assert!(pauses < 10_000, "campaign does not converge");
                    outcome = resume_campaign(&cfg, &dir, &opts).unwrap();
                }
            }
        };
        assert!(pauses > 0, "the pause hook never fired");
        assert_eq!(*verdict, check_cell(&cfg));
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.status, CampaignStatus::Holds);
        assert_eq!(manifest.resumes, pauses);
        assert_eq!(manifest.runs, verdict.runs);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file under `dir` with its bytes.
    fn directory_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .map(|path| (path.clone(), fs::read(&path).unwrap()))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn resume_refuses_a_recorded_digest_mode_the_inputs_do_not_select() {
        // The unanimous case is what an older build left behind: inputs
        // that now select canonical digests, explored with plain ones.
        let mut unanimous = n3_cfg();
        unanimous.inputs = Some(vec![1, 1, 1]);
        for (cfg, canonical) in [(n3_cfg(), false), (unanimous, true)] {
            let dir = tmp_dir(&format!("digest_mode_{canonical}"));
            let opts = CampaignOptions {
                shards: 2,
                checkpoint_every: 0,
                pause_after_checkpoints: Some(1),
            };
            let outcome = run_campaign(&cfg, &dir, &opts).unwrap();
            assert!(matches!(outcome, CampaignOutcome::Paused { .. }));
            let path = manifest_path(&dir);
            let text = fs::read_to_string(&path).unwrap();
            let recorded = format!("symmetry: {canonical}");
            assert!(text.contains(&recorded), "{text}");
            fs::write(&path, text.replace(&recorded, &format!("symmetry: {}", !canonical)))
                .unwrap();
            let before = directory_bytes(&dir);
            let err = resume_campaign(&cfg, &dir, &opts).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let mismatch = err.get_ref().and_then(|e| e.downcast_ref::<DigestModeMismatch>());
            assert_eq!(
                mismatch,
                Some(&DigestModeMismatch {
                    recorded: !canonical,
                    derived: canonical,
                }),
                "{err}"
            );
            assert_eq!(directory_bytes(&dir), before, "a refused resume wrote");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_refuses_a_different_configuration() {
        let dir = tmp_dir("config_mismatch");
        let cfg = n3_cfg();
        let opts = CampaignOptions {
            shards: 2,
            checkpoint_every: 0,
            pause_after_checkpoints: Some(1),
        };
        let outcome = run_campaign(&cfg, &dir, &opts).unwrap();
        assert!(matches!(outcome, CampaignOutcome::Paused { .. }));
        let mut other = cfg.clone();
        other.k = 1;
        let err = resume_campaign(&other, &dir, &opts).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different configuration"), "{err}");
        // The original configuration still resumes fine (threads may vary).
        let mut rethreaded = cfg.clone();
        rethreaded.threads = 2;
        let opts = CampaignOptions {
            pause_after_checkpoints: None,
            ..opts
        };
        let outcome = resume_campaign(&rethreaded, &dir, &opts).unwrap();
        let CampaignOutcome::Finished(verdict) = outcome else {
            panic!("no pause requested");
        };
        assert_eq!(*verdict, check_cell(&cfg));
        let _ = fs::remove_dir_all(&dir);
    }
}
