//! Checkpointed, resumable certification campaigns.
//!
//! A *campaign* is a [`crate::checker::check_cell`] run turned into a
//! restartable production job: the same pattern loop over the same
//! in-memory visited store, with hooks that checkpoint the exploration
//! state into a campaign directory atomically at wave and pattern
//! boundaries. A killed campaign resumed via `model_check --resume`
//! produces **bit-identical verdicts, counters, and counterexample
//! bytes** to an uninterrupted run — the determinism contract `--threads`
//! has, extended across process lifetimes. `CAMPAIGNS.md` is the
//! operator's guide; this module is the mechanism.
//!
//! # On-disk layout
//!
//! ```text
//! <campaign-dir>/
//!   MANIFEST       # human-readable summary + lifecycle (manifest.rs)
//!   snapshot.bin   # checksummed resume point, the in-progress
//!                  #   pattern's visited store included (snapshot.rs)
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

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::checker::{
    drive_cell, CellHooks, CellVerdict, CheckerConfig, PatternState, PatternVerdict, RunGauge,
    VisitedGauge, WorkItem,
};
use crate::engine::WaveControl;
use crate::visited::Sharded;

use manifest::{
    config_digest, manifest_path, read_manifest, uses_canonical_digests, write_manifest,
    CampaignStatus, Manifest,
};
use snapshot::{read_snapshot, write_snapshot, InProgress};

/// Campaign-layer knobs (the checker knobs stay in [`CheckerConfig`]).
#[derive(Clone, Debug)]
pub struct CampaignOptions {
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

/// Why a campaign file was refused: another build wrote it in a format
/// version this one does not read — for example a directory of the
/// append-log store, MANIFEST v1 and snapshot v2. Carried as the payload
/// of the [`io::ErrorKind::InvalidData`] error; the directory is left
/// untouched.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnsupportedVersion {
    /// The refused file.
    pub path: PathBuf,
    /// The version it records.
    pub found: u64,
    /// The version this build reads and writes.
    pub supported: u64,
}

impl fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: unsupported format version {} (this build reads {}); resume the campaign \
             with the build that wrote it, or start a new one",
            self.path.display(),
            self.found,
            self.supported,
        )
    }
}

impl std::error::Error for UnsupportedVersion {}

/// A campaign invocation's outcome with the gauges of the exploration it
/// ran (see [`crate::checker::check_cell_gauged`]). After a resume the
/// gauges cover this invocation only: the wave barriers it drained, the
/// store as it grew from the restored checkpoint.
pub type GaugedOutcome = (CampaignOutcome, VisitedGauge, RunGauge);

/// Creates a fresh campaign in `dir` and drives it (to completion, or to
/// a [`CampaignOutcome::Paused`] stop).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] if `cfg` fails
/// [`CheckerConfig::validate`]; [`io::ErrorKind::AlreadyExists`] if
/// `dir` already holds a campaign (resume it instead); otherwise
/// propagates I/O errors.
pub fn run_campaign(
    cfg: &CheckerConfig,
    dir: &Path,
    opts: &CampaignOptions,
) -> io::Result<CampaignOutcome> {
    run_campaign_gauged(cfg, dir, opts).map(|(outcome, _, _)| outcome)
}

/// [`run_campaign`], also reporting the exploration's gauges.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_gauged(
    cfg: &CheckerConfig,
    dir: &Path,
    opts: &CampaignOptions,
) -> io::Result<GaugedOutcome> {
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
    let manifest = Manifest::new(cfg);
    write_manifest(dir, &manifest)?;
    drive(
        Checkpoints::new(cfg, dir, opts, manifest, 0),
        Vec::new(),
        None,
    )
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
/// [`io::ErrorKind::InvalidInput`] if `cfg` fails
/// [`CheckerConfig::validate`]; [`io::ErrorKind::NotFound`] if `dir` has
/// no manifest; [`io::ErrorKind::InvalidData`] on a configuration
/// mismatch (a [`DigestModeMismatch`] payload when the recorded digest
/// mode is not the one the inputs select), a file format this build does
/// not read (an [`UnsupportedVersion`] payload), an already-finished
/// campaign, or corrupt campaign files. A refused resume writes nothing.
pub fn resume_campaign(
    cfg: &CheckerConfig,
    dir: &Path,
    opts: &CampaignOptions,
) -> io::Result<CampaignOutcome> {
    resume_campaign_gauged(cfg, dir, opts).map(|(outcome, _, _)| outcome)
}

/// [`resume_campaign`], also reporting the gauges of this invocation's
/// exploration.
///
/// # Errors
///
/// As [`resume_campaign`].
pub fn resume_campaign_gauged(
    cfg: &CheckerConfig,
    dir: &Path,
    opts: &CampaignOptions,
) -> io::Result<GaugedOutcome> {
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
    let (patterns_done, in_progress) = match read_snapshot(dir, cfg.threads) {
        Ok(snap) if snap.config_digest != digest => {
            return Err(bad(format!(
                "snapshot in {} disagrees with the manifest's configuration digest",
                dir.display()
            )));
        }
        Ok(snap) => (snap.patterns_done, snap.in_progress),
        // Killed before the first checkpoint: the campaign starts over.
        Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), None),
        Err(e) => return Err(e),
    };
    manifest.resumes += 1;
    write_manifest(dir, &manifest)?;
    // Runs recorded so far: finished patterns plus the in-progress partial.
    let runs = patterns_done.iter().map(|p| p.runs).sum::<u64>()
        + in_progress.as_ref().map_or(0, |(s, _)| s.verdict.runs);
    drive(
        Checkpoints::new(cfg, dir, opts, manifest, runs),
        patterns_done,
        in_progress,
    )
}

/// The campaign's hooks on the checker's pattern loop: a checkpoint once
/// [`CampaignOptions::checkpoint_every`] runs have passed since the last
/// one, and at every pattern boundary, and the pause
/// [`CampaignOptions::pause_after_checkpoints`] asks for.
struct Checkpoints<'a> {
    cfg: &'a CheckerConfig,
    dir: &'a Path,
    opts: &'a CampaignOptions,
    manifest: Manifest,
    /// Cumulative runs at the last checkpoint.
    last_runs: u64,
    /// Checkpoints written by this invocation.
    written: u64,
    /// The checkpoint failure that paused the loop, if one did.
    error: Option<io::Error>,
}

impl<'a> Checkpoints<'a> {
    fn new(
        cfg: &'a CheckerConfig,
        dir: &'a Path,
        opts: &'a CampaignOptions,
        manifest: Manifest,
        last_runs: u64,
    ) -> Self {
        Checkpoints {
            cfg,
            dir,
            opts,
            manifest,
            last_runs,
            written: 0,
            error: None,
        }
    }

    /// Writes one durable checkpoint at `runs` cumulative runs: the
    /// snapshot of `(finished patterns, in-progress pattern)`, then the
    /// manifest. Pauses the loop when the pause budget is spent or the
    /// checkpoint fails.
    fn checkpoint(
        &mut self,
        patterns_done: &[PatternVerdict],
        in_progress: Option<InProgress<'_>>,
        runs: u64,
    ) -> WaveControl {
        match self.write(patterns_done, in_progress) {
            Ok(()) => {
                self.last_runs = runs;
                self.written += 1;
                if self
                    .opts
                    .pause_after_checkpoints
                    .is_some_and(|p| self.written >= p)
                {
                    WaveControl::Pause
                } else {
                    WaveControl::Continue
                }
            }
            Err(e) => {
                self.error = Some(e);
                WaveControl::Pause
            }
        }
    }

    fn write(
        &mut self,
        patterns_done: &[PatternVerdict],
        in_progress: Option<InProgress<'_>>,
    ) -> io::Result<()> {
        let started = Instant::now();
        let manifest = &mut self.manifest;
        let bytes = write_snapshot(self.dir, manifest.config_digest, patterns_done, in_progress)?;
        // The cumulative counters, from the authoritative state.
        manifest.checkpoints += 1;
        let partial = in_progress.map(|(verdict, _, _)| verdict);
        let verdicts = || patterns_done.iter().chain(partial);
        manifest.runs = verdicts().map(|v| v.runs).sum();
        manifest.states = verdicts().map(|v| v.states as u64).sum();
        manifest.dedup_hits = verdicts().map(|v| v.dedup_hits).sum();
        manifest.sleep_skips = verdicts().map(|v| v.sleep_skips).sum();
        manifest.patterns_done = patterns_done.len() as u64;
        manifest.store_entries = in_progress.map_or(0, |(_, _, store)| store.live_entries());
        manifest.checkpoint_bytes += bytes;
        manifest.checkpoint_ms += started.elapsed().as_millis() as u64;
        write_manifest(self.dir, manifest)
    }
}

impl CellHooks for Checkpoints<'_> {
    fn wave(
        &mut self,
        store: &Sharded,
        done: &[PatternVerdict],
        partial: &PatternVerdict,
        queue: &VecDeque<Vec<WorkItem>>,
    ) -> WaveControl {
        let runs = done.iter().map(|p| p.runs).sum::<u64>() + partial.runs;
        if runs.saturating_sub(self.last_runs) < self.opts.checkpoint_every {
            return WaveControl::Continue;
        }
        self.checkpoint(done, Some((partial, queue, store)), runs)
    }

    fn pattern(&mut self, done: &[PatternVerdict], decided: bool) -> WaveControl {
        if decided {
            let verdict = CellVerdict::of(done.to_vec());
            self.manifest.status = if !verdict.holds() {
                CampaignStatus::Violated
            } else if verdict.bounded() {
                CampaignStatus::Bounded
            } else {
                CampaignStatus::Holds
            };
            let bounds = verdict.bounds(self.cfg);
            self.manifest.bound = (!bounds.is_empty()).then(|| bounds.join(" or "));
        }
        let runs = done.iter().map(|p| p.runs).sum();
        self.checkpoint(done, None, runs)
    }
}

/// Drives the campaign on the checker's pattern loop from the
/// checkpointed `patterns_done` and `in_progress` state, with
/// `checkpoints` as the loop's hooks.
fn drive(
    mut checkpoints: Checkpoints<'_>,
    patterns_done: Vec<PatternVerdict>,
    in_progress: Option<(PatternState, Sharded)>,
) -> io::Result<GaugedOutcome> {
    let cfg = checkpoints.cfg;
    let (verdict, visited, runs) = drive_cell(
        cfg,
        patterns_done,
        in_progress,
        Some(&mut checkpoints as &mut dyn CellHooks),
    );
    if let Some(e) = checkpoints.error {
        return Err(e);
    }
    let outcome = match verdict {
        Some(verdict) => CampaignOutcome::Finished(Box::new(verdict)),
        None => CampaignOutcome::Paused {
            checkpoints: checkpoints.manifest.checkpoints,
            runs: checkpoints.manifest.runs,
        },
    };
    Ok((outcome, visited, runs))
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
