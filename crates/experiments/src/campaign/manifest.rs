//! The campaign manifest: a human-readable, versioned summary of what a
//! campaign is checking and how far it has come.
//!
//! The manifest is the campaign's audit surface (`OBSERVABILITY.md`
//! documents the schema): the checker configuration and checkpoint
//! cadence it was created with, the lifecycle status and the bound that
//! cut a bounded campaign short, and cumulative counters (runs, states,
//! dedup hits, checkpoints and their cost, resume lineage). It is rewritten
//! atomically at every checkpoint, and CI uploads it as an artifact next
//! to the bench JSONs.
//!
//! Unlike the snapshot, the manifest is *advisory*: resuming validates
//! only its [`config digest`](config_digest) and status, and every
//! counter in it is recomputed from the authoritative snapshot on resume.
//! The format is line-based `key: value` text in the same family as the
//! counterexample scripts — diffable, greppable, committable.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::checker::{
    numbers, parse_adversary_model, parse_protocol, parse_validity, AdversaryModel, CheckerConfig,
    Header,
};
use kset_sim::DigestMode;

use super::snapshot::fnv1a;
use super::UnsupportedVersion;

/// File name of the manifest inside a campaign directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Current manifest schema version (the `# kset campaign manifest vN`
/// header line). Bump on any field change; readers reject other versions.
/// v2 dropped the append-log store's `shards` and `store_log_bytes` keys
/// and added `bound`, `checkpoint_bytes` and `checkpoint_ms`; v3 dropped
/// the `depth` and `preemptions` bounds and added `checkpoint_every`.
pub const MANIFEST_VERSION: u64 = 3;

/// Lifecycle status of a campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CampaignStatus {
    /// Created or resumed, not yet finished; `--resume` continues it.
    Running,
    /// Finished with no violation in any crash pattern, every pattern
    /// explored in full.
    Holds,
    /// Finished with no violation, but the run bound (`--max-runs`) cut
    /// at least one pattern short: not a certification.
    Bounded,
    /// Finished at a violation; the counterexample is in the snapshot and
    /// (if requested) the emitted script.
    Violated,
}

impl fmt::Display for CampaignStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CampaignStatus::Running => "running",
            CampaignStatus::Holds => "holds",
            CampaignStatus::Bounded => "bounded",
            CampaignStatus::Violated => "violated",
        })
    }
}

impl CampaignStatus {
    fn parse(s: &str) -> Option<Self> {
        Some(match s.trim() {
            "running" => CampaignStatus::Running,
            "holds" => CampaignStatus::Holds,
            "bounded" => CampaignStatus::Bounded,
            "violated" => CampaignStatus::Violated,
            _ => return None,
        })
    }
}

/// The manifest contents (see the module docs and `OBSERVABILITY.md` for
/// field-by-field semantics).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// The checker configuration the campaign was created with. Its
    /// execution fields (`threads`, `progress`, `fork`) are not recorded:
    /// they hold [`CheckerConfig::new`]'s defaults, and `model_check
    /// --resume` sets them from its own flags, since they reach no
    /// verdict or counter.
    pub config: CheckerConfig,
    /// Whether the campaign runs on canonical (symmetry-reduced) digests.
    /// Derived from the inputs when the campaign is created
    /// ([`CheckerConfig::digest`]) and recorded so that resume can refuse a
    /// campaign an older build explored under the other mode.
    pub symmetry: bool,
    /// FNV-1a digest of the exploration-relevant configuration
    /// ([`config_digest`]); resume refuses a mismatch.
    pub config_digest: u64,
    /// The checkpoint cadence in runs
    /// ([`CampaignOptions::checkpoint_every`](super::CampaignOptions::checkpoint_every)):
    /// the one the campaign was created with, or the last resume's.
    /// `model_check --resume` without `--checkpoint-every` keeps it.
    pub checkpoint_every: u64,
    /// Lifecycle status.
    pub status: CampaignStatus,
    /// The bound that cut a [bounded](CampaignStatus::Bounded) campaign
    /// short, as [`CellVerdict::bound`](crate::checker::CellVerdict::bound)
    /// names it; `None` otherwise.
    pub bound: Option<String>,
    /// Times this campaign has been resumed (lineage).
    pub resumes: u64,
    /// Checkpoints written over the campaign's whole life.
    pub checkpoints: u64,
    /// Cumulative schedules executed (done patterns + in-progress).
    pub runs: u64,
    /// Cumulative sleep-set entries cached across all task tables.
    pub states: u64,
    /// Cumulative dedup hits.
    pub dedup_hits: u64,
    /// Cumulative sleep-set skips.
    pub sleep_skips: u64,
    /// Crash patterns fully explored so far.
    pub patterns_done: u64,
    /// Live minimal entries in the visited store at the last checkpoint
    /// (the in-progress pattern's table; zero at pattern boundaries).
    pub store_entries: u64,
    /// Snapshot bytes written by every checkpoint so far.
    pub checkpoint_bytes: u64,
    /// Wall-clock milliseconds spent writing those snapshots.
    pub checkpoint_ms: u64,
}

/// Digest of every configuration field that can change verdicts,
/// counters, or counterexample bytes: the cell coordinates, the digest
/// mode ([`CheckerConfig::digest`], derived from the inputs), the run
/// bound, the reduction switches and the adversary space, each written
/// the same way for every cell.
///
/// Deliberately **excluded**: `threads` (the determinism contract already
/// covers every thread count), `fork` (execution strategy, not search
/// state — replay and auto produce byte-identical verdicts, counters and
/// counterexamples, pinned by `tests/fork_parity.rs`),
/// `progress` (stderr only), and the checkpoint cadence (checkpoints
/// observe, never steer — see `CAMPAIGNS.md`). A campaign may therefore
/// be resumed with a different `--threads`, `--fork-mode`, `--progress`,
/// or `--checkpoint-every` and still produce bit-identical results.
pub fn config_digest(cfg: &CheckerConfig) -> u64 {
    let text = format!(
        "protocol={};n={};k={};t={};validity={};symmetry={};max_runs={};max_states={};\
         por={};dedup={};model={};byz_menu={:?};byz_silence={};loss_budget={};inputs={:?}",
        cfg.protocol.name(),
        cfg.n,
        cfg.k,
        cfg.t,
        cfg.validity,
        uses_canonical_digests(cfg),
        cfg.max_runs,
        cfg.max_states,
        cfg.por,
        cfg.dedup,
        cfg.adversary,
        cfg.byz_menu,
        cfg.byz_silence,
        cfg.loss_budget,
        cfg.inputs,
    );
    fnv1a(text.as_bytes())
}

/// Whether `cfg`'s inputs select canonical digests — the manifest's
/// `symmetry` value.
pub(crate) fn uses_canonical_digests(cfg: &CheckerConfig) -> bool {
    cfg.digest() == DigestMode::Canonical
}

impl Manifest {
    /// A fresh manifest for a campaign just created from `cfg` with
    /// checkpoints every `checkpoint_every` runs: status running, no
    /// bound, all counters zero.
    pub fn new(cfg: &CheckerConfig, checkpoint_every: u64) -> Self {
        let defaults = CheckerConfig::new(cfg.protocol, cfg.n, cfg.k, cfg.t, cfg.validity);
        Manifest {
            config: CheckerConfig {
                threads: defaults.threads,
                progress: defaults.progress,
                fork: defaults.fork,
                ..cfg.clone()
            },
            symmetry: uses_canonical_digests(cfg),
            config_digest: config_digest(cfg),
            checkpoint_every,
            status: CampaignStatus::Running,
            bound: None,
            resumes: 0,
            checkpoints: 0,
            runs: 0,
            states: 0,
            dedup_hits: 0,
            sleep_skips: 0,
            patterns_done: 0,
            store_entries: 0,
            checkpoint_bytes: 0,
            checkpoint_ms: 0,
        }
    }
}

/// `path` of the manifest inside campaign directory `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// Writes `manifest` as `dir/MANIFEST` (write-temp-then-rename, so a
/// crash mid-checkpoint never leaves a half-written manifest).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let cfg = &manifest.config;
    let mut out = Vec::new();
    writeln!(out, "# kset campaign manifest v{MANIFEST_VERSION}")?;
    writeln!(out, "protocol: {}", cfg.protocol.name())?;
    writeln!(out, "n: {}", cfg.n)?;
    writeln!(out, "k: {}", cfg.k)?;
    writeln!(out, "t: {}", cfg.t)?;
    writeln!(out, "validity: {}", cfg.validity)?;
    writeln!(out, "symmetry: {}", manifest.symmetry)?;
    writeln!(out, "max_runs: {}", cfg.max_runs)?;
    writeln!(out, "max_states: {}", cfg.max_states)?;
    writeln!(out, "por: {}", cfg.por)?;
    writeln!(out, "dedup: {}", cfg.dedup)?;
    // Adversary-space fields are written only when they deviate from the
    // crash-model defaults, so crash-campaign manifests keep their
    // field set; readers default the absent keys.
    if cfg.adversary != AdversaryModel::crash_for(cfg.protocol) {
        writeln!(out, "model: {}", cfg.adversary)?;
    }
    if !cfg.byz_menu.is_empty() {
        writeln!(out, "byz_menu:{}", spaced(&cfg.byz_menu))?;
    }
    if cfg.byz_silence {
        writeln!(out, "byz_silence: true")?;
    }
    if cfg.loss_budget != 0 {
        writeln!(out, "loss_budget: {}", cfg.loss_budget)?;
    }
    if let Some(inputs) = &cfg.inputs {
        writeln!(out, "inputs:{}", spaced(inputs))?;
    }
    writeln!(out, "config_digest: {:016x}", manifest.config_digest)?;
    writeln!(out, "checkpoint_every: {}", manifest.checkpoint_every)?;
    writeln!(out, "status: {}", manifest.status)?;
    writeln!(
        out,
        "bound: {}",
        manifest.bound.as_deref().unwrap_or("none")
    )?;
    writeln!(out, "resumes: {}", manifest.resumes)?;
    writeln!(out, "checkpoints: {}", manifest.checkpoints)?;
    writeln!(out, "runs: {}", manifest.runs)?;
    writeln!(out, "states: {}", manifest.states)?;
    writeln!(out, "dedup_hits: {}", manifest.dedup_hits)?;
    writeln!(out, "sleep_skips: {}", manifest.sleep_skips)?;
    writeln!(out, "patterns_done: {}", manifest.patterns_done)?;
    writeln!(out, "store_entries: {}", manifest.store_entries)?;
    writeln!(out, "checkpoint_bytes: {}", manifest.checkpoint_bytes)?;
    writeln!(out, "checkpoint_ms: {}", manifest.checkpoint_ms)?;
    let tmp = dir.join("MANIFEST.tmp");
    fs::write(&tmp, &out)?;
    fs::rename(&tmp, manifest_path(dir))
}

/// `values` as a manifest list: each value after a space.
fn spaced(values: &[u64]) -> String {
    values.iter().map(|v| format!(" {v}")).collect()
}

/// Reads `dir/MANIFEST`.
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] when no manifest exists (not a campaign
/// directory); [`io::ErrorKind::InvalidData`] on an unsupported version,
/// malformed fields, an unknown or repeated key, or a cell
/// [`CheckerConfig::validate`] rejects; an unsupported version carries
/// an [`UnsupportedVersion`] payload.
pub fn read_manifest(dir: &Path) -> io::Result<Manifest> {
    let path = manifest_path(dir);
    let text = fs::read_to_string(&path)?;
    let mut header = Header::new(format!("manifest {}: ", path.display()));
    let mut lines = text.lines();
    let first = lines.next().unwrap_or_default();
    let version: u64 = first
        .strip_prefix("# kset campaign manifest v")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| header.bad(format_args!("bad header line {first:?}")))?;
    if version != MANIFEST_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            UnsupportedVersion {
                path,
                found: version,
                supported: MANIFEST_VERSION,
            },
        ));
    }
    for line in lines {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        header.insert_once(line)?;
    }
    let protocol = header.required("protocol", parse_protocol)?;
    let manifest = Manifest {
        config: CheckerConfig {
            max_runs: header.parse("max_runs")?,
            max_states: header.parse("max_states")?,
            por: header.parse("por")?,
            dedup: header.parse("dedup")?,
            // The adversary-space fields are absent in crash-model manifests.
            adversary: header
                .optional("model", parse_adversary_model)?
                .unwrap_or(AdversaryModel::crash_for(protocol)),
            byz_menu: header.optional("byz_menu", numbers)?.unwrap_or_default(),
            byz_silence: header
                .optional("byz_silence", |v| v.parse().ok())?
                .unwrap_or(false),
            loss_budget: header
                .optional("loss_budget", |v| v.parse().ok())?
                .unwrap_or(0),
            inputs: header.optional("inputs", numbers)?,
            ..CheckerConfig::new(
                protocol,
                header.parse("n")?,
                header.parse("k")?,
                header.parse("t")?,
                header.required("validity", parse_validity)?,
            )
        },
        symmetry: header.parse("symmetry")?,
        config_digest: header.required("config_digest", |v| u64::from_str_radix(v, 16).ok())?,
        checkpoint_every: header.parse("checkpoint_every")?,
        status: header.required("status", CampaignStatus::parse)?,
        bound: header.required("bound", |v| match v {
            "" => None,
            "none" => Some(None),
            bound => Some(Some(bound.to_string())),
        })?,
        resumes: header.parse("resumes")?,
        checkpoints: header.parse("checkpoints")?,
        runs: header.parse("runs")?,
        states: header.parse("states")?,
        dedup_hits: header.parse("dedup_hits")?,
        sleep_skips: header.parse("sleep_skips")?,
        patterns_done: header.parse("patterns_done")?,
        store_entries: header.parse("store_entries")?,
        checkpoint_bytes: header.parse("checkpoint_bytes")?,
        checkpoint_ms: header.parse("checkpoint_ms")?,
    };
    header.refuse_unread()?;
    // `--resume` builds the cell and the store from these values, so a
    // manifest that would make it panic is refused here.
    if let Err(message) = manifest.config.validate() {
        return Err(header.bad(format_args!("invalid configuration: {message}")));
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::QuorumProtocol;
    use kset_core::ValidityCondition;

    fn sample_config() -> CheckerConfig {
        let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 4, 2, 1, ValidityCondition::RV1);
        cfg.max_runs = 123_456;
        cfg.por = false;
        cfg
    }

    #[test]
    fn every_status_round_trips_through_its_manifest_word() {
        let dir = std::env::temp_dir().join(format!("kset_manifest_status_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut manifest = Manifest::new(&sample_config(), 250_000);
        for (status, word) in [
            (CampaignStatus::Running, "running"),
            (CampaignStatus::Holds, "holds"),
            (CampaignStatus::Bounded, "bounded"),
            (CampaignStatus::Violated, "violated"),
        ] {
            manifest.status = status;
            write_manifest(&dir, &manifest).unwrap();
            let text = fs::read_to_string(manifest_path(&dir)).unwrap();
            assert!(text.contains(&format!("status: {word}\n")), "{text}");
            assert_eq!(read_manifest(&dir).unwrap().status, status);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips() {
        let dir = std::env::temp_dir().join(format!("kset_manifest_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut manifest = Manifest::new(&sample_config(), 1_000_000);
        manifest.resumes = 2;
        manifest.checkpoints = 7;
        manifest.runs = 1_000_000;
        manifest.store_entries = 42;
        manifest.bound = Some("--max-runs 123456".to_string());
        write_manifest(&dir, &manifest).unwrap();
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.checkpoint_every, 1_000_000);
        // The restored configuration digests back to the original — the
        // property `--resume` without restated flags relies on.
        assert_eq!(config_digest(&back.config), manifest.config_digest);
        assert!(!dir.join("MANIFEST.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_digest_tracks_exploration_relevant_fields_only() {
        let base = sample_config();
        let d0 = config_digest(&base);

        // threads and progress are contract-covered; cadence isn't even a
        // checker field. Digest must not move.
        let mut threads = base.clone();
        threads.threads = 1 + base.threads;
        threads.progress = std::num::NonZeroU64::new(1000);
        assert_eq!(config_digest(&threads), d0);

        // Every exploration-relevant knob must move it.
        let mut other = base.clone();
        other.k = 3;
        assert_ne!(config_digest(&other), d0);
        let mut other = base.clone();
        other.max_runs += 1;
        assert_ne!(config_digest(&other), d0);
        let mut other = base.clone();
        other.por = true;
        assert_ne!(config_digest(&other), d0);
        let mut other = base.clone();
        other.protocol = QuorumProtocol::ProtocolA;
        assert_ne!(config_digest(&other), d0);
    }

    #[test]
    fn derived_digest_mode_keeps_the_digest_text_layout() {
        // The digest hashes the mode the inputs select, and every other
        // exploration field the same way for every cell.
        let cfg = sample_config();
        let layout = |symmetry: bool, inputs: &str| {
            format!(
                "protocol=FloodMin;n=4;k=2;t=1;validity=RV1;symmetry={symmetry};\
                 max_runs=123456;max_states={};por=false;dedup=true;model=mp_crash;\
                 byz_menu=[];byz_silence=false;loss_budget=0;inputs={inputs}",
                cfg.max_states,
            )
        };
        assert_eq!(config_digest(&cfg), fnv1a(layout(false, "None").as_bytes()));
        // The digest of an n = 3 FloodMin campaign.
        let n3 = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        assert_eq!(config_digest(&n3), 0x59c6_9a95_0a91_08e1);
        assert!(!Manifest::new(&cfg, 250_000).symmetry);
        let mut unanimous = cfg.clone();
        unanimous.inputs = Some(vec![1, 1, 1, 1]);
        assert_eq!(
            config_digest(&unanimous),
            fnv1a(layout(true, "Some([1, 1, 1, 1])").as_bytes())
        );
        assert!(Manifest::new(&unanimous, 250_000).symmetry);
    }

    #[test]
    fn byzantine_manifest_round_trips_and_widens_the_digest() {
        let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        let crash_digest = config_digest(&cfg);
        cfg.adversary = AdversaryModel::MpByz;
        cfg.byz_menu = vec![0];
        cfg.byz_silence = true;
        cfg.inputs = Some(vec![1, 1, 1]);
        // The adversary space is exploration-relevant: the digest moves.
        assert_ne!(config_digest(&cfg), crash_digest);
        let mut menu = cfg.clone();
        menu.byz_menu = vec![0, 2];
        assert_ne!(config_digest(&menu), config_digest(&cfg));

        let dir = std::env::temp_dir().join(format!("kset_manifest_byz_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest::new(&cfg, 250_000);
        write_manifest(&dir, &manifest).unwrap();
        // `--resume` reconstruction carries the adversary space.
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back.config, cfg);
        assert_eq!(config_digest(&back.config), manifest.config_digest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_and_repeated_keys_are_refused() {
        let dir = std::env::temp_dir().join(format!("kset_manifest_keys_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A lossy cell writes the optional `model` and `loss_budget` keys.
        let mut lossy = sample_config();
        lossy.adversary = AdversaryModel::MpLossy;
        lossy.loss_budget = 2;
        write_manifest(&dir, &Manifest::new(&lossy, 250_000)).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().config.loss_budget, 2);
        let path = manifest_path(&dir);
        let text = fs::read_to_string(&path).unwrap();
        for (edited, refusal) in [
            (format!("{text}bogus_key: 1\n"), "unknown key \"bogus_key\""),
            (format!("{text}runs: 0\n"), "repeated key \"runs\""),
            (text.replacen("n: 4", "n: 4\nn: 4", 1), "repeated key \"n\""),
        ] {
            fs::write(&path, edited).unwrap();
            let err = read_manifest(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(refusal), "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_refused() {
        let dir = std::env::temp_dir().join(format!("kset_manifest_skew_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, &Manifest::new(&sample_config(), 250_000)).unwrap();
        let path = manifest_path(&dir);
        let text = fs::read_to_string(&path).unwrap();
        let skewed = text.replace(
            &format!("manifest v{MANIFEST_VERSION}"),
            &format!("manifest v{}", MANIFEST_VERSION + 1),
        );
        fs::write(&path, skewed).unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
        let skew = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<UnsupportedVersion>());
        assert_eq!(
            skew,
            Some(&UnsupportedVersion {
                path,
                found: MANIFEST_VERSION + 1,
                supported: MANIFEST_VERSION,
            })
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
