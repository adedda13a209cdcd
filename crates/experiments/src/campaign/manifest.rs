//! The campaign manifest: a human-readable, versioned summary of what a
//! campaign is checking and how far it has come.
//!
//! The manifest is the campaign's audit surface (`OBSERVABILITY.md`
//! documents the schema): the cell and bounds it was created with, the
//! lifecycle status and the bound that cut a bounded campaign short, and
//! cumulative counters (runs, states, dedup hits, checkpoints and their
//! cost, resume lineage). It is rewritten
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
    numbers, parse_adversary_model, parse_protocol, parse_validity, AdversaryModel,
    CheckerConfig, Header,
};
use crate::exhaustive::QuorumProtocol;
use kset_core::ValidityCondition;
use kset_sim::DigestMode;

use super::snapshot::fnv1a;
use super::UnsupportedVersion;

/// File name of the manifest inside a campaign directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Current manifest schema version (the `# kset campaign manifest vN`
/// header line). Bump on any field change; readers reject other versions.
/// v2 dropped the append-log store's `shards` and `store_log_bytes` keys
/// and added `bound`, `checkpoint_bytes` and `checkpoint_ms`.
pub const MANIFEST_VERSION: u64 = 2;

/// Lifecycle status of a campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CampaignStatus {
    /// Created or resumed, not yet finished; `--resume` continues it.
    Running,
    /// Finished with no violation in any crash pattern, every pattern
    /// explored in full.
    Holds,
    /// Finished with no violation, but a bound (`--max-runs`, `--depth`,
    /// `--preemptions`) cut at least one pattern short: not a
    /// certification.
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
    /// Protocol under test.
    pub protocol: QuorumProtocol,
    /// System size.
    pub n: usize,
    /// Agreement bound.
    pub k: usize,
    /// Fault budget.
    pub t: usize,
    /// Validity condition.
    pub validity: ValidityCondition,
    /// Whether the campaign runs on canonical (symmetry-reduced) digests.
    /// Derived from the inputs when the campaign is created
    /// ([`CheckerConfig::digest`]) and recorded so that resume can refuse a
    /// campaign an older build explored under the other mode.
    pub symmetry: bool,
    /// Depth bound (`usize::MAX` = unbounded).
    pub depth: usize,
    /// Preemption bound (`None` = unbounded).
    pub preemptions: Option<usize>,
    /// Per-pattern run budget.
    pub max_runs: u64,
    /// Per-task memoization budget.
    pub max_states: usize,
    /// Partial-order reduction switch.
    pub por: bool,
    /// State-digest deduplication switch.
    pub dedup: bool,
    /// Adversary model of the cell.
    pub adversary: AdversaryModel,
    /// Byzantine forged-value menu (empty for crash/lossy adversaries).
    pub byz_menu: Vec<u64>,
    /// Whether selective silence is in the Byzantine behaviour space.
    pub byz_silence: bool,
    /// Per-run drop budget of the lossy adversary.
    pub loss_budget: u64,
    /// Input override (`None` = canonical inputs).
    pub inputs: Option<Vec<u64>>,
    /// FNV-1a digest of the exploration-relevant configuration
    /// ([`config_digest`]); resume refuses a mismatch.
    pub config_digest: u64,
    /// Lifecycle status.
    pub status: CampaignStatus,
    /// The bounds that cut a [bounded](CampaignStatus::Bounded) campaign
    /// short, as [`CellVerdict::bounds`](crate::checker::CellVerdict::bounds)
    /// names them, joined by ` or `; `None` otherwise.
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
/// mode, and all exploration bounds and reduction switches.
///
/// The text layout predates derived digest modes: `symmetry=` now holds
/// the mode [`CheckerConfig::digest`] derives from the inputs, so a
/// distinct-input campaign written when the mode was a flag (always off)
/// hashes identically and still resumes.
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
    let mut text = format!(
        "protocol={};n={};k={};t={};validity={};symmetry={};depth={};preemptions={};max_runs={};max_states={};por={};dedup={}",
        cfg.protocol.name(),
        cfg.n,
        cfg.k,
        cfg.t,
        cfg.validity,
        uses_canonical_digests(cfg),
        cfg.depth,
        cfg.preemptions.map_or(-1i64, |p| p as i64),
        cfg.max_runs,
        cfg.max_states,
        cfg.por,
        cfg.dedup,
    );
    // The adversary space widens the digest *append-only and only when it
    // differs from the substrate-default crash adversary*: a crash-model
    // campaign's digest string — and with it every checkpoint recorded
    // before adversary models existed — is bit-for-bit unchanged.
    if adversary_is_non_default(cfg) {
        text.push_str(&format!(
            ";model={};byz_menu={:?};byz_silence={};loss_budget={}",
            cfg.adversary, cfg.byz_menu, cfg.byz_silence, cfg.loss_budget,
        ));
    }
    if let Some(inputs) = &cfg.inputs {
        text.push_str(&format!(";inputs={inputs:?}"));
    }
    fnv1a(text.as_bytes())
}

/// Whether `cfg`'s inputs select canonical digests — the manifest's
/// `symmetry` value.
pub(crate) fn uses_canonical_digests(cfg: &CheckerConfig) -> bool {
    cfg.digest() == DigestMode::Canonical
}

/// Whether `cfg`'s adversary differs from the protocol substrate's
/// default crash adversary (the pre-adversary-model behaviour).
fn adversary_is_non_default(cfg: &CheckerConfig) -> bool {
    cfg.adversary != AdversaryModel::crash_for(cfg.protocol)
}

impl Manifest {
    /// A fresh manifest for a campaign just created from `cfg`: status
    /// running, no bound, all counters zero.
    pub fn new(cfg: &CheckerConfig) -> Self {
        Manifest {
            protocol: cfg.protocol,
            n: cfg.n,
            k: cfg.k,
            t: cfg.t,
            validity: cfg.validity,
            symmetry: uses_canonical_digests(cfg),
            depth: cfg.depth,
            preemptions: cfg.preemptions,
            max_runs: cfg.max_runs,
            max_states: cfg.max_states,
            por: cfg.por,
            dedup: cfg.dedup,
            adversary: cfg.adversary,
            byz_menu: cfg.byz_menu.clone(),
            byz_silence: cfg.byz_silence,
            loss_budget: cfg.loss_budget,
            inputs: cfg.inputs.clone(),
            config_digest: config_digest(cfg),
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

impl Manifest {
    /// Reconstructs the checker configuration the campaign was created
    /// with (exploration-relevant fields only; `threads`/`progress` take
    /// their defaults — the caller sets them freely, they are outside the
    /// determinism contract's inputs). `model_check --resume` uses this
    /// so a resume does not have to restate the cell and bounds.
    pub fn checker_config(&self) -> CheckerConfig {
        let mut cfg = CheckerConfig::new(self.protocol, self.n, self.k, self.t, self.validity);
        cfg.depth = self.depth;
        cfg.preemptions = self.preemptions;
        cfg.max_runs = self.max_runs;
        cfg.max_states = self.max_states;
        cfg.por = self.por;
        cfg.dedup = self.dedup;
        cfg.adversary = self.adversary;
        cfg.byz_menu = self.byz_menu.clone();
        cfg.byz_silence = self.byz_silence;
        cfg.loss_budget = self.loss_budget;
        cfg.inputs = self.inputs.clone();
        cfg
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
    let mut out = Vec::new();
    writeln!(out, "# kset campaign manifest v{MANIFEST_VERSION}")?;
    writeln!(out, "protocol: {}", manifest.protocol.name())?;
    writeln!(out, "n: {}", manifest.n)?;
    writeln!(out, "k: {}", manifest.k)?;
    writeln!(out, "t: {}", manifest.t)?;
    writeln!(out, "validity: {}", manifest.validity)?;
    writeln!(out, "symmetry: {}", manifest.symmetry)?;
    if manifest.depth == usize::MAX {
        writeln!(out, "depth: unbounded")?;
    } else {
        writeln!(out, "depth: {}", manifest.depth)?;
    }
    match manifest.preemptions {
        None => writeln!(out, "preemptions: unbounded")?,
        Some(p) => writeln!(out, "preemptions: {p}")?,
    }
    writeln!(out, "max_runs: {}", manifest.max_runs)?;
    writeln!(out, "max_states: {}", manifest.max_states)?;
    writeln!(out, "por: {}", manifest.por)?;
    writeln!(out, "dedup: {}", manifest.dedup)?;
    // Adversary-space fields are written only when they deviate from the
    // crash-model defaults, so crash-campaign manifests keep their
    // field set; readers default the absent keys.
    let default_crash = matches!(
        manifest.adversary,
        AdversaryModel::MpCrash | AdversaryModel::SmCrash
    );
    if !default_crash {
        writeln!(out, "model: {}", manifest.adversary)?;
    }
    if !manifest.byz_menu.is_empty() {
        writeln!(
            out,
            "byz_menu:{}",
            manifest
                .byz_menu
                .iter()
                .map(|v| format!(" {v}"))
                .collect::<String>()
        )?;
    }
    if manifest.byz_silence {
        writeln!(out, "byz_silence: true")?;
    }
    if manifest.loss_budget != 0 {
        writeln!(out, "loss_budget: {}", manifest.loss_budget)?;
    }
    if let Some(inputs) = &manifest.inputs {
        writeln!(
            out,
            "inputs:{}",
            inputs.iter().map(|v| format!(" {v}")).collect::<String>()
        )?;
    }
    writeln!(out, "config_digest: {:016x}", manifest.config_digest)?;
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
    // `unbounded` or a number.
    let bound = |value: &str| match value {
        "unbounded" => Some(None),
        other => other.parse().ok().map(Some),
    };
    let protocol = header.required("protocol", parse_protocol)?;
    let manifest = Manifest {
        protocol,
        n: header.parse("n")?,
        k: header.parse("k")?,
        t: header.parse("t")?,
        validity: header.required("validity", parse_validity)?,
        symmetry: header.parse("symmetry")?,
        depth: header.required("depth", bound)?.unwrap_or(usize::MAX),
        preemptions: header.required("preemptions", bound)?,
        max_runs: header.parse("max_runs")?,
        max_states: header.parse("max_states")?,
        por: header.parse("por")?,
        dedup: header.parse("dedup")?,
        // The adversary-space fields are absent in crash-model manifests.
        adversary: header
            .optional("model", parse_adversary_model)?
            .unwrap_or(AdversaryModel::crash_for(protocol)),
        byz_menu: header.optional("byz_menu", numbers)?.unwrap_or_default(),
        byz_silence: header.optional("byz_silence", |v| v.parse().ok())?.unwrap_or(false),
        loss_budget: header.optional("loss_budget", |v| v.parse().ok())?.unwrap_or(0),
        inputs: header.optional("inputs", numbers)?,
        config_digest: header.required("config_digest", |v| u64::from_str_radix(v, 16).ok())?,
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
    if let Err(message) = manifest.checker_config().validate() {
        return Err(header.bad(format_args!("invalid configuration: {message}")));
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> CheckerConfig {
        let mut cfg = CheckerConfig::new(
            QuorumProtocol::FloodMin,
            4,
            2,
            1,
            ValidityCondition::RV1,
        );
        cfg.preemptions = Some(3);
        cfg.max_runs = 123_456;
        cfg
    }

    #[test]
    fn every_status_round_trips_through_its_manifest_word() {
        let dir = std::env::temp_dir().join(format!("kset_manifest_status_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut manifest = Manifest::new(&sample_config());
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
        let cfg = sample_config();
        let mut manifest = Manifest::new(&cfg);
        manifest.status = CampaignStatus::Running;
        manifest.resumes = 2;
        manifest.checkpoints = 7;
        manifest.runs = 1_000_000;
        manifest.store_entries = 42;
        manifest.bound = Some("--max-runs 123456".to_string());
        write_manifest(&dir, &manifest).unwrap();
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back.protocol, manifest.protocol);
        assert_eq!(back.n, manifest.n);
        assert_eq!(back.validity, manifest.validity);
        assert_eq!(back.depth, usize::MAX);
        assert_eq!(back.preemptions, Some(3));
        assert_eq!(back.max_runs, 123_456);
        assert_eq!(back.config_digest, manifest.config_digest);
        assert_eq!(back.status, CampaignStatus::Running);
        assert_eq!(back.resumes, 2);
        assert_eq!(back.checkpoints, 7);
        assert_eq!(back.runs, 1_000_000);
        assert_eq!(back.store_entries, 42);
        assert_eq!(back.bound.as_deref(), Some("--max-runs 123456"));
        // The reconstructed configuration digests back to the original —
        // the property `--resume` without restated flags relies on.
        assert_eq!(config_digest(&back.checker_config()), manifest.config_digest);
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
        other.preemptions = None;
        assert_ne!(config_digest(&other), d0);
        let mut other = base.clone();
        other.protocol = QuorumProtocol::ProtocolA;
        assert_ne!(config_digest(&other), d0);
    }

    #[test]
    fn derived_digest_mode_keeps_the_digest_text_layout() {
        // Campaigns created while the mode was a flag (off by default)
        // hashed this exact text; a distinct-input cell reproduces it.
        let cfg = sample_config();
        let layout = |symmetry: bool, inputs: &str| {
            format!(
                "protocol=FloodMin;n=4;k=2;t=1;validity=RV1;symmetry={symmetry};depth={};\
                 preemptions=3;max_runs=123456;max_states={};por=true;dedup=true{inputs}",
                usize::MAX,
                cfg.max_states,
            )
        };
        assert_eq!(config_digest(&cfg), fnv1a(layout(false, "").as_bytes()));
        // The digest an n = 3 FloodMin campaign has always recorded.
        let n3 = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
        assert_eq!(config_digest(&n3), 0x55df_527f_019e_ffa4);
        assert!(!Manifest::new(&cfg).symmetry);
        let mut unanimous = cfg.clone();
        unanimous.inputs = Some(vec![1, 1, 1, 1]);
        assert_eq!(
            config_digest(&unanimous),
            fnv1a(layout(true, ";inputs=[1, 1, 1, 1]").as_bytes())
        );
        assert!(Manifest::new(&unanimous).symmetry);
    }

    #[test]
    fn byzantine_manifest_round_trips_and_widens_the_digest() {
        let mut cfg = CheckerConfig::new(
            QuorumProtocol::FloodMin,
            3,
            2,
            1,
            ValidityCondition::RV1,
        );
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

        let dir = std::env::temp_dir()
            .join(format!("kset_manifest_byz_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest::new(&cfg);
        write_manifest(&dir, &manifest).unwrap();
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back.adversary, AdversaryModel::MpByz);
        assert_eq!(back.byz_menu, vec![0]);
        assert!(back.byz_silence);
        assert_eq!(back.inputs, Some(vec![1, 1, 1]));
        // `--resume` reconstruction carries the adversary space.
        assert_eq!(config_digest(&back.checker_config()), manifest.config_digest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_and_repeated_keys_are_refused() {
        let dir =
            std::env::temp_dir().join(format!("kset_manifest_keys_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A lossy cell writes the optional `model` and `loss_budget` keys.
        let mut lossy = sample_config();
        lossy.adversary = AdversaryModel::MpLossy;
        lossy.loss_budget = 2;
        write_manifest(&dir, &Manifest::new(&lossy)).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().loss_budget, 2);
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
        let dir =
            std::env::temp_dir().join(format!("kset_manifest_skew_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, &Manifest::new(&sample_config())).unwrap();
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
