//! The counterexample replay script, v1 and v2, and the `key: value`
//! header reader it shares with the campaign manifest.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::str::FromStr;

use kset_core::ValidityCondition;
use kset_sim::{Deviation, EventId, FaultPlan, FaultSpec};

use super::{
    parse_adversary_model, parse_protocol, parse_validity, AdversaryModel, CheckerConfig,
    Counterexample,
};
use crate::exhaustive::QuorumProtocol;

/// A counterexample file read back from disk (see [`write_counterexample`]
/// for the format).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SavedCounterexample {
    /// Protocol the schedule violates.
    pub protocol: QuorumProtocol,
    /// System size.
    pub n: usize,
    /// Agreement bound.
    pub k: usize,
    /// Fault budget.
    pub t: usize,
    /// Validity condition.
    pub validity: ValidityCondition,
    /// Adversary the cell was certified against (v1 scripts default to
    /// the protocol substrate's crash adversary).
    pub adversary: AdversaryModel,
    /// Input override the cell ran with; `None` = canonical inputs.
    pub inputs: Option<Vec<u64>>,
    /// The Byzantine forged-value menu of the recording configuration.
    pub byz_menu: Vec<u64>,
    /// Whether selective silence was in the behaviour space.
    pub byz_silence: bool,
    /// The lossy adversary's per-run drop budget.
    pub loss_budget: u64,
    /// The violating fault pattern and schedule.
    pub counterexample: Counterexample,
}

impl SavedCounterexample {
    /// Reconstructs the fault plan of the recorded run: silent crashes
    /// plus the recorded Byzantine slots.
    pub(super) fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::silent_crashes(self.n, &self.counterexample.crashed);
        for &p in &self.counterexample.byzantine {
            plan.set(p, FaultSpec::Byzantine);
        }
        plan
    }

    /// The checker configuration of the recorded cell, whose
    /// [`CheckerConfig::cell_inputs`] and [`CheckerConfig::pattern_policy`]
    /// the script replays under.
    pub(super) fn config(&self) -> CheckerConfig {
        CheckerConfig {
            adversary: self.adversary,
            inputs: self.inputs.clone(),
            byz_menu: self.byz_menu.clone(),
            byz_silence: self.byz_silence,
            loss_budget: self.loss_budget,
            ..CheckerConfig::new(self.protocol, self.n, self.k, self.t, self.validity)
        }
    }
}

/// Writes a counterexample as a plain-text replay script:
///
/// ```text
/// # kset model_check counterexample v1
/// # protocol: FloodMin
/// # n: 4
/// # k: 2
/// # t: 2
/// # validity: RV1
/// # crashed:
/// # choices: 3 6
/// # violation: agreement violated: ...
/// 0
/// 4
/// ...
/// ```
///
/// Header lines carry the cell and the shrunk choice prefix; each body
/// line is one fired event id, in order — the exact
/// [`kset_sim::ReplayScheduler`] script of the violating run. The format
/// is deliberately line-based and deterministic: re-running the checker on
/// an unchanged workspace produces a byte-identical file, so these scripts
/// can be committed as regression pins.
///
/// A cell recorded under a non-crash adversary (or with explicit inputs)
/// is emitted as **v2**, which adds `# model:`, `# inputs:`,
/// `# byz-menu:`, `# byz-silence:`, `# loss-budget:` and `# byzantine:`
/// headers, and suffixes each deviating body line with the deviation in
/// its [`Deviation`] display syntax (`17 forge:0`, `23 drop`). Crash
/// cells keep emitting v1 bytes, so committed crash scripts never churn.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_counterexample(
    path: &Path,
    cfg: &CheckerConfig,
    ce: &Counterexample,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let v2 = cfg.adversary.is_byzantine() || cfg.adversary.is_lossy() || cfg.inputs.is_some();
    let mut out = Vec::new();
    writeln!(
        out,
        "# kset model_check counterexample v{}",
        if v2 { 2 } else { 1 }
    )?;
    writeln!(out, "# protocol: {}", cfg.protocol.name())?;
    writeln!(out, "# n: {}", cfg.n)?;
    writeln!(out, "# k: {}", cfg.k)?;
    writeln!(out, "# t: {}", cfg.t)?;
    writeln!(out, "# validity: {}", cfg.validity)?;
    if v2 {
        writeln!(out, "# model: {}", cfg.adversary)?;
        writeln!(
            out,
            "# inputs:{}",
            cfg.cell_inputs()
                .iter()
                .map(|v| format!(" {v}"))
                .collect::<String>()
        )?;
        writeln!(
            out,
            "# byz-menu:{}",
            cfg.byz_menu.iter().map(|v| format!(" {v}")).collect::<String>()
        )?;
        writeln!(out, "# byz-silence: {}", cfg.byz_silence)?;
        writeln!(out, "# loss-budget: {}", cfg.loss_budget)?;
        writeln!(
            out,
            "# byzantine:{}",
            ce.byzantine
                .iter()
                .map(|p| format!(" {p}"))
                .collect::<String>()
        )?;
    }
    writeln!(
        out,
        "# crashed:{}",
        ce.crashed
            .iter()
            .map(|p| format!(" {p}"))
            .collect::<String>()
    )?;
    writeln!(
        out,
        "# choices:{}",
        ce.choices.iter().map(|c| format!(" {c}")).collect::<String>()
    )?;
    writeln!(out, "# violation: {}", ce.violation.replace('\n', "; "))?;
    for (id, deviation) in &ce.fired {
        match deviation {
            Deviation::Faithful => writeln!(out, "{}", id.as_u64())?,
            other => writeln!(out, "{} {}", id.as_u64(), other)?,
        }
    }
    fs::write(path, out)
}

/// Parses the deviation suffix of a v2 body line (`forge:<v>` or `drop`);
/// `None` on anything else.
fn parse_deviation(token: &str) -> Option<Deviation> {
    if token == "drop" {
        return Some(Deviation::Drop);
    }
    token
        .strip_prefix("forge:")
        .and_then(|v| v.parse().ok())
        .map(Deviation::Forge)
}

/// Reads a counterexample script written by [`write_counterexample`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on malformed headers or body,
/// on a cell [`CheckerConfig::validate`] rejects, and on a crashed or
/// Byzantine process id outside `0..n`.
pub fn read_counterexample(path: &Path) -> io::Result<SavedCounterexample> {
    let text = fs::read_to_string(path)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut header = Header::new(String::new());
    let mut fired = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix('#') {
            // `forge:0` in a byz-menu header would split wrong, but
            // headers always start with a known key, so the first ':'
            // is the separator for every header this format emits.
            header.insert(rest);
        } else if !line.trim().is_empty() {
            let mut tokens = line.split_whitespace();
            let id = tokens.next().expect("non-empty line has a token");
            let raw: u64 = id
                .parse()
                .map_err(|e| bad(format!("bad event id {line:?}: {e}")))?;
            let deviation = match tokens.next() {
                None => Deviation::Faithful,
                Some(token) => parse_deviation(token)
                    .ok_or_else(|| bad(format!("bad deviation in line {line:?}")))?,
            };
            fired.push((EventId::from_u64(raw), deviation));
        }
    }
    let protocol = header.required("protocol", parse_protocol)?;
    // The v2 headers are optional with crash-model defaults, so v1 files
    // (and hand-trimmed scripts) keep reading unchanged.
    let saved = SavedCounterexample {
        protocol,
        n: header.parse("n")?,
        k: header.parse("k")?,
        t: header.parse("t")?,
        validity: header.required("validity", parse_validity)?,
        adversary: header
            .optional("model", parse_adversary_model)?
            .unwrap_or(AdversaryModel::crash_for(protocol)),
        inputs: header.optional("inputs", numbers)?,
        byz_menu: header.optional("byz-menu", numbers)?.unwrap_or_default(),
        byz_silence: header.optional("byz-silence", |v| v.parse().ok())?.unwrap_or(false),
        loss_budget: header.optional("loss-budget", |v| v.parse().ok())?.unwrap_or(0),
        counterexample: Counterexample {
            crashed: header.required("crashed", numbers)?,
            byzantine: header.optional("byzantine", numbers)?.unwrap_or_default(),
            choices: header.required("choices", numbers)?,
            fired,
            violation: header.required("violation", |v| Some(v.to_string()))?,
        },
    };
    // Replay builds the cell and its fault plan from these values, so a
    // script that would make it panic is refused here.
    saved
        .config()
        .validate()
        .map_err(|message| bad(format!("script records an invalid configuration: {message}")))?;
    let ce = &saved.counterexample;
    if let Some(p) = ce.crashed.iter().chain(&ce.byzantine).find(|&&p| p >= saved.n) {
        return Err(bad(format!("faulty process {p} is out of range for n = {}", saved.n)));
    }
    Ok(saved)
}

/// The `key: value` fields of a line-based header, the layout
/// counterexample scripts and campaign manifests share. Keys and values
/// are trimmed. Through [`Header::insert`] a repeated key keeps its last
/// value; [`Header::insert_once`] refuses it.
pub(crate) struct Header<'a> {
    fields: HashMap<&'a str, &'a str>,
    /// Every key a lookup has asked for, for [`Header::refuse_unread`].
    read: RefCell<HashSet<&'a str>>,
    /// Prefixes every error message (a manifest names its file).
    context: String,
}

impl<'a> Header<'a> {
    /// An empty header whose errors start with `context`.
    pub(crate) fn new(context: String) -> Self {
        Header {
            fields: HashMap::new(),
            read: RefCell::default(),
            context,
        }
    }

    /// Records `line`, split at its first `:`; `false` if it has none.
    pub(crate) fn insert(&mut self, line: &'a str) -> bool {
        let Some((key, value)) = line.split_once(':') else {
            return false;
        };
        self.fields.insert(key.trim(), value.trim());
        true
    }

    /// Records `line` like [`Header::insert`], but refuses a line with
    /// no `:` and a key already recorded.
    pub(crate) fn insert_once(&mut self, line: &'a str) -> io::Result<()> {
        let Some((key, value)) = line.split_once(':') else {
            return Err(self.bad(format_args!("malformed line {line:?}")));
        };
        match self.fields.insert(key.trim(), value.trim()) {
            Some(_) => Err(self.bad(format_args!("repeated key {:?}", key.trim()))),
            None => Ok(()),
        }
    }

    /// Refuses a recorded key that no lookup has asked for.
    pub(crate) fn refuse_unread(&self) -> io::Result<()> {
        let read = self.read.borrow();
        match self.fields.keys().filter(|key| !read.contains(*key)).min() {
            Some(key) => Err(self.bad(format_args!("unknown key {key:?}"))),
            None => Ok(()),
        }
    }

    /// An [`io::ErrorKind::InvalidData`] error about this header.
    pub(crate) fn bad(&self, message: impl fmt::Display) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}{message}", self.context),
        )
    }

    /// The value of `key` as `read` reads it; `None` if the key is
    /// absent, an error if `read` refuses the value.
    pub(crate) fn optional<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> io::Result<Option<T>> {
        let Some((&key, &value)) = self.fields.get_key_value(key) else {
            return Ok(None);
        };
        self.read.borrow_mut().insert(key);
        read(value)
            .map(Some)
            .ok_or_else(|| self.bad(format_args!("bad {key}: {value:?}")))
    }

    /// [`Header::optional`] for a key that must be present.
    pub(crate) fn required<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> io::Result<T> {
        self.optional(key, read)?
            .ok_or_else(|| self.bad(format_args!("missing field '{key}'")))
    }

    /// The value of `key`, which must be present, parsed with
    /// [`str::parse`].
    pub(crate) fn parse<T: FromStr>(&self, key: &str) -> io::Result<T> {
        self.required(key, |value| value.parse().ok())
    }
}

/// A whitespace-separated list of numbers; `None` if one does not parse.
pub(crate) fn numbers<T: FromStr>(value: &str) -> Option<Vec<T>> {
    value.split_whitespace().map(|word| word.parse().ok()).collect()
}
