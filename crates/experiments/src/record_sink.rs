//! Structured run records and their JSONL sink.
//!
//! Every empirical run (one protocol execution under one seed) can be
//! captured as a [`RunRecord`]: the full cell coordinates, the seed, the
//! run's outcome, the kernel's aggregate [`RunStats`], and — when enabled —
//! the per-process [`RunMetrics`]. Records serialize one-per-line as JSON
//! (JSON Lines) through [`JsonlSink`], so experiment outputs stream to disk
//! and load back with [`read_jsonl`] for rollups.
//!
//! The schema is versioned ([`RUN_RECORD_VERSION`]) and documented
//! field-by-field in `OBSERVABILITY.md` at the repository root. Records are
//! deterministic: re-running the same binary with the same arguments
//! produces a byte-identical JSONL file (no wall-clock timestamps, no
//! floats, no map-ordering ambiguity).
//!
//! The encoding goes through [`kset_core::json`] and keeps the layout of
//! `serde`'s derive: compact objects, fields in declaration order, unit
//! enum variants as their names (`"MpCrash"`, `"RV1"`), `None` as `null`.
//! Decoding ignores unknown fields and rejects missing ones.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use kset_core::{json, object, ProblemSpec, ValidityCondition};
use kset_regions::Model;
use kset_sim::{Outcome, RunMetrics, RunStats};

/// Version of the [`RunRecord`] schema. Bumped whenever a field is added,
/// removed, or changes meaning; consumers should check it before parsing
/// further.
pub const RUN_RECORD_VERSION: u32 = 1;

/// A stable filename-safe slug for a model (`mp_cr`, `mp_byz`, `sm_cr`,
/// `sm_byz`) — the same convention the atlas CSV files use.
pub fn model_slug(model: Model) -> &'static str {
    match model {
        Model::MpCrash => "mp_cr",
        Model::MpByzantine => "mp_byz",
        Model::SmCrash => "sm_cr",
        Model::SmByzantine => "sm_byz",
    }
}

/// How one run ended, as far as the `SC(k, t, C)` checker is concerned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// Whether every correct process decided before events ran out.
    pub terminated: bool,
    /// Number of processes (correct or faulty) that decided.
    pub decided: usize,
    /// Number of distinct values decided by correct processes — the
    /// quantity the agreement condition bounds by `k`.
    pub distinct_decisions: usize,
    /// The violation message when the run failed `SC(k, t, C)`, else
    /// `None`. A clean experiment has `violation: null` on every line.
    pub violation: Option<String>,
}

impl RunOutcome {
    /// How `run` ended. With `check`, a spec and the inputs the run
    /// proposed, the run is also checked against `SC(k, t, C)` (its planned
    /// faulty processes excused) and a failure's message becomes
    /// `violation`; without, `violation` is `None`.
    pub fn of(run: &Outcome<u64>, check: Option<(&ProblemSpec, &[u64])>) -> Self {
        let violation = check.and_then(|(spec, inputs)| {
            let record = kset_core::RunRecord::new(inputs.to_vec())
                .with_faulty(run.faulty.iter().copied())
                .with_decisions(run.decisions.clone())
                .with_terminated(run.terminated);
            let report = spec.check(&record);
            (!report.is_ok()).then(|| report.to_string())
        });
        RunOutcome {
            terminated: run.terminated,
            decided: run.decisions.len(),
            distinct_decisions: run.correct_decision_set().len(),
            violation,
        }
    }

    /// True when the run satisfied the specification.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

/// One experiment run, ready for JSONL emission.
///
/// This is the observability record of an *execution* — distinct from
/// `kset_core::RunRecord`, which is the checker's input (inputs/decisions).
/// See `OBSERVABILITY.md` for the field-by-field schema.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunRecord {
    /// Schema version, currently [`RUN_RECORD_VERSION`].
    pub schema_version: u32,
    /// Deterministic identifier: `"<model>/<validity>/n<n>k<k>t<t>/s<seed>"`.
    pub run_id: String,
    /// The failure/communication model of the cell.
    pub model: Model,
    /// The validity condition being validated.
    pub validity: ValidityCondition,
    /// System size.
    pub n: usize,
    /// Agreement bound.
    pub k: usize,
    /// Fault budget.
    pub t: usize,
    /// Scheduler seed of this run.
    pub seed: u64,
    /// Protocol that ran, e.g. `"Protocol A"` or `"SIM(FloodMin)"`.
    pub protocol: String,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The kernel's aggregate counters.
    pub stats: RunStats,
    /// Per-process counters and histograms, when collection was enabled.
    pub metrics: Option<RunMetrics>,
}

impl RunRecord {
    /// Assembles a record, deriving the deterministic `run_id` from the
    /// cell coordinates and seed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: Model,
        validity: ValidityCondition,
        n: usize,
        k: usize,
        t: usize,
        seed: u64,
        protocol: impl Into<String>,
        outcome: RunOutcome,
        stats: RunStats,
        metrics: Option<RunMetrics>,
    ) -> Self {
        RunRecord {
            schema_version: RUN_RECORD_VERSION,
            run_id: format!("{}/{validity}/n{n}k{k}t{t}/s{seed}", model_slug(model)),
            model,
            validity,
            n,
            k,
            t,
            seed,
            protocol: protocol.into(),
            outcome,
            stats,
            metrics,
        }
    }
}

object!(RunOutcome {
    terminated,
    decided,
    distinct_decisions,
    violation
});
object!(RunRecord {
    schema_version,
    run_id,
    model,
    validity,
    n,
    k,
    t,
    seed,
    protocol,
    outcome,
    stats,
    metrics
});

/// A buffered JSON Lines writer for [`RunRecord`]s: one record per line,
/// flushed on [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    written: usize,
}

impl JsonlSink {
    /// Creates (or truncates) the file at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Appends one record as a single JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&mut self, record: &RunRecord) -> io::Result<()> {
        let line = json::to_string(record);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes and closes the sink, returning how many records it wrote.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final flush.
    pub fn finish(mut self) -> io::Result<usize> {
        self.writer.flush()?;
        Ok(self.written)
    }
}

/// Writes `records` to a new JSONL file at `path` through [`JsonlSink`],
/// returning how many it wrote.
///
/// # Errors
///
/// Propagates filesystem and I/O errors.
pub fn write_jsonl(path: impl AsRef<Path>, records: &[RunRecord]) -> io::Result<usize> {
    let mut sink = JsonlSink::create(path)?;
    for record in records {
        sink.write(record)?;
    }
    sink.finish()
}

/// Reads every record from a JSONL file written by [`JsonlSink`].
///
/// # Errors
///
/// Fails on I/O errors, and with [`io::ErrorKind::InvalidData`] if the
/// file is not UTF-8 or any non-empty line is not a valid record.
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<Vec<RunRecord>> {
    read_records(BufReader::new(File::open(path)?))
}

fn read_records(reader: impl BufRead) -> io::Result<Vec<RunRecord>> {
    let mut records = Vec::new();
    for (number, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record = json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", number + 1),
            )
        })?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::validate_cell_with;
    use kset_sim::{Histogram, MetricsConfig, ProcessMetrics};

    fn sample_records(seeds: std::ops::Range<u64>) -> Vec<RunRecord> {
        let mut records = Vec::new();
        validate_cell_with(
            Model::MpCrash,
            ValidityCondition::RV1,
            6,
            4,
            3,
            seeds,
            MetricsConfig::enabled(),
            |r| records.push(r),
        )
        .unwrap()
        .expect("solvable cell");
        records
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "kset-record-sink-{}-{tag}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn run_id_is_deterministic_and_descriptive() {
        let records = sample_records(0..2);
        assert_eq!(records[0].run_id, "mp_cr/RV1/n6k4t3/s0");
        assert_eq!(records[1].run_id, "mp_cr/RV1/n6k4t3/s1");
        assert_eq!(records[0].schema_version, RUN_RECORD_VERSION);
        assert_eq!(records[0].protocol, "FloodMin");
        assert!(records[0].outcome.clean());
        assert!(records[0].metrics.is_some());
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let records = sample_records(0..3);
        let path = temp_path("roundtrip");
        let mut sink = JsonlSink::create(&path).unwrap();
        for r in &records {
            sink.write(r).unwrap();
        }
        assert_eq!(sink.written(), 3);
        assert_eq!(sink.finish().unwrap(), 3);
        let back = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, records);
    }

    /// A hand-built record exercising every encoding rule: nested objects,
    /// an escaped string, `null` and `Some` options, and histograms.
    fn golden_record() -> RunRecord {
        let mut decisions = Histogram::new();
        decisions.record(7);
        let process = ProcessMetrics {
            events_fired: 5,
            decided_at: Some(7),
            ..Default::default()
        };
        let metrics = RunMetrics {
            per_process: vec![
                process,
                ProcessMetrics {
                    decided_at: None,
                    ..process
                },
            ],
            pending_depth: Histogram::new(),
            delivery_latency: Histogram::new(),
            op_latency: Histogram::new(),
            decision_latency: decisions,
            peak_pending: 4,
            peak_pending_bytes: 64,
        };
        let outcome = RunOutcome {
            terminated: false,
            decided: 1,
            distinct_decisions: 1,
            violation: Some("agreement: \"v\" \\ w\nmore".into()),
        };
        let stats = RunStats {
            events_fired: 9,
            ops_completed: 6,
            ..Default::default()
        };
        let (model, validity) = (Model::SmByzantine, ValidityCondition::WV2);
        RunRecord::new(
            model,
            validity,
            3,
            2,
            1,
            42,
            "Protocol E",
            outcome,
            stats,
            Some(metrics),
        )
    }

    #[test]
    fn golden_record_encodes_byte_for_byte() {
        let expected = concat!(
            r#"{"schema_version":1,"run_id":"sm_byz/WV2/n3k2t1/s42","model":"SmByzantine","#,
            r#""validity":"WV2","n":3,"k":2,"t":1,"seed":42,"protocol":"Protocol E","#,
            r#""outcome":{"terminated":false,"decided":1,"distinct_decisions":1,"#,
            r#""violation":"agreement: \"v\" \\ w\nmore"},"#,
            r#""stats":{"events_fired":9,"messages_delivered":0,"ops_completed":6,"#,
            r#""local_steps":0,"events_dropped_by_crash":0},"#,
            r#""metrics":{"per_process":[{$P"decided_at":7},{$P"decided_at":null}],"#,
            r#""pending_depth":{"buckets":[Z65],"count":0,"sum":0,"max":0},"#,
            r#""delivery_latency":{"buckets":[Z65],"count":0,"sum":0,"max":0},"#,
            r#""op_latency":{"buckets":[Z65],"count":0,"sum":0,"max":0},"#,
            r#""decision_latency":{"buckets":[0,0,0,1,Z61],"count":1,"sum":7,"max":7},"#,
            r#""peak_pending":4,"peak_pending_bytes":64}}"#,
        )
        .replace(
            "$P",
            concat!(
                r#""events_fired":5,"local_steps":0,"messages_delivered":0,"ops_completed":0,"#,
                r#""messages_sent":0,"ops_issued":0,"events_dropped_by_crash":0,"#,
            ),
        )
        .replace("Z65", &["0"; 65].join(","))
        .replace("Z61", &["0"; 61].join(","));
        let record = golden_record();
        assert_eq!(json::to_string(&record), expected);
        assert_eq!(json::from_str::<RunRecord>(&expected), Ok(record));
    }

    #[test]
    fn decoding_ignores_unknown_fields_and_rejects_missing_ones() {
        let line = json::to_string(&golden_record());
        let extra = line.replacen('{', r#"{"note":[1.5,{"x":null}],"#, 1);
        assert_eq!(json::from_str::<RunRecord>(&extra), Ok(golden_record()));
        let missing = line.replacen(r#""seed":42,"#, "", 1);
        assert_eq!(
            json::from_str::<RunRecord>(&missing),
            Err(json::Error::Schema("missing field `seed`".into()))
        );
        for (from, to) in [("[0,0,0,1,", "[0,0,1,"), ("SmByzantine", "SmByz")] {
            assert!(
                json::from_str::<RunRecord>(&line.replacen(from, to, 1)).is_err(),
                "{to}"
            );
        }
    }

    #[test]
    fn jsonl_reader_fails_closed_on_truncation_and_corruption() {
        use kset_prop::{in_range, prop_assert_eq, Runner};
        let records = [golden_record(), sample_records(0..1).remove(0)];
        let lines: Vec<String> = records.iter().map(|r| json::to_string(r) + "\n").collect();
        for (record, line) in records.iter().zip(&lines) {
            // Every prefix: the line with or without its newline reads back
            // the record, the empty file reads nothing, the rest is invalid.
            for cut in 0..=line.len() {
                match read_records(&line.as_bytes()[..cut]) {
                    Ok(back) if cut == 0 => assert!(back.is_empty()),
                    Ok(back) => {
                        assert!(cut >= line.len() - 1, "prefix {cut} accepted");
                        assert_eq!(&back, std::slice::from_ref(record));
                    }
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "prefix {cut}"),
                }
            }
        }
        // Single-byte corruptions: the reader rejects the line with
        // `InvalidData`, returns the original record, or returns exactly the
        // record the corrupted text spells out (the same JSON content).
        let cases = (
            in_range(0..lines.len()),
            in_range(0..usize::MAX),
            in_range(0u16..256),
        );
        Runner::new("jsonl_reader_fails_closed_on_corruption")
            .cases(2048)
            .run(cases, |(which, at, byte)| {
                let mut bytes = lines[which].clone().into_bytes();
                let at = at % bytes.len();
                bytes[at] = byte as u8;
                match read_records(&bytes[..]) {
                    Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                    Ok(back) => {
                        prop_assert_eq!(back.len(), 1);
                        if back[0] != records[which] {
                            let text = std::str::from_utf8(&bytes).expect("accepted as UTF-8");
                            let spelled = json::parse(text).expect("accepted as JSON");
                            prop_assert_eq!(json::to_string(&back[0]), json::to_string(&spelled));
                        }
                    }
                }
                Ok(())
            });
    }

    #[test]
    fn same_seed_produces_byte_identical_jsonl() {
        // The determinism guarantee documented in OBSERVABILITY.md: two
        // invocations with identical configuration write identical bytes.
        let (a, b) = (temp_path("det-a"), temp_path("det-b"));
        for path in [&a, &b] {
            let mut sink = JsonlSink::create(path).unwrap();
            for r in sample_records(0..3) {
                sink.write(&r).unwrap();
            }
            sink.finish().unwrap();
        }
        let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        assert!(!bytes_a.is_empty());
        assert_eq!(bytes_a, bytes_b);
    }

    #[test]
    fn model_slugs_are_stable() {
        assert_eq!(model_slug(Model::MpCrash), "mp_cr");
        assert_eq!(model_slug(Model::MpByzantine), "mp_byz");
        assert_eq!(model_slug(Model::SmCrash), "sm_cr");
        assert_eq!(model_slug(Model::SmByzantine), "sm_byz");
    }
}
