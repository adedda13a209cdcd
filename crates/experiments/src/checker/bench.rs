//! The `model_check --bench-json` report, and the gauge fields its rows
//! share with `--progress` lines. Both are compact JSON through
//! [`kset_core::json`]; the schema is in `OBSERVABILITY.md`.

use kset_core::cli::available_threads;
use kset_core::json::{Error, Fields, Fixed, FromJson, ObjectWriter, ToJson, Value};
use kset_sim::DigestMode;

use super::{CellVerdict, CheckerConfig, ForkMode, PatternVerdict, RunGauge, VisitedGauge};

/// One checked cell: a row of the `--bench-json` report.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchCell {
    /// The protocol and cell, e.g. `FloodMin SC(k=2,t=1,RV1) n=3`.
    pub cell: String,
    /// The adversary model, e.g. `mp_crash`.
    pub model: String,
    /// `holds` or `violated`.
    pub verdict: String,
    /// The run bound (`max_runs`) cut the exploration short: a bounded
    /// "holds" is *not* a certification.
    pub bounded: bool,
    /// The digest mode the cell's inputs selected: `plain` or `canonical`.
    pub digest: String,
    /// Fault patterns explored.
    pub patterns: usize,
    /// Schedules executed.
    pub runs: u64,
    /// Visited-table entries cached, summed over the patterns.
    pub states: usize,
    /// Exploration tasks, summed over the patterns.
    pub tasks: u64,
    /// The visited store at its largest (a resumed campaign's: this
    /// invocation's).
    pub visited: VisitedGauge,
    /// The execution and barrier gauges (a resumed campaign's: this
    /// invocation's).
    pub gauge: RunGauge,
    /// Wall-clock seconds of the check.
    pub wall_s: f64,
}

impl BenchCell {
    /// The row of `cfg`'s cell, checked to `verdict` in `wall_s` seconds.
    pub fn of(
        cfg: &CheckerConfig,
        verdict: &CellVerdict,
        visited: VisitedGauge,
        gauge: RunGauge,
        wall_s: f64,
    ) -> Self {
        let (n, k, t, validity) = (cfg.n, cfg.k, cfg.t, cfg.validity);
        let digest = match cfg.digest() {
            DigestMode::Plain => "plain",
            DigestMode::Canonical => "canonical",
        };
        BenchCell {
            cell: format!("{} SC(k={k},t={t},{validity}) n={n}", cfg.protocol.name()),
            model: cfg.adversary.to_string(),
            verdict: if verdict.holds() { "holds" } else { "violated" }.into(),
            bounded: !verdict.complete,
            digest: digest.into(),
            patterns: verdict.patterns.len(),
            runs: verdict.runs,
            states: verdict.patterns.iter().map(|p| p.states).sum(),
            tasks: verdict.patterns.iter().map(|p| p.tasks).sum(),
            visited,
            gauge,
            wall_s,
        }
    }
}

impl ToJson for BenchCell {
    fn write_json(&self, out: &mut String) {
        let row = ObjectWriter::new(out)
            .field("cell", &self.cell)
            .field("model", &self.model)
            .field("verdict", &self.verdict)
            .field("bounded", &self.bounded)
            .field("digest", &self.digest)
            .field("patterns", &self.patterns)
            .field("runs", &self.runs)
            .field("states", &self.states)
            .field("tasks", &self.tasks);
        let row = self.visited.fields(row);
        self.gauge
            .fields(row, |row| {
                row.field("wall_s", &Fixed::<3>(self.wall_s))
                    .field("runs_per_s", &rate(self.runs, self.wall_s))
            })
            .finish();
    }
}

impl FromJson for BenchCell {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let f = value.fields()?;
        Ok(BenchCell {
            cell: f.get("cell")?,
            model: f.get("model")?,
            verdict: f.get("verdict")?,
            bounded: f.get("bounded")?,
            digest: f.get("digest")?,
            patterns: f.get("patterns")?,
            runs: f.get("runs")?,
            states: f.get("states")?,
            tasks: f.get("tasks")?,
            visited: VisitedGauge::from_fields(&f)?,
            gauge: RunGauge::from_fields(&f)?,
            wall_s: f.get::<Fixed<3>>("wall_s")?.0,
        })
    }
}

/// The `--bench-json` report of `cells`, checked on `threads` workers
/// under `fork`: the rows and their totals.
pub fn bench_report(threads: usize, fork: ForkMode, cells: &[BenchCell]) -> String {
    let runs = cells.iter().map(|c| c.runs).sum();
    let wall_s = cells.iter().map(|c| c.wall_s).sum();
    let mut report = String::new();
    ObjectWriter::new(&mut report)
        .field("bench", "model_check_certification")
        .field("threads", &threads)
        .field("fork_mode", &fork.to_string())
        .field("host_logical_cpus", &available_threads())
        .field("cells", cells)
        .field("total_runs", &runs)
        .field("total_wall_s", &Fixed::<3>(wall_s))
        .field("runs_per_s", &rate(runs, wall_s))
        .finish();
    report
}

/// `count` per `seconds`, in whole units.
fn rate(count: u64, seconds: f64) -> Fixed<0> {
    Fixed(count as f64 / seconds.max(1e-9))
}

impl VisitedGauge {
    /// Appends the gauge's fields to `row`.
    fn fields<'a>(&self, row: ObjectWriter<'a>) -> ObjectWriter<'a> {
        row.field("visited_entries", &self.entries)
            .field("visited_bytes", &self.bytes)
            .field("visited_fingerprints", &self.fingerprints)
            .field("visited_slots", &self.slots)
    }

    fn from_fields(f: &Fields<'_>) -> Result<Self, Error> {
        Ok(VisitedGauge {
            entries: f.get("visited_entries")?,
            bytes: f.get("visited_bytes")?,
            fingerprints: f.get("visited_fingerprints")?,
            slots: f.get("visited_slots")?,
        })
    }
}

impl RunGauge {
    /// Appends the gauge's fields to `row`, with the fields `timing`
    /// appends between the execution and the barrier gauges: bench rows
    /// carry their wall-clock figures there.
    fn fields<'a>(
        &self,
        row: ObjectWriter<'a>,
        timing: impl FnOnce(ObjectWriter<'a>) -> ObjectWriter<'a>,
    ) -> ObjectWriter<'a> {
        let row = row
            .field("events_fired", &self.events_fired)
            .field("truncated_runs", &self.truncated_runs);
        timing(row)
            .field("fold_s", &Fixed::<3>(self.fold_s))
            .field("waves", &self.waves)
            .field("snapshots", &self.snapshots)
            .field("resumes_copied", &self.resumes_copied)
            .field("resumes_moved", &self.resumes_moved)
            .field("store_probes", &self.store_probes)
            .field("store_hits", &self.store_hits)
    }

    fn from_fields(f: &Fields<'_>) -> Result<Self, Error> {
        Ok(RunGauge {
            events_fired: f.get("events_fired")?,
            truncated_runs: f.get("truncated_runs")?,
            fold_s: f.get::<Fixed<3>>("fold_s")?.0,
            waves: f.get("waves")?,
            snapshots: f.get("snapshots")?,
            resumes_copied: f.get("resumes_copied")?,
            resumes_moved: f.get("resumes_moved")?,
            store_probes: f.get("store_probes")?,
            store_hits: f.get("store_hits")?,
        })
    }
}

/// One `--progress` line: the pattern's verdict counters so far, its
/// queue and store sizes, and its gauges under the bench row's names
/// (`store`: the wave store as it stands, not its largest).
pub(super) fn progress_line(
    cfg: &CheckerConfig,
    pattern: &PatternVerdict,
    queued_tasks: usize,
    store: VisitedGauge,
    gauge: &RunGauge,
) -> String {
    let mut line = String::new();
    let row = ObjectWriter::new(&mut line)
        .field("protocol", cfg.protocol.name())
        .field("crashed", &pattern.crashed)
        .field("runs", &pattern.runs)
        .field("states", &pattern.states)
        .field("dedup_hits", &pattern.dedup_hits)
        .field("sleep_skips", &pattern.sleep_skips)
        .field("queued_tasks", &queued_tasks)
        .field("store_entries", &store.entries);
    let row = store.fields(row);
    gauge.fields(row, |row| row).finish();
    line
}

#[cfg(test)]
mod tests {
    use kset_core::json;

    use super::*;

    #[test]
    fn bench_cell_writes_its_golden_row_and_reads_it_back() {
        let cell = BenchCell {
            cell: "FloodMin SC(k=2,t=1,RV1) n=3".into(),
            model: "mp_crash".into(),
            verdict: "holds".into(),
            bounded: false,
            digest: "plain".into(),
            patterns: 4,
            runs: 6222,
            states: 5903,
            tasks: 89,
            visited: VisitedGauge {
                entries: 1912,
                bytes: 89024,
                fingerprints: 1440,
                slots: 2560,
            },
            gauge: RunGauge {
                events_fired: 12367,
                truncated_runs: 5469,
                fold_s: 0.25,
                waves: 5,
                snapshots: 2310,
                resumes_copied: 3908,
                resumes_moved: 2310,
                store_probes: 7559,
                store_hits: 1687,
            },
            wall_s: 0.0125,
        };
        let text = json::to_string(&cell);
        assert_eq!(
            text,
            r#"{"cell":"FloodMin SC(k=2,t=1,RV1) n=3","model":"mp_crash","verdict":"holds","bounded":false,"digest":"plain","patterns":4,"runs":6222,"states":5903,"tasks":89,"visited_entries":1912,"visited_bytes":89024,"visited_fingerprints":1440,"visited_slots":2560,"events_fired":12367,"truncated_runs":5469,"wall_s":0.013,"runs_per_s":497760,"fold_s":0.250,"waves":5,"snapshots":2310,"resumes_copied":3908,"resumes_moved":2310,"store_probes":7559,"store_hits":1687}"#
        );
        let back: BenchCell = json::from_str(&text).unwrap();
        assert_eq!(
            back,
            BenchCell {
                wall_s: 0.013,
                ..cell
            }
        );
    }
}
