//! `serve_bench` — load generator for the consensus service.
//!
//! Pushes `--instances` proposals through a [`Server`] per thread count
//! and records throughput and latency into a JSON report (`--out`,
//! default `BENCH_serve.json`). Two loops:
//!
//! * Closed loop (the default): a dedicated proposer thread submits at
//!   full speed while the main thread drains decisions. With the bounded
//!   proposal queues full, latency is dominated by queueing, which is
//!   exactly what a saturation benchmark should show.
//! * Open loop (`--rate R`): the main thread submits one proposal every
//!   `1 / R` seconds and drains decisions between sends, so latency is
//!   what one proposal waits at an offered load below capacity.
//!
//! Each row splits latency into its two parts, queue wait
//! ([`Decision::queued`]) and service (the rest), and reports how often
//! the workers parked ([`ServeStats::parks`]). Every decision is checked
//! (`terminated`, non-empty decision map) before it is counted.
//!
//! Bad flag values (a zero count, `--t` not below `--n`, a value that does
//! not parse) are usage errors: one `serve_bench: usage error: …` line and
//! exit 2 before any work starts.
//!
//! [`Decision::queued`]: kset_serve::Decision::queued
//! [`ServeStats::parks`]: kset_serve::ServeStats::parks

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kset_core::cli::{available_threads, Args};
use kset_core::json::{self, Fixed, ObjectWriter, ToJson, Value};
use kset_core::object;
use kset_serve::{Decision, ServeConfig, Server, Workload};

/// One run's measurements: a row of the report's `runs`. Latencies are
/// in microseconds with one decimal.
struct BenchRow {
    /// The `--label` of the invocation that recorded the row.
    label: Option<String>,
    threads: usize,
    /// Offered proposals per second of an open-loop row; `None` for a
    /// closed-loop row.
    rate_per_s: Option<u64>,
    instances: u64,
    wall_s: Fixed<3>,
    decisions_per_s: Fixed<0>,
    p50_latency_us: Fixed<1>,
    p95_latency_us: Fixed<1>,
    max_latency_us: Fixed<1>,
    /// Submit-to-admit wait and admit-to-decide service, the two parts
    /// of the latency.
    p50_queue_us: Fixed<1>,
    p95_queue_us: Fixed<1>,
    p50_service_us: Fixed<1>,
    p95_service_us: Fixed<1>,
    /// How late the open-loop generator called `propose` after each
    /// proposal's due time; `None` for a closed-loop row.
    p95_late_us: Option<Fixed<1>>,
    parks: u64,
    events_total: u64,
    events_per_instance: Fixed<2>,
}

object!(BenchRow {
    label,
    threads,
    rate_per_s,
    instances,
    wall_s,
    decisions_per_s,
    p50_latency_us,
    p95_latency_us,
    max_latency_us,
    p50_queue_us,
    p95_queue_us,
    p50_service_us,
    p95_service_us,
    p95_late_us,
    parks,
    events_total,
    events_per_instance,
});

/// The `--out` report: the workload, the service configuration and one
/// row per run, the rows of earlier invocations first under `--append`.
struct Report<'a> {
    workload: &'a Workload,
    config: &'a ServeConfig,
    runs: Vec<Value>,
}

impl ToJson for Report<'_> {
    fn write_json(&self, out: &mut String) {
        let (workload, config, cpus) = (self.workload, self.config, available_threads());
        ObjectWriter::new(out)
            .field("bench", "serve_throughput")
            .field("description", DESCRIPTION)
            .field("host_logical_cpus", &cpus)
            .field("host_note", &host_note(cpus))
            .object("workload", |o| {
                o.field("protocol", "FloodMin")
                    .field("n", &workload.n)
                    .field("t", &workload.t)
                    .field("seed", &workload.seed)
                    .field("fault_plan", "all correct")
            })
            .object("config", |o| {
                o.field("batch", &config.batch)
                    .field("max_live", &config.max_live)
                    .field("queue_depth", &config.queue_depth)
            })
            .field("runs", &self.runs)
            .finish();
    }
}

const DESCRIPTION: &str = "Load test of kset-serve on failure-free FloodMin instances; every \
    decision is verified (terminated, non-empty decision map). A closed-loop row (rate_per_s \
    null) has a proposer thread submit as fast as backpressure allows while the main thread \
    drains: decisions_per_s is end-to-end service throughput and latencies are submit-to-decide \
    under saturation. An open-loop row has the main thread submit one proposal every \
    1/rate_per_s seconds and drain between sends: latencies are what one proposal waits below \
    capacity, and p95_late_us is how late the generator submitted. Latencies split into queue \
    time (submit to admit, spent in the bounded per-worker queue of queue_depth entries) and \
    service time (admit to the decision leaving its worker); the *_queue_us and *_service_us \
    fields give their p50 and p95. parks counts the times a worker found its queue empty and \
    blocked on it. Recorded from `serve_bench --instances N --threads LIST [--rate R] \
    [--label TEXT] [--append]`.";

/// The binary's name in usage errors.
const BIN: &str = "serve_bench";

const USAGE: &str = "usage: serve_bench [--instances N] [--threads LIST] [--rate PER_S] [--n N] \
                     [--t N] [--batch EVENTS] [--max-live N] [--queue-depth N] [--seed SEED] \
                     [--label TEXT] [--out PATH] [--append]";

/// Deterministic per-instance inputs: varied enough to exercise different
/// decision values, reproducible from the instance id alone.
fn inputs_for(id: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|p| (id.wrapping_mul(31) + p * 7) % 97)
        .collect()
}

fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as u64 - 1) * pct) / 100;
    sorted[idx as usize]
}

/// `nanos` in microseconds, for a report field.
fn micros(nanos: u64) -> Fixed<1> {
    Fixed(nanos as f64 / 1e3)
}

/// The p50 and p95 of `values` (sorted in place), in microseconds.
fn p50_p95(values: &mut [u64]) -> [Fixed<1>; 2] {
    values.sort_unstable();
    [
        micros(percentile(values, 50)),
        micros(percentile(values, 95)),
    ]
}

/// What the drain collects from one run's verified decisions, times in
/// nanoseconds.
struct Samples {
    latency: Vec<u64>,
    queue: Vec<u64>,
    service: Vec<u64>,
    events_total: u64,
    /// The run's worker count and proposal count, for progress lines.
    threads: usize,
    instances: u64,
}

impl Samples {
    fn new(threads: usize, instances: u64) -> Self {
        let cap = instances as usize;
        Samples {
            latency: Vec::with_capacity(cap),
            queue: Vec::with_capacity(cap),
            service: Vec::with_capacity(cap),
            events_total: 0,
            threads,
            instances,
        }
    }

    fn len(&self) -> u64 {
        self.latency.len() as u64
    }

    /// Verifies `decision` and records its times and events.
    fn accept(&mut self, decision: Decision) -> Result<(), String> {
        if !decision.record.terminated() {
            return Err(format!("instance {} did not terminate", decision.id));
        }
        if decision.record.decisions().is_empty() {
            return Err(format!("instance {} decided nothing", decision.id));
        }
        let nanos = |d: Duration| d.as_nanos() as u64;
        self.events_total += decision.events;
        self.latency.push(nanos(decision.latency));
        self.queue.push(nanos(decision.queued));
        self.service
            .push(nanos(decision.latency.saturating_sub(decision.queued)));
        if self.len() % 250_000 == 0 {
            eprintln!(
                "serve_bench: threads={} {}/{} decided",
                self.threads,
                self.len(),
                self.instances
            );
        }
        Ok(())
    }

    /// Blocks for decisions until every proposal has been answered.
    fn drain(&mut self, server: &Server) -> Result<(), String> {
        while self.len() < self.instances {
            let decision = server
                .recv_decision()
                .ok_or_else(|| format!("workers exited after {} decisions", self.len()))?;
            self.accept(decision)?;
        }
        Ok(())
    }
}

/// Closed loop: a proposer thread submits `instances` proposals as fast
/// as the queues take them while this thread drains.
fn closed_loop(server: &Server, n: usize, samples: &mut Samples) -> Result<(), String> {
    let client = server.client();
    let instances = samples.instances;
    let proposer = std::thread::spawn(move || {
        for id in 0..instances {
            // Ids are assigned in submission order, so this proposes the
            // inputs the drain verifies against.
            if client.propose(inputs_for(id, n)).is_err() {
                return Err(id);
            }
        }
        Ok(())
    });
    samples.drain(server)?;
    proposer
        .join()
        .map_err(|_| "proposer thread panicked".to_string())?
        .map_err(|id| format!("propose {id} failed"))
}

/// Open loop: proposal `id` is due `id / rate` seconds after the start;
/// this thread spins until each is due, submits it, and drains decisions
/// while it waits. Returns how late each proposal was submitted, in
/// nanoseconds.
fn open_loop(
    server: &Server,
    n: usize,
    rate: u64,
    samples: &mut Samples,
) -> Result<Vec<u64>, String> {
    let client = server.client();
    let instances = samples.instances;
    let mut late = Vec::with_capacity(instances as usize);
    let start = Instant::now();
    for id in 0..instances {
        let due_ns = u128::from(id) * 1_000_000_000 / u128::from(rate);
        let due = start + Duration::from_nanos(due_ns as u64);
        loop {
            if let Some(decision) = server.try_recv_decision() {
                samples.accept(decision)?;
            } else if Instant::now() >= due {
                break;
            } else {
                std::hint::spin_loop();
            }
        }
        late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        client
            .propose(inputs_for(id, n))
            .map_err(|err| format!("propose {id} failed: {err}"))?;
    }
    samples.drain(server)?;
    Ok(late)
}

fn run_one(
    config: ServeConfig,
    instances: u64,
    rate: Option<u64>,
    label: Option<&str>,
) -> Result<BenchRow, String> {
    let server = Server::start(config);
    let mut samples = Samples::new(config.threads, instances);
    let n = config.workload.n;
    let start = Instant::now();
    let mut late = match rate {
        Some(rate) => Some(open_loop(&server, n, rate, &mut samples)?),
        None => {
            closed_loop(&server, n, &mut samples)?;
            None
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    if stats.decided != instances {
        return Err(format!("decided {} of {instances}", stats.decided));
    }
    let [p50_latency_us, p95_latency_us] = p50_p95(&mut samples.latency);
    let [p50_queue_us, p95_queue_us] = p50_p95(&mut samples.queue);
    let [p50_service_us, p95_service_us] = p50_p95(&mut samples.service);
    Ok(BenchRow {
        label: label.map(str::to_owned),
        threads: config.threads,
        rate_per_s: rate,
        instances,
        wall_s: Fixed(wall_s),
        decisions_per_s: Fixed(instances as f64 / wall_s),
        p50_latency_us,
        p95_latency_us,
        max_latency_us: micros(*samples.latency.last().unwrap_or(&0)),
        p50_queue_us,
        p95_queue_us,
        p50_service_us,
        p95_service_us,
        p95_late_us: late.as_mut().map(|late| p50_p95(late)[1]),
        parks: stats.parks,
        events_total: samples.events_total,
        events_per_instance: Fixed(samples.events_total as f64 / instances as f64),
    })
}

/// What the thread-count rows can show on a host with `cpus` logical
/// CPUs, next to the proposer and the draining main thread.
fn host_note(cpus: usize) -> String {
    format!(
        "Recorded on a host with {cpus} logical CPU(s). Beside the workers, a closed-loop row \
         runs a proposer thread and the draining main thread, and an open-loop row runs the \
         main thread, which both proposes and drains; a row whose threads plus those exceed \
         {cpus} time-slices CPUs and measures multiplexing as well as scaling."
    )
}

/// The rows already in the report at `path`, for `--append`: none when
/// the file does not exist, an error when it cannot be read or records a
/// different workload or configuration than `report`.
fn earlier_rows(path: &str, report: &Report<'_>) -> Result<Vec<Value>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err.to_string()),
    };
    let old = json::parse(&text).map_err(|err| err.to_string())?;
    let new = json::parse(&json::to_string(report)).map_err(|err| err.to_string())?;
    let field = |value: &Value, name: &str| match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    for key in ["workload", "config"] {
        if field(&old, key) != field(&new, key) {
            return Err(format!("it records a different {key}"));
        }
    }
    match field(&old, "runs") {
        Some(Value::Array(rows)) => Ok(rows),
        _ => Err("it has no runs array".into()),
    }
}

fn main() -> ExitCode {
    let mut instances: u64 = 1_000_000;
    let mut thread_counts: Vec<usize> = vec![1, 2];
    let mut rate: Option<u64> = None;
    let mut label: Option<String> = None;
    let mut append = false;
    let mut workload = Workload::flood_min(3, 1);
    let mut config = ServeConfig::new(workload);
    let mut out_path = "BENCH_serve.json".to_string();
    let mut args = Args::new(BIN);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instances" => instances = args.positive("--instances"),
            "--threads" => {
                thread_counts = args.parsed("--threads", "a list of positive counts", |list| {
                    let counts = list.split(',').map(|s| s.trim().parse().ok());
                    counts.map(|count| count.filter(|&c| c > 0)).collect()
                })
            }
            "--rate" => rate = Some(args.positive("--rate")),
            "--n" => workload.n = args.positive("--n"),
            "--t" => workload.t = args.number("--t"),
            "--batch" => config.batch = args.positive("--batch"),
            "--max-live" => config.max_live = args.positive("--max-live"),
            "--queue-depth" => config.queue_depth = args.positive("--queue-depth"),
            "--seed" => workload.seed = args.number("--seed"),
            "--label" => label = Some(args.value("--label")),
            "--out" => out_path = args.value("--out"),
            "--append" => append = true,
            "--help" | "-h" => args.error(USAGE),
            other => args.unknown(other),
        }
    }
    if workload.t >= workload.n {
        args.error(format_args!(
            "--t must be below --n (FloodMin tolerates t < n), got --t {} with --n {}",
            workload.t, workload.n
        ));
    }
    config.workload = workload;

    let mut report = Report {
        workload: &workload,
        config: &config,
        runs: Vec::new(),
    };
    if append {
        match earlier_rows(&out_path, &report) {
            Ok(rows) => report.runs = rows,
            Err(err) => {
                eprintln!("serve_bench: cannot append to {out_path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    for &threads in &thread_counts {
        let run_config = ServeConfig { threads, ..config };
        let pace = rate.map_or("closed loop".to_string(), |r| format!("{r} proposals/s"));
        eprintln!(
            "serve_bench: {instances} instances of FloodMin(n={}, t={}) on {threads} worker(s), {pace}",
            workload.n, workload.t
        );
        match run_one(run_config, instances, rate, label.as_deref()) {
            Ok(row) => {
                println!(
                    "threads={} wall_s={:.3} decisions_per_s={:.0} p50_us={:.1} p95_us={:.1} \
                     p50_queue_us={:.1} p50_service_us={:.1} parks={} events_per_instance={:.2}",
                    row.threads,
                    row.wall_s.0,
                    row.decisions_per_s.0,
                    row.p50_latency_us.0,
                    row.p95_latency_us.0,
                    row.p50_queue_us.0,
                    row.p50_service_us.0,
                    row.parks,
                    row.events_per_instance.0,
                );
                let row = json::parse(&json::to_string(&row)).expect("a row is JSON");
                report.runs.push(row);
            }
            Err(err) => {
                eprintln!("serve_bench: threads={threads} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(err) = std::fs::write(&out_path, json::to_string(&report) + "\n") {
        eprintln!("serve_bench: cannot write {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("serve_bench: wrote {out_path}");
    ExitCode::SUCCESS
}
