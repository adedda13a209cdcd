//! `serve_bench` — closed-loop load generator for the consensus service.
//!
//! Pushes `--instances` proposals through a [`Server`] at full speed (a
//! dedicated proposer thread submits, the main thread drains decisions)
//! and records throughput and latency per thread count into a JSON
//! report (`--out`, default `BENCH_serve.json`).
//!
//! Latency here is submit-to-decide under saturation: with the bounded
//! proposal queues full, it is dominated by queueing, which is exactly
//! what a service-level benchmark should show. Each row also splits it
//! into its two parts, queue wait ([`Decision::queued`]) and service (the
//! rest). Every decision is checked (`terminated`, non-empty decision
//! map) before it is counted.
//!
//! Bad flag values (a zero count, `--t` not below `--n`, a value that does
//! not parse) are usage errors: one `serve_bench: usage error: …` line and
//! exit 2 before any work starts.
//!
//! [`Decision::queued`]: kset_serve::Decision::queued

use std::process::ExitCode;
use std::time::Instant;

use kset_core::cli::{available_threads, Args};
use kset_core::json::{self, Fixed, ObjectWriter, ToJson};
use kset_core::object;
use kset_serve::{ServeConfig, Server, Workload};

/// One thread count's measurements: a row of the report's `runs`.
struct BenchRow {
    threads: usize,
    instances: u64,
    wall_s: Fixed<3>,
    decisions_per_s: Fixed<0>,
    p50_latency_us: u64,
    p95_latency_us: u64,
    max_latency_us: u64,
    /// Submit-to-admit wait and admit-to-decide service, the two parts
    /// of the latency.
    p50_queue_us: u64,
    p95_queue_us: u64,
    p50_service_us: u64,
    p95_service_us: u64,
    events_total: u64,
    events_per_instance: Fixed<2>,
}

object!(BenchRow {
    threads,
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
    events_total,
    events_per_instance,
});

/// The `--out` report: the workload, the service configuration and one
/// row per thread count.
struct Report<'a> {
    workload: &'a Workload,
    config: &'a ServeConfig,
    runs: Vec<BenchRow>,
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

const DESCRIPTION: &str = "Closed-loop load test of kset-serve: a proposer thread submits \
    failure-free FloodMin instances as fast as backpressure allows while the main thread drains \
    and verifies every decision (terminated, non-empty decision map). decisions_per_s is \
    end-to-end service throughput; latencies are submit-to-decide under saturation. Each splits \
    into queue time (submit to admit, spent in the bounded per-worker queue of queue_depth \
    entries) and service time (admit to the decision leaving its worker); the *_queue_us and \
    *_service_us fields give their p50 and p95. Recorded from \
    `serve_bench --instances N --threads LIST`.";

/// The binary's name in usage errors.
const BIN: &str = "serve_bench";

const USAGE: &str = "usage: serve_bench [--instances N] [--threads LIST] [--n N] [--t N] \
                     [--batch EVENTS] [--max-live N] [--queue-depth N] [--seed SEED] [--out PATH]";

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

fn run_one(config: ServeConfig, instances: u64) -> Result<BenchRow, String> {
    let server = Server::start(config);
    let client = server.client();
    let n = config.workload.n;
    let start = Instant::now();
    let proposer = std::thread::spawn(move || {
        for id in 0..instances {
            // Ids are assigned in submission order, so this proposes the
            // inputs the drain below will verify against.
            if client.propose(inputs_for(id, n)).is_err() {
                return Err(id);
            }
        }
        Ok(())
    });

    let mut latencies_us: Vec<u64> = Vec::with_capacity(instances as usize);
    let mut queue_us: Vec<u64> = Vec::with_capacity(instances as usize);
    let mut service_us: Vec<u64> = Vec::with_capacity(instances as usize);
    let mut events_total: u64 = 0;
    for drained in 0..instances {
        let decision = server
            .recv_decision()
            .ok_or_else(|| format!("workers exited after {drained} decisions"))?;
        if !decision.record.terminated() {
            return Err(format!("instance {} did not terminate", decision.id));
        }
        if decision.record.decisions().is_empty() {
            return Err(format!("instance {} decided nothing", decision.id));
        }
        events_total += decision.events;
        latencies_us.push(decision.latency.as_micros() as u64);
        queue_us.push(decision.queued.as_micros() as u64);
        service_us.push(decision.latency.saturating_sub(decision.queued).as_micros() as u64);
        if (drained + 1) % 250_000 == 0 {
            eprintln!(
                "serve_bench: threads={} {}/{} decided",
                config.threads,
                drained + 1,
                instances
            );
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    proposer
        .join()
        .map_err(|_| "proposer thread panicked".to_string())?
        .map_err(|id| format!("propose {id} failed"))?;
    let stats = server.shutdown();
    if stats.decided != instances {
        return Err(format!("decided {} of {instances}", stats.decided));
    }
    let p50_p95 = |values: &mut Vec<u64>| {
        values.sort_unstable();
        [percentile(values, 50), percentile(values, 95)]
    };
    let [p50_latency_us, p95_latency_us] = p50_p95(&mut latencies_us);
    let [p50_queue_us, p95_queue_us] = p50_p95(&mut queue_us);
    let [p50_service_us, p95_service_us] = p50_p95(&mut service_us);
    Ok(BenchRow {
        threads: config.threads,
        instances,
        wall_s: Fixed(wall_s),
        decisions_per_s: Fixed(instances as f64 / wall_s),
        p50_latency_us,
        p95_latency_us,
        max_latency_us: *latencies_us.last().unwrap_or(&0),
        p50_queue_us,
        p95_queue_us,
        p50_service_us,
        p95_service_us,
        events_total,
        events_per_instance: Fixed(events_total as f64 / instances as f64),
    })
}

/// What the thread-count rows can show on a host with `cpus` logical
/// CPUs, next to the proposer and the draining main thread.
fn host_note(cpus: usize) -> String {
    format!(
        "Recorded on a host with {cpus} logical CPU(s). The proposer thread and the \
         draining main thread run beside the workers, so a row whose threads + 2 exceeds \
         {cpus} time-slices CPUs and measures multiplexing as well as scaling."
    )
}

fn main() -> ExitCode {
    let mut instances: u64 = 1_000_000;
    let mut thread_counts: Vec<usize> = vec![1, 2];
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
            "--n" => workload.n = args.positive("--n"),
            "--t" => workload.t = args.number("--t"),
            "--batch" => config.batch = args.positive("--batch"),
            "--max-live" => config.max_live = args.positive("--max-live"),
            "--queue-depth" => config.queue_depth = args.positive("--queue-depth"),
            "--seed" => workload.seed = args.number("--seed"),
            "--out" => out_path = args.value("--out"),
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

    let mut rows = Vec::new();
    for &threads in &thread_counts {
        let run_config = ServeConfig { threads, ..config };
        eprintln!(
            "serve_bench: {instances} instances of FloodMin(n={}, t={}) on {threads} worker(s)",
            workload.n, workload.t
        );
        match run_one(run_config, instances) {
            Ok(row) => {
                println!(
                    "threads={} wall_s={:.3} decisions_per_s={:.0} p50_us={} p95_us={} \
                     p50_queue_us={} p50_service_us={} events_per_instance={:.2}",
                    row.threads,
                    row.wall_s.0,
                    row.decisions_per_s.0,
                    row.p50_latency_us,
                    row.p95_latency_us,
                    row.p50_queue_us,
                    row.p50_service_us,
                    row.events_per_instance.0,
                );
                rows.push(row);
            }
            Err(err) => {
                eprintln!("serve_bench: threads={threads} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = Report {
        workload: &workload,
        config: &config,
        runs: rows,
    };
    if let Err(err) = std::fs::write(&out_path, json::to_string(&report) + "\n") {
        eprintln!("serve_bench: cannot write {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("serve_bench: wrote {out_path}");
    ExitCode::SUCCESS
}
