//! `serve_bench` — closed-loop load generator for the consensus service.
//!
//! Pushes `--instances` proposals through a [`Server`] at full speed (a
//! dedicated proposer thread submits, the main thread drains decisions)
//! and records throughput and latency per thread count into a hand-rolled
//! JSON report (`--out`, default `BENCH_serve.json`).
//!
//! Latency here is submit-to-decide under saturation: with the bounded
//! proposal queues full, it is dominated by queueing, which is exactly
//! what a service-level benchmark should show. Each row also splits it
//! into its two parts, queue wait ([`Decision::queued`]) and service (the
//! rest). Every decision is checked (`terminated`, non-empty decision
//! map) before it is counted.
//!
//! Bad flag values (a zero count, `--t` not below `--n`, a value that does
//! not parse) are usage errors: exit 2 before any work starts.
//!
//! [`Decision::queued`]: kset_serve::Decision::queued

use std::process::ExitCode;
use std::time::Instant;

use kset_serve::{ServeConfig, Server, Workload};

struct BenchRow {
    threads: usize,
    instances: u64,
    wall_s: f64,
    decisions_per_s: f64,
    p50_us: u64,
    p95_us: u64,
    max_us: u64,
    /// Submit-to-admit wait and admit-to-decide service, the two parts
    /// of the latency.
    queue_us: [u64; 2],
    service_us: [u64; 2],
    events_total: u64,
}

const USAGE: &str = "usage: serve_bench [--instances N] [--threads LIST] [--n N] [--t N] \
                     [--batch EVENTS] [--max-live N] [--queue-depth N] [--seed SEED] [--out PATH]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Rejects the command line before any work starts: exit 2.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("serve_bench: usage error: {message}");
    usage()
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        usage_error(format_args!("{flag} needs a value"))
    };
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format_args!("{flag}: cannot parse {value:?}")))
}

/// A count that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(flag: &str, value: Option<String>) -> T {
    let parsed = parse(flag, value);
    if parsed == T::default() {
        usage_error(format_args!("{flag} must be positive"));
    }
    parsed
}

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
    let [p50_us, p95_us] = p50_p95(&mut latencies_us);
    Ok(BenchRow {
        threads: config.threads,
        instances,
        wall_s,
        decisions_per_s: instances as f64 / wall_s,
        p50_us,
        p95_us,
        max_us: *latencies_us.last().unwrap_or(&0),
        queue_us: p50_p95(&mut queue_us),
        service_us: p50_p95(&mut service_us),
        events_total,
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

fn write_report(
    path: &str,
    workload: &Workload,
    config: &ServeConfig,
    rows: &[BenchRow],
) -> std::io::Result<()> {
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve_throughput\",\n");
    out.push_str(
        "  \"description\": \"Closed-loop load test of kset-serve: a proposer thread \
         submits failure-free FloodMin instances as fast as backpressure allows while \
         the main thread drains and verifies every decision (terminated, non-empty \
         decision map). decisions_per_s is end-to-end service throughput; latencies \
         are submit-to-decide under saturation. Each splits into queue time (submit \
         to admit, spent in the bounded per-worker queue of queue_depth entries) and \
         service time (admit to the decision leaving its worker); the *_queue_us and \
         *_service_us fields give their p50 and p95. Recorded from \
         `serve_bench --instances N --threads LIST`.\",\n",
    );
    out.push_str(&format!("  \"host_logical_cpus\": {cpus},\n"));
    out.push_str(&format!("  \"host_note\": \"{}\",\n", host_note(cpus)));
    out.push_str(&format!(
        "  \"workload\": {{\"protocol\": \"FloodMin\", \"n\": {}, \"t\": {}, \"seed\": {}, \
         \"fault_plan\": \"all correct\"}},\n",
        workload.n, workload.t, workload.seed
    ));
    out.push_str(&format!(
        "  \"config\": {{\"batch\": {}, \"max_live\": {}, \"queue_depth\": {}}},\n",
        config.batch, config.max_live, config.queue_depth
    ));
    out.push_str("  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"instances\": {}, \"wall_s\": {:.3}, \
             \"decisions_per_s\": {:.0}, \"p50_latency_us\": {}, \"p95_latency_us\": {}, \
             \"max_latency_us\": {}, \"p50_queue_us\": {}, \"p95_queue_us\": {}, \
             \"p50_service_us\": {}, \"p95_service_us\": {}, \"events_total\": {}, \
             \"events_per_instance\": {:.2}}}{}\n",
            row.threads,
            row.instances,
            row.wall_s,
            row.decisions_per_s,
            row.p50_us,
            row.p95_us,
            row.max_us,
            row.queue_us[0],
            row.queue_us[1],
            row.service_us[0],
            row.service_us[1],
            row.events_total,
            row.events_total as f64 / row.instances as f64,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let mut instances: u64 = 1_000_000;
    let mut thread_counts: Vec<usize> = vec![1, 2];
    let mut workload = Workload::flood_min(3, 1);
    let mut config = ServeConfig::new(workload);
    let mut out_path = "BENCH_serve.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instances" => instances = parse("--instances", args.next()),
            "--threads" => {
                let list: String = parse("--threads", args.next());
                thread_counts = list
                    .split(',')
                    .map(|s| positive("--threads", Some(s.trim().to_string())))
                    .collect();
            }
            "--n" => workload.n = positive("--n", args.next()),
            "--t" => workload.t = parse("--t", args.next()),
            "--batch" => config.batch = positive("--batch", args.next()),
            "--max-live" => config.max_live = positive("--max-live", args.next()),
            "--queue-depth" => config.queue_depth = positive("--queue-depth", args.next()),
            "--seed" => workload.seed = parse("--seed", args.next()),
            "--out" => out_path = parse("--out", args.next()),
            "--help" | "-h" => usage(),
            other => usage_error(format_args!("unknown flag {other}")),
        }
    }
    if workload.t >= workload.n {
        usage_error(format_args!(
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
                    row.wall_s,
                    row.decisions_per_s,
                    row.p50_us,
                    row.p95_us,
                    row.queue_us[0],
                    row.service_us[0],
                    row.events_total as f64 / row.instances as f64,
                );
                rows.push(row);
            }
            Err(err) => {
                eprintln!("serve_bench: threads={threads} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(err) = write_report(&out_path, &workload, &config, &rows) {
        eprintln!("serve_bench: cannot write {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("serve_bench: wrote {out_path}");
    ExitCode::SUCCESS
}
