//! Message / operation complexity of every protocol across system sizes —
//! the quantitative face of the paper's qualitative hierarchy (plain
//! quorum protocols are O(n²) messages, the Byzantine echo machinery is
//! O(n³), shared-memory protocols are O(n) operations per scan, and the
//! register emulations pay O(n) messages per emulated operation).
//!
//! Usage: `complexity [max_n] [--json PATH]`
//! (default 32, at least 4; sweeps n in powers of two; a bad command line
//! exits 2). With `--json`, each measured
//! run is emitted as a `RunRecord` JSON line with kernel metrics (schema:
//! `OBSERVABILITY.md`); the record's cell is the protocol's canonical
//! lemma cell, with `k` the smallest agreement bound the atlas grants the
//! protocol at that `(n, t)`.

use kset_adversary::plans;
use kset_core::cli::Args;
use kset_core::ValidityCondition;
use kset_experiments::record_sink::{JsonlSink, RunOutcome, RunRecord};
use kset_net::MpSystem;
use kset_protocols::{
    Emulated, FloodMin, ProtocolA, ProtocolB, ProtocolC, ProtocolD, ProtocolE, ProtocolF,
};
use kset_regions::{classify, CellClass, Model};
use kset_shmem::SmSystem;
use kset_sim::{MetricsConfig, Outcome};

const DEFAULT: u64 = u64::MAX;
const SEED: u64 = 1;

/// The smallest `k` for which the protocol's canonical cell is solvable at
/// `(n, t)` — the agreement guarantee the run is operating under.
fn guarantee_k(model: Model, validity: ValidityCondition, n: usize, t: usize) -> usize {
    (2..=n)
        .find(|&k| matches!(classify(model, validity, n, k, t), CellClass::Solvable(_)))
        .unwrap_or(n)
}

struct Recorder {
    sink: Option<JsonlSink>,
    metrics: MetricsConfig,
}

impl Recorder {
    fn new(json_path: Option<&str>) -> Self {
        Recorder {
            sink: json_path.map(|p| JsonlSink::create(p).expect("create --json sink")),
            metrics: if json_path.is_some() {
                MetricsConfig::enabled()
            } else {
                MetricsConfig::disabled()
            },
        }
    }

    /// Records one run at the protocol's canonical cell when `--json` is
    /// given. The run is not checked, so its `violation` is `null`.
    fn record(
        &mut self,
        protocol: &str,
        model: Model,
        validity: ValidityCondition,
        n: usize,
        t: usize,
        run: Outcome<u64>,
    ) {
        if let Some(sink) = self.sink.as_mut() {
            let k = guarantee_k(model, validity, n, t);
            let outcome = RunOutcome::of(&run, None);
            let record = RunRecord::new(
                model,
                validity,
                n,
                k,
                t,
                SEED,
                protocol,
                outcome,
                run.stats,
                run.metrics,
            );
            sink.write(&record).expect("write run record");
        }
    }
}

fn main() {
    let mut max_n: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut args = Args::new("complexity");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(args.value("--json")),
            other => match other.parse() {
                Ok(v) if max_n.is_none() => max_n = Some(v),
                _ => args.unknown(other),
            },
        }
    }
    let max_n = max_n.unwrap_or(32);
    if max_n < 4 {
        args.error(format_args!("max_n must be at least 4, got {max_n}"));
    }
    let mut rec = Recorder::new(json_path.as_deref());

    let sizes: Vec<usize> = std::iter::successors(Some(4usize), |&n| Some(n * 2))
        .take_while(|&n| n <= max_n)
        .collect();

    println!("=== Message / operation complexity per full consensus run ===\n");
    println!("(messages delivered for MP protocols; register ops for SM; t = n/4, seed {SEED})\n");
    print!("{:<16}", "protocol");
    for &n in &sizes {
        print!("{:>10}", format!("n={n}"));
    }
    println!();
    print!("{:<16}", "-".repeat(16));
    for _ in &sizes {
        print!("{:>10}", "-".repeat(8));
    }
    println!();

    let row = |name: &str, counts: &[u64]| {
        print!("{name:<16}");
        for c in counts {
            print!("{c:>10}");
        }
        println!();
    };

    let mut counts = Vec::new();
    for &n in &sizes {
        let t = n / 4;
        let o = MpSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .fault_plan(plans::last_t_silent(n, t))
            .run_with(|p| FloodMin::boxed(n, t, p as u64))
            .unwrap();
        counts.push(o.stats.messages_delivered);
        rec.record("FloodMin", Model::MpCrash, ValidityCondition::RV1, n, t, o);
    }
    row("FloodMin", &counts);

    counts.clear();
    for &n in &sizes {
        let t = n / 4;
        let o = MpSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .fault_plan(plans::last_t_silent(n, t))
            .run_with(|p| ProtocolA::boxed(n, t, p as u64, DEFAULT))
            .unwrap();
        counts.push(o.stats.messages_delivered);
        rec.record(
            "Protocol A",
            Model::MpCrash,
            ValidityCondition::RV2,
            n,
            t,
            o,
        );
    }
    row("Protocol A", &counts);

    counts.clear();
    for &n in &sizes {
        let t = n / 4;
        let o = MpSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .fault_plan(plans::last_t_silent(n, t))
            .run_with(|p| ProtocolB::boxed(n, t, p as u64, DEFAULT))
            .unwrap();
        counts.push(o.stats.messages_delivered);
        rec.record(
            "Protocol B",
            Model::MpCrash,
            ValidityCondition::SV2,
            n,
            t,
            o,
        );
    }
    row("Protocol B", &counts);

    counts.clear();
    for &n in &sizes {
        let t = (n / 8).max(1);
        let o = MpSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .run_with(|_| ProtocolC::boxed(n, t, 1, 5u64, DEFAULT))
            .unwrap();
        counts.push(o.stats.messages_delivered);
        rec.record(
            "Protocol C(1)",
            Model::MpByzantine,
            ValidityCondition::SV2,
            n,
            t,
            o,
        );
    }
    row("Protocol C(1)", &counts);

    counts.clear();
    for &n in &sizes {
        let t = (n / 8).max(1);
        let o = MpSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .run_with(|p| ProtocolD::boxed(n, t, p as u64))
            .unwrap();
        counts.push(o.stats.messages_delivered);
        rec.record(
            "Protocol D",
            Model::MpByzantine,
            ValidityCondition::WV1,
            n,
            t,
            o,
        );
    }
    row("Protocol D", &counts);

    counts.clear();
    for &n in &sizes {
        let o = SmSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .run_with(|p| ProtocolE::boxed(n, n - 1, p as u64, DEFAULT))
            .unwrap()
            .into_run();
        counts.push(o.stats.ops_completed);
        rec.record(
            "Protocol E",
            Model::SmCrash,
            ValidityCondition::RV2,
            n,
            n - 1,
            o,
        );
    }
    row("Protocol E*", &counts);

    counts.clear();
    for &n in &sizes {
        let t = n / 4;
        let o = SmSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .run_with(|p| ProtocolF::boxed(n, t, p as u64, DEFAULT))
            .unwrap()
            .into_run();
        counts.push(o.stats.ops_completed);
        rec.record(
            "Protocol F",
            Model::SmCrash,
            ValidityCondition::SV2,
            n,
            t,
            o,
        );
    }
    row("Protocol F*", &counts);

    counts.clear();
    for &n in &sizes {
        let t = (n / 4).min((n - 1) / 2);
        let o = MpSystem::new(n)
            .seed(SEED)
            .metrics(rec.metrics)
            .run_with(|p| Emulated::boxed(n, t, ProtocolE::new(n, t, p as u64, DEFAULT)))
            .unwrap();
        counts.push(o.stats.messages_delivered);
        rec.record(
            "ABD(Protocol E)",
            Model::MpCrash,
            ValidityCondition::RV2,
            n,
            t,
            o,
        );
    }
    row("ABD(Protocol E)", &counts);

    println!("\n* register operations rather than messages");
    println!("shapes: quorum protocols ~ n^2 messages; echo protocols ~ n^3;");
    println!("Protocol E ~ n ops/process; the ABD emulation pays ~ n messages per op");
    if let (Some(sink), Some(path)) = (rec.sink, &json_path) {
        let written = sink.finish().expect("flush --json sink");
        println!("({written} run records written to {path})");
    }
}
