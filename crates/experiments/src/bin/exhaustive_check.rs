//! Exhaustive small-model verification sweep: for FloodMin and Protocols
//! A and B at small `n`, enumerate EVERY asynchronous outcome (all
//! realizable per-process decision profiles) across `t` and report the
//! worst-case agreement — the finite, machine-checked form of Lemmas 3.1,
//! 3.7 and 3.8 and their tightness.
//!
//! Usage: `exhaustive_check [n] [--threads T]` (default n = 6, threads =
//! available parallelism; n in 3..=9, the space is combinatorial; a bad
//! command line exits 2). The
//! protocol × inputs × t triples run on a work-stealing pool and the
//! table is printed in enumeration order, byte-identical for every thread
//! count.

use kset_core::cli::{available_threads, Args};
use kset_core::ValidityCondition;
use kset_experiments::engine;
use kset_experiments::exhaustive::{verify, QuorumProtocol};

fn main() {
    let mut n: Option<usize> = None;
    let mut threads = available_threads();
    let mut args = Args::new("exhaustive_check");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = args.threads(),
            other => match other.parse() {
                Ok(v) if n.is_none() => n = Some(v),
                _ => args.unknown(other),
            },
        }
    }
    let n = n.unwrap_or(6);
    if !(3..=9).contains(&n) {
        args.error(format_args!("n must be in 3..=9 for exhaustive sweeps, got {n}"));
    }

    println!("=== Exhaustive verification over ALL schedules (n = {n}) ===\n");
    println!("protocol    t   inputs        profiles  worst-k  validities violated");
    println!("----------  --  ------------  --------  -------  -------------------");

    let spread: Vec<u64> = (0..n as u64).collect();
    let two_blocks: Vec<u64> = (0..n).map(|p| (p * 2 / n) as u64).collect();

    let protocols = [
        (QuorumProtocol::FloodMin, "FloodMin"),
        (QuorumProtocol::ProtocolA, "Protocol A"),
        (QuorumProtocol::ProtocolB, "Protocol B"),
        (QuorumProtocol::ProtocolE, "Protocol E"),
        (QuorumProtocol::ProtocolF, "Protocol F"),
    ];
    let mut triples: Vec<(QuorumProtocol, &str, &Vec<u64>, usize)> = Vec::new();
    for (proto, label) in protocols {
        for inputs in [&spread, &two_blocks] {
            for t in 1..n {
                triples.push((proto, label, inputs, t));
            }
        }
    }
    let lines = engine::parallel_map(threads, triples, |_, (proto, label, inputs, t)| {
        let line = match verify(proto, inputs, t, &[], 50_000_000) {
            Ok(report) => {
                let viols: Vec<&str> = report
                    .violated_validities
                    .iter()
                    .map(|v| v.name())
                    .collect();
                format!(
                    "{label:<10}  {t:<2}  {:<12}  {:<8}  {:<7}  {}",
                    format!("{inputs:?}").chars().take(12).collect::<String>(),
                    report.profiles,
                    report.worst_agreement,
                    if viols.is_empty() {
                        "none".to_string()
                    } else {
                        viols.join(", ")
                    }
                )
            }
            Err(size) => {
                format!("{label:<10}  {t:<2}  (skipped: {size} profiles exceed limit)")
            }
        };
        (label, line)
    });
    let mut last_label = lines.first().map(|(label, _)| *label);
    for (label, line) in lines {
        if last_label != Some(label) {
            println!();
            last_label = Some(label);
        }
        println!("{line}");
    }
    println!();

    // The headline tightness claims, asserted.
    let inputs: Vec<u64> = (0..n as u64).collect();
    for t in 1..n.min(4) {
        let r = verify(QuorumProtocol::FloodMin, &inputs, t, &[], 50_000_000)
            .expect("small enough");
        assert_eq!(
            r.worst_agreement,
            t + 1,
            "FloodMin worst case must be exactly t+1"
        );
        assert!(r.satisfies(t + 1, ValidityCondition::RV1));
        assert!(!r.satisfies(t, ValidityCondition::RV1));
    }
    println!("FloodMin worst-case agreement == t + 1 for all checked t: Lemma 3.1/3.2 tight, OK");
}
