//! Golden pins for the sampled sweeps: the JSONL bytes that
//! `validate_cell_with` (inside the solvable regions) and
//! `probe_cell_with` (just outside them) write for a fixed list of cells,
//! with kernel metrics on, reduced to one `fnv64` each.
//!
//! The cells cover every sampled protocol: crash and Byzantine
//! message-passing cells, shared-memory cells, the `SIM(..)` emulations,
//! and frontier probes with and without violations. Any change to a
//! run's configuration (seed, fault plan, delay rules, inputs, event
//! limit), to the spec check, or to the seed order moves a pin.

use kset_core::json;
use kset_core::ValidityCondition::{self, RV1, RV2, SV1, SV2, WV1, WV2};
use kset_experiments::cells::validate_cell_with;
use kset_experiments::explorer::probe_cell_with;
use kset_experiments::record_sink::RunRecord;
use kset_prop::fnv64;
use kset_regions::Model::{self, MpByzantine, MpCrash, SmByzantine, SmCrash};
use kset_sim::MetricsConfig;

/// Seeds per cell: enough to cycle every fault plan, adversary strategy
/// and delay-rule variant of both sweeps.
const SEEDS: std::ops::Range<u64> = 0..10;

type Cell = (Model, ValidityCondition, usize, usize, usize);

/// The `fnv64` of the JSONL file the records would make.
fn jsonl(records: &[RunRecord]) -> u64 {
    let text: String = records.iter().map(|r| json::to_string(r) + "\n").collect();
    fnv64(text.as_bytes())
}

/// The seed and message of the first record that carries a violation.
fn first_violating_seed(records: &[RunRecord]) -> Option<(u64, &str)> {
    records
        .iter()
        .find_map(|r| Some((r.seed, r.outcome.violation.as_deref()?)))
}

#[test]
fn validation_records_are_pinned() {
    #[rustfmt::skip]
    let pins: [(Cell, &str, u64); 14] = [
        ((MpCrash, RV1, 8, 2, 1), "FloodMin", 0xb037bf2c2cbeea11),
        ((MpCrash, RV2, 8, 2, 1), "Protocol A", 0x4128ee8cea3d7d55),
        ((MpCrash, SV2, 8, 2, 1), "Protocol B", 0x2295dfe21969754b),
        ((MpByzantine, WV2, 8, 3, 1), "Protocol A", 0xf2a47ad36b910b8a),
        ((MpByzantine, SV2, 8, 2, 1), "Protocol C", 0x22820196a7c58638),
        ((MpByzantine, WV1, 8, 2, 1), "Protocol D", 0xcea821aba36b224f),
        ((SmCrash, RV2, 8, 2, 1), "Protocol E", 0xfeee12904fa84127),
        ((SmCrash, SV2, 8, 6, 4), "Protocol F", 0x2b6ea7bac343e00e),
        ((SmByzantine, WV2, 8, 2, 1), "Protocol E", 0xc64c0347aaced00e),
        ((SmByzantine, SV2, 8, 5, 3), "Protocol F", 0x9c07c02adba6e3ff),
        ((SmCrash, RV1, 8, 2, 1), "SIM(FloodMin)", 0xc0c99c2d1579a2fd),
        ((SmCrash, SV2, 8, 2, 1), "SIM(Protocol B)", 0x971872cad57401bb),
        ((SmByzantine, SV2, 8, 2, 1), "SIM(Protocol C)", 0x85352a8e703b17d3),
        ((SmByzantine, WV1, 8, 2, 1), "SIM(Protocol D)", 0xf35d7b788ceb777a),
    ];
    let mut got = Vec::new();
    for ((model, validity, n, k, t), protocol, _) in pins {
        let mut records = Vec::new();
        let row = validate_cell_with(
            model,
            validity,
            n,
            k,
            t,
            SEEDS,
            MetricsConfig::enabled(),
            |r| records.push(r),
        )
        .expect("no simulator failure")
        .expect("a solvable cell with a runner");
        assert_eq!(
            row.protocol, protocol,
            "{model} {validity} n={n} k={k} t={t}"
        );
        assert!(records.iter().all(|r| r.protocol == protocol));
        // The tally agrees with the records it was counted from.
        assert_eq!(row.runs, records.len());
        let violating = records.iter().filter(|r| !r.outcome.clean()).count();
        assert_eq!(row.violations, violating);
        let first = first_violating_seed(&records).map(|(seed, msg)| format!("seed {seed}: {msg}"));
        assert_eq!(row.first_violation, first);
        got.push(jsonl(&records));
    }
    let expected: Vec<u64> = pins.iter().map(|&(_, _, pin)| pin).collect();
    assert_eq!(got, expected, "validation JSONL moved: {got:#018x?}");
}

#[test]
fn probe_records_are_pinned() {
    #[rustfmt::skip]
    let pins: [(Cell, &str, usize, u64); 11] = [
        ((MpCrash, RV1, 8, 2, 4), "FloodMin", 2, 0x4aa61b5e3b7a7c9f),
        ((MpCrash, RV2, 8, 2, 6), "Protocol A", 10, 0xf6f9ec96082ab7bc),
        ((MpCrash, SV2, 10, 2, 3), "Protocol B", 0, 0xeed50ff93ce33802),
        ((MpCrash, SV2, 10, 2, 4), "Protocol B", 10, 0xd2358d5cf9fe0c68),
        ((MpByzantine, SV1, 10, 2, 1), "FloodMin", 0, 0xe43bcda982815757),
        ((MpByzantine, RV2, 10, 2, 3), "Protocol A", 0, 0x8eba3ca7a78c50f1),
        ((MpByzantine, WV2, 10, 8, 9), "Protocol A", 10, 0x418ad58bd4d2d844),
        ((SmCrash, SV2, 8, 3, 4), "Protocol F", 10, 0xb76b1e65e98b6e4a),
        ((SmByzantine, RV2, 10, 2, 3), "Protocol E", 0, 0xe084227c0d6ebeda),
        ((SmByzantine, RV2, 10, 9, 9), "Protocol E", 0, 0x2145d12cb661951f),
        ((SmByzantine, SV2, 10, 2, 4), "Protocol F", 5, 0x9f42f81abf2e5610),
    ];
    let mut got = Vec::new();
    for ((model, validity, n, k, t), protocol, _, _) in pins {
        let mut records = Vec::new();
        let probe = probe_cell_with(
            model,
            validity,
            n,
            k,
            t,
            SEEDS,
            MetricsConfig::enabled(),
            |r| records.push(r),
        )
        .expect("no simulator failure")
        .expect("a probed frontier cell");
        assert_eq!(
            probe.protocol, protocol,
            "{model} {validity} n={n} k={k} t={t}"
        );
        assert!(records.iter().all(|r| r.protocol == protocol));
        assert_eq!(probe.runs, records.len());
        let violating = records.iter().filter(|r| !r.outcome.clean()).count();
        assert_eq!(probe.violations, violating);
        assert_eq!(
            probe.first_violating_seed,
            first_violating_seed(&records).map(|(seed, _)| seed)
        );
        got.push((probe.violations, jsonl(&records)));
    }
    let expected: Vec<(usize, u64)> = pins.iter().map(|&(_, _, v, pin)| (v, pin)).collect();
    assert_eq!(got, expected, "probe JSONL moved: {got:#018x?}");
}
