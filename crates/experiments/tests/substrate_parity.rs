//! MP/SM parity: the backward-compatible facades and the substrate-generic
//! [`kset_sim::System`] must drive both communication models through the
//! same code path with **byte-identical** observables.
//!
//! Two layers of pinning:
//!
//! * *Facade vs. generic* — the same protocol, seed, fault plan, and
//!   metrics configuration run once through `MpSystem`/`SmSystem` and once
//!   through `System::run_digested_in::<…Substrate>` must produce equal
//!   outcomes and (for SM) equal register snapshots. This is the
//!   refactor's core contract: the facades are faces, not forks.
//! * *Golden constants* — decisions, kernel counters, and an Fnv64 chain
//!   over the generic run's full [`kset_sim::StateDigest`] sequence are
//!   pinned to concrete values, so the
//!   whole stack (facade + generic) is anchored across refactors, not
//!   merely to itself.
//!
//! The golden constants have been re-recorded twice:
//!
//! * when `RandomScheduler`'s generator moved in-tree (SplitMix64 in
//!   `kset-sim`) — the previous values depended on whichever `rand`
//!   implementation happened to be linked, so they pinned the environment
//!   as much as the code;
//! * when the digest *composition* moved from byte-wise FNV-1a to the
//!   word-folding [`kset_sim::Mix64`] combiner (see `PERFORMANCE.md`) —
//!   every digest value changed, and the digest *partition* got finer:
//!   the old pool digest summed raw FNV hashes, which cancel
//!   systematically under trailing-byte swaps (demonstrated in
//!   `tests/property_digest.rs` at the workspace root), so the old
//!   checker merged some genuinely distinct states. The corrected plain
//!   partition coincides with what the canonical mode always measured,
//!   which pins the fix at benchmark scale (`BENCH_model_check.json`).
//!
//! Decisions, rosters, kernel counters and counterexample bytes are
//! schedule-determined, not hash-determined, and survived both.

use std::collections::BTreeMap;

use kset_adversary::plans;
use kset_core::ValidityCondition;
use kset_experiments::checker::{check_cell, write_counterexample, CheckerConfig};
use kset_experiments::exhaustive::QuorumProtocol;
use kset_net::{DynMpProcess, MpSubstrate, MpSystem};
use kset_protocols::{FloodMin, ProtocolE};
use kset_shmem::{DynSmProcess, RegisterId, SmSubstrate, SmSystem};
use kset_sim::{Fnv64, MetricsConfig, RunArena, System};

/// Fnv64 chain over a digest sequence: one number pinning every step of a
/// run's digested evolution.
fn chain(digests: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &d in digests {
        h.write_u64(d);
    }
    h.finish()
}

fn mp_procs() -> Vec<DynMpProcess<u64, u64>> {
    (0..4).map(|p| FloodMin::boxed(4, 1, p as u64)).collect()
}

fn sm_procs() -> Vec<DynSmProcess<u64, u64>> {
    (0..3)
        .map(|p| ProtocolE::boxed(3, 2, p as u64, u64::MAX))
        .collect()
}

#[test]
fn mp_facade_and_generic_system_are_byte_identical() {
    let facade = MpSystem::new(4)
        .seed(7)
        .fault_plan(plans::last_t_silent(4, 1))
        .metrics(MetricsConfig::enabled())
        .run(mp_procs())
        .expect("facade run");
    let (generic, digests, ()) = System::new(4)
        .seed(7)
        .fault_plan(plans::last_t_silent(4, 1))
        .metrics(MetricsConfig::enabled())
        .run_digested_in::<MpSubstrate<u64, u64>>(mp_procs(), &mut RunArena::new())
        .expect("generic run");

    // `MpOutcome` is an alias of the generic outcome, so equality here is
    // full structural equality: decisions, rosters, stats, trace, metrics.
    assert_eq!(facade, generic);

    // Golden constants (re-recorded at the Mix64 combiner switch; see the
    // module doc).
    let expected: BTreeMap<usize, u64> = [(0, 0), (1, 0), (2, 0)].into_iter().collect();
    assert_eq!(facade.decisions, expected);
    assert_eq!(facade.faulty, vec![3]);
    assert!(facade.terminated);
    assert_eq!(facade.stats.events_fired, 16);
    assert_eq!(facade.stats.messages_delivered, 12);
    assert_eq!(facade.stats.local_steps, 4);
    assert_eq!(digests.len(), 16);
    assert_eq!(digests[0], 0xf7b6_b35c_3672_8fcf);
    assert_eq!(*digests.last().unwrap(), 0x3b4d_3a02_ad0d_69c2);
    assert_eq!(chain(&digests), 0x6a13_dfce_ce27_01a1);
}

#[test]
fn sm_facade_and_generic_system_are_byte_identical() {
    let facade = SmSystem::new(3)
        .seed(11)
        .fault_plan(plans::last_t_silent(3, 1))
        .metrics(MetricsConfig::enabled())
        .run(sm_procs())
        .expect("facade run");
    let (generic, digests, memory) = System::new(3)
        .seed(11)
        .fault_plan(plans::last_t_silent(3, 1))
        .metrics(MetricsConfig::enabled())
        .run_digested_in::<SmSubstrate<u64, u64>>(sm_procs(), &mut RunArena::new())
        .expect("generic run");

    assert_eq!(*facade, generic); // deref: the substrate-generic part
    assert_eq!(facade.memory, memory.snapshot());

    // Golden constants (re-recorded at the Mix64 combiner switch; see the
    // module doc).
    let expected: BTreeMap<usize, u64> = [(0, u64::MAX), (1, u64::MAX)].into_iter().collect();
    assert_eq!(facade.decisions, expected);
    assert_eq!(facade.faulty, vec![2]);
    assert!(facade.terminated);
    assert_eq!(facade.stats.events_fired, 10);
    assert_eq!(facade.stats.ops_completed, 7);
    assert_eq!(facade.stats.local_steps, 3);
    let expected_memory: BTreeMap<RegisterId, u64> =
        [(RegisterId::new(0, 0), 0), (RegisterId::new(1, 0), 1)]
            .into_iter()
            .collect();
    assert_eq!(facade.memory, expected_memory);
    assert_eq!(digests.len(), 10);
    assert_eq!(digests[0], 0x5412_9da2_5d8c_31ff);
    assert_eq!(*digests.last().unwrap(), 0x0eff_2990_7aab_f4de);
    assert_eq!(chain(&digests), 0x6a2e_d9a4_3503_594b);
}

#[test]
fn counterexample_bytes_match_the_pre_refactor_golden() {
    // The checker's shrunk counterexample for consensus-with-one-crash is
    // fully deterministic; its serialized form was captured before the
    // substrate refactor and must not drift.
    let cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 1, 1, ValidityCondition::RV1);
    let verdict = check_cell(&cfg);
    let ce = verdict.counterexample.expect("SC(1,1,RV1) is violated");

    let path = std::env::temp_dir().join(format!(
        "kset-substrate-parity-{}.schedule",
        std::process::id()
    ));
    write_counterexample(&path, &cfg, &ce).expect("write");
    let bytes = std::fs::read_to_string(&path).expect("read back");
    std::fs::remove_file(&path).ok();

    let golden = "\
# kset model_check counterexample v1
# protocol: FloodMin
# n: 3
# k: 1
# t: 1
# validity: RV1
# crashed:
# choices: 0 0 0 0 0 1 3 1 2 1 1
# violation: 2 distinct values decided, agreement allows 1
0
1
2
3
4
6
9
7
10
8
11
";
    assert_eq!(bytes, golden);
}
