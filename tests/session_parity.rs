//! The steppable session is the run loop — byte-for-byte.
//!
//! PR 10 split the monolithic run loop into an incremental
//! [`Session`](kset::sim::Session) (`step()` fires one kernel event) and
//! re-expressed every `run_*` entry point as a loop over it. This test
//! pins the refactor's whole contract:
//!
//! * Driving a session by hand (`step()` until it reports
//!   [`Poll::Decided`]/[`Poll::Idle`], then `finish()`) is **byte-identical**
//!   to the one-shot `run()` entry points — decisions, fault sets,
//!   termination, kernel counters, traces, metrics — on both substrates,
//!   across seeds and fault plans, including the error paths.
//! * The deviation-aware session (`System::session` with
//!   `DeviantDelivery`, the checker's delivery path) replays a real
//!   Byzantine counterexample exactly like `run_adv`, with zero scheduler
//!   divergences.
//! * Forged deliveries share the faithful step function: `run_adv` under a
//!   scheduler that never deviates is `run`, and scripted forges on an
//!   ordinary delivery, a lazy start, a local step and a crashed process
//!   keep the outcome bytes recorded before the two were folded.
//! * The model checker built on top still certifies the Byzantine
//!   frontier with pinned counters digit for digit, invariantly across
//!   fork modes and thread counts.

use std::cell::RefCell;
use std::rc::Rc;

use kset::net::{MpSubstrate, MpSystem};
use kset::protocols::{FloodMin, ProtocolE};
use kset::shmem::{SmSubstrate, SmSystem};
use kset::sim::{
    DeviantDelivery, Deviation, EventId, FaultPlan, FaultSpec, Fnv64, MetricsConfig, Outcome, Poll,
    ReplayScheduler, SubstrateAdv, System,
};
use kset_core::ValidityCondition;
use kset_experiments::checker::{check_cell, AdversaryModel, CheckerConfig, ForkMode};
use kset_experiments::exhaustive::QuorumProtocol;

/// Register-decision rule sentinel used by the shared-memory protocols.
const DEFAULT: u64 = u64::MAX;

/// The fault plans every comparison sweeps: failure-free, a silent crash,
/// and a mid-broadcast crash (budgeted after three atomic actions — the
/// Lemma 3.5 capability, exercising the crash bookkeeping of the loop).
fn plans(n: usize) -> Vec<FaultPlan> {
    let mut budgeted = FaultPlan::all_correct(n);
    budgeted.set(1, FaultSpec::Crash { after_actions: 3 });
    vec![
        FaultPlan::all_correct(n),
        FaultPlan::silent_crashes(n, &[0]),
        budgeted,
    ]
}

#[test]
fn mp_step_driver_is_byte_identical_to_run() {
    let n = 5;
    let inputs: Vec<u64> = (0..n as u64).map(|p| (p * 13) % 7).collect();
    for seed in [0, 7, 42] {
        for plan in plans(n) {
            let build = || {
                MpSystem::new(n)
                    .seed(seed)
                    .fault_plan(plan.clone())
                    .trace_capacity(256)
                    .metrics(MetricsConfig::enabled())
            };
            let procs = |t| {
                inputs
                    .iter()
                    .map(|&v| FloodMin::boxed(n, t, v))
                    .collect::<Vec<_>>()
            };

            let whole = build().run(procs(2)).expect("run");

            let mut session = build().session(procs(2)).expect("session");
            let mut pending_polls = 0u64;
            while let Poll::Pending = session.step().expect("step") {
                pending_polls += 1;
            }
            let (stepped, ()) = session.finish();

            // One poll per fired event: the step driver saw the whole run.
            assert_eq!(pending_polls, stepped.stats.events_fired);
            assert_eq!(
                format!("{whole:?}"),
                format!("{stepped:?}"),
                "seed {seed}, plan {plan:?}: step driver diverged from run()"
            );
        }
    }
}

#[test]
fn sm_step_driver_is_byte_identical_to_run() {
    let n = 4;
    let inputs: Vec<u64> = vec![9, 3, 3, 8];
    for seed in [1, 11] {
        for plan in plans(n) {
            let build = || {
                SmSystem::new(n)
                    .seed(seed)
                    .fault_plan(plan.clone())
                    .trace_capacity(256)
                    .metrics(MetricsConfig::enabled())
            };
            let procs = || {
                inputs
                    .iter()
                    .map(|&v| ProtocolE::boxed(n, 3, v, DEFAULT))
                    .collect::<Vec<_>>()
            };

            let whole = build().run(procs()).expect("run");

            let mut session = build().session(procs()).expect("session");
            while matches!(session.step().expect("step"), Poll::Pending) {}
            let (stepped, memory) = session.finish();

            assert_eq!(
                format!("{:?}", *whole),
                format!("{stepped:?}"),
                "seed {seed}, plan {plan:?}: SM step driver diverged from run()"
            );
            // The facade's memory snapshot is the session's shared state.
            assert_eq!(whole.memory, memory.snapshot());
        }
    }
}

/// A session restarted in place — mid-run or after it finished, under a
/// new seed, with its processes re-initialised through `fork_into` — is
/// byte-identical to a fresh `run()` of the new instance: decisions, fault
/// sets, counters, traces and metrics, on both substrates and every plan.
#[test]
fn restarted_session_is_byte_identical_to_a_fresh_run() {
    use kset::net::MpProcess;
    use kset::shmem::SmProcess;

    let n = 5;
    let old: Vec<u64> = vec![4, 4, 1, 0, 9];
    let new: Vec<u64> = (0..n as u64).map(|p| (p * 13) % 7).collect();
    for plan in plans(n) {
        let build = |seed| {
            MpSystem::new(n)
                .seed(seed)
                .fault_plan(plan.clone())
                .trace_capacity(256)
                .metrics(MetricsConfig::enabled())
        };
        let procs = |inputs: &[u64]| {
            inputs
                .iter()
                .map(|&v| FloodMin::boxed(n, 2, v))
                .collect::<Vec<_>>()
        };
        // Steps before the restart: 3 cuts the first run short, 10_000
        // lets it finish.
        for (seed, steps_before) in [(7, 3), (42, 10_000)] {
            let mut session = build(1).session(procs(&old)).expect("session");
            for _ in 0..steps_before {
                if session.step().expect("step") != Poll::Pending {
                    break;
                }
            }
            session.restart(seed, |p, slot| {
                assert!(FloodMin::new(n, 2, new[p]).fork_into(slot));
            });
            while let Poll::Pending = session.step().expect("step") {}
            let (restarted, ()) = session.finish();
            let fresh = build(seed).run(procs(&new)).expect("run");
            assert_eq!(
                format!("{fresh:?}"),
                format!("{restarted:?}"),
                "seed {seed}, plan {plan:?}: restarted session diverged from run()"
            );
        }
    }

    let n = 4;
    let plan = FaultPlan::silent_crashes(n, &[2]);
    let build = |seed| SmSystem::new(n).seed(seed).fault_plan(plan.clone());
    let procs = |inputs: &[u64]| {
        inputs
            .iter()
            .map(|&v| ProtocolE::boxed(n, 3, v, DEFAULT))
            .collect::<Vec<_>>()
    };
    let mut session = build(3).session(procs(&[1, 2, 3, 4])).expect("session");
    while let Poll::Pending = session.step().expect("step") {}
    session.restart(11, |p, slot| {
        assert!(ProtocolE::new(n, 3, [9, 3, 3, 8][p], DEFAULT).fork_into(slot));
    });
    while let Poll::Pending = session.step().expect("step") {}
    let (restarted, memory) = session.finish();
    let fresh = build(11).run(procs(&[9, 3, 3, 8])).expect("run");
    assert_eq!(format!("{:?}", *fresh), format!("{restarted:?}"));
    assert_eq!(fresh.memory, memory.snapshot());
}

#[test]
fn poll_contract_and_accessors() {
    let n = 3;
    let procs: Vec<_> = [4u64, 2, 6]
        .iter()
        .map(|&v| FloodMin::boxed(n, 1, v))
        .collect();
    let mut session = MpSystem::new(n).seed(5).session(procs).expect("session");
    assert_eq!(session.n(), n);
    assert!(!session.decided());
    assert!(session.decisions().iter().all(Option::is_none));

    let mut polls = Vec::new();
    loop {
        let poll = session.step().expect("step");
        polls.push(poll);
        if poll != Poll::Pending {
            break;
        }
    }
    // A 3-process FloodMin run takes several events, none after the end.
    assert!(polls.len() > 1, "run decided without any pending polls");
    assert!(polls[..polls.len() - 1].iter().all(|p| *p == Poll::Pending));
    assert_eq!(*polls.last().unwrap(), Poll::Decided);
    assert!(session.decided());
    assert!(session.decisions().iter().all(Option::is_some));
    // Every `Pending` poll fired exactly one event; the final `Decided`
    // poll fired none (the decision check precedes dispatch).
    assert_eq!(session.stats().events_fired, (polls.len() - 1) as u64);

    let (outcome, ()) = session.finish();
    assert!(outcome.terminated);
    // FloodMin(3, 1) solves 2-set consensus: at most two distinct
    // decisions, always including the flooded minimum.
    let decided = outcome.correct_decision_set();
    assert!(decided.len() <= 2, "{decided:?}");
    assert!(decided.contains(&2), "{decided:?}");
}

#[test]
fn event_limit_error_is_identical_across_drivers() {
    let n = 4;
    let procs = |t| {
        (0..n as u64)
            .map(|v| FloodMin::boxed(n, t, v))
            .collect::<Vec<_>>()
    };
    let whole = MpSystem::new(n).seed(3).event_limit(5).run(procs(1));
    let mut session = MpSystem::new(n)
        .seed(3)
        .event_limit(5)
        .session(procs(1))
        .expect("session");
    let stepped = loop {
        match session.step() {
            Ok(Poll::Pending) => continue,
            Ok(_) => panic!("a 5-event budget cannot finish this run"),
            Err(err) => break err,
        }
    };
    assert_eq!(
        format!("{:?}", whole.expect_err("budget must be exceeded")),
        format!("{stepped:?}"),
    );
}

/// The PR 9 Byzantine frontier cell on the violated side: FloodMin under
/// `mp_byz` with menu `{0}` + selective silence on all-equal inputs
/// (Lemma 3.10).
fn mp_byz_cell() -> CheckerConfig {
    let mut cfg = CheckerConfig::new(QuorumProtocol::FloodMin, 3, 2, 1, ValidityCondition::RV1);
    cfg.adversary = AdversaryModel::MpByz;
    cfg.byz_menu = vec![0];
    cfg.byz_silence = true;
    cfg.inputs = Some(vec![1, 1, 1]);
    cfg
}

#[test]
fn byzantine_replay_is_identical_across_drivers() {
    let cfg = mp_byz_cell();
    let verdict = check_cell(&cfg);
    assert!(!verdict.holds(), "{verdict}");
    let ce = verdict
        .counterexample
        .as_ref()
        .expect("violated cells carry a counterexample");

    let mut plan = FaultPlan::silent_crashes(cfg.n, &ce.crashed);
    for &p in &ce.byzantine {
        plan.set(p, FaultSpec::Byzantine);
    }
    let inputs = cfg.cell_inputs();

    // Drive the recorded schedule once through `run_adv` and once through
    // a hand-stepped deviation-aware session: same outcome bytes, and
    // both replays must follow the script without a single divergence.
    let drive = |by_steps: bool| {
        let sched = Rc::new(RefCell::new(ReplayScheduler::with_deviations(
            ce.fired.iter().copied(),
        )));
        let sys = System::new(cfg.n)
            .scheduler(Rc::clone(&sched))
            .fault_plan(plan.clone());
        let procs: Vec<_> = inputs
            .iter()
            .map(|&v| FloodMin::boxed(cfg.n, cfg.t, v))
            .collect();
        let outcome = if by_steps {
            let mut session = sys
                .session::<MpSubstrate<u64, u64>, DeviantDelivery>(procs)
                .expect("session");
            while matches!(session.step().expect("step"), Poll::Pending) {}
            session.finish().0
        } else {
            sys.run_adv::<MpSubstrate<u64, u64>>(procs).expect("replay")
        };
        let divergences = sched.borrow().divergences();
        (format!("{outcome:?}"), divergences)
    };
    let (whole, whole_div) = drive(false);
    let (stepped, stepped_div) = drive(true);
    assert_eq!(whole, stepped, "deviant replay diverged between drivers");
    assert_eq!(whole_div, 0);
    assert_eq!(stepped_div, 0);
}

/// Fnv64 over an outcome's `Debug` rendering: one number pinning its
/// decisions, fault sets, termination flag, kernel counters and trace.
fn outcome_bytes<V: std::fmt::Debug>(outcome: &Outcome<V>) -> u64 {
    let mut h = Fnv64::new();
    h.write(format!("{outcome:?}").as_bytes());
    h.finish()
}

/// Under a seeded scheduler, which never deviates, the deviation-aware
/// `run_adv` is `run` byte for byte, on both substrates and every plan.
/// The outcome bytes are pinned to the values recorded while the forged
/// delivery still had its own copy of the step function.
#[test]
fn run_adv_without_deviations_is_byte_identical_to_run() {
    let mut mp = Fnv64::new();
    let n = 5;
    let inputs: Vec<u64> = (0..n as u64).map(|p| (p * 13) % 7).collect();
    for seed in [0, 7, 42] {
        for plan in plans(n) {
            let build = || {
                System::new(n)
                    .seed(seed)
                    .fault_plan(plan.clone())
                    .trace_capacity(256)
            };
            let procs = || {
                inputs
                    .iter()
                    .map(|&v| FloodMin::boxed(n, 2, v))
                    .collect::<Vec<_>>()
            };
            let faithful = build().run::<MpSubstrate<u64, u64>>(procs()).expect("run");
            let adv = build()
                .run_adv::<MpSubstrate<u64, u64>>(procs())
                .expect("run_adv");
            assert_eq!(faithful, adv, "seed {seed}, plan {plan:?}");
            mp.write_u64(outcome_bytes(&adv));
        }
    }
    let mut sm = Fnv64::new();
    let n = 4;
    for seed in [1, 11] {
        for plan in plans(n) {
            let build = || {
                System::new(n)
                    .seed(seed)
                    .fault_plan(plan.clone())
                    .trace_capacity(256)
            };
            let procs = || {
                [9, 3, 3, 8]
                    .iter()
                    .map(|&v| ProtocolE::boxed(n, 3, v, DEFAULT))
                    .collect::<Vec<_>>()
            };
            let faithful = build().run::<SmSubstrate<u64, u64>>(procs()).expect("run");
            let adv = build()
                .run_adv::<SmSubstrate<u64, u64>>(procs())
                .expect("run_adv");
            assert_eq!(faithful, adv, "seed {seed}, plan {plan:?}");
            sm.write_u64(outcome_bytes(&adv));
        }
    }
    assert_eq!(
        (mp.finish(), sm.finish()),
        (0x6a2d_6eef_0a9b_5d78, 0xd093_f26b_7c61_18fd)
    );
}

/// Replays `script`, raw event ids each with the deviation applied to it,
/// through `run_adv` over three processes under `plan`, and returns the
/// outcome bytes. The replay must follow the script exactly.
fn forged_replay<S: SubstrateAdv>(
    plan: FaultPlan,
    script: &[(u64, Deviation)],
    procs: Vec<S::Process>,
) -> u64
where
    S::Output: std::fmt::Debug,
{
    let sched = Rc::new(RefCell::new(ReplayScheduler::with_deviations(
        script.iter().map(|&(id, d)| (EventId::from_u64(id), d)),
    )));
    let outcome = System::new(3)
        .scheduler(Rc::clone(&sched))
        .fault_plan(plan)
        .trace_capacity(256)
        .run_adv::<S>(procs)
        .expect("replay");
    assert_eq!(sched.borrow().divergences(), 0, "{script:?}");
    outcome_bytes(&outcome)
}

/// The corners of a forged delivery, pinned on both substrates: a forge
/// on an ordinary delivery, on a process's first event (the lazy start),
/// on a local step, and on a process that is crashed or crashes on it.
/// Ids 0..3 are the start events; after a script ends the replay fires
/// the oldest pending event faithfully.
#[test]
fn forged_delivery_corners_are_pinned() {
    use Deviation::{Faithful as F, Forge};
    let budgeted = |pid, after_actions| {
        let mut plan = FaultPlan::all_correct(3);
        plan.set(pid, FaultSpec::Crash { after_actions });
        plan
    };
    // FloodMin(3, 1): each start broadcasts to 0, 1, 2 in order, so p0's
    // start posts e3..e5 and p1's the next three.
    let mp = |plan, script: &[(u64, Deviation)]| {
        let procs = (1..=3).map(|v| FloodMin::boxed(3, 1, v)).collect();
        forged_replay::<MpSubstrate<u64, u64>>(plan, script, procs)
    };
    let correct = FaultPlan::all_correct(3);
    let silent = FaultPlan::silent_crashes(3, &[1]);
    let mp_pins = [
        // e4 (p0 to p1) forged after p1 started.
        mp(correct.clone(), &[(0, F), (1, F), (4, Forge(0))]),
        // e4 forged before p1's start fired: p1 starts lazily first.
        mp(correct.clone(), &[(0, F), (4, Forge(0))]),
        // p2's start forged, then p1's start forged after its lazy start.
        mp(
            correct.clone(),
            &[(2, Forge(0)), (0, F), (4, Forge(0)), (1, Forge(0))],
        ),
        // p1 crashes on its forged start; e4 is then forged to a crashed
        // process.
        mp(silent.clone(), &[(1, Forge(0)), (0, F), (4, Forge(0))]),
        // p0 spends its budget of four on its start and three sends, and
        // crashes on the forged e3.
        mp(budgeted(0, 4), &[(0, F), (3, Forge(0))]),
    ];
    // Protocol E(3, 1) on unanimous inputs: a process's first event is always its start, and
    // every later event at it answers its own operation. p0's start posts
    // its write acknowledgement e3, then its reads of registers 0..3 as
    // e4..e6.
    let sm = |plan, script: &[(u64, Deviation)]| {
        let procs = (0..3).map(|_| ProtocolE::boxed(3, 1, 1, DEFAULT)).collect();
        forged_replay::<SmSubstrate<u64, u64>>(plan, script, procs)
    };
    let sm_pins = [
        // p0's read of p1's register (e5) answered with a forged value.
        sm(correct.clone(), &[(0, F), (3, F), (4, F), (5, Forge(0))]),
        // p1's first event, its start, forged.
        sm(correct.clone(), &[(1, Forge(0))]),
        // p2's start forged while p0 is mid-run.
        sm(correct.clone(), &[(0, F), (3, F), (2, Forge(0))]),
        // p1 crashes on its forged start.
        sm(silent, &[(1, Forge(0))]),
        // p0 spends its budget of five on its start, its write and its
        // three reads, and crashes on the forged read response e5.
        sm(budgeted(0, 5), &[(0, F), (5, Forge(0))]),
    ];
    assert_eq!(
        mp_pins,
        [
            0x477d_72f2_8535_b0c7,
            0x2caf_ccf3_d5f5_a967,
            0x8e2b_82fa_c05a_fb94,
            0x7bfc_4132_3ba4_f869,
            0x74a9_c2cc_575d_b79d,
        ]
    );
    assert_eq!(
        sm_pins,
        [
            0x6f70_f337_417a_040c,
            0xcddb_9e7c_156f_8a4e,
            0x44d1_c776_dc70_d088,
            0x4be7_b2ad_4b01_62e5,
            0x12b5_2282_cb80_6700,
        ]
    );
}

/// States cached across a verdict's patterns.
fn states(verdict: &kset_experiments::checker::CellVerdict) -> usize {
    verdict.patterns.iter().map(|p| p.states).sum()
}

#[test]
fn byzantine_frontier_counters_match_digit_for_digit() {
    // The four cells run on unanimous inputs, so on canonical digests:
    // their runs and states are the figures the opt-in symmetry flag
    // recorded before the digest mode was derived from the inputs.
    // Violated side, message passing: 4 686 runs over 3 fault patterns.
    let verdict = check_cell(&mp_byz_cell());
    assert!(!verdict.holds(), "{verdict}");
    assert_eq!((verdict.runs, states(&verdict)), (4_686, 4_090));
    assert_eq!(verdict.patterns.len(), 3);

    // Holds side, message passing (Protocol A under WV2, Lemma 3.12):
    // 65 876 runs over 7 patterns.
    let mut cfg = CheckerConfig::new(QuorumProtocol::ProtocolA, 3, 3, 1, ValidityCondition::WV2);
    cfg.adversary = AdversaryModel::MpByz;
    cfg.byz_menu = vec![0];
    cfg.byz_silence = true;
    cfg.inputs = Some(vec![1, 1, 1]);
    let verdict = check_cell(&cfg);
    assert!(verdict.holds(), "{verdict}");
    assert!(verdict.complete, "{verdict}");
    assert_eq!((verdict.runs, states(&verdict)), (65_876, 48_323));
    assert_eq!(verdict.patterns.len(), 7);

    // Violated side, shared memory (Protocol E under RV2, Lemma 4.6):
    // 75 695 runs over 3 patterns.
    let mut cfg = CheckerConfig::new(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::RV2);
    cfg.adversary = AdversaryModel::SmByz;
    cfg.byz_menu = vec![0];
    cfg.inputs = Some(vec![1, 1, 1]);
    let verdict = check_cell(&cfg);
    assert!(!verdict.holds(), "{verdict}");
    assert_eq!((verdict.runs, states(&verdict)), (75_695, 33_424));
    assert_eq!(verdict.patterns.len(), 3);

    // Holds side, shared memory (Protocol E under WV2, Lemma 4.10):
    // 988 127 runs over 19 patterns in 1 368 tasks. ~2 s in release but
    // minutes in the debug profile `cargo test` uses, so it only runs
    // when asked for:
    // KSET_SLOW_PARITY=1 cargo test --test session_parity
    if std::env::var_os("KSET_SLOW_PARITY").is_some() {
        let mut cfg =
            CheckerConfig::new(QuorumProtocol::ProtocolE, 3, 2, 2, ValidityCondition::WV2);
        cfg.adversary = AdversaryModel::SmByz;
        cfg.byz_menu = vec![0];
        cfg.inputs = Some(vec![1, 1, 1]);
        let verdict = check_cell(&cfg);
        assert!(verdict.holds(), "{verdict}");
        assert!(verdict.complete, "{verdict}");
        assert_eq!((verdict.runs, states(&verdict)), (988_127, 388_443));
        assert_eq!(verdict.patterns.iter().map(|p| p.tasks).sum::<u64>(), 1_368);
        assert_eq!(verdict.patterns.len(), 19);
    }
}

#[test]
fn checker_counters_are_execution_strategy_invariant() {
    // Fork mode and thread count are pure execution strategies: the PR 9
    // frontier cell certifies with identical counters and the identical
    // counterexample under every combination.
    let reference = check_cell(&mp_byz_cell());
    for (fork, threads) in [
        (ForkMode::Auto, 1),
        (ForkMode::Replay, 2),
        (ForkMode::Auto, 2),
    ] {
        let mut cfg = mp_byz_cell();
        cfg.fork = fork;
        cfg.threads = threads;
        let verdict = check_cell(&cfg);
        let context = format!("fork {fork:?}, {threads} thread(s)");
        assert_eq!(verdict.holds(), reference.holds(), "{context}");
        assert_eq!(verdict.runs, reference.runs, "{context}");
        assert_eq!(
            verdict.counterexample, reference.counterexample,
            "{context}"
        );
        assert_eq!(
            verdict.patterns.len(),
            reference.patterns.len(),
            "{context}"
        );
        for (a, b) in verdict.patterns.iter().zip(&reference.patterns) {
            assert_eq!(a.runs, b.runs, "{context}, pattern {:?}", a.crashed);
            assert_eq!(a.states, b.states, "{context}, pattern {:?}", a.crashed);
            assert_eq!(
                a.violation, b.violation,
                "{context}, pattern {:?}",
                a.crashed
            );
        }
    }
}
