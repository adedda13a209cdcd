//! End-to-end integration: every protocol, through the public facade,
//! against its `SC(k, t, C)` specification, across scheduler families and
//! fault patterns.

use kset::core::{ProblemSpec, RunRecord, ValidityCondition};
use kset::net::{MpOutcome, MpSystem};
use kset::protocols::{FloodMin, ProtocolA, ProtocolB, ProtocolC, ProtocolD, ProtocolE, ProtocolF};
use kset::shmem::{SmOutcome, SmSystem};
use kset::sim::{FaultPlan, FifoScheduler, LifoScheduler};

const DEFAULT: u64 = u64::MAX;

fn check_mp(outcome: &MpOutcome<u64>, inputs: &[u64], k: usize, t: usize, v: ValidityCondition) {
    let spec = ProblemSpec::new(inputs.len(), k, t, v).unwrap();
    let record = RunRecord::new(inputs.to_vec())
        .with_faulty(outcome.faulty.iter().copied())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    let report = spec.check(&record);
    assert!(report.is_ok(), "{spec}: {report}");
}

fn check_sm<Val>(
    outcome: &SmOutcome<Val, u64>,
    inputs: &[u64],
    k: usize,
    t: usize,
    v: ValidityCondition,
) {
    let spec = ProblemSpec::new(inputs.len(), k, t, v).unwrap();
    let record = RunRecord::new(inputs.to_vec())
        .with_faulty(outcome.faulty.iter().copied())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    let report = spec.check(&record);
    assert!(report.is_ok(), "{spec}: {report}");
}

#[test]
fn floodmin_under_all_scheduler_families() {
    let (n, k, t) = (7, 3, 2);
    let inputs: Vec<u64> = (0..n).map(|p| (p as u64 * 13) % 10).collect();
    let plan = || FaultPlan::silent_crashes(n, &[2, 5]);

    for seed in 0..10 {
        let outcome = MpSystem::new(n)
            .seed(seed)
            .fault_plan(plan())
            .run_with(|p| FloodMin::boxed(n, t, inputs[p]))
            .unwrap();
        check_mp(&outcome, &inputs, k, t, ValidityCondition::RV1);
    }
    let outcome = MpSystem::new(n)
        .scheduler(FifoScheduler::new())
        .fault_plan(plan())
        .run_with(|p| FloodMin::boxed(n, t, inputs[p]))
        .unwrap();
    check_mp(&outcome, &inputs, k, t, ValidityCondition::RV1);
    let outcome = MpSystem::new(n)
        .scheduler(LifoScheduler::new())
        .fault_plan(plan())
        .run_with(|p| FloodMin::boxed(n, t, inputs[p]))
        .unwrap();
    check_mp(&outcome, &inputs, k, t, ValidityCondition::RV1);
}

#[test]
fn protocol_a_satisfies_both_rv2_and_weaker_wv2() {
    // A single run satisfying RV2 also satisfies every weaker condition —
    // the lattice in action at the checker level.
    let (n, t) = (8, 2);
    let inputs: Vec<u64> = vec![4; n];
    for seed in 0..10 {
        let outcome = MpSystem::new(n)
            .seed(seed)
            .fault_plan(FaultPlan::silent_crashes(n, &[0, 7]))
            .run_with(|p| ProtocolA::boxed(n, t, inputs[p], DEFAULT))
            .unwrap();
        check_mp(&outcome, &inputs, 2, t, ValidityCondition::RV2);
        check_mp(&outcome, &inputs, 2, t, ValidityCondition::WV2);
    }
}

#[test]
fn protocol_b_and_c_agree_on_the_crash_free_byzantine_free_world() {
    // With no failures at all, B (crash world) and C(1) (Byzantine world)
    // must both decide the unanimous value.
    let n = 9;
    let inputs: Vec<u64> = vec![3; n];
    let b = MpSystem::new(n)
        .seed(4)
        .run_with(|p| ProtocolB::boxed(n, 2, inputs[p], DEFAULT))
        .unwrap();
    let c = MpSystem::new(n)
        .seed(4)
        .run_with(|p| ProtocolC::boxed(n, 2, 1, inputs[p], DEFAULT))
        .unwrap();
    assert_eq!(b.correct_decision_set(), vec![3]);
    assert_eq!(c.correct_decision_set(), vec![3]);
    check_mp(&b, &inputs, 2, 2, ValidityCondition::SV2);
    check_mp(&c, &inputs, 2, 2, ValidityCondition::SV2);
}

#[test]
fn protocol_d_meets_wv1_with_crashing_broadcasters() {
    use kset::sim::FaultSpec;
    let (n, t) = (8, 2);
    let inputs: Vec<u64> = (0..n).map(|p| 70 + p as u64).collect();
    // Broadcaster p0 crashes mid-broadcast: a classic partial failure.
    let mut plan = FaultPlan::all_correct(n);
    plan.set(0, FaultSpec::Crash { after_actions: 4 });
    for seed in 0..10 {
        let outcome = MpSystem::new(n)
            .seed(seed)
            .fault_plan(plan.clone())
            .run_with(|p| ProtocolD::boxed(n, t, inputs[p]))
            .unwrap();
        assert!(outcome.terminated, "seed {seed}");
        // Z(8, 2) = 3.
        check_mp(&outcome, &inputs, 3, t, ValidityCondition::WV1);
    }
}

#[test]
fn protocol_e_and_f_on_one_memory_model() {
    let n = 6;
    let inputs: Vec<u64> = vec![11; n];
    for seed in 0..10 {
        let e = SmSystem::new(n)
            .seed(seed)
            .fault_plan(FaultPlan::silent_crashes(n, &[3]))
            .run_with(|p| ProtocolE::boxed(n, 5, inputs[p], DEFAULT))
            .unwrap();
        check_sm(&e, &inputs, 2, 5, ValidityCondition::RV2);

        let f = SmSystem::new(n)
            .seed(seed)
            .fault_plan(FaultPlan::silent_crashes(n, &[3]))
            .run_with(|p| ProtocolF::boxed(n, 1, inputs[p], DEFAULT))
            .unwrap();
        check_sm(&f, &inputs, 3, 1, ValidityCondition::SV2);
    }
}

#[test]
fn mixed_crash_budgets_never_break_any_protocol() {
    use kset::sim::FaultSpec;
    let (n, t) = (7, 2);
    for seed in 0..15u64 {
        let inputs: Vec<u64> = (0..n).map(|p| (p as u64 + seed) % 4).collect();
        let mut plan = FaultPlan::all_correct(n);
        plan.set(
            (seed % n as u64) as usize,
            FaultSpec::Crash {
                after_actions: seed % 9,
            },
        );
        let outcome = MpSystem::new(n)
            .seed(seed)
            .fault_plan(plan)
            .run_with(|p| FloodMin::boxed(n, t, inputs[p]))
            .unwrap();
        check_mp(&outcome, &inputs, t + 1, t, ValidityCondition::RV1);
    }
}

#[test]
fn every_protocol_terminates_at_paper_scale() {
    use kset::adversary::{plans, Scribbler, Silent, SmSilent};
    use kset::net::DynMpProcess;
    use kset::shmem::DynSmProcess;
    // Crash protocols at the paper's n = 64 with the last t processes
    // silent; Byzantine ones at n = 32 with the first 4 faulty.
    type Make<'a, P> = &'a dyn Fn(usize) -> P;
    fn mp<M: Clone>(n: usize, plan: FaultPlan, make: Make<DynMpProcess<M, u64>>) -> bool {
        MpSystem::new(n)
            .seed(1)
            .fault_plan(plan)
            .run_with(make)
            .unwrap()
            .terminated
    }
    let sm = |n: usize, plan, make: Make<DynSmProcess<u64, u64>>| {
        SmSystem::new(n)
            .seed(1)
            .fault_plan(plan)
            .run_with(make)
            .unwrap()
            .terminated
    };
    let ins: Vec<u64> = (0..64).collect();
    let crash = |t| plans::last_t_silent(64, t);
    assert!(mp(64, crash(7), &|p| FloodMin::boxed(64, 7, ins[p])));
    assert!(mp(64, crash(16), &|p| ProtocolA::boxed(
        64, 16, ins[p], DEFAULT
    )));
    assert!(mp(64, crash(10), &|p| ProtocolB::boxed(
        64, 10, ins[p], DEFAULT
    )));
    assert!(sm(64, crash(32), &|p| ProtocolE::boxed(
        64, 32, ins[p], DEFAULT
    )));
    assert!(sm(64, crash(8), &|p| ProtocolF::boxed(
        64, 8, ins[p], DEFAULT
    )));
    let byz = || plans::first_t_byzantine(32, 4);
    assert!(mp(32, byz(), &|p| match p {
        0..=3 => Box::new(Silent::new()),
        _ => ProtocolC::boxed(32, 4, 1, ins[p], DEFAULT),
    }));
    assert!(mp(32, byz(), &|p| match p {
        0..=3 => Box::new(Silent::new()),
        _ => ProtocolD::boxed(32, 4, ins[p]),
    }));
    assert!(sm(32, byz(), &|p| match p {
        0 | 2 => Box::new(Scribbler::new(vec![1, 2, 3])),
        1 | 3 => Box::new(SmSilent::new()),
        _ => ProtocolE::boxed(32, 4, ins[p], DEFAULT),
    }));
}

#[test]
fn facade_reexports_compose() {
    // The facade's module paths are the supported public API surface.
    let lattice = kset::core::lattice::Lattice::derive();
    assert!(lattice.implies(
        kset::core::ValidityCondition::SV1,
        kset::core::ValidityCondition::WV2
    ));
    let cell = kset::regions::classify(
        kset::regions::Model::MpCrash,
        kset::core::ValidityCondition::RV1,
        16,
        3,
        2,
    );
    assert!(matches!(cell, kset::regions::CellClass::Solvable(_)));
}
