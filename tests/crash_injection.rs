//! Systematic crash-point injection: for small systems, crash each process
//! at *every* possible action index and check the specification each time.
//!
//! The crash model's whole point is that a process may stop at any atomic
//! action — after any single send of a broadcast, between handling and
//! responding, before or after its decide. Random sweeps sample these
//! points; this suite enumerates them exhaustively for one-victim and
//! two-victim patterns.

use kset::core::{ProblemSpec, RunRecord, ValidityCondition};
use kset::net::{MpOutcome, MpSystem};
use kset::protocols::{FloodMin, ProtocolA, ProtocolB, ProtocolD, ProtocolE, ProtocolF};
use kset::shmem::{SmOutcome, SmSystem};
use kset::sim::{FaultPlan, FaultSpec};

const DEFAULT: u64 = u64::MAX;

/// Enough to cover every action a process takes in these small runs
/// (1 start + n sends + a few handlings + 1 decide).
const MAX_BUDGET: u64 = 16;

fn check_mp(
    outcome: &MpOutcome<u64>,
    inputs: &[u64],
    k: usize,
    t: usize,
    v: ValidityCondition,
    context: &str,
) {
    let spec = ProblemSpec::new(inputs.len(), k, t, v).unwrap();
    let record = RunRecord::new(inputs.to_vec())
        .with_faulty(outcome.faulty.iter().copied())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    let report = spec.check(&record);
    assert!(report.is_ok(), "{context}: {report}");
}

fn check_sm<Val>(
    outcome: &SmOutcome<Val, u64>,
    inputs: &[u64],
    k: usize,
    t: usize,
    v: ValidityCondition,
    context: &str,
) {
    let spec = ProblemSpec::new(inputs.len(), k, t, v).unwrap();
    let record = RunRecord::new(inputs.to_vec())
        .with_faulty(outcome.faulty.iter().copied())
        .with_decisions(outcome.decisions.clone())
        .with_terminated(outcome.terminated);
    let report = spec.check(&record);
    assert!(report.is_ok(), "{context}: {report}");
}

#[test]
fn floodmin_survives_every_single_crash_point() {
    let (n, k, t) = (5, 2, 1);
    let inputs: Vec<u64> = (0..n as u64).collect();
    for victim in 0..n {
        for budget in 0..=MAX_BUDGET {
            let mut plan = FaultPlan::all_correct(n);
            plan.set(
                victim,
                FaultSpec::Crash {
                    after_actions: budget,
                },
            );
            let outcome = MpSystem::new(n)
                .seed(7)
                .fault_plan(plan)
                .run_with(|p| FloodMin::boxed(n, t, inputs[p]))
                .unwrap();
            check_mp(
                &outcome,
                &inputs,
                k,
                t,
                ValidityCondition::RV1,
                &format!("victim {victim} budget {budget}"),
            );
        }
    }
}

#[test]
fn protocol_a_survives_every_single_crash_point() {
    let (n, k, t) = (6, 2, 1);
    let inputs: Vec<u64> = vec![4; n];
    for victim in 0..n {
        for budget in 0..=MAX_BUDGET {
            let mut plan = FaultPlan::all_correct(n);
            plan.set(
                victim,
                FaultSpec::Crash {
                    after_actions: budget,
                },
            );
            let outcome = MpSystem::new(n)
                .seed(3)
                .fault_plan(plan)
                .run_with(|p| ProtocolA::boxed(n, t, inputs[p], DEFAULT))
                .unwrap();
            check_mp(
                &outcome,
                &inputs,
                k,
                t,
                ValidityCondition::RV2,
                &format!("victim {victim} budget {budget}"),
            );
            // Unanimity among all processes: RV2 pins the decision to 4.
            assert_eq!(
                outcome.correct_decision_set(),
                vec![4],
                "victim {victim} budget {budget}"
            );
        }
    }
}

#[test]
fn protocol_b_survives_every_two_victim_crash_grid() {
    // Coarser grid (every 3rd budget) over two simultaneous victims.
    let (n, k, t) = (8, 2, 2);
    let inputs: Vec<u64> = vec![6; n];
    for v1 in 0..n {
        for v2 in (v1 + 1)..n {
            for b1 in (0..=MAX_BUDGET).step_by(3) {
                for b2 in (0..=MAX_BUDGET).step_by(4) {
                    let mut plan = FaultPlan::all_correct(n);
                    plan.set(v1, FaultSpec::Crash { after_actions: b1 });
                    plan.set(v2, FaultSpec::Crash { after_actions: b2 });
                    let outcome = MpSystem::new(n)
                        .seed(1)
                        .fault_plan(plan)
                        .run_with(|p| ProtocolB::boxed(n, t, inputs[p], DEFAULT))
                        .unwrap();
                    check_mp(
                        &outcome,
                        &inputs,
                        k,
                        t,
                        ValidityCondition::SV2,
                        &format!("victims ({v1},{v2}) budgets ({b1},{b2})"),
                    );
                }
            }
        }
    }
}

#[test]
fn protocol_d_survives_broadcaster_crash_points() {
    // Crashing the broadcasters at every point is the interesting case:
    // a partially-delivered Input can be echoed by a subset only.
    let (n, t) = (6, 1);
    let k = 2; // Z(6,1) = 2
    let inputs: Vec<u64> = (0..n as u64).map(|p| 40 + p).collect();
    for victim in 0..=t {
        for budget in 0..=MAX_BUDGET {
            let mut plan = FaultPlan::all_correct(n);
            plan.set(
                victim,
                FaultSpec::Crash {
                    after_actions: budget,
                },
            );
            let outcome = MpSystem::new(n)
                .seed(5)
                .fault_plan(plan)
                .run_with(|p| ProtocolD::boxed(n, t, inputs[p]))
                .unwrap();
            check_mp(
                &outcome,
                &inputs,
                k,
                t,
                ValidityCondition::WV1,
                &format!("victim {victim} budget {budget}"),
            );
        }
    }
}

#[test]
fn protocol_e_survives_every_single_crash_point() {
    let (n, k, t) = (5, 2, 4);
    let inputs: Vec<u64> = vec![3; n];
    for victim in 0..n {
        for budget in 0..=MAX_BUDGET {
            let mut plan = FaultPlan::all_correct(n);
            plan.set(
                victim,
                FaultSpec::Crash {
                    after_actions: budget,
                },
            );
            let outcome = SmSystem::new(n)
                .seed(2)
                .fault_plan(plan)
                .run_with(|p| ProtocolE::boxed(n, t, inputs[p], DEFAULT))
                .unwrap();
            check_sm(
                &outcome,
                &inputs,
                k,
                t,
                ValidityCondition::RV2,
                &format!("victim {victim} budget {budget}"),
            );
        }
    }
}

#[test]
fn protocol_f_survives_every_single_crash_point() {
    let (n, k, t) = (6, 4, 2);
    let inputs: Vec<u64> = vec![8; n];
    for victim in 0..n {
        for budget in 0..=MAX_BUDGET {
            let mut plan = FaultPlan::all_correct(n);
            plan.set(
                victim,
                FaultSpec::Crash {
                    after_actions: budget,
                },
            );
            let outcome = SmSystem::new(n)
                .seed(4)
                .fault_plan(plan)
                .run_with(|p| ProtocolF::boxed(n, t, inputs[p], DEFAULT))
                .unwrap();
            check_sm(
                &outcome,
                &inputs,
                k,
                t,
                ValidityCondition::SV2,
                &format!("victim {victim} budget {budget}"),
            );
        }
    }
}

#[test]
fn crash_exactly_at_the_decide_action_is_handled() {
    // A process that crashes with precisely enough budget to decide but
    // nothing after: the decision stands (decide is a single atomic
    // action) and the record reflects it.
    let n = 3;
    // FloodMin at t=1: process 0's actions: start(1) + 3 sends(3) +
    // 2 message handlings(2) + decide(1) = 7.
    let mut plan = FaultPlan::all_correct(n);
    plan.set(0, FaultSpec::Crash { after_actions: 7 });
    let outcome = MpSystem::new(n)
        .scheduler(kset::sim::FifoScheduler::new())
        .fault_plan(plan)
        .run_with(|p| FloodMin::boxed(n, 1, 10 + p as u64))
        .unwrap();
    // Whatever the exact interleaving, the run must satisfy the spec with
    // process 0 planned-faulty.
    let inputs: Vec<u64> = (0..n as u64).map(|p| 10 + p).collect();
    check_mp(
        &outcome,
        &inputs,
        2,
        1,
        ValidityCondition::RV1,
        "decide-point crash",
    );
}
