//! Cross-substrate transforms, integration-tested both ways:
//! SIMULATION compiles message-passing protocols onto registers (paper §4),
//! and the ABD EMULATION runs register protocols over message passing
//! (the middleware direction the paper's §4 motivation describes).

use kset::core::{ProblemSpec, RunRecord, ValidityCondition};
use kset::net::MpSystem;
use kset::protocols::{Emulated, FloodMin, ProtocolA, ProtocolE, ProtocolF, Simulated};
use kset::shmem::SmSystem;
use kset::sim::FaultPlan;

const DEFAULT: u64 = u64::MAX;

#[allow(clippy::too_many_arguments)]
fn spec_check(
    n: usize,
    k: usize,
    t: usize,
    v: ValidityCondition,
    inputs: &[u64],
    decisions: std::collections::BTreeMap<usize, u64>,
    faulty: Vec<usize>,
    terminated: bool,
    context: &str,
) {
    let spec = ProblemSpec::new(n, k, t, v).unwrap();
    let record = RunRecord::new(inputs.to_vec())
        .with_faulty(faulty)
        .with_decisions(decisions)
        .with_terminated(terminated);
    let report = spec.check(&record);
    assert!(report.is_ok(), "{context}: {report}");
}

#[test]
fn mp_protocols_survive_the_round_trip_to_shared_memory() {
    // FloodMin native, then SIM(FloodMin) on registers: both satisfy
    // SC(3, 2, RV1) under the same fault pattern.
    let (n, k, t) = (5, 3, 2);
    let inputs: Vec<u64> = vec![31, 7, 19, 3, 11];
    for seed in 0..5 {
        let native = MpSystem::new(n)
            .seed(seed)
            .fault_plan(FaultPlan::silent_crashes(n, &[2]))
            .run_with(|p| FloodMin::boxed(n, t, inputs[p]))
            .unwrap();
        spec_check(
            n,
            k,
            t,
            ValidityCondition::RV1,
            &inputs,
            native.decisions,
            native.faulty,
            native.terminated,
            &format!("native seed {seed}"),
        );

        let simulated = SmSystem::new(n)
            .seed(seed)
            .event_limit(20_000_000)
            .fault_plan(FaultPlan::silent_crashes(n, &[2]))
            .run_with(|p| Simulated::boxed(n, FloodMin::new(n, t, inputs[p])))
            .unwrap()
            .into_run();
        spec_check(
            n,
            k,
            t,
            ValidityCondition::RV1,
            &inputs,
            simulated.decisions,
            simulated.faulty,
            simulated.terminated,
            &format!("simulated seed {seed}"),
        );
    }
}

#[test]
fn sm_protocols_survive_the_round_trip_to_message_passing() {
    // Protocol E native on registers, then over ABD quorums. The emulation
    // needs t < n/2, so the comparison runs in that common regime.
    let (n, k, t) = (5, 2, 2);
    let inputs: Vec<u64> = vec![1, 1, 0, 1, 0];
    for seed in 0..5 {
        let native = SmSystem::new(n)
            .seed(seed)
            .fault_plan(FaultPlan::silent_crashes(n, &[0]))
            .run_with(|p| ProtocolE::boxed(n, t, inputs[p], DEFAULT))
            .unwrap()
            .into_run();
        spec_check(
            n,
            k,
            t,
            ValidityCondition::RV2,
            &inputs,
            native.decisions,
            native.faulty,
            native.terminated,
            &format!("native seed {seed}"),
        );

        let emulated = MpSystem::new(n)
            .seed(seed)
            .fault_plan(FaultPlan::silent_crashes(n, &[0]))
            .run_with(|p| Emulated::boxed(n, t, ProtocolE::new(n, t, inputs[p], DEFAULT)))
            .unwrap();
        spec_check(
            n,
            k,
            t,
            ValidityCondition::RV2,
            &inputs,
            emulated.decisions,
            emulated.faulty,
            emulated.terminated,
            &format!("emulated seed {seed}"),
        );
    }
}

#[test]
fn double_transform_mp_protocol_over_emulated_registers() {
    // The full circle: a message-passing protocol, SIMULATED onto
    // registers, EMULATED back onto message passing. Silly but a strong
    // exerciser of both adapters' sequencing logic.
    let (n, k, t) = (4, 2, 1);
    let inputs: Vec<u64> = vec![9, 4, 6, 2];
    let outcome = MpSystem::new(n)
        .seed(3)
        .event_limit(20_000_000)
        .run_with(|p| Emulated::boxed(n, t, Simulated::new(n, FloodMin::new(n, t, inputs[p]))))
        .unwrap();
    assert!(outcome.terminated);
    spec_check(
        n,
        k,
        t,
        ValidityCondition::RV1,
        &inputs,
        outcome.decisions,
        outcome.faulty,
        outcome.terminated,
        "double transform",
    );
}

#[test]
fn emulated_protocol_f_with_partition_schedule() {
    use kset::sim::DelayRule;
    let (n, t) = (7, 2);
    let inputs: Vec<u64> = vec![5; n];
    let outcome = MpSystem::new(n)
        .seed(8)
        .delay_rule(DelayRule::isolate_until_decided(vec![0, 1, 2]))
        .run_with(|p| Emulated::boxed(n, t, ProtocolF::new(n, t, inputs[p], DEFAULT)))
        .unwrap();
    assert!(outcome.terminated);
    assert_eq!(outcome.correct_decision_set(), vec![5]);
}

#[test]
fn transforms_preserve_protocol_a_semantics() {
    let (n, t) = (4, 1);
    let inputs: Vec<u64> = vec![2; n];
    // A over SIM: registers. A over nothing: native. Decisions agree on
    // the unanimous value either way.
    let native = MpSystem::new(n)
        .seed(1)
        .run_with(|p| ProtocolA::boxed(n, t, inputs[p], DEFAULT))
        .unwrap();
    let simulated = SmSystem::new(n)
        .seed(1)
        .event_limit(20_000_000)
        .run_with(|p| Simulated::boxed(n, ProtocolA::new(n, t, inputs[p], DEFAULT)))
        .unwrap();
    assert_eq!(native.correct_decision_set(), vec![2]);
    assert_eq!(simulated.correct_decision_set(), vec![2]);
}
