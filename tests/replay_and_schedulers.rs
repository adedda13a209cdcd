//! Schedule replay and scheduler-family integration tests: a violating (or
//! any) run can be re-executed exactly from its trace, and protocols are
//! insensitive to channel-ordering assumptions.

use kset::net::MpSystem;
use kset::protocols::{FloodMin, ProtocolA};
use kset::sim::{ChannelFifo, FaultPlan, RandomScheduler, ReplayScheduler};

const DEFAULT: u64 = u64::MAX;

#[test]
fn a_traced_run_replays_to_identical_decisions() {
    let n = 6;
    let inputs: Vec<u64> = (0..n as u64).collect();
    let original = MpSystem::new(n)
        .seed(123)
        .trace_capacity(100_000)
        .fault_plan(FaultPlan::silent_crashes(n, &[4]))
        .run_with(|p| FloodMin::boxed(n, 2, inputs[p]))
        .unwrap();
    assert!(original.terminated);
    assert!(
        original.trace.dropped() == 0,
        "trace must capture the full schedule for exact replay"
    );

    // Rebuild the schedule from the trace and replay it.
    let schedule: Vec<_> = original.trace.entries().iter().map(|e| e.id).collect();
    let replayed = MpSystem::new(n)
        .scheduler(ReplayScheduler::new(schedule))
        .fault_plan(FaultPlan::silent_crashes(n, &[4]))
        .run_with(|p| FloodMin::boxed(n, 2, inputs[p]))
        .unwrap();
    assert_eq!(original.decisions, replayed.decisions);
    assert_eq!(
        original.stats.messages_delivered,
        replayed.stats.messages_delivered
    );
}

#[test]
fn replay_reproduces_partitioned_counterexample_runs() {
    use kset::sim::DelayRule;
    // The Lemma 3.3 partition run, traced and replayed WITHOUT the delay
    // rules: the schedule alone reproduces the 3-value violation, which is
    // the point — rules shape schedules, schedules are the ground truth.
    let n = 6;
    let inputs = [1u64, 1, 2, 2, 3, 3];
    let original = MpSystem::new(n)
        .seed(0)
        .trace_capacity(100_000)
        .delay_rule(DelayRule::isolate_until_decided(vec![0, 1]))
        .delay_rule(DelayRule::isolate_until_decided(vec![2, 3]))
        .delay_rule(DelayRule::isolate_until_decided(vec![4, 5]))
        .run_with(|p| ProtocolA::boxed(n, 4, inputs[p], DEFAULT))
        .unwrap();
    assert_eq!(original.correct_decision_set(), vec![1, 2, 3]);

    let schedule: Vec<_> = original.trace.entries().iter().map(|e| e.id).collect();
    let replayed = MpSystem::new(n)
        .scheduler(ReplayScheduler::new(schedule))
        .run_with(|p| ProtocolA::boxed(n, 4, inputs[p], DEFAULT))
        .unwrap();
    assert_eq!(replayed.correct_decision_set(), vec![1, 2, 3]);
    assert_eq!(original.decisions, replayed.decisions);
}

#[test]
fn protocols_behave_identically_under_fifo_channels() {
    // FIFO-per-channel is a strict subset of the asynchronous schedules;
    // all SC properties continue to hold (protocols are order-insensitive).
    let n = 6;
    let inputs: Vec<u64> = vec![5; n];
    for seed in 0..10 {
        let outcome = MpSystem::new(n)
            .scheduler(ChannelFifo::new(RandomScheduler::from_seed(seed)))
            .fault_plan(FaultPlan::silent_crashes(n, &[0]))
            .run_with(|p| ProtocolA::boxed(n, 1, inputs[p], DEFAULT))
            .unwrap();
        assert!(outcome.terminated, "seed {seed}");
        assert_eq!(outcome.correct_decision_set(), vec![5], "seed {seed}");
    }
}
