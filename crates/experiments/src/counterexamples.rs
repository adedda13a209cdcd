//! Executable re-enactments of the paper's impossibility constructions.
//!
//! Each function stages the run described in one impossibility proof —
//! partition schedules, crash placements, Byzantine mimicry — against the
//! protocol whose bound the lemma shows tight, and returns a
//! [`Counterexample`] recording the violated property. The test suite
//! asserts every construction produces exactly the predicted violation;
//! the `counterexamples` binary prints them.

use kset_adversary::{plans, GroupMimic, Silent};
use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
use kset_net::{DynMpProcess, MpSystem};
use kset_protocols::echo::LEcho;
use kset_protocols::{CMsg, FloodMin, ProtocolA, ProtocolB, ProtocolC, ProtocolE, ProtocolF};
use kset_shmem::{DynSmProcess, SmSystem};
use kset_sim::{DelayRule, FaultPlan, SimError, Until};

use crate::cells::DEFAULT_VALUE;

/// Which `SC` condition a construction violates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Violated {
    /// More than `k` distinct correct decisions.
    Agreement,
    /// The validity condition failed.
    Validity,
    /// Some correct process never decided.
    Termination,
}

/// One staged impossibility construction and its observed outcome.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The lemma whose construction this re-enacts.
    pub lemma: &'static str,
    /// Short description of the staging.
    pub construction: &'static str,
    /// The spec the run was checked against.
    pub spec: String,
    /// Distinct values decided by correct processes.
    pub correct_decisions: Vec<u64>,
    /// The property that broke, as predicted by the lemma.
    pub violated: Violated,
    /// The checker's full report for the run.
    pub report: String,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} — {}", self.lemma, self.construction)?;
        writeln!(f, "  spec:      {}", self.spec)?;
        writeln!(f, "  decisions: {:?}", self.correct_decisions)?;
        writeln!(f, "  violated:  {:?}", self.violated)?;
        write!(f, "  checker:   {}", self.report)
    }
}

#[allow(clippy::too_many_arguments)]
fn build(
    lemma: &'static str,
    construction: &'static str,
    spec: ProblemSpec,
    inputs: Vec<u64>,
    decisions: std::collections::BTreeMap<usize, u64>,
    faulty: Vec<usize>,
    terminated: bool,
    violated: Violated,
) -> Counterexample {
    let record = RunRecord::new(inputs)
        .with_faulty(faulty)
        .with_decisions(decisions.clone())
        .with_terminated(terminated);
    let report = spec.check(&record);
    let correct_decisions = record.correct_decision_set();
    Counterexample {
        lemma,
        construction,
        spec: spec.to_string(),
        correct_decisions,
        violated,
        report: report.to_string(),
    }
}

/// **Lemma 3.3 (and Fig. 3)** — the partition run against Protocol A just
/// past its RV2/WV2 bound.
///
/// `n = 6`, `t = 4` (so `k t > (k-1) n` for `k = 2`), quorum `n - t = 2`:
/// three groups of two, each unanimous on a different value, each isolated
/// until it decides. Every group reaches its quorum internally and decides
/// its own value — three distinct decisions against `SC(2)`.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_3_3_partition_run() -> Result<Counterexample, SimError> {
    let (n, k, t) = (6, 2, 4);
    let inputs = vec![1u64, 1, 2, 2, 3, 3];
    let outcome = MpSystem::new(n)
        .seed(0)
        .delay_rule(DelayRule::isolate_until_decided(vec![0, 1]))
        .delay_rule(DelayRule::isolate_until_decided(vec![2, 3]))
        .delay_rule(DelayRule::isolate_until_decided(vec![4, 5]))
        .run_with(|p| ProtocolA::boxed(n, t, inputs[p], DEFAULT_VALUE))?;
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::WV2).expect("valid spec");
    Ok(build(
        "Lemma 3.3",
        "three isolated unanimous pairs vs Protocol A at t >= ((k-1)n+1)/k (the Fig. 3 run)",
        spec,
        inputs,
        outcome.decisions,
        vec![],
        outcome.terminated,
        Violated::Agreement,
    ))
}

/// **Lemma 3.5** — no protocol achieves SV1: crash the decided-upon
/// process right after its last send.
///
/// FloodMin with all-distinct inputs: everyone decides the minimum input,
/// owned by process 0 — which crashed immediately after broadcasting.
/// The decision is a *faulty* process's input: SV1 violated.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_3_5_crash_after_last_send() -> Result<Counterexample, SimError> {
    let (n, k, t) = (4, 2, 1);
    let inputs = vec![10u64, 20, 30, 40];
    let outcome = MpSystem::new(n)
        .seed(1)
        .fault_plan(plans::crash_after_initial_broadcast(n, 0))
        .run_with(|p| FloodMin::boxed(n, t, inputs[p]))?;
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::SV1).expect("valid spec");
    Ok(build(
        "Lemma 3.5",
        "minimum-input owner crashes right after its last send; its value is still decided",
        spec,
        inputs,
        outcome.decisions,
        vec![0],
        outcome.terminated,
        Violated::Validity,
    ))
}

/// **Lemma 3.6** — Protocol B past its SV2 bound: with `n <= 2t` the
/// own-value confirmation threshold `n - 2t` collapses to zero and every
/// process confirms itself.
///
/// `n = 4`, `t = 2`, all inputs distinct: four decisions against `SC(2)`.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_3_6_protocol_b_past_bound() -> Result<Counterexample, SimError> {
    let (n, k, t) = (4, 2, 2);
    let inputs = vec![1u64, 2, 3, 4];
    let outcome = MpSystem::new(n)
        .seed(2)
        .run_with(|p| ProtocolB::boxed(n, t, inputs[p], DEFAULT_VALUE))?;
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::SV2).expect("valid spec");
    Ok(build(
        "Lemma 3.6",
        "Protocol B with n <= 2t: the n-2t threshold vanishes, every process self-confirms",
        spec,
        inputs,
        outcome.decisions,
        vec![],
        outcome.terminated,
        Violated::Agreement,
    ))
}

/// **Lemma 3.9** — Protocol A under Byzantine group mimicry: the faulty
/// set shows each isolated group a run in which "everyone" shares that
/// group's value.
///
/// `n = 7`, protocol `t = 4` (quorum 3), one actual Byzantine process:
/// three groups of two, each completed to a quorum by the mimic — three
/// distinct decisions against `SC(2)`.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_3_9_group_mimicry() -> Result<Counterexample, SimError> {
    let (n, k, t) = (7, 2, 4);
    let inputs = vec![0u64, 1, 1, 2, 2, 3, 3];
    let outcome = MpSystem::new(n)
        .seed(3)
        .fault_plan(FaultPlan::byzantine(n, &[0]))
        .delay_rule(DelayRule::isolate_with_allies(vec![1, 2], vec![0]))
        .delay_rule(DelayRule::isolate_with_allies(vec![3, 4], vec![0]))
        .delay_rule(DelayRule::isolate_with_allies(vec![5, 6], vec![0]))
        .run_with(|p| -> DynMpProcess<u64, u64> {
            if p == 0 {
                Box::new(GroupMimic::new(
                    n,
                    &[(vec![1, 2], 1), (vec![3, 4], 2), (vec![5, 6], 3)],
                ))
            } else {
                ProtocolA::boxed(n, t, inputs[p], DEFAULT_VALUE)
            }
        })?;
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::WV2).expect("valid spec");
    Ok(build(
        "Lemma 3.9",
        "a Byzantine mimic completes each isolated pair's quorum with that pair's value",
        spec,
        inputs,
        outcome.decisions,
        vec![0],
        outcome.terminated,
        Violated::Agreement,
    ))
}

/// **Lemma 3.10** — RV1 is unachievable under Byzantine failures: a liar
/// gets a value decided that is *nobody's* input.
///
/// FloodMin with a Byzantine process claiming a tiny forged input: the
/// forged value becomes the minimum and is decided, violating RV1 against
/// the true inputs.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_3_10_input_liar() -> Result<Counterexample, SimError> {
    let (n, k, t) = (4, 3, 1);
    // True inputs: the Byzantine process 0's "real" input is 100.
    let inputs = vec![100u64, 101, 102, 103];
    let outcome = MpSystem::new(n)
        .seed(4)
        .fault_plan(FaultPlan::byzantine(n, &[0]))
        .run_with(|p| -> DynMpProcess<u64, u64> {
            if p == 0 {
                // Behaves exactly like FloodMin, but claims input 1.
                FloodMin::boxed(n, t, 1)
            } else {
                FloodMin::boxed(n, t, inputs[p])
            }
        })?;
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::RV1).expect("valid spec");
    Ok(build(
        "Lemma 3.10",
        "a Byzantine process runs the protocol on a forged input; the forgery gets decided",
        spec,
        inputs,
        outcome.decisions,
        vec![0],
        outcome.terminated,
        Violated::Validity,
    ))
}

/// **Lemma 3.14 boundary** — the `l`-echo broadcast loses liveness outside
/// `t < l n / (2l + 1)`: with `n = 9, t = 3, l = 1` the acceptance
/// threshold (7) exceeds the number of correct processes (6), so no value
/// is ever accepted and Protocol C(1) cannot terminate.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_3_14_echo_liveness_boundary() -> Result<Counterexample, SimError> {
    let (n, k, t, l) = (9, 2, 3, 1);
    assert!(!LEcho::<u64>::new(n, t, l).parameters_sound());
    let inputs = vec![5u64; n];
    let outcome = MpSystem::new(n)
        .seed(5)
        .fault_plan(plans::first_t_byzantine(n, t))
        .run_with(|p| -> DynMpProcess<CMsg<u64>, u64> {
            if p < t {
                Box::new(Silent::new())
            } else {
                ProtocolC::boxed(n, t, l, inputs[p], DEFAULT_VALUE)
            }
        })?;
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::SV2).expect("valid spec");
    Ok(build(
        "Lemma 3.14",
        "1-echo with t >= n/3: acceptance threshold exceeds the correct population",
        spec,
        inputs,
        outcome.decisions,
        (0..t).collect(),
        outcome.terminated,
        Violated::Termination,
    ))
}

/// **Lemma 4.3** — Protocol F past its bound in shared memory: with
/// `t >= n/2` and `t >= k`, freeze everyone but `t + 1` distinct-valued
/// processes; each sees `r = t + 1` written registers and its own value
/// has the single vote it needs.
///
/// `n = 6, t = 3, k = 3`: four self-decisions against `SC(3)`.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_4_3_frozen_majority() -> Result<Counterexample, SimError> {
    let (n, k, t) = (6, 3, 3);
    let inputs = vec![1u64, 2, 3, 4, 9, 9];
    let group: Vec<usize> = (0..4).collect();
    let outcome = SmSystem::new(n)
        .seed(6)
        .delay_rule(DelayRule::freeze_process(
            4,
            Until::AllDecided(group.clone()),
        ))
        .delay_rule(DelayRule::freeze_process(5, Until::AllDecided(group)))
        .run_with(|p| ProtocolF::boxed(n, t, inputs[p], DEFAULT_VALUE))?
        .into_run();
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::SV2).expect("valid spec");
    Ok(build(
        "Lemma 4.3",
        "t+1 distinct writers run alone: every scan returns r = t+1 and self-support suffices",
        spec,
        inputs,
        outcome.decisions,
        vec![],
        outcome.terminated,
        Violated::Agreement,
    ))
}

/// **Lemma 4.9** — Protocol E does not give RV2 against Byzantine writers
/// (which is why SM/Byz only gets WV2 from it): a Byzantine process whose
/// nominal input matches everyone else's writes a *different* value first,
/// and correct scans fall to the default.
///
/// # Errors
///
/// Propagates simulator failures (none are expected).
pub fn lemma_4_9_byzantine_first_write() -> Result<Counterexample, SimError> {
    use kset_adversary::Scribbler;
    let (n, k, t) = (4, 2, 1);
    // Nominal inputs: everyone starts with 7 — the RV2 premise binds.
    let inputs = vec![7u64; n];
    let outcome = SmSystem::new(n)
        .scheduler(kset_sim::FifoScheduler::new())
        .fault_plan(FaultPlan::byzantine(n, &[0]))
        .run_with(|p| -> DynSmProcess<u64, u64> {
            if p == 0 {
                Box::new(Scribbler::new(vec![999]))
            } else {
                ProtocolE::boxed(n, t, inputs[p], DEFAULT_VALUE)
            }
        })?
        .into_run();
    let spec = ProblemSpec::new(n, k, t, ValidityCondition::RV2).expect("valid spec");
    Ok(build(
        "Lemma 4.9",
        "a Byzantine writer lies first; unanimous correct scans still see the lie and default",
        spec,
        inputs,
        outcome.decisions,
        vec![0],
        outcome.terminated,
        Violated::Validity,
    ))
}

/// All constructions, in paper order.
///
/// # Errors
///
/// Propagates the first simulator failure (none are expected).
pub fn all() -> Result<Vec<Counterexample>, SimError> {
    Ok(vec![
        lemma_3_3_partition_run()?,
        lemma_3_5_crash_after_last_send()?,
        lemma_3_6_protocol_b_past_bound()?,
        lemma_3_9_group_mimicry()?,
        lemma_3_10_input_liar()?,
        lemma_3_14_echo_liveness_boundary()?,
        lemma_4_3_frozen_majority()?,
        lemma_4_9_byzantine_first_write()?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma_3_3_yields_three_decisions_against_k_2() {
        let cx = lemma_3_3_partition_run().unwrap();
        assert_eq!(cx.correct_decisions, vec![1, 2, 3]);
        assert!(cx.report.contains("3 distinct values decided"));
    }

    #[test]
    fn lemma_3_5_decides_a_faulty_input() {
        let cx = lemma_3_5_crash_after_last_send().unwrap();
        // The crashed process's input 10 is decided by at least one
        // survivor; 20 may also appear (k = 2 allows it). The violation is
        // SV1, not agreement.
        assert!(cx.correct_decisions.contains(&10));
        assert!(cx.correct_decisions.len() <= 2);
        assert!(cx.report.contains("SV1"));
    }

    #[test]
    fn lemma_3_6_self_confirmation_explosion() {
        let cx = lemma_3_6_protocol_b_past_bound().unwrap();
        assert_eq!(cx.correct_decisions.len(), 4);
        assert!(cx.report.contains("agreement allows 2"));
    }

    #[test]
    fn lemma_3_9_mimicry_yields_three_decisions() {
        let cx = lemma_3_9_group_mimicry().unwrap();
        assert_eq!(cx.correct_decisions, vec![1, 2, 3]);
        assert!(cx.report.contains("agreement allows 2"));
    }

    #[test]
    fn lemma_3_10_decides_a_forged_value() {
        let cx = lemma_3_10_input_liar().unwrap();
        assert!(cx.correct_decisions.contains(&1));
        assert!(cx.report.contains("RV1"));
    }

    #[test]
    fn lemma_3_14_starves_acceptance() {
        let cx = lemma_3_14_echo_liveness_boundary().unwrap();
        assert!(cx.correct_decisions.is_empty());
        assert!(cx.report.contains("never decided"));
    }

    #[test]
    fn lemma_4_3_yields_four_self_decisions() {
        let cx = lemma_4_3_frozen_majority().unwrap();
        // The four isolated writers each decide their own value; the two
        // released processes may add a default on top.
        for v in 1..=4u64 {
            assert!(cx.correct_decisions.contains(&v), "{v} missing");
        }
        assert!(cx.correct_decisions.len() >= 4);
        assert!(cx.report.contains("agreement allows 3"));
    }

    #[test]
    fn lemma_4_9_breaks_rv2_but_not_agreement() {
        let cx = lemma_4_9_byzantine_first_write().unwrap();
        assert!(cx.correct_decisions.contains(&DEFAULT_VALUE));
        assert!(cx.report.contains("RV2"));
    }

    #[test]
    fn all_returns_every_construction() {
        let list = all().unwrap();
        assert_eq!(list.len(), 8);
        // Every construction's checker report is a genuine violation.
        for cx in &list {
            assert_ne!(cx.report, "ok", "{} must violate something", cx.lemma);
        }
    }
}
