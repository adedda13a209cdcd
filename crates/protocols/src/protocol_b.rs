//! PROTOCOL B (paper §3.1.2): own-value-confirmation.
//!
//! > Each process broadcasts its input and waits for `n - t` messages. One
//! > of these `n - t` messages is the process' own message. If `n - 2t`
//! > messages contain the same value as its own, say `v`, the process
//! > decides `v`, else it decides a default value `v0`.
//!
//! Solves `SC(k, t, SV2)` in MP/CR for `t < (k-1)n/2k` (Lemma 3.8): a
//! correct process only ever decides its own input or the default, and `k`
//! distinct non-default decisions would need `k` disjoint groups of
//! `n - 2t` senders.
//!
//! Note the waiting rule: the process waits until it has `n - t` values
//! *among which its own broadcast is included* — we wait for `n - t`
//! deliveries of which one will be the self-delivery (the substrate
//! delivers broadcasts to the sender too).

use std::any::Any;

use kset_core::Value;
use kset_net::{DynMpProcess, MpContext, MpProcess};
use kset_sim::{Fnv64, ProcessId, StateDigest};

use crate::check_params;

/// One process of Protocol B.
///
/// ```
/// use kset_net::MpSystem;
/// use kset_protocols::ProtocolB;
///
/// // All correct processes share input 4: SV2 forces the decision.
/// let outcome = MpSystem::new(6)
///     .seed(2)
///     .run_with(|_| ProtocolB::boxed(6, 1, 4u64, u64::MAX))?;
/// assert_eq!(outcome.correct_decision_set(), vec![4]);
/// # Ok::<(), kset_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolB<V> {
    n: usize,
    t: usize,
    input: V,
    default: V,
    received: usize,
    own_seen: bool,
    matching_own: usize,
    /// Deliveries that arrived while waiting for the self-delivery would be
    /// miscounted if we decided before seeing our own; we simply require
    /// both `received >= n - t` and `own_seen`.
    _private: (),
}

impl<V: Value> ProtocolB<V> {
    /// Creates the process with system parameters `(n, t)`, its input and
    /// the default decision `v0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `t >= n`.
    pub fn new(n: usize, t: usize, input: V, default: V) -> Self {
        check_params(n, t);
        ProtocolB {
            n,
            t,
            input,
            default,
            received: 0,
            own_seen: false,
            matching_own: 0,
            _private: (),
        }
    }

    /// Boxed form for [`kset_net::MpSystem::run_with`].
    pub fn boxed(n: usize, t: usize, input: V, default: V) -> DynMpProcess<V, V>
    where
        V: StateDigest + 'static,
    {
        Box::new(Self::new(n, t, input, default))
    }

    fn threshold(&self) -> usize {
        self.n.saturating_sub(2 * self.t)
    }
}

impl<V: Value + StateDigest + 'static> MpProcess for ProtocolB<V> {
    type Msg = V;
    type Output = V;

    fn fork(&self) -> Option<DynMpProcess<V, V>> {
        Some(Box::new(self.clone()))
    }

    fn fork_into(&self, dst: &mut DynMpProcess<V, V>) -> bool {
        kset_net::fork_in_place(self, dst)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }

    fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.input.digest_into(&mut h);
        self.default.digest_into(&mut h);
        h.write_usize(self.received);
        h.write_u8(self.own_seen as u8);
        h.write_usize(self.matching_own);
        h.finish()
    }

    fn on_start(&mut self, ctx: &mut MpContext<'_, V, V>) {
        ctx.broadcast(self.input.clone());
    }

    fn on_message(&mut self, from: ProcessId, msg: V, ctx: &mut MpContext<'_, V, V>) {
        if ctx.has_decided() {
            return;
        }
        if from == ctx.me() {
            self.own_seen = true;
        }
        if msg == self.input {
            self.matching_own += 1;
        }
        self.received += 1;
        if self.received >= self.n - self.t && self.own_seen {
            let decision = if self.matching_own >= self.threshold() {
                self.input.clone()
            } else {
                self.default.clone()
            };
            ctx.decide(decision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
    use kset_net::{MpOutcome, MpSystem};
    use kset_sim::FaultPlan;

    const DEFAULT: u64 = u64::MAX;

    fn check_sv2(outcome: &MpOutcome<u64>, inputs: Vec<u64>, k: usize, t: usize) {
        let n = inputs.len();
        let spec = ProblemSpec::new(n, k, t, ValidityCondition::SV2).unwrap();
        let record = RunRecord::new(inputs)
            .with_faulty(outcome.faulty.iter().copied())
            .with_decisions(outcome.decisions.clone())
            .with_terminated(outcome.terminated);
        let report = spec.check(&record);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn unanimous_correct_inputs_decide_that_value() {
        // n = 8, t = 1: bound 2kt < (k-1)n for k = 2: 4 < 8 holds.
        // The crashed process has a deviant input; SV2 must still force 5.
        let inputs = [5u64, 5, 5, 5, 5, 5, 5, 9];
        for seed in 0..25 {
            let outcome = MpSystem::new(8)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(8, &[7]))
                .run_with(|p| ProtocolB::boxed(8, 1, inputs[p], DEFAULT))
                .unwrap();
            assert_eq!(outcome.correct_decision_set(), vec![5], "seed {seed}");
            check_sv2(&outcome, inputs.to_vec(), 2, 1);
        }
    }

    #[test]
    fn mixed_inputs_respect_agreement() {
        // n = 12, t = 2: k = 2 needs 2*2*2 = 8 < 12 — holds.
        for seed in 0..30 {
            let inputs: Vec<u64> = (0..12).map(|p| (p as u64 + seed) % 3).collect();
            let outcome = MpSystem::new(12)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(12, &[0, 6]))
                .run_with(|p| ProtocolB::boxed(12, 2, inputs[p], DEFAULT))
                .unwrap();
            check_sv2(&outcome, inputs, 2, 2);
        }
    }

    #[test]
    fn decisions_are_own_input_or_default() {
        for seed in 0..20 {
            let inputs: Vec<u64> = (0..6).map(|p| p as u64).collect();
            let outcome = MpSystem::new(6)
                .seed(seed)
                .run_with(|p| ProtocolB::boxed(6, 1, inputs[p], DEFAULT))
                .unwrap();
            for (&p, &d) in &outcome.decisions {
                assert!(
                    d == inputs[p] || d == DEFAULT,
                    "process {p} decided {d}, neither its input nor default"
                );
            }
        }
    }

    #[test]
    fn all_distinct_inputs_with_small_support_yield_default() {
        // n - 2t = 4 matching copies needed, but each value exists once.
        let outcome = MpSystem::new(6)
            .seed(7)
            .fault_plan(FaultPlan::silent_crashes(6, &[5]))
            .run_with(|p| ProtocolB::boxed(6, 1, p as u64, DEFAULT))
            .unwrap();
        assert_eq!(outcome.correct_decision_set(), vec![DEFAULT]);
    }

    #[test]
    fn waits_for_own_message_before_deciding() {
        // Delay process 0's self-delivery behind everything else: it must
        // not decide until its own broadcast arrives. With n = 3, t = 1,
        // quorum 2, a premature decision would miscount matching_own.
        use kset_sim::{DelayRule, Until};
        let outcome = MpSystem::new(3)
            .seed(2)
            .delay_rule(DelayRule::new(
                "hold 0 -> 0 until 1 and 2 decided",
                Box::new(|m: &kset_sim::EventMeta| m.channel() == Some((0, 0))),
                Until::AllDecided(vec![1, 2]),
            ))
            .run_with(|_| ProtocolB::boxed(3, 1, 4u64, DEFAULT))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.correct_decision_set(), vec![4]);
    }

    #[test]
    fn n_not_exceeding_2t_never_decides_nondefault_on_disagreement() {
        // n = 4, t = 2: threshold n - 2t = 0, so every process confirms its
        // own value trivially — this regime is outside Lemma 3.8's bound
        // (2kt < (k-1)n fails for every k <= n), and indeed agreement
        // degrades to one decision per input value. Document that behaviour.
        let inputs = [1u64, 2, 3, 4];
        let outcome = MpSystem::new(4)
            .seed(5)
            .run_with(|p| ProtocolB::boxed(4, 2, inputs[p], DEFAULT))
            .unwrap();
        assert_eq!(outcome.correct_decision_set().len(), 4);
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn rejects_empty_system() {
        let _ = ProtocolB::new(0, 0, 1u64, DEFAULT);
    }
}
