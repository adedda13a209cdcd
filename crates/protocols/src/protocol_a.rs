//! PROTOCOL A (paper §3.1.2): unanimity-or-default.
//!
//! > Each process broadcasts its input and waits for `n - t` messages. If
//! > all `n - t` messages contain the same value `v`, then the process
//! > decides `v`, else it decides a default value `v0`.
//!
//! * In MP/CR it solves `SC(k, t, RV2)` for `t < (k-1)n/k` (Lemma 3.7):
//!   `k` non-default decisions would need `k` disjoint groups of `n - t`
//!   senders, i.e. `k(n - t) > n` processes.
//! * In MP/Byz the same code solves `SC(k, t, WV2)` for
//!   `t < n/2, k >= (n-t)/(n-2t) + 1` (Lemma 3.12) and for
//!   `t >= n/2, k >= t + 1` (Lemma 3.13).

use std::any::Any;

use kset_core::Value;
use kset_net::{DynMpProcess, MpContext, MpProcess};
use kset_sim::{Fnv64, ProcessId, StateDigest};

use crate::check_params;

/// One process of Protocol A.
///
/// ```
/// use kset_net::MpSystem;
/// use kset_protocols::ProtocolA;
///
/// // Unanimous inputs decide that value (RV2's binding case).
/// let outcome = MpSystem::new(4)
///     .seed(1)
///     .run_with(|_| ProtocolA::boxed(4, 1, 9u64, u64::MAX))?;
/// assert_eq!(outcome.correct_decision_set(), vec![9]);
/// # Ok::<(), kset_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct ProtocolA<V> {
    n: usize,
    t: usize,
    input: V,
    default: V,
    seen: Vec<V>,
}

/// Written out so that `clone_from` reuses `seen`'s buffer: the forking
/// executor copies processes in place on every snapshot and resume.
impl<V: Clone> Clone for ProtocolA<V> {
    fn clone(&self) -> Self {
        ProtocolA {
            n: self.n,
            t: self.t,
            input: self.input.clone(),
            default: self.default.clone(),
            seen: self.seen.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.t = source.t;
        self.input.clone_from(&source.input);
        self.default.clone_from(&source.default);
        self.seen.clone_from(&source.seen);
    }
}

impl<V: Value> ProtocolA<V> {
    /// Creates the process with system parameters `(n, t)`, its input, and
    /// the default decision `v0` used when the first `n - t` values are not
    /// unanimous.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `t >= n`.
    pub fn new(n: usize, t: usize, input: V, default: V) -> Self {
        check_params(n, t);
        ProtocolA {
            n,
            t,
            input,
            default,
            seen: Vec::new(),
        }
    }

    /// Boxed form for [`kset_net::MpSystem::run_with`].
    pub fn boxed(n: usize, t: usize, input: V, default: V) -> DynMpProcess<V, V>
    where
        V: StateDigest + 'static,
    {
        Box::new(Self::new(n, t, input, default))
    }
}

impl<V: Value + StateDigest + 'static> MpProcess for ProtocolA<V> {
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
        self.seen.digest_into(&mut h);
        h.finish()
    }

    fn on_start(&mut self, ctx: &mut MpContext<'_, V, V>) {
        ctx.broadcast(self.input.clone());
    }

    fn on_message(&mut self, _from: ProcessId, msg: V, ctx: &mut MpContext<'_, V, V>) {
        if ctx.has_decided() {
            return;
        }
        self.seen.push(msg);
        if self.seen.len() == self.n - self.t {
            let first = &self.seen[0];
            let unanimous = self.seen.iter().all(|v| v == first);
            let decision = if unanimous {
                first.clone()
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
    use kset_sim::{DelayRule, FaultPlan};

    const DEFAULT: u64 = u64::MAX;

    fn check(outcome: &MpOutcome<u64>, inputs: Vec<u64>, k: usize, t: usize, v: ValidityCondition) {
        let n = inputs.len();
        let spec = ProblemSpec::new(n, k, t, v).unwrap();
        let record = RunRecord::new(inputs)
            .with_faulty(outcome.faulty.iter().copied())
            .with_decisions(outcome.decisions.clone())
            .with_terminated(outcome.terminated);
        let report = spec.check(&record);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let outcome = MpSystem::new(6)
            .seed(4)
            .fault_plan(FaultPlan::silent_crashes(6, &[5]))
            .run_with(|_| ProtocolA::boxed(6, 1, 3u64, DEFAULT))
            .unwrap();
        assert_eq!(outcome.correct_decision_set(), vec![3]);
    }

    #[test]
    fn mixed_inputs_yield_defaults_or_inputs_within_k() {
        // n = 6, t = 1: Protocol A solves RV2 for k with kt < (k-1)n,
        // i.e. k >= 2 (2*1 < 1*6). Run many seeds and check SC(2,1,RV2).
        for seed in 0..30 {
            let inputs: Vec<u64> = (0..6).map(|p| p as u64 % 2).collect();
            let outcome = MpSystem::new(6)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(6, &[2]))
                .run_with(|p| ProtocolA::boxed(6, 1, inputs[p], DEFAULT))
                .unwrap();
            check(&outcome, inputs, 2, 1, ValidityCondition::RV2);
        }
    }

    #[test]
    fn agreement_bound_holds_across_random_inputs() {
        // n = 8, t = 3: bound needs k t < (k-1) n: k=2: 6 < 8 ok.
        for seed in 0..40 {
            let inputs: Vec<u64> = (0..8).map(|p| (p as u64 * seed) % 4).collect();
            let outcome = MpSystem::new(8)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(8, &[1, 2, 3]))
                .run_with(|p| ProtocolA::boxed(8, 3, inputs[p], DEFAULT))
                .unwrap();
            check(&outcome, inputs, 2, 3, ValidityCondition::RV2);
        }
    }

    #[test]
    fn partition_schedule_forces_multiple_unanimous_groups() {
        // Re-enactment of why the bound is tight (cf. Lemma 3.3's
        // construction): n = 4, t = 2, quorum = 2. Isolate {0,1} (both
        // with input 1) and {2,3} (both with input 2): each group reaches
        // its quorum internally and decides its own value unanimously.
        let inputs = [1u64, 1, 2, 2];
        let outcome = MpSystem::new(4)
            .seed(0)
            .delay_rule(DelayRule::isolate_until_decided(vec![0, 1]))
            .delay_rule(DelayRule::isolate_until_decided(vec![2, 3]))
            .run_with(|p| ProtocolA::boxed(4, 2, inputs[p], DEFAULT))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.correct_decision_set(), vec![1, 2]);
        // Two values decided: SC(2) is met here, but with three groups this
        // becomes the k+1 violation exhibited in kset-experiments.
    }

    #[test]
    fn default_decision_appears_when_quorum_is_mixed() {
        // Force every process to see both values: no delay rules, FIFO
        // delivery interleaves inputs 0 and 1 across the quorum of 4.
        let inputs = [0u64, 1, 0, 1];
        let outcome = MpSystem::new(4)
            .scheduler(kset_sim::FifoScheduler::new())
            .run_with(|p| ProtocolA::boxed(4, 0, inputs[p], DEFAULT))
            .unwrap();
        assert_eq!(outcome.correct_decision_set(), vec![DEFAULT]);
    }

    #[test]
    fn wv2_holds_in_failure_free_byzantine_free_runs() {
        for seed in 0..20 {
            let inputs: Vec<u64> = vec![9; 5];
            let outcome = MpSystem::new(5)
                .seed(seed)
                .run_with(|p| ProtocolA::boxed(5, 2, inputs[p], DEFAULT))
                .unwrap();
            check(&outcome, inputs, 3, 2, ValidityCondition::WV2);
        }
    }

    #[test]
    #[should_panic(expected = "t must be smaller than n")]
    fn rejects_degenerate_quorum() {
        let _ = ProtocolA::new(2, 2, 0u64, DEFAULT);
    }
}
