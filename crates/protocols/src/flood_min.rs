//! Chaudhuri's k-set consensus protocol (Lemma 3.1, [13]).
//!
//! The classic one-shot asynchronous algorithm: broadcast the input, wait
//! for values from `n - t` processes (counting your own), decide the
//! minimum received.
//!
//! Why it solves `SC(k, t, RV1)` for `t < k`: a correct process misses at
//! most `t` of the `n` inputs, so the minimum it sees is among the `t + 1`
//! smallest inputs — at most `t + 1 <= k` distinct decisions. Every decision
//! is somebody's input, giving RV1.

use std::any::Any;

use kset_core::Value;
use kset_net::{DynMpProcess, MpContext, MpProcess};
use kset_sim::{Fnv64, ProcessId, StateDigest};

use crate::check_params;

/// One process of Chaudhuri's protocol. Decides the minimum of the first
/// `n - t` inputs it receives.
///
/// ```
/// use kset_net::MpSystem;
/// use kset_protocols::FloodMin;
///
/// // SC(3, 2, RV1): at most t + 1 = 3 distinct decisions.
/// let outcome = MpSystem::new(5)
///     .seed(7)
///     .run_with(|p| FloodMin::boxed(5, 2, 10 + p as u64))?;
/// assert!(outcome.correct_decision_set().len() <= 3);
/// # Ok::<(), kset_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FloodMin<V> {
    n: usize,
    t: usize,
    input: V,
    received: usize,
    best: Option<V>,
}

impl<V: Value> FloodMin<V> {
    /// Creates the process with system parameters `(n, t)` and its input.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `t >= n`.
    pub fn new(n: usize, t: usize, input: V) -> Self {
        check_params(n, t);
        FloodMin {
            n,
            t,
            input,
            received: 0,
            best: None,
        }
    }

    /// Boxed form for [`kset_net::MpSystem::run_with`].
    pub fn boxed(n: usize, t: usize, input: V) -> DynMpProcess<V, V>
    where
        V: StateDigest + 'static,
    {
        Box::new(Self::new(n, t, input))
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }
}

impl<V: Value + StateDigest + 'static> MpProcess for FloodMin<V> {
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
        h.write_usize(self.received);
        self.best.digest_into(&mut h);
        h.finish()
    }

    fn on_start(&mut self, ctx: &mut MpContext<'_, V, V>) {
        ctx.broadcast(self.input.clone());
    }

    fn on_message(&mut self, _from: ProcessId, msg: V, ctx: &mut MpContext<'_, V, V>) {
        if ctx.has_decided() {
            return;
        }
        self.best = Some(match self.best.take() {
            Some(b) => b.min(msg),
            None => msg,
        });
        self.received += 1;
        if self.received >= self.quorum() {
            let v = self.best.clone().expect("quorum >= 1 values received");
            ctx.decide(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
    use kset_net::MpSystem;
    use kset_sim::{FaultPlan, LifoScheduler};

    fn run(n: usize, t: usize, crashed: &[usize], seed: u64) -> kset_net::MpOutcome<u64> {
        MpSystem::new(n)
            .seed(seed)
            .fault_plan(FaultPlan::silent_crashes(n, crashed))
            .run_with(|p| FloodMin::boxed(n, t, 1000 + p as u64))
            .unwrap()
    }

    fn check_rv1(n: usize, k: usize, t: usize, outcome: &kset_net::MpOutcome<u64>) {
        let spec = ProblemSpec::new(n, k, t, ValidityCondition::RV1).unwrap();
        let record = RunRecord::new((0..n).map(|p| 1000 + p as u64).collect())
            .with_faulty(outcome.faulty.iter().copied())
            .with_decisions(outcome.decisions.clone())
            .with_terminated(outcome.terminated);
        let report = spec.check(&record);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn failure_free_runs_satisfy_sc() {
        for seed in 0..20 {
            let outcome = run(6, 2, &[], seed);
            check_rv1(6, 3, 2, &outcome);
        }
    }

    #[test]
    fn runs_with_crashes_satisfy_sc() {
        for seed in 0..20 {
            let outcome = run(6, 2, &[1, 4], seed);
            check_rv1(6, 3, 2, &outcome);
        }
    }

    #[test]
    fn decision_count_is_at_most_t_plus_one() {
        for seed in 0..50 {
            let outcome = run(8, 3, &[0], seed);
            assert!(outcome.correct_decision_set().len() <= 4, "seed {seed}");
        }
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let outcome = MpSystem::new(5)
            .seed(1)
            .run_with(|_| FloodMin::boxed(5, 2, 7u64))
            .unwrap();
        assert_eq!(outcome.correct_decision_set(), vec![7]);
    }

    #[test]
    fn lifo_schedule_still_terminates() {
        let outcome = MpSystem::new(5)
            .scheduler(LifoScheduler::new())
            .run_with(|p| FloodMin::boxed(5, 1, p as u64))
            .unwrap();
        assert!(outcome.terminated);
    }

    #[test]
    fn decisions_are_minima_of_received_sets() {
        // With no failures and t = 0 every process receives everything and
        // decides the global minimum.
        let outcome = MpSystem::new(4)
            .seed(9)
            .run_with(|p| FloodMin::boxed(4, 0, 50 - p as u64))
            .unwrap();
        assert_eq!(outcome.correct_decision_set(), vec![47]);
    }

    #[test]
    #[should_panic(expected = "t must be smaller than n")]
    fn rejects_t_equal_n() {
        let _ = FloodMin::new(3, 3, 0u64);
    }

    #[test]
    fn works_with_string_values() {
        let inputs = ["pear", "apple", "quince"];
        let outcome = MpSystem::new(3)
            .seed(3)
            .run_with(|p| FloodMin::boxed(3, 0, inputs[p].to_string()))
            .unwrap();
        assert_eq!(outcome.correct_decision_set(), vec!["apple".to_string()]);
    }
}
