//! PROTOCOL E (paper §4.1.2): write, scan once, unanimity-or-default.
//!
//! > Each process writes its own input into a single-writer register. The
//! > process then scans the registers of all other processes exactly once.
//! > If all the values it reads in this single scan (including its own) are
//! > identical, it decides that value, otherwise it decides `v0`.
//!
//! Solves `SC(k, t, RV2)` in SM/CR for **every** `t` once `k >= 2`
//! (Lemma 4.5), and `SC(k, t, WV2)` in SM/Byz (Lemma 4.10): let `v` be the
//! value of the first completed write (by a correct process); every scan
//! happens after the scanner's own write, hence after that first write, so
//! every scan *reads* `v` — making `v` and the default the only two
//! possible decisions.
//!
//! A register that was never written reads as `⊥`. `⊥` is the *absence* of
//! a value, not a value: the unanimity test applies to the written values
//! the scan found (the scanner's own register is always among them). This
//! reading is forced by the paper's validity argument — "if all of the
//! processes start with the same value `v`, then this is the only value
//! written and so the only possible decision value" — which would fail if
//! a scan racing a slow writer's `⊥` fell to the default.

use std::any::Any;

use kset_core::Value;
use kset_shmem::{DynSmProcess, RegisterId, SmContext, SmProcess};
use kset_sim::{Fnv64, StateDigest};

/// Which phase of the (single) scan the process is in.
#[derive(Clone, Debug)]
enum Phase<V> {
    /// Waiting for the own-input write to be issued.
    Fresh,
    /// Collecting the single scan's `n` read responses.
    Scanning {
        /// Responses still outstanding.
        pending: usize,
        /// Running unanimity over *written* values: `None` until the first
        /// non-`⊥` response, `Some(None)` once mixed, `Some(Some(v))` while
        /// unanimous.
        so_far: Option<Option<V>>,
    },
}

/// One process of Protocol E.
///
/// ```
/// use kset_shmem::SmSystem;
/// use kset_protocols::ProtocolE;
///
/// // Works for ANY fault budget, here t = n - 1.
/// let outcome = SmSystem::new(4)
///     .seed(3)
///     .run_with(|_| ProtocolE::boxed(4, 3, 6u64, u64::MAX))?;
/// assert_eq!(outcome.correct_decision_set(), vec![6]);
/// # Ok::<(), kset_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolE<V> {
    n: usize,
    input: V,
    default: V,
    phase: Phase<V>,
}

impl<V: Value> ProtocolE<V> {
    /// Creates the process with its input and the default decision `v0`.
    ///
    /// Protocol E has no `t`-dependent thresholds — that is exactly its
    /// point (Lemma 4.5 holds for *every* `t`, up to and including `n`).
    /// `t` is accepted for interface uniformity and only range-checked.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `t > n`.
    pub fn new(n: usize, t: usize, input: V, default: V) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(t <= n, "t must be at most n");
        ProtocolE {
            n,
            input,
            default,
            phase: Phase::Fresh,
        }
    }

    /// Boxed form for [`kset_shmem::SmSystem::run_with`].
    pub fn boxed(n: usize, t: usize, input: V, default: V) -> DynSmProcess<V, V>
    where
        V: StateDigest + 'static,
    {
        Box::new(Self::new(n, t, input, default))
    }
}

impl<V: Value + StateDigest + 'static> SmProcess for ProtocolE<V> {
    type Val = V;
    type Output = V;

    fn fork(&self) -> Option<DynSmProcess<V, V>> {
        Some(Box::new(self.clone()))
    }

    fn fork_into(&self, dst: &mut DynSmProcess<V, V>) -> bool {
        kset_shmem::fork_in_place(self, dst)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }

    fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.input.digest_into(&mut h);
        self.default.digest_into(&mut h);
        match &self.phase {
            Phase::Fresh => h.write_u8(0),
            Phase::Scanning { pending, so_far } => {
                h.write_u8(1);
                h.write_usize(*pending);
                so_far.digest_into(&mut h);
            }
        }
        h.finish()
    }

    fn on_start(&mut self, ctx: &mut SmContext<'_, V, V>) {
        ctx.write(0, self.input.clone());
        // The write's linearization point is its invocation, so the scan
        // may be issued immediately — it will observe the write.
        self.phase = Phase::Scanning {
            pending: self.n,
            so_far: None,
        };
        ctx.read_all(0);
    }

    fn on_read(&mut self, _reg: RegisterId, value: Option<V>, ctx: &mut SmContext<'_, V, V>) {
        let Phase::Scanning { pending, so_far } = &mut self.phase else {
            return;
        };
        *pending -= 1;
        // ⊥ (an unwritten register) is skipped; only written values vote.
        if let Some(v) = value {
            *so_far = Some(match so_far.take() {
                None => Some(v),
                Some(None) => None,
                Some(Some(a)) => (a == v).then_some(a),
            });
        }
        if *pending == 0 && !ctx.has_decided() {
            let decision = match so_far.clone().flatten() {
                Some(v) => v,
                // Unreachable in practice: the scanner's own write precedes
                // its scan, so at least one written value was seen.
                None => self.default.clone(),
            };
            ctx.decide(decision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
    use kset_shmem::{SmOutcome, SmSystem};
    use kset_sim::FaultPlan;

    const DEFAULT: u64 = u64::MAX;

    fn check(outcome: &SmOutcome<u64, u64>, inputs: Vec<u64>, k: usize, t: usize) {
        let n = inputs.len();
        let spec = ProblemSpec::new(n, k, t, ValidityCondition::RV2).unwrap();
        let record = RunRecord::new(inputs)
            .with_faulty(outcome.faulty.iter().copied())
            .with_decisions(outcome.decisions.clone())
            .with_terminated(outcome.terminated);
        let report = spec.check(&record);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        for seed in 0..20 {
            let outcome = SmSystem::new(5)
                .seed(seed)
                .run_with(|_| ProtocolE::boxed(5, 2, 8u64, DEFAULT))
                .unwrap();
            assert_eq!(outcome.correct_decision_set(), vec![8], "seed {seed}");
        }
    }

    #[test]
    fn at_most_two_values_even_with_maximal_failures() {
        // t = n - 1 — far beyond anything the message-passing protocols
        // tolerate; Protocol E still gives SC(2, t, RV2).
        for seed in 0..30 {
            let inputs: Vec<u64> = (0..6).map(|p| p as u64 % 3).collect();
            let outcome = SmSystem::new(6)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(6, &[0, 2, 3, 4]))
                .run_with(|p| ProtocolE::boxed(6, 5, inputs[p], DEFAULT))
                .unwrap();
            assert!(outcome.terminated);
            check(&outcome, inputs, 2, 5);
            assert!(outcome.correct_decision_set().len() <= 2);
        }
    }

    #[test]
    fn mixed_inputs_decide_first_writer_or_default() {
        for seed in 0..40 {
            let inputs: Vec<u64> = (0..5).map(|p| p as u64).collect();
            let outcome = SmSystem::new(5)
                .seed(seed)
                .run_with(|p| ProtocolE::boxed(5, 1, inputs[p], DEFAULT))
                .unwrap();
            let set = outcome.correct_decision_set();
            assert!(set.len() <= 2, "seed {seed}: {set:?}");
            // All non-default decisions are a single input value.
            let nondefault: Vec<u64> = set.into_iter().filter(|&v| v != DEFAULT).collect();
            assert!(nondefault.len() <= 1, "seed {seed}: {nondefault:?}");
        }
    }

    #[test]
    fn unwritten_registers_do_not_break_unanimity() {
        // Process 1 never writes (crashed before starting). Its ⊥ is
        // skipped: the surviving processes agree on 4 and must decide 4 —
        // this is exactly the RV2 case that forces the ⊥-skipping reading.
        use kset_sim::FifoScheduler;
        let outcome = SmSystem::new(3)
            .scheduler(FifoScheduler::new())
            .fault_plan(FaultPlan::silent_crashes(3, &[1]))
            .run_with(|_| ProtocolE::boxed(3, 1, 4u64, DEFAULT))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.correct_decision_set(), vec![4]);
    }

    #[test]
    fn genuine_value_clash_falls_to_default() {
        // Two live writers with different inputs under FIFO: every scan
        // sees both 4 and 5 and must fall to the default.
        use kset_sim::FifoScheduler;
        let outcome = SmSystem::new(3)
            .scheduler(FifoScheduler::new())
            .fault_plan(FaultPlan::silent_crashes(3, &[1]))
            .run_with(|p| ProtocolE::boxed(3, 1, if p == 0 { 4u64 } else { 5 }, DEFAULT))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.correct_decision_set(), vec![DEFAULT]);
    }

    #[test]
    fn rv2_spec_holds_across_seeds_and_fault_patterns() {
        for seed in 0..25 {
            let inputs: Vec<u64> = (0..6).map(|p| (p as u64 * seed) % 2).collect();
            let faulty = [(seed % 6) as usize];
            let outcome = SmSystem::new(6)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(6, &faulty))
                .run_with(|p| ProtocolE::boxed(6, 1, inputs[p], DEFAULT))
                .unwrap();
            check(&outcome, inputs, 2, 1);
        }
    }

    #[test]
    fn wv2_against_byzantine_writers() {
        // A Byzantine process may write garbage to its own register; in a
        // failure-free premise WV2 does not bind, but agreement (<= 2
        // values) must still hold because the first *correct* write is
        // read by everyone.
        struct Garbage;
        impl SmProcess for Garbage {
            type Val = u64;
            type Output = u64;
            fn on_start(&mut self, ctx: &mut SmContext<'_, u64, u64>) {
                ctx.write(0, 999);
                ctx.write(0, 777); // overwrite: registers are SWMR, own only
            }
            fn on_read(
                &mut self,
                _r: RegisterId,
                _v: Option<u64>,
                _c: &mut SmContext<'_, u64, u64>,
            ) {
            }
        }
        for seed in 0..20 {
            let outcome = SmSystem::new(5)
                .seed(seed)
                .fault_plan(FaultPlan::byzantine(5, &[2]))
                .run_with(|p| {
                    if p == 2 {
                        Box::new(Garbage) as DynSmProcess<u64, u64>
                    } else {
                        ProtocolE::boxed(5, 1, 3u64, DEFAULT)
                    }
                })
                .unwrap();
            assert!(outcome.terminated);
            assert!(outcome.correct_decision_set().len() <= 2, "seed {seed}");
        }
    }

    #[test]
    fn accepts_t_equals_n() {
        // The t = n column of the SM/CR RV2 panel is solvable (Lemma 4.5).
        let _ = ProtocolE::new(4, 4, 0u64, DEFAULT);
    }

    #[test]
    #[should_panic(expected = "t must be at most n")]
    fn rejects_t_above_n() {
        let _ = ProtocolE::new(4, 5, 0u64, DEFAULT);
    }
}
