//! PROTOCOL C(l) (paper §3.2.2): Protocol B over the `l`-echo broadcast.
//!
//! > Each process broadcasts its input using the `l`-echo protocol and
//! > waits for `n - t` messages to be accepted, where one of these `n - t`
//! > messages is the process' own message. If `n - 2t` messages contain the
//! > same value `v`, then the process decides `v`, else it decides a
//! > default value `v0`.
//!
//! Solves `SC(k, t, SV2)` in MP/Byz for `t < (k-1)n/(2k+l-1)` and
//! `t < ln/(2l+1)` (Lemma 3.15).
//!
//! As in Protocol B, the validity argument ("since `p` starts with `v` it
//! either decides `v` or `v0`") shows the decision test compares against
//! the process's *own* input; we implement exactly that. Acceptance is
//! counted per origin — the first value accepted from each origin is that
//! origin's contribution to the quorum (a Byzantine origin may get up to
//! `l` values accepted system-wide, which is what the `(2k+l-1)` term in
//! the agreement bound pays for).

use std::collections::BTreeMap;

use kset_core::Value;
use kset_net::{DynMpProcess, MpContext, MpProcess};
use kset_sim::ProcessId;

use crate::check_params;
use crate::echo::{EchoAction, LEcho};

/// Message alphabet of Protocol C: the `l`-echo broadcast wire format.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CMsg<V> {
    /// `<init, sender, value>` — sender is the transport-level sender.
    Init(V),
    /// `<echo, origin, value>` relayed on behalf of `origin`.
    Echo(ProcessId, V),
}

/// One process of Protocol C(l).
#[derive(Clone, Debug)]
pub struct ProtocolC<V> {
    n: usize,
    t: usize,
    input: V,
    default: V,
    echo: LEcho<V>,
    /// First accepted value per origin (quorum contributions).
    quorum: BTreeMap<ProcessId, V>,
    done_counting: bool,
    /// If set, the process stops participating (echoing) once it has
    /// decided — the naive "terminating" variant whose failure mode is the
    /// paper's §5 open problem. See [`ProtocolC::with_halting`].
    halting: bool,
}

impl<V: Value> ProtocolC<V> {
    /// Creates the process with system parameters `(n, t)`, the echo
    /// amplification `l >= 1`, its input, and the default decision `v0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `t >= n`, or `l == 0`.
    pub fn new(n: usize, t: usize, l: usize, input: V, default: V) -> Self {
        check_params(n, t);
        ProtocolC {
            n,
            t,
            input,
            default,
            echo: LEcho::new(n, t, l),
            quorum: BTreeMap::new(),
            done_counting: false,
            halting: false,
        }
    }

    /// Makes the process halt (stop echoing) as soon as it decides.
    ///
    /// The paper's §5 remark: its Byzantine protocols require processes to
    /// "help" forever, and whether *terminating* protocols exist for the
    /// same settings is open. This variant is the obvious attempt — and it
    /// demonstrably loses liveness: a process whose deliveries are delayed
    /// past everyone else's decisions can no longer assemble its quorum
    /// (see the `halting_variant_starves_a_slow_process` test and the
    /// `ablations` bench).
    pub fn with_halting(mut self) -> Self {
        self.halting = true;
        self
    }

    /// Boxed form for [`kset_net::MpSystem::run_with`].
    pub fn boxed(n: usize, t: usize, l: usize, input: V, default: V) -> DynMpProcess<CMsg<V>, V>
    where
        V: 'static,
    {
        Box::new(Self::new(n, t, l, input, default))
    }

    fn apply(&mut self, action: Option<EchoAction<V>>, ctx: &mut MpContext<'_, CMsg<V>, V>) {
        match action {
            Some(EchoAction::SendEcho { origin, value }) => {
                ctx.broadcast(CMsg::Echo(origin, value));
            }
            Some(EchoAction::Accept { origin, value }) => {
                self.quorum.entry(origin).or_insert(value);
                self.maybe_decide(ctx);
            }
            None => {}
        }
    }

    fn maybe_decide(&mut self, ctx: &mut MpContext<'_, CMsg<V>, V>) {
        if self.done_counting || ctx.has_decided() {
            return;
        }
        let me = ctx.me();
        if self.quorum.len() < self.n - self.t || !self.quorum.contains_key(&me) {
            return;
        }
        self.done_counting = true;
        let matching = self.quorum.values().filter(|v| **v == self.input).count();
        let decision = if matching >= self.n.saturating_sub(2 * self.t) {
            self.input.clone()
        } else {
            self.default.clone()
        };
        ctx.decide(decision);
    }
}

impl<V: Value> MpProcess for ProtocolC<V> {
    type Msg = CMsg<V>;
    type Output = V;

    fn on_start(&mut self, ctx: &mut MpContext<'_, CMsg<V>, V>) {
        ctx.broadcast(CMsg::Init(self.input.clone()));
    }

    fn on_message(&mut self, from: ProcessId, msg: CMsg<V>, ctx: &mut MpContext<'_, CMsg<V>, V>) {
        // By default processes keep echoing after deciding — the paper's
        // Byzantine protocols forgo halting so that slower processes can
        // still assemble their quorums (§5 remark). The halting variant
        // (an ablation) stops here instead.
        if self.halting && ctx.has_decided() {
            return;
        }
        match msg {
            CMsg::Init(v) => {
                let action = self.echo.on_init(from, v);
                self.apply(action, ctx);
            }
            CMsg::Echo(origin, v) => {
                let action = self.echo.on_echo(from, origin, v);
                self.apply(action, ctx);
            }
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

    /// A crash-style Byzantine slot: stays silent forever. (Richer
    /// strategies live in kset-adversary; the protocol tests only need
    /// the failure to exist.)
    struct Silent;
    impl MpProcess for Silent {
        type Msg = CMsg<u64>;
        type Output = u64;
        fn on_start(&mut self, _ctx: &mut MpContext<'_, CMsg<u64>, u64>) {}
        fn on_message(
            &mut self,
            _f: ProcessId,
            _m: CMsg<u64>,
            _c: &mut MpContext<'_, CMsg<u64>, u64>,
        ) {
        }
    }

    #[test]
    fn failure_free_unanimous_run_decides_the_value() {
        // n = 10, t = 2, l = 1: sound (2 < 10/3? 6 < 10 yes).
        for seed in 0..15 {
            let outcome = MpSystem::new(10)
                .seed(seed)
                .run_with(|_| ProtocolC::boxed(10, 2, 1, 6u64, DEFAULT))
                .unwrap();
            assert_eq!(outcome.correct_decision_set(), vec![6], "seed {seed}");
        }
    }

    #[test]
    fn tolerates_silent_byzantine_processes() {
        // n = 10, t = 2, l = 1. Byzantine slots 0 and 9 stay silent.
        // All correct processes start with 4: SV2 forces 4.
        for seed in 0..15 {
            let outcome = MpSystem::new(10)
                .seed(seed)
                .fault_plan(FaultPlan::byzantine(10, &[0, 9]))
                .run_with(|p| {
                    if p == 0 || p == 9 {
                        Box::new(Silent) as DynMpProcess<CMsg<u64>, u64>
                    } else {
                        ProtocolC::boxed(10, 2, 1, 4u64, DEFAULT)
                    }
                })
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert_eq!(outcome.correct_decision_set(), vec![4], "seed {seed}");
        }
    }

    #[test]
    fn mixed_inputs_meet_sv2_and_agreement() {
        // n = 12, t = 1, l = 1: agreement bound t < (k-1)n/(2k):
        // k = 2 -> 1 < 12/4 = 3 holds.
        for seed in 0..20 {
            let inputs: Vec<u64> = (0..12).map(|p| (p as u64) % 2).collect();
            let outcome = MpSystem::new(12)
                .seed(seed)
                .fault_plan(FaultPlan::byzantine(12, &[3]))
                .run_with(|p| {
                    if p == 3 {
                        Box::new(Silent) as DynMpProcess<CMsg<u64>, u64>
                    } else {
                        ProtocolC::boxed(12, 1, 1, inputs[p], DEFAULT)
                    }
                })
                .unwrap();
            check_sv2(&outcome, inputs, 2, 1);
        }
    }

    #[test]
    fn decisions_are_own_input_or_default() {
        for seed in 0..10 {
            let outcome = MpSystem::new(7)
                .seed(seed)
                .run_with(|p| ProtocolC::boxed(7, 1, 1, p as u64, DEFAULT))
                .unwrap();
            for (&p, &d) in &outcome.decisions {
                assert!(d == p as u64 || d == DEFAULT);
            }
        }
    }

    #[test]
    fn l2_parameters_extend_the_fault_range() {
        // n = 9, t = 3: l = 1 is unsound ((2+1)*3 = 9 !< 9), while l = 2
        // is sound ((4+1)*3 = 15 < 18) — the regime where the l-echo
        // generalization genuinely buys fault tolerance.
        let e1 = LEcho::<u64>::new(9, 3, 1);
        let e2 = LEcho::<u64>::new(9, 3, 2);
        assert!(!e1.parameters_sound());
        assert!(e2.parameters_sound());
        for seed in 0..10 {
            let outcome = MpSystem::new(9)
                .seed(seed)
                .fault_plan(FaultPlan::byzantine(9, &[0, 1, 2]))
                .run_with(|p| {
                    if p < 3 {
                        Box::new(Silent) as DynMpProcess<CMsg<u64>, u64>
                    } else {
                        ProtocolC::boxed(9, 3, 2, 5u64, DEFAULT)
                    }
                })
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert_eq!(outcome.correct_decision_set(), vec![5], "seed {seed}");
        }
        // Failure-free, every l up to t terminates on the unanimous value.
        for l in 1..=3 {
            let outcome = MpSystem::new(24)
                .seed(1)
                .run_with(|_| ProtocolC::boxed(24, 3, l, 5u64, DEFAULT))
                .unwrap();
            assert!(outcome.terminated, "l = {l}");
            assert_eq!(outcome.correct_decision_set(), vec![5], "l = {l}");
        }
    }

    #[test]
    fn continues_echoing_after_deciding() {
        // Regression guard: if processes stopped echoing at decision time,
        // late processes could starve. Freeze process 5's deliveries until
        // everyone else decided, then it must still assemble a quorum.
        use kset_sim::{DelayRule, Until};
        let others: Vec<usize> = (0..5).collect();
        let outcome = MpSystem::new(6)
            .seed(3)
            .delay_rule(DelayRule::freeze_process(5, Until::AllDecided(others)))
            .run_with(|_| ProtocolC::boxed(6, 1, 1, 2u64, DEFAULT))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.decisions.len(), 6);
        assert_eq!(outcome.correct_decision_set(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "l-echo requires l >= 1")]
    fn rejects_l_zero() {
        let _ = ProtocolC::new(4, 1, 0, 0u64, DEFAULT);
    }

    #[test]
    fn halting_variant_starves_a_slow_process() {
        // The §5 ablation: identical configuration to
        // `continues_echoing_after_deciding`, but processes halt at their
        // decision. The frozen process can no longer assemble a quorum —
        // the naive terminating variant loses liveness.
        use kset_sim::{DelayRule, Until};
        let others: Vec<usize> = (0..5).collect();
        let run = |halting: bool| {
            MpSystem::new(6)
                .seed(3)
                .delay_rule(DelayRule::freeze_process(
                    5,
                    Until::AllDecided(others.clone()),
                ))
                .run_with(|_| -> DynMpProcess<CMsg<u64>, u64> {
                    let p = ProtocolC::new(6, 1, 1, 2u64, DEFAULT);
                    Box::new(if halting { p.with_halting() } else { p })
                })
                .unwrap()
        };
        let helping = run(false);
        assert!(helping.terminated);
        assert_eq!(helping.decisions.len(), 6);

        let halting = run(true);
        assert!(
            !halting.terminated,
            "halting must starve the frozen process"
        );
        assert!(!halting.decisions.contains_key(&5));

        // Without the freeze both variants terminate, also at a larger n.
        for halting in [false, true] {
            let outcome = MpSystem::new(24)
                .seed(1)
                .run_with(|p| -> DynMpProcess<CMsg<u64>, u64> {
                    let proto = ProtocolC::new(24, 2, 1, p as u64 % 2, DEFAULT);
                    Box::new(if halting { proto.with_halting() } else { proto })
                })
                .unwrap();
            assert!(outcome.terminated, "halting = {halting}");
        }
    }
}
