//! SIMULATION (paper §4): compile any message-passing protocol into a
//! shared-memory protocol.
//!
//! > Whenever protocol X prescribes that `p` send its `i`th message `m` to
//! > process `q`, `p` writes `m` to a single-writer single-reader register
//! > designated for `p`'s `i`th message to `q`; `q` repeatedly reads the
//! > register until it reads a value there.
//!
//! [`Simulated<P>`] wraps an [`MpProcess`] `P` and implements
//! [`SmProcess`]: each send by the inner protocol becomes a write to the
//! next register in the per-recipient channel `(p → q)`, and every process
//! continuously polls the head of each incoming channel, delivering values
//! as they appear. Registers are single-writer by construction (each
//! process writes only its own), and the designated-reader discipline is
//! preserved because `slot = seq * n + recipient` partitions each writer's
//! register space by recipient.
//!
//! Polling is the honest price of the transformation — the paper's `q`
//! "repeatedly reads the register until it reads a value there". A read
//! that comes back `⊥` is simply reissued; the kernel's schedulers
//! guarantee the pending write fires eventually. Polling continues after
//! the inner protocol decides so that echo-style protocols keep helping
//! slower processes, exactly as the paper's §5 termination remark
//! describes.
//!
//! This is the transform behind Lemmas 4.4 (FloodMin), 4.6 (Protocol B),
//! 4.11 (Protocol C(l)) and 4.13 (Protocol D).

use kset_core::Value;
use kset_net::{MpContext, MpProcess, RawAction};
use kset_shmem::{DynSmProcess, RegisterId, SmContext, SmProcess};
use kset_sim::ProcessId;

/// One simulated channel message, as stored in a register.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SimSlot<M> {
    /// The designated reader of this register.
    pub to: ProcessId,
    /// The message.
    pub msg: M,
}

/// Shared-memory wrapper executing a message-passing protocol via the
/// SIMULATION transform.
pub struct Simulated<P: MpProcess> {
    inner: P,
    n: usize,
    /// Per-recipient outgoing sequence numbers: `next_seq[q]` is the index
    /// of our next message to `q` ("p's i-th message to q").
    next_seq: Vec<usize>,
    /// Per-sender incoming cursor: the sequence number we poll next.
    cursors: Vec<usize>,
    /// Our process id, learned at `on_start`.
    me: Option<ProcessId>,
}

impl<P: MpProcess> std::fmt::Debug for Simulated<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulated")
            .field("n", &self.n)
            .field("next_seq", &self.next_seq)
            .field("cursors", &self.cursors)
            .finish()
    }
}

impl<P: MpProcess> Simulated<P> {
    /// Wraps `inner` for a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, inner: P) -> Self {
        assert!(n > 0, "n must be positive");
        Simulated {
            inner,
            n,
            next_seq: vec![0; n],
            cursors: vec![0; n],
            me: None,
        }
    }

    /// Boxed form for [`kset_shmem::SmSystem::run_with`].
    pub fn boxed(n: usize, inner: P) -> DynSmProcess<SimSlot<P::Msg>, P::Output>
    where
        P: 'static,
        P::Msg: Value,
        P::Output: 'static,
    {
        Box::new(Self::new(n, inner))
    }

    /// The register of `sender`'s message with sequence number `seq`
    /// designated for `recipient`.
    fn slot_for(&self, recipient: ProcessId, seq: usize) -> usize {
        seq * self.n + recipient
    }

    /// Polls the head register of the channel `sender -> me`.
    fn poll(&self, sender: ProcessId, ctx: &mut SmContext<'_, SimSlot<P::Msg>, P::Output>)
    where
        P::Msg: Clone,
    {
        let me = self.me.expect("poll after start");
        let slot = self.slot_for(me, self.cursors[sender]);
        ctx.read(RegisterId::new(sender, slot));
    }

    /// Runs an inner-protocol callback, translating its buffered effects
    /// into register writes / decisions.
    fn drive(
        &mut self,
        ctx: &mut SmContext<'_, SimSlot<P::Msg>, P::Output>,
        f: impl FnOnce(&mut P, &mut MpContext<'_, P::Msg, P::Output>),
    ) where
        P::Msg: Clone,
    {
        let me = self.me.expect("drive after start");
        let mut buf = Vec::new();
        {
            let mut mp_ctx = MpContext::new(me, self.n, ctx.now(), ctx.has_decided(), &mut buf);
            f(&mut self.inner, &mut mp_ctx);
        }
        for action in buf {
            match action {
                RawAction::Send(to, msg) => {
                    let slot = self.slot_for(to, self.next_seq[to]);
                    self.next_seq[to] += 1;
                    ctx.write(slot, SimSlot { to, msg });
                }
                RawAction::Decide(v) => ctx.decide(v),
                RawAction::ScheduleStep => ctx.schedule_step(),
            }
        }
    }
}

impl<P: MpProcess> SmProcess for Simulated<P>
where
    P::Msg: Value,
{
    type Val = SimSlot<P::Msg>;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut SmContext<'_, SimSlot<P::Msg>, P::Output>) {
        self.me = Some(ctx.me());
        self.drive(ctx, |p, mp_ctx| p.on_start(mp_ctx));
        // Open a poll on every incoming channel (including self-sends).
        for sender in 0..self.n {
            self.poll(sender, ctx);
        }
    }

    fn on_read(
        &mut self,
        reg: RegisterId,
        value: Option<SimSlot<P::Msg>>,
        ctx: &mut SmContext<'_, SimSlot<P::Msg>, P::Output>,
    ) {
        let me = self.me.expect("read response before start");
        let sender = reg.owner;
        let expected = self.slot_for(me, self.cursors[sender]);
        if reg.slot != expected {
            // A response from an outdated poll (cursor already advanced by
            // a racing read of the same register): ignore it, the live
            // poll is still in flight.
            return;
        }
        match value {
            Some(slot_value) => {
                // The writer labelled this register with its designated
                // reader; the labelling is part of the register layout, so
                // a mismatch can only come from a Byzantine writer abusing
                // its own register space — drop it and move on.
                self.cursors[sender] += 1;
                if slot_value.to == me {
                    self.drive(ctx, |p, mp_ctx| {
                        p.on_message(sender, slot_value.msg, mp_ctx)
                    });
                }
                self.poll(sender, ctx);
            }
            None => {
                // Not written yet: poll again (the paper's "repeatedly
                // reads the register until it reads a value there").
                self.poll(sender, ctx);
            }
        }
    }

    fn on_step(&mut self, ctx: &mut SmContext<'_, SimSlot<P::Msg>, P::Output>) {
        self.drive(ctx, |p, mp_ctx| p.on_step(mp_ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FloodMin, ProtocolA, ProtocolB};
    use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
    use kset_shmem::SmSystem;
    use kset_sim::FaultPlan;

    const DEFAULT: u64 = u64::MAX;

    #[test]
    fn simulated_floodmin_solves_rv1_in_shared_memory() {
        // Lemma 4.4: SIMULATION of Chaudhuri's protocol, SC(k, t<k, RV1).
        let (n, t, k) = (5, 2, 3);
        for seed in 0..10 {
            let inputs: Vec<u64> = (0..n).map(|p| 100 + p as u64).collect();
            let outcome = SmSystem::new(n)
                .seed(seed)
                .event_limit(5_000_000)
                .fault_plan(FaultPlan::silent_crashes(n, &[1, 3]))
                .run_with(|p| Simulated::boxed(n, FloodMin::new(n, t, inputs[p])))
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            let spec = ProblemSpec::new(n, k, t, ValidityCondition::RV1).unwrap();
            let record = RunRecord::new(inputs)
                .with_faulty(outcome.faulty.iter().copied())
                .with_decisions(outcome.decisions.clone())
                .with_terminated(outcome.terminated);
            let report = spec.check(&record);
            assert!(report.is_ok(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn simulated_protocol_a_matches_its_mp_guarantees() {
        // Lemma 4.5 uses Protocol E natively, but SIM(A) also gives RV2
        // within A's bound. n = 4, t = 1, k = 2: 2*1 < 1*4.
        for seed in 0..10 {
            let inputs = [3u64, 3, 3, 9];
            let outcome = SmSystem::new(4)
                .seed(seed)
                .event_limit(5_000_000)
                .fault_plan(FaultPlan::silent_crashes(4, &[3]))
                .run_with(|p| Simulated::boxed(4, ProtocolA::new(4, 1, inputs[p], DEFAULT)))
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert_eq!(outcome.correct_decision_set(), vec![3], "seed {seed}");
        }
    }

    #[test]
    fn simulated_protocol_b_gives_sv2_in_shared_memory() {
        // Lemma 4.6: SIMULATION of Protocol B. n = 8, t = 1, k = 2.
        for seed in 0..8 {
            let inputs = [5u64; 8];
            let outcome = SmSystem::new(8)
                .seed(seed)
                .event_limit(5_000_000)
                .fault_plan(FaultPlan::silent_crashes(8, &[0]))
                .run_with(|p| Simulated::boxed(8, ProtocolB::new(8, 1, inputs[p], DEFAULT)))
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert_eq!(outcome.correct_decision_set(), vec![5], "seed {seed}");
        }
    }

    #[test]
    fn register_layout_partitions_by_recipient() {
        let sim = Simulated::new(4, FloodMin::new(4, 1, 0u64));
        // Writer's slots: seq 0 to recipient 2 -> slot 2; seq 1 to 0 -> 4.
        assert_eq!(sim.slot_for(2, 0), 2);
        assert_eq!(sim.slot_for(0, 1), 4);
        assert_eq!(sim.slot_for(3, 2), 11);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed| {
            SmSystem::new(3)
                .seed(seed)
                .event_limit(5_000_000)
                .run_with(|p| Simulated::boxed(3, FloodMin::new(3, 1, p as u64)))
                .unwrap()
                .into_run()
                .decisions
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn rejects_empty_system() {
        let _ = Simulated::new(0, FloodMin::new(1, 0, 0u64));
    }
}
