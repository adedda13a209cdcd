//! EMULATION: run a shared-memory protocol over message passing, with
//! registers emulated by majority replication — the reverse of the
//! SIMULATION transform, and the construction behind the paper's remark
//! that its shared-memory model "is motivated by many recent middleware
//! systems that provide shared memory emulation using replication".
//!
//! The emulation is the classic ABD algorithm of Attiya, Bar-Noy & Dolev
//! (the paper's reference [4]), specialized to SWMR registers:
//!
//! * every process keeps a replica `(timestamp, value)` of every register;
//! * **write** (only by the owner): bump the register's timestamp, send
//!   `Store` to everyone, complete after `n - t` acks;
//! * **read**: query everyone, take the highest-timestamped of `n - t`
//!   replies, *write it back* (`Store` again) and complete after `n - t`
//!   write-back acks — the write-back is what makes reads atomic rather
//!   than merely regular.
//!
//! [`Emulated`] is correct for crash failures with `t < n/2` (two quorums
//! of `n - t` intersect in a correct process). This is strictly weaker
//! than native shared memory — Protocol E over ABD needs `t < n/2`, while
//! over real registers it tolerates any `t` — which is exactly the
//! paper's point about the models' relative power.
//!
//! [`ByzEmulated`] is the Byzantine-tolerant counterpart using
//! Malkhi–Reiter **masking quorums** (`n > 4t`), providing regular
//! registers against lying replicas — the construction behind the
//! Phalanx-style middleware the paper cites as motivation for its
//! shared-memory Byzantine model.

use std::collections::{BTreeMap, VecDeque};

use kset_core::Value;
use kset_net::{DynMpProcess, MpContext, MpProcess};
use kset_shmem::{RawSmAction, RegisterId, SmContext, SmProcess};
use kset_sim::ProcessId;

use crate::check_params;

/// A timestamped register replica.
type Stamped<V> = (u64, V);

/// Wire messages of the ABD register emulation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AbdMsg<V> {
    /// Store `value` for `reg` at `ts` (a write, or a read's write-back);
    /// `tag` identifies the requester's pending operation.
    Store {
        /// Register being stored.
        reg: RegisterId,
        /// Writer-assigned timestamp.
        ts: u64,
        /// The value.
        value: V,
        /// Operation tag for the ack.
        tag: u64,
    },
    /// Acknowledges a `Store`.
    StoreAck {
        /// Echoed operation tag.
        tag: u64,
    },
    /// Asks for the replica of `reg`.
    Query {
        /// Register being queried.
        reg: RegisterId,
        /// Operation tag for the reply.
        tag: u64,
    },
    /// Replies with the local replica (or `None` if never stored).
    QueryReply {
        /// Echoed operation tag.
        tag: u64,
        /// The replier's replica of the register.
        latest: Option<(u64, V)>,
    },
}

/// A pending emulated operation.
#[derive(Clone, Debug)]
enum Op<V> {
    /// Owner write: counting store acks; completes into `on_write_ack`.
    Write { slot: usize, acks: usize },
    /// Read phase 1: collecting query replies.
    ReadQuery {
        reg: RegisterId,
        replies: usize,
        best: Option<Stamped<V>>,
    },
    /// Read phase 2: counting write-back acks; completes into `on_read`.
    ReadWriteBack {
        reg: RegisterId,
        result: Option<Stamped<V>>,
        acks: usize,
    },
}

/// Message-passing wrapper executing a shared-memory protocol over
/// ABD-emulated registers.
pub struct Emulated<P: SmProcess> {
    inner: P,
    n: usize,
    t: usize,
    me: Option<ProcessId>,
    /// Local replicas of all registers.
    replicas: BTreeMap<RegisterId, Stamped<P::Val>>,
    /// Own write timestamps per slot.
    write_ts: BTreeMap<usize, u64>,
    /// In-flight operations by tag (at most one, plus its write-back).
    ops: BTreeMap<u64, Op<P::Val>>,
    /// Register operations waiting their turn: the emulation executes one
    /// operation at a time per process, in issue order. ABD's atomicity
    /// argument — and Protocol E's "my write completes before my scan" —
    /// presumes sequential processes; pipelining would let a read
    /// linearize before the write issued just before it.
    queue: VecDeque<RawSmAction<P::Val, P::Output>>,
    busy: bool,
    next_tag: u64,
}

impl<P: SmProcess> std::fmt::Debug for Emulated<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emulated")
            .field("n", &self.n)
            .field("t", &self.t)
            .field("replicas", &self.replicas.len())
            .field("ops_in_flight", &self.ops.len())
            .finish()
    }
}

impl<P: SmProcess> Emulated<P>
where
    P::Val: Value,
{
    /// Wraps `inner` for a system of `n` processes tolerating `t` crashes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `t >= n`, or `2t >= n` — ABD requires a correct
    /// majority; without it the emulation cannot even terminate.
    pub fn new(n: usize, t: usize, inner: P) -> Self {
        check_params(n, t);
        assert!(
            2 * t < n,
            "ABD register emulation requires t < n/2 (got n = {n}, t = {t})"
        );
        Emulated {
            inner,
            n,
            t,
            me: None,
            replicas: BTreeMap::new(),
            write_ts: BTreeMap::new(),
            ops: BTreeMap::new(),
            queue: VecDeque::new(),
            busy: false,
            next_tag: 0,
        }
    }

    /// Boxed form for [`kset_net::MpSystem::run_with`].
    pub fn boxed(n: usize, t: usize, inner: P) -> DynMpProcess<AbdMsg<P::Val>, P::Output>
    where
        P: 'static,
        P::Output: 'static,
    {
        Box::new(Self::new(n, t, inner))
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// Applies a store to the local replica (higher timestamps win; SWMR
    /// makes per-register timestamps totally ordered, so ties are equal
    /// values and harmless).
    fn absorb(&mut self, reg: RegisterId, ts: u64, value: P::Val) {
        match self.replicas.get(&reg) {
            Some((have, _)) if *have >= ts => {}
            _ => {
                self.replicas.insert(reg, (ts, value));
            }
        }
    }

    /// Runs an inner-protocol callback and translates its buffered effects
    /// into emulated operations.
    fn drive(
        &mut self,
        ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>,
        f: impl FnOnce(&mut P, &mut SmContext<'_, P::Val, P::Output>),
    ) {
        let me = self.me.expect("drive after start");
        let mut buf: Vec<RawSmAction<P::Val, P::Output>> = Vec::new();
        {
            let mut sm_ctx = SmContext::new(me, self.n, ctx.now(), ctx.has_decided(), &mut buf);
            f(&mut self.inner, &mut sm_ctx);
        }
        for action in buf {
            match action {
                op @ (RawSmAction::Write(..) | RawSmAction::Read(..)) => {
                    self.queue.push_back(op);
                }
                RawSmAction::Decide(v) => ctx.decide(v),
                RawSmAction::ScheduleStep => ctx.schedule_step(),
            }
        }
        self.pump(ctx);
    }

    /// Starts the next queued operation if none is in flight.
    fn pump(&mut self, ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>) {
        if self.busy {
            return;
        }
        let me = self.me.expect("pump after start");
        let Some(op) = self.queue.pop_front() else {
            return;
        };
        self.busy = true;
        match op {
            RawSmAction::Write(slot, value) => {
                let ts = self.write_ts.entry(slot).or_insert(0);
                *ts += 1;
                let ts = *ts;
                let reg = RegisterId::new(me, slot);
                let tag = self.next_tag;
                self.next_tag += 1;
                self.ops.insert(tag, Op::Write { slot, acks: 0 });
                // The owner is its own replica too; its self-store is
                // counted through the broadcast like everyone else's.
                ctx.broadcast(AbdMsg::Store {
                    reg,
                    ts,
                    value,
                    tag,
                });
            }
            RawSmAction::Read(reg) => {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.ops.insert(
                    tag,
                    Op::ReadQuery {
                        reg,
                        replies: 0,
                        best: None,
                    },
                );
                ctx.broadcast(AbdMsg::Query { reg, tag });
            }
            _ => unreachable!("only register ops are queued"),
        }
    }

    fn on_store_ack(&mut self, tag: u64, ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>) {
        let quorum = self.quorum();
        let completed = match self.ops.get_mut(&tag) {
            Some(Op::Write { acks, .. }) | Some(Op::ReadWriteBack { acks, .. }) => {
                *acks += 1;
                *acks >= quorum
            }
            _ => false,
        };
        if !completed {
            return;
        }
        match self.ops.remove(&tag) {
            Some(Op::Write { slot, .. }) => {
                self.busy = false;
                self.drive(ctx, |p, sm_ctx| p.on_write_ack(slot, sm_ctx));
            }
            Some(Op::ReadWriteBack { reg, result, .. }) => {
                self.busy = false;
                let value = result.map(|(_, v)| v);
                self.drive(ctx, |p, sm_ctx| p.on_read(reg, value, sm_ctx));
            }
            _ => unreachable!("completion checked above"),
        }
    }

    fn on_query_reply(
        &mut self,
        tag: u64,
        latest: Option<Stamped<P::Val>>,
        ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>,
    ) {
        let quorum = self.quorum();
        let Some(Op::ReadQuery { replies, best, .. }) = self.ops.get_mut(&tag) else {
            return;
        };
        *replies += 1;
        if let Some((ts, v)) = latest {
            match best {
                Some((have, _)) if *have >= ts => {}
                _ => *best = Some((ts, v)),
            }
        }
        if *replies < quorum {
            return;
        }
        let Some(Op::ReadQuery { reg, best, .. }) = self.ops.remove(&tag) else {
            unreachable!("matched above");
        };
        match best {
            Some((ts, value)) => {
                // Phase 2: write back before reporting, for atomicity.
                let wb_tag = self.next_tag;
                self.next_tag += 1;
                self.ops.insert(
                    wb_tag,
                    Op::ReadWriteBack {
                        reg,
                        result: Some((ts, value.clone())),
                        acks: 0,
                    },
                );
                ctx.broadcast(AbdMsg::Store {
                    reg,
                    ts,
                    value,
                    tag: wb_tag,
                });
            }
            None => {
                // Nothing written anywhere yet: report ⊥ immediately (an
                // unwritten register needs no write-back).
                self.busy = false;
                self.drive(ctx, |p, sm_ctx| p.on_read(reg, None, sm_ctx));
            }
        }
    }
}

impl<P: SmProcess> MpProcess for Emulated<P>
where
    P::Val: Value,
{
    type Msg = AbdMsg<P::Val>;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>) {
        self.me = Some(ctx.me());
        self.drive(ctx, |p, sm_ctx| p.on_start(sm_ctx));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: AbdMsg<P::Val>,
        ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>,
    ) {
        match msg {
            AbdMsg::Store {
                reg,
                ts,
                value,
                tag,
            } => {
                // Single-writer enforcement at the replica: only the
                // register's owner may originate a store with a fresh
                // timestamp; write-backs relay the owner's value, so any
                // (reg, ts) pair is owner-authenticated in the crash model.
                self.absorb(reg, ts, value);
                ctx.send(from, AbdMsg::StoreAck { tag });
            }
            AbdMsg::StoreAck { tag } => self.on_store_ack(tag, ctx),
            AbdMsg::Query { reg, tag } => {
                let latest = self.replicas.get(&reg).cloned();
                ctx.send(from, AbdMsg::QueryReply { tag, latest });
            }
            AbdMsg::QueryReply { tag, latest } => self.on_query_reply(tag, latest, ctx),
        }
    }

    fn on_step(&mut self, ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>) {
        self.drive(ctx, |p, sm_ctx| p.on_step(sm_ctx));
    }
}

/// Byzantine-tolerant register emulation with **masking quorums**
/// (Malkhi–Reiter; the Phalanx middleware line the paper's §4 motivation
/// points to), giving *regular* SWMR registers over message passing with
/// up to `t` Byzantine processes, for `n > 4t`.
///
/// Differences from the crash-tolerant [`Emulated`]:
///
/// * quorums have size `⌈(n + 2t + 1) / 2⌉`, so any two intersect in at
///   least `2t + 1` processes — `t + 1` of them correct;
/// * replicas accept a `Store` for register `r` **only from `r`'s owner**
///   (sender identities are unforgeable in the model), so a Byzantine
///   process can still only corrupt its own registers;
/// * reads return the highest-timestamped value *vouched by at least
///   `t + 1` distinct repliers* — fewer vouchers could all be liars;
/// * there is **no write-back**: a Byzantine reader must not be able to
///   inject state, which costs atomicity. The emulation provides regular
///   registers — enough for the one-shot scans of Protocols E and F,
///   whose writers write once before any correct scan completes.
pub struct ByzEmulated<P: SmProcess> {
    inner: P,
    n: usize,
    t: usize,
    me: Option<ProcessId>,
    replicas: BTreeMap<RegisterId, Stamped<P::Val>>,
    write_ts: BTreeMap<usize, u64>,
    ops: BTreeMap<u64, ByzOp<P::Val>>,
    queue: VecDeque<RawSmAction<P::Val, P::Output>>,
    busy: bool,
    next_tag: u64,
}

/// A pending masking-quorum operation.
///
/// All counting is by *distinct sender*: a Byzantine replica that repeats
/// an ack or a reply must not be able to vote twice (two liars repeating
/// themselves could otherwise fake the `t + 1` vouchers a forged value
/// needs).
#[derive(Clone, Debug)]
enum ByzOp<V> {
    Write {
        slot: usize,
        acked: std::collections::BTreeSet<ProcessId>,
    },
    Read {
        reg: RegisterId,
        repliers: std::collections::BTreeSet<ProcessId>,
        /// Vouching senders per reported replica value.
        votes: Vec<(Stamped<V>, std::collections::BTreeSet<ProcessId>)>,
    },
}

impl<P: SmProcess> std::fmt::Debug for ByzEmulated<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzEmulated")
            .field("n", &self.n)
            .field("t", &self.t)
            .field("ops_in_flight", &self.ops.len())
            .finish()
    }
}

impl<P: SmProcess> ByzEmulated<P>
where
    P::Val: Value,
{
    /// Wraps `inner` for a system of `n` processes tolerating `t`
    /// Byzantine failures.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `t >= n`, or `n <= 4t` (masking quorums need
    /// `n > 4t`).
    pub fn new(n: usize, t: usize, inner: P) -> Self {
        check_params(n, t);
        assert!(
            n > 4 * t,
            "masking-quorum emulation requires n > 4t (got n = {n}, t = {t})"
        );
        ByzEmulated {
            inner,
            n,
            t,
            me: None,
            replicas: BTreeMap::new(),
            write_ts: BTreeMap::new(),
            ops: BTreeMap::new(),
            queue: VecDeque::new(),
            busy: false,
            next_tag: 0,
        }
    }

    /// Boxed form for [`kset_net::MpSystem::run_with`].
    pub fn boxed(n: usize, t: usize, inner: P) -> DynMpProcess<AbdMsg<P::Val>, P::Output>
    where
        P: 'static,
        P::Output: 'static,
    {
        Box::new(Self::new(n, t, inner))
    }

    /// Masking quorum size: `⌈(n + 2t + 1) / 2⌉`.
    fn quorum(&self) -> usize {
        (self.n + 2 * self.t).div_ceil(2)
    }

    fn drive(
        &mut self,
        ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>,
        f: impl FnOnce(&mut P, &mut SmContext<'_, P::Val, P::Output>),
    ) {
        let me = self.me.expect("drive after start");
        let mut buf: Vec<RawSmAction<P::Val, P::Output>> = Vec::new();
        {
            let mut sm_ctx = SmContext::new(me, self.n, ctx.now(), ctx.has_decided(), &mut buf);
            f(&mut self.inner, &mut sm_ctx);
        }
        for action in buf {
            match action {
                op @ (RawSmAction::Write(..) | RawSmAction::Read(..)) => {
                    self.queue.push_back(op);
                }
                RawSmAction::Decide(v) => ctx.decide(v),
                RawSmAction::ScheduleStep => ctx.schedule_step(),
            }
        }
        self.pump(ctx);
    }

    fn pump(&mut self, ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>) {
        if self.busy {
            return;
        }
        let me = self.me.expect("pump after start");
        let Some(op) = self.queue.pop_front() else {
            return;
        };
        self.busy = true;
        match op {
            RawSmAction::Write(slot, value) => {
                let ts = self.write_ts.entry(slot).or_insert(0);
                *ts += 1;
                let ts = *ts;
                let tag = self.next_tag;
                self.next_tag += 1;
                self.ops.insert(
                    tag,
                    ByzOp::Write {
                        slot,
                        acked: Default::default(),
                    },
                );
                ctx.broadcast(AbdMsg::Store {
                    reg: RegisterId::new(me, slot),
                    ts,
                    value,
                    tag,
                });
            }
            RawSmAction::Read(reg) => {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.ops.insert(
                    tag,
                    ByzOp::Read {
                        reg,
                        repliers: Default::default(),
                        votes: Vec::new(),
                    },
                );
                ctx.broadcast(AbdMsg::Query { reg, tag });
            }
            _ => unreachable!("only register ops are queued"),
        }
    }
}

impl<P: SmProcess> MpProcess for ByzEmulated<P>
where
    P::Val: Value,
{
    type Msg = AbdMsg<P::Val>;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>) {
        self.me = Some(ctx.me());
        self.drive(ctx, |p, sm_ctx| p.on_start(sm_ctx));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: AbdMsg<P::Val>,
        ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>,
    ) {
        match msg {
            AbdMsg::Store {
                reg,
                ts,
                value,
                tag,
            } => {
                // Only the register's owner may store into it; the network
                // does not forge senders, so this enforces SWMR integrity
                // against Byzantine writers.
                if reg.owner == from {
                    match self.replicas.get(&reg) {
                        Some((have, _)) if *have >= ts => {}
                        _ => {
                            self.replicas.insert(reg, (ts, value));
                        }
                    }
                    ctx.send(from, AbdMsg::StoreAck { tag });
                }
            }
            AbdMsg::StoreAck { tag } => {
                let quorum = self.quorum();
                let done = match self.ops.get_mut(&tag) {
                    Some(ByzOp::Write { acked, .. }) => {
                        acked.insert(from);
                        acked.len() >= quorum
                    }
                    _ => false,
                };
                if done {
                    let Some(ByzOp::Write { slot, .. }) = self.ops.remove(&tag) else {
                        unreachable!("matched above");
                    };
                    self.busy = false;
                    self.drive(ctx, |p, sm_ctx| p.on_write_ack(slot, sm_ctx));
                }
            }
            AbdMsg::Query { reg, tag } => {
                let latest = self.replicas.get(&reg).cloned();
                ctx.send(from, AbdMsg::QueryReply { tag, latest });
            }
            AbdMsg::QueryReply { tag, latest } => {
                let quorum = self.quorum();
                let t = self.t;
                let Some(ByzOp::Read {
                    repliers, votes, ..
                }) = self.ops.get_mut(&tag)
                else {
                    return;
                };
                if !repliers.insert(from) {
                    return; // duplicate reply from the same (faulty) sender
                }
                if let Some(stamped) = latest {
                    if let Some(entry) = votes.iter_mut().find(|(s, _)| *s == stamped) {
                        entry.1.insert(from);
                    } else {
                        let mut voters = std::collections::BTreeSet::new();
                        voters.insert(from);
                        votes.push((stamped, voters));
                    }
                }
                if repliers.len() < quorum {
                    return;
                }
                let Some(ByzOp::Read { reg, votes, .. }) = self.ops.remove(&tag) else {
                    unreachable!("matched above");
                };
                // Highest-timestamped value vouched by > t distinct
                // repliers; fewer vouchers could all be Byzantine.
                let result = votes
                    .into_iter()
                    .filter(|(_, voters)| voters.len() > t)
                    .max_by_key(|((ts, _), _)| *ts)
                    .map(|((_, v), _)| v);
                self.busy = false;
                self.drive(ctx, |p, sm_ctx| p.on_read(reg, result, sm_ctx));
            }
        }
    }

    fn on_step(&mut self, ctx: &mut MpContext<'_, AbdMsg<P::Val>, P::Output>) {
        self.drive(ctx, |p, sm_ctx| p.on_step(sm_ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtocolE, ProtocolF};
    use kset_core::{ProblemSpec, RunRecord, ValidityCondition};
    use kset_net::MpSystem;
    use kset_sim::FaultPlan;

    const DEFAULT: u64 = u64::MAX;

    #[test]
    fn emulated_protocol_e_decides_unanimous_value() {
        // Protocol E over ABD: n = 5, t = 2 (< n/2).
        for seed in 0..15 {
            let outcome = MpSystem::new(5)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(5, &[1, 3]))
                .run_with(|_| Emulated::boxed(5, 2, ProtocolE::new(5, 2, 7u64, DEFAULT)))
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert_eq!(outcome.correct_decision_set(), vec![7], "seed {seed}");
        }
    }

    #[test]
    fn emulated_protocol_e_meets_rv2_with_mixed_inputs() {
        for seed in 0..15 {
            let inputs: Vec<u64> = (0..5).map(|p| p as u64 % 2).collect();
            let outcome = MpSystem::new(5)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(5, &[4]))
                .run_with(|p| Emulated::boxed(5, 2, ProtocolE::new(5, 2, inputs[p], DEFAULT)))
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            let spec = ProblemSpec::new(5, 2, 2, ValidityCondition::RV2).unwrap();
            let record = RunRecord::new(inputs)
                .with_faulty(outcome.faulty.iter().copied())
                .with_decisions(outcome.decisions.clone())
                .with_terminated(outcome.terminated);
            let report = spec.check(&record);
            assert!(report.is_ok(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn emulated_protocol_f_meets_sv2() {
        // n = 7, t = 2, k = 4 > t + 1.
        for seed in 0..10 {
            let inputs: Vec<u64> = vec![9; 7];
            let outcome = MpSystem::new(7)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(7, &[0, 6]))
                .run_with(|p| Emulated::boxed(7, 2, ProtocolF::new(7, 2, inputs[p], DEFAULT)))
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert_eq!(outcome.correct_decision_set(), vec![9], "seed {seed}");
        }
    }

    #[test]
    fn crash_mid_write_still_lets_readers_converge() {
        use kset_sim::FaultSpec;
        // The writer crashes after storing on a sub-quorum of replicas; the
        // read write-back completes the broken write, so two sequential
        // readers can never see it flicker. We run many seeds and assert
        // the protocol-level property (at most {v, default} decided).
        for seed in 0..20 {
            let mut plan = FaultPlan::all_correct(5);
            plan.set(
                0,
                FaultSpec::Crash {
                    after_actions: 4 + seed % 4,
                },
            );
            let inputs = [1u64, 2, 2, 2, 2];
            let outcome = MpSystem::new(5)
                .seed(seed)
                .fault_plan(plan)
                .run_with(|p| Emulated::boxed(5, 2, ProtocolE::new(5, 2, inputs[p], DEFAULT)))
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert!(
                outcome.correct_decision_set().len() <= 2,
                "seed {seed}: {:?}",
                outcome.correct_decision_set()
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires t < n/2")]
    fn rejects_majority_fault_budgets() {
        let _ = Emulated::new(4, 2, ProtocolE::new(4, 2, 0u64, DEFAULT));
    }

    /// A Byzantine replica that answers every query with a forged
    /// max-timestamp value and stays silent otherwise.
    struct LyingReplica;
    impl MpProcess for LyingReplica {
        type Msg = AbdMsg<u64>;
        type Output = u64;
        fn on_start(&mut self, _ctx: &mut MpContext<'_, AbdMsg<u64>, u64>) {}
        fn on_message(
            &mut self,
            from: ProcessId,
            msg: AbdMsg<u64>,
            ctx: &mut MpContext<'_, AbdMsg<u64>, u64>,
        ) {
            if let AbdMsg::Query { tag, .. } = msg {
                ctx.send(
                    from,
                    AbdMsg::QueryReply {
                        tag,
                        latest: Some((u64::MAX, 666)),
                    },
                );
            }
        }
    }

    #[test]
    fn byz_emulated_protocol_e_survives_a_lying_replica() {
        // n = 9, t = 2 (n > 4t): two lying replicas cannot muster the
        // t + 1 = 3 vouchers a forged value needs.
        for seed in 0..10 {
            let outcome = MpSystem::new(9)
                .seed(seed)
                .fault_plan(FaultPlan::byzantine(9, &[0, 8]))
                .run_with(|p| -> kset_net::DynMpProcess<AbdMsg<u64>, u64> {
                    if p == 0 || p == 8 {
                        Box::new(LyingReplica)
                    } else {
                        ByzEmulated::boxed(9, 2, ProtocolE::new(9, 2, 5u64, DEFAULT))
                    }
                })
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            // All correct share 5; the forged 666 must never be decided,
            // and Protocol E's two-value bound holds.
            let set = outcome.correct_decision_set();
            assert!(!set.contains(&666), "seed {seed}: {set:?}");
            assert!(set.len() <= 2, "seed {seed}: {set:?}");
            assert!(set.contains(&5) || set.contains(&DEFAULT), "seed {seed}");
        }
    }

    #[test]
    fn byz_emulated_protocol_f_holds_sv2_against_liars() {
        // n = 9, t = 2, k = 4 > t + 1: SV2 forces the unanimous value.
        for seed in 0..10 {
            let outcome = MpSystem::new(9)
                .seed(seed)
                .fault_plan(FaultPlan::byzantine(9, &[4]))
                .run_with(|p| -> kset_net::DynMpProcess<AbdMsg<u64>, u64> {
                    if p == 4 {
                        Box::new(LyingReplica)
                    } else {
                        ByzEmulated::boxed(9, 2, ProtocolF::new(9, 2, 7u64, DEFAULT))
                    }
                })
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            assert_eq!(outcome.correct_decision_set(), vec![7], "seed {seed}");
        }
    }

    /// A replica that replies to every query *twice* with a forged
    /// max-timestamp value — the duplicate-vote attack. Sender
    /// deduplication must keep its effective vouch count at one.
    struct DoubleVoter;
    impl MpProcess for DoubleVoter {
        type Msg = AbdMsg<u64>;
        type Output = u64;
        fn on_start(&mut self, _ctx: &mut MpContext<'_, AbdMsg<u64>, u64>) {}
        fn on_message(
            &mut self,
            from: ProcessId,
            msg: AbdMsg<u64>,
            ctx: &mut MpContext<'_, AbdMsg<u64>, u64>,
        ) {
            if let AbdMsg::Query { tag, .. } = msg {
                for _ in 0..2 {
                    ctx.send(
                        from,
                        AbdMsg::QueryReply {
                            tag,
                            latest: Some((u64::MAX, 666)),
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_votes_from_one_liar_do_not_forge_a_value() {
        // n = 5, t = 1: a forged value needs t + 1 = 2 DISTINCT vouchers.
        // One replica voting twice must not reach that bar.
        for seed in 0..15 {
            let outcome = MpSystem::new(5)
                .seed(seed)
                .fault_plan(FaultPlan::byzantine(5, &[2]))
                .run_with(|p| -> kset_net::DynMpProcess<AbdMsg<u64>, u64> {
                    if p == 2 {
                        Box::new(DoubleVoter)
                    } else {
                        ByzEmulated::boxed(5, 1, ProtocolE::new(5, 1, 3u64, DEFAULT))
                    }
                })
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
            let set = outcome.correct_decision_set();
            assert!(
                !set.contains(&666),
                "seed {seed}: forged value decided {set:?}"
            );
        }
    }

    #[test]
    fn byz_emulated_works_cleanly_without_failures() {
        let outcome = MpSystem::new(5)
            .seed(3)
            .run_with(|_| ByzEmulated::boxed(5, 1, ProtocolE::new(5, 1, 2u64, DEFAULT)))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.correct_decision_set(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "requires n > 4t")]
    fn byz_emulated_rejects_tight_populations() {
        let _ = ByzEmulated::new(8, 2, ProtocolE::new(8, 2, 0u64, DEFAULT));
    }
}
