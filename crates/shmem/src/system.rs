//! The shared-memory runtime: the [`SmSubstrate`] implementation plus the
//! [`SmSystem`] facade over the substrate-generic [`kset_sim::System`].

use std::marker::PhantomData;

use kset_sim::{
    CallInfo, DelayRule, Effect, EventKind, FaithfulDelivery, FaultPlan, Fnv64, MetricsConfig,
    Poll, ProcessId, Scheduler, Session, SimError, StateDigest, Substrate, SubstrateAdv,
    SubstrateDigest, SubstrateFork, System,
};

use crate::outcome::SmOutcome;
use crate::process::{DynSmProcess, RawSmAction, SmContext, SmProcess};
use crate::register::{Memory, RegisterId};

/// Substrate payloads of the shared-memory model: pending operation
/// responses.
#[derive(Clone, Copy, Debug)]
pub enum SmOp {
    /// Response to a read of the named register (content resolved when the
    /// response fires — its linearization point).
    ReadResp(RegisterId),
    /// Response to a write to the named own-register slot.
    WriteAck(usize),
}

/// The shared-memory substrate: single-writer multi-reader atomic registers.
///
/// Plugged into [`kset_sim::System`], this drives [`crate::SmProcess`]
/// state machines: the run's shared state is the register store
/// ([`Memory`]), a `Write` action linearizes at apply time, and a pending
/// read resolves its value when the response event fires. [`SmSystem`] is
/// the ready-made facade; use `SmSubstrate` directly only in
/// substrate-generic tooling.
pub struct SmSubstrate<Val, Out>(PhantomData<fn() -> (Val, Out)>);

impl<Val, Out> std::fmt::Debug for SmSubstrate<Val, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SmSubstrate")
    }
}

impl<Val: Clone, Out> Substrate for SmSubstrate<Val, Out> {
    type Payload = SmOp;
    type Process = DynSmProcess<Val, Out>;
    type Action = RawSmAction<Val, Out>;
    type Output = Out;
    type Shared = Memory<Val>;

    fn new_shared(_n: usize) -> Self::Shared {
        Memory::new()
    }

    fn on_start(
        proc: &mut Self::Process,
        _shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let mut ctx = SmContext::new(info.me, info.n, info.now, info.decided, out);
        proc.on_start(&mut ctx);
    }

    fn on_step(
        proc: &mut Self::Process,
        _shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let mut ctx = SmContext::new(info.me, info.n, info.now, info.decided, out);
        proc.on_step(&mut ctx);
    }

    fn on_payload(
        proc: &mut Self::Process,
        op: SmOp,
        _source: Option<ProcessId>,
        shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let mut ctx = SmContext::new(info.me, info.n, info.now, info.decided, out);
        match op {
            SmOp::ReadResp(reg) => {
                // Linearization point of the read: right now.
                let value = shared.read(reg);
                proc.on_read(reg, value, &mut ctx)
            }
            SmOp::WriteAck(slot) => proc.on_write_ack(slot, &mut ctx),
        }
    }

    fn apply(
        action: Self::Action,
        me: ProcessId,
        _n: usize,
        shared: &mut Self::Shared,
    ) -> Result<Effect<SmOp, Out>, SimError> {
        Ok(match action {
            RawSmAction::Read(reg) => Effect::Post {
                kind: EventKind::OpResponse,
                target: me,
                source: reg.owner,
                payload: SmOp::ReadResp(reg),
            },
            RawSmAction::Write(slot, value) => {
                // Linearization point of the write: right now.
                shared.write(RegisterId::new(me, slot), value);
                Effect::Post {
                    kind: EventKind::OpResponse,
                    target: me,
                    source: me,
                    payload: SmOp::WriteAck(slot),
                }
            }
            RawSmAction::Decide(v) => Effect::Decide(v),
            RawSmAction::ScheduleStep => Effect::Step,
        })
    }
}

/// Byzantine in-transit corruption for `u64`-valued registers: a forged
/// read response resolves to the adversary's value instead of the register
/// content, at the same linearization point. This models a Byzantine
/// register *owner* presenting inconsistent values to different readers —
/// single-writer registers make the owner the only process whose deviation
/// a read can expose. Write acknowledgements carry no corruptible value and
/// deliver faithfully.
impl<Out> SubstrateAdv for SmSubstrate<u64, Out> {
    fn on_forged(
        proc: &mut Self::Process,
        op: SmOp,
        forged: u64,
        _source: Option<ProcessId>,
        _shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let mut ctx = SmContext::new(info.me, info.n, info.now, info.decided, out);
        match op {
            SmOp::ReadResp(reg) => proc.on_read(reg, Some(forged), &mut ctx),
            SmOp::WriteAck(slot) => proc.on_write_ack(slot, &mut ctx),
        }
    }
}

impl<Val, Out> SubstrateDigest for SmSubstrate<Val, Out>
where
    Val: Clone + StateDigest,
    Out: StateDigest,
{
    fn digest_process(proc: &Self::Process) -> u64 {
        proc.state_digest()
    }

    fn digest_payload(op: &SmOp, h: &mut Fnv64) {
        match op {
            SmOp::ReadResp(reg) => {
                h.write_u8(2);
                h.write_usize(reg.owner);
                h.write_usize(reg.slot);
            }
            SmOp::WriteAck(slot) => {
                h.write_u8(3);
                h.write_usize(*slot);
            }
        }
    }

    fn digest_shared(memory: &Self::Shared, h: &mut Fnv64) {
        // Register store: BTreeMap iteration order is deterministic.
        for (reg, value) in memory.cells() {
            h.write_usize(reg.owner);
            h.write_usize(reg.slot);
            value.digest_into(h);
        }
    }

    fn digest_shared_of(memory: &Self::Shared, owner: ProcessId, h: &mut Fnv64) {
        // The single-writer model partitions the store by owner, so a
        // process's id-free component is its own registers as (slot, value)
        // pairs — the owner id is exactly what the canonical digest strips.
        for (reg, value) in memory.cells_of(owner) {
            h.write_usize(reg.slot);
            value.digest_into(h);
        }
    }

    fn digest_payload_symm(op: &SmOp, h: &mut Fnv64) {
        match op {
            SmOp::ReadResp(reg) => {
                // `reg.owner` is always the event's source process (see
                // `apply`), which the canonical digest re-keys by its
                // id-free component; only the slot stays in the payload.
                h.write_u8(2);
                h.write_usize(reg.slot);
            }
            SmOp::WriteAck(slot) => {
                h.write_u8(3);
                h.write_usize(*slot);
            }
        }
    }
}

impl<Val, Out> SubstrateFork for SmSubstrate<Val, Out>
where
    Val: Clone + StateDigest,
    Out: StateDigest,
{
    fn fork_process(proc: &Self::Process) -> Option<Self::Process> {
        proc.fork()
    }

    fn fork_process_into(src: &Self::Process, dst: &mut Self::Process) -> bool {
        src.fork_into(dst)
    }

    fn fork_shared(shared: &Self::Shared) -> Self::Shared {
        shared.clone()
    }

    fn fork_shared_into(src: &Self::Shared, dst: &mut Self::Shared) {
        dst.clone_from(src);
    }
}

/// Builder/runtime for one run of a shared-memory system.
///
/// A thin facade binding [`kset_sim::System`] to the [`SmSubstrate`],
/// mirroring `kset_net::MpSystem` in configuration style; see the
/// crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct SmSystem(System);

impl SmSystem {
    /// A system of `n` processes, all correct, randomly scheduled (seed 0).
    pub fn new(n: usize) -> Self {
        SmSystem(System::new(n))
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.0.n()
    }

    /// Sets the fault plan (size must equal `n`, checked at run time).
    pub fn fault_plan(self, plan: FaultPlan) -> Self {
        SmSystem(self.0.fault_plan(plan))
    }

    /// Uses an explicit scheduler (adversary).
    pub fn scheduler(self, scheduler: impl Scheduler + 'static) -> Self {
        SmSystem(self.0.scheduler(scheduler))
    }

    /// Shorthand for a [`kset_sim::RandomScheduler`] with the given seed.
    pub fn seed(self, seed: u64) -> Self {
        SmSystem(self.0.seed(seed))
    }

    /// Adds a delay rule.
    pub fn delay_rule(self, rule: DelayRule) -> Self {
        SmSystem(self.0.delay_rule(rule))
    }

    /// Adds several delay rules at once.
    pub fn delay_rules(self, rules: impl IntoIterator<Item = DelayRule>) -> Self {
        SmSystem(self.0.delay_rules(rules))
    }

    /// Overrides the kernel event limit.
    pub fn event_limit(self, limit: u64) -> Self {
        SmSystem(self.0.event_limit(limit))
    }

    /// Enables trace recording with the given capacity.
    pub fn trace_capacity(self, capacity: usize) -> Self {
        SmSystem(self.0.trace_capacity(capacity))
    }

    /// Configures metrics collection; the outcome's
    /// [`metrics`](kset_sim::Outcome::metrics) field is populated when
    /// enabled.
    pub fn metrics(self, config: MetricsConfig) -> Self {
        SmSystem(self.0.metrics(config))
    }

    /// Runs the system, building each process from a factory closure.
    ///
    /// # Errors
    ///
    /// See [`SmSystem::run`].
    pub fn run_with<Val: Clone, Out>(
        self,
        mut factory: impl FnMut(ProcessId) -> DynSmProcess<Val, Out>,
    ) -> Result<SmOutcome<Val, Out>, SimError> {
        let procs = (0..self.0.n()).map(&mut factory).collect();
        self.run(procs)
    }

    /// Runs the system to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] for size mismatches or `n == 0`.
    /// * [`SimError::EventLimitExceeded`] if the protocol livelocks.
    pub fn run<Val: Clone, Out>(
        self,
        procs: Vec<DynSmProcess<Val, Out>>,
    ) -> Result<SmOutcome<Val, Out>, SimError> {
        let mut session = self.session(procs)?;
        while let Poll::Pending = session.step()? {}
        let (run, memory) = session.finish();
        Ok(SmOutcome {
            memory: memory.snapshot(),
            run,
        })
    }

    /// Builds a steppable [`SmSession`] instead of running to completion:
    /// drive it with [`kset_sim::Session::step`] until it reports
    /// [`kset_sim::Poll::Decided`] or [`kset_sim::Poll::Idle`], then
    /// collect the outcome with [`kset_sim::Session::finish`] (the final
    /// register store is the session's shared state).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] as for [`SmSystem::run`]; run-time
    /// errors surface from `step` instead.
    pub fn session<Val: Clone, Out>(
        self,
        procs: Vec<DynSmProcess<Val, Out>>,
    ) -> Result<SmSession<Val, Out>, SimError> {
        self.0
            .session::<SmSubstrate<Val, Out>, FaithfulDelivery>(procs)
    }
}

/// A steppable shared-memory run: [`kset_sim::Session`] bound to the
/// [`SmSubstrate`], as built by [`SmSystem::session`].
pub type SmSession<Val, Out> = Session<SmSubstrate<Val, Out>>;
#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::SmProcess;
    use kset_sim::FaultSpec;

    /// Writes its input to slot 0, scans everyone's slot 0 once, and decides
    /// the smallest value it managed to read.
    struct ScanOnceMin {
        input: u64,
        pending: usize,
        best: Option<u64>,
    }

    impl ScanOnceMin {
        fn boxed(input: u64) -> DynSmProcess<u64, u64> {
            Box::new(ScanOnceMin {
                input,
                pending: 0,
                best: None,
            })
        }
    }

    impl SmProcess for ScanOnceMin {
        type Val = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut SmContext<'_, u64, u64>) {
            ctx.write(0, self.input);
            self.pending = ctx.n();
            ctx.read_all(0);
        }

        fn on_read(
            &mut self,
            _reg: RegisterId,
            value: Option<u64>,
            ctx: &mut SmContext<'_, u64, u64>,
        ) {
            if let Some(v) = value {
                self.best = Some(self.best.map_or(v, |b| b.min(v)));
            }
            self.pending -= 1;
            if self.pending == 0 {
                // Own write precedes the scan, so best is never empty.
                ctx.decide(self.best.expect("scan saw at least own value"));
            }
        }
    }

    #[test]
    fn failure_free_scan_terminates_and_sees_own_write() {
        let outcome = SmSystem::new(4)
            .seed(8)
            .run_with(|p| ScanOnceMin::boxed(100 + p as u64))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.decisions.len(), 4);
        // Every decision is one of the written inputs.
        for v in outcome.decisions.values() {
            assert!((100..104).contains(v));
        }
        // All four registers hold their writers' inputs at the end.
        for p in 0..4 {
            assert_eq!(outcome.memory[&RegisterId::new(p, 0)], 100 + p as u64);
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            SmSystem::new(5)
                .seed(seed)
                .run_with(|p| ScanOnceMin::boxed(p as u64))
                .unwrap()
        };
        assert_eq!(run(3).decisions, run(3).decisions);
    }

    #[test]
    fn silent_crash_leaves_register_unwritten() {
        let outcome = SmSystem::new(3)
            .seed(1)
            .fault_plan(FaultPlan::silent_crashes(3, &[1]))
            .run_with(|p| ScanOnceMin::boxed(p as u64))
            .unwrap();
        assert!(outcome.terminated);
        assert!(!outcome.memory.contains_key(&RegisterId::new(1, 0)));
        assert!(!outcome.decisions.contains_key(&1));
    }

    #[test]
    fn crash_after_write_leaves_value_visible() {
        // Budget 2: start handler (1) + the write invocation (1). The
        // process crashes before issuing its scan, but the write landed.
        let mut plan = FaultPlan::all_correct(3);
        plan.set(0, FaultSpec::Crash { after_actions: 2 });
        let outcome = SmSystem::new(3)
            .seed(2)
            .fault_plan(plan)
            .run_with(|p| ScanOnceMin::boxed(10 + p as u64))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.memory[&RegisterId::new(0, 0)], 10);
        assert!(!outcome.decisions.contains_key(&0));
    }

    #[test]
    fn reads_linearize_at_response_time() {
        use kset_sim::{FifoScheduler, Until};
        // Freeze process 1 until process 0 decided: by the time 1's reads
        // fire, 0's write is visible, so 1 must read 0's value.
        let outcome = SmSystem::new(2)
            .scheduler(FifoScheduler::new())
            .delay_rule(DelayRule::freeze_process(1, Until::AllDecided(vec![0])))
            .run_with(|p| ScanOnceMin::boxed(if p == 0 { 1 } else { 2 }))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.decisions[&1], 1);
    }

    #[test]
    fn sequential_reads_by_one_process_never_go_backwards() {
        /// Writer bumps its register through 0..WRITES; the reader issues
        /// strictly sequential reads (next read only after the previous
        /// response) and asserts the observed values are non-decreasing —
        /// the single-reader face of register atomicity.
        const WRITES: u64 = 8;
        struct Bumper {
            next: u64,
        }
        impl SmProcess for Bumper {
            type Val = u64;
            type Output = u64;
            fn on_start(&mut self, ctx: &mut SmContext<'_, u64, u64>) {
                ctx.write(0, 0);
                self.next = 1;
            }
            fn on_read(
                &mut self,
                _r: RegisterId,
                _v: Option<u64>,
                _c: &mut SmContext<'_, u64, u64>,
            ) {
            }
            fn on_write_ack(&mut self, _s: usize, ctx: &mut SmContext<'_, u64, u64>) {
                if self.next < WRITES {
                    ctx.write(0, self.next);
                    self.next += 1;
                } else {
                    ctx.decide(self.next);
                }
            }
        }
        struct MonotoneReader {
            last: Option<u64>,
            reads_left: u32,
        }
        impl SmProcess for MonotoneReader {
            type Val = u64;
            type Output = u64;
            fn on_start(&mut self, ctx: &mut SmContext<'_, u64, u64>) {
                ctx.read(RegisterId::new(0, 0));
            }
            fn on_read(
                &mut self,
                reg: RegisterId,
                v: Option<u64>,
                ctx: &mut SmContext<'_, u64, u64>,
            ) {
                if let Some(v) = v {
                    if let Some(last) = self.last {
                        assert!(v >= last, "read went backwards: {last} then {v}");
                    }
                    self.last = Some(v);
                }
                self.reads_left -= 1;
                if self.reads_left == 0 {
                    ctx.decide(self.last.unwrap_or(0));
                } else {
                    ctx.read(reg);
                }
            }
        }
        for seed in 0..20 {
            let outcome = SmSystem::new(2)
                .seed(seed)
                .run(vec![
                    Box::new(Bumper { next: 0 }) as DynSmProcess<u64, u64>,
                    Box::new(MonotoneReader {
                        last: None,
                        reads_left: 12,
                    }),
                ])
                .unwrap();
            assert!(outcome.terminated, "seed {seed}");
        }
    }

    #[test]
    fn size_mismatches_are_rejected() {
        let err = SmSystem::new(2)
            .run(vec![ScanOnceMin::boxed(0)])
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        let err = SmSystem::new(0)
            .run(Vec::<DynSmProcess<u64, u64>>::new())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        let err = SmSystem::new(2)
            .fault_plan(FaultPlan::all_correct(3))
            .run_with(|p| ScanOnceMin::boxed(p as u64))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn event_limit_surfaces_as_error() {
        /// Reads its own register forever without deciding.
        struct Reader;
        impl SmProcess for Reader {
            type Val = ();
            type Output = ();
            fn on_start(&mut self, ctx: &mut SmContext<'_, (), ()>) {
                ctx.read(RegisterId::new(0, 0));
            }
            fn on_read(
                &mut self,
                reg: RegisterId,
                _v: Option<()>,
                ctx: &mut SmContext<'_, (), ()>,
            ) {
                ctx.read(reg);
            }
        }
        let err = SmSystem::new(1)
            .event_limit(50)
            .run(vec![Box::new(Reader) as DynSmProcess<(), ()>])
            .unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 50 });
    }

    #[test]
    fn metrics_attribute_operations_to_their_issuer() {
        let outcome = SmSystem::new(3)
            .seed(8)
            .metrics(MetricsConfig::enabled())
            .run_with(|p| ScanOnceMin::boxed(100 + p as u64))
            .unwrap();
        assert!(outcome.terminated);
        let m = outcome.metrics.as_ref().expect("metrics enabled");
        // Each process issues 1 write + 3 reads = 4 operations.
        for p in &m.per_process {
            assert_eq!(p.ops_issued, 4);
            assert!(p.ops_completed <= p.ops_issued);
            assert!(p.decided_at.is_some());
            assert_eq!(p.messages_sent, 0);
        }
        assert_eq!(
            m.per_process.iter().map(|p| p.ops_completed).sum::<u64>(),
            outcome.stats.ops_completed
        );
        assert_eq!(m.decisions(), 3);
        assert!(m.op_latency.count() > 0);
        assert!(m.delivery_latency.is_empty());
    }

    #[test]
    fn stats_count_operations() {
        let outcome = SmSystem::new(2)
            .seed(5)
            .run_with(|p| ScanOnceMin::boxed(p as u64))
            .unwrap();
        // Each process: 1 write ack + 2 read responses (some acks may be
        // skipped if the run stops at the decision point, so use bounds).
        assert!(outcome.stats.ops_completed >= 4);
        assert_eq!(outcome.stats.local_steps, 2);
    }
}
