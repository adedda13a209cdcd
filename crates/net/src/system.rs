//! The message-passing runtime: the [`MpSubstrate`] implementation plus the
//! [`MpSystem`] facade over the substrate-generic [`kset_sim::System`].

use std::marker::PhantomData;

use kset_sim::{
    CallInfo, DelayRule, Effect, EventKind, FaithfulDelivery, FaultPlan, Fnv64, MetricsConfig,
    ProcessId, Scheduler, Session, SimError, StateDigest, Substrate, SubstrateAdv, SubstrateDigest,
    SubstrateFork, System,
};

use crate::outcome::MpOutcome;
use crate::process::{DynMpProcess, MpContext, MpProcess, RawAction};

/// The message-passing substrate: reliable point-to-point delivery over a
/// completely connected network.
///
/// Plugged into [`kset_sim::System`], this drives [`crate::MpProcess`]
/// state machines: the event payload is a message in transit, a `Send`
/// action posts a delivery event to its destination, and there is no shared
/// state — all communication is through the event pool. [`MpSystem`] is the
/// ready-made facade; use `MpSubstrate` directly only in substrate-generic
/// tooling.
pub struct MpSubstrate<M, V>(PhantomData<fn() -> (M, V)>);

impl<M, V> std::fmt::Debug for MpSubstrate<M, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MpSubstrate")
    }
}

impl<M: Clone, V> Substrate for MpSubstrate<M, V> {
    type Payload = M;
    type Process = DynMpProcess<M, V>;
    type Action = RawAction<M, V>;
    type Output = V;
    type Shared = ();

    fn new_shared(_n: usize) -> Self::Shared {}

    fn on_start(
        proc: &mut Self::Process,
        _shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let mut ctx = MpContext::new(info.me, info.n, info.now, info.decided, out);
        proc.on_start(&mut ctx);
    }

    fn on_step(
        proc: &mut Self::Process,
        _shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let mut ctx = MpContext::new(info.me, info.n, info.now, info.decided, out);
        proc.on_step(&mut ctx);
    }

    fn on_payload(
        proc: &mut Self::Process,
        msg: M,
        source: Option<ProcessId>,
        _shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let from = source.expect("message delivery has a source");
        let mut ctx = MpContext::new(info.me, info.n, info.now, info.decided, out);
        proc.on_message(from, msg, &mut ctx);
    }

    fn apply(
        action: Self::Action,
        me: ProcessId,
        n: usize,
        _shared: &mut Self::Shared,
    ) -> Result<Effect<M, V>, SimError> {
        Ok(match action {
            RawAction::Send(to, m) => {
                if to >= n {
                    return Err(SimError::ProcessOutOfRange { pid: to, n });
                }
                Effect::Post {
                    kind: EventKind::MessageDelivery,
                    target: to,
                    source: me,
                    payload: m,
                }
            }
            RawAction::Decide(v) => Effect::Decide(v),
            RawAction::ScheduleStep => Effect::Step,
        })
    }
}

/// Byzantine in-transit corruption for `u64`-valued protocol messages: a
/// forged delivery hands the receiver the adversary's value in place of the
/// sent one, through the exact same `on_message` path. Only the
/// `u64`-message instantiation can interpret a forged `u64`, so the impl is
/// deliberately not generic over `M`.
impl<V> SubstrateAdv for MpSubstrate<u64, V> {
    fn on_forged(
        proc: &mut Self::Process,
        _msg: u64,
        forged: u64,
        source: Option<ProcessId>,
        _shared: &Self::Shared,
        info: CallInfo,
        out: &mut Vec<Self::Action>,
    ) {
        let from = source.expect("message delivery has a source");
        let mut ctx = MpContext::new(info.me, info.n, info.now, info.decided, out);
        proc.on_message(from, forged, &mut ctx);
    }
}

impl<M, V> SubstrateDigest for MpSubstrate<M, V>
where
    M: Clone + StateDigest,
    V: StateDigest,
{
    fn digest_process(proc: &Self::Process) -> u64 {
        proc.state_digest()
    }

    fn digest_payload(msg: &M, h: &mut Fnv64) {
        h.write_u8(2);
        msg.digest_into(h);
    }

    fn digest_shared(_shared: &Self::Shared, _h: &mut Fnv64) {}
}

impl<M, V> SubstrateFork for MpSubstrate<M, V>
where
    M: Clone + StateDigest,
    V: StateDigest,
{
    fn fork_process(proc: &Self::Process) -> Option<Self::Process> {
        proc.fork()
    }

    fn fork_process_into(src: &Self::Process, dst: &mut Self::Process) -> bool {
        src.fork_into(dst)
    }

    fn fork_shared(_shared: &Self::Shared) -> Self::Shared {}
}

/// Builder/runtime for one run of a message-passing system.
///
/// A thin facade binding [`kset_sim::System`] to the [`MpSubstrate`]:
/// configure the fault plan, scheduler, delay rules, and limits, then call
/// [`MpSystem::run`] with one process per slot. Byzantine slots (per the
/// fault plan) are filled by the caller with strategy objects — see the
/// `kset-adversary` crate.
///
/// # Examples
///
/// See the crate-level documentation.
#[derive(Debug)]
pub struct MpSystem(System);

impl MpSystem {
    /// A system of `n` processes, all correct, randomly scheduled (seed 0).
    pub fn new(n: usize) -> Self {
        MpSystem(System::new(n))
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.0.n()
    }

    /// Sets the fault plan. Its size must equal `n` (checked at run time).
    pub fn fault_plan(self, plan: FaultPlan) -> Self {
        MpSystem(self.0.fault_plan(plan))
    }

    /// Uses an explicit scheduler (adversary).
    pub fn scheduler(self, scheduler: impl Scheduler + 'static) -> Self {
        MpSystem(self.0.scheduler(scheduler))
    }

    /// Shorthand for a [`kset_sim::RandomScheduler`] with the given seed.
    pub fn seed(self, seed: u64) -> Self {
        MpSystem(self.0.seed(seed))
    }

    /// Adds a delay rule; the scheduler is wrapped in a
    /// [`kset_sim::GatedScheduler`] when any rules are present.
    pub fn delay_rule(self, rule: DelayRule) -> Self {
        MpSystem(self.0.delay_rule(rule))
    }

    /// Adds several delay rules at once.
    pub fn delay_rules(self, rules: impl IntoIterator<Item = DelayRule>) -> Self {
        MpSystem(self.0.delay_rules(rules))
    }

    /// Overrides the kernel event limit.
    pub fn event_limit(self, limit: u64) -> Self {
        MpSystem(self.0.event_limit(limit))
    }

    /// Enables trace recording with the given capacity.
    pub fn trace_capacity(self, capacity: usize) -> Self {
        MpSystem(self.0.trace_capacity(capacity))
    }

    /// Configures metrics collection; the outcome's
    /// [`metrics`](MpOutcome::metrics) field is populated when enabled.
    pub fn metrics(self, config: MetricsConfig) -> Self {
        MpSystem(self.0.metrics(config))
    }

    /// Runs the system, building each process from a factory closure.
    ///
    /// # Errors
    ///
    /// See [`MpSystem::run`].
    pub fn run_with<M: Clone, V>(
        self,
        factory: impl FnMut(ProcessId) -> DynMpProcess<M, V>,
    ) -> Result<MpOutcome<V>, SimError> {
        self.0.run_with::<MpSubstrate<M, V>, _>(factory)
    }

    /// Runs the system to completion.
    ///
    /// The run ends when every correct process has decided, when no events
    /// remain (in which case `terminated` is `false` if some correct process
    /// is still undecided), or with an error.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] if `procs.len()` or the fault plan size
    ///   differ from `n`, or `n == 0`.
    /// * [`SimError::EventLimitExceeded`] if the protocol livelocks.
    /// * [`SimError::ProcessOutOfRange`] if a process sends to an index
    ///   outside `0..n`.
    pub fn run<M: Clone, V>(
        self,
        procs: Vec<DynMpProcess<M, V>>,
    ) -> Result<MpOutcome<V>, SimError> {
        self.0.run::<MpSubstrate<M, V>>(procs)
    }

    /// Builds a steppable [`MpSession`] instead of running to completion:
    /// drive it with [`kset_sim::Session::step`] until it reports
    /// [`kset_sim::Poll::Decided`] or [`kset_sim::Poll::Idle`], then
    /// collect the outcome with [`kset_sim::Session::finish`]. This is how
    /// a server interleaves many concurrent runs — `kset-serve` multiplexes
    /// millions of these over a worker pool.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] as for [`MpSystem::run`]; run-time
    /// errors surface from `step` instead.
    pub fn session<M: Clone, V>(
        self,
        procs: Vec<DynMpProcess<M, V>>,
    ) -> Result<MpSession<M, V>, SimError> {
        self.0.session::<MpSubstrate<M, V>, FaithfulDelivery>(procs)
    }
}

/// A steppable message-passing run: [`kset_sim::Session`] bound to the
/// [`MpSubstrate`], as built by [`MpSystem::session`].
pub type MpSession<M, V> = Session<MpSubstrate<M, V>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::MpProcess;
    use kset_sim::FaultSpec;

    /// Broadcasts the input; decides the multiset minimum of the first
    /// `quorum` values received (its own included).
    struct MinOfQuorum {
        input: u64,
        quorum: usize,
        seen: Vec<u64>,
    }

    impl MinOfQuorum {
        fn boxed(input: u64, quorum: usize) -> DynMpProcess<u64, u64> {
            Box::new(MinOfQuorum {
                input,
                quorum,
                seen: Vec::new(),
            })
        }
    }

    impl MpProcess for MinOfQuorum {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut MpContext<'_, u64, u64>) {
            ctx.broadcast(self.input);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u64, ctx: &mut MpContext<'_, u64, u64>) {
            if ctx.has_decided() {
                return;
            }
            self.seen.push(msg);
            if self.seen.len() >= self.quorum {
                ctx.decide(*self.seen.iter().min().expect("quorum >= 1"));
            }
        }
    }

    #[test]
    fn failure_free_run_decides_everywhere() {
        let outcome = MpSystem::new(4)
            .seed(3)
            .run((0..4).map(|i| MinOfQuorum::boxed(10 + i, 4)).collect())
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.decisions.len(), 4);
        // Everyone waited for all four values, so everyone decided min = 10.
        assert_eq!(outcome.correct_decision_set(), vec![10]);
        assert_eq!(outcome.stats.messages_delivered, 16);
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            MpSystem::new(5)
                .seed(seed)
                .fault_plan(FaultPlan::silent_crashes(5, &[4]))
                .run((0..5).map(|i| MinOfQuorum::boxed(i, 4)).collect())
                .unwrap()
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn silent_crash_means_no_messages_from_that_process() {
        let outcome = MpSystem::new(3)
            .seed(9)
            .fault_plan(FaultPlan::silent_crashes(3, &[0]))
            .run((0..3).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap();
        assert!(outcome.terminated);
        // Process 0 never started: only 1 and 2 decided, and neither can
        // have seen 0's input.
        assert!(!outcome.decisions.contains_key(&0));
        assert!(outcome.correct_decision_set().iter().all(|&v| v >= 1));
    }

    #[test]
    fn waiting_for_too_many_messages_fails_termination() {
        // 3 processes, one silent: waiting for all 3 inputs can never finish.
        let outcome = MpSystem::new(3)
            .seed(1)
            .fault_plan(FaultPlan::silent_crashes(3, &[2]))
            .run((0..3).map(|i| MinOfQuorum::boxed(i, 3)).collect())
            .unwrap();
        assert!(!outcome.terminated);
        assert!(outcome.decisions.is_empty());
    }

    #[test]
    fn crash_budget_cuts_a_broadcast() {
        // Process 0 may perform 2 actions: handling its start event and
        // sending to process 0 (itself). Its sends to 1 and 2 are cut.
        let mut plan = FaultPlan::all_correct(3);
        plan.set(0, FaultSpec::Crash { after_actions: 2 });
        let outcome = MpSystem::new(3)
            .seed(5)
            .fault_plan(plan)
            .run((0..3).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap();
        assert!(outcome.terminated);
        // 1 and 2 decide from {1, 2}: 0's input never reached them.
        assert_eq!(outcome.correct_decision_set(), vec![1]);
    }

    #[test]
    fn mismatched_process_count_is_rejected() {
        let err = MpSystem::new(3)
            .run((0..2).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn mismatched_plan_size_is_rejected() {
        let err = MpSystem::new(3)
            .fault_plan(FaultPlan::all_correct(2))
            .run((0..3).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn zero_processes_is_rejected() {
        let err = MpSystem::new(0)
            .run(Vec::<DynMpProcess<u64, u64>>::new())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn event_limit_surfaces_as_error() {
        /// Pathological protocol: every step schedules another step.
        struct Spinner;
        impl MpProcess for Spinner {
            type Msg = ();
            type Output = ();
            fn on_start(&mut self, ctx: &mut MpContext<'_, (), ()>) {
                ctx.schedule_step();
            }
            fn on_message(&mut self, _f: ProcessId, _m: (), _c: &mut MpContext<'_, (), ()>) {}
            fn on_step(&mut self, ctx: &mut MpContext<'_, (), ()>) {
                ctx.schedule_step();
            }
        }
        let err = MpSystem::new(1)
            .event_limit(100)
            .run(vec![Box::new(Spinner) as DynMpProcess<(), ()>])
            .unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 100 });
    }

    #[test]
    fn trace_capacity_records_schedule() {
        let outcome = MpSystem::new(2)
            .seed(2)
            .trace_capacity(64)
            .run((0..2).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap();
        assert!(!outcome.trace.entries().is_empty());
    }

    #[test]
    fn metrics_follow_the_run() {
        let outcome = MpSystem::new(4)
            .seed(3)
            .metrics(MetricsConfig::enabled())
            .run((0..4).map(|i| MinOfQuorum::boxed(10 + i, 4)).collect())
            .unwrap();
        let m = outcome.metrics.as_ref().expect("metrics enabled");
        // Every process broadcast once (4 sends each) and received all 16.
        assert_eq!(m.total_messages_sent(), 16);
        assert_eq!(
            m.per_process
                .iter()
                .map(|p| p.messages_delivered)
                .sum::<u64>(),
            outcome.stats.messages_delivered
        );
        // All four decided; decision latencies are recorded in virtual time.
        assert_eq!(m.decisions(), 4);
        for p in &m.per_process {
            assert_eq!(p.messages_sent, 4);
            assert!(p.decided_at.is_some());
        }
        assert!(m.peak_pending >= 4);
        assert!(m.peak_pending_bytes > m.peak_pending);
        // Disabled (the default) leaves the field empty.
        let off = MpSystem::new(2)
            .seed(3)
            .run((0..2).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap();
        assert!(off.metrics.is_none());
    }

    #[test]
    fn metrics_attribute_crash_drops() {
        // Process 0's budget covers its start handler and the first send of
        // its broadcast — the send to itself. The crash then cancels that
        // pending self-delivery, so a drop is attributed to process 0 on
        // every schedule (a silent crash only drops events if the scheduler
        // happens to delay the start past other broadcasts).
        let mut plan = FaultPlan::all_correct(3);
        plan.set(0, FaultSpec::Crash { after_actions: 2 });
        let outcome = MpSystem::new(3)
            .seed(9)
            .metrics(MetricsConfig::enabled())
            .fault_plan(plan)
            .run((0..3).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap();
        let m = outcome.metrics.unwrap();
        // Only the crashed process loses events to cancellation.
        assert!(m.per_process[0].events_dropped_by_crash > 0);
        assert_eq!(m.per_process[1].events_dropped_by_crash, 0);
        assert_eq!(m.per_process[2].events_dropped_by_crash, 0);
        assert_eq!(
            m.per_process
                .iter()
                .map(|p| p.events_dropped_by_crash)
                .sum::<u64>(),
            outcome.stats.events_dropped_by_crash
        );
        assert!(m.per_process[0].decided_at.is_none());
    }

    #[test]
    fn delay_rule_shapes_the_run() {
        use kset_sim::DelayRule;
        // Isolate {0,1}: they must decide before hearing from {2,3}.
        let outcome = MpSystem::new(4)
            .seed(4)
            .delay_rule(DelayRule::isolate_until_decided(vec![0, 1]))
            .run((0..4).map(|i| MinOfQuorum::boxed(i, 2)).collect())
            .unwrap();
        assert!(outcome.terminated);
        // 0 and 1 can only have seen inputs from {0, 1}.
        for p in [0usize, 1] {
            assert!(outcome.decisions[&p] <= 1);
        }
    }

    #[test]
    fn on_start_always_precedes_deliveries() {
        /// Records whether a message ever arrived before on_start.
        struct StartGuard {
            started: bool,
        }
        impl MpProcess for StartGuard {
            type Msg = u8;
            type Output = bool;
            fn on_start(&mut self, ctx: &mut MpContext<'_, u8, bool>) {
                self.started = true;
                ctx.broadcast(1);
            }
            fn on_message(&mut self, _f: ProcessId, _m: u8, ctx: &mut MpContext<'_, u8, bool>) {
                if !ctx.has_decided() {
                    // A delivery firing before our start would see
                    // started == false.
                    ctx.decide(self.started);
                }
            }
        }
        // LIFO maximally perturbs start ordering: late starts, early
        // deliveries. Every process must still observe its own start first.
        for seed in 0..20u64 {
            let outcome = MpSystem::new(5)
                .seed(seed)
                .run(
                    (0..5)
                        .map(|_| Box::new(StartGuard { started: false }) as DynMpProcess<u8, bool>)
                        .collect(),
                )
                .unwrap();
            assert!(
                outcome.decisions.values().all(|&ok| ok),
                "seed {seed}: a delivery fired before on_start"
            );
        }
    }

    #[test]
    fn first_decision_wins() {
        /// Decides twice; the second decision must be ignored.
        struct DoubleDecider;
        impl MpProcess for DoubleDecider {
            type Msg = ();
            type Output = u32;
            fn on_start(&mut self, ctx: &mut MpContext<'_, (), u32>) {
                ctx.decide(1);
                ctx.decide(2);
            }
            fn on_message(&mut self, _f: ProcessId, _m: (), _c: &mut MpContext<'_, (), u32>) {}
        }
        let outcome = MpSystem::new(1)
            .run(vec![Box::new(DoubleDecider) as DynMpProcess<(), u32>])
            .unwrap();
        assert_eq!(outcome.decisions[&0], 1);
    }
}
