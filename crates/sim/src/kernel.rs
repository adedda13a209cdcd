//! The event kernel: a pool of pending events drained by a scheduler.

use crate::deviate::Deviation;
use crate::error::SimError;
use crate::event::{EventId, EventMeta, ProcessId};
use crate::metrics::{MetricsCollector, MetricsConfig, RunMetrics};
use crate::sched::{RandomScheduler, Scheduler};
use crate::state::RunState;
use crate::trace::{RunStats, Trace, TraceEntry};

/// Default ceiling on the number of fired events per run.
///
/// Generous enough for every protocol in this workspace at `n = 64`
/// (quadratic message complexity, a few phases), small enough to turn
/// accidental livelock into a fast, diagnosable failure.
pub const DEFAULT_EVENT_LIMIT: u64 = 2_000_000;

/// An incremental per-event hasher installed with [`Kernel::event_hasher`]:
/// maps an event to its (plain pool hash, auxiliary payload hash) pair.
pub type EventHasher<E> = fn(&EventMeta, &E) -> (u64, u64);

/// A deterministic discrete-event kernel with payloads of type `E`.
///
/// The kernel owns the pending-event pool, the virtual clock, the
/// adversary-observable [`RunState`], the [`Trace`], and the [`RunStats`].
/// Model runtimes (`kset-net`, `kset-shmem`) post events and drain them with
/// [`Kernel::next_checked`], dispatching payloads to their process actors.
///
/// Determinism: given the same scheduler (including its seed), the same
/// sequence of `post` calls produces the same sequence of fired events.
pub struct Kernel<E> {
    // Parallel vectors: metas[i] describes payloads[i]. Keeping the metas
    // contiguous and payload-free lets the scheduler see them as a plain
    // slice with no per-step copying — protocol runs at n = 64 keep tens
    // of thousands of events pending, and an O(pending) rebuild per pick
    // would make whole runs quadratic.
    metas: Vec<EventMeta>,
    payloads: Vec<E>,
    // Optional incremental pool hashing (see `Kernel::event_hasher`): when a
    // hasher is installed, `hashes[i]`/`payload_hashes[i]` cache the two
    // per-event digests of `metas[i]`/`payloads[i]`, and `pool_sum` is the
    // running order-insensitive (wrapping-sum) combination of `hashes`.
    // Posting, firing and cancelling an event each adjust the sum in O(1),
    // so digesting the pending pool per fired event costs nothing extra —
    // the re-digest-everything loop the runtimes used to pay is gone.
    hasher: Option<EventHasher<E>>,
    hashes: Vec<u64>,
    payload_hashes: Vec<u64>,
    pool_sum: u64,
    scheduler: Box<dyn Scheduler>,
    state: RunState,
    trace: Trace,
    stats: RunStats,
    // Boxed so the disabled (default) path pays one pointer of space and a
    // single branch per event; see `metrics.rs`.
    metrics: Option<Box<MetricsCollector>>,
    // Deviation the scheduler attached to the most recently fired event
    // (queried right after `pick`). Consumed immediately by the runtime's
    // dispatch, so it is not part of snapshots.
    last_deviation: Deviation,
    time: u64,
    next_id: u64,
    event_limit: u64,
}

impl<E> std::fmt::Debug for Kernel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("pending", &self.metas.len())
            .field("time", &self.time)
            .field("scheduler", &self.scheduler.label())
            .finish()
    }
}

impl<E> Kernel<E> {
    /// Creates a kernel draining events with `scheduler`.
    pub fn new(scheduler: impl Scheduler + 'static) -> Self {
        Kernel {
            metas: Vec::new(),
            payloads: Vec::new(),
            hasher: None,
            hashes: Vec::new(),
            payload_hashes: Vec::new(),
            pool_sum: 0,
            scheduler: Box::new(scheduler),
            state: RunState::new(0),
            trace: Trace::disabled(),
            stats: RunStats::default(),
            metrics: None,
            last_deviation: Deviation::Faithful,
            time: 0,
            next_id: 0,
            event_limit: DEFAULT_EVENT_LIMIT,
        }
    }

    /// Creates a kernel sized for `n` processes up front.
    pub fn with_processes(scheduler: impl Scheduler + 'static, n: usize) -> Self {
        let mut k = Kernel::new(scheduler);
        k.state = RunState::new(n);
        k
    }

    /// Sets the event-limit safety valve (builder style).
    pub fn event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Enables trace recording with the given capacity (builder style).
    ///
    /// Capacity 0 keeps tracing disabled: the hot loop skips entry
    /// construction entirely (see [`Trace::is_enabled`]).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace = Trace::with_capacity(capacity);
        self
    }

    /// Installs an incremental pool hasher (builder style).
    ///
    /// `hasher(meta, payload)` must return two digests of the event: the
    /// *plain* per-event hash folded into [`Kernel::pool_digest`] (the
    /// order-insensitive fingerprint of the whole pending pool), and an
    /// auxiliary payload hash cached for [`Kernel::for_each_pending_hashed`]
    /// (used by symmetry-canonical digests, which re-key events by the
    /// *current* state of their target/source and so cannot be summed at
    /// post time). Both are computed exactly once per event, at post time.
    pub fn event_hasher(mut self, hasher: EventHasher<E>) -> Self {
        assert!(
            self.metas.is_empty(),
            "install the event hasher before posting events"
        );
        self.hasher = Some(hasher);
        self
    }

    /// Adopts recycled buffers for the pending-pool vectors (builder
    /// style). The buffers are cleared; only their capacity is reused —
    /// this is what lets a model checker reset its per-run kernel state
    /// with [`Kernel::reclaim_buffers`] instead of reallocating it millions
    /// of times (see `kset_sim::RunArena`).
    pub fn recycled_buffers(
        mut self,
        mut metas: Vec<EventMeta>,
        mut hashes: Vec<u64>,
        mut payload_hashes: Vec<u64>,
    ) -> Self {
        assert!(self.metas.is_empty(), "adopt buffers before posting events");
        metas.clear();
        hashes.clear();
        payload_hashes.clear();
        self.metas = metas;
        self.hashes = hashes;
        self.payload_hashes = payload_hashes;
        self
    }

    /// Configures metrics collection (builder style).
    ///
    /// A config with `enabled: false` leaves the kernel on the zero-cost
    /// path, identical to never calling this.
    pub fn collect_metrics(mut self, config: MetricsConfig) -> Self {
        let n = self.state.n();
        self.metrics = config.enabled.then(|| {
            let bytes_per_event =
                (std::mem::size_of::<EventMeta>() + std::mem::size_of::<E>()) as u64;
            let mut collector = MetricsCollector::new(bytes_per_event);
            collector.ensure_processes(n);
            Box::new(collector)
        });
        self
    }

    /// Posts an event; returns its assigned id.
    ///
    /// The kernel stamps `meta.id` and `meta.posted_at`; whatever the caller
    /// put there is overwritten.
    pub fn post(&mut self, mut meta: EventMeta, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        meta.id = id;
        meta.posted_at = self.time;
        if let Some(hasher) = self.hasher {
            let (plain, aux) = hasher(&meta, &payload);
            self.hashes.push(plain);
            self.payload_hashes.push(aux);
            self.pool_sum = self.pool_sum.wrapping_add(plain);
        }
        self.metas.push(meta);
        self.payloads.push(payload);
        if let Some(m) = self.metrics.as_deref_mut() {
            m.on_post(&self.metas[self.metas.len() - 1], self.metas.len());
        }
        id
    }

    /// Fires the next event, or `None` when the pool is empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] once more events have fired
    /// than the configured limit allows.
    pub fn next_checked(&mut self) -> Result<Option<(EventMeta, E)>, SimError> {
        if self.metas.is_empty() {
            return Ok(None);
        }
        if self.stats.events_fired >= self.event_limit {
            return Err(SimError::EventLimitExceeded {
                limit: self.event_limit,
            });
        }
        self.state.set_now(self.time);
        let picked_from = self.metas.len();
        let idx = self.scheduler.pick(&self.metas, &self.state);
        assert!(
            idx < self.metas.len(),
            "scheduler returned out-of-range index"
        );
        self.last_deviation = self.scheduler.deviation();
        let meta = self.metas.swap_remove(idx);
        let payload = self.payloads.swap_remove(idx);
        if self.hasher.is_some() {
            let plain = self.hashes.swap_remove(idx);
            self.payload_hashes.swap_remove(idx);
            self.pool_sum = self.pool_sum.wrapping_sub(plain);
        }
        self.time += 1;
        self.stats.count(meta.kind);
        if self.trace.is_enabled() {
            self.trace.record(TraceEntry {
                fired_at: self.time,
                id: meta.id,
                kind: meta.kind,
                target: meta.target,
                source: meta.source,
            });
        }
        if let Some(m) = self.metrics.as_deref_mut() {
            m.on_fire(&meta, self.time, picked_from);
        }
        Ok(Some((meta, payload)))
    }

    /// Fires the next event, or `None` when the pool is empty.
    ///
    /// # Panics
    ///
    /// Panics if the event limit is exceeded; runtimes that need to recover
    /// use [`Kernel::next_checked`] instead.
    pub fn next_event(&mut self) -> Option<(EventMeta, E)> {
        self.next_checked().expect("event limit exceeded")
    }

    /// Removes every pending event matching `pred`; returns how many were
    /// removed. Used by runtimes to drop undeliverable events (e.g. steps of
    /// a crashed process). Deliveries *from* a crashed process posted before
    /// the crash are intentionally left in the pool — the network is
    /// reliable, and a message sent is a message delivered.
    pub fn cancel_where(&mut self, mut pred: impl FnMut(&EventMeta) -> bool) -> usize {
        let before = self.metas.len();
        let mut i = 0;
        while i < self.metas.len() {
            if pred(&self.metas[i]) {
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.on_cancel(&self.metas[i]);
                }
                self.metas.swap_remove(i);
                self.payloads.swap_remove(i);
                if self.hasher.is_some() {
                    let plain = self.hashes.swap_remove(i);
                    self.payload_hashes.swap_remove(i);
                    self.pool_sum = self.pool_sum.wrapping_sub(plain);
                }
            } else {
                i += 1;
            }
        }
        let removed = before - self.metas.len();
        self.stats.events_dropped_by_crash += removed as u64;
        removed
    }

    /// Records that process `pid` irreversibly decided: marks it in the
    /// [`RunState`] (so adversaries and gated schedulers observe it) and, if
    /// metrics are enabled, stamps its decision latency with the current
    /// virtual time. Model runtimes call this exactly once per decision.
    pub fn note_decision(&mut self, pid: ProcessId) {
        self.state.mark_decided(pid);
        if let Some(m) = self.metrics.as_deref_mut() {
            m.on_decide(pid, self.time);
        }
    }

    /// Number of events currently pending.
    pub fn pending_len(&self) -> usize {
        self.metas.len()
    }

    /// Visits every pending event (in no particular order) with its payload.
    ///
    /// Model runtimes use this to fold the pending pool into a state digest
    /// (see `System::run_digested_reference`): the pool is part of
    /// the system state the model checker deduplicates on, since two runs
    /// with equal process states but different undelivered messages can
    /// still diverge.
    pub fn for_each_pending(&self, mut f: impl FnMut(&EventMeta, &E)) {
        for (meta, payload) in self.metas.iter().zip(&self.payloads) {
            f(meta, payload);
        }
    }

    /// The order-insensitive digest of the pending pool: the wrapping sum
    /// of every pending event's plain hash, maintained incrementally by
    /// `post`/`next_checked`/`cancel_where`.
    ///
    /// # Panics
    ///
    /// Panics if no [`Kernel::event_hasher`] is installed.
    pub fn pool_digest(&self) -> u64 {
        assert!(self.hasher.is_some(), "pool_digest needs an event hasher");
        self.pool_sum
    }

    /// Visits every pending event with its cached auxiliary payload hash
    /// (the second value the installed [`Kernel::event_hasher`] returned).
    ///
    /// # Panics
    ///
    /// Panics if no event hasher is installed.
    pub fn for_each_pending_hashed(&self, mut f: impl FnMut(&EventMeta, u64)) {
        assert!(
            self.hasher.is_some(),
            "for_each_pending_hashed needs an event hasher"
        );
        for (meta, &aux) in self.metas.iter().zip(&self.payload_hashes) {
            f(meta, aux);
        }
    }

    /// Empties the kernel for a new run over the same processes, drained
    /// by what [`RandomScheduler::from_seed`]`(seed)` would be: the pending
    /// pool, clock, event ids, [`RunState`], [`RunStats`], trace and
    /// metrics start over, while the event limit, the event hasher and
    /// every buffer's capacity carry over. The scheduler is reseeded in
    /// place when it can be ([`Scheduler::reseed`]) and replaced by a new
    /// random scheduler otherwise. Given the same posts, the restarted
    /// kernel fires exactly the events a new kernel with that scheduler
    /// would.
    pub fn restart(&mut self, seed: u64) {
        self.metas.clear();
        self.payloads.clear();
        self.hashes.clear();
        self.payload_hashes.clear();
        self.pool_sum = 0;
        if !self.scheduler.reseed(seed) {
            self.scheduler = Box::new(RandomScheduler::from_seed(seed));
        }
        self.state.reset();
        self.trace.clear();
        self.stats = RunStats::default();
        if let Some(m) = self.metrics.as_deref_mut() {
            m.reset(self.state.n());
        }
        self.last_deviation = Deviation::Faithful;
        self.time = 0;
        self.next_id = 0;
    }

    /// Tears the kernel down, handing back the pool buffers so a caller
    /// holding a `kset_sim::RunArena` can reuse their capacity for the
    /// next run.
    pub fn reclaim_buffers(self) -> (Vec<EventMeta>, Vec<u64>, Vec<u64>) {
        (self.metas, self.hashes, self.payload_hashes)
    }

    /// The [`Deviation`] the scheduler attached to the most recently fired
    /// event — [`Deviation::Faithful`] unless an adversary-aware scheduler
    /// (a [`crate::ChoiceScheduler`] with an active policy, or a
    /// [`crate::ReplayScheduler`] replaying a deviating script) chose
    /// otherwise. Runtimes read this right after [`Kernel::next_checked`]
    /// and apply the deviation at delivery time.
    pub fn last_deviation(&self) -> Deviation {
        self.last_deviation
    }

    /// Current virtual time (number of events fired so far).
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Read access to the adversary-observable run state.
    pub fn state(&self) -> &RunState {
        &self.state
    }

    /// Write access to the run state, for the model runtime.
    pub fn state_mut(&mut self) -> &mut RunState {
        &mut self.state
    }

    /// Aggregate counters of the run so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The collected metrics, or `None` when collection is disabled.
    pub fn metrics(&self) -> Option<&RunMetrics> {
        self.metrics.as_deref().map(MetricsCollector::metrics)
    }

    /// The recorded trace (empty unless [`Kernel::trace_capacity`] was set).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl<E: Clone> Kernel<E> {
    /// Captures the kernel's run-visible state — pending pool (metas,
    /// payloads, cached hashes, running pool sum), virtual clock, id
    /// counter, [`RunState`] and [`RunStats`] — so the run can later be
    /// rewound to this exact point with [`Kernel::restore`]. The scheduler,
    /// event hasher and event limit are configuration, not run state, and
    /// are not captured: a snapshot must be restored into the kernel it was
    /// taken from (or one configured identically), which is how the forking
    /// model-checker executor uses it.
    ///
    /// # Panics
    ///
    /// Panics if trace recording or metrics collection is enabled: those
    /// accumulators are append-only histories that a rewind would silently
    /// corrupt, and no forking caller needs them.
    pub fn snapshot(&self) -> KernelSnapshot<E> {
        assert!(
            !self.trace.is_enabled() && self.metrics.is_none(),
            "kernel snapshots require tracing and metrics to be disabled"
        );
        KernelSnapshot {
            metas: self.metas.clone(),
            payloads: self.payloads.clone(),
            hashes: self.hashes.clone(),
            payload_hashes: self.payload_hashes.clone(),
            pool_sum: self.pool_sum,
            state: self.state.clone(),
            stats: self.stats,
            time: self.time,
            next_id: self.next_id,
        }
    }

    /// In-place variant of [`Kernel::snapshot`]: overwrites `snap` with the
    /// current run state, reusing its buffer capacity (`clone_from`). The
    /// forking executor recycles dropped snapshots' buffers through a pool,
    /// so in the steady state taking a snapshot allocates only what the
    /// pooled buffers cannot hold.
    ///
    /// # Panics
    ///
    /// As [`Kernel::snapshot`]: tracing and metrics must be disabled.
    pub fn snapshot_into(&self, snap: &mut KernelSnapshot<E>) {
        assert!(
            !self.trace.is_enabled() && self.metrics.is_none(),
            "kernel snapshots require tracing and metrics to be disabled"
        );
        snap.metas.clone_from(&self.metas);
        snap.payloads.clone_from(&self.payloads);
        snap.hashes.clone_from(&self.hashes);
        snap.payload_hashes.clone_from(&self.payload_hashes);
        snap.pool_sum = self.pool_sum;
        snap.state.clone_from(&self.state);
        snap.stats = self.stats;
        snap.time = self.time;
        snap.next_id = self.next_id;
    }

    /// Rewinds the kernel to a previously captured [`KernelSnapshot`].
    ///
    /// Buffers are overwritten in place (`clone_from`), so in the steady
    /// state a restore reuses the kernel's existing capacity and allocates
    /// nothing. Determinism carries over: after a restore, the same
    /// scheduler decisions reproduce the same fired events and the same
    /// assigned event ids as the original execution did from this point.
    pub fn restore(&mut self, snap: &KernelSnapshot<E>) {
        self.metas.clone_from(&snap.metas);
        self.payloads.clone_from(&snap.payloads);
        self.hashes.clone_from(&snap.hashes);
        self.payload_hashes.clone_from(&snap.payload_hashes);
        self.pool_sum = snap.pool_sum;
        self.state.clone_from(&snap.state);
        self.stats = snap.stats;
        self.time = snap.time;
        self.next_id = snap.next_id;
    }

    /// [`Kernel::restore`] by exchange, for a snapshot the caller owns and
    /// will not restore from again: buffer ownership swaps instead of
    /// copying (the kernel adopts the snapshot's vectors, the snapshot
    /// keeps the kernel's old ones for recycling), scalars copy over.
    /// After the call `snap` holds unspecified pending-pool content and
    /// must not be restored from.
    pub fn restore_swap(&mut self, snap: &mut KernelSnapshot<E>) {
        std::mem::swap(&mut self.metas, &mut snap.metas);
        std::mem::swap(&mut self.payloads, &mut snap.payloads);
        std::mem::swap(&mut self.hashes, &mut snap.hashes);
        std::mem::swap(&mut self.payload_hashes, &mut snap.payload_hashes);
        std::mem::swap(&mut self.state, &mut snap.state);
        self.pool_sum = snap.pool_sum;
        self.stats = snap.stats;
        self.time = snap.time;
        self.next_id = snap.next_id;
    }
}

/// A point-in-time copy of a [`Kernel`]'s run state, created by
/// [`Kernel::snapshot`] and re-installed by [`Kernel::restore`].
///
/// This is the kernel's share of a forked model-checker run: the pending
/// event pool with its incremental digest caches, the virtual clock and id
/// counter, the adversary-observable [`RunState`] and the [`RunStats`].
pub struct KernelSnapshot<E> {
    metas: Vec<EventMeta>,
    payloads: Vec<E>,
    hashes: Vec<u64>,
    payload_hashes: Vec<u64>,
    pool_sum: u64,
    state: RunState,
    stats: RunStats,
    time: u64,
    next_id: u64,
}

/// The empty snapshot: no pending events, zeroed clock and counters. Not a
/// meaningful restore target — it exists as the seed value for snapshot
/// buffer pools, to be overwritten via [`Kernel::snapshot_into`].
impl<E> Default for KernelSnapshot<E> {
    fn default() -> Self {
        KernelSnapshot {
            metas: Vec::new(),
            payloads: Vec::new(),
            hashes: Vec::new(),
            payload_hashes: Vec::new(),
            pool_sum: 0,
            state: RunState::default(),
            stats: RunStats::default(),
            time: 0,
            next_id: 0,
        }
    }
}

impl<E> std::fmt::Debug for KernelSnapshot<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSnapshot")
            .field("pending", &self.metas.len())
            .field("time", &self.time)
            .finish()
    }
}

impl<E> KernelSnapshot<E> {
    /// Number of pending events captured.
    pub fn pending_len(&self) -> usize {
        self.metas.len()
    }

    /// Approximate heap footprint of this snapshot in bytes, used by
    /// snapshot-budget accounting. An estimate: payloads are counted at
    /// their inline size (heap data owned *by* a payload is invisible
    /// here), and the run-state vectors at their element sizes.
    pub fn approx_bytes(&self) -> usize {
        let per_event = std::mem::size_of::<EventMeta>() + std::mem::size_of::<E>() + 16;
        std::mem::size_of::<Self>()
            + self.metas.len() * per_event
            + self.state.n() * (3 + std::mem::size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::sched::{FifoScheduler, RandomScheduler};

    fn step(target: usize) -> EventMeta {
        EventMeta::new(EventKind::LocalStep, target)
    }

    #[test]
    fn fifo_kernel_fires_in_post_order() {
        let mut k: Kernel<u32> = Kernel::new(FifoScheduler::new());
        k.post(step(0), 10);
        k.post(step(1), 20);
        k.post(step(2), 30);
        let fired: Vec<u32> = std::iter::from_fn(|| k.next_event().map(|(_, p)| p)).collect();
        assert_eq!(fired, vec![10, 20, 30]);
        assert_eq!(k.now(), 3);
        assert_eq!(k.stats().events_fired, 3);
        assert_eq!(k.stats().local_steps, 3);
    }

    #[test]
    fn random_kernel_is_reproducible_per_seed() {
        let run = |seed: u64| {
            let mut k: Kernel<u32> = Kernel::new(RandomScheduler::from_seed(seed));
            for i in 0..50 {
                k.post(step(i % 5), i as u32);
            }
            std::iter::from_fn(|| k.next_event().map(|(_, p)| p)).collect::<Vec<u32>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn ids_are_assigned_monotonically() {
        let mut k: Kernel<()> = Kernel::new(FifoScheduler::new());
        let a = k.post(step(0), ());
        let b = k.post(step(0), ());
        assert!(a < b);
    }

    #[test]
    fn event_limit_is_enforced() {
        let mut k: Kernel<()> = Kernel::new(FifoScheduler::new()).event_limit(2);
        for _ in 0..3 {
            k.post(step(0), ());
        }
        assert!(k.next_checked().unwrap().is_some());
        assert!(k.next_checked().unwrap().is_some());
        assert_eq!(
            k.next_checked().unwrap_err(),
            SimError::EventLimitExceeded { limit: 2 }
        );
    }

    #[test]
    fn cancel_where_removes_matching_events() {
        let mut k: Kernel<u32> = Kernel::new(FifoScheduler::new());
        k.post(step(0), 1);
        k.post(step(1), 2);
        k.post(step(0), 3);
        let removed = k.cancel_where(|m| m.target == 0);
        assert_eq!(removed, 2);
        assert_eq!(k.pending_len(), 1);
        assert_eq!(k.stats().events_dropped_by_crash, 2);
        let (_, p) = k.next_event().unwrap();
        assert_eq!(p, 2);
    }

    #[test]
    fn trace_records_fired_events_when_enabled() {
        let mut k: Kernel<()> = Kernel::new(FifoScheduler::new()).trace_capacity(8);
        k.post(step(3), ());
        k.post(
            EventMeta::new(EventKind::MessageDelivery, 1).from_process(0),
            (),
        );
        while k.next_event().is_some() {}
        let entries = k.trace().entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].target, 3);
        assert_eq!(entries[1].kind, EventKind::MessageDelivery);
        assert_eq!(entries[1].source, Some(0));
    }

    #[test]
    fn disabled_trace_kernel_run_is_a_true_noop() {
        // Regression test for the capacity-0 contract: a kernel with trace
        // recording disabled must not only keep `entries` empty but must
        // skip `Trace::record` entirely in the hot loop — `dropped()` stays
        // 0 no matter how many events fire.
        let mut k: Kernel<()> = Kernel::new(FifoScheduler::new());
        for i in 0..100 {
            k.post(step(i % 4), ());
        }
        while k.next_event().is_some() {}
        assert!(k.trace().entries().is_empty());
        assert_eq!(k.trace().dropped(), 0);
        assert!(!k.trace().is_enabled());
        // Explicit capacity 0 behaves identically to the default.
        let mut k0: Kernel<()> = Kernel::new(FifoScheduler::new()).trace_capacity(0);
        k0.post(step(0), ());
        while k0.next_event().is_some() {}
        assert_eq!(k0.trace().dropped(), 0);
    }

    #[test]
    fn metrics_disabled_by_default_and_by_config() {
        let mut k: Kernel<()> = Kernel::new(FifoScheduler::new());
        k.post(step(0), ());
        while k.next_event().is_some() {}
        assert!(k.metrics().is_none());
        let k2: Kernel<()> =
            Kernel::new(FifoScheduler::new()).collect_metrics(MetricsConfig::disabled());
        assert!(k2.metrics().is_none());
    }

    #[test]
    fn metrics_attribute_counters_per_process() {
        let mut k: Kernel<u32> = Kernel::with_processes(FifoScheduler::new(), 3)
            .collect_metrics(MetricsConfig::enabled());
        k.post(step(0), 1);
        k.post(
            EventMeta::new(EventKind::MessageDelivery, 1).from_process(0),
            2,
        );
        k.post(
            EventMeta::new(EventKind::MessageDelivery, 2).from_process(0),
            3,
        );
        k.post(EventMeta::new(EventKind::OpResponse, 2), 4);
        while k.next_event().is_some() {}
        k.note_decision(2);
        let m = k.metrics().unwrap();
        assert_eq!(m.per_process.len(), 3);
        assert_eq!(m.per_process[0].local_steps, 1);
        assert_eq!(m.per_process[0].messages_sent, 2);
        assert_eq!(m.per_process[1].messages_delivered, 1);
        assert_eq!(m.per_process[2].messages_delivered, 1);
        assert_eq!(m.per_process[2].ops_issued, 1);
        assert_eq!(m.per_process[2].ops_completed, 1);
        assert_eq!(m.per_process[2].decided_at, Some(4));
        assert_eq!(m.total_messages_sent(), 2);
        assert_eq!(m.decisions(), 1);
        assert_eq!(m.peak_pending, 4);
        assert_eq!(m.delivery_latency.count(), 2);
        assert_eq!(m.op_latency.count(), 1);
        assert_eq!(m.pending_depth.count(), 4);
        assert!(k.state().has_decided(2));
    }

    #[test]
    fn metrics_count_crash_drops_per_process() {
        let mut k: Kernel<()> = Kernel::with_processes(FifoScheduler::new(), 2)
            .collect_metrics(MetricsConfig::enabled());
        k.post(step(0), ());
        k.post(step(1), ());
        k.post(step(0), ());
        k.cancel_where(|m| m.target == 0);
        let m = k.metrics().unwrap();
        assert_eq!(m.per_process[0].events_dropped_by_crash, 2);
        assert_eq!(m.per_process[1].events_dropped_by_crash, 0);
    }

    #[test]
    fn metrics_delivery_latency_measures_post_to_fire() {
        // FIFO order: the message posted first at t=0 fires at t=1
        // (latency 1); a message posted at t=1 fires at t=2 (latency 1).
        let mut k: Kernel<()> =
            Kernel::new(FifoScheduler::new()).collect_metrics(MetricsConfig::enabled());
        k.post(
            EventMeta::new(EventKind::MessageDelivery, 0).from_process(1),
            (),
        );
        k.next_event();
        k.post(
            EventMeta::new(EventKind::MessageDelivery, 1).from_process(0),
            (),
        );
        k.next_event();
        let m = k.metrics().unwrap();
        assert_eq!(m.delivery_latency.count(), 2);
        assert_eq!(m.delivery_latency.sum(), 2);
        assert_eq!(m.delivery_latency.max(), 1);
    }

    #[test]
    fn empty_kernel_yields_none() {
        let mut k: Kernel<()> = Kernel::new(FifoScheduler::new());
        assert!(k.next_event().is_none());
        assert_eq!(k.pending_len(), 0);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let k: Kernel<()> = Kernel::new(FifoScheduler::new());
        let dbg = format!("{k:?}");
        assert!(dbg.contains("Kernel"));
        assert!(dbg.contains("fifo"));
    }
}
