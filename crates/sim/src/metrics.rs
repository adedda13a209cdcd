//! Per-run metrics: per-process counters and virtual-time histograms.
//!
//! The [`Kernel`](crate::Kernel) can collect a [`RunMetrics`] alongside the
//! aggregate [`RunStats`](crate::RunStats): per-process step/message/op
//! attribution, histograms of pending-pool depth and message delivery
//! latency (both in virtual ticks), the virtual time of each process's
//! decision, and the peak size of the pending pool. Collection is **off by
//! default** and costs a single branch per event when disabled, so
//! benchmark runs are unaffected.
//!
//! Everything here is measured in *virtual time* — positions in the fired
//! event sequence — so two runs with the same scheduler seed and the same
//! protocol configuration produce byte-identical metrics. That determinism
//! guarantee is what makes the JSONL run records emitted by
//! `kset-experiments` diffable across machines; see `OBSERVABILITY.md` at
//! the repository root for the full schema.

use kset_core::json::{self, FromJson, ObjectWriter, ToJson, Value};

use crate::event::{EventKind, EventMeta, ProcessId};

/// Configuration of metrics collection.
///
/// The default configuration is disabled; [`MetricsConfig::enabled`] turns
/// collection on:
///
/// ```
/// use kset_sim::MetricsConfig;
/// let cfg = MetricsConfig::enabled();
/// assert!(cfg.enabled);
/// assert_eq!(cfg, MetricsConfig { enabled: true });
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricsConfig {
    /// Master switch. When `false` the kernel allocates nothing and the
    /// per-event cost is one branch on an `Option`.
    pub enabled: bool,
}

impl MetricsConfig {
    /// Collection disabled (the default).
    pub fn disabled() -> Self {
        MetricsConfig { enabled: false }
    }

    /// Collection enabled.
    pub fn enabled() -> Self {
        MetricsConfig { enabled: true }
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::disabled()
    }
}

/// Number of power-of-two buckets in a [`Histogram`] (one per possible
/// bit-length of a `u64` value, plus the zero bucket).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket 0 counts samples equal to 0; bucket `b >= 1` counts samples in
/// `[2^(b-1), 2^b - 1]`. Recording is O(1) (a `leading_zeros` and an
/// increment), and the exact count, sum, and maximum ride along so that
/// means and upper quantile bounds stay meaningful despite the coarse
/// buckets. All state is integral, so serialized histograms are
/// byte-stable across identical runs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    /// Per-bucket sample counts, indexed by bit length of the sample.
    buckets: Vec<u64>,
    /// Total number of recorded samples.
    count: u64,
    /// Sum of all recorded samples.
    sum: u64,
    /// Largest recorded sample (0 when empty).
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `b`.
    fn bucket_upper(b: usize) -> u64 {
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound on the `q`-quantile (`0.0 ..= 1.0`) of the samples.
    ///
    /// Walks the buckets to the one containing the rank-`ceil(q·count)`
    /// sample and returns that bucket's upper bound, clamped to the exact
    /// recorded maximum. Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, c) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Per-process counters of one run.
///
/// Attribution: fired events count toward their *target* (the process that
/// took the step); sends count toward the message's *source*; operations
/// count toward their *issuer*; cancelled events count toward the crashed
/// target they would have woken.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ProcessMetrics {
    /// Events fired with this process as target (its steps taken).
    pub events_fired: u64,
    /// Spontaneous local steps taken.
    pub local_steps: u64,
    /// Messages delivered *to* this process.
    pub messages_delivered: u64,
    /// Shared-memory operation responses delivered to this process.
    pub ops_completed: u64,
    /// Messages this process sent (deliveries posted with it as source).
    pub messages_sent: u64,
    /// Shared-memory operations this process issued.
    pub ops_issued: u64,
    /// Pending events discarded because this process crashed.
    pub events_dropped_by_crash: u64,
    /// Virtual time at which this process decided, if it did — its
    /// decision latency, since every run starts at time 0.
    pub decided_at: Option<u64>,
}

/// Everything the kernel measures about one run when metrics are enabled.
///
/// Produced by [`Kernel::metrics`](crate::Kernel::metrics) and carried on
/// the model runtimes' outcomes; serialized inside the `RunRecord` JSONL
/// schema documented in `OBSERVABILITY.md`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunMetrics {
    /// Counters per process, indexed by process id. Sized to the largest
    /// process id observed (posting, firing, deciding, or crashing).
    pub per_process: Vec<ProcessMetrics>,
    /// Pending-pool depth sampled at each scheduler pick.
    pub pending_depth: Histogram,
    /// Message delivery latency in virtual ticks: fire time minus post
    /// time, recorded for every `MessageDelivery` event.
    pub delivery_latency: Histogram,
    /// Operation completion latency in virtual ticks, recorded for every
    /// `OpResponse` event.
    pub op_latency: Histogram,
    /// Virtual decision times across processes (one sample per decision).
    pub decision_latency: Histogram,
    /// Largest number of events simultaneously pending.
    pub peak_pending: u64,
    /// [`RunMetrics::peak_pending`] scaled by the per-event footprint
    /// (metadata plus payload bytes) — the peak memory the pending pool's
    /// element storage reached.
    pub peak_pending_bytes: u64,
}

kset_core::object!(ProcessMetrics {
    events_fired,
    local_steps,
    messages_delivered,
    ops_completed,
    messages_sent,
    ops_issued,
    events_dropped_by_crash,
    decided_at,
});
kset_core::object!(RunMetrics {
    per_process,
    pending_depth,
    delivery_latency,
    op_latency,
    decision_latency,
    peak_pending,
    peak_pending_bytes,
});

impl ToJson for Histogram {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("buckets", &self.buckets)
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish();
    }
}

impl FromJson for Histogram {
    fn from_json(value: &Value) -> Result<Self, json::Error> {
        let f = value.fields()?;
        let buckets: Vec<u64> = f.get("buckets")?;
        if buckets.len() != HISTOGRAM_BUCKETS {
            let len = buckets.len();
            let message = format!("histogram needs {HISTOGRAM_BUCKETS} buckets, not {len}");
            return Err(json::Error::Schema(message));
        }
        let (count, sum, max) = (f.get("count")?, f.get("sum")?, f.get("max")?);
        Ok(Histogram {
            buckets,
            count,
            sum,
            max,
        })
    }
}

impl RunMetrics {
    fn new() -> Self {
        RunMetrics {
            per_process: Vec::new(),
            pending_depth: Histogram::new(),
            delivery_latency: Histogram::new(),
            op_latency: Histogram::new(),
            decision_latency: Histogram::new(),
            peak_pending: 0,
            peak_pending_bytes: 0,
        }
    }

    /// Total messages sent across all processes.
    pub fn total_messages_sent(&self) -> u64 {
        self.per_process.iter().map(|p| p.messages_sent).sum()
    }

    /// Number of processes that decided.
    pub fn decisions(&self) -> u64 {
        self.decision_latency.count()
    }
}

/// Internal collector owned by the kernel when metrics are enabled.
///
/// Separated from [`RunMetrics`] so the serializable output carries no
/// configuration or bookkeeping fields.
#[derive(Debug)]
pub(crate) struct MetricsCollector {
    bytes_per_event: u64,
    metrics: RunMetrics,
}

impl MetricsCollector {
    pub(crate) fn new(bytes_per_event: u64) -> Self {
        MetricsCollector {
            bytes_per_event,
            metrics: RunMetrics::new(),
        }
    }

    /// Starts the collection over for a new run of `n` processes.
    pub(crate) fn reset(&mut self, n: usize) {
        self.metrics = RunMetrics::new();
        self.ensure_processes(n);
    }

    /// Pre-sizes the per-process table so every slot exists even if a
    /// process never triggers a counting event (e.g. only fires local
    /// steps, which attribute nothing on post).
    pub(crate) fn ensure_processes(&mut self, n: usize) {
        if self.metrics.per_process.len() < n {
            self.metrics
                .per_process
                .resize_with(n, ProcessMetrics::default);
        }
    }

    fn proc(&mut self, pid: ProcessId) -> &mut ProcessMetrics {
        if self.metrics.per_process.len() <= pid {
            self.metrics
                .per_process
                .resize_with(pid + 1, ProcessMetrics::default);
        }
        &mut self.metrics.per_process[pid]
    }

    /// Called after an event is appended to the pool.
    pub(crate) fn on_post(&mut self, meta: &EventMeta, pending_len: usize) {
        match meta.kind {
            EventKind::MessageDelivery => {
                if let Some(src) = meta.source {
                    self.proc(src).messages_sent += 1;
                }
            }
            EventKind::OpResponse => self.proc(meta.target).ops_issued += 1,
            EventKind::LocalStep => {}
        }
        let pending = pending_len as u64;
        if pending > self.metrics.peak_pending {
            self.metrics.peak_pending = pending;
            self.metrics.peak_pending_bytes = pending.saturating_mul(self.bytes_per_event);
        }
    }

    /// Called when an event fires. `pending_len` is the pool size the
    /// scheduler chose from; `fired_at` is the post-increment virtual time
    /// (matching [`TraceEntry::fired_at`](crate::TraceEntry)).
    pub(crate) fn on_fire(&mut self, meta: &EventMeta, fired_at: u64, pending_len: usize) {
        self.metrics.pending_depth.record(pending_len as u64);
        let latency = fired_at.saturating_sub(meta.posted_at);
        let p = self.proc(meta.target);
        p.events_fired += 1;
        match meta.kind {
            EventKind::MessageDelivery => {
                p.messages_delivered += 1;
                self.metrics.delivery_latency.record(latency);
            }
            EventKind::OpResponse => {
                p.ops_completed += 1;
                self.metrics.op_latency.record(latency);
            }
            EventKind::LocalStep => p.local_steps += 1,
        }
    }

    /// Called for each pending event removed by a crash cancellation.
    pub(crate) fn on_cancel(&mut self, meta: &EventMeta) {
        self.proc(meta.target).events_dropped_by_crash += 1;
    }

    /// Called when a process irreversibly decides at virtual time `now`.
    pub(crate) fn on_decide(&mut self, pid: ProcessId, now: u64) {
        self.proc(pid).decided_at = Some(now);
        self.metrics.decision_latency.record(now);
    }

    pub(crate) fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_disabled() {
        assert!(!MetricsConfig::default().enabled);
        assert!(MetricsConfig::enabled().enabled);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.sum(), 1049);
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4,7 -> bucket 3;
        // 8 -> bucket 4; 1024 -> bucket 11.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(json::from_str(&json::to_string(&h)), Ok(h));
        for len in [64, 66] {
            let text = format!(
                r#"{{"buckets":{:?},"count":0,"sum":0,"max":0}}"#,
                vec![0; len]
            );
            assert!(json::from_str::<Histogram>(&text).is_err(), "{len} buckets");
        }
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 of 1..=100 is 50; its bucket [32, 63] upper bound is 63.
        assert_eq!(h.quantile(0.5), 63);
        // p100 clamps to the exact max.
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), Histogram::bucket_upper(1));
        assert_eq!(h.mean(), 50);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds_samples() {
        let mut a = Histogram::new();
        a.record(3);
        a.record(9);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 100);
        assert_eq!(a.sum(), 112);
    }

    #[test]
    fn collector_attributes_per_process() {
        let mut c = MetricsCollector::new(16);
        let send = EventMeta::new(EventKind::MessageDelivery, 2).from_process(0);
        c.on_post(&send, 1);
        c.on_fire(&send, 5, 1);
        c.on_decide(2, 5);
        let m = c.metrics();
        assert_eq!(m.per_process[0].messages_sent, 1);
        assert_eq!(m.per_process[2].messages_delivered, 1);
        assert_eq!(m.per_process[2].decided_at, Some(5));
        assert_eq!(m.decision_latency.count(), 1);
        assert_eq!(m.peak_pending, 1);
        assert_eq!(m.peak_pending_bytes, 16);
    }
}
