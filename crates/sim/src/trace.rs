//! Run traces and aggregate statistics.

use crate::event::{EventId, EventKind, ProcessId};

/// One fired event, as recorded in a [`Trace`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    /// Virtual time at which the event fired (its position in the schedule).
    pub fired_at: u64,
    /// Identifier of the event.
    pub id: EventId,
    /// Classification of the event.
    pub kind: EventKind,
    /// Process that took the step.
    pub target: ProcessId,
    /// Causing process, if any.
    pub source: Option<ProcessId>,
}

/// A bounded record of the schedule a run followed.
///
/// Traces make failed property-test cases reproducible *and* readable: the
/// counterexample binaries print them to show exactly which partition
/// schedule produced a violation. Recording can be disabled (capacity 0) for
/// benchmark runs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace keeping at most `capacity` entries (older entries win).
    ///
    /// Capacity 0 produces a disabled trace: the kernel's hot loop checks
    /// [`Trace::is_enabled`] and skips entry construction *and*
    /// [`Trace::record`] entirely, so a capacity-0 trace observes nothing —
    /// not even its [`Trace::dropped`] counter moves during a run. (Direct
    /// `record` calls on a full or disabled trace still count as dropped.)
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            entries: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// A trace that records nothing (for benchmarks); equivalent to
    /// [`Trace::with_capacity`] with capacity 0.
    pub fn disabled() -> Self {
        Trace::with_capacity(0)
    }

    /// True when recording is enabled (capacity above 0). The kernel hot
    /// loop consults this before building a [`TraceEntry`], making a
    /// disabled trace a true no-op rather than a record-then-drop.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends an entry, dropping it if the trace is full.
    pub fn record(&mut self, entry: TraceEntry) {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.dropped += 1;
        }
    }

    /// Forgets every entry and the dropped count, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }

    /// Recorded entries, in firing order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of events that fired but were not recorded for lack of space.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Trace {
    /// Renders the trace as a per-process timeline, one lane per process —
    /// the textual analogue of the run diagrams in the paper's proofs
    /// (Fig. 3). `s` marks a local step, `d` a message delivery (annotated
    /// with the sender), `o` an operation response; time flows downward.
    ///
    /// Intended for small staged runs; long traces render long tables.
    pub fn render_timeline(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{:>6} ", "t");
        for p in 0..n {
            let _ = write!(out, "{:^7}", format!("p{p}"));
        }
        out.push('\n');
        for entry in &self.entries {
            if entry.target >= n {
                continue;
            }
            let _ = write!(out, "{:>6} ", entry.fired_at);
            for p in 0..n {
                if p == entry.target {
                    let cell = match (entry.kind, entry.source) {
                        (EventKind::MessageDelivery, Some(src)) => format!("d<p{src}"),
                        (EventKind::MessageDelivery, None) => "d".into(),
                        (EventKind::OpResponse, _) => "o".into(),
                        (EventKind::LocalStep, _) => "s".into(),
                    };
                    let _ = write!(out, "{cell:^7}");
                } else {
                    let _ = write!(out, "{:^7}", "|");
                }
            }
            out.push('\n');
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "... ({} more events not recorded)", self.dropped);
        }
        out
    }
}

/// Aggregate counters of a run, used by benches and EXPERIMENTS.md.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RunStats {
    /// Total events fired.
    pub events_fired: u64,
    /// Point-to-point messages delivered.
    pub messages_delivered: u64,
    /// Shared-memory operations completed.
    pub ops_completed: u64,
    /// Local steps taken.
    pub local_steps: u64,
    /// Events discarded because their target had crashed.
    pub events_dropped_by_crash: u64,
}

kset_core::object!(RunStats {
    events_fired,
    messages_delivered,
    ops_completed,
    local_steps,
    events_dropped_by_crash,
});

impl RunStats {
    /// Updates the counters for one fired event of `kind`.
    pub fn count(&mut self, kind: EventKind) {
        self.events_fired += 1;
        match kind {
            EventKind::MessageDelivery => self.messages_delivered += 1,
            EventKind::OpResponse => self.ops_completed += 1,
            EventKind::LocalStep => self.local_steps += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64) -> TraceEntry {
        TraceEntry {
            fired_at: t,
            id: EventId(t),
            kind: EventKind::LocalStep,
            target: 0,
            source: None,
        }
    }

    #[test]
    fn trace_respects_capacity() {
        let mut tr = Trace::with_capacity(2);
        tr.record(entry(0));
        tr.record(entry(1));
        tr.record(entry(2));
        assert_eq!(tr.entries().len(), 2);
        assert_eq!(tr.dropped(), 1);
        assert_eq!(tr.entries()[0].fired_at, 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        assert!(!tr.is_enabled());
        assert!(Trace::with_capacity(0) == Trace::disabled());
        assert!(Trace::with_capacity(1).is_enabled());
        tr.record(entry(0));
        assert!(tr.entries().is_empty());
        assert_eq!(tr.dropped(), 1);
    }

    #[test]
    fn timeline_renders_lanes_and_kinds() {
        let mut tr = Trace::with_capacity(8);
        tr.record(TraceEntry {
            fired_at: 1,
            id: EventId(0),
            kind: EventKind::LocalStep,
            target: 0,
            source: None,
        });
        tr.record(TraceEntry {
            fired_at: 2,
            id: EventId(1),
            kind: EventKind::MessageDelivery,
            target: 2,
            source: Some(0),
        });
        tr.record(TraceEntry {
            fired_at: 3,
            id: EventId(2),
            kind: EventKind::OpResponse,
            target: 1,
            source: None,
        });
        let art = tr.render_timeline(3);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines[0].contains("p0") && lines[0].contains("p2"));
        assert!(lines[1].contains('s'));
        assert!(lines[2].contains("d<p0"));
        assert!(lines[3].contains('o'));
    }

    #[test]
    fn timeline_notes_dropped_entries() {
        let mut tr = Trace::with_capacity(1);
        for t in 0..3 {
            tr.record(entry(t));
        }
        let art = tr.render_timeline(1);
        assert!(art.contains("2 more events not recorded"));
    }

    #[test]
    fn stats_count_by_kind() {
        let mut s = RunStats::default();
        s.count(EventKind::MessageDelivery);
        s.count(EventKind::MessageDelivery);
        s.count(EventKind::OpResponse);
        s.count(EventKind::LocalStep);
        assert_eq!(s.events_fired, 4);
        assert_eq!(s.messages_delivered, 2);
        assert_eq!(s.ops_completed, 1);
        assert_eq!(s.local_steps, 1);
    }
}
