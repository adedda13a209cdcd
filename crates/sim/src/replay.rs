//! Schedule recording and replay.
//!
//! A run is fully determined by the order in which event ids fire, so a
//! recorded id sequence is a portable, minimal witness of a schedule.
//! [`RecordingScheduler`] wraps any scheduler and captures that sequence;
//! [`ReplayScheduler`] plays one back — e.g. to re-examine a violating run
//! found by a seed sweep under tracing, or to pin a regression test to the
//! exact schedule that once broke.
//!
//! Replay is robust to *prefix divergence*: if the replayed protocol no
//! longer produces a recorded id (because the code changed), the replay
//! falls back to oldest-first for that step instead of wedging.

use std::collections::VecDeque;

use crate::deviate::Deviation;
use crate::event::{EventId, EventMeta};
use crate::sched::Scheduler;
use crate::state::RunState;

/// Wraps a scheduler and records the id sequence it fires.
#[derive(Debug)]
pub struct RecordingScheduler<S> {
    inner: S,
    fired: Vec<EventId>,
}

impl<S: Scheduler> RecordingScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        RecordingScheduler {
            inner,
            fired: Vec::new(),
        }
    }

    /// The ids fired so far, in order.
    pub fn recorded(&self) -> &[EventId] {
        &self.fired
    }

    /// Consumes the recorder and returns the full schedule.
    pub fn into_schedule(self) -> Vec<EventId> {
        self.fired
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize {
        let idx = self.inner.pick(pending, state);
        self.fired.push(pending[idx].id);
        idx
    }

    fn deviation(&mut self) -> Deviation {
        self.inner.deviation()
    }

    fn label(&self) -> &'static str {
        "recording"
    }
}

/// Replays a recorded id sequence.
///
/// # Worked example: record → replay → [`ReplayScheduler::divergences`]
///
/// Schedulers are consumed by the kernel, so to read a scheduler's state
/// back *after* the run, wrap it in `Rc<RefCell<_>>` (which also implements
/// [`Scheduler`]) and keep a clone:
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use kset_sim::{
///     EventKind, EventMeta, Kernel, RandomScheduler, RecordingScheduler, ReplayScheduler,
/// };
///
/// let post_workload = |k: &mut Kernel<u32>| {
///     for i in 0..10u32 {
///         k.post(EventMeta::new(EventKind::LocalStep, i as usize % 3), i);
///     }
/// };
///
/// // 1. Record: capture the schedule a random adversary produces.
/// let recorder = Rc::new(RefCell::new(RecordingScheduler::new(
///     RandomScheduler::from_seed(42),
/// )));
/// let mut kernel: Kernel<u32> = Kernel::new(Rc::clone(&recorder));
/// post_workload(&mut kernel);
/// let mut original = Vec::new();
/// while let Some((_, payload)) = kernel.next_event() {
///     original.push(payload);
/// }
/// let schedule = recorder.borrow().recorded().to_vec();
///
/// // 2. Replay: the same workload under the recorded schedule fires the
/// //    same payloads in the same order.
/// let replayer = Rc::new(RefCell::new(ReplayScheduler::new(schedule)));
/// let mut kernel: Kernel<u32> = Kernel::new(Rc::clone(&replayer));
/// post_workload(&mut kernel);
/// let mut replayed = Vec::new();
/// while let Some((_, payload)) = kernel.next_event() {
///     replayed.push(payload);
/// }
/// assert_eq!(original, replayed);
///
/// // 3. Verify the replay was exact: zero divergences means every scripted
/// //    id was found pending when its turn came.
/// assert_eq!(replayer.borrow().divergences(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct ReplayScheduler {
    script: VecDeque<(EventId, Deviation)>,
    last: Deviation,
    divergences: u64,
}

impl ReplayScheduler {
    /// Creates a replayer for `schedule` (as produced by
    /// [`RecordingScheduler::into_schedule`]); every step is delivered
    /// faithfully.
    pub fn new(schedule: impl IntoIterator<Item = EventId>) -> Self {
        Self::with_deviations(schedule.into_iter().map(|id| (id, Deviation::Faithful)))
    }

    /// Creates a replayer for a schedule that pairs each fired id with the
    /// [`Deviation`] applied to it (as produced by
    /// [`crate::ChoiceLog::fired_script`]) — the replay form of a Byzantine
    /// or lossy-network counterexample.
    pub fn with_deviations(schedule: impl IntoIterator<Item = (EventId, Deviation)>) -> Self {
        ReplayScheduler {
            script: schedule.into_iter().collect(),
            last: Deviation::Faithful,
            divergences: 0,
        }
    }

    /// How many times the pending set did not contain the scripted id and
    /// the replay had to fall back to oldest-first. Zero means the replay
    /// was exact.
    pub fn divergences(&self) -> u64 {
        self.divergences
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, pending: &[EventMeta], _state: &RunState) -> usize {
        while let Some(&(next, deviation)) = self.script.front() {
            if let Some(idx) = pending.iter().position(|m| m.id == next) {
                self.script.pop_front();
                self.last = deviation;
                return idx;
            }
            // The scripted event does not exist (yet, or anymore). If it is
            // an id the run has not created yet we must not drop it; but a
            // pending set that cannot contain it means divergence.
            self.divergences += 1;
            self.script.pop_front();
        }
        // Script exhausted: deterministic fallback, delivered faithfully.
        self.last = Deviation::Faithful;
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.id)
            .map(|(i, _)| i)
            .expect("pending is non-empty")
    }

    fn deviation(&mut self) -> Deviation {
        self.last
    }

    fn label(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::kernel::Kernel;
    use crate::sched::RandomScheduler;

    fn run_collect(mut kernel: Kernel<u32>) -> Vec<u32> {
        std::iter::from_fn(|| kernel.next_event().map(|(_, p)| p)).collect()
    }

    fn post_workload(kernel: &mut Kernel<u32>) {
        for i in 0..40u32 {
            kernel.post(EventMeta::new(EventKind::LocalStep, i as usize % 5), i);
        }
    }

    #[test]
    fn record_then_replay_reproduces_the_run_exactly() {
        let recorder = RecordingScheduler::new(RandomScheduler::from_seed(99));
        let mut k: Kernel<u32> = Kernel::new(recorder);
        post_workload(&mut k);
        let mut original = Vec::new();
        let schedule: Vec<EventId> = {
            let mut ids = Vec::new();
            while let Some((meta, p)) = k.next_event() {
                ids.push(meta.id);
                original.push(p);
            }
            ids
        };

        let mut k2: Kernel<u32> = Kernel::new(ReplayScheduler::new(schedule));
        post_workload(&mut k2);
        let replayed = run_collect(k2);
        assert_eq!(original, replayed);
    }

    #[test]
    fn recording_scheduler_captures_fired_ids() {
        let recorder = RecordingScheduler::new(RandomScheduler::from_seed(1));
        let mut k: Kernel<u32> = Kernel::new(recorder);
        post_workload(&mut k);
        let n_fired = run_collect(k).len();
        assert_eq!(n_fired, 40);
    }

    #[test]
    fn replay_diverges_gracefully_on_a_changed_workload() {
        // Script refers to ids the new run never creates.
        let script = vec![EventId(100), EventId(101)];
        let mut k: Kernel<u32> = Kernel::new(ReplayScheduler::new(script));
        k.post(EventMeta::new(EventKind::LocalStep, 0), 7);
        let (_, p) = k.next_event().unwrap();
        assert_eq!(p, 7);
    }

    #[test]
    fn exhausted_script_falls_back_to_fifo() {
        let mut k: Kernel<u32> = Kernel::new(ReplayScheduler::new(Vec::new()));
        k.post(EventMeta::new(EventKind::LocalStep, 0), 1);
        k.post(EventMeta::new(EventKind::LocalStep, 1), 2);
        assert_eq!(k.next_event().unwrap().1, 1);
        assert_eq!(k.next_event().unwrap().1, 2);
    }

    #[test]
    fn labels() {
        assert_eq!(
            RecordingScheduler::new(RandomScheduler::from_seed(0)).label(),
            "recording"
        );
        assert_eq!(ReplayScheduler::new(Vec::new()).label(), "replay");
    }
}
