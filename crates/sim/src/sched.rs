//! Pluggable schedulers: the executable form of the asynchronous adversary.

use crate::deviate::Deviation;
use crate::event::EventMeta;
use crate::state::RunState;

/// The in-tree pseudo-random generator behind [`RandomScheduler`]:
/// Steele, Lea & Flood's SplitMix64.
///
/// Keeping the generator in-tree (rather than delegating to the `rand`
/// crate) makes seeded schedules part of this crate's contract: the exact
/// event sequence produced by a seed never shifts when the dependency
/// graph — or a `rand` major version — changes. Golden values recorded
/// against seeded runs (e.g. the substrate-parity digests in
/// `kset-experiments`) stay valid on every build.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough index into `0..len` for schedule choice; `len` is a
    /// pending-queue length, far below any range where modulo bias matters.
    fn pick_index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "pending is non-empty");
        (self.next_u64() % len as u64) as usize
    }
}

/// Chooses which pending event fires next.
///
/// A scheduler embodies the asynchronous adversary of the paper: it may
/// reorder process steps and message deliveries arbitrarily, but it must pick
/// *some* pending event whenever one exists, which is exactly the "arbitrary
/// but finite delay" assumption.
///
/// Implementations must be deterministic functions of their own state and
/// the arguments; all randomness comes from an internally seeded generator,
/// so that a run is reproducible from its configuration.
pub trait Scheduler {
    /// Returns the index into `pending` of the event to fire next.
    ///
    /// `pending` is never empty. `state` is the adversary-observable run
    /// state (decisions, crashes) — the paper's constructions condition
    /// delivery on decision progress.
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize;

    /// The [`Deviation`] to apply to the event just returned by
    /// [`Scheduler::pick`]; queried by the kernel once per fired event,
    /// immediately after the pick. Schedulers that model only timing (every
    /// scheduler of the crash model) keep the default: deliver faithfully.
    /// Adversary-quantifying schedulers ([`crate::ChoiceScheduler`] under an
    /// active policy, [`crate::ReplayScheduler`] with a deviation script)
    /// override it; wrapper schedulers forward to their inner scheduler.
    fn deviation(&mut self) -> Deviation {
        Deviation::Faithful
    }

    /// A short human-readable label used in traces and experiment reports.
    fn label(&self) -> &'static str {
        "scheduler"
    }

    /// Turns this scheduler, in place, into what
    /// [`RandomScheduler::from_seed`]`(seed)` would be, and returns `true`;
    /// or returns `false` and changes nothing. Only [`RandomScheduler`]
    /// can do it (the default is `false`). [`crate::Session::restart`]
    /// uses it to reseed a recycled session's scheduler without boxing a
    /// new one.
    fn reseed(&mut self, seed: u64) -> bool {
        let _ = seed;
        false
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize {
        (**self).pick(pending, state)
    }

    fn deviation(&mut self) -> Deviation {
        (**self).deviation()
    }

    fn reseed(&mut self, seed: u64) -> bool {
        (**self).reseed(seed)
    }

    fn label(&self) -> &'static str {
        (**self).label()
    }
}

/// A shared scheduler handle. Systems consume their scheduler by value, so a
/// caller that needs to inspect scheduler state *after* the run (a
/// [`crate::ReplayScheduler`]'s divergence count, a
/// [`crate::RecordingScheduler`]'s captured schedule) wraps it in
/// `Rc<RefCell<_>>`, passes a clone to the system, and keeps the other.
impl<S: Scheduler> Scheduler for std::rc::Rc<std::cell::RefCell<S>> {
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize {
        self.borrow_mut().pick(pending, state)
    }

    fn deviation(&mut self) -> Deviation {
        self.borrow_mut().deviation()
    }

    fn label(&self) -> &'static str {
        // Can't borrow through to the inner label without holding the
        // guard beyond the call; a stable marker keeps traces readable.
        "shared"
    }
}

/// Uniformly random schedule from a seed; the workhorse for property tests.
///
/// Two runs with the same seed and the same protocol configuration produce
/// identical executions.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: SplitMix64,
}

impl RandomScheduler {
    /// Creates a scheduler whose choices derive deterministically from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        RandomScheduler {
            rng: SplitMix64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, pending: &[EventMeta], _state: &RunState) -> usize {
        self.rng.pick_index(pending.len())
    }

    fn label(&self) -> &'static str {
        "random"
    }

    fn reseed(&mut self, seed: u64) -> bool {
        self.rng = SplitMix64(seed);
        true
    }
}

/// Oldest-posted-first schedule: the most benign asynchronous execution.
///
/// Useful as a baseline and for protocols whose happy path should terminate
/// in the minimum number of phases.
#[derive(Clone, Copy, Default, Debug)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Creates the FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler
    }
}

impl Scheduler for FifoScheduler {
    fn pick(&mut self, pending: &[EventMeta], _state: &RunState) -> usize {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.id)
            .map(|(i, _)| i)
            .expect("pending is non-empty")
    }

    fn label(&self) -> &'static str {
        "fifo"
    }
}

/// Newest-posted-first schedule: maximally reorders causally unrelated
/// events, a cheap stress test for protocols that accidentally assume FIFO
/// channels.
#[derive(Clone, Copy, Default, Debug)]
pub struct LifoScheduler;

impl LifoScheduler {
    /// Creates the LIFO scheduler.
    pub fn new() -> Self {
        LifoScheduler
    }
}

impl Scheduler for LifoScheduler {
    fn pick(&mut self, pending: &[EventMeta], _state: &RunState) -> usize {
        pending
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| m.id)
            .map(|(i, _)| i)
            .expect("pending is non-empty")
    }

    fn label(&self) -> &'static str {
        "lifo"
    }
}

/// Starves a set of victim processes: their events fire only when nothing
/// else is pending — the canonical "arbitrarily slow process" adversary.
///
/// Unlike a [`crate::DelayRule`], starvation needs no release condition:
/// the victims are simply last in line forever, yet delays stay finite
/// because their events do fire once the rest of the system has quiesced.
/// This is the schedule shape behind every "process `p` is slow until the
/// others decide" step in the paper's proofs.
#[derive(Debug)]
pub struct StarvationScheduler<S> {
    inner: S,
    victims: Vec<usize>,
}

impl<S: Scheduler> StarvationScheduler<S> {
    /// Wraps `inner`, starving `victims`.
    pub fn new(inner: S, victims: Vec<usize>) -> Self {
        StarvationScheduler { inner, victims }
    }

    /// The starved processes.
    pub fn victims(&self) -> &[usize] {
        &self.victims
    }
}

impl<S: Scheduler> Scheduler for StarvationScheduler<S> {
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize {
        let eligible: Vec<usize> = (0..pending.len())
            .filter(|&i| !self.victims.contains(&pending[i].target))
            .collect();
        if eligible.is_empty() {
            return self.inner.pick(pending, state);
        }
        if eligible.len() == pending.len() {
            return self.inner.pick(pending, state);
        }
        let subset: Vec<EventMeta> = eligible.iter().map(|&i| pending[i]).collect();
        let choice = self.inner.pick(&subset, state);
        eligible[choice]
    }

    fn deviation(&mut self) -> Deviation {
        self.inner.deviation()
    }

    fn label(&self) -> &'static str {
        "starvation"
    }
}

/// A priority predicate used by [`ScriptedScheduler`].
///
/// Returns `true` for events this phase wants to fire.
pub type PhasePredicate = Box<dyn FnMut(&EventMeta, &RunState) -> bool>;

/// Fires events phase by phase according to a script of predicates.
///
/// The scheduler repeatedly fires events matching the current phase
/// predicate (oldest first); when no pending event matches, it advances to
/// the next phase. After the script is exhausted it degenerates to FIFO.
/// This gives impossibility re-enactments precise control: "first run group
/// `g` to completion, then release the rest".
pub struct ScriptedScheduler {
    phases: Vec<PhasePredicate>,
    current: usize,
}

impl std::fmt::Debug for ScriptedScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedScheduler")
            .field("phases", &self.phases.len())
            .field("current", &self.current)
            .finish()
    }
}

impl ScriptedScheduler {
    /// Creates a scheduler from an ordered list of phase predicates.
    pub fn new(phases: Vec<PhasePredicate>) -> Self {
        ScriptedScheduler { phases, current: 0 }
    }

    /// Convenience phase: events whose `target` is in `group`.
    pub fn targets_in(group: Vec<usize>) -> PhasePredicate {
        Box::new(move |meta, _| group.contains(&meta.target))
    }

    fn oldest_matching(&mut self, pending: &[EventMeta], state: &RunState) -> Option<usize> {
        while self.current < self.phases.len() {
            let phase = &mut self.phases[self.current];
            let hit = pending
                .iter()
                .enumerate()
                .filter(|(_, m)| phase(m, state))
                .min_by_key(|(_, m)| m.id)
                .map(|(i, _)| i);
            if hit.is_some() {
                return hit;
            }
            self.current += 1;
        }
        None
    }
}

impl Scheduler for ScriptedScheduler {
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize {
        self.oldest_matching(pending, state).unwrap_or_else(|| {
            pending
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.id)
                .map(|(i, _)| i)
                .expect("pending is non-empty")
        })
    }

    fn label(&self) -> &'static str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventId, EventKind};

    fn meta(id: u64, target: usize) -> EventMeta {
        let mut m = EventMeta::new(EventKind::LocalStep, target);
        m.id = EventId(id);
        m
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let pending = vec![meta(0, 0), meta(1, 1), meta(2, 2), meta(3, 0)];
        let state = RunState::new(3);
        let mut a = RandomScheduler::from_seed(42);
        let mut b = RandomScheduler::from_seed(42);
        for _ in 0..32 {
            assert_eq!(a.pick(&pending, &state), b.pick(&pending, &state));
        }
    }

    #[test]
    fn random_scheduler_differs_across_seeds() {
        let pending: Vec<_> = (0..16).map(|i| meta(i, i as usize % 4)).collect();
        let state = RunState::new(4);
        let mut a = RandomScheduler::from_seed(1);
        let mut b = RandomScheduler::from_seed(2);
        let picks_a: Vec<_> = (0..32).map(|_| a.pick(&pending, &state)).collect();
        let picks_b: Vec<_> = (0..32).map(|_| b.pick(&pending, &state)).collect();
        assert_ne!(picks_a, picks_b);
    }

    #[test]
    fn fifo_picks_lowest_id() {
        let pending = vec![meta(5, 0), meta(2, 1), meta(9, 2)];
        let mut s = FifoScheduler::new();
        assert_eq!(s.pick(&pending, &RunState::new(3)), 1);
    }

    #[test]
    fn lifo_picks_highest_id() {
        let pending = vec![meta(5, 0), meta(2, 1), meta(9, 2)];
        let mut s = LifoScheduler::new();
        assert_eq!(s.pick(&pending, &RunState::new(3)), 2);
    }

    #[test]
    fn scripted_runs_phases_then_fifo() {
        // Phase 1: only events targeting process 2; then fall back.
        let mut s = ScriptedScheduler::new(vec![ScriptedScheduler::targets_in(vec![2])]);
        let state = RunState::new(3);
        let pending = vec![meta(0, 0), meta(1, 2), meta(2, 2)];
        assert_eq!(s.pick(&pending, &state), 1); // oldest targeting 2
        let pending = vec![meta(0, 0), meta(2, 2)];
        assert_eq!(s.pick(&pending, &state), 1);
        let pending = vec![meta(0, 0), meta(3, 1)];
        // no event targets 2 anymore: phase exhausted, FIFO takes over
        assert_eq!(s.pick(&pending, &state), 0);
        // and stays FIFO even if a new event for 2 appears later
        let pending = vec![meta(3, 1), meta(4, 2)];
        assert_eq!(s.pick(&pending, &state), 0);
    }

    #[test]
    fn scripted_with_empty_phase_list_is_fifo_from_the_start() {
        // Regression: an empty script must be the documented FIFO fallback,
        // not a panic or an arbitrary pick.
        let mut s = ScriptedScheduler::new(vec![]);
        let state = RunState::new(3);
        let pending = vec![meta(5, 0), meta(2, 1), meta(9, 2)];
        assert_eq!(s.pick(&pending, &state), 1);
        let pending = vec![meta(9, 2), meta(5, 0)];
        assert_eq!(s.pick(&pending, &state), 1);
    }

    #[test]
    fn scripted_phase_matching_nothing_is_skipped_not_wedged() {
        // Regression: a predicate that never matches any pending event must
        // advance past its phase (documented fallback), not starve the run.
        let mut s = ScriptedScheduler::new(vec![
            ScriptedScheduler::targets_in(vec![99]), // matches nothing
            ScriptedScheduler::targets_in(vec![1]),
        ]);
        let state = RunState::new(3);
        let pending = vec![meta(0, 0), meta(1, 1)];
        // Phase 0 matches nothing and is skipped; phase 1 picks target 1.
        assert_eq!(s.pick(&pending, &state), 1);
        // Phase 1 exhausted too: FIFO fallback, still no panic.
        let pending = vec![meta(3, 2), meta(2, 0)];
        assert_eq!(s.pick(&pending, &state), 1);
    }

    #[test]
    fn shared_scheduler_handle_exposes_state_after_use() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // The Rc<RefCell<_>> impl lets a caller keep a handle while the
        // kernel owns "the" scheduler.
        let shared = Rc::new(RefCell::new(FifoScheduler::new()));
        let mut held: Rc<RefCell<FifoScheduler>> = Rc::clone(&shared);
        let pending = vec![meta(5, 0), meta(2, 1)];
        assert_eq!(held.pick(&pending, &RunState::new(2)), 1);
        assert_eq!(held.label(), "shared");
        assert_eq!(Rc::strong_count(&shared), 2);
    }

    #[test]
    fn starvation_defers_victim_events() {
        let mut s = StarvationScheduler::new(FifoScheduler::new(), vec![1]);
        let state = RunState::new(3);
        // Victim's event is older, but the non-victim fires first.
        let pending = vec![meta(0, 1), meta(5, 2)];
        assert_eq!(s.pick(&pending, &state), 1);
        // Only victim events left: they do fire (finite delay).
        let pending = vec![meta(0, 1)];
        assert_eq!(s.pick(&pending, &state), 0);
        assert_eq!(s.victims(), &[1]);
    }

    #[test]
    fn scheduler_labels() {
        assert_eq!(RandomScheduler::from_seed(0).label(), "random");
        assert_eq!(FifoScheduler::new().label(), "fifo");
        assert_eq!(LifoScheduler::new().label(), "lifo");
        assert_eq!(ScriptedScheduler::new(vec![]).label(), "scripted");
        assert_eq!(
            StarvationScheduler::new(FifoScheduler::new(), vec![]).label(),
            "starvation"
        );
    }
}
