//! The enumerable scheduler: every pick is an explicit, replayable branch.
//!
//! Ordinary schedulers are *policies* — random, FIFO, scripted. The model
//! checker needs the opposite: a scheduler that exposes the pending-pool
//! decision as data, so an explorer can re-execute a run up to any decision
//! point and systematically try each alternative.
//!
//! [`ChoiceScheduler`] does exactly that. Each call to
//! [`Scheduler::pick`] is one *choice point*:
//!
//! 1. The pending events are put in **canonical order** (ascending
//!    [`EventId`]). Because the kernel is deterministic, a run re-executed
//!    with the same prefix sees byte-identical pending pools, so canonical
//!    indices are a stable coordinate system for schedules.
//! 2. If the scheduler still has prefix entries left, the next entry selects
//!    the canonical index to fire (clamped into range — a prefix is always
//!    safe to replay against a slightly different run).
//! 3. Beyond the prefix, the scheduler fires the default: the lowest-id
//!    pending event, except that events targeting decided or crashed
//!    processes — no-ops for every protocol in this workspace, whose
//!    handlers guard on `has_decided()` — are preferred and marked *forced*
//!    so the explorer does not branch over their interleavings.
//!
//! Every choice point is appended to a shared [`ChoiceLog`]
//! ([`ChoiceScheduler::log_handle`]), which the explorer reads back after
//! the run to enumerate untried alternatives. The log is **flat**: one
//! options arena plus per-point index records, so recording a choice point
//! is a couple of `Vec` pushes into recycled storage instead of an
//! allocation per fired event — the allocation that used to dominate the
//! model checker's hot loop (see `PERFORMANCE.md`).
//!
//! Points *inside* the replayed prefix take a fast path: the explorer never
//! branches there (their alternatives were already enumerated when the
//! prefix was first recorded), so the pick skips the no-op scan, logs no
//! options — [`ChoicePoint::options`] is empty for such points — and
//! replaces the full canonical sort with a rank selection. The taken
//! event's metadata is still recorded per point, so
//! [`ChoicePoint::taken_meta`] and [`ChoiceLog::fired_ids`] work at every
//! depth.

use std::cell::RefCell;
use std::rc::Rc;

use crate::deviate::{Deviation, DeviationPolicy};
use crate::event::{EventId, EventMeta};
use crate::sched::Scheduler;
use crate::state::RunState;

/// One selectable pending event at a choice point, in canonical order.
///
/// Under an active [`DeviationPolicy`], one pending event expands into
/// several consecutive options — its `Faithful` delivery first, then each
/// available deviation in the policy's order — so an explorer branching
/// over option indices quantifies over the adversary's behavior space with
/// no machinery beyond the existing index enumeration. Variants of the same
/// event share `meta` (same id, same target) and are contiguous.
#[derive(Clone, Copy, Debug)]
pub struct ChoiceOption {
    /// The pending event's scheduler-visible metadata.
    pub meta: EventMeta,
    /// Whether firing this event is a protocol no-op: its target has
    /// already decided or crashed, so the handler cannot change state.
    pub noop: bool,
    /// The deviation applied when this option is taken. Always
    /// [`Deviation::Faithful`] without an active policy.
    pub deviation: Deviation,
}

/// The per-point record of the flat log: where the point's options start in
/// the shared arena, which was taken (and its metadata), and whether the
/// pick was forced. In-prefix points log no options — their record spans an
/// empty arena slice — so `meta` is the only per-point copy of the fired
/// event that is guaranteed to exist.
#[derive(Clone, Copy, Debug)]
struct PointRec {
    start: usize,
    taken: usize,
    forced: bool,
    meta: EventMeta,
    deviation: Deviation,
}

/// A borrowed view of one choice point: the canonically-ordered
/// alternatives and which one fired.
#[derive(Clone, Copy, Debug)]
pub struct ChoicePoint<'a> {
    /// The pending events at this point, sorted by ascending [`EventId`].
    /// **Empty for in-prefix points**: the explorer only branches beyond
    /// the replayed prefix, so alternatives inside it are not re-recorded
    /// (see the module documentation).
    pub options: &'a [ChoiceOption],
    /// Canonical index of the event that fired.
    pub taken: usize,
    /// True when the pick was a beyond-prefix no-op preference: the
    /// explorer treats such points as having a single successor.
    pub forced: bool,
    meta: EventMeta,
}

impl ChoicePoint<'_> {
    /// The metadata of the event that fired at this point. Available for
    /// every point, including in-prefix ones whose `options` are empty.
    pub fn taken_meta(&self) -> EventMeta {
        self.meta
    }
}

/// The recorded sequence of choice points of one run, stored flat: all
/// points' options live in one arena vector, so a cleared log retains its
/// capacity and recording a run allocates nothing in the steady state.
#[derive(Clone, Debug, Default)]
pub struct ChoiceLog {
    options: Vec<ChoiceOption>,
    points: Vec<PointRec>,
}

impl ChoiceLog {
    /// Number of recorded choice points (= fired events).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no choice point was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The `i`-th choice point, as a borrowed view into the arena.
    pub fn point(&self, i: usize) -> ChoicePoint<'_> {
        let rec = self.points[i];
        let end = self
            .points
            .get(i + 1)
            .map_or(self.options.len(), |next| next.start);
        ChoicePoint {
            options: &self.options[rec.start..end],
            taken: rec.taken,
            forced: rec.forced,
            meta: rec.meta,
        }
    }

    /// The canonical index taken at point `i`.
    pub fn taken(&self, i: usize) -> usize {
        self.points[i].taken
    }

    /// Clears the recorded points, keeping the arena capacity for reuse.
    pub fn clear(&mut self) {
        self.options.clear();
        self.points.clear();
    }

    /// Truncates the log to its first `len` points, dropping the options
    /// recorded at every later point. A no-op when `len` is not smaller
    /// than the current length.
    ///
    /// This is the forking executor's rewind: when a run resumes from a
    /// snapshot taken at depth `d`, the first `d` points of the previous
    /// run are — by the depth-first stack discipline — exactly the resumed
    /// run's shared history, so the log is cut back to them and recording
    /// continues in place.
    pub fn truncate(&mut self, len: usize) {
        if len < self.points.len() {
            let start = self.points[len].start;
            self.points.truncate(len);
            self.options.truncate(start);
        }
    }

    /// The canonical index taken at every point — the full schedule of the
    /// run as a prefix that replays it exactly.
    pub fn taken_indices(&self) -> Vec<usize> {
        self.points.iter().map(|p| p.taken).collect()
    }

    /// The ids fired, in order — a [`crate::ReplayScheduler`] script.
    pub fn fired_ids(&self) -> Vec<EventId> {
        self.points.iter().map(|p| p.meta.id).collect()
    }

    /// The ids fired paired with the deviation applied to each — the script
    /// form of a run under an active [`DeviationPolicy`], replayable with
    /// [`crate::ReplayScheduler::with_deviations`].
    pub fn fired_script(&self) -> Vec<(EventId, Deviation)> {
        self.points
            .iter()
            .map(|p| (p.meta.id, p.deviation))
            .collect()
    }
}

/// A scheduler driven by an explicit prefix of canonical choice indices.
///
/// See the module documentation for the exploration contract. The log is
/// shared via `Rc<RefCell<_>>` because the scheduler itself is consumed by
/// the kernel; callers keep [`ChoiceScheduler::log_handle`] to read the
/// decisions back after the run.
#[derive(Debug)]
pub struct ChoiceScheduler {
    prefix: Vec<usize>,
    step: usize,
    prefer_noops: bool,
    /// Scratch for the canonical permutation, reused across picks so the
    /// model checker's millions of re-executions don't pay one allocation
    /// per fired event. Each element packs `(event id << 16) | pool index`
    /// so the canonical sort compares plain integers instead of chasing
    /// `pending[i].id` through the pool on every comparison; ids are
    /// unique, so packed order equals id order.
    canonical: Vec<u64>,
    /// The adversary behavior space, when quantifying beyond the crash
    /// model. `None` (and any inactive policy) takes exactly the historical
    /// code paths, preserving crash-model output byte for byte.
    policy: Option<DeviationPolicy>,
    /// Scratch for the expanded in-prefix option list under an active
    /// policy: `(pool index, deviation)` per option, in canonical order.
    expanded: Vec<(u16, Deviation)>,
    /// The deviation of the most recent pick, handed to the kernel via
    /// [`Scheduler::deviation`].
    last: Deviation,
    log: Rc<RefCell<ChoiceLog>>,
}

impl ChoiceScheduler {
    /// A scheduler that follows `prefix` and then fires defaults.
    pub fn new(prefix: Vec<usize>) -> Self {
        Self::with_log(prefix, ChoiceLog::default())
    }

    /// Like [`ChoiceScheduler::new`], recording into a recycled log whose
    /// arena capacity is reused (the log is cleared first). This is the
    /// model checker's entry point: one log per worker, reset per run.
    pub fn with_log(prefix: Vec<usize>, mut log: ChoiceLog) -> Self {
        log.clear();
        ChoiceScheduler {
            prefix,
            step: 0,
            prefer_noops: true,
            canonical: Vec::new(),
            policy: None,
            expanded: Vec::new(),
            last: Deviation::Faithful,
            log: Rc::new(RefCell::new(log)),
        }
    }

    /// Disables the beyond-prefix no-op preference (builder style); defaults
    /// then always fire the lowest-id event. Used by `--no-por` checker
    /// modes that want the raw, unreduced schedule tree.
    pub fn prefer_noops(mut self, yes: bool) -> Self {
        self.prefer_noops = yes;
        self
    }

    /// Installs a [`DeviationPolicy`] (builder style): each pick then
    /// enumerates the event's available deviations as additional,
    /// contiguous options (see [`ChoiceOption`]). An inactive policy — or
    /// `None` — leaves every code path exactly as it was, so crash-model
    /// exploration is unaffected byte for byte.
    pub fn with_policy(mut self, policy: Option<DeviationPolicy>) -> Self {
        self.set_policy(policy);
        self
    }

    /// [`ChoiceScheduler::with_policy`] in place, for a scheduler already
    /// shared with a kernel (the forking executor installs its session's
    /// policy this way). Takes effect from the next pick.
    pub fn set_policy(&mut self, policy: Option<DeviationPolicy>) {
        self.policy = policy.filter(DeviationPolicy::is_active);
    }

    /// A handle on the shared log, kept by the caller across the run.
    pub fn log_handle(&self) -> Rc<RefCell<ChoiceLog>> {
        Rc::clone(&self.log)
    }

    /// Rewinds the scheduler onto a new prefix with `step` picks already
    /// consumed, returning the previous prefix for buffer reuse.
    ///
    /// The forking executor's companion to [`ChoiceLog::truncate`]: after a
    /// snapshot restore at depth `d`, the scheduler is handed the resumed
    /// run's full prefix with `step = d`, so its next pick replays
    /// `prefix[d]` as an in-prefix rank selection — exactly what a
    /// from-the-root replay of the same prefix would do at that point. The
    /// shared log is left untouched; truncate it separately.
    pub fn rewind(&mut self, prefix: Vec<usize>, step: usize) -> Vec<usize> {
        self.step = step;
        std::mem::replace(&mut self.prefix, prefix)
    }
}

impl Scheduler for ChoiceScheduler {
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize {
        let mut log = self.log.borrow_mut();
        let start = log.options.len();
        debug_assert!(pending.len() < 1 << 16, "pool index must fit the packing");
        let canonical = &mut self.canonical;
        canonical.clear();
        canonical.extend(pending.iter().enumerate().map(|(i, m)| {
            debug_assert!(m.id.as_u64() < 1 << 48, "event id must fit the packing");
            (m.id.as_u64() << 16) | i as u64
        }));

        let (taken, forced, idx, deviation) = match (&self.policy, self.step < self.prefix.len()) {
            (None, true) => {
                // Replay fast path. The explorer only branches *beyond* the
                // prefix (in-prefix alternatives were enumerated when the
                // prefix was first recorded), so there is nothing to log here
                // beyond the taken event itself, and no full sort is needed:
                // a rank selection finds the `prefix[step]`-th smallest id.
                let taken = self.prefix[self.step].min(pending.len() - 1);
                let (_, &mut key, _) = canonical.select_nth_unstable(taken);
                (taken, false, (key & 0xffff) as usize, Deviation::Faithful)
            }
            (None, false) => {
                // Canonical order: pending indices sorted by event id. The
                // permutation lives in a reused scratch buffer, and the
                // options are appended directly to the flat log's arena — no
                // per-pick allocation anywhere on this path.
                canonical.sort_unstable();
                log.options.extend(canonical.iter().map(|&key| {
                    let meta = pending[(key & 0xffff) as usize];
                    ChoiceOption {
                        meta,
                        noop: state.has_decided(meta.target) || state.has_crashed(meta.target),
                        deviation: Deviation::Faithful,
                    }
                }));
                let options = &log.options[start..];
                let (taken, forced) = if self.prefer_noops {
                    match options.iter().position(|o| o.noop) {
                        Some(i) => (i, true),
                        None => (0, false),
                    }
                } else {
                    (0, false)
                };
                (
                    taken,
                    forced,
                    (canonical[taken] & 0xffff) as usize,
                    Deviation::Faithful,
                )
            }
            (Some(policy), in_prefix) => {
                // Active adversary space: every pending event expands into
                // its deviation variants (Faithful first, then the policy's
                // menu), in canonical event order with variants contiguous.
                // Option indices — including prefix entries — address this
                // expanded list, so the explorer's index enumeration
                // quantifies over schedules and deviations at once.
                canonical.sort_unstable();
                if in_prefix {
                    // In-prefix points log no options; the expansion is
                    // rebuilt into scratch to interpret the prefix entry.
                    let expanded = &mut self.expanded;
                    expanded.clear();
                    for &key in canonical.iter() {
                        let i = (key & 0xffff) as usize;
                        let meta = pending[i];
                        let noop = state.has_decided(meta.target) || state.has_crashed(meta.target);
                        policy.for_each_deviation(&meta, noop, state, |d| {
                            expanded.push((i as u16, d));
                        });
                    }
                    let taken = self.prefix[self.step].min(expanded.len() - 1);
                    let (i, d) = expanded[taken];
                    (taken, false, i as usize, d)
                } else {
                    for &key in canonical.iter() {
                        let i = (key & 0xffff) as usize;
                        let meta = pending[i];
                        let noop = state.has_decided(meta.target) || state.has_crashed(meta.target);
                        policy.for_each_deviation(&meta, noop, state, |d| {
                            log.options.push(ChoiceOption {
                                meta,
                                noop,
                                deviation: d,
                            });
                        });
                    }
                    let options = &log.options[start..];
                    let (taken, forced) = if self.prefer_noops {
                        match options.iter().position(|o| o.noop) {
                            Some(i) => (i, true),
                            None => (0, false),
                        }
                    } else {
                        (0, false)
                    };
                    let opt = options[taken];
                    let idx = pending
                        .iter()
                        .position(|m| m.id == opt.meta.id)
                        .expect("option meta comes from the pending pool");
                    (taken, forced, idx, opt.deviation)
                }
            }
        };
        self.step += 1;
        self.last = deviation;
        log.points.push(PointRec {
            start,
            taken,
            forced,
            meta: pending[idx],
            deviation,
        });
        idx
    }

    fn deviation(&mut self) -> Deviation {
        self.last
    }

    fn label(&self) -> &'static str {
        "choice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventMeta};
    use crate::kernel::Kernel;

    fn post_three(kernel: &mut Kernel<u32>) {
        for (i, target) in [(0u32, 0usize), (1, 1), (2, 2)] {
            kernel.post(EventMeta::new(EventKind::LocalStep, target), i);
        }
    }

    #[test]
    fn empty_prefix_fires_in_canonical_order() {
        let sched = ChoiceScheduler::new(Vec::new());
        let log = sched.log_handle();
        let mut k: Kernel<u32> = Kernel::new(sched);
        post_three(&mut k);
        let fired: Vec<u32> = std::iter::from_fn(|| k.next_event().map(|(_, p)| p)).collect();
        assert_eq!(fired, vec![0, 1, 2]);
        let log = log.borrow();
        assert_eq!(log.taken_indices(), vec![0, 0, 0]);
        assert_eq!(log.point(0).options.len(), 3);
        assert!((0..log.len()).all(|i| !log.point(i).forced));
    }

    #[test]
    fn prefix_selects_canonical_alternatives() {
        // Fire the newest event first, then defaults.
        let sched = ChoiceScheduler::new(vec![2]);
        let log = sched.log_handle();
        let mut k: Kernel<u32> = Kernel::new(sched);
        post_three(&mut k);
        let fired: Vec<u32> = std::iter::from_fn(|| k.next_event().map(|(_, p)| p)).collect();
        assert_eq!(fired, vec![2, 0, 1]);
        assert_eq!(log.borrow().taken_indices(), vec![2, 0, 0]);
    }

    #[test]
    fn in_prefix_points_log_metadata_but_no_options() {
        let sched = ChoiceScheduler::new(vec![2, 0]);
        let log = sched.log_handle();
        let mut k: Kernel<u32> = Kernel::new(sched);
        post_three(&mut k);
        while k.next_event().is_some() {}
        let log = log.borrow();
        // The two in-prefix points skip option recording; the first
        // beyond-prefix point still records its full pending pool.
        assert!(log.point(0).options.is_empty());
        assert!(log.point(1).options.is_empty());
        assert_eq!(log.point(2).options.len(), 1);
        // Metadata of the fired event survives at every depth.
        let ids = log.fired_ids();
        assert_eq!(ids.len(), 3);
        assert_eq!(log.point(0).taken_meta().id, ids[0]);
        assert_eq!(log.point(2).taken_meta().id, ids[2]);
    }

    #[test]
    fn out_of_range_prefix_entries_clamp() {
        let sched = ChoiceScheduler::new(vec![99, 99, 99]);
        let mut k: Kernel<u32> = Kernel::new(sched);
        post_three(&mut k);
        let fired: Vec<u32> = std::iter::from_fn(|| k.next_event().map(|(_, p)| p)).collect();
        // Each entry clamps to the last canonical index.
        assert_eq!(fired, vec![2, 1, 0]);
    }

    #[test]
    fn same_prefix_replays_identically() {
        let run = |prefix: Vec<usize>| {
            let sched = ChoiceScheduler::new(prefix);
            let log = sched.log_handle();
            let mut k: Kernel<u32> = Kernel::new(sched);
            post_three(&mut k);
            while k.next_event().is_some() {}
            let ids = log.borrow().fired_ids();
            ids
        };
        assert_eq!(run(vec![1, 1]), run(vec![1, 1]));
        assert_ne!(run(vec![1, 1]), run(vec![0, 0]));
    }

    #[test]
    fn decided_targets_are_marked_noop_and_preferred() {
        let sched = ChoiceScheduler::new(Vec::new());
        let log = sched.log_handle();
        let mut k: Kernel<u32> = Kernel::with_processes(sched, 3);
        post_three(&mut k);
        k.state_mut().mark_decided(2);
        // The event for decided process 2 (canonical index 2) fires first,
        // as a forced no-op.
        let (_, p) = k.next_event().unwrap();
        assert_eq!(p, 2);
        let log = log.borrow();
        let first = log.point(0);
        assert!(first.forced);
        assert_eq!(first.taken, 2);
        assert!(first.options[2].noop);
        assert!(!first.options[0].noop);
    }

    #[test]
    fn noop_preference_can_be_disabled() {
        let sched = ChoiceScheduler::new(Vec::new()).prefer_noops(false);
        let mut k: Kernel<u32> = Kernel::with_processes(sched, 3);
        post_three(&mut k);
        k.state_mut().mark_decided(2);
        let (_, p) = k.next_event().unwrap();
        assert_eq!(p, 0);
    }

    #[test]
    fn recycled_log_is_cleared_but_keeps_recording() {
        let sched = ChoiceScheduler::new(vec![1]);
        let log_handle = sched.log_handle();
        let mut k: Kernel<u32> = Kernel::new(sched);
        post_three(&mut k);
        while k.next_event().is_some() {}
        let first_ids = log_handle.borrow().fired_ids();
        drop(k); // the kernel owns the scheduler, which shares the log
        let recycled = std::rc::Rc::try_unwrap(log_handle).unwrap().into_inner();

        let sched = ChoiceScheduler::with_log(vec![1], recycled);
        let log_handle = sched.log_handle();
        let mut k: Kernel<u32> = Kernel::new(sched);
        post_three(&mut k);
        while k.next_event().is_some() {}
        assert_eq!(log_handle.borrow().fired_ids(), first_ids);
        assert_eq!(log_handle.borrow().len(), 3);
    }

    #[test]
    fn label() {
        assert_eq!(ChoiceScheduler::new(Vec::new()).label(), "choice");
    }
}
