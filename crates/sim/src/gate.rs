//! Delay rules and the gated scheduler — executable indistinguishability
//! constructions.
//!
//! Almost every impossibility proof in the paper builds a run by *holding*
//! a class of messages until the run has progressed to a chosen point:
//!
//! > "all messages sent to processes in `g_j` by processes not in `g_j` are
//! > delayed until all processes in `g_j` make a decision" — Lemma 3.3.
//!
//! A [`DelayRule`] is that sentence as a value: a predicate over pending
//! events plus a release condition. [`GatedScheduler`] filters the pending
//! set through the rules and delegates the choice among eligible events to
//! any inner [`Scheduler`]. If *every* pending event is held, the gate
//! expires for that step and the inner scheduler chooses among all pending
//! events — preserving the model's guarantee that delays are finite.

use crate::deviate::Deviation;
use crate::event::{EventMeta, ProcessId};
use crate::sched::Scheduler;
use crate::state::RunState;

/// Release condition of a [`DelayRule`].
#[derive(Clone, Debug)]
pub enum Until {
    /// Hold until every process in the group has decided.
    AllDecided(Vec<ProcessId>),
    /// Hold until every non-faulty process has decided (end of the run for
    /// the purposes of the safety properties).
    AllCorrectDecided,
    /// Never release: the event class is delayed "forever" (in practice,
    /// until the finite-delay fallback fires because nothing else remains).
    Forever,
}

impl Until {
    /// Whether the condition has been reached in `state`.
    pub fn reached(&self, state: &RunState) -> bool {
        match self {
            Until::AllDecided(group) => state.all_decided(group),
            Until::AllCorrectDecided => state.all_correct_decided(),
            Until::Forever => false,
        }
    }
}

/// Event-class predicate used by [`DelayRule`].
pub type EventClass = Box<dyn Fn(&EventMeta) -> bool>;

/// A rule holding a class of events until a release condition is reached.
pub struct DelayRule {
    class: EventClass,
    until: Until,
    expires_at: Option<u64>,
    label: String,
}

impl std::fmt::Debug for DelayRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayRule")
            .field("until", &self.until)
            .field("label", &self.label)
            .finish()
    }
}

impl DelayRule {
    /// Creates a rule holding events matching `class` until `until`.
    pub fn new(label: impl Into<String>, class: EventClass, until: Until) -> Self {
        DelayRule {
            class,
            until,
            expires_at: None,
            label: label.into(),
        }
    }

    /// Caps the rule's lifetime: after virtual time `deadline` the rule
    /// stops holding anything, whether or not its release condition fired.
    ///
    /// This is the finite-delay safety valve for schedules imposed on
    /// *busy-waiting* protocols (register polling, rescanning): such
    /// protocols keep generating fresh non-held events, so the
    /// all-held fallback of [`GatedScheduler`] never engages and an
    /// unreachable release condition would otherwise stall the run
    /// forever. The paper's model only permits finite delays; a deadline
    /// is the honest way to encode "delayed a very long, but finite, time".
    pub fn expires_at(mut self, deadline: u64) -> Self {
        self.expires_at = Some(deadline);
        self
    }

    /// The paper's partition schedule: hold every message entering `group`
    /// from outside until all of `group` has decided.
    ///
    /// This is the building block of the runs in Lemmas 3.3, 3.6, 3.9 and
    /// 3.11 (see also Fig. 3 of the paper).
    pub fn isolate_until_decided(group: Vec<ProcessId>) -> Self {
        let release = group.clone();
        let label = format!("isolate {group:?} until it decides");
        DelayRule::new(
            label,
            Box::new(move |meta: &EventMeta| meta.crosses_into(&group)),
            Until::AllDecided(release),
        )
    }

    /// The Byzantine variant of the partition schedule (Lemmas 3.9, 3.11):
    /// hold every message entering `group` unless it comes from within
    /// `group` or from `allies` (the faulty set `F` the group is allowed to
    /// hear), until all of `group` has decided.
    pub fn isolate_with_allies(group: Vec<ProcessId>, allies: Vec<ProcessId>) -> Self {
        let release = group.clone();
        let label = format!("isolate {group:?} (allies {allies:?}) until it decides");
        DelayRule::new(
            label,
            Box::new(move |meta: &EventMeta| {
                meta.crosses_into(&group)
                    && meta.source.map(|s| !allies.contains(&s)).unwrap_or(false)
            }),
            Until::AllDecided(release),
        )
    }

    /// Holds every event of process `pid` (its own steps and deliveries to
    /// it) until `until`. Realizes "processes in g' do not take any step
    /// until ..." (Lemmas 4.3, 4.9).
    pub fn freeze_process(pid: ProcessId, until: Until) -> Self {
        DelayRule::new(
            format!("freeze p{pid}"),
            Box::new(move |meta: &EventMeta| meta.target == pid),
            until,
        )
    }

    /// Whether this rule currently holds `meta`.
    pub fn holds(&self, meta: &EventMeta, state: &RunState) -> bool {
        if let Some(deadline) = self.expires_at {
            if state.now() >= deadline {
                return false;
            }
        }
        !self.until.reached(state) && (self.class)(meta)
    }

    /// The rule's descriptive label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A scheduler that applies [`DelayRule`]s in front of an inner scheduler.
///
/// Eligible events (held by no rule) are passed to the inner scheduler; when
/// all pending events are held the gate expires for that step, so delays
/// remain finite as the asynchronous model requires.
#[derive(Debug)]
pub struct GatedScheduler<S> {
    inner: S,
    rules: Vec<DelayRule>,
    expiries: u64,
}

impl<S: Scheduler> GatedScheduler<S> {
    /// Wraps `inner` with `rules`.
    pub fn new(inner: S, rules: Vec<DelayRule>) -> Self {
        GatedScheduler {
            inner,
            rules,
            expiries: 0,
        }
    }

    /// Number of times the gate had to expire because every pending event
    /// was held. A successfully staged construction typically shows zero.
    pub fn expiries(&self) -> u64 {
        self.expiries
    }

    /// Read access to the inner scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn held(&self, meta: &EventMeta, state: &RunState) -> bool {
        self.rules.iter().any(|r| r.holds(meta, state))
    }
}

impl<S: Scheduler> Scheduler for GatedScheduler<S> {
    fn pick(&mut self, pending: &[EventMeta], state: &RunState) -> usize {
        let eligible: Vec<usize> = (0..pending.len())
            .filter(|&i| !self.held(&pending[i], state))
            .collect();
        if eligible.is_empty() {
            self.expiries += 1;
            return self.inner.pick(pending, state);
        }
        // Fast path when no rule currently holds anything — skip the
        // subset copy, which dominates for large pending pools.
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
        "gated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventId, EventKind};
    use crate::sched::FifoScheduler;

    fn deliver(id: u64, from: usize, to: usize) -> EventMeta {
        let mut m = EventMeta::new(EventKind::MessageDelivery, to).from_process(from);
        m.id = EventId(id);
        m
    }

    fn step(id: u64, target: usize) -> EventMeta {
        let mut m = EventMeta::new(EventKind::LocalStep, target);
        m.id = EventId(id);
        m
    }

    #[test]
    fn until_conditions() {
        let mut st = RunState::new(3);
        assert!(!Until::AllDecided(vec![0, 1]).reached(&st));
        st.mark_decided(0);
        st.mark_decided(1);
        assert!(Until::AllDecided(vec![0, 1]).reached(&st));
        assert!(!Until::AllCorrectDecided.reached(&st));
        st.mark_crashed(2);
        assert!(Until::AllCorrectDecided.reached(&st));
        assert!(!Until::Forever.reached(&st));
    }

    #[test]
    fn isolate_rule_holds_only_inbound_crossings() {
        let rule = DelayRule::isolate_until_decided(vec![0, 1]);
        let st = RunState::new(4);
        assert!(rule.holds(&deliver(0, 3, 0), &st)); // outside -> in: held
        assert!(!rule.holds(&deliver(1, 0, 1), &st)); // internal: free
        assert!(!rule.holds(&deliver(2, 0, 3), &st)); // outbound: free
        assert!(!rule.holds(&step(3, 0), &st)); // local step: free
    }

    #[test]
    fn isolate_rule_releases_after_decisions() {
        let rule = DelayRule::isolate_until_decided(vec![0, 1]);
        let mut st = RunState::new(4);
        let ev = deliver(0, 3, 0);
        assert!(rule.holds(&ev, &st));
        st.mark_decided(0);
        assert!(rule.holds(&ev, &st));
        st.mark_decided(1);
        assert!(!rule.holds(&ev, &st));
    }

    #[test]
    fn isolate_with_allies_lets_the_faulty_through() {
        let rule = DelayRule::isolate_with_allies(vec![0, 1], vec![4]);
        let st = RunState::new(5);
        assert!(rule.holds(&deliver(0, 3, 0), &st)); // stranger -> in: held
        assert!(!rule.holds(&deliver(1, 4, 0), &st)); // ally -> in: free
        assert!(!rule.holds(&deliver(2, 0, 1), &st)); // internal: free
        assert!(!rule.holds(&step(3, 0), &st)); // local step: free
    }

    #[test]
    fn freeze_process_holds_all_events_for_target() {
        let rule = DelayRule::freeze_process(2, Until::AllDecided(vec![0]));
        let mut st = RunState::new(3);
        assert!(rule.holds(&step(0, 2), &st));
        assert!(rule.holds(&deliver(1, 0, 2), &st));
        assert!(!rule.holds(&step(2, 1), &st));
        st.mark_decided(0);
        assert!(!rule.holds(&step(0, 2), &st));
    }

    #[test]
    fn gated_scheduler_prefers_eligible_events() {
        let rules = vec![DelayRule::isolate_until_decided(vec![0])];
        let mut sched = GatedScheduler::new(FifoScheduler::new(), rules);
        let st = RunState::new(3);
        // Event 0 is held (inbound into {0}); event 1 is eligible.
        let pending = vec![deliver(0, 2, 0), deliver(1, 1, 2)];
        assert_eq!(sched.pick(&pending, &st), 1);
        assert_eq!(sched.expiries(), 0);
    }

    #[test]
    fn gated_scheduler_expires_when_everything_is_held() {
        let rules = vec![DelayRule::new(
            "hold everything",
            Box::new(|_| true),
            Until::Forever,
        )];
        let mut sched = GatedScheduler::new(FifoScheduler::new(), rules);
        let st = RunState::new(2);
        let pending = vec![step(4, 0), step(2, 1)];
        // All held: gate expires and FIFO picks the oldest overall.
        assert_eq!(sched.pick(&pending, &st), 1);
        assert_eq!(sched.expiries(), 1);
    }

    #[test]
    fn rule_labels_describe_the_construction() {
        assert!(DelayRule::isolate_until_decided(vec![1])
            .label()
            .contains("isolate"));
        assert!(DelayRule::freeze_process(3, Until::Forever)
            .label()
            .contains("p3"));
    }
}
