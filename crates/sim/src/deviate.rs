//! Enumerable adversary deviations: the bounded-Byzantine and lossy-network
//! behavior space.
//!
//! The crash checker quantifies over *schedules* (who fires when) and
//! *crash patterns* (who halts after how many actions). The Byzantine and
//! lossy-network models add a third axis: *what happens to an event when it
//! fires*. This module makes that axis enumerable and finite, so the model
//! checker's existing machinery — DFS over choice points, sleep-set
//! partial-order reduction, digest deduplication, counterexample shrinking —
//! quantifies over it unchanged.
//!
//! A [`Deviation`] is the per-fired-event verb: deliver the event as the
//! protocol produced it ([`Deviation::Faithful`]), deliver a corrupted value
//! from a small menu drawn from the proposal domain ([`Deviation::Forge`]),
//! or suppress the delivery entirely ([`Deviation::Drop`]). A
//! [`DeviationPolicy`] says which verbs are available where:
//!
//! * **Byzantine** policies allow `Forge` and (optionally) `Drop` on events
//!   *sourced from* a process marked Byzantine in the [`crate::RunState`]
//!   and delivered to a correct process. Because the deviation is chosen per
//!   delivery, one Byzantine sender naturally *equivocates*: the same
//!   broadcast can arrive faithful at one recipient, forged at another, and
//!   be withheld from a third — exactly the power the paper's Byzantine
//!   adversary has.
//! * **Lossy-network** policies allow `Drop` on any message between two
//!   distinct correct processes, up to a global budget of lost messages.
//!   (An unbounded lossy network trivially forfeits termination; the budget
//!   keeps the space finite and the certified statement meaningful.)
//!
//! Deviations are applied at *delivery* time, not at send time. This keeps
//! the branch structure aligned with the existing choice points — one
//! scheduler pick per fired event — so state digests, partial-order
//! reduction and prefix replay need no new bookkeeping. An inactive policy
//! (no menu, no silence, no loss budget) produces exactly the crash-only
//! branch structure, byte for byte.

use crate::event::{EventKind, EventMeta};
use crate::state::RunState;

/// What the adversary does with one fired event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Deviation {
    /// Deliver the event exactly as produced — the only verb of the crash
    /// model, and the default of every scheduler that predates this axis.
    #[default]
    Faithful,
    /// Deliver the event with its value replaced by the given one (a
    /// corruption drawn from the policy's menu). Only offered on events
    /// sourced from a Byzantine process.
    Forge(u64),
    /// Suppress the delivery: the event is consumed but no handler runs.
    /// Offered for Byzantine selective silence and for lossy networks.
    Drop,
}

impl std::fmt::Display for Deviation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Deviation::Faithful => f.write_str("faithful"),
            Deviation::Forge(v) => write!(f, "forge:{v}"),
            Deviation::Drop => f.write_str("drop"),
        }
    }
}

/// The deviation verbs available in a run, and where they apply.
///
/// Constructed per crash/Byzantine pattern by the model checker and handed
/// to [`crate::ChoiceScheduler::with_policy`]. An inactive policy (see
/// [`DeviationPolicy::is_active`]) is behaviorally identical to no policy.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DeviationPolicy {
    /// Values a Byzantine sender may substitute for a real one. Kept small
    /// (the paper's arguments need only values from the proposal domain);
    /// every menu entry multiplies the branching factor of every
    /// Byzantine-sourced delivery.
    pub menu: Vec<u64>,
    /// Whether a Byzantine sender may also withhold its messages entirely
    /// (selective silence toward any subset of recipients).
    pub silence: bool,
    /// Total number of messages between *correct* processes the network may
    /// lose. Zero means the network is reliable.
    pub loss_budget: u64,
}

impl DeviationPolicy {
    /// A Byzantine behavior space: forge values from `menu`, optionally
    /// stay selectively silent.
    pub fn byzantine(menu: Vec<u64>, silence: bool) -> Self {
        DeviationPolicy {
            menu,
            silence,
            loss_budget: 0,
        }
    }

    /// A lossy-network space: up to `loss_budget` messages between correct
    /// processes are dropped; no Byzantine deviations.
    pub fn lossy(loss_budget: u64) -> Self {
        DeviationPolicy {
            menu: Vec::new(),
            silence: false,
            loss_budget,
        }
    }

    /// Whether this policy enables any deviation at all. An inactive policy
    /// must be (and is, pinned by the parity suite) byte-identical in every
    /// observable — verdicts, counters, counterexamples — to running with
    /// no policy.
    pub fn is_active(&self) -> bool {
        !self.menu.is_empty() || self.silence || self.loss_budget > 0
    }

    /// Whether `meta` is an event a Byzantine adversary may tamper with:
    /// a non-local event sourced from a Byzantine process and delivered to
    /// a distinct correct process. Deliveries *between* Byzantine processes
    /// are left faithful — they cannot affect correct processes' views, so
    /// branching over them would only inflate the space.
    pub fn byz_eligible(meta: &EventMeta, state: &RunState) -> bool {
        meta.kind != EventKind::LocalStep
            && meta.source.is_some_and(|s| {
                state.is_byzantine(s) && s != meta.target && !state.is_byzantine(meta.target)
            })
    }

    /// Whether `meta` may be dropped under this policy in `state`.
    fn drop_eligible(&self, meta: &EventMeta, state: &RunState) -> bool {
        if meta.kind != EventKind::MessageDelivery {
            // Shared-memory operation responses cannot be "lost": the
            // register operation already linearized when it was issued, and
            // a correct process blocks on its response. Byzantine influence
            // on shared memory flows through forged read responses instead.
            return false;
        }
        if Self::byz_eligible(meta, state) {
            return self.silence;
        }
        self.loss_budget > state.drops() && meta.source.is_some_and(|s| s != meta.target)
    }

    /// Enumerates the deviations available for one pending event, in the
    /// canonical order the choice points expose them: `Faithful` first,
    /// then each `Forge` in menu order, then `Drop`. No-op events (their
    /// target already decided or crashed) only ever fire faithfully — a
    /// deviation there could not change any state.
    pub fn for_each_deviation(
        &self,
        meta: &EventMeta,
        noop: bool,
        state: &RunState,
        mut f: impl FnMut(Deviation),
    ) {
        f(Deviation::Faithful);
        if noop {
            return;
        }
        if Self::byz_eligible(meta, state) {
            for &v in &self.menu {
                f(Deviation::Forge(v));
            }
        }
        if self.drop_eligible(meta, state) {
            f(Deviation::Drop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;

    fn deliver(from: usize, to: usize) -> EventMeta {
        let mut m = EventMeta::new(EventKind::MessageDelivery, to).from_process(from);
        m.id = EventId(7);
        m
    }

    fn variants(
        policy: &DeviationPolicy,
        meta: &EventMeta,
        noop: bool,
        state: &RunState,
    ) -> Vec<Deviation> {
        let mut out = Vec::new();
        policy.for_each_deviation(meta, noop, state, |d| out.push(d));
        out
    }

    #[test]
    fn inactive_policy_offers_only_faithful() {
        let policy = DeviationPolicy::default();
        assert!(!policy.is_active());
        let mut state = RunState::new(3);
        state.mark_byzantine(0);
        assert_eq!(
            variants(&policy, &deliver(0, 1), false, &state),
            vec![Deviation::Faithful]
        );
    }

    #[test]
    fn byzantine_policy_expands_byz_sourced_deliveries_only() {
        let policy = DeviationPolicy::byzantine(vec![5, 9], true);
        assert!(policy.is_active());
        let mut state = RunState::new(3);
        state.mark_byzantine(0);
        // Byzantine source, correct target: full menu plus silence.
        assert_eq!(
            variants(&policy, &deliver(0, 1), false, &state),
            vec![
                Deviation::Faithful,
                Deviation::Forge(5),
                Deviation::Forge(9),
                Deviation::Drop,
            ]
        );
        // Correct source: faithful only.
        assert_eq!(
            variants(&policy, &deliver(1, 2), false, &state),
            vec![Deviation::Faithful]
        );
        // Byzantine target: faithful only (tampering is unobservable).
        state.mark_byzantine(2);
        assert_eq!(
            variants(&policy, &deliver(0, 2), false, &state),
            vec![Deviation::Faithful]
        );
    }

    #[test]
    fn noop_events_never_deviate() {
        let policy = DeviationPolicy::byzantine(vec![5], true);
        let mut state = RunState::new(3);
        state.mark_byzantine(0);
        assert_eq!(
            variants(&policy, &deliver(0, 1), true, &state),
            vec![Deviation::Faithful]
        );
    }

    #[test]
    fn local_steps_never_deviate() {
        let policy = DeviationPolicy::byzantine(vec![5], true);
        let mut state = RunState::new(2);
        state.mark_byzantine(0);
        let step = EventMeta::new(EventKind::LocalStep, 1);
        assert_eq!(
            variants(&policy, &step, false, &state),
            vec![Deviation::Faithful]
        );
    }

    #[test]
    fn lossy_policy_respects_the_budget() {
        let policy = DeviationPolicy::lossy(1);
        assert!(policy.is_active());
        let mut state = RunState::new(3);
        assert_eq!(
            variants(&policy, &deliver(0, 1), false, &state),
            vec![Deviation::Faithful, Deviation::Drop]
        );
        state.charge_drop();
        assert_eq!(
            variants(&policy, &deliver(0, 1), false, &state),
            vec![Deviation::Faithful]
        );
    }

    #[test]
    fn op_responses_are_never_dropped() {
        let policy = DeviationPolicy::byzantine(vec![5], true);
        let mut state = RunState::new(3);
        state.mark_byzantine(0);
        let mut op = EventMeta::new(EventKind::OpResponse, 1).from_process(0);
        op.id = EventId(3);
        // Forgeable (a Byzantine writer equivocating toward readers) but
        // not droppable.
        assert_eq!(
            variants(&policy, &op, false, &state),
            vec![Deviation::Faithful, Deviation::Forge(5)]
        );
    }

    #[test]
    fn display_is_the_script_syntax() {
        assert_eq!(Deviation::Faithful.to_string(), "faithful");
        assert_eq!(Deviation::Forge(3).to_string(), "forge:3");
        assert_eq!(Deviation::Drop.to_string(), "drop");
    }
}
