//! The `l`-echo broadcast (paper §3.2.2, Lemma 3.14) — a generalization of
//! Bracha and Toueg's echo broadcast (`l = 1`).
//!
//! To `l`-echo broadcast `m`, the sender sends `<init, s, m>` to everyone.
//! On the *first* `<init, s, m>` from `s`, a process sends `<echo, s, m>`
//! to everyone (and never echoes for `s` again). A process **accepts** `m`
//! as sent by `s` once it has received `<echo, s, m>` from *more than*
//! `(n + l t) / (l + 1)` distinct processes.
//!
//! Lemma 3.14: if `t < l n / (2l + 1)` then (1) correct processes accept at
//! most `l` different messages per sender, and (2) a correct sender's
//! message is accepted by every correct process.
//!
//! [`LEcho`] is a pure state machine over these rules, reusable by any
//! protocol: feed it incoming `init`/`echo` messages, forward the echoes it
//! asks you to send, and consume the acceptances it reports.

use std::collections::{BTreeMap, BTreeSet};

use kset_core::Value;
use kset_sim::ProcessId;

/// What the caller must do after feeding a message into [`LEcho`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EchoAction<V> {
    /// Broadcast `<echo, origin, value>` to every process.
    SendEcho {
        /// The original sender being echoed.
        origin: ProcessId,
        /// The value being echoed.
        value: V,
    },
    /// `value` is now accepted as broadcast by `origin`.
    Accept {
        /// The original sender.
        origin: ProcessId,
        /// The accepted value.
        value: V,
    },
}

/// Per-origin echo bookkeeping.
#[derive(Clone, Debug)]
struct OriginState<V> {
    /// The value we echoed for this origin, if any (at most one, ever).
    echoed: Option<V>,
    /// Echo senders per candidate value.
    echoes: BTreeMap<V, BTreeSet<ProcessId>>,
    /// Values accepted so far, in acceptance order.
    accepted: Vec<V>,
}

impl<V> Default for OriginState<V> {
    fn default() -> Self {
        OriginState {
            echoed: None,
            echoes: BTreeMap::new(),
            accepted: Vec::new(),
        }
    }
}

/// The `l`-echo broadcast state of one process.
///
/// Deterministic and side-effect free: all sends are returned as
/// [`EchoAction`]s for the caller to perform.
#[derive(Clone, Debug)]
pub struct LEcho<V> {
    n: usize,
    t: usize,
    l: usize,
    origins: BTreeMap<ProcessId, OriginState<V>>,
}

impl<V: Value> LEcho<V> {
    /// Creates the broadcast component for a system of `n` processes with
    /// at most `t` failures, with amplification parameter `l >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `l == 0`.
    pub fn new(n: usize, t: usize, l: usize) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(l >= 1, "l-echo requires l >= 1");
        LEcho {
            n,
            t,
            l,
            origins: BTreeMap::new(),
        }
    }

    /// The amplification parameter `l`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Minimum number of distinct echoes that *accepts* a value: the
    /// smallest integer strictly greater than `(n + l t) / (l + 1)`.
    pub fn acceptance_threshold(&self) -> usize {
        (self.n + self.l * self.t) / (self.l + 1) + 1
    }

    /// Whether the system parameters satisfy Lemma 3.14's premise
    /// `t < l n / (2l + 1)` under which the broadcast guarantees hold.
    pub fn parameters_sound(&self) -> bool {
        (2 * self.l + 1) * self.t < self.l * self.n
    }

    /// Handles `<init, origin, value>`. Returns the echo to broadcast on
    /// the first init from `origin`; later inits from the same origin are
    /// ignored per the protocol.
    pub fn on_init(&mut self, origin: ProcessId, value: V) -> Option<EchoAction<V>> {
        let st = self.origins.entry(origin).or_default();
        if st.echoed.is_some() {
            return None;
        }
        st.echoed = Some(value.clone());
        Some(EchoAction::SendEcho { origin, value })
    }

    /// Handles `<echo, origin, value>` received from `from`. Returns an
    /// acceptance the first time `value` crosses the threshold for
    /// `origin`. Duplicate echoes from the same process are ignored.
    pub fn on_echo(
        &mut self,
        from: ProcessId,
        origin: ProcessId,
        value: V,
    ) -> Option<EchoAction<V>> {
        let threshold = self.acceptance_threshold();
        let st = self.origins.entry(origin).or_default();
        if st.accepted.contains(&value) {
            return None;
        }
        let senders = st.echoes.entry(value.clone()).or_default();
        if !senders.insert(from) {
            return None;
        }
        if senders.len() >= threshold {
            st.accepted.push(value.clone());
            return Some(EchoAction::Accept { origin, value });
        }
        None
    }

    /// Values accepted from `origin`, in acceptance order.
    pub fn accepted(&self, origin: ProcessId) -> &[V] {
        self.origins
            .get(&origin)
            .map(|s| s.accepted.as_slice())
            .unwrap_or(&[])
    }

    /// The first value accepted from `origin`, if any.
    pub fn first_accepted(&self, origin: ProcessId) -> Option<&V> {
        self.accepted(origin).first()
    }

    /// Number of origins with at least one accepted value.
    pub fn origins_accepted(&self) -> usize {
        self.origins
            .values()
            .filter(|s| !s.accepted.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_strictly_more_than_the_bound() {
        // n = 10, t = 2, l = 1: (10 + 2)/2 = 6, accept needs >= 7.
        let e: LEcho<u8> = LEcho::new(10, 2, 1);
        assert_eq!(e.acceptance_threshold(), 7);
        // n = 10, t = 2, l = 2: (10 + 4)/3 = 4 (floor 4.67 = 4) -> 5.
        let e: LEcho<u8> = LEcho::new(10, 2, 2);
        assert_eq!(e.acceptance_threshold(), 5);
        // Exactness: n = 9, t = 3, l = 1: (9+3)/2 = 6 -> 7.
        let e: LEcho<u8> = LEcho::new(9, 3, 1);
        assert_eq!(e.acceptance_threshold(), 7);
    }

    #[test]
    fn parameters_soundness_matches_lemma_3_14() {
        assert!(LEcho::<u8>::new(10, 3, 1).parameters_sound()); // 3 < 10/3? 9 < 10
        assert!(!LEcho::<u8>::new(9, 3, 1).parameters_sound()); // 9 !< 9
        assert!(LEcho::<u8>::new(10, 3, 2).parameters_sound()); // 15 < 20
    }

    #[test]
    fn first_init_echoes_later_inits_ignored() {
        let mut e: LEcho<u8> = LEcho::new(4, 1, 1);
        assert_eq!(
            e.on_init(2, 7),
            Some(EchoAction::SendEcho {
                origin: 2,
                value: 7
            })
        );
        // A Byzantine origin sending a different init later gets nothing.
        assert_eq!(e.on_init(2, 8), None);
        assert_eq!(e.on_init(2, 7), None);
    }

    #[test]
    fn acceptance_fires_exactly_once_at_threshold() {
        let mut e: LEcho<u8> = LEcho::new(4, 1, 1);
        // Threshold: (4 + 1)/2 = 2 -> 3 echoes needed.
        assert_eq!(e.on_echo(0, 3, 9), None);
        assert_eq!(e.on_echo(1, 3, 9), None);
        assert_eq!(
            e.on_echo(2, 3, 9),
            Some(EchoAction::Accept {
                origin: 3,
                value: 9
            })
        );
        // Further echoes do not re-accept.
        assert_eq!(e.on_echo(3, 3, 9), None);
        assert_eq!(e.accepted(3), &[9]);
        assert_eq!(e.first_accepted(3), Some(&9));
        assert_eq!(e.origins_accepted(), 1);
    }

    #[test]
    fn duplicate_echoes_from_one_process_count_once() {
        let mut e: LEcho<u8> = LEcho::new(4, 1, 1);
        assert_eq!(e.on_echo(0, 3, 9), None);
        assert_eq!(e.on_echo(0, 3, 9), None);
        assert_eq!(e.on_echo(0, 3, 9), None);
        assert_eq!(e.accepted(3), &[] as &[u8]);
    }

    #[test]
    fn at_most_l_values_acceptable_with_honest_echoers() {
        // Directly verify the counting at the heart of Lemma 3.14 for
        // l = 2, n = 10, t = 2 (sound: 5*2 = 10 < 20): threshold 5.
        // Split 10 echoers into two camps of 5 — two values accepted.
        let mut e: LEcho<u8> = LEcho::new(10, 2, 2);
        for p in 0..5 {
            e.on_echo(p, 9, 1);
        }
        for p in 5..10 {
            e.on_echo(p, 9, 2);
        }
        assert_eq!(e.accepted(9), &[1, 2]);
        // A third value cannot reach 5 echoes with the remaining 0 honest
        // processes; even all-new echoes from the 2 faulty ones fall short.
        e.on_echo(0, 9, 3);
        e.on_echo(1, 9, 3);
        assert_eq!(e.accepted(9).len(), 2);
    }

    #[test]
    fn l1_with_sound_parameters_accepts_a_single_value() {
        // l = 1, n = 10, t = 3 (sound): threshold 7. Two disjoint camps of
        // 7 would need 14 > 10 processes: only one value can ever make it.
        let mut e: LEcho<u8> = LEcho::new(10, 3, 1);
        for p in 0..7 {
            e.on_echo(p, 0, 1);
        }
        assert_eq!(e.accepted(0), &[1]);
        // The other camp can muster at most 3 fresh echoes (the faulty
        // ones double-voting) plus the 3 remaining correct = 6 < 7.
        for p in 7..10 {
            e.on_echo(p, 0, 2);
        }
        for p in 0..3 {
            e.on_echo(p, 0, 2); // faulty double votes
        }
        assert_eq!(e.accepted(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "l-echo requires l >= 1")]
    fn rejects_l_zero() {
        let _ = LEcho::<u8>::new(4, 1, 0);
    }
}
