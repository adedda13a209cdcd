//! The abstract record of a completed run, as the checker sees it.

use std::collections::{BTreeMap, BTreeSet};

/// Index of a process, mirroring `kset_sim::ProcessId` without the
/// dependency (this crate is substrate-agnostic).
pub type ProcessId = usize;

/// A borrowed, read-only view of one run's observables.
///
/// [`crate::ProblemSpec::check`] and
/// [`crate::ValidityCondition::satisfied_by`] are generic over this trait,
/// so callers on a hot path — the model checker judges millions of runs per
/// cell — can hand them raw buffers without materializing an owned
/// [`RunRecord`] (a `Vec` + `BTreeMap` + `BTreeSet` per run). [`RunRecord`]
/// implements the trait, so the owned record remains the ergonomic default;
/// [`DenseRun`] is the allocation-free alternative.
pub trait RunView<V> {
    /// Number of processes.
    fn n(&self) -> usize;

    /// All inputs, indexed by process.
    fn inputs(&self) -> &[V];

    /// Whether `p` is planned faulty.
    fn is_faulty(&self, p: ProcessId) -> bool;

    /// Number of planned-faulty processes.
    fn faulty_count(&self) -> usize;

    /// Decision of `p`, if it decided.
    fn decision_of(&self, p: ProcessId) -> Option<&V>;

    /// Whether the run's event supply ended with every correct process
    /// having decided.
    fn terminated(&self) -> bool;

    /// Short-circuiting ∀ over every recorded decision — faulty deciders
    /// included, matching [`RunRecord::decisions`] (the weak validity
    /// conditions quantify over "any process" in failure-free runs).
    fn all_decisions(&self, pred: &mut dyn FnMut(ProcessId, &V) -> bool) -> bool;

    /// True if the run had no planned failures.
    fn failure_free(&self) -> bool {
        self.faulty_count() == 0
    }
}

/// The allocation-free [`RunView`]: borrowed inputs, a dense
/// process-indexed decision table, and the planned-faulty list as a slice.
///
/// `decisions` must have one slot per process (`decisions[p]` is `p`'s
/// decision, if any) and `faulty` must be duplicate-free — it is counted by
/// length. This is the shape the model checker's executors already hold
/// their per-run observables in, so checking a run costs no allocation.
#[derive(Clone, Copy, Debug)]
pub struct DenseRun<'a, V> {
    inputs: &'a [V],
    decisions: &'a [Option<V>],
    faulty: &'a [ProcessId],
    terminated: bool,
}

impl<'a, V> DenseRun<'a, V> {
    /// Wraps borrowed run observables; see the type docs for the invariants
    /// (`decisions.len() == inputs.len()`, `faulty` duplicate-free).
    pub fn new(
        inputs: &'a [V],
        decisions: &'a [Option<V>],
        faulty: &'a [ProcessId],
        terminated: bool,
    ) -> Self {
        debug_assert_eq!(inputs.len(), decisions.len());
        DenseRun {
            inputs,
            decisions,
            faulty,
            terminated,
        }
    }
}

impl<V> RunView<V> for DenseRun<'_, V> {
    fn n(&self) -> usize {
        self.inputs.len()
    }

    fn inputs(&self) -> &[V] {
        self.inputs
    }

    fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty.contains(&p)
    }

    fn faulty_count(&self) -> usize {
        self.faulty.len()
    }

    fn decision_of(&self, p: ProcessId) -> Option<&V> {
        self.decisions.get(p)?.as_ref()
    }

    fn terminated(&self) -> bool {
        self.terminated
    }

    fn all_decisions(&self, pred: &mut dyn FnMut(ProcessId, &V) -> bool) -> bool {
        self.decisions
            .iter()
            .enumerate()
            .filter_map(|(p, d)| d.as_ref().map(|v| (p, v)))
            .all(|(p, v)| pred(p, v))
    }
}

impl<V> RunView<V> for RunRecord<V> {
    fn n(&self) -> usize {
        self.inputs.len()
    }

    fn inputs(&self) -> &[V] {
        &self.inputs
    }

    fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty.contains(&p)
    }

    fn faulty_count(&self) -> usize {
        self.faulty.len()
    }

    fn decision_of(&self, p: ProcessId) -> Option<&V> {
        self.decisions.get(&p)
    }

    fn terminated(&self) -> bool {
        self.terminated
    }

    fn all_decisions(&self, pred: &mut dyn FnMut(ProcessId, &V) -> bool) -> bool {
        self.decisions.iter().all(|(&p, v)| pred(p, v))
    }
}

/// An abstract run: inputs, the planned fault pattern, and decisions.
///
/// `faulty` is the *planned* fault set of the run — the processes the
/// adversary was allowed to corrupt. The weak validity conditions WV1/WV2
/// apply exactly when this set is empty ("if there are no failures ...").
/// `decisions` may include decisions by faulty processes (a crashed process
/// may have decided before crashing; a Byzantine process may claim
/// anything); the checker quantifies over correct processes only, except
/// where a condition explicitly says "any process" in failure-free runs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunRecord<V> {
    inputs: Vec<V>,
    decisions: BTreeMap<ProcessId, V>,
    faulty: BTreeSet<ProcessId>,
    terminated: bool,
}

impl<V: Clone + Eq + Ord> RunRecord<V> {
    /// A failure-free, fully-terminated record with the given inputs and no
    /// decisions yet; refine with the `with_*` builders.
    pub fn new(inputs: Vec<V>) -> Self {
        RunRecord {
            inputs,
            decisions: BTreeMap::new(),
            faulty: BTreeSet::new(),
            terminated: true,
        }
    }

    /// Declares the planned-faulty processes.
    pub fn with_faulty(mut self, faulty: impl IntoIterator<Item = ProcessId>) -> Self {
        self.faulty = faulty.into_iter().collect();
        self
    }

    /// Records decisions (process, value).
    pub fn with_decisions(mut self, decisions: impl IntoIterator<Item = (ProcessId, V)>) -> Self {
        self.decisions.extend(decisions);
        self
    }

    /// Marks whether the run's event supply ended with every correct
    /// process having decided (`true`) or not (`false`).
    pub fn with_terminated(mut self, terminated: bool) -> Self {
        self.terminated = terminated;
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// All inputs, indexed by process.
    pub fn inputs(&self) -> &[V] {
        &self.inputs
    }

    /// The decision map (all deciders, correct or not).
    pub fn decisions(&self) -> &BTreeMap<ProcessId, V> {
        &self.decisions
    }

    /// The planned-faulty set.
    pub fn faulty(&self) -> &BTreeSet<ProcessId> {
        &self.faulty
    }

    /// Whether the run terminated (see [`RunRecord::with_terminated`]).
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// True if the run had no planned failures.
    pub fn failure_free(&self) -> bool {
        self.faulty.is_empty()
    }

    /// Processes not planned faulty, ascending.
    pub fn correct(&self) -> Vec<ProcessId> {
        (0..self.n()).filter(|p| !self.faulty.contains(p)).collect()
    }

    /// Decision of `p`, if it decided.
    pub fn decision_of(&self, p: ProcessId) -> Option<&V> {
        self.decisions.get(&p)
    }

    /// Distinct values decided by correct processes (the agreement set).
    pub fn correct_decision_set(&self) -> Vec<V> {
        let mut vals: Vec<V> = self
            .correct()
            .into_iter()
            .filter_map(|p| self.decisions.get(&p).cloned())
            .collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Distinct inputs of correct processes.
    pub fn correct_input_set(&self) -> Vec<V> {
        let mut vals: Vec<V> = self
            .correct()
            .into_iter()
            .map(|p| self.inputs[p].clone())
            .collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// The common input value, if all `n` processes started with the same.
    pub fn unanimous_input(&self) -> Option<&V> {
        let first = self.inputs.first()?;
        self.inputs.iter().all(|v| v == first).then_some(first)
    }

    /// The common input of correct processes, if they all agree (and at
    /// least one process is correct).
    pub fn unanimous_correct_input(&self) -> Option<V> {
        let correct = self.correct();
        let first = self.inputs.get(*correct.first()?)?.clone();
        correct
            .iter()
            .all(|&p| self.inputs[p] == first)
            .then_some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord<u32> {
        RunRecord::new(vec![1, 2, 2, 3])
            .with_faulty([0])
            .with_decisions([(1, 2), (2, 2), (3, 9), (0, 7)])
    }

    #[test]
    fn correct_excludes_faulty() {
        assert_eq!(record().correct(), vec![1, 2, 3]);
        assert!(!record().failure_free());
    }

    #[test]
    fn correct_decision_set_dedups() {
        assert_eq!(record().correct_decision_set(), vec![2, 9]);
    }

    #[test]
    fn correct_input_set_covers_correct_only() {
        assert_eq!(record().correct_input_set(), vec![2, 3]);
    }

    #[test]
    fn unanimity_detection() {
        let r = RunRecord::new(vec![5, 5, 5]);
        assert_eq!(r.unanimous_input(), Some(&5));
        assert_eq!(r.unanimous_correct_input(), Some(5));

        let r = RunRecord::new(vec![5, 6, 5]).with_faulty([1]);
        assert_eq!(r.unanimous_input(), None);
        assert_eq!(r.unanimous_correct_input(), Some(5));

        // All processes faulty: no unanimous correct input.
        let r = RunRecord::new(vec![5]).with_faulty([0]);
        assert_eq!(r.unanimous_correct_input(), None);
    }

    #[test]
    fn default_record_is_terminated_and_failure_free() {
        let r = RunRecord::new(vec![0u8; 3]);
        assert!(r.terminated());
        assert!(r.failure_free());
        assert!(r.correct_decision_set().is_empty());
        let r = r.with_terminated(false);
        assert!(!r.terminated());
    }

    #[test]
    fn decision_lookup() {
        let r = record();
        assert_eq!(r.decision_of(1), Some(&2));
        assert_eq!(r.decision_of(0), Some(&7)); // faulty deciders are visible
        let r2 = RunRecord::<u32>::new(vec![1]);
        assert_eq!(r2.decision_of(0), None);
    }
}
