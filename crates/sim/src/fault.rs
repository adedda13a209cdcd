//! Fault plans: who fails, how, and exactly when.
//!
//! The paper's crash model allows a faulty process to "prematurely halt
//! execution only", at *any* point — including halfway through a broadcast.
//! Several proofs rely on that precision (Lemma 3.5 crashes a process "right
//! after sending its last message"; Lemma 4.2 right after its last write).
//! We therefore meter crashes in **atomic actions**: handling an event costs
//! one action, and each individual send or register operation costs one
//! action. A crash budget of `a` means the process performs exactly `a`
//! actions and then halts, even mid-handler.

use crate::event::ProcessId;

/// How a particular process misbehaves (or doesn't) in a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultKind {
    /// The process follows its protocol throughout.
    #[default]
    Correct,
    /// The process halts after a bounded number of atomic actions.
    Crash,
    /// The process deviates arbitrarily; its behaviour is supplied by the
    /// caller as a strategy implementing the model's process trait.
    Byzantine,
}

/// Per-process fault specification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSpec {
    /// Follows the protocol.
    Correct,
    /// Crashes after performing `after_actions` atomic actions.
    ///
    /// `after_actions == 0` means the process never takes a step (it is
    /// "initially dead"), the situation used to argue that waiting for more
    /// than `n - t` processes forfeits termination.
    Crash {
        /// Number of atomic actions performed before halting.
        after_actions: u64,
    },
    /// Runs a caller-supplied Byzantine strategy instead of the protocol.
    Byzantine,
}

impl FaultSpec {
    /// The kind of this specification.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultSpec::Correct => FaultKind::Correct,
            FaultSpec::Crash { .. } => FaultKind::Crash,
            FaultSpec::Byzantine => FaultKind::Byzantine,
        }
    }
}

/// The complete fault pattern of a run: one [`FaultSpec`] per process.
///
/// A plan is *declared* up front (the adversary knows its own plan), but a
/// crash only becomes *observable* to the run when the budget runs out.
/// Consequently `faulty_set` is the planned set — the checker in `kset-core`
/// uses it to decide which validity clauses apply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with all `n` processes correct.
    pub fn all_correct(n: usize) -> Self {
        FaultPlan {
            specs: vec![FaultSpec::Correct; n],
        }
    }

    /// A plan where each process in `crashed` never takes a single step.
    pub fn silent_crashes(n: usize, crashed: &[ProcessId]) -> Self {
        let mut plan = FaultPlan::all_correct(n);
        for &p in crashed {
            plan.set(p, FaultSpec::Crash { after_actions: 0 });
        }
        plan
    }

    /// A plan where each process in `byzantine` runs a strategy.
    pub fn byzantine(n: usize, byzantine: &[ProcessId]) -> Self {
        let mut plan = FaultPlan::all_correct(n);
        for &p in byzantine {
            plan.set(p, FaultSpec::Byzantine);
        }
        plan
    }

    /// Number of processes covered by the plan.
    pub fn n(&self) -> usize {
        self.specs.len()
    }

    /// Overwrites the spec for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n`.
    pub fn set(&mut self, pid: ProcessId, spec: FaultSpec) {
        self.specs[pid] = spec;
    }

    /// The spec for process `pid` (out-of-range indices read as correct).
    pub fn spec(&self, pid: ProcessId) -> FaultSpec {
        self.specs.get(pid).copied().unwrap_or(FaultSpec::Correct)
    }

    /// Number of processes planned to fail (crash or Byzantine).
    pub fn fault_count(&self) -> usize {
        self.specs
            .iter()
            .filter(|s| s.kind() != FaultKind::Correct)
            .count()
    }

    /// Indices of processes planned to fail, in ascending order.
    pub fn faulty_set(&self) -> Vec<ProcessId> {
        self.specs
            .iter()
            .enumerate()
            .filter_map(|(p, s)| (s.kind() != FaultKind::Correct).then_some(p))
            .collect()
    }

    /// Indices of processes planned to stay correct, in ascending order.
    pub fn correct_set(&self) -> Vec<ProcessId> {
        self.specs
            .iter()
            .enumerate()
            .filter_map(|(p, s)| (s.kind() == FaultKind::Correct).then_some(p))
            .collect()
    }

    /// True when no process is planned to fail — the premise of the weak
    /// validity conditions WV1/WV2.
    pub fn failure_free(&self) -> bool {
        self.fault_count() == 0
    }

    /// True when any process is planned to run a Byzantine strategy.
    /// Crash-model quantifiers use this to *reject* plans they cannot
    /// meaningfully count (a Byzantine slot is not a crash with a budget).
    pub fn has_byzantine(&self) -> bool {
        self.specs.iter().any(|s| s.kind() == FaultKind::Byzantine)
    }

    /// Remaining action budget for `pid` given that it has already performed
    /// `actions_done` actions; `None` means unlimited (correct/Byzantine).
    pub fn remaining_budget(&self, pid: ProcessId, actions_done: u64) -> Option<u64> {
        match self.spec(pid) {
            FaultSpec::Crash { after_actions } => Some(after_actions.saturating_sub(actions_done)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_correct_plan_is_failure_free() {
        let plan = FaultPlan::all_correct(5);
        assert_eq!(plan.n(), 5);
        assert!(plan.failure_free());
        assert_eq!(plan.fault_count(), 0);
        assert_eq!(plan.correct_set(), vec![0, 1, 2, 3, 4]);
        assert!(plan.faulty_set().is_empty());
    }

    #[test]
    fn silent_crashes_never_act() {
        let plan = FaultPlan::silent_crashes(4, &[1, 3]);
        assert_eq!(plan.fault_count(), 2);
        assert_eq!(plan.faulty_set(), vec![1, 3]);
        assert_eq!(plan.correct_set(), vec![0, 2]);
        assert_eq!(plan.remaining_budget(1, 0), Some(0));
        assert_eq!(plan.remaining_budget(0, 100), None);
    }

    #[test]
    fn crash_budget_counts_down() {
        let mut plan = FaultPlan::all_correct(2);
        plan.set(0, FaultSpec::Crash { after_actions: 3 });
        assert_eq!(plan.remaining_budget(0, 0), Some(3));
        assert_eq!(plan.remaining_budget(0, 2), Some(1));
        assert_eq!(plan.remaining_budget(0, 3), Some(0));
        assert_eq!(plan.remaining_budget(0, 9), Some(0));
    }

    #[test]
    fn byzantine_plan_marks_kind() {
        let plan = FaultPlan::byzantine(3, &[2]);
        assert_eq!(plan.spec(2).kind(), FaultKind::Byzantine);
        assert_eq!(plan.spec(0).kind(), FaultKind::Correct);
        assert!(!plan.failure_free());
        assert!(plan.has_byzantine());
        assert_eq!(plan.remaining_budget(2, 5), None);
    }

    #[test]
    fn crash_plans_have_no_byzantine_slots() {
        assert!(!FaultPlan::all_correct(3).has_byzantine());
        assert!(!FaultPlan::silent_crashes(3, &[0, 2]).has_byzantine());
    }

    #[test]
    fn out_of_range_spec_reads_correct() {
        let plan = FaultPlan::all_correct(1);
        assert_eq!(plan.spec(10), FaultSpec::Correct);
    }

    #[test]
    fn default_fault_kind_is_correct() {
        assert_eq!(FaultKind::default(), FaultKind::Correct);
    }
}
