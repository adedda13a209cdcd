//! The six validity conditions, as executable predicates (paper §2).

use crate::record::RunView;

/// A validity condition of the `SC(k, t, C)` problem.
///
/// Quoting the paper's definitions verbatim:
///
/// * **SV1** (strong V1): *the decision of any correct process is equal to
///   the input of some correct process.*
/// * **SV2** (strong V2): *if all correct processes start with `v` then
///   correct processes decide `v`.*
/// * **RV1** (regular V1): *the decision of any correct process is equal to
///   the input of some process.* (The condition of Chaudhuri's original
///   k-set consensus.)
/// * **RV2** (regular V2): *if all processes start with `v` then correct
///   processes decide `v`.*
/// * **WV1** (weak V1): *if there are no failures, then the decision of any
///   process is equal to the input of some process.*
/// * **WV2** (weak V2): *if there are no failures and all processes start
///   with `v`, then the decision of any process is equal to `v`.*
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ValidityCondition {
    /// Strong V1: correct decisions come from correct inputs.
    SV1,
    /// Strong V2: unanimous correct inputs force that decision.
    SV2,
    /// Regular V1: correct decisions come from some process's input.
    RV1,
    /// Regular V2: unanimous inputs force that decision.
    RV2,
    /// Weak V1: in failure-free runs, decisions come from inputs.
    WV1,
    /// Weak V2: in failure-free unanimous runs, that value is decided.
    WV2,
}

crate::unit_enum!(ValidityCondition {
    SV1,
    SV2,
    RV1,
    RV2,
    WV1,
    WV2
});

impl ValidityCondition {
    /// All six conditions, in the paper's order of introduction.
    pub const ALL: [ValidityCondition; 6] = [
        ValidityCondition::SV1,
        ValidityCondition::SV2,
        ValidityCondition::RV1,
        ValidityCondition::RV2,
        ValidityCondition::WV1,
        ValidityCondition::WV2,
    ];

    /// The paper's name for the condition.
    pub fn name(self) -> &'static str {
        match self {
            ValidityCondition::SV1 => "SV1",
            ValidityCondition::SV2 => "SV2",
            ValidityCondition::RV1 => "RV1",
            ValidityCondition::RV2 => "RV2",
            ValidityCondition::WV1 => "WV1",
            ValidityCondition::WV2 => "WV2",
        }
    }

    /// One-line statement of the requirement, quoting the paper.
    pub fn statement(self) -> &'static str {
        match self {
            ValidityCondition::SV1 => {
                "the decision of any correct process is equal to the input of some correct process"
            }
            ValidityCondition::SV2 => {
                "if all correct processes start with v then correct processes decide v"
            }
            ValidityCondition::RV1 => {
                "the decision of any correct process is equal to the input of some process"
            }
            ValidityCondition::RV2 => "if all processes start with v then correct processes decide v",
            ValidityCondition::WV1 => {
                "if there are no failures, then the decision of any process is equal to the input of some process"
            }
            ValidityCondition::WV2 => {
                "if there are no failures and all processes start with v, then the decision of any process is equal to v"
            }
        }
    }

    /// Evaluates the condition over a completed run.
    ///
    /// The predicate quantifies only over decisions actually present in the
    /// record — missing decisions are a *termination* failure, judged
    /// separately by [`crate::ProblemSpec::check`].
    ///
    /// Generic over [`RunView`] so the model checker's hot loops can judge
    /// a run straight from borrowed buffers; the predicates themselves
    /// allocate nothing (the quantifier sets are small — at most `n`
    /// processes — so membership is tested by scan, not by set).
    pub fn satisfied_by<V: Clone + Eq + Ord>(self, record: &impl RunView<V>) -> bool {
        match self {
            ValidityCondition::SV1 => all_correct_decisions(record, |d| {
                (0..record.n()).any(|q| !record.is_faulty(q) && record.inputs()[q] == *d)
            }),
            ValidityCondition::SV2 => match unanimous_correct_input(record) {
                Some(v) => all_correct_decisions(record, |d| d == v),
                None => true,
            },
            ValidityCondition::RV1 => {
                all_correct_decisions(record, |d| record.inputs().contains(d))
            }
            ValidityCondition::RV2 => match unanimous_input(record) {
                Some(v) => all_correct_decisions(record, |d| d == v),
                None => true,
            },
            ValidityCondition::WV1 => {
                if !record.failure_free() {
                    return true;
                }
                record.all_decisions(&mut |_, d| record.inputs().contains(d))
            }
            ValidityCondition::WV2 => {
                if !record.failure_free() {
                    return true;
                }
                match unanimous_input(record) {
                    Some(v) => record.all_decisions(&mut |_, d| d == v),
                    None => true,
                }
            }
        }
    }
}

/// ∀ correct deciders p: `pred(decision_of(p))` — the quantifier shared by
/// the four strong/regular conditions.
fn all_correct_decisions<V>(record: &impl RunView<V>, mut pred: impl FnMut(&V) -> bool) -> bool {
    (0..record.n()).all(|p| record.is_faulty(p) || record.decision_of(p).map_or(true, &mut pred))
}

/// The common input value, if all `n` processes started with the same.
fn unanimous_input<V: Eq>(record: &impl RunView<V>) -> Option<&V> {
    let first = record.inputs().first()?;
    record.inputs().iter().all(|v| v == first).then_some(first)
}

/// The common input of correct processes, if they all agree (and at least
/// one process is correct).
fn unanimous_correct_input<V: Eq>(record: &impl RunView<V>) -> Option<&V> {
    let mut first: Option<&V> = None;
    for p in (0..record.n()).filter(|&p| !record.is_faulty(p)) {
        let v = &record.inputs()[p];
        match first {
            None => first = Some(v),
            Some(f) if f != v => return None,
            Some(_) => {}
        }
    }
    first
}

impl std::fmt::Display for ValidityCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunRecord;

    type R = RunRecord<u32>;

    #[test]
    fn sv1_requires_correct_inputs() {
        // Faulty process 0 has input 1; correct ones have 2 and 3.
        let base = R::new(vec![1, 2, 3]).with_faulty([0]);
        let ok = base.clone().with_decisions([(1, 2), (2, 3)]);
        assert!(ValidityCondition::SV1.satisfied_by(&ok));
        // Deciding the faulty process's input violates SV1 but not RV1.
        let bad = base.with_decisions([(1, 1), (2, 3)]);
        assert!(!ValidityCondition::SV1.satisfied_by(&bad));
        assert!(ValidityCondition::RV1.satisfied_by(&bad));
    }

    #[test]
    fn rv1_requires_some_input() {
        let r = R::new(vec![1, 2, 3]).with_decisions([(0, 4)]);
        assert!(!ValidityCondition::RV1.satisfied_by(&r));
        let r = R::new(vec![1, 2, 3]).with_decisions([(0, 3)]);
        assert!(ValidityCondition::RV1.satisfied_by(&r));
    }

    #[test]
    fn rv1_ignores_decisions_of_faulty_processes() {
        // Byzantine process 0 "decides" garbage; correct ones are fine.
        let r = R::new(vec![1, 2, 3])
            .with_faulty([0])
            .with_decisions([(0, 99), (1, 2), (2, 3)]);
        assert!(ValidityCondition::RV1.satisfied_by(&r));
    }

    #[test]
    fn sv2_binds_only_on_unanimous_correct_inputs() {
        // All correct processes start with 7 (faulty 0 starts with 1):
        // SV2 forces 7, RV2 does not bind (inputs not all equal).
        let base = R::new(vec![1, 7, 7]).with_faulty([0]);
        let bad = base.clone().with_decisions([(1, 1), (2, 7)]);
        assert!(!ValidityCondition::SV2.satisfied_by(&bad));
        assert!(ValidityCondition::RV2.satisfied_by(&bad));
        let ok = base.with_decisions([(1, 7), (2, 7)]);
        assert!(ValidityCondition::SV2.satisfied_by(&ok));
    }

    #[test]
    fn rv2_binds_on_unanimous_inputs() {
        let bad = R::new(vec![7, 7, 7])
            .with_faulty([0])
            .with_decisions([(1, 7), (2, 8)]);
        assert!(!ValidityCondition::RV2.satisfied_by(&bad));
        // A default decision is fine when inputs differ.
        let ok = R::new(vec![7, 7, 8]).with_decisions([(0, 0), (1, 0), (2, 0)]);
        assert!(ValidityCondition::RV2.satisfied_by(&ok));
    }

    #[test]
    fn wv1_only_binds_without_failures() {
        let bad = R::new(vec![1, 2]).with_decisions([(0, 9), (1, 1)]);
        assert!(!ValidityCondition::WV1.satisfied_by(&bad));
        // Same decisions with a planned failure: WV1 is vacuous.
        let vac = R::new(vec![1, 2]).with_faulty([1]).with_decisions([(0, 9)]);
        assert!(ValidityCondition::WV1.satisfied_by(&vac));
    }

    #[test]
    fn wv2_needs_failure_free_and_unanimous() {
        let bad = R::new(vec![4, 4]).with_decisions([(0, 4), (1, 5)]);
        assert!(!ValidityCondition::WV2.satisfied_by(&bad));
        let vac_inputs = R::new(vec![4, 5]).with_decisions([(0, 9), (1, 9)]);
        assert!(ValidityCondition::WV2.satisfied_by(&vac_inputs));
        let vac_fault = R::new(vec![4, 4]).with_faulty([0]).with_decisions([(1, 5)]);
        assert!(ValidityCondition::WV2.satisfied_by(&vac_fault));
    }

    #[test]
    fn wv1_checks_decisions_of_all_processes_in_failure_free_runs() {
        // In a failure-free run every process is correct, so a single bad
        // decision anywhere violates WV1 ("the decision of any process").
        let bad = R::new(vec![1, 2, 3]).with_decisions([(2, 0)]);
        assert!(!ValidityCondition::WV1.satisfied_by(&bad));
    }

    #[test]
    fn all_conditions_hold_vacuously_with_no_decisions() {
        let r = R::new(vec![1, 2, 3]).with_faulty([2]);
        for c in ValidityCondition::ALL {
            assert!(c.satisfied_by(&r), "{c} should be vacuous");
        }
    }

    #[test]
    fn names_and_statements_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            ValidityCondition::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 6);
        let stmts: std::collections::BTreeSet<_> = ValidityCondition::ALL
            .iter()
            .map(|c| c.statement())
            .collect();
        assert_eq!(stmts.len(), 6);
        assert_eq!(ValidityCondition::SV1.to_string(), "SV1");
    }
}
