//! `SC(k, t, C)` problem instances and the run checker.

use std::error::Error;
use std::fmt;

use crate::record::{ProcessId, RunView};
use crate::validity::ValidityCondition;

/// A validated `SC(k, t, C)` problem instance over `n` processes.
///
/// The constructor enforces the domain the paper studies: `n ≥ 1`,
/// `1 ≤ k ≤ n`, `0 ≤ t ≤ n`. (`k = n` and `t = 0` are the trivially
/// solvable fringes; `k = 1` is classical consensus, impossible for any
/// nontrivial validity with `t ≥ 1`.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProblemSpec {
    n: usize,
    k: usize,
    t: usize,
    validity: ValidityCondition,
}

impl ProblemSpec {
    /// Creates `SC(k, t, C)` over `n` processes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the parameters leave the paper's domain
    /// (`n == 0`, `k == 0`, `k > n`, or `t > n`).
    pub fn new(
        n: usize,
        k: usize,
        t: usize,
        validity: ValidityCondition,
    ) -> Result<Self, SpecError> {
        if n == 0 {
            return Err(SpecError::new("n must be positive"));
        }
        if k == 0 || k > n {
            return Err(SpecError::new(format!(
                "k must be in 1..=n, got k={k}, n={n}"
            )));
        }
        if t > n {
            return Err(SpecError::new(format!(
                "t must be in 0..=n, got t={t}, n={n}"
            )));
        }
        Ok(ProblemSpec { n, k, t, validity })
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum cardinality of the correct decision set.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum number of faulty processes tolerated.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The validity condition.
    pub fn validity(&self) -> ValidityCondition {
        self.validity
    }

    /// True for the fringes the paper dismisses as uninteresting:
    /// `k = n` (decide your own input), `k = 1` (classical consensus,
    /// impossible), or `t = 0` (no failures to tolerate). The atlases of
    /// Figures 2/4/5/6 cover `2 ≤ k ≤ n-1`, `t ≥ 1`.
    pub fn is_fringe(&self) -> bool {
        self.k == self.n || self.k == 1 || self.t == 0
    }

    /// Checks a completed run against all three conditions.
    ///
    /// The record's planned-faulty set must be consistent with `t`; a run
    /// with more planned failures than `t` is not a run of this system and
    /// yields [`Violation::FaultBudgetExceeded`].
    ///
    /// Generic over [`RunView`]: pass a [`crate::RunRecord`] for the
    /// ergonomic owned path, or a [`crate::DenseRun`] over raw buffers on
    /// hot paths — a passing run is then judged without a single
    /// allocation (the distinct-decision count scans rather than sorts;
    /// `n` is single digits everywhere the paper looks).
    pub fn check<V: Clone + Eq + Ord>(&self, record: &impl RunView<V>) -> CheckReport {
        let mut violations = Vec::new();

        if record.n() != self.n {
            violations.push(Violation::WrongSystemSize {
                expected: self.n,
                actual: record.n(),
            });
            return CheckReport { violations };
        }
        if record.faulty_count() > self.t {
            violations.push(Violation::FaultBudgetExceeded {
                t: self.t,
                actual: record.faulty_count(),
            });
        }

        // Termination: every correct process decided. (An empty collect
        // never allocates, so clean runs skip the Vec entirely.)
        let undecided: Vec<ProcessId> = (0..record.n())
            .filter(|&p| !record.is_faulty(p) && record.decision_of(p).is_none())
            .collect();
        if !record.terminated() || !undecided.is_empty() {
            violations.push(Violation::Termination { undecided });
        }

        // Agreement: at most k distinct correct decisions, counted by
        // first occurrence.
        let mut decided = 0;
        for p in (0..record.n()).filter(|&p| !record.is_faulty(p)) {
            if let Some(d) = record.decision_of(p) {
                let seen = (0..p).any(|q| !record.is_faulty(q) && record.decision_of(q) == Some(d));
                if !seen {
                    decided += 1;
                }
            }
        }
        if decided > self.k {
            violations.push(Violation::Agreement { k: self.k, decided });
        }

        // Validity.
        if !self.validity.satisfied_by(record) {
            violations.push(Violation::Validity {
                condition: self.validity,
            });
        }

        CheckReport { violations }
    }
}

impl fmt::Display for ProblemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SC(k={}, t={}, {}) over n={}",
            self.k, self.t, self.validity, self.n
        )
    }
}

/// Rejected `SC(k, t, C)` parameters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecError {
    msg: String,
}

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError { msg: msg.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid problem specification: {}", self.msg)
    }
}

impl Error for SpecError {}

/// One way a run failed its specification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// The record describes a different number of processes than the spec.
    WrongSystemSize {
        /// Processes in the spec.
        expected: usize,
        /// Processes in the record.
        actual: usize,
    },
    /// More processes were planned faulty than the spec tolerates.
    FaultBudgetExceeded {
        /// Allowed failures.
        t: usize,
        /// Planned failures in the record.
        actual: usize,
    },
    /// Some correct process never decided.
    Termination {
        /// The correct processes without a decision.
        undecided: Vec<ProcessId>,
    },
    /// More than `k` distinct values were decided by correct processes.
    Agreement {
        /// The bound.
        k: usize,
        /// The observed cardinality.
        decided: usize,
    },
    /// The validity condition was violated.
    Validity {
        /// Which condition.
        condition: ValidityCondition,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WrongSystemSize { expected, actual } => {
                write!(f, "record has {actual} processes, spec expects {expected}")
            }
            Violation::FaultBudgetExceeded { t, actual } => {
                write!(f, "{actual} planned failures exceed the budget t={t}")
            }
            Violation::Termination { undecided } => {
                write!(f, "correct processes {undecided:?} never decided")
            }
            Violation::Agreement { k, decided } => {
                write!(f, "{decided} distinct values decided, agreement allows {k}")
            }
            Violation::Validity { condition } => {
                write!(
                    f,
                    "validity {condition} violated: {}",
                    condition.statement()
                )
            }
        }
    }
}

/// The verdict of [`ProblemSpec::check`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckReport {
    violations: Vec<Violation>,
}

impl CheckReport {
    /// True when the run satisfied termination, agreement and validity.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found, in check order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True if a violation of the given discriminant is present.
    pub fn has_termination_violation(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, Violation::Termination { .. }))
    }

    /// True if agreement was violated.
    pub fn has_agreement_violation(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, Violation::Agreement { .. }))
    }

    /// True if validity was violated.
    pub fn has_validity_violation(&self) -> bool {
        self.violations
            .iter()
            .any(|v| matches!(v, Violation::Validity { .. }))
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return f.write_str("ok");
        }
        let mut first = true;
        for v in &self.violations {
            if !first {
                f.write_str("; ")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunRecord;

    fn spec(k: usize, t: usize, c: ValidityCondition) -> ProblemSpec {
        ProblemSpec::new(4, k, t, c).unwrap()
    }

    #[test]
    fn constructor_validates_domain() {
        assert!(ProblemSpec::new(0, 1, 0, ValidityCondition::RV1).is_err());
        assert!(ProblemSpec::new(4, 0, 1, ValidityCondition::RV1).is_err());
        assert!(ProblemSpec::new(4, 5, 1, ValidityCondition::RV1).is_err());
        assert!(ProblemSpec::new(4, 2, 5, ValidityCondition::RV1).is_err());
        assert!(ProblemSpec::new(4, 2, 4, ValidityCondition::RV1).is_ok());
    }

    #[test]
    fn fringe_detection() {
        assert!(spec(4, 1, ValidityCondition::RV1).is_fringe()); // k = n
        assert!(spec(1, 1, ValidityCondition::RV1).is_fringe()); // k = 1
        assert!(spec(2, 0, ValidityCondition::RV1).is_fringe()); // t = 0
        assert!(!spec(2, 1, ValidityCondition::RV1).is_fringe());
    }

    #[test]
    fn clean_run_passes() {
        let s = spec(2, 1, ValidityCondition::RV1);
        let r = RunRecord::new(vec![1, 2, 3, 4])
            .with_faulty([3])
            .with_decisions([(0, 1), (1, 1), (2, 2)]);
        let report = s.check(&r);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.to_string(), "ok");
    }

    #[test]
    fn termination_violation_lists_undecided() {
        let s = spec(2, 1, ValidityCondition::RV1);
        let r = RunRecord::new(vec![1, 2, 3, 4]).with_decisions([(0, 1)]);
        let report = s.check(&r);
        assert!(report.has_termination_violation());
        assert!(report.to_string().contains("never decided"));
    }

    #[test]
    fn explicit_nontermination_is_flagged_even_with_decisions() {
        let s = spec(2, 1, ValidityCondition::RV1);
        let r = RunRecord::new(vec![1, 2, 3, 4])
            .with_decisions([(0, 1), (1, 1), (2, 1), (3, 1)])
            .with_terminated(false);
        assert!(s.check(&r).has_termination_violation());
    }

    #[test]
    fn agreement_violation_counts_distinct_values() {
        let s = spec(2, 1, ValidityCondition::RV1);
        let r = RunRecord::new(vec![1, 2, 3, 4]).with_decisions([(0, 1), (1, 2), (2, 3), (3, 4)]);
        let report = s.check(&r);
        assert!(report.has_agreement_violation());
        assert!(!report.is_ok());
    }

    #[test]
    fn validity_violation_reports_condition() {
        let s = spec(3, 1, ValidityCondition::RV1);
        let r = RunRecord::new(vec![1, 2, 3, 4]).with_decisions([(0, 9), (1, 9), (2, 9), (3, 9)]);
        let report = s.check(&r);
        assert!(report.has_validity_violation());
        assert!(report.to_string().contains("RV1"));
    }

    #[test]
    fn fault_budget_violation() {
        let s = spec(2, 1, ValidityCondition::RV1);
        let r = RunRecord::new(vec![1, 2, 3, 4])
            .with_faulty([0, 1])
            .with_decisions([(2, 3), (3, 3)]);
        let report = s.check(&r);
        assert!(!report.is_ok());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::FaultBudgetExceeded { .. })));
    }

    #[test]
    fn wrong_size_short_circuits() {
        let s = spec(2, 1, ValidityCondition::RV1);
        let r = RunRecord::new(vec![1, 2]);
        let report = s.check(&r);
        assert_eq!(report.violations().len(), 1);
        assert!(matches!(
            report.violations()[0],
            Violation::WrongSystemSize {
                expected: 4,
                actual: 2
            }
        ));
    }

    #[test]
    fn display_formats() {
        let s = spec(2, 1, ValidityCondition::SV2);
        assert_eq!(s.to_string(), "SC(k=2, t=1, SV2) over n=4");
        let e = ProblemSpec::new(0, 1, 0, ValidityCondition::RV1).unwrap_err();
        assert!(e.to_string().contains("n must be positive"));
    }
}
