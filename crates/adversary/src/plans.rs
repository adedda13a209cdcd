//! Fault-plan builders for the paper's constructions.
//!
//! Thin, intention-revealing wrappers over [`kset_sim::FaultPlan`]: the
//! proofs place crashes at *specific instants* (right after the last send,
//! right after the last write), which under the action-budget crash model
//! becomes a precise arithmetic of handler and effect counts.

use kset_sim::{FaultPlan, FaultSpec, ProcessId};

/// All `n` processes correct.
pub fn all_correct(n: usize) -> FaultPlan {
    FaultPlan::all_correct(n)
}

/// The listed processes never take a single step.
pub fn silent_crashes(n: usize, crashed: &[ProcessId]) -> FaultPlan {
    FaultPlan::silent_crashes(n, crashed)
}

/// The listed processes run caller-supplied Byzantine strategies.
pub fn byzantine(n: usize, byzantine: &[ProcessId]) -> FaultPlan {
    FaultPlan::byzantine(n, byzantine)
}

/// Process `pid` crashes *immediately after completing its initial
/// broadcast to all `n` processes* — the placement of Lemma 3.5's run
/// ("fails right after sending its last message").
///
/// Budget arithmetic: one action for handling the start event plus `n`
/// actions for the `n` sends of the broadcast.
pub fn crash_after_initial_broadcast(n: usize, pid: ProcessId) -> FaultPlan {
    let mut plan = FaultPlan::all_correct(n);
    plan.set(
        pid,
        FaultSpec::Crash {
            after_actions: 1 + n as u64,
        },
    );
    plan
}

/// Process `pid` crashes mid-broadcast, after sending to only the first
/// `sent` recipients — the partial-broadcast crash that separates the
/// crash model from clean stopping failures.
pub fn crash_mid_broadcast(n: usize, pid: ProcessId, sent: usize) -> FaultPlan {
    let mut plan = FaultPlan::all_correct(n);
    plan.set(
        pid,
        FaultSpec::Crash {
            after_actions: 1 + sent as u64,
        },
    );
    plan
}

/// Process `pid` crashes right after issuing its first register write —
/// the placement of Lemma 4.2's run ("crashes right after completing its
/// last write operation"). The write's linearization point is its
/// invocation, so the value is visible despite the crash.
pub fn crash_after_first_write(n: usize, pid: ProcessId) -> FaultPlan {
    let mut plan = FaultPlan::all_correct(n);
    plan.set(pid, FaultSpec::Crash { after_actions: 2 });
    plan
}

/// A plan with exactly `t` silent crashes on the *last* `t` processes —
/// the bulk fault pattern used by termination sweeps.
///
/// # Panics
///
/// Panics if `t > n`.
pub fn last_t_silent(n: usize, t: usize) -> FaultPlan {
    assert!(t <= n, "cannot crash more processes than exist");
    let crashed: Vec<ProcessId> = (n - t..n).collect();
    FaultPlan::silent_crashes(n, &crashed)
}

/// Every silent-crash pattern with at most `t` crashed processes, i.e. one
/// [`FaultPlan`] per subset of `{0, …, n-1}` of size `<= t`, starting with
/// the failure-free plan.
///
/// This is the crash-pattern quantifier of the schedule-space model checker
/// (`kset-experiments`): "the protocol solves `SC(k, t, V)`" means every
/// schedule of every such pattern satisfies the spec, matching the
/// exhaustive interleaving enumerator's fault model (crashed processes
/// never take a step). The order is deterministic — by subset size, then
/// lexicographically — so checker run records are stable across runs.
///
/// # Panics
///
/// Panics if `t > n`.
pub fn all_silent_crash_patterns(n: usize, t: usize) -> Vec<FaultPlan> {
    assert!(t <= n, "cannot crash more processes than exist");
    let mut patterns = Vec::new();
    let mut subset: Vec<ProcessId> = Vec::new();
    for size in 0..=t {
        subsets_of_size(n, size, 0, &mut subset, &mut patterns);
    }
    patterns
}

fn subsets_of_size(
    n: usize,
    size: usize,
    from: ProcessId,
    subset: &mut Vec<ProcessId>,
    out: &mut Vec<FaultPlan>,
) {
    if subset.len() == size {
        out.push(FaultPlan::silent_crashes(n, subset));
        return;
    }
    for p in from..n {
        subset.push(p);
        subsets_of_size(n, size, p + 1, subset, out);
        subset.pop();
    }
}

/// Every bounded-Byzantine fault pattern with at most `t` faulty processes:
/// one [`FaultPlan`] per subset of `{0, …, n-1}` of size `<= t` per
/// assignment of each subset member to one of two behaviours —
///
/// * **Silent** ([`FaultSpec::Crash`] with budget 0): the process never
///   takes a step. A Byzantine process may always act crashed, so the
///   quantifier must cover silence explicitly — for several frontier cells
///   the winning adversary strategy *is* to say nothing.
/// * **Active** ([`FaultSpec::Byzantine`]): the process runs the normal
///   protocol, but every delivery it sources is a deviation branch point
///   for the scheduler (equivocation, value corruption, selective silence —
///   see `kset_sim::DeviationPolicy`). The process itself needs no strategy
///   object: the deviation space lives entirely in transit, which is what
///   makes it finitely enumerable.
///
/// The order is deterministic — by subset size, then lexicographic subset,
/// then assignment (binary counting, all-Silent first) — so checker run
/// records are stable. The failure-free plan comes first. Callers with an
/// *inactive* deviation policy (empty menu, no silence) should use
/// [`all_silent_crash_patterns`] instead: with no deviations available an
/// Active slot behaves exactly like a correct process, and the collapsed
/// space is the crash checker's, verdict for verdict.
///
/// # Panics
///
/// Panics if `t > n`.
pub fn all_byzantine_patterns(n: usize, t: usize) -> Vec<FaultPlan> {
    assert!(t <= n, "cannot corrupt more processes than exist");
    let mut patterns = Vec::new();
    let mut subset: Vec<ProcessId> = Vec::new();
    for size in 0..=t {
        byz_subsets_of_size(n, size, 0, &mut subset, &mut patterns);
    }
    patterns
}

fn byz_subsets_of_size(
    n: usize,
    size: usize,
    from: ProcessId,
    subset: &mut Vec<ProcessId>,
    out: &mut Vec<FaultPlan>,
) {
    if subset.len() == size {
        for bits in 0..(1u64 << size) {
            let mut plan = FaultPlan::all_correct(n);
            for (i, &p) in subset.iter().enumerate() {
                let spec = if bits & (1 << i) != 0 {
                    FaultSpec::Byzantine
                } else {
                    FaultSpec::Crash { after_actions: 0 }
                };
                plan.set(p, spec);
            }
            out.push(plan);
        }
        return;
    }
    for p in from..n {
        subset.push(p);
        byz_subsets_of_size(n, size, p + 1, subset, out);
        subset.pop();
    }
}

/// A plan with exactly `t` Byzantine slots on the *first* `t` processes —
/// the bulk fault pattern for Byzantine sweeps (the paper's constructions
/// habitually corrupt a prefix).
///
/// # Panics
///
/// Panics if `t > n`.
pub fn first_t_byzantine(n: usize, t: usize) -> FaultPlan {
    assert!(t <= n, "cannot corrupt more processes than exist");
    let byz: Vec<ProcessId> = (0..t).collect();
    FaultPlan::byzantine(n, &byz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kset_net::MpSystem;
    use kset_protocols::ProtocolA;

    const DEFAULT: u64 = u64::MAX;

    #[test]
    fn crash_after_initial_broadcast_lets_all_sends_out() {
        // n = 3: process 0 crashes after its full broadcast; everyone
        // still receives its input, so all-same inputs decide normally.
        let outcome = MpSystem::new(3)
            .seed(8)
            .fault_plan(crash_after_initial_broadcast(3, 0))
            .run_with(|_| ProtocolA::boxed(3, 1, 5u64, DEFAULT))
            .unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.correct_decision_set(), vec![5]);
        // Process 0 crashed before it could decide.
        assert!(!outcome.decisions.contains_key(&0));
    }

    #[test]
    fn crash_mid_broadcast_cuts_the_tail() {
        // Process 0 sends only to itself (recipient 0), then crashes:
        // processes 1 and 2 never see its value.
        let outcome = MpSystem::new(3)
            .seed(8)
            .fault_plan(crash_mid_broadcast(3, 0, 1))
            .run_with(|p| ProtocolA::boxed(3, 1, if p == 0 { 9u64 } else { 5 }, DEFAULT))
            .unwrap();
        assert!(outcome.terminated);
        // 1 and 2 each see {5, 5}: unanimous 5.
        assert_eq!(outcome.correct_decision_set(), vec![5]);
    }

    #[test]
    fn bulk_plans_have_the_right_shape() {
        let p = last_t_silent(6, 2);
        assert_eq!(p.faulty_set(), vec![4, 5]);
        let p = first_t_byzantine(6, 2);
        assert_eq!(p.faulty_set(), vec![0, 1]);
        assert!(all_correct(4).failure_free());
        assert_eq!(silent_crashes(4, &[1]).fault_count(), 1);
        assert_eq!(byzantine(4, &[2]).fault_count(), 1);
        assert_eq!(
            crash_after_first_write(4, 3).remaining_budget(3, 0),
            Some(2)
        );
    }

    #[test]
    #[should_panic(expected = "cannot crash more processes than exist")]
    fn last_t_silent_rejects_overflow() {
        let _ = last_t_silent(3, 4);
    }

    #[test]
    fn all_silent_crash_patterns_enumerates_subsets_in_order() {
        // n = 4, t = 1: the failure-free pattern plus one per process.
        let plans = all_silent_crash_patterns(4, 1);
        let sets: Vec<Vec<usize>> = plans.iter().map(|p| p.faulty_set()).collect();
        assert_eq!(sets, vec![vec![], vec![0], vec![1], vec![2], vec![3]]);

        // n = 4, t = 2: C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6 = 11 patterns,
        // sized then lexicographic.
        let plans = all_silent_crash_patterns(4, 2);
        assert_eq!(plans.len(), 11);
        assert_eq!(plans[5].faulty_set(), vec![0, 1]);
        assert_eq!(plans[10].faulty_set(), vec![2, 3]);
    }

    #[test]
    fn all_silent_crash_patterns_t_zero_is_failure_free_only() {
        let plans = all_silent_crash_patterns(3, 0);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].failure_free());
    }

    #[test]
    fn all_silent_crash_patterns_never_contain_byzantine_slots() {
        // The crash-pattern quantifier's contract: every plan it emits is
        // consumable by crash-only helpers (silent-crash reconstruction,
        // exhaustive cross-validation) without miscounting faults.
        for plan in all_silent_crash_patterns(4, 2) {
            assert!(!plan.has_byzantine());
        }
    }

    #[test]
    fn all_byzantine_patterns_enumerates_subsets_times_assignments() {
        // n = 3, t = 1: failure-free + 3 subsets × {Silent, Active} = 7.
        let plans = all_byzantine_patterns(3, 1);
        assert_eq!(plans.len(), 7);
        assert!(plans[0].failure_free());
        // Per subset: all-Silent assignment first, then Active.
        assert_eq!(plans[1].faulty_set(), vec![0]);
        assert!(!plans[1].has_byzantine());
        assert_eq!(plans[1].remaining_budget(0, 0), Some(0));
        assert_eq!(plans[2].faulty_set(), vec![0]);
        assert!(plans[2].has_byzantine());

        // n = 3, t = 2: 1 + 3·2 + 3·4 = 19.
        let plans = all_byzantine_patterns(3, 2);
        assert_eq!(plans.len(), 19);
        // The last plan: subset {1, 2}, both Active.
        let last = plans.last().unwrap();
        assert_eq!(last.faulty_set(), vec![1, 2]);
        assert_eq!(last.spec(1).kind(), kset_sim::FaultKind::Byzantine);
        assert_eq!(last.spec(2).kind(), kset_sim::FaultKind::Byzantine);
    }

    #[test]
    fn all_byzantine_patterns_silent_assignments_match_crash_patterns() {
        // Filtering the Byzantine space down to its all-Silent assignments
        // recovers exactly the silent-crash quantifier, plan for plan.
        let byz: Vec<_> = all_byzantine_patterns(4, 2)
            .into_iter()
            .filter(|p| !p.has_byzantine())
            .collect();
        assert_eq!(byz, all_silent_crash_patterns(4, 2));
    }
}
