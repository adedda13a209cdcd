//! The forking executor is the replay executor, under every delivery
//! discipline and in both of the model checker's fork modes.
//!
//! A [`ForkSession`] resumes runs from mid-run snapshots, or — in the
//! checker's replay mode, `max_branch_depth` 0 — starts every run from its
//! root snapshot. Its contract: every run equals `System::run_digested_in`
//! (faithful sessions) or `System::run_digested_adv_in` (deviant sessions)
//! replaying the same choice prefix from the initial state — the choice
//! log with its deviations (`fired_script`), the digest chain, the
//! decisions, the termination flag and the kernel counters. The suite
//! drives a depth-first walk over each cell's schedule-and-deviation tree
//! (the explorer's LIFO discipline, `AlwaysBranch` gate, no byte budget),
//! checking every run against the replay, once with snapshots and once
//! with every run from the root: on one MP Byzantine plan, one SM
//! Byzantine plan and one lossy plan on deviant sessions, and on one MP
//! and one SM crash plan on faithful sessions.

use std::rc::Rc;

use kset::net::MpSubstrate;
use kset::protocols::{FloodMin, ProtocolE};
use kset::shmem::SmSubstrate;
use kset::sim::{
    AlwaysBranch, ChoiceScheduler, Delivery, Deviation, DeviationPolicy, DigestMode, FaultPlan,
    FaultSpec, ForkConfig, ForkSession, RunArena, RunSnapshot, SubstrateAdv, SubstrateFork, System,
};

/// Register-decision rule sentinel used by the shared-memory protocols.
const DEFAULT: u64 = u64::MAX;

/// Runs compared per cell: enough to cover several levels of nested
/// resumption while keeping the debug-build suite quick.
const MAX_RUNS: usize = 1000;

/// The `max_branch_depth` of a session that snapshots every branch point.
const FORKED: usize = usize::MAX;

/// The `max_branch_depth` of the checker's replay mode: no snapshot, every
/// run from the root.
const FROM_ROOT: usize = 0;

/// A child prefix paired with the snapshot taken at its branch point.
type WorkItem<S> = (Vec<usize>, Option<Rc<RunSnapshot<S>>>);

/// What the walk saw, for the coverage assertions.
#[derive(Default, Debug)]
struct Coverage {
    runs: usize,
    resumed: usize,
    deviant_runs: usize,
    lone_deviant_points: usize,
}

/// Walks `plan`'s tree depth-first on the session `build` makes from a
/// configuration with `max_branch_depth` and fresh processes, comparing
/// every run with a from-the-root replay of its prefix under `policy`.
fn walk<S, D>(
    plan: &FaultPlan,
    policy: Option<&DeviationPolicy>,
    max_branch_depth: usize,
    procs: impl Fn() -> Vec<S::Process>,
    build: impl FnOnce(ForkConfig, Vec<S::Process>) -> Option<ForkSession<S, D>>,
) -> Coverage
where
    S: SubstrateFork<Output = u64> + SubstrateAdv,
    D: Delivery<S>,
{
    let n = plan.n();
    let config = ForkConfig {
        n,
        por: true,
        digest: DigestMode::Plain,
        event_limit: None,
        max_branch_depth,
        budget_bytes: None,
    };
    let mut session = build(config, procs()).expect("protocol processes are forkable");
    let mut arena = RunArena::new();
    let mut cov = Coverage::default();
    let mut stack: Vec<WorkItem<S>> = vec![(Vec::new(), None)];
    while let Some((prefix, snap)) = stack.pop() {
        if cov.runs == MAX_RUNS {
            break;
        }
        cov.runs += 1;
        let prefix_len = prefix.len();
        match &snap {
            Some(snap) => {
                cov.resumed += 1;
                session.resume(snap, prefix.clone(), &mut AlwaysBranch)
            }
            None => session.run_root(prefix.clone(), &mut AlwaysBranch),
        }
        .expect("forked run");

        let sched = ChoiceScheduler::new(prefix.clone()).with_policy(policy.cloned());
        let log = sched.log_handle();
        let sys = System::new(n).scheduler(sched).fault_plan(plan.clone());
        let (replayed, digests, _) = match policy {
            Some(_) => sys.run_digested_adv_in::<S>(procs(), &mut arena),
            None => sys.run_digested_in::<S>(procs(), &mut arena),
        }
        .expect("replayed run");
        let context = format!("plan {plan:?}, prefix {prefix:?}");
        let forked_log = session.log();
        let script = forked_log.fired_script();
        assert_eq!(script, log.borrow().fired_script(), "{context}: choice log");
        assert_eq!(
            forked_log.taken_indices(),
            log.borrow().taken_indices(),
            "{context}: taken indices"
        );
        assert_eq!(session.digests(), &digests[..], "{context}: digests");
        // Decisions, fault sets, termination and kernel counters.
        assert_eq!(session.export_outcome(), replayed, "{context}: outcome");

        if script.iter().any(|(_, d)| *d != Deviation::Faithful) {
            cov.deviant_runs += 1;
        }
        // Every beyond-prefix alternative seeds a child, paired with the
        // snapshot taken at its branch point (LIFO keeps the session's log
        // a valid history for every popped child).
        let taken = forked_log.taken_indices();
        for d in prefix_len..forked_log.len() {
            let point = forked_log.point(d);
            let lone = point.options.len() > 1
                && point
                    .options
                    .iter()
                    .all(|o| o.meta.id == point.options[0].meta.id);
            if lone && !point.forced {
                // A lone pending event whose variants are siblings is a
                // branch point: a snapshotting session must have
                // snapshotted it.
                cov.lone_deviant_points += 1;
                assert!(
                    max_branch_depth == FROM_ROOT || session.snapshot_at(d).is_some(),
                    "{context}: no snapshot at lone deviant point {d}"
                );
            }
            if point.forced {
                continue;
            }
            for (i, _) in point
                .options
                .iter()
                .enumerate()
                .filter(|&(i, o)| i != point.taken && !o.noop)
            {
                let mut child = taken[..d].to_vec();
                child.push(i);
                stack.push((child, session.snapshot_at(d)));
            }
        }
        drop(forked_log);
        arena.put_digests(digests);
    }
    cov
}

/// [`walk`] on a deviant session, once with snapshots and once with every
/// run from the root; the two coverages, in that order.
fn walk_deviant<S>(
    plan: &FaultPlan,
    policy: &DeviationPolicy,
    procs: impl Fn() -> Vec<S::Process>,
) -> [Coverage; 2]
where
    S: SubstrateFork<Output = u64> + SubstrateAdv,
{
    [FORKED, FROM_ROOT].map(|depth| {
        walk::<S, _>(plan, Some(policy), depth, &procs, |config, procs| {
            ForkSession::deviant(config, plan.clone(), procs, policy.clone())
        })
    })
}

/// [`walk_deviant`] for a faithful session without a deviation policy.
fn walk_faithful<S>(plan: &FaultPlan, procs: impl Fn() -> Vec<S::Process>) -> [Coverage; 2]
where
    S: SubstrateFork<Output = u64> + SubstrateAdv,
{
    [FORKED, FROM_ROOT].map(|depth| {
        walk::<S, _>(plan, None, depth, &procs, |config, procs| {
            ForkSession::new(config, plan.clone(), procs)
        })
    })
}

/// The coverage both walks of one tree must show: the same runs, most of
/// them resumed with snapshots and none without.
fn assert_forked_and_from_root(cov: &[Coverage; 2]) {
    let [forked, from_root] = cov;
    assert!(forked.resumed > forked.runs / 2, "{cov:?}");
    assert_eq!(from_root.resumed, 0, "{cov:?}");
    assert_eq!(forked.runs, from_root.runs, "{cov:?}");
}

#[test]
fn mp_byzantine_forked_runs_equal_replays() {
    let (n, t) = (3, 1);
    let plan = FaultPlan::byzantine(n, &[0]);
    let policy = DeviationPolicy::byzantine(vec![0], true);
    let cov = walk_deviant::<MpSubstrate<u64, u64>>(&plan, &policy, || {
        (0..n).map(|_| FloodMin::boxed(n, t, 1)).collect()
    });
    assert_eq!(cov[0].runs, MAX_RUNS, "{cov:?}");
    assert_forked_and_from_root(&cov);
    assert!(cov.iter().all(|c| c.deviant_runs > 0), "{cov:?}");
}

#[test]
fn sm_byzantine_forked_runs_equal_replays() {
    let (n, t) = (3, 1);
    let plan = FaultPlan::byzantine(n, &[2]);
    let policy = DeviationPolicy::byzantine(vec![0], false);
    let cov = walk_deviant::<SmSubstrate<u64, u64>>(&plan, &policy, || {
        (0..n as u64)
            .map(|v| ProtocolE::boxed(n, t, v, DEFAULT))
            .collect()
    });
    assert_forked_and_from_root(&cov);
    assert!(cov.iter().all(|c| c.deviant_runs > 0), "{cov:?}");
    // A reader blocked on the Byzantine register's read response, with
    // nothing else pending: its forge variant is the point's only
    // sibling.
    assert!(cov.iter().all(|c| c.lone_deviant_points > 0), "{cov:?}");
}

#[test]
fn lossy_forked_runs_equal_replays() {
    let (n, t) = (3, 1);
    let plan = FaultPlan::all_correct(n);
    let policy = DeviationPolicy::lossy(1);
    let cov = walk_deviant::<MpSubstrate<u64, u64>>(&plan, &policy, || {
        (0..n as u64).map(|v| FloodMin::boxed(n, t, v)).collect()
    });
    assert_forked_and_from_root(&cov);
    assert!(cov.iter().all(|c| c.deviant_runs > 0), "{cov:?}");
}

/// One process of `n` crashes after its first atomic action.
fn crash_plan(n: usize) -> FaultPlan {
    let mut plan = FaultPlan::all_correct(n);
    plan.set(0, FaultSpec::Crash { after_actions: 1 });
    plan
}

#[test]
fn mp_crash_faithful_runs_equal_replays() {
    let (n, t) = (3, 1);
    let cov = walk_faithful::<MpSubstrate<u64, u64>>(&crash_plan(n), || {
        (0..n as u64).map(|v| FloodMin::boxed(n, t, v)).collect()
    });
    assert_forked_and_from_root(&cov);
    assert!(cov.iter().all(|c| c.deviant_runs == 0), "{cov:?}");
}

#[test]
fn sm_crash_faithful_runs_equal_replays() {
    let (n, t) = (3, 1);
    let cov = walk_faithful::<SmSubstrate<u64, u64>>(&crash_plan(n), || {
        (0..n as u64)
            .map(|v| ProtocolE::boxed(n, t, v, DEFAULT))
            .collect()
    });
    assert_forked_and_from_root(&cov);
    assert!(cov.iter().all(|c| c.deviant_runs == 0), "{cov:?}");
}
