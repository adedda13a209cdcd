//! The forking executor under deviation policies is the replay executor.
//!
//! A [`ForkSession::deviant`] session resumes Byzantine and lossy-network
//! runs from mid-run snapshots. Its contract: every run resumed from any
//! snapshot equals `System::run_digested_adv_in` replaying the same choice
//! prefix from the initial state — the choice log with its deviations
//! (`fired_script`), the digest chain, the decisions, the termination flag
//! and the kernel counters. The suite drives a depth-first walk over each
//! cell's schedule-and-deviation tree (the explorer's LIFO discipline,
//! `AlwaysBranch` gate, no byte budget), checking every run against the
//! replay oracle, on one MP Byzantine plan, one SM Byzantine plan and one
//! lossy plan.

use std::rc::Rc;

use kset::net::MpSubstrate;
use kset::protocols::{FloodMin, ProtocolE};
use kset::shmem::SmSubstrate;
use kset::sim::{
    AlwaysBranch, ChoiceScheduler, DeviantDelivery, Deviation, DeviationPolicy, DigestMode,
    FaultPlan, ForkConfig, ForkSession, RunArena, RunSnapshot, SubstrateAdv, SubstrateFork,
    System,
};

/// Register-decision rule sentinel used by the shared-memory protocols.
const DEFAULT: u64 = u64::MAX;

/// Runs compared per cell: enough to cover several levels of nested
/// resumption while keeping the debug-build suite quick.
const MAX_RUNS: usize = 1000;

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

/// Walks `plan`'s tree depth-first on a deviant fork session, comparing
/// every run with a from-the-root replay of its prefix.
fn walk<S>(
    plan: &FaultPlan,
    policy: &DeviationPolicy,
    procs: impl Fn() -> Vec<S::Process>,
) -> Coverage
where
    S: SubstrateFork<Output = u64> + SubstrateAdv,
{
    let n = plan.n();
    let config = ForkConfig {
        n,
        por: true,
        digest: DigestMode::Plain,
        event_limit: None,
        max_branch_depth: usize::MAX,
        budget_bytes: None,
    };
    let mut session =
        ForkSession::<S, DeviantDelivery>::deviant(config, plan.clone(), procs(), policy.clone())
            .expect("protocol processes are forkable");
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

        let sched = ChoiceScheduler::new(prefix.clone()).with_policy(Some(policy.clone()));
        let log = sched.log_handle();
        let (replayed, digests, _) = System::new(n)
            .scheduler(sched)
            .fault_plan(plan.clone())
            .run_digested_adv_in::<S>(procs(), &mut arena)
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
                && point.options.iter().all(|o| o.meta.id == point.options[0].meta.id);
            if lone && !point.forced {
                // A lone pending event whose variants are siblings is a
                // branch point: the executor must have snapshotted it.
                cov.lone_deviant_points += 1;
                assert!(
                    session.snapshot_at(d).is_some(),
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

#[test]
fn mp_byzantine_forked_runs_equal_replays() {
    let (n, t) = (3, 1);
    let plan = FaultPlan::byzantine(n, &[0]);
    let policy = DeviationPolicy::byzantine(vec![0], true);
    let cov = walk::<MpSubstrate<u64, u64>>(&plan, &policy, || {
        (0..n).map(|_| FloodMin::boxed(n, t, 1)).collect()
    });
    assert_eq!(cov.runs, MAX_RUNS, "{cov:?}");
    assert!(cov.resumed > cov.runs / 2, "{cov:?}");
    assert!(cov.deviant_runs > 0, "{cov:?}");
}

#[test]
fn sm_byzantine_forked_runs_equal_replays() {
    let (n, t) = (3, 1);
    let plan = FaultPlan::byzantine(n, &[2]);
    let policy = DeviationPolicy::byzantine(vec![0], false);
    let cov = walk::<SmSubstrate<u64, u64>>(&plan, &policy, || {
        (0..n as u64).map(|v| ProtocolE::boxed(n, t, v, DEFAULT)).collect()
    });
    assert!(cov.resumed > cov.runs / 2, "{cov:?}");
    assert!(cov.deviant_runs > 0, "{cov:?}");
    // A reader blocked on the Byzantine register's read response, with
    // nothing else pending: its forge variant is the point's only
    // sibling.
    assert!(cov.lone_deviant_points > 0, "{cov:?}");
}

#[test]
fn lossy_forked_runs_equal_replays() {
    let (n, t) = (3, 1);
    let plan = FaultPlan::all_correct(n);
    let policy = DeviationPolicy::lossy(1);
    let cov = walk::<MpSubstrate<u64, u64>>(&plan, &policy, || {
        (0..n as u64).map(|v| FloodMin::boxed(n, t, v)).collect()
    });
    assert!(cov.resumed > cov.runs / 2, "{cov:?}");
    assert!(cov.deviant_runs > 0, "{cov:?}");
}
