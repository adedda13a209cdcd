//! A forked run stopped at a covered state is a prefix of the full run.
//!
//! [`ForkGate::covered`] lets the model checker end a forked run at the
//! first state its visited stores already cover. This suite pins what the
//! session promises around that stop, on a failure-free FloodMin cell:
//!
//! * a run stopped before its `d`-th pick holds exactly `d` log entries
//!   and `d` digests — the full run's first `d` — and reports itself
//!   truncated, not terminated;
//! * snapshots taken before the stop stay valid: every sibling resumed
//!   from them with [`ForkSession::resume_rc`] equals a from-the-root
//!   replay of its prefix (fired script, digests, outcome);
//! * the gate is asked at every beyond-prefix depth short of the run's
//!   end, and never inside the prefix;
//! * gates that do not override `covered` — [`AlwaysBranch`], and a gate
//!   that predicts no branch at all — never stop a run.

use std::rc::Rc;

use kset::net::MpSubstrate;
use kset::protocols::FloodMin;
use kset::sim::{
    AlwaysBranch, ChoiceScheduler, DigestMode, FaultPlan, ForkConfig, ForkGate, ForkSession,
    ProcessId, RunArena, RunSnapshot, System,
};

type Mp = MpSubstrate<u64, u64>;

/// A child prefix paired with the snapshot to resume it from.
type WorkItem = (Vec<usize>, Option<Rc<RunSnapshot<Mp>>>);

const N: usize = 3;

fn procs() -> Vec<<Mp as kset::sim::Substrate>::Process> {
    (0..N as u64).map(|v| FloodMin::boxed(N, 1, v)).collect()
}

fn session() -> ForkSession<Mp> {
    let config = ForkConfig {
        n: N,
        por: true,
        digest: DigestMode::Plain,
        event_limit: None,
        max_branch_depth: usize::MAX,
        budget_bytes: None,
    };
    ForkSession::new(config, FaultPlan::all_correct(N), procs()).expect("FloodMin forks")
}

/// Stops every run before its pick at `depth`, and snapshots every
/// branchy point before it.
struct StopAt(usize);

impl ForkGate for StopAt {
    fn branches_beyond(&mut self, _depth: usize, _fp: u64) -> bool {
        true
    }

    fn on_fired(&mut self, _target: ProcessId) {}

    fn covered(&mut self, depth: usize, _fp: u64) -> bool {
        depth == self.0
    }
}

/// Records every depth `covered` is asked at, and never stops a run.
#[derive(Default)]
struct Probe(Vec<usize>);

impl ForkGate for Probe {
    fn branches_beyond(&mut self, _depth: usize, _fp: u64) -> bool {
        true
    }

    fn on_fired(&mut self, _target: ProcessId) {}

    fn covered(&mut self, depth: usize, _fp: u64) -> bool {
        self.0.push(depth);
        false
    }
}

/// Predicts no branch anywhere: the session then takes no snapshots.
struct NeverBranch;

impl ForkGate for NeverBranch {
    fn branches_beyond(&mut self, _depth: usize, _fp: u64) -> bool {
        false
    }

    fn on_fired(&mut self, _target: ProcessId) {}
}

/// Asserts the session's just-finished run equals a from-the-root replay
/// of `prefix` run to termination.
fn assert_matches_replay(session: &ForkSession<Mp>, prefix: &[usize], arena: &mut RunArena) {
    let sched = ChoiceScheduler::new(prefix.to_vec());
    let log = sched.log_handle();
    let (replayed, digests, _) = System::new(N)
        .scheduler(sched)
        .fault_plan(FaultPlan::all_correct(N))
        .run_digested_in::<Mp>(procs(), arena)
        .expect("replayed run");
    let context = format!("prefix {prefix:?}");
    assert_eq!(
        session.log().fired_script(),
        log.borrow().fired_script(),
        "{context}: fired script"
    );
    assert_eq!(session.digests(), &digests[..], "{context}: digests");
    assert_eq!(session.export_outcome(), replayed, "{context}: outcome");
    arena.put_digests(digests);
}

#[test]
fn a_covered_state_stops_the_run_before_its_pick() {
    let mut session = session();
    session
        .run_root(Vec::new(), &mut AlwaysBranch)
        .expect("full run");
    assert!(session.terminated() && !session.truncated());
    let full_script = session.log().fired_script();
    let full_digests = session.digests().to_vec();
    assert!(
        full_script.len() > 4,
        "the canonical run is long enough to cut"
    );

    for depth in 1..full_script.len() {
        session
            .run_root(Vec::new(), &mut StopAt(depth))
            .expect("stopped run");
        assert!(session.truncated(), "depth {depth}: not truncated");
        assert!(!session.terminated(), "depth {depth}: terminated");
        assert_eq!(session.log().len(), depth, "depth {depth}: log length");
        assert_eq!(session.digests().len(), depth, "depth {depth}: digests");
        assert_eq!(session.log().fired_script(), full_script[..depth]);
        assert_eq!(session.digests(), &full_digests[..depth]);
    }

    // The gate is only asked below the run's end: a stop depth at or past
    // termination never truncates.
    session
        .run_root(Vec::new(), &mut StopAt(full_script.len()))
        .expect("full run");
    assert!(session.terminated() && !session.truncated());
    assert_eq!(session.log().len(), full_script.len());
}

#[test]
fn covered_is_asked_at_every_beyond_prefix_depth_only() {
    // From the root: every depth but the root state and the terminal one.
    let mut session = session();
    let mut probe = Probe::default();
    session.run_root(Vec::new(), &mut probe).expect("root run");
    let len = session.log().len();
    assert_eq!(probe.0, (1..len).collect::<Vec<_>>());

    // Resumed below the shallowest branch point past the root: never
    // inside the prefix, and at every depth after it.
    let log = session.log();
    let (d, i) = (1..len)
        .filter(|&d| session.snapshot_at(d).is_some())
        .find_map(|d| {
            let point = log.point(d);
            (0..point.options.len())
                .find(|&i| i != point.taken && !point.options[i].noop)
                .map(|i| (d, i))
        })
        .expect("the root run has a snapshotted branch point");
    let mut prefix = log.taken_indices()[..d].to_vec();
    prefix.push(i);
    drop(log);
    let snap = session.snapshot_at(d).expect("snapshotted above");
    let mut probe = Probe::default();
    session
        .resume_rc(snap, prefix, &mut probe)
        .expect("resumed run");
    assert!(session.terminated());
    assert!(
        session.log().len() > d + 2,
        "the resumed run is long enough"
    );
    assert_eq!(probe.0, (d + 1..session.log().len()).collect::<Vec<_>>());
}

#[test]
fn siblings_resumed_after_a_truncated_run_equal_replays() {
    let mut session = session();
    let mut arena = RunArena::new();
    session
        .run_root(Vec::new(), &mut AlwaysBranch)
        .expect("full run");
    let cut = session.log().len() - 2;

    session
        .run_root(Vec::new(), &mut StopAt(cut))
        .expect("stopped run");
    assert!(session.truncated());
    // One child per untried alternative below the cut, paired with the
    // snapshot taken there; pushed shallow-first so the deepest pops first
    // (the explorer's LIFO discipline).
    let log = session.log();
    let taken = log.taken_indices();
    let mut stack: Vec<(Vec<usize>, Rc<RunSnapshot<Mp>>)> = Vec::new();
    for d in 0..log.len() {
        let point = log.point(d);
        let Some(snap) = session.snapshot_at(d) else {
            continue;
        };
        for (i, _) in point
            .options
            .iter()
            .enumerate()
            .filter(|&(i, o)| i != point.taken && !o.noop)
        {
            let mut prefix = taken[..d].to_vec();
            prefix.push(i);
            stack.push((prefix, Rc::clone(&snap)));
        }
    }
    drop(log);
    assert!(stack.len() > 1, "the truncated run left siblings to resume");

    let mut resumed = 0;
    while let Some((prefix, snap)) = stack.pop() {
        session
            .resume_rc(snap, prefix.clone(), &mut AlwaysBranch)
            .expect("resumed run");
        assert!(session.terminated() && !session.truncated());
        assert_matches_replay(&session, &prefix, &mut arena);
        resumed += 1;
    }
    assert!(resumed > 1);
}

/// Walks up to `max_runs` schedules depth-first under gates from `gate`,
/// asserting none of them stops early.
fn assert_never_truncates<G: ForkGate>(mut gate: impl FnMut() -> G, max_runs: usize) {
    let mut session = session();
    let mut arena = RunArena::new();
    let mut stack: Vec<WorkItem> = vec![(Vec::new(), None)];
    let mut runs = 0;
    while let Some((prefix, snap)) = stack.pop() {
        if runs == max_runs {
            break;
        }
        runs += 1;
        let prefix_len = prefix.len();
        match snap {
            Some(snap) => session.resume_rc(snap, prefix.clone(), &mut gate()),
            None => session.run_root(prefix.clone(), &mut gate()),
        }
        .expect("forked run");
        assert!(!session.truncated(), "prefix {prefix:?}: truncated");
        assert!(session.terminated(), "prefix {prefix:?}: not terminated");
        assert_matches_replay(&session, &prefix, &mut arena);
        let log = session.log();
        let taken = log.taken_indices();
        for d in prefix_len..log.len() {
            let point = log.point(d);
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
    }
    assert_eq!(runs, max_runs, "the walk covered fewer runs than asked");
}

#[test]
fn gates_without_a_cover_check_never_truncate() {
    assert_never_truncates(|| AlwaysBranch, 300);
    assert_never_truncates(|| NeverBranch, 300);
}
