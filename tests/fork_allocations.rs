//! Forked runs allocate nothing once the session is warm.
//!
//! The model checker resumes millions of short forked runs, so a resume's
//! fixed cost matters as much as its event work. [`ForkSession`] restores
//! the kernel, the run state, the processes and the substrate's shared
//! state into the buffers it already owns, and protocols copy themselves
//! into their existing boxes. This suite counts heap allocations per
//! thread with a counting global allocator and pins that, after a warm-up
//! round, resuming from a snapshot allocates zero times — from a snapshot
//! other owners still hold (the copying path) and from one the caller
//! hands over (the swap path) — for FloodMin on message passing and
//! Protocol E on shared memory.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use kset::net::MpSubstrate;
use kset::protocols::{FloodMin, ProtocolE};
use kset::shmem::SmSubstrate;
use kset::sim::{
    AlwaysBranch, DigestMode, FaultPlan, ForkConfig, ForkGate, ForkSession, ProcessId, StateDigest,
    Substrate, SubstrateFork,
};

/// Counts allocations (fresh and grown) on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const N: usize = 3;

/// Rounds of resumes measured after the warm-up round.
const ROUNDS: usize = 4;

fn config() -> ForkConfig {
    ForkConfig {
        n: N,
        por: true,
        digest: DigestMode::Plain,
        event_limit: None,
        max_branch_depth: usize::MAX,
        budget_bytes: None,
    }
}

/// Takes no snapshot past the root, so a measured resume allocates no
/// new snapshot handle.
struct NoSnapshots;

impl ForkGate for NoSnapshots {
    fn branches_beyond(&mut self, _depth: usize, _fp: u64) -> bool {
        false
    }

    fn on_fired(&mut self, _target: ProcessId) {}
}

/// Runs the canonical schedule with a snapshot at every branchy point and
/// returns the middle snapshot's depth with one prefix per alternative
/// there.
fn branch_prefixes<S: SubstrateFork>(session: &mut ForkSession<S>) -> (usize, Vec<Vec<usize>>)
where
    S::Output: StateDigest + Clone,
{
    session
        .run_root(Vec::new(), &mut AlwaysBranch)
        .expect("canonical run");
    let log = session.log();
    let depths: Vec<usize> = (1..log.len())
        .filter(|&d| session.snapshot_at(d).is_some())
        .collect();
    assert!(
        !depths.is_empty(),
        "the canonical run branches past the root"
    );
    let depth = depths[depths.len() / 2];
    let taken = log.taken_indices();
    let prefixes = (0..log.point(depth).options.len())
        .map(|i| {
            let mut prefix = taken[..depth].to_vec();
            prefix.push(i);
            prefix
        })
        .collect();
    (depth, prefixes)
}

/// Resumes every alternative at one shared snapshot, a warm-up round and
/// then [`ROUNDS`] measured ones.
fn shared_resumes_allocate_nothing<S: SubstrateFork>(mut session: ForkSession<S>)
where
    S::Output: StateDigest + Clone,
{
    let (depth, prefixes) = branch_prefixes(&mut session);
    let snap = session.snapshot_at(depth).expect("snapshot at the branch");
    let mut rounds: Vec<Vec<Vec<usize>>> = vec![prefixes; ROUNDS + 1];
    for prefix in rounds.remove(0) {
        session
            .resume(&snap, prefix, &mut NoSnapshots)
            .expect("warm-up resume");
    }
    let before = session.counters();
    let allocations = allocations_in(|| {
        for prefix in rounds.into_iter().flatten() {
            session
                .resume(&snap, prefix, &mut NoSnapshots)
                .expect("resume");
        }
    });
    let copied = session.counters().resumes_copied - before.resumes_copied;
    assert!(copied > 0, "the measured resumes copied the snapshot");
    assert_eq!(allocations, 0, "{copied} shared resumes allocated");
}

/// Takes a fresh snapshot spine for each alternative and hands its
/// snapshot over, so every measured resume takes the swap path. The whole
/// cycle — a canonical run that snapshots every branchy point, then the
/// resume — allocates, per snapshot, its handle and one box per process
/// copy, and nothing else.
fn owned_resumes_allocate_nothing<S: SubstrateFork>(mut session: ForkSession<S>)
where
    S::Output: StateDigest + Clone,
{
    let (depth, prefixes) = branch_prefixes(&mut session);
    let (mut cycle_allocations, mut resume_allocations) = (0, 0);
    let start = session.counters();
    for round in 0..=ROUNDS {
        for prefix in &prefixes {
            let (root_prefix, prefix) = (Vec::new(), prefix.clone());
            let before = session.counters();
            let mut resumed = 0;
            let made = allocations_in(|| {
                session
                    .run_root(root_prefix, &mut AlwaysBranch)
                    .expect("canonical run");
                let snap = session.snapshot_at(depth).expect("snapshot at the branch");
                resumed = allocations_in(|| {
                    session
                        .resume_rc(snap, prefix, &mut NoSnapshots)
                        .expect("resume");
                });
            });
            let snapshots = session.counters().snapshots - before.snapshots;
            if round > 0 {
                cycle_allocations += made - snapshots * (1 + N as u64);
                resume_allocations += resumed;
            }
        }
    }
    let moved = session.counters().resumes_moved - start.resumes_moved;
    assert_eq!(
        moved,
        ((ROUNDS + 1) * prefixes.len()) as u64,
        "every resume took the swap path"
    );
    assert_eq!(resume_allocations, 0, "{moved} owned resumes allocated");
    assert_eq!(
        cycle_allocations, 0,
        "snapshots allocated beyond their handles"
    );
}

type Mp = MpSubstrate<u64, u64>;
type Sm = SmSubstrate<u64, u64>;

fn floodmin() -> ForkSession<Mp> {
    let procs: Vec<<Mp as Substrate>::Process> =
        (0..N as u64).map(|v| FloodMin::boxed(N, 1, v)).collect();
    ForkSession::new(config(), FaultPlan::all_correct(N), procs).expect("FloodMin forks")
}

fn protocol_e() -> ForkSession<Sm> {
    let procs: Vec<<Sm as Substrate>::Process> = (0..N as u64)
        .map(|v| ProtocolE::boxed(N, 1, v % 2, u64::MAX))
        .collect();
    ForkSession::new(config(), FaultPlan::all_correct(N), procs).expect("Protocol E forks")
}

#[test]
fn floodmin_shared_resumes_allocate_nothing() {
    shared_resumes_allocate_nothing(floodmin());
}

#[test]
fn floodmin_owned_resumes_allocate_nothing() {
    owned_resumes_allocate_nothing(floodmin());
}

#[test]
fn protocol_e_shared_resumes_allocate_nothing() {
    shared_resumes_allocate_nothing(protocol_e());
}

#[test]
fn protocol_e_owned_resumes_allocate_nothing() {
    owned_resumes_allocate_nothing(protocol_e());
}

#[test]
fn the_counter_sees_allocations() {
    let made = allocations_in(|| {
        std::hint::black_box(vec![1u8; 16]);
    });
    assert_eq!(made, 1);
}
