//! Recycled serve instances allocate nothing once warm.
//!
//! A `kset-serve` worker keeps its finished instances and restarts them
//! for later proposals: [`Instance::restart`] resets the session's kernel,
//! run state and scheduler in place and re-initialises the processes
//! through `fork_into`, and [`Instance::finish_into`] writes the decision
//! into a compact [`DecisionBatch`] instead of building a `RunRecord`.
//! This suite counts heap allocations per thread with a counting global
//! allocator and pins that a warm restart, run and finish of one instance
//! allocates zero times. (A worker that built every instance afresh and
//! finished it into an owned `RunRecord` made 15 allocations to start an
//! instance, 3.7 on average while it ran and 3 to finish it.)

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::time::Instant;

use kset_serve::{DecisionBatch, Instance, Propose, Workload};

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
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Instances run before measuring, so every buffer reaches the size the
/// largest pending pool of these schedules needs.
const WARM_UP: u64 = 64;

/// Instances measured after the warm-up.
const MEASURED: u64 = 256;

fn propose(id: u64, n: usize) -> Propose {
    Propose {
        id,
        inputs: (0..n as u64).map(|p| (id * 31 + p * 7) % 97).collect(),
        submitted: Instant::now(),
    }
}

/// Restarts `instance` with `propose`, steps it to the end in waves of
/// `budget` events and finishes it into `batch`.
fn serve_one(instance: &mut Instance, propose: Propose, budget: u32, batch: &mut DecisionBatch) {
    instance.restart(propose).expect("arity matches");
    while !instance.step_wave(budget).expect("FloodMin terminates") {}
    instance.finish_into(batch);
}

#[test]
fn warm_restart_run_and_finish_allocate_nothing() {
    for (workload, budget) in [
        (Workload::flood_min(3, 1), 16),
        (Workload::flood_min(3, 1), 1),
        (Workload::flood_min(5, 2), 4),
    ] {
        let n = workload.n;
        let (fresh, instance) = allocations_in(|| Instance::new(propose(0, n), &workload));
        let mut instance = instance.expect("valid proposal");
        assert!(fresh > 0, "the allocation counter sees Instance::new");
        let mut batch = DecisionBatch::new();
        for id in 1..=WARM_UP {
            serve_one(&mut instance, propose(id, n), budget, &mut batch);
        }
        let mut allocations = 0;
        for id in WARM_UP + 1..=WARM_UP + MEASURED {
            batch.clear();
            let next = propose(id, n);
            allocations += allocations_in(|| serve_one(&mut instance, next, budget, &mut batch)).0;
        }
        assert_eq!(
            allocations, 0,
            "{workload:?} budget {budget}: {MEASURED} warm instances allocated"
        );
        // The batch still answers with full decisions.
        let decision = batch.next().expect("the last instance's decision");
        assert_eq!(decision.id, WARM_UP + MEASURED);
        assert!(decision.record.terminated());
        assert_eq!(decision.record.decisions().len(), n);
    }
}
