//! Parallel execution of independent, deterministic tasks from a shared queue.
//!
//! Every parallel workload in this crate — the model checker's schedule
//! subtrees, the sweep binaries' `(t, k)` cells, the exhaustive
//! enumerator's protocol×input×t triples — has the same shape: a list of
//! **independent tasks is enumerated up front**, each task is a pure
//! function of its input (it builds its own simulator, explores its own
//! subtree), and the caller needs the results **in task order** so output
//! files and stdout tables stay byte-deterministic.
//!
//! [`parallel_map`] is that shape as a function. Tasks go into one shared
//! FIFO queue (a `Mutex<VecDeque>`), and `threads` workers (spawned with
//! [`std::thread::scope`], so borrowed task inputs need no `'static`
//! bound) repeatedly pop the next task until the queue drains. The lock is
//! held only for the pop, never while a task runs, and tasks are coarse
//! (a schedule subtree, a sweep cell), so it is not contended. Claiming
//! whole tasks, rather than handing each worker a pre-cut stripe, is what
//! absorbs skew: schedule subtrees and sweep cells differ in cost by
//! orders of magnitude, and a striped split would leave most workers idle
//! behind the unluckiest one.
//!
//! # Determinism contract
//!
//! The scheduler never influences a result: a task's output depends only
//! on its input, results are written into per-task slots and returned in
//! task order, and nothing is shared between tasks. Consequently every
//! `threads` value — including 1 — produces the identical `Vec<R>`.
//!
//! [`parallel_drain_watched`] extends the contract to workloads that
//! *want* sharing — the model checker's dedup table — and to searches
//! that want early exit or deterministic work splitting. It processes a
//! queue in fixed-size waves with a barrier between waves; every task in
//! a wave reads the same frozen snapshot of the shared state, the wave's
//! results are handed to the state in claim order at the barrier
//! (optionally enqueueing follow-up tasks), and no further waves are
//! claimed once a completed wave requests a stop or a wave observer
//! pauses the drain. Because the wave
//! boundaries are a constant of the algorithm (not of the thread count or
//! of timing), what each task observes, the set of executed tasks, and
//! the follow-ups they spawn — and therefore every merged counter — are
//! again identical for every `threads` value. The model checker leans on
//! exactly this: even its *counters* (runs explored, states cached) are
//! thread-count-independent, because workers never race on the shared
//! table. The barrier itself may run in parallel: the checker folds the
//! wave's tables into a store partitioned by fingerprint
//! ([`crate::visited::Sharded`]), each shard on one worker and in claim
//! order, so the folded state is thread-count independent as well (see
//! `checker` module docs for the time-vs-sharing trade).

use std::collections::VecDeque;
use std::sync::Mutex;

/// Tasks per wave in [`parallel_drain_watched`]. A constant (never derived
/// from the thread count) so the set of explored tasks is identical for
/// every `threads` value; 32 keeps any wave wide enough for the core
/// counts this workspace targets while bounding the work done past an
/// early hit.
pub const CHUNK: usize = 32;

/// Runs every task across `threads` workers and returns the results in
/// task order. `f` is called as `f(index, task)`; it must be a pure
/// function of its arguments for the determinism contract (module docs)
/// to hold. `threads` is clamped to at least 1; with one worker (or one
/// task) everything runs inline on the caller's thread.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller after the workers join.
pub fn parallel_map<T, R, F>(threads: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = threads.max(1).min(tasks.len().max(1));
    if threads == 1 {
        return tasks.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let len = tasks.len();
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(tasks.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // The guard is a temporary of this statement: the task below
                // runs with the queue unlocked.
                let next = queue.lock().expect("task queue poisoned").pop_front();
                let Some((index, task)) = next else { break };
                let result = f(index, task);
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task produces a result")
        })
        .collect()
}

/// What a [`parallel_drain_watched`] wave observer asks the drain to do
/// next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaveControl {
    /// Claim the next wave.
    Continue,
    /// Stop claiming waves and return [`DrainExit::Paused`], leaving the
    /// remaining queue untouched (the observer is expected to have
    /// persisted it).
    Pause,
}

/// How a [`parallel_drain_watched`] call ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DrainExit {
    /// The queue drained completely.
    Drained,
    /// An `absorb` call requested a stop; `work_left` says whether tasks
    /// were still queued when the drain obeyed it.
    Stopped {
        /// Whether the queue was non-empty at the stop.
        work_left: bool,
    },
    /// The wave observer returned [`WaveControl::Pause`].
    Paused,
}

/// Drains a work queue in [`CHUNK`]-sized waves with a shared,
/// chunk-synchronized `state`:
///
/// * every task in a wave reads the same frozen `&S` — the state as of
///   the end of the *previous* wave;
/// * after a wave completes, `absorb(state, results, queue)` receives its
///   results in claim order, in one call, so it can fold them together
///   (in parallel, if it keeps the outcome independent of the worker
///   count); it may push follow-up tasks onto the back of the queue
///   (deterministic task *splitting*), and its `bool` return marks a stop
///   request;
/// * once a completed wave requests a stop, no further waves are claimed;
/// * after every other wave is absorbed (and its follow-up tasks queued),
///   the **wave observer** `on_wave` sees the mutable state and the
///   remaining queue, and may pause the drain.
///
/// Both the early exit and the state visibility are at chunk granularity
/// precisely so that what each task *sees*, *whether it runs at all*, and
/// which follow-up tasks exist depend only on the initial queue — the
/// module's determinism contract extended to shared state and dynamic
/// task lists. Tasks inside one wave cannot observe one another; sharing
/// that would depend on which worker finishes first is exactly what this
/// API rules out. `f` receives the task's claim index (its position in
/// the overall claim order).
///
/// This is the checkpointing seam of the campaign layer (`crate::campaign`):
/// a wave boundary is the only moment the shared state is both quiescent
/// and deterministic — a pure function of the initial queue, independent of
/// `threads` — so a snapshot of `(state, queue)` taken here can be resumed
/// bit-identically. The observer runs on the caller's thread between waves;
/// it never races with task execution. `on_wave` is *not* called after a
/// wave whose absorbs requested a stop (the drain is ending anyway), nor
/// after the final wave of a completed drain (the caller holds the state
/// and an empty queue at that point).
pub fn parallel_drain_watched<T, R, S, F>(
    threads: usize,
    initial: Vec<T>,
    state: &mut S,
    f: F,
    mut absorb: impl FnMut(&mut S, Vec<R>, &mut Vec<T>) -> bool,
    mut on_wave: impl FnMut(&mut S, &VecDeque<T>) -> WaveControl,
) -> DrainExit
where
    T: Send,
    R: Send,
    S: Sync,
    F: Fn(usize, &S, T) -> R + Sync,
{
    let mut queue = VecDeque::from(initial);
    let mut claimed = 0;
    while !queue.is_empty() {
        let wave: Vec<T> = queue.drain(..CHUNK.min(queue.len())).collect();
        let base = claimed;
        claimed += wave.len();
        let frozen: &S = state;
        let wave_results = parallel_map(threads, wave, |i, t| f(base + i, frozen, t));
        let mut followups: Vec<T> = Vec::new();
        let stop = absorb(state, wave_results, &mut followups);
        queue.extend(followups);
        if stop {
            return DrainExit::Stopped {
                work_left: !queue.is_empty(),
            };
        }
        if !queue.is_empty() && on_wave(state, &queue) == WaveControl::Pause {
            return DrainExit::Paused;
        }
    }
    DrainExit::Drained
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order_for_every_thread_count() {
        let tasks: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = tasks.iter().map(|t| t * 3).collect();
        for threads in [1, 2, 4, 9] {
            let got = parallel_map(threads, tasks.clone(), |i, t| {
                assert_eq!(i, t);
                t * 3
            });
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = parallel_map(4, (0..257).collect::<Vec<usize>>(), |_, t| {
            counter.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(results.len(), 257);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let results: Vec<u32> = parallel_map(8, Vec::<u32>::new(), |_, t| t);
        assert!(results.is_empty());
    }

    /// The observer of drains that never pause.
    fn never_pause<S, T>(_: &mut S, _: &VecDeque<T>) -> WaveControl {
        WaveControl::Continue
    }

    #[test]
    fn drain_stops_at_the_wave_containing_the_hit() {
        // Hit at index CHUNK + 3: wave 0 and wave 1 run, wave 2 doesn't.
        let tasks: Vec<usize> = (0..CHUNK * 3).collect();
        for threads in [1, 4] {
            let mut absorbed: Vec<usize> = Vec::new();
            let exit = parallel_drain_watched(
                threads,
                tasks.clone(),
                &mut absorbed,
                |_, _, t| t,
                |done, wave, _| {
                    done.extend(&wave);
                    wave.contains(&(CHUNK + 3))
                },
                never_pause,
            );
            assert_eq!(exit, DrainExit::Stopped { work_left: true });
            assert_eq!(absorbed.len(), CHUNK * 2, "whole waves only");
            assert_eq!(absorbed, (0..CHUNK * 2).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn drain_without_stops_runs_everything() {
        let mut absorbed = 0usize;
        let exit = parallel_drain_watched(
            3,
            (0..75usize).collect::<Vec<usize>>(),
            &mut absorbed,
            |_, _, t| t,
            |count, wave, _| {
                *count += wave.len();
                false
            },
            never_pause,
        );
        assert_eq!(exit, DrainExit::Drained);
        assert_eq!(absorbed, 75);
    }

    #[test]
    fn drain_state_is_frozen_within_a_wave_and_folded_between_waves() {
        // Each task reports the state it saw; the state counts absorbed
        // results. Every task in wave w must therefore see exactly
        // w * CHUNK regardless of thread count.
        let tasks: Vec<usize> = (0..CHUNK * 3).collect();
        for threads in [1, 4] {
            let mut state = (0usize, Vec::<usize>::new());
            let exit = parallel_drain_watched(
                threads,
                tasks.clone(),
                &mut state,
                |_, &(snapshot, _), _| snapshot,
                |(count, seen), wave, _| {
                    *count += wave.len();
                    seen.extend(wave);
                    false
                },
                never_pause,
            );
            assert_eq!(exit, DrainExit::Drained);
            assert_eq!(state.0, CHUNK * 3);
            let expected: Vec<usize> =
                (0..CHUNK * 3).map(|i| (i / CHUNK) * CHUNK).collect();
            assert_eq!(state.1, expected);
        }
    }

    #[test]
    fn drain_followups_split_work_deterministically() {
        // Each task of size s > 1 splits into two halves instead of
        // "running"; leaves count themselves. The leaf count and absorb
        // order must be identical for every thread count.
        let run = |threads: usize| {
            let mut trace: Vec<usize> = Vec::new();
            let exit = parallel_drain_watched(
                threads,
                vec![37usize, 5, 1],
                &mut trace,
                |_, _, size| size,
                |trace, wave, queue| {
                    for size in wave {
                        trace.push(size);
                        if size > 1 {
                            queue.push(size / 2);
                            queue.push(size - size / 2);
                        }
                    }
                    false
                },
                never_pause,
            );
            assert_eq!(exit, DrainExit::Drained);
            trace
        };
        let serial = run(1);
        assert_eq!(serial.iter().filter(|&&s| s == 1).count(), 43);
        assert_eq!(run(4), serial);
        assert_eq!(run(9), serial);
    }
}
