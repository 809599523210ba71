//! Deterministic work-stealing execution of per-function compile jobs.
//!
//! The plan-pass phase of the pipeline is embarrassingly parallel: after
//! block splitting, every function's plan is transformed independently (the
//! golden-equivalence suite pins the output at 1, 2 and 8 workers
//! byte-for-byte). This module supplies the scheduling: item indices
//! are dealt into per-worker queues, owners pop from the front, idle
//! workers steal from the back of their neighbours, and results are
//! *committed in item-index order* regardless of which worker ran what —
//! so the output of [`run_indexed_with`] is a plain `Vec` whose order never
//! depends on thread interleaving.
//!
//! Workers carry private state (the pipeline hands each worker its own
//! [`AnalysisManager`](detlock_ir::analysis::manager::AnalysisManager));
//! the states are returned alongside the results so order-independent
//! counters (cache hits/misses) can be merged by summation.

use detlock_shim::sync::Mutex;
use detlock_shim::CachePadded;

/// One worker's share of the index space: a contiguous `[head, tail)`
/// range. The owning worker pops `head`, thieves decrement `tail`.
struct Deque {
    range: Mutex<(usize, usize)>,
}

impl Deque {
    fn new(lo: usize, hi: usize) -> Deque {
        Deque {
            range: Mutex::new((lo, hi)),
        }
    }

    /// Owner side: claim the front index.
    fn pop_front(&self) -> Option<usize> {
        let mut g = self.range.lock();
        if g.0 < g.1 {
            let i = g.0;
            g.0 += 1;
            Some(i)
        } else {
            None
        }
    }

    /// Thief side: claim the back index.
    fn steal_back(&self) -> Option<usize> {
        let mut g = self.range.lock();
        if g.0 < g.1 {
            g.1 -= 1;
            Some(g.1)
        } else {
            None
        }
    }
}

/// Run `task(state, i)` for every `i in 0..n` on `threads` workers and
/// return `(results, states)` with `results[i]` the value `task` produced
/// for index `i` — index order, independent of scheduling — and one final
/// worker state per spawned worker.
///
/// `threads <= 1` (or `n <= 1`) degenerates to an inline serial loop with a
/// single state, so callers can use one code path for both modes.
pub fn run_indexed_with<S, T, I, F>(n: usize, threads: usize, init: I, task: F) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        let mut state = init();
        let results = (0..n).map(|i| task(&mut state, i)).collect();
        return (results, vec![state]);
    }

    // Deal contiguous slices so the owner's front-pops preserve locality;
    // stealing from the *back* keeps owner and thief from contending on
    // the same end of a queue.
    let queues: Vec<CachePadded<Deque>> = (0..workers)
        .map(|w| {
            let lo = n * w / workers;
            let hi = n * (w + 1) / workers;
            CachePadded::new(Deque::new(lo, hi))
        })
        .collect();

    let mut collected: Vec<(Vec<(usize, T)>, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let init = &init;
                let task = &task;
                scope.spawn(move || {
                    let mut state = init();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own queue first, then sweep the others as a thief.
                        let idx = queues[w].pop_front().or_else(|| {
                            (1..workers)
                                .map(|d| (w + d) % workers)
                                .find_map(|v| queues[v].steal_back())
                        });
                        match idx {
                            Some(i) => local.push((i, task(&mut state, i))),
                            None => break,
                        }
                    }
                    (local, state)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Commit phase: place every result at its index. The scheduling above
    // decides only *who* computed what; this decides *order*, and it is a
    // pure function of the indices.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut states = Vec::with_capacity(workers);
    for (local, state) in collected.drain(..) {
        for (i, v) in local {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(v);
        }
        states.push(state);
    }
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("index {i} never computed")))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 33] {
            let (out, _) = run_indexed_with(100, threads, || (), |_, i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        let (_, states) = run_indexed_with(
            257,
            8,
            || 0usize,
            |done, i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
                *done += 1;
            },
        );
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
        // The per-worker states account for all items once each.
        assert_eq!(states.iter().sum::<usize>(), 257);
    }

    #[test]
    fn uneven_work_still_covers_everything() {
        // Front-load index 0 with a long task so the other workers must
        // steal the first worker's remaining range.
        let (out, _) = run_indexed_with(
            64,
            4,
            || (),
            |_, i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                i
            },
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_yield_empty_results() {
        let (out, states) = run_indexed_with(0, 8, || 7u32, |_, i| i);
        assert!(out.is_empty());
        assert_eq!(states, vec![7]);
    }

    #[test]
    fn worker_states_are_returned_for_merging() {
        let (_, states) = run_indexed_with(50, 4, || 0u64, |acc, _| *acc += 1);
        assert_eq!(states.len(), 4);
        assert_eq!(states.iter().sum::<u64>(), 50);
    }
}
