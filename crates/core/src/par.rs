//! The batch engine: a scoped thread pool over index ranges.
//!
//! Batch workloads — [`Solver::solve_batch_on`](crate::Solver::solve_batch_on), the
//! experiment harness's trial sweeps, the scaling benchmarks — fan independent problems
//! out over threads.  Workers claim the next index from one shared atomic cursor, so no
//! worker idles while an index is left to claim, and results come back in input order,
//! so a parallel map is observably identical to a sequential one.  The cursor cannot
//! help an expensive item claimed last: it runs alone while the other workers have
//! nothing left.  So a caller that can rank its items maps over them heaviest first;
//! `Solver::solve_batch_on` does, by the work each request's planned algorithm states
//! in `n` and `g`.  It is all `std::thread::scope`: no dependencies, no unsafe code.
//!
//! ```
//! use busytime::par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! assert_eq!(pool.threads(), 4);
//! let squares = pool.map_range(6, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
//!
//! let words = ["busy", "time"];
//! let lens = pool.map(&words, |w| w.len());
//! assert_eq!(lens, vec![4, 4]);
//! ```
//!
//! [`ThreadPool::with_default_parallelism`] runs one worker per core, or
//! `BUSYTIME_THREADS` when that is set; the CLI's `batch --threads` uses
//! [`ThreadPool::new`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// The pool size [`ThreadPool::with_default_parallelism`] will use: the
/// `BUSYTIME_THREADS` environment variable if set, else one thread per available core.
pub fn default_threads() -> usize {
    std::env::var("BUSYTIME_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// A scoped thread pool over index ranges.
///
/// The pool is a *policy*, not a set of live threads: each [`ThreadPool::map`] /
/// [`ThreadPool::map_range`] call spawns scoped workers, runs the batch to completion
/// and joins them, so borrows of the surrounding stack (the items, the solver, the
/// closure's captures) work without `Arc` or `'static` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_threads`]: `BUSYTIME_THREADS` when set, else one
    /// worker per available core.
    pub fn with_default_parallelism() -> Self {
        ThreadPool::new(default_threads())
    }

    /// The number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, in parallel, returning results in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_range(items.len(), |i| f(&items[i]))
    }

    /// Apply `f` to every index in `0..n`, in parallel, returning results in index
    /// order.  Each worker hands its `(index, result)` pairs back through its join
    /// handle; a worker's panic is re-raised on the caller's thread.
    pub fn map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        // `Relaxed` suffices: the cursor publishes no data (results travel through
        // `join`, which synchronizes), and `fetch_add` alone makes every claim unique.
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let claim = || Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
            std::iter::from_fn(claim)
                .map(|i| (i, f(i)))
                .collect::<Vec<_>>()
        };
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p))
                })
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Instance, Problem, Solver};

    fn instances() -> Vec<Instance> {
        vec![
            Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2),
            Instance::from_ticks(&[(0, 10), (2, 12), (4, 14)], 2),
            Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2),
            Instance::from_ticks(&[], 3),
        ]
    }

    #[test]
    fn pool_map_matches_sequential_at_every_width() {
        for threads in [1usize, 2, 3, 4, 16] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.threads(), threads);
            for n in [0usize, 1, 2, 7, 100, 1_000] {
                let expected: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
                assert_eq!(
                    pool.map_range(n, |i| i * 3 + 1),
                    expected,
                    "threads = {threads}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        // Output equality alone would not notice a pure closure claimed twice.
        for threads in 1..=16 {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 7, 1_000] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.map_range(n, |i| calls[i].fetch_add(1, Ordering::Relaxed));
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "threads = {threads}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn pool_rebalances_uneven_items() {
        // A heavily skewed workload: the last item costs as much as all others
        // together.  Correctness (order, completeness) must be unaffected.
        let pool = ThreadPool::new(4);
        let out = pool.map_range(64, |i| {
            let rounds = if i == 63 { 200_000u64 } else { 100 };
            (0..rounds).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        });
        let seq: Vec<u64> = (0..64)
            .map(|i| {
                let rounds = if i == 63 { 200_000u64 } else { 100 };
                (0..rounds).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
            })
            .collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn pool_propagates_panics() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(|| {
            pool.map_range(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn batch_minbusy_matches_sequential() {
        let problems: Vec<Problem> = instances().into_iter().map(Problem::min_busy).collect();
        let solver = Solver::new();
        for (problem, result) in problems.iter().zip(solver.solve_batch(&problems)) {
            let (batched, sequential) = (result.unwrap(), solver.solve(problem).unwrap());
            assert_eq!(batched.algorithm, sequential.algorithm);
            assert_eq!(batched.schedule, sequential.schedule);
            batched
                .schedule
                .validate_complete(problem.instance())
                .unwrap();
        }
    }

    #[test]
    fn batch_maxthroughput_respects_budgets() {
        let budget = Duration::new(12);
        let problems: Vec<Problem> = instances()
            .into_iter()
            .map(|inst| Problem::max_throughput(inst, budget))
            .collect();
        let solver = Solver::new();
        for (problem, result) in problems.iter().zip(solver.solve_batch(&problems)) {
            let (batched, sequential) = (result.unwrap(), solver.solve(problem).unwrap());
            assert_eq!(batched.algorithm, sequential.algorithm);
            assert_eq!(batched.schedule, sequential.schedule);
            batched
                .schedule
                .validate_budgeted(problem.instance(), budget)
                .unwrap();
        }
    }
}
