//! MaxThroughput: scheduling as many jobs as possible under a busy-time budget
//! (Section 4 of the paper).
//!
//! | function | instance class | guarantee | paper reference |
//! |---|---|---|---|
//! | [`one_sided_max_throughput`] | one-sided clique | optimal | Proposition 4.1 (`O(n)` after the cached length sort) |
//! | [`clique_max_throughput`] | clique | 4 | Theorem 4.1 (Alg1 + Alg2) |
//! | [`most_throughput_consecutive`] | proper clique | optimal | Theorem 4.2 (`O(n³·g)` time and memory; test reference) |
//! | [`most_throughput_consecutive_fast`] | proper clique | optimal | Theorem 4.2 in `O(n²·g)` time, `O(n²)` memory (~`2·n²` bytes) |
//! | [`minbusy_via_maxthroughput`] | any | — | Proposition 2.2 |
//! | [`maxthroughput_via_minbusy`] | any | — | Proposition 2.3 |
//! | [`weighted_throughput_proper_clique`] | proper clique | optimal (Pareto DP) | Section 5 extension (weighted throughput) |
//! | [`greedy_fallback`] | any | — | best-fit heuristic outside the paper's classes |
//!
//! Choosing among them is [`crate::Solver`]'s job: it classifies the instance once and
//! dispatches to the strongest applicable algorithm, recording every decision.

mod clique_approx;
mod consecutive_dp;
mod one_sided;
mod reduction;
mod weighted;

pub use clique_approx::{clique_alg1, clique_alg2, clique_max_throughput};
pub use consecutive_dp::{most_throughput_consecutive, most_throughput_consecutive_fast};
pub use one_sided::{
    one_sided_max_throughput, one_sided_max_throughput_value, one_sided_subset_cost,
};
pub use reduction::{
    maxthroughput_via_minbusy, minbusy_via_maxthroughput, shortest_prefix_candidates,
};
pub use weighted::{weighted_throughput_proper_clique, WeightedThroughputResult};

use busytime_interval::Duration;

use crate::instance::Instance;
use crate::machine::MachinePool;
use crate::schedule::{Schedule, ThroughputResult};

/// Heuristic for instances outside the paper's analysed classes: consider jobs shortest
/// first and place each **best-fit** — on the machine thread where it causes the smallest
/// increase in that machine's busy time (opening a fresh machine when no thread fits) —
/// skipping any job whose placement would push the total cost above the budget.  Always
/// valid and within budget; no approximation guarantee.
///
/// Placement and pricing go through a [`MachinePool`]: each machine answers "does the
/// job fit, and what does it add to my busy time?" from its live occupancy profile
/// instead of re-unioning its whole job list per candidate (see `greedy_fallback_scan`
/// for the pre-kernel reference).
pub fn greedy_fallback(instance: &Instance, budget: Duration) -> ThroughputResult {
    let mut pool = MachinePool::new(instance.capacity());
    let mut schedule = Schedule::empty(instance.len());
    // Shortest-first is the instance's cached length order — no per-call re-sort.
    for &j in instance.order_by_length_asc() {
        let j = j as usize;
        let iv = instance.job(j);
        let placement = pool.best_fit_slot(iv);
        if pool.cost() + placement.delta > budget {
            continue;
        }
        pool.insert(iv, placement.machine, placement.thread);
        schedule.assign(j, placement.machine);
    }
    ThroughputResult::new(schedule, instance)
}

/// The pre-kernel best-fit greedy: identical placement rule and results, but every
/// conflict test scans a thread's whole job list and every price re-unions the
/// machine's jobs.
///
/// Kept as the equivalence baseline for the kernel (property tests pin
/// [`greedy_fallback`] `==` this function) and as the "before" side of the scaling
/// benchmarks recorded in `BENCH_scaling.json`.  Do not use it for real workloads.
pub fn greedy_fallback_scan(instance: &Instance, budget: Duration) -> ThroughputResult {
    let g = instance.capacity();
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.sort_by_key(|&j| (instance.job(j).len(), j));

    let mut threads: Vec<Vec<Vec<busytime_interval::Interval>>> = Vec::new();
    let mut schedule = Schedule::empty(instance.len());
    let mut cost = Duration::ZERO;
    for &j in &order {
        let iv = instance.job(j);
        // Find the cheapest feasible placement (best fit: the thread whose machine's
        // busy time grows the least).
        let mut placement: Option<(usize, usize, Duration)> = None;
        for (m, machine) in threads.iter().enumerate() {
            for (tid, thread) in machine.iter().enumerate() {
                if thread.iter().all(|other| !iv.overlaps(other)) {
                    // Additional busy time caused on this machine.
                    let mut machine_jobs: Vec<busytime_interval::Interval> =
                        machine.iter().flatten().copied().collect();
                    let before = busytime_interval::span(&machine_jobs);
                    machine_jobs.push(iv);
                    let after = busytime_interval::span(&machine_jobs);
                    let delta = after - before;
                    if placement.is_none_or(|(_, _, d)| delta < d) {
                        placement = Some((m, tid, delta));
                    }
                }
            }
        }
        let (machine, thread, delta) = match placement {
            Some(p) => p,
            None => (threads.len(), 0, iv.len()),
        };
        if cost + delta > budget {
            continue;
        }
        cost += delta;
        if machine == threads.len() {
            threads.push(vec![Vec::new(); g]);
        }
        threads[machine][thread].push(iv);
        schedule.assign(j, machine);
    }
    ThroughputResult::new(schedule, instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, ProblemKind, Solver};

    /// One instance per MaxThroughput class, in `Algorithm::candidates` order: one-sided
    /// clique, proper clique, clique, general.
    fn one_per_class() -> [Instance; 4] {
        [
            Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2),
            Instance::from_ticks(&[(0, 10), (2, 12), (4, 14)], 2),
            Instance::from_ticks(&[(0, 20), (5, 10), (6, 18)], 2),
            Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2),
        ]
    }

    #[test]
    fn auto_dispatch_selects_expected_algorithms() {
        let solver = Solver::new();
        let candidates = Algorithm::candidates(ProblemKind::MaxThroughput);
        for (inst, &expected) in one_per_class().iter().zip(candidates) {
            let solution = solver
                .solve_max_throughput(inst, Duration::new(10))
                .unwrap();
            assert_eq!(solution.algorithm, expected);
        }
    }

    #[test]
    fn auto_dispatch_results_respect_budget() {
        let solver = Solver::new();
        for inst in &one_per_class() {
            for t in [0, 3, 7, 12, 25, 100] {
                let budget = Duration::new(t);
                let solution = solver.solve_max_throughput(inst, budget).unwrap();
                solution.schedule.validate_budgeted(inst, budget).unwrap();
                assert!(solution.objective.cost() <= budget);
            }
        }
    }

    #[test]
    fn exactness_flags() {
        // Proposition 4.1 and Theorem 4.2 are exact, Theorem 4.1 is a 4-approximation,
        // and the greedy outside the paper's classes proves nothing.
        assert!(Algorithm::ThroughputOneSided.is_exact());
        assert!(Algorithm::ThroughputProperCliqueDp.is_exact());
        assert!(!Algorithm::ThroughputCliqueApprox.is_exact());
        assert!(!Algorithm::ThroughputGreedy.is_exact());
        assert_eq!(Algorithm::ThroughputCliqueApprox.guarantee(3), Some(4.0));
        assert_eq!(Algorithm::ThroughputGreedy.guarantee(3), None);
    }

    #[test]
    fn greedy_fallback_schedules_everything_with_huge_budget() {
        let inst = Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2);
        let r = greedy_fallback(&inst, Duration::new(1_000));
        assert_eq!(r.throughput, inst.len());
        r.schedule
            .validate_budgeted(&inst, Duration::new(1_000))
            .unwrap();
    }

    #[test]
    fn greedy_fallback_zero_budget() {
        let inst = Instance::from_ticks(&[(0, 10), (2, 5)], 2);
        let r = greedy_fallback(&inst, Duration::ZERO);
        assert_eq!(r.throughput, 0);
    }
}
