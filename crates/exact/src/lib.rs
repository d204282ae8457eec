//! # busytime-exact
//!
//! Exponential-time exact solvers for MinBusy and MaxThroughput, used as ground truth by
//! the approximation-ratio experiments and by the test-suite.  MinBusy is NP-hard already
//! for `g = 2` (Section 1 of the paper), so every exact backend here is exponential; two
//! of them cover different size regimes:
//!
//! * the **subset DP** (this module): `cost[S]` is the minimum total busy time of any
//!   valid schedule of exactly the job set `S`, computed by peeling off the machine that
//!   contains the lowest-indexed job of `S` (any subset of `S` with at most `g`
//!   simultaneously active jobs).  `O(3^n)` time and `O(2^n)` memory confine it to
//!   [`MAX_EXACT_JOBS`] jobs and below.  The same table answers both problems —
//!   MinBusy as `cost[full set]`, MaxThroughput as the largest `|S|` with
//!   `cost[S] ≤ T`;
//! * **branch-and-bound** ([`bnb::branch_and_bound`]): assignment search with a
//!   warm-started incumbent and a relaxation-based bound stack, practical well past the
//!   DP ceiling (n ≈ 40–60 on the bench families) under a configurable node budget.
//!
//! [`exact_minbusy`] routes between them by instance size, and [`oracle`] packages the
//! same routing as a [`busytime::ExactOracle`] that plugs into the solver facade
//! (`Solver::builder().exact_oracle(...)`), where the dispatch trace names which
//! backend ran.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bnb;

use std::sync::Arc;

use busytime::{
    Duration, Error, ExactBackend, ExactBudget, ExactOracle, ExactOutcome, Instance, Schedule,
    SolveResult, ThroughputResult,
};
use busytime_interval::{max_overlap, span, Interval};

/// Largest instance the `O(3^n)` subset DP accepts; [`exact_minbusy`] and the installed
/// [`oracle`] route anything bigger to [`bnb::branch_and_bound`] instead of rejecting it.
pub const MAX_EXACT_JOBS: usize = 22;

/// The subset-DP table: minimum cost of scheduling exactly each subset of jobs, plus the
/// machine group chosen for reconstruction.
struct SubsetTable {
    cost: Vec<i64>,
    choice: Vec<u32>,
}

/// Build the subset DP table for an instance: a machine runs at most `g` jobs at once.
///
/// # Panics
/// Panics if the instance has more than [`MAX_EXACT_JOBS`] jobs.
fn build_table(instance: &Instance) -> SubsetTable {
    let g = instance.capacity();
    subset_table(instance.jobs(), |_, group| max_overlap(group) <= g)
}

/// The subset DP over `jobs`, where `fits(ids, group)` judges whether one machine can
/// run a job set (its ids in ascending order, and their intervals).
///
/// # Panics
/// Panics if there are more than [`MAX_EXACT_JOBS`] jobs.
fn subset_table(jobs: &[Interval], fits: impl Fn(&[usize], &[Interval]) -> bool) -> SubsetTable {
    let n = jobs.len();
    assert!(
        n <= MAX_EXACT_JOBS,
        "exact solver limited to {MAX_EXACT_JOBS} jobs, got {n}"
    );
    let full = 1usize << n;

    // Per-mask span and validity.
    let mut mask_span = vec![0i64; full];
    let mut mask_valid = vec![false; full];
    let mut ids: Vec<usize> = Vec::with_capacity(n);
    let mut group: Vec<Interval> = Vec::with_capacity(n);
    for mask in 1..full {
        ids.clear();
        group.clear();
        let mut m = mask;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            ids.push(j);
            group.push(jobs[j]);
            m &= m - 1;
        }
        mask_span[mask] = span(&group).ticks();
        mask_valid[mask] = fits(&ids, &group);
    }

    const INF: i64 = i64::MAX / 4;
    let mut cost = vec![INF; full];
    let mut choice = vec![0u32; full];
    cost[0] = 0;
    for mask in 1..full {
        let lowest = mask.trailing_zeros() as usize;
        let low_bit = 1usize << lowest;
        // Enumerate submasks of `mask` containing the lowest bit.
        let rest = mask ^ low_bit;
        let mut sub = rest;
        loop {
            let group = sub | low_bit;
            if mask_valid[group] && cost[mask ^ group] < INF {
                let cand = cost[mask ^ group] + mask_span[group];
                if cand < cost[mask] {
                    cost[mask] = cand;
                    choice[mask] = group as u32;
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
    }
    SubsetTable { cost, choice }
}

/// Reconstruct a schedule of exactly the job set `mask` from the DP table.
fn reconstruct(table: &SubsetTable, n: usize, mut mask: usize) -> Schedule {
    let mut schedule = Schedule::empty(n);
    let mut machine = 0usize;
    while mask != 0 {
        let group = table.choice[mask] as usize;
        debug_assert!(group != 0 && group & mask == group);
        let mut m = group;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            schedule.assign(j, machine);
            m &= m - 1;
        }
        machine += 1;
        mask ^= group;
    }
    schedule
}

/// Exact MinBusy: subset DP up to [`MAX_EXACT_JOBS`] jobs, branch-and-bound (under the
/// default [`ExactBudget`]) above.
///
/// # Panics
/// Panics if a large instance exhausts the default branch-and-bound budget before
/// optimality is proven; call [`bnb::branch_and_bound`] directly to receive the bound
/// pair instead of a panic.
pub fn exact_minbusy(instance: &Instance) -> SolveResult {
    let n = instance.len();
    if n == 0 {
        return SolveResult::new(Schedule::empty(0), instance);
    }
    if n > MAX_EXACT_JOBS {
        match bnb::branch_and_bound(instance, &ExactBudget::default()) {
            ExactOutcome::Optimal { schedule, .. } => return SolveResult::new(schedule, instance),
            ExactOutcome::Exhausted { lower, upper, .. } => panic!(
                "branch-and-bound budget exhausted on {n} jobs ({lower} <= OPT <= {upper}); \
                 call bnb::branch_and_bound for the bound pair"
            ),
        }
    }
    let table = build_table(instance);
    let full = (1usize << n) - 1;
    let schedule = reconstruct(&table, n, full);
    let result = SolveResult::new(schedule, instance);
    debug_assert_eq!(result.cost.ticks(), table.cost[full]);
    result
}

/// The exact optimal MinBusy cost (no schedule reconstruction; same DP/B&B routing as
/// [`exact_minbusy`]).
pub fn exact_minbusy_cost(instance: &Instance) -> Duration {
    if instance.is_empty() {
        return Duration::ZERO;
    }
    if instance.len() > MAX_EXACT_JOBS {
        return exact_minbusy(instance).cost;
    }
    let table = build_table(instance);
    Duration::new(table.cost[(1usize << instance.len()) - 1])
}

/// Exact MaxThroughput by the same subset table: the largest job set whose optimal cost
/// fits the budget (ties broken by lower cost).
///
/// # Panics
/// Panics if the instance has more than [`MAX_EXACT_JOBS`] jobs.
pub fn exact_maxthroughput(instance: &Instance, budget: Duration) -> ThroughputResult {
    let n = instance.len();
    if n == 0 {
        return ThroughputResult::new(Schedule::empty(0), instance);
    }
    let table = build_table(instance);
    let mut best_mask = 0usize;
    let mut best_key = (0usize, i64::MAX); // (throughput, cost)
    for (mask, &cost) in table.cost.iter().enumerate() {
        if cost <= budget.ticks() {
            let pop = mask.count_ones() as usize;
            if pop > best_key.0 || (pop == best_key.0 && cost < best_key.1) {
                best_key = (pop, cost);
                best_mask = mask;
            }
        }
    }
    let schedule = reconstruct(&table, n, best_mask);
    let result = ThroughputResult::new(schedule, instance);
    debug_assert!(result.cost <= budget);
    result
}

/// Exact MinBusy for the demand model of Section 5 (jobs with capacity demands, the
/// model of \[16\]): the same subset DP as [`exact_minbusy`], with "at most `g`
/// simultaneous jobs" replaced by "peak total demand at most `g`".
///
/// # Panics
/// Panics if the instance has more than [`MAX_EXACT_JOBS`] jobs.
pub fn exact_demand_minbusy(instance: &busytime::demand::DemandInstance) -> (Schedule, Duration) {
    let table = subset_table(instance.jobs(), |ids, _| {
        instance.peak_demand(ids) <= instance.capacity()
    });
    let n = instance.len();
    let full = (1usize << n) - 1;
    (
        reconstruct(&table, n, full),
        Duration::new(table.cost[full]),
    )
}

/// The exact optimal throughput value (no schedule reconstruction).
pub fn exact_maxthroughput_value(instance: &Instance, budget: Duration) -> usize {
    exact_maxthroughput(instance, budget).throughput
}

/// The default [`ExactOracle`]: subset DP up to [`MAX_EXACT_JOBS`] jobs, branch-and-bound
/// above.  Install it with `Solver::builder().exact_oracle(busytime_exact::oracle())`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultExactOracle;

impl ExactOracle for DefaultExactOracle {
    fn dp_ceiling(&self) -> usize {
        MAX_EXACT_JOBS
    }

    fn solve_min_busy(
        &self,
        instance: &Instance,
        budget: &ExactBudget,
        backend: ExactBackend,
    ) -> Result<ExactOutcome, Error> {
        match backend {
            ExactBackend::SubsetDp => {
                let n = instance.len();
                if n > MAX_EXACT_JOBS {
                    return Err(Error::TooManyJobs {
                        jobs: n,
                        limit: MAX_EXACT_JOBS,
                    });
                }
                if n == 0 {
                    return Ok(ExactOutcome::Optimal {
                        schedule: Schedule::empty(0),
                        cost: Duration::ZERO,
                        nodes: 0,
                    });
                }
                let table = build_table(instance);
                let full = (1usize << n) - 1;
                let schedule = reconstruct(&table, n, full);
                Ok(ExactOutcome::Optimal {
                    schedule,
                    cost: Duration::new(table.cost[full]),
                    nodes: 0,
                })
            }
            ExactBackend::BranchAndBound => Ok(bnb::branch_and_bound(instance, budget)),
        }
    }
}

/// The default oracle, ready to install with
/// [`busytime::SolverBuilder::exact_oracle`].
pub fn oracle() -> Arc<dyn ExactOracle> {
    Arc::new(DefaultExactOracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        let empty = Instance::from_ticks(&[], 2);
        assert_eq!(exact_minbusy(&empty).cost, Duration::ZERO);
        assert_eq!(exact_maxthroughput(&empty, Duration::new(5)).throughput, 0);

        let single = Instance::from_ticks(&[(2, 9)], 3);
        let r = exact_minbusy(&single);
        assert_eq!(r.cost, Duration::new(7));
        r.schedule.validate_complete(&single).unwrap();
        assert_eq!(exact_maxthroughput(&single, Duration::new(6)).throughput, 0);
        assert_eq!(exact_maxthroughput(&single, Duration::new(7)).throughput, 1);
    }

    #[test]
    fn matches_known_optimal_clique_pairing() {
        // Same instance as the clique-matching test: optimum 24.
        let inst = Instance::from_ticks(&[(0, 20), (2, 18), (8, 12), (9, 11)], 2);
        let r = exact_minbusy(&inst);
        assert_eq!(r.cost, Duration::new(24));
        r.schedule.validate_complete(&inst).unwrap();
        assert_eq!(exact_minbusy_cost(&inst), Duration::new(24));
    }

    #[test]
    fn general_instance_allows_many_jobs_per_machine() {
        // g = 1 but disjoint jobs can share a machine: optimum is the span, one machine.
        let inst = Instance::from_ticks(&[(0, 2), (2, 4), (4, 6)], 1);
        let r = exact_minbusy(&inst);
        assert_eq!(r.cost, Duration::new(6));
        assert_eq!(r.schedule.machines_used(), 1);
    }

    #[test]
    fn exact_equals_proper_clique_dp() {
        let jobs: Vec<(i64, i64)> = (0..8).map(|i| (i, 10 + 2 * i)).collect();
        let inst = Instance::from_ticks(&jobs, 3);
        assert!(inst.is_proper_clique());
        let dp = busytime::minbusy::find_best_consecutive(&inst).unwrap();
        assert_eq!(exact_minbusy_cost(&inst), dp.cost(&inst));
    }

    #[test]
    fn exact_equals_one_sided_grouping() {
        let inst = Instance::from_ticks(&[(0, 9), (0, 8), (0, 2), (0, 1), (0, 5)], 2);
        let opt = busytime::minbusy::one_sided_optimal(&inst).unwrap();
        assert_eq!(exact_minbusy_cost(&inst), opt.cost(&inst));
    }

    #[test]
    fn maxthroughput_respects_budget_and_monotone_in_budget() {
        let inst = Instance::from_ticks(&[(0, 4), (1, 5), (3, 9), (8, 12), (10, 14)], 2);
        let mut last = 0usize;
        for t in 0..=20 {
            let budget = Duration::new(t);
            let r = exact_maxthroughput(&inst, budget);
            r.schedule.validate_budgeted(&inst, budget).unwrap();
            assert!(
                r.throughput >= last,
                "throughput must be monotone in the budget"
            );
            last = r.throughput;
        }
        assert_eq!(last, 5);
    }

    #[test]
    fn maxthroughput_agrees_with_proper_clique_dp() {
        let jobs: Vec<(i64, i64)> = (0..7).map(|i| (i, 9 + i)).collect();
        let inst = Instance::from_ticks(&jobs, 2);
        assert!(inst.is_proper_clique());
        for t in [0i64, 5, 9, 10, 15, 20, 30, 50, 80] {
            let budget = Duration::new(t);
            let dp =
                busytime::maxthroughput::most_throughput_consecutive_fast(&inst, budget).unwrap();
            let exact = exact_maxthroughput(&inst, budget);
            assert_eq!(dp.throughput, exact.throughput, "budget {t}");
        }
    }

    #[test]
    fn demand_exact_matches_unit_demand_exact() {
        // With unit demands the demand-aware solver must match the plain solver.
        let jobs: Vec<(i64, i64, u32)> = (0..7).map(|i| (i, i + 6, 1)).collect();
        let demand = busytime::demand::DemandInstance::from_ticks(&jobs, 3);
        let plain = demand.to_unit_instance();
        let (schedule, cost) = exact_demand_minbusy(&demand);
        demand.validate(&schedule, true).unwrap();
        assert_eq!(cost, exact_minbusy_cost(&plain));
    }

    #[test]
    fn demand_exact_respects_heavy_jobs() {
        // Two overlapping demand-3 jobs with g = 3 can never share a machine.
        let demand = busytime::demand::DemandInstance::from_ticks(&[(0, 10, 3), (5, 15, 3)], 3);
        let (schedule, cost) = exact_demand_minbusy(&demand);
        demand.validate(&schedule, true).unwrap();
        assert_eq!(cost, Duration::new(20));
        // FirstFit for the demand model can never beat the exact optimum.
        let ff = busytime::demand::first_fit_demand(&demand);
        assert!(demand.cost(&ff) >= cost);
    }

    #[test]
    fn large_instance_routes_to_branch_and_bound() {
        // Above the DP ceiling the router no longer rejects: branch-and-bound proves
        // the optimum (the staircase's overlap structure keeps the search tiny).
        let jobs: Vec<(i64, i64)> = (0..(MAX_EXACT_JOBS as i64 + 1))
            .map(|i| (i, i + 10))
            .collect();
        let inst = Instance::from_ticks(&jobs, 2);
        let r = exact_minbusy(&inst);
        r.schedule.validate_complete(&inst).unwrap();
        assert_eq!(r.cost, exact_minbusy_cost(&inst));
        assert!(r.cost >= inst.lower_bound());
    }

    #[test]
    fn oracle_routes_by_instance_size() {
        let oracle = DefaultExactOracle;
        let small = Instance::from_ticks(&[(0, 10), (2, 5)], 2);
        assert_eq!(oracle.backend_for(&small), ExactBackend::SubsetDp);
        let jobs: Vec<(i64, i64)> = (0..(MAX_EXACT_JOBS as i64 + 1))
            .map(|i| (2 * i, 2 * i + 3))
            .collect();
        let large = Instance::from_ticks(&jobs, 2);
        assert_eq!(oracle.backend_for(&large), ExactBackend::BranchAndBound);
        // Forcing the DP past its ceiling is a typed error, not a panic.
        let err = oracle
            .solve_min_busy(&large, &ExactBudget::default(), ExactBackend::SubsetDp)
            .unwrap_err();
        assert_eq!(
            err,
            Error::TooManyJobs {
                jobs: MAX_EXACT_JOBS + 1,
                limit: MAX_EXACT_JOBS
            }
        );
    }
}
