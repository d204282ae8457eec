//! Weighted throughput — the extension raised in Section 5 of the paper ("A natural
//! question is whether we can extend the results to weighted throughput").
//!
//! Each job carries a non-negative profit; the objective becomes maximizing the total
//! profit of the scheduled jobs under the busy-time budget.  The consecutiveness property
//! of Lemma 4.3 does **not** survive arbitrary weights (a heavy job in the middle of a
//! machine's block may be worth keeping while its neighbours are not), but a weaker form
//! does: there is an optimal schedule in which every machine's job set is consecutive
//! *among the scheduled jobs* (Lemma 3.3 applied to the scheduled subset).  The dynamic
//! program below therefore tracks, for every prefix, whether the previous job is
//! scheduled on the open machine — the same state space as the unweighted
//! `O(n²·g)` program — but optimizes a (cost, profit) trade-off: for every prefix,
//! machine-fill and unscheduled-count it keeps the Pareto frontier of (cost, profit)
//! pairs.
//!
//! The result is exponential in the worst case (the frontier can grow), but on practical
//! instances the frontier stays small; the implementation also exposes
//! [`weighted_throughput_exact`]-style validation through `busytime-exact` in the test
//! suite.  For *unit* weights it reduces exactly to Theorem 4.2 and is verified against
//! [`super::most_throughput_consecutive_fast`].

use busytime_interval::Duration;

use crate::error::Error;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// A (partial) schedule together with the profit it collects and its busy time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedThroughputResult {
    /// The (partial) schedule.
    pub schedule: Schedule,
    /// Total profit of the scheduled jobs.
    pub profit: i64,
    /// Total busy time.
    pub cost: Duration,
}

/// A point on a (cost, profit) Pareto frontier, with enough breadcrumbs to rebuild the
/// schedule.
#[derive(Debug, Clone, Copy)]
struct FrontierPoint {
    cost: i64,
    profit: i64,
    /// Index of the predecessor point in the previous state's frontier.
    parent: u32,
    /// Predecessor state's `j` coordinate (`j ≤ g ≤ n`, and instances index jobs with
    /// `u32`).
    parent_j: u32,
    /// How job `i` was handled: 0 = unscheduled, 1 = new machine, 2 = appended.
    step: u8,
}

/// Maximize total profit of scheduled jobs on a **proper clique** instance under a
/// busy-time budget.
///
/// `profits[j]` is the profit of job `j` (must be non-negative and match the instance
/// size).  Returns [`Error::NotProperClique`] for other instance classes and
/// [`Error::UnknownJob`] when the profit vector has the wrong length.
pub fn weighted_throughput_proper_clique(
    instance: &Instance,
    profits: &[i64],
    budget: Duration,
) -> Result<WeightedThroughputResult, Error> {
    if profits.len() != instance.len() {
        return Err(Error::UnknownJob {
            job: profits.len().min(instance.len()),
        });
    }
    if !instance.is_proper_clique() {
        return Err(Error::NotProperClique);
    }
    assert!(
        profits.iter().all(|&p| p >= 0),
        "profits must be non-negative"
    );
    let n = instance.len();
    if n == 0 {
        return Ok(WeightedThroughputResult {
            schedule: Schedule::empty(0),
            profit: 0,
            cost: Duration::ZERO,
        });
    }
    let g = instance.capacity().min(n);
    let jobs = instance.jobs();

    // frontiers[i][j] = Pareto frontier (by (cost, profit)) of states after deciding job
    // i (1-based), where j = 0 means job i is unscheduled and j ≥ 1 means job i is the
    // j-th job on the open machine.
    let mut frontiers: Vec<Vec<Vec<FrontierPoint>>> = vec![vec![Vec::new(); g + 1]; n + 1];
    frontiers[0][0].push(FrontierPoint {
        cost: 0,
        profit: 0,
        parent: 0,
        parent_j: 0,
        step: 0,
    });

    let budget_ticks = budget.ticks();
    for i in 1..=n {
        let job = jobs[i - 1];
        let job_len = job.len().ticks();
        let append_inc = if i >= 2 {
            (job.end() - jobs[i - 2].end()).ticks()
        } else {
            0
        };
        // Collect candidate points per target j, then prune to the frontier.
        let mut candidates: Vec<Vec<FrontierPoint>> = vec![Vec::new(); g + 1];
        for prev_j in 0..=g {
            for (idx, point) in frontiers[i - 1][prev_j].iter().enumerate() {
                // Job i unscheduled.
                candidates[0].push(FrontierPoint {
                    cost: point.cost,
                    profit: point.profit,
                    parent: idx as u32,
                    parent_j: prev_j as u32,
                    step: 0,
                });
                // Job i opens a new machine.
                let new_cost = point.cost + job_len;
                if new_cost <= budget_ticks {
                    candidates[1].push(FrontierPoint {
                        cost: new_cost,
                        profit: point.profit + profits[i - 1],
                        parent: idx as u32,
                        parent_j: prev_j as u32,
                        step: 1,
                    });
                }
                // Job i joins the open machine.
                if prev_j >= 1 && prev_j < g && i >= 2 {
                    let appended_cost = point.cost + append_inc;
                    if appended_cost <= budget_ticks {
                        candidates[prev_j + 1].push(FrontierPoint {
                            cost: appended_cost,
                            profit: point.profit + profits[i - 1],
                            parent: idx as u32,
                            parent_j: prev_j as u32,
                            step: 2,
                        });
                    }
                }
            }
        }
        for (j, cand) in candidates.into_iter().enumerate() {
            frontiers[i][j] = pareto_prune(cand);
        }
    }

    // Best profit over every final state.
    let mut best: Option<(usize, usize)> = None; // (j, index)
    for j in 0..=g {
        for (idx, point) in frontiers[n][j].iter().enumerate() {
            let better = match best {
                None => true,
                Some((bj, bidx)) => {
                    let b = frontiers[n][bj][bidx];
                    point.profit > b.profit || (point.profit == b.profit && point.cost < b.cost)
                }
            };
            if better {
                best = Some((j, idx));
            }
        }
    }
    let (mut j, mut idx) = best.expect("the all-unscheduled state always exists");

    // Reconstruct.
    let mut decisions = vec![0u8; n + 1];
    let mut i = n;
    while i > 0 {
        let point = frontiers[i][j][idx];
        decisions[i] = point.step;
        j = point.parent_j as usize;
        idx = point.parent as usize;
        i -= 1;
    }
    let mut schedule = Schedule::empty(n);
    let mut machine: Option<usize> = None;
    let mut next_machine = 0usize;
    for i in 1..=n {
        match decisions[i] {
            1 => {
                machine = Some(next_machine);
                next_machine += 1;
                schedule.assign(i - 1, machine.unwrap());
            }
            2 => schedule.assign(i - 1, machine.expect("append follows an open machine")),
            _ => machine = None,
        }
    }
    let cost = schedule.cost(instance);
    let profit = (0..n)
        .filter(|&job| schedule.is_scheduled(job))
        .map(|job| profits[job])
        .sum();
    debug_assert!(cost <= budget);
    Ok(WeightedThroughputResult {
        schedule,
        profit,
        cost,
    })
}

/// Keep only Pareto-optimal `(cost, profit)` points (minimal cost for any achievable
/// profit level), sorted by cost.
fn pareto_prune(mut points: Vec<FrontierPoint>) -> Vec<FrontierPoint> {
    points.sort_by_key(|p| (p.cost, std::cmp::Reverse(p.profit)));
    let mut out: Vec<FrontierPoint> = Vec::with_capacity(points.len());
    let mut best_profit = i64::MIN;
    for p in points {
        if p.profit > best_profit {
            best_profit = p.profit;
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxthroughput::most_throughput_consecutive_fast;

    fn staircase(n: i64, len: i64, g: usize) -> Instance {
        let jobs: Vec<(i64, i64)> = (0..n).map(|i| (i, i + len)).collect();
        Instance::from_ticks(&jobs, g)
    }

    #[test]
    fn unit_profits_reduce_to_theorem_4_2() {
        let check = |inst: &Instance, budget: Duration| {
            let profits = vec![1i64; inst.len()];
            let weighted = weighted_throughput_proper_clique(inst, &profits, budget).unwrap();
            let unweighted = most_throughput_consecutive_fast(inst, budget).unwrap();
            assert_eq!(
                weighted.profit as usize,
                unweighted.throughput,
                "n {} g {} budget {budget}",
                inst.len(),
                inst.capacity()
            );
            weighted.schedule.validate_budgeted(inst, budget).unwrap();
        };
        let inst = staircase(7, 10, 2);
        for budget in 0..=40 {
            check(&inst, Duration::new(budget));
        }
        // Past g = 256 a predecessor's j no longer fits a byte.
        for n in [257, 300] {
            check(&staircase(n, 1_000, n as usize), Duration::new(2_000));
        }
    }

    #[test]
    fn heavy_job_is_preferred_over_many_light_ones() {
        // Five jobs of length 10; job 2 has profit 100, the others 1.  With a budget that
        // fits only one machine of two jobs, the heavy job must be scheduled.
        let inst = staircase(5, 10, 2);
        let profits = vec![1, 1, 100, 1, 1];
        let r = weighted_throughput_proper_clique(&inst, &profits, Duration::new(11)).unwrap();
        assert!(r.schedule.is_scheduled(2));
        assert_eq!(r.profit, 101);
        r.schedule
            .validate_budgeted(&inst, Duration::new(11))
            .unwrap();
    }

    #[test]
    fn zero_budget_schedules_nothing() {
        let inst = staircase(4, 5, 2);
        let r = weighted_throughput_proper_clique(&inst, &[3, 1, 4, 1], Duration::ZERO).unwrap();
        assert_eq!(r.profit, 0);
        assert_eq!(r.cost, Duration::ZERO);
    }

    #[test]
    fn rejects_bad_inputs() {
        let inst = staircase(3, 5, 2);
        assert!(matches!(
            weighted_throughput_proper_clique(&inst, &[1, 2], Duration::new(5)),
            Err(Error::UnknownJob { .. })
        ));
        let not_clique = Instance::from_ticks(&[(0, 2), (5, 7)], 2);
        assert_eq!(
            weighted_throughput_proper_clique(&not_clique, &[1, 1], Duration::new(5)).unwrap_err(),
            Error::NotProperClique
        );
    }

    #[test]
    fn zero_profit_jobs_never_hurt() {
        let inst = staircase(6, 8, 3);
        let profits = vec![0, 5, 0, 7, 0, 3];
        for budget in [0i64, 8, 10, 20, 60] {
            let budget = Duration::new(budget);
            let r = weighted_throughput_proper_clique(&inst, &profits, budget).unwrap();
            r.schedule.validate_budgeted(&inst, budget).unwrap();
            // Profit is monotone in the budget.
            let bigger =
                weighted_throughput_proper_clique(&inst, &profits, budget + Duration::new(10))
                    .unwrap();
            assert!(bigger.profit >= r.profit);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_ticks(&[], 2);
        let r = weighted_throughput_proper_clique(&inst, &[], Duration::new(5)).unwrap();
        assert_eq!(r.profit, 0);
    }
}
