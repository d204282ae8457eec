//! Proposition 4.1: optimal MaxThroughput for one-sided clique instances.
//!
//! If some schedule of cost at most `T` schedules `k` jobs, then the `k` *shortest* jobs
//! can be scheduled at no larger cost (replace each scheduled job by a shorter one — with
//! a common start or completion time this never increases any machine's span).  Hence an
//! optimal solution schedules the `k` shortest jobs for the largest feasible `k`, grouped
//! by the rule of Observation 3.1.

use busytime_interval::Duration;

use crate::error::Error;
use crate::instance::{Instance, JobId};
use crate::minbusy::schedule_by_length_groups;
use crate::schedule::ThroughputResult;

/// Optimal MaxThroughput schedule for a one-sided clique instance and budget `budget`
/// (Proposition 4.1): the [`one_sided_max_throughput_value`] shortest jobs, grouped by
/// [`schedule_by_length_groups`].
///
/// Returns [`Error::NotOneSided`] when the instance is not one-sided.
pub fn one_sided_max_throughput(
    instance: &Instance,
    budget: Duration,
) -> Result<ThroughputResult, Error> {
    let k = one_sided_max_throughput_value(instance, budget)?;
    let chosen: Vec<JobId> = instance.order_by_length_asc()[..k]
        .iter()
        .map(|&j| j as JobId)
        .collect();
    let schedule = schedule_by_length_groups(instance, &chosen);
    let result = ThroughputResult::new(schedule, instance);
    debug_assert!(result.cost <= budget);
    Ok(result)
}

/// The optimal throughput value only (no schedule): one `O(n)` pass over the instance's
/// cached shortest-first order, cheap enough for tight loops.
///
/// Scheduling the `k` shortest jobs longest first in blocks of `g` pays every `g`-th
/// length counted from the `k`-th shortest, so their cost obeys
/// `C(k) = len(k-th shortest) + C(k − g)`.  `C` never falls as `k` grows (each head of
/// `C(k − 1)` has a head of `C(k)` at least as long), so the answer is the last `k`
/// before the first one over budget.
///
/// Returns [`Error::NotOneSided`] when the instance is not one-sided.
pub fn one_sided_max_throughput_value(
    instance: &Instance,
    budget: Duration,
) -> Result<usize, Error> {
    if !instance.is_one_sided() {
        return Err(Error::NotOneSided);
    }
    let (jobs, order) = (instance.jobs(), instance.order_by_length_asc());
    // Slot `k mod g` holds C(k): C(k) adds one length to C(k − g), the slot's previous
    // value (and C(k) = 0 for k ≤ 0).  With g > n, k mod g is k itself, so n + 1 slots
    // cover it.
    let mut slots = vec![0i64; instance.capacity().min(order.len() + 1)];
    for (k, &j) in (1..).zip(order) {
        let slot = k % slots.len();
        slots[slot] += jobs[j as usize].len().ticks();
        if slots[slot] > budget.ticks() {
            return Ok(k - 1);
        }
    }
    Ok(order.len())
}

/// Brute-force helper used in tests: the cost of optimally scheduling an explicit job
/// subset of a one-sided instance (Observation 3.1 grouping).
pub fn one_sided_subset_cost(instance: &Instance, ids: &[JobId]) -> Duration {
    let schedule = schedule_by_length_groups(instance, ids);
    schedule.cost(instance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        // Common start, lengths 2, 3, 5, 8, 13.
        Instance::from_ticks(&[(0, 2), (0, 3), (0, 5), (0, 8), (0, 13)], 2)
    }

    #[test]
    fn zero_budget_schedules_nothing() {
        let r = one_sided_max_throughput(&inst(), Duration::ZERO).unwrap();
        assert_eq!(r.throughput, 0);
        assert_eq!(r.cost, Duration::ZERO);
    }

    #[test]
    fn unlimited_budget_schedules_everything() {
        let r = one_sided_max_throughput(&inst(), Duration::new(1_000)).unwrap();
        assert_eq!(r.throughput, 5);
        r.schedule
            .validate_budgeted(&inst(), Duration::new(1_000))
            .unwrap();
        // Optimal complete cost: groups {13,8},{5,3},{2} = 13 + 5 + 2 = 20.
        assert_eq!(r.cost, Duration::new(20));
    }

    #[test]
    fn budget_thresholds_match_hand_computation() {
        let i = inst();
        // k jobs = the k shortest. Costs: k=1→2 ; k=2→3 (pair {3,2}) ; k=3→5+2=7 ({5,3},{2});
        // k=4→8+3=11 ({8,5},{3,2}); k=5→13+5+2=20.
        let cases = [
            (Duration::new(1), 0),
            (Duration::new(2), 1),
            (Duration::new(3), 2),
            (Duration::new(6), 2),
            (Duration::new(7), 3),
            (Duration::new(11), 4),
            (Duration::new(19), 4),
            (Duration::new(20), 5),
        ];
        for (budget, expected) in cases {
            let r = one_sided_max_throughput(&i, budget).unwrap();
            assert_eq!(r.throughput, expected, "budget {budget}");
            r.schedule.validate_budgeted(&i, budget).unwrap();
        }
    }

    #[test]
    fn rejects_non_one_sided() {
        let i = Instance::from_ticks(&[(0, 5), (1, 6)], 2);
        assert_eq!(
            one_sided_max_throughput(&i, Duration::new(100)).unwrap_err(),
            Error::NotOneSided
        );
    }

    #[test]
    fn common_completion_instances_work_too() {
        let i = Instance::from_ticks(&[(0, 10), (4, 10), (7, 10), (9, 10)], 2);
        // Lengths 10, 6, 3, 1. k=3 (shortest 1,3,6): groups {6,3},{1} cost 7.
        let r = one_sided_max_throughput(&i, Duration::new(7)).unwrap();
        assert_eq!(r.throughput, 3);
        assert_eq!(r.cost, Duration::new(7));
    }

    #[test]
    fn subset_cost_helper_matches_observation_3_1() {
        let i = inst();
        assert_eq!(
            one_sided_subset_cost(&i, &[0, 1, 2, 3, 4]),
            Duration::new(20)
        );
        assert_eq!(one_sided_subset_cost(&i, &[0, 1]), Duration::new(3));
        assert_eq!(one_sided_subset_cost(&i, &[]), Duration::ZERO);
    }

    #[test]
    fn value_and_schedule_agree() {
        let i = inst();
        for t in 0..25 {
            let budget = Duration::new(t);
            let v = one_sided_max_throughput_value(&i, budget).unwrap();
            let r = one_sided_max_throughput(&i, budget).unwrap();
            assert_eq!(v, r.throughput);
        }
    }
}
