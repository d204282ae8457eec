//! Reporting helpers: per-schedule summaries and approximation-ratio bookkeeping used by
//! the examples, the integration tests and the experiment harness.

use busytime_interval::Duration;
use serde::{Deserialize, Serialize};

use crate::bounds::{length_bound, lower_bound, ratio};
use crate::instance::Instance;
use crate::schedule::Schedule;

/// A compact summary of a schedule against its instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSummary {
    /// Number of jobs in the instance.
    pub jobs: usize,
    /// Number of scheduled jobs.
    pub scheduled: usize,
    /// Number of machines used.
    pub machines: usize,
    /// Total busy time.
    pub cost: Duration,
    /// The Observation 2.1 lower bound of the instance.
    pub lower_bound: Duration,
    /// The length (naive) upper bound of the instance.
    pub upper_bound: Duration,
    /// `cost / lower_bound` — an upper estimate of the approximation ratio (the true
    /// ratio against the optimum is at most this).
    pub ratio_vs_lower_bound: f64,
    /// `1 − cost / len(J)`: the fraction of busy time saved relative to one job per
    /// machine (the "energy saving" in the cluster-scheduling reading of the paper).
    pub saving_fraction: f64,
}

impl ScheduleSummary {
    /// Summarize a schedule for an instance.
    pub fn new(instance: &Instance, schedule: &Schedule) -> Self {
        let cost = schedule.cost(instance);
        let lb = lower_bound(instance);
        let ub = length_bound(instance);
        let saving_fraction = if ub.is_zero() {
            0.0
        } else {
            1.0 - cost.as_f64() / ub.as_f64()
        };
        ScheduleSummary {
            jobs: instance.len(),
            scheduled: schedule.throughput(),
            machines: schedule.machines_used(),
            cost,
            lower_bound: lb,
            upper_bound: ub,
            ratio_vs_lower_bound: ratio(cost, lb),
            saving_fraction,
        }
    }
}

impl std::fmt::Display for ScheduleSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} jobs on {} machines, busy time {} (lower bound {}, ratio ≤ {:.3}, saving {:.1}%)",
            self.scheduled,
            self.jobs,
            self.machines,
            self.cost,
            self.lower_bound,
            self.ratio_vs_lower_bound,
            self.saving_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;

    #[test]
    fn summary_of_an_exact_solution() {
        let inst = Instance::from_ticks(&[(0, 10), (2, 12), (4, 14), (6, 16)], 2);
        let solution = Solver::new().solve_min_busy(&inst).unwrap();
        assert!(solution.is_exact());
        let summary = ScheduleSummary::new(&inst, &solution.schedule);
        assert_eq!(summary.jobs, 4);
        assert_eq!(summary.scheduled, 4);
        assert!(summary.ratio_vs_lower_bound >= 1.0);
        assert!(summary.saving_fraction > 0.0);
        let text = summary.to_string();
        assert!(text.contains("4/4 jobs"));
    }

    #[test]
    fn summary_of_empty_instance() {
        let inst = Instance::from_ticks(&[], 2);
        let summary = ScheduleSummary::new(&inst, &Schedule::empty(0));
        assert_eq!(summary.ratio_vs_lower_bound, 1.0);
        assert_eq!(summary.saving_fraction, 0.0);
    }
}
