//! Shared machine-readable schemas.
//!
//! Three consumers read instances from JSON and render solve results as JSON: the
//! CLI (`solve`/`throughput`/`batch` files and output), the online `simulate`
//! subcommand, and the `busytime-server` daemon's `batch` and `query` operations.
//! Before this module each of them declared its own ad-hoc structs, so the shapes
//! drifted apart silently.  The schemas here are the single source of truth:
//!
//! * [`InstanceFile`] — one offline instance as `{"capacity": g, "jobs": [[s, e], …]}`:
//!   the CLI's instance files, each element of its batch files, and each instance of
//!   the server's `batch` request.
//! * [`ScheduleReport`] — the result of solving one offline problem (MinBusy or
//!   budgeted MaxThroughput): objective, bounds, machine groups and the full dispatch
//!   trace.
//! * [`SimulationReport`] — the state of one online run (a replayed trace *or* a live
//!   server tenant): counters, final/peak cost, the per-event cost trajectory and the
//!   live machine groups.
//!
//! Both serialize with stable field names; `PROTOCOL.md` documents the server's use of
//! them, and the protocol-doc test round-trips every documented example through these
//! very types.

use serde::{Deserialize, Serialize};

use crate::error::Error;
use crate::instance::Instance;
use crate::online::OnlineScheduler;
use crate::solver::Solution;

/// The JSON shape of one offline instance.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct InstanceFile {
    /// The parallelism parameter `g`.
    pub capacity: usize,
    /// Jobs as `[start, completion]` tick pairs.
    pub jobs: Vec<(i64, i64)>,
}

impl InstanceFile {
    /// Convert the file representation into a library instance.
    ///
    /// Malformed files — an empty or reversed job, or a zero capacity — come back as
    /// the library's typed [`Error`] (pointing at the offending job record) rather
    /// than a panic or a stringly-typed message; callers render it at the process
    /// or wire boundary.
    pub fn to_instance(&self) -> Result<Instance, Error> {
        Instance::try_from_ticks(&self.jobs, self.capacity)
    }

    /// Build the file representation from a library instance.
    pub fn from_instance(instance: &Instance) -> Self {
        InstanceFile {
            capacity: instance.capacity(),
            jobs: instance
                .jobs()
                .iter()
                .map(|iv| (iv.start().ticks(), iv.end().ticks()))
                .collect(),
        }
    }
}

/// The canonical JSON shape of one solved offline problem.
///
/// Written by the CLI's `solve`, `throughput` and `batch` subcommands and returned
/// per instance by the server's `batch` operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Which algorithm produced the schedule (its stable kebab-case name).
    pub algorithm: String,
    /// The algorithm's proven approximation guarantee, when the paper proves one.
    pub guarantee: Option<f64>,
    /// Total busy time of the schedule.
    pub busy_time: i64,
    /// The Observation 2.1 lower bound of the instance.
    pub lower_bound: i64,
    /// Number of machines used.
    pub machines: usize,
    /// Number of scheduled jobs.
    pub scheduled_jobs: usize,
    /// Per-machine job lists (indices into the instance's sorted job order).
    pub machine_groups: Vec<Vec<usize>>,
    /// Jobs left unscheduled (only non-empty for budgeted runs).
    pub unscheduled_jobs: Vec<usize>,
    /// The dispatch trace: every algorithm considered and why it was skipped or failed.
    pub trace: Vec<String>,
}

impl ScheduleReport {
    /// Render a facade [`Solution`] for `instance` into the report shape.
    pub fn from_solution(instance: &Instance, solution: &Solution) -> Self {
        let unscheduled: Vec<usize> = (0..instance.len())
            .filter(|&j| !solution.schedule.is_scheduled(j))
            .collect();
        ScheduleReport {
            algorithm: solution.algorithm.name().to_string(),
            guarantee: solution.guarantee,
            busy_time: solution.objective.cost().ticks(),
            lower_bound: solution.bounds.lower.ticks(),
            machines: solution.schedule.machines_used(),
            scheduled_jobs: solution.schedule.throughput(),
            machine_groups: solution.schedule.machine_groups(),
            unscheduled_jobs: unscheduled,
            trace: solution.trace.iter().map(|a| a.to_string()).collect(),
        }
    }
}

/// The canonical JSON shape of one online run: a replayed trace (the CLI `simulate`
/// subcommand) or a live server tenant (the server's `query` operation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationReport {
    /// The online policy in force (its stable kebab-case name).
    pub policy: String,
    /// The machine capacity `g`.
    pub capacity: usize,
    /// Number of events applied so far (always `arrivals + departures`, even when
    /// the reporter retains only a window of the trajectory).
    pub events: usize,
    /// Arrivals among them.
    pub arrivals: usize,
    /// Departures among them.
    pub departures: usize,
    /// Total busy time after the last event.
    pub final_cost: i64,
    /// Highest total busy time observed so far.
    pub peak_cost: i64,
    /// Number of machines opened over the run.
    pub machines_opened: usize,
    /// Jobs currently live.
    pub live_jobs: usize,
    /// Total busy time after each event, in event order.
    pub cost_trajectory: Vec<i64>,
    /// Live job ids per machine (emptied machines keep their slot, so machine ids are
    /// stable across the trajectory).
    pub machine_groups: Vec<Vec<u64>>,
}

impl SimulationReport {
    /// Render a live scheduler plus its recorded cost trajectory into the report
    /// shape.  `trajectory` holds the cost after each applied event — the full
    /// history for local replays, possibly only a recent window for a long-lived
    /// server tenant; `events` always reports the scheduler's true totals.
    pub fn from_scheduler(scheduler: &OnlineScheduler, trajectory: Vec<i64>) -> Self {
        SimulationReport {
            policy: scheduler.policy().name().to_string(),
            capacity: scheduler.capacity(),
            events: scheduler.events(),
            arrivals: scheduler.arrivals(),
            departures: scheduler.departures(),
            final_cost: scheduler.cost().ticks(),
            peak_cost: scheduler.peak_cost().ticks(),
            machines_opened: scheduler.machine_count(),
            live_jobs: scheduler.live_count(),
            cost_trajectory: trajectory,
            machine_groups: scheduler.machine_groups(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{Event, OnlinePolicy, OnlineScheduler, Trace};
    use crate::solver::{Problem, Solver};
    use busytime_interval::Interval;

    #[test]
    fn schedule_report_matches_solution() {
        let instance = Instance::from_ticks(&[(0, 10), (2, 12), (4, 14), (6, 16)], 2);
        let solution = Solver::new()
            .solve(&Problem::min_busy(instance.clone()))
            .unwrap();
        let report = ScheduleReport::from_solution(&instance, &solution);
        assert_eq!(report.algorithm, solution.algorithm.name());
        assert_eq!(report.scheduled_jobs, 4);
        assert!(report.unscheduled_jobs.is_empty());
        assert!(report.busy_time >= report.lower_bound);
        let json = serde_json::to_string(&report).unwrap();
        let parsed: ScheduleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.machine_groups, report.machine_groups);
        assert_eq!(parsed.trace, report.trace);
    }

    #[test]
    fn simulation_report_matches_run() {
        let trace = Trace::new(
            2,
            vec![
                Event::arrival(1, Interval::from_ticks(0, 10)),
                Event::arrival(2, Interval::from_ticks(4, 12)),
                Event::departure(1),
            ],
        );
        let run = OnlineScheduler::run(&trace, OnlinePolicy::FirstFit).unwrap();
        let trajectory: Vec<i64> = run.trajectory.iter().map(|d| d.ticks()).collect();
        let report = SimulationReport::from_scheduler(&run.scheduler, trajectory);
        assert_eq!(report.events, 3);
        assert_eq!(report.arrivals, 2);
        assert_eq!(report.departures, 1);
        assert_eq!(report.cost_trajectory, vec![10, 12, 8]);
        assert_eq!(report.final_cost, 8);
        assert_eq!(report.live_jobs, 1);
        let json = serde_json::to_string(&report).unwrap();
        let parsed: SimulationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.cost_trajectory, report.cost_trajectory);
    }
}
