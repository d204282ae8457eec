//! Schedules: (partial) assignments of jobs to machines, their validity, cost,
//! throughput and saving.
//!
//! A *schedule* maps every job to a machine; a *partial schedule* may leave jobs
//! unscheduled (MaxThroughput).  A schedule is **valid** when no machine processes more
//! than `g` jobs at any instant.  The *cost* of a schedule is the total busy time of all
//! machines, where the busy time of a machine is the span of the jobs assigned to it
//! (Section 2 of the paper).

use busytime_interval::{Duration, SortedSweep};
use serde::{Deserialize, Serialize};

use crate::error::Error;
use crate::instance::{Instance, JobId};

/// Identifier of a machine used by a schedule (machines are created on demand; the paper
/// assumes an unbounded pool of identical machines).
pub type MachineId = usize;

/// A (partial) assignment of jobs to machines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// `assignment[j]` is the machine of job `j`, or `None` if the job is unscheduled.
    assignment: Vec<Option<MachineId>>,
}

impl Schedule {
    /// An empty (all-unscheduled) schedule for `n` jobs.
    pub fn empty(n: usize) -> Self {
        Schedule {
            assignment: vec![None; n],
        }
    }

    /// Build a schedule from an explicit assignment vector.
    pub fn from_assignment(assignment: Vec<Option<MachineId>>) -> Self {
        Schedule { assignment }
    }

    /// Build a complete schedule from machine groups: `groups[m]` lists the jobs of
    /// machine `m`.
    ///
    /// # Panics
    /// Panics if a job id repeats or is out of range for `n`.
    pub fn from_groups(n: usize, groups: &[Vec<JobId>]) -> Self {
        let mut assignment = vec![None; n];
        for (m, group) in groups.iter().enumerate() {
            for &j in group {
                assert!(j < n, "job id {j} out of range");
                assert!(assignment[j].is_none(), "job id {j} assigned twice");
                assignment[j] = Some(m);
            }
        }
        Schedule { assignment }
    }

    /// Number of jobs the schedule was created for.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when the schedule covers zero jobs (not even unscheduled ones).
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Assign job `job` to machine `machine` (overwrites any previous assignment).
    pub fn assign(&mut self, job: JobId, machine: MachineId) {
        self.assignment[job] = Some(machine);
    }

    /// The machine of job `job`, if scheduled.
    pub fn machine_of(&self, job: JobId) -> Option<MachineId> {
        self.assignment.get(job).copied().flatten()
    }

    /// `true` if job `job` is scheduled.
    pub fn is_scheduled(&self, job: JobId) -> bool {
        self.machine_of(job).is_some()
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[Option<MachineId>] {
        &self.assignment
    }

    /// Ids of all scheduled jobs.
    pub fn scheduled_jobs(&self) -> Vec<JobId> {
        (0..self.assignment.len())
            .filter(|&j| self.is_scheduled(j))
            .collect()
    }

    /// Number of scheduled jobs (`tput` in the paper).
    pub fn throughput(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Visit every assigned job in job-id order as `(dense_machine, job)`, densely
    /// re-indexing machines in order of their first job id.  This single traversal
    /// defines the machine order every derived view shares ([`Schedule::machine_groups`],
    /// the busy-time/validity sweeps), so they cannot drift apart.
    fn for_each_assigned(&self, mut f: impl FnMut(usize, JobId)) {
        let mut remap: Vec<Option<usize>> = Vec::new();
        let mut dense_count = 0usize;
        for (j, a) in self.assignment.iter().enumerate() {
            if let Some(m) = a {
                if *m >= remap.len() {
                    remap.resize(m + 1, None);
                }
                let dense = *remap[*m].get_or_insert_with(|| {
                    dense_count += 1;
                    dense_count - 1
                });
                f(dense, j);
            }
        }
    }

    /// Jobs grouped per machine: `groups[m]` is the (sorted) list of jobs on machine `m`.
    /// Machines are re-indexed densely in order of their first job id; empty machines do
    /// not appear.
    pub fn machine_groups(&self) -> Vec<Vec<JobId>> {
        let mut groups: Vec<Vec<JobId>> = Vec::new();
        self.for_each_assigned(|dense, j| {
            if dense == groups.len() {
                groups.push(Vec::new());
            }
            groups[dense].push(j);
        });
        groups
    }

    /// Number of distinct machines used.
    pub fn machines_used(&self) -> usize {
        self.machine_groups().len()
    }

    /// One streaming sweep per machine, fed in job-id order.  Jobs of an [`Instance`]
    /// are stored sorted by `(start, completion)`, so iterating the assignment in job
    /// order hands every machine its jobs in non-decreasing start order — exactly what
    /// [`SortedSweep`] needs to maintain span and maximum depth incrementally, with no
    /// per-machine grouping, collecting or re-sorting.
    fn machine_sweeps(&self, instance: &Instance) -> Vec<SortedSweep> {
        let mut sweeps: Vec<SortedSweep> = Vec::new();
        self.for_each_assigned(|dense, j| {
            if dense == sweeps.len() {
                sweeps.push(SortedSweep::new());
            }
            sweeps[dense].push(instance.job(j));
        });
        sweeps
    }

    /// Busy time of every machine: the span of the intervals assigned to it.
    pub fn busy_times(&self, instance: &Instance) -> Vec<Duration> {
        self.machine_sweeps(instance)
            .iter()
            .map(SortedSweep::span)
            .collect()
    }

    /// Total busy time `Σ_i busy_i` of the schedule (the MinBusy objective).
    pub fn cost(&self, instance: &Instance) -> Duration {
        self.machine_sweeps(instance)
            .iter()
            .map(SortedSweep::span)
            .sum()
    }

    /// The saving of a complete schedule relative to the one-job-per-machine schedule:
    /// `sav(s) = len(J) − cost(s)` (Section 2).  For partial schedules the length of the
    /// scheduled jobs is used.
    pub fn saving(&self, instance: &Instance) -> Duration {
        let scheduled_len: Duration = self
            .scheduled_jobs()
            .iter()
            .map(|&j| instance.job(j).len())
            .sum();
        scheduled_len - self.cost(instance)
    }

    /// The validity checks plus the sweeps they produced, so budget checking can price
    /// the schedule from the same single pass.
    fn validated_sweeps(&self, instance: &Instance) -> Result<Vec<SortedSweep>, Error> {
        if self.assignment.len() != instance.len() {
            // A schedule over a different number of jobs necessarily references unknown
            // jobs (or misses some); report the first discrepancy.
            return Err(Error::UnknownJob {
                job: instance.len().min(self.assignment.len()),
            });
        }
        let sweeps = self.machine_sweeps(instance);
        for (machine, sweep) in sweeps.iter().enumerate() {
            let depth = sweep.max_depth();
            if depth > instance.capacity() {
                return Err(Error::CapacityExceeded {
                    machine,
                    observed: depth,
                    capacity: instance.capacity(),
                });
            }
        }
        Ok(sweeps)
    }

    /// Check that the schedule is **valid** for the instance: every referenced job id
    /// exists and no machine runs more than `g` jobs at any instant.
    pub fn validate(&self, instance: &Instance) -> Result<(), Error> {
        self.validated_sweeps(instance).map(|_| ())
    }

    /// Check that the schedule is a valid **complete** schedule (MinBusy solution): valid
    /// and scheduling every job.
    pub fn validate_complete(&self, instance: &Instance) -> Result<(), Error> {
        self.validate(instance)?;
        if let Some(job) = (0..instance.len()).find(|&j| !self.is_scheduled(j)) {
            return Err(Error::JobUnscheduled { job });
        }
        Ok(())
    }

    /// Check that the schedule is a valid MaxThroughput solution for budget `budget`:
    /// valid and within budget.  Depths and cost come from one pass over the
    /// assignment.
    pub fn validate_budgeted(&self, instance: &Instance, budget: Duration) -> Result<(), Error> {
        let sweeps = self.validated_sweeps(instance)?;
        let cost: Duration = sweeps.iter().map(SortedSweep::span).sum();
        if cost > budget {
            return Err(Error::BudgetExceeded { cost, budget });
        }
        Ok(())
    }
}

/// A convenience pairing of a schedule with the cost it achieves, as returned by the
/// MinBusy algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveResult {
    /// The schedule.
    pub schedule: Schedule,
    /// Its total busy time.
    pub cost: Duration,
}

impl SolveResult {
    /// Pair a schedule with its cost on the given instance.
    pub fn new(schedule: Schedule, instance: &Instance) -> Self {
        let cost = schedule.cost(instance);
        SolveResult { schedule, cost }
    }
}

/// A convenience pairing of a partial schedule with its throughput and cost, as returned
/// by the MaxThroughput algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputResult {
    /// The (partial) schedule.
    pub schedule: Schedule,
    /// Number of scheduled jobs.
    pub throughput: usize,
    /// Total busy time of the schedule (must be within the budget).
    pub cost: Duration,
}

impl ThroughputResult {
    /// Pair a partial schedule with its throughput and cost on the given instance.
    pub fn new(schedule: Schedule, instance: &Instance) -> Self {
        let throughput = schedule.throughput();
        let cost = schedule.cost(instance);
        ThroughputResult {
            schedule,
            throughput,
            cost,
        }
    }

    /// The better of two throughput results: more jobs, ties broken by lower cost.
    pub fn better(self, other: ThroughputResult) -> ThroughputResult {
        if (other.throughput, std::cmp::Reverse(other.cost))
            > (self.throughput, std::cmp::Reverse(self.cost))
        {
            other
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> Instance {
        // Three mutually overlapping jobs plus one far away.
        Instance::from_ticks(&[(0, 4), (1, 5), (2, 6), (10, 12)], 2)
    }

    #[test]
    fn empty_schedule_has_no_cost() {
        let inst = instance();
        let s = Schedule::empty(inst.len());
        assert_eq!(s.throughput(), 0);
        assert_eq!(s.cost(&inst), Duration::ZERO);
        assert_eq!(s.machines_used(), 0);
        assert!(s.validate(&inst).is_ok());
        assert_eq!(
            s.validate_complete(&inst).unwrap_err(),
            Error::JobUnscheduled { job: 0 }
        );
    }

    #[test]
    fn cost_is_sum_of_machine_spans() {
        let inst = instance();
        // Machine 0: jobs 0 and 1 (span [0,5) = 5); machine 1: jobs 2 and 3 (span 4+2=6).
        let s = Schedule::from_groups(4, &[vec![0, 1], vec![2, 3]]);
        assert_eq!(
            s.busy_times(&inst),
            vec![Duration::new(5), Duration::new(6)]
        );
        assert_eq!(s.cost(&inst), Duration::new(11));
        assert_eq!(s.machines_used(), 2);
        assert_eq!(s.throughput(), 4);
        assert!(s.validate_complete(&inst).is_ok());
        // saving = len - cost = (4+4+4+2) - 11 = 3
        assert_eq!(s.saving(&inst), Duration::new(3));
    }

    #[test]
    fn capacity_violation_detected() {
        let inst = instance();
        // All three overlapping jobs on one machine with g = 2.
        let s = Schedule::from_groups(4, &[vec![0, 1, 2], vec![3]]);
        assert_eq!(
            s.validate(&inst).unwrap_err(),
            Error::CapacityExceeded {
                machine: 0,
                observed: 3,
                capacity: 2
            }
        );
    }

    #[test]
    fn non_overlapping_jobs_can_share_a_machine_beyond_g() {
        // g = 1 but three disjoint jobs on one machine are fine.
        let inst = Instance::from_ticks(&[(0, 1), (2, 3), (4, 5)], 1);
        let s = Schedule::from_groups(3, &[vec![0, 1, 2]]);
        assert!(s.validate_complete(&inst).is_ok());
        assert_eq!(s.cost(&inst), Duration::new(3));
    }

    #[test]
    fn budget_validation() {
        let inst = instance();
        let mut s = Schedule::empty(4);
        s.assign(0, 0);
        s.assign(1, 0);
        assert_eq!(s.cost(&inst), Duration::new(5));
        assert!(s.validate_budgeted(&inst, Duration::new(5)).is_ok());
        assert_eq!(
            s.validate_budgeted(&inst, Duration::new(4)).unwrap_err(),
            Error::BudgetExceeded {
                cost: Duration::new(5),
                budget: Duration::new(4)
            }
        );
    }

    #[test]
    fn machine_groups_are_dense_and_sorted() {
        let mut s = Schedule::empty(4);
        s.assign(3, 17);
        s.assign(0, 17);
        s.assign(2, 5);
        let groups = s.machine_groups();
        assert_eq!(groups, vec![vec![0, 3], vec![2]]);
        assert_eq!(s.machines_used(), 2);
    }

    #[test]
    fn wrong_length_schedule_rejected() {
        let inst = instance();
        let s = Schedule::empty(2);
        assert!(s.validate(&inst).is_err());
    }

    #[test]
    fn throughput_result_better_prefers_more_jobs_then_cheaper() {
        let inst = instance();
        let a = ThroughputResult::new(Schedule::from_groups(4, &[vec![0]]), &inst);
        let b = ThroughputResult::new(Schedule::from_groups(4, &[vec![0, 1]]), &inst);
        assert_eq!(a.clone().better(b.clone()).throughput, 2);
        // Same throughput, different cost: job 3 (len 2) cheaper than job 2 (len 4).
        let c = ThroughputResult::new(Schedule::from_groups(4, &[vec![3]]), &inst);
        let d = ThroughputResult::new(Schedule::from_groups(4, &[vec![2]]), &inst);
        assert_eq!(c.clone().better(d).cost, Duration::new(2));
        assert_eq!(a.better(c).cost, Duration::new(2));
    }

    #[test]
    #[should_panic]
    fn from_groups_rejects_duplicate_job() {
        let _ = Schedule::from_groups(3, &[vec![0, 1], vec![1, 2]]);
    }
}
