//! Theorem 4.2: optimal MaxThroughput for proper clique instances by dynamic
//! programming.
//!
//! Lemma 4.3 extends the consecutiveness property of Lemma 3.3 to partial schedules: a
//! proper clique instance has an optimal budgeted schedule in which every machine
//! processes a block of jobs that is consecutive *in the whole instance* (unscheduled
//! jobs separate machines).  Two implementations are provided:
//!
//! * [`most_throughput_consecutive`] — the paper's 4-dimensional table
//!   `cost(i, j, u, t)` (Algorithm 7, `O(n³·g)` time), faithful to the recurrence in the
//!   paper with two small repairs it needs to be well-defined: a "no machine opened yet"
//!   state (`j = 0`) so that leading unscheduled jobs are representable, and the range of
//!   `u′` in the new-machine case starting at 0 (adjacent blocks on different machines);
//! * [`most_throughput_consecutive_fast`] — an equivalent `O(n²·g)`-time program that
//!   only remembers how many jobs the still-open machine holds.  It keeps two rolling
//!   layers of `(n+1)·(g+1)` costs and one `u32` parent per `(i, t < i)`: about `2·n²`
//!   bytes (2 MB at n = 1 000).  It is the scalable implementation the solver dispatches
//!   to; the paper-faithful table is its test reference, and the experiment harness
//!   compares the two as an ablation.

use busytime_interval::Duration;

use crate::error::Error;
use crate::instance::Instance;
use crate::schedule::{Schedule, ThroughputResult};

const INF: i64 = i64::MAX / 4;

/// How a DP state was reached (used to rebuild the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// State not reachable.
    None,
    /// The current job was left unscheduled.
    Unscheduled,
    /// The current job was appended to the open machine.
    Append,
    /// The current job opened a new machine; the predecessor state had the given
    /// `(j, u)` coordinates.
    NewMachine {
        /// `j` of the predecessor state.
        prev_j: usize,
        /// `u` of the predecessor state.
        prev_u: usize,
    },
    /// The empty prefix.
    Base,
}

/// Paper-faithful DP of Theorem 4.2 (`O(n³·g)` time, `O(n²·g)` memory for the two live
/// layers plus `O(n³·g)` for the reconstruction table of `(n+1)³·(g+1)` steps).
///
/// Returns [`Error::NotProperClique`] unless the instance is both proper and a clique.
pub fn most_throughput_consecutive(
    instance: &Instance,
    budget: Duration,
) -> Result<ThroughputResult, Error> {
    if !instance.is_proper_clique() {
        return Err(Error::NotProperClique);
    }
    let n = instance.len();
    if n == 0 {
        return Ok(ThroughputResult::new(Schedule::empty(0), instance));
    }
    let g = instance.capacity().min(n);
    let jobs = instance.jobs();
    // |J_i| and |I_{i-1}| in the paper's notation (arguments are 1-based job indices).
    let job_len = |i: usize| jobs[i - 1].len().ticks();
    let overlap_with_prev = |i: usize| jobs[i - 2].overlap_len(&jobs[i - 1]).ticks();

    // cost[j][u][t] for the current layer i; j = 0 encodes "no machine opened yet".
    let blank = || vec![vec![vec![INF; n + 1]; n + 1]; g + 1];
    let mut prev = blank();
    let mut curr = blank();
    let mut steps = vec![vec![vec![vec![Step::None; n + 1]; n + 1]; g + 1]; n + 1];
    prev[0][0][0] = 0;
    steps[0][0][0][0] = Step::Base;

    for i in 1..=n {
        for plane in curr.iter_mut() {
            for row in plane.iter_mut() {
                row.iter_mut().for_each(|c| *c = INF);
            }
        }
        for j in 0..=g {
            for u in 0..=i {
                for t in u..=i {
                    let mut best = INF;
                    let mut step = Step::None;
                    // Case 1 (paper: u > 0): job i unscheduled.
                    if u > 0 && t > 0 {
                        let c = prev[j][u - 1][t - 1];
                        if c < best {
                            best = c;
                            step = Step::Unscheduled;
                        }
                    }
                    // Case 2 (paper: u = 0, j > 1): job i joins the open machine.
                    if u == 0 && j > 1 && i >= 2 {
                        let c = prev[j - 1][0][t];
                        if c < INF {
                            let cand = c + job_len(i) - overlap_with_prev(i);
                            if cand < best {
                                best = cand;
                                step = Step::Append;
                            }
                        }
                    }
                    // Case 3 (paper: u = 0, j = 1): job i opens a new machine.
                    if u == 0 && j == 1 {
                        for prev_j in 0..=g {
                            for prev_u in 0..i {
                                if prev_u > t {
                                    break;
                                }
                                let c = prev[prev_j][prev_u][t];
                                if c < INF {
                                    let cand = c + job_len(i);
                                    if cand < best {
                                        best = cand;
                                        step = Step::NewMachine { prev_j, prev_u };
                                    }
                                }
                            }
                        }
                    }
                    curr[j][u][t] = best;
                    steps[i][j][u][t] = step;
                }
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }

    // `prev` holds layer n.  The maximum throughput is n − t for the smallest t with a
    // state within budget (scheduling nothing always fits, so a state exists).
    let mut start: Option<(usize, usize, usize)> = None; // (j, u, t)
    'outer: for t in 0..=n {
        for j in 0..=g {
            for u in 0..=t.min(n) {
                if prev[j][u][t] <= budget.ticks() {
                    start = Some((j, u, t));
                    break 'outer;
                }
            }
        }
    }
    let (mut j, mut u, mut t) = start.expect("the all-unscheduled state always fits");

    // Walk the steps backwards, recording the decision for each job (1-based index).
    let mut decision = vec![Step::None; n + 1];
    let mut i = n;
    while i > 0 {
        let step = steps[i][j][u][t];
        decision[i] = step;
        match step {
            Step::Unscheduled => {
                u -= 1;
                t -= 1;
            }
            Step::Append => {
                j -= 1;
                // u stays 0, t unchanged.
            }
            Step::NewMachine { prev_j, prev_u } => {
                j = prev_j;
                u = prev_u;
            }
            Step::Base | Step::None => unreachable!("reconstruction walked into an invalid state"),
        }
        i -= 1;
    }

    let schedule = schedule_from_decisions(n, &decision);
    let result = ThroughputResult::new(schedule, instance);
    debug_assert!(result.cost <= budget, "DP schedule must respect the budget");
    Ok(result)
}

/// Equivalent `O(n²·g)` dynamic program in `O(n²)` memory.
///
/// State after deciding job `i`: either job `i` is unscheduled (`j = 0`) or it sits on
/// the currently open machine together with `j − 1` of its immediate predecessors.  An
/// unscheduled job closes the open machine because machine job sets must be consecutive
/// in the full instance (Lemma 4.3); a new machine may also be opened with no gap.
///
/// Only two layers of `(n+1)·(g+1)` costs are live, stored `t`-major so that the
/// minimum over `j` reads one contiguous row.  A state with `j ≥ 2` always comes from
/// `(j − 1, t)`, so the only parents worth storing are the first arg-min over `j` of
/// layer `i − 1` at every `t < i` — `n(n+1)/2` `u32`s, about `2·n²` bytes in all.
pub fn most_throughput_consecutive_fast(
    instance: &Instance,
    budget: Duration,
) -> Result<ThroughputResult, Error> {
    if !instance.is_proper_clique() {
        return Err(Error::NotProperClique);
    }
    let n = instance.len();
    if n == 0 {
        return Ok(ThroughputResult::new(Schedule::empty(0), instance));
    }
    let g = instance.capacity().min(n);
    let jobs = instance.jobs();
    let w = g + 1;

    // prev/curr[t·w + j]: layers i − 1 and i.  Layer i only fills rows t ≤ i; the rows
    // above stay INF in both buffers.
    let mut prev = vec![INF; (n + 1) * w];
    let mut curr = vec![INF; (n + 1) * w];
    prev[0] = 0;
    // argmin[i(i−1)/2 + t] = first arg-min over j of layer i − 1 at t, for t < i.  Every
    // such row holds a finite state (the first t jobs left out, one machine per other
    // job), and j ≤ g ≤ n fits a u32 because instances index jobs with u32.
    let mut argmin = vec![0u32; n * (n + 1) / 2];

    for i in 1..=n {
        let len = jobs[i - 1].len().ticks();
        let inc = if i >= 2 {
            jobs[i - 1].end().ticks() - jobs[i - 2].end().ticks()
        } else {
            0
        };
        debug_assert!(inc >= 0, "ends are non-decreasing in a proper instance");
        let row_args = &mut argmin[i * (i - 1) / 2..][..i];
        // The minimum of layer i − 1's row t − 1: the `j = 0` cell of row t.
        let mut below = INF;
        for (t, arg_out) in row_args.iter_mut().enumerate() {
            let prev_row = &prev[t * w..][..w];
            let out = &mut curr[t * w..][..w];
            // Job i unscheduled.
            out[0] = below;
            let (mut best, mut arg) = (prev_row[0], 0);
            for (j, &c) in prev_row.iter().enumerate().skip(1) {
                if c < best {
                    best = c;
                    arg = j;
                }
            }
            debug_assert!(best < INF, "every row t < i of layer i − 1 is reachable");
            *arg_out = arg as u32;
            below = best;
            // Job i opens a new machine.
            out[1] = best + len;
            // Job i joins the open machine (job i − 1 on it with j − 1 < g jobs).
            for j in 2..=g {
                let c = prev_row[j - 1];
                out[j] = if c < INF { c + inc } else { INF };
            }
        }
        // Row i: every job so far unscheduled.
        curr[i * w] = below;
        std::mem::swap(&mut prev, &mut curr);
    }

    // Minimum t with a state under budget, then minimum j.
    let chosen = prev
        .iter()
        .position(|&c| c < INF && c <= budget.ticks())
        .expect("scheduling nothing always fits the budget");
    let (mut t, mut j) = (chosen / w, chosen % w);

    // Reconstruct decisions.
    let mut decision = vec![Step::None; n + 1];
    for i in (1..=n).rev() {
        let row_args = &argmin[i * (i - 1) / 2..][..i];
        decision[i] = match j {
            0 => {
                t -= 1;
                j = row_args[t] as usize;
                Step::Unscheduled
            }
            1 => {
                j = row_args[t] as usize;
                Step::NewMachine {
                    prev_j: 0,
                    prev_u: 0,
                }
            }
            _ => {
                j -= 1;
                Step::Append
            }
        };
    }

    let schedule = schedule_from_decisions(n, &decision);
    let result = ThroughputResult::new(schedule, instance);
    debug_assert!(result.cost <= budget);
    Ok(result)
}

/// Turn per-job decisions (1-based) into a schedule: `NewMachine` starts a machine,
/// `Append` continues it, `Unscheduled` leaves the job out.
fn schedule_from_decisions(n: usize, decision: &[Step]) -> Schedule {
    let mut schedule = Schedule::empty(n);
    let mut machine: Option<usize> = None;
    let mut next_machine = 0usize;
    for i in 1..=n {
        match decision[i] {
            Step::NewMachine { .. } => {
                machine = Some(next_machine);
                next_machine += 1;
                schedule.assign(i - 1, machine.unwrap());
            }
            Step::Append => {
                schedule.assign(
                    i - 1,
                    machine.expect("Append decisions always follow an open machine"),
                );
            }
            Step::Unscheduled => {
                machine = None;
            }
            Step::Base | Step::None => unreachable!("every job has a decision"),
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase(n: i64, shift: i64, len: i64, g: usize) -> Instance {
        let jobs: Vec<(i64, i64)> = (0..n).map(|i| (i * shift, i * shift + len)).collect();
        Instance::from_ticks(&jobs, g)
    }

    #[test]
    fn both_dps_agree_on_small_instances() {
        for g in [1usize, 2, 3] {
            let inst = staircase(6, 1, 10, g);
            assert!(inst.is_proper_clique());
            for t in 0..=70 {
                let budget = Duration::new(t);
                let slow = most_throughput_consecutive(&inst, budget).unwrap();
                let fast = most_throughput_consecutive_fast(&inst, budget).unwrap();
                assert_eq!(
                    slow.throughput, fast.throughput,
                    "g={g} budget={t}: slow={} fast={}",
                    slow.throughput, fast.throughput
                );
                slow.schedule.validate_budgeted(&inst, budget).unwrap();
                fast.schedule.validate_budgeted(&inst, budget).unwrap();
            }
        }
    }

    #[test]
    fn unlimited_budget_schedules_all_jobs_optimally() {
        let inst = staircase(7, 1, 9, 3);
        let budget = Duration::new(10_000);
        // With everything scheduled the cost must match the MinBusy optimum of
        // Theorem 3.2 (FindBestConsecutive).
        let minbusy = crate::minbusy::find_best_consecutive(&inst).unwrap();
        // A budget past the DP's unreachable-state sentinel must not select one.
        for budget in [budget, Duration::new(i64::MAX)] {
            let r = most_throughput_consecutive_fast(&inst, budget).unwrap();
            assert_eq!(r.throughput, 7);
            assert_eq!(r.cost, minbusy.cost(&inst));
        }
        let r2 = most_throughput_consecutive(&inst, budget).unwrap();
        assert_eq!(r2.throughput, 7);
        assert_eq!(r2.cost, minbusy.cost(&inst));
    }

    #[test]
    fn zero_budget_schedules_nothing() {
        let inst = staircase(5, 1, 5, 2);
        for f in [
            most_throughput_consecutive,
            most_throughput_consecutive_fast,
        ] {
            let r = f(&inst, Duration::ZERO).unwrap();
            assert_eq!(r.throughput, 0);
            assert_eq!(r.cost, Duration::ZERO);
        }
    }

    #[test]
    fn tight_budget_prefers_many_cheap_jobs() {
        // Staircase with unit shift and length 10, g = 2: a pair of consecutive jobs
        // costs 11, a single job 10, two pairs 22.
        let inst = staircase(6, 1, 10, 2);
        let r = most_throughput_consecutive_fast(&inst, Duration::new(11)).unwrap();
        assert_eq!(r.throughput, 2);
        let r = most_throughput_consecutive_fast(&inst, Duration::new(22)).unwrap();
        assert_eq!(r.throughput, 4);
        let r = most_throughput_consecutive_fast(&inst, Duration::new(21)).unwrap();
        assert_eq!(r.throughput, 3);
    }

    #[test]
    fn rejects_wrong_instance_class() {
        let not_clique = Instance::from_ticks(&[(0, 3), (2, 5), (4, 8)], 2);
        for f in [
            most_throughput_consecutive,
            most_throughput_consecutive_fast,
        ] {
            assert_eq!(
                f(&not_clique, Duration::new(5)).unwrap_err(),
                Error::NotProperClique
            );
        }
        let not_proper = Instance::from_ticks(&[(0, 10), (2, 8)], 2);
        for f in [
            most_throughput_consecutive,
            most_throughput_consecutive_fast,
        ] {
            assert_eq!(
                f(&not_proper, Duration::new(5)).unwrap_err(),
                Error::NotProperClique
            );
        }
    }

    #[test]
    fn empty_instance_ok() {
        let inst = Instance::from_ticks(&[], 2);
        for f in [
            most_throughput_consecutive,
            most_throughput_consecutive_fast,
        ] {
            let r = f(&inst, Duration::new(3)).unwrap();
            assert_eq!(r.throughput, 0);
        }
    }

    #[test]
    fn capacity_one_schedules_by_count() {
        // With g = 1 and a clique instance every machine holds exactly one job; all jobs
        // have length 6, so the throughput is simply budget / 6 (up to n).
        let inst = staircase(5, 1, 6, 1);
        let r = most_throughput_consecutive_fast(&inst, Duration::new(11)).unwrap();
        assert_eq!(r.throughput, 1);
        let r = most_throughput_consecutive_fast(&inst, Duration::new(18)).unwrap();
        assert_eq!(r.throughput, 3);
        let slow = most_throughput_consecutive(&inst, Duration::new(18)).unwrap();
        assert_eq!(slow.throughput, 3);
    }

    #[test]
    fn scheduled_blocks_are_consecutive() {
        let inst = staircase(9, 1, 15, 3);
        let r = most_throughput_consecutive_fast(&inst, Duration::new(40)).unwrap();
        for group in r.schedule.machine_groups() {
            let min = *group.first().unwrap();
            let max = *group.last().unwrap();
            assert_eq!(
                max - min + 1,
                group.len(),
                "machine blocks must be consecutive"
            );
        }
    }
}
