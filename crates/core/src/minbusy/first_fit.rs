//! FirstFit for one-dimensional instances — the 4-approximation baseline of
//! Flammini et al. [13], against which the paper's Section 3 algorithms are compared.
//!
//! Jobs are considered in non-increasing order of length; every machine has `g` threads
//! of execution and a job is placed on the first thread (of the first machine) whose jobs
//! it does not overlap.  The paper's Section 3.4 2-D FirstFit is the same algorithm with
//! rectangles and a per-dimension sort key; it lives in [`crate::twodim`].

use busytime_interval::Interval;

use crate::instance::Instance;
use crate::machine::ScheduleBuilder;
use crate::schedule::Schedule;
use crate::tuning;

/// FirstFit with `g` threads per machine, jobs in non-increasing order of length.
///
/// Valid for every instance (no structural precondition); a 4-approximation on general
/// instances by the analysis of \[13\].
///
/// The length order is the instance's cached one (no per-call re-sort) and placement
/// goes through [`first_fit_in_order_adaptive`], so small instances run the plain scan
/// and large ones the kernel + placement index.
pub fn first_fit(instance: &Instance) -> Schedule {
    place_adaptive(
        instance,
        instance.order_by_length_desc().iter().map(|&j| j as usize),
    )
}

/// FirstFit considering the jobs in the given explicit order (used by tests and by the
/// bucketed 2-D variant's 1-D counterpart).
///
/// Placement goes through the incremental [`ScheduleBuilder`] and the global
/// [`crate::placement::PlacementIndex`]: each conflict test is a logarithmic probe of
/// the machine's live occupancy and runs of provably-full machines are skipped in
/// `O(log m)`, which is what makes FirstFit usable at the scales the experiment
/// harness runs (see `first_fit_in_order_scan` for the pre-kernel reference and
/// [`first_fit_in_order_adaptive`] for the size-aware entry point).
pub fn first_fit_in_order(instance: &Instance, order: &[usize]) -> Schedule {
    let mut builder = ScheduleBuilder::new(instance);
    for &j in order {
        builder.place_first_fit(j);
    }
    builder.finish()
}

/// FirstFit in an explicit order with the scan/kernel cutover applied: instances below
/// the calibrated thresholds of [`crate::tuning`] run the plain per-thread scan (whose
/// constant factors win at small `n`), larger or denser ones the kernel + placement
/// index.  Both paths implement the identical placement rule, so the schedule does not
/// depend on which one ran.
pub fn first_fit_in_order_adaptive(instance: &Instance, order: &[usize]) -> Schedule {
    if tuning::first_fit_use_kernel(instance) {
        first_fit_in_order(instance, order)
    } else {
        first_fit_in_order_scan(instance, order)
    }
}

/// Shared adaptive driver over any job-id stream (lets [`first_fit`] feed the cached
/// `u32` length order straight through without materializing a `usize` vector).
fn place_adaptive(instance: &Instance, order: impl Iterator<Item = usize>) -> Schedule {
    if tuning::first_fit_use_kernel(instance) {
        let mut builder = ScheduleBuilder::new(instance);
        for j in order {
            builder.place_first_fit(j);
        }
        builder.finish()
    } else {
        scan_impl(instance, order)
    }
}

/// The pre-kernel FirstFit: identical placement rule and results, but every conflict
/// test scans the candidate thread's whole job list.
///
/// Kept as the equivalence baseline for the kernel (property tests pin
/// `first_fit_in_order ==` this function) and as the "before" side of the scaling
/// benchmarks recorded in `BENCH_scaling.json`.  Do not use it for real workloads.
pub fn first_fit_in_order_scan(instance: &Instance, order: &[usize]) -> Schedule {
    scan_impl(instance, order.iter().copied())
}

fn scan_impl(instance: &Instance, order: impl Iterator<Item = usize>) -> Schedule {
    let g = instance.capacity();
    // threads[m][t] is the list of intervals currently on thread t of machine m.
    let mut threads: Vec<Vec<Vec<Interval>>> = Vec::new();
    let mut schedule = Schedule::empty(instance.len());
    for j in order {
        let iv = instance.job(j);
        let mut placed = false;
        'machines: for (m, machine) in threads.iter_mut().enumerate() {
            for thread in machine.iter_mut() {
                if thread.iter().all(|other| !iv.overlaps(other)) {
                    thread.push(iv);
                    schedule.assign(j, m);
                    placed = true;
                    break 'machines;
                }
            }
        }
        if !placed {
            let mut machine: Vec<Vec<Interval>> = vec![Vec::new(); g];
            machine[0].push(iv);
            threads.push(machine);
            schedule.assign(j, threads.len() - 1);
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{length_bound, lower_bound};
    use busytime_interval::Duration;

    #[test]
    fn fills_threads_before_opening_machines() {
        // Four identical jobs, g = 2 → 2 machines.
        let inst = Instance::from_ticks(&[(0, 10); 4], 2);
        let s = first_fit(&inst);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 2);
        assert_eq!(s.cost(&inst), Duration::new(20));
    }

    #[test]
    fn non_overlapping_jobs_share_one_thread() {
        let inst = Instance::from_ticks(&[(0, 2), (2, 4), (4, 6), (6, 8)], 1);
        let s = first_fit(&inst);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 1);
        assert_eq!(s.cost(&inst), Duration::new(8));
    }

    #[test]
    fn longest_jobs_are_seeds() {
        // One long job and several short ones inside it; g = 2 → all fit on one machine
        // only if the short ones are pairwise disjoint.
        let inst = Instance::from_ticks(&[(0, 100), (10, 20), (30, 40), (50, 60)], 2);
        let s = first_fit(&inst);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 1);
        assert_eq!(s.cost(&inst), Duration::new(100));
    }

    #[test]
    fn respects_capacity() {
        let inst = Instance::from_ticks(&[(0, 10), (1, 11), (2, 12), (3, 13)], 2);
        let s = first_fit(&inst);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 2);
    }

    #[test]
    fn cost_between_bounds() {
        let jobs: Vec<(i64, i64)> = (0..20).map(|i| (i * 3, i * 3 + 7)).collect();
        let inst = Instance::from_ticks(&jobs, 3);
        let s = first_fit(&inst);
        s.validate_complete(&inst).unwrap();
        assert!(s.cost(&inst) >= lower_bound(&inst));
        assert!(s.cost(&inst) <= length_bound(&inst));
    }

    #[test]
    fn explicit_order_is_honoured() {
        // Force a deliberately bad order (shortest first) and check FirstFit still builds
        // a valid schedule.
        let inst = Instance::from_ticks(&[(0, 100), (10, 20), (15, 25)], 1);
        let order = vec![1, 2, 0];
        let s = first_fit_in_order(&inst, &order);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 3);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_ticks(&[], 2);
        let s = first_fit(&inst);
        assert_eq!(s.machines_used(), 0);
        assert_eq!(s.cost(&inst), Duration::ZERO);
    }

    #[test]
    fn kernel_placement_matches_scan_reference() {
        // A deterministic pseudo-random mix of clustered and scattered jobs; the
        // kernel-backed FirstFit must reproduce the scan version assignment-for-
        // assignment (same placement rule, different data structure).
        let mut state = 88172645463325252u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for g in [1usize, 2, 3, 5] {
            let jobs: Vec<(i64, i64)> = (0..200)
                .map(|_| {
                    let s = (next() % 500) as i64;
                    let len = (next() % 60 + 1) as i64;
                    (s, s + len)
                })
                .collect();
            let inst = Instance::from_ticks(&jobs, g);
            let order: Vec<usize> = (0..inst.len()).collect();
            assert_eq!(
                first_fit_in_order(&inst, &order),
                first_fit_in_order_scan(&inst, &order),
                "g = {g}"
            );
            assert_eq!(first_fit(&inst), {
                let mut by_len: Vec<usize> = (0..inst.len()).collect();
                by_len.sort_by_key(|&j| (std::cmp::Reverse(inst.job(j).len()), j));
                first_fit_in_order_scan(&inst, &by_len)
            });
        }
    }
}
