//! FirstFit for one-dimensional instances — the 4-approximation baseline of
//! Flammini et al. [13], against which the paper's Section 3 algorithms are compared.
//!
//! Jobs are considered in non-increasing order of length; every machine has `g` threads
//! of execution and a job is placed on the first thread (of the first machine) whose jobs
//! it does not overlap.  The paper's Section 3.4 2-D FirstFit is the same algorithm with
//! rectangles and a per-dimension sort key; it lives in [`crate::twodim`].

use busytime_interval::Interval;

use crate::instance::Instance;
use crate::machine::MachinePool;
use crate::schedule::Schedule;
use crate::tuning;

/// FirstFit with `g` threads per machine, jobs in non-increasing order of length.
///
/// Valid for every instance (no structural precondition); a 4-approximation on general
/// instances by the analysis of \[13\].
///
/// The length order is the instance's cached one (no per-call re-sort); placement is
/// that of [`first_fit_in_order`].
pub fn first_fit(instance: &Instance) -> Schedule {
    place(
        instance,
        instance.order_by_length_desc().iter().map(|&j| j as usize),
    )
}

/// FirstFit considering the jobs in the given explicit order.
///
/// This is FirstFit's one door ([`first_fit`] makes the same choice):
/// [`tuning::first_fit_use_kernel`] picks the plain per-thread scan (whose constant
/// factors win at small `n`) or the sweep kernel + [`crate::placement::PlacementIndex`]
/// (logarithmic conflict probes, runs of provably-full machines skipped in
/// `O(log m)`).  Both sides implement the identical placement rule, so the schedule
/// does not depend on which one ran.
pub fn first_fit_in_order(instance: &Instance, order: &[usize]) -> Schedule {
    place(instance, order.iter().copied())
}

/// The scan/kernel choice shared by [`first_fit`] and [`first_fit_in_order`], over any
/// job-id stream (so the cached `u32` length order needs no `usize` vector).
fn place(instance: &Instance, order: impl Iterator<Item = usize>) -> Schedule {
    if tuning::first_fit_use_kernel(instance) {
        kernel_impl(instance, order)
    } else {
        scan_impl(instance, order)
    }
}

/// FirstFit on the sweep kernel at every size: each job goes to
/// [`MachinePool::first_fit_slot`].
///
/// Kept as the kernel half of the equivalence checks (property tests pin this function
/// `==` [`first_fit_in_order_scan`]) and as the kernel column of the `scaling`
/// benchmark's FirstFit rows.  Real workloads call [`first_fit_in_order`].
pub fn first_fit_in_order_kernel(instance: &Instance, order: &[usize]) -> Schedule {
    kernel_impl(instance, order.iter().copied())
}

fn kernel_impl(instance: &Instance, order: impl Iterator<Item = usize>) -> Schedule {
    let mut pool = MachinePool::new(instance.capacity());
    let mut schedule = Schedule::empty(instance.len());
    for j in order {
        let iv = instance.job(j);
        let (machine, thread) = pool.first_fit_slot(iv);
        pool.insert(iv, machine, thread);
        schedule.assign(j, machine);
    }
    schedule
}

/// The pre-kernel FirstFit: identical placement rule and results, but every conflict
/// test scans the candidate thread's whole job list.
///
/// Kept as the scan half of the equivalence checks (property tests pin
/// [`first_fit_in_order_kernel`] `==` this function) and as the scan column of the
/// `scaling` benchmark's FirstFit rows.  Real workloads call [`first_fit_in_order`].
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
                first_fit_in_order_kernel(&inst, &order),
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
