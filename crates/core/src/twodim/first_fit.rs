//! FirstFit for rectangular jobs (Algorithm 3 of the paper).
//!
//! Jobs are sorted by non-increasing `len₂` and each is assigned to the first thread of
//! execution of the first machine on which it intersects no previously placed job.
//! Lemma 3.5 shows the approximation ratio is between `6γ₁ + 3` and `6γ₁ + 4`, where
//! `γ₁` is the ratio of the longest to the shortest projection in dimension 1.

use busytime_interval::Rect;

use crate::twodim::instance2d::{Instance2d, Schedule2d};

/// The proven upper bound `6γ₁ + 4` on FirstFit's approximation ratio (Lemma 3.5).
pub fn first_fit_2d_guarantee(gamma1: f64) -> f64 {
    6.0 * gamma1 + 4.0
}

/// FirstFit on rectangular jobs, in non-increasing order of `len₂` (Algorithm 3).
pub fn first_fit_2d(instance: &Instance2d) -> Schedule2d {
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(instance.job(j).len_k(2)), j));
    first_fit_2d_in_order(instance, &order)
}

/// FirstFit on rectangular jobs in an explicit order (used by [`super::bucket_first_fit`]
/// so that each bucket keeps the global `len₂` ordering).
///
/// Each rectangle goes to the first thread, of the first machine, whose rectangles it
/// does not overlap; a rectangle that fits nowhere opens a new machine.
pub fn first_fit_2d_in_order(instance: &Instance2d, order: &[usize]) -> Schedule2d {
    let g = instance.capacity();
    // threads[m][t]: the rectangles on thread t of machine m.
    let mut threads: Vec<Vec<Vec<Rect>>> = Vec::new();
    let mut schedule = Schedule2d::empty(instance.len());
    for &j in order {
        let rect = instance.job(j);
        let mut placed = false;
        'machines: for (m, machine) in threads.iter_mut().enumerate() {
            for thread in machine.iter_mut() {
                if thread.iter().all(|other| !rect.overlaps(other)) {
                    thread.push(rect);
                    schedule.assign(j, m);
                    placed = true;
                    break 'machines;
                }
            }
        }
        if !placed {
            let mut machine: Vec<Vec<Rect>> = vec![Vec::new(); g];
            machine[0].push(rect);
            threads.push(machine);
            schedule.assign(j, threads.len() - 1);
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_squares_fill_machines() {
        let inst = Instance2d::from_ticks(&[(0, 2, 0, 2); 5], 2);
        let s = first_fit_2d(&inst);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 3);
        assert_eq!(s.cost(&inst), 3 * 4);
    }

    #[test]
    fn disjoint_rectangles_share_one_thread() {
        let inst = Instance2d::from_ticks(
            &[(0, 2, 0, 2), (3, 5, 0, 2), (6, 8, 0, 2), (9, 11, 0, 2)],
            1,
        );
        let s = first_fit_2d(&inst);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 1);
        assert_eq!(s.cost(&inst), 16);
    }

    #[test]
    fn tall_jobs_seed_machines() {
        // One tall job (large len₂) and small ones that fit beside it.
        let inst = Instance2d::from_ticks(
            &[
                (0, 2, 0, 100),
                (3, 5, 0, 10),
                (3, 5, 20, 30),
                (3, 5, 40, 50),
            ],
            2,
        );
        let s = first_fit_2d(&inst);
        s.validate_complete(&inst).unwrap();
        // The tall job goes first; the small disjoint jobs share its machine's threads.
        assert_eq!(s.machines_used(), 1);
    }

    #[test]
    fn guarantee_holds_on_random_like_grid() {
        // A deterministic grid of overlapping rectangles; check the ratio against the
        // area lower bound.
        let mut jobs = Vec::new();
        for i in 0..6i64 {
            for k in 0..4i64 {
                jobs.push((i, i + 4, 3 * k, 3 * k + 5));
            }
        }
        let inst = Instance2d::from_ticks(&jobs, 3);
        let s = first_fit_2d(&inst);
        s.validate_complete(&inst).unwrap();
        let gamma1 = inst.gamma(1).unwrap();
        let ratio = s.cost(&inst) as f64 / inst.lower_bound() as f64;
        assert!(ratio <= first_fit_2d_guarantee(gamma1) + 1e-9);
    }

    #[test]
    fn respects_capacity_with_heavy_overlap() {
        let inst = Instance2d::from_ticks(&[(0, 10, 0, 10); 7], 3);
        let s = first_fit_2d(&inst);
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.machines_used(), 3);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance2d::from_ticks(&[], 2);
        let s = first_fit_2d(&inst);
        assert_eq!(s.machines_used(), 0);
        assert_eq!(s.cost(&inst), 0);
    }

    #[test]
    fn guarantee_formula() {
        assert_eq!(first_fit_2d_guarantee(1.0), 10.0);
        assert_eq!(first_fit_2d_guarantee(2.0), 16.0);
    }
}
