//! Calibrated cutover thresholds for the adaptive dispatch tier.
//!
//! `BENCH_scaling.json` showed the kernel-backed FirstFit *losing* to the naive
//! per-thread scan at small instance sizes — 0.30–0.79× at `n = 1000` — because the
//! incremental profiles and the placement index only amortize once enough machines and
//! long enough thread histories exist.  Rather than making every caller pick a path,
//! the 1-D placement entry point ([`crate::minbusy::first_fit_in_order_adaptive`])
//! consults this module and cuts over between the plain scan and the kernel
//! automatically.
//!
//! The decision uses two `O(1)` facts the instance computes at construction:
//!
//! * the job count `n`, and
//! * the hull density `len(J) / hull(J)` — the average coverage depth.  Density / `g`
//!   is a lower bound on the average machine count, and on the calibration shapes it
//!   tracked how many machines the greedy opens and so how much the scan pays per
//!   placement.
//!
//! On the dense calibration shape the crossover came earlier: its scan walks every open
//! machine per job, while the sparse shape keeps the scan competitive longer because
//! conflicts are found after probing a handful of short thread lists.  The constants
//! were calibrated with `cargo run -p busytime-bench --bin scaling --release` on the
//! two shapes recorded in `BENCH_scaling.json` (sparse and dense proper instances,
//! capacity 10) and on nothing else.  A high hull density does not by itself mean many
//! machines: general, cloud and optical instances that clear [`DENSE_HULL_DENSITY`]
//! can open only a handful, and the scan can still beat the kernel on them at 2,000 to
//! 4,000 jobs.  The `scaling` binary re-validates the constants on every run by
//! emitting an `first_fit_adaptive` row per size, and the CI `scaling-check` job fails
//! if any of those rows falls below 0.70× of the best of scan and kernel (the binary's
//! `ADAPTIVE_PARITY_TOLERANCE = 0.30` band under parity).

use crate::instance::Instance;

/// Above this job count the kernel path won on both calibration shapes (sparse and
/// dense proper instances, capacity 10), whatever the density.
pub const FIRST_FIT_KERNEL_MIN_JOBS: usize = 6_000;

/// Dense instances (see [`DENSE_HULL_DENSITY`]) cut over to the kernel this early.  On
/// the dense proper calibration shape machines open proportionally to `n`, so the
/// scan's per-job machine walk is already the dominant cost well before
/// [`FIRST_FIT_KERNEL_MIN_JOBS`]; other dense families need not behave that way.
pub const FIRST_FIT_KERNEL_MIN_JOBS_DENSE: usize = 2_000;

/// Hull density (average coverage depth) at which an instance counts as *dense*.
pub const DENSE_HULL_DENSITY: f64 = 2.5;

/// Should 1-D FirstFit placement run through the sweep kernel and placement index
/// (`true`) or the plain per-thread scan (`false`) for this instance?
pub fn first_fit_use_kernel(instance: &Instance) -> bool {
    let n = instance.len();
    n >= FIRST_FIT_KERNEL_MIN_JOBS
        || (n >= FIRST_FIT_KERNEL_MIN_JOBS_DENSE && instance.hull_density() >= DENSE_HULL_DENSITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase(n: usize, step: i64, len: i64) -> Instance {
        let jobs: Vec<(i64, i64)> = (0..n as i64).map(|i| (i * step, i * step + len)).collect();
        Instance::from_ticks(&jobs, 10)
    }

    #[test]
    fn small_instances_stay_on_the_scan() {
        assert!(!first_fit_use_kernel(&staircase(100, 10, 8)));
        assert!(!first_fit_use_kernel(&staircase(1_000, 10, 8)));
    }

    #[test]
    fn large_instances_use_the_kernel() {
        assert!(first_fit_use_kernel(&staircase(
            FIRST_FIT_KERNEL_MIN_JOBS,
            10,
            8
        )));
    }

    #[test]
    fn dense_instances_cut_over_earlier() {
        // Density ~ len/step = 8: dense, so the lower threshold applies.
        let dense = staircase(3_000, 5, 40);
        assert!(dense.hull_density() >= DENSE_HULL_DENSITY);
        assert!(first_fit_use_kernel(&dense));
        // Same size but sparse: stays on the scan.
        let sparse = staircase(3_000, 10, 8);
        assert!(sparse.hull_density() < DENSE_HULL_DENSITY);
        assert!(!first_fit_use_kernel(&sparse));
    }

    #[test]
    fn empty_instance_is_sparse() {
        let empty = Instance::from_ticks(&[], 3);
        assert_eq!(empty.hull_density(), 0.0);
        assert!(!first_fit_use_kernel(&empty));
    }
}
