//! Calibrated cutover thresholds for FirstFit's scan/kernel choice.
//!
//! The kernel-backed FirstFit still *loses* to the naive per-thread scan at small
//! instance sizes (1.05–3.9× slower at `n = 500` on the calibration shapes), because
//! the incremental profiles and the placement index only amortize once enough
//! machines and long enough thread histories exist.  Rather than making every caller
//! pick a path, the 1-D FirstFit entry point ([`crate::minbusy::first_fit_in_order`],
//! which [`crate::minbusy::first_fit`] shares) consults this module and cuts over
//! between the plain scan and the kernel automatically.
//!
//! The decision uses two `O(1)` facts the instance computes at construction:
//!
//! * the job count `n`, and
//! * the hull density `len(J) / hull(J)` — the average coverage depth.  Density / `g`
//!   is a lower bound on the average machine count, and so on how many machines the
//!   scan walks per placement.
//!
//! The constants were fitted to the median of 9 or more release runs of kernel and
//! scan FirstFit per cell, on a 2-core x86-64 host: the two proper calibration shapes
//! (`proper_instance(seeded_rng(2012), n, 10, 8, 10)`, sparse, and `(…, 40, 8)`,
//! dense) in arrival and in length order at `n` = 500 to 6,000, and the general
//! (`g = 4`, density ≈ 6), cloud (`g = 8`, density ≈ 16) and optical (`g = 4`) families
//! of the `offline_batch` benchmark at 1,000 to 8,000 jobs.  A density in the
//! hundreds is what separates the shapes whose scan walks many machines early: dense
//! proper instances (density ≈ 390 at 1,000 jobs) let the kernel win from about 700
//! jobs, optical ones (≈ 275 at 1,000 jobs) from about 1,600.  General and cloud
//! instances stay on the job-count rule, which no single threshold fits for both: the
//! kernel wins general instances from about 3,000 jobs but cloud ones only from about
//! 5,000, so cloud instances of 3,000 to 4,999 jobs run the slower kernel.  The
//! `scaling` binary re-validates the constants on every run by emitting a
//! `first_fit_adaptive` row per size, and the CI `scaling-check` job fails if any of
//! those rows falls below 0.70× of the best of scan and kernel (the binary's
//! `ADAPTIVE_PARITY_TOLERANCE = 0.30` band under parity).

use crate::instance::Instance;

/// From this job count on the kernel path runs whatever the density: it wins the
/// sparse proper shape in length order and the general family from here on.
pub const FIRST_FIT_KERNEL_MIN_JOBS: usize = 3_000;

/// Dense instances (see [`DENSE_HULL_DENSITY`]) cut over to the kernel this early.  On
/// the dense proper calibration shape machines open proportionally to `n`, so the
/// scan's per-job machine walk dominates well before [`FIRST_FIT_KERNEL_MIN_JOBS`].
pub const FIRST_FIT_KERNEL_MIN_JOBS_DENSE: usize = 1_000;

/// Hull density (average coverage depth) at which an instance counts as *dense*:
/// above the optical family at 1,000 jobs (≈ 275), below the dense proper shape at
/// 1,000 jobs (≈ 390).
pub const DENSE_HULL_DENSITY: f64 = 350.0;

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
        assert!(!first_fit_use_kernel(&staircase(
            FIRST_FIT_KERNEL_MIN_JOBS - 1,
            10,
            8
        )));
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
        // Jobs of length 1,000 starting one tick apart: density in the hundreds, so
        // the dense threshold applies, and it applies from its job count on.
        let dense = staircase(FIRST_FIT_KERNEL_MIN_JOBS_DENSE, 1, 1_000);
        assert!(dense.hull_density() >= DENSE_HULL_DENSITY);
        assert!(first_fit_use_kernel(&dense));
        let short = staircase(FIRST_FIT_KERNEL_MIN_JOBS_DENSE - 1, 1, 1_000);
        assert!(short.hull_density() >= DENSE_HULL_DENSITY);
        assert!(!first_fit_use_kernel(&short));
        // Past the dense job count but sparse, or only moderately dense (density 8,
        // near the general family's 6): both stay on the scan.
        for (step, len) in [(10, 8), (5, 40)] {
            let other = staircase(2_000, step, len);
            assert!(other.hull_density() < DENSE_HULL_DENSITY);
            assert!(!first_fit_use_kernel(&other));
        }
    }

    #[test]
    fn empty_instance_is_sparse() {
        let empty = Instance::from_ticks(&[], 3);
        assert_eq!(empty.hull_density(), 0.0);
        assert!(!first_fit_use_kernel(&empty));
    }
}
