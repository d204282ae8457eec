//! # busytime-bench
//!
//! The experiment harness of the `busytime` workspace.  The paper *"Optimizing Busy Time
//! on Parallel Machines"* has no empirical evaluation section — its results are theorems —
//! so the harness validates every theorem-level claim empirically and reproduces the one
//! concrete construction in the paper (Figure 3).
//!
//! * `cargo run -p busytime-bench --bin experiments --release` prints every experiment
//!   table and an overall pass/fail summary; `--json PATH` records the results.
//! * `cargo run -p busytime-bench --bin scaling --release` measures the running time of
//!   the hot paths against their baselines and writes `BENCH_scaling.json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod exp_dispatch;
mod exp_maxthroughput;
mod exp_minbusy;
mod exp_twodim;
pub mod loadgen;
pub mod report;

pub use exp_dispatch::e0_facade_dispatch;
pub use exp_maxthroughput::{
    e10_one_sided_throughput, e7_clique_throughput, e8_proper_clique_throughput,
};
pub use exp_minbusy::{
    e10_one_sided, e1_clique_matching, e2_clique_set_cover, e3_best_cut, e4_proper_clique_dp,
    e9_bounds_and_reduction,
};
pub use exp_twodim::{e5_first_fit_2d, e6_bucket_first_fit};
pub use report::{ExperimentReport, Row};

/// Run every experiment with the given seed and per-configuration trial count.
///
/// The defaults used by the `experiments` binary are `seed = 2012` (the year of the
/// IPDPS paper) and `trials = 20`.
pub fn all_experiments(seed: u64, trials: usize) -> Vec<ExperimentReport> {
    vec![
        e0_facade_dispatch(seed, trials),
        e1_clique_matching(seed, trials),
        e2_clique_set_cover(seed, trials),
        e3_best_cut(seed, trials),
        e4_proper_clique_dp(seed, trials),
        e5_first_fit_2d(seed, trials),
        e6_bucket_first_fit(seed, trials),
        e7_clique_throughput(seed, trials),
        e8_proper_clique_throughput(seed, trials),
        e9_bounds_and_reduction(seed, trials),
        e10_one_sided(seed, trials),
        e10_one_sided_throughput(seed, trials),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_passes_with_few_trials() {
        let reports = all_experiments(2012, 2);
        assert_eq!(reports.len(), 12);
        for report in &reports {
            assert!(report.passed(), "{}", report.render());
        }
        // Ids are unique.
        let mut ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }
}
