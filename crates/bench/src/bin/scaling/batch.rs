//! The `batch` section: `Solver::solve_batch_on` on one uneven batch, at several
//! pool widths.  Widths
//! beyond the host's available parallelism are still measured; the `meta` block
//! records the cores, so the curve stays interpretable, and no gate reads it.

use busytime::par::ThreadPool;
use busytime::{Problem, Solver};
use busytime_workload::{cloud_trace, general_instance, seeded_rng};
use serde::Serialize;

use crate::harness::{time_trials, TRIALS};

/// One `solve_batch` configuration.
#[derive(Debug, Serialize)]
pub struct Row {
    instances: usize,
    /// Jobs summed over every instance of the batch.
    total_jobs: usize,
    threads: usize,
    secs: f64,
    /// Single-thread time over this configuration's time.
    speedup_vs_1_thread: f64,
}

/// The batch: rounds of `2^(6−k)` instances of `100·2^k` jobs for k = 0..=6
/// (127 instances from 100 to 6,400 jobs), alternating the `general` and `cloud`
/// families.  Most instances are small, but FirstFit is superlinear, so one
/// 6,400-job instance costs about 1,000 times a 100-job one and the few large
/// instances hold most of the work.  One round takes about 16 ms on one core of a
/// 2-core x86-64 host, so `--quick` runs eight rounds (about 120 ms of uneven work,
/// clear of the 100 ms below which a timing is noise) and a full run twenty.
fn problems(quick: bool) -> Vec<Problem> {
    let rounds = if quick { 8 } else { 20 };
    let mut rng = seeded_rng(2012);
    let mut problems = Vec::new();
    for _ in 0..rounds {
        for k in 0..=6 {
            let n = 100 << k;
            for i in 0..1usize << (6 - k) {
                let instance = if i % 2 == 0 {
                    general_instance(&mut rng, n, 4, 5 * n as i64, 60)
                } else {
                    cloud_trace(&mut rng, n, 8, 5, 1, 500)
                };
                problems.push(Problem::min_busy(instance));
            }
        }
    }
    problems
}

pub fn measure(quick: bool) -> Vec<Row> {
    let problems = problems(quick);
    let total_jobs = problems.iter().map(|p| p.instance().len()).sum();
    let solver = Solver::new();
    let mut rows: Vec<Row> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let secs = time_trials(TRIALS, || solver.solve_batch_on(&pool, &problems));
        let one_thread_secs = rows.first().map_or(secs, |row| row.secs);
        rows.push(Row {
            instances: problems.len(),
            total_jobs,
            threads,
            secs,
            speedup_vs_1_thread: one_thread_secs / secs,
        });
    }
    rows
}

/// The widths are recorded, not gated.
pub fn check(_rows: &[Row], _quick: bool) -> Vec<String> {
    Vec::new()
}
