//! The `rows` section: each kernel-backed hot path against its full-scan
//! reference across sizes (the references stay in the library, so both sides
//! evolve together), and FirstFit's adaptive dispatch against the better of the
//! two.

use busytime::maxthroughput::{greedy_fallback, greedy_fallback_scan};
use busytime::minbusy::{first_fit_in_order, first_fit_in_order_kernel, first_fit_in_order_scan};
use busytime::{Duration, Instance, Interval, Schedule};
use busytime_workload::{proper_instance, seeded_rng};
use serde::Serialize;

use crate::harness::{sizes, time_rotated, time_trials, trials_for, CAPACITY};

/// Wall-clock budget for one quadratic-baseline measurement: a baseline whose time,
/// extrapolated from the previous size, would exceed it is recorded as skipped
/// instead of silently omitted.
const SCAN_BUDGET_SECS: f64 = 5.0;

/// The marker recorded in place of a measurement the budget vetoed.
const SKIP_TIMEOUT: &str = "quadratic-baseline-timeout";

/// How far below parity an adaptive-dispatch row may land before `--check`
/// fails it.  The adaptive path literally runs one of the two measured paths
/// plus an O(1) threshold check, so a genuinely sub-parity dispatch is a
/// miscalibration — but the measured ratio is a quotient of two medians of
/// millisecond-scale timings, and inside a full bench run (allocator and cache
/// state warmed by whatever ran before, neighbours on the machine) it drifts
/// 20%+ below parity on rows that measure at exact parity in isolation.  The
/// band still catches a wrong dispatch where it matters: in the regimes where
/// the two paths diverge they differ by 2x or more, so a miscalibrated
/// dispatch measures at or below ~0.5x — well under this gate.
const ADAPTIVE_PARITY_TOLERANCE: f64 = 0.30;

/// The two proper-instance shapes, `(name, max_len, max_gap)`.  They stress
/// opposite regimes.  The *sparse* staircase has bounded overlap, so a few
/// machines absorb everything and the pre-kernel cost was the per-thread
/// conflict scans (quadratic in jobs per thread).  The *dense* shape's depth
/// grows with n, so thousands of machines open and the cost is the per-job
/// machine scan; there the placement index wins on `O(log m)` saturated-stretch
/// skipping rather than per-probe asymptotics.
const SHAPES: [(&str, i64, i64); 2] = [("sparse", 8, 10), ("dense", 40, 8)];

/// The FirstFit placement orders each shape is measured in.
const FIRST_FIT_ORDERS: usize = 2;

/// One measured (benchmark, n) configuration.
#[derive(Debug, Serialize)]
pub struct Row {
    bench: String,
    n: usize,
    capacity: usize,
    kernel_secs: f64,
    /// `None` when the scan baseline was skipped (see `skipped` for why).
    scan_secs: Option<f64>,
    /// Why the scan baseline was not run, when it was not.
    skipped: Option<String>,
    /// Scan time over kernel time.
    speedup: Option<f64>,
    /// The adaptive dispatch path, measured on the same instance (first-fit rows).
    adaptive_secs: Option<f64>,
    /// Best of {scan, kernel} over adaptive — parity (1.0) or better means the
    /// cutover thresholds route this size correctly.
    adaptive_speedup: Option<f64>,
}

/// Quadratic extrapolation of a baseline measurement to a larger size; `None` when no
/// smaller measurement exists yet (the first size is always attempted).
fn predict_quadratic(last: Option<(usize, f64)>, n: usize) -> Option<f64> {
    last.map(|(last_n, secs)| {
        let ratio = n as f64 / last_n as f64;
        secs * ratio * ratio
    })
}

/// The pre-kernel `Schedule::cost`/validity path: group per machine, collect, re-sort.
fn cost_and_validate_scan(schedule: &Schedule, instance: &Instance) -> (i64, bool) {
    let mut cost = 0i64;
    let mut valid = true;
    for group in schedule.machine_groups() {
        let ivs: Vec<Interval> = group.iter().map(|&j| instance.job(j)).collect();
        cost += busytime_interval::span(&ivs).ticks();
        valid &= busytime_interval::max_overlap(&ivs) <= instance.capacity();
    }
    (cost, valid)
}

/// A row with kernel and scan times and no adaptive path.
fn plain(bench: String, n: usize, kernel: f64, scan: Option<f64>, skipped: Option<String>) -> Row {
    Row {
        bench,
        n,
        capacity: CAPACITY,
        kernel_secs: kernel,
        scan_secs: scan,
        skipped,
        speedup: scan.map(|s| s / kernel),
        adaptive_secs: None,
        adaptive_speedup: None,
    }
}

pub fn measure(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for (shape, max_len, max_gap) in SHAPES {
        // (n, secs) of the last greedy scan actually run, per shape, for the
        // quadratic time-budget prediction.
        let mut last_greedy_scan: Option<(usize, f64)> = None;
        for &n in sizes(quick) {
            let instance = proper_instance(&mut seeded_rng(2012), n, CAPACITY, max_len, max_gap);
            let trials = trials_for(n);
            let name = |bench: &str| format!("{bench}/proper_{shape}");
            let first_fit_row = |bench: &str, order: &[usize]| {
                // One median-of-`trials` measurement per path, recorded as-is: the
                // `--check` gate absorbs the residual jitter with
                // ADAPTIVE_PARITY_TOLERANCE rather than a retry hiding it.
                let [kernel, scan, adaptive] = time_rotated(
                    trials,
                    [
                        &|| first_fit_in_order_kernel(&instance, order),
                        &|| first_fit_in_order_scan(&instance, order),
                        &|| first_fit_in_order(&instance, order),
                    ],
                );
                Row {
                    adaptive_secs: Some(adaptive),
                    adaptive_speedup: Some(scan.min(kernel) / adaptive),
                    ..plain(name(bench), n, kernel, Some(scan), None)
                }
            };

            // FirstFit placement in the canonical non-increasing length order (off the
            // instance's cached length order)…
            let by_length: Vec<usize> = instance
                .order_by_length_desc()
                .iter()
                .map(|&j| j as usize)
                .collect();
            rows.push(first_fit_row("first_fit_by_length", &by_length));

            // …and in arrival (start) order, the explicit-order entry point the 2-D
            // bucketing drives.
            let arrival: Vec<usize> = (0..instance.len()).collect();
            rows.push(first_fit_row("first_fit_arrival", &arrival));

            // Schedule cost + validity, sweep vs group-and-re-sort.
            let schedule = first_fit_in_order(&instance, &by_length);
            let kernel = time_trials(trials, || {
                schedule.validate(&instance).is_ok() && schedule.cost(&instance).ticks() > 0
            });
            let scan = time_trials(trials, || cost_and_validate_scan(&schedule, &instance));
            let bench = name("schedule_cost_validate");
            rows.push(plain(bench, n, kernel, Some(scan), None));

            // Best-fit greedy placement; the scan baseline re-unions whole machines
            // per probe, so it runs under the time budget.
            let budget = Duration::new(instance.total_len().ticks());
            let kernel = time_trials(trials, || greedy_fallback(&instance, budget));
            let prediction = predict_quadratic(last_greedy_scan, n);
            let (scan, skipped) = if prediction.is_none_or(|p| p <= SCAN_BUDGET_SECS) {
                let secs = time_trials(trials, || greedy_fallback_scan(&instance, budget));
                last_greedy_scan = Some((n, secs));
                (Some(secs), None)
            } else {
                (None, Some(SKIP_TIMEOUT.to_string()))
            };
            let bench = name("greedy_best_fit_placement");
            rows.push(plain(bench, n, kernel, scan, skipped));
        }
    }
    rows
}

/// Every FirstFit row carries a finite adaptive ratio above 0, every size × shape
/// × order has its row, every adaptive ratio sits within the parity band, and a
/// missing scan time carries its skipped marker.
pub fn check(rows: &[Row], quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let first_fit: Vec<&Row> = rows
        .iter()
        .filter(|r| r.bench.starts_with("first_fit_"))
        .collect();
    let expected = sizes(quick).len() * SHAPES.len() * FIRST_FIT_ORDERS;
    if first_fit.len() != expected {
        failures.push(format!(
            "{} first_fit rows were recorded; sizes x shapes x orders is {expected}",
            first_fit.len()
        ));
    }
    for r in first_fit {
        if !r.adaptive_speedup.is_some_and(|s| s.is_finite() && s > 0.0) {
            failures.push(format!(
                "{} n={}: adaptive ratio {:?} is not a finite ratio above 0",
                r.bench, r.n, r.adaptive_speedup
            ));
        }
    }
    for r in rows {
        if let Some(spd) = r.adaptive_speedup {
            if spd < 1.0 - ADAPTIVE_PARITY_TOLERANCE {
                failures.push(format!(
                    "{} n={}: adaptive dispatch measured at {spd:.3}x vs best of \
                     scan/kernel — below the {:.2}x tolerance band",
                    r.bench,
                    r.n,
                    1.0 - ADAPTIVE_PARITY_TOLERANCE
                ));
            }
        }
        if r.scan_secs.is_none() && r.skipped.is_none() {
            failures.push(format!(
                "{} n={}: scan baseline absent without a skipped marker",
                r.bench, r.n
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick grid's FirstFit rows, all at parity.
    fn grid() -> Vec<Row> {
        let mut rows = Vec::new();
        for &n in sizes(true) {
            for (shape, ..) in SHAPES {
                for bench in ["first_fit_by_length", "first_fit_arrival"] {
                    let bench = format!("{bench}/proper_{shape}");
                    let row = plain(bench, n, 1.0, Some(1.0), None);
                    rows.push(Row {
                        adaptive_speedup: Some(1.0),
                        ..row
                    });
                }
            }
        }
        rows
    }

    #[test]
    fn every_first_fit_row_needs_a_finite_ratio() {
        assert_eq!(check(&grid(), true), Vec::<String>::new());
        for spd in [None, Some(f64::NAN), Some(0.0)] {
            let mut rows = grid();
            rows[0].adaptive_speedup = spd;
            assert!(
                check(&rows, true)[0].contains("not a finite ratio"),
                "{spd:?}"
            );
        }
        let mut rows = grid();
        rows.pop();
        assert!(check(&rows, true)[0].contains("15 first_fit rows"));
    }
}
