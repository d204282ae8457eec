//! The `tuning` section: the calibration grid behind FirstFit's scan/kernel cutover
//! (`busytime::tuning`).  Each row times kernel and scan FirstFit on one shape at one
//! size, over three seeds, the two paths in rotation, and records their ratio; the
//! cutover constant is fitted to these rows.

use busytime::minbusy::{first_fit_in_order_kernel, first_fit_in_order_scan};
use busytime::{tuning, Instance};
use busytime_workload::{
    cloud_trace, general_instance, optical_lightpaths, proper_instance, seeded_rng,
};
use serde::Serialize;

use crate::harness::{median, time_rotated, trials_for};

/// The instance seeds of every cell.
const SEEDS: [u64; 3] = [1, 2, 3];

/// The calibration shapes, `(name, capacity, arrival order too)`: the two proper
/// shapes of the `rows` section at g = 10 in both orders, and the general, cloud and
/// optical families of the `offline_batch` benchmark in FirstFit's length order.
const SHAPES: [(&str, usize, bool); 5] = [
    ("proper_sparse", 10, true),
    ("proper_dense", 10, true),
    ("general", 4, false),
    ("cloud", 8, false),
    ("optical", 4, false),
];

/// The sizes of the grid.
fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[300, 1_000, 2_000]
    } else {
        &[100, 300, 500, 700, 1_000, 1_500, 2_000, 5_000]
    }
}

/// The instance of `shape` at `n` jobs: the proper shapes of the `rows` section, and
/// the families with the parameters of the `offline_batch` benchmark's generator.
fn instance(shape: &str, capacity: usize, n: usize, seed: u64) -> Instance {
    let rng = &mut seeded_rng(seed);
    match shape {
        "proper_sparse" => proper_instance(rng, n, capacity, 8, 10),
        "proper_dense" => proper_instance(rng, n, capacity, 40, 8),
        "general" => general_instance(rng, n, capacity, 5 * n as i64, 60),
        "cloud" => cloud_trace(rng, n, capacity, 5, 1, 500),
        "optical" => optical_lightpaths(rng, n, capacity, 64),
        other => unreachable!("unknown calibration shape {other}"),
    }
}

/// One (shape, order, n) cell of the grid.
#[derive(Debug, Serialize)]
pub struct Row {
    /// `shape/order`, for example `proper_dense/arrival` or `cloud/length`.
    bench: String,
    capacity: usize,
    n: usize,
    seeds: Vec<u64>,
    /// Median kernel FirstFit seconds, per seed.
    kernel_secs: Vec<f64>,
    /// Median scan FirstFit seconds, per seed.
    scan_secs: Vec<f64>,
    /// Kernel time over scan time, per seed: below 1.0 the kernel wins.
    kernel_over_scan: Vec<f64>,
    /// The median of `kernel_over_scan`.
    median_kernel_over_scan: f64,
    /// Whether `busytime::tuning` routes instances of this size to the kernel.
    routed_to_kernel: bool,
}

pub fn measure(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for (shape, capacity, arrival_too) in SHAPES {
        let orders: &[&str] = if arrival_too {
            &["arrival", "length"]
        } else {
            &["length"]
        };
        for &order_name in orders {
            for &n in sizes(quick) {
                let mut row = Row {
                    bench: format!("{shape}/{order_name}"),
                    capacity,
                    n,
                    seeds: SEEDS.to_vec(),
                    kernel_secs: Vec::new(),
                    scan_secs: Vec::new(),
                    kernel_over_scan: Vec::new(),
                    median_kernel_over_scan: f64::NAN,
                    routed_to_kernel: false,
                };
                for seed in SEEDS {
                    let instance = instance(shape, capacity, n, seed);
                    row.routed_to_kernel = tuning::first_fit_use_kernel(&instance);
                    let order: Vec<usize> = match order_name {
                        "arrival" => (0..instance.len()).collect(),
                        _ => instance
                            .order_by_length_desc()
                            .iter()
                            .map(|&j| j as usize)
                            .collect(),
                    };
                    let kernel = || first_fit_in_order_kernel(&instance, &order);
                    let scan = || first_fit_in_order_scan(&instance, &order);
                    let [kernel, scan] = time_rotated(trials_for(n), [&kernel, &scan]);
                    row.kernel_secs.push(kernel);
                    row.scan_secs.push(scan);
                    row.kernel_over_scan.push(kernel / scan);
                }
                row.median_kernel_over_scan = median(row.kernel_over_scan.clone());
                rows.push(row);
            }
        }
    }
    rows
}

/// Every cell of the grid is present with a finite, positive time and ratio for
/// every seed.  Nothing else is gated: the rows are the evidence the cutover is
/// fitted to, not a bound on it.
pub fn check(rows: &[Row], quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let orders: usize = SHAPES
        .iter()
        .map(|&(_, _, arrival_too)| if arrival_too { 2 } else { 1 })
        .sum();
    let expected = orders * sizes(quick).len();
    if rows.len() != expected {
        failures.push(format!(
            "{} tuning rows were recorded; shapes x orders x sizes is {expected}",
            rows.len()
        ));
    }
    for r in rows {
        let cells = [&r.kernel_secs, &r.scan_secs, &r.kernel_over_scan];
        let complete = cells.iter().all(|c| c.len() == SEEDS.len())
            && cells
                .iter()
                .flat_map(|c| c.iter())
                .chain([&r.median_kernel_over_scan])
                .all(|x| x.is_finite() && *x > 0.0);
        if !complete {
            failures.push(format!(
                "tuning {} n={}: a cell is missing or not a finite time above 0",
                r.bench, r.n
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: f64) -> Row {
        Row {
            bench: "general/length".into(),
            capacity: 4,
            n: 300,
            seeds: SEEDS.to_vec(),
            kernel_secs: vec![kernel; 3],
            scan_secs: vec![1.0; 3],
            kernel_over_scan: vec![kernel; 3],
            median_kernel_over_scan: kernel,
            routed_to_kernel: false,
        }
    }

    #[test]
    fn every_cell_must_be_present_and_finite() {
        let grid = |kernel: f64| -> Vec<Row> { (0..21).map(|_| row(kernel)).collect() };
        assert_eq!(check(&grid(0.5), true), Vec::<String>::new());
        for bad in [f64::NAN, f64::INFINITY, 0.0] {
            assert!(check(&grid(bad), true)[0].contains("not a finite time"));
        }
        let mut short = grid(0.5);
        short[3].scan_secs.pop();
        assert!(check(&short, true)[0].contains("missing"));
        short.pop();
        assert!(check(&short, true)[0].contains("20 tuning rows"));
    }
}
