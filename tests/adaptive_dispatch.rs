//! The small-`n` regression guard: PR 2's kernel lost to the naive scan at `n ≤ 1000`
//! (0.30–0.79× in `BENCH_scaling.json`), so the adaptive dispatch exists precisely to
//! erase those cells.  This test pins that at these sizes the dispatch (a) routes to
//! the side the calibration expects and (b) measures at parity or better against the
//! best of {scan, kernel}.
//!
//! Timing assertions in a test suite need care: the adaptive path *is* one of the two
//! measured paths plus an O(1) threshold check, so its true ratio against the best
//! path is 1.0 and any shortfall is timer noise.  Each configuration is therefore
//! measured in up to [`ROUNDS`] independent rounds of interleaved medians and passes
//! as soon as one round reaches parity — a genuine miscalibration (routing to the
//! slower path) fails every round by the measured 1.3–10× gap, which no retry can
//! close.

use std::time::Instant;

use busytime::minbusy::{first_fit_in_order, first_fit_in_order_kernel, first_fit_in_order_scan};
use busytime::tuning;
use busytime::{Instance, Schedule};
use busytime_workload::proper_instance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Independent measurement rounds per configuration; one round at parity passes.
const ROUNDS: usize = 10;

/// Trials per round (medians of microsecond-scale runs).
const TRIALS: usize = 9;

fn median(trials: usize, mut f: impl FnMut() -> Schedule) -> f64 {
    let mut samples: Vec<f64> = (0..trials)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn assert_adaptive_at_parity(instance: &Instance, label: &str) {
    let order: Vec<usize> = (0..instance.len()).collect();
    let paths: [fn(&Instance, &[usize]) -> Schedule; 3] = [
        first_fit_in_order_kernel,
        first_fit_in_order_scan,
        first_fit_in_order,
    ];
    let mut best_ratio = f64::MIN;
    for round in 0..ROUNDS {
        // A run right after another path's can read slower, so path `k` is timed in
        // position `(round + k) % 3`: every path takes every position in turn.
        let mut secs = [0.0; 3];
        for position in 0..3 {
            let k = (position + 3 - round % 3) % 3;
            secs[k] = median(TRIALS, || paths[k](instance, &order));
        }
        let [kernel, scan, adaptive] = secs;
        let ratio = scan.min(kernel) / adaptive;
        best_ratio = best_ratio.max(ratio);
        if best_ratio >= 1.0 {
            return;
        }
    }
    panic!(
        "{label}: adaptive dispatch stayed below parity across {ROUNDS} rounds \
         (best observed {best_ratio:.3}x vs the best of scan/kernel)"
    );
}

#[test]
fn adaptive_dispatch_at_least_parity_at_small_n() {
    for n in [100usize, 1_000] {
        for (shape, max_len, max_gap) in [("sparse", 8i64, 10i64), ("dense", 40, 8)] {
            let mut rng = StdRng::seed_from_u64(2012);
            let instance = proper_instance(&mut rng, n, 10, max_len, max_gap);
            // Structural half: n = 100 sits below the cutover and n = 1000 at it, so
            // only n = 1000 takes the kernel, in either shape…
            let kernel = n == 1_000;
            assert_eq!(
                tuning::first_fit_use_kernel(&instance),
                kernel,
                "n = {n} {shape}: expected the {} side of the cutover",
                if kernel { "kernel" } else { "scan" }
            );
            // …and the timing half: at parity or better against the best path.
            assert_adaptive_at_parity(&instance, &format!("n = {n} {shape}"));
        }
    }
}

#[test]
fn adaptive_dispatch_routes_large_dense_instances_to_the_kernel() {
    let mut rng = StdRng::seed_from_u64(2012);
    let dense = proper_instance(&mut rng, 50_000, 10, 40, 8);
    assert!(
        tuning::first_fit_use_kernel(&dense),
        "50k dense instances must take the kernel path"
    );
    let mut rng = StdRng::seed_from_u64(2012);
    let sparse = proper_instance(&mut rng, 50_000, 10, 8, 10);
    assert!(
        tuning::first_fit_use_kernel(&sparse),
        "50k sparse instances must take the kernel path"
    );
}

#[test]
fn cutover_does_not_change_any_schedule() {
    // Sizes straddling both thresholds, both shapes: the adaptive result must equal
    // both underlying paths exactly.
    for n in [64usize, 1_000, 2_500, 7_000] {
        for (max_len, max_gap) in [(8i64, 10i64), (40, 8)] {
            let mut rng = StdRng::seed_from_u64(7);
            let instance = proper_instance(&mut rng, n, 4, max_len, max_gap);
            let order: Vec<usize> = (0..instance.len()).collect();
            let adaptive = first_fit_in_order(&instance, &order);
            assert_eq!(
                adaptive,
                first_fit_in_order_kernel(&instance, &order),
                "n = {n}"
            );
            assert_eq!(
                adaptive,
                first_fit_in_order_scan(&instance, &order),
                "n = {n}"
            );
        }
    }
}
