//! Tiny-size smoke runs of every workload: every named metric is present,
//! finite and has a unit, and the deterministic metrics repeat exactly for
//! one seed and move with another.

use std::path::PathBuf;

use perfbench::layers::{per_layer, waterfall};
use perfbench::spans::Spans;
use perfbench::{measure, run, Scale, Workload, E2E_METRICS};

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

#[test]
fn every_workload_reports_every_metric_with_a_unit() {
    let dir = out_dir("metrics");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(workload, 7, 0.4, trace, Scale::Tiny, &dir)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.report);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let want: Vec<String> = if trace {
                per_layer().into_iter().map(|(name, _)| name).collect()
            } else {
                E2E_METRICS
                    .iter()
                    .map(|(name, _)| name.to_string())
                    .collect()
            };
            let got: Vec<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            for metric in &outcome.metrics {
                assert!(
                    metric.value.is_finite(),
                    "{} {} = {}",
                    workload.name(),
                    metric.name,
                    metric.value
                );
                assert!(!metric.unit.is_empty(), "{}", metric.name);
            }
        }
    }
}

/// The deterministic figures of one tiny measurement: the cost ratio plus
/// every seed-determined note.
fn deterministic(workload: Workload, seed: u64) -> Vec<(String, f64)> {
    let e2e = measure(workload, seed, 0.3, Scale::Tiny, None)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(e2e.failed, 0, "{}: {:?}", workload.name(), e2e.problems);
    let mut values = vec![("cost_ratio".to_string(), e2e.cost_ratio)];
    for (name, value, _) in e2e.notes {
        if [
            "minbusy_cost_ratio",
            "maxtp_scheduled_share",
            "exact_gap",
            "exact.nodes",
        ]
        .contains(&name.as_str())
        {
            values.push((name, value));
        }
    }
    values
}

#[test]
fn deterministic_metrics_repeat_for_a_seed_and_move_with_it() {
    for workload in Workload::ALL {
        let first = deterministic(workload, 11);
        let again = deterministic(workload, 11);
        let other = deterministic(workload, 12);
        assert_eq!(first, again, "{} repeats", workload.name());
        // The cost ratio always moves; a count may tie between two seeds.
        assert_ne!(first[0], other[0], "{} cost_ratio moves", workload.name());
        assert_ne!(first, other, "{} moves with the seed", workload.name());
    }
}

#[test]
fn dispatch_counts_and_search_nodes_repeat_for_a_seed_and_move_with_it() {
    let dir = out_dir("layers");
    let counts = |seed: u64| -> Vec<(String, f64)> {
        waterfall(Workload::ExactBound, seed, Scale::Tiny, &Spans::new(), &dir)
            .expect("the waterfall runs")
            .into_iter()
            .filter(|m| m.name.starts_with("solver.count.") || m.name == "exact.nodes")
            .map(|m| (m.name, m.value))
            .collect()
    };
    let first = counts(3);
    assert_eq!(first, counts(3));
    assert_ne!(first, counts(4));
    assert!(first.iter().any(|(_, v)| *v > 0.0));
}
