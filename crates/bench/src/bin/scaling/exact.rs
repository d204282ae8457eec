//! The `exact` section: at sizes the subset DP cannot reach, branch-and-bound
//! prices workload-family instances exactly, and the online and defragmented
//! costs are re-priced against that optimum (see [`Row`]).

use std::time::Instant;

use busytime::online::{OnlinePolicy, OnlineScheduler};
use busytime::{ExactBudget, ExactOutcome, Instance};
use busytime_exact::{bnb, exact_minbusy_cost, MAX_EXACT_JOBS};
use busytime_workload::{
    cloud_trace, general_instance, proper_instance, seeded_rng, trace_from_instance,
};
use serde::Serialize;

use crate::defrag::compact_to_fixpoint;

/// Machine capacity of the exact instances.
const CAPACITY: usize = 4;

/// The size whose rows must be solved, or bracketed within [`GAP_BAR`].
const GATED_N: usize = 40;

/// The largest unsolved gap a [`GATED_N`] row may keep.
const GAP_BAR: f64 = 0.05;

/// One exact re-pricing row: a workload-family instance solved (or bounded) by the
/// branch-and-bound oracle, with the online arrival-order FirstFit replay and its
/// compact-to-fixpoint repair priced as ratios to the **true** optimum rather than
/// to the offline greedy.
///
/// When the search exhausts its budget the ratios are taken against the proven
/// lower bound, so every recorded ratio is an upper estimate of the real one and
/// the `≥ 1` invariant survives either way.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Workload family ("general", "proper_dense", "cloud").
    family: String,
    jobs: usize,
    capacity: usize,
    /// Proven lower bound on OPT (equals `upper` when `optimal`).
    lower: i64,
    /// Best schedule found (the incumbent; equals OPT when `optimal`).
    upper: i64,
    /// Whether branch-and-bound closed the gap within its budget.
    optimal: bool,
    /// Branch-and-bound nodes expanded.
    nodes: u64,
    /// `(upper - lower) / max(lower, 1)` — 0.0 exactly when `optimal`.
    gap: f64,
    /// Wall time of the exact solve.
    secs: f64,
    /// Subset-DP cross-check (`null` above `MAX_EXACT_JOBS`); `--check` requires
    /// it to equal the B&B optimum wherever it exists.
    dp_cost: Option<i64>,
    /// Online FirstFit over the arrivals-only replay of the same instance…
    online_cost: i64,
    /// …as a ratio to the exact optimum (to `lower` when the search exhausted).
    online_to_opt: f64,
    /// The same online schedule compacted to a fixpoint…
    defrag_cost: i64,
    /// …as a ratio to the exact optimum.
    defrag_to_opt: f64,
    /// Migrations the compact-to-fixpoint loop committed.
    moves: usize,
}

/// Price `instance` exactly and re-price its online and defragmented costs.
fn reprice(family: &str, instance: &Instance, budget: &ExactBudget) -> Row {
    let started = Instant::now();
    let outcome = bnb::branch_and_bound(instance, budget);
    let secs = started.elapsed().as_secs_f64();
    let (lower, upper, optimal, nodes) = match outcome {
        ExactOutcome::Optimal { cost, nodes, .. } => (cost.ticks(), cost.ticks(), true, nodes),
        ExactOutcome::Exhausted {
            lower,
            upper,
            nodes,
            ..
        } => (lower.ticks(), upper.ticks(), false, nodes),
    };
    let dp_cost = (instance.len() <= MAX_EXACT_JOBS && !instance.is_empty())
        .then(|| exact_minbusy_cost(instance).ticks());

    // Ratios to OPT when solved, to the proven lower bound otherwise — either
    // way `cost ≥ OPT ≥ lower` keeps them at or above 1.
    let opt_floor = if optimal { upper } else { lower }.max(1) as f64;
    let mut live = OnlineScheduler::run(&trace_from_instance(instance), OnlinePolicy::FirstFit)
        .expect("instance replays are well-formed")
        .scheduler;
    let online_cost = live.cost().ticks();
    let moves = compact_to_fixpoint(&mut live);
    let defrag_cost = live.cost().ticks();
    Row {
        family: family.to_string(),
        jobs: instance.len(),
        capacity: CAPACITY,
        lower,
        upper,
        optimal,
        nodes,
        gap: (upper - lower) as f64 / lower.max(1) as f64,
        secs,
        dp_cost,
        online_cost,
        online_to_opt: online_cost as f64 / opt_floor,
        defrag_cost,
        defrag_to_opt: defrag_cost as f64 / opt_floor,
        moves,
    }
}

pub fn measure(quick: bool) -> Vec<Row> {
    let sizes: &[usize] = if quick { &[20, 40] } else { &[20, 30, 40, 60] };
    // Quick mode halves the node budget, not the size grid — the n = 40 gate must
    // hold in CI too, and the hard rows hit their best incumbent early anyway.
    let budget = if quick {
        ExactBudget {
            max_nodes: 500_000,
            max_millis: None,
        }
    } else {
        ExactBudget::default()
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let instances = [
            general_instance(&mut seeded_rng(2012), n, CAPACITY, 300, 30),
            proper_instance(&mut seeded_rng(2012), n, CAPACITY, 40, 8),
            cloud_trace(&mut seeded_rng(2012), n, CAPACITY, 5, 1, 100),
        ];
        for (family, instance) in ["general", "proper_dense", "cloud"].iter().zip(&instances) {
            rows.push(reprice(family, instance, &budget));
        }
    }
    rows
}

/// Wherever the subset DP can still price the instance, branch-and-bound must
/// agree with it exactly; the n = 40 rows must be present and solved or
/// bracketed within 5%; at least one row must carry the DP cross-check; and the
/// to-OPT ratios sit at or above 1 by construction (cost ≥ OPT ≥ lower), so a
/// ratio below 1 means an unsound bound, not noise.
pub fn check(rows: &[Row], _quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    if !rows.iter().any(|r| r.jobs == GATED_N) {
        failures.push(format!("no exact row has n={GATED_N}"));
    }
    if !rows.iter().any(|r| r.dp_cost.is_some()) {
        failures.push("no exact row carries a subset-DP cross-check".to_string());
    }
    for r in rows {
        let cell = format!("exact {} n={}", r.family, r.jobs);
        if r.lower > r.upper {
            failures.push(format!("{cell}: inverted bounds {} > {}", r.lower, r.upper));
        }
        if let Some(dp) = r.dp_cost {
            if !r.optimal || r.upper != dp {
                failures.push(format!(
                    "{cell}: branch-and-bound {} (optimal={}) disagrees with the \
                     subset-DP optimum {dp}",
                    r.upper, r.optimal
                ));
            }
        }
        if r.jobs == GATED_N && !r.optimal && r.gap >= GAP_BAR {
            failures.push(format!(
                "{cell}: unsolved with a {:.1}% gap — the n={GATED_N} bar is solved or < {:.0}%",
                r.gap * 100.0,
                GAP_BAR * 100.0
            ));
        }
        if r.online_to_opt < 1.0 || r.defrag_to_opt < 1.0 {
            failures.push(format!(
                "{cell}: a to-OPT ratio fell below 1 (online {:.4}, defrag {:.4}) — \
                 the exact bound is unsound",
                r.online_to_opt, r.defrag_to_opt
            ));
        }
        if r.defrag_cost > r.online_cost {
            failures.push(format!(
                "{cell}: compaction raised the cost {} -> {}",
                r.online_cost, r.defrag_cost
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_section_needs_an_n_40_row_and_a_dp_cross_check() {
        let instance = general_instance(&mut seeded_rng(1), 8, CAPACITY, 300, 30);
        let mut row = reprice("general", &instance, &ExactBudget::default());
        assert!(check(std::slice::from_ref(&row), true)[0].contains("no exact row has n=40"));
        row.jobs = GATED_N;
        assert_eq!(
            check(std::slice::from_ref(&row), true),
            Vec::<String>::new()
        );
        row.dp_cost = None;
        assert!(check(&[row], true)[0].contains("subset-DP cross-check"));
    }
}
