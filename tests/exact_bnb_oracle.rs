//! The differential oracle for the branch-and-bound exact backend: on every instance
//! small enough for the subset DP, [`busytime_exact::bnb::branch_and_bound`] under its
//! default budget must terminate optimally with exactly the DP's cost, and the
//! reconstructed schedule must re-validate with a from-scratch [`Schedule::cost`]
//! recomputation equal to the reported optimum.
//!
//! Cases come from two sources, mirroring the online/offline oracle: every named
//! workload-generator family at several (seed, n, g) points, and proptest-random
//! instances biased toward the shapes the families rarely produce — improper
//! containment chains, overlap-heavy cliques, and exact duplicate jobs (the stress
//! case for the search's identical-machine dominance rule).
//!
//! A second table pins the *budgeted* search: the exact `(lower, upper, nodes)` and
//! the incumbent's busy time per machine of seeded instances shaped like the
//! `exact_bound` benchmark set and of deeper rows from the scaling bench's exact
//! grid.  A change that reshapes the search tree — branch order, child order,
//! dominance, bounds, incumbents — fails here instead of silently moving a recorded
//! bracket or `cost_ratio`.

use busytime::{ExactBudget, ExactOutcome, Instance};
use busytime_exact::{bnb, exact_minbusy};
use busytime_workload::{
    clique_instance, cloud_trace, general_instance, one_sided_instance, optical_lightpaths,
    proper_clique_instance, proper_instance, seeded_rng,
};
use proptest::prelude::*;

/// The oracle proper: branch-and-bound against the subset DP on one instance.
fn assert_bnb_matches_dp(instance: &Instance, context: &str) {
    let dp = exact_minbusy(instance);
    match bnb::branch_and_bound(instance, &ExactBudget::default()) {
        ExactOutcome::Optimal {
            schedule,
            cost,
            nodes,
        } => {
            assert_eq!(
                cost, dp.cost,
                "{context}: B&B optimum vs subset-DP (after {nodes} nodes)"
            );
            if instance.is_empty() {
                assert!(
                    schedule.is_empty(),
                    "{context}: empty instance, jobs placed"
                );
            } else {
                schedule
                    .validate_complete(instance)
                    .unwrap_or_else(|e| panic!("{context}: B&B schedule invalid: {e}"));
            }
            assert_eq!(
                schedule.cost(instance),
                cost,
                "{context}: reported optimum vs recomputed schedule cost"
            );
        }
        ExactOutcome::Exhausted { nodes, .. } => {
            panic!("{context}: default budget exhausted after {nodes} nodes")
        }
    }
}

/// Every named generator family at a given (seed, n, g) — the workload half of the
/// oracle's case source (same parameter shapes as the online/offline oracle).
fn family_instances(seed: u64, n: usize, g: usize) -> Vec<(&'static str, Instance)> {
    vec![
        (
            "general",
            general_instance(&mut seeded_rng(seed), n, g, 200, 30),
        ),
        (
            "proper",
            proper_instance(&mut seeded_rng(seed), n, g, 20, 5),
        ),
        ("clique", clique_instance(&mut seeded_rng(seed), n, g, 100)),
        (
            "proper-clique",
            proper_clique_instance(&mut seeded_rng(seed), n, g, 4 * n.max(1) as i64),
        ),
        (
            "one-sided",
            one_sided_instance(&mut seeded_rng(seed), n, g, 60),
        ),
        ("cloud", cloud_trace(&mut seeded_rng(seed), n, g, 5, 1, 200)),
        (
            "optical",
            optical_lightpaths(&mut seeded_rng(seed), n, g, 64),
        ),
    ]
}

#[test]
fn bnb_matches_dp_on_every_workload_family() {
    for seed in 0..2u64 {
        for g in 1usize..=4 {
            for &n in &[5usize, 9, 12] {
                for (family, instance) in family_instances(seed, n, g) {
                    assert_bnb_matches_dp(&instance, &format!("{family} seed={seed} n={n} g={g}"));
                }
            }
        }
    }
}

#[test]
fn bnb_matches_dp_on_degenerate_instances() {
    assert_bnb_matches_dp(&Instance::from_ticks(&[], 3), "empty");
    assert_bnb_matches_dp(&Instance::from_ticks(&[(0, 7)], 1), "singleton");
    // All jobs identical: the dominance rule must still leave one representative child.
    assert_bnb_matches_dp(&Instance::from_ticks(&[(2, 9); 7], 2), "seven duplicates");
    // An improper containment chain — no two jobs cross, every pair nests.
    assert_bnb_matches_dp(
        &Instance::from_ticks(&[(0, 20), (1, 19), (2, 18), (3, 17), (4, 16), (5, 15)], 2),
        "containment chain",
    );
}

/// One pinned search: the instance's family and seed, its node budget, the
/// `(lower, upper, nodes)` the search must report, and its incumbent's machines.
struct Pinned {
    family: &'static str,
    jobs: usize,
    seed: u64,
    max_nodes: u64,
    lower: i64,
    upper: i64,
    nodes: u64,
    /// The incumbent's busy time per machine, machines in order of their first job.
    busy: &'static [i64],
}

/// Capacity-4 instances of the benchmark's families (proper-dense: lengths ≤ 40,
/// gaps ≤ 8; general: horizon 300, lengths ≤ 30; cloud: the scaling grid's trace).
fn pinned_instance(family: &str, jobs: usize, seed: u64) -> Instance {
    let rng = &mut seeded_rng(seed);
    match family {
        "proper-dense" => proper_instance(rng, jobs, 4, 40, 8),
        "general" => general_instance(rng, jobs, 4, 300, 30),
        "cloud" => cloud_trace(rng, jobs, 4, 5, 1, 100),
        other => unreachable!("no pinned family {other}"),
    }
}

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    // The benchmark's brackets: proper-dense n = 30 and 36 at its 300-node budget.
    Pinned { family: "proper-dense", jobs: 30, seed: 0, max_nodes: 300, lower: 1310, upper: 1328, nodes: 300, busy: &[229, 135, 154, 202, 280, 328] },
    Pinned { family: "proper-dense", jobs: 30, seed: 1, max_nodes: 300, lower: 1320, upper: 1354, nodes: 300, busy: &[456, 333, 166, 178, 221] },
    Pinned { family: "proper-dense", jobs: 30, seed: 2, max_nodes: 300, lower: 2698, upper: 2795, nodes: 300, busy: &[140, 740, 220, 284, 384, 457, 570] },
    Pinned { family: "proper-dense", jobs: 30, seed: 3, max_nodes: 300, lower: 2593, upper: 2630, nodes: 300, busy: &[610, 134, 261, 335, 377, 444, 469] },
    Pinned { family: "proper-dense", jobs: 30, seed: 4, max_nodes: 300, lower: 1745, upper: 1815, nodes: 300, busy: &[409, 512, 164, 199, 243, 288] },
    Pinned { family: "proper-dense", jobs: 30, seed: 5, max_nodes: 300, lower: 2434, upper: 2476, nodes: 300, busy: &[600, 136, 222, 292, 343, 407, 476] },
    Pinned { family: "proper-dense", jobs: 36, seed: 0, max_nodes: 300, lower: 1976, upper: 2078, nodes: 300, busy: &[470, 562, 146, 147, 193, 242, 318] },
    Pinned { family: "proper-dense", jobs: 36, seed: 1, max_nodes: 300, lower: 1911, upper: 2013, nodes: 300, busy: &[515, 406, 107, 184, 223, 263, 315] },
    Pinned { family: "proper-dense", jobs: 36, seed: 2, max_nodes: 300, lower: 3777, upper: 3855, nodes: 300, busy: &[854, 203, 233, 343, 412, 516, 612, 682] },
    Pinned { family: "proper-dense", jobs: 36, seed: 3, max_nodes: 300, lower: 3547, upper: 3606, nodes: 300, busy: &[762, 192, 296, 351, 425, 477, 519, 584] },
    // The benchmark's closers: general n = 20, one closed by the warm start alone
    // and four that need a search.
    Pinned { family: "general", jobs: 20, seed: 0, max_nodes: 300, lower: 230, upper: 230, nodes: 0, busy: &[28, 82, 4, 23, 21, 41, 31] },
    Pinned { family: "general", jobs: 20, seed: 7, max_nodes: 300, lower: 239, upper: 239, nodes: 14, busy: &[38, 23, 39, 67, 17, 55] },
    Pinned { family: "general", jobs: 20, seed: 9, max_nodes: 300, lower: 187, upper: 187, nodes: 13, busy: &[4, 17, 34, 6, 55, 12, 19, 8, 6, 26] },
    Pinned { family: "general", jobs: 20, seed: 70, max_nodes: 300, lower: 185, upper: 185, nodes: 32, busy: &[11, 49, 28, 32, 5, 22, 16, 22] },
    Pinned { family: "general", jobs: 20, seed: 165, max_nodes: 300, lower: 207, upper: 207, nodes: 28, busy: &[69, 29, 32, 43, 28, 6] },
    // Deeper rows of the scaling bench's exact grid (seed 2012) at 500k nodes.
    Pinned { family: "general", jobs: 60, seed: 2012, max_nodes: 500_000, lower: 411, upper: 411, nodes: 20_349, busy: &[110, 146, 72, 44, 39] },
    Pinned { family: "proper-dense", jobs: 30, seed: 2012, max_nodes: 500_000, lower: 2261, upper: 2328, nodes: 500_000, busy: &[744, 239, 168, 284, 397, 496] },
    Pinned { family: "cloud", jobs: 40, seed: 2012, max_nodes: 500_000, lower: 339, upper: 339, nodes: 241_245, busy: &[10, 264, 65] },
];

#[test]
fn budgeted_search_reproduces_the_pinned_brackets() {
    for pin in PINNED {
        let context = format!(
            "{} n={} seed={} at {} nodes",
            pin.family, pin.jobs, pin.seed, pin.max_nodes
        );
        let instance = pinned_instance(pin.family, pin.jobs, pin.seed);
        let budget = ExactBudget {
            max_nodes: pin.max_nodes,
            max_millis: None,
        };
        let (schedule, lower, upper, nodes) = match bnb::branch_and_bound(&instance, &budget) {
            ExactOutcome::Optimal {
                schedule,
                cost,
                nodes,
            } => (schedule, cost, cost, nodes),
            ExactOutcome::Exhausted {
                incumbent,
                lower,
                upper,
                nodes,
            } => (incumbent, lower, upper, nodes),
        };
        assert_eq!(
            (lower.ticks(), upper.ticks(), nodes),
            (pin.lower, pin.upper, pin.nodes),
            "{context}: (lower, upper, nodes)"
        );
        schedule
            .validate_complete(&instance)
            .unwrap_or_else(|e| panic!("{context}: incumbent invalid: {e}"));
        assert_eq!(schedule.cost(&instance), upper, "{context}: incumbent cost");
        let busy: Vec<i64> = schedule
            .busy_times(&instance)
            .iter()
            .map(|b| b.ticks())
            .collect();
        assert_eq!(busy, pin.busy, "{context}: incumbent busy time per machine");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arbitrary unstructured instances: overlap mixes, touching endpoints, improper
    /// containment — everything the named families under-sample.
    #[test]
    fn bnb_matches_dp_on_random_instances(
        jobs in prop::collection::vec((-40i64..40, 1i64..30), 1..12),
        g in 1usize..5,
    ) {
        let jobs: Vec<(i64, i64)> = jobs.into_iter().map(|(s, l)| (s, s + l)).collect();
        let instance = Instance::from_ticks(&jobs, g);
        assert_bnb_matches_dp(&instance, "proptest random");
    }

    /// Overlap-heavy instances with forced duplicates: starts drawn from a narrow
    /// band so almost everything conflicts, then the first `copies` jobs repeated
    /// verbatim to hammer the identical-machine dominance pruning.
    #[test]
    fn bnb_matches_dp_on_overlap_heavy_duplicates(
        jobs in prop::collection::vec((-6i64..6, 1i64..15), 1..8),
        copies in 1usize..4,
        g in 1usize..4,
    ) {
        let mut jobs: Vec<(i64, i64)> = jobs.into_iter().map(|(s, l)| (s, s + l)).collect();
        let dup: Vec<(i64, i64)> = jobs.iter().copied().cycle().take(copies).collect();
        jobs.extend(dup);
        let instance = Instance::from_ticks(&jobs, g);
        assert_bnb_matches_dp(&instance, "proptest duplicates");
    }
}
