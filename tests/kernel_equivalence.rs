//! Property tests pinning the incremental machine/schedule layer to the pre-kernel
//! reference implementations: the sweep-backed placements and validators must be
//! behaviourally indistinguishable from the full-scan versions they replaced, on
//! arbitrary random instances of every structure class.

use busytime::maxthroughput::{greedy_fallback, greedy_fallback_scan};
use busytime::minbusy::{first_fit_in_order_kernel, first_fit_in_order_scan};
use busytime::twodim::{first_fit_2d_in_order, Instance2d};
use busytime::{Duration, Instance, Interval, MachinePool, Schedule};
use busytime_interval::{max_overlap, span, Rect, CHUNK_LEN};
use busytime_workload::{
    clique_instance, cloud_trace, general_instance, one_sided_instance, optical_lightpaths,
    proper_clique_instance, proper_instance, seeded_rng,
};
use proptest::prelude::*;

/// Random instances mixing overlap-heavy and scattered jobs.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec((-80i64..80, 1i64..50), 0..40),
        1usize..5,
    )
        .prop_map(|(jobs, g)| {
            let jobs: Vec<(i64, i64)> = jobs.into_iter().map(|(s, l)| (s, s + l)).collect();
            Instance::try_from_ticks(&jobs, g).expect("generated jobs are non-empty")
        })
}

/// The pre-kernel `Schedule::cost`: group per machine, collect, re-union.
fn cost_reference(schedule: &Schedule, instance: &Instance) -> Duration {
    schedule
        .machine_groups()
        .iter()
        .map(|group| {
            let ivs: Vec<Interval> = group.iter().map(|&j| instance.job(j)).collect();
            span(&ivs)
        })
        .sum()
}

/// The pre-kernel validity check: no machine's group may exceed depth `g`.
fn is_valid_reference(schedule: &Schedule, instance: &Instance) -> bool {
    schedule.machine_groups().iter().all(|group| {
        let ivs: Vec<Interval> = group.iter().map(|&j| instance.job(j)).collect();
        max_overlap(&ivs) <= instance.capacity()
    })
}

/// Random jobs, each paired with a nested, touching, duplicate or far-away disjoint
/// partner — the cases a one-pass union length can get wrong.
fn span_edge_strategy() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec((0u8..4, -40i64..40, 1i64..12), 0..30),
        1usize..4,
    )
        .prop_map(|(pieces, g)| {
            let mut jobs = Vec::new();
            for (shape, s, l) in pieces {
                jobs.push((s, s + l));
                jobs.push(match shape {
                    0 => (s + l / 2, s + l / 2 + 1),
                    1 => (s + l, s + 2 * l),
                    2 => (s, s + l),
                    _ => (s + 1_000, s + 1_000 + l),
                });
            }
            Instance::try_from_ticks(&jobs, g).expect("generated jobs are non-empty")
        })
}

proptest! {
    /// `Instance::span`, computed in the construction pass, is the union length of
    /// the jobs on nested, touching, duplicate and disjoint jobs.
    #[test]
    fn instance_span_matches_union_length(instance in span_edge_strategy()) {
        prop_assert_eq!(instance.span(), span(instance.jobs()));
    }

    /// The same on every workload family's generator.
    #[test]
    fn instance_span_matches_union_length_on_every_family(
        seed in 0u64..10_000,
        n in 0usize..300,
        family in 0usize..7,
    ) {
        let rng = &mut seeded_rng(seed);
        let g = 4;
        let instance = match family {
            0 => clique_instance(rng, n, g, 1_000),
            1 => one_sided_instance(rng, n, g, 1_000),
            2 => proper_clique_instance(rng, n, g, 2 * n.max(1) as i64),
            3 => proper_instance(rng, n, g, 40, 8),
            4 => general_instance(rng, n, g, 5 * n.max(1) as i64, 60),
            5 => cloud_trace(rng, n, g, 5, 1, 500),
            _ => optical_lightpaths(rng, n, g, 64),
        };
        prop_assert_eq!(instance.span(), span(instance.jobs()));
    }

    /// The incremental cost a `MachinePool` tracks while a schedule is built beside
    /// it equals `Schedule::cost`, which in turn equals the old group-and-re-union
    /// computation.
    #[test]
    fn builder_cost_equals_schedule_cost(instance in instance_strategy()) {
        let mut pool = MachinePool::new(instance.capacity());
        let mut schedule = Schedule::empty(instance.len());
        for job in 0..instance.len() {
            let iv = instance.job(job);
            let p = pool.best_fit_slot(iv);
            pool.insert(iv, p.machine, p.thread);
            schedule.assign(job, p.machine);
        }
        let tracked = pool.cost();
        prop_assert_eq!(tracked, schedule.cost(&instance));
        prop_assert_eq!(tracked, cost_reference(&schedule, &instance));
    }

    /// Kernel-backed FirstFit produces the identical schedule to the full-scan
    /// reference, in both the length order and the raw id order.
    #[test]
    fn first_fit_matches_scan_reference(instance in instance_strategy()) {
        let id_order: Vec<usize> = (0..instance.len()).collect();
        prop_assert_eq!(
            first_fit_in_order_kernel(&instance, &id_order),
            first_fit_in_order_scan(&instance, &id_order)
        );
        let mut by_len = id_order.clone();
        by_len.sort_by_key(|&j| (std::cmp::Reverse(instance.job(j).len()), j));
        prop_assert_eq!(
            first_fit_in_order_kernel(&instance, &by_len),
            first_fit_in_order_scan(&instance, &by_len)
        );
    }

    /// Kernel-backed best-fit greedy produces the identical schedule, throughput and
    /// cost to the full-scan reference under every budget regime.
    #[test]
    fn greedy_fallback_matches_scan_reference(
        instance in instance_strategy(),
        budget in 0i64..400,
    ) {
        let budget = Duration::new(budget);
        let fast = greedy_fallback(&instance, budget);
        let slow = greedy_fallback_scan(&instance, budget);
        prop_assert_eq!(&fast.schedule, &slow.schedule);
        prop_assert_eq!(fast.throughput, slow.throughput);
        prop_assert_eq!(fast.cost, slow.cost);
        prop_assert!(fast.cost <= budget);
    }

    /// 2-D FirstFit builds a complete, capacity-respecting schedule in both the
    /// canonical `len₂` order and arrival order.
    #[test]
    fn first_fit_2d_in_order_is_valid_in_both_orders(
        rects in prop::collection::vec((-30i64..30, 1i64..20, -30i64..30, 1i64..20), 0..30),
        g in 1usize..4,
    ) {
        let jobs: Vec<Rect> = rects
            .into_iter()
            .map(|(s1, l1, s2, l2)| Rect::from_ticks(s1, s1 + l1, s2, s2 + l2))
            .collect();
        let instance = Instance2d::new(jobs, g).expect("g >= 1");
        let arrival: Vec<usize> = (0..instance.len()).collect();
        let mut by_len2 = arrival.clone();
        by_len2.sort_by_key(|&j| (std::cmp::Reverse(instance.job(j).len_k(2)), j));
        for order in [&by_len2, &arrival] {
            first_fit_2d_in_order(&instance, order)
                .validate_complete(&instance)
                .unwrap();
        }
    }

    /// The sweep-backed validator agrees with the old per-group `max_overlap` check on
    /// arbitrary (also invalid) assignments.
    #[test]
    fn validate_matches_reference(
        instance in instance_strategy(),
        machines in prop::collection::vec(0usize..6, 0..40),
    ) {
        let assignment: Vec<Option<usize>> = (0..instance.len())
            .map(|j| machines.get(j).copied())
            .collect();
        let schedule = Schedule::from_assignment(assignment);
        if schedule.len() == instance.len() {
            prop_assert_eq!(
                schedule.validate(&instance).is_ok(),
                is_valid_reference(&schedule, &instance)
            );
            prop_assert_eq!(
                schedule.cost(&instance),
                cost_reference(&schedule, &instance)
            );
            prop_assert_eq!(
                schedule.busy_times(&instance).into_iter().sum::<Duration>(),
                schedule.cost(&instance)
            );
        } else {
            prop_assert!(schedule.validate(&instance).is_err());
        }
    }
}

/// One instance per offline family at `n` jobs, with the `offline_batch` benchmark's
/// generator parameters: general (g = 4), cloud (g = 8), optical (g = 4) and dense
/// proper (g = 4).
fn family_instances(n: usize) -> [(&'static str, Instance); 4] {
    let rng = || seeded_rng(n as u64);
    [
        (
            "general",
            general_instance(&mut rng(), n, 4, 5 * n as i64, 60),
        ),
        ("cloud", cloud_trace(&mut rng(), n, 8, 5, 1, 500)),
        ("optical", optical_lightpaths(&mut rng(), n, 4, 64)),
        ("proper dense", proper_instance(&mut rng(), n, 4, 40, 8)),
    ]
}

/// At thousands of jobs a machine's coverage profile and its busiest threads hold
/// many chunks of the sweep storage, so every placement here splits, walks across
/// and searches between chunks — which the small random instances above never do.
#[test]
fn first_fit_kernel_matches_scan_across_chunks() {
    for (family, instance) in family_instances(40 * CHUNK_LEN) {
        let arrival: Vec<usize> = (0..instance.len()).collect();
        let by_length: Vec<usize> = instance
            .order_by_length_desc()
            .iter()
            .map(|&j| j as usize)
            .collect();
        for (name, order) in [("arrival", &arrival), ("length", &by_length)] {
            assert_eq!(
                first_fit_in_order_kernel(&instance, order),
                first_fit_in_order_scan(&instance, order),
                "{family}, {name} order"
            );
        }
    }
}

/// The best-fit greedy on the same families, at a size its quadratic scan reference
/// still runs quickly, with a budget that admits every job so that every machine
/// holds all it can: the busiest profiles cross chunks here too.
#[test]
fn greedy_fallback_matches_scan_across_chunks() {
    for (family, instance) in family_instances(12 * CHUNK_LEN) {
        let budget = instance.total_len();
        let fast = greedy_fallback(&instance, budget);
        let slow = greedy_fallback_scan(&instance, budget);
        assert_eq!(fast.schedule, slow.schedule, "{family}");
        assert_eq!((fast.throughput, fast.cost), (slow.throughput, slow.cost));
    }
}
