//! Cross-crate property tests: every algorithm of the library, run on random instances of
//! its own class (generated by `busytime-workload`), must produce valid schedules whose
//! cost respects both the exact optimum (`busytime-exact`) and the guarantee claimed by
//! the paper.

use busytime::bounds::{length_bound, lower_bound};
use busytime::maxthroughput::{
    clique_max_throughput, most_throughput_consecutive, most_throughput_consecutive_fast,
    one_sided_max_throughput,
};
use busytime::minbusy::{
    best_cut, best_cut_guarantee, clique_matching, clique_set_cover, find_best_consecutive,
    first_fit, greedy_pack, one_sided_optimal, set_cover_guarantee,
};
use busytime::{Duration, Instance, Problem, Schedule, Solver};
use busytime_exact::{exact_maxthroughput_value, exact_minbusy_cost};
use busytime_workload::{
    clique_instance, general_instance, one_sided_instance, proper_clique_instance, proper_instance,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Budgets spanning the interesting range for a given instance.
fn budget_grid(instance: &Instance) -> Vec<Duration> {
    let len = instance.total_len().ticks();
    vec![
        Duration::ZERO,
        Duration::new(len / 4),
        Duration::new(len / 2),
        Duration::new(len),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 3.1: matching equals the exact optimum on clique instances with g = 2.
    #[test]
    fn clique_matching_is_optimal(seed in 0u64..10_000, n in 2usize..11) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = clique_instance(&mut rng, n, 2, 40);
        let schedule = clique_matching(&inst).unwrap();
        schedule.validate_complete(&inst).unwrap();
        prop_assert_eq!(schedule.cost(&inst), exact_minbusy_cost(&inst));
    }

    /// Lemma 3.2: the set-cover schedule respects the g·H_g/(H_g+g−1) bound.
    #[test]
    fn clique_set_cover_within_guarantee(seed in 0u64..10_000, n in 2usize..10, g in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = clique_instance(&mut rng, n, g, 40);
        let schedule = clique_set_cover(&inst).unwrap();
        schedule.validate_complete(&inst).unwrap();
        let opt = exact_minbusy_cost(&inst).as_f64();
        prop_assert!(schedule.cost(&inst).as_f64() <= set_cover_guarantee(g) * opt + 1e-6);
    }

    /// Theorem 3.1: BestCut respects the (2 − 1/g) bound on proper instances and never
    /// loses to the trivial packing baseline's guarantee.
    #[test]
    fn best_cut_within_guarantee(seed in 0u64..10_000, n in 2usize..13, g in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = proper_instance(&mut rng, n, g, 20, 5);
        let schedule = best_cut(&inst).unwrap();
        schedule.validate_complete(&inst).unwrap();
        let opt = exact_minbusy_cost(&inst).as_f64();
        prop_assert!(schedule.cost(&inst).as_f64() <= best_cut_guarantee(g) * opt + 1e-6);
    }

    /// Theorem 3.2 / Observation 3.1: the exact special-case algorithms match the subset-DP
    /// optimum.
    #[test]
    fn exact_special_cases_match_subset_dp(seed in 0u64..10_000, n in 1usize..12, g in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pc = proper_clique_instance(&mut rng, n, g, 64);
        let dp = find_best_consecutive(&pc).unwrap();
        dp.validate_complete(&pc).unwrap();
        prop_assert_eq!(dp.cost(&pc), exact_minbusy_cost(&pc));

        let os = one_sided_instance(&mut rng, n, g, 30);
        let obs = one_sided_optimal(&os).unwrap();
        obs.validate_complete(&os).unwrap();
        prop_assert_eq!(obs.cost(&os), exact_minbusy_cost(&os));
    }

    /// Proposition 2.1 and the FirstFit baseline: every schedule lands between the
    /// Observation 2.1 bounds, and any valid schedule is a g-approximation.
    #[test]
    fn generic_bounds_hold(seed in 0u64..10_000, n in 1usize..13, g in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = general_instance(&mut rng, n, g, 60, 15);
        let opt = exact_minbusy_cost(&inst);
        prop_assert!(opt >= lower_bound(&inst));
        prop_assert!(opt <= length_bound(&inst));
        let facade = Solver::new()
            .solve(&Problem::min_busy(inst.clone()))
            .expect("the default policy always solves MinBusy")
            .schedule;
        for schedule in [first_fit(&inst), greedy_pack(&inst), facade] {
            schedule.validate_complete(&inst).unwrap();
            let cost = schedule.cost(&inst);
            prop_assert!(cost >= opt);
            prop_assert!(cost.ticks() <= g as i64 * opt.ticks());
        }
    }

    /// Theorem 4.1: the clique MaxThroughput algorithm is within a factor 4 of optimal
    /// for every budget.
    #[test]
    fn clique_throughput_within_factor_four(seed in 0u64..10_000, n in 2usize..11, g in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = clique_instance(&mut rng, n, g, 30);
        for budget in budget_grid(&inst) {
            let r = clique_max_throughput(&inst, budget).unwrap();
            r.schedule.validate_budgeted(&inst, budget).unwrap();
            let opt = exact_maxthroughput_value(&inst, budget);
            prop_assert!(opt <= 4 * r.throughput,
                "opt {} vs alg {} under budget {}", opt, r.throughput, budget);
        }
    }

    /// Theorem 4.2 and Proposition 4.1: the budgeted DPs are optimal, and the two DP
    /// variants agree.
    #[test]
    fn budgeted_exact_algorithms_are_optimal(seed in 0u64..10_000, n in 1usize..11, g in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pc = proper_clique_instance(&mut rng, n, g, 64);
        for budget in budget_grid(&pc) {
            let fast = most_throughput_consecutive_fast(&pc, budget).unwrap();
            let slow = most_throughput_consecutive(&pc, budget).unwrap();
            fast.schedule.validate_budgeted(&pc, budget).unwrap();
            slow.schedule.validate_budgeted(&pc, budget).unwrap();
            let opt = exact_maxthroughput_value(&pc, budget);
            prop_assert_eq!(fast.throughput, opt);
            prop_assert_eq!(slow.throughput, opt);
        }
        let os = one_sided_instance(&mut rng, n, g, 30);
        for budget in budget_grid(&os) {
            let r = one_sided_max_throughput(&os, budget).unwrap();
            r.schedule.validate_budgeted(&os, budget).unwrap();
            prop_assert_eq!(r.throughput, exact_maxthroughput_value(&os, budget));
        }
    }

    /// Theorem 4.2 past the oracle's reach: the fast DP and the paper-faithful DP agree
    /// on throughput, and both stay valid and within budget, at up to 40 jobs.  The
    /// paper DP's `(n+1)³·(g+1)` step table is what keeps n at 40.
    #[test]
    fn fast_dp_matches_paper_dp_at_larger_n(
        seed in 0u64..10_000,
        n in 1usize..41,
        g in 1usize..7,
        spread in 40i64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pc = proper_clique_instance(&mut rng, n, g, spread);
        let lb = lower_bound(&pc).ticks();
        let mut budgets = budget_grid(&pc);
        budgets.extend([lb / 4, lb / 2, lb].map(Duration::new));
        for budget in budgets {
            let fast = most_throughput_consecutive_fast(&pc, budget).unwrap();
            let slow = most_throughput_consecutive(&pc, budget).unwrap();
            fast.schedule.validate_budgeted(&pc, budget).unwrap();
            slow.schedule.validate_budgeted(&pc, budget).unwrap();
            prop_assert_eq!(fast.throughput, slow.throughput,
                "n {} g {} budget {}", n, g, budget);
        }
    }
}

/// FNV-1a over a schedule's assignment, one little-endian `u64` per job (0 for an
/// unscheduled job, machine + 1 otherwise).
fn assignment_fnv1a(schedule: &Schedule) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for machine in schedule.assignment() {
        for byte in machine.map_or(0, |m| m as u64 + 1).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The exact MaxThroughput solvers' schedules, pinned: `(family, seed, budget,
/// throughput, cost, FNV-1a of the assignment)` for `most_throughput_consecutive_fast`
/// on `proper_clique_instance(n = 1 000, g = 4, spread 2n)` (`"pc"`) and
/// `one_sided_max_throughput` on `one_sided_instance(n = 20 000, g = 4, max_len
/// 1 000)` (`"os"`).  The budgets are 0, ⌊LB/4⌋, ⌊LB/2⌋, LB and the length bound.
#[test]
fn exact_throughput_schedules_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [(&str, u64, i64, usize, i64, u64); 20] = [
        ("pc", 1, 0, 0, 0, 0x51e7_8e74_4621_f425),
        ("pc", 1, 123_688, 248, 122_118, 0x48e1_2089_f0ab_21e5),
        ("pc", 1, 247_377, 500, 246_893, 0x60c2_ab91_9b5e_e5e5),
        ("pc", 1, 494_754, 996, 494_217, 0x78f7_4939_bf0f_1165),
        ("pc", 1, 1_979_015, 1000, 498_245, 0x923a_d258_6189_52a2),
        ("pc", 2, 0, 0, 0, 0x51e7_8e74_4621_f425),
        ("pc", 2, 124_831, 248, 123_596, 0x2f9f_2ea1_7d77_51e5),
        ("pc", 2, 249_662, 500, 249_639, 0x0043_82d6_c9e8_97e5),
        ("pc", 2, 499_324, 996, 498_787, 0xc876_4a29_79c4_0a65),
        ("pc", 2, 1_997_294, 1000, 502_799, 0xc593_6b8f_ce66_f2d7),
        ("os", 1, 0, 0, 0, 0x5d22_1d50_7044_7725),
        ("os", 1, 623_436, 9993, 623_316, 0x2efa_7866_fbef_4871),
        ("os", 1, 1_246_873, 14144, 1_246_829, 0x3925_7bc2_6a93_db6d),
        ("os", 1, 2_493_747, 19998, 2_493_623, 0x0223_e321_16f8_7719),
        ("os", 1, 9_974_987, 20000, 2_494_125, 0x59a4_5b26_190c_1089),
        ("os", 2, 0, 0, 0, 0x5d22_1d50_7044_7725),
        ("os", 2, 625_272, 10007, 625_232, 0x9a36_189b_f59d_c324),
        ("os", 2, 1_250_544, 14145, 1_250_388, 0xf4a5_c903_de7c_b51f),
        ("os", 2, 2_501_088, 19998, 2_500_974, 0xf898_3d9e_e751_9bcd),
        ("os", 2, 10_004_349, 20000, 2_501_464, 0x98bb_f254_caa8_c5fd),
    ];
    for seed in 1..=2u64 {
        let pc = proper_clique_instance(&mut StdRng::seed_from_u64(seed), 1_000, 4, 2_000);
        let os = one_sided_instance(&mut StdRng::seed_from_u64(seed), 20_000, 4, 1_000);
        for (family, instance) in [("pc", &pc), ("os", &os)] {
            let lb = lower_bound(instance).ticks();
            let budgets = [0, lb / 4, lb / 2, lb, length_bound(instance).ticks()];
            let rows: Vec<_> = PINNED
                .iter()
                .filter(|row| row.0 == family && row.1 == seed)
                .collect();
            assert_eq!(
                rows.len(),
                budgets.len(),
                "{family} seed {seed}: missing rows"
            );
            for (budget, row) in budgets.into_iter().zip(rows) {
                assert_eq!(budget, row.2, "{family} seed {seed}: the budget grid moved");
                let r = if family == "pc" {
                    most_throughput_consecutive_fast(instance, Duration::new(budget))
                } else {
                    one_sided_max_throughput(instance, Duration::new(budget))
                }
                .unwrap();
                let got = (r.throughput, r.cost.ticks(), assignment_fnv1a(&r.schedule));
                assert_eq!(
                    got,
                    (row.3, row.4, row.5),
                    "{family} seed {seed} budget {budget}"
                );
            }
        }
    }
}
