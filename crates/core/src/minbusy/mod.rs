//! MinBusy: scheduling **all** jobs with minimum total busy time (Section 3 of the
//! paper).
//!
//! | function | instance class | guarantee | paper reference |
//! |---|---|---|---|
//! | [`one_sided_optimal`] | one-sided clique | optimal | Observation 3.1 |
//! | [`clique_matching`] | clique, `g = 2` | optimal | Lemma 3.1 |
//! | [`clique_set_cover`] | clique, fixed `g` | `g·H_g/(H_g+g−1)` | Lemma 3.2 |
//! | [`best_cut`] | proper | `2 − 1/g` | Theorem 3.1 |
//! | [`find_best_consecutive`] | proper clique | optimal | Theorem 3.2 |
//! | [`first_fit`] | any | `4` (from \[13\]) | baseline |
//! | [`greedy_pack`] / [`naive`] | any | `g` / `g` | Proposition 2.1 |
//!
//! Choosing among them is [`crate::Solver`]'s job: it classifies the instance once and
//! dispatches to the strongest applicable algorithm, recording every decision.

mod best_cut;
mod clique_matching;
mod clique_set_cover;
mod consecutive_dp;
mod first_fit;
mod naive;
mod one_sided;

pub use best_cut::{best_cut, best_cut_guarantee};
pub use clique_matching::clique_matching;
pub use clique_set_cover::{clique_set_cover, set_cover_guarantee, DEFAULT_SET_FAMILY_LIMIT};
pub use consecutive_dp::{consecutive_partition_dp, find_best_consecutive};
pub use first_fit::{
    first_fit, first_fit_in_order, first_fit_in_order_kernel, first_fit_in_order_scan,
};
pub use naive::{greedy_pack, naive};
pub use one_sided::{one_sided_optimal, one_sided_optimal_cost, schedule_by_length_groups};

#[cfg(test)]
mod tests {
    use crate::{Algorithm, Instance, ProblemKind, Solver};

    /// One instance per MinBusy class, in `Algorithm::candidates` order: one-sided
    /// clique, proper clique, clique with g = 2, clique with g = 3, proper, general.
    fn one_per_class() -> [Instance; 6] {
        [
            Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2),
            Instance::from_ticks(&[(0, 10), (2, 12), (4, 14)], 2),
            Instance::from_ticks(&[(0, 20), (5, 10), (6, 18)], 2),
            Instance::from_ticks(&[(0, 20), (5, 10), (6, 18), (7, 9)], 3),
            Instance::from_ticks(&[(0, 4), (3, 7), (6, 10), (9, 13)], 2),
            Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2),
        ]
    }

    #[test]
    fn auto_dispatch_prefers_exact_algorithms() {
        // Each class lands on its own candidate, so an exact algorithm wins over the
        // approximations that also apply (set cover and BestCut on a proper clique,
        // set cover on a g = 2 clique).
        let solver = Solver::new();
        let candidates = Algorithm::candidates(ProblemKind::MinBusy);
        for (inst, &expected) in one_per_class().iter().zip(candidates) {
            assert_eq!(solver.solve_min_busy(inst).unwrap().algorithm, expected);
        }
        let [_, proper_clique, clique_g2, ..] = one_per_class();
        assert!(proper_clique.is_clique() && proper_clique.is_proper());
        assert!(clique_g2.is_clique() && !clique_g2.is_proper());
    }

    #[test]
    fn auto_dispatch_schedules_are_valid_and_complete() {
        let solver = Solver::new();
        let empty = Instance::from_ticks(&[], 2);
        for inst in one_per_class().iter().chain([&empty]) {
            let solution = solver.solve_min_busy(inst).unwrap();
            solution.schedule.validate_complete(inst).unwrap();
            assert!(solution.guarantee.unwrap() >= 1.0);
        }
    }

    #[test]
    fn guarantees_are_consistent() {
        // A MinBusy guarantee is 1 exactly for the exact algorithms; Lemma 3.2 stays
        // below 2 for g ≤ 6, BestCut is 2 − 1/g and FirstFit 4.
        for &algorithm in Algorithm::candidates(ProblemKind::MinBusy) {
            let guarantee = algorithm.guarantee(3).unwrap();
            assert!(guarantee >= 1.0);
            assert_eq!(guarantee == 1.0, algorithm.is_exact(), "{algorithm}");
        }
        assert!(Algorithm::CliqueSetCover.guarantee(6).unwrap() < 2.0);
        assert_eq!(Algorithm::BestCut.guarantee(2), Some(1.5));
        assert_eq!(Algorithm::FirstFit.guarantee(10), Some(4.0));
    }
}
