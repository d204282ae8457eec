//! Property tests for the unified `Solver` facade.
//!
//! Two contracts are pinned down on random workloads from `busytime-workload`:
//!
//! 1. **The first applicable candidate wins** — under the default policy,
//!    `Solver::solve` skips exactly the candidates whose class the instance lacks, stops
//!    at the first one it has, and answers as forcing that algorithm would;
//! 2. **`require_exact` ≡ ground truth** — whenever the exact-only policy returns a
//!    solution on a small instance, its objective equals the `busytime-exact` subset-DP
//!    optimum (and the solution advertises exactness).
//!
//! Forcing the exponential exact backends is pinned case by case at the end, and so is
//! `Solver::plan`'s promise to name the algorithm `solve` reports.

use std::collections::HashSet;

use busytime::{
    Algorithm, AttemptOutcome, Duration, Error, ExactBudget, Instance, Problem, ProblemKind,
    SkipReason, SolveError, Solver, SolverBuilder,
};
use busytime_exact::{exact_maxthroughput_value, exact_minbusy_cost};
use busytime_workload::{
    clique_instance, cloud_trace, general_instance, one_sided_instance, optical_lightpaths,
    proper_clique_instance, proper_instance, seeded_rng,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether `inst` lies in the class `algorithm` requires, read off the instance's own
/// classification.
fn in_class(inst: &Instance, algorithm: Algorithm) -> bool {
    let class = inst.classification();
    match algorithm.required_class() {
        "one-sided clique" => class.clique && class.one_sided,
        "proper clique" => class.clique && class.proper,
        "clique with g = 2" => class.clique && inst.capacity() == 2,
        "clique" => class.clique,
        "proper" => class.proper,
        "any" => true,
        other => panic!("unknown class {other}"),
    }
}

/// A random instance drawn from one of the five 1-D workload families.
fn random_instance(seed: u64, family: usize, n: usize, g: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 5 {
        0 => one_sided_instance(&mut rng, n, g, 40),
        1 => proper_clique_instance(&mut rng, n, g, 60),
        2 => clique_instance(&mut rng, n, g, 40),
        3 => proper_instance(&mut rng, n, g, 20, 5),
        _ => general_instance(&mut rng, n, g, 60, 15),
    }
}

/// Default-policy dispatch of `problem`: each candidate ahead of the selection is
/// skipped for a class the instance really lacks, the trace ends with the selection,
/// and the answer equals forcing it.
fn check_first_applicable_candidate(problem: &Problem) -> Result<(), TestCaseError> {
    let inst = problem.instance();
    let solution = Solver::new().solve(problem).unwrap();
    let (selected, skipped) = solution.trace.split_last().unwrap();
    prop_assert_eq!(selected.algorithm, solution.algorithm);
    prop_assert_eq!(&selected.outcome, &AttemptOutcome::Selected);
    prop_assert!(in_class(inst, solution.algorithm));
    let candidates = Algorithm::candidates(problem.kind());
    for (attempt, &candidate) in skipped.iter().zip(candidates) {
        prop_assert_eq!(attempt.algorithm, candidate);
        prop_assert_eq!(
            &attempt.outcome,
            &AttemptOutcome::Skipped(SkipReason::ClassMismatch {
                required: candidate.required_class()
            })
        );
        prop_assert!(!in_class(inst, candidate), "{} skipped in class", candidate);
    }
    let forced = Solver::builder()
        .force_algorithm(solution.algorithm)
        .build()
        .solve(problem)
        .unwrap();
    prop_assert_eq!(&forced.schedule, &solution.schedule);
    prop_assert_eq!(forced.objective, solution.objective);
    match problem.budget() {
        None => solution.schedule.validate_complete(inst).unwrap(),
        Some(budget) => solution.schedule.validate_budgeted(inst, budget).unwrap(),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The facade's automatic MinBusy dispatch selects the first applicable candidate.
    #[test]
    fn facade_matches_minbusy_solve_auto(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..14,
        g in 1usize..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        check_first_applicable_candidate(&Problem::min_busy(inst))?;
    }

    /// The facade's automatic MaxThroughput dispatch selects the first applicable
    /// candidate.
    #[test]
    fn facade_matches_maxthroughput_solve_auto(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..12,
        g in 1usize..5,
        frac in 1i64..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        let budget = Duration::new(inst.total_len().ticks() / frac);
        check_first_applicable_candidate(&Problem::max_throughput(inst, budget))?;
    }

    /// Exact-only MinBusy solutions match the `busytime-exact` subset-DP optimum.
    #[test]
    fn require_exact_matches_exact_solver(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..12,
        g in 1usize..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        let solver = Solver::builder().require_exact(true).build();
        match solver.solve(&Problem::min_busy(inst.clone())) {
            Ok(solution) => {
                prop_assert!(solution.is_exact());
                prop_assert_eq!(solution.guarantee, Some(1.0));
                prop_assert_eq!(solution.objective.cost(), exact_minbusy_cost(&inst));
                solution.schedule.validate_complete(&inst).unwrap();
            }
            Err(e) => {
                // Refusal is only legitimate when no exact algorithm applies.
                prop_assert!(
                    !(inst.is_one_sided()
                        || inst.is_proper_clique()
                        || (inst.is_clique() && inst.capacity() == 2)),
                    "exact-only refused an exactly solvable instance: {}", e
                );
            }
        }
    }

    /// Exact-only MaxThroughput solutions match the exact optimum for every budget.
    #[test]
    fn require_exact_throughput_matches_exact_solver(
        seed in 0u64..10_000,
        family in 0usize..5,
        n in 1usize..11,
        g in 1usize..4,
        frac in 1i64..5,
    ) {
        let inst = random_instance(seed, family, n, g);
        let budget = Duration::new(inst.total_len().ticks() / frac);
        let solver = Solver::builder().require_exact(true).build();
        if let Ok(solution) = solver.solve(&Problem::max_throughput(inst.clone(), budget)) {
            prop_assert!(solution.is_exact());
            prop_assert_eq!(
                solution.objective.scheduled(),
                Some(exact_maxthroughput_value(&inst, budget))
            );
            solution.schedule.validate_budgeted(&inst, budget).unwrap();
        }
    }

    /// Batch solving is pointwise identical to sequential solving.
    #[test]
    fn batch_is_pointwise_sequential(
        seed in 0u64..10_000,
        n in 1usize..10,
        g in 1usize..4,
    ) {
        let problems: Vec<Problem> = (0..6)
            .map(|family| {
                let inst = random_instance(seed ^ family as u64, family, n, g);
                if family % 2 == 0 {
                    Problem::min_busy(inst)
                } else {
                    let budget = Duration::new(inst.total_len().ticks() / 2);
                    Problem::max_throughput(inst, budget)
                }
            })
            .collect();
        let solver = Solver::new();
        let batch = solver.solve_batch(&problems);
        prop_assert_eq!(batch.len(), problems.len());
        for (problem, result) in problems.iter().zip(batch) {
            let batched = result.unwrap();
            let sequential = solver.solve(problem).unwrap();
            prop_assert_eq!(batched.algorithm, sequential.algorithm);
            prop_assert_eq!(batched.objective, sequential.objective);
            prop_assert_eq!(batched.trace, sequential.trace);
        }
    }
}

/// Forcing an exponential exact backend runs exactly that backend through the
/// installed oracle, and every way it can refuse is a typed error.
#[test]
fn forced_exact_backends_through_the_facade() {
    let dp = Solver::builder()
        .force_algorithm(Algorithm::ExactSubsetDp)
        .exact_oracle(busytime_exact::oracle())
        .build();
    let small = general_instance(&mut seeded_rng(7), 12, 3, 60, 15);

    // No oracle installed: nothing can run the backend.
    let bare = Solver::builder()
        .force_algorithm(Algorithm::ExactSubsetDp)
        .build();
    assert_eq!(
        bare.solve_min_busy(&small).unwrap_err(),
        SolveError::NoExactOracle {
            algorithm: Algorithm::ExactSubsetDp
        }
    );

    // The DP proves optimality without a search tree.
    let solved = dp.solve_min_busy(&small).unwrap();
    assert_eq!(solved.algorithm, Algorithm::ExactSubsetDp);
    assert_eq!(solved.nodes, 0);
    assert_eq!(solved.objective.cost(), exact_minbusy_cost(&small));
    solved.schedule.validate_complete(&small).unwrap();

    // Forcing bypasses the routing, so the DP above its ceiling is the oracle's
    // typed refusal.
    let large = general_instance(&mut seeded_rng(7), 23, 3, 60, 15);
    assert_eq!(
        dp.solve_min_busy(&large).unwrap_err(),
        SolveError::ForcedFailed {
            algorithm: Algorithm::ExactSubsetDp,
            error: Error::TooManyJobs {
                jobs: 23,
                limit: 22
            },
        }
    );

    // A one-node budget cannot close this search; the bracket is still sound.
    let bnb = Solver::builder()
        .force_algorithm(Algorithm::ExactBnB)
        .exact_oracle(busytime_exact::oracle())
        .exact_budget(ExactBudget {
            max_nodes: 1,
            max_millis: None,
        })
        .build();
    let bracketed = proper_instance(&mut seeded_rng(1), 30, 4, 40, 8);
    match bnb.solve_min_busy(&bracketed).unwrap_err() {
        SolveError::BudgetExhausted {
            algorithm,
            lower,
            upper,
            nodes,
        } => {
            assert_eq!(algorithm, Algorithm::ExactBnB);
            assert!(lower <= upper);
            assert_eq!((lower.ticks(), upper.ticks(), nodes), (1320, 1354, 1));
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }

    // The exact backends solve MinBusy only.
    let budgeted = Problem::max_throughput(small, Duration::new(30));
    assert!(matches!(
        dp.solve(&budgeted).unwrap_err(),
        SolveError::ForcedWrongProblem {
            algorithm: Algorithm::ExactSubsetDp,
            kind: ProblemKind::MaxThroughput,
        }
    ));
}

/// `Solver::plan` names the algorithm `solve` reports, without running one, on every
/// workload family and problem kind: under the default policy, under every forced
/// algorithm, and exact-only with the oracle installed.  A solve that fails names
/// the planned algorithm in its error, or fails before any algorithm runs and was
/// planned as `None`.
#[test]
fn plan_names_the_algorithm_solve_reports() {
    let rng = &mut seeded_rng(26);
    let mut instances = Vec::new();
    // The 60-job clique at g = 5 has a set-cover family over the limit, so dispatch
    // steps past the set cover to FirstFit, and the plan must too.
    for (n, g) in [(12, 2), (30, 3), (60, 5)] {
        instances.extend([
            clique_instance(rng, n, g, 40),
            one_sided_instance(rng, n, g, 40),
            proper_clique_instance(rng, n, g, 2 * n as i64),
            proper_instance(rng, n, g, 20, 5),
            general_instance(rng, n, g, 5 * n as i64, 15),
            cloud_trace(rng, n, g, 5, 1, 500),
            optical_lightpaths(rng, n, g, 64),
        ]);
    }
    // A small search budget keeps the branch-and-bound runs short.
    let exact = |builder: SolverBuilder| {
        builder
            .exact_oracle(busytime_exact::oracle())
            .exact_budget(ExactBudget {
                max_nodes: 2_000,
                max_millis: None,
            })
            .build()
    };
    let mut solvers = vec![Solver::new(), exact(Solver::builder().require_exact(true))];
    solvers.extend(Algorithm::all().map(|a| exact(Solver::builder().force_algorithm(a))));
    let mut reported = HashSet::new();
    for inst in &instances {
        let budget = Duration::new(inst.total_len().ticks() / 2);
        let profits: Vec<i64> = (0..inst.len() as i64).map(|j| 1 + j % 3).collect();
        let problems = [
            Problem::min_busy(inst.clone()),
            Problem::max_throughput(inst.clone(), budget),
            Problem::weighted_throughput(inst.clone(), budget, profits),
            Problem::weighted_throughput(inst.clone(), budget, vec![1]),
        ];
        for solver in &solvers {
            for problem in &problems {
                let plan = solver.plan(problem);
                let context = format!(
                    "{:?} on {} jobs, g = {}",
                    solver.policy(),
                    inst.len(),
                    inst.capacity()
                );
                match solver.solve(problem) {
                    Ok(solution) => {
                        assert_eq!(plan, Some(solution.algorithm), "{context}");
                        reported.insert(solution.algorithm);
                    }
                    Err(SolveError::Exhausted { .. } | SolveError::InvalidProfits { .. }) => {
                        assert_eq!(plan, None, "{context}");
                    }
                    Err(
                        SolveError::ForcedWrongProblem { algorithm, .. }
                        | SolveError::ForcedInexact { algorithm }
                        | SolveError::ForcedFailed { algorithm, .. }
                        | SolveError::NoExactOracle { algorithm }
                        | SolveError::BudgetExhausted { algorithm, .. },
                    ) => assert_eq!(plan, Some(algorithm), "{context}"),
                }
            }
        }
    }
    assert_eq!(reported.len(), Algorithm::all().count(), "{reported:?}");
}
