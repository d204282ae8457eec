//! `offline_batch`: `Solver::solve_batch` on the default pool (one worker per
//! available core) over rounds of MinBusy and budgeted MaxThroughput problems
//! from the seven 1-D families.
//!
//! A round is one `solve_batch` call.  Its size mix is fixed and heavy-tailed
//! (150 to 50 000 jobs per problem, both sides of the FirstFit `tuning`
//! cutover); the jobs are drawn from the seed.  A run generates a fixed number
//! of distinct rounds and cycles through them for the measured time, so the
//! quality figures are a function of the seed alone.

use std::time::Instant;

use busytime::{Duration, Instance, Problem, Solution, SolveError, Solver};
use busytime_workload::{
    clique_instance, cloud_trace, general_instance, one_sided_instance, optical_lightpaths,
    proper_clique_instance, proper_instance, seeded_rng,
};

use crate::spans::Spans;
use crate::stats::{percentile, sort};
use crate::{mix_seed, E2e, Scale};

/// The `offline_batch` configuration.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Distinct rounds generated per run.
    pub rounds: usize,
    /// `(family, jobs, capacity)` of every problem in a round; each appears
    /// once as MinBusy and once as MaxThroughput.
    pub mix: Vec<(&'static str, usize, usize)>,
    /// MaxThroughput budget as a share of the instance's Observation 2.1
    /// lower bound.
    pub budget_share: f64,
}

impl OfflineConfig {
    /// The configuration at `scale`.
    pub fn new(scale: Scale) -> Self {
        let full = [
            ("clique", 150, 2),
            ("one-sided", 20_000, 4),
            ("proper-clique", 1_000, 4),
            ("proper", 50_000, 4),
            ("general", 20_000, 4),
            ("general", 500, 4),
            ("cloud", 5_000, 8),
            ("cloud", 100, 8),
            ("optical", 2_000, 4),
        ];
        let mix = match scale {
            Scale::Full => full.to_vec(),
            Scale::Tiny => full
                .iter()
                .map(|&(f, n, g)| (f, (n / 50).max(20), g))
                .collect(),
        };
        OfflineConfig {
            rounds: if scale == Scale::Tiny { 2 } else { 8 },
            mix,
            budget_share: 0.5,
        }
    }

    /// The config as one JSON object (for provenance).
    pub fn json(&self) -> String {
        let mix: Vec<String> = self
            .mix
            .iter()
            .map(|(f, n, g)| format!("[\"{f}\",{n},{g}]"))
            .collect();
        format!(
            "{{\"rounds\":{},\"mix\":[{}],\"budget_share\":{},\"threads\":{}}}",
            self.rounds,
            mix.join(","),
            self.budget_share,
            busytime::par::default_threads()
        )
    }
}

/// One family instance of `n` jobs at capacity `g`.
pub fn family_instance(family: &str, n: usize, g: usize, seed: u64) -> Instance {
    let rng = &mut seeded_rng(seed);
    match family {
        "clique" => clique_instance(rng, n, g, 1_000),
        "one-sided" => one_sided_instance(rng, n, g, 1_000),
        "proper-clique" => proper_clique_instance(rng, n, g, 2 * n as i64),
        "proper" => proper_instance(rng, n, g, 40, 8),
        "general" => general_instance(rng, n, g, 5 * n as i64, 60),
        "cloud" => cloud_trace(rng, n, g, 5, 1, 500),
        "optical" => optical_lightpaths(rng, n, g, 64),
        other => panic!("unknown family {other}"),
    }
}

/// Round `r`'s problems: every mix entry as MinBusy, then as MaxThroughput.
pub fn round(cfg: &OfflineConfig, seed: u64, r: usize) -> Vec<Problem> {
    let instances: Vec<Instance> = cfg
        .mix
        .iter()
        .enumerate()
        .map(|(i, &(family, n, g))| {
            family_instance(family, n, g, mix_seed(seed, &[r as u64, i as u64]))
        })
        .collect();
    let mut problems: Vec<Problem> = instances.iter().cloned().map(Problem::min_busy).collect();
    problems.extend(instances.into_iter().map(|inst| {
        let budget = (inst.lower_bound().ticks() as f64 * cfg.budget_share) as i64;
        Problem::max_throughput(inst, Duration::new(budget))
    }));
    problems
}

/// Why `solution` fails its checks for `problem`, if it does.
pub fn check(problem: &Problem, solution: &Result<Solution, SolveError>) -> Option<String> {
    let solution = match solution {
        Ok(s) => s,
        Err(e) => return Some(format!("solve failed: {e}")),
    };
    let instance = problem.instance();
    let valid = match problem.budget() {
        None => solution.schedule.validate_complete(instance),
        Some(budget) => solution.schedule.validate_budgeted(instance, budget),
    };
    if let Err(e) = valid {
        return Some(format!("{}: invalid schedule: {e}", solution.algorithm));
    }
    if problem.budget().is_none() && solution.objective.cost() < instance.lower_bound() {
        return Some(format!(
            "{}: busy time {} below the lower bound {}",
            solution.algorithm,
            solution.objective.cost().ticks(),
            instance.lower_bound().ticks()
        ));
    }
    None
}

/// Run `offline_batch`.
pub fn measure(
    cfg: &OfflineConfig,
    seed: u64,
    seconds: f64,
    spans: Option<&Spans>,
) -> Result<E2e, String> {
    let set_up = || {
        (0..cfg.rounds)
            .map(|r| round(cfg, seed, r))
            .collect::<Vec<_>>()
    };
    let (rounds, first_setup) = crate::set_up_on_each_cpu(set_up);
    let mut setup_s = vec![first_setup];
    let solver = Solver::new();
    let mut first: Vec<Option<Vec<Result<Solution, SolveError>>>> = vec![None; rounds.len()];
    // One untimed round first, so lazy set-up and cold caches stay out of
    // the timings.
    first[0] = Some(solver.solve_batch(&rounds[0]));
    // Best time of every distinct round over its repetitions: host noise only
    // ever adds time, so whole-run figures built from the best times stay put
    // while the host's speed drifts.
    let mut best_us = vec![f64::INFINITY; rounds.len()];
    let mut timed = 0u64;
    let started = Instant::now();
    let mut r = 1usize;
    while started.elapsed().as_secs_f64() < seconds || best_us.iter().any(|b| b.is_infinite()) {
        let i = r % rounds.len();
        if i == 0 {
            setup_s.push(crate::set_up_on_each_cpu(set_up).1);
        }
        let t = Instant::now();
        let results = match spans {
            None => solver.solve_batch(&rounds[i]),
            Some(spans) => traced_batch(&solver, &rounds[i], spans, r as u64),
        };
        best_us[i] = best_us[i].min(t.elapsed().as_secs_f64() * 1e6);
        timed += 1;
        if first[i].is_none() {
            first[i] = Some(results);
        }
        r += 1;
    }
    let jobs: u64 = rounds
        .iter()
        .flatten()
        .map(|p| p.instance().len() as u64)
        .sum();
    let jobs_per_s = jobs as f64 / (best_us.iter().sum::<f64>() / 1e6);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let (mut cost, mut lb, mut scheduled, mut offered) = (0i64, 0i64, 0u64, 0u64);
    let mut ratios = Vec::new();
    for (round, results) in rounds.iter().zip(&first) {
        let results = results.as_ref().expect("every round was solved");
        for (problem, result) in round.iter().zip(results) {
            attempted += 1;
            if let Some(problem) = check(problem, result) {
                failed += 1;
                problems.push(problem);
                continue;
            }
            let solution = result.as_ref().expect("checked above");
            match problem.budget() {
                None => {
                    let busy = solution.objective.cost().ticks();
                    let bound = problem.instance().lower_bound().ticks();
                    cost += busy;
                    lb += bound;
                    ratios.push(busy as f64 / bound.max(1) as f64);
                }
                Some(_) => {
                    scheduled += solution.objective.scheduled().unwrap_or(0) as u64;
                    offered += problem.instance().len() as u64;
                }
            }
        }
    }
    while setup_s.len() < crate::MIN_SETUPS {
        setup_s.push(crate::set_up_on_each_cpu(set_up).1);
    }
    let mut latency_us = best_us;
    sort(&mut latency_us);
    let minbusy_cost_ratio = cost as f64 / lb.max(1) as f64;
    // The mean of per-problem ratios weighs every family alike; the ratio of
    // sums would be set by the one-sided instances' huge load bound alone.
    let ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let share = scheduled as f64 / offered.max(1) as f64;
    Ok(E2e {
        setup_s: crate::stats::median(&mut setup_s),
        throughput_per_s: jobs_per_s,
        p50_us: percentile(&latency_us, 0.5),
        p99_us: percentile(&latency_us, 0.99),
        cost_ratio: ratio,
        attempted,
        failed,
        problems,
        notes: vec![
            ("jobs_per_s".into(), jobs_per_s, "1/s"),
            ("minbusy_cost_ratio".into(), minbusy_cost_ratio, "ratio"),
            ("maxtp_scheduled_share".into(), share, "ratio"),
            ("rounds_timed".into(), timed as f64, "count"),
        ],
    })
}

/// `solve_batch`'s own path — `Solver::solve` mapped over the default pool —
/// with a span around the round and one around every solve.
pub fn traced_batch(
    solver: &Solver,
    problems: &[Problem],
    spans: &Spans,
    request: u64,
) -> Vec<Result<Solution, SolveError>> {
    let parent = spans.id();
    let start = Instant::now();
    let results = busytime::par::ThreadPool::with_default_parallelism().map(problems, |p| {
        let t = Instant::now();
        let result = solver.solve(p);
        spans.record(
            "solver.solve",
            t,
            Instant::now(),
            parent,
            request,
            p.instance().len() as u64,
        );
        result
    });
    spans.record_with_id(
        parent,
        "offline.round",
        start,
        Instant::now(),
        0,
        request,
        problems.len() as u64,
    );
    results
}
