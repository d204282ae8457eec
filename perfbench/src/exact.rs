//! `exact_bound`: `busytime_exact::bnb::branch_and_bound` over a fixed seeded
//! set under a fixed *node* budget, so what each search explores depends on
//! the seed alone, never on the clock.  The set mixes families that close
//! within the budget with families that end as `lower ≤ OPT ≤ upper`
//! brackets.

use std::time::Instant;

use busytime::{ExactBudget, ExactOutcome, Instance};
use busytime_exact::bnb::branch_and_bound;

use crate::offline::family_instance;
use crate::spans::Spans;
use crate::stats::{percentile, sort};
use crate::{mix_seed, E2e, Scale};

/// The `exact_bound` configuration.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// `(family, jobs, count)` groups of the set (capacity 4).
    pub set: Vec<(&'static str, usize, usize)>,
    /// Node budget per search.
    pub max_nodes: u64,
}

impl ExactConfig {
    /// The configuration at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => ExactConfig {
                set: vec![
                    ("proper-dense", 30, 480),
                    ("proper-dense", 36, 320),
                    ("general", 20, 160),
                ],
                max_nodes: 300,
            },
            Scale::Tiny => ExactConfig {
                set: vec![
                    ("proper-dense", 24, 2),
                    ("cloud", 24, 1),
                    ("general", 24, 1),
                ],
                max_nodes: 1_000,
            },
        }
    }

    /// The config as one JSON object (for provenance).
    pub fn json(&self) -> String {
        let set: Vec<String> = self
            .set
            .iter()
            .map(|(f, n, k)| format!("[\"{f}\",{n},{k}]"))
            .collect();
        format!(
            "{{\"set\":[{}],\"capacity\":4,\"max_nodes\":{}}}",
            set.join(","),
            self.max_nodes
        )
    }

    /// The node budget as the solver's budget type.
    pub fn budget(&self) -> ExactBudget {
        ExactBudget {
            max_nodes: self.max_nodes,
            max_millis: None,
        }
    }
}

/// The seeded set.  `proper-dense` is the scaling bench's hard family
/// (overlapping proper runs, lengths ≤ 40, gaps ≤ 8): at these sizes it
/// does not close within the budget, so each search explores exactly the
/// budget.  Nearly all `general` instances at n = 20 close, in a small
/// fraction of a bracket's time.
/// Many small searches rather than a few long ones keep the set's figures
/// steady from seed to seed: `p99_us` is then the tenth slowest of 960
/// searches, not the second slowest of a few hundred.  Larger `general`
/// instances are left out: a few of them per seed miss closing and then
/// cost twice the slowest bracket, so how many a seed drew would set the
/// tail.  (`cloud` at this scale closes or not depending on the seed and
/// prices nodes at a different rate, so it is left out too.)
pub fn instances(cfg: &ExactConfig, seed: u64) -> Vec<Instance> {
    let mut out = Vec::new();
    for (group, &(family, n, count)) in cfg.set.iter().enumerate() {
        for k in 0..count {
            let seed = mix_seed(seed, &[group as u64, k as u64]);
            out.push(match family {
                "proper-dense" => busytime_workload::proper_instance(
                    &mut busytime_workload::seeded_rng(seed),
                    n,
                    4,
                    40,
                    8,
                ),
                "cloud" => busytime_workload::cloud_trace(
                    &mut busytime_workload::seeded_rng(seed),
                    n,
                    4,
                    5,
                    1,
                    100,
                ),
                "general" => busytime_workload::general_instance(
                    &mut busytime_workload::seeded_rng(seed),
                    n,
                    4,
                    300,
                    30,
                ),
                other => family_instance(other, n, 4, seed),
            });
        }
    }
    out
}

/// `(lower, upper, nodes, closed)` of one outcome.
pub fn summary(outcome: &ExactOutcome) -> (i64, i64, u64, bool) {
    match outcome {
        ExactOutcome::Optimal { cost, nodes, .. } => (cost.ticks(), cost.ticks(), *nodes, true),
        ExactOutcome::Exhausted {
            lower,
            upper,
            nodes,
            ..
        } => (lower.ticks(), upper.ticks(), *nodes, false),
    }
}

/// Run `exact_bound`: whole passes over the set until the time is up (at
/// least two).  `exact_s` is the sum of the instances' best times, the
/// latencies are the instances' best times.
pub fn measure(
    cfg: &ExactConfig,
    seed: u64,
    seconds: f64,
    spans: Option<&Spans>,
) -> Result<E2e, String> {
    let set_up = || instances(cfg, seed);
    let (set, first_setup) = crate::set_up_on_each_cpu(set_up);
    let mut setup_s = vec![first_setup];
    let budget = cfg.budget();
    // Best time of every instance over the passes: host noise only ever adds
    // time, and a whole-run figure built from per-instance best times stays
    // put while the host's speed drifts.
    let mut best_us = vec![f64::INFINITY; set.len()];
    let mut pass_s = Vec::new();
    let mut outcomes = Vec::new();
    let started = Instant::now();
    let mut pass = 0u64;
    while pass < 2 || started.elapsed().as_secs_f64() < seconds {
        // Alternate passes between the first two CPUs the process may use:
        // on a shared host one CPU can run at half the other's speed for
        // minutes, and an instance's best time then comes from the faster.
        let this_pass = crate::on_cpu(pass as usize % 2, || {
            let t = Instant::now();
            let mut this_pass = Vec::with_capacity(set.len());
            let mut times = Vec::with_capacity(set.len());
            for (i, inst) in set.iter().enumerate() {
                let s = Instant::now();
                let outcome = branch_and_bound(inst, &budget);
                let end = Instant::now();
                if let Some(spans) = spans {
                    spans.record(
                        "exact.bnb",
                        s,
                        end,
                        0,
                        pass << 20 | i as u64,
                        summary(&outcome).2,
                    );
                }
                times.push(end.duration_since(s).as_secs_f64() * 1e6);
                this_pass.push(summary(&outcome));
            }
            (this_pass, times, t.elapsed().as_secs_f64())
        });
        let (this_pass, times, secs) = this_pass;
        for (best, time) in best_us.iter_mut().zip(times) {
            *best = best.min(time);
        }
        pass_s.push(secs);
        setup_s.push(crate::set_up_on_each_cpu(set_up).1);
        if outcomes.is_empty() {
            outcomes = this_pass;
        } else if outcomes != this_pass {
            return Err("a repeated pass explored differently under a node budget".into());
        }
        pass += 1;
    }

    while setup_s.len() < crate::MIN_SETUPS {
        setup_s.push(crate::set_up_on_each_cpu(set_up).1);
    }
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut gaps = 0.0;
    for (i, &(lower, upper, _, _)) in outcomes.iter().enumerate() {
        if lower > upper || lower <= 0 {
            failed += 1;
            problems.push(format!("instance {i}: bracket {lower}..{upper}"));
        } else {
            gaps += (upper - lower) as f64 / lower as f64;
        }
    }
    let exact_gap = gaps / outcomes.len() as f64;
    let exact_s = best_us.iter().sum::<f64>() / 1e6;
    let mut latency_us = best_us;
    sort(&mut latency_us);
    let closed = outcomes.iter().filter(|o| o.3).count();
    let nodes: u64 = outcomes.iter().map(|o| o.2).sum();
    Ok(E2e {
        setup_s: crate::stats::median(&mut setup_s),
        throughput_per_s: set.len() as f64 / exact_s,
        p50_us: percentile(&latency_us, 0.5),
        p99_us: percentile(&latency_us, 0.99),
        cost_ratio: 1.0 + exact_gap,
        attempted: set.len() as u64,
        failed,
        problems,
        notes: vec![
            ("exact_s".into(), exact_s, "s"),
            ("exact_gap".into(), exact_gap, "ratio"),
            ("exact.closed".into(), closed as f64, "count"),
            ("exact.nodes".into(), nodes as f64, "count"),
            ("passes".into(), pass as f64, "count"),
            (
                "pass_mean_s".into(),
                pass_s.iter().sum::<f64>() / pass_s.len() as f64,
                "s",
            ),
        ],
    })
}
