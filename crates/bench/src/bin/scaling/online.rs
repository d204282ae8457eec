//! The `online` section: the event engine's throughput.  A mixed
//! arrival/departure trace per size (2 events per job — the full grid tops out at
//! a 100k-event trace) is replayed under every policy, and an arrivals-only
//! replay is priced against the offline FirstFit on the same job set (the
//! online-vs-offline cost ratio).

use busytime::minbusy::first_fit;
use busytime::online::{OnlinePolicy, OnlineScheduler, Trace};
use busytime_workload::{poisson_trace, proper_instance, seeded_rng, trace_from_instance};
use serde::Serialize;

use crate::harness::{sizes, time_trials, trials_for, CAPACITY, HEAVY_TAIL};

/// One measured online-engine configuration.
#[derive(Debug, Serialize)]
pub struct Row {
    bench: String,
    policy: String,
    jobs: usize,
    events: usize,
    capacity: usize,
    secs: f64,
    /// Event throughput — the headline number for the incremental engine.
    events_per_sec: f64,
    peak_cost: i64,
    final_cost: i64,
    /// Arrivals-only rows: the offline FirstFit cost on the same job set…
    offline_cost: Option<i64>,
    /// …and online cost over it (the price of placing in arrival order with no
    /// lookahead).
    cost_ratio: Option<f64>,
}

/// Time `trace` under `policy` and record the replay, priced against
/// `offline_cost` when given.
fn replay(
    bench: &str,
    policy: OnlinePolicy,
    jobs: usize,
    trace: &Trace,
    offline_cost: Option<i64>,
) -> Row {
    let replay = || OnlineScheduler::run(trace, policy).expect("generated traces are well-formed");
    let secs = time_trials(trials_for(jobs), replay);
    let run = replay();
    Row {
        bench: bench.to_string(),
        policy: policy.name().to_string(),
        jobs,
        events: trace.len(),
        capacity: CAPACITY,
        secs,
        events_per_sec: trace.len() as f64 / secs,
        peak_cost: run.peak_cost().ticks(),
        final_cost: run.final_cost().ticks(),
        offline_cost,
        cost_ratio: offline_cost
            .map(|offline| run.final_cost().ticks() as f64 / offline.max(1) as f64),
    }
}

pub fn measure(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes(quick) {
        let trace = poisson_trace(&mut seeded_rng(2012), n, CAPACITY, 3.0, &HEAVY_TAIL);
        for &policy in OnlinePolicy::all() {
            rows.push(replay(
                "online_mixed/poisson_heavy_tail",
                policy,
                n,
                &trace,
                None,
            ));
        }
        // Arrivals-only: the same dense proper shape the `rows` section measures,
        // placed online in arrival order vs offline FirstFit in its canonical
        // length order.
        let instance = proper_instance(&mut seeded_rng(2012), n, CAPACITY, 40, 8);
        let offline = first_fit(&instance).cost(&instance).ticks();
        rows.push(replay(
            "online_arrivals/proper_dense",
            OnlinePolicy::FirstFit,
            n,
            &trace_from_instance(&instance),
            Some(offline),
        ));
    }
    rows
}

/// Every row records a finite event throughput above 0.
pub fn check(rows: &[Row], _quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if !(r.events_per_sec.is_finite() && r.events_per_sec > 0.0) {
            failures.push(format!(
                "{} {} n={}: nonsensical event throughput {}",
                r.bench, r.policy, r.jobs, r.events_per_sec
            ));
        }
    }
    failures
}
