//! The `defrag` section: how much of the cost drift that online placement
//! accumulates under churn compacting to a fixpoint recovers (see [`Row`]).

use std::collections::BTreeSet;
use std::time::Instant;

use busytime::minbusy::first_fit;
use busytime::online::{OnlinePolicy, OnlineScheduler, Trace};
use busytime::{Instance, Interval, Schedule};
use busytime_workload::{diurnal_trace, poisson_trace, seeded_rng, DurationModel};
use serde::Serialize;

use crate::harness::{CAPACITY, HEAVY_TAIL};

/// Cut points, as percentages of the event stream.  All sit in the back half so
/// every prefix has absorbed plenty of departures (the drift compaction exists
/// to repair); several cuts per row because any single one can land right after
/// a burst packed the live set densely, leaving no improving move to find.
const CUTS: [usize; 5] = [50, 60, 70, 80, 90];

/// One defragmentation measurement: churny trace prefixes replayed online, the
/// drifted cost priced against the offline FirstFit on the surviving job set,
/// then `OnlineScheduler::compact` run to a fixpoint and the cost priced again.
/// The before/after ratio pair is the claim: the drift the online placements
/// accumulate under churn is mostly recoverable by budgeted strictly-improving
/// single-job migrations.
///
/// Each row aggregates the [`CUTS`] (a full replay drains every job, and any
/// *single* cut can land on a freshly-packed live set with nothing to recover);
/// the costs and ratios are sums over cuts.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Workload family ("poisson_heavy_tail", "poisson_uniform", "diurnal_bimodal").
    family: String,
    policy: String,
    jobs: usize,
    capacity: usize,
    /// Cut points measured (each one an independent replay of that prefix).
    cuts: usize,
    /// Jobs still live, summed over cuts.
    live_jobs: usize,
    /// Online cost at the cut points, summed, before any compaction…
    cost_before: i64,
    /// …and after compacting each cut to a fixpoint.
    cost_after: i64,
    /// Offline FirstFit (canonical length order) cost on the live job sets, summed.
    offline_cost: i64,
    /// online/offline before and after (over the summed costs) — `--check`
    /// requires the family's best shrinkage to be real.
    ratio_before: f64,
    ratio_after: f64,
    /// Migrations committed across every pass of every cut.
    moves: usize,
    /// Wall time of the compact-to-fixpoint loops, summed.
    compact_secs: f64,
    /// Every compacted schedule still validates against its live job set.
    valid: bool,
}

/// Compact `scheduler` to a fixpoint in passes of 64 moves; returns the moves.
pub fn compact_to_fixpoint(scheduler: &mut OnlineScheduler) -> usize {
    let mut moves = 0;
    loop {
        let effect = scheduler.compact(64);
        moves += effect.moves;
        if effect.moves == 0 {
            return moves;
        }
    }
}

/// Whether the live placements, read back as an offline schedule over the live
/// set, keep every machine within the capacity.
fn live_schedule_is_valid(scheduler: &OnlineScheduler) -> bool {
    let mut live: Vec<(Interval, usize)> = scheduler
        .live_jobs()
        .map(|(_, iv, machine)| (iv, machine))
        .collect();
    live.sort();
    let instance = Instance::new(live.iter().map(|&(iv, _)| iv).collect(), CAPACITY)
        .expect("capacity is positive");
    let schedule = Schedule::from_assignment(live.iter().map(|&(_, m)| Some(m)).collect());
    schedule.validate_complete(&instance).is_ok()
}

/// Replay `trace` to every cut under `policy` and compact each cut.
fn defragment(family: &str, policy: OnlinePolicy, jobs: usize, trace: &Trace) -> Row {
    let mut row = Row {
        family: family.to_string(),
        policy: policy.name().to_string(),
        jobs,
        capacity: CAPACITY,
        cuts: CUTS.len(),
        live_jobs: 0,
        cost_before: 0,
        cost_after: 0,
        offline_cost: 0,
        ratio_before: 0.0,
        ratio_after: 0.0,
        moves: 0,
        compact_secs: 0.0,
        valid: true,
    };
    for percent in CUTS {
        let prefix = trace.events.len() * percent / 100;
        let mut scheduler = OnlineScheduler::new(CAPACITY, policy).expect("capacity is positive");
        for event in &trace.events[..prefix] {
            scheduler
                .apply(event)
                .expect("generated traces are well-formed");
        }
        let live: Vec<Interval> = scheduler.live_jobs().map(|(_, iv, _)| iv).collect();
        row.live_jobs += live.len();
        let offline = Instance::new(live, CAPACITY).expect("capacity is positive");
        row.offline_cost += first_fit(&offline).cost(&offline).ticks();
        row.cost_before += scheduler.cost().ticks();

        let started = Instant::now();
        row.moves += compact_to_fixpoint(&mut scheduler);
        row.compact_secs += started.elapsed().as_secs_f64();
        row.cost_after += scheduler.cost().ticks();
        row.valid &= live_schedule_is_valid(&scheduler);
    }
    row.ratio_before = row.cost_before as f64 / row.offline_cost.max(1) as f64;
    row.ratio_after = row.cost_after as f64 / row.offline_cost.max(1) as f64;
    row
}

/// Every family interleaves departures with arrivals, so a cut leaves a
/// fragmented live set.  `g = 1` is pointless here — a strictly improving
/// migration needs co-coverage on the target machine — so the families all run
/// at the shared capacity.
pub fn measure(quick: bool) -> Vec<Row> {
    let jobs = if quick { 1_500 } else { 6_000 };
    let families: [(&str, Trace); 3] = [
        (
            "poisson_heavy_tail",
            poisson_trace(&mut seeded_rng(2012), jobs, CAPACITY, 3.0, &HEAVY_TAIL),
        ),
        (
            "poisson_uniform",
            poisson_trace(
                &mut seeded_rng(2013),
                jobs,
                CAPACITY,
                4.0,
                &DurationModel::Uniform { min: 5, max: 120 },
            ),
        ),
        (
            "diurnal_bimodal",
            diurnal_trace(
                &mut seeded_rng(2014),
                jobs,
                CAPACITY,
                200,
                1.0,
                16.0,
                &DurationModel::Bimodal {
                    short: (2, 8),
                    long: (60, 120),
                    long_weight: 0.3,
                },
            ),
        ),
    ];
    let mut rows = Vec::new();
    for (family, trace) in &families {
        for &policy in OnlinePolicy::all() {
            rows.push(defragment(family, policy, jobs, trace));
        }
    }
    rows
}

/// The defragmentation invariants are exact, not statistical: compaction only
/// ever commits strictly improving migrations, so it can never raise a cost or
/// invalidate a schedule, and each family must show a real ratio improvement
/// under at least one policy.
pub fn check(rows: &[Row], _quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let cell = format!("defrag {} {}", r.family, r.policy);
        if r.cost_after > r.cost_before {
            failures.push(format!(
                "{cell}: compaction raised the cost {} -> {}",
                r.cost_before, r.cost_after
            ));
        }
        if !r.valid {
            failures.push(format!(
                "{cell}: the compacted schedule no longer validates"
            ));
        }
        if r.live_jobs == 0 {
            failures.push(format!(
                "{cell}: the trace prefix drained every job — nothing was compacted"
            ));
        }
    }
    let families: BTreeSet<&str> = rows.iter().map(|r| r.family.as_str()).collect();
    for family in families {
        let best_shrink = rows
            .iter()
            .filter(|r| r.family == family)
            .map(|r| r.ratio_before - r.ratio_after)
            .fold(f64::MIN, f64::max);
        if best_shrink <= 0.0 {
            failures.push(format!(
                "defrag {family}: compaction never shrank the online-vs-offline \
                 cost ratio under any policy"
            ));
        }
    }
    failures
}
