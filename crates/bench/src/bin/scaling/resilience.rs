//! The `resilience` section: the overload and fault paths.  First a
//! single-tenant flood against a rate quota (most of it must shed, and the same
//! flood with no quota must fully land), then a deterministic shard kill
//! mid-stream, timing how long the engine takes to respawn the worker, replay its
//! WAL and answer again.

use std::time::{Duration, Instant};

use busytime::online::Trace;
use busytime_server::{
    AdmissionConfig, DurabilityConfig, Engine, ErrorCode, FaultPlan, FaultSpec, RegistryConfig,
    Request, Response,
};
use busytime_workload::{poisson_trace, seeded_rng};
use serde::Serialize;

use crate::harness::{open, with_registry, CAPACITY, HEAVY_TAIL};

/// The slowest shard respawn `--check` accepts, in milliseconds: well within
/// the self-healing client's retry budget.
const RESPAWN_BAR_MS: f64 = 5_000.0;

/// One measured resilience scenario: overload shedding under a flood, or
/// recovery from an injected shard death.
#[derive(Debug, Serialize)]
pub struct Row {
    scenario: String,
    /// Requests driven at the engine.
    requests: usize,
    /// Requests that eventually succeeded.
    ok: usize,
    /// Requests shed with an `overloaded` error.
    shed: usize,
    secs: f64,
    /// Shard-respawn scenario only: wall time from the first failed call to the
    /// first success after the worker was respawned and its WAL replayed.
    recovery_ms: Option<f64>,
}

/// Flood one tenant with `requests` queries, with or without a rate quota.
fn flood(engine: &Engine, scenario: String, requests: usize) -> Row {
    open(engine, "flood");
    let started = Instant::now();
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..requests {
        match engine.call(Request::Query {
            tenant: "flood".to_string(),
        }) {
            Response::Error(error) if error.code == ErrorCode::Overloaded => shed += 1,
            response => {
                assert!(response.is_ok(), "{response:?}");
                ok += 1;
            }
        }
    }
    Row {
        scenario,
        requests,
        ok,
        shed,
        secs: started.elapsed().as_secs_f64(),
        recovery_ms: None,
    }
}

/// Drive `trace` into one tenant through a planned shard kill, retrying each
/// failed event until the respawned shard answers.
fn respawn(engine: &Engine, trace: &Trace) -> Row {
    open(engine, "chaos");
    let started = Instant::now();
    let (mut ok, mut shed) = (0, 0);
    let mut recovery_ms = None;
    for event in &trace.events {
        let request = Request::from_event("chaos", event);
        let mut first_failure: Option<Instant> = None;
        loop {
            match engine.call(request.clone()) {
                Response::Error(error) if error.code.is_retryable() => {
                    // The kill fires before the batch is touched, so the failed
                    // event was neither applied nor logged — the retry is
                    // exactly-once.
                    shed += 1;
                    let failed = *first_failure.get_or_insert_with(Instant::now);
                    assert!(
                        failed.elapsed().as_secs_f64() < 5.0,
                        "the shard never came back: {error:?}"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                response => {
                    assert!(response.is_ok(), "{response:?}");
                    ok += 1;
                    if let Some(failed) = first_failure {
                        recovery_ms.get_or_insert(failed.elapsed().as_secs_f64() * 1_000.0);
                    }
                    break;
                }
            }
        }
    }
    Row {
        scenario: "shard_respawn".to_string(),
        requests: trace.events.len(),
        ok,
        shed,
        secs: started.elapsed().as_secs_f64(),
        recovery_ms,
    }
}

pub fn measure(quick: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let requests = if quick { 2_000 } else { 10_000 };
    for shedding in [true, false] {
        let mut config = RegistryConfig::new(2);
        if shedding {
            config.admission = Some(AdmissionConfig {
                tenant_rate: Some(500.0),
                ..Default::default()
            });
        }
        let scenario = format!("flood_shedding_{}", if shedding { "on" } else { "off" });
        rows.push(with_registry(config, |engine| {
            flood(engine, scenario, requests)
        }));
    }

    let root = std::env::temp_dir().join(format!(
        "busytime-scaling-resilience-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let jobs = if quick { 200 } else { 1_000 };
    let trace = poisson_trace(&mut seeded_rng(2012), jobs, CAPACITY, 3.0, &HEAVY_TAIL);
    let config = RegistryConfig {
        durability: Some(DurabilityConfig::new(&root)),
        // Draw the single kill from the first half of the stream so it always
        // fires mid-drive.
        faults: Some(FaultPlan::new(FaultSpec {
            shard_kills: 1,
            horizon: (trace.events.len() / 2) as u64,
            ..FaultSpec::quiet(2012)
        })),
        ..RegistryConfig::new(1)
    };
    rows.push(with_registry(config, |engine| respawn(engine, &trace)));
    let _ = std::fs::remove_dir_all(&root);
    rows
}

/// The rate quota sheds a flood and leaves an unquoted one untouched, and a
/// killed shard is back — WAL replayed, every request answered — within
/// [`RESPAWN_BAR_MS`].
pub fn check(rows: &[Row], _quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let mut gate = |scenario: &str, holds: fn(&Row) -> bool, what: &str| match rows
        .iter()
        .find(|r| r.scenario == scenario)
    {
        None => failures.push(format!("no {scenario} resilience row was recorded")),
        Some(r) if !holds(r) => failures.push(format!("{scenario}: {what}: {r:?}")),
        Some(_) => {}
    };
    gate(
        "flood_shedding_on",
        |r| r.shed > 0,
        "the rate quota shed nothing",
    );
    gate(
        "flood_shedding_off",
        |r| r.shed == 0 && r.ok == r.requests,
        "requests were shed or lost without admission control",
    );
    gate(
        "shard_respawn",
        |r| r.ok == r.requests && r.recovery_ms.is_some_and(|ms| ms < RESPAWN_BAR_MS),
        "a request never landed, the planned kill never fired, or the respawn missed the bar",
    );
    failures
}
