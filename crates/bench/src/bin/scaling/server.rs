//! The `server` section: the sharded registry's request throughput at several
//! shard counts.  One interleaved multi-tenant stream is driven through the
//! in-process `Engine` (the path the TCP connection threads take, minus the
//! socket), one concurrent client thread per tenant.  Each trial starts a fresh
//! registry, so every configuration replays the identical stream from empty
//! state; only the drive is timed.

use busytime_server::RegistryConfig;
use serde::Serialize;

use crate::harness::{drive, median, tenant_requests, with_registry, TRIALS};

/// One measured multi-tenant server configuration.
#[derive(Debug, Serialize)]
pub struct Row {
    tenants: usize,
    /// Concurrent client threads driving the engine (one per tenant).
    clients: usize,
    /// Requests driven through the engine per trial (events only; opens excluded).
    requests: usize,
    shards: usize,
    secs: f64,
    /// Request throughput — the headline number for the sharded registry.
    requests_per_sec: f64,
    /// This configuration's throughput over the 1-shard throughput.
    speedup_vs_1_shard: f64,
}

pub fn measure(quick: bool) -> Vec<Row> {
    let tenants = if quick { 4 } else { 8 };
    let per_tenant = tenant_requests(tenants, if quick { 500 } else { 2_500 });
    let requests = per_tenant.iter().map(Vec::len).sum();
    let mut rows: Vec<Row> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let secs = median(
            (0..TRIALS)
                .map(|_| {
                    with_registry(RegistryConfig::new(shards), |engine| {
                        drive(engine, &per_tenant)
                    })
                })
                .collect(),
        );
        let requests_per_sec = requests as f64 / secs;
        let one_shard_rps = rows
            .first()
            .map_or(requests_per_sec, |row| row.requests_per_sec);
        rows.push(Row {
            tenants,
            clients: tenants,
            requests,
            shards,
            secs,
            requests_per_sec,
            speedup_vs_1_shard: requests_per_sec / one_shard_rps,
        });
    }
    rows
}

/// Every shard count records a finite request throughput above 0.
pub fn check(rows: &[Row], _quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if !(r.requests_per_sec.is_finite() && r.requests_per_sec > 0.0) {
            failures.push(format!(
                "server shards={}: nonsensical request throughput {}",
                r.shards, r.requests_per_sec
            ));
        }
    }
    failures
}
