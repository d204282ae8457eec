//! The loopback load generator: drives a running `busytime-server` daemon with
//! configurable tenants × connections × pipeline depths over both framings, and
//! reports throughput plus p50/p99/p999 request latency.
//!
//! This is the measurement half of the wire-gap work: the in-process engine
//! absorbs millions of events per second, so the interesting question is how
//! much of that survives the socket.  Each connection runs on its own thread
//! with its own [`Client`], drives a disjoint set of tenants (per-tenant event
//! order is preserved because one connection owns each tenant), keeps a window of
//! `pipeline_depth` requests in flight, and timestamps every request at send and
//! at response — so the latency numbers include queueing inside the window, which
//! is the latency a pipelining application actually observes.
//!
//! The `scaling` benchmark's `server_load` section calls [`run_matrix`] against
//! a [`spawn_loopback`] daemon to fill that section of `BENCH_scaling.json`, and
//! its `--check` gates the cells.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::time::Instant;

use busytime::online::Event;
use busytime_server::{spawn, Client, Framing, Registry, Request, Response, ServerHandle};
use busytime_workload::{multi_tenant_stream, seeded_rng, DurationModel};

/// One load-generation configuration: a framing and a pipeline depth against a
/// tenant/connection layout.
struct LoadSpec {
    /// Which framing the clients speak.
    framing: Framing,
    /// Total tenants, spread round-robin across the connections.
    tenants: usize,
    /// Concurrent connections (one thread and one [`Client`] each).
    connections: usize,
    /// Requests kept in flight per connection (1 = request/response lockstep).
    pipeline_depth: usize,
    /// Events driven per tenant (arrivals + departures from a Poisson trace).
    events_per_tenant: usize,
    /// Workload seed, so every framing × depth cell replays the same events.
    seed: u64,
    /// Which of the cell's [`TRIALS`] this is; it names fresh tenants per trial.
    trial: usize,
}

/// Trials per framing × depth cell.  Each cell records its median-throughput
/// trial, so no ratio rests on one run of its baseline.
const TRIALS: usize = 5;

/// One measured cell of the load matrix.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadRow {
    /// The framing name (`ndjson` / `binary`).
    pub framing: String,
    /// Tenants driven.
    pub tenants: usize,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests in flight per connection.
    pub pipeline_depth: usize,
    /// Total requests answered (across all connections, excluding setup).
    pub requests: u64,
    /// Wall-clock seconds for the measured phase.
    pub secs: f64,
    /// Requests per second over the measured phase.
    pub requests_per_sec: f64,
    /// Median request latency in microseconds (send → response, including
    /// queueing inside the pipeline window).
    pub p50_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile request latency in microseconds.
    pub p999_us: f64,
    /// Worst observed request latency in microseconds.
    pub max_us: f64,
    /// Throughput relative to the NDJSON depth-1 row of the same matrix (which
    /// reads 1.0); `None` when the matrix has no such row.
    pub speedup_vs_ndjson_depth1: Option<f64>,
}

/// Spawn a fresh in-memory registry with `shards` shards, served on an
/// ephemeral loopback port.
///
/// Returns the server handle (drop it to stop accepting; its `addr()` is where
/// clients connect) and the registry.  Dropping the handle *before* the
/// registry makes [`Registry::shutdown`] safe: the accept loop's engine clone
/// is gone, so the join returns as soon as the last connection closes.
pub fn spawn_loopback(shards: usize) -> (ServerHandle, Registry) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let registry = Registry::new(shards);
    let server = spawn(listener, registry.engine()).expect("spawning the accept loop");
    (server, registry)
}

/// The per-tenant event streams of a spec, identical for every framing × depth
/// cell sharing the same seed/tenants/events — so cells compare the wire, not
/// the workload.
fn tenant_streams(spec: &LoadSpec) -> Vec<Vec<Event>> {
    let model = DurationModel::Uniform { min: 1, max: 60 };
    let stream = multi_tenant_stream(
        &mut seeded_rng(spec.seed),
        spec.tenants,
        spec.events_per_tenant / 2,
        2.0,
        &model,
    );
    let mut per_tenant: Vec<Vec<Event>> = vec![Vec::new(); spec.tenants];
    for (tenant, event) in stream {
        per_tenant[tenant].push(event);
    }
    per_tenant
}

/// Drive one connection's request list through a windowed pipeline, returning
/// each request's send → response latency in microseconds.
fn drive_connection(
    client: &mut Client,
    requests: &[Request],
    depth: usize,
) -> Result<Vec<f64>, String> {
    let depth = depth.max(1);
    let mut latencies = Vec::with_capacity(requests.len());
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(depth);
    let mut sent = 0usize;
    let mut received = 0usize;
    while received < requests.len() {
        if sent < requests.len() && sent - received <= depth / 2 {
            while sent < requests.len() && sent - received < depth {
                sent_at.push_back(Instant::now());
                client.send(&requests[sent])?;
                sent += 1;
            }
            client.flush()?;
        }
        let response = client.recv()?;
        let started = sent_at.pop_front().expect("one timestamp per request");
        latencies.push(started.elapsed().as_secs_f64() * 1e6);
        received += 1;
        if let Response::Error(error) = response {
            return Err(format!("request {received} failed: {error}"));
        }
    }
    Ok(latencies)
}

/// Run one spec against a daemon at `addr` and measure it.
///
/// Tenants are opened (fresh names per cell) outside the measured phase; the
/// measured phase is every event request across all connections.
fn run_spec(addr: &str, spec: &LoadSpec) -> Result<LoadRow, String> {
    assert!(spec.connections >= 1 && spec.tenants >= spec.connections);
    let per_tenant = tenant_streams(spec);
    let cell = format!(
        "{}-d{}-c{}-s{}-r{}",
        spec.framing.name(),
        spec.pipeline_depth,
        spec.connections,
        spec.seed,
        spec.trial
    );

    // Each connection owns the tenants `t ≡ c (mod connections)` and interleaves
    // their streams round-robin — cross-tenant interleaving inside one window is
    // exactly what the batched shard handoff coalesces.
    let plans: Vec<Vec<Request>> = (0..spec.connections)
        .map(|c| {
            let mine: Vec<usize> = (0..spec.tenants)
                .filter(|t| t % spec.connections == c)
                .collect();
            let mut cursors = vec![0usize; mine.len()];
            let mut requests = Vec::new();
            loop {
                let mut progressed = false;
                for (slot, &tenant) in mine.iter().enumerate() {
                    if let Some(event) = per_tenant[tenant].get(cursors[slot]) {
                        cursors[slot] += 1;
                        progressed = true;
                        requests.push(Request::from_event(&format!("{cell}-t{tenant}"), event));
                    }
                }
                if !progressed {
                    break;
                }
            }
            (mine, requests)
        })
        .map(|(mine, requests)| {
            let mut opens: Vec<Request> = mine
                .iter()
                .map(|tenant| Request::Open {
                    tenant: format!("{cell}-t{tenant}"),
                    capacity: 2,
                    policy: None,
                })
                .collect();
            opens.extend(requests);
            opens
        })
        .collect();

    let started = Instant::now();
    let results: Vec<Result<(u64, Vec<f64>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let framing = spec.framing;
                let depth = spec.pipeline_depth;
                scope.spawn(move || {
                    let mut client =
                        Client::connect_with(addr, framing).map_err(|e| format!("connect: {e}"))?;
                    // Setup (opens) runs lockstep and is excluded from latency.
                    let opens = plan
                        .iter()
                        .filter(|r| matches!(r, Request::Open { .. }))
                        .count();
                    for request in &plan[..opens] {
                        client.call_ok(request)?;
                    }
                    let latencies = drive_connection(&mut client, &plan[opens..], depth)?;
                    Ok((latencies.len() as u64, latencies))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let secs = started.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let mut requests = 0u64;
    for result in results {
        let (count, mut lats) = result?;
        requests += count;
        latencies.append(&mut lats);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    };
    Ok(LoadRow {
        framing: spec.framing.name().to_string(),
        tenants: spec.tenants,
        connections: spec.connections,
        pipeline_depth: spec.pipeline_depth,
        requests,
        secs,
        requests_per_sec: requests as f64 / secs.max(1e-9),
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        p999_us: percentile(0.999),
        max_us: latencies.last().copied().unwrap_or(0.0),
        speedup_vs_ndjson_depth1: None,
    })
}

/// Fill every row's `speedup_vs_ndjson_depth1` from the matrix's own NDJSON
/// depth-1 row (the baseline reads 1.0).  Rows without a baseline in the slice
/// are left `None`.
fn annotate_speedups(rows: &mut [LoadRow]) {
    let baseline = rows
        .iter()
        .find(|row| row.framing == "ndjson" && row.pipeline_depth == 1)
        .map(|row| row.requests_per_sec);
    if let Some(baseline) = baseline {
        for row in rows {
            row.speedup_vs_ndjson_depth1 = Some(row.requests_per_sec / baseline.max(1e-9));
        }
    }
}

/// Run the full framing × depth matrix for one layout against `addr`: every cell
/// five times, the cell order rotated each round so that no cell always runs
/// first.  Each cell keeps its median-throughput trial, latencies included,
/// and the speedups are computed from those rows.
pub fn run_matrix(
    addr: &str,
    framings: &[Framing],
    depths: &[usize],
    tenants: usize,
    connections: usize,
    events_per_tenant: usize,
    seed: u64,
) -> Result<Vec<LoadRow>, String> {
    let cells: Vec<(Framing, usize)> = framings
        .iter()
        .flat_map(|&framing| depths.iter().map(move |&depth| (framing, depth)))
        .collect();
    let mut trials: Vec<Vec<LoadRow>> = vec![Vec::with_capacity(TRIALS); cells.len()];
    for trial in 0..TRIALS {
        for offset in 0..cells.len() {
            let cell = (offset + trial) % cells.len();
            let (framing, pipeline_depth) = cells[cell];
            // The seed is shared across cells so every cell replays the same
            // workload; fresh tenant names per trial come from the framing,
            // depth and trial embedded in the names.
            let spec = LoadSpec {
                framing,
                tenants,
                connections,
                pipeline_depth,
                events_per_tenant,
                seed,
                trial,
            };
            trials[cell].push(run_spec(addr, &spec)?);
        }
    }
    let mut rows: Vec<LoadRow> = trials
        .into_iter()
        .map(|mut runs| {
            runs.sort_by(|a, b| a.requests_per_sec.total_cmp(&b.requests_per_sec));
            runs.swap_remove(TRIALS / 2)
        })
        .collect();
    annotate_speedups(&mut rows);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_measures_both_framings_and_annotates_speedups() {
        let (server, registry) = spawn_loopback(2);
        let addr = server.addr().to_string();
        let rows = run_matrix(
            &addr,
            &[Framing::Ndjson, Framing::Binary],
            &[1, 8],
            2,
            2,
            60,
            7,
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.requests > 0, "{row:?}");
            assert!(row.requests_per_sec > 0.0, "{row:?}");
            assert!(
                row.p50_us <= row.p99_us && row.p99_us <= row.p999_us,
                "{row:?}"
            );
            assert!(row.p999_us <= row.max_us, "{row:?}");
            let speedup = row.speedup_vs_ndjson_depth1.expect("annotated");
            assert!(speedup > 0.0, "{row:?}");
        }
        assert_eq!(rows[0].speedup_vs_ndjson_depth1, Some(1.0));
        // Every cell drives the same number of requests — same workload.
        assert!(rows.iter().all(|row| row.requests == rows[0].requests));
        // The fixed lifecycle: stop the accept loop, then join the shards.
        drop(server);
        registry.shutdown();
    }
}
