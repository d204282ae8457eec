//! The `server_load` section: the wire itself.  The loopback load generator
//! (`busytime_bench::loadgen`) drives a real daemon — socket, framing
//! negotiation, batched shard handoff, the full connection path — over both
//! framings at several pipeline depths, with fresh tenants per cell and the
//! identical seeded workload in every cell, recording throughput and
//! p50/p99/p999 latency per cell.

use busytime_bench::loadgen::{run_matrix, spawn_loopback, LoadRow};
use busytime_server::Framing;

/// Shards of the loopback daemon.
const SHARDS: usize = 4;

/// Tenants each cell drives, one connection per tenant.
const TENANTS: usize = 4;

/// The framings every depth is measured in.
const FRAMINGS: [Framing; 2] = [Framing::Ndjson, Framing::Binary];

/// The pipeline depths every framing is measured at.
fn depths(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 8]
    } else {
        &[1, 8, 64]
    }
}

pub fn measure(quick: bool) -> Vec<LoadRow> {
    let (server, registry) = spawn_loopback(SHARDS);
    let events = if quick { 500 } else { 2_500 };
    let rows = run_matrix(
        &server.addr().to_string(),
        &FRAMINGS,
        depths(quick),
        TENANTS,
        TENANTS,
        events,
        2012,
    )
    .expect("the loopback load matrix runs");
    drop(server);
    registry.shutdown();
    rows
}

/// Every framing × depth cell is present once, drove the configured tenants and
/// the same request count, and records a finite throughput and ordered
/// percentiles.  The NDJSON depth-1 baseline reads exactly 1.0, the best binary
/// cell is at least as fast as the best NDJSON cell (the compact framing pays
/// for itself even on a short drive), and pipelined binary beats the NDJSON
/// lockstep baseline by 3x — parity under `--quick`, where the short drive
/// leaves throughput noise-dominated.
pub fn check(rows: &[LoadRow], quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let cell = format!("server_load {} depth {}", r.framing, r.pipeline_depth);
        if r.requests == 0 || !(r.requests_per_sec.is_finite() && r.requests_per_sec > 0.0) {
            failures.push(format!("{cell}: nonsensical request throughput"));
        }
        if !(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us && r.p999_us <= r.max_us) {
            failures.push(format!("{cell}: latency percentiles out of order"));
        }
        if r.speedup_vs_ndjson_depth1.is_none() {
            failures.push(format!("{cell}: missing the ndjson depth-1 baseline"));
        }
        if r.tenants != TENANTS {
            failures.push(format!(
                "{cell}: drove {} tenants, not {TENANTS}",
                r.tenants
            ));
        }
    }
    let mut cells: Vec<(&str, usize)> = rows
        .iter()
        .map(|r| (r.framing.as_str(), r.pipeline_depth))
        .collect();
    cells.sort();
    let mut expected: Vec<(&str, usize)> = FRAMINGS
        .iter()
        .flat_map(|framing| depths(quick).iter().map(|&depth| (framing.name(), depth)))
        .collect();
    expected.sort();
    if cells != expected {
        failures.push(format!(
            "server_load: measured cells {cells:?}, not each of {expected:?} once"
        ));
    }
    if rows.iter().any(|r| r.requests != rows[0].requests) {
        let counts: Vec<u64> = rows.iter().map(|r| r.requests).collect();
        failures.push(format!(
            "server_load: cells drove different request counts {counts:?}"
        ));
    }
    if let Some(r) = rows
        .iter()
        .find(|r| r.framing == "ndjson" && r.pipeline_depth == 1)
    {
        if r.speedup_vs_ndjson_depth1 != Some(1.0) {
            failures.push(format!(
                "server_load: the ndjson depth-1 baseline reads {:?}, not 1.0",
                r.speedup_vs_ndjson_depth1
            ));
        }
    }
    let best = |framing: &str, metric: fn(&LoadRow) -> f64| {
        rows.iter()
            .filter(|r| r.framing == framing)
            .map(metric)
            .fold(0.0f64, f64::max)
    };
    let (ndjson, binary) = (
        best("ndjson", |r| r.requests_per_sec),
        best("binary", |r| r.requests_per_sec),
    );
    if binary < ndjson {
        failures.push(format!(
            "server_load: best binary cell ({binary:.0} req/s) is slower than the best \
             ndjson cell ({ndjson:.0} req/s)"
        ));
    }
    let bar = if quick { 1.0 } else { 3.0 };
    let best_binary = best("binary", |r| r.speedup_vs_ndjson_depth1.unwrap_or(0.0));
    if best_binary < bar {
        failures.push(format!(
            "server_load: best binary cell at {best_binary:.2}x vs ndjson depth 1 \
             — the pipelined binary framing must reach {bar:.0}x"
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick grid whose binary cells run at `binary` times the NDJSON
    /// depth-1 throughput, and NDJSON at depth 8 at 1.2 times.
    fn grid(binary: f64) -> Vec<LoadRow> {
        let cell = |framing: Framing, depth, speedup| LoadRow {
            framing: framing.name().to_string(),
            tenants: TENANTS,
            connections: TENANTS,
            pipeline_depth: depth,
            requests: 2_000,
            secs: 0.1 / speedup,
            requests_per_sec: 20_000.0 * speedup,
            p50_us: 50.0,
            p99_us: 90.0,
            p999_us: 120.0,
            max_us: 150.0,
            speedup_vs_ndjson_depth1: Some(speedup),
        };
        vec![
            cell(Framing::Ndjson, 1, 1.0),
            cell(Framing::Ndjson, 8, 1.2),
            cell(Framing::Binary, 1, binary),
            cell(Framing::Binary, 8, binary),
        ]
    }

    /// The first failure `check` reports on `rows` after `doctor` edits them.
    fn first_failure(quick: bool, mut rows: Vec<LoadRow>, doctor: fn(&mut [LoadRow])) -> String {
        doctor(&mut rows);
        check(&rows, quick).first().cloned().unwrap_or_default()
    }

    #[test]
    fn each_wire_gate_fires_on_a_doctored_grid() {
        assert_eq!(check(&grid(1.8), true), Vec::<String>::new());
        let fires = |doctor: fn(&mut [LoadRow]), gate: &str| {
            let failure = first_failure(true, grid(1.8), doctor);
            assert!(failure.contains(gate), "{gate}: {failure}");
        };
        fires(|r| r[3].tenants = 3, "drove 3 tenants");
        fires(|r| r[2].pipeline_depth = 8, "measured cells");
        fires(|r| r[3].requests += 1, "different request counts");
        fires(
            |r| r[0].speedup_vs_ndjson_depth1 = Some(1.0 + 1e-12),
            "not 1.0",
        );
        // Binary beats the baseline but not NDJSON's pipelined cell.
        let slower = first_failure(true, grid(1.1), |_| {});
        assert!(
            slower.contains("slower than the best ndjson cell"),
            "{slower}"
        );
        // The full grid measures depth 64 too, and holds the 3x bar.
        let full = check(&grid(2.5), false);
        assert!(full[0].contains("measured cells") && full[1].contains("must reach 3x"));
    }
}
