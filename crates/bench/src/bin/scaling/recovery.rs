//! The `recovery` section: cold restarts against journals of several lengths.
//! One tenant's journal is driven to a target length and the registry shut down
//! (appends are write-through, so this leaves exactly the disk state a SIGKILL
//! would); then a cold restart is timed.  Recovery runs on the shard thread
//! before its first response, so a fresh registry plus one query measures it end
//! to end: store scan + snapshot restore + journal replay.  Each length is timed
//! against the full journal, then again after a `persist` folded the log into a
//! snapshot.

use busytime_server::Request;
use busytime_workload::{poisson_trace, seeded_rng};
use serde::Serialize;

use crate::harness::{call_ok, journaled, open, time_trials, with_registry, CAPACITY, HEAVY_TAIL};

/// One measured crash-recovery configuration: cold-start time against a journal
/// of a given length, with and without a compacting snapshot first.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Events driven into the tenant before the shutdown.
    log_events: usize,
    /// Whether the log was compacted (snapshot + empty journal) before the
    /// restart being measured.
    compacted: bool,
    /// Cold start to first answered query: store scan + snapshot restore +
    /// journal replay.
    recovery_secs: f64,
    /// Replay throughput for uncompacted rows (`null` when the journal was
    /// compacted away).
    events_per_sec: Option<f64>,
}

pub fn measure(quick: bool) -> Vec<Row> {
    let lengths: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let mut rows = Vec::new();
    for &log_events in lengths {
        let root = std::env::temp_dir().join(format!(
            "busytime-scaling-recovery-{}-{log_events}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let config = || journaled(1, &root, 1024);
        let trace = poisson_trace(
            &mut seeded_rng(2012),
            log_events / 2,
            CAPACITY,
            3.0,
            &HEAVY_TAIL,
        );
        with_registry(config(), |engine| {
            open(engine, "wal");
            for event in &trace.events {
                call_ok(engine, Request::from_event("wal", event));
            }
        });
        for compacted in [false, true] {
            if compacted {
                // Fold the journal into a fresh snapshot, exactly as `persist` does.
                with_registry(config(), |engine| {
                    call_ok(
                        engine,
                        Request::Persist {
                            tenant: "wal".to_string(),
                        },
                    )
                });
            }
            let trials = if log_events >= 1_000_000 { 1 } else { 3 };
            let recovery_secs = time_trials(trials, || {
                with_registry(config(), |engine| {
                    call_ok(
                        engine,
                        Request::Query {
                            tenant: "wal".to_string(),
                        },
                    )
                })
            });
            rows.push(Row {
                log_events,
                compacted,
                recovery_secs,
                events_per_sec: (!compacted).then(|| trace.events.len() as f64 / recovery_secs),
            });
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    rows
}

/// Every restart records a finite time above 0.
pub fn check(rows: &[Row], _quick: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if !(r.recovery_secs.is_finite() && r.recovery_secs > 0.0) {
            failures.push(format!(
                "recovery log_events={} compacted={}: nonsensical time {}",
                r.log_events, r.compacted, r.recovery_secs
            ));
        }
    }
    failures
}
