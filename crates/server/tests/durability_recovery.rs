//! The durability subsystem's differential suite.
//!
//! The central claim: **recovered state ≡ an uninterrupted run.**  A durable
//! registry is killed after `k` applied events and restarted; the rebuilt tenant
//! must hold exactly the scheduler a lone uninterrupted replay of those `k`
//! events produces (compared through the full serialized snapshot — placements,
//! pool buckets, counters, peak cost), and *continuing* the stream on the
//! restarted server must produce event-for-event the responses the
//! uninterrupted run gives.  The grid crosses every online policy with three
//! churn shapes and five crash points, with compaction both exercised and
//! quiescent.
//!
//! A proptest then attacks the journal itself: truncate or bit-flip the log at
//! a random offset and recovery must still come back with an exact *prefix* of
//! the acknowledged events — corruption may cost the tail, never the prefix and
//! never the process.

use std::path::{Path, PathBuf};

use busytime::online::{OnlinePolicy, OnlineScheduler, Trace};
use busytime_server::{DurabilityConfig, Engine, Registry, Request, Response};
use busytime_workload::{
    churn_trace_from_instance, general_instance, poisson_trace, seeded_rng, trace_from_instance,
    DurationModel,
};
use proptest::prelude::*;

/// A scratch data directory, fresh per call.
fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "busytime-durability-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, fsync_batch: usize, compact_threshold: u64) -> DurabilityConfig {
    DurabilityConfig {
        data_dir: dir.to_path_buf(),
        fsync_batch,
        compact_threshold,
    }
}

fn open(engine: &Engine, tenant: &str, capacity: usize, policy: OnlinePolicy) {
    let response = engine.call(Request::Open {
        tenant: tenant.into(),
        capacity,
        policy: Some(policy.name().to_string()),
    });
    assert!(response.is_ok(), "open failed: {response:?}");
}

/// The serialized snapshot — the complete observable state of a tenant.
fn server_snapshot(engine: &Engine, tenant: &str) -> String {
    match engine.call(Request::Snapshot {
        tenant: tenant.into(),
    }) {
        Response::Snapshot(snapshot) => serde_json::to_string(&snapshot).unwrap(),
        other => panic!("expected a snapshot for '{tenant}', got {other:?}"),
    }
}

fn oracle_snapshot(oracle: &OnlineScheduler) -> String {
    serde_json::to_string(&oracle.snapshot()).unwrap()
}

/// The three churn shapes of the grid: arrivals-only (a growing schedule),
/// full churn from the same instance (every job also departs), and a Poisson
/// process (interleaved arrivals/departures in time order).
fn churn_shapes(seed: u64, capacity: usize) -> Vec<(&'static str, Trace)> {
    let instance = general_instance(&mut seeded_rng(seed), 40, capacity, 300, 60);
    let poisson = poisson_trace(
        &mut seeded_rng(seed ^ 0x9e37),
        40,
        capacity,
        3.0,
        &DurationModel::HeavyTail { min: 1, max: 80 },
    );
    vec![
        ("arrivals-only", trace_from_instance(&instance)),
        ("churn", churn_trace_from_instance(&instance)),
        ("poisson", poisson),
    ]
}

#[test]
fn kill_and_restart_matches_uninterrupted_run_across_the_grid() {
    let capacity = 3;
    for (p, &policy) in OnlinePolicy::all().iter().enumerate() {
        for (shape, trace) in churn_shapes(42 + p as u64, capacity) {
            let total = trace.events.len();
            for crash_point in [0, 1, total / 2, total - 1, total] {
                // Odd crash points run with an aggressive compaction threshold
                // so recovery crosses snapshot boundaries; even ones keep the
                // whole history in the journal.
                let compact_threshold = if crash_point % 2 == 1 { 16 } else { 1 << 40 };
                let tag = format!("grid-{}-{shape}-{crash_point}", policy.name());
                let dir = temp_data_dir(&tag);
                let context = format!(
                    "policy={} shape={shape} crash_point={crash_point}/{total}",
                    policy.name()
                );

                // Phase 1: a durable server absorbs the first `crash_point`
                // events, then dies without any orderly flush beyond what each
                // acknowledgement already wrote.
                let registry =
                    Registry::with_durability(2, Some(config(&dir, 8, compact_threshold))).unwrap();
                let engine = registry.engine();
                open(&engine, "grid", capacity, policy);
                for event in &trace.events[..crash_point] {
                    let response = engine.call(Request::from_event("grid", event));
                    assert!(response.is_ok(), "{context}: pre-crash event failed");
                }
                drop(engine);
                registry.shutdown();

                // The uninterrupted oracle for the same prefix.
                let mut oracle = OnlineScheduler::new(capacity, policy).unwrap();
                for event in &trace.events[..crash_point] {
                    oracle.apply(event).unwrap();
                }

                // Phase 2: restart on the same directory; the rebuilt tenant
                // must equal the oracle, state for state.
                let registry =
                    Registry::with_durability(2, Some(config(&dir, 8, compact_threshold))).unwrap();
                let engine = registry.engine();
                assert_eq!(
                    server_snapshot(&engine, "grid"),
                    oracle_snapshot(&oracle),
                    "{context}: recovered state diverged from the uninterrupted run"
                );

                // Phase 3: the rest of the stream replays event-for-event
                // identically on the recovered server.
                for (i, event) in trace.events[crash_point..].iter().enumerate() {
                    let effect = oracle.apply(event).unwrap();
                    match engine.call(Request::from_event("grid", event)) {
                        Response::Event {
                            machine,
                            cost_delta,
                            cost,
                        } => assert_eq!(
                            (machine, cost_delta, cost),
                            (effect.machine, effect.cost_delta, effect.cost.ticks()),
                            "{context}: post-recovery event {i} diverged"
                        ),
                        other => panic!("{context}: post-recovery event {i} failed: {other:?}"),
                    }
                }
                assert_eq!(
                    server_snapshot(&engine, "grid"),
                    oracle_snapshot(&oracle),
                    "{context}: final state diverged after continuing the stream"
                );
                drop(engine);
                registry.shutdown();
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn recovery_survives_a_second_generation_of_restarts() {
    // Crash → recover → apply more → crash again → recover: the journal tail
    // written *after* a recovery replays just as well as one written fresh.
    let dir = temp_data_dir("double-restart");
    let trace = poisson_trace(
        &mut seeded_rng(7),
        60,
        2,
        2.0,
        &DurationModel::Uniform { min: 1, max: 40 },
    );
    let mut oracle = OnlineScheduler::new(2, OnlinePolicy::BestFit).unwrap();
    let (first, second) = trace.events.split_at(trace.events.len() / 3);

    let registry = Registry::with_durability(1, Some(config(&dir, 4, 1 << 40))).unwrap();
    let engine = registry.engine();
    open(&engine, "t", 2, OnlinePolicy::BestFit);
    for event in first {
        assert!(engine.call(Request::from_event("t", event)).is_ok());
        oracle.apply(event).unwrap();
    }
    drop(engine);
    registry.shutdown();

    let registry = Registry::with_durability(1, Some(config(&dir, 4, 1 << 40))).unwrap();
    let engine = registry.engine();
    for event in second {
        assert!(engine.call(Request::from_event("t", event)).is_ok());
        oracle.apply(event).unwrap();
    }
    drop(engine);
    registry.shutdown();

    let registry = Registry::with_durability(1, Some(config(&dir, 4, 1 << 40))).unwrap();
    let engine = registry.engine();
    assert_eq!(server_snapshot(&engine, "t"), oracle_snapshot(&oracle));
    drop(engine);
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_tenants_stay_closed_and_restores_recover() {
    let dir = temp_data_dir("lifecycle");
    let registry = Registry::with_durability(2, Some(config(&dir, 1, 1 << 40))).unwrap();
    let engine = registry.engine();
    open(&engine, "keep", 2, OnlinePolicy::FirstFit);
    open(&engine, "drop", 2, OnlinePolicy::FirstFit);
    assert!(engine
        .call(Request::Arrive {
            tenant: "keep".into(),
            id: 1,
            job: (0, 10),
        })
        .is_ok());
    // Move "keep" to "moved" via snapshot/restore; restore is durable too.
    let Response::Snapshot(snapshot) = engine.call(Request::Snapshot {
        tenant: "keep".into(),
    }) else {
        panic!("expected a snapshot");
    };
    assert!(engine
        .call(Request::Restore {
            tenant: "moved".into(),
            snapshot,
        })
        .is_ok());
    assert!(engine
        .call(Request::Close {
            tenant: "drop".into()
        })
        .is_ok());
    let keep_state = server_snapshot(&engine, "keep");
    drop(engine);
    registry.shutdown();

    let registry = Registry::with_durability(2, Some(config(&dir, 1, 1 << 40))).unwrap();
    let engine = registry.engine();
    // The closed tenant did not resurrect; the opened and restored ones did.
    assert!(!engine
        .call(Request::Query {
            tenant: "drop".into()
        })
        .is_ok());
    assert_eq!(server_snapshot(&engine, "keep"), keep_state);
    assert_eq!(server_snapshot(&engine, "moved"), keep_state);
    drop(engine);
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_id_the_journal_cannot_read_back_is_rejected_not_lost_on_restart() {
    // Ids from 2^63 up used to be acknowledged live and then end recovery's
    // replay at their record, losing every later event too; in a restored
    // snapshot they lost the whole tenant.
    let dir = temp_data_dir("wide-id");
    let registry = Registry::with_durability(1, Some(config(&dir, 1, 1 << 40))).unwrap();
    let engine = registry.engine();
    open(&engine, "t", 2, OnlinePolicy::FirstFit);
    let arrive = |id: u64, job: (i64, i64)| {
        engine.call(Request::Arrive {
            tenant: "t".into(),
            id,
            job,
        })
    };
    assert!(arrive(5, (0, 10)).is_ok());
    let Response::Error(error) = arrive(u64::MAX, (2, 8)) else {
        panic!("an arrival with id u64::MAX must be rejected");
    };
    assert_eq!(error.code, busytime_server::ErrorCode::Rejected, "{error}");
    assert!(arrive(6, (4, 12)).is_ok());
    let Response::Snapshot(mut snapshot) = engine.call(Request::Snapshot { tenant: "t".into() })
    else {
        panic!("expected a snapshot");
    };
    snapshot.jobs[0].id = u64::MAX;
    let restored = engine.call(Request::Restore {
        tenant: "r".into(),
        snapshot,
    });
    assert!(!restored.is_ok(), "{restored:?}");
    let live = server_snapshot(&engine, "t");
    drop(engine);
    registry.shutdown();

    let registry = Registry::with_durability(1, Some(config(&dir, 1, 1 << 40))).unwrap();
    let engine = registry.engine();
    assert_eq!(server_snapshot(&engine, "t"), live);
    let Response::Query(report) = engine.call(Request::Query { tenant: "t".into() }) else {
        panic!("expected a query response");
    };
    assert_eq!((report.events, report.live_jobs), (2, 2));
    assert!(!engine.call(Request::Query { tenant: "r".into() }).is_ok());
    drop(engine);
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_and_wal_stats_expose_the_log() {
    let dir = temp_data_dir("wal-ops");
    let registry = Registry::with_durability(1, Some(config(&dir, 64, 1 << 40))).unwrap();
    let engine = registry.engine();
    open(&engine, "t", 2, OnlinePolicy::FirstFit);
    for id in 0..10u64 {
        let s = id as i64 * 2;
        assert!(engine
            .call(Request::Arrive {
                tenant: "t".into(),
                id,
                job: (s, s + 5),
            })
            .is_ok());
    }
    let Response::Wal(stats) = engine.call(Request::WalStats { tenant: "t".into() }) else {
        panic!("expected wal stats");
    };
    assert_eq!(stats.generation, 0);
    assert_eq!(stats.log_records, 10);
    assert!(stats.log_bytes > 0 && stats.snapshot_bytes > 0);

    // Persist compacts: the journal empties, the generation advances, and the
    // snapshot absorbs the events.
    let Response::Wal(after) = engine.call(Request::Persist { tenant: "t".into() }) else {
        panic!("expected wal stats from persist");
    };
    assert_eq!(after.generation, 1);
    assert_eq!(after.log_records, 0);
    assert!(after.snapshot_bytes >= stats.snapshot_bytes);

    // State is untouched by compaction, including across a restart.
    let before_restart = server_snapshot(&engine, "t");
    drop(engine);
    registry.shutdown();
    let registry = Registry::with_durability(1, Some(config(&dir, 64, 1 << 40))).unwrap();
    let engine = registry.engine();
    assert_eq!(server_snapshot(&engine, "t"), before_restart);
    let Response::Wal(recovered) = engine.call(Request::WalStats { tenant: "t".into() }) else {
        panic!("expected wal stats after restart");
    };
    assert_eq!(recovered.generation, 1);
    assert_eq!(recovered.log_records, 0);
    drop(engine);
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // On an in-memory registry both operations refuse by name.
    let registry = Registry::new(1);
    let engine = registry.engine();
    open(&engine, "t", 1, OnlinePolicy::FirstFit);
    for request in [
        Request::Persist { tenant: "t".into() },
        Request::WalStats { tenant: "t".into() },
    ] {
        let Response::Error(error) = engine.call(request) else {
            panic!("expected an error on the in-memory registry");
        };
        assert!(error.message.contains("--data-dir"), "{error}");
    }
    drop(engine);
    registry.shutdown();
}

#[test]
fn automatic_compaction_keeps_the_journal_bounded() {
    let dir = temp_data_dir("auto-compact");
    let threshold = 8u64;
    let registry = Registry::with_durability(1, Some(config(&dir, 4, threshold))).unwrap();
    let engine = registry.engine();
    open(&engine, "t", 1, OnlinePolicy::BucketByLength);
    let trace = poisson_trace(
        &mut seeded_rng(11),
        50,
        1,
        2.0,
        &DurationModel::Uniform { min: 1, max: 30 },
    );
    let mut oracle = OnlineScheduler::new(1, OnlinePolicy::BucketByLength).unwrap();
    for event in &trace.events {
        assert!(engine.call(Request::from_event("t", event)).is_ok());
        oracle.apply(event).unwrap();
    }
    let Response::Wal(stats) = engine.call(Request::WalStats { tenant: "t".into() }) else {
        panic!("expected wal stats");
    };
    assert!(
        stats.log_records < threshold,
        "compaction left {} records in the journal",
        stats.log_records
    );
    assert!(stats.generation > 0, "no compaction ever ran");
    drop(engine);
    registry.shutdown();

    // Recovery across many compaction boundaries still lands on the oracle.
    let registry = Registry::with_durability(1, Some(config(&dir, 4, threshold))).unwrap();
    let engine = registry.engine();
    assert_eq!(server_snapshot(&engine, "t"), oracle_snapshot(&oracle));
    drop(engine);
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Locate the single tenant's journal file in a data directory.
fn find_journal(dir: &Path) -> PathBuf {
    fn walk(dir: &Path, found: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, found);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal.") && n.ends_with(".log"))
            {
                found.push(path.clone());
            }
        }
    }
    let mut found = Vec::new();
    walk(dir, &mut found);
    assert_eq!(
        found.len(),
        1,
        "expected exactly one journal, found {found:?}"
    );
    found.remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Truncate or bit-flip the journal anywhere: recovery must come back with
    /// an exact prefix of the acknowledged events — never a panic, never a
    /// non-prefix state, and a re-scan after recovery finds a clean journal.
    #[test]
    fn corrupt_log_tail_recovers_the_intact_prefix(
        seed in 0u64..1_000_000,
        corrupt_at in 0usize..1_000_000,
        flip in any::<bool>(),
        bit in 0u8..8,
    ) {
        let tag = format!("torn-{seed}-{corrupt_at}-{flip}-{bit}");
        let dir = temp_data_dir(&tag);
        let trace = poisson_trace(
            &mut seeded_rng(seed),
            25,
            2,
            2.0,
            &DurationModel::Uniform { min: 1, max: 30 },
        );
        let registry = Registry::with_durability(1, Some(config(&dir, 64, 1 << 40))).unwrap();
        let engine = registry.engine();
        open(&engine, "t", 2, OnlinePolicy::FirstFit);
        for event in &trace.events {
            prop_assert!(engine.call(Request::from_event("t", event)).is_ok());
        }
        drop(engine);
        registry.shutdown();

        // Corrupt the journal at a position derived from the case inputs:
        // either chop the file there (torn write) or flip one bit (rot).
        let journal = find_journal(&dir);
        let mut bytes = std::fs::read(&journal).unwrap();
        let offset = corrupt_at % bytes.len().max(1);
        if flip {
            bytes[offset] ^= 1u8 << bit;
        } else {
            bytes.truncate(offset);
        }
        std::fs::write(&journal, &bytes).unwrap();

        // Recovery: never a panic, and the surviving state is some exact
        // prefix of the acknowledged events.
        let registry = Registry::with_durability(1, Some(config(&dir, 64, 1 << 40))).unwrap();
        let engine = registry.engine();
        let Response::Query(report) = engine.call(Request::Query { tenant: "t".into() }) else {
            panic!("the tenant did not recover at all");
        };
        let recovered_events = report.events;
        prop_assert!(recovered_events <= trace.events.len());
        let mut oracle = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
        for event in &trace.events[..recovered_events] {
            oracle.apply(event).unwrap();
        }
        prop_assert_eq!(server_snapshot(&engine, "t"), oracle_snapshot(&oracle));
        drop(engine);
        registry.shutdown();

        // The truncation was persisted: a second restart recovers the same
        // prefix without re-reporting corruption.
        let registry = Registry::with_durability(1, Some(config(&dir, 64, 1 << 40))).unwrap();
        let engine = registry.engine();
        prop_assert_eq!(server_snapshot(&engine, "t"), oracle_snapshot(&oracle));
        drop(engine);
        registry.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_unrecoverable_tenant_is_skipped_not_fatal() {
    // Destroy one tenant's snapshot beyond repair: the server must boot, skip
    // it, and serve the healthy tenant untouched.
    let dir = temp_data_dir("skip-unrecoverable");
    let registry = Registry::with_durability(1, Some(config(&dir, 1, 1 << 40))).unwrap();
    let engine = registry.engine();
    open(&engine, "healthy", 2, OnlinePolicy::FirstFit);
    open(&engine, "doomed", 2, OnlinePolicy::FirstFit);
    assert!(engine
        .call(Request::Arrive {
            tenant: "healthy".into(),
            id: 1,
            job: (0, 7),
        })
        .is_ok());
    let healthy = server_snapshot(&engine, "healthy");
    drop(engine);
    registry.shutdown();

    // Overwrite every one of the doomed tenant's snapshots with garbage.
    let doomed_dir = dir.join("doomed");
    for entry in std::fs::read_dir(&doomed_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.to_str().is_some_and(|p| p.contains("snapshot.")) {
            std::fs::write(&path, "not json at all").unwrap();
        }
    }

    let registry = Registry::with_durability(1, Some(config(&dir, 1, 1 << 40))).unwrap();
    let engine = registry.engine();
    assert_eq!(server_snapshot(&engine, "healthy"), healthy);
    assert!(!engine
        .call(Request::Query {
            tenant: "doomed".into(),
        })
        .is_ok());
    drop(engine);
    registry.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
