//! `busytime fsck` judges a data directory through server recovery's own read and
//! replay: whatever recovery would note makes fsck fail, and the report names what a
//! restart serves instead.

use std::path::PathBuf;

use busytime::online::{OnlinePolicy, OnlineScheduler};
use busytime_durability::Store;
use busytime_server::{DurabilityConfig, Registry, Request, Response};

/// A temporary directory, removed when the guard drops: at the end of a test, and
/// also when its assertion fails and the test unwinds.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A temporary data directory, fresh per call, and the guard that removes it.
fn temp_data_dir(tag: &str) -> (TempDir, PathBuf) {
    let dir = std::env::temp_dir().join(format!("busytime-fsck-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (TempDir(dir.clone()), dir)
}

#[test]
fn fsck_rejects_the_out_of_range_record_recovery_truncates() {
    let (_guard, dir) = temp_data_dir("out-of-range");
    let store = Store::open(&dir, 1).unwrap();
    let empty = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
    let mut log = store
        .begin_tenant("t", &serde_json::to_string(&empty.snapshot()).unwrap())
        .unwrap();
    // A well-formed, CRC-valid journal whose second window lies past the wire's
    // ±2^42 tick bound.
    for (id, job) in [(1, (0, 10)), (2, (0, 9_000_000_000_000))] {
        let record = Request::Arrive {
            tenant: "t".into(),
            id,
            job,
        };
        log.append(record.to_json().as_bytes()).unwrap();
    }
    log.sync().unwrap();
    drop(log);

    let problem = busytime_cli::run_fsck(dir.to_str().unwrap()).unwrap_err();
    assert!(
        problem.contains("journal record 1 does not replay") && problem.contains("out of range"),
        "{problem}"
    );

    let registry =
        Registry::with_durability(1, Some(DurabilityConfig::new(&dir))).expect("registry opens");
    let engine = registry.engine();
    match engine.call(Request::Query { tenant: "t".into() }) {
        Response::Query(report) => {
            assert_eq!(
                report.events, 1,
                "recovery keeps the record before the bad one"
            );
            assert_eq!(report.live_jobs, 1);
        }
        other => panic!("expected a query report, got {other:?}"),
    }
    drop(engine);
    registry.shutdown();
}

#[test]
fn fsck_names_the_generation_a_restart_falls_back_to() {
    let (_guard, dir) = temp_data_dir("fallback");
    let store = Store::open(&dir, 1).unwrap();
    let empty = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
    let mut log = store
        .begin_tenant("t", &serde_json::to_string(&empty.snapshot()).unwrap())
        .unwrap();
    let events = [
        Request::Arrive {
            tenant: "t".into(),
            id: 1,
            job: (0, 10),
        },
        Request::Arrive {
            tenant: "t".into(),
            id: 2,
            job: (5, 15),
        },
        Request::Arrive {
            tenant: "t".into(),
            id: 3,
            job: (20, 30),
        },
        Request::Depart {
            tenant: "t".into(),
            id: 1,
        },
    ];
    for record in &events {
        log.append(record.to_json().as_bytes()).unwrap();
    }
    log.sync().unwrap();
    drop(log);
    // A newer generation whose snapshot does not parse, as a torn compaction
    // could leave behind.
    std::fs::write(store.tenant_dir("t").join("snapshot.1.json"), "not json").unwrap();

    let problem = busytime_cli::run_fsck(dir.to_str().unwrap()).unwrap_err();
    assert!(
        problem.contains("generation 1: snapshot rejected")
            && problem.contains(
                "a restart serves generation 0 with 4 replayable journal event(s), \
                 2 live job(s)"
            ),
        "{problem}"
    );

    let registry =
        Registry::with_durability(1, Some(DurabilityConfig::new(&dir))).expect("registry opens");
    let engine = registry.engine();
    match engine.call(Request::Query { tenant: "t".into() }) {
        Response::Query(report) => {
            assert_eq!(report.events, 4, "the restart serves generation 0");
            assert_eq!(report.live_jobs, 2);
        }
        other => panic!("expected a query report, got {other:?}"),
    }
    drop(engine);
    registry.shutdown();
    // Recovery committed generation 0, so the directory is clean now.
    let report = busytime_cli::run_fsck(dir.to_str().unwrap())
        .unwrap()
        .report;
    assert!(
        report.contains("generation 0, snapshot ok, 4 replayable journal event(s)"),
        "{report}"
    );
}
