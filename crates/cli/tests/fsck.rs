//! `busytime fsck` judges a tenant journal the way server recovery replays it: a
//! record that recovery would truncate makes fsck fail and name that record.

use std::path::PathBuf;

use busytime::online::{OnlinePolicy, OnlineScheduler};
use busytime_durability::Store;
use busytime_server::{DurabilityConfig, Registry, Request, Response};

/// A scratch data directory, fresh per call.
fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("busytime-fsck-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fsck_rejects_the_out_of_range_record_recovery_truncates() {
    let dir = temp_data_dir("out-of-range");
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
    let _ = std::fs::remove_dir_all(&dir);
}
