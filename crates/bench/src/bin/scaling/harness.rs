//! What the sections share: the size grid and trial counts, the median every
//! timing records, and one way to open, drive and shut down a registry.

use std::path::Path;
use std::time::Instant;

use busytime_server::{DurabilityConfig, Engine, Registry, RegistryConfig, Request};
use busytime_workload::{multi_tenant_stream, seeded_rng, DurationModel};

/// Machine capacity of every section except `exact`, `batch` and `server_load`.
pub const CAPACITY: usize = 10;

/// Trials per configuration where the work is not sized by `n`.
pub const TRIALS: usize = 3;

/// The heavy-tailed job lengths of every trace-driven section.
pub const HEAVY_TAIL: DurationModel = DurationModel::HeavyTail { min: 1, max: 200 };

/// The instance sizes of the `rows` and `online` sections.
pub fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[100, 1_000, 2_000, 4_000]
    } else {
        &[100, 1_000, 10_000, 50_000]
    }
}

/// Trials at size `n` in the `rows` and `online` sections.  Sub-millisecond
/// sizes get more trials so their medians are stable enough for the parity
/// gate; mid sizes get 7 (a 3-trial median at a few milliseconds per run still
/// drifts past the parity band on a busy machine); only the expensive sizes
/// drop to 3.
pub fn trials_for(n: usize) -> usize {
    if n <= 2_000 {
        11
    } else if n <= 10_000 {
        7
    } else {
        3
    }
}

/// The median of `samples` (the upper one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median seconds of `trials` runs of `f`: one-off scheduling noise stays out of
/// the record.
pub fn time_trials<T>(trials: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..trials)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(f());
                started.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Run `f` on a fresh registry, then drop the engine and join the shards.
pub fn with_registry<R>(config: RegistryConfig, f: impl FnOnce(&Engine) -> R) -> R {
    let registry = Registry::with_config(config).expect("the bench registry starts");
    let engine = registry.engine();
    let result = f(&engine);
    drop(engine);
    registry.shutdown();
    result
}

/// A `shards`-shard registry journaling under `root` with group-commit batch
/// `fsync_batch`, and no automatic compaction, so every record stays in the log.
pub fn journaled(shards: usize, root: &Path, fsync_batch: usize) -> RegistryConfig {
    RegistryConfig {
        durability: Some(DurabilityConfig {
            data_dir: root.to_path_buf(),
            fsync_batch,
            compact_threshold: u64::MAX,
        }),
        ..RegistryConfig::new(shards)
    }
}

/// Send `request` and require it to succeed.
pub fn call_ok(engine: &Engine, request: Request) {
    let response = engine.call(request);
    assert!(response.is_ok(), "{response:?}");
}

/// Open `tenant` at [`CAPACITY`] under first-fit.
pub fn open(engine: &Engine, tenant: &str) {
    call_ok(
        engine,
        Request::Open {
            tenant: tenant.to_string(),
            capacity: CAPACITY,
            policy: Some("first-fit".to_string()),
        },
    );
}

/// A seeded stream of `jobs` jobs per tenant over `tenants` tenants, as each
/// tenant's requests in stream order (tenant `t` is named `tenant-{t}`).
pub fn tenant_requests(tenants: usize, jobs: usize) -> Vec<Vec<Request>> {
    let mut per_tenant = vec![Vec::new(); tenants];
    for (t, event) in multi_tenant_stream(&mut seeded_rng(2012), tenants, jobs, 2.0, &HEAVY_TAIL) {
        per_tenant[t].push(Request::from_event(&format!("tenant-{t}"), &event));
    }
    per_tenant
}

/// Open every tenant of `per_tenant`, then drive each tenant's requests in order
/// from a thread of its own, all at once; returns the seconds of the drive alone.
pub fn drive(engine: &Engine, per_tenant: &[Vec<Request>]) -> f64 {
    for t in 0..per_tenant.len() {
        open(engine, &format!("tenant-{t}"));
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for requests in per_tenant {
            scope.spawn(move || {
                for request in requests {
                    call_ok(engine, request.clone());
                }
            });
        }
    });
    started.elapsed().as_secs_f64()
}
