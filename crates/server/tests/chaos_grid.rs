//! The chaos grid: seeded fault plans driven over a multi-tenant workload, with
//! every surviving answer checked against a fault-free oracle.  Determinism is
//! the point — [`FaultPlan`] draws its failure points from the seed alone, so a
//! red run reproduces with the seed it prints.
//!
//! Five scenarios:
//!  * WAL faults: injected append/fsync errors must produce explicit errors,
//!    never wrong answers, and a restart must recover exactly the acknowledged
//!    prefix of every damaged tenant.
//!  * Shard kills: a killed worker is respawned in-process and its tenants
//!    recovered from the WAL; retrying the failed calls converges every tenant
//!    to the oracle.
//!  * Apply panics: a request that panics on its shard answers `internal` and
//!    drops only its tenant; the shard keeps serving its cotenants, and a
//!    restart recovers the dropped tenant's acknowledged events.
//!  * Connection drops: the self-healing client reconnects, re-binds, resumes
//!    the pipeline exactly once, and still produces the fault-free report.
//!  * Overload: a flooding tenant is shed with `overloaded` while a cotenant on
//!    the same shard keeps getting correct answers, and `health` names the
//!    degraded tenant.
//!
//! `CHAOS_QUICK=1` shrinks the seed grid (the CI smoke configuration).

use std::net::TcpListener;

use busytime::online::{OnlinePolicy, OnlineScheduler, Trace};
use busytime::report::SimulationReport;
use busytime_server::{
    spawn, AdmissionConfig, Client, DurabilityConfig, ErrorCode, FaultKind, FaultPlan, FaultSpec,
    Framing, Registry, RegistryConfig, Request, Response, RetryPolicy,
};
use busytime_workload::{poisson_trace, seeded_rng, DurationModel};

/// The grid of plan seeds, shrunk under `CHAOS_QUICK=1`.
fn seeds() -> Vec<u64> {
    if std::env::var("CHAOS_QUICK").is_ok_and(|v| v != "0") {
        vec![11]
    } else {
        vec![11, 42, 2012]
    }
}

/// One tenant's deterministic workload: its own seeded trace and policy.
fn tenant_trace(seed: u64, tenant: usize, jobs: usize) -> (Trace, OnlinePolicy) {
    let model = DurationModel::HeavyTail { min: 1, max: 60 };
    let trace = poisson_trace(
        &mut seeded_rng(seed ^ (tenant as u64).wrapping_mul(0x9e37)),
        jobs,
        2,
        2.0,
        &model,
    );
    let policy = OnlinePolicy::all()[tenant % OnlinePolicy::all().len()];
    (trace, policy)
}

/// The oracle report for the first `events` events of a tenant's trace.
fn oracle_report(trace: &Trace, policy: OnlinePolicy, events: usize) -> String {
    let mut scheduler = OnlineScheduler::new(trace.capacity, policy).unwrap();
    let mut trajectory = Vec::new();
    for event in &trace.events[..events] {
        trajectory.push(scheduler.apply(event).unwrap().cost.ticks());
    }
    let report = SimulationReport::from_scheduler(&scheduler, trajectory);
    serde_json::to_string(&report).unwrap()
}

/// The server-side report for a tenant, as a comparable JSON string plus the
/// number of events it covers.
fn query_report_counted(engine: &busytime_server::Engine, tenant: &str) -> (String, usize) {
    match engine.call(Request::Query {
        tenant: tenant.to_string(),
    }) {
        Response::Query(report) => (serde_json::to_string(&report).unwrap(), report.events),
        other => panic!("query for '{tenant}': {other:?}"),
    }
}

/// The server-side report for a tenant, as a comparable JSON string.
fn query_report(engine: &busytime_server::Engine, tenant: &str) -> String {
    query_report_counted(engine, tenant).0
}

#[test]
fn wal_faults_fail_loudly_and_recovery_keeps_the_acked_prefix() {
    let tenants = 4usize;
    let jobs = 60usize;
    for seed in seeds() {
        let root =
            std::env::temp_dir().join(format!("busytime-chaos-wal-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let workloads: Vec<(Trace, OnlinePolicy)> =
            (0..tenants).map(|t| tenant_trace(seed, t, jobs)).collect();

        let mut config = RegistryConfig::new(2);
        let mut durability = DurabilityConfig::new(&root);
        // Fsync on every append so WalSync points fire deterministically with
        // the append stream instead of waiting on a batch boundary.
        durability.fsync_batch = 1;
        config.durability = Some(durability);
        let total_events: usize = workloads.iter().map(|(t, _)| t.events.len()).sum();
        config.faults = Some(FaultPlan::new(FaultSpec {
            wal_appends: 2,
            wal_syncs: 2,
            horizon: (total_events / 2) as u64,
            ..FaultSpec::quiet(seed)
        }));
        let registry = Registry::with_config(config).unwrap();
        let engine = registry.engine();

        // Interleave the tenants round-robin; record how much of each tenant's
        // trace was acknowledged before (if ever) its WAL failed.
        let mut acked = vec![0usize; tenants];
        let mut failed = vec![false; tenants];
        for (t, (trace, policy)) in workloads.iter().enumerate() {
            let name = format!("wal-{seed}-{t}");
            let response = engine.call(Request::Open {
                tenant: name,
                capacity: trace.capacity,
                policy: Some(policy.name().to_string()),
            });
            assert!(response.is_ok(), "seed {seed}: open {t}: {response:?}");
        }
        let longest = workloads.iter().map(|(t, _)| t.events.len()).max().unwrap();
        for i in 0..longest {
            for (t, (trace, _)) in workloads.iter().enumerate() {
                let Some(event) = trace.events.get(i) else {
                    continue;
                };
                if failed[t] {
                    // A tenant dropped after a journal fault answers
                    // `unknown_tenant` from then on — never a wrong answer.
                    let response =
                        engine.call(Request::from_event(&format!("wal-{seed}-{t}"), event));
                    let Response::Error(error) = response else {
                        panic!("seed {seed}: tenant {t} answered after its WAL died");
                    };
                    assert_eq!(
                        error.code,
                        ErrorCode::UnknownTenant,
                        "seed {seed}: {error:?}"
                    );
                    continue;
                }
                match engine.call(Request::from_event(&format!("wal-{seed}-{t}"), event)) {
                    Response::Error(error) => {
                        assert_eq!(
                            error.code,
                            ErrorCode::Internal,
                            "seed {seed}: tenant {t} event {i}: {error:?}"
                        );
                        assert!(
                            error.message.contains("journal"),
                            "seed {seed}: {}",
                            error.message
                        );
                        failed[t] = true;
                    }
                    response => {
                        assert!(response.is_ok(), "seed {seed}: {response:?}");
                        acked[t] += 1;
                    }
                }
            }
        }
        let plan = engine.fault_plan().unwrap().clone();
        let fired = plan.fired(FaultKind::WalAppend) + plan.fired(FaultKind::WalSync);
        assert!(fired > 0, "seed {seed}: no WAL fault fired — grid is inert");
        assert_eq!(
            failed.iter().filter(|&&f| f).count() as u64,
            fired,
            "seed {seed}: every fired WAL fault drops exactly one tenant"
        );

        // Untouched tenants match the full oracle in place.
        for (t, (trace, policy)) in workloads.iter().enumerate() {
            if !failed[t] {
                assert_eq!(acked[t], trace.events.len(), "seed {seed}: tenant {t}");
                assert_eq!(
                    query_report(&engine, &format!("wal-{seed}-{t}")),
                    oracle_report(trace, *policy, trace.events.len()),
                    "seed {seed}: untouched tenant {t} diverged"
                );
            }
        }
        drop(engine);
        registry.shutdown();

        // Restart without faults: every tenant — damaged or not — recovers a
        // prefix that covers everything acknowledged.  A tenant felled by an
        // fsync fault may recover one extra event: the record hit the file
        // before the sync failed, which is the standard WAL promise (an
        // unacknowledged write may or may not survive; acknowledged ones must).
        let registry = Registry::with_durability(2, Some(DurabilityConfig::new(&root))).unwrap();
        let engine = registry.engine();
        for (t, (trace, policy)) in workloads.iter().enumerate() {
            let (report, recovered) = query_report_counted(&engine, &format!("wal-{seed}-{t}"));
            assert!(
                recovered == acked[t] || (failed[t] && recovered == acked[t] + 1),
                "seed {seed}: tenant {t} recovered {recovered} events, acked {}",
                acked[t]
            );
            assert_eq!(
                report,
                oracle_report(trace, *policy, recovered),
                "seed {seed}: tenant {t} recovered prefix diverged"
            );
        }
        drop(engine);
        registry.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn killed_shards_respawn_and_converge_to_the_oracle() {
    let tenants = 4usize;
    let jobs = 50usize;
    for seed in seeds() {
        let root =
            std::env::temp_dir().join(format!("busytime-chaos-kill-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let workloads: Vec<(Trace, OnlinePolicy)> =
            (0..tenants).map(|t| tenant_trace(seed, t, jobs)).collect();
        let total_events: usize = workloads.iter().map(|(t, _)| t.events.len()).sum();

        let mut config = RegistryConfig::new(2);
        config.durability = Some(DurabilityConfig::new(&root));
        config.faults = Some(FaultPlan::new(FaultSpec {
            shard_kills: 2,
            horizon: (total_events / 2) as u64,
            ..FaultSpec::quiet(seed)
        }));
        let registry = Registry::with_config(config).unwrap();
        let engine = registry.engine();

        for (t, (trace, policy)) in workloads.iter().enumerate() {
            let name = format!("kill-{seed}-{t}");
            let response = engine.call(Request::Open {
                tenant: name,
                capacity: trace.capacity,
                policy: Some(policy.name().to_string()),
            });
            assert!(response.is_ok(), "seed {seed}: open {t}: {response:?}");
        }
        // A kill fires before the worker touches its batch, so a retryable
        // error means the event was neither applied nor logged: retry until
        // the respawned worker (WAL replayed) answers.
        let mut retried = 0u64;
        let longest = workloads.iter().map(|(t, _)| t.events.len()).max().unwrap();
        for i in 0..longest {
            for (t, (trace, _)) in workloads.iter().enumerate() {
                let Some(event) = trace.events.get(i) else {
                    continue;
                };
                let request = Request::from_event(&format!("kill-{seed}-{t}"), event);
                let mut attempts = 0;
                loop {
                    match engine.call(request.clone()) {
                        Response::Error(error) if error.code.is_retryable() => {
                            retried += 1;
                            attempts += 1;
                            assert!(attempts < 100, "seed {seed}: shard never came back");
                        }
                        response => {
                            assert!(response.is_ok(), "seed {seed}: {response:?}");
                            break;
                        }
                    }
                }
            }
        }
        let plan = engine.fault_plan().unwrap().clone();
        assert_eq!(
            plan.fired(FaultKind::ShardKill),
            2,
            "seed {seed}: both planned kills fire inside the horizon"
        );
        assert!(retried > 0, "seed {seed}: kills fired but nothing retried");

        // Every tenant — including those on the killed shard — converges to
        // the fault-free oracle.
        for (t, (trace, policy)) in workloads.iter().enumerate() {
            assert_eq!(
                query_report(&engine, &format!("kill-{seed}-{t}")),
                oracle_report(trace, *policy, trace.events.len()),
                "seed {seed}: tenant {t} diverged after respawn"
            );
        }
        // The respawns are visible in the health report.
        let Response::Health(health) = engine.call(Request::Health) else {
            panic!("seed {seed}: health failed");
        };
        let respawns: u64 = health.shards.iter().map(|s| s.respawns).sum();
        assert!(respawns >= 1, "seed {seed}: {health:?}");
        drop(engine);
        registry.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn apply_panics_drop_only_their_tenant_and_recovery_keeps_the_acked_prefix() {
    let per_shard = 3usize;
    let jobs = 40usize;
    for seed in seeds() {
        let root = std::env::temp_dir().join(format!(
            "busytime-chaos-panic-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let workloads: Vec<(Trace, OnlinePolicy)> = (0..2 * per_shard)
            .map(|t| tenant_trace(seed, t, jobs))
            .collect();
        let total_events: usize = workloads.iter().map(|(t, _)| t.events.len()).sum();

        let mut config = RegistryConfig::new(2);
        config.durability = Some(DurabilityConfig::new(&root));
        // Every open and every event is one tenant-scoped apply, so both
        // planned panics fall inside the drive.
        config.faults = Some(FaultPlan::new(FaultSpec {
            apply_panics: 2,
            horizon: ((workloads.len() + total_events) / 2) as u64,
            ..FaultSpec::quiet(seed)
        }));
        let registry = Registry::with_config(config).unwrap();
        let engine = registry.engine();

        // `per_shard` tenants on each of the two shards, so every dropped
        // tenant leaves at least one cotenant on its shard.
        let mut names: Vec<String> = Vec::new();
        for i in 0.. {
            let name = format!("panic-{seed}-{i}");
            let shard = engine.shard_for(&name);
            if names
                .iter()
                .filter(|n| engine.shard_for(n) == shard)
                .count()
                < per_shard
            {
                names.push(name);
            }
            if names.len() == workloads.len() {
                break;
            }
        }

        let mut opened = vec![true; names.len()];
        let mut dropped = vec![false; names.len()];
        let mut acked = vec![0usize; names.len()];
        let mut panics = 0u64;
        // Checks one answer for tenant `t`; `true` when it acknowledged.
        let mut answer = |t: usize, response: Response| -> bool {
            match response {
                Response::Error(error) if error.code == ErrorCode::Internal => {
                    assert!(
                        error.message.contains(&format!("'{}'", names[t])),
                        "seed {seed}: the panic must name its tenant: {}",
                        error.message
                    );
                    panics += 1;
                    dropped[t] = true;
                    false
                }
                Response::Error(error) if dropped[t] => {
                    assert_eq!(
                        error.code,
                        ErrorCode::UnknownTenant,
                        "seed {seed}: tenant {t} after its drop: {error:?}"
                    );
                    false
                }
                response => {
                    assert!(
                        !dropped[t],
                        "seed {seed}: tenant {t} answered after its drop"
                    );
                    assert!(response.is_ok(), "seed {seed}: tenant {t}: {response:?}");
                    true
                }
            }
        };
        for (t, (trace, policy)) in workloads.iter().enumerate() {
            opened[t] = answer(
                t,
                engine.call(Request::Open {
                    tenant: names[t].clone(),
                    capacity: trace.capacity,
                    policy: Some(policy.name().to_string()),
                }),
            );
        }
        let longest = workloads.iter().map(|(t, _)| t.events.len()).max().unwrap();
        for i in 0..longest {
            for (t, (trace, _)) in workloads.iter().enumerate() {
                if let Some(event) = trace.events.get(i) {
                    if answer(t, engine.call(Request::from_event(&names[t], event))) {
                        acked[t] += 1;
                    }
                }
            }
        }
        let plan = engine.fault_plan().unwrap().clone();
        assert_eq!(
            plan.fired(FaultKind::ApplyPanic),
            2,
            "seed {seed}: both planned panics fire inside the drive"
        );
        assert_eq!(panics, 2, "seed {seed}: each panic answers `internal` once");

        // The shards kept serving: every tenant the panics spared matches the
        // fault-free oracle in place.
        for (t, (trace, policy)) in workloads.iter().enumerate() {
            if !dropped[t] {
                assert_eq!(acked[t], trace.events.len(), "seed {seed}: tenant {t}");
                assert_eq!(
                    query_report(&engine, &names[t]),
                    oracle_report(trace, *policy, trace.events.len()),
                    "seed {seed}: spared tenant {t} diverged"
                );
            }
        }
        drop(engine);
        registry.shutdown();

        // Restart without faults: a dropped tenant comes back with exactly its
        // acknowledged events (the panic struck before the apply, so nothing
        // past them reached the journal), or stays absent when the panic hit
        // its `open`; spared tenants come back whole.
        let registry = Registry::with_durability(2, Some(DurabilityConfig::new(&root))).unwrap();
        let engine = registry.engine();
        for (t, (trace, policy)) in workloads.iter().enumerate() {
            if !opened[t] {
                let response = engine.call(Request::Query {
                    tenant: names[t].clone(),
                });
                let Response::Error(error) = response else {
                    panic!("seed {seed}: tenant {t} recovered without an open: {response:?}");
                };
                assert_eq!(
                    error.code,
                    ErrorCode::UnknownTenant,
                    "seed {seed}: {error:?}"
                );
                continue;
            }
            let (report, recovered) = query_report_counted(&engine, &names[t]);
            assert_eq!(recovered, acked[t], "seed {seed}: tenant {t}");
            assert_eq!(
                report,
                oracle_report(trace, *policy, recovered),
                "seed {seed}: tenant {t} recovered prefix diverged"
            );
        }
        drop(engine);
        registry.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn dropped_connections_heal_into_the_fault_free_report() {
    let jobs = 80usize;
    let depth = 8usize;
    for seed in seeds() {
        for framing in [Framing::Ndjson, Framing::Binary] {
            let (trace, policy) = tenant_trace(seed, 0, jobs);

            // The fault-free reference, driven locally.
            let expected = oracle_report(&trace, policy, trace.events.len());

            let mut config = RegistryConfig::new(2);
            config.faults = Some(FaultPlan::new(FaultSpec {
                conn_drops: 3,
                slow_writes: 2,
                // The server flushes once per drained read batch, and a drive
                // keeps at most `depth` requests unanswered, so one flush answers
                // at most `depth` of them: a drive of `events` requests makes at
                // least `events / depth` flushes.  Drawing the drops from that
                // guaranteed range makes every planned drop fire.
                horizon: (trace.events.len() / depth) as u64,
                ..FaultSpec::quiet(seed)
            }));
            let registry = Registry::with_config(config).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let server = spawn(listener, registry.engine()).unwrap();

            let policy_retry = RetryPolicy {
                base_delay_ms: 1,
                max_delay_ms: 20,
                ..RetryPolicy::default()
            };
            let mut client =
                Client::connect_resilient(server.addr(), framing, policy_retry).unwrap();
            let report = client
                .drive_trace_pipelined(&format!("conn-{seed}"), &trace, policy, depth)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} {}: healing drive failed: {e}", framing.name())
                });
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                expected,
                "seed {seed} {}: healed run diverged from the oracle",
                framing.name()
            );
            let engine = registry.engine();
            let plan = engine.fault_plan().unwrap();
            assert!(
                plan.fired(FaultKind::ConnDrop) > 0,
                "seed {seed} {}: no connection ever dropped — grid is inert",
                framing.name()
            );
            drop(client);
            drop(server);
            drop(engine);
            registry.shutdown();
        }
    }
}

#[test]
fn a_flooding_tenant_is_shed_while_its_cotenant_keeps_working() {
    let mut config = RegistryConfig::new(2);
    config.admission = Some(AdmissionConfig {
        tenant_rate: Some(50.0),
        ..AdmissionConfig::default()
    });
    let registry = Registry::with_config(config).unwrap();
    let engine = registry.engine();

    // Two tenants pinned to the same shard, so the flood and the victim share
    // every server-side resource.
    let flood = "flood".to_string();
    let victim = (0..)
        .map(|i| format!("victim-{i}"))
        .find(|name| engine.shard_for(name) == engine.shard_for(&flood))
        .unwrap();
    for name in [&flood, &victim] {
        let response = engine.call(Request::Open {
            tenant: name.clone(),
            capacity: 2,
            policy: Some("first-fit".to_string()),
        });
        assert!(response.is_ok(), "{response:?}");
    }

    // Flood one tenant far past its quota: the overflow must shed with a
    // retry hint, not block or fail some other way.
    let mut shed = 0usize;
    for _ in 0..500 {
        match engine.call(Request::Query {
            tenant: flood.clone(),
        }) {
            Response::Error(error) => {
                assert_eq!(error.code, ErrorCode::Overloaded, "{error:?}");
                assert!(error.retry_after_ms.is_some(), "{error:?}");
                shed += 1;
            }
            response => assert!(response.is_ok(), "{response:?}"),
        }
    }
    assert!(shed > 0, "the quota never shed a 500-request flood");

    // The cotenant's work is untouched: every event lands and matches the
    // lone-scheduler oracle.  Its workload stays under its own burst budget —
    // the quota is per tenant, so only the flooder pays for the flood.
    let (trace, policy) = tenant_trace(7, 0, 12);
    let response = engine.call(Request::Close {
        tenant: victim.clone(),
    });
    assert!(response.is_ok(), "{response:?}");
    let response = engine.call(Request::Open {
        tenant: victim.clone(),
        capacity: trace.capacity,
        policy: Some(policy.name().to_string()),
    });
    assert!(response.is_ok(), "{response:?}");
    for event in &trace.events {
        let response = engine.call(Request::from_event(&victim, event));
        assert!(
            response.is_ok(),
            "cotenant shed alongside the flood: {response:?}"
        );
    }
    assert_eq!(
        query_report(&engine, &victim),
        oracle_report(&trace, policy, trace.events.len()),
        "the cotenant's answers drifted under the flood"
    );

    // `health` names the degraded tenant and counts its sheds.
    let Response::Health(health) = engine.call(Request::Health) else {
        panic!("health failed");
    };
    let degraded = health
        .degraded
        .iter()
        .find(|t| t.tenant == flood)
        .unwrap_or_else(|| panic!("the flooded tenant is missing from {health:?}"));
    assert_eq!(degraded.shed, shed as u64);
    assert!(
        !health.degraded.iter().any(|t| t.tenant == victim),
        "the cotenant must not appear degraded: {health:?}"
    );
    drop(engine);
    registry.shutdown();
}
