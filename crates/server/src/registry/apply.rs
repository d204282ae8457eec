//! What each tenant-scoped operation does to a shard's state: the wire bounds it
//! checks, the scheduler mutation, and the journal write that makes it durable
//! before the acknowledgement.

use std::collections::HashMap;

use busytime::online::{CompactEffect, Event, OnlineScheduler};
use busytime::report::SimulationReport;
use busytime::{Interval, OnlinePolicy, Time};

use super::recovery::{snapshot_json, JournalRecord};
use super::shard::{ShardState, Tenant};
use crate::protocol::{ErrorCode, HealthReport, Request, Response, ShardHealth};

/// The trajectory window a tenant retains: at least this many of the most recent
/// per-event cost points (and at most twice as many — truncation drops the oldest
/// half in one amortized-O(1) step).  The scheduler's `arrivals`/`departures`
/// counters are unaffected, so `query` still reports the true event totals; only
/// the replayable cost history is bounded, which is what keeps a long-lived
/// tenant's memory and query latency O(window), not O(lifetime).
pub const TRAJECTORY_WINDOW: usize = 65_536;

/// Largest machine capacity `g` the wire accepts for `open`/`restore`.  The
/// in-process API trusts its caller, but a network client must not be able to make
/// one machine allocate `capacity` thread sets (an `open` with a huge `g` followed
/// by one arrival would otherwise abort the daemon on allocation failure).  2^20
/// threads per machine is far beyond any workload the paper's model contemplates.
pub const MAX_CAPACITY: usize = 1 << 20;

/// Largest absolute tick coordinate the wire accepts in a job window.  Keeps every
/// length and cost the scheduler derives far away from `i64` overflow (a window of
/// `[-i64::MAX/2, i64::MAX/2)` would wrap the busy-time arithmetic); ±2^42 ticks is
/// ~139 years at nanosecond resolution.
pub const MAX_ABS_TICK: i64 = 1 << 42;

/// Largest job id the wire accepts in `arrive` and in a restored snapshot.  The
/// journal and the snapshot store write ids as JSON integers, which read back
/// only up to `i64::MAX`: a larger id would be acknowledged live and then lost
/// with everything after it on restart.
const MAX_JOB_ID: u64 = i64::MAX as u64;

/// Parse and bound-check one wire job window.
///
/// The two bounds exist because the wire is a trust boundary the in-process API is
/// not: an empty window is a caller mistake, and a coordinate outside
/// [`MAX_ABS_TICK`] would let a single request overflow the `i64` length/cost
/// arithmetic downstream (wrapping the tenant's accounting in release builds,
/// panicking the shard in debug builds).
pub(super) fn checked_window(start: i64, end: i64) -> Result<Interval, String> {
    if start.checked_abs().is_none_or(|s| s > MAX_ABS_TICK)
        || end.checked_abs().is_none_or(|e| e > MAX_ABS_TICK)
    {
        return Err(format!(
            "job window [{start}, {end}) is out of range (ticks must stay within ±{MAX_ABS_TICK})"
        ));
    }
    Interval::try_new(Time::new(start), Time::new(end))
        .map_err(|_| format!("job window [{start}, {end}) is empty"))
}

/// The error a durability-only operation gets on an in-memory registry.
const DURABILITY_DISABLED: &str = "durability is not enabled (start the server with --data-dir)";

/// Apply one tenant-scoped request to a shard's state.
pub(super) fn apply(state: &mut ShardState, request: Request) -> Response {
    match request {
        Request::Open {
            tenant,
            capacity,
            policy,
        } => {
            let policy = match policy.as_deref().map(OnlinePolicy::parse) {
                None => OnlinePolicy::FirstFit,
                Some(Ok(policy)) => policy,
                Some(Err(error)) => return Response::fail(ErrorCode::Rejected, error),
            };
            if capacity > MAX_CAPACITY {
                return Response::fail(
                    ErrorCode::Rejected,
                    format!("capacity {capacity} exceeds the server limit of {MAX_CAPACITY}"),
                );
            }
            if state.tenants.contains_key(&tenant) {
                return Response::fail(
                    ErrorCode::AlreadyOpen,
                    format!("tenant '{tenant}' is already open"),
                );
            }
            match OnlineScheduler::new(capacity, policy) {
                Ok(scheduler) => insert_tenant(state, tenant, scheduler),
                Err(error) => Response::fail(ErrorCode::Rejected, error.to_string()),
            }
        }
        Request::Arrive { tenant, id, job } => {
            if id > MAX_JOB_ID {
                return Response::fail(
                    ErrorCode::Rejected,
                    format!("job id {id} is out of range (ids must stay within 0..={MAX_JOB_ID})"),
                );
            }
            let interval = match checked_window(job.0, job.1) {
                Ok(interval) => interval,
                Err(error) => return Response::fail(ErrorCode::Rejected, error),
            };
            apply_logged(state, &tenant, Event::arrival(id, interval))
        }
        Request::Depart { tenant, id } => apply_logged(state, &tenant, Event::departure(id)),
        Request::Query { tenant } => with_tenant(&mut state.tenants, &tenant, |t| {
            Response::Query(SimulationReport::from_scheduler(
                &t.scheduler,
                t.trajectory.clone(),
            ))
        }),
        Request::Snapshot { tenant } => with_tenant(&mut state.tenants, &tenant, |t| {
            Response::Snapshot(t.scheduler.snapshot())
        }),
        Request::Restore { tenant, snapshot } => {
            // The same wire bounds as `open`/`arrive`: a snapshot is caller-supplied
            // data, not something this server necessarily produced.
            if snapshot.capacity > MAX_CAPACITY {
                return Response::fail(
                    ErrorCode::Rejected,
                    format!(
                        "snapshot capacity {} exceeds the server limit of {MAX_CAPACITY}",
                        snapshot.capacity
                    ),
                );
            }
            if let Some(job) = snapshot
                .jobs
                .iter()
                .find(|job| job.id > MAX_JOB_ID || checked_window(job.start, job.end).is_err())
            {
                return Response::fail(
                    ErrorCode::Rejected,
                    format!(
                        "snapshot job {} has an out-of-range id or an out-of-range or empty \
                         window [{}, {})",
                        job.id, job.start, job.end
                    ),
                );
            }
            match OnlineScheduler::restore(&snapshot) {
                Ok(scheduler) => insert_tenant(state, tenant, scheduler),
                Err(error) => Response::fail(ErrorCode::Rejected, error.to_string()),
            }
        }
        Request::Close { tenant } => {
            if !state.tenants.contains_key(&tenant) {
                return Response::fail(
                    ErrorCode::UnknownTenant,
                    format!("unknown tenant '{tenant}'"),
                );
            }
            // Disk first: if the durable state cannot be removed, the tenant
            // stays open rather than resurrecting on the next start.
            if let Some(shard_store) = &state.store {
                if let Err(error) = shard_store.store.remove_tenant(&tenant) {
                    return Response::error(format!(
                        "cannot remove tenant '{tenant}' from the data directory: {error}"
                    ));
                }
            }
            state.tenants.remove(&tenant);
            Response::Ok
        }
        Request::Persist { tenant } => with_tenant(&mut state.tenants, &tenant, |t| {
            let json = snapshot_json(&t.scheduler);
            match t.log.as_mut() {
                Some(log) => match log.compact(&json) {
                    Ok(()) => Response::Wal(log.stats()),
                    Err(error) => {
                        Response::error(format!("compaction failed for tenant '{tenant}': {error}"))
                    }
                },
                None => Response::fail(ErrorCode::Unsupported, DURABILITY_DISABLED),
            }
        }),
        Request::WalStats { tenant } => {
            with_tenant(&mut state.tenants, &tenant, |t| match t.log.as_mut() {
                Some(log) => Response::Wal(log.stats()),
                None => Response::fail(ErrorCode::Unsupported, DURABILITY_DISABLED),
            })
        }
        // A shard-local census used by `Engine::stats`; `shards`/`requests` are
        // filled in by the merge.
        Request::Stats => Response::Stats {
            shards: 1,
            tenants: state.tenants.len(),
            requests: 0,
        },
        // A shard-local census used by `Engine::health`: tenant count and the
        // summed un-synced WAL backlog; the queue/shed/respawn figures are
        // engine-side and merged there.
        Request::Health => Response::Health(HealthReport {
            shards: vec![ShardHealth {
                shard: 0,
                tenants: state.tenants.len(),
                wal_backlog: state
                    .tenants
                    .values()
                    .map(|t| t.log.as_ref().map_or(0, |log| log.pending() as u64))
                    .sum::<u64>(),
                ..ShardHealth::default()
            }],
            degraded: Vec::new(),
        }),
        Request::Compact { tenant, budget } => {
            let Some(t) = state.tenants.get_mut(&tenant) else {
                return Response::fail(
                    ErrorCode::UnknownTenant,
                    format!("unknown tenant '{tenant}'"),
                );
            };
            match compact_tenant(t, &tenant, budget) {
                Ok(effect) => Response::Compact {
                    moves: effect.moves,
                    cost_delta: effect.cost_delta,
                    cost: effect.cost.ticks(),
                },
                Err(error) => {
                    state.tenants.remove(&tenant);
                    Response::error(error)
                }
            }
        }
        Request::Batch { .. } => {
            Response::fail(ErrorCode::Rejected, "batch requests are not tenant-scoped")
        }
    }
}

/// Run one budgeted defragmentation pass on a tenant.
///
/// Compaction is not a new event — it reprices the placements the latest event
/// left behind — so it *amends* the tenant's last trajectory point to the
/// post-compaction cost instead of appending one.  A pass that committed at
/// least one move is journaled through the same mutation path events take
/// (`compact` replays deterministically against the same placements); a no-op
/// pass is the identity, so skipping its record keeps replay exact.  A failed
/// journal append comes back as the message the caller must drop the tenant
/// with, exactly like a failed event append — never acknowledge a mutation
/// that would vanish on restart.
fn compact_tenant(t: &mut Tenant, tenant: &str, budget: usize) -> Result<CompactEffect, String> {
    let effect = t.scheduler.compact(budget);
    if effect.moves > 0 {
        if let Some(last) = t.trajectory.last_mut() {
            *last = effect.cost.ticks();
        }
        if let Some(log) = t.log.as_mut() {
            let record = JournalRecord::Compact(budget).encode(tenant);
            if let Err(error) = log.append(record.as_bytes()) {
                return Err(format!(
                    "cannot journal the compaction for tenant '{tenant}': {error}; the tenant \
                     was dropped (its durable state holds every previously acknowledged event)"
                ));
            }
        }
    }
    Ok(effect)
}

/// Insert a freshly built tenant (`open`/`restore`), writing its baseline
/// snapshot to the store first — the ack means "this tenant survives a crash".
/// A restore over an existing tenant only replaces the in-memory state once
/// the new generation is durably begun.
fn insert_tenant(state: &mut ShardState, tenant: String, scheduler: OnlineScheduler) -> Response {
    let log = match &state.store {
        Some(shard_store) => {
            match shard_store
                .store
                .begin_tenant(&tenant, &snapshot_json(&scheduler))
            {
                Ok(log) => Some(log),
                Err(error) => {
                    return Response::error(format!("cannot persist tenant '{tenant}': {error}"));
                }
            }
        }
        None => None,
    };
    state.tenants.insert(
        tenant,
        Tenant {
            scheduler,
            trajectory: Vec::new(),
            log,
        },
    );
    Response::Ok
}

/// Apply one event to a tenant and, on a durable registry, journal it before
/// acknowledging.  If the journal write fails the tenant is dropped from
/// memory (its disk state holds exactly the previously acknowledged events)
/// rather than acknowledging an event that would vanish on restart.  After a
/// successful append, compact inline once the journal crosses the threshold —
/// at most one compaction per request keeps the shard's tail latency bounded.
fn apply_logged(state: &mut ShardState, tenant: &str, event: Event) -> Response {
    let Some(t) = state.tenants.get_mut(tenant) else {
        return Response::fail(
            ErrorCode::UnknownTenant,
            format!("unknown tenant '{tenant}'"),
        );
    };
    let response = apply_event(t, &event);
    if !response.is_ok() {
        return response;
    }
    if let Some(log) = t.log.as_mut() {
        let record = JournalRecord::Event(event).encode(tenant);
        if let Err(error) = log.append(record.as_bytes()) {
            state.tenants.remove(tenant);
            return Response::error(format!(
                "cannot journal the event for tenant '{tenant}': {error}; the tenant was \
                 dropped (its durable state holds every previously acknowledged event)"
            ));
        }
    }
    // Background defragmentation (`serve --defrag-budget K`): one budgeted
    // pass rides behind every journaled event, ordered event-record then
    // compact-record so replay interleaves them exactly as they ran.  The
    // event acknowledgement keeps the pre-compaction cost — compaction happens
    // *between* events; `query` sees the amended trajectory.
    if let Some(budget) = state.defrag_budget {
        if let Err(error) = compact_tenant(t, tenant, budget) {
            state.tenants.remove(tenant);
            return Response::error(error);
        }
    }
    if let Some(log) = t.log.as_mut() {
        let threshold = state
            .store
            .as_ref()
            .map_or(u64::MAX, |s| s.compact_threshold);
        if log.stats().log_records >= threshold {
            // Best effort: a failed compaction leaves the current generation
            // canonical and the journal simply keeps growing until a later
            // attempt succeeds.
            if let Err(error) = log.compact(&snapshot_json(&t.scheduler)) {
                eprintln!("busytime-server: compaction failed for tenant '{tenant}': {error}");
            }
        }
    }
    response
}

/// Run `f` on a tenant, or report it unknown.
fn with_tenant(
    tenants: &mut HashMap<String, Tenant>,
    tenant: &str,
    f: impl FnOnce(&mut Tenant) -> Response,
) -> Response {
    match tenants.get_mut(tenant) {
        Some(t) => f(t),
        None => Response::fail(
            ErrorCode::UnknownTenant,
            format!("unknown tenant '{tenant}'"),
        ),
    }
}

/// Apply one online event to a tenant, recording the trajectory point (bounded to
/// the [`TRAJECTORY_WINDOW`]: when the buffer reaches twice the window, the oldest
/// half is dropped in one step, so the amortized per-event cost stays O(1)).
pub(super) fn apply_event(tenant: &mut Tenant, event: &Event) -> Response {
    match tenant.scheduler.apply(event) {
        Ok(effect) => {
            if tenant.trajectory.len() >= 2 * TRAJECTORY_WINDOW {
                tenant.trajectory.drain(..TRAJECTORY_WINDOW);
            }
            tenant.trajectory.push(effect.cost.ticks());
            Response::Event {
                machine: effect.machine,
                cost_delta: effect.cost_delta,
                cost: effect.cost.ticks(),
            }
        }
        Err(error) => Response::fail(ErrorCode::Rejected, error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrive(tenant: &str, id: u64, job: (i64, i64)) -> Request {
        Request::Arrive {
            tenant: tenant.into(),
            id,
            job,
        }
    }

    #[test]
    fn wire_bounds_reject_hostile_requests() {
        let mut tenants = ShardState::in_memory();
        // A capacity that would make the first arrival allocate `capacity` thread
        // sets is refused at open...
        let Response::Error(e) = apply(
            &mut tenants,
            Request::Open {
                tenant: "t".into(),
                capacity: MAX_CAPACITY + 1,
                policy: None,
            },
        ) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("server limit"), "{e}");
        // ...and at restore.
        let mut snapshot = OnlineScheduler::new(1, OnlinePolicy::FirstFit)
            .unwrap()
            .snapshot();
        snapshot.capacity = MAX_CAPACITY + 1;
        let Response::Error(e) = apply(
            &mut tenants,
            Request::Restore {
                tenant: "t".into(),
                snapshot,
            },
        ) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("server limit"), "{e}");

        // A job window wide enough to overflow i64 length arithmetic is refused
        // before it reaches the scheduler.
        apply(
            &mut tenants,
            Request::Open {
                tenant: "t".into(),
                capacity: 1,
                policy: None,
            },
        );
        for (s, e) in [
            (i64::MIN, i64::MAX),
            (-(MAX_ABS_TICK + 1), 0),
            (0, MAX_ABS_TICK + 1),
        ] {
            let Response::Error(error) = apply(&mut tenants, arrive("t", 1, (s, e))) else {
                panic!("expected an error for [{s}, {e})");
            };
            assert!(error.message.contains("out of range"), "{error}");
        }
        // A snapshot smuggling such a window is refused too.
        let mut scheduler = OnlineScheduler::new(1, OnlinePolicy::FirstFit).unwrap();
        scheduler
            .apply(&Event::arrival(1, Interval::from_ticks(0, 5)))
            .unwrap();
        let mut snapshot = scheduler.snapshot();
        snapshot.jobs[0].start = i64::MIN;
        let Response::Error(error) = apply(
            &mut tenants,
            Request::Restore {
                tenant: "u".into(),
                snapshot,
            },
        ) else {
            panic!("expected an error");
        };
        assert!(error.message.contains("out-of-range"), "{error}");
        // A job id the journal could not read back is refused, at arrive and in
        // a snapshot; the largest one it can is applied.
        let Response::Error(error) = apply(&mut tenants, arrive("t", 1 << 63, (0, 5))) else {
            panic!("expected an error for id 2^63");
        };
        assert_eq!(error.code, ErrorCode::Rejected, "{error}");
        assert!(error.message.contains("out of range"), "{error}");
        let mut snapshot = scheduler.snapshot();
        snapshot.jobs[0].id = 1 << 63;
        let Response::Error(error) = apply(
            &mut tenants,
            Request::Restore {
                tenant: "u".into(),
                snapshot,
            },
        ) else {
            panic!("expected an error for a snapshot id of 2^63");
        };
        assert!(error.message.contains("out-of-range id"), "{error}");
        assert!(apply(&mut tenants, arrive("t", MAX_JOB_ID, (0, 5))).is_ok());
        // In-range requests still flow.
        assert!(apply(&mut tenants, arrive("t", 1, (0, MAX_ABS_TICK))).is_ok());
    }

    #[test]
    fn trajectory_is_bounded_but_counters_are_not() {
        // Drive a tenant far past the retention window (map-level, no channels):
        // memory stays O(window) while the true event totals keep counting.
        let mut tenants = ShardState::in_memory();
        apply(
            &mut tenants,
            Request::Open {
                tenant: "t".into(),
                capacity: 1,
                policy: None,
            },
        );
        let rounds = TRAJECTORY_WINDOW + 5;
        for i in 0..rounds as u64 {
            let s = i as i64;
            assert!(apply(&mut tenants, arrive("t", i, (s, s + 1))).is_ok());
            assert!(apply(
                &mut tenants,
                Request::Depart {
                    tenant: "t".into(),
                    id: i,
                },
            )
            .is_ok());
        }
        let tenant = &tenants.tenants["t"];
        assert!(tenant.trajectory.len() <= 2 * TRAJECTORY_WINDOW);
        assert!(tenant.trajectory.len() >= TRAJECTORY_WINDOW);
        let Response::Query(report) = apply(&mut tenants, Request::Query { tenant: "t".into() })
        else {
            panic!("expected a query response");
        };
        assert_eq!(report.events, 2 * rounds);
        assert_eq!(report.arrivals, rounds);
        assert_eq!(report.departures, rounds);
        assert_eq!(
            report.cost_trajectory.len(),
            tenants.tenants["t"].trajectory.len()
        );
    }
}
