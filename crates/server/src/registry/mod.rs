//! The sharded multi-tenant registry: live schedulers behind bounded channels.
//!
//! Every tenant owns one live [`OnlineScheduler`](busytime::OnlineScheduler) that
//! survives across requests: arrivals and departures mutate it incrementally, so a
//! tenant with a million placed jobs answers its next request in the same
//! `O(log m)` a fresh one would.  Tenants are **hash-sharded** across `N` worker
//! shards; each shard is one OS thread owning its tenants outright, so the hot path
//! takes no lock — the only synchronization is the bounded channel that carries
//! request batches to a shard (backpressure when it falls behind) and the channel
//! that carries its responses back.
//!
//! **One request lifecycle.**  Every request enters through [`Engine::call_many`]
//! ([`Engine::call`] is a batch of one), which the TCP connection threads, the
//! tests and the benchmarks all call.  One match there runs the registry-wide
//! operations engine-side: `batch` fans out through [`Solver::solve_batch`] and
//! never touches a shard, `stats` and `health` merge a census from every shard.
//! Each tenant-scoped request passes admission and joins its home shard's
//! sub-batch, and each sub-batch is submitted as one channel message, counted in
//! the shard's queue depth.  The shard loop receives the batch, applies it,
//! replies and releases the count.  A tenant's requests apply in routing order;
//! different shards work in parallel.
//!
//! One module per decision:
//!
//! * this module — the configs, [`Registry`] and [`Engine`];
//! * `admission` — token buckets and in-flight guards: with an
//!   [`AdmissionConfig`], a flooding tenant is shed with a retryable `overloaded`
//!   error, and a full shard queue is waited on for at most 50 ms;
//! * `shard` — shard state, the supervised mailbox and the shard loop.  A worker
//!   that dies (only by an injected [`FaultPlan`] kill: a panic while applying is
//!   contained to its request) is respawned on the next request routed to it;
//! * `apply` — what each tenant operation does, its wire bounds, and on a durable
//!   registry ([`Registry::with_durability`]) the journal write that precedes
//!   every acknowledgement;
//! * `recovery` — the journal and snapshot formats ([`JournalRecord`]) and the
//!   rebuild of a shard's tenants from disk, at startup and on respawn.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use busytime::report::ScheduleReport;
use busytime::{Duration, Instance, Problem, Solver};
use busytime_durability::{FaultInjector, IoPoint, Store};

use crate::faults::{FaultKind, FaultPlan, InjectedKill};
use crate::protocol::{
    BatchInstance, BatchOutcome, ErrorCode, HealthReport, Request, Response, ShardHealth,
};

mod admission;
mod apply;
mod recovery;
mod shard;

use admission::{Admission, InflightGuard};
pub use apply::{MAX_ABS_TICK, MAX_CAPACITY, TRAJECTORY_WINDOW};
pub use recovery::JournalRecord;
use shard::{ShardCall, ShardMetrics, ShardSlot, ShardStore, Supervisor};

/// How long a shard handoff may wait on a full queue before shedding (with
/// admission control on), and the retry hint an admission shed carries.
const QUEUE_WAIT_MS: u64 = 50;

/// How a durable registry persists its tenants; passed to
/// [`Registry::with_durability`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory for the store — one subdirectory per tenant, created on
    /// demand.  Scanned at startup to rebuild every tenant that was open when
    /// the previous process died.
    pub data_dir: PathBuf,
    /// Group-commit size: `fsync` once per this many journal appends.  Every
    /// append is still `write(2)`-through immediately, so a killed *process*
    /// loses nothing acknowledged; only a machine crash can cost up to
    /// `fsync_batch - 1` trailing events.
    pub fsync_batch: usize,
    /// Compact a tenant's log (snapshot + truncate) once its journal holds
    /// this many records.  Compaction runs inline on the shard, at most once
    /// per applied request, so tail latency is bounded by one snapshot write.
    pub compact_threshold: u64,
}

impl DurabilityConfig {
    /// A config with the default group-commit batch (64) and compaction
    /// threshold (8192 journal records).
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync_batch: 64,
            compact_threshold: 8192,
        }
    }
}

/// Per-tenant admission control and load-shedding policy; opt-in via
/// [`RegistryConfig::admission`].  When present, the shard handoff also becomes
/// bounded-wait: a queue still full after 50 ms sheds the batch with
/// `overloaded` instead of stalling the caller.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-tenant in-flight request cap.  The guard is held from admission
    /// until the response is handed back, so one flooding tenant can keep at
    /// most this many slots of its shard's queue busy.
    pub max_inflight: usize,
    /// Per-tenant rate quota in requests/second (token bucket with a burst of
    /// one second's worth); `None` disables rate limiting.
    pub tenant_rate: Option<f64>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 1024,
            tenant_rate: None,
        }
    }
}

/// Everything [`Registry::with_config`] accepts: shard count plus the opt-in
/// durability, admission, and fault-injection layers.
#[derive(Clone, Default)]
pub struct RegistryConfig {
    /// Worker shards to spawn (clamped to at least 1).
    pub shards: usize,
    /// Persist tenants under this config's data directory when given.
    pub durability: Option<DurabilityConfig>,
    /// Shed per-tenant overload when given; otherwise handoff blocks.
    pub admission: Option<AdmissionConfig>,
    /// Deterministic fault schedule for chaos tests; inert when absent.
    pub faults: Option<FaultPlan>,
    /// Background defragmentation budget: when given, every applied event is
    /// followed by one `compact(K)` pass on its tenant (journaled through the
    /// same mutation path, so recovery replays it at the same point).
    pub defrag_budget: Option<usize>,
}

impl RegistryConfig {
    /// An in-memory config with `shards` workers and no optional layers.
    pub fn new(shards: usize) -> Self {
        RegistryConfig {
            shards,
            ..RegistryConfig::default()
        }
    }
}

/// The running registry: shard worker threads plus the shared counters.
///
/// Simply dropping the registry *detaches* the shard workers (they exit once every
/// queue handle is gone, but nobody observes how); call [`Registry::shutdown`] for
/// an orderly stop that joins the workers and surfaces any worker panic.
pub struct Registry {
    engine: Engine,
}

impl Registry {
    /// Spawn `shards` purely in-memory worker shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self::with_config(RegistryConfig::new(shards))
            .expect("an in-memory registry touches no disk")
    }

    /// Spawn `shards` worker shards (clamped to at least 1), persisting every
    /// tenant under `durability.data_dir` when a config is given.  Each shard
    /// rebuilds its own tenants from the data directory before serving its
    /// first request (requests queue behind recovery, so callers simply see
    /// the first responses after the rebuild).  A tenant whose on-disk state
    /// cannot be restored is skipped with a diagnostic on stderr — the server
    /// keeps serving every tenant that does recover.
    pub fn with_durability(
        shards: usize,
        durability: Option<DurabilityConfig>,
    ) -> std::io::Result<Self> {
        Self::with_config(RegistryConfig {
            shards,
            durability,
            ..RegistryConfig::default()
        })
    }

    /// Spawn a registry from a full [`RegistryConfig`]: shard count plus the
    /// opt-in durability, admission-control, and fault-injection layers.
    pub fn with_config(config: RegistryConfig) -> std::io::Result<Self> {
        let shards = config.shards.max(1);
        let shard_store = match config.durability {
            Some(durability) => {
                let mut store = Store::open(&durability.data_dir, durability.fsync_batch)?;
                if let Some(plan) = &config.faults {
                    let plan = plan.clone();
                    store.set_injector(Some(FaultInjector::new(move |point| {
                        let (kind, what) = match point {
                            IoPoint::Append => {
                                (FaultKind::WalAppend, "injected WAL append failure")
                            }
                            IoPoint::Sync => (FaultKind::WalSync, "injected WAL fsync failure"),
                        };
                        plan.fire(kind).then(|| std::io::Error::other(what))
                    })));
                }
                Some(ShardStore {
                    store,
                    compact_threshold: durability.compact_threshold.max(1),
                })
            }
            None => None,
        };
        let supervisor = Arc::new(Supervisor {
            shard_store,
            shards,
            faults: config.faults.clone(),
            defrag_budget: config.defrag_budget.filter(|&k| k > 0),
            handles: Mutex::new(Vec::with_capacity(shards)),
        });
        let slots: Vec<ShardSlot> = (0..shards)
            .map(|shard| {
                let metrics = Arc::new(ShardMetrics::default());
                let sender = supervisor.spawn_worker(shard, metrics.clone());
                ShardSlot {
                    generation: AtomicU64::new(0),
                    sender: RwLock::new(sender),
                    metrics,
                }
            })
            .collect();
        Ok(Registry {
            engine: Engine {
                shards: Arc::new(slots),
                requests: Arc::new(AtomicU64::new(0)),
                solver: Solver::new(),
                admission: config.admission.map(|a| Arc::new(Admission::new(a))),
                faults: config.faults,
                supervisor,
            },
        })
    }

    /// A cloneable handle on the registry; every connection thread gets one.
    pub fn engine(&self) -> Engine {
        self.engine.clone()
    }

    /// Drop the registry's own queue handles and join the shard workers.  Blocks
    /// until every outstanding [`Engine`] clone has dropped as well.  Worker
    /// deaths planned by a [`FaultPlan`] are expected and tolerated; any other
    /// worker panic is resurfaced here.
    pub fn shutdown(self) {
        let Registry { engine } = self;
        let supervisor = engine.supervisor.clone();
        drop(engine);
        // Respawns may add handles while earlier ones are being joined, so
        // drain until the list stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut guard = supervisor.handles.lock().expect("supervisor handle lock");
                guard.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                if let Err(panic) = handle.join() {
                    if !panic.is::<InjectedKill>() {
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
    }
}

/// How a shard handoff failed.
enum ShardSendError {
    /// The queue stayed full past the bounded-wait deadline (admission only).
    Full,
    /// The worker is dead and a respawn retry also failed.
    Gone,
}

/// The cloneable front door of the registry: routes tenant operations to their home
/// shard over the bounded queues and runs batch solves on the thread pool.
#[derive(Clone)]
pub struct Engine {
    shards: Arc<Vec<ShardSlot>>,
    requests: Arc<AtomicU64>,
    solver: Solver,
    admission: Option<Arc<Admission>>,
    faults: Option<FaultPlan>,
    supervisor: Arc<Supervisor>,
}

impl Engine {
    /// Number of worker shards behind this engine.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `tenant` (stable for the registry's lifetime).
    pub fn shard_for(&self, tenant: &str) -> usize {
        shard_index(tenant, self.shards.len())
    }

    /// The fault plan this engine was built with, if any (the serve loop
    /// consults it for connection-level faults).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Apply one request and wait for its response: [`Engine::call_many`] of a
    /// batch of one.
    pub fn call(&self, request: Request) -> Response {
        self.call_many(vec![request])
            .pop()
            .unwrap_or_else(dropped_request)
    }

    /// Apply a batch of requests and return their responses in request order.
    ///
    /// This is the one dispatch path.  The batch is partitioned per shard with
    /// relative order preserved, each shard gets **one** bounded-channel send for
    /// its whole sub-batch, and the replies are reassembled into request order.
    /// Registry-wide requests (`batch`, `stats`, `health`) run engine-side at
    /// their position in the batch, before the shard sub-batches dispatch.
    pub fn call_many(&self, requests: Vec<Request>) -> Vec<Response> {
        self.requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let mut slots: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
        let mut guards: Vec<InflightGuard> = Vec::new();
        let mut per_shard: Vec<(Vec<usize>, Vec<Request>)> = (0..self.shards.len())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (i, request) in requests.into_iter().enumerate() {
            match request {
                Request::Batch { instances, budget } => {
                    slots[i] = Some(self.solve_batch(&instances, budget));
                }
                Request::Stats => slots[i] = Some(self.stats()),
                Request::Health => slots[i] = Some(self.health()),
                request => {
                    let tenant = request.tenant().expect("routed ops are tenant-scoped");
                    // The in-flight guard is held until the response is collected.
                    let admitted = match &self.admission {
                        Some(admission) => admission.admit(tenant).map(Some),
                        None => Ok(None),
                    };
                    match admitted {
                        Err(response) => slots[i] = Some(response),
                        Ok(guard) => {
                            guards.extend(guard);
                            let shard = self.shard_for(tenant);
                            per_shard[shard].0.push(i);
                            per_shard[shard].1.push(request);
                        }
                    }
                }
            }
        }
        // Submit every sub-batch before waiting on any reply, so the shards run
        // in parallel; then fill the slots back in request order.  A worker that
        // died mid-batch never replies, and its slots stay empty.
        let submitted: Vec<(Vec<usize>, mpsc::Receiver<Vec<Response>>)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, (indices, _))| !indices.is_empty())
            .map(|(shard, (indices, batch))| (indices, self.submit(shard, batch)))
            .collect();
        for (indices, replies) in submitted {
            for (i, response) in indices.into_iter().zip(replies.recv().unwrap_or_default()) {
                slots[i] = Some(response);
            }
        }
        drop(guards);
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(dropped_request))
            .collect()
    }

    /// Hand one batch to `shard`, counting it in the shard's queue depth until
    /// the worker replies, and return the channel its responses arrive on.  A
    /// batch the shard cannot take is answered on that channel at once (shed or
    /// `unavailable`), its count released.
    fn submit(&self, shard: usize, requests: Vec<Request>) -> mpsc::Receiver<Vec<Response>> {
        let metrics = &self.shards[shard].metrics;
        let len = requests.len();
        metrics.queued.fetch_add(len, Ordering::Relaxed);
        let (reply, replies) = mpsc::sync_channel(1);
        if let Err((ShardCall { requests, reply }, error)) =
            self.send_to_shard(shard, ShardCall { requests, reply })
        {
            metrics.release(len);
            let _ = reply.send(self.send_failure(shard, &requests, error));
        }
        replies
    }

    /// Hand one batch to a shard's queue.
    ///
    /// Without admission control this blocks until the queue accepts the batch
    /// (the original backpressure semantics).  With admission control the wait
    /// is bounded by 50 ms, after which the batch comes back as
    /// [`ShardSendError::Full`] for the caller to shed.  A dead worker is
    /// respawned once (its tenants recover from the WAL when durability is on)
    /// and the send retried — safe because a failed send never delivered the
    /// batch — before giving up as [`ShardSendError::Gone`].
    fn send_to_shard(
        &self,
        shard: usize,
        mut call: ShardCall,
    ) -> Result<(), (ShardCall, ShardSendError)> {
        let slot = &self.shards[shard];
        for attempt in 0..2 {
            let (sender, generation) = {
                let guard = slot.sender.read().expect("shard sender lock");
                (guard.clone(), slot.generation.load(Ordering::Acquire))
            };
            match &self.admission {
                None => match sender.send(call) {
                    Ok(()) => return Ok(()),
                    Err(mpsc::SendError(returned)) => call = returned,
                },
                Some(_) => {
                    let deadline = Instant::now() + std::time::Duration::from_millis(QUEUE_WAIT_MS);
                    loop {
                        match sender.try_send(call) {
                            Ok(()) => return Ok(()),
                            Err(mpsc::TrySendError::Full(returned)) => {
                                call = returned;
                                if Instant::now() >= deadline {
                                    return Err((call, ShardSendError::Full));
                                }
                                std::thread::sleep(std::time::Duration::from_micros(100));
                            }
                            Err(mpsc::TrySendError::Disconnected(returned)) => {
                                call = returned;
                                break;
                            }
                        }
                    }
                }
            }
            if attempt == 0 {
                self.respawn_shard(shard, generation);
            }
        }
        Err((call, ShardSendError::Gone))
    }

    /// Replace a dead shard worker, unless another caller already did (the
    /// generation moved past what this caller observed).
    fn respawn_shard(&self, shard: usize, observed_generation: u64) {
        let slot = &self.shards[shard];
        let mut sender = slot.sender.write().expect("shard sender lock");
        if slot.generation.load(Ordering::Acquire) != observed_generation {
            return;
        }
        *sender = self.supervisor.spawn_worker(shard, slot.metrics.clone());
        slot.generation.fetch_add(1, Ordering::AcqRel);
        slot.metrics.respawns.fetch_add(1, Ordering::Relaxed);
        slot.metrics.queued.store(0, Ordering::Relaxed);
    }

    /// Turn an undeliverable batch into its per-request error responses,
    /// recording the shed against the shard and each tenant.
    fn send_failure(
        &self,
        shard: usize,
        requests: &[Request],
        error: ShardSendError,
    ) -> Vec<Response> {
        match error {
            ShardSendError::Full => {
                let slot = &self.shards[shard];
                slot.metrics
                    .shed
                    .fetch_add(requests.len() as u64, Ordering::Relaxed);
                requests
                    .iter()
                    .map(|request| {
                        if let (Some(admission), Some(tenant)) = (&self.admission, request.tenant())
                        {
                            admission.note_shed(tenant);
                        }
                        Response::overloaded(format!("shard {shard} queue is full"), QUEUE_WAIT_MS)
                    })
                    .collect()
            }
            ShardSendError::Gone => requests
                .iter()
                .map(|_| Response::fail(ErrorCode::Unavailable, "the shard worker is gone"))
                .collect(),
        }
    }

    /// Server-wide counters, merged over a per-shard census.
    fn stats(&self) -> Response {
        let mut tenants = 0usize;
        for shard in 0..self.shards.len() {
            match self
                .submit(shard, vec![Request::Stats])
                .recv()
                .unwrap_or_default()
                .pop()
            {
                Some(Response::Stats { tenants: t, .. }) => tenants += t,
                Some(other) => return other,
                None => return dropped_request(),
            }
        }
        Response::Stats {
            shards: self.shards.len(),
            tenants,
            requests: self.requests.load(Ordering::Relaxed),
        }
    }

    /// A server-wide health report: per-shard queue/shed/respawn counters kept
    /// engine-side, a tenant/WAL census collected from each shard, and the
    /// tenants admission control has shed from.  A shard that cannot answer
    /// its census contributes zeros rather than failing the report — `health`
    /// must stay useful precisely when shards are struggling.
    fn health(&self) -> Response {
        let mut shards = Vec::with_capacity(self.shards.len());
        for (index, slot) in self.shards.iter().enumerate() {
            let mut health = ShardHealth {
                shard: index,
                queue_depth: slot.metrics.queued.load(Ordering::Relaxed),
                shed: slot.metrics.shed.load(Ordering::Relaxed),
                respawns: slot.metrics.respawns.load(Ordering::Relaxed),
                ..ShardHealth::default()
            };
            if let Some(Response::Health(census)) = self
                .submit(index, vec![Request::Health])
                .recv()
                .unwrap_or_default()
                .pop()
            {
                if let Some(local) = census.shards.first() {
                    health.tenants = local.tenants;
                    health.wal_backlog = local.wal_backlog;
                }
            }
            shards.push(health);
        }
        let degraded = self
            .admission
            .as_ref()
            .map(|a| a.degraded())
            .unwrap_or_default();
        Response::Health(HealthReport { shards, degraded })
    }

    /// Fan a batch of instances out through [`Solver::solve_batch`]; per-instance
    /// failures (malformed windows, zero capacity) come back inline without failing
    /// the sibling instances.
    fn solve_batch(&self, instances: &[BatchInstance], budget: Option<i64>) -> Response {
        let budget = match budget {
            Some(t) if t < 0 => {
                return Response::fail(ErrorCode::Rejected, "the budget must be non-negative")
            }
            Some(t) => Some(Duration::new(t)),
            None => None,
        };
        let parsed: Vec<Result<Instance, String>> = instances
            .iter()
            .enumerate()
            .map(|(i, file)| {
                Instance::try_from_ticks(&file.jobs, file.capacity)
                    .map_err(|e| format!("instance {i}: {e}"))
            })
            .collect();
        let problems: Vec<Problem> = parsed
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|instance| match budget {
                Some(t) => Problem::max_throughput(instance.clone(), t),
                None => Problem::min_busy(instance.clone()),
            })
            .collect();
        let mut solved = self.solver.solve_batch(&problems).into_iter();
        let outcomes: Vec<BatchOutcome> = parsed
            .into_iter()
            .map(|parse| match parse {
                Err(error) => BatchOutcome::Failed(error),
                Ok(instance) => match solved.next().expect("one result per valid instance") {
                    Ok(solution) => {
                        BatchOutcome::Solved(ScheduleReport::from_solution(&instance, &solution))
                    }
                    Err(error) => BatchOutcome::Failed(error.to_string()),
                },
            })
            .collect();
        Response::Batch(outcomes)
    }
}

/// The answer for a request whose shard worker died before replying.
fn dropped_request() -> Response {
    Response::fail(
        ErrorCode::Unavailable,
        "the shard worker dropped the request",
    )
}

/// The shard a tenant name hashes to, shared by request routing and startup
/// recovery (a recovered tenant must land on the shard that will serve it).
fn shard_index(tenant: &str, shards: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    tenant.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
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
    fn tenant_lifecycle_through_the_engine() {
        let registry = Registry::new(2);
        let engine = registry.engine();
        assert!(engine
            .call(Request::Open {
                tenant: "a".into(),
                capacity: 2,
                policy: None,
            })
            .is_ok());
        // Re-opening is an error; the original state is untouched.
        assert!(!engine
            .call(Request::Open {
                tenant: "a".into(),
                capacity: 9,
                policy: None,
            })
            .is_ok());

        let r = engine.call(arrive("a", 1, (0, 10)));
        let Response::Event {
            machine,
            cost_delta,
            cost,
        } = r
        else {
            panic!("expected an event response, got {r:?}");
        };
        assert_eq!((machine, cost_delta, cost), (0, 10, 10));
        engine.call(arrive("a", 2, (4, 12)));
        let r = engine.call(Request::Depart {
            tenant: "a".into(),
            id: 1,
        });
        assert!(r.is_ok());

        let Response::Query(report) = engine.call(Request::Query { tenant: "a".into() }) else {
            panic!("expected a query response");
        };
        assert_eq!(report.arrivals, 2);
        assert_eq!(report.departures, 1);
        assert_eq!(report.cost_trajectory, vec![10, 12, 8]);
        assert_eq!(report.live_jobs, 1);

        assert!(engine.call(Request::Close { tenant: "a".into() }).is_ok());
        assert!(!engine.call(Request::Query { tenant: "a".into() }).is_ok());
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn errors_name_the_problem() {
        let registry = Registry::new(1);
        let engine = registry.engine();
        let Response::Error(e) = engine.call(Request::Query {
            tenant: "ghost".into(),
        }) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("ghost"), "{e}");
        assert_eq!(e.code, ErrorCode::UnknownTenant);
        assert!(engine
            .call(Request::Open {
                tenant: "t".into(),
                capacity: 1,
                policy: None,
            })
            .is_ok());
        let Response::Error(e) = engine.call(arrive("t", 1, (5, 5))) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("[5, 5)"), "{e}");
        assert_eq!(e.code, ErrorCode::Rejected);
        let Response::Error(e) = engine.call(Request::Depart {
            tenant: "t".into(),
            id: 42,
        }) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("42"), "{e}");
        // Reopening an open tenant gets the dedicated code clients branch on.
        let Response::Error(e) = engine.call(Request::Open {
            tenant: "t".into(),
            capacity: 1,
            policy: None,
        }) else {
            panic!("expected an error");
        };
        assert_eq!(e.code, ErrorCode::AlreadyOpen);
        // An unknown policy is rejected at open.
        let Response::Error(e) = engine.call(Request::Open {
            tenant: "u".into(),
            capacity: 1,
            policy: Some("bogus".into()),
        }) else {
            panic!("expected an error");
        };
        assert!(e.message.contains("bogus"), "{e}");
        assert_eq!(e.code, ErrorCode::Rejected);
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn snapshot_restore_moves_tenants() {
        let registry = Registry::new(2);
        let engine = registry.engine();
        engine.call(Request::Open {
            tenant: "src".into(),
            capacity: 1,
            policy: Some("best-fit".into()),
        });
        engine.call(arrive("src", 1, (0, 10)));
        engine.call(arrive("src", 2, (5, 15)));
        let Response::Snapshot(snapshot) = engine.call(Request::Snapshot {
            tenant: "src".into(),
        }) else {
            panic!("expected a snapshot");
        };
        // Restore under a *different* tenant name (possibly another shard).
        assert!(engine
            .call(Request::Restore {
                tenant: "dst".into(),
                snapshot,
            })
            .is_ok());
        let Response::Query(src) = engine.call(Request::Query {
            tenant: "src".into(),
        }) else {
            panic!()
        };
        let Response::Query(dst) = engine.call(Request::Query {
            tenant: "dst".into(),
        }) else {
            panic!()
        };
        assert_eq!(src.final_cost, dst.final_cost);
        assert_eq!(src.machine_groups, dst.machine_groups);
        assert_eq!(src.arrivals, dst.arrivals);
        // The trajectory restarts at the restore point by design.
        assert!(dst.cost_trajectory.is_empty());
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn batch_and_stats() {
        let registry = Registry::new(3);
        let engine = registry.engine();
        engine.call(Request::Open {
            tenant: "a".into(),
            capacity: 1,
            policy: None,
        });
        engine.call(Request::Open {
            tenant: "b".into(),
            capacity: 1,
            policy: None,
        });
        let Response::Batch(outcomes) = engine.call(Request::Batch {
            instances: vec![
                BatchInstance {
                    capacity: 2,
                    jobs: vec![(0, 10), (2, 12)],
                },
                BatchInstance {
                    capacity: 0,
                    jobs: vec![(0, 1)],
                },
            ],
            budget: None,
        }) else {
            panic!("expected a batch response");
        };
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(&outcomes[0], BatchOutcome::Solved(r) if r.scheduled_jobs == 2));
        assert!(matches!(&outcomes[1], BatchOutcome::Failed(e) if e.contains("instance 1")));
        assert!(matches!(
            engine.call(Request::Batch {
                instances: vec![],
                budget: Some(-3),
            }),
            Response::Error(_)
        ));

        let Response::Stats {
            shards,
            tenants,
            requests,
        } = engine.call(Request::Stats)
        else {
            panic!("expected stats");
        };
        assert_eq!(shards, 3);
        assert_eq!(tenants, 2);
        assert!(requests >= 4);
        drop(engine);
        registry.shutdown();
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let registry = Registry::new(4);
        let engine = registry.engine();
        for name in ["a", "b", "c", "tenant-42", ""] {
            let s = engine.shard_for(name);
            assert!(s < 4);
            assert_eq!(s, engine.shard_for(name));
        }
        drop(engine);
        registry.shutdown();
    }
}
