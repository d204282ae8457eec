//! A shard: the tenants one worker thread owns, the supervised mailbox that
//! feeds it, and the loop that receives a batch, applies it and replies.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use busytime::online::OnlineScheduler;
use busytime_durability::{Store, TenantLog};

use super::apply::apply;
use super::recovery::recover_shard;
use crate::faults::{FaultKind, FaultPlan, InjectedKill};
use crate::protocol::{Request, Response};

/// Depth of each shard's request queue.  Bounded so that a shard falling behind
/// applies backpressure to its callers instead of buffering unboundedly.
const SHARD_QUEUE_DEPTH: usize = 64;

/// A shard's handle on the durable store plus the compaction policy.
#[derive(Clone)]
pub(super) struct ShardStore {
    pub(super) store: Store,
    pub(super) compact_threshold: u64,
}

/// Everything one shard worker owns: its tenants, and (when durability is on)
/// its store handle.
pub(super) struct ShardState {
    pub(super) tenants: HashMap<String, Tenant>,
    pub(super) store: Option<ShardStore>,
    /// Moves each auto-defrag pass may commit; `None` disables the pass.
    pub(super) defrag_budget: Option<usize>,
}

impl ShardState {
    /// A store-less shard, as the map-level unit tests drive it.
    #[cfg(test)]
    pub(super) fn in_memory() -> Self {
        ShardState {
            tenants: HashMap::new(),
            store: None,
            defrag_budget: None,
        }
    }
}

/// One tenant's state on its home shard.
pub(super) struct Tenant {
    pub(super) scheduler: OnlineScheduler,
    /// Busy-time after each applied event since open (or since the last restore —
    /// the trajectory restarts at a restore point, the scheduler's counters do
    /// not), bounded to the [`TRAJECTORY_WINDOW`](super::TRAJECTORY_WINDOW) most
    /// recent points.
    pub(super) trajectory: Vec<i64>,
    /// The tenant's write-ahead log; `None` on in-memory registries.
    pub(super) log: Option<TenantLog>,
}

/// A batch of requests en route to one shard, paired with its reply channel.
///
/// The batch is the unit of channel traffic: coalescing `k` decoded requests for
/// the same shard into one bounded-channel send amortizes the synchronization
/// cost that used to be paid per request, while the shard still applies the
/// requests strictly in batch order (so per-tenant ordering is untouched — a
/// tenant lives on exactly one shard).
pub(super) struct ShardCall {
    pub(super) requests: Vec<Request>,
    pub(super) reply: mpsc::SyncSender<Vec<Response>>,
}

/// Live counters for one shard slot, shared between the engine (which fills
/// them) and the `health` report (which reads them).
#[derive(Debug, Default)]
pub(super) struct ShardMetrics {
    /// Requests queued or being applied on the shard right now (approximate:
    /// reset on respawn, saturating on the way down).
    pub(super) queued: AtomicUsize,
    /// Requests shed at this shard's handoff (queue-full timeouts).
    pub(super) shed: AtomicU64,
    /// Times this shard's worker died and was respawned.
    pub(super) respawns: AtomicU64,
}

impl ShardMetrics {
    /// Take `len` requests off the queue depth (saturating: a respawn may have
    /// reset it while they were in flight).
    pub(super) fn release(&self, len: usize) {
        let _ = self
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(len))
            });
    }
}

/// One shard's supervised mailbox: the live sender (swapped on respawn), a
/// generation counter so concurrent callers respawn at most once per death,
/// and the shared metrics.
pub(super) struct ShardSlot {
    pub(super) generation: AtomicU64,
    pub(super) sender: RwLock<mpsc::SyncSender<ShardCall>>,
    pub(super) metrics: Arc<ShardMetrics>,
}

/// Spawns shard workers — at startup and again when one dies — and keeps their
/// join handles for [`Registry::shutdown`](super::Registry::shutdown).
pub(super) struct Supervisor {
    pub(super) shard_store: Option<ShardStore>,
    pub(super) shards: usize,
    pub(super) faults: Option<FaultPlan>,
    pub(super) defrag_budget: Option<usize>,
    pub(super) handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    /// Spawn a fresh worker for `shard`: recover its tenants from the store
    /// (a no-op in-memory), then serve its queue.  Returns the new sender.
    pub(super) fn spawn_worker(
        &self,
        shard: usize,
        metrics: Arc<ShardMetrics>,
    ) -> mpsc::SyncSender<ShardCall> {
        let (tx, rx) = mpsc::sync_channel::<ShardCall>(SHARD_QUEUE_DEPTH);
        let store = self.shard_store.clone();
        let shards = self.shards;
        let faults = self.faults.clone();
        let defrag_budget = self.defrag_budget;
        let handle = std::thread::Builder::new()
            .name(format!("busytime-shard-{shard}"))
            .spawn(move || {
                let mut state = ShardState {
                    tenants: HashMap::new(),
                    store,
                    defrag_budget,
                };
                recover_shard(&mut state, shard, shards);
                shard_loop(rx, state, metrics, faults)
            })
            .expect("spawning a shard worker");
        self.handles
            .lock()
            .expect("supervisor handle lock")
            .push(handle);
        tx
    }
}

/// A shard's event loop until every queue handle is gone: receive a batch,
/// apply it, reply, and release its queue count.
///
/// A planned [`FaultKind::ShardKill`] fires *before* the batch is touched, so
/// nothing was applied and the engine's respawn-and-retry is exactly-once safe.
/// It unwinds with an [`InjectedKill`] payload for `Registry::shutdown` to
/// recognise, skipping the panic hook so a planned death prints nothing.
fn shard_loop(
    rx: mpsc::Receiver<ShardCall>,
    mut state: ShardState,
    metrics: Arc<ShardMetrics>,
    faults: Option<FaultPlan>,
) {
    while let Ok(call) = rx.recv() {
        if faults
            .as_ref()
            .is_some_and(|plan| plan.fire(FaultKind::ShardKill))
        {
            resume_unwind(Box::new(InjectedKill));
        }
        let len = call.requests.len();
        let responses = apply_batch(&mut state, call.requests, faults.as_ref());
        // A caller that hung up (connection dropped mid-request) is not an error.
        let _ = call.reply.send(responses);
        metrics.release(len);
    }
}

/// Apply a batch in order, one response per request.
///
/// A panic while applying a request is contained to that request: the tenant is
/// dropped from memory (its state can no longer be trusted; its durable state
/// holds only acknowledged events and recovers on the next start), the caller
/// gets an `internal` error, and the shard keeps serving its other tenants: no
/// wire client can park a whole shard in the "worker is gone" state.  A planned
/// [`FaultKind::ApplyPanic`] takes the same path without the panic hook.
fn apply_batch(
    state: &mut ShardState,
    requests: Vec<Request>,
    faults: Option<&FaultPlan>,
) -> Vec<Response> {
    requests
        .into_iter()
        .map(|request| {
            let tenant = request.tenant().map(str::to_string);
            let inject_panic =
                tenant.is_some() && faults.is_some_and(|plan| plan.fire(FaultKind::ApplyPanic));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    resume_unwind(Box::new("injected apply panic"));
                }
                apply(state, request)
            }));
            outcome.unwrap_or_else(|_| {
                let detail = match tenant {
                    Some(name) => {
                        state.tenants.remove(&name);
                        format!("; tenant '{name}' was dropped")
                    }
                    None => String::new(),
                };
                Response::error(format!("internal error applying the request{detail}"))
            })
        })
        .collect()
}
