//! Event-driven online scheduling: a live schedule maintained under job arrivals and
//! departures.
//!
//! The paper's busy-time model is inherently temporal — jobs are fixed intervals and a
//! machine is "on" exactly while hosting work — yet the offline algorithms all consume a
//! complete [`crate::instance::Instance`] up front.  This module opens the
//! arrival/departure workload class: an [`OnlineScheduler`] consumes a time-ordered
//! stream of [`Event`]s and keeps a live schedule **incrementally**,
//!
//! * placing each arrival through the shared [`MachinePool`] engine (the same
//!   [`crate::placement::PlacementIndex`]-backed first-fit / best-fit selection the
//!   offline greedies use),
//! * handling each departure through the pool's remove/reopen path — the machine's
//!   digest is refreshed in `O(log m)` (hull tightened, saturated stretch dropped only
//!   when touched), never rebuilt, so machines whose load falls below `g` immediately
//!   re-enter the candidate streams,
//! * tracking the running busy-time cost as the marginal deltas the per-machine
//!   [`busytime_interval::SweepSet`] coverage profiles report, with no from-scratch
//!   recomputation at any event.
//!
//! Replaying a static instance as an arrivals-only trace reproduces the offline greedy
//! exactly — the differential oracle the test suite pins (`tests/online_offline_oracle`):
//! online FirstFit ≡ `minbusy::first_fit_in_order`, online BestFit ≡ the best-fit
//! greedy of `maxthroughput::greedy_fallback` under an unbounded budget.
//!
//! ```
//! use busytime::online::{Event, OnlinePolicy, OnlineScheduler};
//! use busytime::{Duration, Interval};
//!
//! let mut scheduler = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
//! scheduler.apply(&Event::arrival(1, Interval::from_ticks(0, 10))).unwrap();
//! scheduler.apply(&Event::arrival(2, Interval::from_ticks(5, 15))).unwrap();
//! scheduler.apply(&Event::arrival(3, Interval::from_ticks(7, 12))).unwrap();
//! // Capacity 2: jobs 1 and 2 share machine 0, job 3 opens machine 1.
//! assert_eq!(scheduler.machine_count(), 2);
//! assert_eq!(scheduler.cost(), Duration::new(15 + 5));
//! // Job 1 departs: machine 0's busy time shrinks to [5, 15) and its slot reopens.
//! scheduler.apply(&Event::departure(1)).unwrap();
//! assert_eq!(scheduler.cost(), Duration::new(10 + 5));
//! assert_eq!(scheduler.live_count(), 2);
//! ```

use core::fmt;
use std::collections::BTreeMap;

use busytime_interval::{Duration, Interval, Time};
use serde::{Deserialize, Serialize};

use crate::machine::{MachinePool, MachineState};
use crate::schedule::MachineId;

/// Identifier of an online job, assigned by the trace source and stable across the
/// job's lifetime (arrival and departure carry the same id).
pub type OnlineJobId = u64;

/// One step of an online workload: a job arriving or a previously arrived job leaving.
///
/// Events carry no explicit timestamp — the *stream order* is the online order (an
/// arrival's interval start is its natural arrival time, and trace generators emit
/// events sorted that way, departures before arrivals at equal ticks to match the
/// half-open interval semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A new job becomes known and must be placed immediately.
    Arrival {
        /// The job's stable id.
        id: OnlineJobId,
        /// The job's processing interval.
        interval: Interval,
    },
    /// A live job leaves the system (cancellation or early completion) and frees its
    /// slot.
    Departure {
        /// The id the job arrived under.
        id: OnlineJobId,
    },
}

impl Event {
    /// An arrival event.
    pub fn arrival(id: OnlineJobId, interval: Interval) -> Self {
        Event::Arrival { id, interval }
    }

    /// A departure event.
    pub fn departure(id: OnlineJobId) -> Self {
        Event::Departure { id }
    }
}

/// A self-contained online workload: the machine capacity plus the time-ordered event
/// stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The parallelism parameter `g` of every machine.
    pub capacity: usize,
    /// The events, in online order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Bundle a capacity and an event stream.
    pub fn new(capacity: usize, events: Vec<Event>) -> Self {
        Trace { capacity, events }
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The placement rule an [`OnlineScheduler`] applies to each arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OnlinePolicy {
    /// First machine (first thread) that can run the job — the online form of the
    /// FirstFit baseline of \[13\].
    FirstFit,
    /// The placement with the smallest busy-time increase, earliest machine on ties —
    /// the online form of the best-fit greedy fallback.
    BestFit,
    /// FirstFit inside geometric length buckets (bucket `b` holds jobs with
    /// `2^b ≤ len < 2^{b+1}`, each bucket on its own machines) — the online mirror of
    /// the offline BucketFirstFit idea of Section 3.4, which caps the length spread
    /// `γ` each machine sees at 2.
    BucketByLength,
}

impl OnlinePolicy {
    /// Every policy, in CLI listing order.
    pub fn all() -> &'static [OnlinePolicy] {
        &[
            OnlinePolicy::FirstFit,
            OnlinePolicy::BestFit,
            OnlinePolicy::BucketByLength,
        ]
    }

    /// The stable kebab-case name (CLI flag values, report columns).
    pub fn name(self) -> &'static str {
        match self {
            OnlinePolicy::FirstFit => "first-fit",
            OnlinePolicy::BestFit => "best-fit",
            OnlinePolicy::BucketByLength => "bucket-by-length",
        }
    }

    /// Parse the CLI spelling of a policy name.
    pub fn parse(text: &str) -> Result<Self, String> {
        OnlinePolicy::all()
            .iter()
            .copied()
            .find(|p| p.name() == text)
            .ok_or_else(|| {
                let names: Vec<&str> = OnlinePolicy::all().iter().map(|p| p.name()).collect();
                format!(
                    "unknown online policy '{text}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

impl fmt::Display for OnlinePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed failure while applying an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineError {
    /// The machine capacity must be at least 1.
    InvalidCapacity,
    /// An arrival reused the id of a job that is still live.
    DuplicateArrival {
        /// The clashing id.
        id: OnlineJobId,
    },
    /// A departure named an id that is not live (never arrived, or already departed).
    UnknownDeparture {
        /// The unknown id.
        id: OnlineJobId,
    },
    /// A snapshot could not be restored: its internal references are inconsistent
    /// (unknown policy, machine/thread out of range, conflicting placements, …).
    InvalidSnapshot {
        /// What the snapshot got wrong.
        reason: &'static str,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::InvalidCapacity => write!(f, "the machine capacity must be at least 1"),
            OnlineError::DuplicateArrival { id } => {
                write!(f, "arrival of job {id}, which is already live")
            }
            OnlineError::UnknownDeparture { id } => {
                write!(f, "departure of job {id}, which is not live")
            }
            OnlineError::InvalidSnapshot { reason } => {
                write!(f, "invalid snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// What one applied event did to the live schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventEffect {
    /// The machine the event touched (global machine id; for an arrival, where the job
    /// was placed).
    pub machine: MachineId,
    /// The signed busy-time change in ticks (non-negative for arrivals, non-positive
    /// for departures).
    pub cost_delta: i64,
    /// The total busy time after the event.
    pub cost: Duration,
    /// `true` for arrivals, `false` for departures.
    pub arrival: bool,
}

/// What one [`OnlineScheduler::compact`] pass did to the live schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactEffect {
    /// Strictly-improving migrations committed (at most the budget).
    pub moves: usize,
    /// The signed busy-time change in ticks — never positive: every committed move
    /// strictly lowers cost and a refused move restores the source exactly.
    pub cost_delta: i64,
    /// The total busy time after the pass.
    pub cost: Duration,
}

/// Where a live job currently sits.
#[derive(Debug, Clone, Copy)]
struct LiveJob {
    interval: Interval,
    /// Slot into the scheduler's pool vector (always 0 for the unbucketed policies).
    pool: usize,
    /// Machine id local to that pool.
    local: usize,
    thread: usize,
    /// Stable machine id across all pools, in order of opening.
    global: MachineId,
}

/// The event-driven scheduler: a live busy-time schedule maintained incrementally
/// under arrivals and departures.
///
/// Per-event work is incremental throughout — placement descends the live
/// [`crate::placement::PlacementIndex`], departures refresh one machine digest, and
/// the running cost is updated by the marginal delta the touched machine reports.
/// Nothing is ever recomputed from scratch, which is what makes 100k-event traces
/// tractable (the scaling bench records events/sec).
#[derive(Debug, Clone)]
pub struct OnlineScheduler {
    capacity: usize,
    policy: OnlinePolicy,
    /// Machine pools: exactly one for the unbucketed policies, one per non-empty
    /// length bucket for [`OnlinePolicy::BucketByLength`].
    pools: Vec<MachinePool>,
    /// Length bucket (`len.ilog2()`) → slot in `pools`, grown on demand.
    bucket_slots: Vec<Option<usize>>,
    /// Global machine id → (pool slot, local machine id), in opening order.
    global: Vec<(usize, usize)>,
    /// Pool slot → local machine id → global machine id.
    pool_machines: Vec<Vec<MachineId>>,
    /// Live jobs by id (ordered, so every iteration order is deterministic).
    live: BTreeMap<OnlineJobId, LiveJob>,
    cost: Duration,
    peak_cost: Duration,
    arrivals: usize,
    departures: usize,
}

impl OnlineScheduler {
    /// An empty live schedule over machines of capacity `g`.
    pub fn new(capacity: usize, policy: OnlinePolicy) -> Result<Self, OnlineError> {
        if capacity == 0 {
            return Err(OnlineError::InvalidCapacity);
        }
        let mut scheduler = OnlineScheduler {
            capacity,
            policy,
            pools: Vec::new(),
            bucket_slots: Vec::new(),
            global: Vec::new(),
            pool_machines: Vec::new(),
            live: BTreeMap::new(),
            cost: Duration::ZERO,
            peak_cost: Duration::ZERO,
            arrivals: 0,
            departures: 0,
        };
        if policy != OnlinePolicy::BucketByLength {
            scheduler.pools.push(MachinePool::new(capacity));
            scheduler.pool_machines.push(Vec::new());
        }
        Ok(scheduler)
    }

    /// The machine capacity `g`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The placement policy in force.
    pub fn policy(&self) -> OnlinePolicy {
        self.policy
    }

    /// The current total busy time of all machines.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    /// The highest total busy time observed so far.
    pub fn peak_cost(&self) -> Duration {
        self.peak_cost
    }

    /// Number of jobs currently live.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of machines opened so far (machines are never closed, but an emptied
    /// machine's digest returns to the fresh state and it is reused by placement).
    pub fn machine_count(&self) -> usize {
        self.global.len()
    }

    /// Arrivals applied so far.
    pub fn arrivals(&self) -> usize {
        self.arrivals
    }

    /// Departures applied so far.
    pub fn departures(&self) -> usize {
        self.departures
    }

    /// Total events applied so far (arrivals + departures).  Durable recovery
    /// uses this as the replay position: a scheduler restored from a snapshot
    /// and replayed through a journal tail reports the same total as the
    /// uninterrupted run, so the counter doubles as a cross-check that no
    /// logged event was dropped.
    pub fn events(&self) -> usize {
        self.arrivals + self.departures
    }

    /// The machine pools behind the scheduler (one for the unbucketed policies, one
    /// per touched length bucket for [`OnlinePolicy::BucketByLength`]).  Exposed for
    /// the churn-fuzz suite, which cross-checks every pool's incremental index state
    /// against a from-scratch rebuild after every event.
    pub fn pools(&self) -> &[MachinePool] {
        &self.pools
    }

    /// Every live job as `(id, interval, global machine id)`, in id order.
    pub fn live_jobs(&self) -> impl Iterator<Item = (OnlineJobId, Interval, MachineId)> + '_ {
        self.live
            .iter()
            .map(|(&id, job)| (id, job.interval, job.global))
    }

    /// Every opened machine as `(global machine id, state)`, in opening order.
    pub fn machine_states(&self) -> impl Iterator<Item = (MachineId, &MachineState)> + '_ {
        self.global
            .iter()
            .enumerate()
            .map(|(g, &(pool, local))| (g, &self.pools[pool].machines()[local]))
    }

    /// Live job ids grouped by global machine (machines that opened and later emptied
    /// appear as empty groups, keeping machine ids stable).
    pub fn machine_groups(&self) -> Vec<Vec<OnlineJobId>> {
        let mut groups = vec![Vec::new(); self.global.len()];
        for (id, job) in &self.live {
            groups[job.global].push(*id);
        }
        groups
    }

    /// The pool slot (created on demand) the policy routes `iv` to.
    fn pool_slot_for(&mut self, iv: Interval) -> usize {
        if self.policy != OnlinePolicy::BucketByLength {
            return 0;
        }
        let bucket = (iv.len().ticks() as u64).ilog2() as usize;
        if bucket >= self.bucket_slots.len() {
            self.bucket_slots.resize(bucket + 1, None);
        }
        *self.bucket_slots[bucket].get_or_insert_with(|| {
            self.pools.push(MachinePool::new(self.capacity));
            self.pool_machines.push(Vec::new());
            self.pools.len() - 1
        })
    }

    /// Apply one event to the live schedule, returning its effect.
    ///
    /// Errors (duplicate arrival, unknown departure) leave the schedule untouched.
    pub fn apply(&mut self, event: &Event) -> Result<EventEffect, OnlineError> {
        match *event {
            Event::Arrival { id, interval } => {
                if self.live.contains_key(&id) {
                    return Err(OnlineError::DuplicateArrival { id });
                }
                let pool_slot = self.pool_slot_for(interval);
                let pool = &mut self.pools[pool_slot];
                let (local, thread) = match self.policy {
                    OnlinePolicy::BestFit => {
                        let p = pool.best_fit_slot(interval);
                        (p.machine, p.thread)
                    }
                    OnlinePolicy::FirstFit | OnlinePolicy::BucketByLength => {
                        pool.first_fit_slot(interval)
                    }
                };
                let opened = local == pool.len();
                let delta = pool.insert(interval, local, thread);
                let global = if opened {
                    let g = self.global.len();
                    self.global.push((pool_slot, local));
                    self.pool_machines[pool_slot].push(g);
                    g
                } else {
                    self.pool_machines[pool_slot][local]
                };
                self.live.insert(
                    id,
                    LiveJob {
                        interval,
                        pool: pool_slot,
                        local,
                        thread,
                        global,
                    },
                );
                self.cost += delta;
                self.peak_cost = self.peak_cost.max(self.cost);
                self.arrivals += 1;
                Ok(EventEffect {
                    machine: global,
                    cost_delta: delta.ticks(),
                    cost: self.cost,
                    arrival: true,
                })
            }
            Event::Departure { id } => {
                let job = self
                    .live
                    .remove(&id)
                    .ok_or(OnlineError::UnknownDeparture { id })?;
                let freed = self.pools[job.pool]
                    .remove(job.interval, job.local, job.thread)
                    .expect("the live table and the machine state agree");
                self.cost -= freed;
                self.departures += 1;
                Ok(EventEffect {
                    machine: job.global,
                    cost_delta: -freed.ticks(),
                    cost: self.cost,
                    arrival: false,
                })
            }
        }
    }

    /// Serialize the live schedule into a self-contained [`OnlineSnapshot`].
    ///
    /// The snapshot captures everything [`OnlineScheduler::restore`] needs to rebuild
    /// a scheduler whose **observable behaviour is identical** to this one: the
    /// capacity and policy, every opened machine (including machines that emptied —
    /// their slots keep machine ids stable), every live job with its exact placement,
    /// and the arrival/departure/peak counters.  The per-machine sweep profiles and
    /// the placement index are *not* serialized; they are exact functions of the live
    /// placements and are rebuilt by re-inserting the jobs on restore.
    pub fn snapshot(&self) -> OnlineSnapshot {
        let mut pool_buckets: Vec<Option<u32>> = vec![None; self.pools.len()];
        for (bucket, slot) in self.bucket_slots.iter().enumerate() {
            if let Some(slot) = *slot {
                pool_buckets[slot] = Some(bucket as u32);
            }
        }
        OnlineSnapshot {
            capacity: self.capacity,
            policy: self.policy.name().to_string(),
            arrivals: self.arrivals,
            departures: self.departures,
            peak_cost: self.peak_cost.ticks(),
            pool_buckets,
            machines: self.global.clone(),
            jobs: self
                .live
                .iter()
                .map(|(&id, job)| SnapshotJob {
                    id,
                    start: job.interval.start().ticks(),
                    end: job.interval.end().ticks(),
                    machine: job.global,
                    thread: job.thread,
                })
                .collect(),
        }
    }

    /// Rebuild a live scheduler from a snapshot taken by [`OnlineScheduler::snapshot`].
    ///
    /// Every machine reopens in its original slot and every live job is re-placed on
    /// exactly the (machine, thread) it occupied, so the restored scheduler's future
    /// placement decisions — which descend the same exact hulls and thread sets —
    /// match the never-snapshotted run event for event (the oracle the test suite
    /// pins).  A snapshot that is internally inconsistent (unknown policy, dangling
    /// machine reference, two jobs overlapping on one thread, a job in the wrong
    /// length bucket) is rejected with [`OnlineError::InvalidSnapshot`] and never
    /// half-applied.
    pub fn restore(snapshot: &OnlineSnapshot) -> Result<Self, OnlineError> {
        if snapshot.capacity == 0 {
            return Err(OnlineError::InvalidCapacity);
        }
        let policy =
            OnlinePolicy::parse(&snapshot.policy).map_err(|_| OnlineError::InvalidSnapshot {
                reason: "unknown policy name",
            })?;
        let bucketed = policy == OnlinePolicy::BucketByLength;
        if !bucketed && snapshot.pool_buckets != [None] {
            return Err(OnlineError::InvalidSnapshot {
                reason: "an unbucketed policy carries exactly one unbucketed pool",
            });
        }
        let mut scheduler = OnlineScheduler {
            capacity: snapshot.capacity,
            policy,
            pools: Vec::with_capacity(snapshot.pool_buckets.len()),
            bucket_slots: Vec::new(),
            global: Vec::with_capacity(snapshot.machines.len()),
            pool_machines: Vec::with_capacity(snapshot.pool_buckets.len()),
            live: BTreeMap::new(),
            cost: Duration::ZERO,
            peak_cost: Duration::ZERO,
            arrivals: snapshot.arrivals,
            departures: snapshot.departures,
        };
        for (slot, bucket) in snapshot.pool_buckets.iter().enumerate() {
            match (bucketed, bucket) {
                (true, Some(b)) => {
                    let b = *b as usize;
                    if b >= scheduler.bucket_slots.len() {
                        scheduler.bucket_slots.resize(b + 1, None);
                    }
                    if scheduler.bucket_slots[b].replace(slot).is_some() {
                        return Err(OnlineError::InvalidSnapshot {
                            reason: "two pools claim the same length bucket",
                        });
                    }
                }
                (false, None) => {}
                _ => {
                    return Err(OnlineError::InvalidSnapshot {
                        reason: "pool/bucket assignment does not match the policy",
                    })
                }
            }
            scheduler.pools.push(MachinePool::new(snapshot.capacity));
            scheduler.pool_machines.push(Vec::new());
        }
        for &(pool, local) in &snapshot.machines {
            let Some(p) = scheduler.pools.get_mut(pool) else {
                return Err(OnlineError::InvalidSnapshot {
                    reason: "machine references a pool that does not exist",
                });
            };
            if p.open_empty() != local {
                return Err(OnlineError::InvalidSnapshot {
                    reason: "machines are not listed in per-pool opening order",
                });
            }
            scheduler.pool_machines[pool].push(scheduler.global.len());
            scheduler.global.push((pool, local));
        }
        for job in &snapshot.jobs {
            let interval =
                Interval::try_new(Time::new(job.start), Time::new(job.end)).map_err(|_| {
                    OnlineError::InvalidSnapshot {
                        reason: "a live job's window is empty or reversed",
                    }
                })?;
            let &(pool, local) = scheduler.global.get(job.machine).ok_or({
                OnlineError::InvalidSnapshot {
                    reason: "a live job references a machine that does not exist",
                }
            })?;
            if job.thread >= snapshot.capacity {
                return Err(OnlineError::InvalidSnapshot {
                    reason: "a live job's thread exceeds the capacity",
                });
            }
            if bucketed {
                let bucket = (interval.len().ticks() as u64).ilog2() as usize;
                if scheduler.bucket_slots.get(bucket).copied().flatten() != Some(pool) {
                    return Err(OnlineError::InvalidSnapshot {
                        reason: "a live job sits in a pool outside its length bucket",
                    });
                }
            }
            if scheduler.live.contains_key(&job.id) {
                return Err(OnlineError::InvalidSnapshot {
                    reason: "two live jobs share an id",
                });
            }
            if scheduler.pools[pool]
                .machine(local)
                .thread_conflicts(interval, job.thread)
            {
                return Err(OnlineError::InvalidSnapshot {
                    reason: "two live jobs overlap on one thread",
                });
            }
            let delta = scheduler.pools[pool].insert(interval, local, job.thread);
            scheduler.cost += delta;
            scheduler.live.insert(
                job.id,
                LiveJob {
                    interval,
                    pool,
                    local,
                    thread: job.thread,
                    global: job.machine,
                },
            );
        }
        scheduler.peak_cost = Duration::new(snapshot.peak_cost.max(0)).max(scheduler.cost);
        Ok(scheduler)
    }

    /// Apply a whole trace under `policy`, recording the cost after every event.
    pub fn run(trace: &Trace, policy: OnlinePolicy) -> Result<OnlineRun, OnlineError> {
        let mut scheduler = OnlineScheduler::new(trace.capacity, policy)?;
        let mut trajectory = Vec::with_capacity(trace.events.len());
        for event in &trace.events {
            trajectory.push(scheduler.apply(event)?.cost);
        }
        Ok(OnlineRun {
            trajectory,
            scheduler,
        })
    }

    /// One budgeted background-defragmentation pass: migrate live jobs between
    /// machines wherever the move **strictly** lowers the total busy time, committing
    /// at most `budget` moves.
    ///
    /// Online placement is irrevocable at arrival time, so departures leave hulls
    /// stretched over windows nothing uses any more — the measured 0.2–15% drift of
    /// the online engine above the offline greedy.  The busy-time objective rewards
    /// strictly-improving single-job moves (the discrete-convexity observation), so a
    /// compaction pass walks the live jobs in id order (deterministic: the live table
    /// is ordered) and, per job, prices the whole pool through
    /// [`MachinePool::migrate`] — remove, best-fit re-price, re-insert — using the
    /// exact marginal deltas the per-machine coverage profiles report and the
    /// ordinary `O(log m)` digest refresh, never a from-scratch rebuild.
    ///
    /// Guarantees, all pinned by the churn-fuzz suite:
    /// * cost never increases, and drops by the exact committed deltas;
    /// * the schedule stays valid (a move lands on a conflict-free thread);
    /// * a job never leaves its pool, so [`OnlinePolicy::BucketByLength`] routing
    ///   invariants hold;
    /// * the pass is a pure function of the live placements — a restored snapshot
    ///   compacts exactly like the original, which is what lets the server journal
    ///   `compact` records and replay them deterministically on recovery.
    ///
    /// Machines are never closed: an emptied source machine keeps its (stable) id
    /// and simply re-enters the placement candidate streams as fresh capacity.
    /// Event counters and `peak_cost` are untouched — compaction is not an event.
    pub fn compact(&mut self, budget: usize) -> CompactEffect {
        let before = self.cost;
        let mut moves = 0usize;
        if budget > 0 && !self.live.is_empty() {
            let ids: Vec<OnlineJobId> = self.live.keys().copied().collect();
            for id in ids {
                if moves == budget {
                    break;
                }
                let job = *self.live.get(&id).expect("collected from the live table");
                let pool = &mut self.pools[job.pool];
                let pool_before = pool.cost();
                if let Some(placement) = pool.migrate(job.interval, job.local, job.thread) {
                    // `migrate` already adjusted the pool's own cost; mirror the
                    // net saving (freed − delta, strictly positive) on the
                    // scheduler's running total.
                    self.cost -= pool_before - self.pools[job.pool].cost();
                    let global = self.pool_machines[job.pool][placement.machine];
                    let entry = self.live.get_mut(&id).expect("the job is still live");
                    entry.local = placement.machine;
                    entry.thread = placement.thread;
                    entry.global = global;
                    moves += 1;
                }
            }
        }
        CompactEffect {
            moves,
            cost_delta: self.cost.ticks() - before.ticks(),
            cost: self.cost,
        }
    }
}

/// The result of replaying a [`Trace`]: the per-event cost trajectory plus the final
/// live scheduler for inspection.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// Total busy time after each event, in event order.
    pub trajectory: Vec<Duration>,
    /// The scheduler in its final state (live jobs, machine states, counters).
    pub scheduler: OnlineScheduler,
}

impl OnlineRun {
    /// The total busy time after the last event (zero for an empty trace).
    pub fn final_cost(&self) -> Duration {
        self.scheduler.cost()
    }

    /// The highest total busy time observed along the trace.
    pub fn peak_cost(&self) -> Duration {
        self.scheduler.peak_cost()
    }

    /// Number of events replayed.
    pub fn events(&self) -> usize {
        self.trajectory.len()
    }
}

/// An online policy wrapper — *Defrag⟨P⟩* — that runs up to `budget` budgeted
/// background-defragmentation moves after every event of the inner policy `P`.
///
/// Plain online placement is irrevocable, so the schedule drifts above the offline
/// greedy as departures fragment machine hulls.  Wrapping the policy keeps the drift
/// continuously repaired: each event is placed exactly as `P` would place it, then
/// [`OnlineScheduler::compact`] migrates at most `budget` jobs to strictly cheaper
/// slots, so the per-event tail latency stays bounded by the budget (each committed
/// move is one remove + one best-fit probe + one insert, all incremental) while the
/// schedule keeps re-converging toward the offline packing.
///
/// This is the library mirror of the server's `serve --defrag-budget K` mode, which
/// runs the same pass after every applied event and journals it for deterministic
/// recovery — a trace driven through `Defrag` locally reproduces such a server's
/// final state exactly.
///
/// ```
/// use busytime::online::{Defrag, Event, OnlinePolicy};
/// use busytime::{Duration, Interval};
///
/// let mut d = Defrag::new(2, OnlinePolicy::FirstFit, 4).unwrap();
/// d.apply(&Event::arrival(1, Interval::from_ticks(0, 10))).unwrap();
/// d.apply(&Event::arrival(2, Interval::from_ticks(8, 14))).unwrap();
/// assert_eq!(d.scheduler().cost(), Duration::new(14));
/// ```
#[derive(Debug, Clone)]
pub struct Defrag {
    scheduler: OnlineScheduler,
    budget: usize,
    moves: usize,
}

impl Defrag {
    /// An empty defragmenting schedule: inner policy `policy`, at most `budget`
    /// migrations after each event (a zero budget degenerates to the plain policy).
    pub fn new(capacity: usize, policy: OnlinePolicy, budget: usize) -> Result<Self, OnlineError> {
        Ok(Defrag {
            scheduler: OnlineScheduler::new(capacity, policy)?,
            budget,
            moves: 0,
        })
    }

    /// The per-event migration budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Total migrations committed across all events so far.
    pub fn moves(&self) -> usize {
        self.moves
    }

    /// The wrapped live scheduler.
    pub fn scheduler(&self) -> &OnlineScheduler {
        &self.scheduler
    }

    /// Apply one event through the inner policy, then run one budgeted compaction
    /// pass.  Returns the event's effect and the pass's effect; the post-compaction
    /// cost is `compaction.cost`.  Errors leave the schedule untouched (the pass
    /// only runs after a successful apply).
    pub fn apply(&mut self, event: &Event) -> Result<(EventEffect, CompactEffect), OnlineError> {
        let effect = self.scheduler.apply(event)?;
        let compaction = self.scheduler.compact(self.budget);
        self.moves += compaction.moves;
        Ok((effect, compaction))
    }

    /// Apply a whole trace under `policy` with per-event defragmentation, recording
    /// the **post-compaction** cost after every event — the defragmenting mirror of
    /// [`OnlineScheduler::run`].
    pub fn run(
        trace: &Trace,
        policy: OnlinePolicy,
        budget: usize,
    ) -> Result<OnlineRun, OnlineError> {
        let mut defrag = Defrag::new(trace.capacity, policy, budget)?;
        let mut trajectory = Vec::with_capacity(trace.events.len());
        for event in &trace.events {
            let (_, compaction) = defrag.apply(event)?;
            trajectory.push(compaction.cost);
        }
        Ok(OnlineRun {
            trajectory,
            scheduler: defrag.scheduler,
        })
    }
}

/// One live job inside an [`OnlineSnapshot`]: where the job sat when the snapshot was
/// taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotJob {
    /// The job's stable online id.
    pub id: OnlineJobId,
    /// Start tick of the job's window.
    pub start: i64,
    /// End tick of the job's window (exclusive).
    pub end: i64,
    /// The global machine id the job runs on.
    pub machine: MachineId,
    /// The thread of execution on that machine.
    pub thread: usize,
}

/// A serializable image of a live [`OnlineScheduler`], produced by
/// [`OnlineScheduler::snapshot`] and consumed by [`OnlineScheduler::restore`].
///
/// The snapshot is *logical*: it records placements (which job sits on which machine
/// and thread), not the derived geometry.  Sweep profiles, hulls, saturated stretches
/// and the placement index are exact functions of the placements and are rebuilt on
/// restore, which keeps the format small, stable and human-readable — this is the
/// payload the `busytime-server` `snapshot`/`restore` operations ship as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineSnapshot {
    /// The machine capacity `g`.
    pub capacity: usize,
    /// The placement policy's stable kebab-case name.
    pub policy: String,
    /// Arrivals applied before the snapshot.
    pub arrivals: usize,
    /// Departures applied before the snapshot.
    pub departures: usize,
    /// Highest total busy time observed before the snapshot, in ticks.
    pub peak_cost: i64,
    /// Pool slot → the geometric length bucket it serves (`null` for the single pool
    /// of the unbucketed policies).
    pub pool_buckets: Vec<Option<u32>>,
    /// Global machine id → `(pool slot, machine id local to that pool)`, in opening
    /// order.  Machines that opened and later emptied are listed too: their slots
    /// keep global machine ids stable across the snapshot boundary.
    pub machines: Vec<(usize, usize)>,
    /// Every live job and its exact placement, in id order.
    pub jobs: Vec<SnapshotJob>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::from_ticks(s, e)
    }

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(
            OnlineScheduler::new(0, OnlinePolicy::FirstFit).unwrap_err(),
            OnlineError::InvalidCapacity
        );
    }

    #[test]
    fn arrival_departure_lifecycle() {
        let mut s = OnlineScheduler::new(1, OnlinePolicy::FirstFit).unwrap();
        let a = s.apply(&Event::arrival(7, iv(0, 10))).unwrap();
        assert_eq!(a.machine, 0);
        assert_eq!(a.cost_delta, 10);
        let b = s.apply(&Event::arrival(8, iv(5, 15))).unwrap();
        assert_eq!(b.machine, 1, "g = 1: the overlap opens a second machine");
        assert_eq!(s.cost(), Duration::new(20));
        assert_eq!(s.peak_cost(), Duration::new(20));

        let d = s.apply(&Event::departure(7)).unwrap();
        assert_eq!(d.machine, 0);
        assert_eq!(d.cost_delta, -10);
        assert_eq!(s.cost(), Duration::new(10));
        assert_eq!(s.live_count(), 1);
        // Machine 0 reopened: a job overlapping the departed window lands there again.
        let e = s.apply(&Event::arrival(9, iv(2, 8))).unwrap();
        assert_eq!(e.machine, 0);
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.machine_groups(), vec![vec![9], vec![8]]);
    }

    #[test]
    fn errors_leave_state_untouched() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::BestFit).unwrap();
        s.apply(&Event::arrival(1, iv(0, 4))).unwrap();
        assert_eq!(
            s.apply(&Event::arrival(1, iv(0, 4))).unwrap_err(),
            OnlineError::DuplicateArrival { id: 1 }
        );
        assert_eq!(
            s.apply(&Event::departure(2)).unwrap_err(),
            OnlineError::UnknownDeparture { id: 2 }
        );
        assert_eq!(s.live_count(), 1);
        assert_eq!(s.cost(), Duration::new(4));
        // Departing and re-arriving under the same id is legal.
        s.apply(&Event::departure(1)).unwrap();
        s.apply(&Event::arrival(1, iv(0, 4))).unwrap();
        assert_eq!(s.live_count(), 1);
    }

    #[test]
    fn best_fit_picks_cheapest_machine() {
        let mut s = OnlineScheduler::new(1, OnlinePolicy::BestFit).unwrap();
        s.apply(&Event::arrival(1, iv(0, 10))).unwrap();
        // Best fit packs the disjoint job onto the same machine (full length either
        // way, earliest machine wins).
        let e = s.apply(&Event::arrival(2, iv(20, 30))).unwrap();
        assert_eq!(e.machine, 0);
        assert_eq!(s.machine_count(), 1);
        // [9, 14) conflicts with both of machine 0's jobs' window at 9 (g = 1), so a
        // fresh machine opens at full length.
        let e = s.apply(&Event::arrival(3, iv(9, 14))).unwrap();
        assert_eq!(e.machine, 1);
        assert_eq!(e.cost_delta, 5);
        assert_eq!(s.cost(), Duration::new(25));
        // After job 1 departs, machine 0 reopens and a job bridging into its old
        // window lands there; job 3 still blocks machine 1.
        s.apply(&Event::departure(1)).unwrap();
        let e = s.apply(&Event::arrival(4, iv(12, 16))).unwrap();
        assert_eq!(e.machine, 0);
        assert_eq!(e.cost_delta, 4);
    }

    #[test]
    fn bucket_policy_separates_length_classes() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::BucketByLength).unwrap();
        // Lengths 3 (bucket 1) and 100 (bucket 6) never share a machine, even though
        // capacity would allow it.
        s.apply(&Event::arrival(1, iv(0, 100))).unwrap();
        let e = s.apply(&Event::arrival(2, iv(10, 13))).unwrap();
        assert_eq!(e.machine, 1);
        assert_eq!(s.pools().len(), 2);
        // A second short job joins the short machine (same bucket, capacity 2).
        let e = s.apply(&Event::arrival(3, iv(11, 14))).unwrap();
        assert_eq!(e.machine, 1);
        assert_eq!(s.machine_count(), 2);
    }

    #[test]
    fn snapshot_restore_round_trips_live_state() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::BestFit).unwrap();
        s.apply(&Event::arrival(1, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(2, iv(5, 15))).unwrap();
        s.apply(&Event::arrival(3, iv(7, 12))).unwrap();
        s.apply(&Event::departure(1)).unwrap();
        let snapshot = s.snapshot();
        assert_eq!(snapshot.capacity, 2);
        assert_eq!(snapshot.policy, "best-fit");
        assert_eq!(snapshot.jobs.len(), 2);

        let r = OnlineScheduler::restore(&snapshot).unwrap();
        assert_eq!(r.cost(), s.cost());
        assert_eq!(r.peak_cost(), s.peak_cost());
        assert_eq!(r.live_count(), s.live_count());
        assert_eq!(r.machine_count(), s.machine_count());
        assert_eq!(r.arrivals(), s.arrivals());
        assert_eq!(r.departures(), s.departures());
        assert_eq!(r.machine_groups(), s.machine_groups());
        assert_eq!(
            r.live_jobs().collect::<Vec<_>>(),
            s.live_jobs().collect::<Vec<_>>()
        );
        // The JSON round trip is exact too (the server ships this payload).
        let json = serde_json::to_string(&snapshot).unwrap();
        let parsed: OnlineSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn snapshot_keeps_emptied_machine_slots() {
        let mut s = OnlineScheduler::new(1, OnlinePolicy::FirstFit).unwrap();
        s.apply(&Event::arrival(1, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(2, iv(5, 15))).unwrap();
        s.apply(&Event::departure(1)).unwrap();
        // Machine 0 is empty but keeps its slot.
        let r = OnlineScheduler::restore(&s.snapshot()).unwrap();
        assert_eq!(r.machine_count(), 2);
        // A job overlapping the departed window reopens machine 0, exactly as the
        // uninterrupted scheduler would.
        let (mut a, mut b) = (s, r);
        let ea = a.apply(&Event::arrival(3, iv(2, 8))).unwrap();
        let eb = b.apply(&Event::arrival(3, iv(2, 8))).unwrap();
        assert_eq!(ea, eb);
        assert_eq!(ea.machine, 0);
    }

    #[test]
    fn snapshot_restores_bucket_routing() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::BucketByLength).unwrap();
        s.apply(&Event::arrival(1, iv(0, 100))).unwrap();
        s.apply(&Event::arrival(2, iv(10, 13))).unwrap();
        let snapshot = s.snapshot();
        assert_eq!(snapshot.pool_buckets.len(), 2);
        let mut r = OnlineScheduler::restore(&snapshot).unwrap();
        // A new short job lands on the short bucket's machine in both schedulers.
        let es = s.apply(&Event::arrival(3, iv(11, 14))).unwrap();
        let er = r.apply(&Event::arrival(3, iv(11, 14))).unwrap();
        assert_eq!(es, er);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let mut s = OnlineScheduler::new(1, OnlinePolicy::FirstFit).unwrap();
        s.apply(&Event::arrival(1, iv(0, 10))).unwrap();
        let good = s.snapshot();

        let mut bad = good.clone();
        bad.policy = "bogus".into();
        assert!(matches!(
            OnlineScheduler::restore(&bad),
            Err(OnlineError::InvalidSnapshot { .. })
        ));

        let mut bad = good.clone();
        bad.capacity = 0;
        assert_eq!(
            OnlineScheduler::restore(&bad).unwrap_err(),
            OnlineError::InvalidCapacity
        );

        let mut bad = good.clone();
        bad.jobs[0].machine = 7;
        assert!(matches!(
            OnlineScheduler::restore(&bad),
            Err(OnlineError::InvalidSnapshot { .. })
        ));

        let mut bad = good.clone();
        bad.jobs[0].thread = 3;
        assert!(matches!(
            OnlineScheduler::restore(&bad),
            Err(OnlineError::InvalidSnapshot { .. })
        ));

        let mut bad = good.clone();
        bad.jobs.push(SnapshotJob {
            id: 9,
            start: 5,
            end: 8,
            machine: 0,
            thread: 0,
        });
        assert!(matches!(
            OnlineScheduler::restore(&bad),
            Err(OnlineError::InvalidSnapshot {
                reason: "two live jobs overlap on one thread"
            })
        ));

        let mut bad = good.clone();
        bad.jobs[0].end = bad.jobs[0].start;
        assert!(matches!(
            OnlineScheduler::restore(&bad),
            Err(OnlineError::InvalidSnapshot { .. })
        ));

        let mut bad = good;
        bad.pool_buckets.push(Some(3));
        assert!(matches!(
            OnlineScheduler::restore(&bad),
            Err(OnlineError::InvalidSnapshot { .. })
        ));
    }

    #[test]
    fn compact_migrates_strict_improvements_only() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
        // g = 2: jobs 1 and 2 fill machine 0's two threads; job 3 overlaps both and
        // must open machine 1 at its full length.
        s.apply(&Event::arrival(1, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(2, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(3, iv(5, 15))).unwrap();
        assert_eq!(s.cost(), Duration::new(10 + 10));
        // Nothing improvable yet: every job sits where it must.
        let idle = s.compact(usize::MAX);
        assert_eq!(
            idle,
            CompactEffect {
                moves: 0,
                cost_delta: 0,
                cost: s.cost()
            }
        );
        // Job 1 departs (freeing thread 0 of machine 0 at no cost change — job 2
        // still covers [0, 10)).  The two survivors overlap on [5, 10) and fit one
        // machine's two threads, yet each pays full length alone.  Plain online
        // scheduling never revisits those placements — compaction does: the scan
        // hits job 2 first (id order) and moves it onto job 3's machine, paying 5
        // for the uncovered [0, 5) instead of the 10 it paid alone.
        s.apply(&Event::departure(1)).unwrap();
        assert_eq!(s.cost(), Duration::new(20));
        let effect = s.compact(usize::MAX);
        assert_eq!(effect.moves, 1);
        assert_eq!(effect.cost_delta, -5);
        assert_eq!(s.cost(), Duration::new(15));
        assert_eq!(effect.cost, s.cost());
        // The machine count is stable (the emptied machine keeps its slot) and the
        // moved job reports its new machine.
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.machine_groups(), vec![vec![], vec![2, 3]]);
        // A second pass finds nothing: compaction reached a local fixpoint.
        assert_eq!(s.compact(usize::MAX).moves, 0);
    }

    #[test]
    fn compact_budget_caps_committed_moves() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
        // Two independent improvable moves in two disjoint time regions, each the
        // pattern of `compact_migrates_strict_improvements_only`.
        s.apply(&Event::arrival(1, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(2, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(3, iv(5, 15))).unwrap();
        s.apply(&Event::arrival(4, iv(100, 110))).unwrap();
        s.apply(&Event::arrival(5, iv(100, 110))).unwrap();
        s.apply(&Event::arrival(6, iv(105, 115))).unwrap();
        s.apply(&Event::departure(1)).unwrap();
        s.apply(&Event::departure(4)).unwrap();
        let cost = s.cost();
        assert_eq!(s.compact(0).moves, 0, "a zero budget is a no-op");
        assert_eq!(s.cost(), cost);
        let first = s.compact(1);
        assert_eq!(first.moves, 1, "the budget stops the pass mid-way");
        assert_eq!(first.cost_delta, -5);
        let second = s.compact(1);
        assert_eq!(second.moves, 1);
        assert_eq!(second.cost_delta, -5);
        assert_eq!(s.compact(1).moves, 0, "fixpoint after both moves");
    }

    #[test]
    fn compact_respects_length_buckets() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::BucketByLength).unwrap();
        // One long job, three short ones.  Job 4 conflicts with both short threads
        // and opens a second short-bucket machine; once job 2 departs, job 3 can
        // consolidate onto job 4's machine — but never onto the long job's, even
        // though capacity would allow it.
        s.apply(&Event::arrival(1, iv(0, 100))).unwrap();
        s.apply(&Event::arrival(2, iv(10, 13))).unwrap();
        s.apply(&Event::arrival(3, iv(11, 14))).unwrap();
        s.apply(&Event::arrival(4, iv(12, 15))).unwrap();
        s.apply(&Event::departure(2)).unwrap();
        let effect = s.compact(usize::MAX);
        assert_eq!(effect.moves, 1);
        assert_eq!(effect.cost_delta, -2);
        // Global machines: 0 = long bucket, 1 and 2 = short bucket; jobs 3 and 4
        // share machine 2, the long job stays alone on machine 0.
        assert_eq!(s.machine_groups(), vec![vec![1], vec![], vec![3, 4]]);
        assert_eq!(s.cost(), Duration::new(100 + 4));
    }

    #[test]
    fn compact_is_deterministic_across_snapshot_restore() {
        let mut s = OnlineScheduler::new(2, OnlinePolicy::FirstFit).unwrap();
        s.apply(&Event::arrival(1, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(2, iv(0, 10))).unwrap();
        s.apply(&Event::arrival(3, iv(5, 15))).unwrap();
        s.apply(&Event::departure(1)).unwrap();
        let mut r = OnlineScheduler::restore(&s.snapshot()).unwrap();
        let es = s.compact(usize::MAX);
        let er = r.compact(usize::MAX);
        assert_eq!(es, er);
        assert_eq!(es.moves, 1);
        assert_eq!(s.machine_groups(), r.machine_groups());
        assert_eq!(
            s.live_jobs().collect::<Vec<_>>(),
            r.live_jobs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn defrag_wrapper_tracks_moves_and_costs() {
        let trace = Trace::new(
            2,
            vec![
                Event::arrival(1, iv(0, 10)),
                Event::arrival(2, iv(0, 10)),
                Event::arrival(3, iv(5, 15)),
                Event::departure(1),
            ],
        );
        let plain = OnlineScheduler::run(&trace, OnlinePolicy::FirstFit).unwrap();
        let defrag = Defrag::run(&trace, OnlinePolicy::FirstFit, usize::MAX).unwrap();
        assert_eq!(plain.final_cost(), Duration::new(20));
        assert_eq!(
            defrag.final_cost(),
            Duration::new(15),
            "the wrapper repairs the drift the plain run keeps"
        );
        // The trajectory records post-compaction costs.
        let ticks: Vec<i64> = defrag.trajectory.iter().map(|d| d.ticks()).collect();
        assert_eq!(ticks, vec![10, 10, 20, 15]);
        // Stepwise API agrees with the batch run.
        let mut d = Defrag::new(2, OnlinePolicy::FirstFit, usize::MAX).unwrap();
        for event in &trace.events {
            d.apply(event).unwrap();
        }
        assert_eq!(d.moves(), 1);
        assert_eq!(d.budget(), usize::MAX);
        assert_eq!(d.scheduler().cost(), defrag.final_cost());
        assert_eq!(
            d.scheduler().machine_groups(),
            defrag.scheduler.machine_groups()
        );
    }

    #[test]
    fn run_records_trajectory() {
        let trace = Trace::new(
            1,
            vec![
                Event::arrival(1, iv(0, 4)),
                Event::arrival(2, iv(2, 6)),
                Event::departure(1),
                Event::departure(2),
            ],
        );
        let run = OnlineScheduler::run(&trace, OnlinePolicy::FirstFit).unwrap();
        let ticks: Vec<i64> = run.trajectory.iter().map(|d| d.ticks()).collect();
        assert_eq!(ticks, vec![4, 8, 4, 0]);
        assert_eq!(run.final_cost(), Duration::ZERO);
        assert_eq!(run.peak_cost(), Duration::new(8));
        assert_eq!(run.events(), 4);
        assert_eq!(run.scheduler.arrivals(), 2);
        assert_eq!(run.scheduler.departures(), 2);
    }
}
