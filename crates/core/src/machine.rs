//! Incremental machine state: per-machine occupancy maintained under job insertion
//! *and removal*.
//!
//! The greedy algorithms (FirstFit of \[13\], the best-fit MaxThroughput fallback) place
//! one job at a time.  Before this module they re-derived every overlap fact from
//! scratch at each step — scanning whole thread job lists for conflicts and re-unioning
//! a machine's jobs to price a placement — which made placement quadratic.
//! [`MachineState`] keeps each machine's occupancy live instead:
//!
//! * one [`DisjointIntervalSet`] per thread of execution, giving `O(log n)` conflict
//!   tests against the thread's whole history,
//! * one [`SweepSet`] coverage profile for the whole machine, giving the marginal busy
//!   time of a placement (`len(J) −` already-covered length) and the machine's running
//!   busy time without any re-unioning.
//!
//! [`MachinePool`] assembles machine states into a growable pool behind the global
//! [`PlacementIndex`], keeping the per-machine digests and the total busy time
//! incrementally consistent across insertions *and removals* — a machine whose load
//! drops below `g` becomes placeable again through an `O(log m)` digest refresh, never
//! an index rebuild.  The pool is the one placement engine: the offline greedies (the
//! kernel side of `minbusy::first_fit`, `maxthroughput::greedy_fallback`) keep a
//! [`crate::Schedule`] beside it, and the event-driven [`crate::online::OnlineScheduler`]
//! drives it the same way.
//!
//! ```
//! use busytime::machine::MachinePool;
//! use busytime::{Duration, Instance, Schedule};
//!
//! let instance = Instance::from_ticks(&[(0, 10), (2, 12), (4, 14), (20, 25)], 2);
//! let mut pool = MachinePool::new(instance.capacity());
//! let mut schedule = Schedule::empty(instance.len());
//! for job in 0..instance.len() {
//!     let iv = instance.job(job);
//!     let (machine, thread) = pool.first_fit_slot(iv);
//!     pool.insert(iv, machine, thread);
//!     schedule.assign(job, machine);
//! }
//! // Machine 0 runs [0,10), [2,12) and [20,25); machine 1 runs [4,14).
//! assert_eq!(pool.cost(), Duration::new((12 + 5) + 10)); // tracked live
//! schedule.validate_complete(&instance).unwrap();
//! assert_eq!(schedule.cost(&instance), Duration::new(27));
//! ```

use busytime_interval::{DisjointIntervalSet, Duration, Interval, SweepSet};

use crate::placement::{MachineDigest, PlacementIndex};
use crate::schedule::MachineId;

/// The live occupancy of one machine: `g` threads of execution plus a coverage profile
/// over the whole machine.
///
/// The thread structure mirrors how the paper's FirstFit reasons about capacity: a
/// machine may run up to `g` jobs at a time because it has `g` threads, and a job joins
/// a thread only when it overlaps none of the thread's jobs.
#[derive(Debug, Clone)]
pub struct MachineState {
    threads: Vec<DisjointIntervalSet>,
    coverage: SweepSet,
    /// Hull of everything on the machine (`None` when empty): a window disjoint from
    /// it is accepted in `O(1)` without touching the profiles.  Kept **exact** under
    /// removal (recomputed from the coverage profile), so a machine whose jobs depart
    /// gets its digest tightened rather than pinned at a high-water mark.
    hull: Option<(i64, i64)>,
    /// The widest known *saturated* stretch — coverage depth equal to `g`, meaning
    /// every thread provably runs a job throughout it.  A window overlapping it is
    /// rejected in `O(1)`; this is what keeps rejection-dominated placement (many
    /// full machines probed per job) as cheap as the full-scan path it replaced.
    saturated: Option<(i64, i64)>,
}

/// Cap on how far [`SweepSet::widest_run_at_least`] follows a saturated run past the
/// inserted window when refreshing the cache — bounds the per-insert cost on heavily
/// fragmented machines.
const SATURATED_WALK_CAP: usize = 64;

/// Machines probed flat (two comparisons each) before first-fit switches to the
/// placement-index candidate stream: placements that land early pay nothing for the
/// index, placements that skip thousands of full machines still get the `O(log m)`
/// descent for everything past the prefix.
const FIRST_FIT_LINEAR_PREFIX: usize = 48;

impl MachineState {
    /// An empty machine with `g` threads of execution.
    pub fn new(capacity: usize) -> Self {
        MachineState {
            threads: vec![DisjointIntervalSet::new(); capacity],
            coverage: SweepSet::new(),
            hull: None,
            saturated: None,
        }
    }

    /// The machine's capacity `g` (number of threads).
    pub fn capacity(&self) -> usize {
        self.threads.len()
    }

    /// Number of jobs currently on the machine.
    pub fn job_count(&self) -> usize {
        self.coverage.interval_count()
    }

    /// The machine's current busy time (span of its jobs).
    pub fn busy_time(&self) -> Duration {
        self.coverage.span()
    }

    /// Hull of everything on the machine, if non-empty.
    pub fn hull(&self) -> Option<Interval> {
        self.hull.map(|(lo, hi)| Interval::from_ticks(lo, hi))
    }

    /// The widest known stretch where every thread provably runs a job (coverage depth
    /// equal to `g`); any job overlapping it is rejected outright.
    pub fn saturated_stretch(&self) -> Option<Interval> {
        self.saturated.map(|(lo, hi)| Interval::from_ticks(lo, hi))
    }

    /// The machine's summary as the [`PlacementIndex`] keys it: hull plus widest known
    /// saturated stretch.
    pub fn digest(&self) -> MachineDigest {
        MachineDigest::new(self.hull, self.saturated)
    }

    /// Largest number of jobs this machine runs simultaneously: a scan of the whole
    /// coverage profile, `O(segments)`, so placement never calls it.
    pub fn max_depth(&self) -> usize {
        self.coverage.max_depth()
    }

    /// The first thread on which `iv` overlaps no already-placed job, if any.
    ///
    /// The two cached summaries answer the common cases in `O(1)`: a window disjoint
    /// from the machine's hull conflicts with nothing (thread 0), and a window
    /// touching a saturated stretch conflicts everywhere (every thread is busy at the
    /// shared point).  Only the remaining cases probe the per-thread sets in order, in
    /// `O(log n)` each; a window nothing overlaps stops at thread 0 there too.
    pub fn first_free_thread(&self, iv: Interval) -> Option<usize> {
        if self.threads.is_empty() {
            return None;
        }
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        match self.hull {
            Some((lo, hi)) if s < hi && lo < e => {}
            _ => return Some(0),
        }
        if let Some((lo, hi)) = self.saturated {
            if s < hi && lo < e {
                return None;
            }
        }
        self.threads.iter().position(|t| !t.conflicts(iv))
    }

    /// The increase in this machine's busy time if `iv` were placed on it: the part of
    /// `iv` not already covered by the machine's jobs.
    pub fn marginal_busy(&self, iv: Interval) -> Duration {
        iv.len() - self.coverage.covered_len(iv)
    }

    /// Does `thread` already run a job overlapping `iv`?  A thread index at or
    /// beyond the capacity reports `true` — a slot that does not exist can never
    /// host the job.
    ///
    /// A non-panicking probe of a *specific* thread (unlike
    /// [`MachineState::first_free_thread`], which searches).  Snapshot restoration
    /// uses it to reject a corrupt placement with a typed error instead of hitting
    /// the panic inside [`MachineState::insert`].
    pub fn thread_conflicts(&self, iv: Interval, thread: usize) -> bool {
        self.threads.get(thread).is_none_or(|t| t.conflicts(iv))
    }

    /// Place `iv` on `thread`.
    ///
    /// Returns the increase in the machine's busy time.
    ///
    /// # Panics
    /// Panics if the thread already runs an overlapping job.
    pub fn insert(&mut self, iv: Interval, thread: usize) -> Duration {
        let inserted = self.threads[thread].insert(iv);
        assert!(
            inserted,
            "thread {thread} already runs a job overlapping {iv}"
        );
        let (delta, peak) = self.coverage.insert(iv);
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        self.hull = match self.hull {
            Some((lo, hi)) => Some((lo.min(s), hi.max(e))),
            None => Some((s, e)),
        };
        // A saturated run can only have appeared or grown where the inserted window
        // reached depth `g`; keep the widest saturated stretch seen so far.
        if peak == self.capacity() {
            if let Some(run) =
                self.coverage
                    .widest_run_at_least(self.capacity(), iv, SATURATED_WALK_CAP)
            {
                if self
                    .saturated
                    .is_none_or(|(lo, hi)| hi - lo < run.len().ticks())
                {
                    self.saturated = Some((run.start().ticks(), run.end().ticks()));
                }
            }
        }
        delta
    }

    /// Remove a job previously placed on `thread`; returns the decrease in busy time,
    /// or `None` when the job was not on that thread.
    ///
    /// This is the *reopen* path of the online engine: the hull is recomputed exactly
    /// from the coverage profile (`O(log n)`, no high-water mark), and the saturated
    /// stretch survives whenever the removed window provably missed it — anywhere else
    /// the stretch may have lost a thread and is dropped, so a machine whose depth
    /// falls below `g` becomes placeable again on the very next query.
    pub fn remove(&mut self, iv: Interval, thread: usize) -> Option<Duration> {
        if !self.threads[thread].remove(iv) {
            return None;
        }
        let freed = self.coverage.remove(iv);
        self.hull = self
            .coverage
            .hull()
            .map(|h| (h.start().ticks(), h.end().ticks()));
        if let Some((lo, hi)) = self.saturated {
            let (s, e) = (iv.start().ticks(), iv.end().ticks());
            if s < hi && lo < e {
                self.saturated = None;
            }
        }
        Some(freed)
    }
}

/// Where [`MachinePool::best_fit_slot`] would put a job, and at what price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The machine (equal to the current machine count when a new one must open).
    pub machine: MachineId,
    /// The thread of execution on that machine.
    pub thread: usize,
    /// The increase in total busy time the placement causes.
    pub delta: Duration,
}

/// A growable pool of [`MachineState`]s behind the global [`PlacementIndex`], with the
/// total busy time maintained incrementally.
///
/// The pool is the machine-selection engine shared by the offline greedies and the
/// event-driven [`crate::online::OnlineScheduler`]: committing or removing a job
/// refreshes the machine's digest in the index (`O(log m)`), and the first-fit /
/// best-fit queries descend the index instead of scanning a flat summary array.  The
/// pre-index linear scans survive as [`MachinePool::first_fit_slot_linear`] and
/// [`MachinePool::best_fit_slot_linear`] — equivalence baselines for the property
/// tests.
///
/// ```
/// use busytime::machine::MachinePool;
/// use busytime::{Duration, Interval};
///
/// let mut pool = MachinePool::new(1);
/// // Nothing is open yet: the fresh-machine slot (machine count, thread 0).
/// assert_eq!(pool.first_fit_slot(Interval::from_ticks(0, 10)), (0, 0));
/// pool.insert(Interval::from_ticks(0, 10), 0, 0);
/// // g = 1: an overlapping job must open a second machine...
/// assert_eq!(pool.first_fit_slot(Interval::from_ticks(5, 15)), (1, 0));
/// // ...until the first job departs and machine 0 reopens for that window.
/// pool.remove(Interval::from_ticks(0, 10), 0, 0);
/// assert_eq!(pool.first_fit_slot(Interval::from_ticks(5, 15)), (0, 0));
/// assert_eq!(pool.cost(), Duration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct MachinePool {
    capacity: usize,
    machines: Vec<MachineState>,
    index: PlacementIndex,
    cost: Duration,
}

impl MachinePool {
    /// An empty pool of machines with `g` threads each.
    pub fn new(capacity: usize) -> Self {
        MachinePool {
            capacity,
            machines: Vec::new(),
            index: PlacementIndex::new(),
            cost: Duration::ZERO,
        }
    }

    /// The per-machine capacity `g`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of machines opened so far.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// `true` when no machine has been opened yet.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machines opened so far.
    pub fn machines(&self) -> &[MachineState] {
        &self.machines
    }

    /// The state of machine `m`.
    pub fn machine(&self, m: MachineId) -> &MachineState {
        &self.machines[m]
    }

    /// The live placement index over the pool.
    pub fn index(&self) -> &PlacementIndex {
        &self.index
    }

    /// The running total busy time of all machines.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    /// The first (machine, thread) that can run `iv` without a conflict — the fresh
    /// machine slot `(len, 0)` when none can (FirstFit's placement rule).
    ///
    /// The search is a two-tier hybrid over the same candidate order the linear scan
    /// probes.  A short digest prefix is walked flat — when the job lands on an early
    /// machine (the common case for length-ordered placement on loaded pools), two
    /// `i64` comparisons per machine beat any tree descent.  Past the prefix the
    /// candidate stream switches to [`PlacementIndex::next_placeable`], so long runs
    /// of machines whose saturated stretch covers the job (the common case for
    /// arrival-ordered placement, where thousands of early machines are full) are
    /// skipped in `O(log m)` instead of being rejected one by one.  Every surviving
    /// candidate is probed exactly as the linear scan would, so the chosen machine is
    /// identical to [`MachinePool::first_fit_slot_linear`].
    pub fn first_fit_slot(&self, iv: Interval) -> (MachineId, usize) {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        let prefix = self.machines.len().min(FIRST_FIT_LINEAR_PREFIX);
        for (m, digest) in self.index.digests()[..prefix].iter().enumerate() {
            if digest.rejects(s, e) {
                continue;
            }
            if digest.accepts(s, e) {
                return (m, 0);
            }
            if let Some(t) = self.machines[m].first_free_thread(iv) {
                return (m, t);
            }
        }
        let mut m = self.index.next_placeable(s, e, prefix);
        loop {
            if m >= self.machines.len() {
                return (self.machines.len(), 0);
            }
            if self.index.digest(m).accepts(s, e) {
                return (m, 0);
            }
            if let Some(t) = self.machines[m].first_free_thread(iv) {
                return (m, t);
            }
            m = self.index.next_placeable(s, e, m + 1);
        }
    }

    /// The linear-scan first fit: identical placement rule and result as
    /// [`MachinePool::first_fit_slot`], probing every machine digest in order.
    ///
    /// Kept as the equivalence baseline for the placement index: property tests pin the
    /// two paths together.  No production path calls it.
    pub fn first_fit_slot_linear(&self, iv: Interval) -> (MachineId, usize) {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        for (m, digest) in self.index.digests().iter().enumerate() {
            if digest.rejects(s, e) {
                continue;
            }
            if digest.accepts(s, e) {
                return (m, 0);
            }
            if let Some(t) = self.machines[m].first_free_thread(iv) {
                return (m, t);
            }
        }
        (self.machines.len(), 0)
    }

    /// The cheapest placement for `iv`: the earliest (machine, thread) whose busy-time
    /// increase is strictly smallest, falling back to a fresh machine at full job
    /// length when no existing machine can run the job.
    ///
    /// Only machines whose hull overlaps the job can price it below its full length,
    /// so the search probes exactly those (streamed in machine order from
    /// [`PlacementIndex::next_overlapping`]) and closes the full-length case with the
    /// earliest hull-disjoint machine from [`PlacementIndex::first_disjoint`]; every
    /// machine is either hull-overlapping or hull-disjoint, so the candidate set — and
    /// the (delta, machine) minimum over it — is identical to the linear scan's.
    pub fn best_fit_slot(&self, iv: Interval) -> Placement {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        // The earliest machine the job misses entirely (or the fresh-machine slot):
        // accepted on thread 0 at full length.
        let mut best = Placement {
            machine: self.index.first_disjoint(s, e),
            thread: 0,
            delta: iv.len(),
        };
        let mut m = self.index.next_overlapping(s, e, 0);
        while let Some(candidate) = m {
            let machine = &self.machines[candidate];
            if let Some(thread) = machine.first_free_thread(iv) {
                let delta = machine.marginal_busy(iv);
                if delta < best.delta || (delta == best.delta && candidate < best.machine) {
                    best = Placement {
                        machine: candidate,
                        thread,
                        delta,
                    };
                    if delta.is_zero() {
                        // No machine can beat a free placement, and the stream is in
                        // machine order so no earlier zero exists.
                        break;
                    }
                }
            }
            m = self.index.next_overlapping(s, e, candidate + 1);
        }
        best
    }

    /// The linear-scan best fit: identical result as [`MachinePool::best_fit_slot`],
    /// probing every machine digest in order (the pre-index reference path).
    pub fn best_fit_slot_linear(&self, iv: Interval) -> Placement {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        let mut best: Option<Placement> = None;
        for (m, digest) in self.index.digests().iter().enumerate() {
            if digest.rejects(s, e) {
                continue;
            }
            let candidate = if digest.accepts(s, e) {
                // Nothing overlaps: thread 0 fits and the job pays its full length,
                // exactly what the probes would conclude.
                Some((0, iv.len()))
            } else {
                let machine = &self.machines[m];
                machine
                    .first_free_thread(iv)
                    .map(|t| (t, machine.marginal_busy(iv)))
            };
            if let Some((thread, delta)) = candidate {
                if best.is_none_or(|b| delta < b.delta) {
                    best = Some(Placement {
                        machine: m,
                        thread,
                        delta,
                    });
                    if delta.is_zero() {
                        // No later machine can beat a free placement (strict `<`).
                        break;
                    }
                }
            }
        }
        best.unwrap_or(Placement {
            machine: self.machines.len(),
            thread: 0,
            delta: iv.len(),
        })
    }

    /// Place `iv` on `(machine, thread)`, opening the machine when `machine` equals the
    /// current pool size.  The machine's digest in the placement index is refreshed in
    /// the same step (`O(log m)`), keeping the index exactly consistent with the pool.
    ///
    /// Returns the increase in total busy time.
    pub fn insert(&mut self, iv: Interval, machine: MachineId, thread: usize) -> Duration {
        if machine == self.machines.len() {
            self.open_empty();
        }
        let delta = self.machines[machine].insert(iv, thread);
        self.cost += delta;
        self.index.update(machine, self.machines[machine].digest());
        delta
    }

    /// Open one more (empty) machine slot without placing anything on it, returning
    /// the new machine's id.
    ///
    /// This is the snapshot-restore hook: rebuilding a live schedule from an
    /// [`crate::online::OnlineSnapshot`] must recreate machines that had opened and
    /// later emptied, so that machine ids stay stable across the snapshot boundary.
    /// (The ordinary placement paths never need it — [`MachinePool::insert`] opens
    /// the machine it targets on demand.)
    pub fn open_empty(&mut self) -> MachineId {
        self.machines.push(MachineState::new(self.capacity));
        self.index.push(MachineDigest::EMPTY);
        self.machines.len() - 1
    }

    /// Remove a job previously placed on `(machine, thread)` — the *reopen* path.
    ///
    /// Returns the decrease in total busy time, or `None` when the job was not there.
    /// The machine's digest is refreshed in place (`O(log m)`, never a rebuild): its
    /// hull tightens to the surviving jobs and a saturated stretch the removal touched
    /// is dropped, so a machine whose load fell below `g` immediately re-enters the
    /// first-fit/best-fit candidate streams.
    pub fn remove(&mut self, iv: Interval, machine: MachineId, thread: usize) -> Option<Duration> {
        let freed = self.machines[machine].remove(iv, thread)?;
        self.cost -= freed;
        self.index.update(machine, self.machines[machine].digest());
        Some(freed)
    }

    /// Try to move one job off `(machine, thread)` to wherever the pool prices it
    /// cheapest, committing the move **only when it strictly lowers the total busy
    /// time** — the single-move primitive of background defragmentation.
    ///
    /// The job is removed (freeing `freed` ticks of busy time), the whole pool is
    /// re-priced through [`MachinePool::best_fit_slot`] — which naturally re-prices
    /// the just-freed source slot too, at exactly `freed` — and the job is
    /// re-inserted: at the winning slot when its delta is strictly below `freed`,
    /// back at its source otherwise.  Insert is the exact inverse of remove for
    /// cost, hull and coverage, so a refused move leaves the pool's cost and
    /// digests identical; both directions ride the ordinary `O(log m)` digest
    /// refresh, never a rebuild.
    ///
    /// A committed move can never open a machine: a fresh machine prices at the
    /// full job length, and no placement frees more than the job's length, so
    /// `delta < freed` rules it out — which also proves compaction terminates and
    /// never raises cost.
    ///
    /// Returns the committed placement, or `None` when the job stayed put (either
    /// no strictly cheaper slot exists, or the job was not on `(machine, thread)`).
    pub fn migrate(
        &mut self,
        iv: Interval,
        machine: MachineId,
        thread: usize,
    ) -> Option<Placement> {
        let freed = self.remove(iv, machine, thread)?;
        let best = self.best_fit_slot(iv);
        if best.delta < freed {
            debug_assert!(
                best.machine < self.machines.len(),
                "a strictly improving move never opens a machine"
            );
            self.insert(iv, best.machine, best.thread);
            Some(best)
        } else {
            self.insert(iv, machine, thread);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instance, JobId, Schedule};

    fn iv(s: i64, c: i64) -> Interval {
        Interval::from_ticks(s, c)
    }

    #[test]
    fn machine_state_tracks_busy_and_depth() {
        let mut m = MachineState::new(2);
        assert_eq!(m.capacity(), 2);
        assert_eq!(m.first_free_thread(iv(0, 10)), Some(0));
        assert_eq!(m.insert(iv(0, 10), 0), Duration::new(10));
        assert_eq!(m.first_free_thread(iv(5, 15)), Some(1));
        assert_eq!(m.marginal_busy(iv(5, 15)), Duration::new(5));
        assert_eq!(m.insert(iv(5, 15), 1), Duration::new(5));
        assert_eq!(m.busy_time(), Duration::new(15));
        assert_eq!(m.max_depth(), 2);
        assert_eq!(m.job_count(), 2);
        // Both threads busy around [5, 10): nothing fits there.
        assert_eq!(m.first_free_thread(iv(7, 9)), None);
        // But a disjoint job fits the first thread.
        assert_eq!(m.first_free_thread(iv(20, 30)), Some(0));
    }

    #[test]
    fn thread_conflicts_probes_without_panicking() {
        let mut m = MachineState::new(2);
        m.insert(iv(0, 10), 0);
        assert!(m.thread_conflicts(iv(5, 8), 0));
        assert!(!m.thread_conflicts(iv(5, 8), 1));
        // A thread beyond the capacity does not exist: it can never host the job.
        assert!(m.thread_conflicts(iv(5, 8), 9));
    }

    #[test]
    fn machine_remove_undoes_insert() {
        let mut m = MachineState::new(1);
        m.insert(iv(0, 4), 0);
        m.insert(iv(6, 8), 0);
        assert_eq!(m.remove(iv(0, 4), 0), Some(Duration::new(4)));
        assert_eq!(m.remove(iv(0, 4), 0), None, "already removed");
        assert_eq!(m.busy_time(), Duration::new(2));
        assert_eq!(m.job_count(), 1);
    }

    #[test]
    fn machine_remove_tightens_hull_and_reopens_saturation() {
        let mut m = MachineState::new(1);
        m.insert(iv(0, 10), 0);
        m.insert(iv(20, 32), 0);
        assert_eq!(m.hull(), Some(iv(0, 32)));
        assert_eq!(
            m.saturated_stretch(),
            Some(iv(20, 32)),
            "g = 1: the widest single-job run saturates the machine"
        );
        // Removing the left job shrinks the hull exactly; the saturated stretch on the
        // right is untouched by the removal window and survives.
        assert_eq!(m.remove(iv(0, 10), 0), Some(Duration::new(10)));
        assert_eq!(m.hull(), Some(iv(20, 32)));
        assert_eq!(m.saturated_stretch(), Some(iv(20, 32)));
        // Removing the job under the stretch drops it: the machine is placeable again.
        assert_eq!(m.remove(iv(20, 32), 0), Some(Duration::new(12)));
        assert_eq!(m.hull(), None);
        assert_eq!(m.saturated_stretch(), None);
        assert_eq!(m.first_free_thread(iv(22, 28)), Some(0));
        assert_eq!(m.digest(), MachineDigest::EMPTY);
    }

    #[test]
    fn saturated_stretch_refreshes_only_where_the_insert_reaches_g() {
        let mut m = MachineState::new(2);
        m.insert(iv(0, 10), 0);
        m.insert(iv(14, 20), 0);
        m.insert(iv(2, 6), 1);
        let digest = m.digest();
        assert_eq!(digest, MachineDigest::new(Some((0, 20)), Some((2, 6))));
        // A window inside the hull that stays below g changes neither the stretch nor
        // the digest.
        m.insert(iv(10, 14), 0);
        assert_eq!(m.saturated_stretch(), Some(iv(2, 6)));
        assert_eq!(m.digest(), digest);
        // A window that reaches g on a narrower run keeps the wider stretch...
        m.insert(iv(15, 17), 1);
        assert_eq!(m.digest(), digest);
        // ...and one that reaches g next to the stretch widens it across the join.
        m.insert(iv(6, 9), 1);
        assert_eq!(m.saturated_stretch(), Some(iv(2, 9)));
        assert_eq!(m.digest(), MachineDigest::new(Some((0, 20)), Some((2, 9))));
    }

    #[test]
    #[should_panic]
    fn conflicting_insert_panics() {
        let mut m = MachineState::new(1);
        m.insert(iv(0, 4), 0);
        m.insert(iv(2, 6), 0);
    }

    #[test]
    fn pool_insert_remove_keeps_cost_and_digests_live() {
        let mut pool = MachinePool::new(1);
        assert!(pool.is_empty());
        assert_eq!(pool.first_fit_slot(iv(0, 10)), (0, 0));
        pool.insert(iv(0, 10), 0, 0);
        // The machine is saturated: the next overlapping job opens machine 1.
        assert_eq!(pool.first_fit_slot(iv(5, 15)), (1, 0));
        pool.insert(iv(5, 15), 1, 0);
        assert_eq!(pool.cost(), Duration::new(20));
        assert_eq!(pool.len(), 2);
        // Departure reopens machine 0 for the window it used to reject.
        assert_eq!(pool.remove(iv(0, 10), 0, 0), Some(Duration::new(10)));
        assert_eq!(pool.cost(), Duration::new(10));
        assert_eq!(pool.first_fit_slot(iv(2, 8)), (0, 0));
        assert_eq!(pool.index().digest(0), &MachineDigest::EMPTY);
        // Removing a job that is not there reports None and changes nothing.
        assert_eq!(pool.remove(iv(0, 10), 0, 0), None);
        assert_eq!(pool.cost(), Duration::new(10));
    }

    #[test]
    fn migrate_commits_only_strict_improvements() {
        let mut pool = MachinePool::new(2);
        // Machine 0 runs [0, 10); machine 1 runs the stray [8, 14) (as if placed
        // before machine 0 filled in): moving it onto machine 0 pays 4 instead of 6.
        pool.insert(iv(0, 10), 0, 0);
        pool.insert(iv(8, 14), 1, 0);
        assert_eq!(pool.cost(), Duration::new(16));
        let moved = pool.migrate(iv(8, 14), 1, 0).unwrap();
        assert_eq!((moved.machine, moved.thread), (0, 1));
        assert_eq!(moved.delta, Duration::new(4));
        assert_eq!(pool.cost(), Duration::new(14));
        assert_eq!(pool.machine(1).job_count(), 0);
        // No strictly cheaper slot exists now: the job stays put and the pool is
        // byte-identical (cost, digests, placement all unchanged).
        let digest_before = *pool.index().digest(0);
        assert_eq!(pool.migrate(iv(8, 14), 0, 1), None);
        assert_eq!(pool.cost(), Duration::new(14));
        assert_eq!(pool.index().digest(0), &digest_before);
        assert_eq!(pool.remove(iv(8, 14), 0, 1), Some(Duration::new(4)));
        // A job that is not where the caller claims is reported, not moved.
        assert_eq!(pool.migrate(iv(8, 14), 0, 1), None);
    }

    /// Place `job` the way the offline greedies do: the pool picks the slot, the
    /// schedule records the machine.
    fn commit(
        pool: &mut MachinePool,
        schedule: &mut Schedule,
        instance: &Instance,
        job: JobId,
        (machine, thread): (MachineId, usize),
    ) {
        pool.insert(instance.job(job), machine, thread);
        schedule.assign(job, machine);
    }

    #[test]
    fn first_fit_placement_fills_threads_then_machines() {
        let instance = Instance::from_ticks(&[(0, 10); 4], 2);
        let mut pool = MachinePool::new(instance.capacity());
        let mut s = Schedule::empty(instance.len());
        for (job, machine) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            let slot = pool.first_fit_slot(instance.job(job));
            assert_eq!(slot.0, machine, "job {job}");
            commit(&mut pool, &mut s, &instance, job, slot);
        }
        assert_eq!(pool.cost(), Duration::new(20));
        s.validate_complete(&instance).unwrap();
    }

    #[test]
    fn best_fit_prefers_overlap_coverage() {
        // Machine 0 holds [0, 10); placing [8, 14) there costs only 4.
        let instance = Instance::from_ticks(&[(0, 10), (8, 14)], 2);
        let mut pool = MachinePool::new(instance.capacity());
        let mut s = Schedule::empty(instance.len());
        let slot = pool.first_fit_slot(instance.job(0));
        commit(&mut pool, &mut s, &instance, 0, slot);
        let p = pool.best_fit_slot(instance.job(1));
        assert_eq!(
            p,
            Placement {
                machine: 0,
                thread: 1,
                delta: Duration::new(4)
            }
        );
        commit(&mut pool, &mut s, &instance, 1, (p.machine, p.thread));
        assert_eq!(pool.cost(), Duration::new(14));
    }

    #[test]
    fn best_fit_opens_machine_when_nothing_fits() {
        let instance = Instance::from_ticks(&[(0, 10), (0, 10)], 1);
        let mut pool = MachinePool::new(instance.capacity());
        let mut s = Schedule::empty(instance.len());
        let slot = pool.first_fit_slot(instance.job(0));
        commit(&mut pool, &mut s, &instance, 0, slot);
        let p = pool.best_fit_slot(instance.job(1));
        assert_eq!(p.machine, 1);
        assert_eq!(p.delta, Duration::new(10));
    }

    #[test]
    fn builder_cost_matches_schedule_cost() {
        let instance =
            Instance::from_ticks(&[(0, 4), (1, 5), (3, 9), (10, 12), (11, 15), (2, 6)], 2);
        let mut pool = MachinePool::new(instance.capacity());
        let mut s = Schedule::empty(instance.len());
        for job in 0..instance.len() {
            let p = pool.best_fit_slot(instance.job(job));
            commit(&mut pool, &mut s, &instance, job, (p.machine, p.thread));
        }
        assert_eq!(s.cost(&instance), pool.cost());
        s.validate_complete(&instance).unwrap();
    }
}
