//! The coordinate-compressed sweep-line kernel.
//!
//! Every structural fact the paper states about an interval set — maximum clique size
//! (Observation 2.1's parallelism bound), span, connected components, the proper order
//! `J_1 ≤ … ≤ J_n` — is a statement about a single swept timeline.  This module is the
//! one place where that timeline is materialised; the rest of the workspace (the
//! `classify`/`span` helpers here, `MachineState` and the schedule validators in the
//! `busytime` core crate, the 2-D bucketing) queries it instead of re-deriving overlap
//! facts with ad-hoc quadratic scans.
//!
//! Three views of the timeline are provided, ordered by generality:
//!
//! * [`DepthProfile`] — an immutable snapshot built in `O(n log n)`: compressed
//!   endpoint coordinates plus the coverage depth of every segment between them, read
//!   as aggregates (max depth, span, union, per-depth lengths).
//! * [`SweepSet`] — an incremental profile supporting interval insertion in
//!   `O(log n + k)` *and* removal in `O((k + 1) log n)` (where `k` is the number of
//!   segment boundaries inside the updated window) while maintaining the covered
//!   length, with the window queries
//!   machine placement asks (peak depth of an insertion, covered length, widest run at
//!   a depth).
//! * [`SortedSweep`] — a streaming profile for intervals pushed in non-decreasing start
//!   order (the order `Instance` stores jobs in), maintaining span and maximum depth in
//!   `O(log d)` per push, where `d` is the current depth.
//!
//! [`DisjointIntervalSet`] rounds the kernel out: an ordered set of pairwise
//! non-overlapping intervals with `O(log n)` conflict tests, which is exactly what a
//! single thread of execution of a machine holds.
//!
//! ```
//! use busytime_interval::{DepthProfile, Interval, SweepSet};
//!
//! let jobs = [
//!     Interval::from_ticks(0, 4),
//!     Interval::from_ticks(1, 5),
//!     Interval::from_ticks(8, 9),
//! ];
//! let profile = DepthProfile::new(&jobs);
//! assert_eq!(profile.max_depth(), 2);
//! assert_eq!(profile.span().ticks(), 6);
//!
//! let mut sweep = SweepSet::new();
//! for job in &jobs {
//!     sweep.insert(*job);
//! }
//! assert_eq!(sweep.max_depth(), 2);
//! sweep.remove(jobs[1]);
//! assert_eq!(sweep.max_depth(), 1);
//! assert_eq!(sweep.span().ticks(), 5);
//! ```

use std::collections::BTreeMap;

use crate::interval::Interval;
use crate::time::Duration;

/// An immutable coordinate-compressed depth profile of a set of intervals.
///
/// Construction sorts the `2n` endpoint events once (`O(n log n)`); every derived
/// quantity — maximum overlap, span, union components, per-depth lengths — is then
/// read off the compressed segments without touching the original intervals again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthProfile {
    /// Segment boundaries: `bounds[i]..bounds[i+1]` is segment `i`.  Empty iff the
    /// profile was built from no intervals.
    bounds: Vec<i64>,
    /// Coverage depth of each segment (`bounds.len() - 1` entries).
    depths: Vec<u32>,
    max_depth: usize,
    span: i64,
}

impl DepthProfile {
    /// Build the profile of a set of intervals.
    pub fn new(intervals: &[Interval]) -> Self {
        let mut events: Vec<(i64, i32)> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            events.push((iv.start().ticks(), 1));
            events.push((iv.end().ticks(), -1));
        }
        // Ends sort before starts at equal time (half-open semantics), matching the
        // paper's convention that touching intervals do not overlap.
        events.sort_unstable();
        let mut bounds: Vec<i64> = Vec::with_capacity(events.len());
        let mut depths = Vec::new();
        let (mut depth, mut max_depth, mut span) = (0i32, 0i32, 0i64);
        for run in events.chunk_by(|a, b| a.0 == b.0) {
            let t = run[0].0;
            if let Some(&prev) = bounds.last() {
                depths.push(depth as u32);
                if depth > 0 {
                    span += t - prev;
                }
            }
            bounds.push(t);
            depth += run.iter().map(|&(_, delta)| delta).sum::<i32>();
            max_depth = max_depth.max(depth);
        }
        debug_assert_eq!(depth, 0, "every start event has a matching end event");
        DepthProfile {
            bounds,
            depths,
            max_depth: max_depth.max(0) as usize,
            span,
        }
    }

    /// Largest number of intervals covering any single point (the maximum clique of the
    /// interval graph).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Total length covered by at least one interval (`span(I)`, Definition 2.2).
    pub fn span(&self) -> Duration {
        Duration::new(self.span)
    }

    /// The union of the intervals as maximal disjoint stretches of positive depth.
    ///
    /// Touching inputs (`[1,2)` and `[2,3)`) produce one stretch, matching
    /// [`union`](crate::union).
    pub fn union(&self) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut open: Option<i64> = None;
        for (i, &d) in self.depths.iter().enumerate() {
            if d > 0 {
                open.get_or_insert(self.bounds[i]);
            } else if let Some(start) = open.take() {
                out.push(Interval::from_ticks(start, self.bounds[i]));
            }
        }
        if let Some(start) = open {
            out.push(Interval::from_ticks(start, *self.bounds.last().unwrap()));
        }
        out
    }

    /// `v[k-1]` = total length covered by at least `k` intervals, for
    /// `k = 1 ..= max_depth` (so `v[0]` equals [`DepthProfile::span`]).
    pub fn per_depth_lengths(&self) -> Vec<Duration> {
        let mut exact = vec![0i64; self.max_depth + 1];
        for (i, &d) in self.depths.iter().enumerate() {
            if d > 0 {
                exact[d as usize] += self.bounds[i + 1] - self.bounds[i];
            }
        }
        // Suffix-sum the exact-depth lengths into at-least-depth lengths.
        let mut acc = 0i64;
        let mut out = vec![Duration::ZERO; self.max_depth];
        for k in (1..=self.max_depth).rev() {
            acc += exact[k];
            out[k - 1] = Duration::new(acc);
        }
        out
    }
}

/// An incremental depth profile over the timeline: intervals can be inserted and
/// removed while the covered length (span) is maintained.
///
/// Internally a piecewise-constant depth map keyed by segment boundary.  An update
/// touches only the boundaries inside the changed window, and an insertion reports the
/// peak depth inside that window — the one depth fact placement needs.  The maximum
/// depth over the whole timeline is not maintained: [`SweepSet::max_depth`] scans
/// every segment.
#[derive(Debug, Clone, Default)]
pub struct SweepSet {
    /// `segs[b]` is the depth of the segment `[b, next boundary)`.  The segment after
    /// the last boundary (and before the first) has depth 0; the last boundary always
    /// carries depth 0.
    segs: BTreeMap<i64, u32>,
    /// Total length of all segments with positive depth.
    busy: i64,
    /// Number of intervals currently in the set.
    intervals: usize,
}

impl SweepSet {
    /// An empty timeline.
    pub fn new() -> Self {
        SweepSet::default()
    }

    /// Number of intervals currently in the set.
    pub fn interval_count(&self) -> usize {
        self.intervals
    }

    /// Current maximum coverage depth: a scan of every segment, `O(segments)`.
    pub fn max_depth(&self) -> usize {
        self.segs.values().max().map_or(0, |&d| d as usize)
    }

    /// Total length covered by at least one interval.
    pub fn span(&self) -> Duration {
        Duration::new(self.busy)
    }

    /// The convex hull of the **live** intervals (`None` when the set is empty): the
    /// window from the first covered point to the last.
    ///
    /// Exact under removal: boundary merging keeps the map's outermost keys at the live
    /// extremes rather than a high-water mark of everything ever inserted, so a machine
    /// whose jobs depart gets its digest tightened, not just invalidated.  `O(log n)`.
    pub fn hull(&self) -> Option<Interval> {
        if self.intervals == 0 {
            return None;
        }
        let (&lo, &first_depth) = self.segs.iter().next().expect("live set has boundaries");
        let (&hi, _) = self
            .segs
            .iter()
            .next_back()
            .expect("live set has boundaries");
        debug_assert!(first_depth > 0, "leading boundary of a live set is covered");
        debug_assert!(lo < hi);
        Some(Interval::from_ticks(lo, hi))
    }

    /// Length of the part of `window` covered by at least one interval.
    pub fn covered_len(&self, window: Interval) -> Duration {
        let mut covered = 0i64;
        self.walk(window, |lo, hi, d| {
            if d > 0 {
                covered += hi - lo;
            }
        });
        Duration::new(covered)
    }

    /// Insert an interval, returning the increase in covered length (the *marginal
    /// busy time* of the insertion — zero when the window was already fully covered)
    /// and the largest depth inside `iv`'s window after the insertion.
    pub fn insert(&mut self, iv: Interval) -> (Duration, usize) {
        let (delta, peak) = self.apply(iv, 1);
        self.intervals += 1;
        (Duration::new(delta), peak as usize)
    }

    /// Remove a previously inserted interval, returning the decrease in covered
    /// length.
    ///
    /// Removing an interval that was never inserted corrupts the profile; this is the
    /// caller's contract (debug builds panic on depth underflow).
    pub fn remove(&mut self, iv: Interval) -> Duration {
        let (delta, _) = self.apply(iv, -1);
        self.intervals -= 1;
        Duration::new(-delta)
    }

    /// Add `sign` to the depth of every segment in `iv`'s window in one pass; returns
    /// the signed change in covered length and the largest new depth in the window.
    fn apply(&mut self, iv: Interval, sign: i32) -> (i64, u32) {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        self.ensure_boundary(s);
        self.ensure_boundary(e);
        // Removals are the only updates that can leave a boundary carrying the same
        // depth as its predecessor; merging those keeps the map proportional to the
        // *live* intervals instead of every endpoint ever inserted.
        let mut prev_depth = if sign < 0 {
            self.segs.range(..s).next_back().map_or(0, |(_, &d)| d)
        } else {
            0
        };
        let mut merged = Vec::new();
        let (mut busy_delta, mut peak) = (0i64, 0u32);
        // The segment starting at the previous boundary: the next boundary ends it.
        let mut open: Option<(i64, &mut u32)> = None;
        for (&k, depth) in self.segs.range_mut(s..=e) {
            if let Some((lo, seg)) = open.take() {
                debug_assert!(
                    *seg as i64 + sign as i64 >= 0,
                    "removed an interval that was never inserted"
                );
                let old = *seg;
                *seg = old.wrapping_add_signed(sign);
                peak = peak.max(*seg);
                if old == 0 {
                    busy_delta += k - lo;
                } else if *seg == 0 {
                    busy_delta -= k - lo;
                }
                if sign < 0 {
                    if *seg == prev_depth {
                        merged.push(lo);
                    }
                    prev_depth = *seg;
                }
            }
            open = Some((k, depth));
        }
        if sign < 0 && open.is_some_and(|(_, d)| *d == prev_depth) {
            merged.push(e);
        }
        for k in merged {
            self.segs.remove(&k);
        }
        self.busy += busy_delta;
        (busy_delta, peak)
    }

    /// Make `t` a segment boundary, splitting the segment covering it if needed.
    fn ensure_boundary(&mut self, t: i64) {
        match self.segs.range(..=t).next_back() {
            Some((&k, _)) if k == t => {}
            covering => {
                let depth = covering.map_or(0, |(_, &d)| d);
                self.segs.insert(t, depth);
            }
        }
    }

    /// A maximal stretch with depth at least `depth` intersecting `window`: the run
    /// whose *window-clamped* part is widest, extended to its true boundaries (which
    /// may reach beyond the window).  Note the selection is by clamped width — a run
    /// barely poking into the window is not preferred even if its full extent is the
    /// larger one.
    ///
    /// Used by machine states to cache a *saturated* region: a stretch at depth `g`
    /// rejects every job overlapping it in `O(1)` afterwards.  The walk is capped at
    /// `cap` boundaries in each direction beyond the window, so a heavily fragmented
    /// profile cannot make the query linear; a capped answer is still a genuine
    /// at-least-`depth` stretch, just possibly not maximal.
    pub fn widest_run_at_least(
        &self,
        depth: usize,
        window: Interval,
        cap: usize,
    ) -> Option<Interval> {
        if depth == 0 {
            return None;
        }
        let d = depth as u32;
        let (ws, we) = (window.start().ticks(), window.end().ticks());
        // Runs fully inside the window (clamped walk), merged across segment joins.
        let mut best: Option<(i64, i64)> = None;
        let mut cur: Option<(i64, i64)> = None;
        self.walk(window, |lo, hi, seg_depth| {
            if seg_depth >= depth {
                cur = match cur {
                    Some((s, e)) if e == lo => Some((s, hi)),
                    Some(run) => {
                        if best.is_none_or(|(bs, be)| be - bs < run.1 - run.0) {
                            best = Some(run);
                        }
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            } else if let Some(run) = cur.take() {
                if best.is_none_or(|(bs, be)| be - bs < run.1 - run.0) {
                    best = Some(run);
                }
            }
        });
        if let Some(run) = cur {
            if best.is_none_or(|(bs, be)| be - bs < run.1 - run.0) {
                best = Some(run);
            }
        }
        let (mut lo, mut hi) = best?;
        // Extend the winning run beyond the window edges to its true boundaries.
        if lo == ws {
            for (&k, &seg_depth) in self.segs.range(..ws).rev().take(cap) {
                if seg_depth >= d {
                    lo = k;
                } else {
                    break;
                }
            }
        }
        if hi == we {
            // If the window edge falls inside a segment, that segment's tail (whose
            // depth the walk already inspected) belongs to the run unconditionally;
            // then follow whole segments rightward while the depth holds up.
            let mut rest = self.segs.range(we..);
            if let Some((&first, &first_depth)) = rest.next() {
                hi = first;
                let mut seg_depth = first_depth;
                for (&next, &next_depth) in rest.take(cap) {
                    if seg_depth < d {
                        break;
                    }
                    hi = next;
                    seg_depth = next_depth;
                }
            }
        }
        Some(Interval::from_ticks(lo, hi))
    }

    /// Visit every `(lo, hi, depth)` piece of the profile intersecting `window`.
    fn walk(&self, window: Interval, mut f: impl FnMut(i64, i64, usize)) {
        let (s, e) = (window.start().ticks(), window.end().ticks());
        let mut prev: Option<(i64, u32)> = self
            .segs
            .range(..=s)
            .next_back()
            .map(|(&k, &d)| (k.max(s), d));
        for (&k, &d) in self
            .segs
            .range((std::ops::Bound::Excluded(s), std::ops::Bound::Excluded(e)))
        {
            if let Some((lo, depth)) = prev {
                f(lo, k, depth as usize);
            }
            prev = Some((k, d));
        }
        if let Some((lo, depth)) = prev {
            if lo < e {
                f(lo, e, depth as usize);
            }
        }
    }
}

/// A streaming depth profile for intervals arriving in non-decreasing start order —
/// the order in which an `Instance` stores its jobs, which makes this the engine of
/// schedule validation and costing: one pass over a schedule's assignment feeds each
/// machine's jobs into its own `SortedSweep`.
///
/// Maintains the span (union length, merging touching intervals like
/// [`union`](crate::union)) and the maximum simultaneous depth in `O(log d)` per push.
#[derive(Debug, Clone, Default)]
pub struct SortedSweep {
    /// Min-heap of the end times of intervals still active at the current front.
    active: std::collections::BinaryHeap<std::cmp::Reverse<i64>>,
    max_depth: usize,
    /// End of the current contiguous busy stretch.
    frontier: Option<i64>,
    busy: i64,
    last_start: i64,
}

impl SortedSweep {
    /// An empty profile.
    pub fn new() -> Self {
        SortedSweep::default()
    }

    /// Push the next interval.
    ///
    /// # Panics
    /// Debug builds panic when `iv` starts before a previously pushed interval.
    pub fn push(&mut self, iv: Interval) {
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        debug_assert!(
            self.frontier.is_none() || s >= self.last_start,
            "SortedSweep requires non-decreasing start order"
        );
        self.last_start = s;
        // Retire intervals that ended at or before the new start (half-open: an
        // interval ending exactly at `s` no longer overlaps).
        while let Some(&std::cmp::Reverse(end)) = self.active.peek() {
            if end <= s {
                self.active.pop();
            } else {
                break;
            }
        }
        self.active.push(std::cmp::Reverse(e));
        self.max_depth = self.max_depth.max(self.active.len());
        // Union maintenance: touching stretches merge.
        match self.frontier {
            Some(f) if s <= f => {
                if e > f {
                    self.busy += e - f;
                    self.frontier = Some(e);
                }
            }
            _ => {
                self.busy += e - s;
                self.frontier = Some(e);
            }
        }
    }

    /// Maximum number of simultaneously active intervals seen so far.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Total union length of everything pushed so far.
    pub fn span(&self) -> Duration {
        Duration::new(self.busy)
    }
}

/// An ordered set of pairwise non-overlapping intervals — the occupancy of one thread
/// of execution of a machine — with logarithmic conflict tests and updates.
///
/// ```
/// use busytime_interval::{DisjointIntervalSet, Interval};
///
/// let mut thread = DisjointIntervalSet::new();
/// assert!(thread.insert(Interval::from_ticks(0, 4)));
/// assert!(thread.insert(Interval::from_ticks(4, 6)), "touching is allowed");
/// assert!(!thread.insert(Interval::from_ticks(3, 5)), "overlap is rejected");
/// assert!(thread.remove(Interval::from_ticks(0, 4)));
/// assert!(!thread.conflicts(Interval::from_ticks(3, 4)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisjointIntervalSet {
    /// start → end of each member; members are pairwise disjoint, so start order is
    /// also end order.
    map: BTreeMap<i64, i64>,
}

impl DisjointIntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        DisjointIntervalSet::default()
    }

    /// Does any member overlap `iv` (intersection of positive length)?
    pub fn conflicts(&self, iv: Interval) -> bool {
        // The only candidate is the member with the largest start strictly before
        // iv's end; every earlier member ends at or before that one's start.  The
        // last member is that candidate whenever it starts before iv ends, which
        // near-monotone placement makes the common case.
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        let candidate = match self.map.last_key_value() {
            Some((&start, &end)) if start < e => Some(end),
            _ => self.map.range(..e).next_back().map(|(_, &end)| end),
        };
        candidate.is_some_and(|end| end > s)
    }

    /// Insert `iv` if it conflicts with no member; returns whether it was inserted.
    pub fn insert(&mut self, iv: Interval) -> bool {
        if self.conflicts(iv) {
            return false;
        }
        self.map.insert(iv.start().ticks(), iv.end().ticks());
        true
    }

    /// Remove the exact interval `iv` from the set; returns whether it was a member.
    pub fn remove(&mut self, iv: Interval) -> bool {
        match self.map.get(&iv.start().ticks()) {
            Some(&end) if end == iv.end().ticks() => {
                self.map.remove(&iv.start().ticks());
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, c: i64) -> Interval {
        Interval::from_ticks(s, c)
    }

    #[test]
    fn profile_matches_hand_computation() {
        let set = [iv(0, 4), iv(1, 5), iv(2, 6), iv(10, 11)];
        let p = DepthProfile::new(&set);
        assert_eq!(p.max_depth(), 3);
        assert_eq!(p.span(), Duration::new(7));
        assert_eq!(p.union(), vec![iv(0, 6), iv(10, 11)]);
        assert_eq!(
            p.per_depth_lengths(),
            vec![Duration::new(7), Duration::new(4), Duration::new(2)]
        );
    }

    #[test]
    fn profile_touching_is_one_union_but_depth_one() {
        let set = [iv(0, 2), iv(2, 4)];
        let p = DepthProfile::new(&set);
        assert_eq!(p.max_depth(), 1);
        assert_eq!(p.union(), vec![iv(0, 4)]);
    }

    #[test]
    fn empty_profile() {
        let p = DepthProfile::new(&[]);
        assert_eq!(p.max_depth(), 0);
        assert_eq!(p.span(), Duration::ZERO);
        assert!(p.union().is_empty());
        assert!(p.per_depth_lengths().is_empty());
    }

    #[test]
    fn sweep_set_insert_remove_roundtrip() {
        let mut s = SweepSet::new();
        assert_eq!(s.interval_count(), 0);
        assert_eq!(s.insert(iv(0, 10)), (Duration::new(10), 1));
        assert_eq!(s.insert(iv(5, 15)), (Duration::new(5), 2));
        assert_eq!(s.insert(iv(20, 25)), (Duration::new(5), 1));
        assert_eq!(s.max_depth(), 2);
        assert_eq!(s.span(), Duration::new(20));
        assert_eq!(s.covered_len(iv(8, 22)), Duration::new(9));
        assert_eq!(s.covered_len(iv(14, 16)), Duration::new(1));
        assert_eq!(
            s.covered_len(iv(15, 20)),
            Duration::ZERO,
            "gap between the stretches"
        );

        assert_eq!(s.remove(iv(0, 10)), Duration::new(5));
        assert_eq!(s.max_depth(), 1);
        assert_eq!(s.span(), Duration::new(15));
        assert_eq!(s.interval_count(), 2);
        assert_eq!(s.remove(iv(5, 15)), Duration::new(10));
        assert_eq!(s.remove(iv(20, 25)), Duration::new(5));
        assert_eq!(s.span(), Duration::ZERO);
        assert_eq!(s.max_depth(), 0);
        assert_eq!(s.interval_count(), 0);
    }

    #[test]
    fn sweep_set_marginal_cost_is_uncovered_length() {
        let mut s = SweepSet::new();
        s.insert(iv(0, 4));
        s.insert(iv(8, 12));
        // [2, 10) adds only the uncovered middle [4, 8), and peaks at depth 2.
        assert_eq!(s.insert(iv(2, 10)), (Duration::new(4), 2));
        assert_eq!(s.span(), Duration::new(12));
        assert_eq!(s.max_depth(), 2);
    }

    #[test]
    fn sweep_set_matches_profile_on_interleaved_updates() {
        let base = [iv(0, 6), iv(3, 9), iv(3, 4), iv(12, 20), iv(-4, 2)];
        let mut s = SweepSet::new();
        let mut live: Vec<Interval> = Vec::new();
        for (i, &interval) in base.iter().enumerate() {
            s.insert(interval);
            live.push(interval);
            if i % 2 == 1 {
                let victim = live.remove(0);
                s.remove(victim);
            }
            let p = DepthProfile::new(&live);
            assert_eq!(s.max_depth(), p.max_depth(), "after step {i}");
            assert_eq!(s.span(), p.span(), "after step {i}");
            assert_eq!(s.interval_count(), live.len());
            let hull = live
                .iter()
                .map(|v| (v.start().ticks(), v.end().ticks()))
                .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))
                .map(|(a, b)| iv(a, b));
            assert_eq!(s.hull(), hull, "after step {i}");
        }
    }

    #[test]
    fn sweep_set_hull_tightens_under_removal() {
        let mut s = SweepSet::new();
        assert_eq!(s.hull(), None);
        s.insert(iv(0, 10));
        s.insert(iv(20, 30));
        assert_eq!(s.hull(), Some(iv(0, 30)));
        // Removing the left stretch shrinks the hull to the survivor — no high-water
        // mark survives.
        s.remove(iv(0, 10));
        assert_eq!(s.hull(), Some(iv(20, 30)));
        s.remove(iv(20, 30));
        assert_eq!(s.hull(), None);
    }

    #[test]
    fn widest_run_extends_beyond_window() {
        let mut s = SweepSet::new();
        // Depth-2 plateau on [2, 10), depth-1 elsewhere in [0, 14).
        s.insert(iv(0, 10));
        s.insert(iv(2, 14));
        s.insert(iv(2, 10));
        assert_eq!(s.max_depth(), 3);
        // Query a narrow window inside the plateau: the run's true extent comes back.
        assert_eq!(s.widest_run_at_least(3, iv(5, 6), 64), Some(iv(2, 10)));
        assert_eq!(s.widest_run_at_least(2, iv(5, 6), 64), Some(iv(2, 10)));
        assert_eq!(s.widest_run_at_least(1, iv(5, 6), 64), Some(iv(0, 14)));
        assert_eq!(s.widest_run_at_least(4, iv(0, 20), 64), None);
        assert_eq!(s.widest_run_at_least(3, iv(10, 20), 64), None);
        // Two runs in the window: the widest wins.
        let mut t = SweepSet::new();
        t.insert(iv(0, 3));
        t.insert(iv(0, 3));
        t.insert(iv(5, 11));
        t.insert(iv(5, 11));
        assert_eq!(t.widest_run_at_least(2, iv(0, 20), 64), Some(iv(5, 11)));
        assert_eq!(t.widest_run_at_least(2, iv(1, 2), 64), Some(iv(0, 3)));
    }

    #[test]
    fn widest_run_extension_stops_at_the_cap() {
        // 200 touching unit intervals: a depth-1 run over [0, 200) made of 200
        // segments, one boundary per tick.
        let mut s = SweepSet::new();
        for t in 0..200 {
            s.insert(iv(t, t + 1));
        }
        // Rightward from the window's edge at 1: the 64th boundary past it is 65.
        assert_eq!(s.widest_run_at_least(1, iv(0, 1), 64), Some(iv(0, 65)));
        // Leftward from the window's edge at 199: the 64th boundary before it is 135.
        assert_eq!(
            s.widest_run_at_least(1, iv(199, 200), 64),
            Some(iv(135, 200))
        );
        // Both ways at once, and an uncapped walk reaches the true ends.
        assert_eq!(
            s.widest_run_at_least(1, iv(100, 101), 64),
            Some(iv(36, 165))
        );
        assert_eq!(
            s.widest_run_at_least(1, iv(100, 101), 1_000),
            Some(iv(0, 200))
        );
    }

    #[test]
    fn sorted_sweep_tracks_span_and_depth() {
        let mut s = SortedSweep::new();
        for interval in [iv(0, 4), iv(1, 5), iv(2, 6), iv(10, 12)] {
            s.push(interval);
        }
        assert_eq!(s.max_depth(), 3);
        assert_eq!(s.span(), Duration::new(8));
    }

    #[test]
    fn sorted_sweep_touching_merges_span_not_depth() {
        let mut s = SortedSweep::new();
        s.push(iv(0, 2));
        s.push(iv(2, 4));
        assert_eq!(s.max_depth(), 1, "touching intervals never overlap");
        assert_eq!(s.span(), Duration::new(4), "but their busy stretch merges");
    }

    #[test]
    fn disjoint_set_conflicts_and_updates() {
        let mut t = DisjointIntervalSet::new();
        assert!(!t.conflicts(iv(0, 10)));
        assert!(t.insert(iv(0, 4)));
        assert!(t.insert(iv(6, 8)));
        assert!(t.conflicts(iv(3, 7)));
        assert!(t.conflicts(iv(-2, 1)));
        assert!(!t.conflicts(iv(4, 6)));
        assert!(!t.conflicts(iv(8, 20)));
        assert!(t.insert(iv(4, 6)));
        assert!(t.conflicts(iv(5, 6)));
        assert!(t.remove(iv(4, 6)));
        assert!(!t.remove(iv(4, 7)), "end must match exactly");
        assert!(
            !t.conflicts(iv(4, 6)),
            "the removed member no longer conflicts"
        );
        assert!(
            t.conflicts(iv(3, 4)) && t.conflicts(iv(6, 7)),
            "the others still do"
        );
    }
}
