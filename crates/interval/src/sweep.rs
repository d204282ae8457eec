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
//! * [`SweepSet`] — an incremental profile supporting interval insertion *and*
//!   removal while maintaining the covered length, with the window queries machine
//!   placement asks (peak depth of an insertion, covered length, widest run at a
//!   depth).  An update costs `O(log n + C + k)` (where `k` is the number of segment
//!   boundaries inside the updated window and `C` the chunk bound below), plus one
//!   lookup per boundary a removal merges away.
//! * [`SortedSweep`] — a streaming profile for intervals pushed in non-decreasing start
//!   order (the order `Instance` stores jobs in), maintaining span and maximum depth in
//!   `O(log d)` per push, where `d` is the current depth.
//!
//! [`DisjointIntervalSet`] rounds the kernel out: an ordered set of pairwise
//! non-overlapping intervals with `O(log n)` conflict tests, which is exactly what a
//! single thread of execution of a machine holds.
//!
//! Both incremental sets keep their keys in one private sorted-chunk sequence: entries
//! in key order across chunks of at most `C` = [`CHUNK_LEN`] = 64 entries, the first
//! chunk held inline.  A lookup binary-searches
//! the chunks' last keys and then the one chunk; an insertion shifts at most one
//! chunk, and an append (the common case: placement orders are near-monotone) lands on
//! the last chunk without a search.  Flat sorted vectors lose where a few machines
//! hold thousands of boundaries inserted at random positions, because every insertion
//! then shifts half the array; a B-tree pays a pointer chase per level on every probe.
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

use crate::interval::Interval;
use crate::time::Duration;

/// The most entries one storage chunk of a [`SweepSet`] or a [`DisjointIntervalSet`]
/// holds.  A fixed part of the layout, public so that tests can size their inputs to
/// cross chunk boundaries.  On the `offline_batch` placements 32, 64 and 128 timed
/// alike within noise.
pub const CHUNK_LEN: usize = 64;

/// Where an entry of a [`Chunks`] sequence sits.  The position one past the last
/// entry is `(chunk count, 0)`; every other position names an existing entry.
#[derive(Clone, Copy)]
struct Pos {
    chunk: usize,
    offset: usize,
}

/// `(key, value)` entries in strictly increasing key order, stored across chunks of at
/// most [`CHUNK_LEN`] entries.  No chunk is empty: a full chunk splits in half before it
/// takes another entry, and an emptied chunk is dropped.
///
/// The first chunk is held inline, so a set of at most [`CHUNK_LEN`] entries — every
/// thread and most machines of a pool — is one vector, one indirection from its owner.
///
/// Equality compares the entries, not how they happen to be split into chunks.
#[derive(Debug, Clone, Default)]
struct Chunks<V> {
    /// Chunk 0; empty only when the whole sequence is.
    head: Vec<(i64, V)>,
    /// Chunks 1 and on: chunk `c` is `tail[c - 1]`.
    tail: Vec<Vec<(i64, V)>>,
    /// The last key of each chunk of `tail`, so a search reads one array.
    tail_last: Vec<i64>,
}

impl<V: Copy> Chunks<V> {
    fn chunk_count(&self) -> usize {
        if self.head.is_empty() {
            0
        } else {
            1 + self.tail.len()
        }
    }

    fn chunk(&self, c: usize) -> &[(i64, V)] {
        if c == 0 {
            &self.head
        } else {
            &self.tail[c - 1]
        }
    }

    fn chunk_mut(&mut self, c: usize) -> &mut Vec<(i64, V)> {
        if c == 0 {
            &mut self.head
        } else {
            &mut self.tail[c - 1]
        }
    }

    /// Every chunk in order (just the empty head when there are none).
    fn chunks(&self) -> impl DoubleEndedIterator<Item = &[(i64, V)]> {
        std::iter::once(&self.head[..]).chain(self.tail.iter().map(Vec::as_slice))
    }

    fn iter(&self) -> impl Iterator<Item = &(i64, V)> {
        self.chunks().flatten()
    }

    fn first(&self) -> Option<(i64, V)> {
        self.head.first().copied()
    }

    fn last(&self) -> Option<(i64, V)> {
        self.tail.last().unwrap_or(&self.head).last().copied()
    }

    /// The position one past the last entry.
    fn end(&self) -> Pos {
        Pos {
            chunk: self.chunk_count(),
            offset: 0,
        }
    }

    /// The position of the first entry whose key is at least `t` ([`Chunks::end`] when
    /// there is none, found without a search).
    fn lower_bound(&self, t: i64) -> Pos {
        if self.last().is_none_or(|(k, _)| k < t) {
            return self.end();
        }
        let chunk = if self.head[self.head.len() - 1].0 >= t {
            0
        } else {
            1 + self.tail_last.partition_point(|&k| k < t)
        };
        let offset = self.chunk(chunk).partition_point(|&(k, _)| k < t);
        Pos { chunk, offset }
    }

    /// The entry at `at`, `None` at the end.
    fn get(&self, at: Pos) -> Option<(i64, V)> {
        (at.chunk < self.chunk_count()).then(|| self.chunk(at.chunk)[at.offset])
    }

    /// The entry just before `at`.
    fn before(&self, at: Pos) -> Option<(i64, V)> {
        if at.offset > 0 {
            Some(self.chunk(at.chunk)[at.offset - 1])
        } else {
            at.chunk.checked_sub(1).map(|c| {
                let chunk = self.chunk(c);
                chunk[chunk.len() - 1]
            })
        }
    }

    /// The entries from `at` on, in key order.
    fn iter_from(&self, at: Pos) -> impl Iterator<Item = &(i64, V)> {
        let first = self
            .get(at)
            .map_or(&[][..], |_| &self.chunk(at.chunk)[at.offset..]);
        let rest = self.chunks().skip(at.chunk + 1);
        first.iter().chain(rest.flatten())
    }

    /// The keys and values from `at` on, in key order, with the values mutable.
    fn iter_from_mut(&mut self, at: Pos) -> impl Iterator<Item = (i64, &mut V)> {
        let (first, rest): (&mut [_], &mut [_]) = if at.chunk == 0 {
            (&mut self.head[at.offset..], &mut self.tail[..])
        } else {
            match self.tail[at.chunk - 1..].split_first_mut() {
                Some((chunk, rest)) => (&mut chunk[at.offset..], rest),
                None => Default::default(),
            }
        };
        let entries = first.iter_mut().chain(rest.iter_mut().flatten());
        entries.map(|(k, v)| (*k, v))
    }

    /// The entries before `at`, nearest first.
    fn iter_before(&self, at: Pos) -> impl Iterator<Item = &(i64, V)> {
        let first = self
            .get(at)
            .map_or(&[][..], |_| &self.chunk(at.chunk)[..at.offset]);
        let earlier = self.chunks().rev().skip(self.tail.len() + 1 - at.chunk);
        first
            .iter()
            .rev()
            .chain(earlier.flat_map(|c| c.iter().rev()))
    }

    /// Insert `entry` at `at`, which must keep the keys in order; returns where it
    /// landed.  Past a full last chunk a new chunk opens, so ascending inserts fill
    /// their chunks; anywhere else a full chunk splits in half first.
    fn insert_at(&mut self, at: Pos, entry: (i64, V)) -> Pos {
        let Pos {
            mut chunk,
            mut offset,
        } = at;
        let count = self.chunk_count();
        if chunk == count {
            let last = self.tail.last_mut().unwrap_or(&mut self.head);
            if last.len() < CHUNK_LEN {
                last.push(entry);
                let at = Pos {
                    chunk: count.max(1) - 1,
                    offset: last.len() - 1,
                };
                self.sync_last(at.chunk);
                return at;
            }
            self.tail.push(vec![entry]);
            self.tail_last.push(entry.0);
            return Pos { chunk, offset: 0 };
        }
        if self.chunk(chunk).len() == CHUNK_LEN {
            let upper = self.chunk_mut(chunk).split_off(CHUNK_LEN / 2);
            self.tail_last.insert(chunk, upper[upper.len() - 1].0);
            self.tail.insert(chunk, upper);
            self.sync_last(chunk);
            if offset > CHUNK_LEN / 2 {
                chunk += 1;
                offset -= CHUNK_LEN / 2;
            }
        }
        self.chunk_mut(chunk).insert(offset, entry);
        self.sync_last(chunk);
        Pos { chunk, offset }
    }

    /// Record chunk `c`'s last key in `tail_last` (the head's is not kept).
    fn sync_last(&mut self, c: usize) {
        if c > 0 {
            let chunk = &self.tail[c - 1];
            self.tail_last[c - 1] = chunk[chunk.len() - 1].0;
        }
    }

    /// The position after `at`, which must name an entry.
    fn next(&self, at: Pos) -> Pos {
        if at.offset + 1 < self.chunk(at.chunk).len() {
            Pos {
                offset: at.offset + 1,
                ..at
            }
        } else {
            Pos {
                chunk: at.chunk + 1,
                offset: 0,
            }
        }
    }

    /// Remove the entry at `at`, dropping its chunk when that empties it; returns
    /// the position of the entry that followed it.
    fn remove_at(&mut self, at: Pos) -> Pos {
        let chunk = self.chunk_mut(at.chunk);
        chunk.remove(at.offset);
        let (len, c) = (chunk.len(), at.chunk);
        if len > 0 {
            self.sync_last(c);
            return if at.offset < len {
                at
            } else {
                Pos {
                    chunk: c + 1,
                    offset: 0,
                }
            };
        }
        // The chunk emptied: drop it, or move the next chunk up into an empty head.
        if c > 0 {
            self.tail.remove(c - 1);
            self.tail_last.remove(c - 1);
        } else if !self.tail.is_empty() {
            self.head = self.tail.remove(0);
            self.tail_last.remove(0);
        }
        Pos {
            chunk: c,
            offset: 0,
        }
    }
}

impl<V: Copy + PartialEq> PartialEq for Chunks<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<V: Copy + Eq> Eq for Chunks<V> {}

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
/// Internally a piecewise-constant depth map keyed by segment boundary, held in sorted
/// chunks.  An update touches only the boundaries inside the changed window, and an
/// insertion reports the peak depth inside that window — the one depth fact placement
/// needs.  The maximum depth over the whole timeline is not maintained:
/// [`SweepSet::max_depth`] scans every segment.
#[derive(Debug, Clone, Default)]
pub struct SweepSet {
    /// `(b, d)`: the segment `[b, next boundary)` has depth `d`.  The segment after
    /// the last boundary (and before the first) has depth 0; the last boundary always
    /// carries depth 0.
    segs: Chunks<u32>,
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
        self.segs
            .iter()
            .map(|&(_, d)| d)
            .max()
            .map_or(0, |d| d as usize)
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
    /// whose jobs depart gets its digest tightened, not just invalidated.  `O(1)`.
    pub fn hull(&self) -> Option<Interval> {
        if self.intervals == 0 {
            return None;
        }
        let (lo, first_depth) = self.segs.first().expect("live set has boundaries");
        let (hi, _) = self.segs.last().expect("live set has boundaries");
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
        // `e` first, then `s`: inserting `s` may shift `e`'s position but not its key,
        // and the walk runs from `s`'s position up to `e`'s key.
        self.ensure_boundary(e);
        let at = self.ensure_boundary(s);
        let (mut busy_delta, mut peak) = (0i64, 0u32);
        // The segment starting at the previous boundary: the next boundary ends it.
        let mut open: Option<(i64, &mut u32)> = None;
        for (k, depth) in self.segs.iter_from_mut(at) {
            if k > e {
                break;
            }
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
            }
            open = Some((k, depth));
        }
        if sign < 0 {
            // A removal can leave boundaries in the window carrying the same depth as
            // their predecessor; merging those keeps the map proportional to the
            // *live* intervals instead of every endpoint ever inserted.
            let (mut at, mut prev) = (at, self.segs.before(at).map_or(0, |(_, d)| d));
            while let Some((_, depth)) = self.segs.get(at).filter(|&(k, _)| k <= e) {
                if depth == prev {
                    at = self.segs.remove_at(at);
                } else {
                    prev = depth;
                    at = self.segs.next(at);
                }
            }
        }
        self.busy += busy_delta;
        (busy_delta, peak)
    }

    /// Make `t` a segment boundary, splitting the segment covering it if needed;
    /// returns the boundary's position.
    fn ensure_boundary(&mut self, t: i64) -> Pos {
        let at = self.segs.lower_bound(t);
        match self.segs.get(at) {
            Some((k, _)) if k == t => at,
            _ => {
                let depth = self.segs.before(at).map_or(0, |(_, d)| d);
                self.segs.insert_at(at, (t, depth))
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
            let at = self.segs.lower_bound(ws);
            for &(k, seg_depth) in self.segs.iter_before(at).take(cap) {
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
            let mut rest = self.segs.iter_from(self.segs.lower_bound(we));
            if let Some(&(first, first_depth)) = rest.next() {
                hi = first;
                let mut seg_depth = first_depth;
                for &(next, next_depth) in rest.take(cap) {
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
        let at = self.segs.lower_bound(s);
        let mut rest = self.segs.iter_from(at);
        // The segment covering `s`: the one starting there, or else the one before.
        let mut prev: Option<(i64, u32)> = match self.segs.get(at) {
            Some((k, d)) if k == s => {
                rest.next();
                Some((s, d))
            }
            _ => self.segs.before(at).map(|(_, d)| (s, d)),
        };
        for &(k, d) in rest {
            if k >= e {
                break;
            }
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
    /// `(start, end)` of each member; members are pairwise disjoint, so start order is
    /// also end order.
    map: Chunks<i64>,
}

impl DisjointIntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        DisjointIntervalSet::default()
    }

    /// Where `iv` would go: its position when no member overlaps it.
    fn slot(&self, iv: Interval) -> Option<Pos> {
        // The only candidate is the member with the largest start strictly before
        // iv's end; every earlier member ends at or before that one's start.  The
        // last member is that candidate whenever it starts before iv ends, which
        // near-monotone placement makes the common case: `lower_bound` answers it
        // without a search, and an insert there is an append to the last chunk.
        // Without a conflict, the members starting before `e` are exactly those
        // starting before `s`, so the same position is where `iv` goes.
        let (s, e) = (iv.start().ticks(), iv.end().ticks());
        let at = self.map.lower_bound(e);
        match self.map.before(at) {
            Some((_, end)) if end > s => None,
            _ => Some(at),
        }
    }

    /// Does any member overlap `iv` (intersection of positive length)?
    pub fn conflicts(&self, iv: Interval) -> bool {
        self.slot(iv).is_none()
    }

    /// Insert `iv` if it conflicts with no member; returns whether it was inserted.
    pub fn insert(&mut self, iv: Interval) -> bool {
        match self.slot(iv) {
            Some(at) => {
                self.map
                    .insert_at(at, (iv.start().ticks(), iv.end().ticks()));
                true
            }
            None => false,
        }
    }

    /// Remove the exact interval `iv` from the set; returns whether it was a member.
    pub fn remove(&mut self, iv: Interval) -> bool {
        let at = self.map.lower_bound(iv.start().ticks());
        let found = self.map.get(at) == Some((iv.start().ticks(), iv.end().ticks()));
        if found {
            self.map.remove_at(at);
        }
        found
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

    /// A deterministic xorshift stream: `next(bound)` draws from `0..bound`.
    fn draws(mut x: u64) -> impl FnMut(i64) -> i64 {
        move |bound| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as i64
        }
    }

    /// Fisher–Yates over `items` with the `next` stream.
    fn shuffle<T>(items: &mut [T], next: &mut impl FnMut(i64) -> i64) {
        for k in (1..items.len()).rev() {
            items.swap(k, next(k as i64 + 1) as usize);
        }
    }

    /// The brute-force reference: the depth of every tick of `[0, width)`.
    struct Ticks(Vec<u32>);

    impl Ticks {
        fn apply(&mut self, v: Interval, sign: i32) {
            for t in v.start().ticks()..v.end().ticks() {
                self.0[t as usize] = self.0[t as usize].wrapping_add_signed(sign);
            }
        }

        fn depths(&self, w: Interval) -> impl Iterator<Item = u32> + '_ {
            self.0[w.start().ticks() as usize..w.end().ticks() as usize]
                .iter()
                .copied()
        }

        fn covered(&self, w: Interval) -> Duration {
            Duration::new(self.depths(w).filter(|&d| d > 0).count() as i64)
        }

        fn hull(&self) -> Option<Interval> {
            let lo = self.0.iter().position(|&d| d > 0)?;
            let hi = self.0.iter().rposition(|&d| d > 0)? + 1;
            Some(iv(lo as i64, hi as i64))
        }

        /// The first widest window-clamped run at depth `depth` or more, extended to
        /// its true ends.
        fn widest_run(&self, depth: u32, w: Interval) -> Option<Interval> {
            let (ws, we) = (w.start().ticks() as usize, w.end().ticks() as usize);
            let mut best: Option<(usize, usize)> = None;
            let mut t = ws;
            while t < we {
                if self.0[t] < depth {
                    t += 1;
                    continue;
                }
                let start = t;
                while t < we && self.0[t] >= depth {
                    t += 1;
                }
                if best.is_none_or(|(a, b)| b - a < t - start) {
                    best = Some((start, t));
                }
            }
            let (mut lo, mut hi) = best?;
            while lo > 0 && self.0[lo - 1] >= depth {
                lo -= 1;
            }
            while hi < self.0.len() && self.0[hi] >= depth {
                hi += 1;
            }
            Some(iv(lo as i64, hi as i64))
        }
    }

    /// The layout invariants of a chunk sequence.
    fn assert_layout<V: Copy>(c: &Chunks<V>) {
        assert!(
            !c.head.is_empty() || c.tail.is_empty(),
            "only an empty set has an empty head"
        );
        assert!(c.chunks().all(|chunk| chunk.len() <= CHUNK_LEN));
        assert!(c.tail.iter().all(|chunk| !chunk.is_empty()));
        let keys: Vec<i64> = c.iter().map(|&(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend");
        let lasts: Vec<i64> = c
            .tail
            .iter()
            .map(|chunk| chunk[chunk.len() - 1].0)
            .collect();
        assert_eq!(c.tail_last, lasts);
    }

    /// Every query of `s` against the tick reference, on a few random windows.
    fn check_sweep(s: &SweepSet, ticks: &Ticks, next: &mut impl FnMut(i64) -> i64) {
        assert_layout(&s.segs);
        let width = ticks.0.len() as i64;
        assert_eq!(s.span(), ticks.covered(iv(0, width)));
        assert_eq!(s.hull(), ticks.hull());
        assert_eq!(
            s.max_depth(),
            ticks.0.iter().copied().max().unwrap() as usize
        );
        for _ in 0..4 {
            let start = next(width - 1);
            let w = iv(start, start + 1 + next((width - start).min(300)));
            assert_eq!(s.covered_len(w), ticks.covered(w), "covered_len({w})");
            for depth in 1..=3 {
                assert_eq!(
                    s.widest_run_at_least(depth, w, usize::MAX),
                    ticks.widest_run(depth as u32, w),
                    "widest_run_at_least({depth}, {w})"
                );
            }
        }
    }

    #[test]
    fn sweep_set_matches_brute_force_across_chunks() {
        // Several hundred short intervals over a timeline 40 chunks wide: about a
        // thousand boundaries, inserted at random positions.
        let width = 40 * CHUNK_LEN as i64;
        let mut next = draws(0x5eed_cafe);
        let mut s = SweepSet::new();
        let mut ticks = Ticks(vec![0; width as usize]);
        let mut live = Vec::new();
        for step in 0..8 * CHUNK_LEN {
            let start = next(width - 24);
            let v = iv(start, start + 1 + next(24));
            let added = v.len() - ticks.covered(v);
            ticks.apply(v, 1);
            let peak = ticks.depths(v).max().unwrap() as usize;
            assert_eq!(s.insert(v), (added, peak), "insert {v}");
            live.push(v);
            if step % 16 == 0 {
                check_sweep(&s, &ticks, &mut next);
            }
        }
        check_sweep(&s, &ticks, &mut next);
        let chunks = s.segs.chunk_count();
        assert!(chunks > 8, "the profile spans {chunks} chunks");

        // Remove every interval starting in the left half: whole chunks of merged
        // boundaries empty, the inline first chunk included.
        let (left, right): (Vec<Interval>, Vec<Interval>) = live
            .into_iter()
            .partition(|v| v.start().ticks() < width / 2);
        for (k, &v) in left.iter().enumerate() {
            ticks.apply(v, -1);
            let freed = v.len() - ticks.covered(v);
            assert_eq!(s.remove(v), freed, "remove {v}");
            if k % 16 == 0 {
                check_sweep(&s, &ticks, &mut next);
            }
        }
        check_sweep(&s, &ticks, &mut next);
        let after = s.segs.chunk_count();
        assert!(after < chunks, "{chunks} chunks, then {after}");

        // Then the rest, in shuffled order, down to nothing.
        let mut right = right;
        shuffle(&mut right, &mut next);
        for (k, &v) in right.iter().enumerate() {
            ticks.apply(v, -1);
            s.remove(v);
            if k % 16 == 0 {
                check_sweep(&s, &ticks, &mut next);
            }
        }
        assert_eq!(
            (s.span(), s.hull(), s.interval_count()),
            (Duration::ZERO, None, 0)
        );
        assert_eq!(s.segs.chunk_count(), 0);
    }

    /// `t`'s layout, and its conflict tests on random probes against `members`.
    fn check_disjoint(
        t: &DisjointIntervalSet,
        members: &[Interval],
        next: &mut impl FnMut(i64) -> i64,
    ) {
        assert_layout(&t.map);
        let width = members.iter().map(|m| m.end().ticks()).max().unwrap_or(0) + 20;
        for _ in 0..32 {
            let start = next(width) - 10;
            let probe = iv(start, start + 1 + next(25));
            let brute = members.iter().any(|m| m.overlaps(&probe));
            assert_eq!(t.conflicts(probe), brute, "probe {probe}");
        }
    }

    #[test]
    fn disjoint_set_matches_brute_force_across_chunks() {
        // Members on every ten-tick slot, six chunks' worth of them.
        let n = 6 * CHUNK_LEN as i64;
        let member = |i: i64| iv(10 * i, 10 * i + 6);
        let mut next = draws(0xd15_7017);
        let mut shuffled: Vec<i64> = (0..n).collect();
        shuffle(&mut shuffled, &mut next);
        let orders = [
            (0..n).collect::<Vec<i64>>(),
            (0..n).rev().collect(),
            shuffled.clone(),
        ];
        let sets: Vec<DisjointIntervalSet> = orders
            .iter()
            .map(|order| {
                let mut t = DisjointIntervalSet::new();
                for &i in order {
                    assert!(t.insert(member(i)));
                    assert!(!t.insert(iv(10 * i + 5, 10 * i + 9)), "overlaps member {i}");
                }
                assert!(t.map.chunk_count() > 2);
                t
            })
            .collect();
        // Equal members, different chunk layouts: still equal.
        assert!(sets[0].map.chunk_count() != sets[1].map.chunk_count());
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[0], sets[2]);

        let mut t = sets[2].clone();
        let mut members: Vec<Interval> = (0..n).map(member).collect();
        for set in &sets {
            check_disjoint(set, &members, &mut next);
        }
        check_disjoint(&t, &members, &mut next);
        // Remove a contiguous run of two chunks' worth, then every third member in
        // shuffled order; then some of the gaps take new members.
        for i in CHUNK_LEN as i64..3 * CHUNK_LEN as i64 {
            assert!(t.remove(member(i)));
            assert!(!t.remove(member(i)), "already gone");
        }
        members.retain(|m| {
            !(10 * CHUNK_LEN as i64..30 * CHUNK_LEN as i64).contains(&m.start().ticks())
        });
        check_disjoint(&t, &members, &mut next);
        for &i in shuffled.iter().filter(|&&i| i % 3 == 0) {
            let m = member(i);
            assert_eq!(t.remove(m), members.contains(&m), "member {i}");
            members.retain(|&x| x != m);
        }
        check_disjoint(&t, &members, &mut next);
        assert!(!t.remove(iv(11, 16)), "the end must match");
        for i in CHUNK_LEN as i64..2 * CHUNK_LEN as i64 {
            assert!(t.insert(iv(10 * i + 2, 10 * i + 8)));
            members.push(iv(10 * i + 2, 10 * i + 8));
        }
        check_disjoint(&t, &members, &mut next);
        // Equality follows the members alone.
        let mut rebuilt = DisjointIntervalSet::new();
        members.sort();
        for &m in &members {
            assert!(rebuilt.insert(m));
        }
        assert_eq!(t, rebuilt);
        assert!(rebuilt.remove(members[0]));
        assert_ne!(t, rebuilt);
    }
}
