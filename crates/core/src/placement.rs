//! The global placement index: O(log m) machine selection for the greedy placements.
//!
//! [`crate::machine::MachinePool`] commits jobs one at a time onto a growing set of
//! machines.  Before this module, every placement walked a flat per-machine summary
//! array — O(m) probes per job even when almost every machine provably rejects the
//! window (its saturated stretch covers it) or provably accepts it (its hull misses it).
//! [`PlacementIndex`] replaces that walk with a segment tree over the machine slots,
//! keyed by exactly the two facts the summaries held:
//!
//! * the machine's **hull** `[hull_lo, hull_hi)` — the convex hull of everything placed
//!   on it, which bounds the *hull-extension cost* of a placement (a window disjoint
//!   from the hull conflicts with nothing and pays its full length);
//! * the machine's widest known **saturated stretch** `[sat_lo, sat_hi)` — a run where
//!   every thread provably runs a job, which rejects any overlapping window outright.
//!
//! Each tree node aggregates the min/max of those four coordinates over its leaf range,
//! so the three selection queries the greedy placements need all descend in
//! `O(log m)` per reported machine instead of scanning:
//!
//! * [`PlacementIndex::next_placeable`] — the first machine at or after a given slot
//!   that is **not** rejected by its saturated stretch (FirstFit's candidate stream);
//! * [`PlacementIndex::next_overlapping`] — the first non-rejected machine whose hull
//!   overlaps the window (the only machines whose best-fit price can beat the full job
//!   length);
//! * [`PlacementIndex::first_disjoint`] — the earliest machine whose hull misses the
//!   window entirely (the cheapest *accept-at-full-length* candidate).
//!
//! The index is kept incrementally consistent: [`crate::machine::MachinePool::insert`]
//! and [`crate::machine::MachinePool::remove`] refresh one leaf per change, an
//! `O(log m)` bubble-up.  Machines that pass the index's filters are still probed
//! against their live [`crate::machine::MachineState`], so every query is exact — the
//! tree only *skips* machines whose digest already decides the answer, which is what
//! makes rejection-dominated placement (dense instances opening thousands of machines)
//! sublinear per job.
//!
//! ```
//! use busytime::placement::{MachineDigest, PlacementIndex};
//!
//! let mut index = PlacementIndex::new();
//! // Machine 0 is saturated on [0, 100); machine 1 only occupies [40, 60).
//! index.push(MachineDigest::new(Some((0, 100)), Some((0, 100))));
//! index.push(MachineDigest::new(Some((40, 60)), None));
//!
//! // A job on [10, 30) skips machine 0 (saturated there) without probing it…
//! assert_eq!(index.next_placeable(10, 30, 0), 1);
//! // …and machine 1's hull misses [70, 90) entirely, so it accepts at full length.
//! assert_eq!(index.first_disjoint(70, 90), 1);
//! // Only machine 1 can price [50, 55) below its full length (its hull overlaps it).
//! assert_eq!(index.next_overlapping(50, 55, 0), Some(1));
//! assert_eq!(index.next_overlapping(50, 55, 2), None);
//! ```

/// The per-machine digest the index is keyed on: hull and saturated stretch as raw
/// half-open tick bounds.  An absent interval is stored as the empty sentinel
/// (`lo = i64::MAX`, `hi = i64::MIN`), which makes every overlap test come out false
/// without branching on an `Option`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineDigest {
    /// Start of the machine's hull (`i64::MAX` when the machine is empty).
    pub hull_lo: i64,
    /// End of the machine's hull (`i64::MIN` when the machine is empty).
    pub hull_hi: i64,
    /// Start of the widest known saturated stretch (`i64::MAX` when none is known).
    pub sat_lo: i64,
    /// End of the widest known saturated stretch (`i64::MIN` when none is known).
    pub sat_hi: i64,
}

impl MachineDigest {
    /// The digest of an empty machine: no hull, no saturated stretch.
    pub const EMPTY: MachineDigest = MachineDigest {
        hull_lo: i64::MAX,
        hull_hi: i64::MIN,
        sat_lo: i64::MAX,
        sat_hi: i64::MIN,
    };

    /// Build a digest from optional `(lo, hi)` hull and saturated-stretch bounds.
    pub fn new(hull: Option<(i64, i64)>, saturated: Option<(i64, i64)>) -> Self {
        let mut digest = MachineDigest::EMPTY;
        if let Some((lo, hi)) = hull {
            digest.hull_lo = lo;
            digest.hull_hi = hi;
        }
        if let Some((lo, hi)) = saturated {
            digest.sat_lo = lo;
            digest.sat_hi = hi;
        }
        digest
    }

    /// The window `[s, e)` provably conflicts on every thread (it touches the saturated
    /// stretch), so the machine can be skipped without probing.
    #[inline]
    pub fn rejects(&self, s: i64, e: i64) -> bool {
        s < self.sat_hi && self.sat_lo < e
    }

    /// The window `[s, e)` provably conflicts with nothing (it misses the hull), so the
    /// machine accepts it on thread 0 at full length.
    #[inline]
    pub fn accepts(&self, s: i64, e: i64) -> bool {
        e <= self.hull_lo || self.hull_hi <= s
    }

    /// The window `[s, e)` overlaps the hull — the only case in which the machine's
    /// best-fit price can be below the full job length.
    #[inline]
    pub fn hull_overlaps(&self, s: i64, e: i64) -> bool {
        self.hull_lo < e && s < self.hull_hi
    }
}

/// One segment-tree node: coordinate-wise min/max of the digests below it, enough to
/// decide whether any leaf in the range can pass each of the three leaf predicates.
#[derive(Debug, Clone, Copy)]
struct NodeAgg {
    min_sat_hi: i64,
    max_sat_lo: i64,
    min_hull_lo: i64,
    max_hull_hi: i64,
    max_hull_lo: i64,
    min_hull_hi: i64,
}

impl NodeAgg {
    /// Aggregate of an empty range / empty machines: every bound at its identity, which
    /// makes unused slots *placeable* and *hull-disjoint* (they behave exactly like the
    /// fresh machine FirstFit opens when nothing fits) but never *hull-overlapping*.
    const EMPTY: NodeAgg = NodeAgg {
        min_sat_hi: i64::MIN,
        max_sat_lo: i64::MAX,
        min_hull_lo: i64::MAX,
        max_hull_hi: i64::MIN,
        max_hull_lo: i64::MAX,
        min_hull_hi: i64::MIN,
    };

    fn of(digest: &MachineDigest) -> Self {
        NodeAgg {
            min_sat_hi: digest.sat_hi,
            max_sat_lo: digest.sat_lo,
            min_hull_lo: digest.hull_lo,
            max_hull_hi: digest.hull_hi,
            max_hull_lo: digest.hull_lo,
            min_hull_hi: digest.hull_hi,
        }
    }

    fn merge(a: &NodeAgg, b: &NodeAgg) -> Self {
        NodeAgg {
            min_sat_hi: a.min_sat_hi.min(b.min_sat_hi),
            max_sat_lo: a.max_sat_lo.max(b.max_sat_lo),
            min_hull_lo: a.min_hull_lo.min(b.min_hull_lo),
            max_hull_hi: a.max_hull_hi.max(b.max_hull_hi),
            max_hull_lo: a.max_hull_lo.max(b.max_hull_lo),
            min_hull_hi: a.min_hull_hi.min(b.min_hull_hi),
        }
    }

    /// Some leaf below may be non-rejected (its saturated stretch misses `[s, e)`).
    #[inline]
    fn may_contain_placeable(&self, s: i64, e: i64) -> bool {
        self.min_sat_hi <= s || self.max_sat_lo >= e
    }

    /// Some leaf below may have a hull overlapping `[s, e)` (necessary condition only;
    /// leaves are re-checked exactly).
    #[inline]
    fn may_contain_overlapping(&self, s: i64, e: i64) -> bool {
        self.min_hull_lo < e && s < self.max_hull_hi
    }

    /// Some leaf below may have a hull disjoint from `[s, e)`.
    #[inline]
    fn may_contain_disjoint(&self, s: i64, e: i64) -> bool {
        self.max_hull_lo >= e || self.min_hull_hi <= s
    }
}

/// Which of the three selection predicates a descent is looking for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Query {
    Placeable,
    Overlapping,
    Disjoint,
}

impl Query {
    #[inline]
    fn node(self, agg: &NodeAgg, s: i64, e: i64) -> bool {
        match self {
            Query::Placeable => agg.may_contain_placeable(s, e),
            Query::Overlapping => {
                agg.may_contain_overlapping(s, e) && agg.may_contain_placeable(s, e)
            }
            Query::Disjoint => agg.may_contain_disjoint(s, e),
        }
    }
}

/// A growable segment tree over machine slots answering the greedy placements'
/// machine-selection queries in `O(log m)` per reported machine.
///
/// Slot `m` holds the [`MachineDigest`] of machine `m`; slots at or beyond
/// [`PlacementIndex::len`] behave like empty machines, so a query that runs off the end
/// of the pool naturally reports the slot where the next fresh machine would open.
///
/// ```
/// use busytime::placement::{MachineDigest, PlacementIndex};
///
/// let mut index = PlacementIndex::new();
/// index.push(MachineDigest::new(Some((0, 50)), Some((0, 50))));   // saturated
/// index.push(MachineDigest::new(Some((10, 30)), None));           // loaded
/// // FirstFit's candidate stream for [20, 40) skips the saturated machine 0.
/// assert_eq!(index.next_placeable(20, 40, 0), 1);
/// // Refreshing a digest re-admits the machine on the next query.
/// index.update(0, MachineDigest::new(Some((0, 50)), None));
/// assert_eq!(index.next_placeable(20, 40, 0), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlacementIndex {
    digests: Vec<MachineDigest>,
    /// Power-of-two leaf capacity; 0 until the first push.
    cap: usize,
    /// 1-based heap layout, `2 * cap` entries (entry 0 unused).
    nodes: Vec<NodeAgg>,
}

impl PlacementIndex {
    /// An index over no machines.
    pub fn new() -> Self {
        PlacementIndex::default()
    }

    /// Number of machine slots currently indexed.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// `true` when no machine has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The digest of machine `m`.
    pub fn digest(&self, m: usize) -> &MachineDigest {
        &self.digests[m]
    }

    /// All digests, in machine order (the linear-scan reference paths read this).
    pub fn digests(&self) -> &[MachineDigest] {
        &self.digests
    }

    /// Append a new machine slot with the given digest.
    pub fn push(&mut self, digest: MachineDigest) {
        let slot = self.digests.len();
        self.digests.push(digest);
        if slot >= self.cap {
            self.grow();
        } else {
            self.refresh(slot);
        }
    }

    /// Replace the digest of machine `m` and rebalance its ancestors (`O(log m)`).
    pub fn update(&mut self, m: usize, digest: MachineDigest) {
        self.digests[m] = digest;
        self.refresh(m);
    }

    /// The first slot `>= from` whose machine is **not** rejected for the window
    /// `[s, e)` by its saturated stretch.  Slots at or past [`PlacementIndex::len`] are
    /// empty and always qualify, so the result is at most `len` — the slot where a
    /// fresh machine would open.
    pub fn next_placeable(&self, s: i64, e: i64, from: usize) -> usize {
        if from >= self.len() {
            return self.len().max(from);
        }
        self.descend(Query::Placeable, s, e, from)
            .unwrap_or(self.len())
    }

    /// The first slot `>= from` holding a machine whose hull overlaps `[s, e)` and that
    /// is not rejected by its saturated stretch, if any.
    pub fn next_overlapping(&self, s: i64, e: i64, from: usize) -> Option<usize> {
        if from >= self.len() {
            return None;
        }
        self.descend(Query::Overlapping, s, e, from)
            .filter(|&m| m < self.len())
    }

    /// The earliest slot holding a machine whose hull is disjoint from `[s, e)` —
    /// `len` (the fresh-machine slot) when no existing machine qualifies.
    pub fn first_disjoint(&self, s: i64, e: i64) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.descend(Query::Disjoint, s, e, 0)
            .unwrap_or(self.len())
            .min(self.len())
    }

    /// First leaf `>= from` passing `query`.
    ///
    /// Implemented as the climbing successor walk: start at leaf `from`, climb while
    /// the current subtree cannot contain a passing leaf, step to the next right
    /// sibling, and descend into the first passing subtree.  A leaf's aggregate equals
    /// its own predicate exactly (min and max of one element coincide), so the descent
    /// needs no separate leaf check.  Enumerating consecutive candidates this way is
    /// amortized `O(1)` per step — the walk never revisits a pruned subtree — which is
    /// what keeps probe-dominated placement (many surviving candidates in a row) as
    /// cheap as the flat digest scan it replaces.
    fn descend(&self, query: Query, s: i64, e: i64, from: usize) -> Option<usize> {
        if self.cap == 0 || from >= self.cap {
            return None;
        }
        let mut pos = self.cap + from;
        loop {
            if query.node(&self.nodes[pos], s, e) {
                if pos >= self.cap {
                    return Some(pos - self.cap);
                }
                // Try the left child first; a false-positive internal node (the
                // overlap aggregate is a necessary condition only) is recovered from
                // by the climb below when both children fail.
                pos *= 2;
                continue;
            }
            // This subtree cannot contain a passing leaf: climb out of exhausted
            // right spines, then step to the next subtree to the right.
            loop {
                if pos <= 1 {
                    return None;
                }
                if pos & 1 == 0 {
                    pos += 1;
                    break;
                }
                pos >>= 1;
            }
        }
    }

    /// Recompute the leaf for slot `m` and bubble the change up to the root.
    fn refresh(&mut self, m: usize) {
        let mut i = self.cap + m;
        self.nodes[i] = NodeAgg::of(&self.digests[m]);
        i /= 2;
        while i >= 1 {
            self.nodes[i] = NodeAgg::merge(&self.nodes[i * 2], &self.nodes[i * 2 + 1]);
            i /= 2;
        }
    }

    /// Double the leaf capacity (or seed it) and rebuild every aggregate.
    fn grow(&mut self) {
        let mut cap = self.cap.max(1);
        while cap < self.digests.len() {
            cap *= 2;
        }
        self.cap = cap;
        self.nodes = vec![NodeAgg::EMPTY; 2 * cap];
        for (m, digest) in self.digests.iter().enumerate() {
            self.nodes[cap + m] = NodeAgg::of(digest);
        }
        for i in (1..cap).rev() {
            self.nodes[i] = NodeAgg::merge(&self.nodes[i * 2], &self.nodes[i * 2 + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(hull: Option<(i64, i64)>, sat: Option<(i64, i64)>) -> MachineDigest {
        MachineDigest::new(hull, sat)
    }

    /// Reference implementation: linear scan over the digests.
    fn scan_placeable(index: &PlacementIndex, s: i64, e: i64, from: usize) -> usize {
        (from..index.len())
            .find(|&m| !index.digest(m).rejects(s, e))
            .unwrap_or(index.len().max(from))
    }

    fn scan_overlapping(index: &PlacementIndex, s: i64, e: i64, from: usize) -> Option<usize> {
        (from..index.len())
            .find(|&m| index.digest(m).hull_overlaps(s, e) && !index.digest(m).rejects(s, e))
    }

    fn scan_disjoint(index: &PlacementIndex, s: i64, e: i64) -> usize {
        (0..index.len())
            .find(|&m| index.digest(m).accepts(s, e))
            .unwrap_or(index.len())
    }

    #[test]
    fn empty_index_opens_machine_zero() {
        let index = PlacementIndex::new();
        assert!(index.is_empty());
        assert_eq!(index.next_placeable(0, 10, 0), 0);
        assert_eq!(index.next_overlapping(0, 10, 0), None);
        assert_eq!(index.first_disjoint(0, 10), 0);
    }

    #[test]
    fn saturated_machines_are_skipped() {
        let mut index = PlacementIndex::new();
        for k in 0..8i64 {
            // Every machine saturated on [0, 100) except machine 5.
            let sat = if k == 5 { None } else { Some((0, 100)) };
            index.push(digest(Some((0, 100)), sat));
        }
        assert_eq!(index.next_placeable(10, 20, 0), 5);
        assert_eq!(
            index.next_placeable(10, 20, 6),
            8,
            "past 5, only a fresh slot"
        );
        // A window beyond every stretch is placeable on machine 0.
        assert_eq!(index.next_placeable(200, 210, 0), 0);
    }

    #[test]
    fn disjoint_and_overlapping_queries() {
        let mut index = PlacementIndex::new();
        index.push(digest(Some((0, 50)), None)); // overlaps [40, 60)
        index.push(digest(Some((100, 150)), None)); // disjoint from [40, 60)
        index.push(digest(Some((55, 70)), None)); // overlaps
        assert_eq!(index.first_disjoint(40, 60), 1);
        assert_eq!(index.next_overlapping(40, 60, 0), Some(0));
        assert_eq!(index.next_overlapping(40, 60, 1), Some(2));
        assert_eq!(index.next_overlapping(40, 60, 3), None);
    }

    #[test]
    fn update_rebalances() {
        let mut index = PlacementIndex::new();
        index.push(digest(Some((0, 10)), Some((0, 10))));
        assert_eq!(index.next_placeable(5, 8, 0), 1);
        index.update(0, digest(Some((0, 10)), None));
        assert_eq!(index.next_placeable(5, 8, 0), 0);
    }

    #[test]
    fn matches_linear_scan_on_pseudorandom_pools() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut index = PlacementIndex::new();
        for round in 0..300usize {
            // Grow or mutate the pool.
            let lo = (next() % 1_000) as i64;
            let len = (next() % 80 + 1) as i64;
            let hull = Some((lo, lo + len));
            let sat = (next() % 3 == 0).then(|| {
                let slo = lo + (next() % 20) as i64;
                (slo, (slo + (next() % 30) as i64 + 1).min(lo + len))
            });
            if index.is_empty() || next() % 4 != 0 {
                index.push(digest(hull, sat));
            } else {
                let m = (next() as usize) % index.len();
                index.update(m, digest(hull, sat));
            }
            // Cross-check every query against the scan reference on a random window.
            let s = (next() % 1_100) as i64;
            let e = s + (next() % 60 + 1) as i64;
            let from = (next() as usize) % (index.len() + 1);
            assert_eq!(
                index.next_placeable(s, e, from),
                scan_placeable(&index, s, e, from),
                "round {round}: placeable from {from} for [{s}, {e})"
            );
            assert_eq!(
                index.next_overlapping(s, e, from),
                scan_overlapping(&index, s, e, from),
                "round {round}: overlapping from {from} for [{s}, {e})"
            );
            assert_eq!(
                index.first_disjoint(s, e),
                scan_disjoint(&index, s, e),
                "round {round}: disjoint for [{s}, {e})"
            );
        }
    }
}
