//! Interval-graph helpers: the overlap graph of a job set.
//!
//! Section 1 of the paper views the input as an interval graph — one vertex per job, one
//! edge per overlapping pair.  Section 3.1 additionally weighs each edge `{J_i, J_j}` by
//! the length of the overlap, which is exactly the saving obtained by putting the two
//! jobs on the same machine when `g = 2`.

use busytime_interval::{Duration, Interval};

use crate::matching::WeightedEdge;

/// The overlap graph `G_m = (J, E_m)` of Section 3.1: an edge for every overlapping pair,
/// weighted by the overlap length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapGraph {
    n: usize,
    edges: Vec<WeightedEdge>,
}

impl OverlapGraph {
    /// Build the overlap graph of a set of intervals (vertex `i` is `intervals[i]`).
    ///
    /// A start-ordered sweep keeps the set of still-active intervals and emits one edge
    /// per genuinely overlapping pair: `O((n + m) log n)` where `m` is the number of
    /// edges, instead of probing all `n²` pairs.  (On the clique instances the matching
    /// algorithm of Lemma 3.1 runs on, `m = n²/2` and the graph is complete either
    /// way — the sweep pays off on the sparse graphs of the analysis tooling.)
    pub fn build(intervals: &[Interval]) -> Self {
        let n = intervals.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (intervals[i].start(), intervals[i].end(), i));

        let mut active: std::collections::BTreeSet<(busytime_interval::Time, usize)> =
            std::collections::BTreeSet::new();
        let mut edges = Vec::new();
        for &i in &order {
            let iv = intervals[i];
            // Retire intervals that ended at or before this start (half-open: touching
            // intervals do not overlap and get no edge).
            while let Some(&(end, k)) = active.iter().next() {
                if end <= iv.start() {
                    active.remove(&(end, k));
                } else {
                    break;
                }
            }
            // Every remaining active interval starts no later and ends strictly after
            // this start: a genuine overlap.
            for &(_, k) in active.iter() {
                let ov = intervals[k].overlap_len(&iv);
                debug_assert!(ov > Duration::ZERO);
                let (u, v) = if k < i { (k, i) } else { (i, k) };
                edges.push(WeightedEdge::new(u, v, ov.ticks()));
            }
            active.insert((iv.end(), i));
        }
        // Deterministic order, identical to the old all-pairs enumeration.
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        OverlapGraph { n, edges }
    }

    /// Number of vertices (jobs).
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The weighted edges (one per overlapping pair).
    pub fn edges(&self) -> &[WeightedEdge] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime_interval::is_clique;

    fn iv(s: i64, c: i64) -> Interval {
        Interval::from_ticks(s, c)
    }

    #[test]
    fn overlap_graph_of_clique_is_complete() {
        let set = [iv(0, 10), iv(2, 12), iv(4, 9), iv(1, 20)];
        assert!(is_clique(&set));
        let g = OverlapGraph::build(&set);
        assert_eq!(g.vertex_count(), 4);
        // Every pair overlaps, each listed once in (u, v) order.
        assert_eq!(
            g.edges(),
            [
                WeightedEdge::new(0, 1, 8),
                WeightedEdge::new(0, 2, 5),
                WeightedEdge::new(0, 3, 9),
                WeightedEdge::new(1, 2, 5),
                WeightedEdge::new(1, 3, 10),
                WeightedEdge::new(2, 3, 5),
            ]
        );
    }

    #[test]
    fn edge_weights_are_overlap_lengths() {
        let set = [iv(0, 10), iv(5, 15), iv(20, 30)];
        let g = OverlapGraph::build(&set);
        assert_eq!(g.edges(), [WeightedEdge::new(0, 1, 5)]);
    }

    #[test]
    fn touching_intervals_are_not_adjacent() {
        let set = [iv(0, 5), iv(5, 10)];
        let g = OverlapGraph::build(&set);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edges(), []);
    }

    #[test]
    fn adjacency_is_symmetric() {
        // [0,6) overlaps both others ([3,6) and [5,6)); [3,9) overlaps [5,12) on [5,9).
        let set = [iv(0, 6), iv(3, 9), iv(5, 12)];
        let g = OverlapGraph::build(&set);
        assert_eq!(
            g.edges(),
            [
                WeightedEdge::new(0, 1, 3),
                WeightedEdge::new(0, 2, 1),
                WeightedEdge::new(1, 2, 4),
            ]
        );
        // Numbered against start order, each pair is still one edge with u < v.
        let reversed = [iv(5, 12), iv(3, 9), iv(0, 6)];
        let g = OverlapGraph::build(&reversed);
        assert_eq!(
            g.edges(),
            [
                WeightedEdge::new(0, 1, 4),
                WeightedEdge::new(0, 2, 1),
                WeightedEdge::new(1, 2, 3),
            ]
        );

        // A chain where the extremes do not overlap.
        let chain = [iv(0, 4), iv(3, 8), iv(7, 12)];
        let g = OverlapGraph::build(&chain);
        assert_eq!(
            g.edges(),
            [WeightedEdge::new(0, 1, 1), WeightedEdge::new(1, 2, 1)]
        );
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = OverlapGraph::build(&[]);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edges(), []);
        let g = OverlapGraph::build(&[iv(0, 1)]);
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.edges(), []);
    }
}
