//! # busytime-graph
//!
//! Graph substrates for the `busytime` workspace (a reproduction of *"Optimizing Busy
//! Time on Parallel Machines"*, Mertzios et al.):
//!
//! * [`max_weight_matching`] — maximum-weight matching in general graphs via the blossom
//!   algorithm, the engine behind the optimal clique/`g = 2` algorithm (Lemma 3.1),
//! * [`greedy_set_partition`] — the greedy of weighted set cover (`H_k` guarantee)
//!   restricted to disjoint picks, the engine behind the clique/fixed-`g` approximation
//!   (Lemma 3.2),
//! * [`OverlapGraph`] — the weighted overlap graph of a set of job intervals.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The blossom algorithm is written to mirror the classical presentation: stage state is
// threaded through explicit parameters and arrays are indexed in lockstep.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

mod interval_graph;
mod matching;
mod setcover;

pub use interval_graph::OverlapGraph;
pub use matching::{max_weight_matching, max_weight_matching_brute, Matching, WeightedEdge};
pub use setcover::{greedy_set_partition, SetCover, UncoverableError, WeightedSet};
