//! # busytime-interval
//!
//! Time, interval and rectangle primitives for busy-time scheduling on parallel machines.
//!
//! This crate is the geometric substrate of the `busytime` workspace, which reproduces
//! *"Optimizing Busy Time on Parallel Machines"* (Mertzios, Shalom, Voloshin, Wong, Zaks;
//! IPDPS 2012 / TCS 2015).  It provides:
//!
//! * [`Time`] / [`Duration`] — exact integer time points and durations,
//! * [`Interval`] — half-open one-dimensional job intervals with the paper's overlap
//!   convention (Section 2),
//! * [`Rect`] — two-dimensional rectangular intervals (Section 3.4),
//! * the sweep-line kernel ([`DepthProfile`], [`SweepSet`], [`SortedSweep`],
//!   [`DisjointIntervalSet`]) — one compressed timeline that every overlap-derived
//!   quantity in the workspace is read from: the aggregates of a fixed interval set,
//!   the streaming cost of a schedule, and the live occupancy of a machine,
//! * span / length / union computations for sets of intervals and rectangles
//!   (Definitions 2.1, 2.2, 3.1, 3.2), all thin wrappers over the kernel,
//! * classification of interval sets into the special instance classes the paper studies
//!   (clique, one-sided, proper, connected), computed in a single sorted pass.
//!
//! Everything here is purely geometric: jobs, machines and schedules live in the
//! `busytime` core crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod classify;
mod interval;
mod rect;
mod span;
mod sweep;
mod time;

pub use classify::{
    classify, classify_sorted, connected_components, connected_components_sorted, is_clique,
    is_connected, is_connected_sorted, is_one_sided, is_proper, is_proper_sorted, Classification,
};
pub use interval::{EmptyIntervalError, Interval};
pub use rect::{gamma, max_cover_depth, total_area, union_area, Area, Rect};
pub use span::{common_point, depth_profile, hull, max_overlap, span, total_len, union};
pub use sweep::{DepthProfile, DisjointIntervalSet, SortedSweep, SweepSet, CHUNK_LEN};
pub use time::{Duration, Time};
