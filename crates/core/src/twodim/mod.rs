//! Two-dimensional (rectangular) busy-time scheduling — Section 3.4 of the paper.
//!
//! Jobs are axis-aligned rectangles (e.g. *hours of the day* × *days* for periodic jobs,
//! or *position on a line network* × *time* for lightpath requests).  A machine of
//! capacity `g` may cover any point of the plane with at most `g` of its assigned
//! rectangles; its busy "time" is the **area** of the union of its rectangles, and the
//! MinBusy objective is the total area over all machines.
//!
//! Algorithms:
//! * [`first_fit_2d`] — FirstFit by non-increasing `len₂`, the algorithm of Lemma 3.4/3.5
//!   whose approximation ratio lies in `[6γ₁ + 3, 6γ₁ + 4]`;
//! * [`bucket_first_fit`] — BucketFirstFit (Algorithm 4), which buckets jobs by `len₁`
//!   into geometric classes and runs FirstFit per bucket, giving the
//!   `min(g, 13.82·log min(γ₁, γ₂) + O(1))` guarantee of Theorem 3.3.

mod bucket;
mod first_fit;
mod instance2d;

pub use bucket::{bucket_first_fit, bucket_first_fit_guarantee, DEFAULT_BUCKET_BASE};
pub use first_fit::{first_fit_2d, first_fit_2d_guarantee, first_fit_2d_in_order};
pub use instance2d::{Instance2d, Schedule2d, SolveResult2d};
