//! The flat structure-of-arrays job layout behind [`Instance`](crate::Instance).
//!
//! The hot placement paths spend their time streaming over job endpoints and canonical
//! job orders, not over `Interval` structs: FirstFit wants the jobs by non-increasing
//! length, the best-fit greedy wants them by non-decreasing length, and every
//! profile-backed aggregate (maximum overlap, per-depth lengths) wants the start and end
//! coordinates as two sorted runs.  Before this module each of those callers
//! re-derived its view per call — a fresh `O(n log n)` sort of indices or endpoint
//! events every time FirstFit, the greedy fallback or `max_overlap` ran.
//!
//! [`JobsSoa`] computes each view once and shares it: the `start[]`/`end[]` columns,
//! the total length and the span are materialised at instance construction (the jobs
//! are already being sorted there), and the derived views — sorted end events, the two
//! length orders, the coordinate-compressed [`DepthProfile`] — are built lazily on first
//! use and cached behind [`OnceLock`]s, so cloned instances share nothing mutable and
//! repeated queries are `O(1)`.

use std::sync::OnceLock;

use busytime_interval::{DepthProfile, Interval};

/// Columnar view of a sorted job list: endpoint arrays plus cached canonical orders
/// and the coordinate-compressed depth profile.
///
/// Job `j`'s interval is `[starts()[j], ends()[j])`; indices agree with the owning
/// instance's job ids (jobs sorted by `(start, completion)`), so the `starts` column is
/// itself sorted — the arrival order is the identity permutation.
#[derive(Debug, Clone, Default)]
pub struct JobsSoa {
    starts: Vec<i64>,
    ends: Vec<i64>,
    total_len: i64,
    max_end: i64,
    span: i64,
    ends_sorted: OnceLock<Vec<i64>>,
    by_len_desc: OnceLock<Vec<u32>>,
    by_len_asc: OnceLock<Vec<u32>>,
    profile: OnceLock<DepthProfile>,
}

impl JobsSoa {
    /// Build the columns of a job list already sorted by `(start, completion)`.
    pub(crate) fn new(jobs: &[Interval]) -> Self {
        assert!(
            u32::try_from(jobs.len()).is_ok(),
            "SoA permutations index jobs with u32"
        );
        let starts: Vec<i64> = jobs.iter().map(|j| j.start().ticks()).collect();
        let ends: Vec<i64> = jobs.iter().map(|j| j.end().ticks()).collect();
        // One pass for the aggregates.  The starts are sorted, so a job adds to the
        // union length whatever it reaches past every earlier job's end.
        let (mut total_len, mut span, mut max_end) = (0, 0, i64::MIN);
        for (&s, &e) in starts.iter().zip(&ends) {
            total_len += e - s;
            if e > max_end {
                span += e - s.max(max_end);
                max_end = e;
            }
        }
        JobsSoa {
            starts,
            ends,
            total_len,
            max_end,
            span,
            ends_sorted: OnceLock::new(),
            by_len_desc: OnceLock::new(),
            by_len_asc: OnceLock::new(),
            profile: OnceLock::new(),
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Start ticks, indexed by job id (sorted non-decreasing by construction).
    pub fn starts(&self) -> &[i64] {
        &self.starts
    }

    /// End ticks, indexed by job id (aligned with [`JobsSoa::starts`]).
    pub fn ends(&self) -> &[i64] {
        &self.ends
    }

    /// Start of job `j` in ticks.
    #[inline]
    pub fn start(&self, j: usize) -> i64 {
        self.starts[j]
    }

    /// End of job `j` in ticks.
    #[inline]
    pub fn end(&self, j: usize) -> i64 {
        self.ends[j]
    }

    /// Length of job `j` in ticks.
    #[inline]
    pub fn job_len(&self, j: usize) -> i64 {
        self.ends[j] - self.starts[j]
    }

    /// Total length of all jobs in ticks (`len(J)`, counted with multiplicity).
    pub fn total_len_ticks(&self) -> i64 {
        self.total_len
    }

    /// Length of the union of all jobs in ticks (`span(J)`), computed at construction.
    pub(crate) fn span_ticks(&self) -> i64 {
        self.span
    }

    /// The convex hull of all jobs as `(lo, hi)` ticks, or `None` when empty — an
    /// `O(1)` read (the first start is the minimum because the columns are sorted).
    pub fn hull_ticks(&self) -> Option<(i64, i64)> {
        self.starts.first().map(|&lo| (lo, self.max_end))
    }

    /// Average coverage depth over the hull, `len(J) / (hull length)` — the `O(1)`
    /// density estimate the adaptive dispatch thresholds consume (0.0 when empty).
    pub fn hull_density(&self) -> f64 {
        match self.hull_ticks() {
            Some((lo, hi)) if hi > lo => self.total_len as f64 / (hi - lo) as f64,
            _ => 0.0,
        }
    }

    /// The end ticks as their own sorted run (the second half of the SoA event layout;
    /// computed once).
    pub fn ends_sorted(&self) -> &[i64] {
        self.ends_sorted.get_or_init(|| {
            let mut ends = self.ends.clone();
            ends.sort_unstable();
            ends
        })
    }

    /// Job ids by non-increasing length, ties by id — FirstFit's canonical order
    /// (computed once; further FirstFit runs reuse it instead of re-sorting).
    pub fn by_length_desc(&self) -> &[u32] {
        self.by_len_desc.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.len() as u32).collect();
            order.sort_unstable_by_key(|&j| (-self.job_len(j as usize), j));
            order
        })
    }

    /// Job ids by non-decreasing length, ties by id — the best-fit greedy's canonical
    /// order (computed once).
    pub fn by_length_asc(&self) -> &[u32] {
        self.by_len_asc.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.len() as u32).collect();
            order.sort_unstable_by_key(|&j| (self.job_len(j as usize), j));
            order
        })
    }

    /// The coordinate-compressed depth profile of the whole job set, built from the
    /// two sorted endpoint runs in `O(n)` (after the one-time end sort) and cached.
    ///
    /// Maximum overlap and the per-depth lengths both read off this single structure,
    /// so an instance pays for at most one profile however many aggregate queries run
    /// against it.  The span does not need it: it is computed at construction.
    pub fn profile(&self) -> &DepthProfile {
        self.profile
            .get_or_init(|| DepthProfile::from_sorted_events(&self.starts, self.ends_sorted()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime_interval::Duration;

    fn soa(jobs: &[(i64, i64)]) -> (Vec<Interval>, JobsSoa) {
        let mut jobs: Vec<Interval> = jobs
            .iter()
            .map(|&(s, e)| Interval::from_ticks(s, e))
            .collect();
        jobs.sort();
        let soa = JobsSoa::new(&jobs);
        (jobs, soa)
    }

    #[test]
    fn columns_align_with_job_ids() {
        let (jobs, soa) = soa(&[(5, 9), (0, 4), (2, 8)]);
        assert_eq!(soa.len(), 3);
        for (j, iv) in jobs.iter().enumerate() {
            assert_eq!(soa.start(j), iv.start().ticks());
            assert_eq!(soa.end(j), iv.end().ticks());
            assert_eq!(soa.job_len(j), iv.len().ticks());
        }
        assert!(soa.starts().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(soa.total_len_ticks(), 4 + 6 + 4);
    }

    #[test]
    fn length_orders_match_reference_sorts() {
        let (jobs, soa) = soa(&[(0, 10), (1, 3), (4, 6), (2, 12), (7, 9)]);
        let mut desc: Vec<usize> = (0..jobs.len()).collect();
        desc.sort_by_key(|&j| (std::cmp::Reverse(jobs[j].len()), j));
        let mut asc: Vec<usize> = (0..jobs.len()).collect();
        asc.sort_by_key(|&j| (jobs[j].len(), j));
        let got_desc: Vec<usize> = soa.by_length_desc().iter().map(|&j| j as usize).collect();
        let got_asc: Vec<usize> = soa.by_length_asc().iter().map(|&j| j as usize).collect();
        assert_eq!(got_desc, desc);
        assert_eq!(got_asc, asc);
    }

    #[test]
    fn profile_agrees_with_direct_build() {
        let (jobs, soa) = soa(&[(0, 4), (2, 6), (10, 12), (3, 5)]);
        let direct = DepthProfile::new(&jobs);
        assert_eq!(soa.profile(), &direct);
        assert_eq!(soa.profile().span(), Duration::new(6 + 2));
        assert_eq!(soa.span_ticks(), 6 + 2);
        assert_eq!(soa.profile().max_depth(), 3);
    }

    #[test]
    fn clones_share_nothing_mutable() {
        let (_, soa) = soa(&[(0, 4), (1, 5)]);
        let _ = soa.by_length_desc();
        let copy = soa.clone();
        assert_eq!(copy.by_length_desc(), soa.by_length_desc());
        assert!(copy.is_empty() == soa.is_empty());
    }
}
