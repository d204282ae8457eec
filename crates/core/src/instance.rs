//! Problem instances: a set of jobs plus the parallelism parameter `g`.
//!
//! Following Section 2 of the paper, a job is identified with the time interval during
//! which it must be processed, and an instance of MinBusy is a pair `(J, g)`;
//! MaxThroughput instances additionally carry a busy-time budget `T` (kept as a separate
//! argument throughout this crate).

use std::sync::OnceLock;

use busytime_interval::{
    classify_sorted, connected_components_sorted, Classification, Duration, Interval,
};
use serde::{Deserialize, Serialize};

use crate::error::Error;

/// Index of a job inside an [`Instance`] (position in the job vector).
pub type JobId = usize;

/// A MinBusy / MaxThroughput instance: jobs and the machine capacity `g`.
///
/// Jobs are stored sorted by `(start, completion)`.  For proper instances this is exactly
/// the order `J_1 ≤ J_2 ≤ … ≤ J_n` the paper uses; the original insertion order is not
/// preserved (jobs are identified by their index in the sorted order).
///
/// The sorted job vector is the only copy of the jobs.  Next to it the instance keeps
/// what its construction pass computes — `len(J)` and `span(J)` — and, each computed
/// once on first use, its classification and the two length orders.  These are derived
/// data: equality and the serialized form consider only the jobs and the capacity.
#[derive(Debug, Clone)]
pub struct Instance {
    jobs: Vec<Interval>,
    capacity: usize,
    /// `len(J)` in ticks.
    total_len: i64,
    /// `span(J)` in ticks.
    span: i64,
    class: OnceLock<Classification>,
    by_len_desc: OnceLock<Vec<u32>>,
    by_len_asc: OnceLock<Vec<u32>>,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        // Everything else is a pure function of the jobs.
        self.jobs == other.jobs && self.capacity == other.capacity
    }
}

impl Eq for Instance {}

impl Serialize for Instance {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("jobs".to_string(), self.jobs.serialize()),
            ("capacity".to_string(), self.capacity.serialize()),
        ])
    }
}

impl Deserialize for Instance {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let jobs = Vec::<Interval>::deserialize(value.field("jobs")?)?;
        let capacity = usize::deserialize(value.field("capacity")?)?;
        Instance::new(jobs, capacity).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl Instance {
    /// Create an instance from a list of job intervals and a capacity `g ≥ 1`.
    ///
    /// The jobs are sorted by `(start, completion)`.
    pub fn new(mut jobs: Vec<Interval>, capacity: usize) -> Result<Self, Error> {
        if capacity == 0 {
            return Err(Error::InvalidCapacity);
        }
        jobs.sort();
        Ok(Instance::from_sorted(jobs, capacity))
    }

    /// Internal constructor for job lists already sorted by `(start, completion)`.
    fn from_sorted(jobs: Vec<Interval>, capacity: usize) -> Self {
        assert!(
            u32::try_from(jobs.len()).is_ok(),
            "job orders index jobs with u32"
        );
        // One pass for the aggregates.  The starts are sorted, so a job adds to the
        // union length whatever it reaches past every earlier job's end.
        let (mut total_len, mut span, mut max_end) = (0, 0, i64::MIN);
        for job in &jobs {
            let (s, e) = (job.start().ticks(), job.end().ticks());
            total_len += e - s;
            if e > max_end {
                span += e - s.max(max_end);
                max_end = e;
            }
        }
        Instance {
            jobs,
            capacity,
            total_len,
            span,
            class: OnceLock::new(),
            by_len_desc: OnceLock::new(),
            by_len_asc: OnceLock::new(),
        }
    }

    /// Fallible constructor from `(start, completion)` tick pairs: empty or reversed
    /// jobs are reported as [`Error::EmptyJob`] (with the offending position) and a
    /// zero capacity as [`Error::InvalidCapacity`], instead of panicking.
    ///
    /// This is the entry point for untrusted input such as on-disk job files; the CLI
    /// input pipeline goes through it.
    pub fn try_from_ticks(jobs: &[(i64, i64)], capacity: usize) -> Result<Self, Error> {
        let jobs = jobs
            .iter()
            .enumerate()
            .map(|(index, &(s, c))| {
                Interval::try_new(
                    busytime_interval::Time::new(s),
                    busytime_interval::Time::new(c),
                )
                .map_err(|_| Error::EmptyJob {
                    index,
                    start: s,
                    end: c,
                })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        Instance::new(jobs, capacity)
    }

    /// Convenience constructor from `(start, completion)` tick pairs.
    ///
    /// # Panics
    /// Panics if any job would be empty or `g = 0` (use [`Instance::try_from_ticks`]
    /// for fallible construction).
    pub fn from_ticks(jobs: &[(i64, i64)], capacity: usize) -> Self {
        Instance::try_from_ticks(jobs, capacity).expect("jobs must be non-empty and g at least 1")
    }

    /// The jobs, sorted by `(start, completion)`.
    pub fn jobs(&self) -> &[Interval] {
        &self.jobs
    }

    /// The job with the given id.
    pub fn job(&self, id: JobId) -> Interval {
        self.jobs[id]
    }

    /// Number of jobs `n`.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if the instance has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The parallelism parameter (capacity) `g`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Job ids in non-increasing length order, ties by id (FirstFit's canonical
    /// order), computed once per instance.
    pub fn order_by_length_desc(&self) -> &[u32] {
        self.by_len_desc
            .get_or_init(|| self.order_by_key(std::cmp::Reverse))
    }

    /// Job ids in non-decreasing length order, ties by id (the best-fit greedy's
    /// canonical order), computed once per instance.
    pub fn order_by_length_asc(&self) -> &[u32] {
        self.by_len_asc.get_or_init(|| self.order_by_key(|len| len))
    }

    /// Job ids sorted by `(key(length), id)`.
    fn order_by_key<K: Ord>(&self, key: impl Fn(Duration) -> K) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.jobs.len() as u32).collect();
        order.sort_unstable_by_key(|&j| (key(self.jobs[j as usize].len()), j));
        order
    }

    /// Total length `len(J)` of all jobs (Definition 2.1), computed at construction.
    pub fn total_len(&self) -> Duration {
        Duration::new(self.total_len)
    }

    /// Span `span(J)` of all jobs (Definition 2.2), computed at construction.
    pub fn span(&self) -> Duration {
        Duration::new(self.span)
    }

    /// Classification of the instance (clique / one-sided / proper / connected),
    /// computed once per instance.
    ///
    /// The jobs are already stored sorted, so the first call is a single linear pass
    /// over them — no re-sorting per property.  It is not part of the construction
    /// pass: an instance that is never dispatched never pays for it.
    pub fn classification(&self) -> Classification {
        *self.class.get_or_init(|| classify_sorted(&self.jobs))
    }

    /// Is this a clique instance (all jobs share a common time)?
    pub fn is_clique(&self) -> bool {
        self.classification().clique
    }

    /// Is this a one-sided clique instance (common start or common completion)?
    pub fn is_one_sided(&self) -> bool {
        self.classification().one_sided
    }

    /// Is this a proper instance (no job properly contains another)?
    pub fn is_proper(&self) -> bool {
        self.classification().proper
    }

    /// Is this a proper clique instance?
    pub fn is_proper_clique(&self) -> bool {
        self.classification().is_proper_clique()
    }

    /// Job ids grouped by connected component of the interval graph, left to right.
    ///
    /// MinBusy decomposes over connected components (Section 2): a solver may be run on
    /// each component separately and the costs added.
    pub fn connected_components(&self) -> Vec<Vec<JobId>> {
        connected_components_sorted(&self.jobs)
    }

    /// Build the sub-instance induced by the given job ids (same capacity).
    ///
    /// Returns the sub-instance together with the mapping from new job ids to the
    /// original ids (`mapping[new_id] = old_id`).
    pub fn sub_instance(&self, ids: &[JobId]) -> (Instance, Vec<JobId>) {
        let mut pairs: Vec<(Interval, JobId)> = ids.iter().map(|&i| (self.jobs[i], i)).collect();
        pairs.sort();
        let jobs: Vec<Interval> = pairs.iter().map(|&(iv, _)| iv).collect();
        let mapping: Vec<JobId> = pairs.iter().map(|&(_, id)| id).collect();
        (Instance::from_sorted(jobs, self.capacity), mapping)
    }

    /// Lower bounds of Observation 2.1 (see [`crate::bounds`]).
    pub fn lower_bound(&self) -> Duration {
        crate::bounds::lower_bound(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_jobs() {
        let inst = Instance::from_ticks(&[(5, 9), (0, 4), (2, 8)], 2);
        let starts: Vec<i64> = inst.jobs().iter().map(|j| j.start().ticks()).collect();
        assert_eq!(starts, vec![0, 2, 5]);
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.capacity(), 2);
    }

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(
            Instance::new(vec![Interval::from_ticks(0, 1)], 0).unwrap_err(),
            Error::InvalidCapacity
        );
    }

    #[test]
    fn aggregate_measures() {
        let inst = Instance::from_ticks(&[(0, 4), (2, 6), (10, 12)], 3);
        assert_eq!(inst.total_len(), Duration::new(4 + 4 + 2));
        assert_eq!(inst.span(), Duration::new(6 + 2));
        assert!(!inst.is_clique());
        assert!(inst.is_proper());
        assert!(!inst.is_empty());
    }

    #[test]
    fn classification_shortcuts_agree() {
        use busytime_interval::{is_clique, is_one_sided, is_proper};
        let clique = Instance::from_ticks(&[(0, 10), (3, 8), (5, 20)], 2);
        assert!(clique.is_clique());
        assert!(!clique.is_proper(), "[0,10) properly contains [3,8)");
        // The cached classification agrees with the per-property checks.
        for inst in [
            clique,
            Instance::from_ticks(&[(0, 4), (2, 6), (10, 12)], 3),
            Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2),
            Instance::from_ticks(&[(0, 10), (2, 12), (4, 14)], 2),
            Instance::from_ticks(&[], 1),
        ] {
            let jobs = inst.jobs();
            assert_eq!(inst.is_clique(), is_clique(jobs));
            assert_eq!(inst.is_proper(), is_proper(jobs));
            assert_eq!(inst.is_one_sided(), is_clique(jobs) && is_one_sided(jobs));
            assert_eq!(inst.classification(), inst.clone().classification());
        }
    }

    #[test]
    fn sub_instance_maps_ids() {
        let inst = Instance::from_ticks(&[(0, 4), (2, 6), (10, 12), (11, 15)], 2);
        let comps = inst.connected_components();
        assert_eq!(comps.len(), 2);
        let (sub, mapping) = inst.sub_instance(&comps[1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(mapping, comps[1]);
        assert_eq!(sub.job(0), inst.job(mapping[0]));
        assert_eq!(sub.capacity(), 2);
    }

    #[test]
    fn length_orders_match_reference_sorts() {
        let inst = Instance::from_ticks(&[(0, 10), (1, 3), (4, 6), (2, 12), (7, 9)], 2);
        let jobs = inst.jobs();
        let mut desc: Vec<usize> = (0..jobs.len()).collect();
        desc.sort_by_key(|&j| (std::cmp::Reverse(jobs[j].len()), j));
        let mut asc: Vec<usize> = (0..jobs.len()).collect();
        asc.sort_by_key(|&j| (jobs[j].len(), j));
        let ids = |order: &[u32]| order.iter().map(|&j| j as usize).collect::<Vec<_>>();
        assert_eq!(ids(inst.order_by_length_desc()), desc);
        assert_eq!(ids(inst.order_by_length_asc()), asc);
    }

    #[test]
    fn clones_share_nothing_mutable() {
        let inst = Instance::from_ticks(&[(0, 4), (1, 5)], 2);
        let _ = inst.order_by_length_desc();
        let copy = inst.clone();
        assert_eq!(copy.order_by_length_desc(), inst.order_by_length_desc());
        assert_eq!(copy, inst);
    }
}
