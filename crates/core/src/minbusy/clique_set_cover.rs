//! Lemma 3.2: a `g·H_g / (H_g + g − 1)`-approximation for clique instances with fixed
//! `g`, via weighted set cover.
//!
//! For a clique instance a schedule is valid iff every machine gets at most `g` jobs, so
//! MinBusy is a minimum-weight set cover of the job set with candidate sets of size at
//! most `g`, each weighted by its span.  The paper sharpens the plain `H_g` guarantee of
//! the greedy algorithm by shifting every weight down by the parallelism bound's share,
//! `weight(Q) = span(Q) − len(Q)/g`, and balancing against the length bound; the greedy
//! choice is unchanged (we scale all weights by `g` to stay in integers:
//! `g·span(Q) − len(Q)`).
//!
//! The greedy is run in *partition* mode (a candidate may only be chosen while all of its
//! jobs are unscheduled): with the shifted weights an overlapping cover cannot simply be
//! deduplicated without breaking the analysis, and the partition mode is exactly what the
//! paper's accounting `weight(s) = cost(s) − len(J)/g` assumes.
//!
//! The candidate family has `Σ_{k≤g} C(n,k)` sets, so the algorithm is intended for small
//! fixed `g` (the paper notes the ratio stays below 2 for `g ≤ 6`).  A fixed limit,
//! [`DEFAULT_SET_FAMILY_LIMIT`], guards against accidental exponential blow-ups.

use busytime_graph::{greedy_set_partition, WeightedSet};
use busytime_interval::Interval;

use crate::error::Error;
use crate::instance::Instance;
use crate::schedule::Schedule;

/// Default limit on the number of candidate sets enumerated by
/// [`clique_set_cover`].
pub const DEFAULT_SET_FAMILY_LIMIT: usize = 2_000_000;

/// The approximation guarantee `g·H_g / (H_g + g − 1)` of Lemma 3.2.
pub fn set_cover_guarantee(g: usize) -> f64 {
    let h_g: f64 = (1..=g).map(|k| 1.0 / k as f64).sum();
    (g as f64) * h_g / (h_g + g as f64 - 1.0)
}

/// Lemma 3.2 approximation algorithm.
///
/// Returns [`Error::NotClique`] on non-clique instances and
/// [`Error::SetFamilyTooLarge`] when `Σ_{k≤g} C(n,k)` exceeds
/// [`DEFAULT_SET_FAMILY_LIMIT`].
pub fn clique_set_cover(instance: &Instance) -> Result<Schedule, Error> {
    clique_set_cover_with_limit(instance, DEFAULT_SET_FAMILY_LIMIT)
}

/// [`clique_set_cover`] with an explicit candidate-family limit.
fn clique_set_cover_with_limit(instance: &Instance, limit: usize) -> Result<Schedule, Error> {
    if !instance.is_clique() {
        return Err(Error::NotClique);
    }
    let n = instance.len();
    let g = instance.capacity().min(n.max(1));
    if n == 0 {
        return Ok(Schedule::empty(0));
    }
    let required = count_subsets_up_to(n, g, limit);
    if required > limit {
        return Err(Error::SetFamilyTooLarge { required, limit });
    }

    // Enumerate all subsets of size 1..=g with the shifted weight g·span(Q) − len(Q).
    // Every subset of a clique instance is itself a clique, so its span is simply the
    // hull length (latest completion − earliest start); with jobs sorted by start the
    // earliest start is the first chosen job's, and the latest completion and total
    // length are carried incrementally through the enumeration — no per-subset
    // re-unioning.
    let jobs = instance.jobs();
    let g_i64 = instance.capacity() as i64;
    let mut sets: Vec<WeightedSet> = Vec::with_capacity(required);
    let mut current: Vec<usize> = Vec::with_capacity(g);
    enumerate_subsets(
        n,
        g,
        jobs,
        &mut current,
        &mut |subset, span_ticks, len_ticks| {
            let weight = g_i64 * span_ticks - len_ticks;
            debug_assert!(weight >= 0, "span ≥ len/g for every set of ≤ g intervals");
            sets.push(WeightedSet::new(subset.to_vec(), weight));
        },
    );

    // The greedy must build a *partition* (disjoint picks): the shifted weight
    // span(Q) − len(Q)/g is not monotone under dropping elements, so converting an
    // overlapping cover into a schedule could exceed the weight the H_g analysis charges
    // (and measurably violates the Lemma 3.2 bound — experiment E2 of
    // `experiments --json` checks it).  The all-subsets family is closed under subsets,
    // so a partition always exists.
    let cover = greedy_set_partition(n, &sets).expect("singletons make the universe coverable");

    let mut schedule = Schedule::empty(n);
    for (machine, &set_idx) in cover.chosen.iter().enumerate() {
        for &job in &sets[set_idx].elements {
            debug_assert!(!schedule.is_scheduled(job), "partition picks are disjoint");
            schedule.assign(job, machine);
        }
    }
    Ok(schedule)
}

/// The size of [`clique_set_cover`]'s candidate family on `n` jobs at capacity `g`,
/// `Σ_{k≤g} C(n,k)`, counted only until it exceeds [`DEFAULT_SET_FAMILY_LIMIT`]: any
/// result above the limit means the algorithm refuses the instance at once.
pub(crate) fn set_family_size(n: usize, g: usize) -> usize {
    count_subsets_up_to(n, g, DEFAULT_SET_FAMILY_LIMIT)
}

/// Count `Σ_{k=1..=g} C(n,k)`, saturating once the count exceeds `limit` (to avoid
/// overflow for large `n`).
fn count_subsets_up_to(n: usize, g: usize, limit: usize) -> usize {
    let mut total: usize = 0;
    let mut binom: u128 = 1;
    for k in 1..=g.min(n) {
        binom = binom * (n - k + 1) as u128 / k as u128;
        total = total.saturating_add(binom.min(usize::MAX as u128) as usize);
        if total > limit {
            return total;
        }
    }
    total
}

/// Enumerate all subsets of `{0..n}` of size 1..=g in lexicographic order, invoking the
/// callback with each subset plus its clique span and total length in ticks (maintained
/// incrementally; `jobs` must be sorted by start, as in an [`Instance`]).
fn enumerate_subsets(
    n: usize,
    g: usize,
    jobs: &[Interval],
    current: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize], i64, i64),
) {
    struct Ctx<'a, F> {
        n: usize,
        g: usize,
        jobs: &'a [Interval],
        f: F,
    }

    fn rec<F: FnMut(&[usize], i64, i64)>(
        ctx: &mut Ctx<'_, F>,
        start: usize,
        max_end: i64,
        total_len: i64,
        current: &mut Vec<usize>,
    ) {
        if let Some(&first) = current.first() {
            let span = max_end - ctx.jobs[first].start().ticks();
            (ctx.f)(current, span, total_len);
        }
        if current.len() == ctx.g {
            return;
        }
        for next in start..ctx.n {
            current.push(next);
            let end = ctx.jobs[next].end().ticks();
            let len = ctx.jobs[next].len().ticks();
            rec(ctx, next + 1, max_end.max(end), total_len + len, current);
            current.pop();
        }
    }

    let mut ctx = Ctx { n, g, jobs, f };
    rec(&mut ctx, 0, i64::MIN, 0, current);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::lower_bound;
    use busytime_interval::{span, Duration};

    #[test]
    fn guarantee_values_match_paper() {
        // H_2 = 1.5 → 2·1.5 / (1.5 + 1) = 1.2 ; the paper notes the ratio is < 2 for g ≤ 6.
        assert!((set_cover_guarantee(2) - 1.2).abs() < 1e-12);
        for g in 2..=6 {
            assert!(set_cover_guarantee(g) < 2.0, "g = {g}");
        }
        assert!(
            set_cover_guarantee(7) > set_cover_guarantee(6),
            "monotone increasing"
        );
    }

    #[test]
    fn subset_enumeration_counts_and_aggregates() {
        let jobs: Vec<Interval> = (0..5).map(|i| Interval::from_ticks(i, i + 10)).collect();
        let mut count = 0usize;
        enumerate_subsets(5, 2, &jobs, &mut Vec::new(), &mut |subset, sp, ln| {
            count += 1;
            let ivs: Vec<Interval> = subset.iter().map(|&i| jobs[i]).collect();
            assert_eq!(sp, span(&ivs).ticks());
            assert_eq!(ln, ivs.iter().map(|iv| iv.len().ticks()).sum::<i64>());
        });
        assert_eq!(count, 5 + 10);
        assert_eq!(count_subsets_up_to(5, 2, 1000), 15);
        assert_eq!(count_subsets_up_to(10, 3, 10_000), 10 + 45 + 120);
    }

    #[test]
    fn solves_small_clique_instance_optimally_for_g2() {
        // For g = 2 set cover with sets of size ≤ 2 is exact; compare with the matching
        // algorithm's optimum.
        let inst = Instance::from_ticks(&[(0, 20), (2, 18), (8, 12), (9, 11)], 2);
        let s = clique_set_cover(&inst).unwrap();
        s.validate_complete(&inst).unwrap();
        assert_eq!(s.cost(&inst), Duration::new(24));
    }

    #[test]
    fn respects_capacity_three() {
        let inst = Instance::from_ticks(&[(0, 10), (1, 11), (2, 12), (3, 13), (4, 14), (5, 15)], 3);
        let s = clique_set_cover(&inst).unwrap();
        s.validate_complete(&inst).unwrap();
        // Guarantee check against the lower bound.
        let bound = set_cover_guarantee(3);
        assert!(s.cost(&inst).as_f64() <= bound * lower_bound(&inst).as_f64() + 1e-9);
    }

    #[test]
    fn non_clique_rejected() {
        let inst = Instance::from_ticks(&[(0, 5), (6, 10)], 2);
        assert_eq!(clique_set_cover(&inst).unwrap_err(), Error::NotClique);
    }

    #[test]
    fn family_limit_enforced() {
        let jobs: Vec<(i64, i64)> = (0..30).map(|i| (i, 100 + i)).collect();
        let inst = Instance::from_ticks(&jobs, 5);
        match clique_set_cover_with_limit(&inst, 1000).unwrap_err() {
            Error::SetFamilyTooLarge { required, limit } => {
                assert!(required > 1000);
                assert_eq!(limit, 1000);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_instance_ok() {
        let inst = Instance::from_ticks(&[], 4);
        let s = clique_set_cover(&inst).unwrap();
        assert_eq!(s.machines_used(), 0);
    }

    #[test]
    fn identical_jobs_fill_machines() {
        let inst = Instance::from_ticks(&[(0, 10); 7], 3);
        let s = clique_set_cover(&inst).unwrap();
        s.validate_complete(&inst).unwrap();
        // ⌈7/3⌉ = 3 machines each paying span 10.
        assert_eq!(s.cost(&inst), Duration::new(30));
    }
}
