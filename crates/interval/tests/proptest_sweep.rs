//! Property-based equivalence tests pinning the sweep-line kernel to the reference
//! definitions it replaced: the kernel's answers must be indistinguishable from the
//! naive quadratic scans for every random interval set, including under interleaved
//! incremental insertion and removal.

use busytime_interval::{
    classify, classify_sorted, connected_components, connected_components_sorted, depth_profile,
    max_overlap, span, union, DepthProfile, DisjointIntervalSet, Duration, Interval, SortedSweep,
    SweepSet, Time,
};
use proptest::prelude::*;

/// Strategy for an arbitrary non-empty interval with small coordinates, so that
/// overlaps, touching endpoints and duplicates all occur frequently.
fn interval_strategy() -> impl Strategy<Value = Interval> {
    (-60i64..60, 1i64..40).prop_map(|(s, l)| Interval::from_ticks(s, s + l))
}

fn interval_vec(max: usize) -> impl Strategy<Value = Vec<Interval>> {
    prop::collection::vec(interval_strategy(), 0..max)
}

/// The pre-kernel `max_overlap`: a raw event sweep, kept here as the oracle.
fn max_overlap_reference(intervals: &[Interval]) -> usize {
    let mut events: Vec<(Time, i32)> = Vec::new();
    for iv in intervals {
        events.push((iv.start(), 1));
        events.push((iv.end(), -1));
    }
    events.sort_by_key(|&(t, delta)| (t, delta));
    let mut depth = 0i32;
    let mut best = 0i32;
    for (_, delta) in events {
        depth += delta;
        best = best.max(depth);
    }
    best.max(0) as usize
}

proptest! {
    /// `DepthProfile::max_depth` ≡ the old event-sweep `max_overlap`.
    #[test]
    fn profile_max_depth_matches_reference(set in interval_vec(16)) {
        let profile = DepthProfile::new(&set);
        prop_assert_eq!(profile.max_depth(), max_overlap_reference(&set));
        prop_assert_eq!(max_overlap(&set), max_overlap_reference(&set));
    }

    /// The profile's span, union and per-depth lengths agree with the wrappers (which
    /// are themselves pinned to first principles by `proptest_interval.rs`).
    #[test]
    fn profile_aggregates_match_wrappers(set in interval_vec(16)) {
        let profile = DepthProfile::new(&set);
        prop_assert_eq!(profile.span(), span(&set));
        prop_assert_eq!(profile.union(), union(&set));
        prop_assert_eq!(profile.per_depth_lengths(), depth_profile(&set));
        // Per-depth lengths sum to the total length (every tick of every interval is
        // counted at exactly one depth).
        let total: Duration = set.iter().map(Interval::len).sum();
        let mut exact = Duration::ZERO;
        let per_depth = profile.per_depth_lengths();
        for (k, &at_least) in per_depth.iter().enumerate() {
            let next = per_depth.get(k + 1).copied().unwrap_or(Duration::ZERO);
            exact += Duration::new((at_least - next).ticks() * (k as i64 + 1));
        }
        prop_assert_eq!(exact, total);
    }

    /// The incremental `SweepSet` stays equivalent to a fresh `DepthProfile` of the
    /// live intervals across an arbitrary interleaving of insertions and removals.
    #[test]
    fn sweep_set_tracks_profile_under_churn(
        set in interval_vec(14),
        removals in prop::collection::vec(any::<bool>(), 14),
    ) {
        let mut sweep = SweepSet::new();
        let mut live: Vec<Interval> = Vec::new();
        for (i, &iv) in set.iter().enumerate() {
            sweep.insert(iv);
            live.push(iv);
            if removals.get(i).copied().unwrap_or(false) && !live.is_empty() {
                let victim = live.remove(i % live.len());
                sweep.remove(victim);
            }
            let profile = DepthProfile::new(&live);
            prop_assert_eq!(sweep.max_depth(), profile.max_depth());
            prop_assert_eq!(sweep.span(), profile.span());
            prop_assert_eq!(sweep.interval_count(), live.len());
            // The live hull must track the survivors exactly — no high-water mark.
            let hull = live
                .iter()
                .map(|v| (v.start().ticks(), v.end().ticks()))
                .reduce(|(a, b), (c, d)| (a.min(c), b.max(d)))
                .map(|(a, b)| Interval::from_ticks(a, b));
            prop_assert_eq!(sweep.hull(), hull);
        }
    }

    /// `SweepSet::covered_len` — the window query best-fit pricing reads through
    /// `MachineState::marginal_busy` — counts exactly the probe ticks that some live
    /// interval covers, across an arbitrary interleaving of insertions and removals.
    #[test]
    fn sweep_set_covered_len_matches_brute_force_under_churn(
        set in interval_vec(14),
        removals in prop::collection::vec(any::<bool>(), 14),
        probes in prop::collection::vec(interval_strategy(), 1..4),
    ) {
        let mut sweep = SweepSet::new();
        let mut live: Vec<Interval> = Vec::new();
        for (i, &iv) in set.iter().enumerate() {
            sweep.insert(iv);
            live.push(iv);
            if removals.get(i).copied().unwrap_or(false) && !live.is_empty() {
                let victim = live.remove(i % live.len());
                sweep.remove(victim);
            }
            for &probe in &probes {
                let brute = (probe.start().ticks()..probe.end().ticks())
                    .filter(|&t| live.iter().any(|v| v.contains_point(Time::new(t))))
                    .count() as i64;
                prop_assert_eq!(sweep.covered_len(probe), Duration::new(brute), "probe {}", probe);
            }
        }
    }

    /// The peak `SweepSet::insert` reports is the largest depth over the inserted
    /// window, counted tick by tick over the live intervals, and the segment scan of
    /// `max_depth` still equals a fresh profile's, across insertions and removals.
    #[test]
    fn sweep_set_insert_peak_matches_brute_force_under_churn(
        set in interval_vec(14),
        removals in prop::collection::vec(any::<bool>(), 14),
    ) {
        let mut sweep = SweepSet::new();
        let mut live: Vec<Interval> = Vec::new();
        for (i, &iv) in set.iter().enumerate() {
            let (_, peak) = sweep.insert(iv);
            live.push(iv);
            let brute = (iv.start().ticks()..iv.end().ticks())
                .map(|t| live.iter().filter(|v| v.contains_point(Time::new(t))).count())
                .max()
                .unwrap_or(0);
            prop_assert_eq!(peak, brute, "insert {}", iv);
            if removals.get(i).copied().unwrap_or(false) {
                let victim = live.remove(i % live.len());
                sweep.remove(victim);
            }
            prop_assert_eq!(sweep.max_depth(), DepthProfile::new(&live).max_depth());
        }
    }

    /// `SweepSet` marginal insertion cost is the uncovered part of the window, i.e.
    /// the span increase a from-scratch recomputation would report.
    #[test]
    fn sweep_set_marginal_cost_matches_span_delta(set in interval_vec(12)) {
        let mut sweep = SweepSet::new();
        let mut live: Vec<Interval> = Vec::new();
        for &iv in &set {
            let before = span(&live);
            live.push(iv);
            let after = span(&live);
            prop_assert_eq!(sweep.insert(iv).0, after - before);
        }
    }

    /// `DisjointIntervalSet::conflicts` ≡ "some member overlaps the probe", for probes
    /// before, among and after the members, across insertions and removals.
    #[test]
    fn disjoint_set_conflicts_match_brute_force_under_churn(
        set in interval_vec(14),
        removals in prop::collection::vec(any::<bool>(), 14),
        probes in prop::collection::vec(interval_strategy(), 1..6),
    ) {
        let mut thread = DisjointIntervalSet::new();
        let mut members: Vec<Interval> = Vec::new();
        for (i, &iv) in set.iter().enumerate() {
            let free = !members.iter().any(|m| m.overlaps(&iv));
            prop_assert_eq!(thread.insert(iv), free);
            if free {
                members.push(iv);
            }
            if removals.get(i).copied().unwrap_or(false) && !members.is_empty() {
                let victim = members.remove(i % members.len());
                prop_assert!(thread.remove(victim));
            }
            for &probe in &probes {
                let brute = members.iter().any(|m| m.overlaps(&probe));
                prop_assert_eq!(thread.conflicts(probe), brute, "probe {}", probe);
            }
        }
    }

    /// The sorted streaming sweep agrees with the profile when fed in sorted order.
    #[test]
    fn sorted_sweep_matches_profile(mut set in interval_vec(16)) {
        set.sort();
        let mut sweep = SortedSweep::new();
        for &iv in &set {
            sweep.push(iv);
        }
        let profile = DepthProfile::new(&set);
        prop_assert_eq!(sweep.max_depth(), profile.max_depth());
        prop_assert_eq!(sweep.span(), profile.span());
    }

    /// Sweep-built connected components ≡ the general `connected_components`, and the
    /// sorted-slice classification ≡ the sorting one.
    #[test]
    fn sorted_variants_match_general_ones(mut set in interval_vec(14)) {
        let general_class = classify(&set);
        let general_components = connected_components(&set);
        set.sort();
        prop_assert_eq!(classify_sorted(&set), general_class);
        // Components of the sorted slice name the same interval groups (ids differ by
        // the sort permutation, so compare the intervals themselves).
        let sorted_components = connected_components_sorted(&set);
        prop_assert_eq!(sorted_components.len(), general_components.len());
        for comp in &sorted_components {
            // Each component is internally connected and ordered.
            for w in comp.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
        let flat: usize = sorted_components.iter().map(Vec::len).sum();
        prop_assert_eq!(flat, set.len());
    }
}
