//! Greedy weighted set partition.
//!
//! Lemma 3.2 of the paper solves MinBusy on clique instances with fixed `g` by reducing
//! to minimum-weight set cover: the universe is the job set, the candidate sets are all
//! subsets of at most `g` jobs, and the weight of a candidate is its (shifted) span.  The
//! classical greedy algorithm is then an `H_g`-approximation because every candidate has
//! size at most `g`.
//!
//! This module implements that greedy over an explicit set family with integer
//! weights, restricted to disjoint picks ([`greedy_set_partition`] says why).  Ratios
//! `weight / size` are compared exactly by cross-multiplication, so no floating point
//! enters the decision.

/// A candidate set of the family, with its weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedSet {
    /// Indices of the universe elements this candidate covers.
    pub elements: Vec<usize>,
    /// Non-negative weight of picking this candidate.
    pub weight: i64,
}

impl WeightedSet {
    /// Construct a candidate set.
    ///
    /// # Panics
    /// Panics if the weight is negative (the greedy ratio rule requires non-negative
    /// weights) or the element list is empty.
    pub fn new(elements: Vec<usize>, weight: i64) -> Self {
        assert!(weight >= 0, "set cover weights must be non-negative");
        assert!(!elements.is_empty(), "a candidate set must cover something");
        WeightedSet { elements, weight }
    }
}

/// The result of a [`greedy_set_partition`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetCover {
    /// Indices (into the candidate family) of the chosen sets, in pick order.
    pub chosen: Vec<usize>,
    /// Total weight of the chosen sets.
    pub total_weight: i64,
}

/// Error returned when the family cannot cover the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncoverableError {
    /// An element of the universe not covered by any candidate set.
    pub uncovered_element: usize,
}

impl std::fmt::Display for UncoverableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "element {} is not covered by any candidate set",
            self.uncovered_element
        )
    }
}

impl std::error::Error for UncoverableError {}

/// Greedy weighted set **partition** over a universe `{0, …, universe_size - 1}`.
///
/// Repeatedly picks the candidate minimizing `weight / size` among those whose
/// elements are *all* still uncovered, so the chosen sets are pairwise disjoint and
/// form a partition of the universe.  Ties are broken towards the larger candidate,
/// then towards lower index (deterministic output).
///
/// This is the variant needed by the busy-time reduction of Lemma 3.2 in the paper: there
/// the weight of a chosen set is a *shifted* span (`span(Q) − len(Q)/g`), which is not
/// monotone under removing elements, so converting an overlapping cover into a schedule
/// can exceed the cover's weight.  Restricting the greedy to disjoint picks keeps the
/// schedule's shifted cost equal to the sum of chosen weights, which is exactly what the
/// paper's `H_g` analysis charges.  The family must be closed under taking subsets (as
/// the all-subsets-of-size-≤-g family is) for a partition to always exist.
pub fn greedy_set_partition(
    universe_size: usize,
    sets: &[WeightedSet],
) -> Result<SetCover, UncoverableError> {
    let mut covered = vec![false; universe_size];
    let mut n_covered = 0usize;
    let mut chosen = Vec::new();
    let mut total_weight = 0i64;
    let mut used = vec![false; sets.len()];

    while n_covered < universe_size {
        let mut best: Option<(usize, usize)> = None; // (set index, size)
        for (idx, s) in sets.iter().enumerate() {
            if used[idx] || s.elements.iter().any(|&e| covered[e]) {
                continue;
            }
            let size = s.elements.len();
            let better = match best {
                None => true,
                Some((bidx, bsize)) => {
                    let lhs = s.weight as i128 * bsize as i128;
                    let rhs = sets[bidx].weight as i128 * size as i128;
                    lhs < rhs || (lhs == rhs && size > bsize)
                }
            };
            if better {
                best = Some((idx, size));
            }
        }
        match best {
            Some((idx, _)) => {
                used[idx] = true;
                chosen.push(idx);
                total_weight += sets[idx].weight;
                for &e in &sets[idx].elements {
                    covered[e] = true;
                    n_covered += 1;
                }
            }
            None => {
                let uncovered_element = covered.iter().position(|&c| !c).unwrap_or(0);
                return Err(UncoverableError { uncovered_element });
            }
        }
    }
    Ok(SetCover {
        chosen,
        total_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(elements: &[usize], weight: i64) -> WeightedSet {
        WeightedSet::new(elements.to_vec(), weight)
    }

    #[test]
    fn trivial_cover() {
        let cover = greedy_set_partition(3, &[ws(&[0, 1, 2], 5)]).unwrap();
        assert_eq!(cover.chosen, vec![0]);
        assert_eq!(cover.total_weight, 5);
    }

    #[test]
    fn empty_universe_needs_nothing() {
        let cover = greedy_set_partition(0, &[]).unwrap();
        assert!(cover.chosen.is_empty());
        assert_eq!(cover.total_weight, 0);
    }

    #[test]
    fn greedy_picks_best_ratio() {
        // One big cheap set vs several expensive singletons.
        let sets = [ws(&[0], 10), ws(&[1], 10), ws(&[2], 10), ws(&[0, 1, 2], 12)];
        let cover = greedy_set_partition(3, &sets).unwrap();
        assert_eq!(cover.chosen, vec![3]);
        assert_eq!(cover.total_weight, 12);
        // Equal ratios: the larger set wins, then the lower index.
        let tied = [ws(&[0], 2), ws(&[1, 2], 4), ws(&[0, 3], 4), ws(&[3], 2)];
        let cover = greedy_set_partition(4, &tied).unwrap();
        assert_eq!(cover.chosen, vec![1, 2]);
        assert_eq!(cover.total_weight, 8);
    }

    #[test]
    fn uncoverable_universe_is_an_error() {
        let err = greedy_set_partition(3, &[ws(&[0, 1], 1)]).unwrap_err();
        assert_eq!(err.uncovered_element, 2);
    }

    #[test]
    fn zero_weight_sets_are_allowed() {
        let sets = [ws(&[0], 0), ws(&[1], 3), ws(&[0, 1], 2)];
        let cover = greedy_set_partition(2, &sets).unwrap();
        // The free set goes first; it blocks the pair, so element 1 goes alone.
        assert_eq!(cover.chosen, vec![0, 1]);
        assert_eq!(cover.total_weight, 3);
    }

    #[test]
    #[should_panic]
    fn negative_weight_rejected() {
        let _ = WeightedSet::new(vec![0], -1);
    }

    #[test]
    fn partition_variant_produces_disjoint_sets() {
        let sets = [
            ws(&[0, 1], 3),
            ws(&[1, 2], 3),
            ws(&[2, 3], 3),
            ws(&[0], 2),
            ws(&[1], 2),
            ws(&[2], 2),
            ws(&[3], 2),
        ];
        let cover = greedy_set_partition(4, &sets).unwrap();
        // Chosen sets must be pairwise disjoint and cover everything.
        let mut seen = [false; 4];
        for &i in &cover.chosen {
            for &e in &sets[i].elements {
                assert!(!seen[e], "element {e} covered twice");
                seen[e] = true;
            }
        }
        assert!(seen.iter().all(|&c| c));
    }

    #[test]
    fn partition_variant_fails_when_family_is_not_subset_closed() {
        // Only an overlapping pair of sets exists: a disjoint partition is impossible.
        let sets = [ws(&[0, 1], 1), ws(&[1, 2], 1)];
        assert_eq!(
            greedy_set_partition(3, &sets)
                .unwrap_err()
                .uncovered_element,
            2
        );
    }
}
