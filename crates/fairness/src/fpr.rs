//! Favored Pair Representation (FPR) — Definition 4 of the paper.
//!
//! For a group `G` in ranking `π`, `FPR_G(π)` is the fraction of `G`'s mixed pairs in
//! which the `G` member is favored (ranked above the non-member):
//!
//! ```text
//! FPR_G(π) = Σ_{x ∈ G} #{ y ∉ G : x ≺_π y }  /  (|G| · (|X| - |G|))
//! ```
//!
//! `FPR = 0` means the group sits entirely at the bottom, `1` entirely at the top, and
//! `0.5` means the group receives its directly proportional share of favored positions —
//! i.e. statistical parity for that group.
//!
//! The implementation computes the FPR of *every* group along a grouping axis (one
//! protected attribute or the intersection) in a single O(n + g) pass over the ranking,
//! by walking from the bottom up and tracking how many already-seen candidates lie below
//! each group.

use mani_ranking::{GroupMembership, Ranking};
use serde::{Deserialize, Serialize};

/// FPR scores of every group along one grouping axis (attribute or intersection).
///
/// Groups that have no members, or that cover the entire database (no mixed pairs),
/// carry `None` — their fair treatment is undefined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FprScores {
    scores: Vec<Option<f64>>,
}

impl FprScores {
    /// FPR of group `g`, or `None` if the group has no mixed pairs.
    pub fn score(&self, g: usize) -> Option<f64> {
        self.scores.get(g).copied().flatten()
    }

    /// All scores, indexed by group id along the axis.
    pub fn scores(&self) -> &[Option<f64>] {
        &self.scores
    }

    /// Iterates over `(group index, score)` for groups with defined scores.
    pub fn defined(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.scores
            .iter()
            .enumerate()
            .filter_map(|(g, s)| s.map(|v| (g, v)))
    }

    /// Largest absolute FPR difference between any two groups with defined scores.
    ///
    /// This is exactly ARP (for an attribute axis) or IRP (for the intersection axis).
    /// Returns `0.0` when fewer than two groups have defined scores.
    pub fn max_pairwise_gap(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut count = 0usize;
        for (_, v) in self.defined() {
            min = min.min(v);
            max = max.max(v);
            count += 1;
        }
        if count < 2 {
            0.0
        } else {
            max - min
        }
    }

    /// Group index with the highest FPR (ties broken by lower group index).
    pub fn argmax(&self) -> Option<usize> {
        self.defined()
            .fold(None, |best: Option<(usize, f64)>, (g, v)| match best {
                Some((_, bv)) if bv >= v => best,
                _ => Some((g, v)),
            })
            .map(|(g, _)| g)
    }

    /// Group index with the lowest FPR (ties broken by lower group index).
    pub fn argmin(&self) -> Option<usize> {
        self.defined()
            .fold(None, |best: Option<(usize, f64)>, (g, v)| match best {
                Some((_, bv)) if bv <= v => best,
                _ => Some((g, v)),
            })
            .map(|(g, _)| g)
    }

    /// Scores from per-group favoured-pair numerators, as returned by
    /// [`favored_pair_counts`]: `favored[g] / (|g| · (n − |g|))`.
    ///
    /// Callers that keep the integer numerators up to date themselves (Make-MR-Fair
    /// does, one swap at a time) get the same `f64` scores as [`group_fprs`] on the
    /// same ranking.
    pub fn from_favored(favored: &[u64], membership: &GroupMembership) -> Self {
        let n = membership.num_candidates();
        let scores = favored
            .iter()
            .enumerate()
            .map(|(g, &count)| {
                let mixed = mani_ranking::mixed_pairs_for_group(membership.group_size(g), n);
                if mixed == 0 {
                    None
                } else {
                    Some(count as f64 / mixed as f64)
                }
            })
            .collect();
        Self { scores }
    }
}

/// Computes the FPR of every group along one grouping axis in a single pass.
///
/// # Panics
/// Panics if the ranking and membership table cover different numbers of candidates;
/// that is a programming error (they must come from the same database).
pub fn group_fprs(ranking: &Ranking, membership: &GroupMembership) -> FprScores {
    FprScores::from_favored(&favored_pair_counts(ranking, membership), membership)
}

/// The FPR numerators of every group along one axis: `favored[g]` counts, over the
/// members `x` of `g`, the non-members ranked below `x`.
///
/// # Panics
/// Panics if the ranking and membership table cover different numbers of candidates.
#[allow(clippy::explicit_counter_loop)] // seen_total counts candidates walked, not loop turns
pub fn favored_pair_counts(ranking: &Ranking, membership: &GroupMembership) -> Vec<u64> {
    assert_eq!(
        ranking.len(),
        membership.num_candidates(),
        "ranking and group membership must cover the same candidates"
    );
    let num_groups = membership.num_groups();

    let mut favored = vec![0u64; num_groups];
    // seen_below[g] = how many members of g we have already passed walking bottom-up.
    let mut seen_below = vec![0u64; num_groups];
    let mut seen_total = 0u64;

    for pos in (0..ranking.len()).rev() {
        let candidate = ranking.candidate_at(pos);
        let g = membership.group_of(candidate);
        // Candidates below this one that are NOT in g:
        favored[g] += seen_total - seen_below[g];
        seen_below[g] += 1;
        seen_total += 1;
    }
    favored
}

/// FPR of a single group along an axis. Convenience wrapper over [`group_fprs`].
pub fn group_fpr(ranking: &Ranking, membership: &GroupMembership, group: usize) -> Option<f64> {
    group_fprs(ranking, membership).score(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::pairs::favored_mixed_pairs_of;
    use mani_ranking::{
        mixed_pairs_for_group, CandidateDb, CandidateDbBuilder, CandidateId, GroupIndex,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Database with one binary attribute split sizes (na, nb) in blocks.
    fn binary_db(na: usize, nb: usize) -> (CandidateDb, GroupIndex) {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["a", "b"]).unwrap();
        for i in 0..(na + nb) {
            let v = usize::from(i >= na);
            b.add_candidate(format!("c{i}"), [(g, v)]).unwrap();
        }
        let db = b.build().unwrap();
        let idx = GroupIndex::new(&db);
        (db, idx)
    }

    /// Reference FPR computed with the O(n²) per-candidate helper from mani-ranking.
    fn reference_fpr(
        ranking: &Ranking,
        membership: &GroupMembership,
        group: usize,
        n: usize,
    ) -> Option<f64> {
        let size = membership.group_size(group);
        let mixed = mixed_pairs_for_group(size, n);
        if mixed == 0 {
            return None;
        }
        let mut favored = 0u64;
        for c in 0..n as u32 {
            let cand = CandidateId(c);
            if membership.group_of(cand) == group {
                favored += favored_mixed_pairs_of(ranking, membership, cand);
            }
        }
        Some(favored as f64 / mixed as f64)
    }

    #[test]
    fn group_on_top_has_fpr_one() {
        let (_db, idx) = binary_db(3, 5);
        let gender = idx.attributes().next().unwrap().0;
        // identity ranking: group a occupies positions 0..3 (top)
        let r = Ranking::identity(8);
        let scores = group_fprs(&r, idx.attribute(gender));
        assert_eq!(scores.score(0), Some(1.0));
        assert_eq!(scores.score(1), Some(0.0));
        assert_eq!(scores.max_pairwise_gap(), 1.0);
        assert_eq!(scores.argmax(), Some(0));
        assert_eq!(scores.argmin(), Some(1));
    }

    #[test]
    fn perfectly_interleaved_binary_groups_near_half() {
        // equal-size groups alternating a,b,a,b,... FPR_a slightly above 0.5, FPR_b below;
        // with sizes 4/4 the exact values are 10/16 and 6/16.
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["a", "b"]).unwrap();
        for i in 0..8usize {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        let db = b.build().unwrap();
        let idx = GroupIndex::new(&db);
        let r = Ranking::identity(8);
        let scores = group_fprs(&r, idx.attribute(idx.attributes().next().unwrap().0));
        assert!((scores.score(0).unwrap() - 10.0 / 16.0).abs() < 1e-12);
        assert!((scores.score(1).unwrap() - 6.0 / 16.0).abs() < 1e-12);
        drop(db);
    }

    #[test]
    fn single_group_axis_has_no_defined_scores() {
        // Attribute with two declared values but all candidates share one value:
        // the lone non-empty group has zero mixed pairs -> None.
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["a", "b"]).unwrap();
        for i in 0..4usize {
            b.add_candidate(format!("c{i}"), [(g, 0)]).unwrap();
        }
        let db = b.build().unwrap();
        let idx = GroupIndex::new(&db);
        let axis = idx.attribute(idx.attributes().next().unwrap().0);
        let scores = group_fprs(&Ranking::identity(4), axis);
        assert_eq!(scores.score(0), None);
        assert_eq!(scores.score(1), None);
        assert_eq!(scores.max_pairwise_gap(), 0.0);
        assert_eq!(scores.argmax(), None);
    }

    #[test]
    fn fpr_symmetric_binary_complement() {
        // For a binary attribute with groups of sizes na and nb the favored counts of the two
        // groups sum to the number of mixed pairs, so FPR_a + FPR_b = 1.
        let (_db, idx) = binary_db(4, 9);
        let axis = idx.attribute(idx.attributes().next().unwrap().0);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let r = Ranking::random(13, &mut rng);
            let s = group_fprs(&r, axis);
            assert!((s.score(0).unwrap() + s.score(1).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn intersection_axis_fprs_defined_for_nonempty_cells() {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["m", "w"]).unwrap();
        let r = b.add_attribute("R", ["x", "y", "z"]).unwrap();
        for i in 0..12usize {
            b.add_candidate(format!("c{i}"), [(g, i % 2), (r, i % 3)])
                .unwrap();
        }
        let db = b.build().unwrap();
        let idx = GroupIndex::new(&db);
        let scores = group_fprs(&Ranking::identity(12), idx.intersection());
        let defined: Vec<_> = scores.defined().collect();
        assert_eq!(defined.len(), 6);
        for (_, v) in defined {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    proptest! {
        #[test]
        fn prop_fast_fpr_matches_reference(
            n_a in 1usize..10,
            n_b in 1usize..10,
            n_c in 0usize..10,
            seed in any::<u64>(),
        ) {
            let mut b = CandidateDbBuilder::new();
            let attr = b.add_attribute("G", ["a", "b", "c"]).unwrap();
            let mut count = 0usize;
            for (value, reps) in [(0usize, n_a), (1, n_b), (2, n_c)] {
                for _ in 0..reps {
                    b.add_candidate(format!("c{count}"), [(attr, value)]).unwrap();
                    count += 1;
                }
            }
            let db = b.build().unwrap();
            let idx = GroupIndex::new(&db);
            let axis = idx.attribute(attr);
            let mut rng = StdRng::seed_from_u64(seed);
            let ranking = Ranking::random(count, &mut rng);
            let fast = group_fprs(&ranking, axis);
            for g in 0..axis.num_groups() {
                let reference = reference_fpr(&ranking, axis, g, count);
                match (fast.score(g), reference) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-12),
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }

        #[test]
        fn prop_fpr_bounds_and_extremes(n_a in 1usize..8, n_b in 1usize..8, seed in any::<u64>()) {
            let (_db, idx) = binary_db(n_a, n_b);
            let axis = idx.attribute(idx.attributes().next().unwrap().0);
            let mut rng = StdRng::seed_from_u64(seed);
            let ranking = Ranking::random(n_a + n_b, &mut rng);
            let scores = group_fprs(&ranking, axis);
            for (_, v) in scores.defined() {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
