//! Make-MR-Fair (Algorithm 2): pairwise bias mitigation for a consensus ranking.
//!
//! Given a consensus ranking that may violate the MANI-Rank criteria, Make-MR-Fair
//! repeatedly:
//!
//! 1. finds the axis (protected attribute or intersection) with the largest parity
//!    violation relative to its threshold,
//! 2. within that axis identifies the group with the highest FPR (`G_highest`) and the
//!    group with the lowest FPR (`G_lowest`),
//! 3. takes the lowest-ranked member of `G_highest` that still has a `G_lowest` member
//!    ranked below it (`x_Gh`), and the highest-ranked such `G_lowest` member (`x_Gl`),
//! 4. swaps the two candidates.
//!
//! Each swap strictly decreases `G_highest`'s FPR and increases `G_lowest`'s, moving the
//! axis towards statistical parity while disturbing as few pairwise preferences as
//! possible. The loop terminates when every constrained axis is at or below its threshold,
//! or when the pass reaches its swap cap. The paper's worst-case bound is
//! `ω(X) · (|P| + 1)` swaps; the cap is `min(ω(X) · (|P| + 1), 32n + 512)`, so a stalled
//! pass hands over to the interleave fallback of [`make_mr_fair`] quickly.
//!
//! One swap costs O(#axes + n/64), not O(n). The pass keeps every constrained axis's
//! integer FPR numerators (the counts [`favored_pair_counts`] returns and
//! [`group_fprs`](mani_fairness::group_fprs) divides) and updates them in O(1) per axis and
//! swap, so its FPRs are the same `f64` values a full recomputation gives. It finds each
//! swap pair in per-group position bitsets instead of rescanning the ranking.

use mani_fairness::{favored_pair_counts, FairnessThresholds, FprScores};
use mani_ranking::{total_pairs, CandidateId, GroupIndex, GroupMembership, Ranking};
use serde::Serialize;

#[cfg(test)]
mod reference;

/// Result of a Make-MR-Fair correction.
#[derive(Debug, Clone, Serialize)]
pub struct CorrectionReport {
    /// The corrected consensus ranking.
    #[serde(skip)]
    pub ranking: Ranking,
    /// Number of pairwise swaps applied, over both greedy passes when the fallback ran.
    pub swaps: u64,
    /// True when every constrained axis ended at or below its threshold.
    pub satisfied: bool,
    /// True when the first greedy pass fell short and the fair-interleave fallback ran.
    pub fallback_used: bool,
}

/// Numerical slack when comparing parity scores against Δ.
const EPS: f64 = 1e-9;

/// Applies Make-MR-Fair to `consensus` and returns the corrected ranking.
///
/// The pairwise-swap loop is the paper's Algorithm 2. When the greedy extreme-pair swaps
/// stall before reaching Δ (which happens when many small intersectional groups have to be
/// balanced simultaneously), the correction falls back to a *fair interleave*: candidates
/// are re-spread so that every group of the finest constrained partition occupies evenly
/// distributed positions while the within-group order of the input consensus is preserved,
/// and the greedy loop then polishes the result. The fallback trades a little extra PD loss
/// for convergence; [`CorrectionReport::fallback_used`] says whether it ran, and
/// [`CorrectionReport::satisfied`] whether Δ was reached (tiny groups can make it
/// unreachable).
pub fn make_mr_fair(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> CorrectionReport {
    let first_pass = greedy_correction(consensus, groups, thresholds);
    if first_pass.satisfied {
        return first_pass;
    }
    // Fallback: evenly interleave the groups of the finest constrained partition, then let
    // the greedy pass polish any residual violation.
    let interleaved = fair_interleave(consensus, groups, thresholds);
    let mut second_pass = greedy_correction(&interleaved, groups, thresholds);
    second_pass.swaps += first_pass.swaps;
    second_pass.fallback_used = true;
    second_pass
}

/// Swap cap of one greedy pass over `n` candidates.
///
/// The paper's worst-case bound is ω(X) swaps per constrained axis, but a convergent run
/// needs far fewer (each early swap moves candidates over long distances). Cap the greedy
/// pass at a small multiple of n so a stalled pass hands over to the interleave fallback
/// quickly instead of burning the quadratic budget.
fn swap_cap(n: usize, groups: &GroupIndex) -> u64 {
    (total_pairs(n) * (groups.num_attributes() as u64 + 1)).min(32 * n as u64 + 512)
}

/// The paper's greedy extreme-pair swap loop (Algorithm 2).
fn greedy_correction(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> CorrectionReport {
    let mut ranking = consensus.clone();
    let max_swaps = swap_cap(ranking.len(), groups);
    let mut axes = constrained_axes(&ranking, groups, thresholds);
    let mut swaps = 0u64;

    let satisfied = 'pass: loop {
        let Some(axis) = most_violating_axis(&axes) else {
            break true;
        };
        // Correct the chosen axis all the way down to its threshold before re-examining the
        // others. Correcting one swap at a time and re-picking the most violating axis can
        // oscillate when two axes are correlated (each axis' swap partially undoes the
        // other's); fully correcting an axis per round behaves like coordinate descent and
        // converges on every workload in the evaluation.
        let membership = axes[axis].membership;
        let mut round = RoundIndex::new(&ranking, &axes, axis);
        loop {
            let fprs = axes[axis].fprs();
            if fprs.max_pairwise_gap() <= axes[axis].delta + EPS {
                break;
            }
            if swaps >= max_swaps {
                break 'pass false;
            }
            // No parity-reducing swap exists along this axis; the correction cannot make
            // further progress.
            let Some((high_pos, low_pos)) = round.swap_pair(&fprs) else {
                break 'pass false;
            };
            let demoted = ranking.candidate_at(high_pos);
            let promoted = ranking.candidate_at(low_pos);
            ranking.swap_positions(high_pos, low_pos);
            for counts in &mut axes {
                counts.apply_swap(demoted, promoted, (low_pos - high_pos) as u64);
            }
            round.apply_swap(
                high_pos,
                low_pos,
                membership.group_of(demoted),
                membership.group_of(promoted),
            );
            swaps += 1;
        }
    };
    CorrectionReport {
        ranking,
        swaps,
        satisfied,
        fallback_used: false,
    }
}

/// Evenly re-spreads the groups of the finest constrained partition across the ranking
/// while preserving the within-group order of `consensus`.
///
/// Each candidate is assigned the quota position `(rank within its group + 0.5) / |group|`
/// and candidates are stably sorted by that quota; every group (and therefore every union
/// of groups, i.e. every protected-attribute group) ends up spread uniformly, which puts
/// all FPR scores near 0.5.
fn fair_interleave(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> Ranking {
    let n = consensus.len();
    let partition = finest_constrained_partition(groups, thresholds);
    // rank of each candidate within its partition cell, in consensus order
    let num_cells = partition.iter().copied().max().map_or(1, |m| m + 1);
    let mut cell_sizes = vec![0usize; num_cells];
    for &cell in &partition {
        cell_sizes[cell] += 1;
    }
    let mut seen = vec![0usize; num_cells];
    let mut keyed: Vec<(f64, usize, u32)> = Vec::with_capacity(n);
    for pos in 0..n {
        let cand = consensus.candidate_at(pos);
        let cell = partition[cand.index()];
        let quota = (seen[cell] as f64 + 0.5) / cell_sizes[cell] as f64;
        seen[cell] += 1;
        keyed.push((quota, pos, cand.0));
    }
    // Stable order: by quota, then by original position (preserves within-group order and
    // breaks cross-group ties deterministically by who was ranked higher).
    keyed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    Ranking::from_ids(keyed.into_iter().map(|(_, _, id)| id))
        .expect("re-ordering a permutation yields a permutation")
}

/// Membership in the finest partition induced by the constrained axes: the intersection
/// when it is constrained, otherwise the product of the constrained attributes (or the
/// intersection again if nothing narrower is available).
fn finest_constrained_partition(
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> Vec<usize> {
    if thresholds.intersection_delta().is_some() {
        return groups.intersection().membership().to_vec();
    }
    // Product of the constrained attributes' memberships, encoded in mixed radix.
    let n = groups.num_candidates();
    let mut codes = vec![0usize; n];
    let mut any = false;
    for (attr_id, membership) in groups.attributes() {
        if thresholds.attribute_delta(attr_id).is_none() {
            continue;
        }
        any = true;
        let radix = membership.num_groups();
        for (cand, code) in codes.iter_mut().enumerate() {
            *code = *code * radix + membership.membership()[cand];
        }
    }
    if any {
        codes
    } else {
        groups.intersection().membership().to_vec()
    }
}

/// A constrained axis and its FPR numerators, kept in step with the ranking under
/// correction.
struct AxisCounts<'g> {
    membership: &'g GroupMembership,
    /// The axis's threshold Δ.
    delta: f64,
    /// `favored[g]`: over the members `x` of group `g`, the non-members ranked below `x`.
    favored: Vec<u64>,
}

impl AxisCounts<'_> {
    fn fprs(&self) -> FprScores {
        FprScores::from_favored(&self.favored, self.membership)
    }

    /// Updates the numerators after `demoted`, at position p, swapped places with
    /// `promoted`, at position q = p + `distance`.
    ///
    /// With `demoted` ∈ A and `promoted` ∈ B, A ≠ B on this axis, favored[A] drops by
    /// exactly q − p, favored[B] rises by q − p, and no other group changes. Each position
    /// in p+1..=q costs A one pair: `demoted` is no longer above the non-A candidate
    /// there (`promoted` included), and an A member there trades `promoted` (counted)
    /// below it for `demoted` (not counted). Mirrored, each such position gains B one pair.
    /// A member of a third group between p and q trades one non-member below it for
    /// another, and a candidate above p or below q has both swapped candidates on the same
    /// side before and after.
    fn apply_swap(&mut self, demoted: CandidateId, promoted: CandidateId, distance: u64) {
        let a = self.membership.group_of(demoted);
        let b = self.membership.group_of(promoted);
        if a != b {
            self.favored[a] -= distance;
            self.favored[b] += distance;
        }
    }
}

/// Every constrained axis, in the order the violation search examines them: the
/// attributes in schema order, then the intersection.
fn constrained_axes<'g>(
    ranking: &Ranking,
    groups: &'g GroupIndex,
    thresholds: &FairnessThresholds,
) -> Vec<AxisCounts<'g>> {
    let attributes = groups.attributes().filter_map(|(attr_id, membership)| {
        Some((membership, thresholds.attribute_delta(attr_id)?))
    });
    let intersection = thresholds
        .intersection_delta()
        .map(|delta| (groups.intersection(), delta));
    attributes
        .chain(intersection)
        .map(|(membership, delta)| AxisCounts {
            membership,
            delta,
            favored: favored_pair_counts(ranking, membership),
        })
        .collect()
}

/// Index of the constrained axis with the largest ARP/IRP among those exceeding their
/// thresholds (the first one on ties), or `None` when the ranking already satisfies
/// MANI-Rank.
fn most_violating_axis(axes: &[AxisCounts<'_>]) -> Option<usize> {
    let mut worst: Option<(usize, f64)> = None;
    for (i, axis) in axes.iter().enumerate() {
        let score = axis.fprs().max_pairwise_gap();
        if score > axis.delta + EPS && worst.is_none_or(|(_, s)| score > s) {
            worst = Some((i, score));
        }
    }
    worst.map(|(i, _)| i)
}

/// Position bitsets for one correction round, built in O(n) when the round starts: one set
/// per group of the axis being corrected, plus the cross-axis guard's harmless positions.
///
/// The guard breaks deterministic swap cycles between correlated axes. A swap moves one
/// candidate down (`x_Gh`) and one up (`x_Gl`). Another constrained axis is harmed when the
/// candidate moving down belongs to that axis's lowest-FPR group, or the candidate moving
/// up to its highest-FPR group. Those groups are taken once, when the round starts, and
/// the pair search prefers partners that harm no other axis. Preference only: when no
/// harmless partner exists, the plain Make-MR-Fair pair is used.
struct RoundIndex {
    /// Positions held by each group of the axis being corrected.
    groups: Vec<PositionSet>,
    /// Positions whose candidate can move down without harming another axis.
    harmless_down: PositionSet,
    /// Positions whose candidate can move up without harming another axis.
    harmless_up: PositionSet,
}

impl RoundIndex {
    fn new(ranking: &Ranking, axes: &[AxisCounts<'_>], correcting: usize) -> Self {
        let n = ranking.len();
        let membership = axes[correcting].membership;
        // (membership, highest-FPR group, lowest-FPR group) of every other constrained axis.
        let others: Vec<(&GroupMembership, usize, usize)> = axes
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != correcting)
            .filter_map(|(_, axis)| {
                let fprs = axis.fprs();
                Some((axis.membership, fprs.argmax()?, fprs.argmin()?))
            })
            .collect();
        let mut index = Self {
            groups: vec![PositionSet::new(n); membership.num_groups()],
            harmless_down: PositionSet::new(n),
            harmless_up: PositionSet::new(n),
        };
        for (pos, cand) in ranking.iter().enumerate() {
            index.groups[membership.group_of(cand)].insert(pos);
            if others.iter().all(|&(m, _, low)| m.group_of(cand) != low) {
                index.harmless_down.insert(pos);
            }
            if others.iter().all(|&(m, high, _)| m.group_of(cand) != high) {
                index.harmless_up.insert(pos);
            }
        }
        index
    }

    /// Positions of the next swap pair `(x_Gh, x_Gl)` along the axis whose scores are
    /// `fprs`, or `None` when no valid pair exists.
    fn swap_pair(&self, fprs: &FprScores) -> Option<(usize, usize)> {
        let (high, low) = (fprs.argmax()?, fprs.argmin()?);
        if high == low {
            return None;
        }
        let (high_set, low_set) = (&self.groups[high], &self.groups[low]);
        // Bottom-most member of the low group; x_Gh must be above it to have a partner.
        let bottom_low = low_set.last()?;
        // x_Gh: lowest-ranked member of the high group above that position, preferring one
        // whose demotion does not hurt another constrained axis.
        let high_pos = high_set
            .last_before(bottom_low, Some(&self.harmless_down))
            .or_else(|| high_set.last_before(bottom_low, None))?;
        // x_Gl: highest-ranked member of the low group below x_Gh, preferring one whose
        // promotion does not hurt another constrained axis.
        let low_pos = low_set
            .first_after(high_pos, Some(&self.harmless_up))
            .or_else(|| low_set.first_after(high_pos, None))?;
        Some((high_pos, low_pos))
    }

    /// Follows the ranking's swap of positions `p` and `q`, which held members of groups
    /// `group_p` and `group_q` of the axis being corrected.
    fn apply_swap(&mut self, p: usize, q: usize, group_p: usize, group_q: usize) {
        self.groups[group_p].swap(p, q);
        self.groups[group_q].swap(p, q);
        self.harmless_down.swap(p, q);
        self.harmless_up.swap(p, q);
    }
}

/// A set of ranking positions, one bit per position.
#[derive(Clone)]
struct PositionSet {
    words: Vec<u64>,
}

impl PositionSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, pos: usize) {
        self.words[pos / 64] |= 1 << (pos % 64);
    }

    fn contains(&self, pos: usize) -> bool {
        self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// Exchanges the membership of positions `p` and `q`.
    fn swap(&mut self, p: usize, q: usize) {
        if self.contains(p) != self.contains(q) {
            self.words[p / 64] ^= 1 << (p % 64);
            self.words[q / 64] ^= 1 << (q % 64);
        }
    }

    /// Word `w` of the set, intersected with `filter` when one is given.
    fn word(&self, w: usize, filter: Option<&PositionSet>) -> u64 {
        self.words[w] & filter.map_or(u64::MAX, |f| f.words[w])
    }

    /// The highest position in the set.
    fn last(&self) -> Option<usize> {
        self.last_before(64 * self.words.len(), None)
    }

    /// The highest position below `end` in the set (and in `filter`, when given).
    fn last_before(&self, end: usize, filter: Option<&PositionSet>) -> Option<usize> {
        let last = end.checked_sub(1)?;
        let mut w = last / 64;
        let mut bits = self.word(w, filter) & (u64::MAX >> (63 - last % 64));
        loop {
            if bits != 0 {
                return Some(64 * w + 63 - bits.leading_zeros() as usize);
            }
            w = w.checked_sub(1)?;
            bits = self.word(w, filter);
        }
    }

    /// The lowest position above `start` in the set (and in `filter`, when given).
    fn first_after(&self, start: usize, filter: Option<&PositionSet>) -> Option<usize> {
        let first = start + 1;
        let mut w = first / 64;
        if w >= self.words.len() {
            return None;
        }
        let mut bits = self.word(w, filter) & (u64::MAX << (first % 64));
        loop {
            if bits != 0 {
                return Some(64 * w + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == self.words.len() {
                return None;
            }
            bits = self.word(w, filter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_fairness::{ManiRankCriteria, ParityScores};
    use mani_ranking::{kendall_tau, CandidateDb, CandidateDbBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db_two_attrs(n: usize) -> (CandidateDb, GroupIndex) {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("Gender", ["M", "W"]).unwrap();
        let r = b.add_attribute("Race", ["A", "B", "C"]).unwrap();
        for i in 0..n {
            b.add_candidate(format!("c{i}"), [(g, i % 2), (r, i % 3)])
                .unwrap();
        }
        let db = b.build().unwrap();
        let idx = GroupIndex::new(&db);
        (db, idx)
    }

    fn segregated(db: &CandidateDb) -> Ranking {
        let mut ids: Vec<u32> = db.candidate_ids().map(|c| c.0).collect();
        ids.sort_by_key(|&id| {
            let cand = db.candidate(mani_ranking::CandidateId(id)).unwrap();
            (cand.values()[0].index(), cand.values()[1].index(), id)
        });
        Ranking::from_ids(ids).unwrap()
    }

    #[test]
    fn already_fair_ranking_is_untouched() {
        let (_db, idx) = db_two_attrs(12);
        let ranking = Ranking::identity(12);
        let thresholds = FairnessThresholds::uniform(1.0);
        let report = make_mr_fair(&ranking, &idx, &thresholds);
        assert!(report.satisfied);
        assert!(!report.fallback_used);
        assert_eq!(report.swaps, 0);
        assert_eq!(report.ranking, ranking);
    }

    #[test]
    fn segregated_ranking_is_corrected_to_delta() {
        let (db, idx) = db_two_attrs(24);
        let ranking = segregated(&db);
        let thresholds = FairnessThresholds::uniform(0.1);
        // sanity: the input violates the criteria badly
        assert!(!ManiRankCriteria::evaluate(&ranking, &idx, &thresholds).is_satisfied());

        let report = make_mr_fair(&ranking, &idx, &thresholds);
        assert!(report.satisfied, "correction should reach Δ = 0.1");
        assert!(report.swaps > 0);
        let criteria = ManiRankCriteria::evaluate(&report.ranking, &idx, &thresholds);
        assert!(criteria.is_satisfied());
        // the corrected ranking is still a valid permutation
        report.ranking.check_invariants().unwrap();
    }

    #[test]
    fn tighter_delta_requires_more_swaps() {
        let (db, idx) = db_two_attrs(30);
        let ranking = segregated(&db);
        let loose = make_mr_fair(&ranking, &idx, &FairnessThresholds::uniform(0.4));
        let tight = make_mr_fair(&ranking, &idx, &FairnessThresholds::uniform(0.05));
        assert!(loose.satisfied && tight.satisfied);
        assert!(tight.swaps >= loose.swaps);
    }

    #[test]
    fn correction_moves_ranking_as_little_as_needed() {
        // The number of flipped pairs is bounded by the number of swaps times the max span,
        // but more importantly a mild violation should cost far fewer flips than reversal.
        let (db, idx) = db_two_attrs(20);
        let ranking = segregated(&db);
        let report = make_mr_fair(&ranking, &idx, &FairnessThresholds::uniform(0.2));
        assert!(report.satisfied);
        let moved = kendall_tau(&ranking, &report.ranking).unwrap();
        assert!(moved < total_pairs(20) / 2, "moved {moved} pairs");
    }

    #[test]
    fn attributes_only_thresholds_ignore_intersection() {
        let (db, idx) = db_two_attrs(24);
        let ranking = segregated(&db);
        let thresholds = FairnessThresholds::attributes_only(0.1);
        let report = make_mr_fair(&ranking, &idx, &thresholds);
        assert!(report.satisfied);
        let parity = ParityScores::compute(&report.ranking, &idx);
        for &arp in parity.arps() {
            assert!(arp <= 0.1 + 1e-9);
        }
        // The intersection is typically still unfair — that is the point of Figure 3.
        // (We only check it was not explicitly constrained, not a specific value.)
    }

    #[test]
    fn per_attribute_overrides_are_honoured() {
        let (db, idx) = db_two_attrs(24);
        let gender = db.schema().attribute_id("Gender").unwrap();
        let race = db.schema().attribute_id("Race").unwrap();
        let thresholds = FairnessThresholds::uniform(0.3)
            .with_attribute_delta(gender, 0.05)
            .with_intersection_delta(0.5);
        let report = make_mr_fair(&segregated(&db), &idx, &thresholds);
        assert!(report.satisfied);
        let parity = ParityScores::compute(&report.ranking, &idx);
        assert!(parity.arp(gender) <= 0.05 + 1e-9);
        assert!(parity.arp(race) <= 0.3 + 1e-9);
        assert!(parity.irp() <= 0.5 + 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_correction_always_satisfies_reachable_delta(
            n_cells in 2usize..6,
            seed in any::<u64>(),
            delta in 0.15f64..0.6,
        ) {
            // 6 candidates per cell multiple ensures parity is reachable at moderate deltas.
            let (db, idx) = db_two_attrs(6 * n_cells);
            let mut rng = StdRng::seed_from_u64(seed);
            let ranking = Ranking::random(db.len(), &mut rng);
            let thresholds = FairnessThresholds::uniform(delta);
            let report = make_mr_fair(&ranking, &idx, &thresholds);
            prop_assert!(report.ranking.check_invariants().is_ok());
            if report.satisfied {
                let criteria = ManiRankCriteria::evaluate(&report.ranking, &idx, &thresholds);
                prop_assert!(criteria.is_satisfied());
            }
            // Two greedy passes (before and after the interleave fallback), each bounded by
            // ω(X)·(|P|+1)·4 with |P| = 2 attributes.
            prop_assert!(report.swaps <= total_pairs(db.len()) * 24);
        }
    }

    /// `n` candidates over 1–3 attributes of 2–4 values each. Value frequencies are skewed
    /// (weights 1, 1/2, ..., 1/16 drawn per value), so some intersection cells are tiny or
    /// empty.
    fn skewed_db(n: usize, rng: &mut StdRng) -> GroupIndex {
        let mut b = CandidateDbBuilder::new();
        let mut attributes = Vec::new();
        for a in 0..1 + rng.gen_range(0..3) {
            let k = 2 + rng.gen_range(0..3);
            let id = b
                .add_attribute(format!("A{a}"), (0..k).map(|v| format!("v{v}")))
                .unwrap();
            let weights: Vec<f64> = (0..k)
                .map(|_| 0.5f64.powi(rng.gen_range(0..5) as i32))
                .collect();
            attributes.push((id, weights));
        }
        for i in 0..n {
            let values: Vec<_> = attributes
                .iter()
                .map(|(id, weights)| {
                    let mut pick = rng.gen::<f64>() * weights.iter().sum::<f64>();
                    let value = weights
                        .iter()
                        .position(|w| {
                            pick -= w;
                            pick < 0.0
                        })
                        .unwrap_or(weights.len() - 1);
                    (*id, value)
                })
                .collect();
            b.add_candidate(format!("c{i}"), values).unwrap();
        }
        GroupIndex::new(&b.build().unwrap())
    }

    /// The incremental pass against the reference pass on random skewed databases, random
    /// rankings and every threshold shape. Also counts the control-flow paths the cases
    /// reached, so a generator change cannot quietly stop covering one.
    #[test]
    fn incremental_pass_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x3A4F_2D17);
        let (mut first_pass_satisfied, mut cap_then_fallback) = (0usize, 0usize);
        let (mut unsatisfied, mut multi_round) = (0usize, 0usize);
        for case in 0..400 {
            let n = 4 + rng.gen_range(0..156);
            let groups = skewed_db(n, &mut rng);
            let ranking = Ranking::random(n, &mut rng);
            let delta = 0.02 + 0.48 * rng.gen::<f64>();
            let thresholds = match rng.gen_range(0..4) {
                0 => FairnessThresholds::uniform(delta),
                1 => FairnessThresholds::attributes_only(delta),
                2 => FairnessThresholds::intersection_only(delta),
                _ => {
                    let first = groups.attributes().next().expect("one attribute").0;
                    FairnessThresholds::uniform(delta).with_attribute_delta(first, delta / 2.0)
                }
            };
            let fast = make_mr_fair(&ranking, &groups, &thresholds);
            let (slow, first_pass) = reference::make_mr_fair(&ranking, &groups, &thresholds);
            assert_eq!(
                fast.ranking, slow.ranking,
                "case {case}: n = {n}, Δ = {delta}"
            );
            assert_eq!(fast.swaps, slow.swaps, "case {case}");
            assert_eq!(fast.satisfied, slow.satisfied, "case {case}");
            assert_eq!(fast.fallback_used, slow.fallback_used, "case {case}");
            first_pass_satisfied += usize::from(!slow.fallback_used);
            cap_then_fallback += usize::from(first_pass.hit_cap && slow.fallback_used);
            unsatisfied += usize::from(!slow.satisfied);
            multi_round += usize::from(first_pass.rounds > 1);
        }
        let paths = [
            first_pass_satisfied,
            cap_then_fallback,
            unsatisfied,
            multi_round,
        ];
        assert!(
            paths.iter().all(|&count| count > 0),
            "first pass satisfied / cap then fallback / unsatisfied / several rounds: {paths:?}"
        );
    }
}
