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
//! The pass makes exactly the swaps of the loop above, but not one loop turn per swap:
//!
//! - **Counts.** Every constrained axis keeps its integer FPR numerators (the counts
//!   [`favored_pair_counts`] returns) and its `f64` denominators `|g| · (n − |g|)`, and
//!   reads the gap, `G_highest` and `G_lowest` off them in one allocation-free pass with
//!   [`FprScores`](mani_fairness::FprScores)' expressions and tie rules, so every decision
//!   sees the `f64` values a full recomputation gives. A swap at distance d moves d
//!   favoured pairs from one group to the other. During a round only the corrected axis is
//!   kept in step; the others are re-counted when the round reaches Δ, before anything
//!   reads them again.
//! - **Positions.** Swap partners come from per-group position bitsets. The round keeps
//!   each group's bottom-most position, and after a swap the demoted candidate's new
//!   position is the next `x_Gh` while the (`G_highest`, `G_lowest`) pair is unchanged and
//!   that position is still above `G_lowest`'s bottom, so the backward scans run only when
//!   the pair changes.
//! - **Runs.** When the `G_lowest` members right below the demoted candidate are all
//!   harmless to promote, the loop would swap the candidate past them one at a time, and
//!   each step moves only the two groups' numerators, by −1 and +1. Whether the loop takes
//!   the next step (gap above Δ, the same two extreme groups, the cap not reached) can then
//!   only turn from yes to no, so a binary search finds how many steps it takes, and they
//!   are applied at once. A run cut short would only hand its next step back to the loop.
//!
//! A loop turn costs O(#groups + n/64) word operations, plus O(log k) and one move of a
//! candidate k positions down the ranking when it ends in a run of k swaps. Ranking,
//! `swaps`, `satisfied` and `fallback_used` are bit-identical to the one-swap-per-turn pass,
//! which a test-only reference keeps.

use mani_fairness::{favored_pair_counts, FairnessThresholds};
use mani_ranking::{mixed_pairs_for_group, total_pairs, GroupIndex, GroupMembership, Ranking};
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
        let mut round = RoundIndex::new(&ranking, &axes, axis);
        let counts = &mut axes[axis];
        loop {
            let extremes = counts.extremes();
            if extremes.gap <= counts.delta + EPS {
                break;
            }
            if swaps >= max_swaps {
                break 'pass false;
            }
            // No parity-reducing swap exists along this axis; the correction cannot make
            // further progress.
            let (Some(high), Some(low)) = (extremes.high, extremes.low) else {
                break 'pass false;
            };
            let Some((high_pos, low_pos)) = round.swap_pair(high, low) else {
                break 'pass false;
            };
            ranking.swap_positions(high_pos, low_pos);
            counts.move_pairs(high, low, (low_pos - high_pos) as u64);
            round.apply_swap(high_pos, low_pos, high, low);
            swaps += 1;
            // The demoted candidate now sits at low_pos. Each harmless low-group member right
            // below it is its next partner, at distance 1, for as long as the loop keeps
            // choosing this pair: take all those swaps in one turn.
            let block = round.harmless_low_block(low_pos, low);
            let steps = counts.steps_taken(high, low, block.min(max_swaps - swaps));
            if steps > 0 {
                ranking.move_position(low_pos, low_pos + steps as usize);
                counts.move_pairs(high, low, steps);
                round.apply_run(low_pos, steps as usize, high, low);
                swaps += steps;
            }
        }
        // The round reached Δ, and the next pick reads every axis.
        for (i, other) in axes.iter_mut().enumerate() {
            if i != axis {
                other.favored = favored_pair_counts(&ranking, other.membership);
            }
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

/// A constrained axis and its FPR numerators. The numerators of the axis a round corrects
/// are kept in step with the ranking; the others are re-counted when the round ends.
struct AxisCounts<'g> {
    membership: &'g GroupMembership,
    /// The axis's threshold Δ.
    delta: f64,
    /// `favored[g]`: over the members `x` of group `g`, the non-members ranked below `x`.
    favored: Vec<u64>,
    /// `mixed[g]`: the FPR denominator `|g| · (n − |g|)` as an `f64`; 0 for a group with no
    /// mixed pairs, whose FPR is undefined.
    mixed: Vec<f64>,
}

/// An axis's ARP/IRP and its extreme groups: what `FprScores::max_pairwise_gap`, `argmax`
/// and `argmin` return for the same numerators.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Extremes {
    gap: f64,
    /// The highest-FPR group, the first one on ties.
    high: Option<usize>,
    /// The lowest-FPR group, the first one on ties.
    low: Option<usize>,
}

impl<'g> AxisCounts<'g> {
    fn new(ranking: &Ranking, membership: &'g GroupMembership, delta: f64) -> Self {
        let n = membership.num_candidates();
        let mixed = (0..membership.num_groups())
            .map(|g| mixed_pairs_for_group(membership.group_size(g), n) as f64)
            .collect();
        Self {
            membership,
            delta,
            favored: favored_pair_counts(ranking, membership),
            mixed,
        }
    }

    /// FPR of group `g` with `favored` favoured pairs, as `FprScores::from_favored`
    /// computes it.
    fn score(&self, g: usize, favored: u64) -> Option<f64> {
        (self.mixed[g] > 0.0).then(|| favored as f64 / self.mixed[g])
    }

    /// The gap and extreme groups, in one pass over the groups.
    fn extremes(&self) -> Extremes {
        let (mut max, mut min) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut extremes = Extremes {
            gap: 0.0,
            high: None,
            low: None,
        };
        let mut defined = 0usize;
        for (g, &favored) in self.favored.iter().enumerate() {
            let Some(score) = self.score(g, favored) else {
                continue;
            };
            if score > max {
                (max, extremes.high) = (score, Some(g));
            }
            if score < min {
                (min, extremes.low) = (score, Some(g));
            }
            defined += 1;
        }
        if defined >= 2 {
            extremes.gap = max - min;
        }
        extremes
    }

    /// Moves `pairs` favoured pairs from group `high` to group `low`: the effect of swapping
    /// a member of `high` at position p with a member of `low` at q = p + `pairs`, or of
    /// `pairs` such swaps at distance 1.
    ///
    /// Swapping `x` ∈ A at p with `y` ∈ B at q, A ≠ B on this axis, lowers favored[A] by
    /// exactly q − p, raises favored[B] by q − p, and changes no other group. Each position
    /// in p+1..=q costs A one pair: `x` is no longer above the non-A candidate there (`y`
    /// included), and an A member there trades `y` (counted) below it for `x` (not
    /// counted). Mirrored, each such position gains B one pair. A member of a third group
    /// between p and q trades one non-member below it for another, and a candidate above p
    /// or below q has both swapped candidates on the same side before and after.
    fn move_pairs(&mut self, high: usize, low: usize, pairs: u64) {
        self.favored[high] -= pairs;
        self.favored[low] += pairs;
    }

    /// How many of up to `block` further distance-1 swaps of one `high` member past `low`
    /// members the loop takes: it takes the next one while the gap exceeds Δ and `high` and
    /// `low` are still the extreme groups (`block` already stops at the swap cap).
    ///
    /// After t such swaps only two numerators have moved, to favored[high] − t and
    /// favored[low] + t. `high`'s score can only fall and `low`'s only rise as t grows, so
    /// each condition, once false, stays false: binary search the first t at which one
    /// fails, against the other groups' scores.
    fn steps_taken(&self, high: usize, low: usize, block: u64) -> u64 {
        // `high` stays the first largest score while it beats every other group before it and
        // reaches every one after it; `low` likewise from below.
        let (mut before_high, mut after_high) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let (mut before_low, mut after_low) = (f64::INFINITY, f64::INFINITY);
        for (g, &favored) in self.favored.iter().enumerate() {
            if g == high || g == low {
                continue;
            }
            let Some(score) = self.score(g, favored) else {
                continue;
            };
            if g < high {
                before_high = before_high.max(score);
            } else {
                after_high = after_high.max(score);
            }
            if g < low {
                before_low = before_low.min(score);
            } else {
                after_low = after_low.min(score);
            }
        }
        let takes_step = |t: u64| {
            let high_score = (self.favored[high] - t) as f64 / self.mixed[high];
            let low_score = (self.favored[low] + t) as f64 / self.mixed[low];
            high_score - low_score > self.delta + EPS
                && low_score < high_score
                && before_high < high_score
                && after_high <= high_score
                && low_score < before_low
                && low_score <= after_low
        };
        // The loop takes step t + 1 for every t below the answer and no step after.
        let (mut taken, mut limit) = (0, block);
        while taken < limit {
            let t = taken + (limit - taken) / 2;
            if takes_step(t) {
                taken = t + 1;
            } else {
                limit = t;
            }
        }
        taken
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
        .map(|(membership, delta)| AxisCounts::new(ranking, membership, delta))
        .collect()
}

/// Index of the constrained axis with the largest ARP/IRP among those exceeding their
/// thresholds (the first one on ties), or `None` when the ranking already satisfies
/// MANI-Rank.
fn most_violating_axis(axes: &[AxisCounts<'_>]) -> Option<usize> {
    let mut worst: Option<(usize, f64)> = None;
    for (i, axis) in axes.iter().enumerate() {
        let score = axis.extremes().gap;
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
    /// The bottom-most position of each group, `None` for an empty one.
    bottoms: Vec<Option<usize>>,
    /// Positions whose candidate can move down without harming another axis.
    harmless_down: PositionSet,
    /// Positions whose candidate can move up without harming another axis.
    harmless_up: PositionSet,
    /// `(high, low, p)` after a swap between members of groups `high` and `low` that left
    /// the demoted candidate at position p.
    carried: Option<(usize, usize, usize)>,
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
                let extremes = axis.extremes();
                Some((axis.membership, extremes.high?, extremes.low?))
            })
            .collect();
        let mut index = Self {
            groups: vec![PositionSet::new(n); membership.num_groups()],
            bottoms: vec![None; membership.num_groups()],
            harmless_down: PositionSet::new(n),
            harmless_up: PositionSet::new(n),
            carried: None,
        };
        for (pos, cand) in ranking.iter().enumerate() {
            let group = membership.group_of(cand);
            index.groups[group].insert(pos);
            index.bottoms[group] = Some(pos);
            if others.iter().all(|&(m, _, low)| m.group_of(cand) != low) {
                index.harmless_down.insert(pos);
            }
            if others.iter().all(|&(m, high, _)| m.group_of(cand) != high) {
                index.harmless_up.insert(pos);
            }
        }
        index
    }

    /// Positions of the next swap pair `(x_Gh, x_Gl)` between the highest-FPR group `high`
    /// and the lowest-FPR group `low`, or `None` when no valid pair exists.
    fn swap_pair(&self, high: usize, low: usize) -> Option<(usize, usize)> {
        if high == low {
            return None;
        }
        // Bottom-most member of the low group; x_Gh must be above it to have a partner.
        let bottom_low = self.bottoms[low]?;
        // x_Gh: lowest-ranked member of the high group above that position, preferring one
        // whose demotion does not hurt another constrained axis. After a swap of the same
        // pair that is the demoted candidate again while it is above bottom_low: the last
        // search passed over every high member between its old and new position, and the
        // swap moved none in.
        let high_pos = match self.carried {
            Some((h, l, pos)) if (h, l) == (high, low) && pos < bottom_low => pos,
            _ => {
                let high_set = &self.groups[high];
                high_set
                    .last_before(bottom_low, Some(&self.harmless_down))
                    .or_else(|| high_set.last_before(bottom_low, None))?
            }
        };
        // x_Gl: highest-ranked member of the low group below x_Gh, preferring one whose
        // promotion does not hurt another constrained axis.
        let low_set = &self.groups[low];
        let low_pos = low_set
            .first_after(high_pos, Some(&self.harmless_up))
            .or_else(|| low_set.first_after(high_pos, None))?;
        Some((high_pos, low_pos))
    }

    /// Follows the ranking's swap of positions p < q, which held members of groups `high`
    /// and `low` of the axis being corrected.
    fn apply_swap(&mut self, p: usize, q: usize, high: usize, low: usize) {
        self.groups[high].swap(p, q);
        self.groups[low].swap(p, q);
        self.harmless_down.swap(p, q);
        self.harmless_up.swap(p, q);
        self.demoted_to(q, high, low);
    }

    /// Number of consecutive positions right below `pos` whose candidates belong to group
    /// `low` and are harmless to promote.
    fn harmless_low_block(&self, pos: usize, low: usize) -> u64 {
        self.groups[low].run_from(pos + 1, &self.harmless_up) as u64
    }

    /// Follows the ranking's move of a `high` member from position p to p + k past `k`
    /// members of group `low`, which are all harmless to promote.
    fn apply_run(&mut self, p: usize, k: usize, high: usize, low: usize) {
        let q = p + k;
        // Every position strictly between the ends still holds a harmless low member.
        self.groups[high].swap(p, q);
        self.groups[low].swap(p, q);
        self.harmless_up.swap(p, q);
        self.harmless_down.move_down(p, q);
        self.demoted_to(q, high, low);
    }

    /// Updates the bottoms and the carried position after a member of `high` took the
    /// place of a member of `low` at position q.
    fn demoted_to(&mut self, q: usize, high: usize, low: usize) {
        self.bottoms[high] = self.bottoms[high].max(Some(q));
        if self.bottoms[low] == Some(q) {
            self.bottoms[low] = self.groups[low].last_before(q, None);
        }
        self.carried = Some((high, low, q));
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

    /// Follows `Ranking::move_position(from, to)` for `from < to`: position `to` takes the
    /// membership of `from`, and every position in between that of the one below it.
    fn move_down(&mut self, from: usize, to: usize) {
        let moved = self.contains(from);
        for w in from / 64..=to / 64 {
            // The bits of from..to within word w.
            let (start, end) = (from.max(64 * w) - 64 * w, to.min(64 * w + 64) - 64 * w);
            if start == end {
                continue;
            }
            let mask = u64::MAX >> (64 - (end - start)) << start;
            let next = self.words.get(w + 1).copied().unwrap_or(0);
            let shifted = self.words[w] >> 1 | next << 63;
            self.words[w] = self.words[w] & !mask | shifted & mask;
        }
        if self.contains(to) != moved {
            self.words[to / 64] ^= 1 << (to % 64);
        }
    }

    /// Word `w` of the set, intersected with `filter` when one is given.
    fn word(&self, w: usize, filter: Option<&PositionSet>) -> u64 {
        self.words[w] & filter.map_or(u64::MAX, |f| f.words[w])
    }

    /// The number of consecutive positions from `start` on that are in the set and in
    /// `filter`.
    fn run_from(&self, start: usize, filter: &PositionSet) -> usize {
        let mut run = 0;
        let (mut w, mut offset) = (start / 64, start % 64);
        while w < self.words.len() {
            let ones = (self.word(w, Some(filter)) >> offset).trailing_ones() as usize;
            run += ones;
            if ones < 64 - offset {
                break;
            }
            (w, offset) = (w + 1, 0);
        }
        run
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
    use mani_aggregation::BordaAggregator;
    use mani_datagen::{binary_population, FairnessTarget, MallowsModel, ModalRankingBuilder};
    use mani_fairness::{FprScores, ManiRankCriteria, ParityScores};
    use mani_ranking::{kendall_tau, CandidateDb, CandidateDbBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
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

    /// Candidates cell by cell of the intersection, the cells in a random order, then a few
    /// random adjacent transpositions: the segregated shape in which the pass demotes one
    /// candidate past long blocks of another group.
    fn block_ordered(groups: &GroupIndex, rng: &mut StdRng) -> Ranking {
        let cells = groups.intersection().membership();
        let n = cells.len();
        let mut cell_rank: Vec<usize> = (0..groups.intersection().num_groups()).collect();
        cell_rank.shuffle(rng);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(rng);
        ids.sort_by_key(|&id| cell_rank[cells[id as usize]]);
        for _ in 0..rng.gen_range(0..n / 10 + 1) {
            let i = rng.gen_range(0..n - 1);
            ids.swap(i, i + 1);
        }
        Ranking::from_ids(ids).unwrap()
    }

    /// The Borda consensus of a Mallows profile around a Low-Fair modal ranking (ARP 0.7,
    /// IRP 1.0) over a binary Gender × Race population, as Fair-Borda corrects it.
    fn low_fair_mallows(n: usize, rng: &mut StdRng) -> (GroupIndex, Ranking) {
        let share = |rng: &mut StdRng| 0.2 + 0.6 * rng.gen::<f64>();
        let db = binary_population(n, share(rng), share(rng), rng.gen());
        let modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
        let profile = MallowsModel::new(modal, 0.3 + 1.2 * rng.gen::<f64>())
            .sample_profile(1 + rng.gen_range(0..11), rng.gen());
        (
            GroupIndex::new(&db),
            BordaAggregator::new().consensus(&profile),
        )
    }

    /// A Δ just under an ARP the first attribute passes through when it has two non-empty
    /// groups, of sizes a and n − a: its ARP is |2 · favored[0] − m| / m with m = a(n − a),
    /// and a swap at distance 1 moves it by 2 / m. A pass must stop on reaching that ARP
    /// (ARP ≤ Δ + EPS), not one swap later.
    fn delta_under_a_reachable_gap(groups: &GroupIndex, rng: &mut StdRng) -> Option<f64> {
        let (_, first) = groups.attributes().next()?;
        let sizes: Vec<usize> = first
            .non_empty_groups()
            .map(|g| first.group_size(g))
            .collect();
        let [a, b] = sizes[..] else {
            return None;
        };
        let mixed = a * b;
        let arp = 2 * (1 + rng.gen_range(0..mixed / 5 + 1)) - mixed % 2;
        Some(arp as f64 / mixed as f64 - EPS / 2.0)
    }

    /// The pass against the reference on the inputs its runs serve: block-ordered rankings
    /// over skewed databases and Low-Fair Mallows consensus rankings, n up to 400, Δ from
    /// 0.01 (the cap, then the fallback) to 0.4, some just under a reachable ARP, and every
    /// threshold shape. Also checks that the cases ended runs in each of the four ways and
    /// reached multi-round passes and the cap-then-fallback path.
    #[test]
    fn runs_match_reference_on_block_ordered_and_mallows_rankings() {
        let mut rng = StdRng::seed_from_u64(0x0B10_C4ED);
        let mut runs = reference::RunEnds::default();
        let (mut multi_round, mut cap_then_fallback) = (0usize, 0usize);
        for case in 0..240 {
            let n = if case % 12 == 0 {
                200 + rng.gen_range(0..201)
            } else {
                4 + rng.gen_range(0..117)
            };
            let (groups, ranking) = if case % 2 == 0 {
                let groups = skewed_db(n, &mut rng);
                let ranking = block_ordered(&groups, &mut rng);
                (groups, ranking)
            } else {
                low_fair_mallows(n, &mut rng)
            };
            let delta = match rng.gen_range(0..5) {
                0 => 0.01,
                1 => delta_under_a_reachable_gap(&groups, &mut rng)
                    .unwrap_or_else(|| 0.01 + 0.39 * rng.gen::<f64>()),
                _ => 0.01 + 0.39 * rng.gen::<f64>(),
            };
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
            let at = format!("case {case}: n = {n}, Δ = {delta}");
            assert_eq!(fast.ranking, slow.ranking, "{at}");
            assert_eq!(fast.swaps, slow.swaps, "{at}");
            assert_eq!(fast.satisfied, slow.satisfied, "{at}");
            assert_eq!(fast.fallback_used, slow.fallback_used, "{at}");
            runs.delta += first_pass.runs.delta;
            runs.pair += first_pass.runs.pair;
            runs.cap += first_pass.runs.cap;
            runs.block += first_pass.runs.block;
            multi_round += usize::from(first_pass.rounds > 1);
            cap_then_fallback += usize::from(first_pass.hit_cap && slow.fallback_used);
        }
        let paths = [
            runs.delta,
            runs.pair,
            runs.cap,
            runs.block,
            multi_round,
            cap_then_fallback,
        ];
        assert!(
            paths.iter().all(|&count| count > 0),
            "runs ended by Δ / pair change / cap / end of block, multi-round passes, \
             cap then fallback: {paths:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The one-pass summary reads the gap and extreme groups `FprScores` reads from the
        /// same numerators, with ties, empty groups and groups without mixed pairs.
        #[test]
        fn prop_extremes_match_fpr_scores(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, k) = (2 + rng.gen_range(0..24), 2 + rng.gen_range(0..5));
            // Values from a prefix of the domain leave the rest empty; a prefix of one value
            // puts every candidate in one group, which has no mixed pairs.
            let used = 1 + rng.gen_range(0..k);
            let mut b = CandidateDbBuilder::new();
            let attr = b.add_attribute("A", (0..k).map(|v| format!("v{v}"))).unwrap();
            for i in 0..n {
                b.add_candidate(format!("c{i}"), [(attr, rng.gen_range(0..used))]).unwrap();
            }
            let groups = GroupIndex::new(&b.build().unwrap());
            let mut counts = AxisCounts::new(&Ranking::identity(n), groups.intersection(), 0.1);
            // Numerators that often tie: none, all or half of a group's mixed pairs.
            for g in 0..k {
                let mixed = mixed_pairs_for_group(groups.intersection().group_size(g), n);
                counts.favored[g] = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => mixed,
                    2 => mixed / 2,
                    _ => rng.gen::<u64>() % (mixed + 1),
                };
            }
            let scores = FprScores::from_favored(&counts.favored, groups.intersection());
            let extremes = counts.extremes();
            prop_assert_eq!(extremes.gap.to_bits(), scores.max_pairwise_gap().to_bits());
            prop_assert_eq!(extremes.high, scores.argmax());
            prop_assert_eq!(extremes.low, scores.argmin());
        }

        /// `run_from` and `move_down` against one `bool` per position, across word edges.
        #[test]
        fn prop_position_set_runs_and_moves_match_a_bool_model(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1 + rng.gen_range(0..300);
            let model: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.8)).collect();
            let filter_model: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.9)).collect();
            let set_of = |bits: &[bool]| {
                let mut set = PositionSet::new(n);
                bits.iter().enumerate().filter(|(_, &b)| b).for_each(|(pos, _)| set.insert(pos));
                set
            };
            let (mut set, filter) = (set_of(&model), set_of(&filter_model));
            let start = rng.gen_range(0..n + 1);
            let run = (start..n).take_while(|&pos| model[pos] && filter_model[pos]).count();
            prop_assert_eq!(set.run_from(start, &filter), run);

            let from = rng.gen_range(0..n);
            let to = from + rng.gen_range(0..n - from);
            let mut moved = model.clone();
            moved[from..=to].rotate_left(1);
            set.move_down(from, to);
            prop_assert!((0..n).all(|pos| set.contains(pos) == moved[pos]));
        }
    }
}
