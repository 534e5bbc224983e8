//! Reference Make-MR-Fair greedy pass for the differential tests: every swap recomputes
//! the FPRs of the axis being corrected with [`group_fprs`] and rescans the ranking for
//! the swap pair. The incremental pass in the parent module must reproduce its ranking,
//! `swaps` and `satisfied` exactly.

use mani_fairness::{group_fprs, FairnessThresholds};
use mani_ranking::{GroupIndex, GroupMembership, Ranking};

use super::{fair_interleave, swap_cap, CorrectionReport, EPS};

/// How the reference's first greedy pass went, for the differential tests' path coverage.
#[derive(Default)]
pub(super) struct FirstPass {
    /// Correction rounds started (one per most-violating-axis pick).
    pub(super) rounds: usize,
    /// True when the pass stopped at the swap cap.
    pub(super) hit_cap: bool,
    /// Runs of two or more distance-1 swaps that demote one candidate, by how they ended.
    pub(super) runs: RunEnds,
}

/// Counts of runs by how they ended.
#[derive(Debug, Default)]
pub(super) struct RunEnds {
    /// The round's axis reached Δ.
    pub(super) delta: usize,
    /// The highest- or lowest-FPR group changed, or no swap pair was left.
    pub(super) pair: usize,
    /// The pass reached its swap cap.
    pub(super) cap: usize,
    /// The same pair's next swap demoted another candidate or moved further than one
    /// position: the block of harmless low-group members below the candidate ended.
    pub(super) block: usize,
}

/// The swaps since the last one that did not continue a run.
struct Run {
    /// (highest-FPR group, lowest-FPR group) of the run's swaps.
    pair: (usize, usize),
    /// Where the demoted candidate ended up.
    at: usize,
    /// Distance-1 swaps of that candidate so far.
    length: usize,
}

/// How a run ended; each names a [`RunEnds`] count.
#[derive(Clone, Copy)]
enum RunEnd {
    Delta,
    Pair,
    Cap,
    Block,
}

impl FirstPass {
    /// Counts `run` under `ended` when it is a run of at least two swaps.
    fn end_run(&mut self, run: Option<Run>, ended: RunEnd) {
        if run.is_some_and(|run| run.length >= 2) {
            *match ended {
                RunEnd::Delta => &mut self.runs.delta,
                RunEnd::Pair => &mut self.runs.pair,
                RunEnd::Cap => &mut self.runs.cap,
                RunEnd::Block => &mut self.runs.block,
            } += 1;
        }
    }
}

/// Make-MR-Fair with the reference greedy pass; same control flow as the real one.
pub(super) fn make_mr_fair(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> (CorrectionReport, FirstPass) {
    let (first_pass, trace) = greedy_correction(consensus, groups, thresholds);
    if first_pass.satisfied {
        return (first_pass, trace);
    }
    let interleaved = fair_interleave(consensus, groups, thresholds);
    let (mut second_pass, _) = greedy_correction(&interleaved, groups, thresholds);
    second_pass.swaps += first_pass.swaps;
    second_pass.fallback_used = true;
    (second_pass, trace)
}

fn greedy_correction(
    consensus: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> (CorrectionReport, FirstPass) {
    let mut ranking = consensus.clone();
    let max_swaps = swap_cap(ranking.len(), groups);
    let mut swaps = 0u64;
    let mut trace = FirstPass::default();
    let report = |ranking, swaps, satisfied| CorrectionReport {
        ranking,
        swaps,
        satisfied,
        fallback_used: false,
    };

    loop {
        let Some(axis) = most_violating_axis(&ranking, groups, thresholds) else {
            return (report(ranking, swaps, true), trace);
        };
        trace.rounds += 1;
        let membership = axis_membership(groups, axis);
        let delta = axis_delta(groups, thresholds, axis);
        let guard = CrossAxisGuard::new(&ranking, groups, thresholds, axis);
        let mut progressed = false;
        let mut run: Option<Run> = None;
        loop {
            let fprs = group_fprs(&ranking, membership);
            if fprs.max_pairwise_gap() <= delta + EPS {
                trace.end_run(run, RunEnd::Delta);
                break;
            }
            if swaps >= max_swaps {
                trace.hit_cap = true;
                trace.end_run(run, RunEnd::Cap);
                return (report(ranking, swaps, false), trace);
            }
            let pair = fprs.argmax().zip(fprs.argmin());
            let same_pair = run.as_ref().is_some_and(|run| Some(run.pair) == pair);
            let not_continued = if same_pair {
                RunEnd::Block
            } else {
                RunEnd::Pair
            };
            let Some((high_pos, low_pos)) = swap_towards_parity(&mut ranking, membership, &guard)
            else {
                trace.end_run(run, not_continued);
                return (report(ranking, swaps, false), trace);
            };
            swaps += 1;
            progressed = true;
            let adjacent = low_pos == high_pos + 1;
            match &mut run {
                Some(current) if same_pair && adjacent && current.at == high_pos => {
                    current.at = low_pos;
                    current.length += 1;
                }
                _ => {
                    trace.end_run(run.take(), not_continued);
                    run = Some(Run {
                        pair: pair.expect("a swap has a pair"),
                        at: low_pos,
                        length: usize::from(adjacent),
                    });
                }
            }
        }
        if !progressed {
            let satisfied = most_violating_axis(&ranking, groups, thresholds).is_none();
            return (report(ranking, swaps, satisfied), trace);
        }
    }
}

/// Effective threshold of an axis under the given threshold configuration.
fn axis_delta(groups: &GroupIndex, thresholds: &FairnessThresholds, axis: AxisRef) -> f64 {
    match axis {
        AxisRef::Attribute(i) => {
            let attr_id = groups
                .attributes()
                .nth(i)
                .expect("axis index comes from enumeration")
                .0;
            thresholds.attribute_delta(attr_id).unwrap_or(1.0)
        }
        AxisRef::Intersection => thresholds.intersection_delta().unwrap_or(1.0),
    }
}

/// Which grouping axis a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AxisRef {
    Attribute(usize),
    Intersection,
}

fn axis_membership(groups: &GroupIndex, axis: AxisRef) -> &GroupMembership {
    match axis {
        AxisRef::Attribute(i) => {
            let attr_id = groups
                .attributes()
                .nth(i)
                .expect("axis index comes from enumeration")
                .0;
            groups.attribute(attr_id)
        }
        AxisRef::Intersection => groups.intersection(),
    }
}

/// The constrained axis with the largest ARP/IRP among those exceeding their thresholds.
fn most_violating_axis(
    ranking: &Ranking,
    groups: &GroupIndex,
    thresholds: &FairnessThresholds,
) -> Option<AxisRef> {
    let mut worst: Option<(AxisRef, f64)> = None;
    for (i, (attr_id, membership)) in groups.attributes().enumerate() {
        if let Some(delta) = thresholds.attribute_delta(attr_id) {
            let score = group_fprs(ranking, membership).max_pairwise_gap();
            if score > delta + EPS && worst.as_ref().is_none_or(|(_, s)| score > *s) {
                worst = Some((AxisRef::Attribute(i), score));
            }
        }
    }
    if let Some(delta) = thresholds.intersection_delta() {
        let score = group_fprs(ranking, groups.intersection()).max_pairwise_gap();
        if score > delta + EPS && worst.as_ref().is_none_or(|(_, s)| score > *s) {
            worst = Some((AxisRef::Intersection, score));
        }
    }
    worst.map(|(axis, _)| axis)
}

/// Per-candidate flags: moving down hurts another axis (member of its lowest-FPR group),
/// moving up hurts another axis (member of its highest-FPR group).
struct CrossAxisGuard {
    avoid_moving_down: Vec<bool>,
    avoid_moving_up: Vec<bool>,
}

impl CrossAxisGuard {
    fn new(
        ranking: &Ranking,
        groups: &GroupIndex,
        thresholds: &FairnessThresholds,
        correcting: AxisRef,
    ) -> Self {
        let n = ranking.len();
        let mut avoid_moving_down = vec![false; n];
        let mut avoid_moving_up = vec![false; n];
        let mut mark = |membership: &GroupMembership| {
            let fprs = group_fprs(ranking, membership);
            let (Some(high), Some(low)) = (fprs.argmax(), fprs.argmin()) else {
                return;
            };
            for cand in 0..n {
                let g = membership.membership()[cand];
                if g == low {
                    avoid_moving_down[cand] = true;
                }
                if g == high {
                    avoid_moving_up[cand] = true;
                }
            }
        };
        for (i, (attr_id, membership)) in groups.attributes().enumerate() {
            if correcting == AxisRef::Attribute(i) {
                continue;
            }
            if thresholds.attribute_delta(attr_id).is_some() {
                mark(membership);
            }
        }
        if correcting != AxisRef::Intersection && thresholds.intersection_delta().is_some() {
            mark(groups.intersection());
        }
        Self {
            avoid_moving_down,
            avoid_moving_up,
        }
    }

    fn harmless_down(&self, candidate: mani_ranking::CandidateId) -> bool {
        !self.avoid_moving_down[candidate.index()]
    }

    fn harmless_up(&self, candidate: mani_ranking::CandidateId) -> bool {
        !self.avoid_moving_up[candidate.index()]
    }
}

/// One Make-MR-Fair swap along an axis; returns the swapped positions `(x_Gh, x_Gl)`, or
/// `None` when no valid pair exists.
fn swap_towards_parity(
    ranking: &mut Ranking,
    membership: &GroupMembership,
    guard: &CrossAxisGuard,
) -> Option<(usize, usize)> {
    let fprs = group_fprs(ranking, membership);
    let (Some(high_group), Some(low_group)) = (fprs.argmax(), fprs.argmin()) else {
        return None;
    };
    if high_group == low_group {
        return None;
    }
    let mut bottom_low = None;
    for pos in (0..ranking.len()).rev() {
        if membership.group_of(ranking.candidate_at(pos)) == low_group {
            bottom_low = Some(pos);
            break;
        }
    }
    let bottom_low = bottom_low?;
    let mut default_high = None;
    let mut preferred_high = None;
    for pos in (0..bottom_low).rev() {
        let cand = ranking.candidate_at(pos);
        if membership.group_of(cand) != high_group {
            continue;
        }
        if default_high.is_none() {
            default_high = Some(pos);
        }
        if guard.harmless_down(cand) {
            preferred_high = Some(pos);
            break;
        }
    }
    let high_pos = preferred_high.or(default_high)?;
    let mut default_low = None;
    let mut preferred_low = None;
    for pos in (high_pos + 1)..ranking.len() {
        let cand = ranking.candidate_at(pos);
        if membership.group_of(cand) != low_group {
            continue;
        }
        if default_low.is_none() {
            default_low = Some(pos);
        }
        if guard.harmless_up(cand) {
            preferred_low = Some(pos);
            break;
        }
    }
    let low_pos = preferred_low.or(default_low)?;
    ranking.swap_positions(high_pos, low_pos);
    Some((high_pos, low_pos))
}
