//! Depth-first branch-and-bound over ranking prefixes.
//!
//! The search places candidates from the top of the consensus downwards. At every node it
//! knows the exact cost of the prefix, an admissible lower bound on the cost of any
//! completion, and — for Fair-Kemeny — an optimistic feasibility interval for every
//! fairness constraint. Children are explored in ascending bound order so good incumbents
//! are found early and pruning is aggressive.
//!
//! ## Subtree parallelism
//!
//! When [`SolverConfig::parallelism`] allows it, the root frontier is expanded
//! (in sequential DFS visit order) to at least `threads × 4` prefixes and the
//! subtrees are solved by scoped worker threads sharing one [`AtomicU64`]
//! incumbent bound. Determinism is preserved by construction:
//!
//! * each subtree prunes with `>=` only against bounds found *earlier in
//!   visit order* (the seeded incumbent and its own leaves) and strictly (`>`)
//!   against the shared cross-subtree bound, so the earliest minimum-cost leaf
//!   of the sequential search always survives in its subtree;
//! * subtree results are merged in frontier (i.e. sequential visit) order with
//!   strict improvement, reproducing the sequential first-found tie-break.
//!
//! A search that completes within the node budget therefore returns a
//! bit-identical ranking and cost for every thread count. Only the anytime
//! case (budget exhausted mid-search) and the reported node count may vary,
//! because workers race the shared budget.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use mani_ranking::{CandidateId, Ranking};

use crate::bound::PairwiseMinima;
use crate::constraints::AxisConstraint;
use crate::model::{KemenyProblem, SolveOutcome, SolverConfig};

/// Below this candidate count subtree parallelism is never attempted: the
/// frontier bookkeeping would rival the whole search. This is the search's
/// only size gate; the sizes at which an exact search finishes are far below
/// the gates of the O(n²) and O(n³) kernels.
const MIN_PARALLEL_CANDIDATES: usize = 8;

/// Solves a (fairness-constrained) Kemeny problem exactly, within the node budget.
///
/// `incumbent` seeds the upper bound; for constrained problems it should be a feasible
/// ranking (e.g. a Fair-Borda solution) so that the search can prune from the start. If the
/// node budget is exhausted, the best feasible ranking found so far is returned with
/// `optimal = false`; if none was found, the incumbent (even if infeasible) is returned as
/// a last resort.
pub fn solve(
    problem: &KemenyProblem,
    incumbent: Option<&Ranking>,
    config: &SolverConfig,
) -> SolveOutcome {
    let n = problem.num_candidates();
    let matrix = &problem.matrix;
    let minima = PairwiseMinima::new(matrix);

    let mut best_ranking: Option<Ranking> = None;
    let mut best_cost = u64::MAX;
    if let Some(start) = incumbent {
        if start.len() == n && problem.is_feasible(start) {
            best_cost = problem.cost(start);
            best_ranking = Some(start.clone());
        }
    }

    // Static branching order: candidates by descending Copeland wins, so likely-top
    // candidates are tried first at shallow depths.
    let wins = matrix.copeland_wins();
    let mut static_order: Vec<u32> = (0..n as u32).collect();
    static_order.sort_by(|&a, &b| wins[b as usize].cmp(&wins[a as usize]).then(a.cmp(&b)));

    let threads = config.parallelism.max_threads();
    if threads > 1 && n >= MIN_PARALLEL_CANDIDATES {
        if let Some(outcome) = solve_parallel(
            problem,
            &minima,
            &static_order,
            config,
            threads,
            best_cost,
            &best_ranking,
            incumbent,
        ) {
            return outcome;
        }
    }

    let mut state = SearchState::new(problem, &minima, n);
    let mut ctx = SearchContext {
        problem,
        minima: &minima,
        static_order: &static_order,
        config,
        nodes: 0,
        exhausted: false,
        best_cost,
        best_ranking,
        shared: None,
    };
    ctx.dfs(&mut state);
    finish_outcome(
        ctx.nodes,
        ctx.exhausted,
        ctx.best_cost,
        ctx.best_ranking,
        incumbent,
        problem,
        n,
    )
}

/// Packages the end-of-search state into a [`SolveOutcome`], falling back to
/// the incumbent (or identity) when no feasible ranking was found.
fn finish_outcome(
    nodes: u64,
    exhausted: bool,
    best_cost: u64,
    best_ranking: Option<Ranking>,
    incumbent: Option<&Ranking>,
    problem: &KemenyProblem,
    n: usize,
) -> SolveOutcome {
    let optimal = !exhausted && best_ranking.is_some();
    let (ranking, cost) = match best_ranking {
        Some(r) => (r, best_cost),
        None => {
            // No feasible solution found within the budget: fall back to the incumbent or,
            // failing that, the identity ranking (documented best-effort behaviour).
            let fallback = incumbent.cloned().unwrap_or_else(|| Ranking::identity(n));
            let cost = problem.cost(&fallback);
            (fallback, cost)
        }
    };
    SolveOutcome {
        ranking,
        cost,
        optimal,
        nodes_explored: nodes,
    }
}

/// Bound/budget state shared by every subtree worker.
struct SharedSearch {
    /// Best feasible leaf cost found anywhere (seeded with the incumbent).
    best: AtomicU64,
    /// Global node counter charged against [`SolverConfig::max_nodes`].
    nodes: AtomicU64,
    /// Set once the budget is exhausted; all workers bail out promptly.
    exhausted: AtomicBool,
}

/// Unplaced children of `state` with their lower bounds, cheapest first
/// (ties by `static_order` position via the stable tuple sort).
///
/// This is the **single** child enumeration shared by [`SearchContext::dfs`]
/// and [`expand_frontier`]: the bit-identical-across-threads guarantee relies
/// on the frontier partition following exactly the sequential child order, so
/// any change to the bound or ordering must happen here, for both.
fn ordered_children(state: &SearchState, static_order: &[u32]) -> Vec<(u64, u32)> {
    let mut children: Vec<(u64, u32)> = Vec::with_capacity(state.unplaced);
    for &c in static_order {
        let idx = c as usize;
        if state.placed[idx] {
            continue;
        }
        let child_bound = state.cost
            + state.cost_to_unplaced[idx]
            + (state.remaining_bound - state.min_to_unplaced[idx]);
        children.push((child_bound, c));
    }
    children.sort_unstable();
    children
}

/// Expands the root frontier to `target`-or-more prefixes in sequential DFS
/// visit order, level by level. Children are enumerated exactly like
/// [`SearchContext::dfs`] does (via [`ordered_children`]; pruned with `>=`
/// against the incumbent cost, constraint-infeasible prefixes dropped), so
/// the resulting prefix list is a partition of precisely the subtrees the
/// sequential search could visit, in its visit order.
fn expand_frontier(
    problem: &KemenyProblem,
    minima: &PairwiseMinima,
    static_order: &[u32],
    initial_best: u64,
    target: usize,
    nodes: &mut u64,
) -> Vec<Vec<u32>> {
    let n = problem.num_candidates();
    let max_depth = n.saturating_sub(2).min(4);
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    let mut depth = 0usize;
    while frontier.len() < target && depth < max_depth {
        let mut next: Vec<Vec<u32>> = Vec::with_capacity(frontier.len() * 4);
        for prefix in &frontier {
            // Visiting this interior node (mirrors the sequential node count).
            *nodes += 1;
            let mut state = SearchState::new(problem, minima, n);
            for &c in prefix {
                let _ = state.place(c as usize, problem, minima);
            }
            for (child_bound, c) in ordered_children(&state, static_order) {
                if child_bound >= initial_best {
                    break;
                }
                let undo = state.place(c as usize, problem, minima);
                if state.feasible(&problem.constraints) {
                    let mut child = prefix.clone();
                    child.push(c);
                    next.push(child);
                }
                state.unplace(undo, problem, minima);
            }
        }
        frontier = next;
        depth += 1;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// Runs the search with `threads` subtree workers. Returns `None` when the
/// frontier does not offer real fan-out (the caller then runs sequentially).
#[allow(clippy::too_many_arguments)]
fn solve_parallel(
    problem: &KemenyProblem,
    minima: &PairwiseMinima,
    static_order: &[u32],
    config: &SolverConfig,
    threads: usize,
    initial_best_cost: u64,
    initial_best_ranking: &Option<Ranking>,
    incumbent: Option<&Ranking>,
) -> Option<SolveOutcome> {
    let n = problem.num_candidates();
    let mut frontier_nodes = 0u64;
    let frontier = expand_frontier(
        problem,
        minima,
        static_order,
        initial_best_cost,
        threads * 4,
        &mut frontier_nodes,
    );
    if frontier.is_empty() {
        // Every subtree was pruned against the incumbent: the incumbent stands,
        // exactly as it would after a fully pruned sequential search.
        return Some(finish_outcome(
            frontier_nodes,
            false,
            initial_best_cost,
            initial_best_ranking.clone(),
            incumbent,
            problem,
            n,
        ));
    }
    if frontier.len() <= 1 {
        return None;
    }

    let shared = SharedSearch {
        best: AtomicU64::new(initial_best_cost),
        nodes: AtomicU64::new(frontier_nodes),
        exhausted: AtomicBool::new(false),
    };
    let next_index = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<(u64, Ranking)>>> =
        (0..frontier.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(frontier.len()) {
            scope.spawn(|| loop {
                // Work stealing by shared index: which worker solves which
                // subtree never affects the merged result.
                let index = next_index.fetch_add(1, Ordering::Relaxed);
                if index >= frontier.len() {
                    break;
                }
                let subtree_best = solve_subtree(
                    problem,
                    minima,
                    static_order,
                    config,
                    &shared,
                    &frontier[index],
                    initial_best_cost,
                );
                *results[index].lock().expect("subtree result lock poisoned") = subtree_best;
            });
        }
    });

    // Deterministic merge: frontier order is sequential visit order, and
    // strict improvement reproduces the sequential first-found tie-break.
    let mut best_cost = initial_best_cost;
    let mut best_ranking = initial_best_ranking.clone();
    for slot in results {
        if let Some((cost, ranking)) = slot.into_inner().expect("subtree result lock poisoned") {
            if cost < best_cost {
                best_cost = cost;
                best_ranking = Some(ranking);
            }
        }
    }
    let exhausted = shared.exhausted.load(Ordering::Relaxed);
    Some(finish_outcome(
        shared.nodes.load(Ordering::Relaxed),
        exhausted,
        best_cost,
        best_ranking,
        incumbent,
        problem,
        n,
    ))
}

/// Solves one frontier subtree to completion, returning its best feasible
/// leaf (strictly better than the seeded incumbent cost), if any.
fn solve_subtree(
    problem: &KemenyProblem,
    minima: &PairwiseMinima,
    static_order: &[u32],
    config: &SolverConfig,
    shared: &SharedSearch,
    prefix: &[u32],
    initial_best_cost: u64,
) -> Option<(u64, Ranking)> {
    let n = problem.num_candidates();
    let mut state = SearchState::new(problem, minima, n);
    for &c in prefix {
        let _ = state.place(c as usize, problem, minima);
    }
    let mut ctx = SearchContext {
        problem,
        minima,
        static_order,
        config,
        nodes: 0,
        exhausted: false,
        best_cost: initial_best_cost,
        best_ranking: None,
        shared: Some(shared),
    };
    ctx.dfs(&mut state);
    ctx.best_ranking.map(|ranking| (ctx.best_cost, ranking))
}

/// Mutable per-search-path state, updated by place/unplace operations.
struct SearchState {
    /// Candidate ids placed so far, top first.
    prefix: Vec<u32>,
    placed: Vec<bool>,
    /// Exact disagreement cost of the prefix.
    cost: u64,
    /// Sum of `min(W[a][b], W[b][a])` over pairs of unplaced candidates.
    remaining_bound: u64,
    /// For each candidate, the disagreement cost it would add if placed now
    /// (Σ over unplaced others of W[c][other]).
    cost_to_unplaced: Vec<u64>,
    /// For each candidate, Σ over unplaced others of the pairwise minimum.
    min_to_unplaced: Vec<u64>,
    /// Per constraint: favored mixed pairs fixed so far, per group.
    favored: Vec<Vec<u64>>,
    /// Per constraint: unplaced members per group.
    remaining_members: Vec<Vec<usize>>,
    unplaced: usize,
}

impl SearchState {
    fn new(problem: &KemenyProblem, minima: &PairwiseMinima, n: usize) -> Self {
        let matrix = &problem.matrix;
        let mut cost_to_unplaced = vec![0u64; n];
        let mut min_to_unplaced = vec![0u64; n];
        for a in 0..n {
            let ca = CandidateId(a as u32);
            min_to_unplaced[a] = minima.row_sum(ca);
            let mut cost = 0u64;
            for b in 0..n {
                if a == b {
                    continue;
                }
                cost += matrix.disagreements_if_above(ca, CandidateId(b as u32)) as u64;
            }
            cost_to_unplaced[a] = cost;
        }
        let favored = problem
            .constraints
            .iter()
            .map(|c| vec![0u64; c.num_groups])
            .collect();
        let remaining_members = problem
            .constraints
            .iter()
            .map(|c| c.group_sizes.clone())
            .collect();
        Self {
            prefix: Vec::with_capacity(n),
            placed: vec![false; n],
            cost: 0,
            remaining_bound: minima.total(),
            cost_to_unplaced,
            min_to_unplaced,
            favored,
            remaining_members,
            unplaced: n,
        }
    }

    /// Places candidate `c` at the next position; returns the data needed to undo.
    fn place(
        &mut self,
        c: usize,
        problem: &KemenyProblem,
        minima: &PairwiseMinima,
    ) -> PlacementUndo {
        let inc_cost = self.cost_to_unplaced[c];
        let inc_min = self.min_to_unplaced[c];
        self.cost += inc_cost;
        self.remaining_bound -= inc_min;
        self.placed[c] = true;
        self.prefix.push(c as u32);
        self.unplaced -= 1;

        let n = self.placed.len();
        let cc = CandidateId(c as u32);
        for other in 0..n {
            if other == c || self.placed[other] {
                continue;
            }
            let co = CandidateId(other as u32);
            self.cost_to_unplaced[other] -= problem.matrix.disagreements_if_above(co, cc) as u64;
            self.min_to_unplaced[other] -= minima.pair_min(co, cc);
        }

        let mut favored_deltas = Vec::with_capacity(problem.constraints.len());
        for (k, constraint) in problem.constraints.iter().enumerate() {
            let g = constraint.membership[c];
            self.remaining_members[k][g] -= 1;
            // Everything unplaced is below c; non-group members among them are favored pairs.
            let delta = (self.unplaced - self.remaining_members[k][g]) as u64;
            self.favored[k][g] += delta;
            favored_deltas.push(delta);
        }

        PlacementUndo {
            candidate: c,
            inc_cost,
            inc_min,
            favored_deltas,
        }
    }

    /// Reverts the most recent placement.
    fn unplace(&mut self, undo: PlacementUndo, problem: &KemenyProblem, minima: &PairwiseMinima) {
        let c = undo.candidate;
        for (k, constraint) in problem.constraints.iter().enumerate() {
            let g = constraint.membership[c];
            self.favored[k][g] -= undo.favored_deltas[k];
            self.remaining_members[k][g] += 1;
        }
        self.unplaced += 1;
        self.prefix.pop();
        self.placed[c] = false;
        self.cost -= undo.inc_cost;
        self.remaining_bound += undo.inc_min;

        let n = self.placed.len();
        let cc = CandidateId(c as u32);
        for other in 0..n {
            if other == c || self.placed[other] {
                continue;
            }
            let co = CandidateId(other as u32);
            self.cost_to_unplaced[other] += problem.matrix.disagreements_if_above(co, cc) as u64;
            self.min_to_unplaced[other] += minima.pair_min(co, cc);
        }
    }

    fn feasible(&self, constraints: &[AxisConstraint]) -> bool {
        constraints.iter().enumerate().all(|(k, c)| {
            c.feasible_given_prefix(&self.favored[k], &self.remaining_members[k], self.unplaced)
        })
    }

    fn leaf_satisfies(&self, constraints: &[AxisConstraint]) -> bool {
        constraints.iter().enumerate().all(|(k, c)| {
            c.is_trivial()
                || c.gap_from_counts(&self.favored[k]) <= c.delta + crate::constraints::DELTA_EPS
        })
    }
}

struct PlacementUndo {
    candidate: usize,
    inc_cost: u64,
    inc_min: u64,
    favored_deltas: Vec<u64>,
}

struct SearchContext<'a> {
    problem: &'a KemenyProblem,
    minima: &'a PairwiseMinima,
    static_order: &'a [u32],
    config: &'a SolverConfig,
    nodes: u64,
    exhausted: bool,
    /// Best upper bound found *earlier in visit order*: the seeded incumbent
    /// cost, improved by leaves of this (sub)search. `u64::MAX` when no upper
    /// bound exists yet.
    best_cost: u64,
    best_ranking: Option<Ranking>,
    /// Cross-subtree state when running as one worker of a parallel search.
    shared: Option<&'a SharedSearch>,
}

impl SearchContext<'_> {
    fn dfs(&mut self, state: &mut SearchState) {
        if self.exhausted {
            return;
        }
        self.nodes += 1;
        match self.shared {
            None => {
                if self.nodes > self.config.max_nodes {
                    self.exhausted = true;
                    return;
                }
            }
            Some(shared) => {
                if shared.exhausted.load(Ordering::Relaxed) {
                    self.exhausted = true;
                    return;
                }
                // The node budget is global across subtrees.
                let global_nodes = shared.nodes.fetch_add(1, Ordering::Relaxed) + 1;
                if global_nodes > self.config.max_nodes {
                    shared.exhausted.store(true, Ordering::Relaxed);
                    self.exhausted = true;
                    return;
                }
            }
        }

        if state.unplaced == 0 {
            if state.leaf_satisfies(&self.problem.constraints) && state.cost < self.best_cost {
                self.best_cost = state.cost;
                let order: Vec<u32> = state.prefix.clone();
                self.best_ranking =
                    Some(Ranking::from_ids(order).expect("prefix covers every candidate once"));
                if let Some(shared) = self.shared {
                    shared.best.fetch_min(state.cost, Ordering::Relaxed);
                }
            }
            return;
        }

        for (child_bound, c) in ordered_children(state, self.static_order) {
            if self.exhausted {
                return;
            }
            // Children are sorted by bound, so the first pruned child ends the
            // loop. Pruning is `>=` against bounds found earlier in visit order
            // (`best_cost`) but strictly `>` against the shared cross-subtree
            // bound: a later subtree may have tied this child's bound, and the
            // deterministic tie-break requires the earlier leaf to be found.
            if child_bound >= self.best_cost {
                break;
            }
            if let Some(shared) = self.shared {
                if child_bound > shared.best.load(Ordering::Relaxed) {
                    break;
                }
            }
            let undo = state.place(c as usize, self.problem, self.minima);
            if state.feasible(&self.problem.constraints) {
                self.dfs(state);
            }
            state.unplace(undo, self.problem, self.minima);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::{kendall_tau, Ranking, RankingProfile};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brute-force Kemeny optimum by enumerating all permutations (tests only, small n).
    fn brute_force_kemeny(profile: &RankingProfile) -> u64 {
        let n = profile.num_candidates();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut best = u64::MAX;
        permute(&mut ids, 0, &mut |perm| {
            let r = Ranking::from_ids(perm.to_vec()).unwrap();
            let cost: u64 = profile
                .rankings()
                .iter()
                .map(|b| kendall_tau(&r, b).unwrap())
                .sum();
            best = best.min(cost);
        });
        best
    }

    fn permute(ids: &mut Vec<u32>, k: usize, visit: &mut impl FnMut(&[u32])) {
        if k == ids.len() {
            visit(ids);
            return;
        }
        for i in k..ids.len() {
            ids.swap(k, i);
            permute(ids, k + 1, visit);
            ids.swap(k, i);
        }
    }

    #[test]
    fn unanimous_profile_recovers_the_common_ranking() {
        let target = Ranking::from_ids([4, 2, 0, 3, 1]).unwrap();
        let profile = RankingProfile::new(vec![target.clone(); 3]).unwrap();
        let problem = KemenyProblem::unconstrained(profile.precedence_matrix());
        let outcome = solve(&problem, None, &SolverConfig::default());
        assert!(outcome.optimal);
        assert_eq!(outcome.cost, 0);
        assert_eq!(outcome.ranking, target);
    }

    #[test]
    fn matches_brute_force_on_small_profiles() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in 2..=6usize {
            for _ in 0..4 {
                let rankings: Vec<Ranking> = (0..5).map(|_| Ranking::random(n, &mut rng)).collect();
                let profile = RankingProfile::new(rankings).unwrap();
                let problem = KemenyProblem::unconstrained(profile.precedence_matrix());
                let outcome = solve(&problem, None, &SolverConfig::default());
                assert!(outcome.optimal);
                assert_eq!(outcome.cost, brute_force_kemeny(&profile), "n = {n}");
                assert_eq!(outcome.cost, problem.cost(&outcome.ranking));
            }
        }
    }

    #[test]
    fn incumbent_does_not_change_the_optimum() {
        let mut rng = StdRng::seed_from_u64(7);
        let rankings: Vec<Ranking> = (0..7).map(|_| Ranking::random(7, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let problem = KemenyProblem::unconstrained(profile.precedence_matrix());
        let without = solve(&problem, None, &SolverConfig::default());
        let incumbent = Ranking::random(7, &mut rng);
        let with = solve(&problem, Some(&incumbent), &SolverConfig::default());
        assert!(without.optimal && with.optimal);
        assert_eq!(without.cost, with.cost);
    }

    #[test]
    fn fairness_constraint_is_enforced() {
        // Profile strongly prefers group-0 candidates on top; the constrained optimum must
        // still satisfy the parity gap.
        let biased = Ranking::from_ids([0, 2, 4, 1, 3, 5]).unwrap(); // group0 = even ids on top
        let profile = RankingProfile::new(vec![biased.clone(); 4]).unwrap();
        let membership: Vec<usize> = (0..6).map(|i| i % 2).collect();
        let constraint = AxisConstraint::new("G", membership.clone(), 2, 0.2);
        let matrix = profile.precedence_matrix();

        let unconstrained = solve(
            &KemenyProblem::unconstrained(matrix.clone()),
            None,
            &SolverConfig::default(),
        );
        assert_eq!(unconstrained.ranking, biased);

        let constrained_problem = KemenyProblem::constrained(matrix, vec![constraint.clone()]);
        let outcome = solve(&constrained_problem, None, &SolverConfig::default());
        assert!(outcome.optimal);
        assert!(constraint.is_satisfied_by(&outcome.ranking));
        // Fairness costs something relative to the unconstrained optimum.
        assert!(outcome.cost >= unconstrained.cost);
    }

    #[test]
    fn constrained_cost_is_minimal_among_feasible_permutations() {
        let mut rng = StdRng::seed_from_u64(21);
        let rankings: Vec<Ranking> = (0..5).map(|_| Ranking::random(6, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let membership: Vec<usize> = (0..6).map(|i| usize::from(i >= 3)).collect();
        let constraint = AxisConstraint::new("G", membership, 2, 0.25);
        let problem =
            KemenyProblem::constrained(profile.precedence_matrix(), vec![constraint.clone()]);
        let outcome = solve(&problem, None, &SolverConfig::default());
        assert!(outcome.optimal);

        // brute force over feasible permutations
        let mut ids: Vec<u32> = (0..6).collect();
        let mut best = u64::MAX;
        permute(&mut ids, 0, &mut |perm| {
            let r = Ranking::from_ids(perm.to_vec()).unwrap();
            if constraint.is_satisfied_by(&r) {
                best = best.min(problem.cost(&r));
            }
        });
        assert_eq!(outcome.cost, best);
    }

    #[test]
    fn node_budget_produces_anytime_result() {
        let mut rng = StdRng::seed_from_u64(3);
        let rankings: Vec<Ranking> = (0..5).map(|_| Ranking::random(10, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let problem = KemenyProblem::unconstrained(profile.precedence_matrix());
        let incumbent = Ranking::identity(10);
        let outcome = solve(&problem, Some(&incumbent), &SolverConfig::with_max_nodes(5));
        assert!(!outcome.optimal);
        assert!(outcome.nodes_explored <= 6);
        // the result is never worse than the incumbent
        assert!(outcome.cost <= problem.cost(&incumbent));
    }

    #[test]
    fn impossible_constraint_falls_back_to_incumbent() {
        // With delta effectively negative-impossible (size-1 groups can't both be at 0 gap
        // unless n allows it), use an absurd constraint: two singleton groups and delta 0 over
        // a profile where exact parity is impossible (gap is either 0... actually for two
        // singletons FPR gap can be 0 only if they tie, impossible in a strict ranking unless
        // they have equal favored counts; with n = 2 the gap is always 1).
        let profile = RankingProfile::new(vec![Ranking::identity(2); 2]).unwrap();
        let constraint = AxisConstraint::new("G", vec![0, 1], 2, 0.0);
        let problem = KemenyProblem::constrained(profile.precedence_matrix(), vec![constraint]);
        let incumbent = Ranking::identity(2);
        let outcome = solve(&problem, Some(&incumbent), &SolverConfig::default());
        // No feasible ranking exists; the solver reports non-optimal and returns the incumbent.
        assert!(!outcome.optimal);
        assert_eq!(outcome.ranking, incumbent);
    }

    #[test]
    fn parallel_search_is_bit_identical_across_thread_counts() {
        use mani_ranking::Parallelism;
        let mut rng = StdRng::seed_from_u64(4242);
        for case in 0..6 {
            let n = 8 + case % 4;
            let rankings: Vec<Ranking> = (0..5).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let membership: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let constraint = AxisConstraint::new("G", membership, 2, 0.3);
            for constraints in [Vec::new(), vec![constraint]] {
                let problem =
                    KemenyProblem::constrained(profile.precedence_matrix(), constraints.clone());
                let incumbent = Ranking::identity(n);
                let sequential = solve(&problem, Some(&incumbent), &SolverConfig::default());
                assert!(sequential.optimal);
                for threads in [1usize, 2, 8] {
                    let config =
                        SolverConfig::default().with_parallelism(Parallelism::new(threads));
                    let parallel = solve(&problem, Some(&incumbent), &config);
                    assert!(parallel.optimal);
                    assert_eq!(parallel.ranking, sequential.ranking, "threads = {threads}");
                    assert_eq!(parallel.cost, sequential.cost, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_search_with_infeasible_constraint_matches_sequential_fallback() {
        use mani_ranking::Parallelism;
        // Eight candidates in eight singleton groups with delta 0: no strict
        // ranking can satisfy exact parity, so both paths must fall back.
        let mut rng = StdRng::seed_from_u64(11);
        let rankings: Vec<Ranking> = (0..4).map(|_| Ranking::random(8, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        let constraint = AxisConstraint::new("G", (0..8).collect(), 8, 0.0);
        let problem = KemenyProblem::constrained(profile.precedence_matrix(), vec![constraint]);
        let incumbent = Ranking::identity(8);
        let sequential = solve(&problem, Some(&incumbent), &SolverConfig::default());
        let config = SolverConfig::default().with_parallelism(Parallelism::new(4));
        let parallel = solve(&problem, Some(&incumbent), &config);
        assert_eq!(parallel.optimal, sequential.optimal);
        assert_eq!(parallel.ranking, sequential.ranking);
        assert_eq!(parallel.cost, sequential.cost);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_parallel_matches_sequential(
            n in 8usize..12,
            m in 1usize..5,
            threads in 2usize..9,
            seed in any::<u64>()
        ) {
            use mani_ranking::Parallelism;
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let problem = KemenyProblem::unconstrained(profile.precedence_matrix());
            let sequential = solve(&problem, None, &SolverConfig::default());
            let config = SolverConfig::default()
                .with_parallelism(Parallelism::new(threads));
            let parallel = solve(&problem, None, &config);
            prop_assert!(sequential.optimal && parallel.optimal);
            prop_assert_eq!(&parallel.ranking, &sequential.ranking);
            prop_assert_eq!(parallel.cost, sequential.cost);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_solver_matches_brute_force(n in 2usize..6, m in 1usize..5, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let profile = RankingProfile::new(rankings).unwrap();
            let problem = KemenyProblem::unconstrained(profile.precedence_matrix());
            let outcome = solve(&problem, None, &SolverConfig::default());
            prop_assert!(outcome.optimal);
            prop_assert_eq!(outcome.cost, brute_force_kemeny(&profile));
            prop_assert_eq!(outcome.cost, problem.cost(&outcome.ranking));
        }
    }
}
