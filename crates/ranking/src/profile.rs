//! Ranking profiles: the set `R` of base rankings supplied by the rankers.
//!
//! A profile is a list of runs: one ranking with a `u32` weight of at least
//! 1, which counts as that many copies of the ranking. Adjacent equal
//! rankings merge into one run when the profile is built, so a ranking
//! repeated `w` times and a ranking of weight `w` are the same profile. This
//! module owns how a weight counts: the matrix, the Kendall sum and every
//! edit read the runs, and no layer expands a weight into copies.

use crate::candidate::CandidateDb;
use crate::error::RankingError;
use crate::kendall::kendall_tau;
use crate::pairs::total_pairs;
use crate::precedence::{check_support_capacity, PrecedenceMatrix};
use crate::ranking::Ranking;
use crate::Result;

/// One edit to a profile: `weight` copies of a ranking added at the end, or
/// its last `weight` copies removed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingDelta {
    /// Add `weight` copies of the ranking at the end of the profile.
    Append {
        /// The ranking being added.
        ranking: Ranking,
        /// How many copies it counts for.
        weight: u32,
    },
    /// Remove the last `weight` copies of the ranking.
    Retract {
        /// The ranking being removed.
        ranking: Ranking,
        /// How many copies to remove.
        weight: u32,
    },
}

/// A set of base rankings over a shared candidate database, stored as runs.
///
/// The profile is the standard input to every consensus method in the
/// workspace. Its total weight `|R|` is at most `u32::MAX`, the capacity of
/// the precedence matrix's support cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankingProfile {
    /// One ranking per run; no two adjacent runs are equal.
    rankings: Vec<Ranking>,
    /// Each run's weight, at least 1.
    weights: Vec<u32>,
    /// Sum of the weights, `|R|`.
    total: u32,
    num_candidates: usize,
}

impl RankingProfile {
    /// Builds a profile from base rankings, validating that they all cover the same
    /// number of candidates and that at least one ranking is present. Adjacent equal
    /// rankings merge into one run.
    pub fn new(rankings: Vec<Ranking>) -> Result<Self> {
        Self::from_runs(rankings.into_iter().map(|ranking| (ranking, 1)))
    }

    /// Builds a profile from `(ranking, weight)` runs. A run of weight 0 holds no
    /// copies and is dropped; adjacent equal rankings merge. Fails when no copy is
    /// left, when the rankings disagree on `n`, or when the total weight exceeds
    /// `u32::MAX` ([`RankingError::SupportOverflow`]).
    pub fn from_runs(runs: impl IntoIterator<Item = (Ranking, u32)>) -> Result<Self> {
        let mut profile = Self {
            rankings: Vec::new(),
            weights: Vec::new(),
            total: 0,
            num_candidates: 0,
        };
        let mut total = 0u64;
        for (ranking, weight) in runs {
            if profile.rankings.is_empty() {
                profile.num_candidates = ranking.len();
            } else {
                profile.check_len(&ranking)?;
            }
            if weight == 0 {
                continue;
            }
            total += u64::from(weight);
            check_support_capacity(total)?;
            match (profile.rankings.last(), profile.weights.last_mut()) {
                (Some(last), Some(last_weight)) if *last == ranking => *last_weight += weight,
                _ => {
                    profile.rankings.push(ranking);
                    profile.weights.push(weight);
                }
            }
        }
        if profile.rankings.is_empty() {
            return Err(RankingError::EmptyProfile);
        }
        profile.total = total as u32;
        Ok(profile)
    }

    /// Builds a profile and additionally checks it matches a candidate database's size.
    pub fn for_database(db: &CandidateDb, rankings: Vec<Ranking>) -> Result<Self> {
        let profile = Self::new(rankings)?;
        if profile.num_candidates != db.len() {
            return Err(RankingError::LengthMismatch {
                left: profile.num_candidates,
                right: db.len(),
            });
        }
        Ok(profile)
    }

    /// Number of base rankings `|R|`: the total weight of the runs.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True if the profile is empty (never true for a constructed profile).
    pub fn is_empty(&self) -> bool {
        self.rankings.is_empty()
    }

    /// Number of candidates `n`.
    pub fn num_candidates(&self) -> usize {
        self.num_candidates
    }

    /// The ranking of each run, in profile order.
    pub fn rankings(&self) -> &[Ranking] {
        &self.rankings
    }

    /// The weight of each run, parallel to [`RankingProfile::rankings`].
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The runs as `(ranking, weight)` pairs, in profile order.
    pub fn runs(&self) -> impl Iterator<Item = (&Ranking, u32)> {
        self.rankings.iter().zip(self.weights.iter().copied())
    }

    /// Every copy in profile order: each run's ranking `weight` times. For
    /// outputs that list one row per copy (JSON, CSV, labelled tables).
    pub fn copies(&self) -> impl Iterator<Item = &Ranking> {
        self.runs()
            .flat_map(|(ranking, weight)| std::iter::repeat_n(ranking, weight as usize))
    }

    /// The profile after `deltas`, applied in order. An append adds its
    /// copies at the end, extending the last run when it holds the same
    /// ranking. A retract takes its copies from the last runs of the ranking,
    /// working backwards, and fails with [`RankingError::RetractShortfall`]
    /// when the profile holds fewer. Neighbours that become equal merge.
    ///
    /// Each op costs `O(runs · n)`, whatever its weight. A failed edit leaves
    /// `self` unchanged; so does any error of [`RankingProfile::from_runs`],
    /// such as an edit that leaves no copy or a total above `u32::MAX`.
    pub fn edited(&self, deltas: &[RankingDelta]) -> Result<Self> {
        let mut runs: Vec<(Ranking, u32)> = self.runs().map(|(r, w)| (r.clone(), w)).collect();
        let mut total = u64::from(self.total);
        for (op, delta) in deltas.iter().enumerate() {
            match delta {
                RankingDelta::Append { ranking, weight } => {
                    self.check_len(ranking)?;
                    total += u64::from(*weight);
                    check_support_capacity(total)?;
                    runs.push((ranking.clone(), *weight));
                }
                RankingDelta::Retract { ranking, weight } => {
                    self.check_len(ranking)?;
                    let held: u64 = (runs.iter().filter(|(r, _)| r == ranking))
                        .map(|&(_, w)| u64::from(w))
                        .sum();
                    if held < u64::from(*weight) {
                        return Err(RankingError::RetractShortfall {
                            op,
                            weight: *weight,
                            held,
                        });
                    }
                    let mut left = *weight;
                    for (r, w) in runs.iter_mut().rev() {
                        if left == 0 {
                            break;
                        }
                        if r == ranking {
                            let taken = left.min(*w);
                            *w -= taken;
                            left -= taken;
                        }
                    }
                    total -= u64::from(*weight);
                }
            }
        }
        Self::from_runs(runs)
    }

    /// Computes the precedence matrix for this profile.
    pub fn precedence_matrix(&self) -> PrecedenceMatrix {
        self.precedence_matrix_with(&crate::parallel::Parallelism::serial())
    }

    /// Computes the precedence matrix with row-block parallel construction —
    /// bit-identical to [`RankingProfile::precedence_matrix`] for every
    /// thread count.
    pub fn precedence_matrix_with(
        &self,
        parallelism: &crate::parallel::Parallelism,
    ) -> PrecedenceMatrix {
        PrecedenceMatrix::from_weighted_rankings_parallel(
            &self.rankings,
            &self.weights,
            parallelism,
        )
        .expect("profile construction guarantees a valid, non-empty ranking set")
    }

    /// Sum of Kendall tau distances from `consensus` to every base ranking, each run
    /// counted `weight` times.
    pub fn total_kendall_distance(&self, consensus: &Ranking) -> Result<u64> {
        let mut total = 0u64;
        for (ranking, weight) in self.runs() {
            total = kendall_tau(consensus, ranking)?
                .checked_mul(u64::from(weight))
                .and_then(|d| total.checked_add(d))
                .ok_or(RankingError::DistanceOverflow)?;
        }
        Ok(total)
    }

    /// Pairwise disagreement loss (Definition 9): the total Kendall distance normalised by
    /// `ω(X) · |R|`, in `[0, 1]`.
    pub fn pairwise_disagreement_loss(&self, consensus: &Ranking) -> Result<f64> {
        let total = self.total_kendall_distance(consensus)?;
        let denom = total_pairs(self.num_candidates) as f64 * f64::from(self.total);
        if denom == 0.0 {
            return Ok(0.0);
        }
        Ok(total as f64 / denom)
    }

    fn check_len(&self, ranking: &Ranking) -> Result<()> {
        if ranking.len() != self.num_candidates {
            return Err(RankingError::LengthMismatch {
                left: self.num_candidates,
                right: ranking.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandidateDbBuilder, CandidateId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn profile() -> RankingProfile {
        RankingProfile::new(vec![
            Ranking::from_ids([0, 1, 2, 3]).unwrap(),
            Ranking::from_ids([0, 2, 1, 3]).unwrap(),
            Ranking::from_ids([3, 1, 2, 0]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn profile_validates_shape() {
        assert!(matches!(
            RankingProfile::new(vec![]),
            Err(RankingError::EmptyProfile)
        ));
        assert!(matches!(
            RankingProfile::new(vec![Ranking::identity(3), Ranking::identity(4)]),
            Err(RankingError::LengthMismatch { .. })
        ));
        let p = profile();
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_candidates(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.weights(), &[1, 1, 1]);
    }

    #[test]
    fn for_database_checks_candidate_count() {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        for i in 0..3u32 {
            b.add_candidate(format!("c{i}"), [(g, (i % 2) as usize)])
                .unwrap();
        }
        let db = b.build().unwrap();
        assert!(RankingProfile::for_database(&db, vec![Ranking::identity(3)]).is_ok());
        assert!(matches!(
            RankingProfile::for_database(&db, vec![Ranking::identity(4)]),
            Err(RankingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn adjacent_repeats_merge_into_runs() {
        let a = Ranking::identity(3);
        let b = a.reversed();
        let p = RankingProfile::new(vec![a.clone(), a.clone(), b.clone(), a.clone()]).unwrap();
        assert_eq!(p.rankings(), &[a.clone(), b.clone(), a.clone()]);
        assert_eq!(p.weights(), &[2, 1, 1]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.copies().count(), 4);
        let weighted = RankingProfile::from_runs([(a.clone(), 1), (a, 1), (b.clone(), 0), (b, 1)]);
        assert_eq!(weighted.unwrap().weights(), &[2, 1]);
    }

    #[test]
    fn total_weight_is_capped_at_the_matrix_capacity() {
        let a = Ranking::identity(3);
        let full = RankingProfile::from_runs([(a.clone(), u32::MAX - 1), (a.reversed(), 1)]);
        assert_eq!(full.unwrap().len(), u32::MAX as usize);
        assert!(matches!(
            RankingProfile::from_runs([(a.clone(), u32::MAX), (a.reversed(), 1)]),
            Err(RankingError::SupportOverflow {
                total_weight: 4_294_967_296
            })
        ));
        assert!(matches!(
            RankingProfile::from_runs([(a, 0)]),
            Err(RankingError::EmptyProfile)
        ));
    }

    #[test]
    fn edits_cost_their_ops_not_their_weights() {
        let a = Ranking::identity(4);
        let b = a.reversed();
        let p = RankingProfile::new(vec![a.clone(), b.clone()]).unwrap();
        let heavy = p
            .edited(&[RankingDelta::Append {
                ranking: b.clone(),
                weight: u32::MAX - 2,
            }])
            .unwrap();
        assert_eq!(heavy.len(), u32::MAX as usize);
        assert_eq!(heavy.weights(), &[1, u32::MAX - 1]);
        let over = p.edited(&[RankingDelta::Append {
            ranking: a.clone(),
            weight: u32::MAX - 1,
        }]);
        assert!(matches!(over, Err(RankingError::SupportOverflow { .. })));
        let short = heavy.edited(&[RankingDelta::Retract {
            ranking: a.clone(),
            weight: 2,
        }]);
        assert!(matches!(
            short,
            Err(RankingError::RetractShortfall {
                op: 0,
                weight: 2,
                held: 1
            })
        ));
        let emptied = p.edited(&[
            RankingDelta::Retract {
                ranking: a,
                weight: 1,
            },
            RankingDelta::Retract {
                ranking: b,
                weight: 1,
            },
        ]);
        assert!(matches!(emptied, Err(RankingError::EmptyProfile)));
    }

    #[test]
    fn pd_loss_zero_for_unanimous_profile() {
        let p = RankingProfile::new(vec![Ranking::identity(5); 4]).unwrap();
        let loss = p.pairwise_disagreement_loss(&Ranking::identity(5)).unwrap();
        assert_eq!(loss, 0.0);
        assert_eq!(p.total_kendall_distance(&Ranking::identity(5)).unwrap(), 0);
    }

    #[test]
    fn pd_loss_one_when_consensus_opposes_all() {
        let base = Ranking::identity(6);
        let p = RankingProfile::new(vec![base.clone(); 3]).unwrap();
        let loss = p.pairwise_disagreement_loss(&base.reversed()).unwrap();
        assert!((loss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pd_loss_zero_for_unanimous_runs() {
        let r = Ranking::identity(6);
        let p =
            RankingProfile::from_runs([(r.clone(), 3), (r.clone(), 2), (r.clone(), 7)]).unwrap();
        assert_eq!(p.weights(), &[12]);
        assert_eq!(p.pairwise_disagreement_loss(&r).unwrap(), 0.0);
        assert_eq!(p.total_kendall_distance(&r).unwrap(), 0);
    }

    #[test]
    fn pd_loss_one_when_consensus_opposes_heavy_runs() {
        // The heaviest profile the matrix admits: the Kendall sum is
        // `15 · (2^32 − 1)`, and the loss is still exactly 1.
        let base = Ranking::identity(6);
        let other = Ranking::from_ids([1, 0, 2, 3, 4, 5]).unwrap();
        let p = RankingProfile::from_runs([
            (base.clone(), u32::MAX - 1),
            (other, 0),
            (base.clone(), 1),
        ])
        .unwrap();
        assert_eq!(p.weights(), &[u32::MAX]);
        assert_eq!(
            p.total_kendall_distance(&base.reversed()).unwrap(),
            15 * u64::from(u32::MAX)
        );
        let loss = p.pairwise_disagreement_loss(&base.reversed()).unwrap();
        assert!((loss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precedence_matrix_counts_run_weights() {
        let a = Ranking::identity(2);
        let b = a.reversed();
        let p = RankingProfile::from_runs([(a, 4), (b, 1)]).unwrap();
        let matrix = p.precedence_matrix();
        assert_eq!(matrix.num_rankings(), 5);
        assert_eq!(matrix.support_for(CandidateId(0), CandidateId(1)), 4);
        assert_eq!(matrix.support_for(CandidateId(1), CandidateId(0)), 1);
    }

    #[test]
    fn pd_loss_matches_manual_computation() {
        let p = profile();
        let consensus = Ranking::from_ids([0, 1, 2, 3]).unwrap();
        let total = p.total_kendall_distance(&consensus).unwrap();
        // distances: 0, 1 (swap 1-2), 5 (positions of 0 and 3 swapped relative plus 1-2 pairs)
        let expected_loss = total as f64 / (6.0 * 3.0);
        assert!((p.pairwise_disagreement_loss(&consensus).unwrap() - expected_loss).abs() < 1e-12);
    }

    #[test]
    fn pd_loss_rejects_a_consensus_of_another_length() {
        let p = RankingProfile::new(vec![Ranking::identity(4)]).unwrap();
        assert!(matches!(
            p.pairwise_disagreement_loss(&Ranking::identity(5)),
            Err(RankingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn precedence_matrix_consistent_with_profile() {
        let p = profile();
        let w = p.precedence_matrix();
        assert_eq!(w.num_candidates(), 4);
        assert_eq!(w.num_rankings(), 3);
        let consensus = Ranking::identity(4);
        assert_eq!(
            w.total_disagreements(&consensus).unwrap(),
            p.total_kendall_distance(&consensus).unwrap()
        );
    }

    /// Random runs of weight 1–4 over `n` candidates, drawn from a pool of
    /// three rankings so adjacent repeats are common.
    fn random_runs(n: usize, runs: usize, rng: &mut StdRng) -> Vec<(Ranking, u32)> {
        let pool: Vec<Ranking> = (0..3).map(|_| Ranking::random(n, rng)).collect();
        (0..runs)
            .map(|_| {
                (
                    pool[rng.gen_range(0..3)].clone(),
                    rng.gen_range(1..5) as u32,
                )
            })
            .collect()
    }

    /// The per-copy list the runs stand for.
    fn expanded(runs: &[(Ranking, u32)]) -> Vec<Ranking> {
        runs.iter()
            .flat_map(|(r, w)| std::iter::repeat_n(r.clone(), *w as usize))
            .collect()
    }

    /// The documented edit semantics over a per-copy list: an append pushes
    /// its copies, a retract removes the last copies one at a time.
    fn edited_copies(mut copies: Vec<Ranking>, deltas: &[RankingDelta]) -> Option<Vec<Ranking>> {
        for delta in deltas {
            match delta {
                RankingDelta::Append { ranking, weight } => {
                    copies.extend(std::iter::repeat_n(ranking.clone(), *weight as usize));
                }
                RankingDelta::Retract { ranking, weight } => {
                    for _ in 0..*weight {
                        let last = copies.iter().rposition(|r| r == ranking)?;
                        copies.remove(last);
                    }
                }
            }
        }
        Some(copies)
    }

    proptest! {
        #[test]
        fn prop_pd_loss_in_unit_interval(n in 2usize..12, m in 1usize..6, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let runs = random_runs(n, m, &mut rng);
            let p = RankingProfile::from_runs(runs).unwrap();
            let consensus = Ranking::random(n, &mut rng);
            let loss = p.pairwise_disagreement_loss(&consensus).unwrap();
            prop_assert!((0.0..=1.0).contains(&loss));
            // The loss of a consensus and of its reversal cover all pairs exactly once per
            // base ranking, so they always sum to 1.
            let anti_loss = p.pairwise_disagreement_loss(&consensus.reversed()).unwrap();
            prop_assert!((loss + anti_loss - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_pd_loss_moves_toward_each_appended_run(
            n in 2usize..10,
            m in 1usize..6,
            weight in 1u32..1_000_000,
            seed in any::<u64>(),
        ) {
            // The loss is the weight-averaged per-copy loss, so appending a run
            // moves it toward that run's own loss, and further the heavier the run.
            let mut rng = StdRng::seed_from_u64(seed);
            let p = RankingProfile::from_runs(random_runs(n, m, &mut rng)).unwrap();
            let consensus = Ranking::random(n, &mut rng);
            let ranking = Ranking::random(n, &mut rng);
            let before = p.pairwise_disagreement_loss(&consensus).unwrap();
            let own = kendall_tau(&consensus, &ranking).unwrap() as f64 / total_pairs(n) as f64;
            let appended = |weight| {
                let edited = p.edited(&[RankingDelta::Append { ranking: ranking.clone(), weight }]);
                edited.unwrap().pairwise_disagreement_loss(&consensus).unwrap()
            };
            let light = appended(weight);
            let heavy = appended(weight + 1);
            let eps = 1e-12;
            prop_assert!(before.min(own) - eps <= light && light <= before.max(own) + eps);
            prop_assert!((heavy - own).abs() <= (light - own).abs() + eps);
            let expected = (before * p.len() as f64 + own * f64::from(weight))
                / (p.len() as f64 + f64::from(weight));
            prop_assert!((light - expected).abs() < 1e-9);
        }

        #[test]
        fn prop_runs_count_like_their_copies(n in 1usize..10, m in 1usize..8, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let runs = random_runs(n, m, &mut rng);
            let copies = expanded(&runs);
            let p = RankingProfile::from_runs(runs).unwrap();
            prop_assert_eq!(&p, &RankingProfile::new(copies.clone()).unwrap());
            prop_assert_eq!(p.len(), copies.len());
            prop_assert!(p.copies().eq(copies.iter()));
            prop_assert!(p.rankings().windows(2).all(|w| w[0] != w[1]));
            prop_assert_eq!(p.precedence_matrix(), PrecedenceMatrix::from_rankings(&copies).unwrap());
            let consensus = Ranking::random(n, &mut rng);
            let per_copy: u64 = copies.iter().map(|r| kendall_tau(&consensus, r).unwrap()).sum();
            prop_assert_eq!(p.total_kendall_distance(&consensus).unwrap(), per_copy);
        }

        #[test]
        fn prop_edits_match_the_per_copy_semantics(
            n in 2usize..6,
            m in 1usize..6,
            ops in 1usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let runs = random_runs(n, m, &mut rng);
            let copies = expanded(&runs);
            let p = RankingProfile::from_runs(runs).unwrap();
            // Ops over the profile's rankings plus one it does not hold, with
            // retracts large enough to span runs or to fail.
            let mut pool = p.rankings().to_vec();
            pool.push(Ranking::random(n, &mut rng));
            let deltas: Vec<RankingDelta> = (0..ops)
                .map(|_| {
                    let ranking = pool[rng.gen_range(0..pool.len())].clone();
                    let weight = rng.gen_range(1..7) as u32;
                    if rng.gen_bool(0.5) {
                        RankingDelta::Append { ranking, weight }
                    } else {
                        RankingDelta::Retract { ranking, weight }
                    }
                })
                .collect();
            let before = p.clone();
            match (p.edited(&deltas), edited_copies(copies, &deltas)) {
                (Ok(edited), Some(copies)) => {
                    prop_assert_eq!(edited, RankingProfile::new(copies).unwrap());
                }
                (Err(RankingError::RetractShortfall { .. }), None) => {}
                (Err(RankingError::EmptyProfile), Some(copies)) => prop_assert!(copies.is_empty()),
                (edited, copies) => prop_assert!(false, "{:?} vs {:?}", edited, copies),
            }
            prop_assert_eq!(p, before);
        }
    }
}
