//! Ranking profiles: the set `R` of base rankings supplied by the rankers.

use serde::{Deserialize, Serialize};

use crate::candidate::CandidateDb;
use crate::error::RankingError;
use crate::kendall::kendall_tau;
use crate::pairs::total_pairs;
use crate::precedence::PrecedenceMatrix;
use crate::ranking::Ranking;
use crate::Result;

/// A set of base rankings over a shared candidate database.
///
/// The profile owns the rankings and lazily exposes the [`PrecedenceMatrix`]; it is the
/// standard input to every consensus method in the workspace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankingProfile {
    rankings: Vec<Ranking>,
    num_candidates: usize,
}

impl RankingProfile {
    /// Builds a profile from base rankings, validating that they all cover the same
    /// number of candidates and that at least one ranking is present.
    pub fn new(rankings: Vec<Ranking>) -> Result<Self> {
        let Some(first) = rankings.first() else {
            return Err(RankingError::EmptyProfile);
        };
        let n = first.len();
        for r in &rankings {
            if r.len() != n {
                return Err(RankingError::LengthMismatch {
                    left: n,
                    right: r.len(),
                });
            }
        }
        Ok(Self {
            rankings,
            num_candidates: n,
        })
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

    /// Number of base rankings `|R|`.
    pub fn len(&self) -> usize {
        self.rankings.len()
    }

    /// True if the profile is empty (never true for a constructed profile).
    pub fn is_empty(&self) -> bool {
        self.rankings.is_empty()
    }

    /// Number of candidates `n`.
    pub fn num_candidates(&self) -> usize {
        self.num_candidates
    }

    /// The base rankings.
    pub fn rankings(&self) -> &[Ranking] {
        &self.rankings
    }

    /// A specific base ranking.
    pub fn ranking(&self, index: usize) -> Option<&Ranking> {
        self.rankings.get(index)
    }

    /// Computes the precedence matrix for this profile.
    pub fn precedence_matrix(&self) -> PrecedenceMatrix {
        PrecedenceMatrix::from_rankings(&self.rankings)
            .expect("profile construction guarantees a valid, non-empty ranking set")
    }

    /// Computes the precedence matrix with row-block parallel construction —
    /// bit-identical to [`RankingProfile::precedence_matrix`] for every
    /// thread count.
    pub fn precedence_matrix_with(
        &self,
        parallelism: &crate::parallel::Parallelism,
    ) -> PrecedenceMatrix {
        PrecedenceMatrix::from_rankings_parallel(&self.rankings, parallelism)
            .expect("profile construction guarantees a valid, non-empty ranking set")
    }

    /// Sum of Kendall tau distances from `consensus` to every base ranking.
    pub fn total_kendall_distance(&self, consensus: &Ranking) -> Result<u64> {
        let mut total = 0u64;
        for r in &self.rankings {
            total += kendall_tau(consensus, r)?;
        }
        Ok(total)
    }

    /// Pairwise disagreement loss (Definition 9): the total Kendall distance normalised by
    /// `ω(X) · |R|`, in `[0, 1]`.
    pub fn pairwise_disagreement_loss(&self, consensus: &Ranking) -> Result<f64> {
        let total = self.total_kendall_distance(consensus)?;
        let denom = total_pairs(self.num_candidates) * self.rankings.len() as u64;
        if denom == 0 {
            return Ok(0.0);
        }
        Ok(total as f64 / denom as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateDbBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert!(p.ranking(0).is_some());
        assert!(p.ranking(9).is_none());
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
    fn pd_loss_zero_for_unanimous_profile() {
        let p = RankingProfile::new(vec![Ranking::identity(5); 4]).unwrap();
        let loss = p.pairwise_disagreement_loss(&Ranking::identity(5)).unwrap();
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn pd_loss_one_when_consensus_opposes_all() {
        let base = Ranking::identity(6);
        let p = RankingProfile::new(vec![base.clone(); 3]).unwrap();
        let loss = p.pairwise_disagreement_loss(&base.reversed()).unwrap();
        assert!((loss - 1.0).abs() < 1e-12);
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

    proptest! {
        #[test]
        fn prop_pd_loss_in_unit_interval(n in 2usize..12, m in 1usize..6, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rankings: Vec<Ranking> = (0..m).map(|_| Ranking::random(n, &mut rng)).collect();
            let p = RankingProfile::new(rankings).unwrap();
            let consensus = Ranking::random(n, &mut rng);
            let loss = p.pairwise_disagreement_loss(&consensus).unwrap();
            prop_assert!((0.0..=1.0).contains(&loss));
        }
    }
}
