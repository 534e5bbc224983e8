//! Synthetic CSRankings-style dataset for the Table V case study.
//!
//! The paper's appendix aggregates 21 yearly rankings (2000–2020) of 65 US computer-science
//! departments, with protected attributes Location (Northeast / Midwest / West / South) and
//! Type (Private / Public). The scrape is not available offline, so this module synthesises
//! an equivalent: each department gets a persistent latent "strength" with a positive bump
//! for Northeast and Private institutions and a penalty for Southern ones, plus independent
//! yearly noise. This reproduces the qualitative structure of Table V — every yearly ranking
//! and the Kemeny consensus favour Northeast/Private departments (high ARP for Location,
//! noticeable IRP) — which is what the Fair-* methods then remove.

use mani_ranking::{CandidateDb, CandidateDbBuilder, GroupIndex, Ranking, RankingProfile};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::seed::rng_from_seed;

/// Configuration of the synthetic CSRankings dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsRankingsConfig {
    /// Number of departments (the paper uses 65).
    pub num_departments: usize,
    /// Number of yearly rankings (the paper uses 21: 2000–2020).
    pub num_years: usize,
    /// Strength bump for Northeast departments.
    pub northeast_advantage: f64,
    /// Strength bump for Private departments.
    pub private_advantage: f64,
    /// Penalty for Southern departments.
    pub south_penalty: f64,
    /// Std-dev of persistent departmental strength.
    pub strength_noise: f64,
    /// Std-dev of the yearly fluctuation.
    pub yearly_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CsRankingsConfig {
    fn default() -> Self {
        Self {
            num_departments: 65,
            num_years: 21,
            northeast_advantage: 1.1,
            private_advantage: 0.8,
            south_penalty: 1.0,
            strength_noise: 1.0,
            yearly_noise: 0.6,
            seed: 0xC5A9,
        }
    }
}

/// Region labels, mirroring the paper.
const REGIONS: [&str; 4] = ["Northeast", "Midwest", "West", "South"];
/// Region shares (Northeast slightly over-represented, as among top CS departments).
const REGION_SHARES: [f64; 4] = [0.32, 0.23, 0.25, 0.20];

/// The generated dataset: departments plus the per-year rankings.
#[derive(Debug, Clone)]
pub struct CsRankingsDataset {
    /// Departments with Location and Type attributes.
    pub db: CandidateDb,
    /// One base ranking per year, oldest first.
    pub profile: RankingProfile,
    /// Year labels aligned with the profile (e.g. `2000..=2020`).
    pub years: Vec<u32>,
}

impl CsRankingsDataset {
    /// Generates the dataset.
    pub fn generate(config: &CsRankingsConfig) -> Self {
        assert!(
            config.num_departments >= 8,
            "need a meaningful department set"
        );
        assert!(config.num_years >= 1, "need at least one yearly ranking");
        let mut rng = rng_from_seed(config.seed);
        let mut builder = CandidateDbBuilder::new();
        let location = builder
            .add_attribute("Location", REGIONS)
            .expect("static attribute");
        let kind = builder
            .add_attribute("Type", ["Private", "Public"])
            .expect("static attribute");

        let strength_noise = Normal::new(0.0, config.strength_noise).expect("positive std dev");
        let yearly_noise = Normal::new(0.0, config.yearly_noise).expect("positive std dev");

        let mut strengths = Vec::with_capacity(config.num_departments);
        for i in 0..config.num_departments {
            let region = sample_region(&mut rng);
            let private = usize::from(rng.gen::<f64>() >= 0.45); // 0 = Private, 1 = Public
            builder
                .add_candidate(
                    format!("dept-{i:02}"),
                    [(location, region), (kind, private)],
                )
                .expect("assignments within domains");
            let mut strength = strength_noise.sample(&mut rng);
            if region == 0 {
                strength += config.northeast_advantage;
            }
            if region == 3 {
                strength -= config.south_penalty;
            }
            if private == 0 {
                strength += config.private_advantage;
            }
            strengths.push(strength);
        }
        let db = builder.build().expect("non-empty database");

        let mut rankings = Vec::with_capacity(config.num_years);
        for _ in 0..config.num_years {
            let scores: Vec<f64> = strengths
                .iter()
                .map(|&s| s + yearly_noise.sample(&mut rng))
                .collect();
            rankings.push(Ranking::from_scores(&scores).expect("one score per department"));
        }
        let profile = RankingProfile::for_database(&db, rankings).expect("sizes match");
        let years = (0..config.num_years as u32).map(|y| 2000 + y).collect();
        Self { db, profile, years }
    }

    /// Group index over the department database.
    pub fn group_index(&self) -> GroupIndex {
        GroupIndex::new(&self.db)
    }
}

fn sample_region<R: Rng>(rng: &mut R) -> usize {
    let mut draw = rng.gen::<f64>();
    for (i, &share) in REGION_SHARES.iter().enumerate() {
        if draw < share {
            return i;
        }
        draw -= share;
    }
    REGION_SHARES.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_fairness::{group_fprs, ParityScores};

    #[test]
    fn dataset_has_expected_shape() {
        let ds = CsRankingsDataset::generate(&CsRankingsConfig::default());
        assert_eq!(ds.db.len(), 65);
        assert_eq!(ds.profile.len(), 21);
        assert_eq!(ds.years.len(), 21);
        assert_eq!(*ds.years.first().unwrap(), 2000);
        assert_eq!(*ds.years.last().unwrap(), 2020);
        assert_eq!(ds.db.schema().intersection_cardinality(), 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CsRankingsDataset::generate(&CsRankingsConfig::default());
        let b = CsRankingsDataset::generate(&CsRankingsConfig::default());
        assert_eq!(a.db, b.db);
        assert_eq!(a.profile.rankings(), b.profile.rankings());
    }

    #[test]
    fn yearly_rankings_favor_northeast_and_private() {
        let ds = CsRankingsDataset::generate(&CsRankingsConfig::default());
        let idx = ds.group_index();
        let location = ds.db.schema().attribute_id("Location").unwrap();
        let kind = ds.db.schema().attribute_id("Type").unwrap();
        let mut northeast_ahead = 0usize;
        let mut private_ahead = 0usize;
        for ranking in ds.profile.rankings() {
            let loc_fpr = group_fprs(ranking, idx.attribute(location));
            let type_fpr = group_fprs(ranking, idx.attribute(kind));
            // Northeast (0) vs South (3)
            if loc_fpr.score(0).unwrap() > loc_fpr.score(3).unwrap() {
                northeast_ahead += 1;
            }
            if type_fpr.score(0).unwrap() > type_fpr.score(1).unwrap() {
                private_ahead += 1;
            }
        }
        assert_eq!(northeast_ahead, 21, "Northeast should lead every year");
        assert_eq!(private_ahead, 21, "Private should lead every year");
    }

    #[test]
    fn yearly_rankings_are_far_from_parity() {
        let ds = CsRankingsDataset::generate(&CsRankingsConfig::default());
        let idx = ds.group_index();
        let location = ds.db.schema().attribute_id("Location").unwrap();
        for ranking in ds.profile.rankings() {
            let parity = ParityScores::compute(ranking, &idx);
            assert!(
                parity.arp(location) > 0.2,
                "location ARP {}",
                parity.arp(location)
            );
            assert!(parity.irp() > 0.3, "IRP {}", parity.irp());
        }
    }

    #[test]
    fn rankings_are_correlated_across_years() {
        // Departmental strength persists, so year-to-year Kendall distance should be well
        // below the 0.5 expected for independent rankings.
        let ds = CsRankingsDataset::generate(&CsRankingsConfig::default());
        let rankings: Vec<_> = ds.profile.copies().collect();
        let mut total = 0.0;
        let mut count = 0usize;
        for w in rankings.windows(2) {
            total += mani_ranking::normalized_kendall_tau(w[0], w[1]).unwrap();
            count += 1;
        }
        let mean = total / count as f64;
        assert!(mean < 0.3, "mean adjacent-year distance {mean}");
    }

    #[test]
    #[should_panic(expected = "meaningful department set")]
    fn tiny_datasets_are_rejected() {
        let _ = CsRankingsDataset::generate(&CsRankingsConfig {
            num_departments: 3,
            ..CsRankingsConfig::default()
        });
    }
}
