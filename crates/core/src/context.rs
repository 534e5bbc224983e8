//! Shared input bundle for MFCR methods, and the memo of the Δ-independent
//! base consensus rankings they correct.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mani_aggregation::{BordaAggregator, CopelandAggregator, SchulzeAggregator};
use mani_fairness::FairnessThresholds;
use mani_ranking::{
    CandidateDb, GroupIndex, Parallelism, PrecedenceMatrix, Ranking, RankingProfile,
};

/// The fairness-unaware aggregator whose consensus a Fair method corrects
/// (Section III-B): the first stage of Fair-Borda, Fair-Copeland and
/// Fair-Schulze, and the seed of the Kemeny searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseAggregator {
    /// Borda count, from the profile.
    Borda,
    /// Copeland, from the precedence matrix.
    Copeland,
    /// Schulze, from the precedence matrix.
    Schulze,
}

/// Lookup counters shared by every [`ConsensusMemo`] built with
/// [`ConsensusMemo::with_counters`]: `hits + builds` equals the number of
/// memoised [`MfcrContext::base_consensus`] calls.
#[derive(Debug, Default)]
pub struct MemoCounters {
    hits: AtomicU64,
    builds: AtomicU64,
}

impl MemoCounters {
    /// Lookups that did not run the aggregator themselves: they found the
    /// ranking memoised, or waited for another caller computing it.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the aggregator (one per memo and aggregator).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }
}

/// One profile's base consensus rankings, computed at most once per
/// aggregator and shared by every solve of that profile.
///
/// None of them depends on Δ, so a solve at a new Δ that finds its slot
/// filled pays only Make-MR-Fair and evaluation. Attach a memo with
/// [`MfcrContext::with_consensus_memo`]; it must only ever serve one profile,
/// which is why the engine creates a fresh memo with every precedence matrix
/// it builds or derives.
#[derive(Debug, Default)]
pub struct ConsensusMemo {
    borda: OnceLock<Ranking>,
    copeland: OnceLock<Ranking>,
    schulze: OnceLock<Ranking>,
    counters: Arc<MemoCounters>,
}

impl ConsensusMemo {
    /// An empty memo that counts its lookups into `counters` (a
    /// `ConsensusMemo::default()` counts into counters of its own).
    pub fn with_counters(counters: Arc<MemoCounters>) -> Self {
        Self {
            counters,
            ..Self::default()
        }
    }

    fn slot(&self, aggregator: BaseAggregator) -> &OnceLock<Ranking> {
        match aggregator {
            BaseAggregator::Borda => &self.borda,
            BaseAggregator::Copeland => &self.copeland,
            BaseAggregator::Schulze => &self.schulze,
        }
    }

    /// The ranking in `aggregator`'s slot, running `compute` if the slot is
    /// empty. Concurrent callers on an empty slot run `compute` once; the
    /// others wait for it and count as hits.
    fn get_or_compute(
        &self,
        aggregator: BaseAggregator,
        compute: impl FnOnce() -> Ranking,
    ) -> &Ranking {
        let mut built = false;
        let ranking = self.slot(aggregator).get_or_init(|| {
            built = true;
            compute()
        });
        let counter = if built {
            &self.counters.builds
        } else {
            &self.counters.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        ranking
    }
}

/// Everything an MFCR method needs: the candidate database, its group index, the base
/// rankings, and the fairness thresholds Δ.
///
/// Optionally the context can carry a *precomputed* precedence matrix for the profile
/// (see [`MfcrContext::with_precedence`]); every pairwise method then reuses it instead
/// of paying the `O(n² · |R|)` construction cost again. It can also carry a
/// [`ConsensusMemo`] (see [`MfcrContext::with_consensus_memo`]) so the base consensus is
/// aggregated once per profile rather than once per Δ. The batch engine in `mani-engine`
/// keeps both per dataset.
#[derive(Debug, Clone)]
pub struct MfcrContext<'a> {
    /// Candidate database `X`.
    pub db: &'a CandidateDb,
    /// Precomputed group index over `X`.
    pub groups: &'a GroupIndex,
    /// Base rankings `R`.
    pub profile: &'a RankingProfile,
    /// Fairness thresholds (uniform Δ or per-axis overrides).
    pub thresholds: FairnessThresholds,
    /// Precomputed precedence matrix for `profile`, if the caller already has one.
    precedence: Option<&'a PrecedenceMatrix>,
    /// Memoised base consensus rankings for `profile`, if the caller keeps them.
    memo: Option<&'a ConsensusMemo>,
    /// Kernel-parallelism budget for this solve (serial by default).
    parallelism: Parallelism,
}

impl<'a> MfcrContext<'a> {
    /// Bundles the MFCR inputs.
    ///
    /// # Panics
    /// Panics if the profile's candidate count does not match the database — mixing inputs
    /// from different populations is a programming error.
    pub fn new(
        db: &'a CandidateDb,
        groups: &'a GroupIndex,
        profile: &'a RankingProfile,
        thresholds: FairnessThresholds,
    ) -> Self {
        assert_eq!(
            db.len(),
            profile.num_candidates(),
            "profile and database must cover the same candidates"
        );
        assert_eq!(
            db.len(),
            groups.num_candidates(),
            "group index and database must cover the same candidates"
        );
        Self {
            db,
            groups,
            profile,
            thresholds,
            precedence: None,
            memo: None,
            parallelism: Parallelism::serial(),
        }
    }

    /// Sets the kernel-parallelism budget for every method run against this
    /// context. Parallel kernels are bit-identical to their serial
    /// counterparts, so this only changes how fast methods run — never what
    /// they return (except solver-anytime results when the node budget is
    /// exhausted mid-search).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The kernel-parallelism budget for this context.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Attaches a precomputed precedence matrix for this context's profile.
    ///
    /// # Panics
    /// Panics if the matrix's candidate or ranking count does not match the profile — a
    /// matrix from a different profile would silently corrupt every pairwise method.
    pub fn with_precedence(mut self, precedence: &'a PrecedenceMatrix) -> Self {
        assert_eq!(
            precedence.num_candidates(),
            self.profile.num_candidates(),
            "precedence matrix and profile must cover the same candidates"
        );
        assert_eq!(
            precedence.num_rankings(),
            self.profile.len(),
            "precedence matrix must be built from the same number of rankings"
        );
        self.precedence = Some(precedence);
        self
    }

    /// The profile's precedence matrix: borrowed when one was attached via
    /// [`MfcrContext::with_precedence`], freshly computed otherwise.
    pub fn precedence_matrix(&self) -> Cow<'a, PrecedenceMatrix> {
        match self.precedence {
            Some(matrix) => Cow::Borrowed(matrix),
            // The row-block build is bit-identical to the serial one, so the
            // context's parallelism budget can be applied transparently here.
            None => Cow::Owned(self.profile.precedence_matrix_with(&self.parallelism)),
        }
    }

    /// The attached precedence matrix, if any (used by tests and diagnostics).
    pub fn shared_precedence(&self) -> Option<&'a PrecedenceMatrix> {
        self.precedence
    }

    /// Attaches a memo of this profile's base consensus rankings. The caller
    /// guarantees the memo has only ever served this profile: a memo from
    /// another profile would hand every Fair method a foreign consensus.
    pub fn with_consensus_memo(mut self, memo: &'a ConsensusMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The profile's consensus under `aggregator`, before any fairness
    /// correction: borrowed from the attached memo (computing it there first
    /// if its slot is empty), or freshly computed when no memo is attached.
    /// Borda reads the profile; Copeland and Schulze read
    /// [`MfcrContext::precedence_matrix`] under the context's kernel budget.
    /// Every kernel is bit-identical at every thread count, so a memoised
    /// ranking equals a fresh one.
    pub fn base_consensus(&self, aggregator: BaseAggregator) -> Cow<'a, Ranking> {
        let compute = || match aggregator {
            BaseAggregator::Borda => BordaAggregator::new().consensus(self.profile),
            BaseAggregator::Copeland => CopelandAggregator::new()
                .consensus_from_matrix_with(&self.precedence_matrix(), &self.parallelism),
            BaseAggregator::Schulze => SchulzeAggregator::new()
                .consensus_from_matrix_with(&self.precedence_matrix(), &self.parallelism),
        };
        match self.memo {
            Some(memo) => Cow::Borrowed(memo.get_or_compute(aggregator, compute)),
            None => Cow::Owned(compute()),
        }
    }

    /// Attribute names in schema order (used to label solver constraints).
    pub fn attribute_labels(&self) -> Vec<String> {
        self.db
            .schema()
            .attributes()
            .map(|(_, a)| a.name().to_string())
            .collect()
    }
}

/// Resolves the solver config for a context: a config whose parallelism was
/// left serial inherits the context's budget (set by the engine layer); a
/// config with explicit parallelism wins.
pub(crate) fn solver_config_for_ctx(
    config: &mani_solver::SolverConfig,
    ctx: &MfcrContext<'_>,
) -> mani_solver::SolverConfig {
    let mut resolved = config.clone();
    if resolved.parallelism.is_serial() {
        resolved.parallelism = ctx.parallelism();
    }
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::{CandidateDbBuilder, Ranking};

    fn db() -> CandidateDb {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("Gender", ["M", "W"]).unwrap();
        for i in 0..4usize {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn context_bundles_inputs() {
        let db = db();
        let groups = GroupIndex::new(&db);
        let profile = RankingProfile::new(vec![Ranking::identity(4)]).unwrap();
        let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.2));
        assert_eq!(ctx.attribute_labels(), vec!["Gender".to_string()]);
        assert_eq!(ctx.thresholds.default_delta(), 0.2);
    }

    #[test]
    fn attached_precedence_matrix_is_borrowed_not_recomputed() {
        let db = db();
        let groups = GroupIndex::new(&db);
        let profile = RankingProfile::new(vec![Ranking::identity(4)]).unwrap();
        let matrix = profile.precedence_matrix();
        let ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.2))
            .with_precedence(&matrix);
        assert!(ctx.shared_precedence().is_some());
        assert!(matches!(ctx.precedence_matrix(), Cow::Borrowed(_)));
        // Without an attachment the matrix is computed on demand.
        let plain = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.2));
        assert!(plain.shared_precedence().is_none());
        assert!(matches!(plain.precedence_matrix(), Cow::Owned(_)));
        assert_eq!(plain.precedence_matrix().as_ref(), &matrix);
    }

    const AGGREGATORS: [BaseAggregator; 3] = [
        BaseAggregator::Borda,
        BaseAggregator::Copeland,
        BaseAggregator::Schulze,
    ];

    #[test]
    fn memoised_base_consensus_is_computed_once_and_equals_a_fresh_one() {
        let fixture = crate::test_support::TestFixture::low_fair(30, 9, 0.6, 5);
        let matrix = fixture.profile.precedence_matrix();
        let counters = Arc::new(MemoCounters::default());
        let memo = ConsensusMemo::with_counters(Arc::clone(&counters));
        for delta in [0.1, 0.2, 0.3] {
            let plain = crate::test_support::low_fair_context(&fixture, delta);
            let memoised = plain
                .clone()
                .with_precedence(&matrix)
                .with_consensus_memo(&memo);
            for aggregator in AGGREGATORS {
                let fresh = plain.base_consensus(aggregator);
                assert!(matches!(fresh, Cow::Owned(_)));
                let cached = memoised.base_consensus(aggregator);
                assert!(matches!(cached, Cow::Borrowed(_)));
                assert_eq!(cached, fresh, "{aggregator:?}");
            }
        }
        // Three aggregators built once each; the other two Δ hit.
        assert_eq!(counters.builds(), 3);
        assert_eq!(counters.hits(), 6);
    }

    #[test]
    #[should_panic(expected = "same candidates")]
    fn mismatched_precedence_is_rejected() {
        let db = db();
        let groups = GroupIndex::new(&db);
        let profile = RankingProfile::new(vec![Ranking::identity(4)]).unwrap();
        let other_profile = RankingProfile::new(vec![Ranking::identity(5)]).unwrap();
        let matrix = other_profile.precedence_matrix();
        let _ = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.2))
            .with_precedence(&matrix);
    }

    #[test]
    #[should_panic(expected = "same candidates")]
    fn mismatched_profile_is_rejected() {
        let db = db();
        let groups = GroupIndex::new(&db);
        let profile = RankingProfile::new(vec![Ranking::identity(5)]).unwrap();
        let _ = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::default());
    }
}
