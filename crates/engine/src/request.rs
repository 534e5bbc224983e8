//! The engine's typed job API: [`ConsensusRequest`] in, [`ConsensusResponse`]
//! out.

use std::sync::Arc;
use std::time::Duration;

use mani_core::{MethodKind, MfcrOutcome};
use mani_fairness::FairnessThresholds;

use crate::dataset::EngineDataset;
use crate::error::EngineError;

/// One consensus job: run a set of MFCR methods over one dataset under one set
/// of fairness thresholds.
#[derive(Debug, Clone)]
pub struct ConsensusRequest {
    /// The workload (shared; cheap to clone across requests).
    pub dataset: Arc<EngineDataset>,
    /// Methods to run, in the order results should be reported.
    pub methods: Vec<MethodKind>,
    /// Fairness thresholds Δ applied to every method.
    pub thresholds: FairnessThresholds,
    /// Branch-and-bound node budget for the exact methods (Fair-Kemeny,
    /// Kemeny, Kemeny-Weighted); `None` uses each solver's default.
    pub budget: Option<u64>,
}

impl ConsensusRequest {
    /// Creates a request running `methods` over `dataset`.
    pub fn new(
        dataset: Arc<EngineDataset>,
        methods: impl IntoIterator<Item = MethodKind>,
        thresholds: FairnessThresholds,
    ) -> Self {
        Self {
            dataset,
            methods: methods.into_iter().collect(),
            thresholds,
            budget: None,
        }
    }

    /// Sets the exact-solver node budget.
    pub fn with_budget(mut self, max_nodes: u64) -> Self {
        self.budget = Some(max_nodes);
        self
    }

    /// Validates the request shape (at least one method, no duplicates).
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.methods.is_empty() {
            return Err(EngineError::invalid(format!(
                "request for dataset `{}` lists no methods",
                self.dataset.name()
            )));
        }
        for (i, kind) in self.methods.iter().enumerate() {
            if self.methods[..i].contains(kind) {
                return Err(EngineError::invalid(format!(
                    "method `{}` listed twice for dataset `{}`",
                    kind.name(),
                    self.dataset.name()
                )));
            }
        }
        Ok(())
    }
}

/// The outcome of one method within a request, plus its timing.
#[derive(Debug)]
pub struct MethodResult {
    /// Which method ran.
    pub method: MethodKind,
    /// The consensus ranking with its full criteria report (ARP per attribute,
    /// IRP, violations, PD loss, correction swaps, optimality flag).
    pub outcome: MfcrOutcome,
    /// Wall-clock time spent inside the method's `solve`.
    pub duration: Duration,
    /// Whether the precedence matrix came out of the shared cache: `false`
    /// only for the one task that built it. A task that waited on another
    /// task's build is a hit.
    pub cache_hit: bool,
}

/// Everything the engine produced for one [`ConsensusRequest`].
///
/// `results` is index-aligned with the request's `methods` list, regardless of
/// the order worker threads finished in.
#[derive(Debug)]
pub struct ConsensusResponse {
    /// Name of the dataset the request ran over.
    pub dataset: String,
    /// One result per requested method, in request order. For a request that
    /// failed validation every slot holds the validation error (minimum one
    /// slot, so an empty method list still surfaces its error).
    pub results: Vec<Result<MethodResult, EngineError>>,
    /// Sum of all method solve times (CPU-side work; the batch's wall-clock
    /// time is lower when methods ran in parallel).
    pub total_solve_time: Duration,
}

impl ConsensusResponse {
    /// The outcome for a specific method, if it ran successfully.
    pub fn outcome(&self, method: MethodKind) -> Option<&MfcrOutcome> {
        self.results.iter().flatten().find_map(|r| {
            if r.method == method {
                Some(&r.outcome)
            } else {
                None
            }
        })
    }

    /// True when every requested method produced an outcome.
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// Iterates over the successful results in request order.
    pub fn successes(&self) -> impl Iterator<Item = &MethodResult> {
        self.results.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mani_ranking::{CandidateDbBuilder, Ranking, RankingProfile};

    fn dataset() -> Arc<EngineDataset> {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        for i in 0..4 {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        let db = b.build().unwrap();
        let profile = RankingProfile::new(vec![Ranking::identity(4)]).unwrap();
        Arc::new(EngineDataset::new("d", db, profile).unwrap())
    }

    #[test]
    fn validate_rejects_empty_and_duplicate_methods() {
        let ds = dataset();
        let empty = ConsensusRequest::new(ds.clone(), [], FairnessThresholds::uniform(0.2));
        assert!(empty.validate().is_err());

        let duplicated = ConsensusRequest::new(
            ds.clone(),
            [MethodKind::FairBorda, MethodKind::FairBorda],
            FairnessThresholds::uniform(0.2),
        );
        assert!(duplicated.validate().is_err());

        let ok = ConsensusRequest::new(
            ds,
            [MethodKind::FairBorda, MethodKind::FairCopeland],
            FairnessThresholds::uniform(0.2),
        )
        .with_budget(1000);
        assert!(ok.validate().is_ok());
        assert_eq!(ok.budget, Some(1000));
    }
}
