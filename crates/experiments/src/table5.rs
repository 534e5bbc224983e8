//! Table V — the CSRankings case study (appendix).
//!
//! Twenty-one yearly rankings of 65 CS departments with Location and Type attributes are
//! aggregated with fairness-unaware Kemeny (local-search refinement at this size) and the
//! four Fair-* methods at Δ = 0.05. The table reports, per ranking, the FPR of every
//! Location and Type group, the ARP of both attributes, and the IRP — the same columns as
//! the paper's Table V.

use mani_aggregation::{kemeny_local_search, BordaAggregator, LocalSearchConfig};
use mani_core::{MethodKind, MfcrContext};
use mani_datagen::{CsRankingsConfig, CsRankingsDataset};
use mani_fairness::{FairnessAudit, FairnessThresholds};
use mani_ranking::{GroupIndex, Result};

use crate::config::Scale;
use crate::runner::run_method_with_budget;
use crate::table::{fmt3, TextTable};

/// The Δ used by the CSRankings case study.
pub const TABLE5_DELTA: f64 = 0.05;

fn audit_row(audit: &FairnessAudit) -> Vec<String> {
    let fpr = |attr: &str, group: &str| -> String {
        audit
            .fpr_of(attr, group)
            .map(fmt3)
            .unwrap_or_else(|| "n/a".to_string())
    };
    let arp = |attr: &str| -> String {
        audit
            .arp_of(attr)
            .map(fmt3)
            .unwrap_or_else(|| "n/a".to_string())
    };
    vec![
        audit.label.clone(),
        fpr("Location", "Northeast"),
        fpr("Location", "Midwest"),
        fpr("Location", "West"),
        fpr("Location", "South"),
        arp("Location"),
        fpr("Type", "Private"),
        fpr("Type", "Public"),
        arp("Type"),
        fmt3(audit.irp),
    ]
}

/// Runs Table V and returns one row per yearly ranking plus consensus rows.
pub fn run(scale: &Scale) -> Result<TextTable> {
    let mut table = TextTable::new(
        format!("Table V — CSRankings case study (Δ = {TABLE5_DELTA})"),
        &[
            "Ranking",
            "Northeast",
            "Midwest",
            "West",
            "South",
            "Location",
            "Private",
            "Public",
            "Type",
            "IRP",
        ],
    );
    let dataset = CsRankingsDataset::generate(&CsRankingsConfig {
        num_departments: scale.csrankings_departments,
        num_years: scale.csrankings_years,
        seed: scale.seed,
        ..CsRankingsConfig::default()
    });
    let groups = GroupIndex::new(&dataset.db);

    for (year, ranking) in dataset.years.iter().zip(dataset.profile.copies()) {
        let audit = FairnessAudit::new(year.to_string(), ranking, &dataset.db, &groups);
        table.push_row(audit_row(&audit));
    }

    let matrix = dataset.profile.precedence_matrix();
    let borda = BordaAggregator::new().consensus(&dataset.profile);
    let (kemeny_ranking, _) = kemeny_local_search(&matrix, &borda, LocalSearchConfig::default())?;
    let audit = FairnessAudit::new(
        "Kemeny (local search)",
        &kemeny_ranking,
        &dataset.db,
        &groups,
    );
    table.push_row(audit_row(&audit));

    let ctx = MfcrContext::new(
        &dataset.db,
        &groups,
        &dataset.profile,
        FairnessThresholds::uniform(TABLE5_DELTA),
    );
    for kind in [
        MethodKind::FairKemeny,
        MethodKind::FairSchulze,
        MethodKind::FairBorda,
        MethodKind::FairCopeland,
    ] {
        let timed = run_method_with_budget(kind, &ctx, Some(scale.solver_max_nodes))?;
        let audit = timed.outcome.audit(&ctx);
        table.push_row(audit_row(&audit));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        let mut scale = Scale::smoke();
        scale.csrankings_departments = 40;
        scale.csrankings_years = 8;
        scale.solver_max_nodes = 50_000;
        scale
    }

    #[test]
    fn yearly_rankings_are_biased_and_fair_methods_remove_it() {
        let table = run(&tiny_scale()).unwrap();
        // 8 yearly rows + Kemeny + 4 fair methods
        assert_eq!(table.len(), 13);
        // Yearly rankings and the unfair consensus favour the Northeast.
        for row_idx in 0..9 {
            let northeast: f64 = table.cell(row_idx, "Northeast").unwrap().parse().unwrap();
            let south: f64 = table.cell(row_idx, "South").unwrap().parse().unwrap();
            assert!(northeast > south, "row {row_idx}");
        }
        // Every Fair-* row meets delta on Location, Type, and the intersection.
        for row_idx in 9..13 {
            for axis in ["Location", "Type", "IRP"] {
                let value: f64 = table.cell(row_idx, axis).unwrap().parse().unwrap();
                assert!(
                    value <= TABLE5_DELTA + 1e-9,
                    "row {row_idx} axis {axis} = {value}"
                );
            }
        }
    }
}
