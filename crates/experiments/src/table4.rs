//! Table IV — the student merit-scholarship case study.
//!
//! Three base rankings (Math, Reading, Writing scores over 200 students with Gender, Race,
//! and Lunch attributes) are aggregated with fairness-unaware Kemeny and with the four
//! Fair-* methods at Δ = 0.05. For every ranking the table reports the FPR of each
//! protected-attribute group, the ARP of each attribute, and the IRP — the same columns as
//! the paper's Table IV.
//!
//! Exact Kemeny over 200 candidates is beyond our CPLEX substitute, so the fairness-unaware
//! consensus row uses the Kemeny local-search refinement of the Borda consensus (labelled
//! "Kemeny (local search)"); its bias pattern is what matters for the case study.

use mani_aggregation::{kemeny_local_search, BordaAggregator, LocalSearchConfig};
use mani_core::{MethodKind, MfcrContext};
use mani_datagen::{ExamConfig, ExamDataset};
use mani_fairness::{FairnessAudit, FairnessThresholds};
use mani_ranking::{GroupIndex, Ranking, Result};

use crate::config::Scale;
use crate::runner::run_method_with_budget;
use crate::table::{fmt3, TextTable};

/// The Δ used by the case study.
pub const TABLE4_DELTA: f64 = 0.05;

/// Builds a Table IV style row from a fairness audit.
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
        fpr("Gender", "Men"),
        fpr("Gender", "Women"),
        arp("Gender"),
        fpr("Lunch", "NoSub"),
        fpr("Lunch", "SubLunch"),
        arp("Lunch"),
        arp("Race"),
        fmt3(audit.irp),
    ]
}

/// Runs Table IV and returns one row per ranking (three subjects, Kemeny, four Fair-*).
pub fn run(scale: &Scale) -> Result<TextTable> {
    let mut table = TextTable::new(
        format!("Table IV — exam case study (Δ = {TABLE4_DELTA})"),
        &[
            "Ranking", "Men", "Women", "Gender", "NoSub", "SubLunch", "Lunch", "Race", "IRP",
        ],
    );
    let dataset = ExamDataset::generate(&ExamConfig {
        num_students: scale.exam_students,
        seed: scale.seed,
        ..ExamConfig::default()
    });
    let groups = GroupIndex::new(&dataset.db);

    // Base rankings.
    for (subject, ranking) in dataset.subjects.iter().zip(dataset.profile.copies()) {
        let audit = FairnessAudit::new(*subject, ranking, &dataset.db, &groups);
        table.push_row(audit_row(&audit));
    }

    // Fairness-unaware consensus (Kemeny objective via local search at this size).
    let matrix = dataset.profile.precedence_matrix();
    let borda = BordaAggregator::new().consensus(&dataset.profile);
    let (kemeny_ranking, _): (Ranking, u64) =
        kemeny_local_search(&matrix, &borda, LocalSearchConfig::default())?;
    let audit = FairnessAudit::new(
        "Kemeny (local search)",
        &kemeny_ranking,
        &dataset.db,
        &groups,
    );
    table.push_row(audit_row(&audit));

    // The four proposed Fair-* methods (Fair-Kemeny runs in anytime mode at this size).
    let ctx = MfcrContext::new(
        &dataset.db,
        &groups,
        &dataset.profile,
        FairnessThresholds::uniform(TABLE4_DELTA),
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
        // Use the paper's cohort size: smaller cohorts leave intersectional cells with one
        // or two students, for which Δ = 0.05 is not always reachable.
        scale.exam_students = 200;
        // Fair-Kemeny over 200 candidates runs in anytime mode; keep the budget small.
        scale.solver_max_nodes = 20_000;
        scale
    }

    #[test]
    fn base_rankings_are_biased_and_fair_methods_remove_it() {
        let table = run(&tiny_scale()).unwrap();
        assert_eq!(table.len(), 8);
        // Subject rankings and the unfair consensus carry substantial Lunch bias.
        for row_idx in 0..4 {
            let lunch_arp: f64 = table.cell(row_idx, "Lunch").unwrap().parse().unwrap();
            assert!(
                lunch_arp > TABLE4_DELTA,
                "row {row_idx} lunch ARP {lunch_arp}"
            );
        }
        // Every Fair-* row is at or below delta on every reported axis.
        for row_idx in 4..8 {
            for axis in ["Gender", "Lunch", "Race", "IRP"] {
                let value: f64 = table.cell(row_idx, axis).unwrap().parse().unwrap();
                assert!(
                    value <= TABLE4_DELTA + 1e-9,
                    "row {row_idx} axis {axis} = {value}"
                );
            }
        }
    }

    #[test]
    fn fair_rows_have_near_equal_group_fprs() {
        let table = run(&tiny_scale()).unwrap();
        for row_idx in 4..8 {
            let men: f64 = table.cell(row_idx, "Men").unwrap().parse().unwrap();
            let women: f64 = table.cell(row_idx, "Women").unwrap().parse().unwrap();
            assert!((men - 0.5).abs() < 0.06);
            assert!((women - 0.5).abs() < 0.06);
        }
    }
}
