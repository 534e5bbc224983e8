//! The paper's Table IV case study: merit scholarships from exam scores.
//!
//! Three subject rankings (Math, Reading, Writing) over 200 students with Gender, Race,
//! and subsidised-Lunch attributes are aggregated into a consensus ranking. Without
//! fairness constraints, students with subsidised lunches are pushed to the bottom; with
//! MANI-Rank at Δ = 0.05 every group receives an essentially proportional share of the top
//! positions.
//!
//! Run with `cargo run --example merit_scholarships`.

use mani_rank::prelude::*;

fn main() {
    let dataset = ExamDataset::generate(&Default::default());
    let groups = GroupIndex::new(&dataset.db);

    println!("Fairness audit of the base rankings:");
    for (subject, ranking) in dataset.subjects.iter().zip(dataset.profile.copies()) {
        let audit = FairnessAudit::new(*subject, ranking, &dataset.db, &groups);
        println!("  {}", audit.summary());
    }

    // Fairness-unaware consensus: Borda (the three subject rankings are score-based, so the
    // Borda consensus is essentially the "average score" ranking a registrar would use).
    let borda = mani_rank::aggregation::BordaAggregator::new().consensus(&dataset.profile);
    let unfair_audit = FairnessAudit::new("Unconstrained consensus", &borda, &dataset.db, &groups);
    println!("\n  {}", unfair_audit.summary());

    // How much scholarship money would each Lunch group receive if the top 50 ranked
    // students got awards?
    let lunch = dataset.db.schema().attribute_id("Lunch").unwrap();
    let awards = |ranking: &Ranking| -> (usize, usize) {
        let mut counts = (0usize, 0usize);
        for pos in 0..50 {
            let cand = ranking.candidate_at(pos);
            match dataset.db.value_of(cand, lunch).unwrap().index() {
                0 => counts.0 += 1,
                _ => counts.1 += 1,
            }
        }
        counts
    };
    let (no_sub, sub) = awards(&borda);
    println!(
        "\nTop-50 awards without fairness: {no_sub} full-price vs {sub} subsidised-lunch students"
    );

    // MANI-Rank consensus at Δ = 0.05 with each of the scalable Fair-* methods.
    let ctx = MfcrContext::new(
        &dataset.db,
        &groups,
        &dataset.profile,
        FairnessThresholds::uniform(0.05),
    );
    for kind in [
        MethodKind::FairSchulze,
        MethodKind::FairBorda,
        MethodKind::FairCopeland,
    ] {
        let outcome = kind.instantiate().solve(&ctx).expect("method run");
        let audit = outcome.audit(&ctx);
        let (no_sub, sub) = awards(&outcome.ranking);
        println!(
            "\n  {}\n    top-50 awards: {} full-price vs {} subsidised-lunch students (PD loss {:.3})",
            audit.summary(),
            no_sub,
            sub,
            outcome.pd_loss
        );
    }
}
