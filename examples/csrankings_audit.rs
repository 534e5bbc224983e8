//! The paper's appendix case study (Table V): a 21-year consensus ranking of CS
//! departments that is fair with respect to Location, institution Type, and their
//! intersection.
//!
//! Run with `cargo run --example csrankings_audit`.

use mani_rank::prelude::*;

fn main() {
    let dataset = CsRankingsDataset::generate(&Default::default());
    let groups = GroupIndex::new(&dataset.db);
    let location = dataset.db.schema().attribute_id("Location").unwrap();
    let kind_attr = dataset.db.schema().attribute_id("Type").unwrap();

    // Average yearly bias.
    let mut location_arp = 0.0;
    let mut type_arp = 0.0;
    let mut irp = 0.0;
    for ranking in dataset.profile.copies() {
        let parity = ParityScores::compute(ranking, &groups);
        location_arp += parity.arp(location);
        type_arp += parity.arp(kind_attr);
        irp += parity.irp();
    }
    let years = dataset.profile.len() as f64;
    println!(
        "Average yearly bias over {} years: ARP(Location) = {:.3}, ARP(Type) = {:.3}, IRP = {:.3}",
        dataset.profile.len(),
        location_arp / years,
        type_arp / years,
        irp / years
    );

    // 20-year consensus with and without MANI-Rank (Δ = 0.05).
    let unfair = mani_rank::aggregation::CopelandAggregator::new().consensus(&dataset.profile);
    let unfair_audit = FairnessAudit::new("Copeland consensus", &unfair, &dataset.db, &groups);
    println!("\nWithout fairness: {}", unfair_audit.summary());

    let ctx = MfcrContext::new(
        &dataset.db,
        &groups,
        &dataset.profile,
        FairnessThresholds::uniform(0.05),
    );
    let fair = FairCopeland::new().solve(&ctx).expect("Fair-Copeland run");
    println!("With MANI-Rank:   {}", fair.audit(&ctx).summary());

    println!("\nTop 10 departments in the fair consensus:");
    for pos in 0..10 {
        let cand = fair.ranking.candidate_at(pos);
        let dept = dataset.db.candidate(cand).unwrap();
        let loc = dataset
            .db
            .schema()
            .attribute(location)
            .unwrap()
            .value_name(dept.value(location).unwrap())
            .unwrap();
        let ty = dataset
            .db
            .schema()
            .attribute(kind_attr)
            .unwrap()
            .value_name(dept.value(kind_attr).unwrap())
            .unwrap();
        println!("  {:>2}. {} ({loc}, {ty})", pos + 1, dept.name());
    }
    println!(
        "\nPD loss: Copeland = {:.3}, Fair-Copeland = {:.3}",
        dataset.profile.pairwise_disagreement_loss(&unfair).unwrap(),
        fair.pd_loss
    );
}
