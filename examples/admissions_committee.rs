//! The paper's motivating example (Figures 1 and 2): an admissions committee whose four
//! members rank 45 scholarship candidates with protected attributes Gender (3 values) and
//! Race (5 values). Plain Kemeny reproduces the members' biases; the MANI-Rank consensus
//! removes them.
//!
//! Run with `cargo run --example admissions_committee`.

use mani_rank::prelude::*;

fn main() {
    // 45 candidates: Gender (3) x Race (5), 3 per intersectional cell — the Figure 1 setup.
    let db = mani_rank::datagen::gender_race_population(3);
    let groups = GroupIndex::new(&db);
    let gender = db.schema().attribute_id("Gender").unwrap();
    let race = db.schema().attribute_id("Race").unwrap();

    // Four committee members with varying degrees of bias: three rank around a biased modal
    // ranking, one (like r3 in the paper) is nearly parity-respecting.
    let biased_modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::low_fair(2));
    let fair_modal = ModalRankingBuilder::new(&db).build(&FairnessTarget::uniform(2, 0.15, 0.2));
    let mut rankings: Vec<Ranking> = MallowsModel::new(biased_modal, 1.2)
        .sample_profile(3, 7)
        .copies()
        .cloned()
        .collect();
    rankings.push(
        MallowsModel::new(fair_modal, 1.2)
            .sample_profile(1, 8)
            .rankings()[0]
            .clone(),
    );
    let profile = RankingProfile::for_database(&db, rankings).unwrap();

    println!("Base rankings (committee members):");
    for (i, ranking) in profile.copies().enumerate() {
        let parity = ParityScores::compute(ranking, &groups);
        println!(
            "  r{} — ARP(Gender) = {:.2}, ARP(Race) = {:.2}, IRP = {:.2}",
            i + 1,
            parity.arp(gender),
            parity.arp(race),
            parity.irp()
        );
    }

    // Fairness-unaware Kemeny consensus (Figure 2a). The committee's 45 candidates are
    // beyond the exact search in a debug build, so cap the node budget (anytime result).
    let solver_budget = mani_rank::solver::SolverConfig::with_max_nodes(100_000);
    let unfair_ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::unconstrained());
    let kemeny = ExactKemeny::with_config(solver_budget)
        .solve(&unfair_ctx)
        .expect("Kemeny run");
    let kemeny_parity = kemeny.criteria.parity();

    // MANI-Rank consensus at Δ = 0.1 (Figure 2b). Fair-Copeland keeps this example fast.
    let fair_ctx = MfcrContext::new(&db, &groups, &profile, FairnessThresholds::uniform(0.1));
    let fair = FairCopeland::new()
        .solve(&fair_ctx)
        .expect("Fair-Copeland run");
    let fair_parity = fair.criteria.parity();

    println!("\nGroup fairness results (paper Figure 2):");
    println!(
        "{:<16} {:>16} {:>18}",
        "", "Kemeny consensus", "MANI-Rank consensus"
    );
    println!(
        "{:<16} {:>16.2} {:>18.2}",
        "ARP(Gender)",
        kemeny_parity.arp(gender),
        fair_parity.arp(gender)
    );
    println!(
        "{:<16} {:>16.2} {:>18.2}",
        "ARP(Race)",
        kemeny_parity.arp(race),
        fair_parity.arp(race)
    );
    println!(
        "{:<16} {:>16.2} {:>18.2}",
        "IRP",
        kemeny_parity.irp(),
        fair_parity.irp()
    );
    println!(
        "\nPD loss: Kemeny = {:.3}, MANI-Rank = {:.3} (price of fairness = {:.3})",
        kemeny.pd_loss,
        fair.pd_loss,
        fair.pd_loss - kemeny.pd_loss
    );
}
