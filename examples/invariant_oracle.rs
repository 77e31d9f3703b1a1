//! The mined-invariant oracle end to end, on the seeded-bug fixture.
//!
//! `fx1` persists a tag derived from a payload *before* the payload
//! itself. Every recovery looks clean — `ob_recover` walks the list,
//! `ob_get` answers, the count matches — so a plain campaign acquits it.
//! The oracle mines invariants from passing runs (among them
//! `payload persists-before tag`, seeded by the static ordering pass),
//! re-judges each clean trial's raw post-crash image, and convicts.
//!
//! Run with: `cargo run --release --example invariant_oracle`

use inject::{run_fleet, CampaignConfig, FleetConfig, TrialVerdict};
use pm_workload::scenarios;

fn main() {
    let fx1 = [scenarios::by_id("fx1").expect("fixture scenario registered")];

    for oracle in [false, true] {
        let cfg = CampaignConfig::builder()
            .stride(8)
            .invariants(oracle)
            .build()
            .expect("valid config");
        let fleet = FleetConfig::builder(cfg).build().expect("valid config");
        let report = run_fleet(&fx1, &fleet).expect("no journal, so no I/O to fail");
        let campaign = &report.campaign.scenarios[0];

        let silent = campaign
            .trials
            .iter()
            .filter(|t| t.verdict == TrialVerdict::SilentCorruption)
            .count();
        let clean = campaign
            .trials
            .iter()
            .filter(|t| t.verdict == TrialVerdict::CleanRecovery)
            .count();
        println!(
            "oracle {}: {} trials -> {clean} clean_recovery, {silent} silent_corruption",
            if oracle { "on " } else { "off" },
            campaign.trials.len(),
        );
        if let Some(mined) = &campaign.invariants {
            println!(
                "  promoted {} invariant(s) from {} passing seed(s) ({} candidates discarded):",
                mined.promoted.len(),
                mined.seeds,
                mined.discarded
            );
            for inv in &mined.promoted {
                println!("    [{}] {}", inv.kind(), inv.describe());
            }
        }
    }

    println!();
    println!("The application's own checks cannot see the damage: the tag is");
    println!("durable, the payload is not, and recovery rebuilds a plausible");
    println!("state. Only the mined ordering invariant tells the truth.");
}
