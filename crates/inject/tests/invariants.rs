//! Mined-invariant oracle guarantees.
//!
//! Two contracts keep `--invariants` verdicts trustworthy: the promotion
//! protocol yields zero false positives — every promoted invariant holds
//! on the passing runs of *unseen* workload seeds, for all 12 stock
//! scenarios — and the seeded-bug fixture (fx1), whose recovery is clean
//! by construction, is convicted as silent corruption.

use inject::{invariants, CampaignConfig, MinedInvariant, TrialVerdict};
use pm_workload::{run_with_injection, scenarios, AppSetup, InjectionOutcome, RunConfig};

mod common;

/// Runs a scenario un-injected under `seed` and returns its final pool,
/// log and trace — the material the oracle checks.
fn passing_run(
    scn: &dyn pm_workload::Scenario,
    setup: &AppSetup,
    seed: u64,
) -> (pmemsim::PmPool, arthas::SharedLog, arthas::PmTrace) {
    let cfg = RunConfig {
        seed,
        criu: false,
        ..RunConfig::default()
    };
    match run_with_injection(scn, setup, &cfg) {
        InjectionOutcome::Completed(c) => (c.pool, c.log, c.trace),
        InjectionOutcome::HardFailure(p) => (p.pool, p.log, p.trace),
        InjectionOutcome::SiteCrash(_) => unreachable!("no injection armed"),
    }
}

/// Promotion soundness: invariants mined from the campaign seed hold on
/// the final state of passing runs under four seeds the miner never saw,
/// for every stock scenario. A failure here is exactly the false
/// positive the `silent_corruption` verdict must never produce.
#[test]
fn promoted_invariants_hold_across_scenarios_and_seeds() {
    for scn in scenarios::all() {
        let setup = AppSetup::new(scn.build_module());
        let mined = invariants::mine(scn.as_ref(), &setup, 1, None);
        assert_eq!(mined.seeds, invariants::MINING_SEEDS);
        for seed in [2u64, 3, 5, 8] {
            let (mut pool, log, trace) = passing_run(scn.as_ref(), &setup, seed);
            let viols = invariants::check_image(&mined.promoted, &mut pool, &log, &trace, true);
            assert!(
                viols.is_empty(),
                "{} seed {seed}: promoted invariant(s) false-fired on a \
                 passing run: {viols:?}",
                scn.id()
            );
        }
    }
}

/// The fixture's persist-order bug is mined from its own passing runs:
/// the statically inferred `payload persists-before tag` candidate
/// survives promotion.
#[test]
fn fixture_mines_the_seeded_ordering_invariant() {
    let scn = scenarios::by_id("fx1").expect("fixture scenario registered");
    let setup = AppSetup::new(scn.build_module());
    let mined = invariants::mine(scn.as_ref(), &setup, 1, None);
    assert!(
        mined
            .promoted
            .iter()
            .any(|i| matches!(i, MinedInvariant::PersistOrder { .. })),
        "no persist-order invariant promoted: {:?}",
        mined.promoted
    );
}

/// Regression gate for the seeded bug: a strided fx1 campaign with the
/// oracle on yields silent-corruption verdicts (the bug is invisible to
/// recovery), and the same campaign with the oracle off yields none —
/// the verdict class exists only when mining ran.
#[test]
fn fixture_campaign_is_convicted_only_with_the_oracle() {
    let base = CampaignConfig::builder().stride(16).budget(40);

    let with = common::scenario("fx1", &base.clone().invariants(true).build().unwrap());
    let convicted = with.count(TrialVerdict::SilentCorruption);
    assert!(
        convicted >= 1,
        "oracle-on campaign produced no silent_corruption verdicts"
    );
    assert!(
        with.invariants
            .as_ref()
            .is_some_and(|m| !m.promoted.is_empty()),
        "oracle-on campaign carries its promoted invariant set"
    );

    let without = common::scenario("fx1", &base.build().unwrap());
    assert_eq!(
        without.count(TrialVerdict::SilentCorruption),
        0,
        "oracle-off campaign must not produce silent_corruption"
    );
    assert!(without.invariants.is_none());
}

/// The mining recorder hooks surface the promotion accounting: the
/// discarded-candidate counter matches the mining result and the
/// `invariants.mined` event carries the scenario id.
#[test]
fn mining_reports_discards_through_obs() {
    let scn = scenarios::by_id("fx1").expect("fixture scenario registered");
    let setup = AppSetup::new(scn.build_module());
    let rec = obs::RingRecorder::new(16);
    let mined = invariants::mine(scn.as_ref(), &setup, 1, Some(&rec));
    let counters = rec.counters();
    assert_eq!(
        counters.get("invariants.candidates_discarded"),
        Some(&mined.discarded)
    );
    assert_eq!(
        counters.get("invariants.promoted"),
        Some(&(mined.promoted.len() as u64))
    );
    assert!(rec.events().iter().any(|e| e.kind == "invariants.mined"));
}

/// The verdict wire name is pinned: campaign JSON consumers key on it.
#[test]
fn silent_corruption_verdict_name_is_stable() {
    assert_eq!(TrialVerdict::SilentCorruption.as_str(), "silent_corruption");
}

/// Census consistency (the per-kind counts are of *tested* sites): the
/// SiteKind census sums to `sites_tested` even when a stride skips most
/// of the enumeration, and trials come out in canonical (site, policy)
/// order.
#[test]
fn census_counts_tested_sites_and_trials_are_ordered() {
    let cfg = CampaignConfig::builder()
        .stride(7)
        .budget(30)
        .build()
        .unwrap();
    let c = common::scenario("f1", &cfg);
    let census_total: u64 = c.site_kinds.values().copied().sum();
    assert_eq!(
        census_total, c.sites_tested,
        "site-kind census must sum to the distinct tested sites"
    );
    let keys: Vec<_> = c
        .trials
        .iter()
        .map(|t| (t.site, inject::policy_name(t.policy)))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "trials must be in canonical (site, policy) order"
    );
}
