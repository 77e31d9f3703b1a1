//! Campaign determinism guarantees.
//!
//! Three contracts keep injection results trustworthy: a trial is a pure
//! function of (seed, site, policy) — in particular `RandomStaged`
//! derives every staging decision from its own seed — the one capture
//! pass a campaign runs per scenario takes every trial's machine exactly
//! as a pass armed at that trial alone would, and the campaign's verdict
//! list is independent of how many runner threads classified it.

use inject::{CampaignConfig, TrialVerdict};
use pm_workload::{
    run_with_injection, scenarios, AppSetup, CrashCapture, InjectionOutcome, RunConfig,
    SiteInjection,
};
use pmemsim::CrashPolicy;
use proptest::prelude::*;

mod common;

/// One capture pass over `scn` armed at `armed`: its captures, in the
/// order they fired.
fn capture(
    scn: &dyn pm_workload::Scenario,
    setup: &AppSetup,
    armed: &[SiteInjection],
) -> Vec<CrashCapture> {
    let cfg = RunConfig {
        criu: false,
        injections: armed.to_vec(),
        ..RunConfig::default()
    };
    match run_with_injection(scn, setup, &cfg) {
        InjectionOutcome::Captured(taken) => taken,
        other => panic!("an armed pass ended {}", outcome_name(&other)),
    }
}

/// Runs f1 with a crash armed at `site` under `policy` and returns the
/// raw post-crash image.
fn crash_image(setup: &AppSetup, site: u64, policy: CrashPolicy) -> pmemsim::PmImage {
    let scn = scenarios::by_id("f1").expect("f1 exists");
    let mut taken = capture(scn.as_ref(), setup, &[SiteInjection { site, policy }]);
    assert_eq!(taken.len(), 1, "site {site} fired once");
    let c = taken.remove(0);
    assert_eq!(
        (c.site, c.policy),
        (site, policy),
        "crash fired at the armed site"
    );
    c.pool.snapshot()
}

fn outcome_name(o: &InjectionOutcome) -> &'static str {
    match o {
        InjectionOutcome::Captured(_) => "captured",
        InjectionOutcome::HardFailure(_) => "hard-failure",
        InjectionOutcome::Completed(_) => "completed",
    }
}

/// One pass takes every row's machine exactly: for every stock scenario
/// and the fixture, under both default policies, the capture a pass
/// armed at the whole matrix (hfbench's campaign size: stride 8, 32 rows)
/// takes at each site is the one a pass armed there alone takes — image
/// bytes, pool counters, log, trace, restarts and detector history.
#[test]
fn one_pass_captures_every_row_as_a_pass_armed_there_alone() {
    let cfg = CampaignConfig::builder()
        .stride(8)
        .budget(32)
        .build()
        .unwrap();
    let mut ids: Vec<&str> = scenarios::all().iter().map(|s| s.id()).collect();
    ids.push("fx1");
    for id in ids {
        let scn = scenarios::by_id(id).expect("known scenario");
        let setup = AppSetup::new(scn.build_module());
        let census = common::replay(scn.as_ref(), &setup, cfg.seed()).pool;
        let matrix = inject::build_matrix(census.site_count(), census.site_kinds(), &cfg).unwrap();
        let armed: Vec<SiteInjection> = matrix
            .iter()
            .map(|&(site, _, policy)| SiteInjection { site, policy })
            .collect();
        let pass = capture(scn.as_ref(), &setup, &armed);
        let fired: Vec<SiteInjection> = pass
            .iter()
            .map(|c| SiteInjection {
                site: c.site,
                policy: c.policy,
            })
            .collect();
        assert_eq!(
            fired, armed,
            "{id}: every armed row fires once, in matrix order"
        );
        for (c, &row) in pass.iter().zip(&armed) {
            let alone = capture(scn.as_ref(), &setup, &[row]);
            assert!(
                alone.len() == 1 && c.same_as(&alone[0]),
                "{id}: site {} under {:?} differs from a pass armed there alone",
                row.site,
                row.policy
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `RandomStaged(seed)` is deterministic: the same seed at the same
    /// site produces a byte-identical post-crash image.
    #[test]
    fn random_staged_is_deterministic(site in 0u64..120, seed in any::<u64>()) {
        let scn = scenarios::by_id("f1").expect("f1 exists");
        let setup = AppSetup::new(scn.build_module());
        let policy = CrashPolicy::RandomStaged(seed);
        let a = crash_image(&setup, site, policy);
        let b = crash_image(&setup, site, policy);
        prop_assert_eq!(a, b, "post-crash images diverged at site {}", site);
    }
}

/// Campaign verdicts are stable across worker counts: the same config
/// classified by 1 and by 4 worker threads yields the identical trial
/// list.
#[test]
fn verdicts_independent_of_runner_count() {
    let base = CampaignConfig::builder().stride(4).budget(8);
    let solo = common::scenario("f1", &base.clone().runners(1).build().unwrap());
    let quad = common::scenario("f1", &base.runners(4).build().unwrap());

    let key = |c: &inject::ScenarioCampaign| {
        c.trials
            .iter()
            .map(|t| (t.site, inject::policy_name(t.policy), t.verdict))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&solo), key(&quad), "runner count changed the verdicts");
    assert_eq!(solo.sites_total, quad.sites_total);
    // Every trial must be classified; an armed site that never fires on a
    // deterministic replay would show up here.
    assert!(solo
        .trials
        .iter()
        .all(|t| t.verdict != TrialVerdict::NotReached));
}

/// Pins ROADMAP item 21a as it stands, so that its fix shows up as this
/// test's diff. f2's crash at site 0 recovers by restart. At site 1494,
/// under both policies, every restart fails kvcache's `check_invariant`,
/// and the offline reactor's one-by-one walk down the plan spends its
/// whole attempt budget without recovering. Raising `MAX_ATTEMPTS` is not
/// the fix: the budget is the paper's timeout analogue, and a bigger one
/// only pays for the linear walk.
#[test]
fn f2_site_1494_spends_the_attempt_budget() {
    let cfg = CampaignConfig::builder()
        .stride(1494)
        .budget(4)
        .build()
        .unwrap();
    let c = common::scenario("f2", &cfg);
    let rows: Vec<_> = c
        .trials
        .iter()
        .map(|t| (t.site, inject::policy_name(t.policy), t.verdict))
        .collect();
    let clean = TrialVerdict::CleanRecovery;
    let violated = TrialVerdict::InvariantViolated;
    assert_eq!(
        rows,
        [
            (0, "drop".to_string(), clean),
            (0, "keep".to_string(), clean),
            (1494, "drop".to_string(), violated),
            (1494, "keep".to_string(), violated),
        ]
    );
    for t in c.trials.iter().filter(|t| t.site == 1494) {
        assert_eq!((t.restarts, t.attempts), (2, 200), "{t:?}");
    }
}

// ---------------------------------------------------------------------------
// Trial-matrix accounting
// ---------------------------------------------------------------------------

use inject::{build_matrix, site_census, MatrixRow};
use pmemsim::SiteKind;

fn kinds(n: u64) -> Vec<SiteKind> {
    // A deterministic mix so per-kind counts are nontrivial.
    (0..n)
        .map(|i| match i % 3 {
            0 => SiteKind::Persist,
            1 => SiteKind::Drain,
            _ => SiteKind::Alloc,
        })
        .collect()
}

/// A `kinds` census shorter than the site count is a hard error, not a
/// silent `Persist` fallback (the old fallback mislabeled every site
/// past the recorded prefix and skewed the per-kind census).
#[test]
fn short_kind_census_is_a_hard_error() {
    let cfg = CampaignConfig::builder().build().unwrap();
    let err = build_matrix(10, &kinds(7), &cfg).unwrap_err();
    assert!(
        err.0.contains("7 site kind(s) for 10 sites"),
        "unhelpful error: {}",
        err.0
    );
    // Exact coverage is fine.
    assert!(build_matrix(10, &kinds(10), &cfg).is_ok());
}

/// When the budget runs out partway through a site's policy list the
/// whole site is dropped: only fully-tested sites enter the matrix, so
/// trials == sites_tested × policies and the per-kind census sums to
/// sites_tested.
#[test]
fn budget_truncation_drops_partial_sites() {
    let policies = vec![
        CrashPolicy::DropStaged,
        CrashPolicy::KeepStaged,
        CrashPolicy::RandomStaged(7),
    ];
    // Budget 8 fits two whole 3-policy sites; the old code pushed two
    // rows of a third site and still counted it as tested.
    let cfg = CampaignConfig::builder()
        .policies(policies.clone())
        .budget(8)
        .build()
        .unwrap();
    let matrix = build_matrix(20, &kinds(20), &cfg).unwrap();
    assert_eq!(matrix.len(), 6, "two whole sites only");
    let (sites_tested, census) = site_census(&matrix);
    assert_eq!(sites_tested, 2);
    assert_eq!(matrix.len() as u64, sites_tested * policies.len() as u64);
    assert_eq!(
        census.values().sum::<u64>(),
        sites_tested,
        "per-kind counts must sum to sites_tested"
    );
}

/// The census must not depend on matrix row order: the fleet queue
/// interleaves scenarios, so rows are not site-sorted (the old
/// consecutive-only `dedup_by_key` overcounted on shuffled input).
#[test]
fn site_census_is_order_independent() {
    let cfg = CampaignConfig::builder()
        .stride(2)
        .budget(40)
        .build()
        .unwrap();
    let matrix = build_matrix(30, &kinds(30), &cfg).unwrap();
    let (tested, census) = site_census(&matrix);
    assert_eq!(tested, 15);
    assert_eq!(census.values().sum::<u64>(), tested);

    // Deterministic shuffle: rotate and interleave halves.
    let mut shuffled: Vec<MatrixRow> = Vec::new();
    let half = matrix.len() / 2;
    for i in 0..half {
        shuffled.push(matrix[half + i]);
        shuffled.push(matrix[i]);
    }
    shuffled.extend_from_slice(&matrix[2 * half..]);
    assert_eq!(shuffled.len(), matrix.len());
    assert_ne!(shuffled, matrix, "shuffle must change the order");
    assert_eq!(
        site_census(&shuffled),
        (tested, census),
        "census changed under row reordering"
    );
}

/// End-to-end reconciliation on a real scenario: Σ(per-kind) ==
/// sites_tested and trials == sites_tested × policies, with a budget
/// chosen to not divide the policy count.
#[test]
fn campaign_census_reconciles_under_truncation() {
    let cfg = CampaignConfig::builder()
        .stride(4)
        .budget(7) // not a multiple of 2 policies: forces truncation
        .build()
        .unwrap();
    let c = common::scenario("f1", &cfg);
    assert_eq!(c.site_kinds.values().sum::<u64>(), c.sites_tested);
    assert_eq!(
        c.trials.len() as u64,
        c.sites_tested * cfg.policies().len() as u64
    );
    assert!(c.trials.len() <= 7, "budget is an upper bound");
}

/// A budget that cannot fit even one site's policy row is rejected at
/// build time instead of yielding an empty matrix at run time.
#[test]
fn budget_below_policy_count_is_rejected() {
    let err = CampaignConfig::builder()
        .policies(vec![
            CrashPolicy::DropStaged,
            CrashPolicy::KeepStaged,
            CrashPolicy::RandomStaged(1),
        ])
        .budget(2)
        .build()
        .unwrap_err();
    assert!(err.0.contains("budget"), "unhelpful error: {}", err.0);
}

/// A policy listed twice would give two matrix rows one (site, policy)
/// key, and the second row would never get a crash capture: it is
/// rejected at build time.
#[test]
fn repeated_policy_is_rejected() {
    let err = CampaignConfig::builder()
        .policies(vec![CrashPolicy::DropStaged, CrashPolicy::DropStaged])
        .budget(4)
        .build()
        .unwrap_err();
    assert!(
        err.0.contains("`drop` is listed twice"),
        "unhelpful error: {}",
        err.0
    );
}
