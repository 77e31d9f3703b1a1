//! Replication as a campaign dimension.
//!
//! Three contracts (ISSUE 10):
//!
//! - **`n = 0` degenerates byte-identically**: a campaign configured
//!   without replicas renders the exact document a pre-replication
//!   build rendered — no `replicas` config member, and deterministic
//!   bytes across runs.
//! - **Clean replicas are verdict-neutral**: a caught-up standby set is
//!   byte-identical to the crashed primary, so the cross-check
//!   localizes nothing and every verdict matches the single-pool run.
//! - **Replica faults are contained**: correlated / independent bit
//!   corruption and torn-replication-mid-apply may cost the trial its
//!   standbys (rejected at promote verification), but they never
//!   produce an invariant violation the single-pool pipeline avoided.

use inject::{CampaignConfig, ReplicaFault, TrialVerdict};
use pm_workload::{run_with_injection, scenarios, AppSetup, InjectionOutcome, RunConfig};

use arthas::{Reactor, ReactorConfig};
use pmemsim::PoolGroup;

mod common;

fn base_cfg() -> inject::CampaignConfigBuilder {
    CampaignConfig::builder().stride(8).budget(8)
}

type TrialKey = (u64, String, TrialVerdict);

fn verdict_keys(c: &inject::ScenarioCampaign) -> Vec<TrialKey> {
    c.trials
        .iter()
        .map(|t| (t.site, inject::policy_name(t.policy), t.verdict))
        .collect()
}

/// The `n = 0` gate: the rendered matrix carries no trace of the
/// replication dimension and is byte-stable across runs — `cmp`-style
/// equality, not structural equality, so even member ordering drift
/// would fail.
#[test]
fn n0_matrix_renders_byte_identically() {
    let cfg = base_cfg().replicas(0).build().unwrap();
    let render = || common::campaign(&["f1"], &cfg).json().render_pretty();
    let (a, b) = (render(), render());
    assert_eq!(a, b, "n = 0 matrices diverged across identical runs");
    assert!(
        !a.contains("replicas") && !a.contains("replica_fault"),
        "an n = 0 document must not mention the replication dimension:\n{a}"
    );
}

/// Caught-up, unfaulted replicas change no verdict: the standby set is
/// byte-identical to the crashed image, the cross-check localizes
/// nothing, and the primary-image arm is the single-pool pipeline.
#[test]
fn clean_replicas_are_verdict_neutral() {
    let n0 = common::scenario("f1", &base_cfg().build().unwrap());
    let n2 = common::scenario("f1", &base_cfg().replicas(2).build().unwrap());
    assert_eq!(
        verdict_keys(&n0),
        verdict_keys(&n2),
        "clean replicas changed campaign verdicts"
    );
}

/// Every replica-fault mode: the stride-8 campaign finishes with zero
/// invariant violations and zero missed sites, renders a schema-valid
/// document that names the dimension, and never downgrades a trial the
/// single-pool pipeline recovered.
#[test]
fn replica_faults_are_contained() {
    let n0 = common::scenario("f1", &base_cfg().build().unwrap());
    let recovered =
        |v: TrialVerdict| matches!(v, TrialVerdict::CleanRecovery | TrialVerdict::Mitigated);
    for fault in [
        ReplicaFault::Correlated,
        ReplicaFault::Independent,
        ReplicaFault::TornApply,
    ] {
        let cfg = base_cfg()
            .replicas(3)
            .replica_fault(Some(fault))
            .build()
            .unwrap();
        let report = common::campaign(&["f1"], &cfg);
        assert_eq!(
            report.invariant_violations(),
            0,
            "{} replica faults leaked an invariant violation:\n{}",
            fault.as_str(),
            report.render_table()
        );
        assert_eq!(report.not_reached(), 0, "{}: missed sites", fault.as_str());
        report
            .validate_rendered()
            .expect("replicated matrix is schema-valid");
        let doc = report.json().render_pretty();
        assert!(
            doc.contains("\"replicas\"") && doc.contains(fault.as_str()),
            "document must record the replication dimension:\n{doc}"
        );
        for (k0, kf) in n0.trials.iter().zip(report.scenarios[0].trials.iter()) {
            assert_eq!((k0.site, k0.policy), (kf.site, kf.policy));
            if recovered(k0.verdict) {
                assert!(
                    recovered(kf.verdict),
                    "site {} {} recovered single-pool but not under {} replicas: {:?}",
                    k0.site,
                    inject::policy_name(k0.policy),
                    fault.as_str(),
                    kf.verdict
                );
            }
        }
    }
}

/// A replica fault without replicas is a configuration error, caught at
/// build time.
#[test]
fn replica_fault_requires_replicas() {
    let err = CampaignConfig::builder()
        .replica_fault(Some(ReplicaFault::TornApply))
        .build()
        .unwrap_err();
    assert!(err.0.contains("replica"), "unhelpful error: {}", err.0);
    assert!(CampaignConfig::builder()
        .replicas(1)
        .replica_fault(Some(ReplicaFault::TornApply))
        .build()
        .is_ok());
}

#[test]
fn replica_fault_names_round_trip() {
    for f in [
        ReplicaFault::Correlated,
        ReplicaFault::Independent,
        ReplicaFault::TornApply,
    ] {
        assert_eq!(ReplicaFault::parse(f.as_str()), Some(f));
    }
    assert_eq!(ReplicaFault::parse("sideways"), None);
}

// ---------------------------------------------------------------------------
// Cross-check localization over the stock scenarios
// ---------------------------------------------------------------------------

/// The cross-check's subset contract across all 12 stock hard-fault
/// scenarios: against a caught-up replica quorum the filtered plan is
/// always a subset of the input plan — localization shrinks or keeps
/// the candidate set, it never grows it. (Software faults replicate
/// faithfully, so with clean replicas the plan passes through
/// unchanged; the shrink-on-real-corruption case is exercised in
/// `arthas`'s replication tests.)
#[test]
fn cross_check_never_grows_the_plan_on_stock_scenarios() {
    let ids = [
        "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12",
    ];
    let mut planned = 0;
    for id in ids {
        let scn = scenarios::by_id(id).expect("stock scenario exists");
        let setup = AppSetup::new(scn.build_module());
        let InjectionOutcome::HardFailure(prod) =
            run_with_injection(scn.as_ref(), &setup, &RunConfig::default())
        else {
            panic!("{id}: stock scenario must end in its scripted hard failure");
        };
        let mut prod = *prod;
        let Some(fault) = prod.failure.fault else {
            // Leak-class failures carry no fault anchor to slice from.
            continue;
        };
        let group = PoolGroup::new(&prod.pool, 3, prod.log.view().latest_seq());
        let mut reactor = Reactor::new(&setup.analysis, &setup.guid_map, ReactorConfig::default());
        let view = prod.log.view();
        let plan = reactor.plan(fault, &prod.trace, &view, &mut prod.pool);
        if plan.seqs.is_empty() {
            continue;
        }
        planned += 1;
        let filtered = reactor.cross_check_plan(&plan, &view, &mut prod.pool, &group);
        assert!(
            filtered.seqs.len() <= plan.seqs.len(),
            "{id}: cross-check grew the plan ({} -> {})",
            plan.seqs.len(),
            filtered.seqs.len()
        );
        assert!(
            filtered.seqs.iter().all(|s| plan.seqs.contains(s)),
            "{id}: cross-check invented candidates outside the plan"
        );
        assert_eq!(
            filtered.seqs, plan.seqs,
            "{id}: faithfully replicated state must pass through unlocalized"
        );
    }
    assert!(
        planned >= 6,
        "only {planned} stock scenarios produced a non-empty plan — the \
         cross-check contract went largely unexercised"
    );
}
