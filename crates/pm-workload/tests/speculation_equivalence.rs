//! Speculative mitigation must be *observably identical* to the
//! sequential reactor: same recovery verdict, same attempt count, same
//! reverted sequence numbers, same discarded-data accounting and the same
//! final pool image — across every scenario of Table 2. Only the number
//! of re-execution rounds (overlapped restart delays) may shrink.

use arthas::{Reactor, ReactorConfig};
use pir::vm::VmOpts;
use pm_workload::{run_production, scenarios, AppSetup, RunConfig, ScenarioTarget};

/// Runs one mitigation from a fresh, deterministic production failure and
/// returns the outcome together with the final pool image.
fn mitigate_once(
    scn: &dyn pm_workload::Scenario,
    setup: &AppSetup,
    speculation: Option<usize>,
) -> (arthas::MitigationOutcome, pmemsim::PmImage) {
    let run_cfg = RunConfig::default();
    let mut prod = run_production(scn, setup, &run_cfg).expect("scenario reaches a hard failure");
    let mut target = ScenarioTarget::new(
        scn,
        setup.instrumented.clone(),
        prod.log.clone(),
        VmOpts {
            step_limit: 500_000,
            ..VmOpts::default()
        },
    );
    let cfg = ReactorConfig::builder()
        .speculation(speculation)
        .build()
        .unwrap();
    let mut reactor = Reactor::new(&setup.analysis, &setup.guid_map, cfg);
    let out = reactor.mitigate_speculative(
        &mut prod.pool,
        &prod.log,
        &prod.failure,
        &prod.trace,
        &mut target,
    );
    (out, prod.pool.snapshot())
}

#[test]
fn speculative_mitigation_matches_sequential_on_all_scenarios() {
    for scn in scenarios::all() {
        let setup = AppSetup::new(scn.build_module());
        let (seq, seq_image) = mitigate_once(scn.as_ref(), &setup, None);
        let (spec, spec_image) = mitigate_once(scn.as_ref(), &setup, Some(4));

        let id = scn.id();
        assert_eq!(seq.recovered, spec.recovered, "{id}: recovered");
        assert_eq!(
            seq.via_restart_only, spec.via_restart_only,
            "{id}: restart-only"
        );
        assert_eq!(seq.attempts, spec.attempts, "{id}: attempts");
        assert_eq!(seq.plan_len, spec.plan_len, "{id}: plan length");
        assert_eq!(
            seq.reverted_seqs, spec.reverted_seqs,
            "{id}: reverted sequence numbers"
        );
        assert_eq!(
            seq.discarded_updates, spec.discarded_updates,
            "{id}: discarded updates"
        );
        assert_eq!(
            seq.discarded_entries, spec.discarded_entries,
            "{id}: discarded entries"
        );
        assert_eq!(seq.mode_fellback, spec.mode_fellback, "{id}: fallback");
        assert_eq!(seq.leaks_freed, spec.leaks_freed, "{id}: leaks freed");
        assert_eq!(seq_image, spec_image, "{id}: final pool image");

        // The sequential loop pays one restart delay per attempt; the
        // speculative one packs attempts into rounds.
        assert_eq!(seq.reexec_rounds, seq.attempts, "{id}: sequential rounds");
        assert!(
            spec.reexec_rounds <= seq.reexec_rounds,
            "{id}: speculation must not add rounds"
        );
        if seq.attempts >= 4 && !seq.mode_fellback {
            // With 4 workers and no result-dependent mode flip, a
            // multi-attempt mitigation must overlap restarts.
            assert!(
                spec.reexec_rounds < seq.attempts,
                "{id}: expected overlapped rounds, got {} rounds for {} attempts",
                spec.reexec_rounds,
                seq.attempts
            );
        }
    }
}

#[test]
fn speculation_worker_count_does_not_change_the_outcome() {
    // One multi-attempt scenario, swept across fleet sizes.
    let scn = scenarios::by_id("f4").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let (base, base_image) = mitigate_once(scn.as_ref(), &setup, None);
    for workers in [2usize, 3, 8] {
        let (out, image) = mitigate_once(scn.as_ref(), &setup, Some(workers));
        assert_eq!(base.recovered, out.recovered, "k={workers}");
        assert_eq!(base.attempts, out.attempts, "k={workers}");
        assert_eq!(base.reverted_seqs, out.reverted_seqs, "k={workers}");
        assert_eq!(base.discarded_updates, out.discarded_updates, "k={workers}");
        assert_eq!(base_image, image, "k={workers}: final pool image");
    }
}
