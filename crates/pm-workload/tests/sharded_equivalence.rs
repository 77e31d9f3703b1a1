//! Store-shape equivalence across the full Table-2 matrix: every
//! scenario, run end to end (production → detection → mitigation) over
//! a one-shard checkpoint store and over an 8-shard one, must produce
//! byte-identical mitigation outcomes and final pool images. Production
//! is sequential, so the merged view over eight shards is required to
//! reconstruct exactly the picture one shard holds.

use arthas::{Reactor, ReactorConfig};
use pir::vm::VmOpts;
use pm_workload::{run_production, scenarios, AppSetup, RunConfig, ScenarioTarget};

/// Runs one scenario to a hard failure and mitigates it, with the
/// checkpoint store sharded `n` ways. Returns the outcome and the final
/// pool image.
fn mitigate_with_shards(
    scn: &dyn pm_workload::Scenario,
    setup: &AppSetup,
    log_shards: usize,
) -> (arthas::MitigationOutcome, pmemsim::PmImage) {
    let run_cfg = RunConfig {
        log_shards,
        ..RunConfig::default()
    };
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
    let mut reactor = Reactor::new(&setup.analysis, &setup.guid_map, ReactorConfig::default());
    let out = reactor.mitigate(
        &mut prod.pool,
        &prod.log,
        &prod.failure,
        &prod.trace,
        &mut target,
        None,
    );
    (out, prod.pool.snapshot())
}

#[test]
fn sharded_store_matches_single_log_on_all_scenarios() {
    for scn in scenarios::all() {
        let setup = AppSetup::new(scn.build_module());
        let (single, single_image) = mitigate_with_shards(scn.as_ref(), &setup, 1);
        let (sharded, sharded_image) = mitigate_with_shards(scn.as_ref(), &setup, 8);

        let id = scn.id();
        assert_eq!(single.recovered, sharded.recovered, "{id}: recovered");
        assert_eq!(
            single.via_restart_only, sharded.via_restart_only,
            "{id}: restart-only"
        );
        assert_eq!(single.attempts, sharded.attempts, "{id}: attempts");
        assert_eq!(single.plan_len, sharded.plan_len, "{id}: plan length");
        assert_eq!(
            single.reverted_seqs, sharded.reverted_seqs,
            "{id}: reverted sequence numbers"
        );
        assert_eq!(
            single.discarded_updates, sharded.discarded_updates,
            "{id}: discarded updates"
        );
        assert_eq!(
            single.discarded_entries, sharded.discarded_entries,
            "{id}: discarded entries"
        );
        assert_eq!(
            single.mode_fellback, sharded.mode_fellback,
            "{id}: fallback"
        );
        assert_eq!(single.leaks_freed, sharded.leaks_freed, "{id}: leaks freed");
        assert_eq!(single_image, sharded_image, "{id}: final pool image");
    }
}
