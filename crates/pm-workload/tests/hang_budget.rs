//! The hang budget has headroom: every stock scenario, run end to end
//! with the default Arthas solution, reaches the same outcome when every
//! interpreted call gets an eighth of [`HANG_STEPS`] as when it gets all
//! of it. Production restarts, the failure kind, the hard verdict, the
//! mitigation's verdict, attempts, rounds and discarded updates, the
//! reverted sequence numbers of every attempt and the final pool image
//! must all agree. A scenario whose healthy calls grow toward the budget
//! fails here before a false hang reaches production or a re-execution.

use std::sync::Arc;

use arthas::{FailureKind, ReactorConfig};
use obs::RingRecorder;
use pir::vm::VmOpts;
use pm_workload::{run_cell, scenarios, AppSetup, RunConfig, Scenario, Solution, HANG_STEPS};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One run of `scn` with every call limited to `step_limit` steps,
/// rendered as one comparable line, and the production failure's kind.
fn outcome(scn: &dyn Scenario, setup: &AppSetup, step_limit: u64) -> (String, FailureKind) {
    let id = scn.id();
    let recorder = Arc::new(RingRecorder::new(1 << 16));
    let cfg = RunConfig {
        vm: VmOpts {
            step_limit,
            ..RunConfig::default().vm
        },
        recorder: Some(recorder.clone()),
        ..RunConfig::default()
    };
    let solution = Solution::Arthas(ReactorConfig::default());
    let (prod, res) =
        run_cell(scn, setup, solution, &cfg, |_| {}).expect("scenario reaches a hard failure");
    assert_eq!(recorder.dropped(), 0, "{id}: the timeline lost events");
    // The batch each attempt reverted, in attempt order.
    let reverted = recorder
        .events()
        .into_iter()
        .filter(|e| e.kind == "reactor.attempt")
        .flat_map(|e| {
            let fields: Vec<String> = e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            fields.join(" ").into_bytes()
        });
    let row = format!(
        "{id} restarts={} failure={:?} hard={} recovered={} attempts={} rounds={} \
         discarded={} reverted={:016x} image={:016x}",
        prod.restarts,
        prod.failure.kind,
        prod.detected_hard,
        res.recovered,
        res.attempts,
        res.reexec_rounds,
        res.discarded_updates,
        fnv1a(reverted),
        fnv1a(prod.pool.snapshot().to_vec()),
    );
    (row, prod.failure.kind)
}

#[test]
fn every_scenario_runs_the_same_at_an_eighth_of_the_budget() {
    let all = scenarios::all();
    assert_eq!(all.len(), 12);
    for scn in &all {
        let id = scn.id();
        let setup = AppSetup::new(scn.build_module());
        let (shipped, kind) = outcome(scn.as_ref(), &setup, HANG_STEPS);
        let (eighth, _) = outcome(scn.as_ref(), &setup, HANG_STEPS / 8);
        assert_eq!(
            eighth, shipped,
            "{id}: an eighth of the budget changes the run"
        );
        assert!(shipped.contains("recovered=true"), "{shipped}");
        if matches!(id, "f1" | "f9") {
            assert_eq!(kind, FailureKind::Hang, "{shipped}");
        }
    }
}
