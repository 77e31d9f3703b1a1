//! Unit-level tests of the experiment harness: context bookkeeping,
//! re-execution isolation, production determinism and consistency
//! checking.

use arthas::{FailureRecord, Restart, SharedLog};
use pir::vm::{Vm, VmOpts};
use pm_workload::{
    check_consistency, recover_and_verify, run_production, scenarios, AppSetup, RunConfig,
};
use pmemsim::PmPool;

#[test]
fn production_is_deterministic_for_a_fixed_seed() {
    let scn = scenarios::by_id("f4").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let cfg = RunConfig::default();
    let a = run_production(scn.as_ref(), &setup, &cfg).expect("failure");
    let b = run_production(scn.as_ref(), &setup, &cfg).expect("failure");
    assert_eq!(a.failure.exit_code, b.failure.exit_code);
    assert_eq!(a.failure.fault, b.failure.fault);
    assert_eq!(a.log.total_updates(), b.log.total_updates());
    assert_eq!(a.trace.total_records(), b.trace.total_records());
}

#[test]
fn reexecution_runs_on_a_copy_of_the_pool() {
    // The verification workload mutates state (it issues puts); those
    // mutations must not leak back into the pool under mitigation.
    let scn = scenarios::by_id("f4").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let cfg = RunConfig::default();
    let prod = run_production(scn.as_ref(), &setup, &cfg).expect("failure");
    let image_before = prod.pool.snapshot();
    let restart = Restart {
        module: &setup.instrumented,
        vm: VmOpts::default(),
        probe: &|vm: &mut Vm| recover_and_verify(scn.as_ref(), vm),
    };
    // Re-execution fails (the fault is still in place) but must not
    // modify the candidate pool either way.
    let _ = restart.run(&prod.pool, &prod.log);
    assert_eq!(
        prod.pool.snapshot(),
        image_before,
        "verification left the pool untouched"
    );
}

#[test]
fn a_pool_that_does_not_reopen_fails_the_restart_before_the_probe() {
    let scn = scenarios::by_id("f4").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let mut pool = PmPool::create(pm_workload::POOL_SIZE).unwrap();
    // A pool whose header magic is off by one bit does not reopen.
    pool.corrupt_bit(0, 0).unwrap();
    let probed = std::sync::atomic::AtomicBool::new(false);
    let probe = |_: &mut Vm| -> Result<(), FailureRecord> {
        probed.store(true, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    };
    let restart = Restart {
        module: &setup.instrumented,
        vm: VmOpts::default(),
        probe: &probe,
    };
    let failure = restart.run(&pool, &SharedLog::new()).unwrap_err();
    assert!(
        failure.detail.starts_with("pool reopen: "),
        "{}",
        failure.detail
    );
    assert!(!probed.into_inner(), "the probe never ran");
}

#[test]
fn production_takes_criu_snapshots_on_schedule() {
    let scn = scenarios::by_id("f2").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let cfg = RunConfig::default();
    let prod = run_production(scn.as_ref(), &setup, &cfg).expect("failure");
    // The failure triggers just past t=150: snapshots at t=60 and t=120.
    let times = prod.criu.snapshot_times();
    assert!(times.contains(&60) && times.contains(&120), "{times:?}");
    assert!(times.iter().all(|t| *t <= 151));
}

#[test]
fn consistency_fails_on_a_corrupt_pool() {
    let scn = scenarios::by_id("f4").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let cfg = RunConfig::default();
    let prod = run_production(scn.as_ref(), &setup, &cfg).expect("failure");
    // Unmitigated, the pool still crashes the verification workload.
    assert!(!check_consistency(scn.as_ref(), &setup, &prod.pool));
}

#[test]
fn detection_requires_recurrence() {
    // Every production run must have restarted at least once: the first
    // sighting alone never triggers mitigation.
    for id in ["f4", "f11"] {
        let scn = scenarios::by_id(id).unwrap();
        let setup = AppSetup::new(scn.build_module());
        let prod = run_production(scn.as_ref(), &setup, &RunConfig::default()).expect("failure");
        assert!(prod.restarts >= 2, "{id}: {} restarts", prod.restarts);
        assert!(prod.detected_hard);
    }
}

#[test]
fn checkpointing_can_be_disabled() {
    let scn = scenarios::by_id("f4").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let cfg = RunConfig {
        checkpoint: false,
        ..RunConfig::default()
    };
    let prod = run_production(scn.as_ref(), &setup, &cfg).expect("failure");
    assert_eq!(prod.log.total_updates(), 0, "no sink attached");
}

#[test]
fn solution_names_round_trip_through_the_one_table() {
    use arthas::ReactorConfig;
    use pm_workload::Solution;
    let names: Vec<String> = Solution::variants().collect();
    assert_eq!(names.len(), 8);
    for name in &names {
        let solution = Solution::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&solution.name(), name);
    }
    // A bare parametrised name takes its default count; any count parses.
    assert_eq!(
        Solution::parse("arthas-batch").unwrap().name(),
        "arthas-batch:5"
    );
    assert_eq!(
        Solution::parse("arthas-batch:8").unwrap().name(),
        "arthas-batch:8"
    );
    assert_eq!(
        Solution::parse("arthas").unwrap(),
        Solution::Arthas(ReactorConfig::default())
    );
    assert_eq!(
        Solution::Arthas(ReactorConfig::serving()).name(),
        "arthas-custom"
    );
    for bad in [
        "",
        "arthas:2",
        "arckpt:200",
        "arthas-batch:",
        "arthas-batch:0",
        "Arthas",
    ] {
        let e = Solution::parse(bad).expect_err(bad);
        assert!(e.contains(&format!("`{bad}`")), "{bad}: {e}");
    }
}
