//! Regression test: a re-execution that panics while holding the
//! checkpoint log's mutex poisons it. Mitigation is exactly the code that
//! must keep running after such a panic, so the store recovers the
//! poisoned mutex where it locks it instead of unwrapping — a later
//! mitigation over the same log must still succeed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use arthas::{
    analyze_and_instrument, AnalyzerOutput, Detector, FailureRecord, PmTrace, Reactor,
    ReactorConfig, Restart, Rung, SharedLog, Verdict,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::PmPool;

/// Same miniature PM app as `end_to_end.rs`: `put(666)` plants a bad
/// persistent flag that makes every later `get` segfault.
fn build_app() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("put", 1, false);
        f.loc("mini.c:put");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        let valp = f.gep(root, 16);
        f.store8(valp, v);
        f.pm_persist_c(valp, 8);
        let bad = f.konst(666);
        let is_bad = f.eq(v, bad);
        f.if_(is_bad, |f| {
            f.loc("mini.c:bug");
            let flagp = f.gep(root, 8);
            f.store8(flagp, v);
            f.pm_persist_c(flagp, 8);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        f.loc("mini.c:get");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let flagp = f.gep(root, 8);
        let flag = f.load8(flagp);
        let zero = f.konst(0);
        let tainted = f.ne(flag, zero);
        f.if_(tainted, |f| {
            f.loc("mini.c:crash");
            let c666 = f.konst(666);
            let p = f.sub(flag, c666);
            let v = f.load8(p);
            f.ret(Some(v));
        });
        let valp = f.gep(root, 16);
        let v = f.load8(valp);
        f.ret(Some(v));
        f.finish();
    }
    {
        let mut f = m.func("recover", 0, false);
        f.recover_begin();
        let size = f.konst(64);
        let root = f.pm_root(size);
        f.load8(root);
        f.recover_end();
        f.ret(None);
        f.finish();
    }
    m.finish().unwrap()
}

/// The restart probe: recovery, then the `get` that crashes while the
/// flag is set. Recovery reads reach the attached log's sink, whose every
/// event takes the (possibly poisoned) log lock, so the re-execution path
/// stays realistic.
fn recover_and_get(vm: &mut Vm) -> Result<(), FailureRecord> {
    vm.call("recover", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    vm.call("get", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    Ok(())
}

/// Drives the app into a recurring (hard) failure and returns everything a
/// mitigation needs.
fn setup() -> (
    arthas::AnalyzerOutput,
    Arc<Module>,
    SharedLog,
    PmTrace,
    FailureRecord,
    PmPool,
) {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented.clone());
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut detector = Detector::new();

    let pool = PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
    let mut vm = Vm::new(instrumented.clone(), pool, VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for v in [1u64, 2, 3] {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    assert_eq!(
        detector.observe(FailureRecord::from_vm(&err)),
        Verdict::FirstSighting
    );

    let mut pool = vm.crash();
    pool.set_sink(log.as_sink());
    let mut vm = Vm::new(instrumented.clone(), pool, VmOpts::default());
    vm.call("recover", &[]).unwrap();
    let err2 = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let rec2 = FailureRecord::from_vm(&err2);
    assert_eq!(detector.observe(rec2.clone()), Verdict::SuspectedHard);
    let pool = vm.crash();
    (out, instrumented, log, trace, rec2, pool)
}

/// A mitigation whose every re-execution grabs the log lock and panics.
/// The panic propagates out of the reactor (re-execution died; there is
/// no outcome to report) and leaves the mutex poisoned.
fn mitigate_with_panicking_restarts(
    out: &AnalyzerOutput,
    log: &SharedLog,
    trace: &PmTrace,
    failure: &FailureRecord,
    pool: &mut PmPool,
) {
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    // Every restart takes a view of the log (its lock) and dies — the
    // worst-case re-execution crash, leaving the log mutex poisoned.
    let module = Arc::new(out.instrumented.clone());
    let probe = |_: &mut Vm| -> Result<(), FailureRecord> {
        let _view = log.view();
        panic!("simulated crash during re-execution");
    };
    let restart = Restart {
        module: &module,
        vm: VmOpts::default(),
        probe: &probe,
    };
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        reactor.mitigate(pool, log, failure, trace, &restart)
    }));
    assert!(
        crashed.is_err(),
        "the panicking re-execution brings mitigation down"
    );
}

#[test]
fn mitigation_survives_a_log_mutex_poisoned_by_a_panicking_fork() {
    let (out, instrumented, log, trace, failure, mut pool) = setup();
    mitigate_with_panicking_restarts(&out, &log, &trace, &failure, &mut pool);
    // Every store operation recovers the poisoned mutex, so `is_poisoned`
    // is the only place the poisoning is visible.
    assert!(
        log.is_poisoned(),
        "the shared log mutex is poisoned by the re-execution's panic"
    );

    // Second mitigation over the same (poisoned) log must still work:
    // every reactor lock site recovers the data instead of unwrapping.
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &recover_and_get,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    assert!(
        outcome.recovered,
        "mitigation over a poisoned log recovered the system: {outcome:?}"
    );
    assert_eq!(
        outcome.rung,
        Rung::Reversion,
        "a real reversion was applied"
    );
    // The counters harness code reads recover too.
    assert!(log.total_updates() > 0);
}

/// A supervisor that catches the re-execution panic carries on serving:
/// the reactor must have switched checkpointing back on while unwinding.
#[test]
fn checkpointing_resumes_after_a_caught_reexecution_panic() {
    let (out, instrumented, log, trace, failure, mut pool) = setup();
    mitigate_with_panicking_restarts(&out, &log, &trace, &failure, &mut pool);

    let before = log.stats().updates;
    pool.set_sink(log.as_sink());
    let mut vm = Vm::new(instrumented, pool, VmOpts::default());
    vm.call("put", &[7]).unwrap();
    assert!(
        log.stats().updates > before,
        "a put after the caught panic is checkpointed"
    );
}
