//! Regression tests for intra-recovery slice reuse and per-outcome
//! slice-time accounting.
//!
//! Exactly one backward slice may be computed per fault location per
//! reactor lifetime — every further plan for the same fault is a memo
//! hit (`reactor.slice_memo_hit`). And `PhaseTimes::slice` must
//! *accumulate* every slice taken on an outcome's behalf: the old code
//! overwrote `last_slice_time` on each attempt and reported only the
//! final value, under-counting multi-attempt recoveries.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, FailureRecord, PmTrace, Reactor, ReactorConfig, Restart, SharedLog,
};
use obs::{Instrument, RingRecorder};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::PmPool;

/// Root: flag @8, value @16. `put(666)` corrupts the persistent flag;
/// `get()` crashes while it is set (same shape as the end-to-end test,
/// kept local so the file stays self-contained).
fn build_app() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("put", 1, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        let valp = f.gep(root, 16);
        f.store8(valp, v);
        let bad = f.konst(666);
        let is_bad = f.eq(v, bad);
        f.if_(is_bad, |f| {
            let flagp = f.gep(root, 8);
            f.store8(flagp, v);
            f.pm_persist_c(flagp, 8);
        });
        f.pm_persist_c(valp, 8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let flagp = f.gep(root, 8);
        let flag = f.load8(flagp);
        let zero = f.konst(0);
        let tainted = f.ne(flag, zero);
        f.if_(tainted, |f| {
            let c = f.konst(666);
            let p = f.sub(flag, c);
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
/// fault is in place.
fn recover_and_get(vm: &mut Vm) -> Result<(), FailureRecord> {
    vm.call("recover", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    vm.call("get", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    Ok(())
}

#[test]
fn one_slice_per_fault_and_accumulated_phase_time() {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented.clone());
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut vm = Vm::new(
        instrumented.clone(),
        PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap(),
        VmOpts::default(),
    );
    vm.pool_mut().set_sink(log.as_sink());
    for v in [1u64, 2, 3, 4] {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let failure = FailureRecord::from_vm(&err);
    let mut pool = vm.crash();
    let fault = failure.fault.expect("crash carries a fault instruction");

    let recorder = Arc::new(RingRecorder::new(256));
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    reactor.instrument(recorder.clone());

    // A multi-attempt recovery: the driver re-plans for the same fault
    // three times before the mitigation that produces the outcome.
    for _ in 0..3 {
        let view = log.view();
        let plan = reactor.plan(fault, &trace, &view, &mut pool);
        assert!(!plan.seqs.is_empty(), "the fault must yield candidates");
    }
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &recover_and_get,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    assert!(outcome.recovered, "mitigation must recover the app");

    // Exactly one slice computed for the fault location; all later
    // plans were memo hits (the 2nd and 3rd standalone plans, plus the
    // one inside mitigate).
    assert_eq!(reactor.slice_computes(), 1);
    assert_eq!(reactor.slice_memo_hits(), 3);
    let counters = recorder.counters();
    assert_eq!(counters.get("reactor.slice_compute"), Some(&1));
    assert_eq!(counters.get("reactor.slice_memo_hit"), Some(&3));

    // The outcome accounts *all four* slices taken on its behalf, not
    // just the final (memoized, near-zero) one: strictly more than the
    // last call's own slice time. The overwriting bug reported exactly
    // `last_slice_time` here.
    assert!(outcome.phases.slice > reactor.last_slice_time);

    // A second recovery for the same fault on the same reactor reuses
    // the memo and accounts only its own slice again.
    let outcome2 = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    assert_eq!(reactor.slice_computes(), 1, "no re-slice on re-mitigation");
    assert!(outcome2.phases.slice <= outcome.phases.slice);
}
