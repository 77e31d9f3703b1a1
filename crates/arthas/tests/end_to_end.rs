//! End-to-end pipeline test: a miniature PM key-value program with a
//! soft-to-hard fault, taken through the full Arthas workflow — analyze,
//! instrument, checkpoint, detect across restarts, slice, revert,
//! re-execute — and recovered with minimal discarded state.
//!
//! The bug is a Type II fault (§2.6 of the paper): a bad value is written
//! to a persistent flag, propagates through volatile arithmetic on a later
//! request, and crashes the program — deterministically again after every
//! restart, because the flag is durable.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, Detector, FailureRecord, PmTrace, Reactor, ReactorConfig, Restart,
    SharedLog, Verdict,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::PmPool;

/// Layout of the root object: counter @0, flag @8, value @16.
fn build_app() -> Module {
    let mut m = ModuleBuilder::new();
    // put(v): root.value = v; if v == 666 also corrupt root.flag (the bug).
    {
        let mut f = m.func("put", 1, false);
        f.loc("mini.c:put");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        let valp = f.gep(root, 16);
        f.store8(valp, v);
        f.pm_persist_c(valp, 8);
        let cnt = f.load8(root);
        let one = f.konst(1);
        let cnt2 = f.add(cnt, one);
        f.store8(root, cnt2);
        f.pm_persist_c(root, 8);
        // The bug: a "logic error" writes the raw value into a persistent
        // control flag for a specific input.
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
    // get(): reads flag; a nonzero flag sends it through pointer
    // arithmetic that dereferences null (flag value 666 → pointer 0).
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
            let p = f.sub(flag, c666); // 0 when flag == 666
            let v = f.load8(p); // segfault
            f.ret(Some(v));
        });
        let valp = f.gep(root, 16);
        let v = f.load8(valp);
        f.ret(Some(v));
        f.finish();
    }
    // recover(): the app's restart/recovery function.
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

fn new_pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap()
}

/// The restart probe: recovery + verification workload on the reopened
/// pool (the reactor mutated the candidate image in place).
fn recover_and_check(vm: &mut Vm) -> Result<(), FailureRecord> {
    let mut call = |f: &str, a: &[u64]| vm.call(f, a).map_err(|e| FailureRecord::from_vm(&e));
    call("recover", &[])?;
    call("get", &[])?;
    call("put", &[7])?;
    let got = call("get", &[])?;
    if got != Some(7) {
        return Err(FailureRecord::wrong_result(format!(
            "get returned {got:?}, expected 7"
        )));
    }
    Ok(())
}

#[test]
fn full_pipeline_recovers_with_minimal_loss() {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented);
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut detector = Detector::new();

    // --- production run -------------------------------------------------
    let mut vm = Vm::new(instrumented.clone(), new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for v in [1u64, 2, 3] {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap(); // plants the bad persistent flag
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.take_trace());
    let rec1 = FailureRecord::from_vm(&err);
    assert_eq!(detector.observe(rec1), Verdict::FirstSighting);

    // --- restart: soft-fault hypothesis fails, symptom recurs -----------
    let mut pool = vm.crash();
    pool.set_sink(log.as_sink());
    let mut vm = Vm::new(instrumented.clone(), pool, VmOpts::default());
    vm.call("recover", &[]).unwrap();
    let err2 = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.take_trace());
    let rec2 = FailureRecord::from_vm(&err2);
    let verdict = detector.observe(rec2.clone());
    assert_eq!(verdict, Verdict::SuspectedHard, "recurring symptom");

    // --- reactor mitigation ---------------------------------------------
    let mut pool = vm.crash();
    let total_updates = log.total_updates();
    assert!(
        total_updates >= 9,
        "puts were checkpointed: {total_updates}"
    );

    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &recover_and_check,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &rec2, &trace, &restart, None);
    assert!(
        outcome.recovered,
        "reactor recovered the system: {outcome:?}"
    );
    assert!(!outcome.via_restart_only, "an actual reversion was needed");
    assert!(outcome.plan_len > 0);

    // Minimal data loss: of the many puts, only the flag (and possibly the
    // counter/value it shares persist ranges with) was reverted — far less
    // than everything.
    assert!(
        outcome.discarded_updates < total_updates / 2,
        "purge discarded {} of {} updates",
        outcome.discarded_updates,
        total_updates
    );

    // The healed pool: get works, the flag is clean.
    let mut vm = Vm::new(instrumented, pool, VmOpts::default());
    vm.call("recover", &[]).unwrap();
    assert!(vm.call("get", &[]).is_ok());
}

#[test]
fn detector_treats_distinct_faults_as_first_sightings() {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented);
    let mut vm = Vm::new(instrumented, new_pool(), VmOpts::default());
    vm.call("put", &[666]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    let mut detector = Detector::new();
    assert_eq!(
        detector.observe(FailureRecord::from_vm(&err)),
        Verdict::FirstSighting
    );
}

#[test]
fn plan_is_empty_for_unrelated_fault() {
    // A fault instruction with no PM ancestry yields an empty plan and the
    // reactor falls back to plain restart (false-alarm pruning, §4.5).
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let log = SharedLog::new();
    let trace = PmTrace::new();
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    // Use the first instruction of `recover` (a recover_begin intrinsic
    // with no PM-write ancestry in its slice... actually pick a Const).
    let fid = module.func_by_name("recover").unwrap();
    let fault = pir::ir::InstRef { func: fid, inst: 0 };
    let mut pool = new_pool();
    let plan = reactor.plan(fault, &trace, &log.view(), &mut pool);
    assert!(plan.seqs.is_empty());
}
