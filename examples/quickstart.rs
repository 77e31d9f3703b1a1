//! Quickstart: take a small persistent-memory program with a
//! soft-to-hard fault through the full Arthas pipeline.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The program is a tiny PM key-value cell with a Type II bug: a specific
//! input value is also (wrongly) written into a persistent control flag,
//! and a later read request dereferences a pointer derived from that flag
//! — a segfault that *recurs after every restart*, because the flag is
//! durable. Arthas instruments the program, checkpoints its PM updates,
//! detects the recurrence, slices the fault instruction and reverts just
//! the bad entries.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, Detector, FailureRecord, PmTrace, Reactor, ReactorConfig, Restart,
    SharedLog, Verdict,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::PmPool;

/// Root layout: counter @0, flag @8, value @16.
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
        // The bug: input 666 lands in a persistent control flag.
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
            let p = f.sub(flag, c666); // null when flag == 666
            let v = f.load8(p); // segfault
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
    m.finish().expect("module verifies")
}

/// What a restart must pass: recovery, then the read that crashed.
fn recover_and_get(vm: &mut Vm) -> Result<(), FailureRecord> {
    vm.call("recover", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    vm.call("get", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    Ok(())
}

fn new_pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).expect("pool")
}

fn main() {
    println!("1. Analyze + instrument the PM program");
    let module = build_app();
    let out = analyze_and_instrument(&module);
    println!(
        "   {} instructions, {} PM-update sites instrumented, PDG with {} edges",
        module.inst_count(),
        out.guid_map.len(),
        out.analysis.pdg.n_edges
    );
    let instrumented = Arc::new(out.instrumented);

    println!("2. Run production with checkpointing attached");
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut vm = Vm::new(instrumented.clone(), new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for v in [1u64, 2, 3] {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap(); // plants the bad persistent flag
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    println!("   failure: {err}");

    println!("3. Restart: the soft-fault hypothesis fails");
    let mut detector = Detector::new();
    detector.observe(FailureRecord::from_vm(&err));
    let mut pool = vm.crash();
    pool.set_sink(log.as_sink());
    let mut vm = Vm::new(instrumented.clone(), pool, VmOpts::default());
    vm.call("recover", &[]).unwrap();
    let err2 = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let rec = FailureRecord::from_vm(&err2);
    let verdict = detector.observe(rec.clone());
    println!("   recurrence after restart -> detector verdict: {verdict:?}");
    assert_eq!(verdict, Verdict::SuspectedHard);

    println!("4. Reactor: slice the fault, revert dependent PM state");
    let mut pool = vm.crash();
    let total = log.total_updates();
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &recover_and_get,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &rec, &trace, &restart);
    println!(
        "   recovered={} after {} re-execution(s); discarded {}/{} checkpointed updates",
        outcome.recovered, outcome.attempts, outcome.discarded_updates, total
    );
    assert!(outcome.recovered);

    println!("5. The healed system serves requests again");
    let mut vm = Vm::new(instrumented, pool, VmOpts::default());
    vm.call("recover", &[]).unwrap();
    let v = vm.call("get", &[]).unwrap();
    println!("   get() = {v:?} (the last good value survived the recovery)");
}
