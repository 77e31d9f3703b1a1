//! §3.2 of the paper: Arthas supports systems written with *native*
//! persistence instructions (`clwb`/`sfence`) as well as library
//! (`pmem_persist`) persistence. This exercises the flush+fence path end
//! to end: checkpoint entries must appear at fence completion, and the
//! reactor must recover a fault planted through that path.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, FailureRecord, PmTrace, Reactor, ReactorConfig, Restart, SharedLog,
};
use pir::builder::ModuleBuilder;
use pir::ir::{Intrinsic, Module};
use pir::vm::{Vm, VmOpts};
use pmemsim::PmPool;

/// A cell updated with store + clwb-style flush + sfence-style drain,
/// never calling `pm_persist`. `put(v)`; `get()` crashes when the cell
/// holds the poison value (flag-style Type II propagation).
fn native_app() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("put", 1, false);
        f.loc("native.c:put");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        f.store8(root, v);
        // Native persistence: flush the line, then fence.
        let eight = f.konst(8);
        f.intr(Intrinsic::PmFlush, &[root, eight]);
        f.intr(Intrinsic::PmDrain, &[]);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        f.loc("native.c:get");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.load8(root);
        let poison = f.konst(99);
        let bad = f.eq(v, poison);
        f.if_(bad, |f| {
            f.loc("native.c:crash");
            let z = f.konst(0);
            let x = f.load8(z); // segfault on poisoned state
            f.ret(Some(x));
        });
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

fn new_pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap()
}

#[test]
fn fence_completion_is_a_checkpoint_point() {
    let module = Arc::new(native_app());
    let log = SharedLog::new();
    let mut vm = Vm::new(module, new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    vm.call("put", &[7]).unwrap();
    vm.call("put", &[8]).unwrap();
    assert_eq!(
        log.total_updates(),
        2,
        "each flush+fence pair checkpointed once"
    );
    // The entry holds the post-fence durable value with versioning.
    let root = vm.pool_mut().root_offset().unwrap();
    let e = log.view().data_at_depth(root, 0).unwrap();
    assert_eq!(e, 8u64.to_le_bytes());
    let prev = log.view().data_at_depth(root, 1).unwrap();
    assert_eq!(prev, 7u64.to_le_bytes());
}

#[test]
fn flush_without_fence_is_not_checkpointed_or_durable() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("half_put", 1, false);
    let size = f.konst(64);
    let root = f.pm_root(size);
    let v = f.param(0);
    f.store8(root, v);
    let eight = f.konst(8);
    f.intr(Intrinsic::PmFlush, &[root, eight]);
    // No fence: in flight.
    f.ret(None);
    f.finish();
    let module = Arc::new(m.finish().unwrap());
    let log = SharedLog::new();
    let mut vm = Vm::new(module, new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    vm.call("half_put", &[7]).unwrap();
    assert_eq!(log.total_updates(), 0, "no durability point yet");
    let mut pool = vm.crash();
    let root = pool.root_offset().unwrap();
    assert_eq!(pool.read_u64(root).unwrap(), 0, "in-flight line dropped");
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
fn reactor_recovers_a_natively_persisted_fault() {
    let module = native_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented);
    let log = SharedLog::new();
    let mut trace = PmTrace::new();

    let mut vm = Vm::new(instrumented.clone(), new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    vm.call("put", &[5]).unwrap();
    vm.call("put", &[99]).unwrap(); // the poison, flushed + fenced
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let failure = FailureRecord::from_vm(&err);
    let mut pool = vm.crash();

    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &recover_and_get,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    assert!(outcome.recovered, "{outcome:?}");
    // The reverted cell holds the previous natively-persisted value.
    let root = pool.root_offset().unwrap();
    assert_eq!(pool.read_u64(root).unwrap(), 5);
}
