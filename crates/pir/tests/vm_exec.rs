//! Interpreter behaviour tests: arithmetic, control flow, memory spaces,
//! persistence, traps, threads and fault injection.

use std::sync::Arc;

use pir::builder::ModuleBuilder;
use pir::ir::InstRef;
use pir::vm::{Trap, Vm, VmOpts};
use pmemsim::PmPool;

fn pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (4 << 20)).unwrap()
}

fn vm_for(m: ModuleBuilder) -> Vm {
    let module = Arc::new(m.finish().unwrap());
    Vm::new(module, pool(), VmOpts::default())
}

#[test]
fn recursion_factorial() {
    let mut m = ModuleBuilder::new();
    m.declare("fact", 1, true);
    let mut f = m.func("fact", 1, true);
    let n = f.param(0);
    let two = f.konst(2);
    let c = f.ult(n, two);
    f.if_(c, |f| f.ret_c(1));
    let one = f.konst(1);
    let nm1 = f.sub(n, one);
    let r = f.call("fact", &[nm1]).unwrap();
    let out = f.mul(n, r);
    f.ret(Some(out));
    f.finish();
    let mut vm = vm_for(m);
    assert_eq!(vm.call("fact", &[10]).unwrap(), Some(3_628_800));
}

#[test]
fn while_loop_sums() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("sum", 1, true);
    let n = f.param(0);
    let acc = f.local_c(0);
    let zero = f.konst(0);
    f.for_range(zero, n, |f, i| {
        let iv = f.load8(i);
        let a = f.load8(acc);
        let s = f.add(a, iv);
        f.store8(acc, s);
    });
    let r = f.load8(acc);
    f.ret(Some(r));
    f.finish();
    let mut vm = vm_for(m);
    assert_eq!(vm.call("sum", &[100]).unwrap(), Some(4950));
}

#[test]
fn break_and_continue() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("first_multiple", 2, true);
    let base = f.param(0);
    let limit = f.param(1);
    let found = f.local_c(0);
    let i = f.local_c(1);
    f.loop_(|f| {
        let iv = f.load8(i);
        let over = f.ugt(iv, limit);
        f.if_(over, |f| f.break_());
        let one = f.konst(1);
        let next = f.add(iv, one);
        f.store8(i, next);
        let rem = f.urem(iv, base);
        let zero = f.konst(0);
        let nz = f.ne(rem, zero);
        f.if_(nz, |f| f.continue_());
        f.store8(found, iv);
        f.break_();
    });
    let r = f.load8(found);
    f.ret(Some(r));
    f.finish();
    let mut vm = vm_for(m);
    assert_eq!(vm.call("first_multiple", &[7, 100]).unwrap(), Some(7));
}

#[test]
fn pm_state_survives_clean_restart_and_crash() {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("init", 1, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        f.store8(root, v);
        f.pm_persist_c(root, 8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.load8(root);
        f.ret(Some(v));
        f.finish();
    }
    let module = Arc::new(m.finish().unwrap());
    let mut vm = Vm::new(module.clone(), pool(), VmOpts::default());
    vm.call("init", &[777]).unwrap();
    // Crash (dirty lines dropped) and restart: the persist made it durable.
    let pool = vm.crash();
    let mut vm = Vm::new(module, pool, VmOpts::default());
    assert_eq!(vm.call("get", &[]).unwrap(), Some(777));
}

#[test]
fn unpersisted_pm_write_lost_on_crash() {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("init", 1, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        f.store8(root, v);
        // No persist!
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.load8(root);
        f.ret(Some(v));
        f.finish();
    }
    let module = Arc::new(m.finish().unwrap());
    let mut vm = Vm::new(module.clone(), pool(), VmOpts::default());
    vm.call("init", &[777]).unwrap();
    let pool = vm.crash();
    let mut vm = Vm::new(module, pool, VmOpts::default());
    assert_eq!(vm.call("get", &[]).unwrap(), Some(0));
}

#[test]
fn infinite_loop_traps_as_step_limit() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("spin", 0, false);
    f.loop_(|_| {});
    f.ret(None);
    f.finish();
    let module = Arc::new(m.finish().unwrap());
    let mut vm = Vm::new(
        module,
        pool(),
        VmOpts {
            step_limit: 10_000,
            ..VmOpts::default()
        },
    );
    let err = vm.call("spin", &[]).unwrap_err();
    assert_eq!(err.trap, Trap::StepLimit);
    assert!(err.at.is_some(), "hang reports a fault instruction");
}

#[test]
fn null_deref_segfaults_with_stack() {
    let mut m = ModuleBuilder::new();
    m.declare("inner", 0, false);
    {
        let mut f = m.func("outer", 0, false);
        f.call("inner", &[]);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("inner", 0, false);
        let z = f.konst(0);
        f.load8(z);
        f.ret(None);
        f.finish();
    }
    let mut vm = vm_for(m);
    let err = vm.call("outer", &[]).unwrap_err();
    assert_eq!(err.trap, Trap::Segfault { addr: 0 });
    assert_eq!(err.stack, vec!["outer".to_string(), "inner".to_string()]);
}

#[test]
fn assert_and_abort_trap() {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("check", 1, false);
        let p = f.param(0);
        f.assert_(p, 42);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("die", 0, false);
        f.abort_(9);
        f.ret(None);
        f.finish();
    }
    let mut vm = vm_for(m);
    assert!(vm.call("check", &[1]).is_ok());
    let e = vm.call("check", &[0]).unwrap_err();
    assert_eq!(e.trap, Trap::AssertFail { code: 42 });
    let e = vm.call("die", &[]).unwrap_err();
    assert_eq!(e.trap, Trap::Abort { code: 9 });
}

#[test]
fn globals_are_shared_and_reset_on_restart() {
    let mut m = ModuleBuilder::new();
    let g = m.global("counter", 8);
    {
        let mut f = m.func("bump", 0, true);
        let ga = f.global_addr(g);
        let v = f.load8(ga);
        let one = f.konst(1);
        let n = f.add(v, one);
        f.store8(ga, n);
        f.ret(Some(n));
        f.finish();
    }
    let module = Arc::new(m.finish().unwrap());
    let mut vm = Vm::new(module.clone(), pool(), VmOpts::default());
    assert_eq!(vm.call("bump", &[]).unwrap(), Some(1));
    assert_eq!(vm.call("bump", &[]).unwrap(), Some(2));
    let pool = vm.crash();
    let mut vm = Vm::new(module, pool, VmOpts::default());
    assert_eq!(
        vm.call("bump", &[]).unwrap(),
        Some(1),
        "globals are volatile"
    );
}

#[test]
fn spawn_join_and_mutex() {
    let mut m = ModuleBuilder::new();
    let g = m.global("shared", 8);
    let lk = m.global("lock", 8);
    m.declare("worker", 1, false);
    {
        // Each worker adds its arg to shared, under the lock, 100 times.
        let mut f = m.func("worker", 1, false);
        let amount = f.param(0);
        let hundred = f.konst(100);
        let zero = f.konst(0);
        f.for_range(zero, hundred, |f, _| {
            let lka = f.global_addr(lk);
            f.mutex_lock(lka);
            let ga = f.global_addr(g);
            let v = f.load8(ga);
            let n = f.add(v, amount);
            f.store8(ga, n);
            f.mutex_unlock(lka);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("main", 0, true);
        let w = f.func_addr("worker");
        let one = f.konst(1);
        let two = f.konst(2);
        let t1 = f.spawn(w, one);
        let t2 = f.spawn(w, two);
        f.join(t1);
        f.join(t2);
        let ga = f.global_addr(g);
        let v = f.load8(ga);
        f.ret(Some(v));
        f.finish();
    }
    let mut vm = vm_for(m);
    assert_eq!(vm.call("main", &[]).unwrap(), Some(300));
}

#[test]
fn self_lock_deadlocks() {
    let mut m = ModuleBuilder::new();
    let lk = m.global("lock", 8);
    let mut f = m.func("main", 0, false);
    let lka = f.global_addr(lk);
    f.mutex_lock(lka);
    f.mutex_lock(lka);
    f.ret(None);
    f.finish();
    let mut vm = vm_for(m);
    let e = vm.call("main", &[]).unwrap_err();
    assert_eq!(e.trap, Trap::Deadlock);
}

#[test]
fn crash_injection_fires_on_nth_occurrence() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("persist_twice", 0, false);
    let size = f.konst(64);
    let root = f.pm_root(size);
    let one = f.konst(1);
    f.store8(root, one);
    f.loc("persist-point");
    f.pm_persist_c(root, 8);
    let two = f.konst(2);
    f.store8(root, two);
    f.pm_persist_c(root, 8);
    f.ret(None);
    f.finish();
    let module = Arc::new(m.finish().unwrap());

    // Find the first pm_persist instruction by its loc label.
    let func = module.func_by_name("persist_twice").unwrap();
    let target = (0..module.func(func).insts.len() as u32)
        .map(|i| InstRef { func, inst: i })
        .find(|r| {
            module.loc_of(*r) == "persist-point"
                && matches!(
                    module.inst(*r).op,
                    pir::ir::Op::Intr {
                        intr: pir::ir::Intrinsic::PmPersist,
                        ..
                    }
                )
        })
        .expect("find persist instruction");

    let mut vm = Vm::new(module.clone(), pool(), VmOpts::default());
    vm.inject_crash(target, 1);
    let e = vm.call("persist_twice", &[]).unwrap_err();
    assert_eq!(e.trap, Trap::InjectedCrash);
    assert_eq!(e.at, Some(target));

    // After the crash, neither store is durable (crash fired before the
    // first persist executed).
    let pool = vm.crash();
    let mut vm = Vm::new(module, pool, VmOpts::default());
    vm.call("persist_twice", &[]).unwrap();
    // Now it completes; the root holds 2.
}

#[test]
fn trace_intrinsic_collects_records() {
    use pir::ir::Intrinsic;
    let mut m = ModuleBuilder::new();
    let mut f = m.func("t", 0, false);
    let guid = f.konst(99);
    let addr = f.konst(0xAB);
    f.intr(Intrinsic::Trace, &[guid, addr]);
    f.ret(None);
    f.finish();
    let mut vm = vm_for(m);
    vm.call("t", &[]).unwrap();
    assert_eq!(vm.drain_trace().collect::<Vec<_>>(), vec![(99, 0xAB)]);
    assert_eq!(vm.drain_trace().count(), 0);
    // Draining leaves the buffer empty, and later records follow.
    vm.call("t", &[]).unwrap();
    vm.call("t", &[]).unwrap();
    assert_eq!(vm.drain_trace().collect::<Vec<_>>(), vec![(99, 0xAB); 2]);
    assert_eq!(vm.trace_len(), 0);
    vm.call("t", &[]).unwrap();
    assert_eq!(vm.drain_trace().collect::<Vec<_>>(), vec![(99, 0xAB)]);
}

/// A crash capture is stamped with the trace records emitted before its
/// boundary, mid-call: the persist at site 1 (the root's allocation is
/// site 0) follows one record, the persist at site 2 follows two, and the
/// call runs on to its end.
#[test]
fn a_capture_is_stamped_with_the_trace_before_its_boundary() {
    use pir::ir::Intrinsic;
    use pmemsim::CrashPolicy;
    let mut m = ModuleBuilder::new();
    let mut f = m.func("t", 0, false);
    let size = f.konst(64);
    let root = f.pm_root(size);
    let one = f.konst(1);
    f.intr(Intrinsic::Trace, &[one, root]);
    f.pm_persist_c(root, 8);
    let two = f.konst(2);
    f.intr(Intrinsic::Trace, &[two, root]);
    f.pm_persist_c(root, 8);
    f.intr(Intrinsic::Trace, &[two, root]);
    f.ret(None);
    f.finish();
    let mut vm = vm_for(m);
    vm.pool_mut()
        .arm_captures(&[(1, CrashPolicy::DropStaged), (2, CrashPolicy::KeepStaged)]);
    vm.call("t", &[]).unwrap();
    let marks: Vec<(u64, Option<usize>)> = vm
        .pool_mut()
        .take_captures()
        .iter()
        .map(|c| (c.site, c.trace_len))
        .collect();
    assert_eq!(marks, [(1, Some(1)), (2, Some(2))]);
    assert_eq!(vm.trace_len(), 3);
}

#[test]
fn clock_is_driver_controlled() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("now", 0, true);
    let c = f.clock();
    f.ret(Some(c));
    f.finish();
    let mut vm = vm_for(m);
    vm.clock = 12345;
    assert_eq!(vm.call("now", &[]).unwrap(), Some(12345));
}

#[test]
fn memcpy_between_spaces_and_memcmp() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("roundtrip", 0, true);
    let size = f.konst(64);
    let pm = f.pm_alloc(size);
    let v = f.malloc(size);
    // Fill volatile buffer with a pattern, copy to PM, copy back, compare.
    let byte = f.konst(0x5A);
    f.memset(v, byte, size);
    f.memcpy(pm, v, size);
    let v2 = f.malloc(size);
    f.memcpy(v2, pm, size);
    let diff = f.memcmp(v, v2, size);
    f.ret(Some(diff));
    f.finish();
    let mut vm = vm_for(m);
    assert_eq!(vm.call("roundtrip", &[]).unwrap(), Some(0));
}

#[test]
fn use_after_vfree_segfaults() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("uaf", 0, true);
    let size = f.konst(32);
    let p = f.malloc(size);
    f.vfree(p);
    let v = f.load8(p);
    f.ret(Some(v));
    f.finish();
    let mut vm = vm_for(m);
    let e = vm.call("uaf", &[]).unwrap_err();
    assert!(matches!(e.trap, Trap::Segfault { .. }));
}

#[test]
fn pm_free_double_free_is_badfree() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("df", 0, false);
    let size = f.konst(32);
    let p = f.pm_alloc(size);
    f.pm_free(p);
    f.pm_free(p);
    f.ret(None);
    f.finish();
    let mut vm = vm_for(m);
    let e = vm.call("df", &[]).unwrap_err();
    assert!(matches!(e.trap, Trap::BadFree { .. }));
}

#[test]
fn tx_commit_checkpoints_ranges() {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("txn", 1, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        f.tx_begin();
        let eight = f.konst(8);
        f.tx_add(root, eight);
        let v = f.param(0);
        f.store8(root, v);
        f.tx_commit();
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.load8(root);
        f.ret(Some(v));
        f.finish();
    }
    let module = Arc::new(m.finish().unwrap());
    let mut vm = Vm::new(module.clone(), pool(), VmOpts::default());
    vm.call("txn", &[55]).unwrap();
    let pool = vm.crash();
    let mut vm = Vm::new(module, pool, VmOpts::default());
    assert_eq!(vm.call("get", &[]).unwrap(), Some(55));
}

#[test]
fn background_thread_progresses_during_idle() {
    let mut m = ModuleBuilder::new();
    let g = m.global("done", 8);
    m.declare("bg", 1, false);
    {
        let mut f = m.func("bg", 1, false);
        let v = f.param(0);
        let ga = f.global_addr(g);
        // Busy-wait a bit, then set the flag.
        let thousand = f.konst(200);
        let zero = f.konst(0);
        f.for_range(zero, thousand, |f, _| f.yield_());
        f.store8(ga, v);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("start", 0, false);
        let w = f.func_addr("bg");
        let v = f.konst(7);
        f.spawn(w, v);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("check", 0, true);
        let ga = f.global_addr(g);
        let v = f.load8(ga);
        f.ret(Some(v));
        f.finish();
    }
    let mut vm = vm_for(m);
    vm.call("start", &[]).unwrap();
    assert_eq!(vm.call("check", &[]).unwrap(), Some(0), "bg not done yet");
    vm.idle(100_000).unwrap();
    assert_eq!(
        vm.call("check", &[]).unwrap(),
        Some(7),
        "bg ran during idle"
    );
}

#[test]
fn select_and_shifts() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("mix", 2, true);
    let a = f.param(0);
    let b = f.param(1);
    let c = f.ult(a, b);
    let four = f.konst(4);
    let shifted = f.shl(a, four);
    let v = f.select(c, shifted, b);
    f.ret(Some(v));
    f.finish();
    let mut vm = vm_for(m);
    assert_eq!(vm.call("mix", &[2, 100]).unwrap(), Some(32));
    assert_eq!(vm.call("mix", &[200, 100]).unwrap(), Some(100));
}

#[test]
fn sized_loads_zero_extend_and_stores_truncate() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("sizes", 0, true);
    let size = f.konst(16);
    let p = f.malloc(size);
    let big = f.konst(0x1_FF); // 9 bits
    f.store(p, big, 1); // truncated to 0xFF
    let v = f.load(p, 1);
    f.ret(Some(v));
    f.finish();
    let mut vm = vm_for(m);
    assert_eq!(vm.call("sizes", &[]).unwrap(), Some(0xFF));
}

#[test]
fn bitflip_injection_corrupts_durable_state() {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("init", 0, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.konst(0);
        f.store8(root, v);
        f.pm_persist_c(root, 8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("read_flag", 0, true);
        f.loc("flag-read");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.load8(root);
        f.ret(Some(v));
        f.finish();
    }
    let module = Arc::new(m.finish().unwrap());
    let mut vm = Vm::new(module.clone(), pool(), VmOpts::default());
    vm.call("init", &[]).unwrap();
    let root_off = vm.pool_mut().root_offset().unwrap();
    // Flip bit 0 of the flag just before the 3rd flag read.
    let target = {
        let fid = module.func_by_name("read_flag").unwrap();
        (0..module.func(fid).insts.len() as u32)
            .map(|i| InstRef { func: fid, inst: i })
            .find(|r| matches!(module.inst(*r).op, pir::ir::Op::Load { .. }))
            .unwrap()
    };
    vm.inject_bitflip(target, 3, root_off, 0);
    assert_eq!(vm.call("read_flag", &[]).unwrap(), Some(0));
    assert_eq!(vm.call("read_flag", &[]).unwrap(), Some(0));
    assert_eq!(vm.call("read_flag", &[]).unwrap(), Some(1), "flip fired");
    // The corruption is durable: it survives a crash + restart.
    let p = vm.crash();
    let mut vm = Vm::new(module, p, VmOpts::default());
    assert_eq!(vm.call("read_flag", &[]).unwrap(), Some(1));
}

/// `probe(v)` returns what a local and a slot far above `stack_top` held
/// on entry, then stores `v` to both; `threaded(v)` runs it on a spawned
/// worker.
fn stack_probe_module() -> ModuleBuilder {
    let mut m = ModuleBuilder::new();
    let g = m.global("seen", 8);
    m.declare("probe", 1, true);
    m.declare("worker", 1, false);
    {
        let mut f = m.func("probe", 1, true);
        let v = f.param(0);
        let near = f.alloca(32);
        // Inside the thread's 1 MiB region, ~1 MiB above any alloca.
        let far = f.gep(near, (1 << 20) - 64);
        let a = f.load8(near);
        let b = f.load8(far);
        f.store8(near, v);
        f.store8(far, v);
        let seen = f.or(a, b);
        f.ret(Some(seen));
        f.finish();
    }
    {
        let mut f = m.func("worker", 1, false);
        let v = f.param(0);
        let seen = f.call("probe", &[v]).unwrap();
        let ga = f.global_addr(g);
        f.store8(ga, seen);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("threaded", 1, true);
        let v = f.param(0);
        let w = f.func_addr("worker");
        let t = f.spawn(w, v);
        f.join(t);
        let ga = f.global_addr(g);
        let seen = f.load8(ga);
        f.ret(Some(seen));
        f.finish();
    }
    m
}

#[test]
fn the_next_user_of_a_thread_slot_reads_a_zeroed_stack() {
    let mut vm = vm_for(stack_probe_module());
    for v in 1..=4u64 {
        // Same thread slot every call: what the previous call stored, next
        // to its frame and a megabyte above it, is gone.
        assert_eq!(vm.call("probe", &[v << 8]).unwrap(), Some(0));
        // The spawned worker's slot is recycled as well.
        assert_eq!(vm.call("threaded", &[v]).unwrap(), Some(0));
    }
    // Only what was stored to is backed: a page under each of the two
    // slots, for the deepest call's two threads — not 1 MiB per thread.
    assert_eq!(vm.mem().stack_resident_bytes(), 4 * pir::mem::STACK_PAGE);
}

#[test]
fn a_module_and_its_instrumented_clone_each_run_their_own_code() {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("put", 1, true);
    let size = f.konst(64);
    let root = f.pm_root(size);
    let v = f.param(0);
    f.store8(root, v);
    f.pm_persist_c(root, 8);
    let back = f.load8(root);
    f.ret(Some(back));
    f.finish();
    let mut original = Arc::new(m.finish().unwrap());

    // Decode the original by running it.
    let mut vm = Vm::new(original.clone(), pool(), VmOpts::default());
    assert_eq!(vm.call("put", &[5]).unwrap(), Some(5));
    let steps = vm.steps_total();
    assert_eq!(vm.trace_len(), 0);

    // The clone `instrument` derives and edits through `funcs` runs its
    // own instructions — the GUID trace — not the original's decoded form…
    let out = arthas::analyze_and_instrument(&original);
    assert!(!out.guid_map.is_empty());
    let instrumented = Arc::new(out.instrumented);
    let mut traced = Vm::new(instrumented.clone(), pool(), VmOpts::default());
    assert_eq!(traced.call("put", &[5]).unwrap(), Some(5));
    assert_eq!(traced.trace_len(), out.guid_map.len());
    assert!(traced.steps_total() > steps);

    // …and the original, on an old or a new VM, still runs untraced.
    let mut again = Vm::new(original.clone(), pool(), VmOpts::default());
    for vm in [&mut vm, &mut again] {
        assert_eq!(vm.call("put", &[6]).unwrap(), Some(6));
        assert_eq!(vm.trace_len(), 0);
    }
    assert_eq!(again.steps_total(), steps);

    // Editing the decoded module in place is not possible: with every VM
    // gone the `Arc` is unique, yet `make_mut` hands out a fresh copy,
    // which runs the edit.
    drop((vm, again));
    let before = Arc::as_ptr(&original);
    *Arc::make_mut(&mut original) = (*instrumented).clone();
    assert_ne!(Arc::as_ptr(&original), before);
    let mut edited = Vm::new(original, pool(), VmOpts::default());
    edited.call("put", &[7]).unwrap();
    assert_eq!(edited.trace_len(), out.guid_map.len());
}
