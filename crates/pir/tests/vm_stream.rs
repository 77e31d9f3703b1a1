//! The interpreter pinned as data.
//!
//! `golden/vm_stream.txt` is what the pre-decode interpreter (commit
//! `99cddcb`) printed for the streams below: one line per [`Vm::call`]
//! (per scheduler tick for the scenarios, whose `drive` makes its calls
//! inside) with the result or the full `VmError`, `steps_total`, and the
//! trace records emitted (count and hash); one `end` line per VM with the
//! pool image hash, `DeviceStats` and the volatile heap's live count and
//! bytes. Any interpreter must reproduce the file byte for byte.
//! `UPDATE_GOLDEN=1 cargo test -p pir --test vm_stream` regenerates it.

use std::fmt::Write as _;
use std::sync::Arc;

use arthas::SharedLog;
use pir::builder::ModuleBuilder;
use pir::ir::{Intrinsic, Module};
use pir::vm::{Trap, Vm, VmError, VmOpts};
use pm_apps::{cceh, kvcache, listdb, pmkv, segcache};
use pm_workload::harness::{AppSetup, Drive, RunCtx, Scenario, POOL_SIZE, RUN_TICKS};
use pm_workload::scenarios;
use pm_workload::ycsb::{KvOp, KvWorkload};
use pmemsim::PmPool;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/vm_stream.txt");

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fmt_err(e: &VmError) -> String {
    format!(
        "Err{{trap={:?} at={} loc={:?} stack=[{}] step={}}}",
        e.trap,
        e.at.map(|a| a.to_string()).unwrap_or_else(|| "-".into()),
        e.loc,
        e.stack.join(">"),
        e.step
    )
}

/// The VM-side half of every line: lifetime steps, the trace records
/// drained since the previous line, and any `print` output.
fn vm_state(vm: &mut Vm) -> String {
    let trace: Vec<_> = vm.drain_trace().collect();
    let mut h = FNV_SEED;
    for (guid, addr) in &trace {
        h = fnv(h, &guid.to_le_bytes());
        h = fnv(h, &addr.to_le_bytes());
    }
    let mut s = format!("steps={}", vm.steps_total());
    if !trace.is_empty() {
        write!(s, " trace={}:{h:016x}", trace.len()).unwrap();
    }
    let log = vm.take_log();
    if !log.is_empty() {
        write!(s, " log={log:?}").unwrap();
    }
    s
}

fn call(out: &mut String, vm: &mut Vm, name: &str, args: &[u64]) -> Result<Option<u64>, VmError> {
    let r = vm.call(name, args);
    let shown = match &r {
        Ok(v) => format!("{v:?}"),
        Err(e) => fmt_err(e),
    };
    writeln!(out, "{name}{args:?} -> {shown} {}", vm_state(vm)).unwrap();
    r
}

fn end(out: &mut String, vm: &Vm) {
    let image = vm.pool().snapshot().to_vec();
    writeln!(
        out,
        "end image={:016x} {:?} live=({}, {}) threads_live={}",
        fnv(FNV_SEED, &image),
        vm.pool().device().stats(),
        vm.mem().live_count(),
        vm.mem().live_bytes(),
        vm.has_live_threads(),
    )
    .unwrap();
}

// ---- the five applications -------------------------------------------------

type PutArgs = fn(u64, u64) -> Vec<u64>;

/// `(name, build, get, put, put arguments, delete)`: the calls
/// `arthas-repro reproduce` drives the five systems with.
#[allow(clippy::type_complexity)]
const APPS: [(&str, fn() -> Module, &str, &str, PutArgs, Option<&str>); 5] = [
    (
        "kvcache",
        kvcache::build,
        "get",
        "put",
        |k, v| vec![k, v, 16],
        Some("delete"),
    ),
    (
        "listdb",
        listdb::build,
        "llast",
        "rpush",
        |k, v| vec![k, 24, v],
        None,
    ),
    (
        "segcache",
        segcache::build,
        "get",
        "set",
        |k, v| vec![k, 32, v],
        None,
    ),
    (
        "pmkv",
        pmkv::build,
        "kv_get",
        "kv_put",
        |k, v| vec![k, v],
        Some("kv_del"),
    ),
    (
        "cceh",
        cceh::build,
        "lookup",
        "insert",
        |k, v| vec![k, v],
        None,
    ),
];

fn app_streams(out: &mut String) {
    for (i, (name, build, get, put, put_args, del)) in APPS.into_iter().enumerate() {
        writeln!(out, "== app {name}").unwrap();
        let module = Arc::new(arthas::analyze_and_instrument(&build()).instrumented);
        let mut pool = PmPool::create(POOL_SIZE).unwrap();
        let log = SharedLog::new();
        pool.set_sink(log.as_sink());
        let mut vm = Vm::new(module, pool, VmOpts::default());
        let mut workload = KvWorkload::ycsb_a(400, 1, 11 + i as u64);
        for n in 0..2000u64 {
            vm.clock = n;
            let _ = match (workload.next(), del) {
                (KvOp::Get(k), Some(del)) if n % 17 == 16 => call(out, &mut vm, del, &[k]),
                (KvOp::Get(k), _) => call(out, &mut vm, get, &[k]),
                (KvOp::Put(k, v), _) => call(out, &mut vm, put, &put_args(k, v)),
            };
        }
        end(out, &vm);
    }
}

// ---- the twelve scripted production runs -----------------------------------

/// `run_with_injection`'s restart loop without detector, pmCRIU or leak
/// monitor: drive every tick, restart on a crash or a trap, stop at the
/// second trap (where the detector would declare a hard fault).
fn production(out: &mut String, scn: &dyn Scenario) {
    writeln!(out, "== scenario {}", scn.id()).unwrap();
    let setup = AppSetup::new(scn.build_module());
    let opts = VmOpts {
        step_limit: 2_000_000,
        ..VmOpts::default()
    };
    let log = SharedLog::new();
    let mut pool = Some(PmPool::create(POOL_SIZE).unwrap());
    let mut ctx = RunCtx::new(1);
    let (mut t, mut traps) = (0u64, 0);
    'run: loop {
        let mut vm = Vm::new(setup.instrumented.clone(), pool.take().unwrap(), opts);
        vm.pool_mut().set_sink(log.as_sink());
        let restart = |out: &mut String, vm: Vm, ctx: &mut RunCtx| {
            end(out, &vm);
            ctx.restarts += 1;
            Some(vm.crash())
        };
        if ctx.restarts > 0 && call(out, &mut vm, scn.recover_call(), &[]).is_err() {
            traps += 1;
            pool = restart(out, vm, &mut ctx);
            if traps >= 2 {
                break;
            }
            continue;
        }
        scn.on_start(&mut vm, &mut ctx);
        while t < RUN_TICKS {
            vm.clock = t;
            let step = scn.drive(&mut vm, t, &mut ctx);
            let shown = match &step {
                Ok(d) => format!("{d:?}"),
                Err(e) => fmt_err(e),
            };
            writeln!(out, "tick {t} -> {shown} {}", vm_state(&mut vm)).unwrap();
            match step {
                Ok(Drive::Continue) => t += 1,
                Ok(Drive::CrashNow) => {
                    t += 1;
                    let items = scn.count_items(&mut vm);
                    writeln!(out, "items {items} {}", vm_state(&mut vm)).unwrap();
                    pool = restart(out, vm, &mut ctx);
                    continue 'run;
                }
                Err(e) => {
                    if e.trap == Trap::InjectedCrash {
                        t += 1;
                    } else {
                        traps += 1;
                    }
                    pool = restart(out, vm, &mut ctx);
                    if traps >= 2 {
                        break 'run;
                    }
                    continue 'run;
                }
            }
            if t % 10 == 0 {
                let items = scn.count_items(&mut vm);
                writeln!(out, "items {items} {}", vm_state(&mut vm)).unwrap();
            }
        }
        end(out, &vm);
        break;
    }
}

// ---- injections, threads, step limit, idle ---------------------------------

/// `fill(n)`: a loop that stores `i` to PM slot `i`, persists it and sums
/// the slots back; `sum()` re-reads them.
fn loop_module() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("fill", 1, true);
        let n = f.param(0);
        let size = f.konst(64 * 8);
        let root = f.pm_root(size);
        let acc = f.local_c(0);
        let zero = f.konst(0);
        f.for_range(zero, n, |f, i| {
            f.loc("fill:loop");
            let iv = f.load8(i);
            let eight = f.konst(8);
            let off = f.mul(iv, eight);
            let slot = f.gep_dyn(root, off);
            let one = f.konst(1);
            let v = f.add(iv, one);
            f.store8(slot, v);
            f.pm_persist_c(slot, 8);
            let back = f.load8(slot);
            let a = f.load8(acc);
            let s = f.add(a, back);
            f.store8(acc, s);
        });
        let r = f.load8(acc);
        f.ret(Some(r));
        f.finish();
    }
    {
        let mut f = m.func("sum", 1, true);
        let n = f.param(0);
        let size = f.konst(64 * 8);
        let root = f.pm_root(size);
        let acc = f.local_c(0);
        let zero = f.konst(0);
        f.for_range(zero, n, |f, i| {
            let iv = f.load8(i);
            let eight = f.konst(8);
            let off = f.mul(iv, eight);
            let slot = f.gep_dyn(root, off);
            let v = f.load8(slot);
            let a = f.load8(acc);
            let s = f.add(a, v);
            f.store8(acc, s);
        });
        let r = f.load8(acc);
        f.ret(Some(r));
        f.finish();
    }
    m.finish().unwrap()
}

fn small_pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap()
}

fn injections(out: &mut String) {
    let module = Arc::new(loop_module());
    let persist = pm_apps::util::find_inst(&module, "fill", "fill:loop", pm_apps::util::is_persist)
        .expect("persist in loop");
    let store = pm_apps::util::find_inst(&module, "fill", "fill:loop", pm_apps::util::is_store)
        .expect("store in loop");
    for nth in [1u64, 5] {
        writeln!(out, "== inject_crash nth={nth}").unwrap();
        let mut vm = Vm::new(module.clone(), small_pool(), VmOpts::default());
        vm.inject_crash(persist, nth);
        let _ = call(out, &mut vm, "fill", &[8]);
        end(out, &vm);
        let mut vm = Vm::new(module.clone(), vm.crash(), VmOpts::default());
        let _ = call(out, &mut vm, "sum", &[8]);
        let _ = call(out, &mut vm, "fill", &[8]);
        end(out, &vm);
    }
    for nth in [1u64, 3] {
        writeln!(out, "== inject_bitflip nth={nth}").unwrap();
        let mut vm = Vm::new(module.clone(), small_pool(), VmOpts::default());
        let _ = call(out, &mut vm, "fill", &[8]);
        let root = vm.pool_mut().root_offset().unwrap();
        // Two flips armed on one instruction, plus a crash later on it.
        vm.inject_bitflip(store, nth, root + 8, 6);
        vm.inject_bitflip(store, nth, root + 16, 0);
        vm.inject_crash(store, nth + 4);
        let _ = call(out, &mut vm, "fill", &[8]);
        let _ = call(out, &mut vm, "sum", &[8]);
        end(out, &vm);
    }
}

/// `main(n)` spawns three workers that each add their id to a shared
/// counter `n` times under a mutex, printing and yielding as they go.
fn thread_module() -> Module {
    let mut m = ModuleBuilder::new();
    let counter = m.global("counter", 8);
    let lock = m.global("lock", 8);
    let rounds = m.global("rounds", 8);
    m.declare("worker", 1, false);
    {
        let mut f = m.func("worker", 1, false);
        let id = f.param(0);
        let ca = f.global_addr(counter);
        let la = f.global_addr(lock);
        let ra = f.global_addr(rounds);
        let n = f.load8(ra);
        let zero = f.konst(0);
        f.for_range(zero, n, |f, _| {
            f.mutex_lock(la);
            let c = f.load8(ca);
            f.print(id);
            let s = f.add(c, id);
            f.store8(ca, s);
            f.mutex_unlock(la);
            f.yield_();
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("main", 1, true);
        let n = f.param(0);
        let ra = f.global_addr(rounds);
        f.store8(ra, n);
        let w = f.func_addr("worker");
        let tids: Vec<_> = (1..=3u64)
            .map(|id| {
                let idv = f.konst(id);
                f.spawn(w, idv)
            })
            .collect();
        for t in tids {
            f.join(t);
        }
        let ca = f.global_addr(counter);
        let v = f.load8(ca);
        f.ret(Some(v));
        f.finish();
    }
    {
        // A worker left running in the background for `idle`.
        let mut f = m.func("start_bg", 1, false);
        let n = f.param(0);
        let ra = f.global_addr(rounds);
        f.store8(ra, n);
        let w = f.func_addr("worker");
        let id = f.konst(5);
        f.spawn(w, id);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("spin", 0, false);
        f.loop_(|f| {
            let one = f.konst(1);
            f.print(one);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("counter", 0, true);
        let ca = f.global_addr(counter);
        let v = f.load8(ca);
        f.ret(Some(v));
        f.finish();
    }
    m.finish().unwrap()
}

fn threads(out: &mut String) {
    let module = Arc::new(thread_module());
    for quantum in [1u64, 7, 50] {
        writeln!(out, "== threads quantum={quantum}").unwrap();
        let opts = VmOpts {
            quantum,
            step_limit: 5_000,
            ..VmOpts::default()
        };
        let mut vm = Vm::new(module.clone(), small_pool(), opts);
        let _ = call(out, &mut vm, "main", &[6]);
        let _ = call(out, &mut vm, "main", &[3]);
        // A background worker interleaved with foreground calls and idles.
        let _ = call(out, &mut vm, "start_bg", &[40]);
        for steps in [0u64, 1, 13, 100] {
            let r = vm.idle(steps);
            writeln!(
                out,
                "idle({steps}) -> {:?} {}",
                r.is_ok(),
                vm_state(&mut vm)
            )
            .unwrap();
            let _ = call(out, &mut vm, "counter", &[]);
        }
        // The step budget runs out mid-call; the VM stays usable.
        let _ = call(out, &mut vm, "spin", &[]);
        let _ = call(out, &mut vm, "counter", &[]);
        let _ = call(out, &mut vm, "main", &[2]);
        let _ = call(out, &mut vm, "nope", &[]);
        let _ = call(out, &mut vm, "main", &[]);
        end(out, &vm);
    }
}

/// Every instruction the streams above never reach: indirect calls,
/// sized accesses, the volatile heap, `memcpy`/`memset`/`memcmp` across
/// address spaces (overlapping, zero-length, faulting), transactions,
/// traps of every kind.
fn corners_module() -> Module {
    let mut m = ModuleBuilder::new();
    let g = m.global("g", 64);
    m.declare("twice", 1, true);
    {
        let mut f = m.func("twice", 1, true);
        let p = f.param(0);
        let r = f.add(p, p);
        f.ret(Some(r));
        f.finish();
    }
    {
        let mut f = m.func("indirect", 2, true);
        let tagged = f.func_addr("twice");
        let bias = f.param(0);
        let target = f.add(tagged, bias);
        let arg = f.param(1);
        let r = f.call_indirect(target, &[arg], true).unwrap();
        f.ret(Some(r));
        f.finish();
    }
    {
        let mut f = m.func("sized", 1, true);
        let v = f.param(0);
        let buf = f.alloca(16);
        f.store8(buf, v);
        let b1 = f.load(buf, 1);
        let b2 = f.load(buf, 2);
        let b4 = f.load(buf, 4);
        let hi = f.gep(buf, 8);
        f.store(hi, v, 2);
        let h = f.load8(hi);
        let x = f.xor(b1, b2);
        let y = f.xor(b4, h);
        let r = f.add(x, y);
        f.ret(Some(r));
        f.finish();
    }
    {
        // memcpy(dst_kind, src_kind, len) over fresh 256-byte buffers
        // seeded with a pattern: 0 = stack, 1 = volatile heap, 2 = PM,
        // 3 = global; overlap when dst == src kind (dst = buf + 8).
        let mut f = m.func("copy", 3, true);
        let len = f.param(2);
        let two_fifty_six = f.konst(256);
        let stack = f.alloca(256);
        let heap = f.malloc(two_fifty_six);
        let pm = f.pm_alloc(two_fifty_six);
        let glob = f.global_addr(g);
        let pick = |f: &mut pir::builder::FuncBuilder<'_>, kind| {
            let one = f.konst(1);
            let two = f.konst(2);
            let is1 = f.eq(kind, one);
            let is2 = f.eq(kind, two);
            let three = f.konst(3);
            let is3 = f.eq(kind, three);
            let a = f.select(is1, heap, stack);
            let b = f.select(is2, pm, a);
            f.select(is3, glob, b)
        };
        let dk = f.param(0);
        let sk = f.param(1);
        let src = pick(&mut f, sk);
        let dst0 = pick(&mut f, dk);
        let same = f.eq(dk, sk);
        let eight = f.konst(8);
        let zero = f.konst(0);
        let shift = f.select(same, eight, zero);
        let dst = f.gep_dyn(dst0, shift);
        let pat = f.konst(0xA5);
        let forty = f.konst(40);
        f.memset(src, pat, forty);
        let seven = f.konst(7);
        f.store8(src, seven);
        f.memcpy(dst, src, len);
        let diff = f.memcmp(dst, src, len);
        let first = f.load8(dst);
        let r = f.add(first, diff);
        f.vfree(heap);
        f.pm_free(pm);
        f.ret(Some(r));
        f.finish();
    }
    {
        let mut f = m.func("tx", 2, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        let abort = f.param(1);
        f.tx_begin();
        let eight = f.konst(8);
        f.tx_add(root, eight);
        f.store8(root, v);
        f.if_else(abort, |f| f.tx_abort(), |f| f.tx_commit());
        let r = f.load8(root);
        let avail = f.pm_avail();
        let base = f.intr(Intrinsic::PmBase, &[]).unwrap();
        let x = f.xor(avail, base);
        let out = f.add(r, x);
        f.ret(Some(out));
        f.finish();
    }
    {
        // trap(kind): one trap of each sort, from a nested frame.
        m.declare("trap_inner", 1, true);
        let mut f = m.func("trap_inner", 1, true);
        f.loc("corners:trap");
        let k = f.param(0);
        let case = |f: &mut pir::builder::FuncBuilder<'_>, n: u64| {
            let c = f.konst(n);
            f.eq(k, c)
        };
        let c0 = case(&mut f, 0);
        f.if_(c0, |f| {
            let z = f.konst(0);
            let one = f.konst(1);
            let r = f.udiv(one, z);
            f.ret(Some(r));
        });
        let c1 = case(&mut f, 1);
        f.if_(c1, |f| {
            let z = f.konst(0);
            let one = f.konst(1);
            let r = f.urem(one, z);
            f.ret(Some(r));
        });
        let c2 = case(&mut f, 2);
        f.if_(c2, |f| {
            let z = f.konst(0);
            f.assert_(z, 77);
        });
        let c3 = case(&mut f, 3);
        f.if_(c3, |f| f.abort_(9));
        let c4 = case(&mut f, 4);
        f.if_(c4, |f| {
            let wild = f.konst(0xdead);
            f.vfree(wild);
        });
        let c5 = case(&mut f, 5);
        f.if_(c5, |f| {
            let sixteen = f.konst(16);
            let p = f.pm_alloc(sixteen);
            f.pm_free(p);
            f.pm_free(p);
        });
        let c6 = case(&mut f, 6);
        f.if_(c6, |f| {
            // A PM store past the end of the pool.
            let base = f.intr(Intrinsic::PmBase, &[]).unwrap();
            let far = f.konst(1 << 40);
            let p = f.gep_dyn(base, far);
            f.store8(p, far);
        });
        let c7 = case(&mut f, 7);
        f.if_(c7, |f| {
            // Stack overrun past an alloca stays inside the 1 MiB region…
            let buf = f.alloca(8);
            let far = f.gep(buf, 1 << 19);
            let v = f.konst(0x1234);
            f.store8(far, v);
            let back = f.load8(far);
            // …and a straddle of the region's end faults.
            let edge = f.gep(buf, (1 << 20) - 4);
            let r = f.load8(edge);
            let s = f.add(back, r);
            f.ret(Some(s));
        });
        let c8 = case(&mut f, 8);
        f.if_(c8, |f| {
            let big = f.alloca(1 << 19);
            let big2 = f.alloca((1 << 19) + 16);
            let x = f.add(big, big2);
            f.ret(Some(x));
        });
        let c9 = case(&mut f, 9);
        f.if_(c9, |f| {
            let r = f.call("trap_inner", &[k]).unwrap();
            f.ret(Some(r));
        });
        let c10 = case(&mut f, 10);
        f.if_(c10, |f| {
            let la = f.konst(0x77);
            f.mutex_lock(la);
            f.mutex_lock(la);
        });
        let c11 = case(&mut f, 11);
        f.if_(c11, |f| {
            let la = f.konst(0x78);
            f.mutex_unlock(la);
        });
        let c12 = case(&mut f, 12);
        f.if_(c12, |f| {
            // memcpy with a garbage length, then one whose source faults.
            let buf = f.alloca(64);
            let len = f.konst(17 << 20);
            f.memcpy(buf, buf, len);
        });
        let c13 = case(&mut f, 13);
        f.if_(c13, |f| {
            let buf = f.alloca(64);
            let sixty_four = f.konst(64);
            let heap = f.malloc(sixty_four);
            let len = f.konst(65);
            f.memcpy(buf, heap, len);
        });
        let c14 = case(&mut f, 14);
        f.if_(c14, |f| {
            // Source readable, destination not: the read still counts.
            let sixty_four = f.konst(64);
            let pm = f.pm_alloc(sixty_four);
            let heap = f.malloc(sixty_four);
            let dst = f.gep(heap, 32);
            f.memcpy(dst, pm, sixty_four);
        });
        let c15 = case(&mut f, 15);
        f.if_(c15, |f| {
            let sixty_four = f.konst(64);
            let pm = f.pm_alloc(sixty_four);
            let far = f.konst(1 << 30);
            let one = f.konst(1);
            f.memset(pm, one, far);
        });
        let c16 = case(&mut f, 16);
        f.if_(c16, |f| {
            let sixty_four = f.konst(64);
            let pm = f.pm_alloc(sixty_four);
            let null = f.konst(0);
            let r = f.memcmp(pm, null, sixty_four);
            f.ret(Some(r));
        });
        let c17 = case(&mut f, 17);
        f.if_(c17, |f| {
            let w = f.konst(3);
            let z = f.konst(0);
            f.spawn(w, z);
        });
        let c18 = case(&mut f, 18);
        f.if_(c18, |f| {
            let t = f.konst(63);
            f.join(t);
        });
        f.intr(Intrinsic::Abort, &[k]);
        f.ret_c(0);
        f.finish();
    }
    {
        let mut f = m.func("trap", 1, true);
        let k = f.param(0);
        let r = f.call("trap_inner", &[k]).unwrap();
        f.ret(Some(r));
        f.finish();
    }
    {
        // Writes a marker at the top of the stack region and a local,
        // returns what the slots held on entry.
        let mut f = m.func("stack_probe", 1, true);
        let v = f.param(0);
        let buf = f.alloca(32);
        let far = f.gep(buf, (1 << 20) - 64);
        let before_near = f.load8(buf);
        let before_far = f.load8(far);
        f.store8(buf, v);
        f.store8(far, v);
        let r = f.add(before_near, before_far);
        f.ret(Some(r));
        f.finish();
    }
    m.finish().unwrap()
}

fn corners(out: &mut String) {
    writeln!(out, "== corners").unwrap();
    let module = Arc::new(corners_module());
    let opts = VmOpts {
        max_depth: 12,
        ..VmOpts::default()
    };
    let log = SharedLog::new();
    let mut pool = small_pool();
    pool.set_sink(log.as_sink());
    let mut vm = Vm::new(module, pool, opts);
    for bias in [0u64, 1, 1 << 61, 1 << 20] {
        let _ = call(out, &mut vm, "indirect", &[bias, 21]);
    }
    let _ = call(out, &mut vm, "sized", &[0x1122_3344_5566_7788]);
    for (d, s) in [
        (0u64, 1u64),
        (1, 2),
        (2, 0),
        (2, 2),
        (0, 0),
        (1, 1),
        (3, 2),
        (2, 3),
    ] {
        for len in [0u64, 1, 24, 200] {
            let _ = call(out, &mut vm, "copy", &[d, s, len]);
        }
    }
    let _ = call(out, &mut vm, "tx", &[5, 0]);
    let _ = call(out, &mut vm, "tx", &[6, 1]);
    for kind in 0..20u64 {
        let _ = call(out, &mut vm, "trap", &[kind]);
        let _ = call(out, &mut vm, "stack_probe", &[kind + 1]);
    }
    end(out, &vm);
}

#[test]
fn the_interpreter_reproduces_the_recorded_stream() {
    let mut out = String::new();
    app_streams(&mut out);
    for scn in scenarios::all() {
        production(&mut out, scn.as_ref());
    }
    injections(&mut out);
    threads(&mut out);
    corners(&mut out);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden/vm_stream.txt");
    if let Some((n, (got, want))) = out
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!("line {} differs\n  got: {got}\n want: {want}", n + 1);
    }
    assert_eq!(out.lines().count(), want.lines().count(), "line count");
}
