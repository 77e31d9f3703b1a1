//! `pmkv` — a PMEMKV-like key-value engine written in pir.
//!
//! Deletion is lazy, as in the real system: `kv_del` unlinks the entry
//! from the persistent index and hands it to an asynchronous free worker.
//!
//! The reproduced fault (f12, PMEMKV issue #7): the pending-free queue is
//! a **volatile** structure. A crash before the worker drains it loses the
//! queue — but the entries were already unlinked from the persistent
//! index, so they remain allocated in PM forever: a persistent memory leak
//! that grows with every crash (Table 2's "Persistent leak").

use pir::builder::ModuleBuilder;
use pir::ir::Module;

/// Root: index pointer @0, count @8.
pub const ROOT_SIZE: u64 = 32;
/// Root field offsets.
pub mod root {
    /// Index bucket array pointer.
    pub const INDEX: i64 = 0;
    /// Live key count.
    pub const COUNT: i64 = 8;
}

/// Index buckets.
pub const BUCKETS: u64 = 64;
/// Entry: key @0, value @8, next @16, fq_next @24; 64 bytes (value
/// payload padding, matching the engine's fixed-size leaf nodes).
pub const ENTRY_SIZE: u64 = 64;

/// Miss marker.
pub const MISS: u64 = u64::MAX;
/// Abort code for PM exhaustion.
pub const OOM_ABORT: u64 = 81;

/// Builds the pmkv module.
///
/// Handlers: `pmkv_init()`, `pmkv_recover()`, `start_worker()`,
/// `kv_put(k, v) -> ok`, `kv_get(k) -> v|MISS`, `kv_del(k) -> ok`,
/// `live_count() -> n`.
pub fn build() -> Module {
    let mut m = ModuleBuilder::new();
    // The pending-free queue head lives in DRAM (the bug's essence).
    let fq_head = m.global("fq_head", 8);
    let worker_stop = m.global("worker_stop", 8);

    m.declare("pmkv_init", 0, false);
    m.declare("pmkv_recover", 0, false);
    m.declare("free_worker", 1, false);
    m.declare("start_worker", 0, false);
    m.declare("kv_put", 2, true);
    m.declare("kv_get", 1, true);
    m.declare("kv_del", 1, true);
    m.declare("live_count", 0, true);

    {
        let mut f = m.func("pmkv_init", 0, false);
        f.loc("pmemkv.c:init");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let ip = f.gep(r, root::INDEX);
        let idx = f.load8(ip);
        let zero = f.konst(0);
        let fresh = f.eq(idx, zero);
        f.if_(fresh, |f| {
            let sz = f.konst(BUCKETS * 8);
            let t = f.pm_alloc(sz);
            let z = f.konst(0);
            let oom = f.eq(t, z);
            f.if_(oom, |f| f.abort_(OOM_ABORT));
            let ip = f.gep(r, root::INDEX);
            f.store8(ip, t);
            let cp = f.gep(r, root::COUNT);
            let z2 = f.konst(0);
            f.store8(cp, z2);
            let len = f.konst(ROOT_SIZE);
            f.pm_persist(r, len);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("pmkv_recover", 0, false);
        f.loc("pmemkv.c:recover");
        f.recover_begin();
        f.call("pmkv_init", &[]);
        // Walk only the index (the real recovery has no record of the
        // volatile pending-free queue — that is the bug).
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let ip = f.gep(r, root::INDEX);
        let idx = f.load8(ip);
        let zero = f.konst(0);
        let nb = f.konst(BUCKETS);
        f.for_range(zero, nb, |f, bslot| {
            let b = f.load8(bslot);
            let eight = f.konst(8);
            let boff = f.mul(b, eight);
            let bp = f.gep_dyn(idx, boff);
            let head = f.load8(bp);
            let cur = f.local(head);
            f.while_(
                |f| {
                    let cv = f.load8(cur);
                    let z = f.konst(0);
                    f.ne(cv, z)
                },
                |f| {
                    let cv = f.load8(cur);
                    f.load8(cv);
                    let vp = f.gep(cv, 8);
                    f.load8(vp);
                    let np = f.gep(cv, 16);
                    let nxt = f.load8(np);
                    f.store8(cur, nxt);
                },
            );
        });
        f.recover_end();
        f.ret(None);
        f.finish();
    }

    // ---- async free worker ---------------------------------------------------
    {
        let mut f = m.func("free_worker", 1, false);
        f.loc("pmemkv.c:worker");
        // The worker is *lazy*: it drains at most once per logical second
        // (the driver advances the clock between request batches), so a
        // crash can always beat the drain — the f12 window.
        let now0 = f.clock();
        let last_drain = f.local(now0);
        f.loop_(|f| {
            let stopp = f.global_addr(worker_stop);
            let stop = f.load8(stopp);
            let zero = f.konst(0);
            let stopping = f.ne(stop, zero);
            f.if_(stopping, |f| f.ret(None));
            let now = f.clock();
            let last = f.load8(last_drain);
            let fresh_tick = f.ne(now, last);
            f.if_else(
                fresh_tick,
                |f| {
                    let now = f.clock();
                    f.store8(last_drain, now);
                    // Drain the whole queue this tick.
                    f.loop_(|f| {
                        let qp = f.global_addr(fq_head);
                        let head = f.load8(qp);
                        let zero = f.konst(0);
                        let empty = f.eq(head, zero);
                        f.if_(empty, |f| f.break_());
                        let np = f.gep(head, 24);
                        let nxt = f.load8(np);
                        let qp2 = f.global_addr(fq_head);
                        f.store8(qp2, nxt);
                        f.loc("pmemkv.c:lazy-free");
                        f.pm_free(head);
                        f.yield_();
                    });
                },
                |f| f.yield_(),
            );
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("start_worker", 0, false);
        f.loc("pmemkv.c:start-worker");
        let w = f.func_addr("free_worker");
        let z = f.konst(0);
        f.spawn(w, z);
        f.ret(None);
        f.finish();
    }

    // ---- put/get/del ------------------------------------------------------------
    {
        let mut f = m.func("kv_put", 2, true);
        f.loc("pmemkv.c:put");
        let k = f.param(0);
        let v = f.param(1);
        f.call("pmkv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let ip = f.gep(r, root::INDEX);
        let idx = f.load8(ip);
        let nb = f.konst(BUCKETS);
        let bi = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(bi, eight);
        let bp = f.gep_dyn(idx, boff);
        // Update in place when present.
        let head = f.load8(bp);
        let cur = f.local(head);
        f.while_(
            |f| {
                let cv = f.load8(cur);
                let z = f.konst(0);
                f.ne(cv, z)
            },
            |f| {
                let cv = f.load8(cur);
                let kp = f.gep(cv, 0);
                let ek = f.load8(kp);
                let hit = f.eq(ek, k);
                f.if_(hit, |f| {
                    let cv = f.load8(cur);
                    let vp = f.gep(cv, 8);
                    f.store8(vp, v);
                    let e8 = f.konst(8);
                    f.pm_persist(vp, e8);
                    f.ret_c(1);
                });
                let np = f.gep(cv, 16);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
            },
        );
        let sz = f.konst(ENTRY_SIZE);
        let e = f.pm_alloc(sz);
        let zero = f.konst(0);
        let oom = f.eq(e, zero);
        f.if_(oom, |f| {
            f.loc("pmemkv.c:put-oom");
            f.abort_(OOM_ABORT);
        });
        f.store8(e, k);
        let vp = f.gep(e, 8);
        f.store8(vp, v);
        let head2 = f.load8(bp);
        let np = f.gep(e, 16);
        f.store8(np, head2);
        let esz = f.konst(ENTRY_SIZE);
        f.pm_persist(e, esz);
        f.loc("pmemkv.c:put-bucket");
        f.store8(bp, e);
        let e8 = f.konst(8);
        f.pm_persist(bp, e8);
        let cp = f.gep(r, root::COUNT);
        let c = f.load8(cp);
        let one = f.konst(1);
        let c2 = f.add(c, one);
        f.store8(cp, c2);
        let e8b = f.konst(8);
        f.pm_persist(cp, e8b);
        f.ret_c(1);
        f.finish();
    }
    {
        let mut f = m.func("kv_get", 1, true);
        f.loc("pmemkv.c:get");
        let k = f.param(0);
        f.call("pmkv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let ip = f.gep(r, root::INDEX);
        let idx = f.load8(ip);
        let nb = f.konst(BUCKETS);
        let bi = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(bi, eight);
        let bp = f.gep_dyn(idx, boff);
        let head = f.load8(bp);
        let cur = f.local(head);
        f.while_(
            |f| {
                let cv = f.load8(cur);
                let z = f.konst(0);
                f.ne(cv, z)
            },
            |f| {
                let cv = f.load8(cur);
                let kp = f.gep(cv, 0);
                let ek = f.load8(kp);
                let hit = f.eq(ek, k);
                f.if_(hit, |f| {
                    let cv = f.load8(cur);
                    let vp = f.gep(cv, 8);
                    let v = f.load8(vp);
                    f.ret(Some(v));
                });
                let np = f.gep(cv, 16);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
            },
        );
        let miss = f.konst(MISS);
        f.ret(Some(miss));
        f.finish();
    }
    {
        let mut f = m.func("kv_del", 1, true);
        f.loc("pmemkv.c:del");
        let k = f.param(0);
        f.call("pmkv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let ip = f.gep(r, root::INDEX);
        let idx = f.load8(ip);
        let nb = f.konst(BUCKETS);
        let bi = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(bi, eight);
        let bp = f.gep_dyn(idx, boff);
        let head = f.load8(bp);
        let zero = f.konst(0);
        let empty = f.eq(head, zero);
        f.if_(empty, |f| {
            let z = f.konst(0);
            f.ret(Some(z));
        });
        let victim = f.local_c(0);
        let hkp = f.gep(head, 0);
        let hk = f.load8(hkp);
        let at_head = f.eq(hk, k);
        f.if_else(
            at_head,
            |f| {
                let np = f.gep(head, 16);
                let nxt = f.load8(np);
                f.loc("pmemkv.c:del-head");
                f.store8(bp, nxt);
                let e8 = f.konst(8);
                f.pm_persist(bp, e8);
                f.store8(victim, head);
            },
            |f| {
                let cur = f.local(head);
                f.while_(
                    |f| {
                        let cv = f.load8(cur);
                        let np = f.gep(cv, 16);
                        let nxt = f.load8(np);
                        let z = f.konst(0);
                        f.ne(nxt, z)
                    },
                    |f| {
                        let cv = f.load8(cur);
                        let np = f.gep(cv, 16);
                        let nxt = f.load8(np);
                        let nkp = f.gep(nxt, 0);
                        let nk = f.load8(nkp);
                        let hit = f.eq(nk, k);
                        f.if_(hit, |f| {
                            let nnp = f.gep(nxt, 16);
                            let after = f.load8(nnp);
                            let cv = f.load8(cur);
                            let np = f.gep(cv, 16);
                            f.loc("pmemkv.c:del-mid");
                            f.store8(np, after);
                            let e8 = f.konst(8);
                            f.pm_persist(np, e8);
                            f.store8(victim, nxt);
                            f.break_();
                        });
                        f.store8(cur, nxt);
                    },
                );
            },
        );
        let vv = f.load8(victim);
        let found = f.ne(vv, zero);
        f.if_(found, |f| {
            // Unlinked from the persistent index; queue for the async
            // worker on the VOLATILE free queue (f12's root cause).
            f.loc("pmemkv.c:queue-free");
            let qp = f.global_addr(fq_head);
            let qh = f.load8(qp);
            let vv = f.load8(victim);
            let fqp = f.gep(vv, 24);
            f.store8(fqp, qh);
            let e8 = f.konst(8);
            f.pm_persist(fqp, e8);
            f.store8(qp, vv);
            let rs2 = f.konst(ROOT_SIZE);
            let r2 = f.pm_root(rs2);
            let cp = f.gep(r2, root::COUNT);
            let c = f.load8(cp);
            let one = f.konst(1);
            let c2 = f.sub(c, one);
            f.store8(cp, c2);
            let e8b = f.konst(8);
            f.pm_persist(cp, e8b);
            f.ret_c(1);
        });
        let z = f.konst(0);
        f.ret(Some(z));
        f.finish();
    }
    {
        let mut f = m.func("live_count", 0, true);
        f.call("pmkv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let cp = f.gep(r, root::COUNT);
        let c = f.load8(cp);
        f.ret(Some(c));
        f.finish();
    }

    m.finish().expect("pmkv module verifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::vm::{Vm, VmOpts};
    use std::sync::Arc;

    fn pool() -> pmemsim::PmPool {
        pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap()
    }

    #[test]
    fn put_get_del_roundtrip() {
        let module = Arc::new(build());
        let mut v = Vm::new(module, pool(), VmOpts::default());
        v.call("kv_put", &[1, 100]).unwrap();
        v.call("kv_put", &[2, 200]).unwrap();
        assert_eq!(v.call("kv_get", &[1]).unwrap(), Some(100));
        assert_eq!(v.call("kv_del", &[1]).unwrap(), Some(1));
        assert_eq!(v.call("kv_get", &[1]).unwrap(), Some(MISS));
        assert_eq!(v.call("kv_get", &[2]).unwrap(), Some(200));
    }

    #[test]
    fn worker_eventually_frees_deleted_entries() {
        let module = Arc::new(build());
        let mut v = Vm::new(module, pool(), VmOpts::default());
        v.call("start_worker", &[]).unwrap();
        for k in 1..20u64 {
            v.call("kv_put", &[k, k]).unwrap();
        }
        let full = v.pool_mut().allocated_bytes().unwrap();
        for k in 1..20u64 {
            v.call("kv_del", &[k]).unwrap();
        }
        // Let the background worker drain the queue on the next tick.
        v.clock += 1;
        v.idle(200_000).unwrap();
        let drained = v.pool_mut().allocated_bytes().unwrap();
        assert!(
            drained + 19 * ENTRY_SIZE <= full,
            "worker freed the deleted entries: {full} -> {drained}"
        );
    }

    #[test]
    fn f12_crash_before_async_free_leaks() {
        let module = Arc::new(build());
        let mut v = Vm::new(module.clone(), pool(), VmOpts::default());
        v.call("start_worker", &[]).unwrap();
        for k in 1..20u64 {
            v.call("kv_put", &[k, k]).unwrap();
        }
        for k in 1..20u64 {
            v.call("kv_del", &[k]).unwrap();
        }
        // Crash before the worker runs: the volatile queue is gone.
        let baseline = {
            // What a clean store of the same size uses.
            let module2 = Arc::new(build());
            let mut v2 = Vm::new(module2, pool(), VmOpts::default());
            v2.call("pmkv_init", &[]).unwrap();
            v2.pool_mut().allocated_bytes().unwrap()
        };
        let p = v.crash();
        let mut v = Vm::new(module, p, VmOpts::default());
        v.call("pmkv_recover", &[]).unwrap();
        v.call("start_worker", &[]).unwrap();
        v.clock += 1;
        v.idle(200_000).unwrap();
        let after = v.pool_mut().allocated_bytes().unwrap();
        // All 19 entries are still allocated but unreachable: leaked.
        assert!(
            after >= baseline + 19 * ENTRY_SIZE,
            "leak persisted across restart: baseline {baseline}, after {after}"
        );
        assert_eq!(v.call("live_count", &[]).unwrap(), Some(0));
    }
}
