//! `segcache` — a Pelikan-like persistent cache written in pir.
//!
//! Items live in a chain of fixed-size PM blocks; a stats subsystem is
//! initialised lazily. Two of the paper's reproduced faults (Table 2):
//!
//! | id  | bug (present in this code)                                    |
//! |-----|---------------------------------------------------------------|
//! | f10 | the item header stores the value length in 8 bits; for values |
//! |     | longer than 255 bytes the capacity check passes spuriously    |
//! |     | and the value bytes overwrite the item's chain pointer →      |
//! |     | segfault on a later scan                                      |
//! | f11 | enabling metrics persists the `metrics_enabled` flag before   |
//! |     | the stats block is allocated; a crash in between leaves the   |
//! |     | flag set with a null stats pointer → every `stats` request    |
//! |     | dereferences null                                             |

use pir::builder::ModuleBuilder;
use pir::ir::Module;

/// Root: chain head @0, item count @8, metrics flag @16, stats ptr @24.
pub const ROOT_SIZE: u64 = 64;
/// Root field offsets.
pub mod root {
    /// Item chain head.
    pub const HEAD: i64 = 0;
    /// Item count.
    pub const COUNT: i64 = 8;
    /// Metrics-enabled flag (f11).
    pub const METRICS: i64 = 16;
    /// Stats block pointer (f11).
    pub const STATS: i64 = 24;
}

/// Item block size.
pub const ITEM_SIZE: u64 = 512;
/// Item field offsets.
pub mod item {
    /// Key.
    pub const KEY: i64 = 0;
    /// Value length (stored through an 8-bit field — f10).
    pub const VLEN: i64 = 8;
    /// Value bytes.
    pub const DATA: i64 = 16;
    /// Value capacity.
    pub const DATA_CAP: u64 = 400;
    /// Chain next pointer — after the value area, where the f10 overflow
    /// lands.
    pub const NEXT: i64 = 416;
}

/// Stats block size.
pub const STATS_SIZE: u64 = 128;
/// `get` miss marker.
pub const MISS: u64 = u64::MAX;
/// Abort code for PM exhaustion.
pub const OOM_ABORT: u64 = 80;
/// Assert code of the presence check.
pub const PRESENCE_ASSERT: u64 = 93;

/// Builds the segcache module.
///
/// Handlers: `sc_init()`, `sc_recover()`, `set(k, vlen, fill) -> ok`,
/// `get(k) -> first8|MISS`, `enable_metrics()`, `stats() -> v`,
/// `bump_stat(i)`, `check_keys(k0, k1)`, `value_len(k) -> n|MISS`.
pub fn build() -> Module {
    let mut m = ModuleBuilder::new();

    m.declare("sc_init", 0, false);
    m.declare("sc_recover", 0, false);
    m.declare("set", 3, true);
    m.declare("get", 1, true);
    m.declare("enable_metrics", 0, false);
    m.declare("stats", 0, true);
    m.declare("bump_stat", 1, false);
    m.declare("check_keys", 2, false);

    {
        let mut f = m.func("sc_init", 0, false);
        f.loc("segcache.c:init");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        // Root fields start zeroed (allocations are zero-filled); persist
        // the header once so every field has a checkpointed version.
        let hp = f.gep(r, root::HEAD);
        let head = f.load8(hp);
        let cp = f.gep(r, root::COUNT);
        let count = f.load8(cp);
        let zero = f.konst(0);
        let both = f.or(head, count);
        let fresh = f.eq(both, zero);
        f.if_(fresh, |f| {
            for off in [root::HEAD, root::COUNT, root::METRICS, root::STATS] {
                let p = f.gep(r, off);
                let z = f.konst(0);
                f.store8(p, z);
            }
            let len = f.konst(ROOT_SIZE);
            f.pm_persist(r, len);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("sc_recover", 0, false);
        f.loc("segcache.c:recover");
        f.recover_begin();
        f.call("sc_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let hp = f.gep(r, root::HEAD);
        let head = f.load8(hp);
        let cur = f.local(head);
        let guard = f.local_c(0);
        f.while_(
            |f| {
                let cv = f.load8(cur);
                let z = f.konst(0);
                let nz = f.ne(cv, z);
                let g = f.load8(guard);
                let lim = f.konst(100_000);
                let under = f.ult(g, lim);
                f.and(nz, under)
            },
            |f| {
                let cv = f.load8(cur);
                f.load8(cv);
                let np = f.gep(cv, item::NEXT);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
                let g = f.load8(guard);
                let one = f.konst(1);
                let g2 = f.add(g, one);
                f.store8(guard, g2);
            },
        );
        // Touch the stats block if present.
        let sp = f.gep(r, root::STATS);
        let stats = f.load8(sp);
        let zero = f.konst(0);
        let has = f.ne(stats, zero);
        f.if_(has, |f| {
            f.load8(stats);
        });
        f.recover_end();
        f.ret(None);
        f.finish();
    }

    // ---- set (f10) --------------------------------------------------------
    {
        let mut f = m.func("set", 3, true);
        f.loc("segcache.c:set");
        let k = f.param(0);
        let vlen = f.param(1);
        let fill = f.param(2);
        f.call("sc_init", &[]);
        let sz = f.konst(ITEM_SIZE);
        let it = f.pm_alloc(sz);
        let zero = f.konst(0);
        let oom = f.eq(it, zero);
        f.if_(oom, |f| f.abort_(OOM_ABORT));
        let kp = f.gep(it, item::KEY);
        f.store8(kp, k);
        // Link into the chain first (the item is discoverable before the
        // value lands, as in the real append-only segment design).
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let hp = f.gep(r, root::HEAD);
        let head = f.load8(hp);
        let np = f.gep(it, item::NEXT);
        f.loc("segcache.c:link");
        f.store8(np, head);
        // BUG (f10): the length goes through an 8-bit header field; the
        // capacity check then reads the truncated value and passes.
        f.loc("segcache.c:vlen-store");
        let lp = f.gep(it, item::VLEN);
        f.store(lp, vlen, 1);
        let stored = f.load(lp, 1);
        let cap = f.konst(item::DATA_CAP);
        let fits = f.ule(stored, cap);
        f.if_(fits, |f| {
            // ... but the copy uses the caller's (true) length, running
            // over the chain pointer just stored above.
            let dp = f.gep(it, item::DATA);
            f.loc("segcache.c:value-write");
            f.memset(dp, fill, vlen);
        });
        let isz = f.konst(ITEM_SIZE);
        f.pm_persist(it, isz);
        f.store8(hp, it);
        let e8 = f.konst(8);
        f.pm_persist(hp, e8);
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

    // ---- get -----------------------------------------------------------------
    {
        let mut f = m.func("get", 1, true);
        f.loc("segcache.c:get");
        let k = f.param(0);
        f.call("sc_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let hp = f.gep(r, root::HEAD);
        let head = f.load8(hp);
        let cur = f.local(head);
        f.while_(
            |f| {
                let cv = f.load8(cur);
                let z = f.konst(0);
                f.ne(cv, z)
            },
            |f| {
                let cv = f.load8(cur);
                f.loc("segcache.c:scan-key");
                let kp = f.gep(cv, item::KEY);
                let ik = f.load8(kp);
                let hit = f.eq(ik, k);
                f.if_(hit, |f| {
                    let cv = f.load8(cur);
                    let dp = f.gep(cv, item::DATA);
                    let v = f.load8(dp);
                    f.ret(Some(v));
                });
                let np = f.gep(cv, item::NEXT);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
            },
        );
        let miss = f.konst(MISS);
        f.ret(Some(miss));
        f.finish();
    }

    // ---- metrics / stats (f11) --------------------------------------------------
    {
        let mut f = m.func("enable_metrics", 0, false);
        f.loc("stats.c:enable");
        f.call("sc_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let mp = f.gep(r, root::METRICS);
        let one = f.konst(1);
        // First durability point: the flag...
        f.loc("stats.c:flag-store");
        f.store8(mp, one);
        let e8 = f.konst(8);
        f.pm_persist(mp, e8);
        // ...f11's crash window... then the stats block.
        let ssz = f.konst(STATS_SIZE);
        let stats = f.pm_alloc(ssz);
        let zero = f.konst(0);
        let oom = f.eq(stats, zero);
        f.if_(oom, |f| f.abort_(OOM_ABORT));
        let slen = f.konst(STATS_SIZE);
        f.pm_persist(stats, slen);
        let sp = f.gep(r, root::STATS);
        f.loc("stats.c:ptr-store");
        f.store8(sp, stats);
        let e8b = f.konst(8);
        f.pm_persist(sp, e8b);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("stats", 0, true);
        f.loc("stats.c:report");
        f.call("sc_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let mp = f.gep(r, root::METRICS);
        let enabled = f.load8(mp);
        let zero = f.konst(0);
        let on = f.ne(enabled, zero);
        f.if_(on, |f| {
            let sp = f.gep(r, root::STATS);
            let stats = f.load8(sp);
            // No null check (f11): deref whatever the pointer holds.
            f.loc("stats.c:deref");
            let v = f.load8(stats);
            f.ret(Some(v));
        });
        let z = f.konst(0);
        f.ret(Some(z));
        f.finish();
    }
    {
        let mut f = m.func("bump_stat", 1, false);
        f.loc("stats.c:bump");
        let i = f.param(0);
        f.call("sc_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let mp = f.gep(r, root::METRICS);
        let enabled = f.load8(mp);
        let zero = f.konst(0);
        let on = f.ne(enabled, zero);
        f.if_(on, |f| {
            let sp = f.gep(r, root::STATS);
            let stats = f.load8(sp);
            let eight = f.konst(8);
            let fifteen = f.konst(15);
            let idx = f.and(i, fifteen);
            let off = f.mul(idx, eight);
            let cell = f.gep_dyn(stats, off);
            let v = f.load8(cell);
            let one = f.konst(1);
            let v2 = f.add(v, one);
            f.store8(cell, v2);
            let e8 = f.konst(8);
            f.pm_persist(cell, e8);
        });
        f.ret(None);
        f.finish();
    }

    // ---- check ---------------------------------------------------------------
    {
        let mut f = m.func("check_keys", 2, false);
        f.loc("check.c:sc-keys");
        let k0 = f.param(0);
        let k1 = f.param(1);
        f.for_range(k0, k1, |f, kslot| {
            let k = f.load8(kslot);
            let v = f.call("get", &[k]).unwrap();
            let miss = f.konst(MISS);
            let present = f.ne(v, miss);
            f.loc("check.c:sc-assert");
            f.assert_(present, PRESENCE_ASSERT);
        });
        f.ret(None);
        f.finish();
    }

    // ---- value_len -----------------------------------------------------------
    {
        // Stored byte length of a value (MISS when absent). Reads the
        // 8-bit length field the way `set` wrote it, so a wire front-end
        // reports exactly what the cache holds.
        let mut f = m.func("value_len", 1, true);
        f.loc("segcache.c:value-len");
        let k = f.param(0);
        f.call("sc_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let hp = f.gep(r, root::HEAD);
        let head = f.load8(hp);
        let cur = f.local(head);
        f.while_(
            |f| {
                let cv = f.load8(cur);
                let z = f.konst(0);
                f.ne(cv, z)
            },
            |f| {
                let cv = f.load8(cur);
                let kp = f.gep(cv, item::KEY);
                let ik = f.load8(kp);
                let hit = f.eq(ik, k);
                f.if_(hit, |f| {
                    let cv = f.load8(cur);
                    let lp = f.gep(cv, item::VLEN);
                    let n = f.load(lp, 1);
                    f.ret(Some(n));
                });
                let np = f.gep(cv, item::NEXT);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
            },
        );
        let miss = f.konst(MISS);
        f.ret(Some(miss));
        f.finish();
    }

    m.finish().expect("segcache module verifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::vm::{Trap, Vm, VmOpts};
    use std::sync::Arc;

    fn pool() -> pmemsim::PmPool {
        pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap()
    }

    #[test]
    fn set_get_and_stats() {
        let module = Arc::new(build());
        let mut v = Vm::new(module, pool(), VmOpts::default());
        v.call("set", &[1, 32, 0xCD]).unwrap();
        assert_eq!(v.call("get", &[1]).unwrap(), Some(0xCDCDCDCDCDCDCDCD));
        assert_eq!(v.call("get", &[2]).unwrap(), Some(MISS));
        v.call("enable_metrics", &[]).unwrap();
        v.call("bump_stat", &[0]).unwrap();
        v.call("bump_stat", &[0]).unwrap();
        assert_eq!(v.call("stats", &[]).unwrap(), Some(2));
    }

    #[test]
    fn value_len_reports_stored_length() {
        let module = Arc::new(build());
        let mut v = Vm::new(module, pool(), VmOpts::default());
        v.call("set", &[1, 32, 0xCD]).unwrap();
        assert_eq!(v.call("value_len", &[1]).unwrap(), Some(32));
        assert_eq!(v.call("value_len", &[2]).unwrap(), Some(MISS));
        // The newest write wins (chain is head-first).
        v.call("set", &[1, 100, 0x11]).unwrap();
        assert_eq!(v.call("value_len", &[1]).unwrap(), Some(100));
    }

    #[test]
    fn f10_vlen_overflow_corrupts_chain() {
        let module = Arc::new(build());
        let mut v = Vm::new(module, pool(), VmOpts::default());
        v.call("set", &[1, 32, 0x01]).unwrap();
        // 450-byte value: stored length 450 & 0xFF = 194 passes the
        // 400-byte check; the 450-byte write overruns NEXT at 416 with
        // 0x6B bytes.
        v.call("set", &[2, 450, 0x6B]).unwrap();
        // Scanning past item 2 dereferences the corrupt pointer.
        let err = v.call("get", &[1]).unwrap_err();
        assert!(matches!(err.trap, Trap::Segfault { .. }), "{err}");
    }

    #[test]
    fn f11_crash_between_flag_and_stats_alloc() {
        let module = Arc::new(build());
        let target = crate::util::find_inst(&module, "enable_metrics", "stats.c:ptr-store", |op| {
            matches!(op, pir::ir::Op::Store { .. })
        })
        .expect("stats ptr store");
        let mut v = Vm::new(module.clone(), pool(), VmOpts::default());
        v.call("set", &[1, 16, 0x01]).unwrap();
        v.inject_crash(target, 1);
        let err = v.call("enable_metrics", &[]).unwrap_err();
        assert_eq!(err.trap, Trap::InjectedCrash);
        // Restart: flag persisted, pointer not.
        let p = v.crash();
        let mut v = Vm::new(module, p, VmOpts::default());
        v.call("sc_recover", &[]).unwrap();
        let err = v.call("stats", &[]).unwrap_err();
        assert_eq!(err.trap, Trap::Segfault { addr: 0 }, "null stats deref");
        assert_eq!(err.loc, "stats.c:deref");
    }

    #[test]
    fn items_survive_restart() {
        let module = Arc::new(build());
        let mut v = Vm::new(module.clone(), pool(), VmOpts::default());
        for k in 1..10u64 {
            v.call("set", &[k, 16, k & 0xFF]).unwrap();
        }
        let p = v.crash();
        let mut v = Vm::new(module, p, VmOpts::default());
        v.call("sc_recover", &[]).unwrap();
        v.call("check_keys", &[1, 10]).unwrap();
    }
}
