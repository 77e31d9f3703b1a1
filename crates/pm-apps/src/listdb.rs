//! `listdb` — a Redis-like persistent store written in pir.
//!
//! Carries three of the paper's reproduced faults (Table 2):
//!
//! | id | bug (present in this code)                                     |
//! |----|----------------------------------------------------------------|
//! | f6 | the listpack encoder stores only the low byte of an entry     |
//! |    | length once the pack grows past 4096 bytes; a later read      |
//! |    | walks into value bytes, interprets them as a length and       |
//! |    | dereferences far outside the pool → segfault                  |
//! | f7 | `obj_release` double-decrements the shared-object refcount    |
//! |    | when it equals 2; the object is unlinked while still in use   |
//! |    | and a later `obj_retain` panics on the missing key            |
//! | f8 | slowlog trimming unlinks the oldest entry without freeing it  |
//! |    | → persistent memory leak                                      |

use pir::builder::ModuleBuilder;
use pir::ir::Module;

/// Root object size.
pub const ROOT_SIZE: u64 = 64;
/// Root field offsets.
pub mod root {
    /// Listpack dictionary (bucket array).
    pub const LP_DICT: i64 = 0;
    /// Shared-object dictionary (bucket array).
    pub const OBJ_DICT: i64 = 8;
    /// Slowlog list head.
    pub const SLOW_HEAD: i64 = 16;
    /// Slowlog length.
    pub const SLOW_LEN: i64 = 24;
    /// Next slowlog id.
    pub const SLOW_ID: i64 = 32;
}

/// Buckets per dictionary.
pub const DICT_BUCKETS: u64 = 64;
/// Dict entry: `{key@0, ptr@8, next@16}`, 32 bytes.
pub const ENTRY_SIZE: u64 = 32;

/// Listpack block: 16-byte header + capacity.
pub const LP_CAP: u64 = 4096;
/// Listpack total allocation (the slack past `LP_CAP` is where the buggy
/// encoder writes).
pub const LP_ALLOC: u64 = LP_CAP + 512;
/// Listpack header: total used bytes (including header) @0, entry count @8.
pub mod lp {
    /// Used bytes (including the 16-byte header).
    pub const TOTAL: i64 = 0;
    /// Number of entries.
    pub const NUM: i64 = 8;
    /// First entry offset.
    pub const ENTRIES: i64 = 16;
}

/// Shared object: value @0 (low byte mirrors the length), refcount @8,
/// length @24. Fields are persisted individually, matching how the real
/// system persists small updates.
pub const OBJ_SIZE: u64 = 32;

/// Slowlog entry: id @0, duration @8, next @16, plus the captured command
/// payload (the real slowlogEntry stores argv copies).
pub const SLOW_ENTRY: u64 = 128;
/// Slowlog retention limit.
pub const SLOW_MAX: u64 = 8;
/// Commands slower than this land in the slowlog.
pub const SLOW_THRESHOLD: u64 = 10;

/// `get`-style miss marker.
pub const MISS: u64 = u64::MAX;
/// Panic code for retain on a missing object (f7's symptom).
pub const RETAIN_PANIC: u64 = 70;
/// Assert code of the linked-implies-referenced invariant.
pub const OBJ_INVARIANT: u64 = 72;
/// Assert code of the list presence check.
pub const LIST_ASSERT: u64 = 73;
/// Abort code for PM exhaustion.
pub const OOM_ABORT: u64 = 78;

/// Builds the listdb module.
///
/// Handlers: `ldb_init()`, `ldb_recover()`,
/// `rpush(k, len, fill) -> ok`, `llast(k) -> first8|MISS`,
/// `obj_set(k, v)`, `obj_retain(k)`, `obj_release(k)`, `obj_get(k) -> v`,
/// `obj_invariant()`, `command(dur)`, `slowlog_count() -> n`,
/// `check_lists(k0, k1)`.
pub fn build() -> Module {
    let mut m = ModuleBuilder::new();

    m.declare("ldb_init", 0, false);
    m.declare("ldb_recover", 0, false);
    m.declare("dict_find", 2, true); // (dict, k) -> entry|0
    m.declare("dict_insert", 3, true); // (dict, k, ptr) -> entry
    m.declare("dict_unlink", 2, false); // (dict, k)
    m.declare("rpush", 3, true);
    m.declare("llast", 1, true);
    m.declare("llen", 1, true);
    m.declare("obj_set", 2, false);
    m.declare("obj_retain", 1, false);
    m.declare("obj_release", 1, false);
    m.declare("obj_get", 1, true);
    m.declare("obj_invariant", 0, false);
    m.declare("command", 1, false);
    m.declare("slowlog_count", 0, true);
    m.declare("check_lists", 2, false);

    // ---- init / recover ---------------------------------------------------
    {
        let mut f = m.func("ldb_init", 0, false);
        f.loc("server.c:init");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let lp = f.gep(r, root::LP_DICT);
        let cur = f.load8(lp);
        let zero = f.konst(0);
        let fresh = f.eq(cur, zero);
        f.if_(fresh, |f| {
            let sz = f.konst(DICT_BUCKETS * 8);
            let d1 = f.pm_alloc(sz);
            let sz2 = f.konst(DICT_BUCKETS * 8);
            let d2 = f.pm_alloc(sz2);
            let z = f.konst(0);
            let bad1 = f.eq(d1, z);
            f.if_(bad1, |f| f.abort_(OOM_ABORT));
            let z2 = f.konst(0);
            let bad2 = f.eq(d2, z2);
            f.if_(bad2, |f| f.abort_(OOM_ABORT));
            let lp = f.gep(r, root::LP_DICT);
            f.store8(lp, d1);
            let op = f.gep(r, root::OBJ_DICT);
            f.store8(op, d2);
            for off in [root::SLOW_HEAD, root::SLOW_LEN, root::SLOW_ID] {
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
        let mut f = m.func("ldb_recover", 0, false);
        f.loc("server.c:recover");
        f.recover_begin();
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        // Walk both dictionaries, touching entries and their payloads.
        for dict_off in [root::LP_DICT, root::OBJ_DICT] {
            let dp = f.gep(r, dict_off);
            let dict = f.load8(dp);
            let zero = f.konst(0);
            let nb = f.konst(DICT_BUCKETS);
            f.for_range(zero, nb, |f, bslot| {
                let b = f.load8(bslot);
                let eight = f.konst(8);
                let boff = f.mul(b, eight);
                let bp = f.gep_dyn(dict, boff);
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
                        f.load8(kp);
                        let pp = f.gep(cv, 8);
                        let payload = f.load8(pp);
                        let z = f.konst(0);
                        let has = f.ne(payload, z);
                        f.if_(has, |f| {
                            // Touch the payload block head.
                            f.load8(payload);
                        });
                        let np = f.gep(cv, 16);
                        let nxt = f.load8(np);
                        f.store8(cur, nxt);
                    },
                );
            });
        }
        // Walk the slowlog (reachable entries only).
        let sp = f.gep(r, root::SLOW_HEAD);
        let head = f.load8(sp);
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
                let np = f.gep(cv, 16);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
                let g = f.load8(guard);
                let one = f.konst(1);
                let g2 = f.add(g, one);
                f.store8(guard, g2);
            },
        );
        f.recover_end();
        f.ret(None);
        f.finish();
    }

    // ---- generic dictionary -------------------------------------------------
    {
        let mut f = m.func("dict_find", 2, true);
        f.loc("dict.c:find");
        let dict = f.param(0);
        let k = f.param(1);
        let nb = f.konst(DICT_BUCKETS);
        let idx = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(idx, eight);
        let bp = f.gep_dyn(dict, boff);
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
                    f.ret(Some(cv));
                });
                let np = f.gep(cv, 16);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
            },
        );
        let z = f.konst(0);
        f.ret(Some(z));
        f.finish();
    }
    {
        let mut f = m.func("dict_insert", 3, true);
        f.loc("dict.c:insert");
        let dict = f.param(0);
        let k = f.param(1);
        let ptr = f.param(2);
        let sz = f.konst(ENTRY_SIZE);
        let e = f.pm_alloc(sz);
        let zero = f.konst(0);
        let oom = f.eq(e, zero);
        f.if_(oom, |f| f.abort_(OOM_ABORT));
        let kp = f.gep(e, 0);
        f.store8(kp, k);
        let pp = f.gep(e, 8);
        f.store8(pp, ptr);
        let nb = f.konst(DICT_BUCKETS);
        let idx = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(idx, eight);
        let bp = f.gep_dyn(dict, boff);
        let head = f.load8(bp);
        let np = f.gep(e, 16);
        f.store8(np, head);
        let esz = f.konst(ENTRY_SIZE);
        f.pm_persist(e, esz);
        f.loc("dict.c:insert-bucket");
        f.store8(bp, e);
        let e8 = f.konst(8);
        f.pm_persist(bp, e8);
        f.ret(Some(e));
        f.finish();
    }
    {
        let mut f = m.func("dict_unlink", 2, false);
        f.loc("dict.c:unlink");
        let dict = f.param(0);
        let k = f.param(1);
        let nb = f.konst(DICT_BUCKETS);
        let idx = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(idx, eight);
        let bp = f.gep_dyn(dict, boff);
        let head = f.load8(bp);
        let zero = f.konst(0);
        let empty = f.eq(head, zero);
        f.if_(empty, |f| f.ret(None));
        let hkp = f.gep(head, 0);
        let hk = f.load8(hkp);
        let at_head = f.eq(hk, k);
        f.if_(at_head, |f| {
            let np = f.gep(head, 16);
            let nxt = f.load8(np);
            f.loc("dict.c:unlink-head");
            f.store8(bp, nxt);
            let e8 = f.konst(8);
            f.pm_persist(bp, e8);
            f.ret(None);
        });
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
                    f.loc("dict.c:unlink-mid");
                    f.store8(np, after);
                    let e8 = f.konst(8);
                    f.pm_persist(np, e8);
                    f.ret(None);
                });
                f.store8(cur, nxt);
            },
        );
        f.ret(None);
        f.finish();
    }

    // ---- listpacks (f6) -------------------------------------------------------
    {
        let mut f = m.func("rpush", 3, true);
        f.loc("listpack.c:rpush");
        let k = f.param(0);
        let len = f.param(1);
        let fill = f.param(2);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::LP_DICT);
        let dict = f.load8(dp);
        let entry = f.call("dict_find", &[dict, k]).unwrap();
        let zero = f.konst(0);
        let missing = f.eq(entry, zero);
        let lp_slot = f.local_c(0);
        f.if_else(
            missing,
            |f| {
                let sz = f.konst(LP_ALLOC);
                let nlp = f.pm_alloc(sz);
                let z = f.konst(0);
                let oom = f.eq(nlp, z);
                f.if_(oom, |f| f.abort_(OOM_ABORT));
                let tp = f.gep(nlp, lp::TOTAL);
                let hdr = f.konst(16);
                f.store8(tp, hdr);
                let np = f.gep(nlp, lp::NUM);
                let z2 = f.konst(0);
                f.store8(np, z2);
                let hsz = f.konst(16);
                f.pm_persist(nlp, hsz);
                let rs2 = f.konst(ROOT_SIZE);
                let r2 = f.pm_root(rs2);
                let dp2 = f.gep(r2, root::LP_DICT);
                let dict2 = f.load8(dp2);
                f.call("dict_insert", &[dict2, k, nlp]);
                f.store8(lp_slot, nlp);
            },
            |f| {
                let pp = f.gep(entry, 8);
                let lpv = f.load8(pp);
                f.store8(lp_slot, lpv);
            },
        );
        let lpv = f.load8(lp_slot);
        let tp = f.gep(lpv, lp::TOTAL);
        let total = f.load8(tp);
        let sixteen = f.konst(16);
        let need = f.add(len, sixteen);
        let newtotal = f.add(total, need);
        // The hard allocation bound is enforced correctly; the bug lives
        // in the zone between LP_CAP and this bound.
        let hard = f.konst(LP_ALLOC - 16);
        let too_big = f.ugt(newtotal, hard);
        f.if_(too_big, |f| {
            let z = f.konst(0);
            f.ret(Some(z));
        });
        let cap = f.konst(LP_CAP);
        let fits = f.ule(newtotal, cap);
        let entry_at = f.gep_dyn(lpv, total);
        f.if_else(
            fits,
            |f| {
                // Normal encoding.
                f.store8(entry_at, len);
                let data_at = f.gep(entry_at, 16);
                f.memset(data_at, fill, len);
                let plen = f.konst(16);
                let plen2 = f.add(plen, len);
                f.pm_persist(entry_at, plen2);
            },
            |f| {
                // BUG (f6): for packs growing past LP_CAP the encoder
                // stores only the low byte of the length but still writes
                // the full value.
                f.loc("listpack.c:encode-bug");
                let mask = f.konst(0xFF);
                let badlen = f.and(len, mask);
                f.store8(entry_at, badlen);
                let data_at = f.gep(entry_at, 16);
                f.memset(data_at, fill, len);
                let plen = f.konst(16);
                let plen2 = f.add(plen, len);
                f.pm_persist(entry_at, plen2);
            },
        );
        let total2 = f.load8(tp);
        let tnew = f.add(total2, need);
        f.loc("listpack.c:total");
        f.store8(tp, tnew);
        let np = f.gep(lpv, lp::NUM);
        let num = f.load8(np);
        let one = f.konst(1);
        let num2 = f.add(num, one);
        f.store8(np, num2);
        let hsz = f.konst(16);
        f.pm_persist(lpv, hsz);
        f.ret_c(1);
        f.finish();
    }
    {
        let mut f = m.func("llast", 1, true);
        f.loc("listpack.c:llast");
        let k = f.param(0);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::LP_DICT);
        let dict = f.load8(dp);
        let entry = f.call("dict_find", &[dict, k]).unwrap();
        let zero = f.konst(0);
        let missing = f.eq(entry, zero);
        f.if_(missing, |f| {
            let miss = f.konst(MISS);
            f.ret(Some(miss));
        });
        let pp = f.gep(entry, 8);
        let lpv = f.load8(pp);
        let np = f.gep(lpv, lp::NUM);
        let num = f.load8(np);
        let none = f.eq(num, zero);
        f.if_(none, |f| {
            let miss = f.konst(MISS);
            f.ret(Some(miss));
        });
        // Walk num-1 entries, then read the last one.
        let first = f.gep(lpv, lp::ENTRIES);
        let p = f.local(first);
        let i = f.local_c(0);
        let one = f.konst(1);
        let last = f.sub(num, one);
        f.while_(
            |f| {
                let iv = f.load8(i);
                f.ult(iv, last)
            },
            |f| {
                let pv = f.load8(p);
                f.loc("listpack.c:walk");
                let elen = f.load8(pv); // corrupt low-byte length lands here
                let sixteen = f.konst(16);
                let step = f.add(elen, sixteen);
                let pnext = f.gep_dyn(pv, step);
                f.store8(p, pnext);
                let iv = f.load8(i);
                let one = f.konst(1);
                let i2 = f.add(iv, one);
                f.store8(i, i2);
            },
        );
        let pv = f.load8(p);
        let data = f.gep(pv, 16);
        f.loc("listpack.c:read-value");
        let v = f.load8(data);
        f.ret(Some(v));
        f.finish();
    }

    {
        let mut f = m.func("llen", 1, true);
        f.loc("listpack.c:llen");
        let k = f.param(0);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::LP_DICT);
        let dict = f.load8(dp);
        let entry = f.call("dict_find", &[dict, k]).unwrap();
        let zero = f.konst(0);
        let missing = f.eq(entry, zero);
        f.if_(missing, |f| {
            let z = f.konst(0);
            f.ret(Some(z));
        });
        let pp = f.gep(entry, 8);
        let lpv = f.load8(pp);
        let np = f.gep(lpv, lp::NUM);
        let num = f.load8(np);
        f.ret(Some(num));
        f.finish();
    }

    // ---- shared objects (f7) -----------------------------------------------------
    {
        let mut f = m.func("obj_set", 2, false);
        f.loc("object.c:set");
        let k = f.param(0);
        let v = f.param(1);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::OBJ_DICT);
        let dict = f.load8(dp);
        let entry = f.call("dict_find", &[dict, k]).unwrap();
        let zero = f.konst(0);
        let have = f.ne(entry, zero);
        f.if_(have, |f| {
            let pp = f.gep(entry, 8);
            let obj = f.load8(pp);
            f.store8(obj, v);
            let e8 = f.konst(8);
            f.pm_persist(obj, e8);
            f.ret(None);
        });
        let sz = f.konst(OBJ_SIZE);
        let obj = f.pm_alloc(sz);
        let oom = f.eq(obj, zero);
        f.if_(oom, |f| f.abort_(OOM_ABORT));
        f.store8(obj, v);
        let e8 = f.konst(8);
        f.pm_persist(obj, e8);
        let rp = f.gep(obj, 8);
        let one = f.konst(1);
        f.loc("object.c:refcount-init");
        f.store8(rp, one);
        let e8b = f.konst(8);
        f.pm_persist(rp, e8b);
        f.call("dict_insert", &[dict, k, obj]);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("obj_retain", 1, false);
        f.loc("object.c:retain");
        let k = f.param(0);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::OBJ_DICT);
        let dict = f.load8(dp);
        let entry = f.call("dict_find", &[dict, k]).unwrap();
        let zero = f.konst(0);
        // Server panic (f7's symptom): retaining an object that the buggy
        // release already unlinked.
        let present = f.ne(entry, zero);
        f.loc("object.c:retain-panic");
        f.assert_(present, RETAIN_PANIC);
        let pp = f.gep(entry, 8);
        let obj = f.load8(pp);
        let rp = f.gep(obj, 8);
        let rc = f.load8(rp);
        let one = f.konst(1);
        let rc2 = f.add(rc, one);
        f.store8(rp, rc2);
        let e8 = f.konst(8);
        f.pm_persist(rp, e8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("obj_release", 1, false);
        f.loc("object.c:release");
        let k = f.param(0);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::OBJ_DICT);
        let dict = f.load8(dp);
        let entry = f.call("dict_find", &[dict, k]).unwrap();
        let zero = f.konst(0);
        let missing = f.eq(entry, zero);
        f.if_(missing, |f| f.ret(None));
        let pp = f.gep(entry, 8);
        let obj = f.load8(pp);
        let rp = f.gep(obj, 8);
        let rc = f.load8(rp);
        // BUG (f7): a logic error double-decrements when the count is
        // exactly 2 (a botched "shared object" special case).
        let two = f.konst(2);
        let is_two = f.eq(rc, two);
        let one = f.konst(1);
        let dec = f.select(is_two, two, one);
        let rc2 = f.sub(rc, dec);
        f.loc("object.c:release-bug");
        f.store8(rp, rc2);
        let e8 = f.konst(8);
        f.pm_persist(rp, e8);
        let dead = f.eq(rc2, zero);
        f.if_(dead, |f| {
            // Unlink the object while the caller still holds it.
            let rs2 = f.konst(ROOT_SIZE);
            let r2 = f.pm_root(rs2);
            let dp2 = f.gep(r2, root::OBJ_DICT);
            let dict2 = f.load8(dp2);
            f.call("dict_unlink", &[dict2, k]);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("obj_get", 1, true);
        f.loc("object.c:get");
        let k = f.param(0);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::OBJ_DICT);
        let dict = f.load8(dp);
        let entry = f.call("dict_find", &[dict, k]).unwrap();
        let zero = f.konst(0);
        let missing = f.eq(entry, zero);
        f.if_(missing, |f| {
            let miss = f.konst(MISS);
            f.ret(Some(miss));
        });
        let pp = f.gep(entry, 8);
        let obj = f.load8(pp);
        let v = f.load8(obj);
        f.ret(Some(v));
        f.finish();
    }
    {
        // Domain invariant: every linked object has refcount >= 1.
        let mut f = m.func("obj_invariant", 0, false);
        f.loc("check.c:obj-invariant");
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::OBJ_DICT);
        let dict = f.load8(dp);
        let zero = f.konst(0);
        let nb = f.konst(DICT_BUCKETS);
        f.for_range(zero, nb, |f, bslot| {
            let b = f.load8(bslot);
            let eight = f.konst(8);
            let boff = f.mul(b, eight);
            let bp = f.gep_dyn(dict, boff);
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
                    let pp = f.gep(cv, 8);
                    let obj = f.load8(pp);
                    let rp = f.gep(obj, 8);
                    let rc = f.load8(rp);
                    let z = f.konst(0);
                    let alive = f.ugt(rc, z);
                    f.loc("check.c:obj-invariant-assert");
                    f.assert_(alive, OBJ_INVARIANT);
                    let np = f.gep(cv, 16);
                    let nxt = f.load8(np);
                    f.store8(cur, nxt);
                },
            );
        });
        f.ret(None);
        f.finish();
    }

    // ---- slowlog (f8) ---------------------------------------------------------
    {
        let mut f = m.func("command", 1, false);
        f.loc("slowlog.c:command");
        let dur = f.param(0);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let thr = f.konst(SLOW_THRESHOLD);
        let slow = f.ugt(dur, thr);
        f.if_(slow, |f| {
            let sz = f.konst(SLOW_ENTRY);
            let e = f.pm_alloc(sz);
            let z = f.konst(0);
            let oom = f.eq(e, z);
            f.if_(oom, |f| {
                f.loc("slowlog.c:oom");
                f.abort_(OOM_ABORT);
            });
            let idp = f.gep(r, root::SLOW_ID);
            let id = f.load8(idp);
            let one = f.konst(1);
            let id2 = f.add(id, one);
            f.store8(idp, id2);
            let e8a = f.konst(8);
            f.pm_persist(idp, e8a);
            f.store8(e, id);
            let dp = f.gep(e, 8);
            f.store8(dp, dur);
            let hp = f.gep(r, root::SLOW_HEAD);
            let head = f.load8(hp);
            let np = f.gep(e, 16);
            f.store8(np, head);
            let esz = f.konst(SLOW_ENTRY);
            f.pm_persist(e, esz);
            f.store8(hp, e);
            let e8 = f.konst(8);
            f.pm_persist(hp, e8);
            let lp = f.gep(r, root::SLOW_LEN);
            let len = f.load8(lp);
            let len2 = f.add(len, one);
            f.store8(lp, len2);
            let e8b = f.konst(8);
            f.pm_persist(lp, e8b);
            // Trim when over the limit.
            let max = f.konst(SLOW_MAX);
            let over = f.ugt(len2, max);
            f.if_(over, |f| {
                // Walk to the second-to-last entry.
                let rs2 = f.konst(ROOT_SIZE);
                let r2 = f.pm_root(rs2);
                let hp2 = f.gep(r2, root::SLOW_HEAD);
                let head2 = f.load8(hp2);
                let cur = f.local(head2);
                f.while_(
                    |f| {
                        let cv = f.load8(cur);
                        let np = f.gep(cv, 16);
                        let nxt = f.load8(np);
                        let z = f.konst(0);
                        let has_next = f.ne(nxt, z);
                        let nnp = f.gep(nxt, 16);
                        // Guard against reading next-next of null: use
                        // short-circuit via select on has_next.
                        let fake = f.gep(cv, 16);
                        let sel = f.select(has_next, nnp, fake);
                        let nn = f.load8(sel);
                        let znn = f.konst(0);
                        let next_is_last = f.eq(nn, znn);
                        let not_done = f.eq(next_is_last, znn);
                        f.and(has_next, not_done)
                    },
                    |f| {
                        let cv = f.load8(cur);
                        let np = f.gep(cv, 16);
                        let nxt = f.load8(np);
                        f.store8(cur, nxt);
                    },
                );
                let cv = f.load8(cur);
                let np = f.gep(cv, 16);
                let victim = f.load8(np);
                let z = f.konst(0);
                let has = f.ne(victim, z);
                f.if_(has, |f| {
                    // BUG (f8): unlink the oldest entry without pm_free.
                    f.loc("slowlog.c:trim-leak");
                    let cv = f.load8(cur);
                    let np = f.gep(cv, 16);
                    let z = f.konst(0);
                    f.store8(np, z);
                    let e8 = f.konst(8);
                    f.pm_persist(np, e8);
                    let rs3 = f.konst(ROOT_SIZE);
                    let r3 = f.pm_root(rs3);
                    let lp2 = f.gep(r3, root::SLOW_LEN);
                    let len = f.load8(lp2);
                    let one = f.konst(1);
                    let len2 = f.sub(len, one);
                    f.store8(lp2, len2);
                    let e8b = f.konst(8);
                    f.pm_persist(lp2, e8b);
                });
            });
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("slowlog_count", 0, true);
        f.call("ldb_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let lp = f.gep(r, root::SLOW_LEN);
        let v = f.load8(lp);
        f.ret(Some(v));
        f.finish();
    }

    // ---- presence check ---------------------------------------------------------
    {
        let mut f = m.func("check_lists", 2, false);
        f.loc("check.c:lists");
        let k0 = f.param(0);
        let k1 = f.param(1);
        f.for_range(k0, k1, |f, kslot| {
            let k = f.load8(kslot);
            let v = f.call("llast", &[k]).unwrap();
            let miss = f.konst(MISS);
            let present = f.ne(v, miss);
            f.loc("check.c:lists-assert");
            f.assert_(present, LIST_ASSERT);
        });
        f.ret(None);
        f.finish();
    }

    m.finish().expect("listdb module verifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::vm::{Trap, Vm, VmOpts};
    use std::sync::Arc;

    fn vm() -> Vm {
        let module = Arc::new(build());
        let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap();
        Vm::new(module, pool, VmOpts::default())
    }

    #[test]
    fn rpush_and_llast() {
        let mut v = vm();
        v.call("rpush", &[1, 32, 0xAA]).unwrap();
        v.call("rpush", &[1, 32, 0xBB]).unwrap();
        assert_eq!(
            v.call("llast", &[1]).unwrap(),
            Some(0xBBBBBBBBBBBBBBBB),
            "last entry read back"
        );
        assert_eq!(v.call("llast", &[9]).unwrap(), Some(MISS));
    }

    #[test]
    fn llen_counts_entries() {
        let mut v = vm();
        assert_eq!(v.call("llen", &[1]).unwrap(), Some(0));
        for _ in 0..5 {
            v.call("rpush", &[1, 16, 0x33]).unwrap();
        }
        assert_eq!(v.call("llen", &[1]).unwrap(), Some(5));
    }

    #[test]
    fn f6_listpack_overflow_segfaults() {
        let mut v = vm();
        // 300-byte entries of 0x7F: the 13th push passes 4096 bytes and
        // the encoder stores a truncated length (300 & 0xFF = 44). Two
        // small pushes after it make the reader walk *through* the corrupt
        // entry: it lands inside the 0x7F value bytes, reads them as an
        // entry length, and jumps far outside the pool.
        for _ in 0..13 {
            v.call("rpush", &[1, 300, 0x7F]).unwrap();
        }
        for _ in 0..2 {
            v.call("rpush", &[1, 50, 0x11]).unwrap();
        }
        let err = v.call("llast", &[1]).unwrap_err();
        assert!(
            matches!(err.trap, Trap::Segfault { .. }),
            "walk into 0x7F bytes dereferences far away: {err}"
        );
        // And it is a hard fault: recurs across restart.
        let module = Arc::new(build());
        let pool = {
            let vm2 = v;
            vm2.crash()
        };
        let mut v = Vm::new(module, pool, VmOpts::default());
        v.call("ldb_recover", &[]).unwrap();
        let err = v.call("llast", &[1]).unwrap_err();
        assert!(matches!(err.trap, Trap::Segfault { .. }));
    }

    #[test]
    fn f7_release_logic_bug_panics_retain() {
        let mut v = vm();
        v.call("obj_set", &[5, 42]).unwrap();
        v.call("obj_retain", &[5]).unwrap(); // rc = 2
        v.call("obj_release", &[5]).unwrap(); // BUG: rc = 0, unlinked
        let err = v.call("obj_retain", &[5]).unwrap_err();
        assert_eq!(err.trap, Trap::AssertFail { code: RETAIN_PANIC });
        assert_eq!(v.call("obj_get", &[5]).unwrap(), Some(MISS));
    }

    #[test]
    fn f8_slowlog_trim_leaks() {
        let mut v = vm();
        v.call("ldb_init", &[]).unwrap();
        let before = v.pool_mut().allocated_bytes().unwrap();
        // 50 slow commands: the log is capped at 8, but trimmed entries
        // are never freed.
        for _ in 0..50 {
            v.call("command", &[100]).unwrap();
        }
        assert_eq!(v.call("slowlog_count", &[]).unwrap(), Some(SLOW_MAX));
        let after = v.pool_mut().allocated_bytes().unwrap();
        let leaked = after - before;
        // 42 trimmed entries leaked (50 - 8), each a 32-byte payload.
        assert!(
            leaked >= 42 * SLOW_ENTRY,
            "leaked {leaked} bytes, expected >= {}",
            42 * SLOW_ENTRY
        );
    }

    #[test]
    fn healthy_objects_pass_invariant() {
        let mut v = vm();
        v.call("obj_set", &[1, 10]).unwrap();
        v.call("obj_set", &[2, 20]).unwrap();
        v.call("obj_retain", &[1]).unwrap();
        v.call("obj_release", &[1]).unwrap(); // rc 2 -> 0 (bug) + unlink!
                                              // Key 2 untouched: invariant over linked entries passes (key 1 is
                                              // unlinked so it is not checked).
        v.call("obj_invariant", &[]).unwrap();
        assert_eq!(v.call("obj_get", &[2]).unwrap(), Some(20));
    }

    #[test]
    fn lists_survive_restart() {
        let module = Arc::new(build());
        let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap();
        let mut v = Vm::new(module.clone(), pool, VmOpts::default());
        for k in 1..5u64 {
            v.call("rpush", &[k, 16, k & 0xFF]).unwrap();
        }
        let pool = v.crash();
        let mut v = Vm::new(module, pool, VmOpts::default());
        v.call("ldb_recover", &[]).unwrap();
        v.call("check_lists", &[1, 5]).unwrap();
    }
}
