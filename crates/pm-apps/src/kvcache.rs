//! `kvcache` — a Memcached-like persistent key-value cache written in pir.
//!
//! State lives entirely in PM, as in the persistent Memcached port the
//! paper studies: a chained hash table, an LRU list, refcounted items with
//! inline values, incremental hash-table expansion and a `flush_all`
//! command. Five of the paper's reproduced faults (Table 2) live here:
//!
//! | id | bug (present in this code)                                   |
//! |----|--------------------------------------------------------------|
//! | f1 | 8-bit refcount incremented without overflow check; the item  |
//! |    | reaper frees refcount-0 items without checking they are      |
//! |    | unlinked → re-insertion self-loops the hash chain → hang     |
//! | f2 | `flush_all` at a future time treats every older item as      |
//! |    | expired immediately (missing "now >= flush_at" condition)    |
//! | f3 | expansion drops the hash-table lock during migration; a      |
//! |    | concurrent insert lands in an already-migrated bucket of the |
//! |    | old table and is lost                                        |
//! | f4 | `append` computes the new length in 8-bit arithmetic; the    |
//! |    | bounds check passes spuriously and the value bytes overwrite |
//! |    | the item's `h_next` chain pointer → segfault on later GET    |
//! | f5 | a hardware bit flip in the persistent `rehashing` flag sends |
//! |    | every lookup to the stale old table → data loss              |
//!
//! The bugs are always present in the code (like the real systems); each
//! is only exercised by a specific workload or injection.

use pir::builder::ModuleBuilder;
use pir::ir::Module;

/// Root object size.
pub const ROOT_SIZE: u64 = 128;
/// Root field offsets.
pub mod root {
    /// Hash-table pointer (PM address of the bucket array).
    pub const HT: i64 = 0;
    /// Number of buckets.
    pub const NBUCKETS: i64 = 8;
    /// Item count.
    pub const COUNT: i64 = 16;
    /// LRU head pointer.
    pub const LRU_HEAD: i64 = 24;
    /// LRU tail pointer.
    pub const LRU_TAIL: i64 = 32;
    /// `flush_all` deadline (0 = none).
    pub const FLUSH_AT: i64 = 40;
    /// Rehashing-in-progress flag (f5's bit-flip target).
    pub const REHASH: i64 = 48;
    /// Old hash table during expansion.
    pub const OLD_HT: i64 = 56;
    /// Old bucket count.
    pub const OLD_NB: i64 = 64;
}

/// Item block size (slab-class rounded, like Memcached).
pub const ITEM_SIZE: u64 = 512;
/// Item field offsets.
pub mod item {
    /// Key (u64).
    pub const KEY: i64 = 0;
    /// Refcount (u8 — f1's overflow target).
    pub const REFC: i64 = 8;
    /// Creation time (logical clock).
    pub const TIME: i64 = 16;
    /// Value length.
    pub const NBYTES: i64 = 24;
    /// LRU next.
    pub const LRU_N: i64 = 32;
    /// LRU prev.
    pub const LRU_P: i64 = 40;
    /// Linked-into-hashtable flag.
    pub const LINKED: i64 = 48;
    /// Inline value bytes.
    pub const DATA: i64 = 64;
    /// Value capacity.
    pub const DATA_CAP: u64 = 160;
    /// Hash-chain next pointer. Placed after the value area (the value is
    /// variable-length in real Memcached); f4's 8-bit length overflow
    /// makes the append write run over this field.
    pub const HNEXT: i64 = 224;
}

/// Initial bucket count.
pub const INIT_BUCKETS: u64 = 16;
/// Returned by `get` for a missing key.
pub const MISS: u64 = u64::MAX;
/// Abort code for PM exhaustion.
pub const OOM_ABORT: u64 = 77;
/// Assert code of the item-count invariant.
pub const INVARIANT_ASSERT: u64 = 90;
/// Assert code of the key-presence check.
pub const PRESENCE_ASSERT: u64 = 91;

/// Builds the kvcache module.
///
/// Exported handlers (all taking/returning u64):
/// `kv_init()`, `kv_recover()`, `put(k, fill, n) -> ok`,
/// `get(k) -> first8|MISS`, `get_hold(k) -> ok`, `append(k, n, fill) -> ok`,
/// `flush_all(delay)`, `concurrent_put(k1, k2)`, `check_keys(k0, k1)`,
/// `check_invariant()`, `count_reachable() -> n`, `stored_count() -> n`,
/// `value_len(k) -> n|MISS`.
pub fn build() -> Module {
    let mut m = ModuleBuilder::new();
    let ht_lock = m.global("ht_lock", 8);

    m.declare("kv_init", 0, false);
    m.declare("kv_recover", 0, false);
    m.declare("table_for_lookup", 0, true); // returns packed (table ptr)
    m.declare("lookup_nb", 0, true);
    m.declare("assoc_find", 1, true);
    m.declare("assoc_insert", 1, false);
    m.declare("assoc_unlink", 1, false);
    m.declare("item_alloc", 3, true);
    m.declare("lru_push", 1, false);
    m.declare("lru_remove", 1, false);
    m.declare("item_reaper", 0, false);
    m.declare("maybe_expand", 0, false);
    m.declare("put", 3, true);
    m.declare("worker_put", 1, false);
    m.declare("concurrent_put", 2, false);
    m.declare("get", 1, true);
    m.declare("delete", 1, true);
    m.declare("get_hold", 1, true);
    m.declare("append", 3, true);
    m.declare("flush_all", 1, false);
    m.declare("check_keys", 2, false);
    m.declare("check_invariant", 0, false);
    m.declare("count_reachable", 0, true);
    m.declare("stored_count", 0, true);
    m.declare("value_len", 1, true);

    // ---- kv_init -------------------------------------------------------
    {
        let mut f = m.func("kv_init", 0, false);
        f.loc("assoc.c:init");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let htp = f.gep(r, root::HT);
        let ht = f.load8(htp);
        let zero = f.konst(0);
        let fresh = f.eq(ht, zero);
        f.if_(fresh, |f| {
            let nb = f.konst(INIT_BUCKETS);
            let eight = f.konst(8);
            let sz = f.mul(nb, eight);
            let table = f.pm_alloc(sz);
            let zero = f.konst(0);
            let bad = f.eq(table, zero);
            f.if_(bad, |f| f.abort_(OOM_ABORT));
            let htp = f.gep(r, root::HT);
            f.store8(htp, table);
            let nbp = f.gep(r, root::NBUCKETS);
            f.store8(nbp, nb);
            // Zero the remaining header fields explicitly so every root
            // field has a checkpointed initial version.
            for off in [
                root::COUNT,
                root::LRU_HEAD,
                root::LRU_TAIL,
                root::FLUSH_AT,
                root::REHASH,
                root::OLD_HT,
                root::OLD_NB,
            ] {
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

    // ---- kv_recover ------------------------------------------------------
    {
        let mut f = m.func("kv_recover", 0, false);
        f.loc("assoc.c:recover");
        f.recover_begin();
        f.call("kv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let htp = f.gep(r, root::HT);
        let ht = f.load8(htp);
        let nbp = f.gep(r, root::NBUCKETS);
        let nb = f.load8(nbp);
        let zero = f.konst(0);
        f.for_range(zero, nb, |f, bslot| {
            let b = f.load8(bslot);
            let eight = f.konst(8);
            let off = f.mul(b, eight);
            let bp = f.gep_dyn(ht, off);
            let head0 = f.load8(bp);
            let it = f.local(head0);
            let guard = f.local_c(0);
            f.while_(
                |f| {
                    let iv = f.load8(it);
                    let zero = f.konst(0);
                    let nz = f.ne(iv, zero);
                    let g = f.load8(guard);
                    let lim = f.konst(1_000_000);
                    let under = f.ult(g, lim);
                    f.and(nz, under)
                },
                |f| {
                    let iv = f.load8(it);
                    // Touch the item (key + value head) so the leak pass
                    // sees it as reachable.
                    let kp = f.gep(iv, item::KEY);
                    f.load8(kp);
                    let dp = f.gep(iv, item::DATA);
                    f.load8(dp);
                    let np = f.gep(iv, item::HNEXT);
                    let nxt = f.load8(np);
                    f.store8(it, nxt);
                    let g = f.load8(guard);
                    let one = f.konst(1);
                    let g2 = f.add(g, one);
                    f.store8(guard, g2);
                },
            );
        });
        f.recover_end();
        f.ret(None);
        f.finish();
    }

    // ---- table selection --------------------------------------------------
    // During rehash (real or spurious, f5) lookups and inserts use the old
    // table — the modelled bug pattern shared by f3 and f5.
    {
        let mut f = m.func("table_for_lookup", 0, true);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let rhp = f.gep(r, root::REHASH);
        let rh = f.load8(rhp);
        let zero = f.konst(0);
        let rehashing = f.ne(rh, zero);
        let out = f.local_c(0);
        f.if_else(
            rehashing,
            |f| {
                let p = f.gep(r, root::OLD_HT);
                let v = f.load8(p);
                f.store8(out, v);
            },
            |f| {
                let p = f.gep(r, root::HT);
                let v = f.load8(p);
                f.store8(out, v);
            },
        );
        let v = f.load8(out);
        f.ret(Some(v));
        f.finish();
    }
    {
        let mut f = m.func("lookup_nb", 0, true);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let rhp = f.gep(r, root::REHASH);
        let rh = f.load8(rhp);
        let zero = f.konst(0);
        let rehashing = f.ne(rh, zero);
        let out = f.local_c(0);
        f.if_else(
            rehashing,
            |f| {
                let p = f.gep(r, root::OLD_NB);
                let v = f.load8(p);
                f.store8(out, v);
            },
            |f| {
                let p = f.gep(r, root::NBUCKETS);
                let v = f.load8(p);
                f.store8(out, v);
            },
        );
        let v = f.load8(out);
        f.ret(Some(v));
        f.finish();
    }

    // ---- assoc_find ---------------------------------------------------------
    {
        let mut f = m.func("assoc_find", 1, true);
        f.loc("assoc.c:find");
        let k = f.param(0);
        let table = f.call("table_for_lookup", &[]).unwrap();
        let nb = f.call("lookup_nb", &[]).unwrap();
        let zero = f.konst(0);
        let empty = f.eq(nb, zero);
        f.if_(empty, |f| {
            let miss = f.konst(0);
            f.ret(Some(miss));
        });
        let idx = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(idx, eight);
        let bp = f.gep_dyn(table, boff);
        let head0 = f.load8(bp);
        let it = f.local(head0);
        f.loc("assoc.c:find-loop");
        f.while_(
            |f| {
                let iv = f.load8(it);
                let z = f.konst(0);
                f.ne(iv, z)
            },
            |f| {
                let iv = f.load8(it);
                let kp = f.gep(iv, item::KEY);
                let ik = f.load8(kp);
                let hit = f.eq(ik, k);
                f.if_(hit, |f| {
                    let iv = f.load8(it);
                    f.ret(Some(iv));
                });
                // f1: with a self-looping chain this walk never ends.
                f.loc("assoc.c:find-next");
                let iv = f.load8(it);
                let np = f.gep(iv, item::HNEXT);
                let nxt = f.load8(np);
                f.store8(it, nxt);
            },
        );
        let z = f.konst(0);
        f.ret(Some(z));
        f.finish();
    }

    // ---- assoc_insert ----------------------------------------------------
    {
        let mut f = m.func("assoc_insert", 1, false);
        f.loc("assoc.c:insert");
        let it = f.param(0);
        let table = f.call("table_for_lookup", &[]).unwrap();
        let nb = f.call("lookup_nb", &[]).unwrap();
        let kp = f.gep(it, item::KEY);
        let k = f.load8(kp);
        let idx = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(idx, eight);
        let bp = f.gep_dyn(table, boff);
        let head = f.load8(bp);
        let np = f.gep(it, item::HNEXT);
        f.store8(np, head);
        let e8 = f.konst(8);
        f.pm_persist(np, e8);
        f.loc("assoc.c:insert-bucket");
        f.store8(bp, it);
        let e8b = f.konst(8);
        f.pm_persist(bp, e8b);
        f.ret(None);
        f.finish();
    }

    // ---- assoc_unlink ------------------------------------------------------
    {
        let mut f = m.func("assoc_unlink", 1, false);
        f.loc("assoc.c:unlink");
        let it = f.param(0);
        let table = f.call("table_for_lookup", &[]).unwrap();
        let nb = f.call("lookup_nb", &[]).unwrap();
        let kp = f.gep(it, item::KEY);
        let k = f.load8(kp);
        let idx = f.urem(k, nb);
        let eight = f.konst(8);
        let boff = f.mul(idx, eight);
        let bp = f.gep_dyn(table, boff);
        let head = f.load8(bp);
        let is_head = f.eq(head, it);
        f.if_else(
            is_head,
            |f| {
                let np = f.gep(it, item::HNEXT);
                let nxt = f.load8(np);
                f.store8(bp, nxt);
                let e8 = f.konst(8);
                f.pm_persist(bp, e8);
            },
            |f| {
                let cur = f.local(head);
                let guard = f.local_c(0);
                f.while_(
                    |f| {
                        let cv = f.load8(cur);
                        let z = f.konst(0);
                        let nz = f.ne(cv, z);
                        let g = f.load8(guard);
                        let lim = f.konst(100_000);
                        let ok = f.ult(g, lim);
                        f.and(nz, ok)
                    },
                    |f| {
                        let cv = f.load8(cur);
                        let np = f.gep(cv, item::HNEXT);
                        let nxt = f.load8(np);
                        let found = f.eq(nxt, it);
                        f.if_(found, |f| {
                            let tp = f.gep(it, item::HNEXT);
                            let after = f.load8(tp);
                            let cv = f.load8(cur);
                            let np = f.gep(cv, item::HNEXT);
                            f.store8(np, after);
                            let e8 = f.konst(8);
                            f.pm_persist(np, e8);
                            f.ret(None);
                        });
                        f.store8(cur, nxt);
                        let g = f.load8(guard);
                        let one = f.konst(1);
                        let g2 = f.add(g, one);
                        f.store8(guard, g2);
                    },
                );
            },
        );
        f.ret(None);
        f.finish();
    }

    // ---- item_alloc(k, fill, n) -------------------------------------------
    {
        let mut f = m.func("item_alloc", 3, true);
        f.loc("items.c:alloc");
        let k = f.param(0);
        let fill = f.param(1);
        let n = f.param(2);
        let sz = f.konst(ITEM_SIZE);
        let it = f.pm_alloc(sz);
        let zero = f.konst(0);
        let oom = f.eq(it, zero);
        f.if_(oom, |f| {
            let z = f.konst(0);
            f.ret(Some(z));
        });
        let kp = f.gep(it, item::KEY);
        f.store8(kp, k);
        let rp = f.gep(it, item::REFC);
        // The hash-table link holds one reference.
        let one_ref = f.konst(1);
        f.store(rp, one_ref, 1);
        let tp = f.gep(it, item::TIME);
        let now = f.clock();
        f.store8(tp, now);
        let np = f.gep(it, item::NBYTES);
        let cap = f.konst(item::DATA_CAP);
        let too_big = f.ugt(n, cap);
        let n2 = f.select(too_big, cap, n);
        f.store8(np, n2);
        let lp = f.gep(it, item::LINKED);
        let one = f.konst(1);
        f.store8(lp, one);
        let dp = f.gep(it, item::DATA);
        f.memset(dp, fill, n2);
        let len = f.konst(ITEM_SIZE);
        f.pm_persist(it, len);
        f.ret(Some(it));
        f.finish();
    }

    // ---- LRU ----------------------------------------------------------------
    {
        let mut f = m.func("lru_push", 1, false);
        f.loc("items.c:lru-push");
        let it = f.param(0);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let hp = f.gep(r, root::LRU_HEAD);
        let head = f.load8(hp);
        let inp = f.gep(it, item::LRU_N);
        f.store8(inp, head);
        let ipp = f.gep(it, item::LRU_P);
        let z = f.konst(0);
        f.store8(ipp, z);
        let zero = f.konst(0);
        let had = f.ne(head, zero);
        f.if_else(
            had,
            |f| {
                let pp = f.gep(head, item::LRU_P);
                f.store8(pp, it);
                let e8 = f.konst(8);
                f.pm_persist(pp, e8);
            },
            |f| {
                let tp = f.gep(r, root::LRU_TAIL);
                f.store8(tp, it);
                let e8 = f.konst(8);
                f.pm_persist(tp, e8);
            },
        );
        f.store8(hp, it);
        let e8 = f.konst(8);
        f.pm_persist(hp, e8);
        let e16 = f.konst(16);
        f.pm_persist(inp, e16);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("lru_remove", 1, false);
        f.loc("items.c:lru-remove");
        let it = f.param(0);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let np = f.gep(it, item::LRU_N);
        let nxt = f.load8(np);
        let pp = f.gep(it, item::LRU_P);
        let prv = f.load8(pp);
        let zero = f.konst(0);
        let has_prev = f.ne(prv, zero);
        f.if_else(
            has_prev,
            |f| {
                let pnp = f.gep(prv, item::LRU_N);
                f.store8(pnp, nxt);
                let e8 = f.konst(8);
                f.pm_persist(pnp, e8);
            },
            |f| {
                let hp = f.gep(r, root::LRU_HEAD);
                f.store8(hp, nxt);
                let e8 = f.konst(8);
                f.pm_persist(hp, e8);
            },
        );
        let has_next = f.ne(nxt, zero);
        f.if_else(
            has_next,
            |f| {
                let npp = f.gep(nxt, item::LRU_P);
                f.store8(npp, prv);
                let e8 = f.konst(8);
                f.pm_persist(npp, e8);
            },
            |f| {
                let tp = f.gep(r, root::LRU_TAIL);
                f.store8(tp, prv);
                let e8 = f.konst(8);
                f.pm_persist(tp, e8);
            },
        );
        f.ret(None);
        f.finish();
    }

    // ---- item_reaper (f1's buggy free) -------------------------------------
    {
        let mut f = m.func("item_reaper", 0, false);
        f.loc("items.c:reaper");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let tp = f.gep(r, root::LRU_TAIL);
        let tail = f.load8(tp);
        let zero = f.konst(0);
        let have = f.ne(tail, zero);
        f.if_(have, |f| {
            let rp = f.gep(tail, item::REFC);
            let refc = f.load(rp, 1);
            let z = f.konst(0);
            let dead = f.eq(refc, z);
            f.if_(dead, |f| {
                // BUG (f1): frees the item without checking `linked` and
                // without unlinking it from the hash chain. (The LRU and
                // the item counter are maintained correctly — the bug is
                // specifically the missing hash-table unlink.)
                f.loc("items.c:reaper-free");
                f.call("lru_remove", &[tail]);
                let rs2 = f.konst(ROOT_SIZE);
                let r2 = f.pm_root(rs2);
                let cp = f.gep(r2, root::COUNT);
                let c = f.load8(cp);
                let one = f.konst(1);
                let c2 = f.sub(c, one);
                f.store8(cp, c2);
                let e8 = f.konst(8);
                f.pm_persist(cp, e8);
                f.pm_free(tail);
            });
        });
        f.ret(None);
        f.finish();
    }

    // ---- expansion (f3's lock bug lives here) -------------------------------
    {
        let mut f = m.func("maybe_expand", 0, false);
        f.loc("assoc.c:expand");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let rhp = f.gep(r, root::REHASH);
        let rh = f.load8(rhp);
        let zero = f.konst(0);
        let busy = f.ne(rh, zero);
        f.if_(busy, |f| f.ret(None));
        let cp = f.gep(r, root::COUNT);
        let count = f.load8(cp);
        let nbp = f.gep(r, root::NBUCKETS);
        let nb = f.load8(nbp);
        let two = f.konst(2);
        let threshold = f.mul(nb, two);
        let grow = f.ugt(count, threshold);
        f.if_(grow, |f| {
            let htp = f.gep(r, root::HT);
            let old = f.load8(htp);
            let ohp = f.gep(r, root::OLD_HT);
            f.store8(ohp, old);
            let onp = f.gep(r, root::OLD_NB);
            f.store8(onp, nb);
            let e16 = f.konst(16);
            f.pm_persist(ohp, e16);
            let two = f.konst(2);
            let nb2 = f.mul(nb, two);
            let eight = f.konst(8);
            let sz = f.mul(nb2, eight);
            let newt = f.pm_alloc(sz);
            let z = f.konst(0);
            let oom = f.eq(newt, z);
            f.if_(oom, |f| f.abort_(OOM_ABORT));
            f.loc("assoc.c:rehash-flag");
            let one = f.konst(1);
            let rhp = f.gep(r, root::REHASH);
            f.store8(rhp, one);
            let e8 = f.konst(8);
            f.pm_persist(rhp, e8);
            // BUG (f3): the migration runs without the hash-table lock.
            let lk = f.global_addr(ht_lock);
            f.mutex_unlock(lk);
            let zero = f.konst(0);
            f.for_range(zero, nb, |f, bslot| {
                let b = f.load8(bslot);
                let eight = f.konst(8);
                let boff = f.mul(b, eight);
                let obp = f.gep_dyn(old, boff);
                let head0 = f.load8(obp);
                let cur = f.local(head0);
                f.while_(
                    |f| {
                        let cv = f.load8(cur);
                        let z = f.konst(0);
                        f.ne(cv, z)
                    },
                    |f| {
                        let cv = f.load8(cur);
                        let np = f.gep(cv, item::HNEXT);
                        let nxt = f.load8(np);
                        let kp = f.gep(cv, item::KEY);
                        let k = f.load8(kp);
                        let two = f.konst(2);
                        let rs2 = f.konst(ROOT_SIZE);
                        let r2 = f.pm_root(rs2);
                        let nbp2 = f.gep(r2, root::NBUCKETS);
                        let nb2l = f.load8(nbp2);
                        let nbn = f.mul(nb2l, two);
                        let idx = f.urem(k, nbn);
                        let eight = f.konst(8);
                        let noff = f.mul(idx, eight);
                        let nbp3 = f.gep_dyn(newt, noff);
                        let nhead = f.load8(nbp3);
                        f.store8(np, nhead);
                        let e8 = f.konst(8);
                        f.pm_persist(np, e8);
                        f.store8(nbp3, cv);
                        let e8b = f.konst(8);
                        f.pm_persist(nbp3, e8b);
                        f.store8(cur, nxt);
                    },
                );
                let z = f.konst(0);
                f.store8(obp, z);
                let e8 = f.konst(8);
                f.pm_persist(obp, e8);
                f.yield_();
            });
            let lk2 = f.global_addr(ht_lock);
            f.mutex_lock(lk2);
            f.loc("assoc.c:swap");
            let htp2 = f.gep(r, root::HT);
            f.store8(htp2, newt);
            let nbp4 = f.gep(r, root::NBUCKETS);
            let two2 = f.konst(2);
            let nbn2 = f.mul(nb, two2);
            f.store8(nbp4, nbn2);
            let e16b = f.konst(16);
            f.pm_persist(htp2, e16b);
            let rhp2 = f.gep(r, root::REHASH);
            let z2 = f.konst(0);
            f.store8(rhp2, z2);
            let e8c = f.konst(8);
            f.pm_persist(rhp2, e8c);
        });
        f.ret(None);
        f.finish();
    }

    // ---- put ---------------------------------------------------------------
    {
        let mut f = m.func("put", 3, true);
        f.loc("memcached.c:put");
        let k = f.param(0);
        let fill = f.param(1);
        let n = f.param(2);
        f.call("kv_init", &[]);
        let lk = f.global_addr(ht_lock);
        f.mutex_lock(lk);
        let existing = f.call("assoc_find", &[k]).unwrap();
        let zero = f.konst(0);
        let have = f.ne(existing, zero);
        f.if_(have, |f| {
            // Update in place.
            let dp = f.gep(existing, item::DATA);
            let cap = f.konst(item::DATA_CAP);
            let too_big = f.ugt(n, cap);
            let n2 = f.select(too_big, cap, n);
            f.memset(dp, fill, n2);
            let np = f.gep(existing, item::NBYTES);
            f.store8(np, n2);
            let len = f.konst(ITEM_SIZE);
            f.pm_persist(existing, len);
            let lk = f.global_addr(ht_lock);
            f.mutex_unlock(lk);
            f.ret_c(1);
        });
        let it = f.call("item_alloc", &[k, fill, n]).unwrap();
        let oom = f.eq(it, zero);
        f.if_(oom, |f| {
            f.loc("memcached.c:put-oom");
            f.abort_(OOM_ABORT);
        });
        f.call("assoc_insert", &[it]);
        f.call("lru_push", &[it]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let cp = f.gep(r, root::COUNT);
        let c = f.load8(cp);
        let one = f.konst(1);
        let c2 = f.add(c, one);
        f.loc("memcached.c:count");
        f.store8(cp, c2);
        let e8 = f.konst(8);
        f.pm_persist(cp, e8);
        f.call("item_reaper", &[]);
        f.call("maybe_expand", &[]);
        let lk2 = f.global_addr(ht_lock);
        f.mutex_unlock(lk2);
        f.ret_c(1);
        f.finish();
    }

    // ---- worker_put / concurrent_put (f3 driver) -----------------------------
    {
        let mut f = m.func("worker_put", 1, false);
        let k = f.param(0);
        let fill = f.konst(0x22);
        let n = f.konst(16);
        f.call("put", &[k, fill, n]);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("concurrent_put", 2, false);
        f.loc("memcached.c:concurrent");
        let k1 = f.param(0);
        let k2 = f.param(1);
        let w = f.func_addr("worker_put");
        let tid = f.spawn(w, k2);
        let fill = f.konst(0x11);
        let n = f.konst(16);
        f.call("put", &[k1, fill, n]);
        f.join(tid);
        f.ret(None);
        f.finish();
    }

    // ---- get ----------------------------------------------------------------
    {
        let mut f = m.func("get", 1, true);
        f.loc("memcached.c:get");
        let k = f.param(0);
        f.call("kv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        // f2: buggy flush check — missing "now >= flush_at".
        let fp = f.gep(r, root::FLUSH_AT);
        f.loc("memcached.c:flush-check");
        let flush_at = f.load8(fp);
        let zero = f.konst(0);
        let flushing = f.ne(flush_at, zero);
        f.if_(flushing, |f| {
            let it = f.call("assoc_find", &[k]).unwrap();
            let z = f.konst(0);
            let have = f.ne(it, z);
            f.if_(have, |f| {
                let tp = f.gep(it, item::TIME);
                let t = f.load8(tp);
                let stale = f.ult(t, flush_at); // BUG: no clock comparison
                f.if_(stale, |f| {
                    f.loc("memcached.c:flush-unlink");
                    f.call("assoc_unlink", &[it]);
                    f.call("lru_remove", &[it]);
                    let lp = f.gep(it, item::LINKED);
                    let z = f.konst(0);
                    f.store8(lp, z);
                    let e8 = f.konst(8);
                    f.pm_persist(lp, e8);
                    let rs2 = f.konst(ROOT_SIZE);
                    let r2 = f.pm_root(rs2);
                    let cp = f.gep(r2, root::COUNT);
                    let c = f.load8(cp);
                    let one = f.konst(1);
                    let c2 = f.sub(c, one);
                    f.store8(cp, c2);
                    let e8b = f.konst(8);
                    f.pm_persist(cp, e8b);
                    let miss = f.konst(MISS);
                    f.ret(Some(miss));
                });
            });
        });
        let it = f.call("assoc_find", &[k]).unwrap();
        let none = f.eq(it, zero);
        f.if_(none, |f| {
            let miss = f.konst(MISS);
            f.ret(Some(miss));
        });
        // Balanced refcount: ++ then -- around the value read.
        f.loc("memcached.c:get-refcount");
        let rp = f.gep(it, item::REFC);
        let rc = f.load(rp, 1);
        let one = f.konst(1);
        let rc2 = f.add(rc, one);
        f.store(rp, rc2, 1);
        let dp = f.gep(it, item::DATA);
        f.loc("memcached.c:get-value");
        let v = f.load8(dp);
        f.loc("memcached.c:get-refcount");
        let rc3 = f.load(rp, 1);
        let rc4 = f.sub(rc3, one);
        f.store(rp, rc4, 1);
        f.ret(Some(v));
        f.finish();
    }

    // ---- get_hold (f1 driver: a client holding a reference) -------------------
    {
        let mut f = m.func("get_hold", 1, true);
        f.loc("memcached.c:get-hold");
        let k = f.param(0);
        f.call("kv_init", &[]);
        let it = f.call("assoc_find", &[k]).unwrap();
        let zero = f.konst(0);
        let none = f.eq(it, zero);
        f.if_(none, |f| {
            let z = f.konst(0);
            f.ret(Some(z));
        });
        // BUG (f1): 8-bit increment with no overflow check.
        f.loc("memcached.c:refcount-inc");
        let rp = f.gep(it, item::REFC);
        let rc = f.load(rp, 1);
        let one = f.konst(1);
        let rc2 = f.add(rc, one);
        f.store(rp, rc2, 1);
        let e1 = f.konst(1);
        f.pm_persist(rp, e1);
        f.ret_c(1);
        f.finish();
    }

    // ---- delete -----------------------------------------------------------------
    {
        let mut f = m.func("delete", 1, true);
        f.loc("memcached.c:delete");
        let k = f.param(0);
        f.call("kv_init", &[]);
        let lk = f.global_addr(ht_lock);
        f.mutex_lock(lk);
        let it = f.call("assoc_find", &[k]).unwrap();
        let zero = f.konst(0);
        let none = f.eq(it, zero);
        f.if_(none, |f| {
            let lk = f.global_addr(ht_lock);
            f.mutex_unlock(lk);
            let z = f.konst(0);
            f.ret(Some(z));
        });
        f.call("assoc_unlink", &[it]);
        f.call("lru_remove", &[it]);
        let lp = f.gep(it, item::LINKED);
        let z = f.konst(0);
        f.store8(lp, z);
        let e8 = f.konst(8);
        f.pm_persist(lp, e8);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let cp = f.gep(r, root::COUNT);
        let c = f.load8(cp);
        let one = f.konst(1);
        let c2 = f.sub(c, one);
        f.store8(cp, c2);
        let e8b = f.konst(8);
        f.pm_persist(cp, e8b);
        // The link held one reference; free only if no client still does.
        let rp = f.gep(it, item::REFC);
        let rc = f.load(rp, 1);
        let one2 = f.konst(1);
        let unheld = f.ule(rc, one2);
        f.if_(unheld, |f| f.pm_free(it));
        let lk2 = f.global_addr(ht_lock);
        f.mutex_unlock(lk2);
        f.ret_c(1);
        f.finish();
    }

    // ---- append (f4) -----------------------------------------------------------
    {
        let mut f = m.func("append", 3, true);
        f.loc("memcached.c:append");
        let k = f.param(0);
        let n = f.param(1);
        let fill = f.param(2);
        f.call("kv_init", &[]);
        let lk = f.global_addr(ht_lock);
        f.mutex_lock(lk);
        let it = f.call("assoc_find", &[k]).unwrap();
        let zero = f.konst(0);
        let none = f.eq(it, zero);
        f.if_(none, |f| {
            let lk = f.global_addr(ht_lock);
            f.mutex_unlock(lk);
            let z = f.konst(0);
            f.ret(Some(z));
        });
        let np = f.gep(it, item::NBYTES);
        let old = f.load8(np);
        // BUG (f4): the new length is computed modulo 256 (8-bit), so the
        // capacity check passes spuriously and the write overruns into the
        // `h_next` field.
        f.loc("memcached.c:append-len");
        let sum = f.add(old, n);
        let mask = f.konst(0xFF);
        let newlen = f.and(sum, mask);
        let cap = f.konst(item::DATA_CAP);
        let fits = f.ule(newlen, cap);
        f.if_(fits, |f| {
            let dp = f.gep(it, item::DATA);
            let wp = f.gep_dyn(dp, old);
            f.loc("memcached.c:append-write");
            f.memset(wp, fill, n);
            let np2 = f.gep(it, item::NBYTES);
            f.store8(np2, newlen);
            let len = f.konst(ITEM_SIZE);
            f.pm_persist(it, len);
        });
        let lk2 = f.global_addr(ht_lock);
        f.mutex_unlock(lk2);
        f.ret_c(1);
        f.finish();
    }

    // ---- flush_all (f2) ----------------------------------------------------------
    {
        let mut f = m.func("flush_all", 1, false);
        f.loc("memcached.c:flush-all");
        let delay = f.param(0);
        f.call("kv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let now = f.clock();
        let when = f.add(now, delay);
        let fp = f.gep(r, root::FLUSH_AT);
        f.loc("memcached.c:flush-store");
        f.store8(fp, when);
        let e8 = f.konst(8);
        f.pm_persist(fp, e8);
        f.ret(None);
        f.finish();
    }

    // ---- checks ---------------------------------------------------------------
    {
        let mut f = m.func("check_keys", 2, false);
        f.loc("check.c:keys");
        let k0 = f.param(0);
        let k1 = f.param(1);
        f.for_range(k0, k1, |f, kslot| {
            let k = f.load8(kslot);
            let v = f.call("get", &[k]).unwrap();
            let miss = f.konst(MISS);
            let present = f.ne(v, miss);
            f.loc("check.c:keys-assert");
            f.assert_(present, PRESENCE_ASSERT);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("count_reachable", 0, true);
        f.loc("check.c:reachable");
        f.call("kv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let htp = f.gep(r, root::HT);
        let ht = f.load8(htp);
        let nbp = f.gep(r, root::NBUCKETS);
        let nb = f.load8(nbp);
        let total = f.local_c(0);
        let zero = f.konst(0);
        f.for_range(zero, nb, |f, bslot| {
            let b = f.load8(bslot);
            let eight = f.konst(8);
            let boff = f.mul(b, eight);
            let bp = f.gep_dyn(ht, boff);
            let head0 = f.load8(bp);
            let it = f.local(head0);
            let guard = f.local_c(0);
            f.while_(
                |f| {
                    let iv = f.load8(it);
                    let z = f.konst(0);
                    let nz = f.ne(iv, z);
                    let g = f.load8(guard);
                    let lim = f.konst(100_000);
                    let under = f.ult(g, lim);
                    f.and(nz, under)
                },
                |f| {
                    let t = f.load8(total);
                    let one = f.konst(1);
                    let t2 = f.add(t, one);
                    f.store8(total, t2);
                    let iv = f.load8(it);
                    let np = f.gep(iv, item::HNEXT);
                    let nxt = f.load8(np);
                    f.store8(it, nxt);
                    let g = f.load8(guard);
                    let one2 = f.konst(1);
                    let g2 = f.add(g, one2);
                    f.store8(guard, g2);
                },
            );
        });
        let t = f.load8(total);
        f.ret(Some(t));
        f.finish();
    }
    {
        let mut f = m.func("stored_count", 0, true);
        f.call("kv_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let cp = f.gep(r, root::COUNT);
        let c = f.load8(cp);
        f.ret(Some(c));
        f.finish();
    }
    {
        let mut f = m.func("check_invariant", 0, false);
        f.loc("check.c:invariant");
        let reachable = f.call("count_reachable", &[]).unwrap();
        let stored = f.call("stored_count", &[]).unwrap();
        let same = f.eq(reachable, stored);
        f.loc("check.c:invariant-assert");
        f.assert_(same, INVARIANT_ASSERT);
        f.ret(None);
        f.finish();
    }
    {
        // Stored byte length of a value (MISS when absent) — lets a wire
        // front-end report the true length alongside `get`'s first8.
        let mut f = m.func("value_len", 1, true);
        f.loc("memcached.c:value-len");
        let k = f.param(0);
        f.call("kv_init", &[]);
        let it = f.call("assoc_find", &[k]).unwrap();
        let zero = f.konst(0);
        let none = f.eq(it, zero);
        f.if_(none, |f| {
            let miss = f.konst(MISS);
            f.ret(Some(miss));
        });
        let np = f.gep(it, item::NBYTES);
        let n = f.load8(np);
        f.ret(Some(n));
        f.finish();
    }

    m.finish().expect("kvcache module verifies")
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
    fn put_get_roundtrip() {
        let mut v = vm();
        v.call("kv_init", &[]).unwrap();
        assert_eq!(v.call("put", &[5, 0xAB, 16]).unwrap(), Some(1));
        let got = v.call("get", &[5]).unwrap().unwrap();
        assert_eq!(got, 0xABABABABABABABAB);
        assert_eq!(v.call("get", &[6]).unwrap(), Some(MISS));
    }

    #[test]
    fn value_len_reports_stored_length() {
        let mut v = vm();
        v.call("kv_init", &[]).unwrap();
        v.call("put", &[5, 0xAB, 16]).unwrap();
        assert_eq!(v.call("value_len", &[5]).unwrap(), Some(16));
        assert_eq!(v.call("value_len", &[6]).unwrap(), Some(MISS));
        v.call("append", &[5, 8, 0xCC]).unwrap();
        assert_eq!(v.call("value_len", &[5]).unwrap(), Some(24));
    }

    #[test]
    fn delete_unlinks_and_frees() {
        let mut v = vm();
        v.call("put", &[5, 1, 8]).unwrap();
        v.call("put", &[6, 2, 8]).unwrap();
        assert_eq!(v.call("delete", &[5]).unwrap(), Some(1));
        assert_eq!(v.call("get", &[5]).unwrap(), Some(MISS));
        assert_ne!(v.call("get", &[6]).unwrap(), Some(MISS));
        assert_eq!(v.call("delete", &[5]).unwrap(), Some(0), "already gone");
        v.call("check_invariant", &[]).unwrap();
    }

    #[test]
    fn delete_of_held_item_defers_the_free() {
        let mut v = vm();
        v.call("put", &[5, 1, 8]).unwrap();
        v.call("get_hold", &[5]).unwrap(); // a client holds a reference
        let live_before = v.pool_mut().allocated_bytes().unwrap();
        assert_eq!(v.call("delete", &[5]).unwrap(), Some(1));
        let live_after = v.pool_mut().allocated_bytes().unwrap();
        assert_eq!(live_before, live_after, "held item unlinked but not freed");
        assert_eq!(v.call("get", &[5]).unwrap(), Some(MISS));
    }

    #[test]
    fn values_survive_restart() {
        let module = Arc::new(build());
        let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap();
        let mut v = Vm::new(module.clone(), pool, VmOpts::default());
        for k in 1..20u64 {
            v.call("put", &[k, k & 0xFF, 16]).unwrap();
        }
        let pool = v.crash();
        let mut v = Vm::new(module, pool, VmOpts::default());
        v.call("kv_recover", &[]).unwrap();
        for k in 1..20u64 {
            let fill = k & 0xFF;
            let expect = u64::from_le_bytes([fill as u8; 8]);
            assert_eq!(v.call("get", &[k]).unwrap(), Some(expect), "key {k}");
        }
    }

    #[test]
    fn expansion_preserves_items() {
        let mut v = vm();
        for k in 0..100u64 {
            v.call("put", &[k, 1, 8]).unwrap();
        }
        for k in 0..100u64 {
            assert_ne!(v.call("get", &[k]).unwrap(), Some(MISS), "key {k}");
        }
        v.call("check_invariant", &[]).unwrap();
    }

    #[test]
    fn f1_refcount_overflow_hangs() {
        let mut v = vm();
        // Two keys in the same bucket (k % 16 equal).
        v.call("put", &[16, 1, 8]).unwrap();
        v.call("put", &[32, 2, 8]).unwrap();
        // 255 holds on top of the link reference wrap the 8-bit
        // refcount of key 16 to 0.
        for _ in 0..255 {
            v.call("get_hold", &[16]).unwrap();
        }
        // The next put of a new key runs the reaper, which frees the
        // still-linked item 16 (LRU tail, refcount 0). The put after that
        // reuses its address for another key in the same bucket, and its
        // chain link points back into the existing chain that still ends
        // at the freed (now re-used) address: a cycle.
        v.call("put", &[48, 3, 8]).unwrap();
        v.call("put", &[64, 4, 8]).unwrap();
        // Any lookup that misses in bucket 0 now walks the cycle forever.
        let err = v.call("get", &[80]).unwrap_err();
        assert_eq!(err.trap, Trap::StepLimit, "infinite loop: {err}");
    }

    #[test]
    fn f2_flush_all_future_loses_valid_items() {
        let mut v = vm();
        v.clock = 100;
        v.call("put", &[1, 1, 8]).unwrap();
        v.clock = 150;
        // flush_all scheduled for t=250; items must stay readable until
        // then, but the buggy check drops them immediately.
        v.call("flush_all", &[100]).unwrap();
        v.clock = 151;
        assert_eq!(v.call("get", &[1]).unwrap(), Some(MISS), "data loss");
        let err = v.call("check_keys", &[1, 2]).unwrap_err();
        assert_eq!(
            err.trap,
            Trap::AssertFail {
                code: PRESENCE_ASSERT
            }
        );
    }

    #[test]
    fn f3_racy_expansion_loses_concurrent_insert() {
        let mut v = vm();
        // Fill to just below the expansion threshold (count > 2*16 = 32).
        for k in 0..32u64 {
            v.call("put", &[k + 1000, 1, 8]).unwrap();
        }
        // This put triggers expansion; the concurrent worker inserts key
        // 64 (bucket 0 of the old table, migrated first) mid-migration.
        v.call("concurrent_put", &[33_000, 64]).unwrap();
        let err = v.call("check_invariant", &[]).unwrap_err();
        assert_eq!(
            err.trap,
            Trap::AssertFail {
                code: INVARIANT_ASSERT
            },
            "lost insert breaks the count invariant: {err}"
        );
        assert_eq!(v.call("get", &[64]).unwrap(), Some(MISS), "key lost");
    }

    #[test]
    fn f4_append_overflow_corrupts_chain() {
        let mut v = vm();
        // Same-bucket keys.
        v.call("put", &[16, 1, 8]).unwrap();
        v.call("put", &[32, 2, 8]).unwrap();
        // Grow key 16's value to 150 bytes, then append 120 more:
        // (150+120) & 0xFF = 14 <= 160 passes the buggy check and the
        // write overruns h_next with 0x41 bytes.
        v.call("put", &[16, 1, 150]).unwrap();
        v.call("append", &[16, 120, 0x41]).unwrap();
        // A missing key in the same bucket walks the whole chain and
        // dereferences the corrupt pointer.
        let err = v.call("get", &[48]).unwrap_err();
        assert!(
            matches!(err.trap, Trap::Segfault { .. }),
            "corrupt h_next dereference: {err}"
        );
    }

    #[test]
    fn f5_rehash_flag_bitflip_causes_misses() {
        let mut v = vm();
        // Force a completed expansion so OLD_HT is non-null but stale.
        for k in 0..100u64 {
            v.call("put", &[k, 1, 8]).unwrap();
        }
        assert_ne!(v.call("get", &[5]).unwrap(), Some(MISS));
        // Hardware fault: flip bit 0 of the persistent rehashing flag.
        let root_off = {
            let pool = v.pool_mut();
            pool.root_offset().unwrap()
        };
        v.pool_mut()
            .corrupt_bit(root_off + root::REHASH as u64, 0)
            .unwrap();
        assert_eq!(v.call("get", &[5]).unwrap(), Some(MISS), "stale table");
        let err = v.call("check_keys", &[0, 50]).unwrap_err();
        assert_eq!(
            err.trap,
            Trap::AssertFail {
                code: PRESENCE_ASSERT
            }
        );
    }

    #[test]
    fn f1_and_f5_recur_after_restart() {
        // The f5 symptom must persist across a crash+restart (it is a
        // *hard* fault).
        let module = Arc::new(build());
        let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap();
        let mut v = Vm::new(module.clone(), pool, VmOpts::default());
        for k in 0..100u64 {
            v.call("put", &[k, 1, 8]).unwrap();
        }
        let root_off = v.pool_mut().root_offset().unwrap();
        v.pool_mut()
            .corrupt_bit(root_off + root::REHASH as u64, 0)
            .unwrap();
        assert_eq!(v.call("get", &[5]).unwrap(), Some(MISS));
        let pool = v.crash();
        let mut v = Vm::new(module, pool, VmOpts::default());
        v.call("kv_recover", &[]).unwrap();
        assert_eq!(
            v.call("get", &[5]).unwrap(),
            Some(MISS),
            "symptom recurs after restart"
        );
    }
}
