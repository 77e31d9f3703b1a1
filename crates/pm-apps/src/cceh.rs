//! `cceh` — the CCEH dynamic hashing scheme (FAST '19) written in pir.
//!
//! A directory of segment pointers indexed by the low `global_depth` bits
//! of the key; each segment holds a handful of slots and a `local_depth`.
//! Full segments split; a split of a segment whose local depth equals the
//! global depth doubles the directory.
//!
//! The reproduced fault (f9, reported by the RECIPE authors): directory
//! doubling persists the new directory pointer and the new global depth as
//! *separate* durability points. An untimely crash between the two leaves
//! a doubled directory with a stale global depth; the next insert finds a
//! segment whose `local_depth > global_depth` and spins forever waiting
//! for the directory metadata to catch up. The fix requires correcting the
//! bad persistent metadata — restarting alone cannot help.

use pir::builder::ModuleBuilder;
use pir::ir::Module;

/// Root: directory pointer @0, global depth @8.
pub const ROOT_SIZE: u64 = 32;
/// Root field offsets.
pub mod root {
    /// Directory pointer.
    pub const DIR: i64 = 0;
    /// Global depth.
    pub const DEPTH: i64 = 8;
}

/// Initial global depth (directory of 4 segments).
pub const INIT_DEPTH: u64 = 2;
/// Slots per segment.
pub const SLOTS: u64 = 4;
/// Segment layout: local_depth @0, used @8, slots (key, value) from @16.
pub const SEG_SIZE: u64 = 16 + SLOTS * 16;

/// Lookup miss marker.
pub const MISS: u64 = u64::MAX;
/// Abort code for PM exhaustion.
pub const OOM_ABORT: u64 = 79;
/// Assert code of the presence check.
pub const PRESENCE_ASSERT: u64 = 92;

/// Builds the cceh module.
///
/// Handlers: `cceh_init()`, `cceh_recover()`, `insert(k, v) -> ok`,
/// `lookup(k) -> v|MISS`, `check_keys(k0, k1)`.
/// Keys must be nonzero (0 is the empty-slot sentinel).
pub fn build() -> Module {
    let mut m = ModuleBuilder::new();

    m.declare("cceh_init", 0, false);
    m.declare("cceh_recover", 0, false);
    m.declare("seg_new", 1, true); // (local_depth) -> seg
    m.declare("insert", 2, true);
    m.declare("lookup", 1, true);
    m.declare("check_keys", 2, false);

    // ---- seg_new ------------------------------------------------------------
    {
        let mut f = m.func("seg_new", 1, true);
        f.loc("cceh.c:seg-new");
        let depth = f.param(0);
        let sz = f.konst(SEG_SIZE);
        let seg = f.pm_alloc(sz);
        let zero = f.konst(0);
        let oom = f.eq(seg, zero);
        f.if_(oom, |f| f.abort_(OOM_ABORT));
        f.store8(seg, depth);
        let up = f.gep(seg, 8);
        let z = f.konst(0);
        f.store8(up, z);
        let len = f.konst(SEG_SIZE);
        f.pm_persist(seg, len);
        f.ret(Some(seg));
        f.finish();
    }

    // ---- cceh_init ------------------------------------------------------------
    {
        let mut f = m.func("cceh_init", 0, false);
        f.loc("cceh.c:init");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::DIR);
        let dir = f.load8(dp);
        let zero = f.konst(0);
        let fresh = f.eq(dir, zero);
        f.if_(fresh, |f| {
            let n = f.konst(1u64 << INIT_DEPTH);
            let eight = f.konst(8);
            let sz = f.mul(n, eight);
            let d = f.pm_alloc(sz);
            let z = f.konst(0);
            let oom = f.eq(d, z);
            f.if_(oom, |f| f.abort_(OOM_ABORT));
            let depth0 = f.konst(INIT_DEPTH);
            let zero2 = f.konst(0);
            let n2 = f.konst(1u64 << INIT_DEPTH);
            f.for_range(zero2, n2, |f, islot| {
                let depth0 = f.konst(INIT_DEPTH);
                let seg = f.call("seg_new", &[depth0]).unwrap();
                let i = f.load8(islot);
                let eight = f.konst(8);
                let off = f.mul(i, eight);
                let slot = f.gep_dyn(d, off);
                f.store8(slot, seg);
            });
            let n3 = f.konst((1u64 << INIT_DEPTH) * 8);
            f.pm_persist(d, n3);
            let dp = f.gep(r, root::DIR);
            f.store8(dp, d);
            let gp = f.gep(r, root::DEPTH);
            f.store8(gp, depth0);
            let len = f.konst(ROOT_SIZE);
            f.pm_persist(r, len);
        });
        f.ret(None);
        f.finish();
    }

    // ---- cceh_recover ------------------------------------------------------------
    {
        let mut f = m.func("cceh_recover", 0, false);
        f.loc("cceh.c:recover");
        f.recover_begin();
        f.call("cceh_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let dp = f.gep(r, root::DIR);
        let dir = f.load8(dp);
        let gp = f.gep(r, root::DEPTH);
        let g = f.load8(gp);
        let one = f.konst(1);
        let n = f.shl(one, g);
        let zero = f.konst(0);
        f.for_range(zero, n, |f, islot| {
            let i = f.load8(islot);
            let eight = f.konst(8);
            let off = f.mul(i, eight);
            let slot = f.gep_dyn(dir, off);
            let seg = f.load8(slot);
            let z = f.konst(0);
            let has = f.ne(seg, z);
            f.if_(has, |f| {
                // Touch the segment header and slots.
                f.load8(seg);
                let zero = f.konst(0);
                let slots = f.konst(SLOTS);
                f.for_range(zero, slots, |f, jslot| {
                    let j = f.load8(jslot);
                    let sixteen = f.konst(16);
                    let soff = f.mul(j, sixteen);
                    let base = f.konst(16);
                    let off2 = f.add(base, soff);
                    let kp = f.gep_dyn(seg, off2);
                    f.load8(kp);
                });
            });
        });
        f.recover_end();
        f.ret(None);
        f.finish();
    }

    // ---- insert ------------------------------------------------------------------
    {
        let mut f = m.func("insert", 2, true);
        f.loc("cceh.c:insert");
        let k = f.param(0);
        let v = f.param(1);
        f.call("cceh_init", &[]);
        let attempts = f.local_c(0);
        f.loop_(|f| {
            // Bounded retry so the *wait loop* below is the hang site, not
            // this outer loop.
            let a = f.load8(attempts);
            let lim = f.konst(64);
            let over = f.uge(a, lim);
            f.if_(over, |f| {
                let z = f.konst(0);
                f.ret(Some(z));
            });
            let one = f.konst(1);
            let a2 = f.add(a, one);
            f.store8(attempts, a2);

            let rs = f.konst(ROOT_SIZE);
            let r = f.pm_root(rs);
            let gp = f.gep(r, root::DEPTH);
            let g = f.load8(gp);
            let dp = f.gep(r, root::DIR);
            let dir = f.load8(dp);
            let one2 = f.konst(1);
            let buckets = f.shl(one2, g);
            let mask = f.sub(buckets, one2);
            let idx = f.and(k, mask);
            let eight = f.konst(8);
            let off = f.mul(idx, eight);
            let slot = f.gep_dyn(dir, off);
            let seg = f.load8(slot);

            // Probe for the key or a free slot.
            let zero = f.konst(0);
            let slots = f.konst(SLOTS);
            f.for_range(zero, slots, |f, jslot| {
                let j = f.load8(jslot);
                let sixteen = f.konst(16);
                let soff = f.mul(j, sixteen);
                let base = f.konst(16);
                let off2 = f.add(base, soff);
                let kp = f.gep_dyn(seg, off2);
                let sk = f.load8(kp);
                let hit = f.eq(sk, k);
                let z = f.konst(0);
                let free = f.eq(sk, z);
                let usable = f.or(hit, free);
                f.if_(usable, |f| {
                    let vp = f.gep(kp, 8);
                    f.store8(vp, v);
                    f.store8(kp, k);
                    let sixteen = f.konst(16);
                    f.loc("cceh.c:slot-persist");
                    f.pm_persist(kp, sixteen);
                    f.ret_c(1);
                });
            });

            // Segment full: split or double.
            let ld = f.load8(seg);
            let stale = f.ugt(ld, g);
            f.if_(stale, |f| {
                // The f9 hang: local depth ran ahead of the (stale) global
                // depth; real CCEH spins waiting for the directory update
                // that will never come.
                f.loc("cceh.c:wait-loop");
                f.loop_(|f| {
                    let rs = f.konst(ROOT_SIZE);
                    let r = f.pm_root(rs);
                    let gp = f.gep(r, root::DEPTH);
                    let g2 = f.load8(gp);
                    let caught_up = f.uge(g2, ld);
                    f.if_(caught_up, |f| f.break_());
                    f.yield_();
                });
                f.continue_();
            });

            let must_double = f.eq(ld, g);
            f.if_else(
                must_double,
                |f| {
                    // Split + directory doubling.
                    f.loc("cceh.c:double");
                    let one = f.konst(1);
                    let ld1 = f.add(ld, one);
                    let s0 = f.call("seg_new", &[ld1]).unwrap();
                    let s1 = f.call("seg_new", &[ld1]).unwrap();
                    // Redistribute the full segment's slots by bit `ld`.
                    let zero = f.konst(0);
                    let slots = f.konst(SLOTS);
                    f.for_range(zero, slots, |f, jslot| {
                        let j = f.load8(jslot);
                        let sixteen = f.konst(16);
                        let soff = f.mul(j, sixteen);
                        let base = f.konst(16);
                        let off2 = f.add(base, soff);
                        let kp = f.gep_dyn(seg, off2);
                        let sk = f.load8(kp);
                        let vp = f.gep(kp, 8);
                        let sv = f.load8(vp);
                        let bit = f.lshr(sk, ld);
                        let one = f.konst(1);
                        let b = f.and(bit, one);
                        let z = f.konst(0);
                        let go1 = f.ne(b, z);
                        let dst = f.select(go1, s1, s0);
                        // Append into the destination segment.
                        let up = f.gep(dst, 8);
                        let used = f.load8(up);
                        let sixteen2 = f.konst(16);
                        let doff = f.mul(used, sixteen2);
                        let base2 = f.konst(16);
                        let off3 = f.add(base2, doff);
                        let dkp = f.gep_dyn(dst, off3);
                        f.store8(dkp, sk);
                        let dvp = f.gep(dkp, 8);
                        f.store8(dvp, sv);
                        let used1 = f.add(used, one);
                        f.store8(up, used1);
                    });
                    let s0len = f.konst(SEG_SIZE);
                    f.pm_persist(s0, s0len);
                    let s1len = f.konst(SEG_SIZE);
                    f.pm_persist(s1, s1len);
                    // Build the doubled directory.
                    let one3 = f.konst(1);
                    let g1 = f.add(g, one3);
                    let newn = f.shl(one3, g1);
                    let eight = f.konst(8);
                    let ndsz = f.mul(newn, eight);
                    let nd = f.pm_alloc(ndsz);
                    let z = f.konst(0);
                    let oom = f.eq(nd, z);
                    f.if_(oom, |f| f.abort_(OOM_ABORT));
                    let zero2 = f.konst(0);
                    f.for_range(zero2, newn, |f, jslot| {
                        let j = f.load8(jslot);
                        let one = f.konst(1);
                        let g = {
                            let rs = f.konst(ROOT_SIZE);
                            let r = f.pm_root(rs);
                            let gp = f.gep(r, root::DEPTH);
                            f.load8(gp)
                        };
                        let buckets = f.shl(one, g);
                        let mask = f.sub(buckets, one);
                        let jm = f.and(j, mask);
                        let eight = f.konst(8);
                        let ooff = f.mul(jm, eight);
                        let rs2 = f.konst(ROOT_SIZE);
                        let r2 = f.pm_root(rs2);
                        let dp2 = f.gep(r2, root::DIR);
                        let dir2 = f.load8(dp2);
                        let oslot = f.gep_dyn(dir2, ooff);
                        let oseg = f.load8(oslot);
                        // Entries that pointed at the split segment now
                        // point at s0/s1 by bit ld.
                        let is_split = f.eq(oseg, seg);
                        let bit = f.lshr(j, ld);
                        let one2 = f.konst(1);
                        let b = f.and(bit, one2);
                        let z = f.konst(0);
                        let go1 = f.ne(b, z);
                        let repl = f.select(go1, s1, s0);
                        let fin = f.select(is_split, repl, oseg);
                        let noff = f.mul(j, eight);
                        let nslot = f.gep_dyn(nd, noff);
                        f.store8(nslot, fin);
                    });
                    f.pm_persist(nd, ndsz);
                    // First durability point: the directory pointer.
                    let rs3 = f.konst(ROOT_SIZE);
                    let r3 = f.pm_root(rs3);
                    let dp3 = f.gep(r3, root::DIR);
                    f.loc("cceh.c:dir-persist");
                    f.store8(dp3, nd);
                    let e8 = f.konst(8);
                    f.pm_persist(dp3, e8);
                    // f9's crash window is here: the directory is doubled
                    // but the global depth is not yet updated.
                    let gp3 = f.gep(r3, root::DEPTH);
                    f.loc("cceh.c:depth-persist");
                    f.store8(gp3, g1);
                    let e8b = f.konst(8);
                    f.pm_persist(gp3, e8b);
                },
                |f| {
                    // Ordinary split (ld < g): two children, patch the
                    // existing directory in place.
                    f.loc("cceh.c:split");
                    let one = f.konst(1);
                    let ld1 = f.add(ld, one);
                    let s0 = f.call("seg_new", &[ld1]).unwrap();
                    let s1 = f.call("seg_new", &[ld1]).unwrap();
                    let zero = f.konst(0);
                    let slots = f.konst(SLOTS);
                    f.for_range(zero, slots, |f, jslot| {
                        let j = f.load8(jslot);
                        let sixteen = f.konst(16);
                        let soff = f.mul(j, sixteen);
                        let base = f.konst(16);
                        let off2 = f.add(base, soff);
                        let kp = f.gep_dyn(seg, off2);
                        let sk = f.load8(kp);
                        let vp = f.gep(kp, 8);
                        let sv = f.load8(vp);
                        let bit = f.lshr(sk, ld);
                        let one = f.konst(1);
                        let b = f.and(bit, one);
                        let z = f.konst(0);
                        let go1 = f.ne(b, z);
                        let dst = f.select(go1, s1, s0);
                        let up = f.gep(dst, 8);
                        let used = f.load8(up);
                        let sixteen2 = f.konst(16);
                        let doff = f.mul(used, sixteen2);
                        let base2 = f.konst(16);
                        let off3 = f.add(base2, doff);
                        let dkp = f.gep_dyn(dst, off3);
                        f.store8(dkp, sk);
                        let dvp = f.gep(dkp, 8);
                        f.store8(dvp, sv);
                        let used1 = f.add(used, one);
                        f.store8(up, used1);
                    });
                    let s0len = f.konst(SEG_SIZE);
                    f.pm_persist(s0, s0len);
                    let s1len = f.konst(SEG_SIZE);
                    f.pm_persist(s1, s1len);
                    // Patch every directory entry pointing at the split
                    // segment.
                    f.for_range(zero, buckets, |f, jslot| {
                        let j = f.load8(jslot);
                        let eight = f.konst(8);
                        let joff = f.mul(j, eight);
                        let jslot2 = f.gep_dyn(dir, joff);
                        let cur = f.load8(jslot2);
                        let is_split = f.eq(cur, seg);
                        f.if_(is_split, |f| {
                            let bit = f.lshr(j, ld);
                            let one = f.konst(1);
                            let b = f.and(bit, one);
                            let z = f.konst(0);
                            let go1 = f.ne(b, z);
                            let repl = f.select(go1, s1, s0);
                            f.store8(jslot2, repl);
                            let e8 = f.konst(8);
                            f.pm_persist(jslot2, e8);
                        });
                    });
                },
            );
            // Retry the insert.
        });
        let z = f.konst(0);
        f.ret(Some(z));
        f.finish();
    }

    // ---- lookup ------------------------------------------------------------------
    {
        let mut f = m.func("lookup", 1, true);
        f.loc("cceh.c:lookup");
        let k = f.param(0);
        f.call("cceh_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let gp = f.gep(r, root::DEPTH);
        let g = f.load8(gp);
        let dp = f.gep(r, root::DIR);
        let dir = f.load8(dp);
        let one = f.konst(1);
        let buckets = f.shl(one, g);
        let mask = f.sub(buckets, one);
        let idx = f.and(k, mask);
        let eight = f.konst(8);
        let off = f.mul(idx, eight);
        let slot = f.gep_dyn(dir, off);
        let seg = f.load8(slot);
        let zero = f.konst(0);
        let slots = f.konst(SLOTS);
        f.for_range(zero, slots, |f, jslot| {
            let j = f.load8(jslot);
            let sixteen = f.konst(16);
            let soff = f.mul(j, sixteen);
            let base = f.konst(16);
            let off2 = f.add(base, soff);
            let kp = f.gep_dyn(seg, off2);
            let sk = f.load8(kp);
            let hit = f.eq(sk, k);
            f.if_(hit, |f| {
                let vp = f.gep(kp, 8);
                let v = f.load8(vp);
                f.ret(Some(v));
            });
        });
        let miss = f.konst(MISS);
        f.ret(Some(miss));
        f.finish();
    }

    // ---- check ------------------------------------------------------------------
    {
        let mut f = m.func("check_keys", 2, false);
        f.loc("check.c:cceh-keys");
        let k0 = f.param(0);
        let k1 = f.param(1);
        f.for_range(k0, k1, |f, kslot| {
            let k = f.load8(kslot);
            let v = f.call("lookup", &[k]).unwrap();
            let miss = f.konst(MISS);
            let present = f.ne(v, miss);
            f.loc("check.c:cceh-assert");
            f.assert_(present, PRESENCE_ASSERT);
        });
        f.ret(None);
        f.finish();
    }

    m.finish().expect("cceh module verifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::vm::{Trap, Vm, VmOpts};
    use pm_apps_test_util::*;
    use std::sync::Arc;

    mod pm_apps_test_util {
        pub fn pool() -> pmemsim::PmPool {
            pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).unwrap()
        }
    }

    #[test]
    fn insert_lookup_with_splits_and_doubling() {
        let module = Arc::new(build());
        let mut v = Vm::new(module, pool(), VmOpts::default());
        for k in 1..200u64 {
            assert_eq!(
                v.call("insert", &[k, k * 10]).unwrap(),
                Some(1),
                "insert {k}"
            );
        }
        for k in 1..200u64 {
            assert_eq!(v.call("lookup", &[k]).unwrap(), Some(k * 10), "lookup {k}");
        }
        v.call("check_keys", &[1, 200]).unwrap();
    }

    #[test]
    fn state_survives_restart() {
        let module = Arc::new(build());
        let mut v = Vm::new(module.clone(), pool(), VmOpts::default());
        for k in 1..50u64 {
            v.call("insert", &[k, k]).unwrap();
        }
        let p = v.crash();
        let mut v = Vm::new(module, p, VmOpts::default());
        v.call("cceh_recover", &[]).unwrap();
        v.call("check_keys", &[1, 50]).unwrap();
    }

    #[test]
    fn f9_crash_between_dir_and_depth_persist_hangs_inserts() {
        let module = Arc::new(build());
        // Find the global-depth store in the doubling path.
        let target = crate::util::find_inst(&module, "insert", "cceh.c:depth-persist", |op| {
            matches!(op, pir::ir::Op::Store { .. })
        })
        .expect("depth store");
        let mut v = Vm::new(module.clone(), pool(), VmOpts::default());
        v.inject_crash(target, 1);
        // Insert until the first directory doubling fires the injection.
        let mut crashed = false;
        for k in 1..200u64 {
            match v.call("insert", &[k, k]) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.trap, Trap::InjectedCrash, "{e}");
                    crashed = true;
                    break;
                }
            }
        }
        assert!(crashed, "the doubling path was reached");
        // Restart: directory doubled, global depth stale.
        let p = v.crash();
        let mut v = Vm::new(
            module.clone(),
            p,
            VmOpts {
                step_limit: 200_000,
                ..VmOpts::default()
            },
        );
        v.call("cceh_recover", &[]).unwrap();
        // Keep inserting into the split region (directory index 1, the
        // first segment to have filled): the over-deep segment fills and
        // the insert spins in the wait loop.
        let mut hung = None;
        for i in 0..200u64 {
            let k = 201 + i * 4;
            match v.call("insert", &[k, k]) {
                Ok(_) => {}
                Err(e) => {
                    hung = Some(e);
                    break;
                }
            }
        }
        let e = hung.expect("an insert hangs");
        assert_eq!(e.trap, Trap::StepLimit, "infinite wait loop: {e}");
        assert_eq!(e.loc, "cceh.c:wait-loop");
        // And it recurs after another restart (hard fault).
        let p = v.crash();
        let mut v = Vm::new(
            module,
            p,
            VmOpts {
                step_limit: 200_000,
                ..VmOpts::default()
            },
        );
        v.call("cceh_recover", &[]).unwrap();
        let mut hung = false;
        for i in 0..200u64 {
            let k = 201 + i * 4;
            if v.call("insert", &[k, k]).is_err() {
                hung = true;
                break;
            }
        }
        assert!(hung, "hang recurs across restarts");
    }
}
