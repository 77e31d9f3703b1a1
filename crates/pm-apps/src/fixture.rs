//! `fixture` — a seeded-bug ordered-buffer app for the invariant oracle.
//!
//! A deliberately small append-only log of 24-byte cells, each holding a
//! payload, a link to the previous head and a tag derived *from a read of
//! the payload* (a data-dependent store — WITCHER's core pattern). The
//! seeded bug: `ob_put` persists the link+tag pair and publishes the cell
//! **before** persisting the payload, which goes durable only at the very
//! end of the call. A crash in that window leaves a durable tag whose
//! source payload never reached media — the tag then contradicts the
//! (zero) payload after restart.
//!
//! Crucially, recovery and the structural checks *cannot* see this:
//! `ob_recover` walks the list tolerantly, there is no domain invariant
//! routine, and the pool-level check passes. Every injection trial in the
//! window classifies as clean recovery — unless the campaign runs with
//! the mined-invariant oracle, whose promoted `payload persists-before
//! tag` invariant flags the image as silent corruption. This is the
//! regression fixture for `inject --invariants`.

use pir::builder::ModuleBuilder;
use pir::ir::Module;

/// Root: head pointer @0, committed count @8, init magic @16.
pub const ROOT_SIZE: u64 = 24;
/// Root field offsets.
pub mod root {
    /// Head-of-list cell pointer.
    pub const HEAD: i64 = 0;
    /// Number of published cells.
    pub const COUNT: i64 = 8;
    /// Initialisation magic.
    pub const MAGIC: i64 = 16;
}

/// Cell: link @0, tag @8, payload @96.
///
/// The payload deliberately sits a full cache line away from everything
/// that persists around it — the link+tag pair at the front, the
/// allocator's block header just below the cell, and the split-remainder
/// header just past it. `pmemsim` stages at [`pmemsim::CACHE_LINE`]
/// granularity, so without this spacing any neighbouring persist would
/// drag the payload to media as a line-mate and mask the seeded ordering
/// bug.
pub const CELL_SIZE: u64 = 192;
/// Cell field offsets.
pub mod cell {
    /// Link to the previously published cell (0 terminates).
    pub const LINK: i64 = 0;
    /// Tag derived from a read-back of the payload (payload + 1).
    pub const TAG: i64 = 8;
    /// The application payload (always non-zero), line-isolated.
    pub const PAYLOAD: i64 = 96;
}

/// Magic marking an initialised root.
pub const MAGIC: u64 = 0xB0F1;
/// Miss marker for `ob_get`.
pub const MISS: u64 = u64::MAX;
/// Abort code for PM exhaustion.
pub const OOM_ABORT: u64 = 91;

/// Builds the fixture module.
///
/// Handlers: `ob_init()`, `ob_recover()`, `ob_put(k) -> ok`,
/// `ob_get(k) -> tag|MISS`, `ob_count() -> n`.
pub fn build() -> Module {
    let mut m = ModuleBuilder::new();

    m.declare("ob_init", 0, false);
    m.declare("ob_recover", 0, false);
    m.declare("ob_put", 1, true);
    m.declare("ob_get", 1, true);
    m.declare("ob_count", 0, true);

    {
        let mut f = m.func("ob_init", 0, false);
        f.loc("obuf.c:init");
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let mp = f.gep(r, root::MAGIC);
        let magic = f.load8(mp);
        let want = f.konst(MAGIC);
        let fresh = f.ne(magic, want);
        f.if_(fresh, |f| {
            let mp = f.gep(r, root::MAGIC);
            let want = f.konst(MAGIC);
            f.store8(mp, want);
            f.pm_persist_c(mp, 8);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("ob_recover", 0, false);
        f.loc("obuf.c:recover");
        f.recover_begin();
        f.call("ob_init", &[]);
        // A tolerant walk: read every published cell's fields, check
        // nothing — torn tails are silently accepted (the point of the
        // fixture: only the mined oracle can tell).
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
                let pp = f.gep(cv, cell::PAYLOAD);
                f.load8(pp);
                let tp = f.gep(cv, cell::TAG);
                f.load8(tp);
                let np = f.gep(cv, cell::LINK);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
            },
        );
        f.recover_end();
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("ob_put", 1, true);
        f.loc("obuf.c:put");
        let k = f.param(0);
        f.call("ob_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let sz = f.konst(CELL_SIZE);
        let c = f.pm_alloc(sz);
        let z = f.konst(0);
        let oom = f.eq(c, z);
        f.if_(oom, |f| f.abort_(OOM_ABORT));
        // The payload store (A).
        f.loc("obuf.c:put-payload");
        let pp = f.gep(c, cell::PAYLOAD);
        f.store8(pp, k);
        // Link to the current head.
        let hp = f.gep(r, root::HEAD);
        let head = f.load8(hp);
        let lp = f.gep(c, cell::LINK);
        f.store8(lp, head);
        // The tag derives from a *read-back* of the payload (B depends
        // on A through memory).
        let pp2 = f.gep(c, cell::PAYLOAD);
        let pv = f.load8(pp2);
        let one = f.konst(1);
        let tag = f.add(pv, one);
        f.loc("obuf.c:put-tag");
        let tp = f.gep(c, cell::TAG);
        f.store8(tp, tag);
        // The seeded bug: persist link+tag and publish, leaving the
        // payload for a final persist after the cell is already visible.
        f.loc("obuf.c:put-publish");
        let lp2 = f.gep(c, cell::LINK);
        f.pm_persist_c(lp2, 16);
        let hp2 = f.gep(r, root::HEAD);
        f.store8(hp2, c);
        f.pm_persist_c(hp2, 8);
        let cp = f.gep(r, root::COUNT);
        let n = f.load8(cp);
        let n1 = f.add(n, one);
        f.store8(cp, n1);
        f.pm_persist_c(cp, 8);
        // Payload persisted last — the wrong order.
        f.loc("obuf.c:put-payload-persist");
        let pp3 = f.gep(c, cell::PAYLOAD);
        f.pm_persist_c(pp3, 8);
        let ok = f.konst(1);
        f.ret(Some(ok));
        f.finish();
    }
    {
        let mut f = m.func("ob_get", 1, true);
        f.loc("obuf.c:get");
        let k = f.param(0);
        f.call("ob_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let hp = f.gep(r, root::HEAD);
        let head = f.load8(hp);
        let cur = f.local(head);
        let miss = f.konst(MISS);
        let result = f.local(miss);
        f.while_(
            |f| {
                let cv = f.load8(cur);
                let z = f.konst(0);
                f.ne(cv, z)
            },
            |f| {
                let cv = f.load8(cur);
                let pp = f.gep(cv, cell::PAYLOAD);
                let pay = f.load8(pp);
                let hit = f.eq(pay, k);
                f.if_(hit, |f| {
                    let cv = f.load8(cur);
                    let tp = f.gep(cv, cell::TAG);
                    let t = f.load8(tp);
                    f.store8(result, t);
                });
                let np = f.gep(cv, cell::LINK);
                let nxt = f.load8(np);
                f.store8(cur, nxt);
            },
        );
        let out = f.load8(result);
        f.ret(Some(out));
        f.finish();
    }
    {
        let mut f = m.func("ob_count", 0, true);
        f.loc("obuf.c:count");
        f.call("ob_init", &[]);
        let rs = f.konst(ROOT_SIZE);
        let r = f.pm_root(rs);
        let cp = f.gep(r, root::COUNT);
        let n = f.load8(cp);
        f.ret(Some(n));
        f.finish();
    }

    m.finish().expect("fixture module")
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
    fn put_get_count_roundtrip() {
        let module = Arc::new(build());
        let mut v = Vm::new(module, pool(), VmOpts::default());
        assert_eq!(v.call("ob_count", &[]).unwrap(), Some(0));
        assert_eq!(v.call("ob_put", &[7]).unwrap(), Some(1));
        assert_eq!(v.call("ob_put", &[9]).unwrap(), Some(1));
        assert_eq!(v.call("ob_get", &[7]).unwrap(), Some(8));
        assert_eq!(v.call("ob_get", &[9]).unwrap(), Some(10));
        assert_eq!(v.call("ob_get", &[4]).unwrap(), Some(MISS));
        assert_eq!(v.call("ob_count", &[]).unwrap(), Some(2));
    }

    #[test]
    fn recover_walks_any_published_state() {
        let module = Arc::new(build());
        let mut v = Vm::new(module.clone(), pool(), VmOpts::default());
        for k in 1..=5 {
            v.call("ob_put", &[k]).unwrap();
        }
        let p = v.into_pool();
        let mut v2 = Vm::new(
            module,
            pmemsim::PmPool::open(p.snapshot()).unwrap(),
            VmOpts::default(),
        );
        v2.call("ob_recover", &[]).unwrap();
        assert_eq!(v2.call("ob_count", &[]).unwrap(), Some(5));
    }
}
