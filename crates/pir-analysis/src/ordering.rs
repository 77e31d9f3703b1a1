//! Persist-ordering invariant inference (WITCHER-style).
//!
//! WITCHER's core observation: when PM store *B* is data- or
//! control-dependent on PM store *A* (through a load of the location A
//! wrote), the program logic usually requires *A to be durable before B* —
//! e.g. initialise a node, then publish a pointer to it. This pass walks
//! the PDG backwards from every PM store, crossing one load→store memory
//! edge, and emits each such `(A persists-before B)` pair as a *candidate*
//! ordering invariant.
//!
//! Each pair also carries a static verdict: a same-function pair is
//! `covered` when some durability point aliasing A's range must execute
//! between A and B on every path (A dominates it, it dominates B).
//! Uncovered same-function pairs are *statically decidable* persist-order
//! violations, the invariant miner's persist-order candidates, while
//! cross-function pairs are conservatively marked covered (the caller may
//! order the persists) and left to the dynamic oracle.

use std::collections::BTreeSet;

use pir::ir::{InstRef, Module, Op};

use crate::cfg::DomTree;
use crate::cover::FlushCover;
use crate::pdg::{DepKind, Pdg};
use crate::pm::PmInfo;
use crate::pointsto::PointsTo;

/// Bound on the backward dependence walk from each PM store. Chains
/// longer than this are noise in practice (WITCHER uses a similar cutoff).
const MAX_DEPTH: usize = 8;

/// One candidate `first persists-before second` ordering invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingPair {
    /// The store whose value must be durable first (A).
    pub first: InstRef,
    /// The dependent store (B).
    pub second: InstRef,
    /// Class of the dependence chain from B back to A's load: `Data` for
    /// a pure value chain, `Control` when a branch intervenes.
    pub kind: DepKind,
    /// Whether a durability point covering A's range must execute between
    /// A and B (true also for cross-function pairs, which are not
    /// statically decidable).
    pub covered: bool,
}

/// The inferred ordering candidates for a module, canonically sorted.
#[derive(Debug, Default)]
pub struct OrderingInfo {
    /// All candidate pairs, sorted by `(first, second, kind)`.
    pub pairs: Vec<OrderingPair>,
}

fn kind_rank(k: DepKind) -> u8 {
    match k {
        DepKind::Data => 0,
        DepKind::Memory => 1,
        DepKind::Control => 2,
        DepKind::Interproc => 3,
    }
}

impl OrderingInfo {
    /// Pairs whose required order is statically violated (uncovered).
    pub fn violations(&self) -> impl Iterator<Item = &OrderingPair> {
        self.pairs.iter().filter(|p| !p.covered)
    }

    /// Infers candidate pairs from the PDG and durability covers.
    pub fn compute(module: &Module, pt: &PointsTo, pm: &PmInfo, pdg: &Pdg) -> OrderingInfo {
        let cover = FlushCover::compute(module, pt);
        let mut doms: Vec<Option<DomTree>> = (0..module.funcs.len()).map(|_| None).collect();
        let mut raw: BTreeSet<(InstRef, InstRef, u8)> = BTreeSet::new();

        let pm_stores: BTreeSet<InstRef> = pm
            .pm_writes
            .iter()
            .copied()
            .filter(|at| matches!(module.inst(*at).op, Op::Store { .. }))
            .collect();

        for &second in &pm_stores {
            // Backward BFS over Data/Control edges from B; a load on the
            // chain links (via its Memory edges) to the stores A whose
            // value B's computation consumed.
            let mut seen: BTreeSet<InstRef> = BTreeSet::new();
            let mut frontier: Vec<(InstRef, bool)> = vec![(second, false)];
            seen.insert(second);
            for _ in 0..MAX_DEPTH {
                let mut next = Vec::new();
                for (cur, via_control) in frontier {
                    if matches!(module.inst(cur).op, Op::Load { .. }) {
                        for (dep, k) in pdg.deps_of(cur) {
                            if *k == DepKind::Memory && *dep != second && pm_stores.contains(dep) {
                                let kind = if via_control {
                                    DepKind::Control
                                } else {
                                    DepKind::Data
                                };
                                raw.insert((*dep, second, kind_rank(kind)));
                            }
                        }
                    }
                    for (dep, k) in pdg.deps_of(cur) {
                        let vc = match k {
                            DepKind::Data => via_control,
                            DepKind::Control => true,
                            DepKind::Memory | DepKind::Interproc => continue,
                        };
                        if seen.insert(*dep) {
                            next.push((*dep, vc));
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
        }

        let mut pairs = Vec::new();
        for (first, second, rank) in raw {
            let kind = if rank == 0 {
                DepKind::Data
            } else {
                DepKind::Control
            };
            let (
                Op::Store { addr, size, .. },
                Op::Store {
                    addr: b_addr,
                    size: b_size,
                    ..
                },
            ) = (&module.inst(first).op, &module.inst(second).op)
            else {
                continue;
            };
            let a_addr = pt.pts(first.func, *addr);
            let a_len = *size as u32;
            // A read-modify-write of one location (load counter → store
            // counter) orders nothing: durability of A and B is the same
            // bytes. Only cross-location dependences state an invariant.
            if PointsTo::sets_may_alias(
                &a_addr,
                a_len,
                &pt.pts(second.func, *b_addr),
                *b_size as u32,
            ) {
                continue;
            }
            let covered = if first.func == second.func {
                let fid = first.func;
                let f = module.func(fid);
                let dom = doms[fid.0 as usize].get_or_insert_with(|| DomTree::dominators(f));
                // The pair only states an order when A always runs first.
                if !must_precede(f, dom, first.inst, second.inst) {
                    continue;
                }
                (0..f.insts.len() as u32).any(|j| {
                    is_range_cover(fid, f, j, pt, &cover, &a_addr, a_len)
                        && must_precede(f, dom, first.inst, j)
                        && must_precede(f, dom, j, second.inst)
                })
            } else {
                // Cross-function order is not statically decidable here;
                // leave it to the dynamic oracle.
                true
            };
            pairs.push(OrderingPair {
                first,
                second,
                kind,
                covered,
            });
        }
        pairs.sort_by_key(|p| (p.first, p.second, kind_rank(p.kind)));
        OrderingInfo { pairs }
    }
}

/// Whether instruction `a` executes before `b` on every path reaching `b`.
fn must_precede(f: &pir::ir::Function, dom: &DomTree, a: u32, b: u32) -> bool {
    let (Some(ba), Some(bb)) = (f.block_of(a), f.block_of(b)) else {
        return false;
    };
    if ba == bb {
        let insts = &f.blocks[ba.0 as usize].insts;
        let pa = insts.iter().position(|&i| i == a);
        let pb = insts.iter().position(|&i| i == b);
        return pa < pb;
    }
    dom.dominates(ba, bb)
}

/// Whether instruction `j` durably covers a write to `(addr, len)`: an
/// aliasing `pm_flush`/`pm_persist`, any `pm_tx_commit`, or a call that
/// transitively reaches one.
fn is_range_cover(
    fid: pir::ir::FuncId,
    f: &pir::ir::Function,
    j: u32,
    pt: &PointsTo,
    cover: &FlushCover,
    addr: &crate::pointsto::LocSet,
    len: u32,
) -> bool {
    use crate::cover::DurKind;
    let jr = InstRef { func: fid, inst: j };
    let covers = |kind: DurKind, p_addr: &crate::pointsto::LocSet, p_len: u32| match kind {
        DurKind::Flush | DurKind::Persist => PointsTo::sets_may_alias(addr, len, p_addr, p_len),
        DurKind::TxCommit => true,
    };
    if let Some(p) = cover.point_at(jr) {
        return covers(p.kind, &p.addr, p.len);
    }
    if matches!(
        f.insts[j as usize].op,
        Op::Call { .. } | Op::CallIndirect { .. }
    ) {
        return cover
            .points_through_call(pt, jr)
            .iter()
            .any(|p| covers(p.kind, &p.addr, p.len));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::builder::ModuleBuilder;

    fn analyse(module: &Module) -> OrderingInfo {
        let pt = PointsTo::compute(module);
        let pm = PmInfo::compute(module, &pt);
        let pdg = Pdg::compute(module, &pt);
        OrderingInfo::compute(module, &pt, &pm, &pdg)
    }

    fn stores_of(module: &Module, fname: &str) -> Vec<InstRef> {
        let fid = module.func_by_name(fname).unwrap();
        module
            .func(fid)
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i.op, Op::Store { .. }))
            .map(|(ii, _)| InstRef {
                func: fid,
                inst: ii as u32,
            })
            .collect()
    }

    /// store A; load A; store B(value from load): A persists-before B,
    /// and with no persist between them the pair is uncovered.
    #[test]
    fn dependent_store_without_persist_is_uncovered() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let sz = f.konst(64);
        let a = f.pm_alloc(sz);
        let b = f.pm_alloc(sz);
        let one = f.konst(1);
        f.store8(a, one);
        let v = f.load8(a);
        f.store8(b, v);
        f.pm_persist_c(b, 8);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let info = analyse(&module);
        let st = stores_of(&module, "f");
        let pair = info
            .pairs
            .iter()
            .find(|p| p.first == st[0] && p.second == st[1])
            .expect("pair inferred");
        assert_eq!(pair.kind, DepKind::Data);
        assert!(!pair.covered, "no persist of A before B");
        assert_eq!(info.violations().count(), 1);
    }

    /// Same chain with `pm_persist(A)` between the stores: covered.
    #[test]
    fn persist_between_stores_covers_the_pair() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let sz = f.konst(64);
        let a = f.pm_alloc(sz);
        let b = f.pm_alloc(sz);
        let one = f.konst(1);
        f.store8(a, one);
        f.pm_persist_c(a, 8);
        let v = f.load8(a);
        f.store8(b, v);
        f.pm_persist_c(b, 8);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let info = analyse(&module);
        let st = stores_of(&module, "f");
        let pair = info
            .pairs
            .iter()
            .find(|p| p.first == st[0] && p.second == st[1])
            .expect("pair inferred");
        assert!(pair.covered);
        assert_eq!(info.violations().count(), 0);
    }

    /// A guarded dependent store is classified as a Control pair.
    #[test]
    fn guarded_dependent_store_is_control_kind() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let sz = f.konst(64);
        let a = f.pm_alloc(sz);
        let b = f.pm_alloc(sz);
        let one = f.konst(1);
        f.store8(a, one);
        f.pm_persist_c(a, 8);
        let v = f.load8(a);
        let zero = f.konst(0);
        let c = f.ne(v, zero);
        f.if_(c, |f| {
            let two = f.konst(2);
            f.store8(b, two);
            f.pm_persist_c(b, 8);
        });
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let info = analyse(&module);
        let st = stores_of(&module, "f");
        let pair = info
            .pairs
            .iter()
            .find(|p| p.first == st[0] && p.second == st[1])
            .expect("pair inferred");
        assert_eq!(pair.kind, DepKind::Control);
    }

    /// Unrelated stores produce no pair.
    #[test]
    fn independent_stores_produce_no_pair() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let sz = f.konst(64);
        let a = f.pm_alloc(sz);
        let b = f.pm_alloc(sz);
        let one = f.konst(1);
        let two = f.konst(2);
        f.store8(a, one);
        f.store8(b, two);
        f.pm_persist_c(a, 8);
        f.pm_persist_c(b, 8);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let info = analyse(&module);
        assert!(info.pairs.is_empty());
    }

    /// Pairs are reported in canonical `(first, second, kind)` order.
    #[test]
    fn pairs_are_canonically_sorted() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let sz = f.konst(64);
        let a = f.pm_alloc(sz);
        let b = f.pm_alloc(sz);
        let c = f.pm_alloc(sz);
        let one = f.konst(1);
        f.store8(a, one);
        let v = f.load8(a);
        f.store8(b, v);
        let w = f.load8(b);
        f.store8(c, w);
        f.pm_persist_c(c, 8);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let info = analyse(&module);
        let mut sorted = info.pairs.clone();
        sorted.sort_by_key(|p| (p.first, p.second, kind_rank(p.kind)));
        assert_eq!(info.pairs, sorted);
        assert!(info.pairs.len() >= 2, "chain yields at least two pairs");
    }
}
