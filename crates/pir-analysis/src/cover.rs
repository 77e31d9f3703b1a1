//! Durability-point summaries ("flush covers").
//!
//! Persist-ordering inference ([`crate::ordering`]) asks which durability
//! operations may execute between two PM stores and which addresses they
//! cover. [`FlushCover`] pre-computes, for every function, its own
//! durability points (`pm_flush` / `pm_persist` / `pm_tx_commit`) with
//! the points-to set of their address argument, plus the transitive set
//! of durability points reachable through calls — so a call to a helper
//! that persists the range counts as a cover at the call site.

use std::collections::{BTreeSet, HashMap};

use pir::ir::{FuncId, Function, InstRef, Intrinsic, Module, Op, Val};

use crate::pointsto::{LocSet, PointsTo, FIELD_MAX};

/// Kind of a durability-related instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurKind {
    /// `pm_flush(addr, len)`: stages cache lines; needs a fence.
    Flush,
    /// `pm_persist(addr, len)`: flush + drain, a full durability point.
    Persist,
    /// `pm_tx_commit()`: durability point for all snapshotted ranges.
    TxCommit,
}

/// One durability instruction with its resolved address range.
#[derive(Debug, Clone)]
pub struct DurPoint {
    /// What it does.
    pub kind: DurKind,
    /// Points-to set of the address argument (empty for `TxCommit`,
    /// which takes none).
    pub addr: LocSet,
    /// Covered byte length when the length operand is a constant;
    /// [`FIELD_MAX`] otherwise (conservatively "the whole object").
    pub len: u32,
}

/// Per-function durability-point summary with a transitive call closure.
pub struct FlushCover {
    points: Vec<DurPoint>,
    by_inst: HashMap<InstRef, usize>,
    reachable: HashMap<FuncId, BTreeSet<usize>>,
}

impl FlushCover {
    /// Collects every durability point and closes the per-function sets
    /// over the (points-to-resolved) call graph.
    pub fn compute(module: &Module, pt: &PointsTo) -> FlushCover {
        let mut points = Vec::new();
        let mut by_inst = HashMap::new();
        let mut reachable: HashMap<FuncId, BTreeSet<usize>> = HashMap::new();
        for (fi, f) in module.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for (ii, inst) in f.insts.iter().enumerate() {
                let Op::Intr { intr, args } = &inst.op else {
                    continue;
                };
                let kind = match intr {
                    Intrinsic::PmFlush => DurKind::Flush,
                    Intrinsic::PmPersist => DurKind::Persist,
                    Intrinsic::PmTxCommit => DurKind::TxCommit,
                    _ => continue,
                };
                let at = InstRef {
                    func: fid,
                    inst: ii as u32,
                };
                let (addr, len) = match kind {
                    DurKind::TxCommit => (LocSet::new(), 0),
                    _ => (
                        pt.pts(fid, args[0]),
                        const_operand(f, args.get(1).copied())
                            .map(|n| n.min(FIELD_MAX as u64) as u32)
                            .unwrap_or(FIELD_MAX as u32),
                    ),
                };
                by_inst.insert(at, points.len());
                reachable.entry(fid).or_default().insert(points.len());
                points.push(DurPoint { kind, addr, len });
            }
        }

        // Close over the call graph: reachable(f) = f's own points ∪
        // reachable of every possible callee of every call site in f.
        let mut static_callees: HashMap<FuncId, BTreeSet<FuncId>> = HashMap::new();
        for (at, targets) in &pt.callees {
            static_callees
                .entry(at.func)
                .or_default()
                .extend(targets.iter().copied());
        }
        loop {
            let mut changed = false;
            for fi in 0..module.funcs.len() {
                let fid = FuncId(fi as u32);
                let Some(callees) = static_callees.get(&fid) else {
                    continue;
                };
                let mut add: BTreeSet<usize> = BTreeSet::new();
                for c in callees {
                    if let Some(r) = reachable.get(c) {
                        add.extend(r.iter().copied());
                    }
                }
                let cur = reachable.entry(fid).or_default();
                let before = cur.len();
                cur.extend(add);
                changed |= cur.len() != before;
            }
            if !changed {
                break;
            }
        }
        FlushCover {
            points,
            by_inst,
            reachable,
        }
    }

    /// The durability point at an instruction, if it is one.
    pub fn point_at(&self, at: InstRef) -> Option<&DurPoint> {
        self.by_inst.get(&at).map(|&i| &self.points[i])
    }

    /// Durability points that may execute while a call instruction at `at`
    /// runs (the transitive closure over its possible callees).
    pub fn points_through_call(&self, pt: &PointsTo, at: InstRef) -> Vec<&DurPoint> {
        let Some(targets) = pt.callees.get(&at) else {
            return Vec::new();
        };
        let mut idxs: BTreeSet<usize> = BTreeSet::new();
        for t in targets {
            if let Some(r) = self.reachable.get(t) {
                idxs.extend(r.iter().copied());
            }
        }
        idxs.into_iter().map(|i| &self.points[i]).collect()
    }
}

/// Resolves a value operand to its constant when its defining instruction
/// is `const` (SSA makes this a direct arena lookup).
pub(crate) fn const_operand(f: &Function, v: Option<Val>) -> Option<u64> {
    match f.insts.get(v?.0 as usize).map(|i| &i.op) {
        Some(Op::Const(c)) => Some(*c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::builder::ModuleBuilder;

    fn inst_of(module: &Module, fname: &str, pred: impl Fn(&Op) -> bool) -> InstRef {
        let fid = module.func_by_name(fname).unwrap();
        let f = module.func(fid);
        let ii = f
            .insts
            .iter()
            .position(|i| pred(&i.op))
            .expect("instruction present");
        InstRef {
            func: fid,
            inst: ii as u32,
        }
    }

    #[test]
    fn persist_in_same_function_is_a_point_with_const_len() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let sz = f.konst(64);
        let p = f.pm_alloc(sz);
        let one = f.konst(1);
        f.store8(p, one);
        f.pm_persist_c(p, 8);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let cover = FlushCover::compute(&module, &pt);
        let persist = inst_of(&module, "f", |op| {
            matches!(
                op,
                Op::Intr {
                    intr: Intrinsic::PmPersist,
                    ..
                }
            )
        });
        let point = cover.point_at(persist).expect("persist is a point");
        assert_eq!(point.kind, DurKind::Persist);
        assert_eq!(point.len, 8);
        assert!(!point.addr.is_empty());
    }

    #[test]
    fn helper_persist_is_reachable_through_the_call() {
        let mut m = ModuleBuilder::new();
        m.declare("sync", 1, false);
        {
            let mut f = m.func("sync", 1, false);
            let p = f.param(0);
            f.pm_persist_c(p, 8);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = m.func("put", 0, false);
            let sz = f.konst(64);
            let p = f.pm_alloc(sz);
            let one = f.konst(1);
            f.store8(p, one);
            f.call("sync", &[p]);
            f.ret(None);
            f.finish();
        }
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let cover = FlushCover::compute(&module, &pt);
        let call = inst_of(&module, "put", |op| matches!(op, Op::Call { .. }));
        let through = cover.points_through_call(&pt, call);
        assert_eq!(through.len(), 1);
        assert_eq!(through[0].kind, DurKind::Persist);
    }
}
