//! Backward program slicing (Weiser) over the PDG.
//!
//! Given a *fault instruction*, the backward slice contains every
//! instruction that may have affected its values or its execution — the
//! reactor then retains only the PM-writing instructions of the slice
//! (§4.5 of the paper).

use std::collections::{HashMap, VecDeque};

use pir::ir::InstRef;

use crate::pdg::Pdg;

/// Bound on the instructions one backward slice visits: the bound of
/// every slice recovery takes ([`crate::ModuleAnalysis::slice_pm_writes`]).
pub const MAX_SLICE_NODES: usize = 100_000;

/// A backward slice, with BFS distances from the fault instruction.
pub struct Slice {
    /// Instructions in the slice (BFS order: nearest first).
    pub insts: Vec<InstRef>,
    /// Distance (in dependence edges) from the fault instruction.
    pub distance: HashMap<InstRef, u32>,
}

impl Slice {
    /// Whether the slice contains `at`.
    pub fn contains(&self, at: InstRef) -> bool {
        self.distance.contains_key(&at)
    }
}

/// Computes the backward slice of `from` over `pdg`, visiting at most
/// `max_nodes` instructions (a safety bound, like the analysis timeouts
/// the paper describes).
pub fn backward_slice(pdg: &Pdg, from: InstRef, max_nodes: usize) -> Slice {
    let mut distance = HashMap::new();
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    distance.insert(from, 0u32);
    order.push(from);
    q.push_back(from);
    while let Some(cur) = q.pop_front() {
        if order.len() >= max_nodes {
            break;
        }
        let d = distance[&cur];
        for (dep, _) in pdg.deps_of(cur) {
            if !distance.contains_key(dep) {
                distance.insert(*dep, d + 1);
                order.push(*dep);
                q.push_back(*dep);
            }
        }
    }
    Slice {
        insts: order,
        distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto::PointsTo;
    use pir::builder::ModuleBuilder;
    use pir::ir::Op;

    #[test]
    fn slice_follows_data_chain_across_memory() {
        // x stored to PM; loaded; incremented; stored again; the slice from
        // the final store must reach the original constant.
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let size = f.konst(64);
        let pm = f.pm_alloc(size);
        let init = f.konst(41);
        f.store8(pm, init);
        let v = f.load8(pm);
        let one = f.konst(1);
        let v2 = f.add(v, one);
        f.store8(pm, v2);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let pdg = crate::pdg::Pdg::compute(&module, &pt);

        let fid = module.func_by_name("f").unwrap();
        let stores: Vec<InstRef> = module
            .func(fid)
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i.op, Op::Store { .. }))
            .map(|(ii, _)| InstRef {
                func: fid,
                inst: ii as u32,
            })
            .collect();
        assert_eq!(stores.len(), 2);
        let last_store = stores[1];
        let slice = backward_slice(&pdg, last_store, 10_000);
        assert!(slice.contains(stores[0]), "first store is in the slice");
        // The 41 constant feeding the first store is also there.
        let const41 = module
            .func(fid)
            .insts
            .iter()
            .position(|i| matches!(i.op, Op::Const(41)))
            .map(|ii| InstRef {
                func: fid,
                inst: ii as u32,
            })
            .unwrap();
        assert!(slice.contains(const41));
    }

    #[test]
    fn slice_excludes_independent_state() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let size = f.konst(64);
        let a = f.pm_alloc(size);
        let b = f.pm_alloc(size);
        let one = f.konst(1);
        let two = f.konst(2);
        f.store8(a, one);
        f.store8(b, two);
        let v = f.load8(a);
        f.print(v);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let pdg = crate::pdg::Pdg::compute(&module, &pt);
        let fid = module.func_by_name("f").unwrap();
        let load = module
            .func(fid)
            .insts
            .iter()
            .position(|i| matches!(i.op, Op::Load { .. }))
            .map(|ii| InstRef {
                func: fid,
                inst: ii as u32,
            })
            .unwrap();
        let stores: Vec<InstRef> = module
            .func(fid)
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i.op, Op::Store { .. }))
            .map(|(ii, _)| InstRef {
                func: fid,
                inst: ii as u32,
            })
            .collect();
        let slice = backward_slice(&pdg, load, 10_000);
        assert!(slice.contains(stores[0]), "store to a is relevant");
        assert!(
            !slice.contains(stores[1]),
            "store to the unrelated object b must not be in the slice"
        );
    }

    #[test]
    fn max_nodes_bounds_the_walk() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, true);
        let mut v = f.konst(0);
        let one = f.konst(1);
        for _ in 0..100 {
            v = f.add(v, one);
        }
        f.ret(Some(v));
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let pdg = crate::pdg::Pdg::compute(&module, &pt);
        let fid = module.func_by_name("f").unwrap();
        let ret = InstRef {
            func: fid,
            inst: (module.func(fid).insts.len() - 1) as u32,
        };
        let slice = backward_slice(&pdg, ret, 10);
        assert!(slice.insts.len() <= 11);
    }
}
