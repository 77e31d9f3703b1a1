//! Program Dependence Graph construction (§4.1 of the Arthas paper).
//!
//! Nodes are IR instructions ([`InstRef`]); edges are *dependencies*
//! (stored backwards — from an instruction to the instructions it depends
//! on — because the reactor only ever walks the graph backwards):
//!
//! - **SSA data edges**: operand definitions.
//! - **Memory data edges**: a load (or other reading access) depends on
//!   every store that may alias it, per the points-to analysis. This is
//!   flow-insensitive and therefore over-approximate — the same
//!   imprecision the paper attributes to its static analysis.
//! - **Control edges**: every instruction depends on the conditional
//!   branches its block is control dependent on (post-dominance frontier).
//! - **Inter-procedural edges**: callee parameters depend on call-site
//!   arguments; call results depend on callee `ret` instructions;
//!   instructions with no intra-procedural control dependence depend on
//!   the function's call sites (calling-context dependence).

use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

use pir::ir::{FuncId, InstRef, Intrinsic, Module, Op, Val};

use crate::cfg::control_dependence;
use crate::pointsto::{Field, LocSet, PointsTo};

/// Kind of a dependence edge (kept for diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// SSA operand.
    Data,
    /// May-alias memory dependence.
    Memory,
    /// Control dependence.
    Control,
    /// Inter-procedural (arg/ret/context) dependence.
    Interproc,
}

/// Adjacency lists of the PDG, keyed by instruction.
pub type Adjacency = HashMap<InstRef, Vec<(InstRef, DepKind)>>;

/// The PDG, with backward adjacency.
pub struct Pdg {
    pub(crate) deps: Adjacency,
    /// Total number of edges.
    pub n_edges: usize,
    /// The forward adjacency, inverted from `deps` on first use.
    forward: OnceLock<Adjacency>,
}

/// A memory access for dependence computation.
struct Access {
    at: InstRef,
    locs: LocSet,
    size: u32,
}

impl Pdg {
    /// Instructions `at` directly depends on.
    pub fn deps_of(&self, at: InstRef) -> &[(InstRef, DepKind)] {
        self.deps.get(&at).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of nodes with at least one dependence.
    pub fn n_nodes(&self) -> usize {
        self.deps.len()
    }

    /// A PDG over the backward adjacency `deps` with `n_edges` edges.
    pub(crate) fn new(deps: Adjacency, n_edges: usize) -> Pdg {
        Pdg {
            deps,
            n_edges,
            forward: OnceLock::new(),
        }
    }

    /// The forward adjacency (dependents of each instruction, with edge
    /// kinds); used by the reactor's purge-mode second pass. Built on
    /// first use and kept for the life of the graph, so building a PDG
    /// costs no more than before and every later caller reads the same
    /// index. Debug builds invert the graph again on every call and
    /// require the kept index to equal it.
    pub fn forward_index(&self) -> &Adjacency {
        let fwd = self.forward.get_or_init(|| self.invert());
        debug_assert!(*fwd == self.invert(), "the kept forward index went stale");
        fwd
    }

    fn invert(&self) -> Adjacency {
        let mut fwd = Adjacency::new();
        for (from, tos) in &self.deps {
            for (to, kind) in tos {
                fwd.entry(*to).or_default().push((*from, *kind));
            }
        }
        fwd
    }

    /// Builds the PDG for `module` using a previously computed points-to
    /// result.
    pub fn compute(module: &Module, pt: &PointsTo) -> Pdg {
        let mut deps: HashMap<InstRef, Vec<(InstRef, DepKind)>> = HashMap::new();
        let mut n_edges = 0usize;
        let mut add = |deps: &mut HashMap<InstRef, Vec<(InstRef, DepKind)>>,
                       from: InstRef,
                       to: InstRef,
                       kind: DepKind| {
            let v = deps.entry(from).or_default();
            if !v.iter().any(|(t, k)| *t == to && *k == kind) {
                v.push((to, kind));
                n_edges += 1;
            }
        };

        // 1. SSA data edges.
        let mut operands = Vec::new();
        for (fi, f) in module.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for (ii, inst) in f.insts.iter().enumerate() {
                let at = InstRef {
                    func: fid,
                    inst: ii as u32,
                };
                operands.clear();
                inst.op.operands(&mut operands);
                for v in &operands {
                    add(
                        &mut deps,
                        at,
                        InstRef {
                            func: fid,
                            inst: v.0,
                        },
                        DepKind::Data,
                    );
                }
            }
        }

        // 2. Memory dependences: reads depend on may-aliasing writes.
        let (reads, writes) = collect_accesses(module, pt);
        // Group writes by abstract object for cheaper matching.
        let mut writes_by_obj: HashMap<crate::pointsto::AbsObj, Vec<usize>> = HashMap::new();
        for (wi, w) in writes.iter().enumerate() {
            let objs: BTreeSet<_> = w.locs.iter().map(|(o, _)| *o).collect();
            for o in objs {
                writes_by_obj.entry(o).or_default().push(wi);
            }
        }
        for r in &reads {
            let mut cands: BTreeSet<usize> = BTreeSet::new();
            for (o, _) in &r.locs {
                if let Some(ws) = writes_by_obj.get(o) {
                    cands.extend(ws.iter().copied());
                }
            }
            for wi in cands {
                let w = &writes[wi];
                if w.at == r.at {
                    continue;
                }
                if PointsTo::sets_may_alias(&r.locs, r.size, &w.locs, w.size) {
                    add(&mut deps, r.at, w.at, DepKind::Memory);
                }
            }
        }

        // 3. Control dependence.
        // Also remember which instructions have no intra-procedural control
        // dependence (they get calling-context edges in step 4).
        let mut context_free: HashMap<FuncId, Vec<InstRef>> = HashMap::new();
        for (fi, f) in module.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let cd = control_dependence(f);
            for (bi, b) in f.blocks.iter().enumerate() {
                let block_deps = cd.get(&pir::ir::BlockId(bi as u32));
                for &ii in &b.insts {
                    let at = InstRef {
                        func: fid,
                        inst: ii,
                    };
                    match block_deps {
                        Some(branch_blocks) => {
                            for bb in branch_blocks {
                                if let Some(term) = crate::cfg::branch_inst_of(f, *bb) {
                                    add(
                                        &mut deps,
                                        at,
                                        InstRef {
                                            func: fid,
                                            inst: term,
                                        },
                                        DepKind::Control,
                                    );
                                }
                            }
                        }
                        None => context_free.entry(fid).or_default().push(at),
                    }
                }
            }
        }

        // 4. Inter-procedural edges.
        // Call sites per callee.
        let mut callsites: HashMap<FuncId, Vec<(InstRef, Vec<Val>)>> = HashMap::new();
        for (fi, f) in module.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for (ii, inst) in f.insts.iter().enumerate() {
                let at = InstRef {
                    func: fid,
                    inst: ii as u32,
                };
                let args: Option<Vec<Val>> = match &inst.op {
                    Op::Call { args, .. } | Op::CallIndirect { args, .. } => Some(args.clone()),
                    Op::Intr {
                        intr: Intrinsic::Spawn,
                        args,
                    } => Some(vec![args[1]]),
                    _ => None,
                };
                if let Some(args) = args {
                    if let Some(targets) = pt.callees.get(&at) {
                        for t in targets {
                            callsites.entry(*t).or_default().push((at, args.clone()));
                        }
                    }
                }
            }
        }
        for (fi, f) in module.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let sites = callsites.get(&fid);
            // Parameters depend on call-site arguments.
            if let Some(sites) = sites {
                for i in 0..f.n_params {
                    let param = InstRef { func: fid, inst: i };
                    for (site, args) in sites {
                        if let Some(a) = args.get(i as usize) {
                            add(
                                &mut deps,
                                param,
                                InstRef {
                                    func: site.func,
                                    inst: a.0,
                                },
                                DepKind::Interproc,
                            );
                        }
                        // The parameter is also context-dependent on the
                        // call itself.
                        add(&mut deps, param, *site, DepKind::Interproc);
                    }
                }
                // Instructions without intra-procedural control deps depend
                // on the call sites (calling context).
                if let Some(free) = context_free.get(&fid) {
                    for at in free {
                        for (site, _) in sites {
                            add(&mut deps, *at, *site, DepKind::Interproc);
                        }
                    }
                }
            }
            // Call results depend on callee returns.
            for (ii, inst) in f.insts.iter().enumerate() {
                let at = InstRef {
                    func: fid,
                    inst: ii as u32,
                };
                let targets = match &inst.op {
                    Op::Call { .. } | Op::CallIndirect { .. } => pt.callees.get(&at),
                    _ => None,
                };
                if let Some(targets) = targets {
                    for t in targets {
                        let callee = module.func(*t);
                        for (ri, rinst) in callee.insts.iter().enumerate() {
                            if matches!(rinst.op, Op::Ret(Some(_))) {
                                add(
                                    &mut deps,
                                    at,
                                    InstRef {
                                        func: *t,
                                        inst: ri as u32,
                                    },
                                    DepKind::Interproc,
                                );
                            }
                        }
                    }
                }
            }
        }

        Pdg::new(deps, n_edges)
    }
}

/// Collects all memory reading/writing accesses with their location sets.
fn collect_accesses(module: &Module, pt: &PointsTo) -> (Vec<Access>, Vec<Access>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for (ii, inst) in f.insts.iter().enumerate() {
            let at = InstRef {
                func: fid,
                inst: ii as u32,
            };
            match &inst.op {
                Op::Load { addr, size } => reads.push(Access {
                    at,
                    locs: pt.pts(fid, *addr),
                    size: *size as u32,
                }),
                Op::Store { addr, size, .. } => writes.push(Access {
                    at,
                    locs: pt.pts(fid, *addr),
                    size: *size as u32,
                }),
                Op::Intr { intr, args } => match intr {
                    Intrinsic::Memcpy => {
                        writes.push(Access {
                            at,
                            locs: widen(pt.pts(fid, args[0])),
                            size: crate::pointsto::FIELD_MAX as u32,
                        });
                        reads.push(Access {
                            at,
                            locs: widen(pt.pts(fid, args[1])),
                            size: crate::pointsto::FIELD_MAX as u32,
                        });
                    }
                    Intrinsic::Memset => writes.push(Access {
                        at,
                        locs: widen(pt.pts(fid, args[0])),
                        size: crate::pointsto::FIELD_MAX as u32,
                    }),
                    Intrinsic::Memcmp => {
                        for a in &args[..2] {
                            reads.push(Access {
                                at,
                                locs: widen(pt.pts(fid, *a)),
                                size: crate::pointsto::FIELD_MAX as u32,
                            });
                        }
                    }
                    Intrinsic::PmPersist | Intrinsic::PmFlush | Intrinsic::PmTxAdd => {
                        reads.push(Access {
                            at,
                            locs: widen(pt.pts(fid, args[0])),
                            size: crate::pointsto::FIELD_MAX as u32,
                        })
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }
    (reads, writes)
}

/// Widens every location of a set to [`Field::Any`] (used for accesses of
/// statically unknown extent).
fn widen(locs: LocSet) -> LocSet {
    locs.into_iter().map(|(o, _)| (o, Field::Any)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::builder::ModuleBuilder;

    fn iref(module: &Module, fname: &str, pred: impl Fn(&Op) -> bool) -> InstRef {
        let fid = module.func_by_name(fname).unwrap();
        let f = module.func(fid);
        for (ii, inst) in f.insts.iter().enumerate() {
            if pred(&inst.op) {
                return InstRef {
                    func: fid,
                    inst: ii as u32,
                };
            }
        }
        panic!("no matching instruction in {fname}");
    }

    #[test]
    fn load_depends_on_aliasing_store() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 1, true);
        let size = f.konst(64);
        let pm = f.pm_alloc(size);
        let p = f.param(0);
        f.store8(pm, p);
        let v = f.load8(pm);
        f.ret(Some(v));
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let pdg = Pdg::compute(&module, &pt);
        let load = iref(&module, "f", |op| matches!(op, Op::Load { .. }));
        let store = iref(&module, "f", |op| matches!(op, Op::Store { .. }));
        assert!(
            pdg.deps_of(load)
                .iter()
                .any(|(t, k)| *t == store && *k == DepKind::Memory),
            "load must depend on the store"
        );
    }

    #[test]
    fn unrelated_objects_no_memory_edge() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, true);
        let size = f.konst(64);
        let a = f.pm_alloc(size);
        let b = f.pm_alloc(size);
        let one = f.konst(1);
        f.store8(a, one);
        let v = f.load8(b);
        f.ret(Some(v));
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let pdg = Pdg::compute(&module, &pt);
        let load = iref(&module, "f", |op| matches!(op, Op::Load { .. }));
        let store = iref(&module, "f", |op| matches!(op, Op::Store { .. }));
        assert!(
            !pdg.deps_of(load).iter().any(|(t, _)| *t == store),
            "distinct pm_alloc sites must not create a memory edge"
        );
    }

    #[test]
    fn control_edge_from_branch() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 1, true);
        let p = f.param(0);
        let out = f.local_c(0);
        let ten = f.konst(10);
        let c = f.ugt(p, ten);
        f.if_(c, |f| {
            let v = f.konst(1);
            f.store8(out, v);
        });
        let r = f.load8(out);
        f.ret(Some(r));
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let pdg = Pdg::compute(&module, &pt);
        let guarded_store = iref(&module, "f", |op| matches!(op, Op::Store { .. }));
        // Find the second store: first store is the local init. Use the one
        // with a Control dependence.
        let fid = module.func_by_name("f").unwrap();
        let f_ = module.func(fid);
        let any_control = (0..f_.insts.len() as u32).any(|ii| {
            pdg.deps_of(InstRef {
                func: fid,
                inst: ii,
            })
            .iter()
            .any(|(_, k)| *k == DepKind::Control)
        });
        let _ = guarded_store;
        assert!(any_control, "the guarded store has a control dependence");
    }

    #[test]
    fn interprocedural_param_and_ret_edges() {
        let mut m = ModuleBuilder::new();
        m.declare("callee", 1, true);
        {
            let mut f = m.func("caller", 0, true);
            let x = f.konst(5);
            let r = f.call("callee", &[x]).unwrap();
            f.ret(Some(r));
            f.finish();
        }
        {
            let mut f = m.func("callee", 1, true);
            let p = f.param(0);
            let one = f.konst(1);
            let s = f.add(p, one);
            f.ret(Some(s));
            f.finish();
        }
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let pdg = Pdg::compute(&module, &pt);
        let callee = module.func_by_name("callee").unwrap();
        let param = InstRef {
            func: callee,
            inst: 0,
        };
        let call = iref(&module, "caller", |op| matches!(op, Op::Call { .. }));
        // Param depends (interprocedurally) on the call site.
        assert!(pdg
            .deps_of(param)
            .iter()
            .any(|(t, k)| *t == call && *k == DepKind::Interproc));
        // Call result depends on the callee's ret.
        let ret = iref(&module, "callee", |op| matches!(op, Op::Ret(Some(_))));
        assert!(pdg
            .deps_of(call)
            .iter()
            .any(|(t, k)| *t == ret && *k == DepKind::Interproc));
    }
}
