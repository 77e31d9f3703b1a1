//! Andersen-style inclusion-based points-to analysis.
//!
//! This is the pointer-alias substrate of the Arthas analyzer (§4.1 of the
//! paper): inter-procedural, field-sensitive for constant GEP offsets, and
//! flow-insensitive. Abstract objects are allocation sites (allocas,
//! volatile mallocs, PM allocations, the PM pool root, globals). The
//! solver is chaotic iteration to a fixpoint, which is ample for the
//! module sizes of the target applications.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pir::ir::{FuncId, GepOff, GlobalId, InstRef, Intrinsic, Module, Op, Val};

/// Field offsets are tracked exactly up to this bound; larger or dynamic
/// offsets collapse to [`Field::Any`].
pub const FIELD_MAX: i64 = 4096;

/// A field within an abstract object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Field {
    /// Known constant byte offset.
    Exact(u32),
    /// Unknown / dynamic offset: overlaps every field.
    Any,
}

impl Field {
    fn add(self, delta: i64) -> Field {
        match self {
            Field::Exact(f) => {
                let n = f as i64 + delta;
                if (0..FIELD_MAX).contains(&n) {
                    Field::Exact(n as u32)
                } else {
                    Field::Any
                }
            }
            Field::Any => Field::Any,
        }
    }

    /// Whether an access of `a_size` bytes at `self` may overlap an access
    /// of `b_size` bytes at `other`.
    pub fn overlaps(self, a_size: u32, other: Field, b_size: u32) -> bool {
        match (self, other) {
            (Field::Any, _) | (_, Field::Any) => true,
            (Field::Exact(a), Field::Exact(b)) => a < b + b_size && b < a + a_size,
        }
    }
}

/// An abstract memory object (an allocation site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsObj {
    /// Stack allocation at this instruction.
    Alloca(InstRef),
    /// Volatile heap allocation at this instruction.
    Malloc(InstRef),
    /// Persistent-memory allocation at this instruction.
    PmAlloc(InstRef),
    /// The pool root object (one per pool, regardless of call site).
    PmRoot,
    /// A module global.
    Global(GlobalId),
}

impl AbsObj {
    /// Whether this object lives in persistent memory.
    pub fn is_pm(self) -> bool {
        matches!(self, AbsObj::PmAlloc(_) | AbsObj::PmRoot)
    }
}

/// A memory location: object + field.
pub type Loc = (AbsObj, Field);

/// A set of memory locations.
pub type LocSet = BTreeSet<Loc>;

/// Result of the points-to analysis.
pub struct PointsTo {
    pub(crate) val_pts: HashMap<(FuncId, Val), LocSet>,
    pub(crate) heap_pts: BTreeMap<Loc, LocSet>,
    /// Functions whose address is taken (indirect-call / spawn targets).
    pub address_taken: BTreeSet<FuncId>,
    /// Resolved call graph: call instruction → possible callees.
    pub callees: HashMap<InstRef, Vec<FuncId>>,
    /// Number of solver passes until fixpoint.
    pub passes: u32,
}

impl PointsTo {
    /// Points-to set of an SSA value (empty set when it is not a pointer).
    pub fn pts(&self, func: FuncId, v: Val) -> LocSet {
        self.val_pts.get(&(func, v)).cloned().unwrap_or_default()
    }

    /// Whether the value may point into persistent memory.
    pub fn may_be_pm(&self, func: FuncId, v: Val) -> bool {
        self.val_pts
            .get(&(func, v))
            .map(|s| s.iter().any(|(o, _)| o.is_pm()))
            .unwrap_or(false)
    }

    /// Whether two access sets may alias, taking access sizes into account.
    pub fn sets_may_alias(a: &LocSet, a_size: u32, b: &LocSet, b_size: u32) -> bool {
        for (oa, fa) in a {
            for (ob, fb) in b {
                if oa == ob && fa.overlaps(a_size, *fb, b_size) {
                    return true;
                }
            }
        }
        false
    }

    /// Computes the analysis for `module`.
    pub fn compute(module: &Module) -> PointsTo {
        Solver::new(module).solve()
    }
}

struct Solver<'m> {
    module: &'m Module,
    val_pts: HashMap<(FuncId, Val), LocSet>,
    heap_pts: BTreeMap<Loc, LocSet>,
    rets: Vec<Vec<Val>>,
    address_taken: BTreeSet<FuncId>,
    callees: HashMap<InstRef, Vec<FuncId>>,
    changed: bool,
}

impl<'m> Solver<'m> {
    fn new(module: &'m Module) -> Self {
        let rets = module
            .funcs
            .iter()
            .map(|f| {
                f.insts
                    .iter()
                    .filter_map(|i| match &i.op {
                        Op::Ret(Some(v)) => Some(*v),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        Solver {
            module,
            val_pts: HashMap::new(),
            heap_pts: BTreeMap::new(),
            rets,
            address_taken: BTreeSet::new(),
            callees: HashMap::new(),
            changed: false,
        }
    }

    fn add_val(&mut self, func: FuncId, v: Val, locs: impl IntoIterator<Item = Loc>) {
        let set = self.val_pts.entry((func, v)).or_default();
        for l in locs {
            if set.insert(l) {
                self.changed = true;
            }
        }
    }

    fn get_val(&self, func: FuncId, v: Val) -> LocSet {
        self.val_pts.get(&(func, v)).cloned().unwrap_or_default()
    }

    /// All heap locations that a load from `loc` may read.
    fn heap_read(&self, loc: Loc) -> LocSet {
        let (obj, field) = loc;
        let mut out = LocSet::new();
        match field {
            Field::Any => {
                // Read every field of the object.
                for ((o, _), set) in self.heap_pts.range((obj, Field::Exact(0))..) {
                    if *o != obj {
                        break;
                    }
                    out.extend(set.iter().copied());
                }
                if let Some(set) = self.heap_pts.get(&(obj, Field::Any)) {
                    out.extend(set.iter().copied());
                }
            }
            Field::Exact(_) => {
                if let Some(set) = self.heap_pts.get(&loc) {
                    out.extend(set.iter().copied());
                }
                if let Some(set) = self.heap_pts.get(&(obj, Field::Any)) {
                    out.extend(set.iter().copied());
                }
            }
        }
        out
    }

    fn heap_write(&mut self, loc: Loc, vals: &LocSet) {
        let set = self.heap_pts.entry(loc).or_default();
        for l in vals {
            if set.insert(*l) {
                self.changed = true;
            }
        }
    }

    fn solve(mut self) -> PointsTo {
        // Seed address-taken functions.
        for (fi, f) in self.module.funcs.iter().enumerate() {
            let _ = fi;
            for inst in &f.insts {
                if let Op::FuncAddr(target) = inst.op {
                    self.address_taken.insert(target);
                }
            }
        }
        let mut passes = 0;
        loop {
            passes += 1;
            self.changed = false;
            for fi in 0..self.module.funcs.len() {
                self.pass_func(FuncId(fi as u32));
            }
            if !self.changed || passes > 100 {
                break;
            }
        }
        PointsTo {
            val_pts: self.val_pts,
            heap_pts: self.heap_pts,
            address_taken: self.address_taken,
            callees: self.callees,
            passes,
        }
    }

    fn pass_func(&mut self, fid: FuncId) {
        let f = &self.module.funcs[fid.0 as usize];
        for (ii, inst) in f.insts.iter().enumerate() {
            let iref = InstRef {
                func: fid,
                inst: ii as u32,
            };
            let v = Val(ii as u32);
            match &inst.op {
                Op::Alloca { .. } => {
                    self.add_val(fid, v, [(AbsObj::Alloca(iref), Field::Exact(0))]);
                }
                Op::GlobalAddr(g) => {
                    self.add_val(fid, v, [(AbsObj::Global(*g), Field::Exact(0))]);
                }
                Op::Gep { base, offset } => {
                    let base_pts = self.get_val(fid, *base);
                    let mapped: Vec<Loc> = match offset {
                        GepOff::Const(c) => {
                            base_pts.iter().map(|(o, fld)| (*o, fld.add(*c))).collect()
                        }
                        GepOff::Dyn(_) => base_pts.iter().map(|(o, _)| (*o, Field::Any)).collect(),
                    };
                    self.add_val(fid, v, mapped);
                }
                Op::Select(_, a, b) => {
                    let s = self.get_val(fid, *a);
                    self.add_val(fid, v, s);
                    let s = self.get_val(fid, *b);
                    self.add_val(fid, v, s);
                }
                Op::Bin(_, a, b) => {
                    // Pointer arithmetic through add/sub keeps the object
                    // with an unknown field; other ops drop pointerness.
                    let mut out: Vec<Loc> = Vec::new();
                    for src in [a, b] {
                        for (o, _) in self.get_val(fid, *src) {
                            out.push((o, Field::Any));
                        }
                    }
                    if !out.is_empty() {
                        self.add_val(fid, v, out);
                    }
                }
                Op::Load { addr, size } if *size == 8 => {
                    let mut acc = LocSet::new();
                    for loc in self.get_val(fid, *addr) {
                        acc.extend(self.heap_read(loc));
                    }
                    self.add_val(fid, v, acc);
                }
                Op::Store { addr, val, size } if *size == 8 => {
                    let vals = self.get_val(fid, *val);
                    if !vals.is_empty() {
                        for loc in self.get_val(fid, *addr) {
                            self.heap_write(loc, &vals);
                        }
                    }
                }
                Op::Call { func, args } => {
                    self.callees.insert(iref, vec![*func]);
                    self.bind_call(fid, v, *func, args);
                }
                Op::CallIndirect { args, .. } => {
                    // Conservative: any address-taken function of matching
                    // arity.
                    let targets: Vec<FuncId> = self
                        .address_taken
                        .iter()
                        .copied()
                        .filter(|t| self.module.func(*t).n_params as usize == args.len())
                        .collect();
                    self.callees.insert(iref, targets.clone());
                    for t in targets {
                        self.bind_call(fid, v, t, args);
                    }
                }
                Op::Intr { intr, args } => match intr {
                    Intrinsic::PmAlloc => {
                        self.add_val(fid, v, [(AbsObj::PmAlloc(iref), Field::Exact(0))]);
                    }
                    Intrinsic::PmRoot => {
                        self.add_val(fid, v, [(AbsObj::PmRoot, Field::Exact(0))]);
                    }
                    Intrinsic::Malloc => {
                        self.add_val(fid, v, [(AbsObj::Malloc(iref), Field::Exact(0))]);
                    }
                    Intrinsic::Memcpy => {
                        // Pointer-transparent copy: everything reachable
                        // from src locations may now be in dst locations.
                        let dst = self.get_val(fid, args[0]);
                        let src = self.get_val(fid, args[1]);
                        let mut acc = LocSet::new();
                        for (o, _) in &src {
                            acc.extend(self.heap_read((*o, Field::Any)));
                        }
                        if !acc.is_empty() {
                            for (o, _) in dst {
                                self.heap_write((o, Field::Any), &acc);
                            }
                        }
                    }
                    Intrinsic::Spawn => {
                        // spawn(f, arg): bind arg to every address-taken
                        // single-parameter function.
                        let targets: Vec<FuncId> = self
                            .address_taken
                            .iter()
                            .copied()
                            .filter(|t| self.module.func(*t).n_params == 1)
                            .collect();
                        self.callees.insert(iref, targets.clone());
                        for t in targets {
                            let arg_pts = self.get_val(fid, args[1]);
                            self.add_val(t, Val(0), arg_pts);
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    fn bind_call(&mut self, caller: FuncId, call_val: Val, callee: FuncId, args: &[Val]) {
        for (i, a) in args.iter().enumerate() {
            let arg_pts = self.get_val(caller, *a);
            if !arg_pts.is_empty() {
                self.add_val(callee, Val(i as u32), arg_pts);
            }
        }
        let rets = self.rets[callee.0 as usize].clone();
        for r in rets {
            let r_pts = self.get_val(callee, r);
            if !r_pts.is_empty() {
                self.add_val(caller, call_val, r_pts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::builder::ModuleBuilder;

    #[test]
    fn alloca_and_gep_fields() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, true);
        let a = f.alloca(64);
        let g = f.gep(a, 16);
        f.ret(Some(g));
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let fid = module.func_by_name("f").unwrap();
        let pts = pt.pts(fid, g);
        assert_eq!(pts.len(), 1);
        let (obj, field) = pts.iter().next().unwrap();
        assert!(matches!(obj, AbsObj::Alloca(_)));
        assert_eq!(*field, Field::Exact(16));
    }

    #[test]
    fn pm_alloc_flows_through_store_load() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, true);
        let size = f.konst(64);
        let pm = f.pm_alloc(size);
        let slot = f.alloca(8);
        f.store8(slot, pm);
        let loaded = f.load8(slot);
        f.ret(Some(loaded));
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let fid = module.func_by_name("f").unwrap();
        assert!(pt.may_be_pm(fid, loaded), "load recovers PM pointer");
        assert!(!pt.may_be_pm(fid, slot), "the slot itself is volatile");
    }

    #[test]
    fn pm_pointer_crosses_function_boundary() {
        let mut m = ModuleBuilder::new();
        m.declare("sink_fn", 1, true);
        {
            let mut f = m.func("source", 0, true);
            let size = f.konst(32);
            let pm = f.pm_alloc(size);
            let r = f.call("sink_fn", &[pm]).unwrap();
            f.ret(Some(r));
            f.finish();
        }
        let (sink_param, sink_ret);
        {
            let mut f = m.func("sink_fn", 1, true);
            let p = f.param(0);
            sink_param = p;
            let g = f.gep(p, 8);
            sink_ret = g;
            f.ret(Some(g));
            f.finish();
        }
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let sink = module.func_by_name("sink_fn").unwrap();
        let source = module.func_by_name("source").unwrap();
        assert!(pt.may_be_pm(sink, sink_param));
        assert!(pt.may_be_pm(sink, sink_ret));
        // The return value propagates back to the caller.
        let call_val = module
            .func(source)
            .insts
            .iter()
            .position(|i| matches!(i.op, pir::ir::Op::Call { .. }))
            .map(|i| Val(i as u32))
            .unwrap();
        assert!(pt.may_be_pm(source, call_val));
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0, false);
        let a = f.alloca(8);
        let b = f.alloca(8);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let fid = module.func_by_name("f").unwrap();
        let sa = pt.pts(fid, a);
        let sb = pt.pts(fid, b);
        assert!(!PointsTo::sets_may_alias(&sa, 8, &sb, 8));
    }

    #[test]
    fn disjoint_fields_do_not_alias_but_dynamic_does() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 1, false);
        let a = f.alloca(64);
        let g0 = f.gep(a, 0);
        let g16 = f.gep(a, 16);
        let idx = f.param(0);
        let gdyn = f.gep_dyn(a, idx);
        f.ret(None);
        f.finish();
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let fid = module.func_by_name("f").unwrap();
        let s0 = pt.pts(fid, g0);
        let s16 = pt.pts(fid, g16);
        let sd = pt.pts(fid, gdyn);
        assert!(!PointsTo::sets_may_alias(&s0, 8, &s16, 8));
        assert!(PointsTo::sets_may_alias(&s0, 8, &s0, 8));
        assert!(PointsTo::sets_may_alias(&sd, 8, &s16, 8));
        // Adjacent overlapping access sizes alias.
        assert!(PointsTo::sets_may_alias(&s0, 24, &s16, 8));
    }

    #[test]
    fn spawn_binds_thread_arg() {
        let mut m = ModuleBuilder::new();
        m.declare("worker", 1, false);
        {
            let mut f = m.func("main", 0, false);
            let size = f.konst(32);
            let pm = f.pm_alloc(size);
            let w = f.func_addr("worker");
            f.spawn(w, pm);
            f.ret(None);
            f.finish();
        }
        {
            let mut f = m.func("worker", 1, false);
            f.ret(None);
            f.finish();
        }
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let worker = module.func_by_name("worker").unwrap();
        assert!(pt.may_be_pm(worker, Val(0)), "spawned arg is PM");
    }

    #[test]
    fn pm_root_is_a_singleton() {
        let mut m = ModuleBuilder::new();
        {
            let mut f = m.func("a", 0, true);
            let s = f.konst(64);
            let r = f.pm_root(s);
            f.ret(Some(r));
            f.finish();
        }
        {
            let mut f = m.func("b", 0, true);
            let s = f.konst(64);
            let r = f.pm_root(s);
            f.ret(Some(r));
            f.finish();
        }
        let module = m.finish().unwrap();
        let pt = PointsTo::compute(&module);
        let fa = module.func_by_name("a").unwrap();
        let fb = module.func_by_name("b").unwrap();
        let ra = pt.pts(fa, Val(1));
        let rb = pt.pts(fb, Val(1));
        assert!(PointsTo::sets_may_alias(&ra, 8, &rb, 8));
    }
}
