//! The form of a module the interpreter executes.
//!
//! A [`Function`] is an instruction arena plus blocks of arena indices,
//! with operands as [`Val`]s and branch targets as block ids — the shape
//! the analyses want. Executing that directly costs two indirections per
//! instruction and a `Vec` per call, so the VM runs a [`FuncCode`]
//! instead: the blocks laid out back to back as one array, every operand
//! already a register-slot index, every branch target already a position
//! in the array. It is the same instructions in the same order — one
//! [`DInst`] per executed IR instruction, each carrying its arena index, so
//! steps, traps and `InstRef`s are exactly those of the IR.
//!
//! Decoding is lazy (a function is decoded the first time a VM enters it)
//! and shared: every VM over one `Arc<Module>` uses one [`Decoded`], found
//! through a process-wide registry keyed by the `Arc`'s address. The
//! registry holds a `Weak`, which is what makes the cache safe against
//! staleness: while a `Weak` exists `Arc::get_mut` refuses and
//! `Arc::make_mut` moves the module to a fresh allocation, so the module
//! at a registered address cannot change, and the address cannot be
//! reused while the entry is there. A `Module` edited through its public
//! fields (as `instrument` does to a clone) is a different allocation and
//! decodes on its own.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::ir::{BinOp, CmpOp, FuncId, Function, GepOff, Intrinsic, Module, Op, Val};
use crate::mem::{FUNC_TAG, GLOBALS_BASE};

/// "No register": a `ret` without a value, a frame nobody returns into.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// One instruction with operands resolved to frame-relative register
/// slots and branch targets to positions in [`FuncCode::code`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum DOp {
    /// Copy of the argument held in this slot of the frame's argument area.
    Param(u32),
    /// Constants, function addresses and global addresses.
    Const(u64),
    Bin(BinOp, u32, u32),
    Cmp(CmpOp, u32, u32),
    Select(u32, u32, u32),
    Alloca(u64),
    Load {
        addr: u32,
        size: u8,
    },
    Store {
        addr: u32,
        val: u32,
        size: u8,
    },
    GepConst {
        base: u32,
        off: u64,
    },
    GepDyn {
        base: u32,
        off: u32,
    },
    Br(u32),
    CondBr {
        cond: u32,
        then_: u32,
        else_: u32,
    },
    /// Slot of the returned value, or [`NO_SLOT`].
    Ret(u32),
    /// `n` argument slots starting at `args` in [`FuncCode::arg_slots`].
    Call {
        func: FuncId,
        args: u32,
        n: u32,
    },
    CallIndirect {
        target: u32,
        args: u32,
        n: u32,
    },
    Unreachable,
    /// The first `n` of `args` are the argument slots (no intrinsic reads
    /// more than three).
    Intr {
        intr: Intrinsic,
        n: u8,
        args: [u32; 3],
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct DInst {
    pub op: DOp,
    /// Arena index of the instruction: its `InstRef` and its result slot.
    pub inst: u32,
}

/// One decoded function. Execution starts at position 0.
#[derive(Debug)]
pub(crate) struct FuncCode {
    pub code: Vec<DInst>,
    pub arg_slots: Vec<u32>,
    /// Result slots of a frame (one per arena instruction); the frame's
    /// `n_params` argument slots follow them.
    pub n_regs: u32,
    pub n_params: u32,
}

impl FuncCode {
    pub fn frame_len(&self) -> usize {
        (self.n_regs + self.n_params) as usize
    }
}

fn decode(module: &Module, f: &Function, global_offsets: &[u64]) -> FuncCode {
    let n_regs = f.insts.len() as u32;
    let mut block_start = Vec::with_capacity(f.blocks.len());
    let mut len = 0u32;
    for b in &f.blocks {
        debug_assert!(
            b.insts
                .last()
                .is_some_and(|&i| f.insts[i as usize].op.is_terminator()),
            "verify: a block ends in its terminator"
        );
        block_start.push(len);
        len += b.insts.len() as u32;
    }
    let slot = |v: &Val| {
        debug_assert!(v.0 < n_regs, "verify: operand ranges");
        v.0
    };
    let mut arg_slots = Vec::new();
    let mut call_args = |args: &[Val]| {
        let start = arg_slots.len() as u32;
        arg_slots.extend(args.iter().map(slot));
        (start, args.len() as u32)
    };
    let mut code = Vec::with_capacity(len as usize);
    for &inst in f.blocks.iter().flat_map(|b| &b.insts) {
        let op = match &f.insts[inst as usize].op {
            Op::Param(i) => {
                debug_assert!(*i < f.n_params, "verify: params are the declared ones");
                DOp::Param(n_regs + i)
            }
            Op::Const(c) => DOp::Const(*c),
            Op::Bin(op, a, b) => DOp::Bin(*op, slot(a), slot(b)),
            Op::Cmp(op, a, b) => DOp::Cmp(*op, slot(a), slot(b)),
            Op::Select(c, a, b) => DOp::Select(slot(c), slot(a), slot(b)),
            Op::Alloca { size } => DOp::Alloca(*size),
            Op::Load { addr, size } => DOp::Load {
                addr: slot(addr),
                size: *size,
            },
            Op::Store { addr, val, size } => DOp::Store {
                addr: slot(addr),
                val: slot(val),
                size: *size,
            },
            Op::Gep { base, offset } => match offset {
                GepOff::Const(c) => DOp::GepConst {
                    base: slot(base),
                    off: *c as u64,
                },
                GepOff::Dyn(v) => DOp::GepDyn {
                    base: slot(base),
                    off: slot(v),
                },
            },
            // An unknown block is `verify`'s "branch to unknown block".
            Op::Br(t) => DOp::Br(block_start[t.0 as usize]),
            Op::CondBr { cond, then_, else_ } => DOp::CondBr {
                cond: slot(cond),
                then_: block_start[then_.0 as usize],
                else_: block_start[else_.0 as usize],
            },
            Op::Ret(v) => DOp::Ret(v.as_ref().map_or(NO_SLOT, slot)),
            Op::Call { func, args } => {
                debug_assert!(
                    module.funcs[func.0 as usize].n_params as usize == args.len(),
                    "verify: call signatures"
                );
                let (args, n) = call_args(args);
                DOp::Call {
                    func: *func,
                    args,
                    n,
                }
            }
            Op::CallIndirect { target, args } => {
                let (args, n) = call_args(args);
                DOp::CallIndirect {
                    target: slot(target),
                    args,
                    n,
                }
            }
            Op::FuncAddr(id) => DOp::Const(FUNC_TAG | id.0 as u64),
            Op::GlobalAddr(g) => DOp::Const(GLOBALS_BASE + global_offsets[g.0 as usize]),
            Op::Unreachable => DOp::Unreachable,
            Op::Intr { intr, args } => {
                let mut slots = [0; 3];
                let n = args.len().min(3);
                for (s, a) in slots.iter_mut().zip(args) {
                    *s = slot(a);
                }
                DOp::Intr {
                    intr: *intr,
                    n: n as u8,
                    args: slots,
                }
            }
        };
        code.push(DInst { op, inst });
    }
    FuncCode {
        code,
        arg_slots,
        n_regs,
        n_params: f.n_params,
    }
}

/// Everything the interpreter derives from a module, made once per
/// `Arc<Module>` and shared by every VM over it.
pub(crate) struct Decoded {
    funcs: Vec<OnceLock<FuncCode>>,
    by_name: HashMap<String, FuncId>,
    /// Offset of each global in the globals region (16-byte aligned).
    pub global_offsets: Vec<u64>,
    pub globals_size: u64,
}

/// Live modules and their decoded forms; see the module docs for why the
/// `Weak` makes the address a sound key.
static REGISTRY: Mutex<Vec<(Weak<Module>, Arc<Decoded>)>> = Mutex::new(Vec::new());

impl Decoded {
    /// The decoded form of `module`, shared with every other caller
    /// holding the same `Arc`. Decodes no function.
    pub fn of(module: &Arc<Module>) -> Arc<Decoded> {
        // Every update leaves the list valid, so a poisoned lock is usable.
        let mut registry = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        let key = Arc::as_ptr(module);
        if let Some((_, d)) = registry.iter().find(|(m, _)| m.as_ptr() == key) {
            return d.clone();
        }
        registry.retain(|(m, _)| m.strong_count() > 0);
        let decoded = Arc::new(Decoded::new(module));
        registry.push((Arc::downgrade(module), decoded.clone()));
        decoded
    }

    fn new(module: &Module) -> Decoded {
        let mut by_name = HashMap::with_capacity(module.funcs.len());
        for (i, f) in module.funcs.iter().enumerate() {
            // First of a name wins, as in `Module::func_by_name`.
            by_name.entry(f.name.clone()).or_insert(FuncId(i as u32));
        }
        let mut global_offsets = Vec::with_capacity(module.globals.len());
        let mut globals_size = 0u64;
        for g in &module.globals {
            global_offsets.push(globals_size);
            globals_size += g.size.div_ceil(16) * 16;
        }
        Decoded {
            funcs: module.funcs.iter().map(|_| OnceLock::new()).collect(),
            by_name,
            global_offsets,
            globals_size,
        }
    }

    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// The code of function `id` of `module` — the module this was made
    /// [`of`](Decoded::of) — decoded on first use.
    pub fn func(&self, module: &Module, id: FuncId) -> &FuncCode {
        self.funcs[id.0 as usize]
            .get_or_init(|| decode(module, module.func(id), &self.global_offsets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    fn module() -> Module {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 1, true);
        let p = f.param(0);
        let one = f.konst(1);
        let c = f.ult(p, one);
        f.if_(c, |f| f.ret_c(7));
        let r = f.add(p, one);
        f.ret(Some(r));
        f.finish();
        m.finish().unwrap()
    }

    #[test]
    fn code_is_the_blocks_back_to_back_with_targets_as_positions() {
        let m = module();
        let f = &m.funcs[0];
        let code = decode(&m, f, &[]);
        let flat: Vec<u32> = f.blocks.iter().flat_map(|b| b.insts.clone()).collect();
        assert_eq!(code.code.iter().map(|d| d.inst).collect::<Vec<_>>(), flat);
        assert_eq!((code.n_regs, code.n_params), (f.insts.len() as u32, 1));
        for d in &code.code {
            if let DOp::CondBr { then_, else_, .. } = d.op {
                for (pos, block) in [(then_, 1), (else_, 2)] {
                    assert_eq!(code.code[pos as usize].inst, f.blocks[block].insts[0]);
                }
            }
        }
    }

    #[test]
    fn one_decoded_form_per_arc_and_none_outlives_its_module() {
        let a = Arc::new(module());
        let b = Arc::new(module());
        let da = Decoded::of(&a);
        assert!(Arc::ptr_eq(&da, &Decoded::of(&a.clone())));
        assert!(!Arc::ptr_eq(&da, &Decoded::of(&b)));
        let gone = Arc::as_ptr(&a);
        drop((a, da));
        // The next miss drops the dead entry (and the decoded form with it).
        let _ = Decoded::of(&Arc::new(module()));
        let registry = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        assert!(registry
            .iter()
            .all(|(m, _)| m.as_ptr() != gone || m.strong_count() > 0));
    }

    #[test]
    fn a_registered_module_cannot_change_in_place() {
        let mut a = Arc::new(module());
        let before = Arc::as_ptr(&a);
        let _ = Decoded::of(&a);
        assert!(Arc::get_mut(&mut a).is_none());
        Arc::make_mut(&mut a).funcs[0].name = "g".into();
        assert_ne!(Arc::as_ptr(&a), before, "edited copy is a new allocation");
        assert_eq!(Decoded::of(&a).func_id("g"), Some(FuncId(0)));
    }
}
