//! # pir — a small SSA IR with a persistent-memory-aware interpreter
//!
//! This crate plays the role LLVM plays in the Arthas paper ("Understanding
//! and Dealing with Hard Faults in Persistent Memory Systems", EuroSys '21):
//! the target PM applications are expressed as [`ir::Module`]s, the static
//! analyses of `pir-analysis` (points-to, PDG, slicing) consume the same
//! representation, and [`vm::Vm`] executes it against a simulated PM pool.
//!
//! Highlights:
//!
//! - [`builder::ModuleBuilder`] / [`builder::FuncBuilder`] provide
//!   structured control flow (`if_`, `while_`, `loop_`) so applications are
//!   written without hand-managed SSA;
//! - [`verify`] checks structural invariants and SSA dominance;
//! - [`vm::Vm`] reports precise traps (fault instruction + call stack),
//!   detects hangs via step budgets, runs deterministic cooperative
//!   threads, and supports crash injection — everything the Arthas
//!   detector/reactor pipeline needs;
//! - the `trace(guid, addr)` intrinsic is the runtime half of Arthas's
//!   lightweight PM address tracing.
//!
//! # Examples
//!
//! ```
//! use pir::builder::ModuleBuilder;
//! use pir::vm::{Vm, VmOpts};
//! use std::sync::Arc;
//!
//! let mut m = ModuleBuilder::new();
//! let mut f = m.func("store_and_load", 1, true);
//! let size = f.konst(64);
//! let obj = f.pm_alloc(size);
//! let p = f.param(0);
//! f.store8(obj, p);
//! f.pm_persist_c(obj, 8);
//! let v = f.load8(obj);
//! f.ret(Some(v));
//! f.finish();
//! let module = Arc::new(m.finish().unwrap());
//!
//! let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
//! let mut vm = Vm::new(module, pool, VmOpts::default());
//! assert_eq!(vm.call("store_and_load", &[42]).unwrap(), Some(42));
//! ```

// Every bounds, liveness and arity check in this crate is a real check:
// nothing here may trade one for speed.
#![forbid(unsafe_code)]

pub mod builder;
mod decode;
pub mod ir;
pub mod mem;
pub mod printer;
pub mod verify;
pub mod vm;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use ir::{
    BinOp, Block, BlockId, CmpOp, FuncId, Function, GepOff, Global, GlobalId, Inst, InstRef,
    Intrinsic, Module, Op, Val,
};
pub use vm::{CrashAt, FlipAt, Trap, Vm, VmError, VmOpts};
