//! The pir interpreter.
//!
//! Executes a verified [`Module`] against a [`PmPool`], with:
//!
//! - precise traps carrying the *fault instruction* ([`InstRef`]) and call
//!   stack — exactly the failure evidence the Arthas detector consumes;
//! - a per-call step budget so infinite loops surface as [`Trap::StepLimit`]
//!   (hang detection);
//! - deterministic cooperative threads with a round-robin scheduler and
//!   address-identified mutexes (for the concurrency-bug scenarios);
//! - fault injection: crash at the n-th execution of an instruction;
//! - the `trace(guid, addr)` intrinsic feeding the Arthas PM address trace.
//!
//! What runs is the module's decoded form (see `decode.rs`): one
//! step per IR instruction, with the same traps, step counts and thread
//! interleaving the IR defines. A call costs what it executes — a thread's
//! frames share one register stack, loads and stores go through
//! caller-provided buffers, and a stack is backed by what was stored to it.
//!
//! A simulated process restart is: extract the pool with [`Vm::crash`] (or
//! [`Vm::into_pool`] for a clean shutdown) and construct a fresh [`Vm`]
//! over it — all volatile state is lost, durable PM state survives.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use pmemsim::{PmError, PmPool};

use crate::decode::{DInst, DOp, Decoded, NO_SLOT};
use crate::ir::{BinOp, CmpOp, FuncId, InstRef, Intrinsic, Module};
use crate::mem::{
    is_pm, pm_addr, pm_offset, MemFault, VolMem, FUNC_TAG, GLOBALS_BASE, STACK_BASE, STACK_SIZE,
};

/// Reasons the interpreter stops a program abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Invalid memory access (null, out-of-bounds, use-after-free).
    Segfault {
        /// The faulting address.
        addr: u64,
    },
    /// Division or remainder by zero.
    DivByZero,
    /// `assert` intrinsic failed with this code.
    AssertFail {
        /// Application-chosen assertion code.
        code: u64,
    },
    /// `abort` intrinsic with this code (server panic).
    Abort {
        /// Application-chosen abort code.
        code: u64,
    },
    /// The per-call step budget was exhausted: the request hangs.
    StepLimit,
    /// Every live thread is blocked: deadlock.
    Deadlock,
    /// Call depth or stack space exhausted.
    StackOverflow,
    /// Bad `vfree`/`pm_free` (not a live block / double free).
    BadFree {
        /// The offending address.
        addr: u64,
    },
    /// An injected crash fired (power failure / untimely kill).
    InjectedCrash,
    /// `unreachable` executed or another invariant broke.
    Misc(String),
}

impl Trap {
    /// A small integer "exit code" for the detector's symptom comparison.
    pub fn exit_code(&self) -> u64 {
        match self {
            Trap::Segfault { .. } => 11,
            Trap::DivByZero => 8,
            Trap::AssertFail { code } => 134_000 + code,
            Trap::Abort { code } => 6_000 + code,
            Trap::StepLimit => 124,
            Trap::Deadlock => 125,
            Trap::StackOverflow => 139,
            Trap::BadFree { .. } => 7,
            Trap::InjectedCrash => 137,
            Trap::Misc(_) => 1,
        }
    }
}

/// A trap plus its execution context.
#[derive(Debug, Clone)]
pub struct VmError {
    /// What went wrong.
    pub trap: Trap,
    /// The fault instruction.
    pub at: Option<InstRef>,
    /// Source-location label of the fault instruction.
    pub loc: String,
    /// Call stack (innermost last), as function names.
    pub stack: Vec<String>,
    /// Steps executed in this call when the trap fired.
    pub step: u64,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.trap)?;
        if let Some(at) = self.at {
            write!(f, " at {at}")?;
            if !self.loc.is_empty() {
                write!(f, " ({})", self.loc)?;
            }
        }
        write!(f, " stack=[{}]", self.stack.join(" > "))
    }
}

impl std::error::Error for VmError {}

/// Interpreter tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct VmOpts {
    /// Steps allowed per [`Vm::call`] before declaring a hang.
    pub step_limit: u64,
    /// Scheduler quantum in instructions.
    pub quantum: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for VmOpts {
    fn default() -> Self {
        VmOpts {
            step_limit: 2_000_000,
            quantum: 50,
            max_depth: 256,
        }
    }
}

/// A pending crash injection: trap with [`Trap::InjectedCrash`] immediately
/// before the `nth` execution of instruction `at`.
#[derive(Debug, Clone)]
pub struct CrashAt {
    /// The instruction to interrupt.
    pub at: InstRef,
    /// Which dynamic occurrence triggers (1-based).
    pub nth: u64,
    seen: u64,
}

/// A pending hardware bit-flip injection: flip `bit` of the durable PM
/// byte at `offset` immediately before the `nth` execution of `at` —
/// modelling a CPU/DRAM fault corrupting state mid-execution (the
/// paper's "Hardware Faults" class, §2.4).
#[derive(Debug, Clone)]
pub struct FlipAt {
    /// The instruction the flip coincides with.
    pub at: InstRef,
    /// Which dynamic occurrence triggers (1-based).
    pub nth: u64,
    /// PM pool offset of the corrupted byte.
    pub offset: u64,
    /// Bit index (0-7).
    pub bit: u8,
    seen: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedMutex(u64),
    BlockedJoin(u32),
    Finished,
}

/// One activation. Its registers are `regs[base..base + frame_len]` of
/// its thread: a result slot per arena instruction, then the arguments.
#[derive(Clone, Copy)]
struct Frame {
    func: FuncId,
    /// Position in the function's decoded code; current only while the
    /// frame is not the one executing.
    pc: u32,
    base: u32,
    /// The caller's slot for the return value, or [`NO_SLOT`].
    ret_to: u32,
    stack_mark: u64,
}

struct Thread {
    frames: Vec<Frame>,
    /// The register stack all of the thread's frames live on.
    regs: Vec<u64>,
    state: ThreadState,
    stack_top: u64,
    result: u64,
}

#[derive(Default)]
struct MutexState {
    owner: Option<u32>,
    waiters: VecDeque<u32>,
}

/// How an intrinsic leaves its thread.
enum Flow {
    Next,
    Yield,
    Blocked,
}

/// Why a thread stopped running.
enum Exit {
    /// Its quantum ended, it yielded, blocked or finished: schedule again.
    Switch,
    StepLimit,
    Trap(Trap, InstRef),
}

/// `memcpy`/`memset` lengths above this are treated as wild.
const MAX_COPY: u64 = 16 << 20;
/// Piece size of `memcpy` and `memcmp`.
const CHUNK: usize = 4096;

/// The interpreter.
pub struct Vm {
    module: Arc<Module>,
    decoded: Arc<Decoded>,
    pool: PmPool,
    mem: VolMem,
    threads: Vec<Thread>,
    /// Number of threads in `ThreadState::Runnable`; kept by `set_state`.
    n_runnable: usize,
    free_tids: Vec<u32>,
    mutexes: HashMap<u64, MutexState>,
    /// Logical clock readable by programs via the `clock` intrinsic.
    pub clock: u64,
    trace: Vec<(u64, u64)>,
    log: Vec<u64>,
    crashes: Vec<CrashAt>,
    flips: Vec<FlipAt>,
    /// `armed[func][inst]`: some crash or flip names that instruction.
    /// Empty until the first injection, so an unarmed VM tests one length.
    armed: Vec<Vec<bool>>,
    steps_total: u64,
    opts: VmOpts,
}

impl Vm {
    /// Creates a VM for `module` over `pool`.
    pub fn new(module: Arc<Module>, pool: PmPool, opts: VmOpts) -> Self {
        let decoded = Decoded::of(&module);
        Vm {
            mem: VolMem::new(decoded.globals_size),
            module,
            decoded,
            pool,
            threads: Vec::new(),
            n_runnable: 0,
            free_tids: Vec::new(),
            mutexes: HashMap::new(),
            clock: 0,
            trace: Vec::new(),
            log: Vec::new(),
            crashes: Vec::new(),
            flips: Vec::new(),
            armed: Vec::new(),
            steps_total: 0,
            opts,
        }
    }

    /// The module being executed.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Mutable access to the pool (drivers attach sinks, inspect state).
    pub fn pool_mut(&mut self) -> &mut PmPool {
        &mut self.pool
    }

    /// Shared access to the pool.
    pub fn pool(&self) -> &PmPool {
        &self.pool
    }

    /// The volatile address space (host-side inspection).
    pub fn mem(&self) -> &VolMem {
        &self.mem
    }

    /// Clean shutdown: drops volatile state, returns the pool (unflushed
    /// cache lines are *not* lost — the process exited, the machine did
    /// not).
    pub fn into_pool(self) -> PmPool {
        self.pool
    }

    /// Simulated crash: non-durable PM state is discarded per the device's
    /// crash policy, and the pool is returned for a later restart.
    pub fn crash(mut self) -> PmPool {
        self.pool.crash_and_reopen().expect("pool recovery");
        self.pool
    }

    /// Registers a crash injection.
    pub fn inject_crash(&mut self, at: InstRef, nth: u64) {
        self.crashes.push(CrashAt { at, nth, seen: 0 });
        self.arm(at);
    }

    /// Registers a bit-flip injection: just before the `nth` execution of
    /// `at`, flip `bit` of the durable PM byte at pool offset `offset`.
    pub fn inject_bitflip(&mut self, at: InstRef, nth: u64, offset: u64, bit: u8) {
        self.flips.push(FlipAt {
            at,
            nth,
            offset,
            bit,
            seen: 0,
        });
        self.arm(at);
    }

    fn arm(&mut self, at: InstRef) {
        let (f, i) = (at.func.0 as usize, at.inst as usize);
        if self.armed.len() <= f {
            self.armed.resize(f + 1, Vec::new());
        }
        if self.armed[f].len() <= i {
            self.armed[f].resize(i + 1, false);
        }
        self.armed[f][i] = true;
    }

    /// Counts this execution of `at` against every injection armed on it.
    /// Returns true when a crash is due; due flips are applied.
    fn fire_injections(&mut self, at: InstRef) -> bool {
        for c in &mut self.crashes {
            if c.at == at {
                c.seen += 1;
                if c.seen == c.nth {
                    return true;
                }
            }
        }
        for fl in &mut self.flips {
            if fl.at == at {
                fl.seen += 1;
                if fl.seen == fl.nth {
                    let _ = self.pool.corrupt_bit(fl.offset, fl.bit);
                }
            }
        }
        false
    }

    /// Moves the PM address trace out, leaving no capacity behind; the
    /// workspace drains in place with [`Vm::drain_trace`] (`hfbench`, a
    /// package of its own, still calls this).
    pub fn take_trace(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.trace)
    }

    /// Drains the PM address trace in place: the buffer keeps its
    /// capacity, so a caller that drains after every call stops
    /// reallocating it.
    pub fn drain_trace(&mut self) -> std::vec::Drain<'_, (u64, u64)> {
        self.trace.drain(..)
    }

    /// Number of buffered trace records.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// The buffered trace records, oldest first, left in place.
    pub fn buffered_trace(&self) -> &[(u64, u64)] {
        &self.trace
    }

    /// Drains the debug print log.
    pub fn take_log(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.log)
    }

    /// Total steps executed over the VM's lifetime.
    pub fn steps_total(&self) -> u64 {
        self.steps_total
    }

    /// Address of a global by name (host-side inspection).
    pub fn global_addr_of(&self, name: &str) -> Option<u64> {
        self.module
            .globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GLOBALS_BASE + self.decoded.global_offsets[i])
    }

    /// Host-side memory read across all address spaces.
    pub fn read_mem(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, Trap> {
        if is_pm(addr) {
            self.pool
                .read(pm_offset(addr), len)
                .map_err(|_| Trap::Segfault { addr })
        } else {
            self.mem.read(addr, len).map_err(fault_to_trap)
        }
    }

    /// Host-side u64 read.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, Trap> {
        let mut b = [0; 8];
        self.mread_into(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Host-side memory write across all address spaces.
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        self.mwrite(addr, bytes)
    }

    /// Calls `name` with `args` and runs (all threads, round-robin) until
    /// the call returns, traps or exhausts the step budget.
    pub fn call(&mut self, name: &str, args: &[u64]) -> Result<Option<u64>, VmError> {
        let refused = |why: String| VmError {
            trap: Trap::Misc(why),
            at: None,
            loc: String::new(),
            stack: Vec::new(),
            step: 0,
        };
        let fid = self
            .decoded
            .func_id(name)
            .ok_or_else(|| refused(format!("no function named {name}")))?;
        let func = self.module.func(fid);
        if func.n_params as usize != args.len() {
            return Err(refused(format!(
                "call {name}: {} args supplied, {} expected",
                args.len(),
                func.n_params
            )));
        }
        let has_ret = func.has_ret;
        self.recycle_finished();
        let tid = self.new_thread(fid, args);
        match self.run_scheduler(Some(tid), self.opts.step_limit) {
            Ok(()) => Ok(has_ret.then_some(self.threads[tid as usize].result)),
            Err(e) => {
                // The process would have died; quiesce all threads.
                for t in &mut self.threads {
                    t.state = ThreadState::Finished;
                    t.frames.clear();
                }
                self.n_runnable = 0;
                self.mutexes.clear();
                Err(e)
            }
        }
    }

    /// Runs background threads (e.g. an async free worker) for up to
    /// `steps` instructions without a foreground call.
    pub fn idle(&mut self, steps: u64) -> Result<(), VmError> {
        match self.run_scheduler(None, steps) {
            Err(e) if matches!(e.trap, Trap::StepLimit) => Ok(()),
            other => other,
        }
    }

    /// Whether any non-finished background thread exists.
    pub fn has_live_threads(&self) -> bool {
        self.threads
            .iter()
            .any(|t| t.state != ThreadState::Finished)
    }

    fn recycle_finished(&mut self) {
        for (i, t) in self.threads.iter().enumerate() {
            if t.state == ThreadState::Finished && !self.free_tids.contains(&(i as u32)) {
                self.free_tids.push(i as u32);
            }
        }
    }

    fn set_state(&mut self, tid: u32, state: ThreadState) {
        let t = &mut self.threads[tid as usize];
        self.n_runnable -= (t.state == ThreadState::Runnable) as usize;
        self.n_runnable += (state == ThreadState::Runnable) as usize;
        t.state = state;
    }

    /// Starts `func(args)` on a recycled or new thread slot. Callers have
    /// checked the arity.
    fn new_thread(&mut self, func: FuncId, args: &[u64]) -> u32 {
        let tid = match self.free_tids.pop() {
            Some(t) => {
                self.mem.reset_stack(t);
                t
            }
            None => {
                let t = self.threads.len() as u32;
                self.threads.push(Thread {
                    frames: Vec::new(),
                    regs: Vec::new(),
                    state: ThreadState::Finished,
                    stack_top: 0,
                    result: 0,
                });
                self.mem.ensure_stack(t);
                t
            }
        };
        let code = self.decoded.func(&self.module, func);
        let t = &mut self.threads[tid as usize];
        t.regs.clear();
        t.regs.resize(code.frame_len(), 0);
        t.regs[code.n_regs as usize..].copy_from_slice(args);
        t.frames.clear();
        t.frames.push(Frame {
            func,
            pc: 0,
            base: 0,
            ret_to: NO_SLOT,
            stack_mark: 0,
        });
        t.stack_top = 0;
        t.result = 0;
        self.set_state(tid, ThreadState::Runnable);
        tid
    }

    /// Round-robin over the runnable threads, a quantum at a time, until
    /// `main` finishes (or, without one, nothing is runnable), a thread
    /// traps, or `budget` steps have run.
    fn run_scheduler(&mut self, main: Option<u32>, budget: u64) -> Result<(), VmError> {
        let decoded = Arc::clone(&self.decoded);
        let mut remaining = budget;
        let mut rr = 0usize;
        loop {
            if let Some(m) = main {
                if self.threads[m as usize].state == ThreadState::Finished {
                    return Ok(());
                }
            }
            if self.n_runnable == 0 {
                return match main {
                    None => Ok(()), // idle: everyone blocked or done
                    Some(m) => Err(self.error_at_thread(m, Trap::Deadlock)),
                };
            }
            let tid = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == ThreadState::Runnable)
                .nth(rr % self.n_runnable)
                .map(|(i, _)| i as u32)
                .expect("n_runnable counts the runnable threads");
            rr += 1;
            let mut regs = std::mem::take(&mut self.threads[tid as usize].regs);
            let exit = self.run_thread(&decoded, tid, &mut regs, &mut remaining, &mut rr);
            self.threads[tid as usize].regs = regs;
            match exit {
                Exit::Switch => {}
                Exit::StepLimit => {
                    let report = match main {
                        Some(m) if !self.threads[m as usize].frames.is_empty() => m,
                        _ => tid,
                    };
                    return Err(self.error_at_thread(report, Trap::StepLimit));
                }
                Exit::Trap(trap, at) => return Err(self.make_error(tid, trap, Some(at))),
            }
        }
    }

    fn cur_inst_ref(&self, tid: u32) -> Option<InstRef> {
        let fr = self.threads[tid as usize].frames.last()?;
        let code = self.decoded.func(&self.module, fr.func);
        Some(InstRef {
            func: fr.func,
            inst: code.code.get(fr.pc as usize)?.inst,
        })
    }

    fn error_at_thread(&self, tid: u32, trap: Trap) -> VmError {
        let at = self.cur_inst_ref(tid);
        self.make_error(tid, trap, at)
    }

    fn make_error(&self, tid: u32, trap: Trap, at: Option<InstRef>) -> VmError {
        let stack = self.threads[tid as usize]
            .frames
            .iter()
            .map(|fr| self.module.func(fr.func).name.clone())
            .collect();
        let loc = at
            .map(|a| self.module.loc_of(a).to_string())
            .unwrap_or_default();
        VmError {
            trap,
            at,
            loc,
            stack,
            step: self.steps_total,
        }
    }

    /// Moves a thread that was blocked on an instruction past it.
    fn advance(&mut self, tid: u32) {
        let fr = self.threads[tid as usize]
            .frames
            .last_mut()
            .expect("live frame");
        fr.pc += 1;
    }

    fn mread_into(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Trap> {
        if is_pm(addr) {
            self.pool
                .read_into(pm_offset(addr), buf)
                .map_err(|_| Trap::Segfault { addr })
        } else {
            self.mem.read_into(addr, buf).map_err(fault_to_trap)
        }
    }

    fn mwrite(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        if is_pm(addr) {
            self.pool
                .write(pm_offset(addr), bytes)
                .map_err(|_| Trap::Segfault { addr })
        } else {
            self.mem.write(addr, bytes).map_err(fault_to_trap)
        }
    }

    /// Everything a read of `[addr, addr + len)` does except produce the
    /// bytes: the fault, the device's read count, the recovery-read report.
    fn mnote_read(&mut self, addr: u64, len: u64) -> Result<(), Trap> {
        if is_pm(addr) {
            self.pool
                .note_read(pm_offset(addr), len)
                .map_err(|_| Trap::Segfault { addr })
        } else {
            self.mem.check(addr, len).map_err(fault_to_trap)
        }
    }

    /// The bytes of a range `mnote_read` accepted.
    fn mpeek_into(&self, addr: u64, buf: &mut [u8]) -> Result<(), Trap> {
        if is_pm(addr) {
            self.pool
                .peek_into(pm_offset(addr), buf)
                .map_err(|_| Trap::Segfault { addr })
        } else {
            self.mem.read_into(addr, buf).map_err(fault_to_trap)
        }
    }

    /// Faults as a write of `len` bytes at `addr` would, writing nothing.
    fn mcheck_write(&self, addr: u64, len: u64) -> Result<(), Trap> {
        if is_pm(addr) {
            self.pool
                .check_range(pm_offset(addr), len)
                .map_err(|_| Trap::Segfault { addr })
        } else {
            self.mem.check(addr, len).map_err(fault_to_trap)
        }
    }

    /// Runs thread `tid` — whose register stack the caller holds in `regs`
    /// — until it has to give way. A quantum is `opts.quantum`
    /// instructions; while no other thread is runnable the next quantum is
    /// this thread's again (`rr` counts it as the scheduler would), so a
    /// lone thread never leaves this loop.
    fn run_thread(
        &mut self,
        decoded: &Decoded,
        tid: u32,
        regs: &mut Vec<u64>,
        remaining: &mut u64,
        rr: &mut usize,
    ) -> Exit {
        let ti = tid as usize;
        let quantum = self.opts.quantum.max(1);
        let mut q = quantum;
        'frame: loop {
            let Frame { func, pc, base, .. } = *self.threads[ti]
                .frames
                .last()
                .expect("a runnable thread has a frame");
            let code = decoded.func(&self.module, func);
            let armed = self
                .armed
                .get(func.0 as usize)
                .is_some_and(|m| !m.is_empty());
            let base = base as usize;
            let mut pc = pc as usize;
            let fr = &mut regs[base..];
            // The frame's `pc` is written back on every way out of this
            // loop: a trapped or preempted thread resumes where it was.
            macro_rules! leave {
                ($exit:expr) => {{
                    self.threads[ti].frames.last_mut().expect("live frame").pc = pc as u32;
                    return $exit;
                }};
            }
            // One executed instruction, against the quantum, the call's
            // budget and the VM's lifetime count.
            macro_rules! count_step {
                () => {{
                    q -= 1;
                    *remaining -= 1;
                    self.steps_total += 1;
                }};
            }
            loop {
                if q == 0 {
                    if self.n_runnable > 1 {
                        leave!(Exit::Switch);
                    }
                    q = quantum;
                    *rr += 1;
                }
                if *remaining == 0 {
                    leave!(Exit::StepLimit);
                }
                let DInst { op, inst } = code.code[pc];
                let at = InstRef { func, inst };
                macro_rules! trap {
                    ($t:expr) => {
                        leave!(Exit::Trap($t, at))
                    };
                }
                macro_rules! try_mem {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(t) => trap!(t),
                        }
                    };
                }
                // Pushes a frame for `callee`, its arguments copied from
                // the `n` caller slots listed at `args`.
                macro_rules! enter {
                    ($callee:expr, $args:expr, $n:expr) => {{
                        if self.threads[ti].frames.len() >= self.opts.max_depth {
                            trap!(Trap::StackOverflow);
                        }
                        let callee = decoded.func(&self.module, $callee);
                        let callee_base = regs.len();
                        regs.resize(callee_base + callee.frame_len(), 0);
                        let arg_slots = &code.arg_slots[$args as usize..($args + $n) as usize];
                        for (k, &s) in arg_slots.iter().enumerate() {
                            regs[callee_base + callee.n_regs as usize + k] =
                                regs[base + s as usize];
                        }
                        let t = &mut self.threads[ti];
                        // Resume after the call on return.
                        t.frames.last_mut().expect("live frame").pc = pc as u32 + 1;
                        t.frames.push(Frame {
                            func: $callee,
                            pc: 0,
                            base: callee_base as u32,
                            ret_to: inst,
                            stack_mark: t.stack_top,
                        });
                        count_step!();
                        continue 'frame;
                    }};
                }
                if armed
                    && self.armed[func.0 as usize].get(inst as usize) == Some(&true)
                    && self.fire_injections(at)
                {
                    trap!(Trap::InjectedCrash);
                }
                let dst = inst as usize;
                match op {
                    DOp::Param(s) => fr[dst] = fr[s as usize],
                    DOp::Const(c) => fr[dst] = c,
                    DOp::Bin(bop, a, b) => {
                        let (x, y) = (fr[a as usize], fr[b as usize]);
                        fr[dst] = match bop {
                            BinOp::Add => x.wrapping_add(y),
                            BinOp::Sub => x.wrapping_sub(y),
                            BinOp::Mul => x.wrapping_mul(y),
                            BinOp::UDiv => {
                                if y == 0 {
                                    trap!(Trap::DivByZero)
                                }
                                x / y
                            }
                            BinOp::URem => {
                                if y == 0 {
                                    trap!(Trap::DivByZero)
                                }
                                x % y
                            }
                            BinOp::And => x & y,
                            BinOp::Or => x | y,
                            BinOp::Xor => x ^ y,
                            BinOp::Shl => x.wrapping_shl((y & 63) as u32),
                            BinOp::LShr => x.wrapping_shr((y & 63) as u32),
                        };
                    }
                    DOp::Cmp(cop, a, b) => {
                        let (x, y) = (fr[a as usize], fr[b as usize]);
                        fr[dst] = match cop {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::ULt => x < y,
                            CmpOp::ULe => x <= y,
                            CmpOp::UGt => x > y,
                            CmpOp::UGe => x >= y,
                            CmpOp::SLt => (x as i64) < (y as i64),
                            CmpOp::SGt => (x as i64) > (y as i64),
                        } as u64;
                    }
                    DOp::Select(c, a, b) => {
                        fr[dst] = if fr[c as usize] != 0 {
                            fr[a as usize]
                        } else {
                            fr[b as usize]
                        };
                    }
                    DOp::Alloca(size) => {
                        let t = &mut self.threads[ti];
                        let top = t.stack_top.div_ceil(16) * 16;
                        if top + size > STACK_SIZE {
                            trap!(Trap::StackOverflow);
                        }
                        t.stack_top = top + size;
                        fr[dst] = STACK_BASE + tid as u64 * STACK_SIZE + top;
                    }
                    DOp::Load { addr, size } => {
                        let mut buf = [0u8; 8];
                        try_mem!(self.mread_into(fr[addr as usize], &mut buf[..size as usize]));
                        fr[dst] = u64::from_le_bytes(buf);
                    }
                    DOp::Store { addr, val, size } => {
                        let bytes = fr[val as usize].to_le_bytes();
                        try_mem!(self.mwrite(fr[addr as usize], &bytes[..size as usize]));
                    }
                    DOp::GepConst { base, off } => fr[dst] = fr[base as usize].wrapping_add(off),
                    DOp::GepDyn { base, off } => {
                        fr[dst] = fr[base as usize].wrapping_add(fr[off as usize]);
                    }
                    DOp::Br(target) => {
                        pc = target as usize;
                        count_step!();
                        continue;
                    }
                    DOp::CondBr { cond, then_, else_ } => {
                        pc = if fr[cond as usize] != 0 { then_ } else { else_ } as usize;
                        count_step!();
                        continue;
                    }
                    DOp::Ret(slot) => {
                        let value = if slot == NO_SLOT {
                            0
                        } else {
                            fr[slot as usize]
                        };
                        let t = &mut self.threads[ti];
                        let done = t.frames.pop().expect("frame");
                        t.stack_top = done.stack_mark;
                        regs.truncate(done.base as usize);
                        let Some(parent) = t.frames.last() else {
                            // The thread is done; its last `ret` is not a step.
                            t.result = value;
                            self.finish_thread(tid);
                            return Exit::Switch;
                        };
                        if done.ret_to != NO_SLOT {
                            regs[(parent.base + done.ret_to) as usize] = value;
                        }
                        count_step!();
                        continue 'frame;
                    }
                    DOp::Call { func, args, n } => enter!(func, args, n),
                    DOp::CallIndirect { target, args, n } => {
                        let tv = fr[target as usize];
                        let callee = FuncId((tv & !FUNC_TAG) as u32);
                        if tv & FUNC_TAG == 0 || callee.0 as usize >= self.module.funcs.len() {
                            trap!(Trap::Segfault { addr: tv });
                        }
                        if n != self.module.func(callee).n_params {
                            trap!(Trap::Misc("indirect call arity mismatch".into()));
                        }
                        enter!(callee, args, n)
                    }
                    DOp::Unreachable => trap!(Trap::Misc("unreachable executed".into())),
                    DOp::Intr { intr, n, args } => {
                        let mut argv = [0u64; 3];
                        for (v, s) in argv.iter_mut().zip(args) {
                            *v = fr[s as usize];
                        }
                        let flow = self.intrinsic(tid, intr, &argv[..n as usize], &mut fr[dst]);
                        match try_mem!(flow) {
                            Flow::Next => {}
                            // A step, but not one of the quantum it ends.
                            Flow::Yield => {
                                pc += 1;
                                *remaining -= 1;
                                self.steps_total += 1;
                                leave!(Exit::Switch);
                            }
                            // Whoever unblocks the thread moves it past
                            // this instruction; blocking is not a step.
                            Flow::Blocked => leave!(Exit::Switch),
                        }
                    }
                }
                pc += 1;
                count_step!();
            }
        }
    }

    /// Marks `tid` finished and wakes the threads joined on it.
    fn finish_thread(&mut self, tid: u32) {
        self.set_state(tid, ThreadState::Finished);
        for w in 0..self.threads.len() as u32 {
            if self.threads[w as usize].state == ThreadState::BlockedJoin(tid) {
                self.set_state(w, ThreadState::Runnable);
                self.advance(w);
            }
        }
    }

    /// Runs a pool operation that may cross a durability boundary. A crash
    /// capture armed there (`PmPool::arm_captures`) is stamped with the
    /// trace buffer's length, so the capture's trace ends exactly where
    /// the crash would have stopped the program.
    #[inline]
    fn boundary<T>(&mut self, op: impl FnOnce(&mut PmPool) -> T) -> T {
        let out = op(&mut self.pool);
        if self.pool.has_unmarked_captures() {
            self.pool.mark_captures(self.trace.len());
        }
        out
    }

    /// Executes intrinsic `intr` for thread `tid`; a result goes to `out`.
    fn intrinsic(
        &mut self,
        tid: u32,
        intr: Intrinsic,
        args: &[u64],
        out: &mut u64,
    ) -> Result<Flow, Trap> {
        /// A pool operation's error as a trap.
        fn pm(what: &str, e: PmError) -> Trap {
            Trap::Misc(format!("{what}: {e}"))
        }
        match intr {
            Intrinsic::PmRoot | Intrinsic::PmAlloc => {
                let (what, r) = match intr {
                    Intrinsic::PmRoot => ("pm_root", self.boundary(|p| p.root(args[0]))),
                    _ => ("pm_alloc", self.boundary(|p| p.alloc(args[0]))),
                };
                *out = match r {
                    Ok(off) => pm_addr(off),
                    Err(PmError::OutOfPmSpace { .. }) => 0,
                    Err(e) => return Err(pm(what, e)),
                };
            }
            Intrinsic::PmFree => {
                let a = args[0];
                if !is_pm(a) {
                    return Err(Trap::BadFree { addr: a });
                }
                match self.boundary(|p| p.free(pm_offset(a))) {
                    Ok(()) => {}
                    Err(PmError::DoubleFree { .. }) | Err(PmError::NotAllocated { .. }) => {
                        return Err(Trap::BadFree { addr: a })
                    }
                    Err(e) => return Err(pm("pm_free", e)),
                }
            }
            Intrinsic::PmPersist => {
                let (a, len) = (args[0], args[1]);
                if !is_pm(a) {
                    return Err(Trap::Segfault { addr: a });
                }
                if self.boundary(|p| p.persist(pm_offset(a), len)).is_err() {
                    return Err(Trap::Segfault { addr: a });
                }
            }
            Intrinsic::PmFlush => {
                let (a, len) = (args[0], args[1]);
                if !is_pm(a) || self.pool.flush_range(pm_offset(a), len).is_err() {
                    return Err(Trap::Segfault { addr: a });
                }
            }
            Intrinsic::PmDrain => self
                .boundary(PmPool::drain_fence)
                .map_err(|e| pm("drain", e))?,
            Intrinsic::PmTxBegin => {
                *out = self
                    .boundary(PmPool::tx_begin)
                    .map_err(|e| pm("tx_begin", e))?
            }
            Intrinsic::PmTxAdd => {
                let (a, len) = (args[0], args[1]);
                if !is_pm(a) {
                    return Err(Trap::Segfault { addr: a });
                }
                if let Err(e) = self.pool.tx_add(pm_offset(a), len) {
                    return Err(Trap::Misc(format!("tx_add: {e}")));
                }
            }
            Intrinsic::PmTxCommit => self
                .boundary(PmPool::tx_commit)
                .map_err(|e| pm("tx_commit", e))?,
            Intrinsic::PmTxAbort => self
                .boundary(PmPool::tx_abort)
                .map_err(|e| pm("tx_abort", e))?,
            Intrinsic::RecoverBegin => self.pool.recover_begin(),
            Intrinsic::RecoverEnd => self.pool.recover_end(),
            Intrinsic::Malloc => *out = self.mem.malloc(args[0]),
            Intrinsic::VFree => self.mem.free(args[0]).map_err(fault_to_trap)?,
            Intrinsic::Memcpy => {
                let (dst, src, len) = (args[0], args[1], args[2]);
                if len > MAX_COPY {
                    return Err(Trap::Segfault { addr: src });
                }
                // The whole source is read (and counted as one read) before
                // the destination is touched, so a piece can be moved at a
                // time in the order that keeps an overlap intact.
                self.mnote_read(src, len)?;
                self.mcheck_write(dst, len)?;
                let backwards = dst > src && dst - src < len;
                let mut buf = [0u8; CHUNK];
                let mut done = 0;
                while done < len {
                    let n = (len - done).min(CHUNK as u64);
                    let at = if backwards { len - done - n } else { done };
                    let piece = &mut buf[..n as usize];
                    self.mpeek_into(src + at, piece)?;
                    self.mwrite(dst + at, piece)?;
                    done += n;
                }
            }
            Intrinsic::Memset => {
                let (dst, byte, len) = (args[0], args[1] as u8, args[2]);
                if len > MAX_COPY {
                    return Err(Trap::Segfault { addr: dst });
                }
                if is_pm(dst) {
                    self.pool
                        .fill(pm_offset(dst), byte, len)
                        .map_err(|_| Trap::Segfault { addr: dst })?;
                } else {
                    self.mem.fill(dst, byte, len).map_err(fault_to_trap)?;
                }
            }
            Intrinsic::Memcmp => {
                let (a, b, len) = (args[0], args[1], args[2]);
                self.mnote_read(a, len)?;
                self.mnote_read(b, len)?;
                let (mut x, mut y) = ([0u8; CHUNK], [0u8; CHUNK]);
                let mut done = 0;
                *out = 0;
                while done < len && *out == 0 {
                    let n = (len - done).min(CHUNK as u64) as usize;
                    self.mpeek_into(a + done, &mut x[..n])?;
                    self.mpeek_into(b + done, &mut y[..n])?;
                    *out = (x[..n] != y[..n]) as u64;
                    done += n as u64;
                }
            }
            Intrinsic::Assert => {
                if args[0] == 0 {
                    return Err(Trap::AssertFail { code: args[1] });
                }
            }
            Intrinsic::Abort => return Err(Trap::Abort { code: args[0] }),
            Intrinsic::Print => self.log.push(args[0]),
            Intrinsic::Trace => self.trace.push((args[0], args[1])),
            Intrinsic::Clock => *out = self.clock,
            Intrinsic::Spawn => {
                let (faddr, arg) = (args[0], args[1]);
                if faddr & FUNC_TAG == 0 {
                    return Err(Trap::Segfault { addr: faddr });
                }
                let fid = FuncId((faddr & !FUNC_TAG) as u32);
                if fid.0 as usize >= self.module.funcs.len() || self.module.func(fid).n_params != 1
                {
                    return Err(Trap::Misc("spawn target must take 1 parameter".into()));
                }
                if self.threads.len() >= 64 && self.free_tids.is_empty() {
                    return Err(Trap::Misc("too many threads".into()));
                }
                *out = self.new_thread(fid, &[arg]) as u64;
            }
            Intrinsic::Join => {
                let target = args[0] as u32;
                if target as usize >= self.threads.len() {
                    return Err(Trap::Misc("join of unknown thread".into()));
                }
                if self.threads[target as usize].state != ThreadState::Finished {
                    self.set_state(tid, ThreadState::BlockedJoin(target));
                    return Ok(Flow::Blocked);
                }
            }
            Intrinsic::MutexLock => {
                let addr = args[0];
                let m = self.mutexes.entry(addr).or_default();
                match m.owner {
                    None => m.owner = Some(tid),
                    // Non-recursive: self-deadlock.
                    Some(o) if o == tid => return Err(Trap::Deadlock),
                    Some(_) => {
                        m.waiters.push_back(tid);
                        self.set_state(tid, ThreadState::BlockedMutex(addr));
                        return Ok(Flow::Blocked);
                    }
                }
            }
            Intrinsic::MutexUnlock => {
                let m = self.mutexes.entry(args[0]).or_default();
                if m.owner != Some(tid) {
                    return Err(Trap::Misc("unlock of mutex not held".into()));
                }
                m.owner = m.waiters.pop_front();
                if let Some(w) = m.owner {
                    self.set_state(w, ThreadState::Runnable);
                    self.advance(w);
                }
            }
            Intrinsic::Yield => return Ok(Flow::Yield),
            Intrinsic::PmBase => *out = pm_addr(0),
            Intrinsic::PmAvail => *out = self.pool.free_bytes().unwrap_or(0),
        }
        Ok(Flow::Next)
    }
}

fn fault_to_trap(f: MemFault) -> Trap {
    match f {
        MemFault::Segfault { addr, .. } => Trap::Segfault { addr },
        MemFault::BadFree { addr } => Trap::BadFree { addr },
    }
}
