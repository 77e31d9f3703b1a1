//! Property-based tests of the interpreter: determinism and
//! instrumentation-transparency over random benign workloads on the
//! kvcache-shaped store-and-load module.

use std::sync::Arc;

use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use proptest::prelude::*;

/// A tiny KV module exercised by random workloads: a fixed 32-slot direct
/// mapped table in PM.
fn kv_module() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("put", 2, false);
        let size = f.konst(32 * 16);
        let root = f.pm_root(size);
        let k = f.param(0);
        let v = f.param(1);
        let thirty_two = f.konst(32);
        let idx = f.urem(k, thirty_two);
        let sixteen = f.konst(16);
        let off = f.mul(idx, sixteen);
        let slot = f.gep_dyn(root, off);
        f.store8(slot, k);
        let vp = f.gep(slot, 8);
        f.store8(vp, v);
        f.pm_persist_c(slot, 16);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 1, true);
        let size = f.konst(32 * 16);
        let root = f.pm_root(size);
        let k = f.param(0);
        let thirty_two = f.konst(32);
        let idx = f.urem(k, thirty_two);
        let sixteen = f.konst(16);
        let off = f.mul(idx, sixteen);
        let slot = f.gep_dyn(root, off);
        let sk = f.load8(slot);
        let hit = f.eq(sk, k);
        let out = f.local_c(u64::MAX);
        f.if_(hit, |f| {
            let vp = f.gep(slot, 8);
            let v = f.load8(vp);
            f.store8(out, v);
        });
        let v = f.load8(out);
        f.ret(Some(v));
        f.finish();
    }
    m.finish().unwrap()
}

#[derive(Debug, Clone, Copy)]
enum WlOp {
    Put(u64, u64),
    Get(u64),
    CrashRestart,
}

fn wl_op() -> impl Strategy<Value = WlOp> {
    prop_oneof![
        (1..1000u64, 0..u64::MAX).prop_map(|(k, v)| WlOp::Put(k, v)),
        (1..1000u64).prop_map(WlOp::Get),
        Just(WlOp::CrashRestart),
    ]
}

fn new_pool() -> pmemsim::PmPool {
    pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap()
}

fn run_workload(module: Arc<Module>, ops: &[WlOp]) -> Vec<Option<u64>> {
    let mut vm = Vm::new(module.clone(), new_pool(), VmOpts::default());
    let mut out = Vec::new();
    for op in ops {
        match op {
            WlOp::Put(k, v) => {
                vm.call("put", &[*k, *v]).unwrap();
            }
            WlOp::Get(k) => out.push(vm.call("get", &[*k]).unwrap()),
            WlOp::CrashRestart => {
                let pool = vm.crash();
                vm = Vm::new(module.clone(), pool, VmOpts::default());
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The VM is deterministic: identical workloads produce identical
    /// results, including across simulated crashes.
    #[test]
    fn execution_is_deterministic(ops in proptest::collection::vec(wl_op(), 1..60)) {
        let module = Arc::new(kv_module());
        let a = run_workload(module.clone(), &ops);
        let b = run_workload(module, &ops);
        prop_assert_eq!(a, b);
    }

    /// Arthas instrumentation is semantically transparent: the
    /// instrumented module returns exactly the same results as the
    /// original on any workload.
    #[test]
    fn instrumentation_is_transparent(ops in proptest::collection::vec(wl_op(), 1..60)) {
        let module = kv_module();
        let out = arthas_instrument(&module);
        let a = run_workload(Arc::new(module), &ops);
        let b = run_workload(Arc::new(out), &ops);
        prop_assert_eq!(a, b);
    }

    /// Persisted puts survive crashes: a get after a crash returns the
    /// last persisted value for its slot.
    #[test]
    fn persisted_puts_survive_crash(
        puts in proptest::collection::vec((1..32u64, 0..u64::MAX), 1..30)
    ) {
        let module = Arc::new(kv_module());
        let mut vm = Vm::new(module.clone(), new_pool(), VmOpts::default());
        // Keys 1..32 map to distinct slots (k % 32).
        let mut expect: std::collections::HashMap<u64, u64> = Default::default();
        for (k, v) in &puts {
            vm.call("put", &[*k, *v]).unwrap();
            expect.insert(*k, *v);
        }
        let pool = vm.crash();
        let mut vm = Vm::new(module, pool, VmOpts::default());
        for (k, v) in expect {
            prop_assert_eq!(vm.call("get", &[k]).unwrap(), Some(v));
        }
    }
}

/// The trace-instrumented clone Arthas runs in production.
fn arthas_instrument(module: &Module) -> Module {
    let out = arthas::analyze_and_instrument(module).instrumented;
    pir::verify::verify(&out).expect("instrumented module verifies");
    out
}

// ---- decoded operand slots against a direct evaluation ---------------------

/// One node of a random straight-line program. Operand fields are reduced
/// modulo the number of earlier nodes when the program is built, so any
/// tuple is a valid node.
#[derive(Debug, Clone, Copy)]
enum Node {
    Const(u64),
    Param(u32),
    Bin(u8, usize, usize),
    Cmp(u8, usize, usize),
    Select(usize, usize, usize),
    /// Store node `.1`'s value to memory slot `.0` with the given width.
    Store(usize, usize, u8),
    Load(usize, u8),
}

/// Memory slots 0..4 are a stack buffer, 4..8 the PM root object.
const SLOTS: usize = 8;

fn node() -> impl Strategy<Value = Node> {
    let idx = || 0..64usize;
    let width = || prop_oneof![Just(1u8), Just(2u8), Just(4u8), Just(8u8)];
    prop_oneof![
        prop_oneof![0..4u64, 0..u64::MAX, Just(u64::MAX), Just(1u64 << 63)].prop_map(Node::Const),
        (0..2u32).prop_map(Node::Param),
        (0..10u8, idx(), idx()).prop_map(|(o, a, b)| Node::Bin(o, a, b)),
        (0..8u8, idx(), idx()).prop_map(|(o, a, b)| Node::Cmp(o, a, b)),
        (idx(), idx(), idx()).prop_map(|(c, a, b)| Node::Select(c, a, b)),
        (0..SLOTS, idx(), width()).prop_map(|(s, a, w)| Node::Store(s, a, w)),
        (0..SLOTS, width()).prop_map(|(s, w)| Node::Load(s, w)),
    ]
}

const BIN_OPS: [pir::ir::BinOp; 10] = {
    use pir::ir::BinOp::*;
    [Add, Sub, Mul, UDiv, URem, And, Or, Xor, Shl, LShr]
};
const CMP_OPS: [pir::ir::CmpOp; 8] = {
    use pir::ir::CmpOp::*;
    [Eq, Ne, ULt, ULe, UGt, UGe, SLt, SGt]
};

/// What the program computes, by the IR's definition of each operator and
/// nothing of the VM: the last node's value, or `None` for a division by
/// zero on the way.
fn evaluate(nodes: &[Node], params: [u64; 2]) -> Option<u64> {
    use pir::ir::{BinOp, CmpOp};
    let mut mem = [0u64; SLOTS];
    let mut vals: Vec<u64> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let v = |k: usize| vals[k % i.max(1)];
        let mask = |w: u8| {
            if w == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * w)) - 1
            }
        };
        let value = match *n {
            _ if i == 0 => 7,
            Node::Const(c) => c,
            Node::Param(p) => params[p as usize],
            Node::Bin(o, a, b) => {
                let (x, y) = (v(a), v(b));
                match BIN_OPS[o as usize] {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::UDiv => x.checked_div(y)?,
                    BinOp::URem => x.checked_rem(y)?,
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => x << (y % 64),
                    BinOp::LShr => x >> (y % 64),
                }
            }
            Node::Cmp(o, a, b) => {
                let (x, y) = (v(a), v(b));
                u64::from(match CMP_OPS[o as usize] {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::ULt => x < y,
                    CmpOp::ULe => x <= y,
                    CmpOp::UGt => x > y,
                    CmpOp::UGe => x >= y,
                    CmpOp::SLt => (x as i64) < (y as i64),
                    CmpOp::SGt => (x as i64) > (y as i64),
                })
            }
            Node::Select(c, a, b) => {
                if v(c) != 0 {
                    v(a)
                } else {
                    v(b)
                }
            }
            Node::Store(s, a, w) => {
                // Little-endian: a narrow store replaces the low bytes.
                mem[s] = (mem[s] & !mask(w)) | (v(a) & mask(w));
                v(a)
            }
            Node::Load(s, w) => mem[s] & mask(w),
        };
        vals.push(value);
    }
    vals.last().copied()
}

/// The same program as a pir function `f(p0, p1)`.
fn build(nodes: &[Node]) -> Module {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("f", 2, true);
    let stack = f.alloca(32);
    let size = f.konst(32);
    let root = f.pm_root(size);
    let mut vals = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let v = |k: usize| vals[k % i.max(1)];
        let slot = |f: &mut pir::builder::FuncBuilder<'_>, s: usize| {
            let base = if s < 4 { stack } else { root };
            f.gep(base, (s % 4) as i64 * 8)
        };
        let value = match *n {
            _ if i == 0 => f.konst(7),
            Node::Const(c) => f.konst(c),
            Node::Param(p) => f.param(p),
            Node::Bin(o, a, b) => {
                let (x, y) = (v(a), v(b));
                use pir::ir::BinOp::*;
                match BIN_OPS[o as usize] {
                    Add => f.add(x, y),
                    Sub => f.sub(x, y),
                    Mul => f.mul(x, y),
                    UDiv => f.udiv(x, y),
                    URem => f.urem(x, y),
                    And => f.and(x, y),
                    Or => f.or(x, y),
                    Xor => f.xor(x, y),
                    Shl => f.shl(x, y),
                    LShr => f.lshr(x, y),
                }
            }
            Node::Cmp(o, a, b) => f.cmp(CMP_OPS[o as usize], v(a), v(b)),
            Node::Select(c, a, b) => f.select(v(c), v(a), v(b)),
            Node::Store(s, a, w) => {
                let at = slot(&mut f, s);
                f.store(at, v(a), w);
                v(a)
            }
            Node::Load(s, w) => {
                let at = slot(&mut f, s);
                f.load(at, w)
            }
        };
        vals.push(value);
    }
    f.ret(vals.last().copied());
    f.finish();
    m.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random straight-line arithmetic / compare / select / load / store
    /// programs compute what a direct Rust evaluation of the same
    /// expression computes — the decoded operand slots checked against
    /// something that is not the VM — with and without instrumentation.
    #[test]
    fn straight_line_programs_match_direct_evaluation(
        nodes in proptest::collection::vec(node(), 1..48),
        p0 in 0..u64::MAX,
        p1 in 0..6u64,
    ) {
        let want = evaluate(&nodes, [p0, p1]);
        let module = build(&nodes);
        let instrumented = arthas_instrument(&module);
        for module in [module, instrumented] {
            let mut vm = Vm::new(Arc::new(module), new_pool(), VmOpts::default());
            // Twice: the second call runs on a recycled thread slot.
            for _ in 0..2 {
                match vm.call("f", &[p0, p1]) {
                    Ok(got) => prop_assert_eq!(got, want),
                    Err(e) => {
                        prop_assert_eq!(&e.trap, &pir::vm::Trap::DivByZero);
                        prop_assert_eq!(want, None);
                    }
                }
                // PM slots persist across calls; the model starts from zero.
                let root = vm.pool_mut().root_offset().unwrap();
                vm.pool_mut().write(root, &[0; 32]).unwrap();
            }
        }
    }
}
