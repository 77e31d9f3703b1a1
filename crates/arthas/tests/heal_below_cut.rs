//! Regression tests for healing below a rollback cut. A heal that compared
//! diverged media against `expected_current`, whose overlay pass is
//! bounded only by the entry's own newest seq — never by the rollback cut
//! — overlaid an entry written *after* the cut into the heal bytes
//! immediately after `rollback_to` reverted it, re-planting post-cut state
//! the reactor had just reported as discarded. The fix is the cut-bounded
//! `expected_before(addr, cut)`.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, FailureRecord, Mode, PmTrace, Reactor, ReactorConfig, Restart,
    SharedLog,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::{PmPool, PmSink};

/// Spacing of the test addresses (one 4 KiB page).
const GRAIN: u64 = 1 << 12;

// ---- unit level: cut-bounded expectation ------------------------------------

/// Records a persist through the sink interface and returns the global
/// seq it was assigned.
fn persist(log: &SharedLog, addr: u64, data: &[u8]) -> u64 {
    log.on_persist(addr, data);
    log.view().latest_seq()
}

/// Two overlapping entries at different start addresses: the diverged
/// address's newest version is below every cut, the overlapping write is
/// above it. `expected_before` must exclude the post-cut overlay that
/// `expected_current` includes.
#[test]
fn expected_before_excludes_post_cut_overlays() {
    let log = SharedLog::new();
    // Entry A starts 4 bytes below B and overlaps it over [B, A+8).
    let a = 3 * GRAIN - 4;
    let b = 3 * GRAIN;
    let seq_a = persist(&log, a, &[0x11; 8]);
    let cut = persist(&log, 7 * GRAIN, &[0x33; 8]) + 1;
    let seq_b = persist(&log, b, &[0x22; 8]);
    assert!(seq_a < cut && cut <= seq_b);

    let view = log.view();
    // Live expectation includes B's overlay over A's top 4 bytes.
    let mut live = vec![0x11u8; 8];
    live[4..].fill(0x22);
    assert_eq!(view.expected_current(a).unwrap(), live, "live expectation");
    // Pre-cut expectation is A's own bytes: B did not exist yet.
    assert_eq!(
        view.expected_before(a, cut).unwrap(),
        vec![0x11u8; 8],
        "cut-bounded expectation must exclude the post-cut overlay"
    );
    // With the cut above B the overlay is back in.
    assert_eq!(
        view.expected_before(a, seq_b + 1).unwrap(),
        live,
        "expectation with cut above the overlay"
    );
    // And the degenerate cut matches expected_current exactly.
    assert_eq!(
        view.expected_before(a, u64::MAX).unwrap(),
        view.expected_current(a).unwrap()
    );
}

/// An address whose every version is above the cut reconstructs to
/// zeros (it did not exist yet), matching `data_before_seq` semantics.
#[test]
fn expected_before_zero_fills_addresses_born_after_the_cut() {
    let log = SharedLog::new();
    let seq = persist(&log, GRAIN, &[0x55; 16]);
    let view = log.view();
    assert_eq!(view.expected_before(GRAIN, seq).unwrap(), vec![0u8; 16]);
    assert_eq!(
        view.expected_before(GRAIN, seq + 1).unwrap(),
        vec![0x55; 16]
    );
}

// ---- integration level: rollback + below-cut heal ----------------------------

/// Root layout: flag @8, value @16, aux @8192, scratch @8196 (overlapping
/// aux's 8-byte range). `put(666)` poisons the flag; `get()` crashes
/// through a pointer derived from flag and aux while the flag is set.
fn build_app() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("seed", 1, false);
        let size = f.konst(16384);
        let root = f.pm_root(size);
        let auxp = f.gep(root, 8192);
        let v = f.param(0);
        f.store8(auxp, v);
        f.pm_persist_c(auxp, 8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("put", 1, false);
        let size = f.konst(16384);
        let root = f.pm_root(size);
        let v = f.param(0);
        let valp = f.gep(root, 16);
        f.store8(valp, v);
        let bad = f.konst(666);
        let is_bad = f.eq(v, bad);
        f.if_(is_bad, |f| {
            let flagp = f.gep(root, 8);
            f.store8(flagp, v);
            f.pm_persist_c(flagp, 8);
        });
        f.pm_persist_c(valp, 8);
        f.ret(None);
        f.finish();
    }
    {
        // Post-fault write overlapping aux's entry range from a
        // different start address: [8196, 8204) vs aux's [8192, 8200).
        let mut f = m.func("touch", 1, false);
        let size = f.konst(16384);
        let root = f.pm_root(size);
        let p = f.gep(root, 8196);
        let v = f.param(0);
        f.store8(p, v);
        f.pm_persist_c(p, 8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(16384);
        let root = f.pm_root(size);
        let flagp = f.gep(root, 8);
        let flag = f.load8(flagp);
        let zero = f.konst(0);
        let tainted = f.ne(flag, zero);
        f.if_(tainted, |f| {
            let auxp = f.gep(root, 8192);
            let aux = f.load8(auxp);
            let c = f.konst(666);
            let base = f.sub(flag, c);
            let p = f.add(base, aux);
            let v = f.load8(p);
            f.ret(Some(v));
        });
        let valp = f.gep(root, 16);
        let v = f.load8(valp);
        f.ret(Some(v));
        f.finish();
    }
    {
        let mut f = m.func("recover", 0, false);
        f.recover_begin();
        let size = f.konst(16384);
        let root = f.pm_root(size);
        f.load8(root);
        f.recover_end();
        f.ret(None);
        f.finish();
    }
    m.finish().unwrap()
}

/// The restart probe: recovery, then the `get` that crashes while the
/// fault is in place.
fn recover_and_get(vm: &mut Vm) -> Result<(), FailureRecord> {
    vm.call("recover", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    vm.call("get", &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    Ok(())
}

/// Drives the app to a hard fault, corrupts the aux entry (newest logged
/// version far below any rollback cut), and mitigates in rollback mode
/// under the serving profile, which exercises the below-cut heal. Returns
/// the outcome and key post-mitigation bytes.
fn mitigate() -> (arthas::MitigationOutcome, [Vec<u8>; 3]) {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented.clone());
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let pool = PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
    let mut vm = Vm::new(instrumented.clone(), pool, VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    vm.call("seed", &[0]).unwrap();
    for v in [1u64, 2, 3, 4] {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap();
    // The overlapping write lands *after* the poisoned put: its seq is
    // above the rollback cut, so a cut-blind heal would re-plant it.
    vm.call("touch", &[0xAB]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let failure = FailureRecord::from_vm(&err);
    let mut pool = vm.crash();

    // External corruption on the aux entry: newest logged version is the
    // seed write, far below the cut the flag reversion will choose.
    let root = pool.root_offset().unwrap();
    pool.corrupt_bit(root + 8192, 0).unwrap();

    let cfg = ReactorConfig::serving()
        .to_builder()
        .mode(Mode::Rollback)
        .build()
        .unwrap();
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, cfg);
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &recover_and_get,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    let bytes = [
        pool.read(root + 8, 8).unwrap(),
        pool.read(root + 8192, 8).unwrap(),
        pool.read(root + 8196, 8).unwrap(),
    ];
    (outcome, bytes)
}

#[test]
fn below_cut_heal_does_not_replant_post_cut_overlays() {
    let (outcome, [flag, aux, scratch]) = mitigate();
    assert!(outcome.recovered, "{outcome:?}");
    assert_eq!(flag, vec![0u8; 8], "flag rolled back");
    assert_eq!(
        aux,
        vec![0u8; 8],
        "corrupted aux healed to its pre-cut value"
    );
    // The decisive assertion: the touch write's seq is above the cut
    // and was reported discarded by the rollback — its bytes must
    // actually be gone, not re-planted by the heal's overlay pass.
    assert_eq!(
        scratch,
        vec![0u8; 8],
        "discarded post-cut write must not survive via the below-cut heal"
    );
}
