//! Property test: a restart the reactor skips moves nothing but the
//! rounds. Over randomized checkpoint logs (workload length and values)
//! and randomized reactor configurations, a mitigation is
//! outcome-identical to one against a target whose restarts read every
//! byte of their pool, so that no step can take an earlier verdict
//! without an identical image.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, AnalyzerOutput, BatchStrategy, FailureRecord, Mode, PmTrace, Reactor,
    ReactorConfig, Restart, SharedLog,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::PmPool;
use proptest::prelude::*;

/// Same app shape as `reactor_configs.rs`: `put(v)` persists a value and
/// the poison input 666 corrupts a persistent flag that makes `get()`
/// crash.
fn build_app(use_tx: bool) -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("put", 1, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        if use_tx {
            f.tx_begin();
            let sixteen = f.konst(24);
            f.tx_add(root, sixteen);
        }
        let valp = f.gep(root, 16);
        f.store8(valp, v);
        let bad = f.konst(666);
        let is_bad = f.eq(v, bad);
        f.if_(is_bad, |f| {
            let flagp = f.gep(root, 8);
            f.store8(flagp, v);
            if !use_tx {
                f.pm_persist_c(flagp, 8);
            }
        });
        if use_tx {
            f.tx_commit();
        } else {
            f.pm_persist_c(valp, 8);
        }
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let flagp = f.gep(root, 8);
        let flag = f.load8(flagp);
        let zero = f.konst(0);
        let tainted = f.ne(flag, zero);
        f.if_(tainted, |f| {
            let c = f.konst(666);
            let p = f.sub(flag, c);
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
        let size = f.konst(64);
        let root = f.pm_root(size);
        f.load8(root);
        f.recover_end();
        f.ret(None);
        f.finish();
    }
    m.finish().unwrap()
}

/// The restart probe: recovery, then the `get` that crashes while the
/// flag is set. When `reads_everything`, it also reads every byte of the
/// reopened image, so the reactor can take an earlier verdict only for
/// an identical image.
fn recover_and_get(reads_everything: bool) -> impl Fn(&mut Vm) -> Result<(), FailureRecord> {
    move |vm: &mut Vm| {
        let mut call = |f: &str| vm.call(f, &[]).map_err(|e| FailureRecord::from_vm(&e));
        let verdict = call("recover").and_then(|_| call("get")).map(|_| ());
        if reads_everything {
            std::hint::black_box(vm.pool().snapshot().to_vec());
        }
        verdict
    }
}

/// Runs `puts` then the poison value through the app and returns the
/// failure state. The checkpoint log contents depend on the workload, so
/// randomizing `puts` randomizes the log the reactor plans over.
#[allow(clippy::type_complexity)]
fn run_to_failure(
    use_tx: bool,
    puts: &[u64],
) -> (
    AnalyzerOutput,
    Arc<Module>,
    SharedLog,
    PmTrace,
    FailureRecord,
    PmPool,
) {
    let module = build_app(use_tx);
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented.clone());
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let pool = PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
    let mut vm = Vm::new(instrumented.clone(), pool, VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for &v in puts {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.take_trace());
    let failure = FailureRecord::from_vm(&err);
    let pool = vm.crash();
    (out, instrumented, log, trace, failure, pool)
}

fn mitigate_with(
    cfg: ReactorConfig,
    use_tx: bool,
    puts: &[u64],
    reads_everything: bool,
) -> (arthas::MitigationOutcome, pmemsim::PmImage) {
    let (out, instrumented, log, trace, failure, mut pool) = run_to_failure(use_tx, puts);
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, cfg);
    let probe = recover_and_get(reads_everything);
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &probe,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    (outcome, pool.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn skipping_moves_nothing_but_rounds(
        puts in proptest::collection::vec(1u64..600, 1..10),
        use_tx in proptest::arbitrary::any::<bool>(),
        mode_sel in 0u8..2,
        batch_n in 1usize..5,
        fallback in 1u32..8,
        online in proptest::arbitrary::any::<bool>()
    ) {
        let cfg = ReactorConfig::builder()
            .mode(if mode_sel == 0 { Mode::Purge } else { Mode::Rollback })
            .batch(if batch_n == 1 {
                BatchStrategy::OneByOne
            } else {
                BatchStrategy::Batch(batch_n)
            })
            // A small fallback threshold exercises the attempt-triggered
            // purge-to-rollback flip.
            .purge_fallback_after(fallback)
            .online(online)
            .build()
            .unwrap();
        let puts: Vec<u64> = puts.iter().map(|v| if *v == 666 { 667 } else { *v }).collect();
        let (all, all_image) = mitigate_with(cfg, use_tx, &puts, true);
        let (out, image) = mitigate_with(cfg, use_tx, &puts, false);
        for o in [&out, &all] {
            prop_assert_eq!(o.reexec_rounds() + o.skipped, o.attempts);
        }
        prop_assert_eq!(out.recovered, all.recovered);
        prop_assert_eq!(out.rung, all.rung);
        prop_assert_eq!(out.attempts, all.attempts);
        prop_assert_eq!(out.plan_len, all.plan_len);
        prop_assert_eq!(&out.reverted_seqs, &all.reverted_seqs);
        prop_assert_eq!(out.discarded_updates, all.discarded_updates);
        prop_assert_eq!(out.discarded_entries, all.discarded_entries);
        prop_assert_eq!(out.mode_fellback, all.mode_fellback);
        prop_assert_eq!(&image, &all_image);
        prop_assert!(out.reexec_rounds() <= all.reexec_rounds());
    }
}
