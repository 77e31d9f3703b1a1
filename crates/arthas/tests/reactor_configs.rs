//! Reactor configuration coverage: search, rollback mode, loss
//! minimization, transaction-sibling grouping, the restart-only fallback
//! of an empty plan, and the image a failed mitigation hands back.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, AnalyzerOutput, FailureRecord, Mode, PmTrace, Reactor, ReactorConfig,
    Restart, Rung, Search, SharedLog,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::{PmImage, PmPool};

/// Root: flag @8, value @16. `put(v)` persists the value; the poison
/// input 666 additionally corrupts the persistent flag; `get()` crashes
/// while the flag is set. Identical shape to the end-to-end test, kept
/// local so each test file stays self-contained.
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

fn new_pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap()
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

/// What a run to failure leaves behind: everything mitigation needs.
type FailedRun = (
    AnalyzerOutput,
    Arc<Module>,
    SharedLog,
    PmTrace,
    FailureRecord,
    PmPool,
);

fn run_to_failure(use_tx: bool) -> FailedRun {
    run_to_failure_of(build_app(use_tx))
}

/// Runs `module` to failure: four good puts, the poison put, the
/// crashing get.
fn run_to_failure_of(module: Module) -> FailedRun {
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented.clone());
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut vm = Vm::new(instrumented.clone(), new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for v in [1u64, 2, 3, 4] {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let failure = FailureRecord::from_vm(&err);
    let pool = vm.crash();
    (out, instrumented, log, trace, failure, pool)
}

/// Re-anchors a run's failure on the first instruction of `recover`,
/// which has no PM ancestry, so the plan comes out empty.
fn unanchored(mut run: FailedRun) -> FailedRun {
    let func = run.1.func_by_name("recover").unwrap();
    run.4.fault = Some(pir::ir::InstRef { func, inst: 0 });
    run
}

fn mitigate_with(cfg: ReactorConfig, use_tx: bool) -> (arthas::MitigationOutcome, PmPool) {
    mitigate_over(run_to_failure(use_tx), cfg)
}

fn mitigate_over(run: FailedRun, cfg: ReactorConfig) -> (arthas::MitigationOutcome, PmPool) {
    mitigate_over_with(run, cfg, false)
}

/// [`mitigate_over`] against a target that reads every byte of its pool
/// when `reads_everything`.
fn mitigate_over_with(
    run: FailedRun,
    cfg: ReactorConfig,
    reads_everything: bool,
) -> (arthas::MitigationOutcome, PmPool) {
    let (out, instrumented, log, trace, failure, mut pool) = run;
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, cfg);
    let probe = recover_and_get(reads_everything);
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &probe,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    (outcome, pool)
}

#[test]
fn batch_reversion_recovers_with_fewer_attempts() {
    let (single, _) = mitigate_with(ReactorConfig::default(), false);
    let (batched, _) = mitigate_with(
        ReactorConfig::builder()
            .search(Search::Batch(5))
            .build()
            .unwrap(),
        false,
    );
    assert!(single.recovered && batched.recovered);
    assert!(
        batched.attempts <= single.attempts,
        "batching never needs more re-executions ({} vs {})",
        batched.attempts,
        single.attempts
    );
    assert!(batched.discarded_updates >= single.discarded_updates);
}

#[test]
fn rollback_mode_recovers_and_discards_at_least_as_much() {
    let (purge, _) = mitigate_with(ReactorConfig::default(), false);
    let (rollback, _) = mitigate_with(
        ReactorConfig::builder()
            .mode(Mode::Rollback)
            .build()
            .unwrap(),
        false,
    );
    assert!(purge.recovered && rollback.recovered);
    assert!(rollback.discarded_updates >= purge.discarded_updates);
}

#[test]
fn minimize_loss_never_discards_more() {
    let (default, _) = mitigate_with(ReactorConfig::default(), false);
    let (minimized, pool) = mitigate_with(
        ReactorConfig::builder()
            .minimize_loss(true)
            .build()
            .unwrap(),
        false,
    );
    assert!(default.recovered && minimized.recovered);
    assert!(minimized.discarded_updates <= default.discarded_updates);
    // And the system is still healthy after the extra restorations.
    assert!(PmPool::open(pool.snapshot()).is_ok());
}

/// Two flags @8 and @16, value @24. The poison put sets both flags;
/// `get()` crashes only while *both* are set, so once a batch has
/// reverted both, undoing either reversion alone leaves a healthy
/// system — which flag the minimization pass restores depends on the
/// order it walks the addresses.
fn build_two_flag_app() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("put", 1, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        let valp = f.gep(root, 24);
        f.store8(valp, v);
        f.pm_persist_c(valp, 8);
        let bad = f.konst(666);
        let is_bad = f.eq(v, bad);
        f.if_(is_bad, |f| {
            let flag_a = f.gep(root, 8);
            f.store8(flag_a, v);
            f.pm_persist_c(flag_a, 8);
            let flag_b = f.gep(root, 16);
            f.store8(flag_b, v);
            f.pm_persist_c(flag_b, 8);
        });
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let flag_a_p = f.gep(root, 8);
        let flag_a = f.load8(flag_a_p);
        let flag_b_p = f.gep(root, 16);
        let flag_b = f.load8(flag_b_p);
        let zero = f.konst(0);
        let a_set = f.ne(flag_a, zero);
        let b_set = f.ne(flag_b, zero);
        let tainted = f.and(a_set, b_set);
        f.if_(tainted, |f| {
            let p = f.sub(flag_a, flag_b);
            let v = f.load8(p);
            f.ret(Some(v));
        });
        let valp = f.gep(root, 24);
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

/// `minimize_loss` walks the reverted addresses under a re-execution
/// budget, so its result must not depend on a hash seed: the same
/// multi-address mitigation, run eight times in one process, discards
/// the same updates in the same number of attempts and leaves the same
/// pool bytes.
#[test]
fn minimize_loss_is_deterministic_across_runs() {
    // Rollback over one batch rewinds both flags in a single attempt.
    let cfg = ReactorConfig::builder()
        .mode(Mode::Rollback)
        .search(Search::Batch(8))
        .minimize_loss(true)
        .build()
        .unwrap();
    let run = || {
        let (outcome, mut pool) = mitigate_over(run_to_failure_of(build_two_flag_app()), cfg);
        assert!(outcome.recovered, "{outcome:?}");
        let root = pool.root_offset().unwrap();
        let bytes = pool.read(root, 64).unwrap();
        (outcome.discarded_updates, outcome.attempts, bytes)
    };
    let first = run();
    // Exactly one of the two flag reversions was needed; ascending
    // address order restores flag A and keeps B's.
    let flag = |off: usize| u64::from_le_bytes(first.2[off..off + 8].try_into().unwrap());
    assert_eq!((flag(8), flag(16)), (666, 0), "flag A restored, B reverted");
    for i in 1..8 {
        assert_eq!(run(), first, "run {i} diverged from run 0");
    }
}

#[test]
fn unanchored_fault_yields_an_empty_plan_and_restart_fallback() {
    // A fault instruction with no PM ancestry puts nothing on the
    // candidate list: the reactor aborts to plain restart, which cannot
    // cure a hard fault (§4.5's false-alarm pruning, exercised in the
    // negative).
    let (outcome, _) = mitigate_over(unanchored(run_to_failure(false)), ReactorConfig::default());
    assert_eq!(outcome.rung, Rung::RestartOnly);
    assert_eq!(outcome.plan_len, 0);
    assert!(!outcome.recovered, "restart alone cannot fix a hard fault");
}

/// A mitigation that does not recover hands back the crashed image
/// untouched, in every profile: its steps write a fork of the image, and
/// the caller's pool is written only when a step wins. Here no step can
/// win, since the probe fails even a healthy restart.
#[test]
fn a_failed_mitigation_leaves_the_crashed_image() {
    let cfg = |b: arthas::ReactorConfigBuilder| b.build().unwrap();
    for cfg in [
        ReactorConfig::default(),
        cumulative_rollback(),
        cfg(ReactorConfig::builder().search(Search::Batch(5))),
        ReactorConfig::serving(),
    ] {
        let (out, instrumented, log, trace, failure, mut pool) = run_to_failure(false);
        let crashed = pool.snapshot();
        let recover_and_get = recover_and_get(false);
        let probe = |vm: &mut Vm| {
            recover_and_get(vm)?;
            Err(FailureRecord::wrong_result("the probe never passes"))
        };
        let restart = Restart {
            module: &instrumented,
            vm: VmOpts::default(),
            probe: &probe,
        };
        let mut reactor = Reactor::new(&out.analysis, &out.guid_map, cfg);
        let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
        assert!(
            !outcome.recovered && outcome.attempts > 1,
            "{cfg:?}: {outcome:?}"
        );
        assert!(
            pool.snapshot() == crashed,
            "{cfg:?} wrote the caller's pool"
        );
    }
}

#[test]
fn transactional_app_recovers_with_sibling_grouping() {
    // The poison put writes flag and value inside one transaction;
    // reverting the flag entry must pull its transaction siblings along
    // (§4.6), and the recovered state must be transaction-consistent:
    // flag and value both reverted.
    let (outcome, mut pool) = mitigate_with(ReactorConfig::default(), true);
    assert!(outcome.recovered, "{outcome:?}");
    let root = pool.root_offset().unwrap();
    let flag = pool.read_u64(root + 8).unwrap();
    let value = pool.read_u64(root + 16).unwrap();
    assert_eq!(flag, 0, "flag reverted");
    assert_ne!(value, 666, "the poisoned value went with its transaction");
}

// ---- which candidates the heal below a rollback cut re-examines ------------

/// Root-relative writes for the heal-boundary cases. `w(off, v)` stores and
/// persists 8 bytes at `off`; `wide(off, v, from, len)` stores 8 bytes at
/// `off` but persists `[from, from + len)`. `get()` dereferences the word at
/// 64, so it faults on whatever small value that holds: every attempt
/// fails, and the cases read the reactor's timeline rather than its
/// verdict.
fn build_heal_app() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("w", 2, false);
        let size = f.konst(4096);
        let root = f.pm_root(size);
        let off = f.param(0);
        let p = f.gep_dyn(root, off);
        let v = f.param(1);
        f.store8(p, v);
        f.pm_persist_c(p, 8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("wide", 4, false);
        let size = f.konst(4096);
        let root = f.pm_root(size);
        let off = f.param(0);
        let p = f.gep_dyn(root, off);
        let v = f.param(1);
        f.store8(p, v);
        let from = f.param(2);
        let q = f.gep_dyn(root, from);
        let len = f.param(3);
        f.pm_persist(q, len);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(4096);
        let root = f.pm_root(size);
        let p = f.gep(root, 64);
        let v = f.load8(p);
        let w = f.load8(v);
        f.ret(Some(w));
        f.finish();
    }
    {
        let mut f = m.func("recover", 0, false);
        f.recover_begin();
        let size = f.konst(4096);
        let root = f.pm_root(size);
        f.load8(root);
        f.recover_end();
        f.ret(None);
        f.finish();
    }
    m.finish().unwrap()
}

/// Runs `calls` on the heal app, flips a bit at root offset `flip` of the
/// crashed image when given, and mitigates under `cfg`. Returns the root
/// offset, the log, and `(attempt, seq)` of every `reactor.heal` — each
/// heal numbered by the `reactor.attempt` it follows.
fn heals_by_attempt(
    calls: &[(&str, &[u64])],
    flip: Option<u64>,
    cfg: ReactorConfig,
) -> (u64, SharedLog, Vec<(u64, u64)>) {
    let run = mitigate_heal_app(calls, flip, cfg, false);
    (run.root, run.log, run.heals)
}

/// One mitigation of the heal app, as [`mitigate_heal_app`] runs it.
struct HealRun {
    root: u64,
    log: SharedLog,
    heals: Vec<(u64, u64)>,
    outcome: arthas::MitigationOutcome,
    pool: PmPool,
}

/// [`heals_by_attempt`], also returning the outcome and the pool, against
/// a target that reads every byte of its pool when `reads_everything`.
fn mitigate_heal_app(
    calls: &[(&str, &[u64])],
    flip: Option<u64>,
    cfg: ReactorConfig,
    reads_everything: bool,
) -> HealRun {
    use obs::{Instrument as _, RingRecorder, Value};
    let module = build_heal_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented.clone());
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut vm = Vm::new(instrumented.clone(), new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for (func, args) in calls {
        vm.call(func, args).unwrap();
    }
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let failure = FailureRecord::from_vm(&err);
    let mut pool = vm.crash();
    let root = pool.root_offset().unwrap();
    if let Some(off) = flip {
        pool.corrupt_bit(root + off, 0).unwrap();
    }
    let ring = Arc::new(RingRecorder::new(4096));
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, cfg);
    reactor.instrument(ring.clone());
    let probe = recover_and_get(reads_everything);
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &probe,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &failure, &trace, &restart);
    assert_eq!(ring.dropped(), 0);
    let field = |fields: &[(&str, Value)], name: &str| match fields.iter().find(|f| f.0 == name) {
        Some((_, Value::U64(v))) => *v,
        other => panic!("{name}: {other:?}"),
    };
    let mut attempt = 0;
    let mut heals = Vec::new();
    for ev in ring.events() {
        match ev.kind {
            "reactor.attempt" => attempt = field(&ev.fields, "attempt"),
            "reactor.heal" => heals.push((attempt, field(&ev.fields, "seq"))),
            _ => {}
        }
    }
    HealRun {
        root,
        log,
        heals,
        outcome,
        pool,
    }
}

/// The newest logged seq at root offset `off`.
fn newest_seq(log: &SharedLog, root: u64, off: u64) -> u64 {
    log.view()
        .entry(root + off)
        .unwrap()
        .versions
        .back()
        .unwrap()
        .seq
}

fn cumulative_rollback() -> ReactorConfig {
    ReactorConfig::builder()
        .mode(Mode::Rollback)
        .build()
        .unwrap()
}

/// A heal owed only because an entry in the candidate's overlay window was
/// written after the cut. The word at 64 was last persisted by itself as
/// 5; a later 16-byte persist starting at 56 carried 7 over it. The first
/// attempt cuts at that persist, and its rollback rewrites only the 8 bytes
/// the entry at 56 held before — so the pool still shows 7 at 64, while the
/// durable truth as of the cut is 5. Neither a plan-time divergence (the
/// pool matched the log) nor a written range (the rollback wrote
/// `[56, 64)`) names the candidate: only the touched entry in its window.
#[test]
fn below_cut_heal_is_owed_to_a_post_cut_overlay() {
    let calls: &[(&str, &[u64])] = &[("w", &[64, 5]), ("w", &[56, 9]), ("wide", &[64, 7, 56, 16])];
    let (root, log, heals) = heals_by_attempt(calls, None, cumulative_rollback());
    let word = newest_seq(&log, root, 64);
    assert!(
        heals.contains(&(1, word)),
        "the first rollback heals the word at 64 back to its pre-cut bytes: {heals:?}"
    );
}

/// A heal owed only because the lineage's own rollback wrote over the
/// candidate. Cumulative attempts walk the plan (the entry at 128, then the
/// word at 64), so by the end of the first version depth the rollback has
/// rewritten the word to its older version 5. The second depth starts
/// again at the top, cutting at the entry at 128 (whose older version has
/// the same bytes, so it is not healed instead): nothing in the word's
/// window was touched since that cut and it did not diverge on the crashed
/// image, but the pool holds 5 where the durable truth is 6.
#[test]
fn below_cut_heal_is_owed_to_the_lineages_own_rollback() {
    let calls: &[(&str, &[u64])] = &[
        ("w", &[128, 7]),
        ("w", &[64, 5]),
        ("w", &[64, 6]),
        ("w", &[128, 7]),
    ];
    let (root, log, heals) = heals_by_attempt(calls, None, cumulative_rollback());
    let word = newest_seq(&log, root, 64);
    assert!(
        !heals.iter().any(|&(a, _)| a <= 2),
        "nothing to heal in the first depth: {heals:?}"
    );
    assert!(
        heals.contains(&(3, word)),
        "the second depth's first attempt heals the word the first depth rolled back: {heals:?}"
    );
}

/// A candidate that diverged on the crashed image (a bit flip after its
/// last persist) is healed on every `Gallop` rollback attempt, not only the
/// one whose batch holds it: each attempt starts over from the crashed
/// image, and on the third the rollback writes nothing near it.
#[test]
fn plan_time_divergence_heals_on_the_third_rollback_attempt() {
    let calls: &[(&str, &[u64])] = &[
        ("w", &[200, 3]),
        ("w", &[64, 5]),
        ("w", &[72, 5]),
        ("w", &[80, 5]),
        ("w", &[88, 5]),
        ("w", &[96, 5]),
    ];
    let cfg = ReactorConfig::serving()
        .to_builder()
        .mode(Mode::Rollback)
        .build()
        .unwrap();
    let (root, log, heals) = heals_by_attempt(calls, Some(200), cfg);
    let flipped = newest_seq(&log, root, 200);
    for attempt in 1..=3 {
        assert!(
            heals.contains(&(attempt, flipped)),
            "attempt {attempt} heals the flipped word: {heals:?}"
        );
    }
}

/// Cumulative rollbacks over persists that overlap and change length at
/// one address: each step after the first starts from its predecessor's
/// cut, so it rewrites only what moved between the two cuts and what
/// overlaps it. Every attempt fails, so the loop walks all candidates at
/// every depth, and debug builds redo each such step from scratch and
/// assert the same bytes, ledger and heals.
///
/// The fixed case shrinks an entry under a longer one below it. The
/// entry at 56 holds 8 bytes, then 16 (carrying 9 over 64), then 8; the
/// entry at 48 spans `[48, 72)` throughout. The fourth attempt cuts below
/// the 16-byte version: the entry at 56 goes back to 8 bytes, and the
/// entry at 48, which the rollback before left alone, must be rewritten
/// too, or `[64, 72)` keeps the 9.
#[test]
fn rollbacks_from_the_last_cut_over_overlapping_persists() {
    let shrink: &[(&str, &[u64])] = &[
        ("wide", &[48, 1, 48, 24]),
        ("w", &[56, 2]),
        ("w", &[136, 3]),
        ("wide", &[64, 9, 56, 16]),
        ("w", &[128, 5]),
        ("w", &[56, 6]),
        ("wide", &[48, 7, 48, 24]),
    ];
    let mitigate = |calls: &[(&str, &[u64])]| {
        let run = mitigate_heal_app(calls, None, cumulative_rollback(), false);
        assert!(run.outcome.attempts > 2, "{:?}", run.outcome);
    };
    mitigate(shrink);
    for seed in 1..=12u64 {
        let mut x = seed;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let args: Vec<Vec<u64>> = (0..24)
            .map(|_| {
                let off = 40 + 8 * next(6);
                let v = 1 + next(200);
                match next(3) {
                    0 => vec![off, v],
                    _ => vec![off, v, 40 + 8 * next(5), 8 * (1 + next(3))],
                }
            })
            .collect();
        let calls: Vec<(&str, &[u64])> = args
            .iter()
            .map(|a| (if a.len() == 2 { "w" } else { "wide" }, a.as_slice()))
            .collect();
        mitigate(&calls);
    }
}

// ---- skipped restarts ------------------------------------------------------

/// Everything but the round count: what skipping must leave alone.
fn all_but_rounds(out: &arthas::MitigationOutcome, pool: &PmPool) -> (String, PmImage) {
    let outcome = format!(
        "recovered={} rung={:?} attempts={} plan_len={} reverted={:?} \
         discarded={}/{} fellback={} leaks_freed={}",
        out.recovered,
        out.rung,
        out.attempts,
        out.plan_len,
        out.reverted_seqs,
        out.discarded_updates,
        out.discarded_entries,
        out.mode_fellback,
        out.leaks_freed,
    );
    (outcome, pool.snapshot())
}

/// A restart the reactor skips because it provably repeats the last
/// failure moves the round count and nothing else: every configuration
/// in this file reaches the same outcome, heals and image as against a
/// target whose restarts read every byte of their pool.
#[test]
fn skipped_restarts_change_nothing_but_rounds() {
    let cfg = |b: arthas::ReactorConfigBuilder| b.build().unwrap();
    let default = ReactorConfig::builder;
    let runs: [(fn() -> FailedRun, ReactorConfig); 8] = [
        (|| run_to_failure(false), ReactorConfig::default()),
        (
            || run_to_failure(false),
            cfg(default().search(Search::Batch(5))),
        ),
        (
            || run_to_failure(false),
            cfg(default().mode(Mode::Rollback)),
        ),
        (|| run_to_failure(false), cfg(default().minimize_loss(true))),
        (
            || unanchored(run_to_failure(false)),
            ReactorConfig::default(),
        ),
        (|| run_to_failure(true), ReactorConfig::default()),
        (|| run_to_failure(false), ReactorConfig::serving()),
        (
            || run_to_failure_of(build_two_flag_app()),
            cfg(default()
                .mode(Mode::Rollback)
                .search(Search::Batch(8))
                .minimize_loss(true)),
        ),
    ];
    let mut rounds_saved = 0;
    for (run, cfg) in runs {
        let [(skip, skip_pool), (all, all_pool)] =
            [false, true].map(|reads| mitigate_over_with(run(), cfg, reads));
        assert_eq!(
            all_but_rounds(&skip, &skip_pool),
            all_but_rounds(&all, &all_pool)
        );
        rounds_saved += all.reexec_rounds() - skip.reexec_rounds();
    }
    let rollback_serving = ReactorConfig::serving()
        .to_builder()
        .mode(Mode::Rollback)
        .build()
        .unwrap();
    type Calls<'a> = &'a [(&'a str, &'a [u64])];
    let heal_cases: [(Calls, Option<u64>, ReactorConfig); 3] = [
        (
            &[("w", &[64, 5]), ("w", &[56, 9]), ("wide", &[64, 7, 56, 16])],
            None,
            cumulative_rollback(),
        ),
        (
            &[
                ("w", &[128, 7]),
                ("w", &[64, 5]),
                ("w", &[64, 6]),
                ("w", &[128, 7]),
            ],
            None,
            cumulative_rollback(),
        ),
        (
            &[
                ("w", &[200, 3]),
                ("w", &[64, 5]),
                ("w", &[72, 5]),
                ("w", &[96, 5]),
            ],
            Some(200),
            rollback_serving,
        ),
    ];
    for (calls, flip, cfg) in heal_cases {
        let [skip, all] = [false, true].map(|reads| mitigate_heal_app(calls, flip, cfg, reads));
        assert_eq!(
            all_but_rounds(&skip.outcome, &skip.pool),
            all_but_rounds(&all.outcome, &all.pool)
        );
        assert_eq!(skip.heals, all.heals, "{calls:?}");
        rounds_saved += all.outcome.reexec_rounds() - skip.outcome.reexec_rounds();
    }
    assert!(rounds_saved > 0, "no configuration skipped a restart");
}
