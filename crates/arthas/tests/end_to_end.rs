//! End-to-end pipeline test: a miniature PM key-value program with a
//! soft-to-hard fault, taken through the full Arthas workflow — analyze,
//! instrument, checkpoint, detect across restarts, slice, revert,
//! re-execute — and recovered with minimal discarded state.
//!
//! The bug is a Type II fault (§2.6 of the paper): a bad value is written
//! to a persistent flag, propagates through volatile arithmetic on a later
//! request, and crashes the program — deterministically again after every
//! restart, because the flag is durable.
//!
//! The same app, driven through an `arthas::Episode`, covers the
//! recovery episode: a soft fault, a hard fault, a spent budget, and
//! each rung order.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, reopen, AnalyzerOutput, Detector, Episode, FailureRecord, Ladder,
    MitigationOutcome, PmTrace, Reactor, ReactorConfig, Restart, Rung, SharedLog, Subject, Verdict,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::{PmImage, PmPool, PoolGroup};

/// Layout of the root object: counter @0, flag @8, value @16.
fn build_app() -> Module {
    let mut m = ModuleBuilder::new();
    // put(v): root.value = v; if v == 666 also corrupt root.flag (the bug).
    {
        let mut f = m.func("put", 1, false);
        f.loc("mini.c:put");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        let valp = f.gep(root, 16);
        f.store8(valp, v);
        f.pm_persist_c(valp, 8);
        let cnt = f.load8(root);
        let one = f.konst(1);
        let cnt2 = f.add(cnt, one);
        f.store8(root, cnt2);
        f.pm_persist_c(root, 8);
        // The bug: a "logic error" writes the raw value into a persistent
        // control flag for a specific input.
        let bad = f.konst(666);
        let is_bad = f.eq(v, bad);
        f.if_(is_bad, |f| {
            f.loc("mini.c:bug");
            let flagp = f.gep(root, 8);
            f.store8(flagp, v);
            f.pm_persist_c(flagp, 8);
        });
        f.ret(None);
        f.finish();
    }
    // get(): reads flag; a nonzero flag sends it through pointer
    // arithmetic that dereferences null (flag value 666 → pointer 0).
    {
        let mut f = m.func("get", 0, true);
        f.loc("mini.c:get");
        let size = f.konst(64);
        let root = f.pm_root(size);
        let flagp = f.gep(root, 8);
        let flag = f.load8(flagp);
        let zero = f.konst(0);
        let tainted = f.ne(flag, zero);
        f.if_(tainted, |f| {
            f.loc("mini.c:crash");
            let c666 = f.konst(666);
            let p = f.sub(flag, c666); // 0 when flag == 666
            let v = f.load8(p); // segfault
            f.ret(Some(v));
        });
        let valp = f.gep(root, 16);
        let v = f.load8(valp);
        f.ret(Some(v));
        f.finish();
    }
    // recover(): the app's restart/recovery function.
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

/// The restart probe: recovery + verification workload on the reopened
/// pool (the reactor mutated the candidate image in place).
fn recover_and_check(vm: &mut Vm) -> Result<(), FailureRecord> {
    let mut call = |f: &str, a: &[u64]| vm.call(f, a).map_err(|e| FailureRecord::from_vm(&e));
    call("recover", &[])?;
    call("get", &[])?;
    call("put", &[7])?;
    let got = call("get", &[])?;
    if got != Some(7) {
        return Err(FailureRecord::wrong_result(format!(
            "get returned {got:?}, expected 7"
        )));
    }
    Ok(())
}

#[test]
fn full_pipeline_recovers_with_minimal_loss() {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented);
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut detector = Detector::new();

    // --- production run -------------------------------------------------
    let mut vm = Vm::new(instrumented.clone(), new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for v in [1u64, 2, 3] {
        vm.call("put", &[v]).unwrap();
    }
    vm.call("put", &[666]).unwrap(); // plants the bad persistent flag
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let rec1 = FailureRecord::from_vm(&err);
    assert_eq!(detector.observe(rec1), Verdict::FirstSighting);

    // --- restart: soft-fault hypothesis fails, symptom recurs -----------
    let mut pool = vm.crash();
    pool.set_sink(log.as_sink());
    let mut vm = Vm::new(instrumented.clone(), pool, VmOpts::default());
    vm.call("recover", &[]).unwrap();
    let err2 = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let rec2 = FailureRecord::from_vm(&err2);
    let verdict = detector.observe(rec2.clone());
    assert_eq!(verdict, Verdict::SuspectedHard, "recurring symptom");

    // --- reactor mitigation ---------------------------------------------
    let mut pool = vm.crash();
    let total_updates = log.total_updates();
    assert!(
        total_updates >= 9,
        "puts were checkpointed: {total_updates}"
    );

    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    let restart = Restart {
        module: &instrumented,
        vm: VmOpts::default(),
        probe: &recover_and_check,
    };
    let outcome = reactor.mitigate(&mut pool, &log, &rec2, &trace, &restart);
    assert!(
        outcome.recovered,
        "reactor recovered the system: {outcome:?}"
    );
    assert_eq!(
        outcome.rung,
        Rung::Reversion,
        "an actual reversion was needed"
    );
    assert!(outcome.plan_len > 0);

    // Minimal data loss: of the many puts, only the flag (and possibly the
    // counter/value it shares persist ranges with) was reverted — far less
    // than everything.
    assert!(
        outcome.discarded_updates < total_updates / 2,
        "purge discarded {} of {} updates",
        outcome.discarded_updates,
        total_updates
    );

    // The healed pool: get works, the flag is clean.
    let mut vm = Vm::new(instrumented, pool, VmOpts::default());
    vm.call("recover", &[]).unwrap();
    assert!(vm.call("get", &[]).is_ok());
}

#[test]
fn detector_treats_distinct_faults_as_first_sightings() {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented);
    let mut vm = Vm::new(instrumented, new_pool(), VmOpts::default());
    vm.call("put", &[666]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    let mut detector = Detector::new();
    assert_eq!(
        detector.observe(FailureRecord::from_vm(&err)),
        Verdict::FirstSighting
    );
}

#[test]
fn plan_is_empty_for_unrelated_fault() {
    // A fault instruction with no PM ancestry yields an empty plan and the
    // reactor falls back to plain restart (false-alarm pruning, §4.5).
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let log = SharedLog::new();
    let trace = PmTrace::new();
    let mut reactor = Reactor::new(&out.analysis, &out.guid_map, ReactorConfig::default());
    // Use the first instruction of `recover` (a recover_begin intrinsic
    // with no PM-write ancestry in its slice... actually pick a Const).
    let fid = module.func_by_name("recover").unwrap();
    let fault = pir::ir::InstRef { func: fid, inst: 0 };
    let mut pool = new_pool();
    let plan = reactor.plan(fault, &trace, &log.view(), &mut pool);
    assert!(plan.seqs.is_empty());
}

// ---- the recovery episode ---------------------------------------------------

/// The toy app after a production run (with the poison put when `bad`),
/// as a recovery episode's subject: a watch restarts over a copy of the
/// image and runs [`recover_and_check`]; mitigations climb the ladder
/// with `standbys` behind the image.
struct Toy {
    out: AnalyzerOutput,
    module: Arc<Module>,
    log: SharedLog,
    trace: PmTrace,
    pool: PmPool,
    /// The image just before the poison put, with its log frontier.
    pre_fault: (PmImage, u64),
    standbys: PoolGroup,
    /// What production's last `get` showed, when it failed.
    failure: Option<FailureRecord>,
}

fn toy(bad: bool) -> Toy {
    let module = build_app();
    let out = analyze_and_instrument(&module);
    let instrumented = Arc::new(out.instrumented.clone());
    let log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut vm = Vm::new(instrumented.clone(), new_pool(), VmOpts::default());
    vm.pool_mut().set_sink(log.as_sink());
    for v in [1u64, 2, 3] {
        vm.call("put", &[v]).unwrap();
    }
    let pre_fault = (vm.pool().snapshot(), log.latest_seq());
    if bad {
        vm.call("put", &[666]).unwrap();
    }
    let failure = vm
        .call("get", &[])
        .err()
        .map(|e| FailureRecord::from_vm(&e));
    trace.absorb(vm.drain_trace());
    Toy {
        out,
        module: instrumented,
        log,
        trace,
        pool: vm.crash(),
        pre_fault,
        standbys: PoolGroup::default(),
        failure,
    }
}

impl Toy {
    /// One standby at the pre-fault image.
    fn with_pre_fault_standby(mut self) -> Self {
        let (image, cursor) = self.pre_fault.clone();
        self.standbys = PoolGroup::new(&PmPool::open(image).unwrap(), 1, cursor);
        self
    }
}

impl Subject for Toy {
    fn mitigate(&mut self, ladder: Ladder<'_>) -> MitigationOutcome {
        let mut reactor = Reactor::new(
            &self.out.analysis,
            &self.out.guid_map,
            ReactorConfig::default(),
        );
        let restart = Restart {
            module: &self.module,
            vm: VmOpts::default(),
            probe: &recover_and_check,
        };
        let standbys = Some(&mut self.standbys);
        ladder.run(
            &mut reactor,
            &mut self.pool,
            &self.log,
            &self.trace,
            &restart,
            standbys,
        )
    }

    fn watch(&mut self) -> Result<(), FailureRecord> {
        let mut vm = reopen(&self.module, VmOpts::default(), &self.pool, None)?;
        recover_and_check(&mut vm)
    }
}

#[test]
fn episode_only_restarts_a_soft_fault() {
    let mut app = toy(false);
    let blip = FailureRecord::wrong_result("a request timed out once");
    let mut episode = Episode::new(Detector::new(), 4, &[Rung::Reversion]);
    let end = episode.run(Some(blip), &mut app);
    assert!(end.healthy, "the restart cleared it");
    assert_eq!(end.rounds, 1, "first sighting, then a clean watch");
    assert!(end.outcome.is_none(), "no rung ran");
    assert_eq!(episode.detector().verdicts(), &[Verdict::FirstSighting]);
}

#[test]
fn episode_recovers_a_hard_fault_by_reversion() {
    let mut app = toy(true);
    let failure = app.failure.clone().expect("the poison crashes get");
    let mut episode = Episode::new(Detector::new(), 4, &[Rung::Reversion]);
    let end = episode.run(Some(failure), &mut app);
    assert!(end.healthy);
    assert_eq!(end.rounds, 2, "the restart showed the same symptom");
    let out = end.outcome.expect("mitigated");
    assert!(out.recovered && out.rung == Rung::Reversion, "{out:?}");
    assert!(out.discarded_updates > 0);
    assert!(episode.detector().history().is_empty(), "history reset");
}

#[test]
fn episode_ends_unhealthy_when_its_budget_is_spent() {
    let mut app = toy(true);
    let failure = app.failure.clone().expect("the poison crashes get");
    let mut episode = Episode::new(Detector::new(), 3, &[Rung::RestartOnly]);
    let end = episode.run(Some(failure), &mut app);
    assert!(!end.healthy);
    assert_eq!(end.rounds, 3);
    let out = end.outcome.expect("the hard rounds mitigated");
    assert!(!out.recovered && out.rung == Rung::RestartOnly, "{out:?}");
}

#[test]
fn episode_climbs_to_the_second_rung_when_the_first_fails() {
    // Restart-only cannot cure the poison; reversion can.
    let mut app = toy(true);
    let failure = app.failure.clone().unwrap();
    let mut episode = Episode::new(Detector::new(), 4, &[Rung::RestartOnly, Rung::Reversion]);
    let end = episode.run(Some(failure), &mut app);
    let out = end.outcome.unwrap();
    assert!(
        end.healthy && out.recovered && out.rung == Rung::Reversion,
        "{out:?}"
    );

    // A standby that already holds the poison fails promote verification;
    // reversion then repairs the image failover handed back, and the
    // standbys are re-seeded from it.
    let mut app = toy(true);
    let latest = app.log.latest_seq();
    app.standbys = PoolGroup::new(&app.pool, 1, latest);
    let failure = app.failure.clone().unwrap();
    let mut episode = Episode::new(Detector::new(), 4, &[Rung::Failover, Rung::Reversion]);
    let end = episode.run(Some(failure), &mut app);
    let out = end.outcome.unwrap();
    assert!(
        end.healthy && out.recovered && out.rung == Rung::Reversion,
        "{out:?}"
    );
    assert!(!app.standbys.replica(0).unwrap().faulted(), "re-seeded");

    // An anchor with no PM ancestry leaves reversion nothing to revert:
    // its restart fails, and the pre-fault standby rescues the episode,
    // reporting the restart's attempt with its own promotion.
    let mut app = toy(true).with_pre_fault_standby();
    let mut failure = app.failure.clone().unwrap();
    let func = app.module.func_by_name("recover").unwrap();
    failure.fault = Some(pir::ir::InstRef { func, inst: 0 });
    let mut seen = Detector::new();
    seen.observe(failure.clone());
    let mut episode = Episode::new(seen, 4, &[Rung::Reversion, Rung::Failover]);
    let end = episode.run(Some(failure), &mut app);
    let out = end.outcome.unwrap();
    assert!(
        end.healthy && out.recovered && out.rung == Rung::Failover,
        "{out:?}"
    );
    assert_eq!(out.attempts, 2, "one plain restart, one promotion");
}

#[test]
fn episode_escalates_past_failover_after_a_failover_recovered() {
    let mut app = toy(true).with_pre_fault_standby();
    let failure = app.failure.clone().unwrap();
    let mut episode = Episode::new(Detector::new(), 4, &[Rung::Failover, Rung::Reversion]);
    let end = episode.run(Some(failure.clone()), &mut app);
    assert_eq!(end.outcome.unwrap().rung, Rung::Failover);

    // The same poison, planted again over the promoted image, recurs: the
    // next mitigation reverts instead of promoting again.
    let mut vm = Vm::new(
        app.module.clone(),
        PmPool::open(app.pool.snapshot()).unwrap(),
        VmOpts::default(),
    );
    vm.pool_mut().set_sink(app.log.as_sink());
    vm.call("put", &[666]).unwrap();
    let failure = FailureRecord::from_vm(&vm.call("get", &[]).unwrap_err());
    app.trace.absorb(vm.drain_trace());
    app.pool = vm.crash();
    let end = episode.run(Some(failure), &mut app);
    let out = end.outcome.unwrap();
    assert!(
        end.healthy && out.recovered && out.rung == Rung::Reversion,
        "{out:?}"
    );
}
