//! Pool-group replication at the reactor layer: checkpoint-stream
//! pumping, quorum cross-check localization, and hot-standby failover,
//! including the degeneration of an empty group to the single-pool path
//! in either rung order of a recovery episode.

use std::sync::Arc;

use arthas::{
    analyze_and_instrument, Detector, Episode, FailureRecord, Ladder, MitigationOutcome, PmTrace,
    Reactor, ReactorConfig, Restart, Rung, SharedLog, Subject,
};
use pir::builder::ModuleBuilder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::{PmPool, PoolGroup};

// ---- stream pumping ---------------------------------------------------------

/// The replication feed is the pool's own persist stream: pumping
/// `updates_since(cursor)` converges a replica to the primary's durable
/// bytes.
#[test]
fn pumped_replica_converges_to_primary_bytes() {
    let log = SharedLog::new();
    let mut pool = PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 18)).unwrap();
    pool.set_sink(log.as_sink());
    let mut group = PoolGroup::new(&pool, 2, 0);

    let base = pmemsim::layout::HEAP_OFF;
    for i in 0..32u64 {
        let addr = base + (i % 8) * 4096;
        pool.write(addr, &i.to_le_bytes()).unwrap();
        pool.persist(addr, 8).unwrap();
    }
    // Pump replica 0 fully; leave replica 1 lagging at the first half.
    {
        let view = log.view();
        let all = view.updates_since(0);
        let latest = view.latest_seq();
        group.apply_stream(0, all.iter().copied());
        group.apply_stream(1, all.iter().copied().filter(|&(s, _, _)| s <= latest / 2));
    }
    let latest = log.view().latest_seq();
    let status = group.status(latest);
    assert_eq!(status[0].lag, 0, "replica 0 caught up");
    assert!(status[1].lag > 0, "replica 1 lagging");
    assert_eq!(group.healthiest(), Some(0));

    // Caught-up replica matches the primary byte-for-byte at every
    // touched address.
    for i in 0..8u64 {
        let addr = base + i * 4096;
        assert_eq!(
            group.replica_bytes(0, addr, 8).unwrap(),
            pool.read(addr, 8).unwrap().as_slice(),
            "replica bytes at {addr:#x}"
        );
    }
    // Idempotent re-delivery: pumping the same stream again applies
    // nothing.
    let before = group.replica(0).unwrap().applied();
    let view = log.view();
    let all = view.updates_since(0);
    group.apply_stream(0, all.iter().copied());
    assert_eq!(group.replica(0).unwrap().applied(), before);
}

// ---- app harness (shape shared with heal_below_cut.rs) ----------------------

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

/// Restarts over a copy of the candidate image: recovery, then the
/// `get` that crashes while the flag is set.
fn restart(module: &Arc<Module>) -> Restart<'_> {
    fn recover_and_get(vm: &mut Vm) -> Result<(), FailureRecord> {
        vm.call("recover", &[])
            .map_err(|e| FailureRecord::from_vm(&e))?;
        vm.call("get", &[])
            .map_err(|e| FailureRecord::from_vm(&e))?;
        Ok(())
    }
    Restart {
        module,
        vm: VmOpts::default(),
        probe: &recover_and_get,
    }
}

struct Crashed {
    out: arthas::AnalyzerOutput,
    module: Arc<Module>,
    log: SharedLog,
    trace: PmTrace,
    failure: FailureRecord,
    pool: PmPool,
    /// Snapshot taken just before the poisoned put, with its seq — the
    /// lagging hot standby's base.
    standby: (pmemsim::PmImage, u64),
}

/// Runs the app to its hard fault, capturing a pre-fault standby snapshot
/// on the way.
fn run_to_failure() -> Crashed {
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
    let standby = (vm.pool_mut().snapshot(), log.view().latest_seq());
    vm.call("put", &[666]).unwrap();
    let err = vm.call("get", &[]).unwrap_err();
    trace.absorb(vm.drain_trace());
    let failure = FailureRecord::from_vm(&err);
    let pool = vm.crash();
    Crashed {
        out,
        module: instrumented,
        log,
        trace,
        failure,
        pool,
        standby,
    }
}

// ---- cross-check localization -----------------------------------------------

/// Software faults replicate faithfully: pool and caught-up replicas
/// agree everywhere, the corrupted set is empty, and the plan passes
/// through unchanged. External corruption on the primary disagrees with
/// the replica quorum and restricts the plan to the corrupted address —
/// a strict subset, never a grown set.
#[test]
fn cross_check_shrinks_on_corruption_and_passes_software_faults() {
    let mut c = run_to_failure();
    // Caught-up replicas: built from the crashed image itself.
    let group = PoolGroup::new(&c.pool, 3, c.log.view().latest_seq());
    let cfg = ReactorConfig::default();
    let mut reactor = Reactor::new(&c.out.analysis, &c.out.guid_map, cfg);
    let fault = c.failure.fault.unwrap();

    // Software fault only: plan unchanged.
    let (plan, filtered) = {
        let view = c.log.view();
        let plan = reactor.plan(fault, &c.trace, &view, &mut c.pool);
        let filtered = reactor.cross_check_plan(&plan, &view, &mut c.pool, &group);
        (plan, filtered)
    };
    assert!(!plan.seqs.is_empty());
    assert_eq!(
        filtered.seqs, plan.seqs,
        "faithfully replicated state must not be localized"
    );

    // External corruption on the aux address: the quorum disagrees with
    // the primary there, and the plan collapses to that address.
    let root = c.pool.root_offset().unwrap();
    c.pool.corrupt_bit(root + 8192, 0).unwrap();
    let (plan, filtered) = {
        let view = c.log.view();
        let plan = reactor.plan(fault, &c.trace, &view, &mut c.pool);
        let filtered = reactor.cross_check_plan(&plan, &view, &mut c.pool, &group);
        (plan, filtered)
    };
    assert!(
        filtered.seqs.len() < plan.seqs.len(),
        "cross-check must shrink the plan under external corruption \
         ({} vs {})",
        filtered.seqs.len(),
        plan.seqs.len()
    );
    assert!(
        filtered.seqs.iter().all(|s| plan.seqs.contains(s)),
        "the filtered plan is a subset of the original"
    );
    let view = c.log.view();
    for &s in &filtered.seqs {
        assert_eq!(view.addr_of_seq(s), Some(root + 8192));
    }
}

/// Lagging replicas cannot vote on addresses they have not applied: no
/// quorum means no localization, and the plan passes through unchanged
/// even with a corrupted primary.
#[test]
fn cross_check_without_quorum_is_conservative() {
    let mut c = run_to_failure();
    let (image, cursor) = c.standby.clone();
    // The single replica is the lagging pre-fault standby.
    let standby_pool = PmPool::open(image).unwrap();
    let group = PoolGroup::new(&standby_pool, 1, cursor);
    let root = c.pool.root_offset().unwrap();
    c.pool.corrupt_bit(root + 8192, 0).unwrap();
    let cfg = ReactorConfig::default();
    let mut reactor = Reactor::new(&c.out.analysis, &c.out.guid_map, cfg);
    let fault = c.failure.fault.unwrap();
    let view = c.log.view();
    let plan = reactor.plan(fault, &c.trace, &view, &mut c.pool);
    let filtered = reactor.cross_check_plan(&plan, &view, &mut c.pool, &group);
    // aux's newest logged seq predates the standby cursor, so the
    // standby *can* vote on aux; flag/value's newest seqs are above the
    // cursor, so those cannot be localized. Either way: a subset.
    assert!(filtered.seqs.len() <= plan.seqs.len());
    assert!(filtered.seqs.iter().all(|s| plan.seqs.contains(s)));
}

// ---- failover ---------------------------------------------------------------

/// Hot-standby-first failover: a pre-fault standby promotes, verifies,
/// and every checkpoint seq above its cursor is accounted discarded.
#[test]
fn failover_promotes_pre_fault_standby_and_accounts_discards() {
    let mut c = run_to_failure();
    let (image, cursor) = c.standby.clone();
    let standby_pool = PmPool::open(image).unwrap();
    let mut group = PoolGroup::new(&standby_pool, 1, cursor);
    let cfg = ReactorConfig::default();
    let mut reactor = Reactor::new(&c.out.analysis, &c.out.guid_map, cfg);
    let expected_discards = {
        let view = c.log.view();
        view.all_seqs().into_iter().filter(|&s| s > cursor).count() as u64
    };
    let outcome = reactor.failover(&mut c.pool, &c.log, &restart(&c.module), &mut group);
    assert!(outcome.recovered, "{outcome:?}");
    assert_eq!(
        outcome.rung,
        Rung::Failover,
        "recovery came from the standby"
    );
    assert_eq!(outcome.discarded_updates, expected_discards);
    assert!(expected_discards > 0, "the poisoned put was discarded");
    // The promoted image is the pre-fault state: flag clear, last clean
    // value in place.
    let root = c.pool.root_offset().unwrap();
    assert_eq!(c.pool.read_u64(root + 8).unwrap(), 0);
    assert_eq!(c.pool.read_u64(root + 16).unwrap(), 4);
}

/// A faulted standby cannot promote; with every replica failed the
/// failover hands back the crashed image unrecovered.
#[test]
fn failover_with_all_replicas_faulted_fails_cleanly() {
    let mut c = run_to_failure();
    let (image, cursor) = c.standby.clone();
    let standby_pool = PmPool::open(image).unwrap();
    let mut group = PoolGroup::new(&standby_pool, 1, cursor);
    group.mark_faulted(0);
    let before = c.pool.snapshot();
    let cfg = ReactorConfig::default();
    let mut reactor = Reactor::new(&c.out.analysis, &c.out.guid_map, cfg);
    let outcome = reactor.failover(&mut c.pool, &c.log, &restart(&c.module), &mut group);
    assert!(!outcome.recovered);
    assert_eq!(outcome.attempts, 0, "a faulted standby is never promoted");
    assert_eq!(c.pool.snapshot(), before, "crashed image handed back");
}

/// The crashed run as a recovery episode's subject, with `group` as its
/// standbys: a watch restarts over a copy of the image.
struct Standing<'c> {
    c: &'c mut Crashed,
    group: PoolGroup,
}

impl Subject for Standing<'_> {
    fn mitigate(&mut self, ladder: Ladder<'_>) -> MitigationOutcome {
        let c = &mut *self.c;
        let mut reactor = Reactor::new(&c.out.analysis, &c.out.guid_map, ReactorConfig::default());
        let restart = restart(&c.module);
        ladder.run(
            &mut reactor,
            &mut c.pool,
            &c.log,
            &c.trace,
            &restart,
            Some(&mut self.group),
        )
    }

    fn watch(&mut self) -> Result<(), FailureRecord> {
        restart(&self.c.module).run(&self.c.pool, &SharedLog::new())
    }
}

/// An empty group is no standbys: either rung order over it produces the
/// same outcome and the same final pool bytes as a mitigation given none,
/// on an identical run.
#[test]
fn empty_group_degenerates_to_single_pool_mitigation() {
    let (b, img_b) = {
        let mut c = run_to_failure();
        let cfg = ReactorConfig::default();
        let mut reactor = Reactor::new(&c.out.analysis, &c.out.guid_map, cfg);
        let outcome = reactor.mitigate(
            &mut c.pool,
            &c.log,
            &c.failure,
            &c.trace,
            &restart(&c.module),
        );
        (outcome, c.pool.snapshot())
    };
    let ladders: [(&[Rung], bool); 2] = [
        (&[Rung::Failover, Rung::Reversion], false),
        (&[Rung::Reversion, Rung::Failover], true),
    ];
    for (rungs, cross_checked) in ladders {
        let mut c = run_to_failure();
        let failure = c.failure.clone();
        // Seen once already: the episode's first observation is hard.
        let mut detector = Detector::new();
        detector.observe(failure.clone());
        let mut episode = Episode::new(detector, 1, rungs);
        if cross_checked {
            episode = episode.cross_checked();
        }
        let end = episode.run(
            Some(failure),
            &mut Standing {
                c: &mut c,
                group: PoolGroup::default(),
            },
        );
        let a = end.outcome.expect("the hard failure was mitigated");
        assert!(end.healthy);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.rung, Rung::Reversion);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.reverted_seqs, b.reverted_seqs);
        assert_eq!(a.discarded_updates, b.discarded_updates);
        assert_eq!(c.pool.snapshot(), img_b, "byte-identical final pool images");
    }
}
