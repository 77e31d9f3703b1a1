//! The experiment driver: runs a fault scenario to failure, then hands
//! the broken pool to a mitigation solution and measures the result.
//!
//! The shape follows the paper's methodology (§6.1): each system runs for
//! 300 logical seconds of workload, the bug's triggering condition is
//! applied around the half-way point (or occurs naturally), restarts are
//! attempted first (confirming the fault is *hard*), and then mitigation
//! runs with either Arthas, pmCRIU (snapshots every 60 logical seconds)
//! or ArCkpt.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use arthas::{
    analyze_and_instrument_cached, reopen, AnalysisCache, Detector, FailureRecord, GuidMap,
    LeakMonitor, Mode, PhaseTimes, PmTrace, Reactor, ReactorConfig, ReactorConfigBuilder, Restart,
    Search, SharedLog, Verdict,
};
use baselines::{ArCkpt, PmCriu};
use obs::Instrument;
use pir::ir::Module;
use pir::vm::{Trap, Vm, VmError, VmOpts};
use pir_analysis::ModuleAnalysis;
use pmemsim::{CrashPolicy, PmPool};

/// Default pool size for scenario runs.
pub const POOL_SIZE: u64 = pmemsim::layout::HEAP_OFF + (8 << 20);
/// Logical run length (the paper's 5 minutes).
pub const RUN_TICKS: u64 = 300;
/// pmCRIU snapshot interval (the paper's 1 minute).
pub const CRIU_INTERVAL: u64 = 60;
/// Step budget of every call the offline pipeline interprets: production,
/// its restarts, mitigation re-executions and campaign trial restarts. A
/// call that exhausts it is a hang (the paper's timeout, §4.3). The
/// longest passing call of any scenario, mitigation or campaign trial
/// takes 7 136 steps (f2's `put`), so the budget leaves 9× headroom;
/// `tests/hang_budget.rs` checks every scenario reaches the same outcome
/// at an eighth of it.
pub const HANG_STEPS: u64 = 1 << 16;

/// Cached per-application analyzer output shared by its scenarios.
pub struct AppSetup {
    /// The original module.
    pub module: Arc<Module>,
    /// The trace-instrumented module (what production runs).
    pub instrumented: Arc<Module>,
    /// Static analysis over the original module (shared with the
    /// analysis cache when one was used).
    pub analysis: Arc<ModuleAnalysis>,
    /// GUID metadata.
    pub guid_map: GuidMap,
    /// Instrumentation wall time (Table 9).
    pub instrument_time: Duration,
}

impl AppSetup {
    /// Runs the analyzer pipeline over an application module.
    pub fn new(module: Module) -> AppSetup {
        AppSetup::new_with_cache(module, None)
    }

    /// Like [`AppSetup::new`], but loads the static analysis from
    /// `cache` when one is given (computing and saving on a miss) — the
    /// restart-fast path: a warm restart of the same module skips the
    /// whole points-to/PDG pipeline.
    pub fn new_with_cache(module: Module, cache: Option<&AnalysisCache>) -> AppSetup {
        let out = analyze_and_instrument_cached(&module, cache);
        AppSetup {
            module: Arc::new(module),
            instrumented: Arc::new(out.instrumented),
            analysis: out.analysis,
            guid_map: out.guid_map,
            instrument_time: out.instrument_time,
        }
    }
}

/// What the scenario's per-tick driver asks the harness to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Keep going.
    Continue,
    /// Simulate a power failure now (the scenario's trigger needs one).
    CrashNow,
}

/// Mutable per-run scenario context.
pub struct RunCtx {
    /// Run seed, read only through [`RunCtx::seed`].
    seed: u64,
    /// Whether the run has read its seed.
    seed_read: bool,
    /// Number of restarts so far.
    pub restarts: u32,
    /// Scenario scratch counters.
    pub scratch: HashMap<&'static str, u64>,
    /// Steps interpreted by the run's ended VM lifetimes.
    steps: u64,
}

impl RunCtx {
    /// A fresh context for a run under `seed`.
    pub fn new(seed: u64) -> Self {
        RunCtx {
            seed,
            seed_read: false,
            restarts: 0,
            scratch: HashMap::new(),
            steps: 0,
        }
    }

    /// The run seed (randomized trigger placement, seeded payloads). The
    /// read is recorded: a run that never makes it is, by the replay
    /// contract, the same run under every seed.
    pub fn seed(&mut self) -> u64 {
        self.seed_read = true;
        self.seed
    }

    /// Adds `delta` to a named counter and returns the new value.
    pub fn bump(&mut self, key: &'static str, delta: u64) -> u64 {
        let e = self.scratch.entry(key).or_insert(0);
        *e += delta;
        *e
    }

    /// Reads a named counter.
    pub fn get(&self, key: &'static str) -> u64 {
        self.scratch.get(key).copied().unwrap_or(0)
    }
}

/// A fault scenario: one row of the paper's Table 2.
///
/// `Sync` so that a campaign's runner threads can share the scenario
/// table (scenarios are stateless descriptions; per-run state lives in
/// [`RunCtx`]).
pub trait Scenario: Sync {
    /// Scenario id, e.g. "f1".
    fn id(&self) -> &'static str;
    /// Target system name.
    fn system(&self) -> &'static str;
    /// Fault description (Table 2's "Fault" column).
    fn fault(&self) -> &'static str;
    /// Consequence (Table 2's "Consequence" column).
    fn consequence(&self) -> &'static str;
    /// Builds the application module.
    fn build_module(&self) -> Module;
    /// Name of the application's recovery function.
    fn recover_call(&self) -> &'static str;
    /// Called after every (re)start: set up injections, spawn workers.
    fn on_start(&self, vm: &mut Vm, ctx: &mut RunCtx) {
        let _ = (vm, ctx);
    }
    /// Drives one logical second of workload.
    fn drive(&self, vm: &mut Vm, t: u64, ctx: &mut RunCtx) -> Result<Drive, VmError>;
    /// Recovery + verification workload on a restarted instance;
    /// `Ok(())` means the system is operational.
    fn verify(&self, vm: &mut Vm) -> Result<(), FailureRecord>;
    /// Domain consistency checks (Table 4); returns found issues.
    fn consistency(&self, vm: &mut Vm) -> Vec<String>;
    /// Name of the app's *self-contained* invariant-check routine (no
    /// arguments, traps on violation), safe to run against any post-crash
    /// state. Crash-injection trials use it as the post-restart
    /// consistency probe: unlike [`Scenario::consistency`], whose checks
    /// may assume the verification workload ran, a trap from this routine
    /// carries a fault location the reactor can slice from. `None` limits
    /// trials to the pool-level structural check.
    fn invariant_call(&self) -> Option<&'static str> {
        None
    }
    /// Application item count (data-loss accounting for pmCRIU).
    fn count_items(&self, vm: &mut Vm) -> u64;
    /// Whether the failure mode is a persistent leak.
    fn is_leak(&self) -> bool {
        false
    }
    /// Whether the trigger time is randomized across seeds (f5, f8): the
    /// Table 2 metadata `reproduce` renders. It is not how the harness
    /// tells a seed-dependent run: that is whether the run called
    /// [`RunCtx::seed`] (`seed_read` on [`Production`] and
    /// [`CompletedRun`]), which fx1's seeded payloads also do. For the
    /// stock scenarios the two agree, and a test keeps them so.
    fn randomized(&self) -> bool {
        false
    }
    /// Whether this scenario can be detected by a checksum over PM values
    /// (Table 7 / §6.6: only value-corrupting hardware faults can).
    fn checksum_detectable(&self) -> bool {
        false
    }
    /// Whether a common domain invariant check would flag the bad state
    /// (Table 7).
    fn invariant_detectable(&self) -> bool {
        false
    }
}

/// The broken system, ready for mitigation.
pub struct Production {
    /// The pool holding the bad persistent state.
    pub pool: PmPool,
    /// The checkpoint log accumulated during the run.
    pub log: SharedLog,
    /// The dynamic PM address trace.
    pub trace: PmTrace,
    /// The detected failure.
    pub failure: FailureRecord,
    /// Items present just before the failure.
    pub items_before: u64,
    /// PM bytes allocated just before the failure.
    pub allocated_before: u64,
    /// pmCRIU snapshots taken during the run.
    pub criu: PmCriu,
    /// Restarts performed during production (detection).
    pub restarts: u32,
    /// Whether the detector flagged the failure as hard.
    pub detected_hard: bool,
    /// The detector with its full observation history.
    pub detector: Detector,
    /// The recorder attached during production (re-attached to the
    /// reactor by [`mitigate`]).
    pub recorder: Option<Arc<dyn obs::Recorder>>,
    /// Whether the run read its seed ([`RunCtx::seed`]).
    pub seed_read: bool,
    /// The VM options production ran under; [`mitigate`] re-executes
    /// under the same ones, so detection and re-execution share one
    /// definition of a hang.
    pub vm: VmOpts,
    /// Steps interpreted over every VM lifetime of the run, restarts
    /// included (deterministic for a seed).
    pub steps: u64,
}

/// Which auxiliary machinery runs during production.
#[derive(Clone)]
pub struct RunConfig {
    /// Attach the Arthas checkpoint sink.
    pub checkpoint: bool,
    /// Take pmCRIU snapshots.
    pub criu: bool,
    /// Seed for randomized scenarios.
    pub seed: u64,
    /// VM options.
    pub vm: VmOpts,
    /// Observability recorder to attach to the pool, the checkpoint log,
    /// the detector and (during mitigation) the reactor. `None` leaves
    /// every layer on its unobserved fast path.
    pub recorder: Option<Arc<dyn obs::Recorder>>,
    /// Record the kind of every durability boundary crossed (site
    /// enumeration for crash-injection campaigns).
    pub record_sites: bool,
    /// Arm a crash injection before the run starts: the pool crashes at
    /// the given site under the given policy, and the run returns
    /// [`InjectionOutcome::SiteCrash`] with the post-crash image.
    pub injection: Option<SiteInjection>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            checkpoint: true,
            criu: true,
            seed: 1,
            vm: VmOpts {
                step_limit: HANG_STEPS,
                ..VmOpts::default()
            },
            recorder: None,
            record_sites: false,
            injection: None,
        }
    }
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("checkpoint", &self.checkpoint)
            .field("criu", &self.criu)
            .field("seed", &self.seed)
            .field("vm", &self.vm)
            .field("recorder", &self.recorder.is_some())
            .field("record_sites", &self.record_sites)
            .field("injection", &self.injection)
            .finish()
    }
}

/// A crash injection to arm for one production run.
#[derive(Debug, Clone, Copy)]
pub struct SiteInjection {
    /// The durability-boundary site to crash at (see
    /// [`pmemsim::PmPool::arm_crash_at_site`]).
    pub site: u64,
    /// The crash policy for in-flight lines at the injected crash.
    pub policy: CrashPolicy,
}

/// The post-crash state captured when an armed injection fired.
pub struct CrashCapture {
    /// The pool holding the raw post-crash image. The device has crashed
    /// but the pool has *not* been reopened: recovery belongs to the
    /// trial's classification loop, exactly as it would to a restarted
    /// process.
    pub pool: PmPool,
    /// The checkpoint log accumulated up to the crash.
    pub log: SharedLog,
    /// The dynamic PM address trace up to the crash.
    pub trace: PmTrace,
    /// The site that fired.
    pub site: u64,
    /// Restarts performed before the injection fired.
    pub restarts: u32,
    /// The detector with any pre-injection observation history.
    pub detector: Detector,
}

/// The machine state of a run that completed without a detected failure:
/// the final pool plus the full checkpoint log and PM trace — a *passing
/// run*, the raw material invariant mining learns from.
pub struct CompletedRun {
    /// The final pool (site census for enumeration runs).
    pub pool: PmPool,
    /// The complete checkpoint log of the run.
    pub log: SharedLog,
    /// The complete dynamic PM address trace of the run.
    pub trace: PmTrace,
    /// Whether the run read its seed ([`RunCtx::seed`]). When it did
    /// not, every seed replays this same run.
    pub seed_read: bool,
}

/// How a production run under [`run_with_injection`] ended.
pub enum InjectionOutcome {
    /// The armed injection fired; here is the machine state at the crash.
    SiteCrash(Box<CrashCapture>),
    /// The scenario reached its own detected hard failure (the armed
    /// site — if any — was never crossed first).
    HardFailure(Box<Production>),
    /// The workload ran to completion without a detected failure.
    Completed(Box<CompletedRun>),
}

/// Runs a scenario's production phase to a detected hard failure.
///
/// Returns `None` when the workload completed with no (detected) failure —
/// which would indicate a scenario bug in this reproduction.
pub fn run_production(scn: &dyn Scenario, setup: &AppSetup, cfg: &RunConfig) -> Option<Production> {
    match run_with_injection(scn, setup, cfg) {
        InjectionOutcome::HardFailure(p) => Some(*p),
        InjectionOutcome::SiteCrash(_) | InjectionOutcome::Completed(_) => None,
    }
}

/// Runs a scenario's production phase as a *replayable* trial: the run is
/// deterministic in `cfg`, so re-running with [`RunConfig::injection`]
/// armed crashes at exactly the numbered boundary a prior
/// [`RunConfig::record_sites`] enumeration run crossed.
pub fn run_with_injection(
    scn: &dyn Scenario,
    setup: &AppSetup,
    cfg: &RunConfig,
) -> InjectionOutcome {
    let mut pool = Some(PmPool::create(POOL_SIZE).expect("create pool"));
    let mut log = SharedLog::new();
    let mut trace = PmTrace::new();
    let mut criu = PmCriu::new(CRIU_INTERVAL);
    let mut detector = Detector::new();
    let mut leakmon = LeakMonitor::new();
    let mut ctx = RunCtx::new(cfg.seed);
    {
        let p = pool.as_mut().expect("pool present");
        if let Some(rec) = &cfg.recorder {
            p.instrument(rec.clone());
            log.instrument(rec.clone());
            detector.instrument(rec.clone());
        }
        if cfg.record_sites {
            p.record_site_kinds(true);
        }
        if let Some(inj) = cfg.injection {
            p.arm_crash_at_site(inj.site, inj.policy);
        }
    }

    // Wraps up a fired injection: the pool keeps the raw post-crash image
    // (no recovery has run), and the trial's classifier takes over.
    let capture = |vm: Vm, site: u64, trace: PmTrace, log: SharedLog, restarts, detector| {
        InjectionOutcome::SiteCrash(Box::new(CrashCapture {
            pool: vm.into_pool(),
            log,
            trace,
            site,
            restarts,
            detector,
        }))
    };

    let mut t = 0u64;
    let mut items_last = 0u64;
    let mut alloc_last = 0u64;
    'run: loop {
        let mut vm = Vm::new(
            setup.instrumented.clone(),
            pool.take().expect("pool present"),
            cfg.vm,
        );
        if cfg.checkpoint {
            vm.pool_mut().set_sink(log.as_sink());
        }
        if ctx.restarts > 0 {
            // Application recovery on restart.
            if let Err(e) = vm.call(scn.recover_call(), &[]) {
                trace.absorb(vm.drain_trace());
                if let Trap::SiteCrash { site } = e.trap {
                    return capture(vm, site, trace, log, ctx.restarts, detector);
                }
                // Recovery itself failing is a failure observation.
                let rec = FailureRecord::from_vm(&e);
                let verdict = detector.observe(rec.clone());
                ctx.steps += vm.steps_total();
                pool = Some(vm.crash());
                ctx.restarts += 1;
                if verdict == Verdict::SuspectedHard {
                    return InjectionOutcome::HardFailure(Box::new(finish(
                        pool.take().expect("pool"),
                        log,
                        trace,
                        rec,
                        items_last,
                        alloc_last,
                        criu,
                        &ctx,
                        detector,
                        cfg,
                    )));
                }
                continue 'run;
            }
        }
        scn.on_start(&mut vm, &mut ctx);
        while t < RUN_TICKS {
            vm.clock = t;
            if cfg.criu && t >= CRIU_INTERVAL {
                criu.tick(t, vm.pool());
            }
            let step = scn.drive(&mut vm, t, &mut ctx);
            trace.absorb(vm.drain_trace());
            match step {
                Ok(Drive::Continue) => {
                    t += 1;
                }
                Ok(Drive::CrashNow) => {
                    t += 1;
                    items_last = scn.count_items(&mut vm);
                    ctx.steps += vm.steps_total();
                    let mut p = vm.crash();
                    alloc_last = p.allocated_bytes().unwrap_or(0);
                    leakmon.sample(alloc_last);
                    pool = Some(p);
                    ctx.restarts += 1;
                    continue 'run;
                }
                Err(e) if matches!(e.trap, Trap::SiteCrash { .. }) => {
                    let Trap::SiteCrash { site } = e.trap else {
                        unreachable!("matched above");
                    };
                    return capture(vm, site, trace, log, ctx.restarts, detector);
                }
                Err(e) if e.trap == Trap::InjectedCrash => {
                    // An untimely power failure (the trigger), not a
                    // symptom.
                    t += 1;
                    ctx.steps += vm.steps_total();
                    pool = Some(vm.crash());
                    ctx.restarts += 1;
                    continue 'run;
                }
                Err(e) => {
                    let rec = FailureRecord::from_vm(&e);
                    let verdict = detector.observe(rec.clone());
                    ctx.steps += vm.steps_total();
                    let mut broken = vm.crash();
                    ctx.restarts += 1;
                    if verdict == Verdict::SuspectedHard {
                        return InjectionOutcome::HardFailure(Box::new(finish(
                            broken, log, trace, rec, items_last, alloc_last, criu, &ctx, detector,
                            cfg,
                        )));
                    }
                    // First sighting: restart and re-drive the same tick
                    // (the soft-fault hypothesis).
                    items_last = {
                        // Count on a throwaway copy (the chain may be
                        // corrupt; count_items implementations use stored
                        // counters, so this is safe).
                        match reopen(&setup.instrumented, cfg.vm, &broken, None) {
                            Ok(mut vm2) => {
                                let items = scn.count_items(&mut vm2);
                                ctx.steps += vm2.steps_total();
                                items
                            }
                            Err(_) => items_last,
                        }
                    };
                    alloc_last = broken.allocated_bytes().unwrap_or(alloc_last);
                    pool = Some(broken);
                    continue 'run;
                }
            }
            if t.is_multiple_of(10) {
                items_last = scn.count_items(&mut vm);
            }
        }
        // Workload finished without a trap. Leak scenarios detect here.
        items_last = scn.count_items(&mut vm);
        ctx.steps += vm.steps_total();
        let mut p = vm.into_pool();
        alloc_last = p.allocated_bytes().unwrap_or(0);
        leakmon.sample(alloc_last);
        if scn.is_leak() && leakmon.suspected(2, 64) {
            let rec = FailureRecord::leak(format!(
                "PM utilisation grew to {alloc_last} bytes across restarts"
            ));
            return InjectionOutcome::HardFailure(Box::new(finish(
                p, log, trace, rec, items_last, alloc_last, criu, &ctx, detector, cfg,
            )));
        }
        return InjectionOutcome::Completed(Box::new(CompletedRun {
            pool: p,
            log,
            trace,
            seed_read: ctx.seed_read,
        }));
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    pool: PmPool,
    log: SharedLog,
    trace: PmTrace,
    failure: FailureRecord,
    items_before: u64,
    allocated_before: u64,
    criu: PmCriu,
    ctx: &RunCtx,
    detector: Detector,
    cfg: &RunConfig,
) -> Production {
    Production {
        pool,
        log,
        trace,
        failure,
        items_before,
        allocated_before,
        criu,
        restarts: ctx.restarts,
        detected_hard: true,
        detector,
        recorder: cfg.recorder.clone(),
        seed_read: ctx.seed_read,
        vm: cfg.vm,
        steps: ctx.steps,
    }
}

/// The restart probe of an offline mitigation: the scenario's recovery
/// call, then its verification workload.
pub fn recover_and_verify(scn: &dyn Scenario, vm: &mut Vm) -> Result<(), FailureRecord> {
    vm.call(scn.recover_call(), &[])
        .map_err(|e| FailureRecord::from_vm(&e))?;
    scn.verify(vm)
}

/// Which solution mitigates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Solution {
    /// Arthas with the given reactor configuration.
    Arthas(ReactorConfig),
    /// The pmCRIU baseline.
    PmCriu,
    /// The ArCkpt baseline with a re-execution budget.
    ArCkpt(u32),
}

type Tune = fn(ReactorConfigBuilder, usize) -> ReactorConfigBuilder;

/// The one name ↔ [`Solution`] table (`run`, `report` and `reproduce`
/// accept exactly these names and the two of [`BASELINES`]): name, the
/// default of the `:k` suffix for the variants that take one, and what
/// the variant changes in the default reactor configuration.
const ARTHAS: [(&str, Option<usize>, Tune); 6] = [
    ("arthas", None, |b, _| b),
    ("arthas-rollback", None, |b, _| b.mode(Mode::Rollback)),
    // Pure purge: never falls back to rollback.
    ("arthas-purge", None, |b, _| {
        b.mode(Mode::Purge).purge_fallback_after(u32::MAX)
    }),
    ("arthas-batch", Some(5), |b, k| b.search(Search::Batch(k))),
    ("arthas-minimize", None, |b, _| b.minimize_loss(true)),
    ("arthas-rollback-minimize", None, |b, _| {
        b.mode(Mode::Rollback).minimize_loss(true)
    }),
];

const BASELINES: [(&str, Solution); 2] = [
    ("arckpt", Solution::ArCkpt(200)),
    ("pmcriu", Solution::PmCriu),
];

impl Solution {
    /// Every accepted name, the parametrised ones at their default count
    /// (`arthas-batch:5`; any count may follow the colon).
    pub fn variants() -> impl Iterator<Item = String> {
        let arthas = ARTHAS.iter().map(|&(name, k, _)| match k {
            Some(k) => format!("{name}:{k}"),
            None => name.to_string(),
        });
        arthas.chain(BASELINES.iter().map(|b| b.0.to_string()))
    }

    /// Parses a solution name; `Err` is a user-facing message listing the
    /// accepted names.
    pub fn parse(name: &str) -> Result<Solution, String> {
        if let Some(&(_, baseline)) = BASELINES.iter().find(|b| b.0 == name) {
            return Ok(baseline);
        }
        let (base, count) = match name.split_once(':') {
            Some((base, count)) => (base, Some(count)),
            None => (name, None),
        };
        let (k, tune) = match (ARTHAS.iter().find(|v| v.0 == base), count) {
            (Some(&(_, default, tune)), None) => (default.unwrap_or(0), tune),
            (Some(&(_, Some(_), tune)), Some(count)) => match count.parse() {
                Ok(k) => (k, tune),
                Err(_) => return Err(format!("bad count `{count}` in solution `{name}`")),
            },
            _ => {
                let names: Vec<String> = Solution::variants().collect();
                let names = names.join(", ");
                return Err(format!(
                    "unknown solution `{name}` (expected one of: {names})"
                ));
            }
        };
        let cfg = tune(ReactorConfig::builder(), k).build();
        cfg.map(Solution::Arthas)
            .map_err(|e| format!("solution `{name}`: {e}"))
    }

    /// The name [`Solution::parse`] maps to this solution
    /// (`arthas-custom` for a reactor configuration outside the table).
    pub fn name(&self) -> String {
        let k = match self {
            Solution::Arthas(cfg) => match cfg.search() {
                Search::Batch(k) => k,
                Search::OneByOne | Search::Gallop => 0,
            },
            _ => 0,
        };
        let names = Solution::variants().map(|name| match name.split_once(':') {
            Some((base, _)) => format!("{base}:{k}"),
            None => name,
        });
        let mut names = names.filter(|name| Solution::parse(name).as_ref() == Ok(self));
        names.next().unwrap_or_else(|| "arthas-custom".to_string())
    }
}

/// Mitigation measurement (one cell of Tables 3/5, Figures 8/9).
#[derive(Debug, Clone)]
pub struct MitigationResult {
    /// Scenario id.
    pub id: &'static str,
    /// Whether the system was recovered (symptom gone + data remains).
    pub recovered: bool,
    /// Re-executions performed.
    pub attempts: u32,
    /// Restarts paid: one per attempt the reactor did not skip (f1 by
    /// default: 6 attempts, 3 rounds). The baselines pay one per attempt.
    pub reexec_rounds: u32,
    /// Host wall time of the mitigation.
    pub wall: Duration,
    /// Modelled mitigation time including the paper's 3–5 s per
    /// re-execution restart delay.
    pub modeled_secs: f64,
    /// Checkpoint updates discarded (Arthas / ArCkpt).
    pub discarded_updates: u64,
    /// Total checkpoint updates recorded in production.
    pub total_updates: u64,
    /// Fraction of application items lost (pmCRIU accounting).
    pub item_loss_frac: f64,
    /// Post-recovery consistency verdict (None when not recovered).
    pub consistent: Option<bool>,
    /// Leak objects freed (leak scenarios).
    pub leaks_freed: u64,
    /// Whether purge mode fell back to rollback.
    pub mode_fellback: bool,
    /// Per-phase wall-time breakdown (zeroed for the baselines, which
    /// have no slice/plan/revert machinery).
    pub phases: PhaseTimes,
}

/// The one-line summary `run` and `report` print.
impl std::fmt::Display for MitigationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mitigation: recovered={} attempts={} rounds={} discarded={}/{} consistent={:?} leaks_freed={}",
            self.recovered,
            self.attempts,
            self.reexec_rounds,
            self.discarded_updates,
            self.total_updates,
            self.consistent,
            self.leaks_freed,
        )
    }
}

/// Per-re-execution restart delay used for the modelled mitigation time
/// (the paper cites 3–5 seconds; we use the midpoint).
pub const REEXEC_DELAY_SECS: f64 = 4.0;

/// Runs one mitigation over a production failure.
pub fn mitigate(
    production: &mut Production,
    scn: &dyn Scenario,
    setup: &AppSetup,
    solution: Solution,
) -> MitigationResult {
    let total_updates = production.log.total_updates();
    let items_before = production.items_before.max(1);
    // Re-executions run under production's VM options, so a restart
    // hangs exactly when production would (`HANG_STEPS` by default).
    let restart = Restart {
        module: &setup.instrumented,
        vm: production.vm,
        probe: &|vm: &mut Vm| recover_and_verify(scn, vm),
    };

    let out = match solution {
        Solution::Arthas(cfg) => {
            let mut reactor = Reactor::new(&setup.analysis, &setup.guid_map, cfg);
            if let Some(rec) = &production.recorder {
                reactor.instrument(rec.clone());
            }
            reactor.mitigate(
                &mut production.pool,
                &production.log,
                &production.failure,
                &production.trace,
                &restart,
            )
        }
        Solution::PmCriu => {
            production
                .criu
                .mitigate(&mut production.pool, &production.log, &restart)
        }
        Solution::ArCkpt(budget) => {
            ArCkpt::new(budget).mitigate(&mut production.pool, &production.log, &restart)
        }
    };

    // Recoverability criterion (b): some persistent state must remain.
    let (items_after, recovered) = if out.recovered {
        let items_after = count_on_copy(scn, setup, &production.pool);
        let some_state = if scn.is_leak() { true } else { items_after > 0 };
        (items_after, some_state)
    } else {
        (0, false)
    };

    // For leaks, recovery additionally means utilisation dropped.
    let recovered = if recovered && scn.is_leak() {
        let after = production.pool.allocated_bytes().unwrap_or(u64::MAX);
        after < production.allocated_before
    } else {
        recovered
    };

    let consistent = if recovered {
        Some(check_consistency(scn, setup, &production.pool))
    } else {
        None
    };

    let item_loss_frac = if recovered {
        1.0 - (items_after.min(items_before) as f64 / items_before as f64)
    } else {
        1.0
    };

    MitigationResult {
        id: scn.id(),
        recovered,
        attempts: out.attempts,
        reexec_rounds: out.reexec_rounds(),
        wall: out.wall,
        // One restart delay per restart paid: a skipped attempt waits for
        // none.
        modeled_secs: out.wall.as_secs_f64() + out.reexec_rounds() as f64 * REEXEC_DELAY_SECS,
        discarded_updates: out.discarded_updates,
        total_updates,
        item_loss_frac,
        consistent,
        leaks_freed: out.leaks_freed,
        mode_fellback: out.mode_fellback,
        phases: out.phases,
    }
}

/// One (scenario × solution × seed) cell: production to a detected hard
/// failure, then one mitigation — the unit `run`, `report` and the
/// `reproduce` matrix are all made of. `at_detection` sees the broken
/// system before mitigation mutates its pool and log. `None` when the
/// workload completed with no detected failure (a scenario bug in this
/// reproduction).
pub fn run_cell(
    scn: &dyn Scenario,
    setup: &AppSetup,
    solution: Solution,
    cfg: &RunConfig,
    at_detection: impl FnOnce(&Production),
) -> Option<(Production, MitigationResult)> {
    let mut production = run_production(scn, setup, cfg)?;
    at_detection(&production);
    let result = mitigate(&mut production, scn, setup, solution);
    Some((production, result))
}

fn count_on_copy(scn: &dyn Scenario, setup: &AppSetup, pool: &PmPool) -> u64 {
    match reopen(&setup.instrumented, VmOpts::default(), pool, None) {
        Ok(mut vm) => {
            let _ = vm.call(scn.recover_call(), &[]);
            scn.count_items(&mut vm)
        }
        Err(_) => 0,
    }
}

/// Post-recovery consistency validation (Table 4, §6.2): pool integrity
/// check, application recovery, an extended benign workload, and the
/// scenario's domain invariants.
pub fn check_consistency(scn: &dyn Scenario, setup: &AppSetup, pool: &PmPool) -> bool {
    let Ok(mut vm) = reopen(&setup.instrumented, VmOpts::default(), pool, None) else {
        return false;
    };
    // (1) pmempool-check analogue.
    if !vm.pool_mut().check().is_empty() {
        return false;
    }
    // (2) recovery must succeed.
    if vm.call(scn.recover_call(), &[]).is_err() {
        return false;
    }
    // (3) the scenario's verification workload (the "run for 20 minutes
    // with mixed requests" analogue).
    if scn.verify(&mut vm).is_err() {
        return false;
    }
    // (4) domain invariants.
    scn.consistency(&mut vm).is_empty()
}
