//! The serving engine: one VM + checkpoint log + detector + reactor,
//! with the online-mitigation failure path.
//!
//! The engine is single-threaded (the interpreter owns the pool); the
//! server serializes requests through it behind a mutex and uses
//! [`Engine::degraded_handle`] to fast-fail requests while a recovery
//! is in flight, so connections observe bounded errors and latency
//! instead of a dead process.
//!
//! Failure path (the paper's pipeline, promoted to a live server): a VM
//! trap during an op (or a periodic health probe) opens an
//! [`arthas::Episode`], whose [`Detector`] observes it.
//!
//! 1. `FirstSighting` → in-process restart: crash the VM, reopen the
//!    pool, run the app's recovery handler. A soft fault vanishes here.
//! 2. An immediate post-restart health probe re-checks; a recurring
//!    failure is observed again → `SuspectedHard` → the episode climbs
//!    `LADDER`: promote a standby, else revert the crashed image with
//!    the [`Reactor`] until re-execution verifies, **while the server
//!    stays up**.
//! 3. After a successful mitigation the detector history is reset, so a
//!    later unrelated fault starts a fresh first-sighting cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use arthas::{
    analyze_and_instrument_cached, AnalysisCache, Detector, Episode, FailureRecord, GuidMap,
    Ladder, MitigationOutcome, PmTrace, Reactor, ReactorConfig, Restart, Rung, SharedLog, Subject,
    MAX_VERSIONS,
};
use obs::{Instrument as _, Recorder, RingRecorder};
use pir::ir::Module;
use pir::vm::{Vm, VmError, VmOpts};
use pir_analysis::ModuleAnalysis;
use pm_apps::{kvcache, segcache};
use pmemsim::{PmPool, PoolGroup};

use crate::command::{key_id, Cmd, Reply};

/// Scenario ids this front-end can serve (kvcache and segcache faults
/// whose triggers are expressible as live traffic / a pool bit flip).
pub const SERVABLE: &[&str] = &["f4", "f5", "f10"];

/// Pool size, matching the workload harness.
const POOL_SIZE: u64 = pmemsim::layout::HEAP_OFF + (8 << 20);
/// `get` miss sentinel shared by both apps.
const MISS: u64 = u64::MAX;
/// Canary key range: seeded at startup, presence-checked by the health
/// probe and by mitigation verification. Outside any sane traffic
/// keyspace; 16 consecutive keys cover every initial hash bucket.
const CANARY_LO: u64 = 900_001;
/// Exclusive upper bound of the canary range.
const CANARY_HI: u64 = 900_017;
/// Canary fill byte.
const CANARY_FILL: u64 = 0x5A;
/// Reserved key for the put/get round-trip probe during mitigation
/// verification (never served to clients by honest drivers).
const PROBE_KEY: u64 = 999_983;
/// Recovery rounds (restart → probe → escalate) before giving up and
/// serving degraded.
const MAX_RECOVERY_ROUNDS: u32 = 4;
/// The rungs a suspected hard fault climbs. Hot-standby-first bounds the
/// outage by promote latency; verification rejects a standby that already
/// replayed the fault through the stream, and then the primary image,
/// which failover left untouched, is reverted. When the previous
/// mitigation promoted a standby and a hard fault came back, the episode
/// skips failover and reverts straight away ([`Ladder::run`]): slicing
/// from the fault anchor excises the poisoned updates failover carried
/// along.
const LADDER: &[Rung] = &[Rung::Failover, Rung::Reversion];
/// Stored-value byte cap for both backends: under kvcache's
/// `DATA_CAP` (160) and segcache's 8-bit length field.
const VALUE_CAP: usize = 160;

/// Which PM app backs the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `pm_apps::kvcache` (memcached-like; get/set/delete).
    KvCache,
    /// `pm_apps::segcache` (Pelikan-like; get/set).
    SegCache,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Served scenario id (one of [`SERVABLE`]); selects the backend
    /// and the armed fault.
    pub scenario: String,
    /// VM step budget per request.
    pub step_limit: u64,
    /// Ops between health probes (0 disables; probes bound
    /// time-to-detect for faults that traffic alone may not touch).
    pub health_every: u64,
    /// Per-GUID cap on retained trace offsets
    /// ([`PmTrace::retain_recent`]).
    pub trace_cap: usize,
    /// Ignored: the checkpoint log is one store. Kept only for its one
    /// reader, the benchmark's layer probe (`hfbench/src/layers.rs`).
    #[doc(hidden)]
    pub log_shards: usize,
    /// Per-address checkpoint versions retained. Online detection lags by
    /// up to `health_every` requests, and every request in that window
    /// pushes a version onto hot addresses (item counters, bucket heads);
    /// rollback needs the pre-fault version still resident, so this must
    /// stay well above `health_every` (the offline default of 3 is far
    /// too shallow for serving).
    pub log_versions: usize,
    /// Hot-standby replicas fed from the checkpoint stream (0 disables
    /// replication and the engine is byte-identical to the single-pool
    /// path).
    pub replicas: usize,
    /// How many sequence numbers the standbys are deliberately held
    /// behind the primary's frontier. Faults like f4/f10 travel through
    /// the checkpoint stream, so a fully caught-up standby would
    /// faithfully reproduce the corruption; the lag must cover the
    /// fault-to-detection window (`health_every` ops, each generating a
    /// handful of checkpoint updates). Failover verification rejects a
    /// standby that already replayed the fault either way — the lag
    /// determines whether promotion (fast) or primary-image reversion
    /// (the fallback) ends the outage.
    pub standby_lag: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scenario: "f4".into(),
            step_limit: 2_000_000,
            health_every: 128,
            trace_cap: 8192,
            log_shards: 4,
            log_versions: 512,
            replicas: 0,
            standby_lag: 2048,
        }
    }
}

/// Counter snapshot for tests, benches and the `stats` command.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Requests executed (get/set/delete only).
    pub requests: u64,
    /// `get` commands (per key).
    pub gets: u64,
    /// `set` commands.
    pub sets: u64,
    /// `delete` commands.
    pub deletes: u64,
    /// `get` hits.
    pub hits: u64,
    /// `get` misses.
    pub misses: u64,
    /// VM failures observed (detector observations).
    pub faults: u64,
    /// In-process restarts performed.
    pub restarts: u64,
    /// Reactor mitigations attempted.
    pub mitigations: u64,
    /// Mitigations that verified recovered.
    pub mitigations_recovered: u64,
    /// Checkpoint updates discarded across all mitigations (fig9
    /// numerator).
    pub discarded_updates: u64,
    /// Checkpoint updates recorded since startup (fig9 denominator).
    pub total_updates: u64,
    /// Mitigations resolved by promoting a hot-standby replica instead
    /// of reverting the primary's own image.
    pub failovers: u64,
    /// Whether the configured fault is currently armed.
    pub armed: bool,
}

/// The single-threaded serving engine.
pub struct Engine {
    kind: BackendKind,
    scenario: String,
    instrumented: Arc<Module>,
    analysis: Arc<ModuleAnalysis>,
    guid_map: GuidMap,
    vm: Option<Vm>,
    log: SharedLog,
    trace: PmTrace,
    /// The recovery episode: the detector's history outlives each one.
    episode: Episode,
    recorder: Arc<RingRecorder>,
    cfg: EngineConfig,
    group: PoolGroup,
    degraded: Arc<AtomicBool>,
    started: Instant,
    ops_since_health: u64,
    ops_since_trim: u64,
    stats: EngineStats,
    last_mitigation: Option<MitigationOutcome>,
    last_failover_wall_us: Option<u64>,
}

impl Engine {
    /// Builds the engine: analyzer pipeline over the scenario's app,
    /// fresh pool, checkpoint log, canary seed.
    pub fn new(
        cfg: EngineConfig,
        cache: Option<&AnalysisCache>,
        recorder: Arc<RingRecorder>,
    ) -> Result<Engine, String> {
        let kind = match cfg.scenario.as_str() {
            "f4" | "f5" => BackendKind::KvCache,
            "f10" => BackendKind::SegCache,
            other => {
                return Err(format!(
                    "scenario {other:?} is not servable (choose one of {SERVABLE:?})"
                ))
            }
        };
        let module = match kind {
            BackendKind::KvCache => kvcache::build(),
            BackendKind::SegCache => segcache::build(),
        };
        let out = analyze_and_instrument_cached(&module, cache);
        let mut log = SharedLog::new();
        log.set_max_versions(cfg.log_versions.max(MAX_VERSIONS));
        let mut detector = Detector::new();
        log.instrument(recorder.clone());
        detector.instrument(recorder.clone());

        let mut pool = PmPool::create(POOL_SIZE).map_err(|e| format!("pool create: {e}"))?;
        pool.instrument(recorder.clone());
        let mut vm = Vm::new(
            Arc::new(out.instrumented),
            pool,
            VmOpts {
                step_limit: cfg.step_limit,
                ..VmOpts::default()
            },
        );
        vm.pool_mut().set_sink(log.as_sink());

        let mut engine = Engine {
            kind,
            scenario: cfg.scenario.clone(),
            instrumented: vm.module().clone(),
            analysis: out.analysis,
            guid_map: out.guid_map,
            vm: Some(vm),
            log,
            trace: PmTrace::new(),
            episode: Episode::new(detector, MAX_RECOVERY_ROUNDS, LADDER),
            recorder,
            cfg,
            group: PoolGroup::default(),
            degraded: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            ops_since_health: 0,
            ops_since_trim: 0,
            stats: EngineStats::default(),
            last_mitigation: None,
            last_failover_wall_us: None,
        };
        engine.seed_canaries()?;
        if engine.cfg.replicas > 0 {
            // The standbys start from the post-seed image; the checkpoint
            // stream carries everything after this frontier.
            let base = engine.log.view().latest_seq();
            let vm = engine.vm.as_mut().expect("vm present");
            engine.group = PoolGroup::new(vm.pool_mut(), engine.cfg.replicas, base);
        }
        engine.recorder.event("serve.start", &|| {
            vec![
                ("scenario", scenario_field(&engine.scenario)),
                ("replicas", (engine.cfg.replicas as u64).into()),
            ]
        });
        Ok(engine)
    }

    /// The flag the server polls to fast-fail requests during recovery.
    pub fn degraded_handle(&self) -> Arc<AtomicBool> {
        self.degraded.clone()
    }

    /// The backend kind.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats.clone();
        s.total_updates = self.log.total_updates();
        s
    }

    fn seed_canaries(&mut self) -> Result<(), String> {
        for k in CANARY_LO..CANARY_HI {
            let r = match self.kind {
                BackendKind::KvCache => self.raw_call("put", &[k, CANARY_FILL, 8]),
                BackendKind::SegCache => self.raw_call("set", &[k, 8, CANARY_FILL]),
            };
            r.map_err(|e| format!("canary seed: {e:?}"))?;
        }
        Ok(())
    }

    /// Executes one command. `Quit` is handled by the connection layer;
    /// here it acknowledges.
    pub fn exec(&mut self, cmd: &Cmd) -> Reply {
        match cmd {
            Cmd::Get { keys } => {
                self.stats.requests += 1;
                self.maybe_health();
                let mut items = Vec::new();
                for key in keys {
                    self.stats.gets += 1;
                    let k = key_id(key);
                    let v = match self.op("get", &[k]) {
                        Ok(v) => v,
                        Err(r) => return r,
                    };
                    match v {
                        Some(v) if v != MISS => {
                            self.stats.hits += 1;
                            let fill = (v & 0xFF) as u8;
                            let len = match self.op("value_len", &[k]) {
                                Ok(Some(n)) if n != MISS => (n as usize).min(VALUE_CAP),
                                // Raced with an eviction/delete between the
                                // two calls, or a failed call: report first8.
                                _ => 8,
                            };
                            items.push((key.clone(), vec![fill; len.max(1)]));
                        }
                        _ => self.stats.misses += 1,
                    }
                }
                Reply::Values { items }
            }
            Cmd::Set { key, value, .. } => {
                self.stats.requests += 1;
                self.stats.sets += 1;
                self.maybe_health();
                let k = key_id(key);
                // The PM apps model values as fill × len; 0xFF fills would
                // collide with the MISS sentinel on reads, so clamp.
                let fill = match value.first().copied().unwrap_or(1) {
                    0xFF => 0xFE,
                    f => f,
                };
                let len = value.len().clamp(1, VALUE_CAP) as u64;
                let r = match self.kind {
                    BackendKind::KvCache => self.op("put", &[k, u64::from(fill), len]),
                    BackendKind::SegCache => self.op("set", &[k, len, u64::from(fill)]),
                };
                match r {
                    Ok(Some(0)) => Reply::NotStored,
                    Ok(_) => Reply::Stored,
                    Err(reply) => reply,
                }
            }
            Cmd::Delete { key, .. } => {
                self.stats.requests += 1;
                self.stats.deletes += 1;
                self.maybe_health();
                match self.kind {
                    BackendKind::KvCache => {
                        let k = key_id(key);
                        match self.op("delete", &[k]) {
                            Ok(Some(1)) => Reply::Deleted,
                            Ok(_) => Reply::NotFound,
                            Err(reply) => reply,
                        }
                    }
                    // segcache has no delete; memcached semantics for an
                    // unsupported/absent key.
                    BackendKind::SegCache => Reply::NotFound,
                }
            }
            Cmd::Stats => self.stats_reply(&[]),
            Cmd::Version => Reply::Version(format!("arthas-serve/{}", self.scenario)),
            Cmd::Ping => Reply::Pong,
            Cmd::FaultArm => self.arm_fault(),
            Cmd::Quit => Reply::Ok,
        }
    }

    /// Arms the configured hard fault — the moment `pmemsim` plants the
    /// corruption while traffic keeps flowing.
    fn arm_fault(&mut self) -> Reply {
        let r = match self.scenario.as_str() {
            // f4: grow item 16's value, then the 8-bit-length append
            // overruns its chain pointer with 0x41 bytes. Later chain
            // walks in that bucket dereference the corrupt pointer.
            "f4" => self
                .raw_call("put", &[16, 1, 150])
                .and_then(|_| self.raw_call("append", &[16, 120, 0x41])),
            // f5: hardware bit flip on the persistent rehashing flag —
            // lookups consult the stale table, losing data silently.
            "f5" => {
                let vm = self.vm.as_mut().expect("vm present");
                match vm.pool_mut().root_offset() {
                    Ok(root) => {
                        let off = root + kvcache::root::REHASH as u64;
                        match vm.pool_mut().corrupt_bit(off, 0) {
                            Ok(()) => Ok(None),
                            Err(e) => return Reply::ServerError(format!("corrupt_bit: {e}")),
                        }
                    }
                    Err(e) => return Reply::ServerError(format!("pool has no root yet: {e}")),
                }
            }
            // f10: 450-byte value passes the truncated 8-bit length
            // check and overruns the item's chain pointer.
            "f10" => self.raw_call("set", &[7_777, 450, 0x6B]),
            other => return Reply::ServerError(format!("no fault script for {other}")),
        };
        match r {
            Ok(_) => {
                self.stats.armed = true;
                self.recorder.event("serve.fault_armed", &|| {
                    vec![("scenario", scenario_field(&self.scenario))]
                });
                Reply::Ok
            }
            Err(e) => Reply::ServerError(format!("fault arm failed: {e:?}")),
        }
    }

    /// One VM call with trace absorption. Does **not** run the recovery
    /// path — callers that serve traffic use [`Engine::op`].
    fn raw_call(&mut self, func: &str, args: &[u64]) -> Result<Option<u64>, VmError> {
        let vm = self.vm.as_mut().expect("vm present");
        let r = vm.call(func, args);
        self.trace.absorb(vm.drain_trace());
        self.ops_since_trim += 1;
        if self.ops_since_trim >= 1024 {
            self.ops_since_trim = 0;
            self.trace.retain_recent(self.cfg.trace_cap);
        }
        r
    }

    /// One serving op: VM call, recovery on failure, one retry.
    fn op(&mut self, func: &'static str, args: &[u64]) -> Result<Option<u64>, Reply> {
        match self.raw_call(func, args) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.recover_from(e);
                self.raw_call(func, args)
                    .map_err(|_| Reply::ServerError("operation failed after recovery".into()))
            }
        }
    }

    /// Periodic invariant/presence probe: bounds time-to-detect for
    /// faults live traffic may not touch (e.g. f5's silent data loss).
    fn maybe_health(&mut self) {
        if self.cfg.health_every == 0 {
            return;
        }
        self.ops_since_health += 1;
        if self.ops_since_health < self.cfg.health_every {
            return;
        }
        self.ops_since_health = 0;
        self.pump_replicas();
        if let Err(e) = self.health_calls() {
            self.recover_from(e);
        }
    }

    /// Ships the checkpoint stream to the standby replicas, holding
    /// every apply cursor `standby_lag` seqs behind the primary's
    /// frontier so an armed fault that traveled through the stream is
    /// not yet applied when failover needs a pre-fault image. Once a
    /// fault has been sighted the stream is quarantined — the lag only
    /// covers the window between a poisoned update and its first
    /// manifestation, so continuing to pump during the restart-and-watch
    /// window would eventually walk the horizon over the poison.
    fn pump_replicas(&mut self) {
        // While the detector holds fault history (from the first observed
        // fault until a mitigation recovers), every update since the
        // suspicious window may carry the poison: the standbys stay where
        // they are instead of receiving it.
        if self.group.is_empty() || !self.episode.detector().history().is_empty() {
            return;
        }
        let view = self.log.view();
        let latest = view.latest_seq();
        let horizon = latest.saturating_sub(self.cfg.standby_lag);
        let min_cursor = (0..self.group.n())
            .filter_map(|i| self.group.replica(i))
            .filter(|r| !r.faulted())
            .map(|r| r.cursor())
            .min()
            .unwrap_or(u64::MAX);
        if min_cursor < horizon {
            let updates = view.updates_since(min_cursor);
            self.group
                .pump(updates.into_iter().filter(|&(seq, _, _)| seq <= horizon));
        }
        for st in self.group.status(latest) {
            if !st.faulted {
                self.recorder.observe_us("serve.repl_lag", st.lag);
            }
        }
    }

    fn health_calls(&mut self) -> Result<(), VmError> {
        health_probe(self.kind, |f, a| self.raw_call(f, a))
    }

    /// The online recovery episode, opened by `first`: each round
    /// restarts in process and re-runs the health probe, mitigating on
    /// recurrence, until the probe passes or the round budget is spent.
    fn recover_from(&mut self, first: VmError) {
        self.degraded.store(true, Ordering::SeqCst);
        let t0 = Instant::now();
        let record = FailureRecord::from_vm(&first);
        // The engine is the episode's subject, so the episode steps out of
        // it while it runs; an idle one holds its place meanwhile.
        let idle = Episode::new(Detector::new(), 0, &[]);
        let mut episode = std::mem::replace(&mut self.episode, idle);
        let mut live = Live {
            engine: self,
            err: first,
            crashed: None,
        };
        let end = episode.run(Some(record), &mut live);
        self.episode = episode;
        if end.outcome.is_some() {
            self.last_mitigation = end.outcome;
        }
        self.degraded.store(false, Ordering::SeqCst);
        let wall = t0.elapsed();
        self.recorder.observe_duration("serve.degraded_us", wall);
        self.recorder.event("serve.recovered", &|| {
            vec![
                ("healthy", end.healthy.into()),
                ("wall_us", micros(wall).into()),
            ]
        });
    }

    /// Accounts a finished mitigation: counters, the `serve.failover` and
    /// `serve.mitigation_end` events.
    fn mitigated(&mut self, out: &MitigationOutcome) {
        let failed_over = out.rung == Rung::Failover && out.recovered;
        self.stats.discarded_updates += out.discarded_updates;
        let wall_us = micros(out.wall);
        if failed_over {
            self.stats.failovers += 1;
            self.recorder.event("serve.failover", &|| {
                vec![
                    ("scenario", scenario_field(&self.scenario)),
                    ("discarded_updates", out.discarded_updates.into()),
                ]
            });
            // Kept separately from `last_mitigation_wall_us`: an
            // escalated reversion may run after this failover, and
            // `stats` reports the promote wall, not whatever ran last.
            self.last_failover_wall_us = Some(wall_us);
        }
        if out.recovered {
            self.stats.mitigations_recovered += 1;
            self.stats.armed = false;
        }
        let phases = &out.phases;
        self.recorder.event("serve.mitigation_end", &|| {
            vec![
                ("recovered", out.recovered.into()),
                ("attempts", u64::from(out.attempts).into()),
                ("discarded_updates", out.discarded_updates.into()),
                ("wall_us", wall_us.into()),
                ("failed_over", failed_over.into()),
                ("slice_us", micros(phases.slice).into()),
                ("plan_us", micros(phases.plan).into()),
                ("revert_us", micros(phases.revert).into()),
                ("reexec_us", micros(phases.reexec).into()),
            ]
        });
        self.recorder.observe_us("serve.mitigation_us", wall_us);
    }

    /// In-process restart: new VM over the pool, recovery handler run.
    fn restart(&mut self, mut pool: PmPool) {
        self.stats.restarts += 1;
        pool.instrument(self.recorder.clone());
        let mut vm = Vm::new(
            self.instrumented.clone(),
            pool,
            VmOpts {
                step_limit: self.cfg.step_limit,
                ..VmOpts::default()
            },
        );
        vm.pool_mut().set_sink(self.log.as_sink());
        let recover = recover_call(self.kind);
        let recover_result = vm.call(recover, &[]);
        self.trace.absorb(vm.drain_trace());
        self.vm = Some(vm);
        self.recorder.event("serve.restart", &|| {
            vec![("recover_ok", recover_result.is_ok().into())]
        });
    }

    /// Builds the `stats` reply; the server merges its own counters in
    /// via `extra`.
    pub fn stats_reply(&mut self, extra: &[(String, String)]) -> Reply {
        let curr_items = match self.kind {
            BackendKind::KvCache => self
                .raw_call("stored_count", &[])
                .ok()
                .flatten()
                .unwrap_or(0),
            BackendKind::SegCache => {
                let vm = self.vm.as_mut().expect("vm present");
                match vm.pool_mut().root_offset() {
                    Ok(root) => vm
                        .pool_mut()
                        .read_u64(root + segcache::root::COUNT as u64)
                        .unwrap_or(0),
                    Err(_) => 0,
                }
            }
        };
        let s = self.stats();
        let mut kvs: Vec<(String, String)> = vec![
            ("version".into(), format!("arthas-serve/{}", self.scenario)),
            ("scenario".into(), self.scenario.clone()),
            (
                "backend".into(),
                match self.kind {
                    BackendKind::KvCache => "kvcache".into(),
                    BackendKind::SegCache => "segcache".into(),
                },
            ),
            (
                "uptime_us".into(),
                self.started.elapsed().as_micros().to_string(),
            ),
            ("curr_items".into(), curr_items.to_string()),
            ("cmd_requests".into(), s.requests.to_string()),
            ("cmd_get".into(), s.gets.to_string()),
            ("cmd_set".into(), s.sets.to_string()),
            ("cmd_delete".into(), s.deletes.to_string()),
            ("get_hits".into(), s.hits.to_string()),
            ("get_misses".into(), s.misses.to_string()),
            ("faults_observed".into(), s.faults.to_string()),
            ("restarts".into(), s.restarts.to_string()),
            ("mitigations".into(), s.mitigations.to_string()),
            (
                "mitigations_recovered".into(),
                s.mitigations_recovered.to_string(),
            ),
            (
                "mitigating".into(),
                u8::from(self.degraded.load(Ordering::SeqCst)).to_string(),
            ),
            ("fault_armed".into(), u8::from(s.armed).to_string()),
            ("discarded_updates".into(), s.discarded_updates.to_string()),
            ("total_updates".into(), s.total_updates.to_string()),
            ("replicas".into(), self.cfg.replicas.to_string()),
            ("failovers".into(), s.failovers.to_string()),
        ];
        if !self.group.is_empty() {
            let latest = self.log.view().latest_seq();
            for st in self.group.status(latest) {
                kvs.push((format!("replica_{}_lag", st.idx), st.lag.to_string()));
                kvs.push((
                    format!("replica_{}_faulted", st.idx),
                    u8::from(st.faulted).to_string(),
                ));
            }
        }
        if let Some(m) = &self.last_mitigation {
            kvs.push((
                "last_mitigation_recovered".into(),
                u8::from(m.recovered).to_string(),
            ));
            kvs.push(("last_mitigation_attempts".into(), m.attempts.to_string()));
            kvs.push((
                "last_mitigation_discarded".into(),
                m.discarded_updates.to_string(),
            ));
            kvs.push(("last_mitigation_wall_us".into(), micros(m.wall).to_string()));
            kvs.push((
                "last_mitigation_failed_over".into(),
                u8::from(m.rung == Rung::Failover && m.recovered).to_string(),
            ));
            for (phase, d) in [
                ("slice", m.phases.slice),
                ("plan", m.phases.plan),
                ("revert", m.phases.revert),
                ("reexec", m.phases.reexec),
            ] {
                kvs.push((format!("last_mitigation_{phase}_us"), micros(d).to_string()));
            }
        }
        if let Some(w) = self.last_failover_wall_us {
            kvs.push(("last_failover_wall_us".into(), w.to_string()));
        }
        if let Some(h) = self.recorder.histogram("serve.op_us") {
            kvs.push(("op_p50_us".into(), h.p50_us.to_string()));
            kvs.push(("op_p99_us".into(), h.p99_us.to_string()));
            kvs.push(("op_max_us".into(), h.max_us.to_string()));
        }
        // Replication-lag histogram (values are seqs behind the
        // primary's frontier, sampled at each pump).
        if let Some(h) = self.recorder.histogram("serve.repl_lag") {
            kvs.push(("repl_lag_p50".into(), h.p50_us.to_string()));
            kvs.push(("repl_lag_p99".into(), h.p99_us.to_string()));
            kvs.push(("repl_lag_max".into(), h.max_us.to_string()));
        }
        kvs.extend(extra.iter().cloned());
        Reply::Stats(kvs)
    }
}

fn recover_call(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::KvCache => "kv_recover",
        BackendKind::SegCache => "sc_recover",
    }
}

fn scenario_field(s: &str) -> obs::Value {
    obs::Value::Str(s.to_string())
}

/// `d` in whole microseconds, saturating.
fn micros(d: std::time::Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// The live engine as the subject of a recovery [`Episode`]: its watch is
/// the in-process restart plus the health probe, and its mitigations
/// verify copies of the crashed image with [`verify_restart`].
struct Live<'e> {
    engine: &'e mut Engine,
    /// The trap the current round opens on, for its `serve.fault` event.
    err: VmError,
    /// The image a mitigation left for the next restart.
    crashed: Option<PmPool>,
}

impl Live<'_> {
    /// The crashed image: the one a mitigation left, else the live VM's.
    fn crash(&mut self) -> PmPool {
        match self.crashed.take() {
            Some(pool) => pool,
            None => self.engine.vm.take().expect("vm present").crash(),
        }
    }
}

impl Subject for Live<'_> {
    fn fault(&mut self, round: u32, _: &FailureRecord) {
        let e = &mut *self.engine;
        e.stats.faults += 1;
        e.recorder.event("serve.fault", &|| {
            vec![
                ("round", u64::from(round).into()),
                ("detail", format!("{:?}", self.err).into()),
            ]
        });
    }

    fn mitigate(&mut self, ladder: Ladder<'_>) -> MitigationOutcome {
        let mut pool = self.crash();
        let e = &mut *self.engine;
        e.stats.mitigations += 1;
        e.recorder.event("serve.mitigation_begin", &|| {
            vec![("scenario", scenario_field(&e.scenario))]
        });
        let out = {
            let (kind, recorder) = (e.kind, &e.recorder);
            let probe = |vm: &mut Vm| {
                let verified = verify_restart(kind, vm);
                if let Err(f) = &verified {
                    recorder.event("serve.verify_fail", &|| {
                        vec![("detail", format!("{f:?}").into())]
                    });
                }
                verified
            };
            let restart = Restart {
                module: &e.instrumented,
                vm: VmOpts {
                    step_limit: 500_000,
                    ..VmOpts::default()
                },
                probe: &probe,
            };
            let mut reactor = Reactor::new(&e.analysis, &e.guid_map, ReactorConfig::serving());
            reactor.instrument(e.recorder.clone());
            let standbys = Some(&mut e.group);
            ladder.run(
                &mut reactor,
                &mut pool,
                &e.log,
                &e.trace,
                &restart,
                standbys,
            )
        };
        e.mitigated(&out);
        self.crashed = Some(pool);
        out
    }

    fn watch(&mut self) -> Result<(), FailureRecord> {
        let pool = self.crash();
        self.engine.restart(pool);
        // Immediate recurrence probe: a hard fault resurfaces here,
        // collapsing the paper's restart-and-watch window into the same
        // degraded period.
        self.engine.health_calls().map_err(|err| {
            let record = FailureRecord::from_vm(&err);
            self.err = err;
            record
        })
    }
}

/// The health probe's calls — the invariant check (kvcache) and the
/// canary presence check — made through `call`: the live VM's traced
/// call when probing, the restarted VM's when verifying a mitigation.
fn health_probe<E>(
    kind: BackendKind,
    mut call: impl FnMut(&str, &[u64]) -> Result<Option<u64>, E>,
) -> Result<(), E> {
    if kind == BackendKind::KvCache {
        call("check_invariant", &[])?;
    }
    call("check_keys", &[CANARY_LO, CANARY_HI])?;
    Ok(())
}

/// Mitigation verification over a restarted candidate image: recover,
/// then the [`health_probe`] and a fresh write round trip. Sharing the
/// health probe is what makes a verified mitigation stick: the server's
/// next probe re-runs the same checks.
fn verify_restart(kind: BackendKind, vm: &mut Vm) -> Result<(), FailureRecord> {
    let mut call = |f: &str, a: &[u64]| vm.call(f, a).map_err(|e| FailureRecord::from_vm(&e));
    call(recover_call(kind), &[])?;
    health_probe(kind, &mut call)?;
    let v = match kind {
        BackendKind::KvCache => {
            call("put", &[PROBE_KEY, 0x2A, 8])?;
            call("get", &[PROBE_KEY])?
        }
        BackendKind::SegCache => {
            call("set", &[PROBE_KEY, 8, 0x2A])?;
            call("get", &[PROBE_KEY])?
        }
    };
    if v != Some(u64::from_le_bytes([0x2A; 8])) {
        return Err(FailureRecord::wrong_result("probe roundtrip failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd_set(key: &[u8], value: &[u8]) -> Cmd {
        Cmd::Set {
            key: key.to_vec(),
            value: value.to_vec(),
            noreply: false,
        }
    }

    fn cmd_get(key: &[u8]) -> Cmd {
        Cmd::Get {
            keys: vec![key.to_vec()],
        }
    }

    fn engine(scenario: &str) -> Engine {
        let cfg = EngineConfig {
            scenario: scenario.into(),
            health_every: 16,
            ..EngineConfig::default()
        };
        Engine::new(cfg, None, Arc::new(RingRecorder::new(4096))).expect("engine builds")
    }

    #[test]
    fn rejects_unservable_scenarios() {
        let cfg = EngineConfig {
            scenario: "f1".into(),
            ..EngineConfig::default()
        };
        assert!(Engine::new(cfg, None, Arc::new(RingRecorder::new(16))).is_err());
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let mut e = engine("f4");
        assert_eq!(e.exec(&cmd_set(b"100", b"\x3C\x3C\x3C\x3C")), Reply::Stored);
        let r = e.exec(&cmd_get(b"100"));
        assert_eq!(
            r,
            Reply::Values {
                items: vec![(b"100".to_vec(), vec![0x3C; 4])]
            }
        );
        assert_eq!(
            e.exec(&Cmd::Delete {
                key: b"100".to_vec(),
                noreply: false
            }),
            Reply::Deleted
        );
        assert_eq!(e.exec(&cmd_get(b"100")), Reply::Values { items: vec![] });
    }

    #[test]
    fn f4_hard_fault_is_mitigated_online() {
        let mut e = engine("f4");
        // Working set.
        for i in 0u64..64 {
            let key = format!("{}", 1000 + i);
            assert_eq!(e.exec(&cmd_set(key.as_bytes(), b"\x11\x11")), Reply::Stored);
        }
        assert_eq!(e.exec(&Cmd::FaultArm), Reply::Ok);
        // Keep serving; the health probe (every 16 ops) walks the
        // corrupt chain, and recovery runs inline. Bounded errors are
        // allowed; the engine must come back.
        let mut served_after = 0u64;
        for round in 0u64..128 {
            let key = format!("{}", 1000 + (round % 64));
            match e.exec(&cmd_get(key.as_bytes())) {
                Reply::Values { .. } => {
                    if e.stats().mitigations_recovered >= 1 {
                        served_after += 1;
                    }
                }
                Reply::ServerError(_) => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
        let s = e.stats();
        assert!(s.mitigations >= 1, "reactor ran: {s:?}");
        assert_eq!(s.mitigations_recovered, s.mitigations, "recovered: {s:?}");
        assert!(served_after > 0, "served requests after mitigation");
        assert!(s.discarded_updates > 0, "reverted something: {s:?}");
        assert!(s.total_updates > s.discarded_updates);
        // Fresh write round trip post-mitigation.
        assert_eq!(e.exec(&cmd_set(b"777777", b"\x22\x22")), Reply::Stored);
        assert_eq!(
            e.exec(&cmd_get(b"777777")),
            Reply::Values {
                items: vec![(b"777777".to_vec(), vec![0x22; 2])]
            }
        );
        // Availability timeline reached the recorder.
        let kinds: Vec<&str> = e.recorder.events().iter().map(|ev| ev.kind).collect();
        assert!(kinds.contains(&"serve.fault_armed"));
        assert!(kinds.contains(&"serve.mitigation_end"));
        assert!(kinds.contains(&"serve.recovered"));
        // The outage's split is readable from `stats`: four disjoint
        // phases inside the mitigation's wall time.
        let Reply::Stats(kvs) = e.stats_reply(&[]) else {
            panic!("stats reply");
        };
        crate::stats::validate_stats(&kvs).expect("schema-valid stats");
        let stat = |name: &str| -> u64 {
            let (_, v) = kvs
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("missing stat {name}"));
            v.parse().unwrap_or_else(|_| panic!("{name} = {v:?}"))
        };
        let phases: u64 = ["slice", "plan", "revert", "reexec"]
            .iter()
            .map(|p| stat(&format!("last_mitigation_{p}_us")))
            .sum();
        assert!(stat("last_mitigation_reexec_us") > 0);
        assert!(
            phases <= stat("last_mitigation_wall_us"),
            "phases {phases} us exceed the wall"
        );
    }

    #[test]
    fn f4_hot_standby_failover_bounds_the_outage() {
        let cfg = EngineConfig {
            scenario: "f4".into(),
            health_every: 16,
            replicas: 1,
            ..EngineConfig::default()
        };
        let mut e =
            Engine::new(cfg, None, Arc::new(RingRecorder::new(4096))).expect("engine builds");
        for i in 0u64..64 {
            let key = format!("{}", 1000 + i);
            assert_eq!(e.exec(&cmd_set(key.as_bytes(), b"\x11\x11")), Reply::Stored);
        }
        assert_eq!(e.exec(&Cmd::FaultArm), Reply::Ok);
        for round in 0u64..128 {
            let key = format!("{}", 1000 + (round % 64));
            let _ = e.exec(&cmd_get(key.as_bytes()));
            if e.stats().mitigations_recovered >= 1 {
                break;
            }
        }
        let s = e.stats();
        assert!(s.mitigations >= 1, "{s:?}");
        assert!(s.mitigations_recovered >= 1, "{s:?}");
        // The standby lags behind the armed fault, so recovery comes
        // from promotion, not primary-image reversion.
        assert!(s.failovers >= 1, "failover resolved the fault: {s:?}");
        let m = e.last_mitigation.as_ref().expect("mitigation ran");
        assert!(m.rung == Rung::Failover && m.recovered, "{m:?}");
        assert!(!s.armed, "fault disarmed after recovery: {s:?}");
        // Post-failover the server keeps serving writes and reads.
        assert_eq!(e.exec(&cmd_set(b"777777", b"\x22\x22")), Reply::Stored);
        assert_eq!(
            e.exec(&cmd_get(b"777777")),
            Reply::Values {
                items: vec![(b"777777".to_vec(), vec![0x22; 2])]
            }
        );
        let kinds: Vec<&str> = e.recorder.events().iter().map(|ev| ev.kind).collect();
        assert!(kinds.contains(&"serve.failover"), "{kinds:?}");
        // Stats surface the replication counters.
        let Reply::Stats(kvs) = e.stats_reply(&[]) else {
            panic!("stats reply");
        };
        let get = |name: &str| {
            kvs.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing stat {name}"))
        };
        assert_eq!(get("replicas"), "1");
        assert!(get("failovers").parse::<u64>().unwrap() >= 1);
        assert_eq!(get("last_mitigation_failed_over"), "1");
        assert!(get("repl_lag_max").parse::<u64>().is_ok());
    }

    #[test]
    fn f10_segcache_mitigates_online() {
        let mut e = engine("f10");
        for i in 0u64..32 {
            let key = format!("{}", 2000 + i);
            assert_eq!(e.exec(&cmd_set(key.as_bytes(), b"\x44")), Reply::Stored);
        }
        assert_eq!(e.exec(&Cmd::FaultArm), Reply::Ok);
        for round in 0u64..96 {
            let key = format!("{}", 2000 + (round % 32));
            let _ = e.exec(&cmd_get(key.as_bytes()));
        }
        let s = e.stats();
        assert!(s.mitigations >= 1, "{s:?}");
        assert!(s.mitigations_recovered >= 1, "{s:?}");
        assert_eq!(e.exec(&cmd_set(b"888888", b"\x55")), Reply::Stored);
        assert_eq!(
            e.exec(&cmd_get(b"888888")),
            Reply::Values {
                items: vec![(b"888888".to_vec(), vec![0x55])]
            }
        );
    }

    #[test]
    fn f5_bitflip_detected_by_health_probe() {
        let mut e = engine("f5");
        // Build enough items to force a table expansion (the stale-table
        // bug needs one to have completed).
        for i in 0u64..100 {
            let key = format!("{i}");
            assert_eq!(e.exec(&cmd_set(key.as_bytes(), b"\x66")), Reply::Stored);
        }
        assert_eq!(e.exec(&Cmd::FaultArm), Reply::Ok);
        // Plain gets may miss silently; the canary presence probe
        // convicts the data loss.
        for round in 0u64..128 {
            let key = format!("{}", round % 100);
            let _ = e.exec(&cmd_get(key.as_bytes()));
            if e.stats().mitigations_recovered >= 1 {
                break;
            }
        }
        let s = e.stats();
        assert!(s.faults >= 1, "health probe detected the flip: {s:?}");
        assert!(s.mitigations >= 1, "{s:?}");
        assert!(s.mitigations_recovered >= 1, "{s:?}");
    }

    #[test]
    fn stats_reply_has_fig9_accounting() {
        let mut e = engine("f4");
        e.exec(&cmd_set(b"1", b"\x01"));
        let Reply::Stats(kvs) = e.stats_reply(&[("extra_key".into(), "7".into())]) else {
            panic!("stats reply");
        };
        let get = |name: &str| {
            kvs.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing stat {name}"))
        };
        assert_eq!(get("scenario"), "f4");
        assert_eq!(get("backend"), "kvcache");
        assert_eq!(get("cmd_set"), "1");
        assert_eq!(get("extra_key"), "7");
        assert_eq!(get("discarded_updates"), "0");
        assert!(get("total_updates").parse::<u64>().unwrap() > 0);
    }
}
