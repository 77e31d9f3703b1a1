//! Per-layer probes of the traced run: the workload's own request
//! stream, pushed through each layer's public functions by the
//! benchmark itself. Nothing inside the program is instrumented here.

use std::sync::Arc;
use std::time::Instant;

use arthas::{PmTrace, SharedLog};
use obs::RingRecorder;
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pmemsim::{PmPool, PoolGroup};
use serve::{memcached, resp, Cmd, Engine, EngineConfig, Parse};

use crate::gen::Request;
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::{median, median_u64, ms_since};

/// The serving pool's size (the engine's own constant is private).
const POOL_SIZE: u64 = pmemsim::layout::HEAP_OFF + (8 << 20);

/// Median of `reps` timings of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect();
    median(&samples)
}

fn is_set(cmd: &Cmd) -> bool {
    matches!(cmd, Cmd::Set { .. })
}

/// The in-process request path on an engine the benchmark owns: encode
/// → parse → `Engine::exec` → encode → parse, one span each, under one
/// `request` span per request. Both codecs see the same commands and
/// replies; only the memcached pass executes.
pub fn pipeline(
    scenario: &str,
    preload: &[Request],
    stream: &[Request],
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<(), String> {
    let cfg = || EngineConfig {
        scenario: scenario.into(),
        ..EngineConfig::default()
    };
    let health_every = cfg().health_every;
    let recorder = Arc::new(RingRecorder::new(1 << 12));
    let new_ms = median_ms(3, || Engine::new(cfg(), None, recorder.clone()).map(drop));
    let mut engine = Engine::new(cfg(), None, recorder)?;
    for req in preload {
        engine.exec(&req.cmd);
    }

    let mut wire = Vec::new();
    let mut requests = preload.len() as u64;
    for (id, req) in stream.iter().enumerate() {
        let id = id as u64;
        requests += 1;
        // The engine probes its health on every `health_every`-th data
        // request; those requests carry the probe's latency.
        let exec_span = match (requests.is_multiple_of(health_every), is_set(&req.cmd)) {
            (true, _) => "serve.engine.exec+health",
            (false, true) => "serve.engine.exec.set",
            (false, false) => "serve.engine.exec.get",
        };
        let open = tracer.begin("request", id);
        wire.clear();
        tracer.span("serve.codec.mc.encode_cmd", id, || {
            memcached::encode_cmd(&req.cmd, &mut wire)
        });
        let parsed = tracer.span("serve.codec.mc.parse_cmd", id, || {
            memcached::parse_cmd(&wire)
        });
        let Parse::Done(cmd, _) = parsed else {
            return Err(format!("memcached codec did not round-trip {:?}", req.cmd));
        };
        let reply = tracer.span(exec_span, id, || engine.exec(&cmd));
        wire.clear();
        tracer.span("serve.codec.mc.encode_reply", id, || {
            memcached::encode_reply(&reply, &mut wire)
        });
        let back = tracer.span("serve.codec.mc.parse_reply", id, || {
            memcached::parse_reply(&wire)
        });
        tracer.end(open);
        if !matches!(back, Parse::Done(ref r, _) if *r == reply) {
            return Err(format!("memcached reply did not round-trip: {reply:?}"));
        }

        wire.clear();
        tracer.span("serve.codec.resp.encode_cmd", id, || {
            resp::encode_cmd(&req.cmd, &mut wire)
        });
        let parsed = tracer.span("serve.codec.resp.parse_cmd", id, || resp::parse_cmd(&wire));
        if !matches!(parsed, Parse::Done(ref c, _) if *c == req.cmd) {
            return Err(format!("RESP codec did not round-trip {:?}", req.cmd));
        }
        wire.clear();
        tracer.span("serve.codec.resp.encode_reply", id, || {
            resp::encode_reply(&reply, &mut wire)
        });
        let back = tracer.span("serve.codec.resp.parse_reply", id, || {
            resp::parse_reply(&wire)
        });
        if !matches!(back, Parse::Done(..)) {
            return Err(format!("RESP reply did not parse: {reply:?}"));
        }
    }

    let selfs = tracer.self_times();
    let med = |name: &str| selfs.get(name).map_or(0.0, |v| median_u64(v));
    for (metric, a, b) in [
        (
            "serve.codec.mc_parse_ns",
            "serve.codec.mc.parse_cmd",
            "serve.codec.mc.parse_reply",
        ),
        (
            "serve.codec.mc_encode_ns",
            "serve.codec.mc.encode_cmd",
            "serve.codec.mc.encode_reply",
        ),
        (
            "serve.codec.resp_parse_ns",
            "serve.codec.resp.parse_cmd",
            "serve.codec.resp.parse_reply",
        ),
        (
            "serve.codec.resp_encode_ns",
            "serve.codec.resp.encode_cmd",
            "serve.codec.resp.encode_reply",
        ),
    ] {
        out.set(metric, med(a) + med(b));
    }
    let get_us = med("serve.engine.exec.get") / 1e3;
    let set_us = med("serve.engine.exec.set") / 1e3;
    out.set("serve.engine.get_us", get_us);
    out.set("serve.engine.set_us", set_us);
    let plain: Vec<u64> = ["serve.engine.exec.get", "serve.engine.exec.set"]
        .iter()
        .flat_map(|n| selfs.get(n).cloned().unwrap_or_default())
        .collect();
    out.set(
        "serve.engine.health_us",
        (med("serve.engine.exec+health") - median_u64(&plain)) / 1e3,
    );
    out.set("serve.engine.new_ms", new_ms);
    Ok(())
}

/// Which PM app a scenario serves, and how a request maps onto it.
#[derive(Clone, Copy, PartialEq)]
pub enum App {
    KvCache,
    SegCache,
}

impl App {
    pub fn of(scenario: &str) -> App {
        if scenario == "f10" {
            App::SegCache
        } else {
            App::KvCache
        }
    }

    fn build(self) -> Module {
        match self {
            App::KvCache => pm_apps::kvcache::build(),
            App::SegCache => pm_apps::segcache::build(),
        }
    }

    /// The VM call the engine makes for this request.
    fn call(self, vm: &mut Vm, req: &Request) -> Result<(), String> {
        let r = match (req.set, self) {
            (None, _) => vm.call("get", &[req.key]),
            (Some((fill, len)), App::KvCache) => {
                vm.call("put", &[req.key, u64::from(fill), len as u64])
            }
            (Some((fill, len)), App::SegCache) => {
                vm.call("set", &[req.key, len as u64, u64::from(fill)])
            }
        };
        r.map(drop).map_err(|e| format!("vm call failed: {e:?}"))
    }
}

/// Per-op times of one pass over the stream, split by op kind (ns).
#[derive(Default)]
struct PassTimes {
    gets: Vec<u64>,
    sets: Vec<u64>,
}

impl PassTimes {
    fn all(&self) -> Vec<u64> {
        self.gets.iter().chain(&self.sets).copied().collect()
    }
}

fn bare_vm(module: &Arc<Module>) -> Result<Vm, String> {
    let pool = PmPool::create(POOL_SIZE).map_err(|e| format!("pool create: {e}"))?;
    Ok(Vm::new(module.clone(), pool, VmOpts::default()))
}

/// One pass: preload untimed, then the stream with each call timed.
fn pass(
    app: App,
    vm: &mut Vm,
    preload: &[Request],
    stream: &[Request],
    mut after_op: impl FnMut(&mut Vm),
) -> Result<PassTimes, String> {
    for req in preload {
        app.call(vm, req)?;
        after_op(vm);
    }
    let mut times = PassTimes::default();
    for req in stream {
        let t = Instant::now();
        app.call(vm, req)?;
        let ns = t.elapsed().as_nanos() as u64;
        if req.set.is_some() {
            times.sets.push(ns);
        } else {
            times.gets.push(ns);
        }
        after_op(vm);
    }
    Ok(times)
}

/// The stack the engine builds, built by hand: VM over the app module,
/// serving-sized pool, sharded checkpoint log as the pool's sink, trace
/// absorbed after every call. What is left after the stream has run.
pub struct Stack {
    pub vm: Vm,
    pub log: SharedLog,
    /// Standby group seeded after the preload, as the engine seeds its
    /// own after the canaries; not pumped yet.
    pub group: PoolGroup,
    pub group_base: u64,
}

/// Bare `Vm::call` passes over the stream, fig12-style: vanilla module,
/// instrumented module, instrumented module with the checkpoint sink
/// and trace absorption. Differences between passes are the layers'
/// costs; counts come from the layers' own statistics.
pub fn stack(
    app: App,
    preload: &[Request],
    stream: &[Request],
    out: &mut Values,
) -> Result<Stack, String> {
    let engine_cfg = EngineConfig::default();
    let vanilla = Arc::new(app.build());
    let instrumented = Arc::new(arthas::analyze_and_instrument(&vanilla).instrumented);

    let mut vm = bare_vm(&vanilla)?;
    let plain = pass(app, &mut vm, preload, stream, |_| {})?;
    out.set("pir.vm.get_us", median_u64(&plain.gets) / 1e3);
    out.set("pir.vm.put_us", median_u64(&plain.sets) / 1e3);
    out.set("pmemsim.pool.persist_us", persist_us(vm.pool_mut())?);

    let mut vm = bare_vm(&instrumented)?;
    let traced = pass(app, &mut vm, preload, stream, |vm| drop(vm.take_trace()))?;
    out.set(
        "pir.vm.trace_emit_us",
        (median_u64(&traced.all()) - median_u64(&plain.all())) / 1e3,
    );

    let log = SharedLog::sharded(engine_cfg.log_shards);
    log.set_max_versions(engine_cfg.log_versions);
    let mut vm = bare_vm(&instrumented)?;
    vm.pool_mut().set_sink(log.as_sink());
    let mut trace = PmTrace::new();
    let mut absorb_ns = Vec::with_capacity(stream.len());
    let mut records = 0u64;
    let mut ops_since_trim = 0;
    // Preload first, so that the counters below cover the stream only.
    pass(app, &mut vm, preload, &[], |vm| {
        trace.absorb(vm.take_trace())
    })?;
    let group_base = log.view().latest_seq();
    let t = Instant::now();
    let group = PoolGroup::new(vm.pool(), 1, group_base);
    out.set("pmemsim.group.seed_ms", ms_since(t));
    let pool0 = vm.pool().stats();
    let log0 = log.stats();
    let steps0 = vm.steps_total();
    let mut steps_at = steps0;
    let mut steps = (0u64, 0u64);
    let mut kinds = stream.iter().map(|r| r.set.is_some());
    let full = pass(app, &mut vm, &[], stream, |vm| {
        let now = vm.steps_total();
        if kinds.next().expect("one kind per op") {
            steps.1 += now - steps_at;
        } else {
            steps.0 += now - steps_at;
        }
        steps_at = now;
        let t = Instant::now();
        let recs = vm.take_trace();
        records += recs.len() as u64;
        trace.absorb(recs);
        absorb_ns.push(t.elapsed().as_nanos() as u64);
        ops_since_trim += 1;
        if ops_since_trim >= 1024 {
            ops_since_trim = 0;
            trace.retain_recent(engine_cfg.trace_cap);
        }
    })?;
    let ops = stream.len().max(1) as f64;
    let pool = vm.pool().stats().delta_since(&pool0);
    let logd = log.stats();
    out.set(
        "arthas.checkpoint.append_us",
        (median_u64(&full.sets) - median_u64(&traced.sets)) / 1e3,
    );
    out.set(
        "pir.vm.steps_per_get",
        steps.0 as f64 / full.gets.len().max(1) as f64,
    );
    out.set(
        "pir.vm.steps_per_put",
        steps.1 as f64 / full.sets.len().max(1) as f64,
    );
    out.set("pmemsim.pool.persists_per_op", pool.persists as f64 / ops);
    out.set("pmemsim.pool.fences_per_op", pool.drains as f64 / ops);
    out.set(
        "arthas.checkpoint.updates_per_op",
        (logd.updates - log0.updates) as f64 / ops,
    );
    out.set(
        "arthas.checkpoint.bytes_per_op",
        (logd.bytes_logged - log0.bytes_logged) as f64 / ops,
    );
    out.set(
        "arthas.checkpoint.rotations_per_kop",
        (logd.versions_rotated - log0.versions_rotated) as f64 * 1e3 / ops,
    );
    out.set("arthas.trace.absorb_us", median_u64(&absorb_ns) / 1e3);
    out.set("arthas.trace.records_per_op", records as f64 / ops);
    let t = Instant::now();
    trace.retain_recent(engine_cfg.trace_cap);
    out.set("arthas.trace.retain_ms", ms_since(t));
    {
        let view = log.view();
        out.set(
            "arthas.checkpoint.view_ms",
            median_ms(5, || view.iter_merged().len()),
        );
        let cursor = view.latest_seq().saturating_sub(engine_cfg.standby_lag);
        out.set(
            "arthas.checkpoint.updates_since_us",
            median_ms(5, || view.updates_since(cursor).len()) * 1e3,
        );
    }
    Ok(Stack {
        vm,
        log,
        group,
        group_base,
    })
}

/// Write-and-persist of one cache line on the serving-sized pool, no
/// sink attached (µs, median).
fn persist_us(pool: &mut PmPool) -> Result<f64, String> {
    let block = pool.alloc(4096).map_err(|e| format!("alloc: {e}"))?;
    let line = [0x5Au8; 64];
    let mut ns = Vec::with_capacity(1024);
    for i in 0..1024u64 {
        let off = block + (i % 64) * 64;
        let t = Instant::now();
        pool.write(off, &line)
            .and_then(|()| pool.persist(off, 64))
            .map_err(|e| format!("persist: {e}"))?;
        ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok(median_u64(&ns) / 1e3)
}

/// What one isolated mitigation attempt, a standby re-seed or an
/// injection trial pays on the serving pool after the stream has run.
pub fn pool_and_group(stack: &mut Stack, out: &mut Values) -> Result<(), String> {
    let pool = stack.vm.pool_mut();
    out.set("pmemsim.pool.fork_ms", median_ms(5, || pool.fork()));
    out.set(
        "pmemsim.pool.snapshot_ms",
        median_ms(5, || pool.snapshot().len()),
    );
    let mut crash = Vec::new();
    let mut reabsorb = Vec::new();
    for _ in 0..5 {
        let mut fork = pool.fork();
        let t = Instant::now();
        fork.crash_and_reopen()
            .map_err(|e| format!("crash_and_reopen: {e}"))?;
        crash.push(ms_since(t));
        let mut host = pool.fork();
        let t = Instant::now();
        host.reabsorb(fork);
        reabsorb.push(ms_since(t));
    }
    out.set("pmemsim.pool.crash_reopen_ms", median(&crash));
    out.set("pmemsim.pool.reabsorb_ms", median(&reabsorb));

    let view = stack.log.view();
    let updates = view.updates_since(stack.group_base);
    let t = Instant::now();
    stack.group.pump(updates.iter().copied());
    out.set(
        "pmemsim.group.pump_us_per_update",
        ms_since(t) * 1e3 / updates.len().max(1) as f64,
    );
    let mut promote = Vec::new();
    for _ in 0..5 {
        let mut target = pool.fork();
        let t = Instant::now();
        stack
            .group
            .promote_into(0, &mut target)
            .map_err(|e| format!("promote: {e}"))?;
        promote.push(ms_since(t));
    }
    out.set("pmemsim.group.promote_ms", median(&promote));
    Ok(())
}
