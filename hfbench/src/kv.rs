//! `kv-read` and `kv-write`: steady-state serving over TCP.
//!
//! One unit is a fresh in-process `serve::Server` on the kvcache engine
//! (scenario `f4`, never armed), a preload of the key space, then a
//! fixed count of requests from the seeded generator. A run repeats
//! units and reports medians over them: fixed work repeats, a duration
//! does not (the apps slow down as the checkpoint log grows).

use std::sync::Arc;
use std::time::Instant;

use obs::RingRecorder;
use serve::{EngineConfig, Server, ServerConfig, ServerHandle};

use crate::driver::{run_stream, Client, Model, StreamOut};
use crate::gen::{self, derive, Mix};
use crate::layers::{self, App};
use crate::metrics::RunResult;
use crate::run::{repeat, Budget};
use crate::span::Tracer;
use crate::stats::{median, median_u64, over, percentile, sorted};

#[derive(Debug, Clone, Copy)]
pub struct KvParams {
    pub mix: Mix,
    /// Timed requests per unit, all connections together.
    pub ops: usize,
}

pub fn params(workload: &str, scale: usize) -> KvParams {
    let (read_pct, theta) = match workload {
        "kv-read" => (95, 0.0),
        "kv-write" => (5, 0.99),
        other => panic!("not a kv workload: {other}"),
    };
    KvParams {
        mix: Mix {
            keys: 512,
            read_pct,
            theta,
        },
        ops: 2_400 / scale.min(10),
    }
}

/// Client connections; the server gets as many workers, so client and
/// server threads together fill the host's hardware threads.
pub fn connections() -> usize {
    (crate::nproc() / 2).max(1)
}

pub fn server_config(scenario: &str, workers: usize, replicas: usize) -> ServerConfig {
    ServerConfig {
        workers,
        engine: EngineConfig {
            scenario: scenario.into(),
            replicas,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A started server with its key space preloaded and one connected
/// client (with its model of the server's contents) per connection.
pub struct Served {
    pub handle: ServerHandle,
    pub recorder: Arc<RingRecorder>,
    pub clients: Vec<(Client, Model)>,
}

/// Set-up of one unit: engine and analysis build, pool create, canary
/// seed, listener, preload (through the engine, not the wire), connect.
/// Connection `i` speaks memcached text when `i` is even, RESP when odd.
pub fn serve_preloaded(
    cfg: ServerConfig,
    mix: &Mix,
    conns: usize,
    seed: u64,
) -> Result<Served, String> {
    let recorder = Arc::new(RingRecorder::new(1 << 16));
    let handle = Server::start(cfg, None, recorder.clone())?;
    let mut clients = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut model = Model::new();
        {
            let engine = handle.engine();
            let mut engine = engine.lock().map_err(|_| "engine poisoned".to_string())?;
            for req in gen::preload(mix, i as u64, conns as u64, seed) {
                match engine.exec(&req.cmd) {
                    serve::Reply::Stored => {
                        model.insert(req.key, req.set.expect("preload is sets"));
                    }
                    other => return Err(format!("preload of key {}: {other:?}", req.key)),
                }
            }
        }
        clients.push((Client::connect(handle.addr(), i % 2 == 1)?, model));
    }
    Ok(Served {
        handle,
        recorder,
        clients,
    })
}

pub struct KvUnit {
    pub setup_s: f64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed request failed.
    pub first_failure: Option<String>,
    /// Client-observed latencies of the successful requests, sorted.
    pub latencies_ns: Vec<u64>,
    pub ring_dropped: u64,
    /// The connections' spans; empty for an untraced unit.
    pub tracers: Vec<Tracer>,
}

impl KvUnit {
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.wall_s
    }
    pub fn p50_us(&self) -> f64 {
        percentile(&self.latencies_ns, 50.0) as f64 / 1e3
    }
    pub fn p99_us(&self) -> f64 {
        percentile(&self.latencies_ns, 99.0) as f64 / 1e3
    }
}

pub fn unit(p: &KvParams, seed: u64, traced: bool) -> Result<KvUnit, String> {
    let t_setup = Instant::now();
    let conns = connections();
    let served = serve_preloaded(server_config("f4", conns, 0), &p.mix, conns, seed)?;
    let streams: Vec<_> = (0..conns)
        .map(|i| gen::requests(&p.mix, p.ops / conns, i as u64, conns as u64, seed, 0, 0))
        .collect();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let recorder = &served.recorder;
    let t0 = Instant::now();
    let outs: Vec<(StreamOut, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .into_iter()
            .zip(&streams)
            .map(|((mut client, mut model), stream)| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(traced);
                    let out =
                        run_stream(&mut client, stream, &mut model, true, recorder, &mut tracer);
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let report = served.handle.shutdown();
    let attempted: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let mut failed = report.protocol_errors;
    let mut latencies = Vec::with_capacity(attempted as usize);
    let mut tracers = Vec::new();
    let mut first_failure = None;
    for (out, tracer) in outs {
        failed += out.failed();
        first_failure = first_failure.or(out.first_failure);
        latencies.extend(out.samples.iter().filter(|s| s.ok).map(|s| s.latency_ns));
        if traced {
            tracers.push(tracer);
        }
    }
    Ok(KvUnit {
        setup_s,
        wall_s,
        attempted,
        failed,
        first_failure,
        latencies_ns: sorted(latencies),
        ring_dropped: served.recorder.dropped(),
        tracers,
    })
}

fn totals(units: &[KvUnit], result: &mut RunResult) {
    for u in units {
        result.attempted += u.attempted;
        result.failed += u.failed;
        if u.failed > 0 {
            result.problems.push(format!(
                "{} of {} requests failed or the server counted protocol errors; first: {}",
                u.failed,
                u.attempted,
                u.first_failure
                    .as_deref()
                    .unwrap_or("none seen by a client")
            ));
        }
    }
}

/// The untraced run: units until the budget is spent, medians over them.
pub fn run(workload: &str, seed: u64, budget: Budget) -> Result<RunResult, String> {
    let p = params(workload, budget.scale);
    let run = repeat(
        budget.seconds,
        budget.warmup(1),
        budget.at_least(3, 2),
        |i| unit(&p, derive(seed, i), false),
    )?;
    let units = run.kept;
    let mut result = RunResult::default();
    totals(&units, &mut result);
    result
        .values
        .set("ops_per_s", over(&units, median, KvUnit::ops_per_s));
    result
        .values
        .set("response_ms", over(&units, median, |u| u.p50_us() / 1e3));
    result
        .values
        .set("setup_s", over(&units, median, |u| u.setup_s));
    result.values.set("peak_rss_mb", run.peak_rss_mb);
    Ok(result)
}

/// The traced run: TCP units with client spans on, alternating with
/// untraced ones for the tracing overhead, then the layer probes on the
/// same generated stream.
pub fn run_traced(
    workload: &str,
    seed: u64,
    budget: Budget,
    spans: &mut Vec<Tracer>,
) -> Result<RunResult, String> {
    let p = params(workload, budget.scale);
    let mut units = repeat(
        budget.seconds / 2.0,
        budget.warmup(2),
        budget.at_least(4, 2),
        |i| unit(&p, derive(seed, i / 2), i % 2 == 1),
    )?
    .kept;
    let mut result = RunResult::default();
    totals(&units, &mut result);
    let (traced, plain): (Vec<KvUnit>, Vec<KvUnit>) =
        units.drain(..).partition(|u| !u.tracers.is_empty());
    let traced_rate = over(&traced, median, KvUnit::ops_per_s);
    let plain_rate = over(&plain, median, KvUnit::ops_per_s);
    let v = &mut result.values;
    v.set("bench.trace_overhead_frac", 1.0 - traced_rate / plain_rate);
    v.set("client.p99_us", over(&plain, median, KvUnit::p99_us));
    v.set(
        "obs.ring.dropped",
        traced
            .iter()
            .chain(&plain)
            .map(|u| u.ring_dropped)
            .sum::<u64>() as f64,
    );
    spans.extend(traced.into_iter().flat_map(|u| u.tracers));

    let preload = gen::preload(&p.mix, 0, 1, seed);
    let stream = gen::requests(&p.mix, p.ops, 0, 1, seed, 0, 0);
    let mut tracer = Tracer::new(true);
    layers::pipeline("f4", &preload, &stream, &mut tracer, v)?;
    let in_process_p50 = median_u64(&tracer.durations("request")) / 1e3;
    v.set(
        "serve.server.transport_us",
        over(&plain, median, KvUnit::p50_us) - in_process_p50,
    );
    spans.push(tracer);
    layers::stack(App::KvCache, &preload, &stream, v)?;
    Ok(result)
}
