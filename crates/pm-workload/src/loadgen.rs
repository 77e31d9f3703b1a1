//! Client-side load driver for the serving front-end.
//!
//! Streams YCSB-shaped get/set traffic over N concurrent TCP
//! connections (a configurable share speaking RESP, the rest the
//! memcached text protocol — both reusing the `serve` crate's codecs
//! client-side), arms the server's configured hard fault when the
//! global op counter crosses `fault_at`, and measures what clients
//! actually observe while the detector/reactor recover the pool
//! **online**: error counts, latency percentiles inside the mitigation
//! window, and exact acked-but-lost writes via tracked sets — the
//! serving-side counterpart of the fig9 discarded-data accounting.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{Field, Json, Schema};
use serve::command::{Cmd, Parse, Reply};
use serve::{memcached, resp};

use crate::ycsb::{KvOp, KvWorkload};

/// Per-request socket timeout; a mitigation inside an `exec` call can
/// stall the engine mutex for the whole recovery, so this bounds how
/// long one client op can be held.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Cadence at which the recovery watch polls `stats` once the fault is
/// armed: `recovered_at_us` overshoots the server's own recovery by at
/// most this, plus one `stats` round trip.
pub const STATS_POLL: Duration = Duration::from_millis(20);
/// Tracked-set key namespace: far from the traffic keyspace and from
/// the server's canary/probe keys.
const TRACK_BASE: u64 = 500_000;
/// Per-connection tracked-key stride.
const TRACK_STRIDE: u64 = 10_000;

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections.
    pub conns: usize,
    /// Total ops across all connections.
    pub ops: u64,
    /// Read percentage of the YCSB mix.
    pub read_pct: u32,
    /// Percentage of connections speaking RESP (the rest memcached).
    pub resp_pct: u32,
    /// Zipfian key-space size.
    pub key_space: u64,
    /// First traffic key.
    pub key_base: u64,
    /// Workload seed.
    pub seed: u64,
    /// Zipfian skew (theta) of the traffic keys: 0 = uniform (the
    /// default), 0.99 = YCSB's adversarially hot key popularity. Must
    /// stay below 1.
    pub skew: f64,
    /// Global op index at which one connection arms the server's fault
    /// (`None` = clean run).
    pub fault_at: Option<u64>,
    /// Per-connection cadence of tracked sets (0 disables loss
    /// accounting).
    pub tracked_every: u64,
    /// How long to wait, past the end of traffic, for the server to
    /// report a completed mitigation.
    pub recovery_timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            conns: 16,
            ops: 10_000,
            read_pct: 50,
            resp_pct: 50,
            key_space: 512,
            key_base: 1_000,
            seed: 1,
            skew: 0.0,
            fault_at: None,
            tracked_every: 32,
            recovery_timeout: Duration::from_secs(60),
        }
    }
}

/// What the clients observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted.
    pub ops_attempted: u64,
    /// Requests acknowledged successfully.
    pub ops_ok: u64,
    /// `SERVER_ERROR`/`-BUSY` replies (degraded-mode rejections and
    /// post-recovery failures).
    pub server_errors: u64,
    /// `CLIENT_ERROR`/`-ERR` replies.
    pub client_errors: u64,
    /// Client-side reply-parse failures (must be zero for the codec
    /// gate).
    pub codec_errors: u64,
    /// Connection-level failures.
    pub io_errors: u64,
    /// Wall time of the traffic phase.
    pub wall: Duration,
    /// Successful ops per second over the traffic phase.
    pub throughput_ops_s: f64,
    /// Overall client-observed latency percentiles (microseconds).
    pub p50_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Worst client-observed latency, microseconds.
    pub max_us: u64,
    /// When the fault was armed (µs since the run epoch).
    pub fault_armed_at_us: Option<u64>,
    /// When the server first reported the mitigation complete (µs since
    /// the run epoch; polled every [`STATS_POLL`] from the arm on, while
    /// traffic runs, so an upper bound by one poll).
    pub recovered_at_us: Option<u64>,
    /// Whether the server reported a completed, verified mitigation.
    pub recovered: bool,
    /// p99 of ops inside the [armed, recovered] window.
    pub p99_during_mitigation_us: Option<u64>,
    /// Ops that landed inside the mitigation window.
    pub mitigation_window_ops: u64,
    /// Tracked sets acknowledged by the server.
    pub tracked_acked: u64,
    /// Acked tracked sets whose value was wrong or missing afterwards —
    /// the serving-side "requests lost" count.
    pub tracked_lost: u64,
    /// The lost tracked keys, for diagnostics.
    pub lost_keys: Vec<u64>,
    /// Final server stats snapshot (includes `discarded_updates` /
    /// `total_updates` for the fig9 comparison).
    pub final_stats: Vec<(String, String)>,
}

impl LoadReport {
    /// Convenience accessor over [`LoadReport::final_stats`].
    pub fn stat_u64(&self, name: &str) -> Option<u64> {
        self.final_stats
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.parse().ok())
    }

    /// The online-recovery gates, as the list of those that failed (empty
    /// = the run passes): the codecs held up under concurrency, an armed
    /// fault was mitigated online, the server saw no protocol error, and
    /// client-visible loss stayed inside the fig9 discarded-data
    /// accounting (tracked loss ≤ discarded updates).
    pub fn gate_failures(
        &self,
        cfg: &LoadConfig,
        server: Option<&serve::ServerReport>,
    ) -> Vec<String> {
        let mut bad = Vec::new();
        if self.codec_errors > 0 {
            bad.push(format!("{} codec errors", self.codec_errors));
        }
        if cfg.fault_at.is_some() && !self.recovered {
            bad.push("no online recovery".to_string());
        }
        if let Some(s) = server.filter(|s| s.protocol_errors > 0) {
            bad.push(format!("{} server protocol errors", s.protocol_errors));
        }
        let discarded = self.stat_u64("discarded_updates").unwrap_or(0);
        if self.tracked_lost > discarded {
            bad.push(format!(
                "tracked loss {} exceeds discarded updates {discarded}",
                self.tracked_lost
            ));
        }
        bad
    }

    /// The `serve --json` document: what the clients observed, plus
    /// the server-side fig9/replication counters when the server ran
    /// in-process. Kept next to [`load_report_schema`] so the emitted
    /// shape and the schema move in lockstep.
    pub fn to_json(&self, server: Option<&serve::ServerReport>) -> Json {
        let opt = |v: Option<u64>| v.map(Json::U64).unwrap_or(Json::Null);
        let mut pairs = vec![
            ("ops_attempted", Json::U64(self.ops_attempted)),
            ("ops_ok", Json::U64(self.ops_ok)),
            ("server_errors", Json::U64(self.server_errors)),
            ("client_errors", Json::U64(self.client_errors)),
            ("codec_errors", Json::U64(self.codec_errors)),
            ("io_errors", Json::U64(self.io_errors)),
            (
                "wall_us",
                Json::U64(self.wall.as_micros().min(u64::MAX as u128) as u64),
            ),
            ("throughput_ops_s", Json::F64(self.throughput_ops_s)),
            ("p50_us", Json::U64(self.p50_us)),
            ("p99_us", Json::U64(self.p99_us)),
            ("max_us", Json::U64(self.max_us)),
            ("fault_armed_at_us", opt(self.fault_armed_at_us)),
            ("recovered_at_us", opt(self.recovered_at_us)),
            ("recovered", Json::Bool(self.recovered)),
            (
                "p99_during_mitigation_us",
                opt(self.p99_during_mitigation_us),
            ),
            (
                "mitigation_window_ops",
                Json::U64(self.mitigation_window_ops),
            ),
            ("tracked_acked", Json::U64(self.tracked_acked)),
            ("tracked_lost", Json::U64(self.tracked_lost)),
            ("discarded_updates", opt(self.stat_u64("discarded_updates"))),
            ("total_updates", opt(self.stat_u64("total_updates"))),
            ("replicas", opt(self.stat_u64("replicas"))),
            ("failovers", opt(self.stat_u64("failovers"))),
            (
                "last_failover_wall_us",
                opt(self.stat_u64("last_failover_wall_us")),
            ),
            ("repl_lag_p99", opt(self.stat_u64("repl_lag_p99"))),
        ];
        if let Some(s) = server {
            pairs.push(("connections", Json::U64(s.connections)));
            pairs.push(("protocol_errors", Json::U64(s.protocol_errors)));
            pairs.push(("busy_rejections", Json::U64(s.busy_rejections)));
        }
        Json::obj(pairs)
    }

    /// Renders [`LoadReport::to_json`], parses it back, and validates
    /// the result against [`load_report_schema`] — the same
    /// schema-stability guard the `report` subcommand has.
    pub fn validate_rendered(
        &self,
        server: Option<&serve::ServerReport>,
    ) -> Result<(), Vec<String>> {
        let parsed = Json::parse(&self.to_json(server).render())
            .map_err(|e| vec![format!("render/parse: {e}")])?;
        obs::validate(&parsed, &load_report_schema())
    }
}

/// Schema of the `serve --json` load report. [`Schema::Obj`] members
/// are a floor: unknown additions pass, removals and type changes fail.
pub fn load_report_schema() -> Schema {
    use Schema::{Bool, Num, Obj, UInt};
    let nullable_uint = Schema::nullable(UInt);
    Obj(vec![
        Field::req("ops_attempted", UInt),
        Field::req("ops_ok", UInt),
        Field::req("server_errors", UInt),
        Field::req("client_errors", UInt),
        Field::req("codec_errors", UInt),
        Field::req("io_errors", UInt),
        Field::req("wall_us", UInt),
        Field::req("throughput_ops_s", Num),
        Field::req("p50_us", UInt),
        Field::req("p99_us", UInt),
        Field::req("max_us", UInt),
        Field::req("fault_armed_at_us", nullable_uint.clone()),
        Field::req("recovered_at_us", nullable_uint.clone()),
        Field::req("recovered", Bool),
        Field::req("p99_during_mitigation_us", nullable_uint.clone()),
        Field::req("mitigation_window_ops", UInt),
        Field::req("tracked_acked", UInt),
        Field::req("tracked_lost", UInt),
        Field::req("discarded_updates", nullable_uint.clone()),
        Field::req("total_updates", nullable_uint.clone()),
        Field::req("replicas", nullable_uint.clone()),
        Field::req("failovers", nullable_uint.clone()),
        Field::req("last_failover_wall_us", nullable_uint.clone()),
        Field::req("repl_lag_p99", nullable_uint),
        Field::opt("connections", UInt),
        Field::opt("protocol_errors", UInt),
        Field::opt("busy_rejections", UInt),
    ])
}

enum ClientError {
    Io(String),
    Codec(String),
}

/// One blocking client connection speaking either protocol.
struct Client {
    stream: TcpStream,
    resp: bool,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr, resp: bool) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            resp,
            buf: Vec::new(),
        })
    }

    fn request(&mut self, cmd: &Cmd) -> Result<Reply, ClientError> {
        let mut wire = Vec::new();
        if self.resp {
            resp::encode_cmd(cmd, &mut wire);
        } else {
            memcached::encode_cmd(cmd, &mut wire);
        }
        self.stream
            .write_all(&wire)
            .map_err(|e| ClientError::Io(format!("write: {e}")))?;
        let mut chunk = [0u8; 4096];
        loop {
            let parsed = if self.resp {
                resp::parse_reply(&self.buf)
            } else {
                memcached::parse_reply(&self.buf)
            };
            match parsed {
                Parse::Done(reply, n) => {
                    self.buf.drain(..n.min(self.buf.len()));
                    return Ok(reply);
                }
                Parse::Error(m, _) => {
                    self.buf.clear();
                    return Err(ClientError::Codec(m));
                }
                Parse::Incomplete => {}
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Io("server closed connection".into())),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(ClientError::Io(format!("read: {e}"))),
            }
        }
    }
}

/// The recovery watch thread; see [`watch_recovery`] for its result.
type Watch = JoinHandle<Result<Option<u64>, String>>;

#[derive(Default)]
struct SharedCounters {
    ops: AtomicU64,
    ok: AtomicU64,
    server_errors: AtomicU64,
    client_errors: AtomicU64,
    codec_errors: AtomicU64,
    io_errors: AtomicU64,
    fault_armed: AtomicBool,
    fault_armed_at_us: AtomicU64,
    traffic_done: AtomicBool,
    /// The recovery watch, once the arming worker has started it.
    watch: Mutex<Option<Watch>>,
}

/// One latency sample: (µs since epoch, latency µs).
type Sample = (u64, u64);

struct WorkerOut {
    samples: Vec<Sample>,
    tracked: Vec<(u64, Vec<u8>)>,
}

/// Runs the load against a serving front-end and returns what the
/// clients saw. The server is expected to be serving one of the
/// [`serve::SERVABLE`] scenarios; `fault_at` only works if the caller
/// owns the run (the armed fault is the server-configured one).
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> Result<LoadReport, String> {
    assert!(cfg.conns > 0, "need at least one connection");
    assert!(cfg.read_pct <= 100 && cfg.resp_pct <= 100);
    if let Some(at) = cfg.fault_at {
        assert!(at < cfg.ops, "fault_at must land inside the run");
    }

    let epoch = Instant::now();
    let shared = Arc::new(SharedCounters::default());
    let resp_conns = (cfg.conns * cfg.resp_pct as usize).div_ceil(100);

    let mut handles = Vec::with_capacity(cfg.conns);
    for i in 0..cfg.conns {
        let cfg = cfg.clone();
        let shared = shared.clone();
        let is_resp = i < resp_conns;
        let per = cfg.ops / cfg.conns as u64 + u64::from((i as u64) < cfg.ops % cfg.conns as u64);
        handles.push(std::thread::spawn(move || {
            worker(addr, i as u64, is_resp, per, &cfg, &shared, epoch)
        }));
    }

    let mut samples: Vec<Sample> = Vec::new();
    let mut tracked: Vec<(u64, Vec<u8>)> = Vec::new();
    for h in handles {
        match h.join() {
            Ok(out) => {
                samples.extend(out.samples);
                tracked.extend(out.tracked);
            }
            Err(_) => {
                shared.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let wall = epoch.elapsed();
    shared.traffic_done.store(true, Ordering::SeqCst);

    let mut report = LoadReport {
        ops_attempted: shared.ops.load(Ordering::Relaxed),
        ops_ok: shared.ok.load(Ordering::Relaxed),
        server_errors: shared.server_errors.load(Ordering::Relaxed),
        client_errors: shared.client_errors.load(Ordering::Relaxed),
        codec_errors: shared.codec_errors.load(Ordering::Relaxed),
        io_errors: shared.io_errors.load(Ordering::Relaxed),
        wall,
        throughput_ops_s: shared.ok.load(Ordering::Relaxed) as f64 / wall.as_secs_f64().max(1e-9),
        tracked_acked: tracked.len() as u64,
        ..LoadReport::default()
    };
    if shared.fault_armed.load(Ordering::SeqCst) {
        report.fault_armed_at_us = Some(shared.fault_armed_at_us.load(Ordering::SeqCst));
    }
    // The arming worker started the recovery watch; it has been polling
    // `stats` beside the traffic ever since.
    let watch = shared.watch.lock().expect("watch slot poisoned").take();
    if let Some(watch) = watch {
        report.recovered_at_us = watch
            .join()
            .map_err(|_| "recovery watch panicked".to_string())??;
        report.recovered = report.recovered_at_us.is_some();
    }

    // Control connection: verify tracked sets, snapshot final stats.
    let mut ctl = Client::connect(addr, false)?;

    // Loss accounting: every acked tracked set must read back exactly.
    for (key, value) in &tracked {
        let cmd = Cmd::Get {
            keys: vec![key.to_string().into_bytes()],
        };
        let ok = match ctl.request(&cmd) {
            Ok(Reply::Values { items }) => items.len() == 1 && &items[0].1 == value,
            _ => false,
        };
        if !ok {
            report.tracked_lost += 1;
            report.lost_keys.push(*key);
        }
    }

    report.final_stats = fetch_stats(&mut ctl)?;

    // Percentiles: overall and inside the mitigation window.
    let mut lats: Vec<u64> = samples.iter().map(|&(_, l)| l).collect();
    report.p50_us = percentile(&mut lats, 50);
    report.p99_us = percentile(&mut lats, 99);
    report.max_us = lats.last().copied().unwrap_or(0);
    if let Some(t0) = report.fault_armed_at_us {
        let t1 = report.recovered_at_us.unwrap_or(u64::MAX);
        let mut window: Vec<u64> = samples
            .iter()
            .filter(|&&(t, _)| t >= t0 && t <= t1)
            .map(|&(_, l)| l)
            .collect();
        report.mitigation_window_ops = window.len() as u64;
        if !window.is_empty() {
            report.p99_during_mitigation_us = Some(percentile(&mut window, 99));
        }
    }
    Ok(report)
}

/// Started when the fault is armed, so that `recovered_at_us` is when
/// the server recovered and not when the clients ran out of requests:
/// polls `stats` on a connection of its own, beside the traffic, until
/// the server reports a completed, verified mitigation, and returns when
/// that was (µs since `epoch`). `None` if the server still reports none
/// `timeout` after the traffic ended.
fn watch_recovery(
    addr: SocketAddr,
    traffic_done: &AtomicBool,
    timeout: Duration,
    epoch: Instant,
) -> Result<Option<u64>, String> {
    let mut ctl = Client::connect(addr, false)?;
    let mut deadline = None;
    loop {
        let stats = fetch_stats(&mut ctl)?;
        if stat(&stats, "mitigations_recovered").unwrap_or(0) >= 1
            && stat(&stats, "mitigating").unwrap_or(1) == 0
        {
            return Ok(Some(micros_since(epoch)));
        }
        if traffic_done.load(Ordering::SeqCst)
            && Instant::now() > *deadline.get_or_insert_with(|| Instant::now() + timeout)
        {
            return Ok(None);
        }
        std::thread::sleep(STATS_POLL);
    }
}

fn micros_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn worker(
    addr: SocketAddr,
    id: u64,
    is_resp: bool,
    ops: u64,
    cfg: &LoadConfig,
    shared: &Arc<SharedCounters>,
    epoch: Instant,
) -> WorkerOut {
    let mut out = WorkerOut {
        samples: Vec::with_capacity(ops as usize),
        tracked: Vec::new(),
    };
    let Ok(mut client) = Client::connect(addr, is_resp) else {
        shared.io_errors.fetch_add(1, Ordering::Relaxed);
        return out;
    };
    let mut workload = KvWorkload::mixed_skewed(
        cfg.key_space,
        cfg.key_base,
        cfg.read_pct,
        cfg.skew,
        cfg.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let track_base = TRACK_BASE + id * TRACK_STRIDE;
    let mut track_n = 0u64;

    for j in 0..ops {
        let global = shared.ops.fetch_add(1, Ordering::Relaxed);
        // Whichever connection crosses the threshold arms the fault —
        // mid-run, while everyone else keeps streaming.
        if let Some(at) = cfg.fault_at {
            if global >= at && !shared.fault_armed.swap(true, Ordering::SeqCst) {
                shared
                    .fault_armed_at_us
                    .store(micros_since(epoch), Ordering::SeqCst);
                match client.request(&Cmd::FaultArm) {
                    Ok(_) => {
                        let timeout = cfg.recovery_timeout;
                        let for_watch = shared.clone();
                        let watch = std::thread::spawn(move || {
                            watch_recovery(addr, &for_watch.traffic_done, timeout, epoch)
                        });
                        *shared.watch.lock().expect("watch slot poisoned") = Some(watch);
                    }
                    Err(e) => {
                        count_error(&e, shared);
                        return out;
                    }
                }
            }
        }
        let (cmd, expect_track) =
            if cfg.tracked_every > 0 && j % cfg.tracked_every == cfg.tracked_every - 1 {
                let key = track_base + track_n;
                track_n += 1;
                let fill = 1 + (track_n % 0x7E) as u8;
                let len = 8 + (track_n % 8) as usize * 8;
                (
                    Cmd::Set {
                        key: key.to_string().into_bytes(),
                        value: vec![fill; len],
                        noreply: false,
                    },
                    Some((key, vec![fill; len])),
                )
            } else {
                match workload.next() {
                    KvOp::Get(k) => (
                        Cmd::Get {
                            keys: vec![k.to_string().into_bytes()],
                        },
                        None,
                    ),
                    KvOp::Put(k, v) => {
                        let fill = (v as u8).max(1);
                        let len = 8 + (v % 8) as usize * 4;
                        (
                            Cmd::Set {
                                key: k.to_string().into_bytes(),
                                value: vec![fill; len],
                                noreply: false,
                            },
                            None,
                        )
                    }
                }
            };
        let t0 = Instant::now();
        let result = client.request(&cmd);
        let lat = micros_since(t0);
        out.samples.push((micros_since(epoch), lat));
        match result {
            Ok(reply) => match reply {
                Reply::ServerError(_) => {
                    shared.server_errors.fetch_add(1, Ordering::Relaxed);
                }
                Reply::Error(_) => {
                    shared.client_errors.fetch_add(1, Ordering::Relaxed);
                }
                other => {
                    shared.ok.fetch_add(1, Ordering::Relaxed);
                    if let Some((key, value)) = expect_track {
                        // Only count sets the server acknowledged.
                        if matches!(other, Reply::Stored | Reply::Ok) {
                            out.tracked.push((key, value));
                        }
                    }
                }
            },
            Err(e) => {
                count_error(&e, shared);
                // One reconnect attempt keeps a transient drop from
                // silencing a whole connection's worth of load.
                match Client::connect(addr, is_resp) {
                    Ok(c) => client = c,
                    Err(_) => return out,
                }
            }
        }
    }
    out
}

fn count_error(e: &ClientError, shared: &SharedCounters) {
    match e {
        ClientError::Io(_) => shared.io_errors.fetch_add(1, Ordering::Relaxed),
        ClientError::Codec(_) => shared.codec_errors.fetch_add(1, Ordering::Relaxed),
    };
}

fn fetch_stats(ctl: &mut Client) -> Result<Vec<(String, String)>, String> {
    match ctl.request(&Cmd::Stats) {
        Ok(Reply::Stats(kvs)) => Ok(kvs),
        Ok(other) => Err(format!("unexpected stats reply {other:?}")),
        Err(ClientError::Io(e)) | Err(ClientError::Codec(e)) => Err(format!("stats: {e}")),
    }
}

fn stat(kvs: &[(String, String)], name: &str) -> Option<u64> {
    kvs.iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
}

/// In-place percentile over latencies (sorts its input).
fn percentile(lats: &mut [u64], p: u32) -> u64 {
    if lats.is_empty() {
        return 0;
    }
    lats.sort_unstable();
    let idx = (p as usize * (lats.len() - 1)) / 100;
    lats[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_sane() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50), 50);
        assert_eq!(percentile(&mut v, 99), 99);
        assert_eq!(percentile(&mut v.clone()[..0].to_vec(), 99), 0);
    }

    #[test]
    fn gate_failures_names_each_broken_gate() {
        let armed = LoadConfig {
            fault_at: Some(10),
            ..LoadConfig::default()
        };
        let mut report = LoadReport {
            recovered: true,
            tracked_lost: 2,
            final_stats: vec![("discarded_updates".into(), "2".into())],
            ..LoadReport::default()
        };
        assert!(report.gate_failures(&armed, None).is_empty());

        // Loss beyond (or without) the server's discard accounting, an
        // unrecovered armed fault and a codec error each fail on their own.
        report.final_stats.clear();
        report.recovered = false;
        report.codec_errors = 1;
        assert_eq!(
            report.gate_failures(&armed, None),
            [
                "1 codec errors",
                "no online recovery",
                "tracked loss 2 exceeds discarded updates 0"
            ]
        );
        assert_eq!(
            report.gate_failures(&LoadConfig::default(), None).len(),
            2,
            "no fault armed, no recovery owed"
        );
    }

    #[test]
    fn clean_load_run_end_to_end() {
        // A small clean (no-fault) run against an in-process server:
        // every op must succeed with zero codec errors.
        let handle = serve::Server::start(
            serve::ServerConfig {
                workers: 2,
                engine: serve::EngineConfig {
                    scenario: "f4".into(),
                    ..serve::EngineConfig::default()
                },
                ..serve::ServerConfig::default()
            },
            None,
            Arc::new(obs::RingRecorder::new(4096)),
        )
        .expect("server starts");
        let cfg = LoadConfig {
            conns: 4,
            ops: 400,
            tracked_every: 16,
            ..LoadConfig::default()
        };
        let report = run_load(handle.addr(), &cfg).expect("load runs");
        assert_eq!(report.ops_attempted, 400);
        assert_eq!(report.codec_errors, 0, "{report:?}");
        assert_eq!(report.server_errors, 0, "{report:?}");
        assert_eq!(report.io_errors, 0, "{report:?}");
        assert_eq!(report.tracked_lost, 0, "{report:?}");
        assert!(report.tracked_acked > 0);
        assert!(report.ops_ok == 400, "{report:?}");
        assert!(report.stat_u64("total_updates").unwrap_or(0) > 0);
        let srv = handle.shutdown();
        assert_eq!(srv.protocol_errors, 0);
    }

    #[test]
    fn reported_outage_is_the_servers_not_the_end_of_traffic() {
        // f10 recovers in tens of milliseconds while the traffic runs on
        // for many times that: the report must carry the former.
        let recorder = Arc::new(obs::RingRecorder::new(1 << 16));
        let handle = serve::Server::start(
            serve::ServerConfig {
                workers: 2,
                engine: serve::EngineConfig {
                    scenario: "f10".into(),
                    ..serve::EngineConfig::default()
                },
                ..serve::ServerConfig::default()
            },
            None,
            recorder.clone(),
        )
        .expect("server starts");
        let cfg = LoadConfig {
            conns: 8,
            ops: 4_000,
            fault_at: Some(600),
            ..LoadConfig::default()
        };
        let report = run_load(handle.addr(), &cfg).expect("load runs");
        handle.shutdown();
        assert!(report.recovered, "{report:?}");
        let armed_at = report.fault_armed_at_us.expect("armed");
        let recovered_at = report.recovered_at_us.expect("recovered");
        let poll = STATS_POLL.as_micros() as u64;
        assert!(
            (report.wall.as_micros() as u64) > recovered_at + 3 * poll,
            "traffic must outlast the recovery for this test to tell the two apart: {report:?}"
        );

        // The server's own timeline: armed → the `serve.recovered` that
        // closes the degraded period of the successful mitigation.
        assert_eq!(recorder.dropped(), 0, "ring too small for the episode");
        let events = recorder.events();
        let t_armed = events
            .iter()
            .find(|e| e.kind == "serve.fault_armed")
            .expect("serve.fault_armed")
            .t_us;
        let t_recovered = events
            .iter()
            .skip_while(|e| {
                e.kind != "serve.mitigation_end"
                    || !e
                        .fields
                        .iter()
                        .any(|(k, v)| *k == "recovered" && matches!(v, obs::Value::Bool(true)))
            })
            .find(|e| e.kind == "serve.recovered")
            .expect("serve.recovered after a successful mitigation")
            .t_us;
        let server_gap = t_recovered - t_armed;
        let client_gap = recovered_at - armed_at;
        // The client stamps the arm before sending it and sees the
        // recovery at its next poll.
        assert!(
            client_gap >= server_gap && client_gap - server_gap <= poll + poll / 2,
            "client saw {client_gap} us, server took {server_gap} us"
        );
        assert!(report.tracked_lost <= report.stat_u64("discarded_updates").unwrap_or(0));
    }
}
