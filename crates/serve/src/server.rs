//! The TCP runtime: listener + worker threads, per-connection protocol
//! autodetection, and the degraded-mode fast path.
//!
//! Non-blocking and readiness-driven: the listener round-robins
//! accepted sockets over worker threads; each worker blocks in one
//! `poll(2)` (the private `sys` module, the crate's only FFI) over its
//! connections plus a wake channel, and serves whichever are ready
//! (read → parse → engine → buffered write). Nothing sleeps or spins.
//! The engine is single-threaded behind a mutex — the interpreter owns
//! the pool — so worker count buys connection fan-in and codec work,
//! not VM parallelism. While a recovery runs inside an `exec` call,
//! other workers fast-fail data ops via the engine's degraded flag
//! instead of queueing on the mutex, which is what bounds
//! client-visible latency during mitigation.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arthas::AnalysisCache;
use obs::{Recorder, RingRecorder};

use crate::command::{Cmd, Parse, Reply};
use crate::engine::{Engine, EngineConfig};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::{memcached, resp};

/// Receive-buffer cap per connection; a peer that exceeds it without
/// forming a command is dropped.
const MAX_INBUF: usize = 64 * 1024;
/// How long the listener stays away from `accept` after it failed for
/// want of descriptors or memory: the socket stays readable, so going
/// straight back to the readiness wait would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads (connection fan-in, not VM parallelism).
    pub workers: usize,
    /// Engine configuration.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            engine: EngineConfig::default(),
        }
    }
}

/// Shutdown report.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// Connections accepted.
    pub connections: u64,
    /// Malformed commands observed (codec-level).
    pub protocol_errors: u64,
    /// Data ops fast-failed while a mitigation was in flight.
    pub busy_rejections: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    protocol_errors: AtomicU64,
    busy_rejections: AtomicU64,
}

/// Namespace for [`Server::start`].
pub struct Server;

/// A running server. [`ServerHandle::shutdown`] stops and joins the
/// threads; dropping the handle stops them without waiting.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Write end of every thread's wake channel.
    wakers: Vec<UnixStream>,
    engine: Arc<Mutex<Engine>>,
    counters: Arc<Counters>,
}

/// A thread's wake channel as `(write end, read end)`. A byte written
/// to the first makes the second readable, which ends the thread's
/// `poll`; both ends are non-blocking.
fn wake_channel() -> io::Result<(UnixStream, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

fn wake(mut tx: &UnixStream) {
    // A full channel already holds a wake the thread has not consumed,
    // and a closed one means the thread is gone: neither is an error.
    let _ = tx.write(&[1]);
}

impl Server {
    /// Builds the engine and spawns the listener + worker threads.
    pub fn start(
        cfg: ServerConfig,
        cache: Option<&AnalysisCache>,
        recorder: Arc<RingRecorder>,
    ) -> Result<ServerHandle, String> {
        let engine = Engine::new(cfg.engine.clone(), cache, recorder.clone())?;
        let degraded = engine.degraded_handle();
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;

        let workers = cfg.workers.max(1);
        // Built first, so that a failure below drops it and thereby
        // stops the threads already running.
        let mut handle = ServerHandle {
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::with_capacity(workers + 1),
            wakers: Vec::with_capacity(workers + 1),
            engine: Arc::new(Mutex::new(engine)),
            counters: Arc::new(Counters::default()),
        };
        let wake_err = |e| format!("wake channel: {e}");
        let mut handoff: Vec<(Sender<TcpStream>, UnixStream)> = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = channel();
            let (wake_tx, wake_rx) = wake_channel().map_err(wake_err)?;
            handoff.push((tx, wake_tx.try_clone().map_err(wake_err)?));
            handle.wakers.push(wake_tx);
            let ctx = WorkerCtx {
                rx,
                wake: wake_rx,
                engine: handle.engine.clone(),
                degraded: degraded.clone(),
                stop: handle.stop.clone(),
                counters: handle.counters.clone(),
                recorder: recorder.clone(),
            };
            handle.threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(ctx))
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }
        {
            let (wake_tx, wake_rx) = wake_channel().map_err(wake_err)?;
            handle.wakers.push(wake_tx);
            let stop = handle.stop.clone();
            let counters = handle.counters.clone();
            handle.threads.push(
                std::thread::Builder::new()
                    .name("serve-listener".into())
                    .spawn(move || listener_loop(listener, wake_rx, handoff, stop, counters))
                    .map_err(|e| format!("spawn listener: {e}"))?,
            );
        }
        Ok(handle)
    }
}

impl ServerHandle {
    /// The bound address (resolved port when binding to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine, for in-process drivers and stats scraping.
    pub fn engine(&self) -> Arc<Mutex<Engine>> {
        self.engine.clone()
    }

    /// Stops the threads and returns the runtime counters.
    pub fn shutdown(mut self) -> ServerReport {
        self.signal_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        ServerReport {
            connections: self.counters.connections.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            busy_rejections: self.counters.busy_rejections.load(Ordering::Relaxed),
        }
    }

    /// Sets `stop`, then ends every thread's readiness wait so it sees it.
    fn signal_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wakers.iter().for_each(wake);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.signal_stop();
    }
}

fn listener_loop(
    listener: TcpListener,
    wake_rx: UnixStream,
    workers: Vec<(Sender<TcpStream>, UnixStream)>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let mut next = 0usize;
    loop {
        let mut fds = [
            PollFd::new(&wake_rx, POLLIN),
            PollFd::new(&listener, POLLIN),
        ];
        sys::wait(&mut fds, None).expect("poll(2) on the listener's own descriptors");
        // Only `signal_stop` writes to the listener's wake channel.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    // Round-robin; a send only fails if the worker died, in
                    // which case the connection is dropped.
                    let (tx, worker_wake) = &workers[next % workers.len()];
                    let _ = tx.send(stream);
                    wake(worker_wake);
                    next = next.wrapping_add(1);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => {
                    let _ = sys::wait(&mut fds[..1], Some(ACCEPT_BACKOFF));
                    break;
                }
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Memcached,
    Resp,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    proto: Option<Proto>,
    closing: bool,
}

impl Conn {
    /// What the worker's `poll` waits for on this connection: input
    /// unless it is closing, and room to write only while a reply is
    /// still buffered (a writable socket with nothing to write would
    /// end every wait at once).
    fn interest(&self) -> i16 {
        let read = if self.closing { 0 } else { POLLIN };
        let write = if self.outbuf.is_empty() { 0 } else { POLLOUT };
        read | write
    }
}

struct WorkerCtx {
    rx: Receiver<TcpStream>,
    /// Read end of this worker's wake channel.
    wake: UnixStream,
    engine: Arc<Mutex<Engine>>,
    degraded: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    recorder: Arc<RingRecorder>,
}

fn worker_loop(ctx: WorkerCtx) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        fds.clear();
        fds.push(PollFd::new(&ctx.wake, POLLIN));
        fds.extend(conns.iter().map(|c| PollFd::new(&c.stream, c.interest())));
        sys::wait(&mut fds, None).expect("poll(2) on the worker's own descriptors");
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        ctx.recorder.add("serve.worker.wakeups", 1);
        let mut progressed = false;
        let mut ready = fds[1..].iter().map(PollFd::ready);
        conns.retain_mut(|conn| {
            if !ready.next().expect("one pollfd per connection") {
                return true;
            }
            match poll_conn(conn, &ctx, &mut scratch) {
                PollOutcome::Idle => true,
                PollOutcome::Progress => {
                    progressed = true;
                    true
                }
                PollOutcome::Close => {
                    progressed = true;
                    false
                }
            }
        });
        if fds[0].ready() {
            // Empty the channel before the queue: a hand-over that lands
            // in between leaves a byte behind and costs one extra wake-up,
            // never a socket that waits in the queue unnoticed.
            while matches!((&ctx.wake).read(&mut scratch), Ok(n) if n > 0) {}
            // `signal_stop` sets `stop` before it writes its byte: if that
            // byte was just drained along with a hand-over's, this is the
            // last chance to see the flag before blocking again.
            if ctx.stop.load(Ordering::SeqCst) {
                return;
            }
            loop {
                match ctx.rx.try_recv() {
                    Ok(stream) => {
                        conns.push(Conn {
                            stream,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            proto: None,
                            closing: false,
                        });
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
        }
        if !progressed {
            ctx.recorder.add("serve.worker.spurious_wakeups", 1);
        }
    }
}

enum PollOutcome {
    Idle,
    Progress,
    Close,
}

fn poll_conn(conn: &mut Conn, ctx: &WorkerCtx, scratch: &mut [u8]) -> PollOutcome {
    let mut progressed = false;
    // Drain pending output first so a slow reader cannot stall parsing.
    match flush_out(conn) {
        Ok(wrote) => progressed |= wrote,
        Err(()) => return PollOutcome::Close,
    }
    if conn.closing {
        return if conn.outbuf.is_empty() {
            PollOutcome::Close
        } else {
            PollOutcome::Progress
        };
    }
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return PollOutcome::Close,
            Ok(n) => {
                conn.inbuf.extend_from_slice(&scratch[..n]);
                progressed = true;
                // Past the cap the parser runs before more is read; what
                // stays in the socket ends the next `poll` at once.
                if n < scratch.len() || conn.inbuf.len() > MAX_INBUF {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return PollOutcome::Close,
        }
    }
    if conn.proto.is_none() {
        if let Some(&b) = conn.inbuf.first() {
            conn.proto = Some(if b == b'*' || b == b'$' || b == b'+' {
                Proto::Resp
            } else {
                Proto::Memcached
            });
        }
    }
    let Some(proto) = conn.proto else {
        return if progressed {
            PollOutcome::Progress
        } else {
            PollOutcome::Idle
        };
    };
    // Parse-and-serve loop: consumes every complete pipelined command,
    // advancing a cursor so the buffer is compacted once, not per command.
    let mut consumed = 0usize;
    loop {
        let rest = &conn.inbuf[consumed..];
        let parsed = match proto {
            Proto::Memcached => memcached::parse_cmd(rest),
            Proto::Resp => resp::parse_cmd(rest),
        };
        match parsed {
            Parse::Incomplete => break,
            Parse::Error(msg, n) => {
                ctx.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    return PollOutcome::Close;
                }
                consumed += n.min(rest.len());
                encode(proto, &Reply::Error(msg), &mut conn.outbuf);
                progressed = true;
            }
            Parse::Done(cmd, n) => {
                consumed += n.min(rest.len());
                progressed = true;
                let quit = matches!(cmd, Cmd::Quit);
                let suppress = matches!(
                    &cmd,
                    Cmd::Set { noreply: true, .. } | Cmd::Delete { noreply: true, .. }
                );
                let reply = serve_cmd(&cmd, ctx);
                if quit {
                    // memcached `quit` closes silently; RESP replies +OK.
                    if proto == Proto::Resp {
                        encode(proto, &reply, &mut conn.outbuf);
                    }
                    conn.closing = true;
                    break;
                }
                if !suppress {
                    encode(proto, &reply, &mut conn.outbuf);
                }
            }
        }
    }
    conn.inbuf.drain(..consumed);
    if conn.inbuf.len() > MAX_INBUF {
        return PollOutcome::Close;
    }
    match flush_out(conn) {
        Ok(wrote) => progressed |= wrote,
        Err(()) => return PollOutcome::Close,
    }
    if conn.closing && conn.outbuf.is_empty() {
        return PollOutcome::Close;
    }
    if progressed {
        PollOutcome::Progress
    } else {
        PollOutcome::Idle
    }
}

/// Executes one command against the shared engine, with the
/// degraded-mode fast path for data ops.
fn serve_cmd(cmd: &Cmd, ctx: &WorkerCtx) -> Reply {
    let is_data = matches!(cmd, Cmd::Get { .. } | Cmd::Set { .. } | Cmd::Delete { .. });
    if is_data && ctx.degraded.load(Ordering::SeqCst) {
        ctx.counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
        return Reply::ServerError("mitigation in progress".into());
    }
    let extra = matches!(cmd, Cmd::Stats).then(|| server_stats(ctx));
    let t0 = Instant::now();
    let mut engine = ctx.engine.lock().expect("engine poisoned");
    let lock_wait = t0.elapsed();
    let reply = match &extra {
        Some(extra) => engine.stats_reply(extra),
        None => engine.exec(cmd),
    };
    drop(engine);
    ctx.recorder
        .observe_duration("serve.lock_wait_us", lock_wait);
    if is_data {
        ctx.recorder.observe_duration("serve.op_us", t0.elapsed());
    }
    reply
}

/// The server layer's own lines of a `stats` reply.
fn server_stats(ctx: &WorkerCtx) -> Vec<(String, String)> {
    let counters = &ctx.counters;
    let mut kvs: Vec<(String, String)> = [
        ("connections", counters.connections.load(Ordering::Relaxed)),
        (
            "protocol_errors",
            counters.protocol_errors.load(Ordering::Relaxed),
        ),
        (
            "busy_rejections",
            counters.busy_rejections.load(Ordering::Relaxed),
        ),
        (
            "worker_wakeups",
            ctx.recorder.counter("serve.worker.wakeups"),
        ),
        (
            "worker_spurious_wakeups",
            ctx.recorder.counter("serve.worker.spurious_wakeups"),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    // Command parsed → engine mutex held: the share of a request spent
    // queueing behind other workers (or behind a mitigation).
    if let Some(h) = ctx.recorder.histogram("serve.lock_wait_us") {
        kvs.push(("lock_wait_p50_us".into(), h.p50_us.to_string()));
        kvs.push(("lock_wait_p99_us".into(), h.p99_us.to_string()));
    }
    kvs
}

fn encode(proto: Proto, reply: &Reply, out: &mut Vec<u8>) {
    match proto {
        Proto::Memcached => memcached::encode_reply(reply, out),
        Proto::Resp => resp::encode_reply(reply, out),
    }
}

/// Non-blocking buffered write; `Ok(true)` when bytes moved.
fn flush_out(conn: &mut Conn) -> Result<bool, ()> {
    if conn.outbuf.is_empty() {
        return Ok(false);
    }
    let mut written = 0usize;
    loop {
        match conn.stream.write(&conn.outbuf[written..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                written += n;
                if written == conn.outbuf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    conn.outbuf.drain(..written);
    Ok(written > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(scenario: &str) -> ServerHandle {
        start_workers(scenario, 2).0
    }

    fn start_workers(scenario: &str, workers: usize) -> (ServerHandle, Arc<RingRecorder>) {
        let cfg = ServerConfig {
            workers,
            engine: EngineConfig {
                scenario: scenario.into(),
                health_every: 32,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        };
        let recorder = Arc::new(RingRecorder::new(4096));
        let handle = Server::start(cfg, None, recorder.clone()).expect("server starts");
        (handle, recorder)
    }

    /// A blocking client whose reads give up after ten seconds.
    fn connect(h: &ServerHandle) -> TcpStream {
        let c = TcpStream::connect(h.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.set_nodelay(true).unwrap();
        c
    }

    /// One request on a blocking client; returns the reply up to and
    /// including `until`.
    fn roundtrip(c: &mut TcpStream, req: &[u8], until: &[u8]) -> Vec<u8> {
        c.write_all(req).unwrap();
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        while !got.ends_with(until) {
            match c.read(&mut chunk).expect("reply before the read timeout") {
                0 => panic!("closed after {:?}", String::from_utf8_lossy(&got)),
                n => got.extend_from_slice(&chunk[..n]),
            }
        }
        got
    }

    /// The `STAT` lines of a memcached `stats` reply.
    fn stats(c: &mut TcpStream) -> Vec<(String, String)> {
        let reply = roundtrip(c, b"stats\r\n", b"END\r\n");
        String::from_utf8_lossy(&reply)
            .lines()
            .filter_map(|l| l.strip_prefix("STAT ")?.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn stat(c: &mut TcpStream, name: &str) -> u64 {
        let kvs = stats(c);
        let (_, v) = kvs
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("no stat {name} in {kvs:?}"));
        v.parse().expect("numeric stat")
    }

    /// Reads until the peer closes (or resets) the connection.
    fn read_to_close(c: &mut TcpStream) -> Vec<u8> {
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match c.read(&mut chunk) {
                Ok(0) => return got,
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::ConnectionReset => return got,
                Err(e) => panic!("peer never closed: {e}"),
            }
        }
    }

    #[test]
    fn memcached_roundtrip_over_tcp() {
        let h = start("f4");
        let mut c = connect(&h);
        let r = roundtrip(
            &mut c,
            b"set 42 0 0 4\r\n\x21\x21\x21\x21\r\n",
            b"STORED\r\n",
        );
        assert_eq!(r, b"STORED\r\n");
        let r = roundtrip(&mut c, b"get 42\r\n", b"END\r\n");
        assert_eq!(r, b"VALUE 42 0 4\r\n\x21\x21\x21\x21\r\nEND\r\n");
        let r = roundtrip(&mut c, b"delete 42\r\n", b"DELETED\r\n");
        assert_eq!(r, b"DELETED\r\n");
        let report = h.shutdown();
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.connections, 1);
    }

    #[test]
    fn resp_roundtrip_over_tcp() {
        let h = start("f4");
        let mut c = connect(&h);
        let set = b"*3\r\n$3\r\nSET\r\n$2\r\n77\r\n$3\r\n\x31\x31\x31\r\n";
        assert_eq!(roundtrip(&mut c, set, b"+OK\r\n"), b"+OK\r\n");
        let get = b"*2\r\n$3\r\nGET\r\n$2\r\n77\r\n";
        assert_eq!(roundtrip(&mut c, get, b"111\r\n"), b"$3\r\n111\r\n");
        let ping = b"*1\r\n$4\r\nPING\r\n";
        assert_eq!(roundtrip(&mut c, ping, b"+PONG\r\n"), b"+PONG\r\n");
        h.shutdown();
    }

    #[test]
    fn pipelined_and_torn_commands() {
        let h = start("f4");
        let mut c = connect(&h);
        // Two pipelined sets in one write.
        let two = b"set 1 0 0 1\r\nA\r\nset 2 0 0 1\r\nB\r\n";
        let r = roundtrip(&mut c, two, b"STORED\r\nSTORED\r\n");
        assert_eq!(r, b"STORED\r\nSTORED\r\n");
        // A get torn across two writes.
        c.write_all(b"get ").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let r = roundtrip(&mut c, b"1 2\r\n", b"END\r\n");
        assert_eq!(r, b"VALUE 1 0 1\r\nA\r\nVALUE 2 0 1\r\nB\r\nEND\r\n");
        let report = h.shutdown();
        assert_eq!(report.protocol_errors, 0);
    }

    #[test]
    fn protocol_errors_are_reported_not_fatal() {
        let h = start("f4");
        let mut c = connect(&h);
        let r = roundtrip(&mut c, b"frobnicate now\r\n", b"\r\n");
        assert!(
            r.starts_with(b"CLIENT_ERROR"),
            "{:?}",
            String::from_utf8_lossy(&r)
        );
        // The connection still works afterwards.
        let r = roundtrip(&mut c, b"ping\r\n", b"PONG\r\n");
        assert_eq!(r, b"PONG\r\n");
        let report = h.shutdown();
        assert_eq!(report.protocol_errors, 1);
    }

    #[test]
    fn stats_include_server_counters() {
        let h = start("f4");
        let mut c = connect(&h);
        roundtrip(&mut c, b"get 1\r\n", b"END\r\n");
        let kvs = stats(&mut c);
        crate::validate_stats(&kvs).expect("wire stats match the schema");
        for name in [
            "connections",
            "busy_rejections",
            "worker_wakeups",
            "worker_spurious_wakeups",
            "lock_wait_p50_us",
            "lock_wait_p99_us",
        ] {
            let v = kvs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            assert!(
                v.is_some_and(|v| v.parse::<u64>().is_ok()),
                "{name}: {kvs:?}"
            );
        }
        h.shutdown();
    }

    #[test]
    fn quit_closes_the_connection() {
        let h = start("f4");
        let mut c = connect(&h);
        c.write_all(b"quit\r\n").unwrap();
        assert!(read_to_close(&mut c).is_empty());
        h.shutdown();
    }

    #[test]
    fn ten_thousand_pipelined_gets_reply_in_order() {
        let h = start("f4");
        let mut c = connect(&h);
        let value = |k: usize| vec![b'a' + k as u8; k + 1];
        for k in 0..10 {
            let mut set = format!("set {k} 0 0 {}\r\n", k + 1).into_bytes();
            set.extend_from_slice(&value(k));
            set.extend_from_slice(b"\r\n");
            assert_eq!(roundtrip(&mut c, &set, b"\r\n"), b"STORED\r\n");
        }
        // 78 890 bytes in one write: deeper than MAX_INBUF, and every
        // byte of it forms a command.
        let mut pipeline = Vec::new();
        let mut expected = Vec::new();
        for i in 0..10_000usize {
            let k = (i * 7) % 10;
            pipeline.extend_from_slice(format!("get {k}\r\n").as_bytes());
            expected.extend_from_slice(format!("VALUE {k} 0 {}\r\n", k + 1).as_bytes());
            expected.extend_from_slice(&value(k));
            expected.extend_from_slice(b"\r\nEND\r\n");
        }
        assert!(pipeline.len() > MAX_INBUF);
        c.write_all(&pipeline).unwrap();
        let mut got = vec![0u8; expected.len()];
        c.read_exact(&mut got).expect("10 000 replies");
        assert!(got == expected, "replies out of order or damaged");
        let report = h.shutdown();
        assert_eq!(report.protocol_errors, 0);
    }

    #[test]
    fn idle_connections_cost_no_wakeups() {
        let h = start("f4");
        let mut conns: Vec<TcpStream> = (0..4).map(|_| connect(&h)).collect();
        for c in &mut conns {
            assert_eq!(roundtrip(c, b"ping\r\n", b"\r\n"), b"PONG\r\n");
        }
        let before = stat(&mut conns[0], "worker_wakeups");
        std::thread::sleep(Duration::from_millis(300));
        // The second `stats` request is itself one wake-up.
        let delta = stat(&mut conns[0], "worker_wakeups") - before;
        assert!(delta <= 4, "{delta} wake-ups over 300 idle ms");
        h.shutdown();
    }

    #[test]
    fn shutdown_and_drop_stop_every_thread_despite_idle_connections() {
        let h = start("f4");
        let mut idle: Vec<TcpStream> = (0..4).map(|_| connect(&h)).collect();
        assert_eq!(roundtrip(&mut idle[3], b"ping\r\n", b"\r\n"), b"PONG\r\n");
        let t0 = Instant::now();
        let report = h.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(report.connections, 4);

        // Dropped without `shutdown`: the workers exit and close their
        // connections, the listener exits and closes the port.
        let h = start("f4");
        let addr = h.addr();
        let mut c = connect(&h);
        assert_eq!(roundtrip(&mut c, b"ping\r\n", b"\r\n"), b"PONG\r\n");
        drop(h);
        assert!(read_to_close(&mut c).is_empty());
        let deadline = Instant::now() + Duration::from_secs(10);
        while TcpStream::connect(addr).is_ok() {
            assert!(Instant::now() < deadline, "listener survived the drop");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn handed_over_socket_wakes_a_blocked_worker() {
        let (h, _) = start_workers("f4", 1);
        let mut a = connect(&h);
        assert_eq!(roundtrip(&mut a, b"ping\r\n", b"\r\n"), b"PONG\r\n");
        // The only worker now blocks on `a`; nothing but the listener's
        // wake can make it look at its queue.
        let t0 = Instant::now();
        let mut b = connect(&h);
        assert_eq!(roundtrip(&mut b, b"ping\r\n", b"\r\n"), b"PONG\r\n");
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "{:?}",
            t0.elapsed()
        );
        h.shutdown();
    }

    #[test]
    fn slow_reader_neither_starves_others_nor_spins_the_worker() {
        let (h, recorder) = start_workers("f4", 1);
        let mut a = connect(&h);
        let mut b = connect(&h);
        // Three 250-byte keys with 160-byte values: a seven-key `get`
        // fits one protocol line and draws a 2 980-byte reply.
        let keys: Vec<Vec<u8>> = (0..3u8).map(|k| vec![b'k' + k; 250]).collect();
        let value = |k: usize| vec![b'A' + k as u8; 160];
        for (k, key) in keys.iter().enumerate() {
            let mut set = b"set ".to_vec();
            set.extend_from_slice(key);
            set.extend_from_slice(b" 0 0 160\r\n");
            set.extend_from_slice(&value(k));
            set.extend_from_slice(b"\r\n");
            assert_eq!(roundtrip(&mut b, &set, b"\r\n"), b"STORED\r\n");
        }
        // 8 MiB of replies, twice what a loopback socket pair buffers
        // (tcp_wmem's 4 MiB ceiling plus an unread receive window), so
        // the server ends up holding output it cannot write.
        const COMMANDS: usize = 2_816;
        let gets_before = stat(&mut b, "cmd_get");
        let mut expected = Vec::new();
        for i in 0..COMMANDS {
            let k = i % 3;
            let mut cmd = b"get".to_vec();
            for _ in 0..7 {
                cmd.push(b' ');
                cmd.extend_from_slice(&keys[k]);
                expected.extend_from_slice(b"VALUE ");
                expected.extend_from_slice(&keys[k]);
                expected.extend_from_slice(b" 0 160\r\n");
                expected.extend_from_slice(&value(k));
                expected.extend_from_slice(b"\r\n");
            }
            cmd.extend_from_slice(b"\r\n");
            expected.extend_from_slice(b"END\r\n");
            a.write_all(&cmd).unwrap();
        }
        assert!(expected.len() >= 8 << 20);
        // `b` shares the worker with `a` and still round-trips, here
        // until the server has executed everything `a` sent.
        let deadline = Instant::now() + Duration::from_secs(120);
        while stat(&mut b, "cmd_get") < gets_before + 7 * COMMANDS as u64 {
            assert!(
                Instant::now() < deadline,
                "worker stuck behind the slow reader"
            );
        }
        // Stalled: `a` is neither reading nor writing, and the worker must
        // sit in `poll`, not return from it over and over because `a`'s
        // socket is unwritable or because some socket is writable.
        let wakeups = recorder.counter("serve.worker.wakeups");
        std::thread::sleep(Duration::from_millis(200));
        assert!(recorder.counter("serve.worker.wakeups") - wakeups <= 4);
        assert!(recorder.counter("serve.worker.spurious_wakeups") <= 16);
        // Once `a` reads, every reply arrives, in order.
        let mut got = vec![0u8; expected.len()];
        a.read_exact(&mut got).expect("every buffered reply");
        assert!(got == expected, "replies out of order or damaged");
        let report = h.shutdown();
        assert_eq!(report.protocol_errors, 0);
    }

    #[test]
    fn oversized_incomplete_command_is_dropped() {
        let h = start("f4");
        let mut c = connect(&h);
        // A 64-element array whose elements never all arrive: nine 8 KiB
        // bulk strings are past MAX_INBUF and still no command.
        let mut req = b"*64\r\n".to_vec();
        for _ in 0..9 {
            req.extend_from_slice(b"$8192\r\n");
            req.extend_from_slice(&[b'x'; 8192]);
            req.extend_from_slice(b"\r\n");
        }
        assert!(req.len() > MAX_INBUF);
        // The server may close before the last byte is written.
        let _ = c.write_all(&req);
        assert!(read_to_close(&mut c).is_empty());
        let report = h.shutdown();
        assert_eq!(report.protocol_errors, 0);
    }
}
