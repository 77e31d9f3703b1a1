//! The benchmark's own load driver and outage clock.
//!
//! Closed loop: each connection sends its next request only after the
//! reply to the previous one, as a cache client does. Built on the
//! public `serve::{memcached, resp}` client codecs.
//!
//! Clients busy-poll their socket instead of blocking in `read`. On a
//! small VM a blocked client leaves every vCPU idle between requests,
//! and the host then takes 0.3–2 ms to wake one again (measured on the
//! 2-vCPU reference host: `sleep(200 µs)` returns after a median of
//! 288–664 µs with a 1–1.9 ms p90 when the VM is otherwise idle,
//! against 270 µs and 280 µs with one busy thread). That wake-up cost
//! is several times the request latency being measured and comes and
//! goes in phases of seconds, so a blocking client measures the host.
//!
//! It does not use `pm_workload::run_load`: that function starts
//! polling `stats` for recovery only after every traffic worker has
//! joined, so the "outage" it reports is the time to the end of the
//! traffic phase, not the time service was away. Here the outage is
//! read off the clients' own reply timeline ([`outage_us`]).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use obs::RingRecorder;
use serve::{memcached, resp, Cmd, Parse, Reply};

use crate::gen::Request;
use crate::run::keep_awake;
use crate::span::Tracer;

/// A mitigation inside `exec` stalls the reply for the whole recovery.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a client spins on its socket before it starts napping
/// between polls. A served request answers well inside this; a reply
/// that takes longer is waiting for a recovery, which needs the
/// hardware thread a spinning client would hold (on two vCPUs the same
/// episode's outage read 17 ms or 35 ms depending on where the
/// scheduler put the recovering worker). The idle-class spinners of
/// `run::start_spinners` follow the client: they spin while it does.
const SPIN: Duration = Duration::from_millis(2);
const NAP: Duration = Duration::from_micros(100);

/// One blocking client connection speaking either protocol.
pub struct Client {
    stream: TcpStream,
    resp: bool,
    inbuf: Vec<u8>,
    wire: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr, resp: bool) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Client {
            stream,
            resp,
            inbuf: Vec::new(),
            wire: Vec::new(),
        })
    }

    /// Sends `cmd` and waits for its reply. Spans: encode, the socket
    /// round trip (which is where the server's work shows), parse.
    pub fn request(&mut self, cmd: &Cmd, tracer: &mut Tracer, id: u64) -> Result<Reply, String> {
        let resp = self.resp;
        self.wire.clear();
        let wire = &mut self.wire;
        tracer.span("serve.codec.encode_cmd", id, || {
            if resp {
                resp::encode_cmd(cmd, wire)
            } else {
                memcached::encode_cmd(cmd, wire)
            }
        });
        let sent_at = Instant::now();
        let deadline = sent_at + REQUEST_TIMEOUT;
        let open = tracer.begin("serve.server.roundtrip", id);
        let sent = self.send(deadline);
        tracer.end(open);
        sent?;
        let mut chunk = [0u8; 4096];
        loop {
            if !self.inbuf.is_empty() {
                let inbuf = &self.inbuf;
                let parsed = tracer.span("serve.codec.parse_reply", id, || {
                    if resp {
                        resp::parse_reply(inbuf)
                    } else {
                        memcached::parse_reply(inbuf)
                    }
                });
                match parsed {
                    Parse::Done(reply, n) => {
                        self.inbuf.drain(..n.min(self.inbuf.len()));
                        return Ok(reply);
                    }
                    Parse::Error(m, _) => {
                        self.inbuf.clear();
                        return Err(format!("reply does not parse: {m}"));
                    }
                    Parse::Incomplete => {}
                }
            }
            let open = tracer.begin("serve.server.roundtrip", id);
            let got = loop {
                match self.stream.read(&mut chunk) {
                    Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                        if sent_at.elapsed() < SPIN {
                            std::hint::spin_loop()
                        } else {
                            keep_awake(false);
                            std::thread::sleep(NAP)
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    other => break other,
                }
            };
            tracer.end(open);
            match got {
                Ok(0) => return Err("server closed connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn send(&mut self, deadline: Instant) -> Result<(), String> {
        let mut sent = 0;
        while sent < self.wire.len() {
            match self.stream.write(&self.wire[sent..]) {
                Ok(0) => return Err("write: connection closed".into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::hint::spin_loop()
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    pub fn stats(&mut self) -> Result<Vec<(String, String)>, String> {
        match self.request(&Cmd::Stats, &mut Tracer::new(false), 0) {
            Ok(Reply::Stats(kvs)) => Ok(kvs),
            other => Err(format!("unexpected stats reply {other:?}")),
        }
    }
}

pub fn stat_u64(kvs: &[(String, String)], name: &str) -> Option<u64> {
    kvs.iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
}

/// What a connection believes the server holds: key → (fill, len).
pub type Model = HashMap<u64, (u8, usize)>;

/// One completed request on the client's clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, microseconds on the recorder's clock.
    pub end_us: u64,
    pub latency_ns: u64,
    pub ok: bool,
}

#[derive(Debug, Default, Clone)]
pub struct StreamOut {
    pub samples: Vec<Sample>,
    /// `SERVER_ERROR` / `-BUSY` replies.
    pub refused: u64,
    /// Codec, protocol and connection errors.
    pub errors: u64,
    /// Replies that parsed but carried the wrong data.
    pub wrong: u64,
    /// Acknowledged sets, in order: (key, fill, len).
    pub acked_sets: Vec<(u64, u8, usize)>,
    /// Why the first failed request failed.
    pub first_failure: Option<String>,
}

impl StreamOut {
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.wrong
    }
}

/// Whether `reply` is the value the model expects for a get of `key`.
pub fn get_matches(reply: &Reply, expect: Option<&(u8, usize)>) -> bool {
    match (reply, expect) {
        (Reply::Values { items }, None) => items.is_empty(),
        (Reply::Values { items }, Some(&(fill, len))) => {
            items.len() == 1 && items[0].1.len() == len && items[0].1.iter().all(|&b| b == fill)
        }
        _ => false,
    }
}

/// Streams `requests` over `client`. With `check_gets` every get must
/// return exactly what `model` holds; a set updates the model once the
/// server acknowledges it. Completion times are read from `clock`, the
/// recorder the benchmark handed to the server, so client samples and
/// the server's `serve.*` events share one time base.
pub fn run_stream(
    client: &mut Client,
    requests: &[Request],
    model: &mut Model,
    check_gets: bool,
    clock: &RingRecorder,
    tracer: &mut Tracer,
) -> StreamOut {
    let mut out = StreamOut {
        samples: Vec::with_capacity(requests.len()),
        ..StreamOut::default()
    };
    for (id, req) in requests.iter().enumerate() {
        keep_awake(true);
        let open = tracer.begin("request", id as u64);
        let t0 = Instant::now();
        let result = client.request(&req.cmd, tracer, id as u64);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        tracer.end(open);
        let ok = match (&result, req.set) {
            (Err(_), _) => {
                out.errors += 1;
                false
            }
            (Ok(Reply::ServerError(_)), _) => {
                out.refused += 1;
                false
            }
            (Ok(Reply::Stored | Reply::Ok), Some((fill, len))) => {
                model.insert(req.key, (fill, len));
                out.acked_sets.push((req.key, fill, len));
                true
            }
            (Ok(reply @ Reply::Values { .. }), None) => {
                let ok = !check_gets || get_matches(reply, model.get(&req.key));
                out.wrong += u64::from(!ok);
                ok
            }
            (Ok(_), _) => {
                out.errors += 1;
                false
            }
        };
        out.samples.push(Sample {
            end_us: clock.now_us(),
            latency_ns,
            ok,
        });
        if !ok && out.first_failure.is_none() {
            out.first_failure = Some(match &result {
                Ok(reply) => format!("request {id} ({:?}): {reply:?}", req.cmd),
                Err(why) => format!("request {id} ({:?}): {why}", req.cmd),
            });
        }
        if result.is_err() {
            // A dead connection cannot carry the rest of the stream.
            out.errors += (requests.len() - id - 1) as u64;
            break;
        }
    }
    keep_awake(false);
    out
}

/// The outage after a fault was armed at `armed_us`: the time from the
/// arm's acknowledgement to the completion of the first successful
/// reply that ends the longest no-success gap after it. Client clock
/// only, so it includes the detection lag. `replies` is (completion
/// time, success) in completion order; `None` without a success after
/// the arm.
pub fn outage_us(armed_us: u64, replies: impl IntoIterator<Item = (u64, bool)>) -> Option<u64> {
    let mut last_success = armed_us;
    let mut longest: Option<(u64, u64)> = None;
    for (t, ok) in replies {
        if !ok || t < armed_us {
            continue;
        }
        let gap = t - last_success;
        if longest.is_none_or(|(g, _)| gap > g) {
            longest = Some((gap, t));
        }
        last_success = t;
    }
    longest.map(|(_, end)| end - armed_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_ends_the_longest_gap_after_the_arm() {
        // Armed at 100. Service answers until 120, refuses at 130 and
        // 500, comes back at 900.
        let timeline = [
            (50, true),
            (110, true),
            (120, true),
            (130, false),
            (500, false),
            (900, true),
            (910, true),
        ];
        assert_eq!(outage_us(100, timeline), Some(800));
    }

    #[test]
    fn outage_counts_detection_lag_and_ignores_later_short_gaps() {
        // The stalled request itself is the gap: 100 → 460.
        let timeline = [(460, true), (470, true), (600, true)];
        assert_eq!(outage_us(100, timeline), Some(360));
    }

    #[test]
    fn no_success_after_the_arm_is_no_outage_end() {
        assert_eq!(outage_us(100, [(90, true), (150, false)]), None);
    }

    #[test]
    fn get_check_compares_fill_and_length() {
        let hit = Reply::Values {
            items: vec![(b"7".to_vec(), vec![0x21; 12])],
        };
        assert!(get_matches(&hit, Some(&(0x21, 12))));
        assert!(!get_matches(&hit, Some(&(0x21, 16))));
        assert!(!get_matches(&hit, None));
        assert!(get_matches(&Reply::Values { items: vec![] }, None));
    }
}
