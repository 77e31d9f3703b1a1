//! The [`Recorder`] trait and its two implementations.
//!
//! Producers are written against `&dyn Recorder` behind an `Arc`, so the
//! same code path serves three deployments: no recorder attached (an
//! `Option` check), [`NullRecorder`] (all methods empty — the enabled
//! call path at its cheapest), and [`RingRecorder`] (bounded
//! event retention plus counters and histograms — what the `report` CLI
//! subcommand attaches).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// A scalar field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl Value {
    /// Converts to a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::U64(*v),
            Value::I64(v) => Json::I64(*v),
            Value::F64(v) => Json::F64(*v),
            Value::Str(v) => Json::Str(v.clone()),
            Value::Bool(v) => Json::Bool(*v),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One structured event on the recovery timeline.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the recorder's epoch (its creation).
    pub t_us: u64,
    /// Event kind, dot-namespaced by the producing layer
    /// (`pool.crash`, `ckpt.retired`, `detector.observe`,
    /// `reactor.attempt`, …).
    pub kind: &'static str,
    /// Scalar payload fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Converts to a JSON object `{t_us, kind, fields: {…}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("t_us", Json::U64(self.t_us)),
            ("kind", Json::Str(self.kind.to_string())),
            (
                "fields",
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The recording surface held by every instrumented layer.
///
/// All methods take `&self`: recorders are shared across threads (a
/// campaign's runner threads record into one) and use interior
/// mutability.
pub trait Recorder: Send + Sync {
    /// Records a structured event. `fields` builds its payload and runs
    /// only in a recorder that keeps events, so a disabled recorder's
    /// event builds no `Vec` and no `String`: callers need no guard.
    fn event(&self, kind: &'static str, fields: &dyn Fn() -> Vec<(&'static str, Value)>);

    /// Adds `delta` to a monotonic counter.
    fn add(&self, counter: &'static str, delta: u64);

    /// Records one duration observation (microseconds) into a histogram.
    fn observe_us(&self, hist: &'static str, micros: u64);

    /// Convenience: observe a [`Duration`].
    fn observe_duration(&self, hist: &'static str, d: Duration) {
        self.observe_us(hist, d.as_micros().min(u64::MAX as u128) as u64);
    }
}

/// A recorder that retains nothing. The enabled-path overhead baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn event(&self, _kind: &'static str, _fields: &dyn Fn() -> Vec<(&'static str, Value)>) {}
    fn add(&self, _counter: &'static str, _delta: u64) {}
    fn observe_us(&self, _hist: &'static str, _micros: u64) {}
}

/// Number of log-scale histogram buckets: bucket `i` holds observations
/// with `floor(log2(us)) == i` (bucket 0 also holds 0 µs).
const HIST_BUCKETS: usize = 40;

/// A log-scale duration histogram (microsecond observations).
#[derive(Debug, Clone)]
struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }
}

impl Histogram {
    fn observe(&mut self, us: u64) {
        let idx = (64 - us.leading_zeros()) as usize;
        let idx = idx.saturating_sub(1).min(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Upper bound (exclusive) of bucket `i` in microseconds.
    fn bucket_hi(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_hi(i).min(self.max_us).max(self.min_us);
            }
        }
        self.max_us
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum_us: self.sum_us,
            min_us: if self.count == 0 { 0 } else { self.min_us },
            max_us: self.max_us,
            p50_us: self.quantile(0.50),
            p95_us: self.quantile(0.95),
            p99_us: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of a histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (µs).
    pub sum_us: u64,
    /// Smallest observation (µs; 0 when empty).
    pub min_us: u64,
    /// Largest observation (µs).
    pub max_us: u64,
    /// Approximate median (bucket upper bound, clamped to min/max).
    pub p50_us: u64,
    /// Approximate 95th percentile.
    pub p95_us: u64,
    /// Approximate 99th percentile.
    pub p99_us: u64,
}

impl HistogramSnapshot {
    /// Converts to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("sum_us", Json::U64(self.sum_us)),
            ("min_us", Json::U64(self.min_us)),
            ("max_us", Json::U64(self.max_us)),
            ("p50_us", Json::U64(self.p50_us)),
            ("p95_us", Json::U64(self.p95_us)),
            ("p99_us", Json::U64(self.p99_us)),
        ])
    }
}

#[derive(Default)]
struct RingInner {
    ring: VecDeque<Event>,
    dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

/// The retaining recorder: a bounded event ring (oldest events dropped
/// first, with an accurate drop count), monotonic counters, and log-scale
/// duration histograms.
///
/// # Examples
///
/// ```
/// use obs::{Recorder, RingRecorder};
///
/// let rec = RingRecorder::new(2);
/// rec.add("pool.persists", 3);
/// rec.event("pool.crash", &|| vec![("tick", 7u64.into())]);
/// rec.observe_us("reactor.reexec_us", 1500);
/// assert_eq!(rec.counters().get("pool.persists"), Some(&3));
/// assert_eq!(rec.events().len(), 1);
/// ```
pub struct RingRecorder {
    epoch: Instant,
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingRecorder {
    /// Creates a recorder retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        // A panic while recording must not disable observability for the
        // rest of the run; the inner maps are valid at every await point.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Number of events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Counter snapshot.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.lock().counters.clone()
    }

    /// Histogram snapshots.
    pub fn histograms(&self) -> BTreeMap<&'static str, HistogramSnapshot> {
        self.lock()
            .hists
            .iter()
            .map(|(k, h)| (*k, h.snapshot()))
            .collect()
    }

    /// Snapshot of a single histogram (`None` if it has no observations),
    /// without cloning the whole map — for per-request stats paths.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.lock().hists.get(name).map(|h| h.snapshot())
    }

    /// Current value of a single counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Microseconds elapsed since the recorder's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Renders the full recorder state as a JSON object:
    /// `{events, events_dropped, counters, histograms}`.
    pub fn to_json(&self) -> Json {
        let inner = self.lock();
        Json::obj([
            (
                "events",
                Json::Arr(inner.ring.iter().map(Event::to_json).collect()),
            ),
            ("events_dropped", Json::U64(inner.dropped)),
            (
                "counters",
                Json::Obj(
                    inner
                        .counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    inner
                        .hists
                        .iter()
                        .map(|(k, h)| (k.to_string(), h.snapshot().to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Recorder for RingRecorder {
    fn event(&self, kind: &'static str, fields: &dyn Fn() -> Vec<(&'static str, Value)>) {
        let t_us = self.now_us();
        let fields = fields();
        let mut inner = self.lock();
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(Event { t_us, kind, fields });
    }

    fn add(&self, counter: &'static str, delta: u64) {
        *self.lock().counters.entry(counter).or_insert(0) += delta;
    }

    fn observe_us(&self, hist: &'static str, micros: u64) {
        self.lock().hists.entry(hist).or_default().observe(micros);
    }
}

impl std::fmt::Debug for RingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("RingRecorder")
            .field("capacity", &self.capacity)
            .field("events", &inner.ring.len())
            .field("dropped", &inner.dropped)
            .field("counters", &inner.counters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = RingRecorder::new(3);
        for i in 0..5u64 {
            rec.event("e", &|| vec![("i", i.into())]);
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(events[0].fields[0].1, Value::U64(2));
        assert_eq!(events[2].fields[0].1, Value::U64(4));
    }

    #[test]
    fn counters_accumulate() {
        let rec = RingRecorder::new(8);
        rec.add("a", 1);
        rec.add("a", 2);
        rec.add("b", 5);
        let c = rec.counters();
        assert_eq!(c["a"], 3);
        assert_eq!(c["b"], 5);
    }

    #[test]
    fn histogram_summary_is_sane() {
        let rec = RingRecorder::new(8);
        for us in [1u64, 2, 4, 100, 10_000] {
            rec.observe_us("h", us);
        }
        let h = rec.histograms()["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum_us, 10_107);
        assert_eq!(h.min_us, 1);
        assert_eq!(h.max_us, 10_000);
        assert!(h.p50_us >= 2 && h.p50_us <= 100, "p50 {}", h.p50_us);
        assert!(h.p99_us >= 100, "p99 {}", h.p99_us);
        assert!(h.p50_us <= h.p95_us && h.p95_us <= h.p99_us);
    }

    #[test]
    fn zero_and_huge_observations_do_not_panic() {
        let rec = RingRecorder::new(2);
        rec.observe_us("h", 0);
        rec.observe_us("h", u64::MAX);
        let h = rec.histograms()["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min_us, 0);
        assert_eq!(h.max_us, u64::MAX);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let rec = RingRecorder::new(8);
        rec.event("a", &|| vec![]);
        rec.event("b", &|| vec![]);
        let ev = rec.events();
        assert!(ev[0].t_us <= ev[1].t_us);
    }

    #[test]
    fn null_recorder_is_disabled() {
        let rec = NullRecorder;
        rec.event("x", &|| {
            unreachable!("a disabled recorder builds no fields")
        });
        rec.add("c", 1);
        rec.observe_us("h", 10);
    }

    #[test]
    fn to_json_has_the_four_sections() {
        let rec = RingRecorder::new(4);
        rec.event("k", &|| vec![("f", "v".into())]);
        rec.add("c", 2);
        rec.observe_us("h", 7);
        let j = rec.to_json();
        assert!(j.get("events").is_some());
        assert!(j.get("events_dropped").is_some());
        assert!(j.get("counters").and_then(|c| c.get("c")).is_some());
        assert!(j.get("histograms").and_then(|h| h.get("h")).is_some());
    }
}
