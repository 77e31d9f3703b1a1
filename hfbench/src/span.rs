//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (name, start, end, the span that caused it, request id), keeps them
//! in memory and writes them out when the run ends. A layer's self time
//! is its span minus the part its children cover. With the tracer off
//! every call here is one branch, which is how the end-to-end run is
//! measured.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span; `end` it in LIFO order.
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// Whole durations of the spans called `name` (nanoseconds).
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time of every span, grouped by span name (nanoseconds).
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(children) {
            by_name
                .entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(covered));
        }
        by_name
    }

    /// Appends the spans to `path`, one `name start end parent request`
    /// line each (parent `-` for a root span).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            if s.parent == NO_PARENT {
                writeln!(w, "{} {} {} - {}", s.name, s.start_ns, s.end_ns, s.request)?;
            } else {
                writeln!(
                    w,
                    "{} {} {} {} {}",
                    s.name, s.start_ns, s.end_ns, s.parent, s.request
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        let selfs = t.self_times();
        let outer_total = spans[0].end_ns - spans[0].start_ns;
        let inner_total = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(selfs["outer"], vec![outer_total - inner_total]);
        assert_eq!(selfs["inner"], vec![inner_total]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x", 0);
        t.end(o);
        assert!(t.spans.is_empty());
    }
}
