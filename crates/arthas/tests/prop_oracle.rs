//! Property-based audit of `LogView::covering` and
//! `LogView::expected_current` — the code the reactor, the baselines and
//! the invariant oracle read the log through — against brute-force
//! oracles, at one shard and at three.
//!
//! Both methods bound their scans with windows derived from the largest
//! data size ever logged and merge per-shard results; the oracles use no
//! windows and no shards at all and recompute the answer from a shadow
//! history. Random persist ranges deliberately include entries far larger
//! than 64 KiB overlapping distant addresses (the old `expected_current`
//! used a fixed 64 KiB window and missed them), overlapping same-region
//! updates, and free/realloc cycles that park old incarnations on the
//! retired chain.

use std::collections::HashMap;

use arthas::{SharedLog, MAX_VERSIONS};
use pmemsim::PmSink;
use proptest::prelude::*;

/// Small entries live here, inside the tail of the big entries' ranges
/// (which start near 0 and run past 64 KiB), so big-over-small overlays
/// cross the old window bound.
const SMALL_BASE: u64 = 66_000;
const SMALL_STRIDE: u64 = 96;
const BIG_STRIDE: u64 = 128;

#[derive(Debug, Clone)]
enum Op {
    /// Persist `len` bytes of `fill` at a small-grid slot.
    Small { slot: u64, len: usize, fill: u8 },
    /// Persist a >64 KiB range starting near address 0.
    Big { slot: u64, fill: u8 },
    /// Free + realloc a small-grid slot (first alloc happens implicitly),
    /// retiring the slot's current entry to the old_entry chain.
    Realloc { slot: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..12u64, 1..192usize, any::<u8>())
            .prop_map(|(slot, len, fill)| Op::Small { slot, len, fill }),
        1 => (0..3u64, any::<u8>()).prop_map(|(slot, fill)| Op::Big { slot, fill }),
        1 => (0..12u64).prop_map(|slot| Op::Realloc { slot }),
    ]
}

fn small_addr(slot: u64) -> u64 {
    SMALL_BASE + slot * SMALL_STRIDE
}

fn big_len(slot: u64) -> usize {
    // All cross the 64 KiB mark and reach into the small grid.
    (SMALL_BASE as usize + 2048) + slot as usize * 512
}

/// Shadow of every *live* incarnation: per address, the retained
/// `(seq, data)` versions, oldest first. Rebuilt alongside the log with
/// the documented semantics only — no windows, no orderings.
#[derive(Default)]
struct Shadow {
    entries: HashMap<u64, Vec<(u64, Vec<u8>)>>,
    freed: HashMap<u64, bool>,
    seq: u64,
}

impl Shadow {
    fn persist(&mut self, addr: u64, data: Vec<u8>) {
        self.seq += 1;
        let v = self.entries.entry(addr).or_default();
        v.push((self.seq, data));
        while v.len() > MAX_VERSIONS {
            v.remove(0);
        }
    }

    fn alloc(&mut self, addr: u64) {
        // A realloc of a freed address starts a fresh incarnation; the old
        // versions move to the retired chain, which neither `covering` nor
        // `expected_current` consults.
        if self.freed.get(&addr).copied().unwrap_or(false) {
            self.entries.remove(&addr);
        }
        self.freed.insert(addr, false);
    }

    fn free(&mut self, addr: u64) {
        self.freed.insert(addr, true);
    }

    /// Oracle for `covering(q)`: every live entry whose max version size
    /// reaches `q`, reported as `(addr, newest seq)`.
    fn covering(&self, q: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (&a, versions) in &self.entries {
            let Some((newest_seq, _)) = versions.last() else {
                continue;
            };
            let max_size = versions.iter().map(|(_, d)| d.len() as u64).max().unwrap();
            if a <= q && q < a + max_size {
                out.push((a, *newest_seq));
            }
        }
        out.sort_unstable();
        out
    }

    /// Oracle for `expected_current(q)`: the entry's newest version with,
    /// byte for byte, any newer overlapping entry's newest version on top
    /// (newest seq wins where overlays themselves overlap).
    fn expected_current(&self, q: u64) -> Option<Vec<u8>> {
        let versions = self.entries.get(&q)?;
        let (my_seq, base) = versions.last()?;
        let mut buf = base.clone();
        // For each byte, the newest covering version wins.
        for (i, b) in buf.iter_mut().enumerate() {
            let byte_addr = q + i as u64;
            let mut best = *my_seq;
            for (&a, vs) in &self.entries {
                if a == q {
                    continue;
                }
                let Some((seq, data)) = vs.last() else {
                    continue;
                };
                if *seq > best && a <= byte_addr && byte_addr < a + data.len() as u64 {
                    best = *seq;
                    *b = data[(byte_addr - a) as usize];
                }
            }
        }
        Some(buf)
    }

    fn query_points(&self) -> Vec<u64> {
        let mut qs = Vec::new();
        for (&a, versions) in &self.entries {
            qs.push(a);
            if let Some(max) = versions.iter().map(|(_, d)| d.len() as u64).max() {
                // Inside, at the exclusive end (not covered), and past it.
                qs.push(a + max / 2);
                qs.push(a + max.saturating_sub(1));
                qs.push(a + max);
            }
        }
        qs.sort_unstable();
        qs.dedup();
        qs
    }
}

/// The byte-wise oracle and the log's overlay agree only if overlay
/// overlap is resolved by seq; `best` tracking above does exactly that.
fn apply(log: &SharedLog, shadow: &mut Shadow, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Small { slot, len, fill } => {
                let addr = small_addr(*slot);
                let data = vec![*fill; *len];
                log.on_persist(addr, &data);
                shadow.persist(addr, data);
            }
            Op::Big { slot, fill } => {
                let addr = *slot * BIG_STRIDE;
                let data = vec![*fill; big_len(*slot)];
                log.on_persist(addr, &data);
                shadow.persist(addr, data);
            }
            Op::Realloc { slot } => {
                let addr = small_addr(*slot);
                // First contact allocates; later ops free + realloc,
                // retiring the entry's current incarnation.
                log.on_alloc(addr, SMALL_STRIDE);
                shadow.alloc(addr);
                log.on_free(addr);
                shadow.free(addr);
                log.on_alloc(addr, SMALL_STRIDE);
                shadow.alloc(addr);
            }
        }
    }
}

/// Shard counts every property runs at: the offline pipeline's one, and
/// three.
const SHARD_COUNTS: [usize; 2] = [1, 3];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `covering` agrees with the windowless oracle at every entry
    /// address, interior point, boundary, and one-past-the-end.
    #[test]
    fn covering_matches_oracle(ops in proptest::collection::vec(op(), 1..40)) {
        for shards in SHARD_COUNTS {
            let log = SharedLog::sharded(shards);
            let mut shadow = Shadow::default();
            apply(&log, &mut shadow, &ops);
            let view = log.view();
            for q in shadow.query_points() {
                let mut got = view.covering(q);
                got.sort_unstable();
                prop_assert_eq!(
                    &got,
                    &shadow.covering(q),
                    "covering({}) diverged at {} shards",
                    q,
                    shards
                );
            }
        }
    }

    /// `expected_current` agrees with the byte-wise newest-write-wins
    /// oracle — including overlays larger than 64 KiB that start far below
    /// the queried entry, and entries retired by realloc.
    #[test]
    fn expected_current_matches_oracle(ops in proptest::collection::vec(op(), 1..40)) {
        for shards in SHARD_COUNTS {
            let log = SharedLog::sharded(shards);
            let mut shadow = Shadow::default();
            apply(&log, &mut shadow, &ops);
            let view = log.view();
            let addrs: Vec<u64> = shadow.entries.keys().copied().collect();
            for q in addrs {
                prop_assert_eq!(
                    view.expected_current(q),
                    shadow.expected_current(q),
                    "expected_current({}) diverged at {} shards",
                    q,
                    shards
                );
            }
            // Addresses the log never saw yield None.
            prop_assert_eq!(view.expected_current(SMALL_BASE - 1), None);
        }
    }
}
