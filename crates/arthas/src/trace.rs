//! The dynamic PM address trace (§4.1, the runtime half).
//!
//! The instrumented binary emits `(GUID, pm_address)` records; the trace
//! indexes them by GUID so the reactor can ask "which dynamic addresses did
//! this (static) PM instruction touch" when joining a program slice with
//! the checkpoint log.

use std::collections::HashMap;

/// Accumulated `(GUID, pm_offset)` records.
///
/// # Examples
///
/// ```
/// use arthas::PmTrace;
///
/// let mut trace = PmTrace::new();
/// trace.absorb([(1, pir::mem::pm_addr(4096)), (1, pir::mem::pm_addr(4104))]);
/// assert_eq!(trace.offsets(1), &[4096, 4104]);
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PmTrace {
    by_guid: HashMap<u64, Vec<u64>>,
    total: usize,
}

impl PmTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw VM trace records (tagged PM addresses are converted to
    /// pool offsets; non-PM addresses — e.g. a null pointer about to crash
    /// the program — are dropped).
    pub fn absorb(&mut self, records: impl IntoIterator<Item = (u64, u64)>) {
        for (guid, addr) in records {
            if !pir::mem::is_pm(addr) {
                continue;
            }
            let off = pir::mem::pm_offset(addr);
            let v = self.by_guid.entry(guid).or_default();
            // Cheap dedup of immediate repeats (loops touching the same
            // address).
            if v.last() != Some(&off) {
                v.push(off);
            }
            self.total += 1;
        }
    }

    /// Dynamic pool offsets recorded for a GUID.
    pub fn offsets(&self, guid: u64) -> &[u64] {
        self.by_guid.get(&guid).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Total records absorbed (before dedup).
    pub fn total_records(&self) -> usize {
        self.total
    }

    /// Number of distinct GUIDs seen.
    pub fn n_guids(&self) -> usize {
        self.by_guid.len()
    }

    /// Clears the trace.
    pub fn clear(&mut self) {
        self.by_guid.clear();
        self.total = 0;
    }

    /// Caps each GUID's offset list to its `max_per_guid` most recent
    /// entries, returning how many older offsets were dropped.
    ///
    /// A long-running server absorbs the trace continuously; only recent
    /// offsets can join still-live checkpoint-log versions, so the older
    /// tail is dead weight. Reversion candidates are drawn from recent
    /// updates, which this keeps.
    pub fn retain_recent(&mut self, max_per_guid: usize) -> usize {
        let mut dropped = 0;
        for v in self.by_guid.values_mut() {
            if v.len() > max_per_guid {
                let excess = v.len() - max_per_guid;
                v.drain(..excess);
                dropped += excess;
            }
        }
        dropped
    }

    /// Appends raw VM trace records to a file (`guid<TAB>offset` lines) —
    /// the asynchronously flushed PM address trace of §4.1. Non-PM
    /// addresses are dropped, as in [`PmTrace::absorb`].
    pub fn append_records_to_file(
        path: impl AsRef<std::path::Path>,
        records: impl IntoIterator<Item = (u64, u64)>,
    ) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        for (guid, addr) in records {
            if pir::mem::is_pm(addr) {
                writeln!(out, "{guid}\t{}", pir::mem::pm_offset(addr))?;
            }
        }
        Ok(())
    }

    /// Loads a trace file written by [`PmTrace::append_records_to_file`].
    /// Tolerates a truncated final line (the writer may have died
    /// mid-flush), matching how the reactor server parses the trace
    /// incrementally (§5).
    pub fn load_from(path: impl AsRef<std::path::Path>) -> std::io::Result<PmTrace> {
        let text = std::fs::read_to_string(path)?;
        let mut t = PmTrace::new();
        for line in text.lines() {
            let mut parts = line.splitn(2, '\t');
            let (Some(g), Some(o)) = (parts.next(), parts.next()) else {
                continue; // truncated tail
            };
            let (Ok(guid), Ok(off)) = (g.parse::<u64>(), o.parse::<u64>()) else {
                continue;
            };
            t.absorb([(guid, pir::mem::pm_addr(off))]);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::mem::pm_addr;

    #[test]
    fn indexes_by_guid_and_strips_tags() {
        let mut t = PmTrace::new();
        t.absorb([(1, pm_addr(100)), (2, pm_addr(200)), (1, pm_addr(108))]);
        assert_eq!(t.offsets(1), &[100, 108]);
        assert_eq!(t.offsets(2), &[200]);
        assert_eq!(t.total_records(), 3);
        assert!(t.offsets(3).is_empty());
    }

    #[test]
    fn retain_recent_keeps_the_tail() {
        let mut t = PmTrace::new();
        t.absorb((0..10u64).map(|i| (1, pm_addr(64 + 8 * i))));
        t.absorb([(2, pm_addr(0))]);
        let dropped = t.retain_recent(3);
        assert_eq!(dropped, 7);
        assert_eq!(t.offsets(1), &[120, 128, 136]);
        assert_eq!(t.offsets(2), &[0], "under-cap guids untouched");
    }

    #[test]
    fn non_pm_addresses_dropped_and_repeats_deduped() {
        let mut t = PmTrace::new();
        t.absorb([(1, 0), (1, pm_addr(64)), (1, pm_addr(64)), (1, pm_addr(64))]);
        assert_eq!(t.offsets(1), &[64]);
    }
}
