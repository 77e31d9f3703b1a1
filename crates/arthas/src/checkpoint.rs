//! Fine-grained, versioned checkpointing of PM state (§4.2 of the paper).
//!
//! The checkpoint log records every durable PM update at the granularity
//! the application itself chose (an explicit persist range, or each
//! snapshotted range of a committed transaction), keyed by address, with up
//! to [`MAX_VERSIONS`] old values per address and a global logical sequence
//! number — a direct transcription of the paper's Figure 5 entry layout.
//!
//! There is one store, [`SharedLog`]: address-sharded, each shard behind
//! its own mutex, all shards drawing sequence numbers from one atomic
//! counter. It is a [`PmSink`], so attaching [`SharedLog::as_sink`] to a
//! pool is the moral equivalent of linking the Arthas checkpoint library
//! into the target binary; a durability event locks the one shard owning
//! its address and nothing else. Everything that reads the log — the
//! reactor's candidate-list computation (§4.4), the leak monitor's
//! allocation diff (§4.7), the baselines, the invariant oracle — goes
//! through [`SharedLog::view`], a merged, seq-ordered [`LogView`] whose
//! answers do not depend on the shard count. `SharedLog::new()` is the
//! one-shard store: the paper's single log is the degenerate case, not a
//! second type.
//!
//! In the paper the log lives in a dedicated PM pool; here it is a
//! host-side structure owned by the driver, which survives simulated
//! restarts of the target exactly like a separate pool would.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use pmemsim::PmSink;

/// Default number of retained versions per address (the paper's default).
/// A store can retain more via [`SharedLog::set_max_versions`]:
/// offline campaigns detect faults at the crash site, so three versions
/// reach back far enough, but an online server detects lazily (every
/// `health_every` requests) and keeps writing in between — hot addresses
/// such as a store's item counter or bucket heads rotate their pre-fault
/// versions out of a 3-deep window before the detector fires, leaving
/// rollback nothing to restore to. Serving deployments must size retention
/// to at least a couple of detection intervals.
pub const MAX_VERSIONS: usize = 3;

/// Shard count of the multi-threaded workload (`arthas-repro concurrent`).
/// Eight shards keep the per-shard mutexes uncontended up to the 16-writer
/// runs that workload drives while costing nothing at one writer.
pub const DEFAULT_SHARDS: usize = 8;

/// Addresses are sharded at this granularity: one contiguous
/// `1 << SHARD_GRAIN_BITS`-byte range maps to one shard, so an object's
/// persist ranges stay local to a shard while independent objects spread
/// across all of them.
const SHARD_GRAIN_BITS: u32 = 12;

/// The shard owning `addr` among `n` shards. SplitMix64-finalizes the
/// range index so contiguous allocation patterns still spread: the pool
/// allocator hands out monotonically increasing addresses, and a plain
/// modulo would put every hot writer region on a handful of shards.
fn shard_index(addr: u64, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut z = (addr >> SHARD_GRAIN_BITS).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % n as u64) as usize
}

/// One retained version of an address's data.
#[derive(Debug, Clone)]
pub struct VersionData {
    /// Global logical sequence number of the update.
    pub seq: u64,
    /// The durable bytes after the update.
    pub data: Vec<u8>,
    /// Transaction that produced the update, if any.
    pub tx_id: Option<u64>,
}

/// The per-address checkpoint entry (paper Figure 5).
#[derive(Debug, Clone, Default)]
pub struct Entry {
    /// Retained versions, oldest first, newest last.
    pub versions: VecDeque<VersionData>,
    /// Index (into the owning shard's retired-entry arena) of the entry
    /// this block accumulated in its *previous* incarnation, when the
    /// address was freed and reallocated (the paper's `old_entry`
    /// chaining). [`LogView::data_at_depth`], [`LogView::data_before_seq`]
    /// and [`LogView::expected_before`] walk the chain.
    pub old_entry: Option<usize>,
}

/// Lifetime counters of a [`SharedLog`] (the paper's Table 4 "log
/// overhead" measurements are derived from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Checkpointed PM updates (the denominator of the discarded-data
    /// metric; [`SharedLog::total_updates`] reads this).
    pub updates: u64,
    /// Payload bytes appended to the log.
    pub bytes_logged: u64,
    /// Versions dropped because an address exceeded its retention cap.
    pub versions_rotated: u64,
    /// Entries parked in the retired arena by realloc chaining.
    pub entries_retired: u64,
}

impl LogStats {
    /// Field-wise sum, used to fold per-shard stats into the store's.
    fn merge(self, other: LogStats) -> LogStats {
        LogStats {
            updates: self.updates + other.updates,
            bytes_logged: self.bytes_logged + other.bytes_logged,
            versions_rotated: self.versions_rotated + other.versions_rotated,
            entries_retired: self.entries_retired + other.entries_retired,
        }
    }
}

/// Allocation record for the leak-mitigation pass (§4.7).
struct AllocRecord {
    /// Payload size.
    size: u64,
    /// Whether the block has been freed since.
    freed: bool,
}

/// One shard of a [`SharedLog`]: the entries, allocation records and
/// recovery reads of the addresses it owns. It records, rotates and
/// retires; every query that can span shards lives on [`LogView`], which
/// calls the shard-local helpers here.
struct CheckpointLog {
    entries: BTreeMap<u64, Entry>,
    /// Entries of freed-then-reallocated blocks, parked here so
    /// `old_entry` chains keep resolving (§4.2).
    retired: Vec<Entry>,
    /// The store's sequence allocator (the atomic counter of the paper).
    seq_alloc: Arc<AtomicU64>,
    seq_to_addr: HashMap<u64, u64>,
    tx_members: HashMap<u64, Vec<u64>>,
    allocs: BTreeMap<u64, AllocRecord>,
    recovery_reads: ReadSet,
    recovering: bool,
    /// When false the shard ignores events (used while the reactor
    /// re-executes the target during mitigation, so reversion attempts do
    /// not rotate good versions out of the log).
    enabled: bool,
    /// Per-address version retention cap.
    max_versions: usize,
    /// Largest data size ever recorded; bounds the `covering` scan.
    max_len: u64,
    stats: LogStats,
    recorder: Option<Arc<dyn obs::Recorder>>,
}

impl CheckpointLog {
    /// An empty, enabled shard numbering its updates from `seq_alloc`.
    fn new(seq_alloc: Arc<AtomicU64>) -> Self {
        CheckpointLog {
            entries: BTreeMap::new(),
            retired: Vec::new(),
            seq_alloc,
            seq_to_addr: HashMap::new(),
            tx_members: HashMap::new(),
            allocs: BTreeMap::new(),
            recovery_reads: ReadSet::default(),
            recovering: false,
            enabled: true,
            max_versions: MAX_VERSIONS,
            max_len: 0,
            stats: LogStats::default(),
            recorder: None,
        }
    }

    fn rec_add(&self, counter: &'static str, delta: u64) {
        if let Some(r) = &self.recorder {
            r.add(counter, delta);
        }
    }

    /// Appends one version. The sequence number is drawn while the shard
    /// lock is held, so per-address version order always equals seq order.
    fn record(&mut self, addr: u64, data: &[u8], tx_id: Option<u64>) {
        if !self.enabled {
            return;
        }
        let seq = self.seq_alloc.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.updates += 1;
        self.stats.bytes_logged += data.len() as u64;
        self.rec_add("log.updates", 1);
        self.rec_add("log.bytes_logged", data.len() as u64);
        self.max_len = self.max_len.max(data.len() as u64);
        self.seq_to_addr.insert(seq, addr);
        if let Some(tx) = tx_id {
            self.tx_members.entry(tx).or_default().push(seq);
        }
        let entry = self.entries.entry(addr).or_default();
        entry.versions.push_back(VersionData {
            seq,
            data: data.to_vec(),
            tx_id,
        });
        let mut rotated = 0u64;
        while entry.versions.len() > self.max_versions {
            let dropped = entry.versions.pop_front().expect("non-empty");
            self.seq_to_addr.remove(&dropped.seq);
            rotated += 1;
        }
        if rotated > 0 {
            self.stats.versions_rotated += rotated;
            self.rec_add("log.versions_rotated", rotated);
        }
    }

    fn on_alloc(&mut self, offset: u64, size: u64) {
        if !self.enabled {
            return;
        }
        // Reallocation chaining (§4.2): when a freed block's address is
        // handed out again, the previous incarnation's entry is retired to
        // the arena — its versions leave the seq maps, exactly as version
        // rotation drops them — and the fresh incarnation's entry links to
        // it through `old_entry`, so deep reversions can keep walking back
        // in time across the realloc.
        if self.allocs.get(&offset).is_some_and(|a| a.freed) {
            if let Some(old) = self.entries.remove(&offset) {
                for v in &old.versions {
                    self.seq_to_addr.remove(&v.seq);
                }
                let idx = self.retired.len();
                self.retired.push(old);
                self.stats.entries_retired += 1;
                self.rec_add("log.entries_retired", 1);
                self.entries.insert(
                    offset,
                    Entry {
                        versions: VecDeque::new(),
                        old_entry: Some(idx),
                    },
                );
            }
        }
        self.allocs
            .insert(offset, AllocRecord { size, freed: false });
    }

    /// Marks `offset`'s allocation record freed, if there is one.
    fn mark_freed(&mut self, offset: u64) {
        if let Some(rec) = self.allocs.get_mut(&offset) {
            rec.freed = true;
        }
    }

    /// Appends to `out`, in descending address order, `(entry_address,
    /// newest seq)` of every entry here that covers `addr`. `max_len` is
    /// the *store-wide* max data size, so each shard scans the window a
    /// single log would.
    fn covering_into(&self, addr: u64, max_len: u64, out: &mut Vec<(u64, u64)>) {
        // An entry at address `a` of max size `s` covers addr when
        // a <= addr < a + s. No entry's data is larger than `max_len`, so
        // every covering entry starts within `max_len - 1` bytes below
        // `addr` — an exact bound, unlike a fixed candidate count, which a
        // large entry hidden behind many small ones below `addr` escapes.
        let lo = addr.saturating_sub(max_len.saturating_sub(1));
        for (&a, e) in self.entries.range(lo..=addr).rev() {
            let max_size = e
                .versions
                .iter()
                .map(|v| v.data.len() as u64)
                .max()
                .unwrap_or(0);
            if a + max_size > addr {
                if let Some(latest) = e.versions.back() {
                    out.push((a, latest.seq));
                }
            }
        }
    }

    /// See [`LogView::data_at_depth`].
    fn data_at_depth(&self, addr: u64, depth: usize) -> Option<Vec<u8>> {
        let mut e = self.entries.get(&addr)?;
        let newest_len = self
            .chain(e)
            .find_map(|e| e.versions.back())
            .map(|v| v.data.len())?;
        let mut depth = depth;
        loop {
            let n = e.versions.len();
            if depth < n {
                return Some(e.versions[n - 1 - depth].data.clone());
            }
            depth -= n;
            match e.old_entry.and_then(|i| self.retired.get(i)) {
                Some(old) => e = old,
                None => return Some(vec![0; newest_len]),
            }
        }
    }

    /// The newest version of `addr` with `seq < cut` in any incarnation
    /// (following the `old_entry` chain of reallocated blocks) as `(seq,
    /// bytes)`, or `(0, zeros)` of the newest version's size when the
    /// address did not exist then. `None` when the address is not in the
    /// log.
    fn version_before(&self, addr: u64, cut: u64) -> Option<(u64, Vec<u8>)> {
        let e = self.entries.get(&addr)?;
        let newest_len = self
            .chain(e)
            .find_map(|e| e.versions.back())
            .map(|v| v.data.len())?;
        let hit = self
            .chain(e)
            .find_map(|inc| inc.versions.iter().rev().find(|v| v.seq < cut));
        Some(match hit {
            Some(v) => (v.seq, v.data.clone()),
            None => (0, vec![0; newest_len]),
        })
    }

    /// Iterates an entry and its previous incarnations, newest first.
    fn chain<'a>(&'a self, e: &'a Entry) -> impl Iterator<Item = &'a Entry> {
        std::iter::successors(Some(e), |e| e.old_entry.and_then(|i| self.retired.get(i)))
    }

    /// Collects the entries here that overlap `[addr, addr+len)` and were
    /// written after `my_seq` as `(seq, entry_addr, data)`; each
    /// contributes its newest version *below* `cut`, so the overlay set
    /// reconstructs the byte state as of the cut (`u64::MAX`: the live
    /// one). Entries start at persist range starts; an overlapping entry
    /// below `addr` starts within `max_len - 1` bytes of it — the same
    /// exact bound `covering_into` uses. (A fixed 64 KiB window here used
    /// to miss newer entries larger than 64 KiB that start below the
    /// window.)
    fn overlays_into<'a>(
        &'a self,
        addr: u64,
        len: u64,
        my_seq: u64,
        cut: u64,
        max_len: u64,
        out: &mut Vec<(u64, u64, &'a Vec<u8>)>,
    ) {
        let lo = addr.saturating_sub(max_len.saturating_sub(1));
        for (&a2, e2) in self.entries.range(lo..addr + len) {
            if a2 == addr {
                continue;
            }
            let Some(v2) = e2.versions.iter().rev().find(|v| v.seq < cut) else {
                continue;
            };
            if v2.seq <= my_seq {
                continue;
            }
            out.push((v2.seq, a2, &v2.data));
        }
    }
}

/// The set of `(offset, len)` ranges read inside recovery windows.
///
/// A recovery function reads the same ranges over and over (f1's
/// production run executes about a million PM loads inside one window) and
/// the leak diff only asks whether an allocation was touched, so a repeat
/// carries nothing. Arrivals are appended; a full buffer is sorted and
/// deduplicated, and grows only when that frees less than half of it — so
/// memory is bounded by the distinct ranges read, not by the reads.
#[derive(Default)]
struct ReadSet {
    ranges: Vec<(u64, u64)>,
}

impl ReadSet {
    /// Free entries a compaction leaves at least.
    const MIN_ROOM: usize = 512;

    fn insert(&mut self, range: (u64, u64)) {
        if self.ranges.len() == self.ranges.capacity() {
            self.ranges.sort_unstable();
            self.ranges.dedup();
            self.ranges
                .reserve_exact(self.ranges.len().max(Self::MIN_ROOM));
        }
        self.ranges.push(range);
    }
}

/// Copies each `(seq, entry_addr, data)` overlay's overlap with
/// `[addr, addr + buf.len())` into `buf`, in the order given.
fn apply_overlays(buf: &mut [u8], addr: u64, overlays: &[(u64, u64, &Vec<u8>)]) {
    let len = buf.len() as u64;
    for &(_, a2, data) in overlays {
        let l2 = data.len() as u64;
        // Overlap of [a2, a2+l2) with [addr, addr+len).
        let start = a2.max(addr);
        let end = (a2 + l2).min(addr + len);
        if start >= end {
            continue;
        }
        let dst = (start - addr) as usize;
        let src = (start - a2) as usize;
        let n = (end - start) as usize;
        buf[dst..dst + n].copy_from_slice(&data[src..src + n]);
    }
}

/// One entry with a retained version, as [`LogView::spans`] lists it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) addr: u64,
    /// `addr` plus the entry's largest retained size: the entry covers
    /// `[addr, end)`.
    pub(crate) end: u64,
    /// The newest version's seq and size, which is the size of the
    /// entry's `expected_current` bytes.
    pub(crate) seq: u64,
    pub(crate) len: u64,
}

/// The checkpoint store: address-sharded, seq-ordered, shared.
///
/// N shards behind their own mutexes share one atomic sequence allocator.
/// A durability event locks only the shard owning its address range (the
/// range's SplitMix64 hash), so writer threads touching disjoint regions
/// proceed in parallel; the sequence number is drawn from the shared
/// allocator *while the shard lock is held*, so per-address version order
/// always equals seq order and a single-threaded event stream is numbered
/// the same at every shard count. [`SharedLog::new`] is one shard — the
/// paper's single log.
///
/// Reads that need the whole log go through [`SharedLog::view`], which
/// locks every shard (in index order — the only multi-shard lock pattern,
/// so shards cannot deadlock against each other) and merges per-shard
/// results into one order: `covering` by descending address, overlays and
/// [`LogView::iter_merged`] by ascending seq.
///
/// Cloning is shallow: clones (and every [`SharedLog::as_sink`] handle)
/// share the shards and the allocator.
///
/// Poisoning: a panic on another thread while a shard lock is held — e.g.
/// a speculative re-execution fork dying mid-attempt — poisons that shard.
/// Mitigation is precisely the code that must keep running after such a
/// panic, and every shard mutation completes before its guard drops, so
/// the data behind a poisoned lock is still coherent. The one place a
/// shard mutex is taken therefore recovers poisoning;
/// [`SharedLog::is_poisoned`] reports it for diagnostics.
///
/// # Examples
///
/// ```
/// use arthas::SharedLog;
/// use pmemsim::PmSink;
///
/// let log = SharedLog::new();
/// log.on_persist(128, &1u64.to_le_bytes());
/// log.on_persist(128, &2u64.to_le_bytes());
/// // Reverting one version back recovers the previous durable value.
/// assert_eq!(log.view().data_at_depth(128, 1).unwrap(), 1u64.to_le_bytes());
/// ```
#[derive(Clone)]
pub struct SharedLog {
    shards: Arc<[Mutex<CheckpointLog>]>,
    seq: Arc<AtomicU64>,
}

/// Locks one shard, recovering from poisoning.
fn lock_shard(shard: &Mutex<CheckpointLog>) -> MutexGuard<'_, CheckpointLog> {
    shard
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SharedLog {
    /// Creates a fresh, enabled one-shard store.
    pub fn new() -> Self {
        SharedLog::sharded(1)
    }

    /// Creates a store with `n_shards` shards (clamped to at least 1),
    /// all enabled, sharing a fresh sequence allocator.
    pub fn sharded(n_shards: usize) -> Self {
        let seq = Arc::new(AtomicU64::new(0));
        let shards = (0..n_shards.max(1))
            .map(|_| Mutex::new(CheckpointLog::new(seq.clone())))
            .collect();
        SharedLog { shards, seq }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Locks every shard in turn (one at a time), recovering poisoning.
    fn each_shard(&self) -> impl Iterator<Item = MutexGuard<'_, CheckpointLog>> {
        self.shards.iter().map(lock_shard)
    }

    /// Locks the shard owning `addr`.
    fn owner(&self, addr: u64) -> MutexGuard<'_, CheckpointLog> {
        lock_shard(&self.shards[shard_index(addr, self.shards.len())])
    }

    /// Whether any shard mutex has been poisoned by a panicking holder.
    /// All store operations recover poisoning transparently; this is a
    /// diagnostic for tests and post-mortems.
    pub fn is_poisoned(&self) -> bool {
        self.shards.iter().any(|m| m.is_poisoned())
    }

    /// Locks every shard (in index order) and returns the merged,
    /// seq-ordered read view.
    ///
    /// The view holds all shard locks: never hold one across a pool write
    /// or persist, which would dispatch back into the sink and deadlock.
    pub fn view(&self) -> LogView<'_> {
        let shards: Vec<_> = self.each_shard().collect();
        // Loaded after every shard lock is held, so it covers every event
        // that completed before the view was taken.
        let latest = self.seq.load(Ordering::Relaxed);
        LogView { shards, latest }
    }

    /// The store as a sink handle for [`pmemsim::PmPool::set_sink`]: a
    /// shallow clone, so every pool it is attached to feeds these shards.
    pub fn as_sink(&self) -> Arc<dyn PmSink + Send + Sync> {
        Arc::new(self.clone())
    }

    /// Enables or disables recording on every shard.
    pub fn set_enabled(&self, enabled: bool) {
        for mut s in self.each_shard() {
            s.enabled = enabled;
        }
    }

    /// Sets the per-address version retention cap (clamped to at least 1)
    /// on every shard. Already-rotated versions are gone; raise the cap
    /// before the workload runs. Online servers should keep at least a
    /// couple of detection intervals' worth of history (see
    /// [`MAX_VERSIONS`]).
    pub fn set_max_versions(&self, n: usize) {
        for mut s in self.each_shard() {
            s.max_versions = n.max(1);
        }
    }

    /// Clears recorded recovery reads on every shard (before a fresh
    /// recovery run).
    pub fn clear_recovery_reads(&self) {
        for mut s in self.each_shard() {
            s.recovery_reads.ranges.clear();
        }
    }

    /// Marks an allocation freed by the reactor itself (leak mitigation),
    /// keeping the log consistent with the pool.
    pub fn note_reactor_free(&self, addr: u64) {
        self.owner(addr).mark_freed(addr);
    }

    /// Live allocations the last recovery never touched, across all
    /// shards (see [`LogView::suspected_leaks`]).
    pub fn suspected_leaks(&self) -> Vec<(u64, u64)> {
        self.view().suspected_leaks()
    }

    /// Total number of checkpointed PM updates over the store's lifetime
    /// (the denominator of the discarded-data metric).
    pub fn total_updates(&self) -> u64 {
        self.stats().updates
    }

    /// The largest sequence number issued so far.
    pub fn latest_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Aggregated lifetime counters over all shards.
    pub fn stats(&self) -> LogStats {
        self.each_shard()
            .map(|s| s.stats)
            .fold(LogStats::default(), LogStats::merge)
    }
}

impl Default for SharedLog {
    fn default() -> Self {
        SharedLog::new()
    }
}

impl PmSink for SharedLog {
    fn on_persist(&self, offset: u64, data: &[u8]) {
        self.owner(offset).record(offset, data, None);
    }

    fn on_tx_commit(&self, tx_id: u64, ranges: &[(u64, Vec<u8>)]) {
        // Deliver ranges in arrival order — seq assignment must not depend
        // on the shard count — but take each run of consecutive same-shard
        // ranges under one lock acquisition.
        let n = self.shards.len();
        for run in ranges.chunk_by(|a, b| shard_index(a.0, n) == shard_index(b.0, n)) {
            let mut shard = self.owner(run[0].0);
            for (off, data) in run {
                shard.record(*off, data, Some(tx_id));
            }
        }
    }

    fn on_alloc(&self, offset: u64, size: u64) {
        self.owner(offset).on_alloc(offset, size);
    }

    fn on_free(&self, offset: u64) {
        let mut shard = self.owner(offset);
        if shard.enabled {
            shard.mark_freed(offset);
        }
    }

    fn on_recover_begin(&self) {
        for mut s in self.each_shard() {
            s.recovering = true;
        }
    }

    fn on_recover_end(&self) {
        for mut s in self.each_shard() {
            s.recovering = false;
        }
    }

    fn on_recover_read(&self, offset: u64, len: u64) {
        let mut shard = self.owner(offset);
        if shard.recovering {
            shard.recovery_reads.insert((offset, len));
        }
    }
}

impl obs::Instrument for SharedLog {
    /// Attaches `recorder` to every shard, replacing any previously
    /// attached one — attaching twice must never duplicate counter
    /// streams (each shard holds exactly one recorder slot).
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        for mut s in self.each_shard() {
            s.recorder = Some(recorder.clone());
        }
    }

    fn uninstrument(&mut self) {
        for mut s in self.each_shard() {
            s.recorder = None;
        }
    }
}

/// The read API of a [`SharedLog`]: a merged, seq-ordered view over every
/// shard.
///
/// Holds all shard locks for its lifetime, so the view is a consistent
/// snapshot, and every answer is the one a single log would give — same
/// candidate windows (the scan bound is the *store-wide* max data size),
/// same result orders (`covering` descending by address, overlays and seq
/// lists ascending by seq), same zero-fill semantics through realloc
/// chains — whatever the shard count.
///
/// Do not hold a view across pool writes/persists: the pool would
/// dispatch into the sink and deadlock on the shard locks.
pub struct LogView<'a> {
    shards: Vec<MutexGuard<'a, CheckpointLog>>,
    latest: u64,
}

impl LogView<'_> {
    fn owner(&self, addr: u64) -> &CheckpointLog {
        &self.shards[shard_index(addr, self.shards.len())]
    }

    /// The store-wide scan bound: the largest data size any shard recorded.
    pub(crate) fn max_len(&self) -> u64 {
        self.shards.iter().map(|s| s.max_len).max().unwrap_or(0)
    }

    /// Every entry with a retained version, ascending by address: the
    /// entries [`LogView::covering`] scans, flattened once for a caller
    /// that asks many questions of a log that does not change.
    pub(crate) fn spans(&self) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .shards
            .iter()
            .flat_map(|s| &s.entries)
            .filter_map(|(&addr, e)| {
                let newest = e.versions.back()?;
                let size = e.versions.iter().map(|v| v.data.len() as u64).max()?;
                Some(Span {
                    addr,
                    end: addr + size,
                    seq: newest.seq,
                    len: newest.data.len() as u64,
                })
            })
            .collect();
        out.sort_unstable_by_key(|s| s.addr);
        out
    }

    /// Every retained version as `(seq, addr, bytes)`, ascending by seq —
    /// the merged checkpoint stream.
    pub fn iter_merged(&self) -> Vec<(u64, u64, &[u8])> {
        self.updates_since(0)
    }

    /// Retained versions with `seq > cursor` as `(seq, addr, bytes)`,
    /// ascending by seq — the replication wire format. A replica holding
    /// apply cursor `c` catches up by applying `updates_since(c)` in order
    /// and advancing its cursor to the last seq applied. Rotation means a
    /// long-lagging replica may not see every intermediate version of a
    /// hot address, but the newest retained version of each address is
    /// always present, so the caught-up image converges to the primary's
    /// durable bytes.
    pub fn updates_since(&self, cursor: u64) -> Vec<(u64, u64, &[u8])> {
        let mut out: Vec<(u64, u64, &[u8])> = Vec::new();
        for s in &self.shards {
            for (&a, e) in &s.entries {
                for v in &e.versions {
                    if v.seq > cursor {
                        out.push((v.seq, a, v.data.as_slice()));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|&(seq, _, _)| seq);
        out
    }

    /// Entries whose most recent version covers `addr` (used to join the
    /// dynamic PM trace with the log): `(entry_address, seq)` of the newest
    /// version of each covering entry, descending by address.
    pub fn covering(&self, addr: u64) -> Vec<(u64, u64)> {
        let max_len = self.max_len();
        let mut out = Vec::new();
        for s in &self.shards {
            s.covering_into(addr, max_len, &mut out);
        }
        // Each shard appends in descending address order; merge (addresses
        // are unique across shards).
        out.sort_unstable_by_key(|c| std::cmp::Reverse(c.0));
        out
    }

    /// `base` (the bytes of `addr`'s entry as of `my_seq`) overlaid with
    /// every overlapping entry's newest version below `cut` that is newer
    /// than `my_seq`, from every shard.
    fn overlaid(&self, addr: u64, my_seq: u64, mut base: Vec<u8>, cut: u64) -> Vec<u8> {
        let len = base.len() as u64;
        let max_len = self.max_len();
        let mut overlays: Vec<(u64, u64, &Vec<u8>)> = Vec::new();
        for s in &self.shards {
            s.overlays_into(addr, len, my_seq, cut, max_len, &mut overlays);
        }
        // Apply in seq order so where overlays themselves overlap, the
        // newest write wins — address-order application would make the
        // result depend on entry layout instead of update time. Seqs are
        // unique across shards, so this is the order one log would apply.
        overlays.sort_unstable_by_key(|&(seq, _, _)| seq);
        apply_overlays(&mut base, addr, &overlays);
        base
    }

    /// The bytes the durable pool *should* currently hold over the range
    /// of `addr`'s entry: the entry's newest version, overlaid with every
    /// newer overlapping entry's newest version. A mismatch with the
    /// actual pool contents means some write bypassed every durability
    /// point — the signature of external (hardware) corruption.
    pub fn expected_current(&self, addr: u64) -> Option<Vec<u8>> {
        let newest = self.entry(addr)?.versions.back()?;
        Some(self.overlaid(addr, newest.seq, newest.data.clone(), u64::MAX))
    }

    /// The bytes the durable pool should hold over `addr`'s entry range
    /// *as of just before global sequence `cut`*: the newest version with
    /// `seq < cut` (following the realloc chain, zeros when the address
    /// did not exist then), overlaid with every overlapping entry's
    /// newest version that is also below the cut. Rollback healing must
    /// use this form: after `rollback_to(cut)` the pool holds pre-cut
    /// state, so a divergence check against the *current* expectation
    /// would re-plant post-cut overlay bytes the rollback just reverted —
    /// and post-cut writes routinely live on *other* shards than `addr`.
    pub fn expected_before(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        let (my_seq, base) = self.owner(addr).version_before(addr, cut)?;
        Some(self.overlaid(addr, my_seq, base, cut))
    }

    /// The data an address held `depth` versions back from the newest
    /// (depth 1 = previous version). When a depth exceeds the current
    /// incarnation's history, the lookup continues through the `old_entry`
    /// chain into previous incarnations of a reallocated block (§4.2).
    /// Returns zeros of the newest version's size when every incarnation
    /// is exhausted — reverting to "before the object existed"
    /// (allocations are zero-filled). An address's history, realloc chain
    /// included, lives entirely on its owning shard.
    pub fn data_at_depth(&self, addr: u64, depth: usize) -> Option<Vec<u8>> {
        self.owner(addr).data_at_depth(addr, depth)
    }

    /// The state of `addr` just before global sequence number `cut`:
    /// newest version with `seq < cut` in any incarnation (following the
    /// `old_entry` chain of reallocated blocks), or zeros when the address
    /// did not exist then. `None` when the address is not in the log.
    pub fn data_before_seq(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        Some(self.owner(addr).version_before(addr, cut)?.1)
    }

    /// The entry for an exact address.
    pub fn entry(&self, addr: u64) -> Option<&Entry> {
        self.owner(addr).entries.get(&addr)
    }

    /// The address recorded under a sequence number.
    pub fn addr_of_seq(&self, seq: u64) -> Option<u64> {
        self.shards
            .iter()
            .find_map(|s| s.seq_to_addr.get(&seq).copied())
    }

    /// The transaction id (if any) of the version recorded under `seq`.
    pub fn tx_of_seq(&self, seq: u64) -> Option<u64> {
        let e = self.entry(self.addr_of_seq(seq)?)?;
        e.versions.iter().find(|v| v.seq == seq)?.tx_id
    }

    /// All sequence numbers belonging to transaction `tx`, ascending —
    /// a transaction's ranges may land on several shards.
    pub fn tx_seqs(&self, tx: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .filter_map(|s| s.tx_members.get(&tx))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// All sequence numbers in the log, ascending.
    pub fn all_seqs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.seq_to_addr.keys().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// All addresses with at least one version at `seq >= cut` (rollback
    /// victims for a time-based rollback to `cut`), ascending.
    pub fn addrs_touched_since(&self, cut: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| &s.entries)
            .filter(|(_, e)| e.versions.back().is_some_and(|v| v.seq >= cut))
            .map(|(&a, _)| a)
            .collect();
        out.sort_unstable();
        out
    }

    /// Live (never freed) allocations recorded by the log as `(address,
    /// size)`, ascending by address.
    pub fn live_allocs(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|s| &s.allocs)
            .filter(|(_, r)| !r.freed)
            .map(|(&a, r)| (a, r.size))
            .collect();
        out.sort_unstable();
        out
    }

    /// The distinct ranges read while the application's recovery function
    /// was active, sorted by address. Arrival order is shard-local and
    /// therefore not reconstructible, and only the overlap *set* matters
    /// to the leak diff, so the view reports the set, the same at every
    /// shard count.
    pub fn recovery_reads(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|s| s.recovery_reads.ranges.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Live allocations that the recovery function never touched: the
    /// suspected persistent leaks.
    pub fn suspected_leaks(&self) -> Vec<(u64, u64)> {
        let reads = self.recovery_reads();
        self.live_allocs()
            .into_iter()
            .filter(|(a, s)| !reads.iter().any(|(ra, rl)| *ra < a + s && *a < ra + rl))
            .collect()
    }

    /// The largest sequence number issued before the view was taken.
    pub fn latest_seq(&self) -> u64 {
        self.latest
    }

    /// Total checkpointed PM updates across all shards.
    pub fn total_updates(&self) -> u64 {
        self.stats().updates
    }

    /// Number of distinct checkpointed addresses across all shards.
    pub fn n_entries(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Aggregated lifetime counters over all shards.
    pub fn stats(&self) -> LogStats {
        self.shards
            .iter()
            .map(|s| s.stats)
            .fold(LogStats::default(), LogStats::merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_one_shard_store() {
        assert_eq!(SharedLog::default().n_shards(), SharedLog::new().n_shards());
    }

    #[test]
    fn versions_rotate_at_max() {
        let log = SharedLog::new();
        for i in 1..=5u64 {
            log.on_persist(100, &i.to_le_bytes());
        }
        let view = log.view();
        let e = view.entry(100).unwrap();
        assert_eq!(e.versions.len(), MAX_VERSIONS);
        assert_eq!(e.versions.back().unwrap().data, 5u64.to_le_bytes());
        assert_eq!(e.versions.front().unwrap().data, 3u64.to_le_bytes());
        assert_eq!(view.total_updates(), 5);
    }

    #[test]
    fn depth_and_seq_lookups() {
        let log = SharedLog::new();
        log.on_persist(64, &1u64.to_le_bytes());
        log.on_persist(64, &2u64.to_le_bytes());
        log.on_persist(64, &3u64.to_le_bytes());
        let view = log.view();
        assert_eq!(view.data_at_depth(64, 0).unwrap(), 3u64.to_le_bytes());
        assert_eq!(view.data_at_depth(64, 1).unwrap(), 2u64.to_le_bytes());
        assert_eq!(view.data_at_depth(64, 2).unwrap(), 1u64.to_le_bytes());
        // History exhausted: zeros.
        assert_eq!(view.data_at_depth(64, 3).unwrap(), vec![0; 8]);
        // Before seq 2 the address held version 1.
        assert_eq!(view.data_before_seq(64, 2).unwrap(), 1u64.to_le_bytes());
        assert_eq!(view.data_before_seq(64, 1).unwrap(), vec![0; 8]);
    }

    #[test]
    fn covering_finds_field_within_persist_range() {
        let log = SharedLog::new();
        log.on_persist(1000, &[7u8; 64]); // a 64-byte object persist
        let view = log.view();
        let hits = view.covering(1032); // field at +32
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1000);
        assert!(view.covering(2000).is_empty());
    }

    #[test]
    fn tx_commit_groups_members() {
        let log = SharedLog::new();
        log.on_tx_commit(9, &[(100, vec![1]), (200, vec![2])]);
        let view = log.view();
        let seqs = view.tx_seqs(9);
        assert_eq!(seqs.len(), 2);
        for s in seqs {
            assert_eq!(view.tx_of_seq(s), Some(9));
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SharedLog::new();
        log.set_enabled(false);
        log.on_persist(0, &[1]);
        log.on_alloc(10, 20);
        let view = log.view();
        assert_eq!(view.n_entries(), 0);
        assert!(view.live_allocs().is_empty());
    }

    #[test]
    fn leak_suspects_exclude_recovery_touched() {
        let log = SharedLog::new();
        log.on_alloc(100, 32);
        log.on_alloc(200, 32);
        log.on_alloc(300, 32);
        log.on_free(300);
        log.on_recover_begin();
        log.on_recover_read(100, 8);
        log.on_recover_end();
        let leaks = log.suspected_leaks();
        assert_eq!(leaks, vec![(200, 32)], "only the untouched live alloc");
    }

    #[test]
    fn recovery_reads_are_bounded_by_the_distinct_ranges_read() {
        let log = SharedLog::new();
        let capacity = || log.owner(0).recovery_reads.ranges.capacity();
        for a in 0..100u64 {
            log.on_alloc(a * 64, 32);
        }
        log.on_recover_begin();
        // A recovery loop: a million loads over 60 addresses.
        for i in 0..1_000_000u64 {
            log.on_recover_read((i % 60) * 64 + 8, 8);
        }
        log.on_recover_end();
        assert!(capacity() <= 2 * ReadSet::MIN_ROOM);
        let want: Vec<(u64, u64)> = (0..60).map(|a| (a * 64 + 8, 8)).collect();
        assert_eq!(log.view().recovery_reads(), want);
        let leaks: Vec<u64> = log.suspected_leaks().iter().map(|l| l.0 / 64).collect();
        assert_eq!(leaks, (60..100).collect::<Vec<_>>());

        // More distinct ranges than the buffer starts with: it grows to at
        // most twice what it has to hold.
        log.clear_recovery_reads();
        log.on_recover_begin();
        for i in 0..100_000u64 {
            log.on_recover_read((i % 5_000) * 8, 8);
        }
        assert!(capacity() <= 2 * 5_000 + ReadSet::MIN_ROOM);
        assert!(log.suspected_leaks().is_empty());
    }

    #[test]
    fn realloc_chains_old_incarnation() {
        let log = SharedLog::new();
        log.on_alloc(100, 8);
        log.on_persist(100, &1u64.to_le_bytes()); // seq 1
        log.on_persist(100, &2u64.to_le_bytes()); // seq 2
        log.on_free(100);
        log.on_alloc(100, 8); // same address handed out again
        log.on_persist(100, &9u64.to_le_bytes()); // seq 3

        // The live entry holds only the new incarnation's version and links
        // to the retired one instead of itself.
        let view = log.view();
        let e = view.entry(100).unwrap();
        assert_eq!(e.versions.len(), 1);
        let old = &view.owner(100).retired[e.old_entry.unwrap()];
        assert_eq!(old.versions.back().unwrap().data, 2u64.to_le_bytes());
        assert!(old.old_entry.is_none());

        // Depth lookups walk across the realloc boundary.
        assert_eq!(view.data_at_depth(100, 0).unwrap(), 9u64.to_le_bytes());
        assert_eq!(view.data_at_depth(100, 1).unwrap(), 2u64.to_le_bytes());
        assert_eq!(view.data_at_depth(100, 2).unwrap(), 1u64.to_le_bytes());
        assert_eq!(view.data_at_depth(100, 3).unwrap(), vec![0; 8]);
        // Seq lookups resolve through the chain too.
        assert_eq!(view.data_before_seq(100, 2).unwrap(), 1u64.to_le_bytes());
    }

    #[test]
    fn covering_finds_large_entry_behind_many_small_ones() {
        let log = SharedLog::new();
        // One large object followed by many small neighbours between it and
        // the queried address. The bounded scan must still report the large
        // entry whose range covers the query.
        log.on_persist(0, &[7u8; 8192]);
        for i in 0..120u64 {
            log.on_persist(4096 + i * 8, &i.to_le_bytes());
        }
        let hits = log.view().covering(5000);
        assert!(hits.iter().any(|&(a, _)| a == 0), "large entry missed");
        assert!(hits.iter().any(|&(a, _)| a == 5000));
    }

    #[test]
    fn expected_current_sees_overlay_larger_than_64k() {
        let log = SharedLog::new();
        // Older small entry, then a newer >64 KiB entry starting more than
        // 64 KiB below it that overlaps it. The old fixed 1<<16 window
        // missed the overlay entirely.
        let addr = 200_000u64;
        log.on_persist(addr, &[1u8; 8]); // seq 1
        let big_start = addr - 100_000;
        log.on_persist(big_start, &vec![9u8; 100_008]); // seq 2, covers addr..addr+8
        assert_eq!(log.view().expected_current(addr).unwrap(), vec![9u8; 8]);
    }

    #[test]
    fn log_stats_track_updates_rotations_and_retirements() {
        let log = SharedLog::new();
        for i in 1..=5u64 {
            log.on_persist(100, &i.to_le_bytes()); // 2 rotations past MAX_VERSIONS
        }
        log.on_alloc(100, 8);
        log.on_free(100);
        log.on_alloc(100, 8); // realloc retires the old incarnation
        let s = log.stats();
        assert_eq!(s.updates, 5);
        assert_eq!(s.bytes_logged, 40);
        assert_eq!(s.versions_rotated, 2);
        assert_eq!(s.entries_retired, 1);
        assert_eq!(log.view().n_entries(), 1);
    }

    #[test]
    fn rollback_victims_by_cut() {
        let log = SharedLog::new();
        log.on_persist(10, &[1]); // seq 1
        log.on_persist(20, &[2]); // seq 2
        log.on_persist(30, &[3]); // seq 3
        assert_eq!(log.view().addrs_touched_since(2), vec![20, 30]);
    }

    // ---- more than one shard ------------------------------------------------

    /// Addresses spread wide enough to land on different shards of a
    /// small shard count (4 KiB grain).
    fn spread(i: u64) -> u64 {
        1000 + i * 8192
    }

    #[test]
    fn sharded_seq_assignment_matches_single_log() {
        let single = SharedLog::new();
        let sharded = SharedLog::sharded(4);
        for i in 0..32u64 {
            let a = spread(i % 7);
            single.on_persist(a, &i.to_le_bytes());
            sharded.on_persist(a, &i.to_le_bytes());
        }
        let (view, single) = (sharded.view(), single.view());
        assert_eq!(view.all_seqs(), single.all_seqs());
        assert_eq!(view.total_updates(), single.total_updates());
        assert_eq!(view.latest_seq(), single.latest_seq());
        for i in 0..7 {
            let a = spread(i);
            assert_eq!(view.data_at_depth(a, 1), single.data_at_depth(a, 1));
            assert_eq!(view.expected_current(a), single.expected_current(a));
            assert_eq!(view.covering(a), single.covering(a));
        }
    }

    #[test]
    fn sharded_tx_commit_preserves_arrival_order_across_shards() {
        let single = SharedLog::new();
        let sharded = SharedLog::sharded(4);
        // Ranges deliberately ping-pong between different shards.
        let ranges: Vec<(u64, Vec<u8>)> = (0..8u64).map(|i| (spread(i), vec![i as u8])).collect();
        single.on_tx_commit(7, &ranges);
        sharded.on_tx_commit(7, &ranges);
        let (view, single) = (sharded.view(), single.view());
        assert_eq!(view.tx_seqs(7), single.tx_seqs(7));
        for s in view.all_seqs() {
            assert_eq!(view.addr_of_seq(s), single.addr_of_seq(s));
            assert_eq!(view.tx_of_seq(s), single.tx_of_seq(s));
        }
        let merged = view.iter_merged();
        let expect: Vec<(u64, u64)> = (0..8u64).map(|i| (i + 1, spread(i))).collect();
        assert_eq!(
            merged.iter().map(|&(s, a, _)| (s, a)).collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn sharded_leak_diff_spans_shards() {
        let sharded = SharedLog::sharded(4);
        sharded.on_alloc(spread(0), 32);
        sharded.on_alloc(spread(1), 32);
        sharded.on_alloc(spread(2), 32);
        sharded.on_free(spread(2));
        sharded.on_recover_begin();
        sharded.on_recover_read(spread(0), 8);
        sharded.on_recover_end();
        assert_eq!(sharded.suspected_leaks(), vec![(spread(1), 32)]);
        sharded.note_reactor_free(spread(1));
        assert!(sharded.suspected_leaks().is_empty());
    }

    #[test]
    fn sharded_disable_covers_every_shard() {
        let sharded = SharedLog::sharded(4);
        sharded.set_enabled(false);
        for i in 0..8u64 {
            sharded.on_persist(spread(i), &[1]);
        }
        assert_eq!(sharded.total_updates(), 0);
        sharded.set_enabled(true);
        sharded.on_persist(spread(0), &[1]);
        assert_eq!(sharded.total_updates(), 1);
    }

    #[test]
    fn as_sink_handles_share_the_shards() {
        let sharded = SharedLog::sharded(4);
        let s1 = sharded.as_sink();
        let s2 = sharded.as_sink();
        s1.on_persist(spread(0), &[1]);
        s2.on_persist(spread(1), &[2]);
        assert_eq!(sharded.total_updates(), 2);
        assert_eq!(sharded.latest_seq(), 2);
    }

    #[test]
    fn instrument_twice_replaces_counter_stream() {
        use obs::{Instrument, RingRecorder};
        let ring = Arc::new(RingRecorder::new(64));
        let mut sharded = SharedLog::sharded(4);
        sharded.instrument(ring.clone());
        // Re-attaching the same recorder must replace the slot, not stack
        // a second subscription that would double every counter.
        sharded.instrument(ring.clone());
        for i in 0..3u64 {
            sharded.on_persist(spread(i), &[0; 4]);
        }
        let counters = ring.counters();
        assert_eq!(counters.get("log.updates"), Some(&3));
        assert_eq!(counters.get("log.bytes_logged"), Some(&12));
    }

    #[test]
    fn shared_log_is_a_single_shard_sharded_log() {
        let log = SharedLog::new();
        assert_eq!(log.n_shards(), 1);
        log.as_sink().on_persist(64, &[9]);
        assert_eq!(log.total_updates(), 1);
        assert_eq!(log.view().iter_merged().len(), 1);
        // A clone is the same store, not a copy.
        log.clone().on_persist(72, &[9]);
        assert_eq!(log.latest_seq(), 2);
    }
}
