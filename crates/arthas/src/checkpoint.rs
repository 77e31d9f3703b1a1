//! Fine-grained, versioned checkpointing of PM state (§4.2 of the paper).
//!
//! The checkpoint log records every durable PM update at the granularity
//! the application itself chose (an explicit persist range, or each
//! snapshotted range of a committed transaction), keyed by address, with up
//! to [`MAX_VERSIONS`] old values per address and a global logical sequence
//! number — a direct transcription of the paper's Figure 5 entry layout.
//!
//! There is one store, [`SharedLog`]: one log behind one mutex, numbering
//! its updates from one counter drawn under that lock. It is a [`PmSink`],
//! so attaching [`SharedLog::as_sink`] to a pool is the moral equivalent
//! of linking the Arthas checkpoint library into the target binary.
//! Everything that reads the log — the reactor's candidate-list
//! computation (§4.4), the leak monitor's allocation diff (§4.7), the
//! baselines, the invariant oracle — goes through [`SharedLog::view`], a
//! [`LogView`] holding the lock.
//!
//! In the paper the log lives in a dedicated PM pool; here it is a
//! host-side structure owned by the driver, which survives simulated
//! restarts of the target exactly like a separate pool would.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

use pmemsim::{PmPool, PmSink};

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

/// One retained version of an address's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionData {
    /// Global logical sequence number of the update.
    pub seq: u64,
    /// The durable bytes after the update.
    pub data: Vec<u8>,
    /// Transaction that produced the update, if any.
    pub tx_id: Option<u64>,
}

/// The per-address checkpoint entry (paper Figure 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Entry {
    /// Retained versions, oldest first, newest last.
    pub versions: VecDeque<VersionData>,
    /// Index (into the log's retired-entry arena) of the entry this block
    /// accumulated in its *previous* incarnation, when the address was
    /// freed and reallocated (the paper's `old_entry` chaining).
    /// [`LogView::data_at_depth`], [`LogView::data_before_seq`] and
    /// [`LogView::expected_before`] walk the chain.
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

/// Allocation record for the leak-mitigation pass (§4.7).
#[derive(Clone, PartialEq, Eq)]
struct AllocRecord {
    /// Payload size.
    size: u64,
    /// Whether the block has been freed since.
    freed: bool,
}

/// The log behind a [`SharedLog`]'s mutex: entries, allocation records and
/// recovery reads. It records, rotates and retires; every query lives on
/// [`LogView`].
#[derive(Clone)]
struct CheckpointLog {
    entries: BTreeMap<u64, Entry>,
    /// Entries of freed-then-reallocated blocks, parked here so
    /// `old_entry` chains keep resolving (§4.2).
    retired: Vec<Entry>,
    /// The largest sequence number issued so far.
    seq: u64,
    seq_to_addr: HashMap<u64, u64>,
    tx_members: HashMap<u64, Vec<u64>>,
    allocs: BTreeMap<u64, AllocRecord>,
    recovery_reads: ReadSet,
    recovering: bool,
    /// When false the log ignores events (used while the reactor
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
    /// An empty, enabled log.
    fn new() -> Self {
        CheckpointLog {
            entries: BTreeMap::new(),
            retired: Vec::new(),
            seq: 0,
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

    /// Whether `other` holds the same state: entries, retired arena,
    /// sequence maps, allocation records, recovery reads (as a set),
    /// flags and counters. The recorder is not state.
    fn same_state(&self, other: &CheckpointLog) -> bool {
        let reads = |l: &CheckpointLog| {
            let mut r = l.recovery_reads.ranges.clone();
            r.sort_unstable();
            r.dedup();
            r
        };
        self.entries == other.entries
            && self.retired == other.retired
            && self.seq == other.seq
            && self.seq_to_addr == other.seq_to_addr
            && self.tx_members == other.tx_members
            && self.allocs == other.allocs
            && reads(self) == reads(other)
            && self.recovering == other.recovering
            && self.enabled == other.enabled
            && self.max_versions == other.max_versions
            && self.max_len == other.max_len
            && self.stats == other.stats
    }

    /// Appends one version under the next sequence number, so per-address
    /// version order always equals seq order.
    fn record(&mut self, addr: u64, data: &[u8], tx_id: Option<u64>) {
        if !self.enabled {
            return;
        }
        self.seq += 1;
        let seq = self.seq;
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

impl Clone for ReadSet {
    /// Keeps the capacity, which decides when the copy compacts next.
    fn clone(&self) -> Self {
        let mut ranges = Vec::with_capacity(self.ranges.capacity());
        ranges.extend_from_slice(&self.ranges);
        ReadSet { ranges }
    }
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

/// A sweep over the address line for [`LogView::spans`]: the bytes below
/// `at` are compared, and `live` holds the newest version of every entry
/// started at or below `at`, as `(seq, addr, bytes)`, newest on top: the
/// newest covering version owns a byte. Some may have ended; they leave
/// when they surface.
#[derive(Default)]
struct OwnerSweep<'a> {
    at: u64,
    live: BinaryHeap<(u64, u64, &'a [u8])>,
    /// The pool's bytes of the piece being compared, reused.
    buf: Vec<u8>,
}

impl OwnerSweep<'_> {
    /// Compares every byte in `[at, upto)` with its owner's, appending
    /// the runs that differ, and moves `at` to `upto`. No version starts
    /// inside the range, so its owner changes only where one ends.
    fn settle(&mut self, upto: u64, pool: &PmPool, runs: &mut Vec<Range<u64>>) {
        while self.at < upto {
            while self
                .live
                .peek()
                .is_some_and(|&(_, a, d)| a + d.len() as u64 <= self.at)
            {
                self.live.pop();
            }
            let Some(&(_, addr, data)) = self.live.peek() else {
                self.at = upto;
                return;
            };
            let (from, to) = (self.at, (addr + data.len() as u64).min(upto));
            let want = &data[(from - addr) as usize..(to - addr) as usize];
            self.buf.resize(want.len(), 0);
            if pool.peek_into(from, &mut self.buf).is_err() {
                runs.push(from..to);
            } else if self.buf != want {
                let differ = self
                    .buf
                    .iter()
                    .zip(want)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b);
                for (i, _) in differ {
                    let p = from + i as u64;
                    match runs.last_mut() {
                        Some(run) if run.end == p => run.end += 1,
                        _ => runs.push(p..p + 1),
                    }
                }
            }
            self.at = to;
        }
    }
}

/// The checkpoint store: one seq-ordered log behind one mutex, shared.
///
/// Every durability event takes the lock, draws the next sequence number
/// and appends, so per-address version order always equals seq order.
/// Reads go through [`SharedLog::view`], which holds the lock for the
/// view's lifetime.
///
/// Cloning is shallow: clones (and every [`SharedLog::as_sink`] handle)
/// share the one log.
///
/// Poisoning: a panic while the lock is held — e.g. a re-execution's
/// probe dying mid-attempt with a view open — poisons it.
/// Mitigation is precisely the code that must keep running after such a
/// panic, and every mutation completes before its guard drops, so the data
/// behind a poisoned lock is still coherent. The one place the mutex is
/// taken therefore recovers poisoning; [`SharedLog::is_poisoned`] reports
/// it for diagnostics.
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
    log: Arc<Mutex<CheckpointLog>>,
}

impl SharedLog {
    /// Creates a fresh, enabled store.
    pub fn new() -> Self {
        SharedLog {
            log: Arc::new(Mutex::new(CheckpointLog::new())),
        }
    }

    /// The same as [`SharedLog::new`]; the count is ignored. Kept only for
    /// its one caller, the benchmark's layer probe
    /// (`hfbench/src/layers.rs`).
    #[doc(hidden)]
    pub fn sharded(_n_shards: usize) -> Self {
        SharedLog::new()
    }

    /// Locks the log, recovering from poisoning.
    fn lock(&self) -> MutexGuard<'_, CheckpointLog> {
        self.log
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Whether the mutex has been poisoned by a panicking holder. All
    /// store operations recover poisoning transparently; this is a
    /// diagnostic for tests and post-mortems.
    pub fn is_poisoned(&self) -> bool {
        self.log.is_poisoned()
    }

    /// Locks the log and returns the read view.
    ///
    /// The view holds the lock: never hold one across a pool write or
    /// persist, which would dispatch back into the sink and deadlock.
    pub fn view(&self) -> LogView<'_> {
        LogView { log: self.lock() }
    }

    /// A new store holding a copy of this one's state (entries, allocation
    /// records, recovery reads, flags, counters and recorder): a deep
    /// clone, which the two then never share.
    pub fn fork(&self) -> SharedLog {
        SharedLog {
            log: Arc::new(Mutex::new(self.lock().clone())),
        }
    }

    /// Whether `other` holds the same state as this store (the recorder
    /// aside). Takes both locks, this store's first.
    pub fn same_state(&self, other: &SharedLog) -> bool {
        Arc::ptr_eq(&self.log, &other.log) || self.lock().same_state(&other.lock())
    }

    /// The store as a sink handle for [`pmemsim::PmPool::set_sink`]: a
    /// shallow clone, so every pool it is attached to feeds this log.
    pub fn as_sink(&self) -> Arc<dyn PmSink + Send + Sync> {
        Arc::new(self.clone())
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.lock().enabled = enabled;
    }

    /// Disables recording until the returned guard drops, which re-enables
    /// it — also when a re-execution panics through the holder, so a
    /// supervisor that catches the panic does not go on serving with
    /// checkpointing silently off.
    #[must_use = "recording resumes as soon as the guard drops"]
    pub fn pause(&self) -> LogPaused<'_> {
        self.set_enabled(false);
        LogPaused(self)
    }

    /// Sets the per-address version retention cap (clamped to at least
    /// 1). Already-rotated versions are gone; raise the cap before the
    /// workload runs. Online servers should keep at least a couple of
    /// detection intervals' worth of history (see [`MAX_VERSIONS`]).
    pub fn set_max_versions(&self, n: usize) {
        self.lock().max_versions = n.max(1);
    }

    /// Clears recorded recovery reads (before a fresh recovery run).
    pub fn clear_recovery_reads(&self) {
        self.lock().recovery_reads.ranges.clear();
    }

    /// Marks an allocation freed by the reactor itself (leak mitigation),
    /// keeping the log consistent with the pool.
    pub fn note_reactor_free(&self, addr: u64) {
        self.lock().mark_freed(addr);
    }

    /// Live allocations the last recovery never touched (see
    /// [`LogView::suspected_leaks`]).
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
        self.lock().seq
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LogStats {
        self.lock().stats
    }
}

/// A pause in a [`SharedLog`]'s recording, from [`SharedLog::pause`]; its
/// drop resumes it.
pub struct LogPaused<'l>(&'l SharedLog);

impl Drop for LogPaused<'_> {
    fn drop(&mut self) {
        self.0.set_enabled(true);
    }
}

impl Default for SharedLog {
    fn default() -> Self {
        SharedLog::new()
    }
}

impl PmSink for SharedLog {
    fn on_persist(&self, offset: u64, data: &[u8]) {
        self.lock().record(offset, data, None);
    }

    fn on_tx_commit(&self, tx_id: u64, ranges: &[(u64, Vec<u8>)]) {
        let mut log = self.lock();
        for (off, data) in ranges {
            log.record(*off, data, Some(tx_id));
        }
    }

    fn on_alloc(&self, offset: u64, size: u64) {
        self.lock().on_alloc(offset, size);
    }

    fn on_free(&self, offset: u64) {
        let mut log = self.lock();
        if log.enabled {
            log.mark_freed(offset);
        }
    }

    fn on_recover_begin(&self) {
        self.lock().recovering = true;
    }

    fn on_recover_end(&self) {
        self.lock().recovering = false;
    }

    fn on_recover_read(&self, offset: u64, len: u64) {
        let mut log = self.lock();
        if log.recovering {
            log.recovery_reads.insert((offset, len));
        }
    }

    /// A crash capture's log is this one as it stands at the boundary.
    fn on_capture(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(self.fork()))
    }
}

impl obs::Instrument for SharedLog {
    /// Attaches `recorder`, replacing any previously attached one —
    /// attaching twice must never duplicate counter streams (the log
    /// holds exactly one recorder slot).
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        self.lock().recorder = Some(recorder);
    }

    fn uninstrument(&mut self) {
        self.lock().recorder = None;
    }
}

/// The read API of a [`SharedLog`].
///
/// Holds the lock for its lifetime, so the view is a consistent snapshot.
/// Do not hold a view across pool writes/persists: the pool would
/// dispatch into the sink and deadlock on the lock.
pub struct LogView<'a> {
    log: MutexGuard<'a, CheckpointLog>,
}

impl LogView<'_> {
    /// The scan bound: the largest data size ever recorded.
    pub(crate) fn max_len(&self) -> u64 {
        self.log.max_len
    }

    /// Iterates an entry and its previous incarnations, newest first.
    fn chain<'a>(&'a self, e: &'a Entry) -> impl Iterator<Item = &'a Entry> {
        std::iter::successors(Some(e), |e| {
            e.old_entry.and_then(|i| self.log.retired.get(i))
        })
    }

    /// The size of `e`'s newest version in any incarnation.
    fn newest_len(&self, e: &Entry) -> Option<usize> {
        self.chain(e)
            .find_map(|e| e.versions.back())
            .map(|v| v.data.len())
    }

    /// Every entry with a retained version, ascending by address: the
    /// entries [`LogView::covering`] scans, flattened once for a caller
    /// that asks many questions of a log that does not change. With them,
    /// the byte runs where `pool` disagrees with the log, ascending.
    ///
    /// The log says what byte `p` should hold: the byte of the newest
    /// version of whichever entry with the largest newest seq covers `p`
    /// with that version — exactly what [`LogView::expected_current`]
    /// overlays at `p`. So an entry's `expected_current` differs from the
    /// pool iff its newest range meets a run this returns, and the sweep
    /// compares each byte once, against its one owner, instead of each
    /// entry against all of its overlays. The comparison peeks at the
    /// pool uncounted. A range that cannot be read is returned as a run,
    /// so the caller settles the entries over it the long way.
    pub(crate) fn spans(&self, pool: &PmPool) -> (Vec<Span>, Vec<Range<u64>>) {
        let mut spans = Vec::with_capacity(self.log.entries.len());
        let mut runs = Vec::new();
        let mut sweep = OwnerSweep::default();
        for (&addr, e) in &self.log.entries {
            let (Some(newest), Some(size)) = (
                e.versions.back(),
                e.versions.iter().map(|v| v.data.len() as u64).max(),
            ) else {
                continue;
            };
            sweep.settle(addr, pool, &mut runs);
            sweep.live.push((newest.seq, addr, &newest.data));
            spans.push(Span {
                addr,
                end: addr + size,
                seq: newest.seq,
                len: newest.data.len() as u64,
            });
        }
        sweep.settle(u64::MAX, pool, &mut runs);
        (spans, runs)
    }

    /// `(seq, addr)` of every retained version of every entry in
    /// [`LogView::spans`], previous incarnations included, ascending by
    /// seq: the addresses whose [`LogView::data_before_seq`] differs
    /// between two cuts are those with a version between them.
    pub(crate) fn version_seqs(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .log
            .entries
            .iter()
            .filter(|(_, e)| !e.versions.is_empty())
            .flat_map(|(&a, e)| {
                self.chain(e)
                    .flat_map(|inc| &inc.versions)
                    .map(move |v| (v.seq, a))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Every retained version as `(seq, addr, bytes)`, ascending by seq —
    /// the whole checkpoint stream.
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
        for (&a, e) in &self.log.entries {
            for v in &e.versions {
                if v.seq > cursor {
                    out.push((v.seq, a, v.data.as_slice()));
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
        // An entry at address `a` of max size `s` covers addr when
        // a <= addr < a + s. No entry's data is larger than `max_len`, so
        // every covering entry starts within `max_len - 1` bytes below
        // `addr` — an exact bound, unlike a fixed candidate count, which a
        // large entry hidden behind many small ones below `addr` escapes.
        let lo = addr.saturating_sub(self.log.max_len.saturating_sub(1));
        self.log
            .entries
            .range(lo..=addr)
            .rev()
            .filter_map(|(&a, e)| {
                let max_size = e.versions.iter().map(|v| v.data.len() as u64).max()?;
                let latest = e.versions.back()?;
                (a + max_size > addr).then_some((a, latest.seq))
            })
            .collect()
    }

    /// `base` (the bytes of `addr`'s entry as of `my_seq`) overlaid with
    /// every overlapping entry's newest version below `cut` (`u64::MAX`:
    /// the live one) that is newer than `my_seq`, so the result is the
    /// byte state as of the cut. Entries start at persist range starts; an
    /// overlapping entry below `addr` starts within `max_len - 1` bytes of
    /// it — the same exact bound `covering` uses; a fixed window would
    /// miss newer entries larger than it that start below the window.
    fn overlaid(&self, addr: u64, my_seq: u64, mut base: Vec<u8>, cut: u64) -> Vec<u8> {
        let len = base.len() as u64;
        let lo = addr.saturating_sub(self.log.max_len.saturating_sub(1));
        let mut overlays: Vec<(u64, u64, &Vec<u8>)> = self
            .log
            .entries
            .range(lo..addr + len)
            .filter(|&(&a2, _)| a2 != addr)
            .filter_map(|(&a2, e2)| {
                let v2 = e2.versions.iter().rev().find(|v| v.seq < cut)?;
                (v2.seq > my_seq).then_some((v2.seq, a2, &v2.data))
            })
            .collect();
        // Apply in seq order so where overlays themselves overlap, the
        // newest write wins — address-order application would make the
        // result depend on entry layout instead of update time.
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
    /// would re-plant post-cut overlay bytes the rollback just reverted.
    pub fn expected_before(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        let (my_seq, base) = self.version_before(addr, cut)?;
        Some(self.overlaid(addr, my_seq, base, cut))
    }

    /// The data an address held `depth` versions back from the newest
    /// (depth 1 = previous version). When a depth exceeds the current
    /// incarnation's history, the lookup continues through the `old_entry`
    /// chain into previous incarnations of a reallocated block (§4.2).
    /// Returns zeros of the newest version's size when every incarnation
    /// is exhausted — reverting to "before the object existed"
    /// (allocations are zero-filled).
    pub fn data_at_depth(&self, addr: u64, depth: usize) -> Option<Vec<u8>> {
        let e = self.entry(addr)?;
        let newest_len = self.newest_len(e)?;
        let mut depth = depth;
        for inc in self.chain(e) {
            let n = inc.versions.len();
            if depth < n {
                return Some(inc.versions[n - 1 - depth].data.clone());
            }
            depth -= n;
        }
        Some(vec![0; newest_len])
    }

    /// The newest version of `addr` with `seq < cut` in any incarnation
    /// (following the `old_entry` chain of reallocated blocks) as `(seq,
    /// bytes)`, or `(0, zeros)` of the newest version's size when the
    /// address did not exist then. `None` when the address is not in the
    /// log.
    fn version_before(&self, addr: u64, cut: u64) -> Option<(u64, Vec<u8>)> {
        let e = self.entry(addr)?;
        let newest_len = self.newest_len(e)?;
        let hit = self
            .chain(e)
            .find_map(|inc| inc.versions.iter().rev().find(|v| v.seq < cut));
        Some(match hit {
            Some(v) => (v.seq, v.data.clone()),
            None => (0, vec![0; newest_len]),
        })
    }

    /// The state of `addr` just before global sequence number `cut`:
    /// newest version with `seq < cut` in any incarnation (following the
    /// `old_entry` chain of reallocated blocks), or zeros when the address
    /// did not exist then. `None` when the address is not in the log.
    pub fn data_before_seq(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        Some(self.version_before(addr, cut)?.1)
    }

    /// The entry for an exact address.
    pub fn entry(&self, addr: u64) -> Option<&Entry> {
        self.log.entries.get(&addr)
    }

    /// The address recorded under a sequence number.
    pub fn addr_of_seq(&self, seq: u64) -> Option<u64> {
        self.log.seq_to_addr.get(&seq).copied()
    }

    /// The transaction id (if any) of the version recorded under `seq`.
    pub fn tx_of_seq(&self, seq: u64) -> Option<u64> {
        let e = self.entry(self.addr_of_seq(seq)?)?;
        e.versions.iter().find(|v| v.seq == seq)?.tx_id
    }

    /// All sequence numbers belonging to transaction `tx`, ascending.
    pub fn tx_seqs(&self, tx: u64) -> Vec<u64> {
        self.log.tx_members.get(&tx).cloned().unwrap_or_default()
    }

    /// All sequence numbers in the log, ascending.
    pub fn all_seqs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.log.seq_to_addr.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Live (never freed) allocations recorded by the log as `(address,
    /// size)`, ascending by address.
    pub fn live_allocs(&self) -> Vec<(u64, u64)> {
        self.log
            .allocs
            .iter()
            .filter(|(_, r)| !r.freed)
            .map(|(&a, r)| (a, r.size))
            .collect()
    }

    /// The distinct ranges read while the application's recovery function
    /// was active, sorted by address. Only the overlap *set* matters to
    /// the leak diff, so the view reports the set.
    pub fn recovery_reads(&self) -> Vec<(u64, u64)> {
        let mut out = self.log.recovery_reads.ranges.clone();
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
        self.log.seq
    }

    /// Total checkpointed PM updates.
    pub fn total_updates(&self) -> u64 {
        self.log.stats.updates
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LogStats {
        self.log.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(view.entry(0).is_none());
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
        let capacity = || log.lock().recovery_reads.ranges.capacity();
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
        let old = &view.log.retired[e.old_entry.unwrap()];
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
        assert!(log.view().entry(100).is_some());
    }

    #[test]
    fn rollback_victims_by_cut() {
        let log = SharedLog::new();
        log.on_persist(10, &[1]); // seq 1
        log.on_persist(20, &[2]); // seq 2
        log.on_persist(30, &[3]); // seq 3
        let view = log.view();
        let pool = PmPool::create(pmemsim::layout::HEAP_OFF + 4096).unwrap();
        let (spans, _) = view.spans(&pool);
        let victims = spans.iter().filter(|s| s.seq >= 2).map(|s| s.addr);
        assert_eq!(victims.collect::<Vec<_>>(), vec![20, 30]);
    }

    /// Addresses spread over several 4 KiB pages, in ascending order.
    fn spread(i: u64) -> u64 {
        1000 + i * 8192
    }

    #[test]
    fn tx_commit_numbers_ranges_in_arrival_order() {
        let log = SharedLog::new();
        // Arrival order is not address order: seqs follow arrival.
        let order = [3u64, 0, 6, 1, 7, 2, 5, 4];
        let ranges: Vec<(u64, Vec<u8>)> =
            order.iter().map(|&i| (spread(i), vec![i as u8])).collect();
        log.on_tx_commit(7, &ranges);
        let view = log.view();
        assert_eq!(view.tx_seqs(7), (1..=8).collect::<Vec<_>>());
        for (s, &i) in (1..).zip(&order) {
            assert_eq!(view.addr_of_seq(s), Some(spread(i)));
            assert_eq!(view.tx_of_seq(s), Some(7));
        }
        let merged = view.iter_merged();
        let expect: Vec<(u64, u64)> = (1..).zip(order.iter().map(|&i| spread(i))).collect();
        assert_eq!(
            merged.iter().map(|&(s, a, _)| (s, a)).collect::<Vec<_>>(),
            expect
        );
    }

    #[test]
    fn leak_diff_follows_reactor_frees() {
        let log = SharedLog::new();
        log.on_alloc(spread(0), 32);
        log.on_alloc(spread(1), 32);
        log.on_alloc(spread(2), 32);
        log.on_free(spread(2));
        log.on_recover_begin();
        log.on_recover_read(spread(0), 8);
        log.on_recover_end();
        assert_eq!(log.suspected_leaks(), vec![(spread(1), 32)]);
        log.note_reactor_free(spread(1));
        assert!(log.suspected_leaks().is_empty());
    }

    #[test]
    fn disable_then_enable_gates_recording() {
        let log = SharedLog::new();
        log.set_enabled(false);
        for i in 0..8u64 {
            log.on_persist(spread(i), &[1]);
        }
        assert_eq!(log.total_updates(), 0);
        log.set_enabled(true);
        log.on_persist(spread(0), &[1]);
        assert_eq!(log.total_updates(), 1);
    }

    #[test]
    fn as_sink_handles_and_clones_share_the_log() {
        let log = SharedLog::new();
        let s1 = log.as_sink();
        let s2 = log.as_sink();
        s1.on_persist(spread(0), &[1]);
        s2.on_persist(spread(1), &[2]);
        assert_eq!(log.total_updates(), 2);
        assert_eq!(log.latest_seq(), 2);
        // A clone is the same store, not a copy.
        log.clone().on_persist(spread(2), &[3]);
        assert_eq!(log.latest_seq(), 3);
        assert_eq!(log.view().iter_merged().len(), 3);
    }

    #[test]
    fn instrument_twice_replaces_counter_stream() {
        use obs::{Instrument, RingRecorder};
        let ring = Arc::new(RingRecorder::new(64));
        let mut log = SharedLog::new();
        log.instrument(ring.clone());
        // Re-attaching the same recorder must replace the slot, not stack
        // a second subscription that would double every counter.
        log.instrument(ring.clone());
        for i in 0..3u64 {
            log.on_persist(spread(i), &[0; 4]);
        }
        let counters = ring.counters();
        assert_eq!(counters.get("log.updates"), Some(&3));
        assert_eq!(counters.get("log.bytes_logged"), Some(&12));
    }
}
