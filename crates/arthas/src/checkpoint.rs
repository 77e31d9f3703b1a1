//! Fine-grained, versioned checkpointing of PM state (§4.2 of the paper).
//!
//! The checkpoint log records every durable PM update at the granularity
//! the application itself chose (an explicit persist range, or each
//! snapshotted range of a committed transaction), keyed by address, with up
//! to [`MAX_VERSIONS`] old values per address and a global logical sequence
//! number — a direct transcription of the paper's Figure 5 entry layout.
//!
//! Two stores share that entry layout:
//!
//! - [`CheckpointLog`] — the single-threaded store, unchanged since the
//!   first release. All invariants (version rotation, realloc chaining,
//!   the bounded `covering`/`expected_current` scans) live here.
//! - [`ShardedLog`] — an address-sharded concurrent store: N independent
//!   `CheckpointLog` shards behind their own mutexes, sharing one global
//!   [`AtomicU64`] sequence allocator. Durability events route to the
//!   shard owning their address range; reads go through a merged,
//!   seq-ordered [`LogView`] that reproduces the single-log read API
//!   byte-for-byte, so the reactor's candidate-list computation (§4.4)
//!   and the leak monitor's allocation diff (§4.7) are oblivious to the
//!   shard count.
//!
//! [`SharedLog`] remains as a shard-count-1 wrapper (deref-coercible to
//! [`ShardedLog`]) so existing call sites migrate mechanically; it is
//! kept for one release.
//!
//! Either store implements [`PmSink`], so attaching it to a pool is the
//! moral equivalent of linking the Arthas checkpoint library into the
//! target binary. In the paper the log lives in a dedicated PM pool; here
//! it is a host-side structure owned by the driver, which survives
//! simulated restarts of the target exactly like a separate pool would.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use pmemsim::PmSink;

/// Default number of retained versions per address (the paper's default).
/// Individual logs can retain more via [`CheckpointLog::set_max_versions`]:
/// offline campaigns detect faults at the crash site, so three versions
/// reach back far enough, but an online server detects lazily (every
/// `health_every` requests) and keeps writing in between — hot addresses
/// such as a store's item counter or bucket heads rotate their pre-fault
/// versions out of a 3-deep window before the detector fires, leaving
/// rollback nothing to restore to. Serving deployments must size retention
/// to at least a couple of detection intervals.
pub const MAX_VERSIONS: usize = 3;

/// Shard count used by [`ShardedLog::default`]. Eight shards keep the
/// per-shard mutexes uncontended up to the 16-writer workloads the
/// multi-threaded scenario drives while costing nothing at one writer.
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
    /// Index (into the log's retired-entry arena) of the entry this block
    /// accumulated in its *previous* incarnation, when the address was
    /// freed and reallocated (the paper's `old_entry` chaining). Resolve
    /// with [`CheckpointLog::retired_entry`].
    pub old_entry: Option<usize>,
}

/// Lifetime counters of a [`CheckpointLog`] (the paper's Table 4 "log
/// overhead" measurements are derived from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Checkpointed PM updates (same lifetime count as
    /// [`CheckpointLog::total_updates`]).
    pub updates: u64,
    /// Payload bytes appended to the log.
    pub bytes_logged: u64,
    /// Versions dropped because an address exceeded [`MAX_VERSIONS`].
    pub versions_rotated: u64,
    /// Entries parked in the retired arena by realloc chaining.
    pub entries_retired: u64,
}

impl LogStats {
    /// Field-wise sum, used to aggregate per-shard stats.
    fn merge(&mut self, other: LogStats) {
        self.updates += other.updates;
        self.bytes_logged += other.bytes_logged;
        self.versions_rotated += other.versions_rotated;
        self.entries_retired += other.entries_retired;
    }
}

/// Allocation record for the leak-mitigation pass (§4.7).
#[derive(Debug, Clone)]
pub struct AllocRecord {
    /// Payload size.
    pub size: u64,
    /// Sequence number at allocation time.
    pub seq: u64,
    /// Sequence number at free time, when freed.
    pub freed: Option<u64>,
}

/// The checkpoint log.
///
/// # Examples
///
/// ```
/// use arthas::CheckpointLog;
/// use pmemsim::PmSink;
///
/// let mut log = CheckpointLog::new();
/// log.on_persist(128, &1u64.to_le_bytes());
/// log.on_persist(128, &2u64.to_le_bytes());
/// // Reverting one version back recovers the previous durable value.
/// assert_eq!(log.data_at_depth(128, 1).unwrap(), 1u64.to_le_bytes());
/// ```
#[derive(Default)]
pub struct CheckpointLog {
    entries: BTreeMap<u64, Entry>,
    /// Entries of freed-then-reallocated blocks, parked here so
    /// `old_entry` chains keep resolving (§4.2).
    retired: Vec<Entry>,
    /// Largest sequence number issued *through this log*. Standalone logs
    /// allocate from it directly; shards of a [`ShardedLog`] allocate from
    /// the shared atomic and mirror the result here.
    seq: u64,
    /// Shared allocator installed by [`ShardedLog`]; `None` for a
    /// standalone log.
    seq_alloc: Option<Arc<AtomicU64>>,
    seq_to_addr: HashMap<u64, u64>,
    tx_members: HashMap<u64, Vec<u64>>,
    allocs: BTreeMap<u64, AllocRecord>,
    recovery_reads: ReadSet,
    recovering: bool,
    /// When false the sink ignores events (used while the reactor
    /// re-executes the target during mitigation, so reversion attempts do
    /// not rotate good versions out of the log).
    enabled: bool,
    /// Per-address version retention cap; [`MAX_VERSIONS`] unless raised
    /// with [`CheckpointLog::set_max_versions`] (0 is treated as the
    /// default so `Default`-constructed logs behave like `new`).
    max_versions: usize,
    total_updates: u64,
    /// Largest data size ever recorded; bounds the `covering` scan.
    max_len: u64,
    stats: LogStats,
    recorder: Option<Arc<dyn obs::Recorder>>,
}

impl CheckpointLog {
    /// Creates an empty, enabled log.
    pub fn new() -> Self {
        CheckpointLog {
            enabled: true,
            ..Default::default()
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the per-address version retention cap (clamped to at least 1).
    /// Already-rotated versions are gone; raise the cap before the
    /// workload runs. Online servers should keep at least a couple of
    /// detection intervals' worth of history (see [`MAX_VERSIONS`]).
    pub fn set_max_versions(&mut self, n: usize) {
        self.max_versions = n.max(1);
    }

    /// The per-address version retention cap currently in force.
    pub fn max_versions(&self) -> usize {
        if self.max_versions == 0 {
            MAX_VERSIONS
        } else {
            self.max_versions
        }
    }

    fn rec_add(&self, counter: &'static str, delta: u64) {
        if let Some(r) = &self.recorder {
            r.add(counter, delta);
        }
    }

    /// Lifetime counters of this log.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Iterates every live entry as `(address, entry)`, ascending.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u64, &Entry)> {
        self.entries.iter().map(|(&a, e)| (a, e))
    }

    /// Next sequence number (the atomic counter of the paper). When a
    /// shared allocator is installed the number is globally unique across
    /// every shard; the allocation happens under the owning shard's lock,
    /// so per-address version order always equals seq order.
    fn next_seq(&mut self) -> u64 {
        let seq = match &self.seq_alloc {
            Some(alloc) => alloc.fetch_add(1, Ordering::Relaxed) + 1,
            None => self.seq + 1,
        };
        self.seq = seq;
        seq
    }

    /// The latest sequence number issued anywhere: the shared allocator's
    /// value when installed, this log's own counter otherwise. Events
    /// that stamp "the current time" without consuming a number (alloc,
    /// free) use this, so their stamps are identical whether the log
    /// stands alone or shards a [`ShardedLog`].
    fn current_seq(&self) -> u64 {
        match &self.seq_alloc {
            Some(alloc) => alloc.load(Ordering::Relaxed),
            None => self.seq,
        }
    }

    /// The largest sequence number issued through this log.
    pub fn latest_seq(&self) -> u64 {
        self.seq
    }

    /// Total number of checkpointed PM updates over the log's lifetime
    /// (the denominator of the discarded-data metric).
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    /// Number of distinct checkpointed addresses.
    pub fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// The entry for an exact address.
    pub fn entry(&self, addr: u64) -> Option<&Entry> {
        self.entries.get(&addr)
    }

    /// The address recorded under a sequence number.
    pub fn addr_of_seq(&self, seq: u64) -> Option<u64> {
        self.seq_to_addr.get(&seq).copied()
    }

    /// All sequence numbers belonging to transaction `tx`.
    pub fn tx_seqs(&self, tx: u64) -> &[u64] {
        self.tx_members
            .get(&tx)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The transaction id (if any) of the version recorded under `seq`.
    pub fn tx_of_seq(&self, seq: u64) -> Option<u64> {
        let addr = self.addr_of_seq(seq)?;
        self.entries
            .get(&addr)?
            .versions
            .iter()
            .find(|v| v.seq == seq)
            .and_then(|v| v.tx_id)
    }

    fn record(&mut self, addr: u64, data: &[u8], tx_id: Option<u64>) {
        if !self.enabled {
            return;
        }
        let seq = self.next_seq();
        self.total_updates += 1;
        self.stats.updates += 1;
        self.stats.bytes_logged += data.len() as u64;
        self.rec_add("log.updates", 1);
        self.rec_add("log.bytes_logged", data.len() as u64);
        self.max_len = self.max_len.max(data.len() as u64);
        self.seq_to_addr.insert(seq, addr);
        if let Some(tx) = tx_id {
            self.tx_members.entry(tx).or_default().push(seq);
        }
        let cap = self.max_versions();
        let entry = self.entries.entry(addr).or_default();
        entry.versions.push_back(VersionData {
            seq,
            data: data.to_vec(),
            tx_id,
        });
        let mut rotated = 0u64;
        while entry.versions.len() > cap {
            let dropped = entry.versions.pop_front().expect("non-empty");
            self.seq_to_addr.remove(&dropped.seq);
            rotated += 1;
        }
        if rotated > 0 {
            self.stats.versions_rotated += rotated;
            self.rec_add("log.versions_rotated", rotated);
        }
    }

    /// Entries whose most recent version covers `addr` (used to join the
    /// dynamic PM trace with the log): returns `(entry_address, seq)` of
    /// the newest version of each covering entry.
    pub fn covering(&self, addr: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.covering_into(addr, self.max_len, &mut out);
        out
    }

    /// `covering` with a caller-supplied scan bound, appending to `out` in
    /// descending address order. [`LogView`] passes the *global* max data
    /// size so per-shard scans use the same window a single log would.
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

    /// The data an address held *before* the version `depth` steps back
    /// from the newest (depth 1 = previous version). When a depth exceeds
    /// the current incarnation's history, the lookup continues through the
    /// `old_entry` chain into previous incarnations of a reallocated block
    /// (§4.2). Returns zeros of the newest version's size when every
    /// incarnation is exhausted — reverting to "before the object existed"
    /// (allocations are zero-filled).
    pub fn data_at_depth(&self, addr: u64, depth: usize) -> Option<Vec<u8>> {
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

    /// The state of `addr` just before global sequence number `cut`:
    /// newest version with `seq < cut` in any incarnation (following the
    /// `old_entry` chain of reallocated blocks), or zeros when the address
    /// did not exist then. `None` when the address is not in the log.
    pub fn data_before_seq(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        let e = self.entries.get(&addr)?;
        let newest_len = self
            .chain(e)
            .find_map(|e| e.versions.back())
            .map(|v| v.data.len())
            .unwrap_or(0);
        for inc in self.chain(e) {
            if let Some(v) = inc.versions.iter().rev().find(|v| v.seq < cut) {
                return Some(v.data.clone());
            }
        }
        Some(vec![0; newest_len])
    }

    /// Iterates an entry and its previous incarnations, newest first.
    fn chain<'a>(&'a self, e: &'a Entry) -> impl Iterator<Item = &'a Entry> {
        std::iter::successors(Some(e), |e| e.old_entry.and_then(|i| self.retired.get(i)))
    }

    /// The retired entry at `idx` — the target of an [`Entry::old_entry`]
    /// link.
    pub fn retired_entry(&self, idx: usize) -> Option<&Entry> {
        self.retired.get(idx)
    }

    /// All addresses with at least one version at `seq >= cut` (rollback
    /// victims for a time-based rollback to `cut`).
    pub fn addrs_touched_since(&self, cut: u64) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|(_, e)| e.versions.back().map(|v| v.seq >= cut).unwrap_or(false))
            .map(|(a, _)| *a)
            .collect()
    }

    /// The bytes the durable pool *should* currently hold over the range
    /// of `addr`'s entry: the entry's newest version, overlaid with every
    /// newer overlapping entry's newest version. A mismatch with the
    /// actual pool contents means some write bypassed every durability
    /// point — the signature of external (hardware) corruption.
    pub fn expected_current(&self, addr: u64) -> Option<Vec<u8>> {
        let e = self.entries.get(&addr)?;
        let newest = e.versions.back()?;
        let my_seq = newest.seq;
        let mut buf = newest.data.clone();
        let len = buf.len() as u64;
        let mut overlays: Vec<(u64, u64, &Vec<u8>)> = Vec::new();
        self.overlays_into(addr, len, my_seq, self.max_len, &mut overlays);
        // Apply in seq order so where overlays themselves overlap, the
        // newest write wins — address-order application would make the
        // result depend on entry layout instead of update time.
        overlays.sort_unstable_by_key(|&(seq, _, _)| seq);
        apply_overlays(&mut buf, addr, &overlays);
        Some(buf)
    }

    /// The bytes the durable pool should hold over `addr`'s entry range
    /// *as of just before global sequence `cut`*: the newest version with
    /// `seq < cut` (following the realloc chain, zeros when the address
    /// did not exist then), overlaid with every overlapping entry's
    /// newest version that is also below the cut. `expected_current` is
    /// the `cut = u64::MAX` special case. Rollback healing must use this
    /// form: after `rollback_to(cut)` the pool holds pre-cut state, so a
    /// divergence check against the *current* expectation would re-plant
    /// post-cut overlay bytes the rollback just reverted.
    pub fn expected_before(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        let e = self.entries.get(&addr)?;
        let newest_len = self
            .chain(e)
            .find_map(|e| e.versions.back())
            .map(|v| v.data.len())?;
        let (my_seq, mut buf) = match self
            .chain(e)
            .find_map(|inc| inc.versions.iter().rev().find(|v| v.seq < cut))
        {
            Some(v) => (v.seq, v.data.clone()),
            None => (0, vec![0; newest_len]),
        };
        let len = buf.len() as u64;
        let mut overlays: Vec<(u64, u64, &Vec<u8>)> = Vec::new();
        self.overlays_before_into(addr, len, my_seq, cut, self.max_len, &mut overlays);
        overlays.sort_unstable_by_key(|&(seq, _, _)| seq);
        apply_overlays(&mut buf, addr, &overlays);
        Some(buf)
    }

    /// Collects newer overlapping entries over `[addr, addr+len)` as
    /// `(seq, entry_addr, data)`. Entries start at persist range starts;
    /// an overlapping entry below `addr` starts within `max_len - 1`
    /// bytes of it — the same exact bound `covering` uses. (A fixed
    /// 64 KiB window here used to miss newer entries larger than 64 KiB
    /// that start below the window.) [`LogView`] passes the global max
    /// data size and collects from every shard before applying.
    fn overlays_into<'a>(
        &'a self,
        addr: u64,
        len: u64,
        my_seq: u64,
        max_len: u64,
        out: &mut Vec<(u64, u64, &'a Vec<u8>)>,
    ) {
        let lo = addr.saturating_sub(max_len.saturating_sub(1));
        for (&a2, e2) in self.entries.range(lo..addr + len) {
            if a2 == addr {
                continue;
            }
            let Some(v2) = e2.versions.back() else {
                continue;
            };
            if v2.seq <= my_seq {
                continue;
            }
            out.push((v2.seq, a2, &v2.data));
        }
    }

    /// Cut-bounded sibling of [`CheckpointLog::overlays_into`]: each
    /// overlapping entry contributes its newest version *below* `cut`
    /// (not its absolute newest), so the overlay set reconstructs the
    /// pre-cut byte state instead of the live one.
    fn overlays_before_into<'a>(
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

    /// All sequence numbers in the log, ascending.
    pub fn all_seqs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.seq_to_addr.keys().copied().collect();
        v.sort_unstable();
        v
    }

    // ---- leak mitigation bookkeeping (§4.7) --------------------------------

    /// Live (never freed) allocations recorded by the log.
    pub fn live_allocs(&self) -> Vec<(u64, u64)> {
        self.allocs
            .iter()
            .filter(|(_, r)| r.freed.is_none())
            .map(|(a, r)| (*a, r.size))
            .collect()
    }

    /// Ranges read while the application's recovery function was active:
    /// every distinct `(offset, len)` at least once, in no particular order.
    pub fn recovery_reads(&self) -> &[(u64, u64)] {
        &self.recovery_reads.ranges
    }

    /// Clears the recorded recovery reads (before a fresh recovery run).
    pub fn clear_recovery_reads(&mut self) {
        self.recovery_reads.ranges.clear();
    }

    /// Live allocations that the recovery function never touched: the
    /// suspected persistent leaks.
    pub fn suspected_leaks(&self) -> Vec<(u64, u64)> {
        self.live_allocs()
            .into_iter()
            .filter(|(a, s)| {
                !self
                    .recovery_reads()
                    .iter()
                    .any(|(ra, rl)| ra < &(a + s) && *a < ra + rl)
            })
            .collect()
    }

    /// Marks an allocation freed by the reactor itself (leak mitigation),
    /// keeping the log consistent with the pool.
    pub fn note_reactor_free(&mut self, addr: u64) {
        let seq = self.current_seq();
        if let Some(rec) = self.allocs.get_mut(&addr) {
            rec.freed = Some(seq);
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

impl PmSink for CheckpointLog {
    fn on_persist(&mut self, offset: u64, data: &[u8]) {
        self.record(offset, data, None);
    }

    fn on_tx_commit(&mut self, tx_id: u64, ranges: &[(u64, Vec<u8>)]) {
        for (off, data) in ranges {
            self.record(*off, data, Some(tx_id));
        }
    }

    fn on_alloc(&mut self, offset: u64, size: u64) {
        if !self.enabled {
            return;
        }
        let seq = self.current_seq();
        // Reallocation chaining (§4.2): when a freed block's address is
        // handed out again, the previous incarnation's entry is retired to
        // the arena — its versions leave the seq maps, exactly as version
        // rotation drops them — and the fresh incarnation's entry links to
        // it through `old_entry`, so deep reversions can keep walking back
        // in time across the realloc.
        if let Some(prev) = self.allocs.get(&offset) {
            if prev.freed.is_some() {
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
        }
        self.allocs.insert(
            offset,
            AllocRecord {
                size,
                seq,
                freed: None,
            },
        );
    }

    fn on_free(&mut self, offset: u64) {
        if !self.enabled {
            return;
        }
        let seq = self.current_seq();
        if let Some(rec) = self.allocs.get_mut(&offset) {
            rec.freed = Some(seq);
        }
    }

    fn on_recover_begin(&mut self) {
        self.recovering = true;
    }

    fn on_recover_end(&mut self) {
        self.recovering = false;
    }

    fn on_recover_read(&mut self, offset: u64, len: u64) {
        if self.recovering {
            self.recovery_reads.insert((offset, len));
        }
    }
}

impl obs::Instrument for CheckpointLog {
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        self.recorder = Some(recorder);
    }

    fn uninstrument(&mut self) {
        self.recorder = None;
    }
}

/// An address-sharded, seq-ordered concurrent checkpoint store.
///
/// N independent [`CheckpointLog`] shards behind their own mutexes share
/// one global atomic sequence allocator. A durability event locks only
/// the shard owning its address range (the range's SplitMix64 hash), so
/// writer threads touching disjoint regions proceed in parallel; the
/// sequence number is drawn from the shared allocator *while the shard
/// lock is held*, so per-address version order always equals seq order
/// and a single-threaded event stream produces exactly the seqs a
/// [`CheckpointLog`] would.
///
/// Reads that need the whole log go through [`ShardedLog::view`], which
/// locks every shard (in index order — the only multi-shard lock pattern,
/// so shards cannot deadlock against each other) and merges per-shard
/// results back into the single-log orders: `covering` by descending
/// address, overlays and [`LogView::iter_merged`] by ascending seq.
///
/// Cloning is shallow: clones share the shards and the allocator. Each
/// [`ShardedLog::as_sink`] call wraps a fresh clone in its own outer
/// mutex, so every forked pool gets an uncontended sink handle and
/// cross-thread contention happens only on the shards themselves.
///
/// Poisoning: a panic on another thread while a shard lock is held — e.g.
/// a speculative re-execution fork dying mid-attempt — poisons that shard.
/// Mitigation is precisely the code that must keep running after such a
/// panic, and every shard mutation completes before its guard drops, so
/// the data behind a poisoned lock is still coherent. Every internal lock
/// therefore recovers poisoning; [`ShardedLog::is_poisoned`] reports it
/// for diagnostics.
#[derive(Clone)]
pub struct ShardedLog {
    shards: Arc<Vec<Mutex<CheckpointLog>>>,
    seq: Arc<AtomicU64>,
}

impl ShardedLog {
    /// Creates a store with `n_shards` shards (clamped to at least 1),
    /// all enabled, sharing a fresh sequence allocator.
    pub fn new(n_shards: usize) -> Self {
        let seq = Arc::new(AtomicU64::new(0));
        let shards = (0..n_shards.max(1))
            .map(|_| {
                let mut log = CheckpointLog::new();
                log.seq_alloc = Some(seq.clone());
                Mutex::new(log)
            })
            .collect();
        ShardedLog {
            shards: Arc::new(shards),
            seq,
        }
    }

    /// Wraps an existing log as the sole shard, continuing its sequence
    /// numbering.
    pub fn from_log(mut log: CheckpointLog) -> Self {
        let seq = Arc::new(AtomicU64::new(log.seq));
        log.seq_alloc = Some(seq.clone());
        ShardedLog {
            shards: Arc::new(vec![Mutex::new(log)]),
            seq,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `addr`.
    pub fn shard_of(&self, addr: u64) -> usize {
        shard_index(addr, self.shards.len())
    }

    /// Locks one shard, recovering from poisoning.
    fn shard(&self, idx: usize) -> MutexGuard<'_, CheckpointLog> {
        self.shards[idx]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Locks the shard owning `addr`, recovering from poisoning.
    fn owner(&self, addr: u64) -> MutexGuard<'_, CheckpointLog> {
        self.shard(self.shard_of(addr))
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
    /// or persist, which would dispatch back into the sink and deadlock —
    /// the same rule `SharedLog::lock` always had.
    pub fn view(&self) -> LogView<'_> {
        let shards: Vec<MutexGuard<'_, CheckpointLog>> = self
            .shards
            .iter()
            .map(|m| m.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
            .collect();
        // Loaded after every shard lock is held, so it covers every event
        // that completed before the view was taken.
        let latest = self.seq.load(Ordering::Relaxed);
        LogView { shards, latest }
    }

    /// A fresh sink handle for [`pmemsim::PmPool::set_sink`].
    ///
    /// Each call mints its own outer mutex around a shallow clone, so
    /// every pool (each writer thread forks its own) dispatches through
    /// an uncontended handle and serializes only on the shards.
    pub fn as_sink(&self) -> Arc<Mutex<dyn PmSink + Send>> {
        Arc::new(Mutex::new(self.clone()))
    }

    /// Enables or disables recording on every shard.
    pub fn set_enabled(&self, enabled: bool) {
        for i in 0..self.shards.len() {
            self.shard(i).set_enabled(enabled);
        }
    }

    /// Sets the per-address version retention cap on every shard (see
    /// [`CheckpointLog::set_max_versions`]).
    pub fn set_max_versions(&self, n: usize) {
        for i in 0..self.shards.len() {
            self.shard(i).set_max_versions(n);
        }
    }

    /// Clears recorded recovery reads on every shard (before a fresh
    /// recovery run).
    pub fn clear_recovery_reads(&self) {
        for i in 0..self.shards.len() {
            self.shard(i).clear_recovery_reads();
        }
    }

    /// Marks an allocation freed by the reactor itself (leak mitigation).
    pub fn note_reactor_free(&self, addr: u64) {
        self.owner(addr).note_reactor_free(addr);
    }

    /// Live allocations the last recovery never touched, across all
    /// shards (see [`CheckpointLog::suspected_leaks`]).
    pub fn suspected_leaks(&self) -> Vec<(u64, u64)> {
        self.view().suspected_leaks()
    }

    /// Total checkpointed PM updates across all shards.
    pub fn total_updates(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.shard(i).total_updates())
            .sum()
    }

    /// The largest sequence number issued so far.
    pub fn latest_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Aggregated lifetime counters over all shards.
    pub fn stats(&self) -> LogStats {
        let mut out = LogStats::default();
        for i in 0..self.shards.len() {
            out.merge(self.shard(i).stats());
        }
        out
    }

    /// Number of distinct checkpointed addresses across all shards.
    pub fn n_entries(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).n_entries())
            .sum()
    }
}

impl Default for ShardedLog {
    fn default() -> Self {
        ShardedLog::new(DEFAULT_SHARDS)
    }
}

impl PmSink for ShardedLog {
    fn on_persist(&mut self, offset: u64, data: &[u8]) {
        self.owner(offset).on_persist(offset, data);
    }

    fn on_tx_commit(&mut self, tx_id: u64, ranges: &[(u64, Vec<u8>)]) {
        // Deliver ranges in arrival order — seq assignment must match the
        // single-log store exactly — but batch consecutive same-shard runs
        // under one lock acquisition.
        let mut i = 0;
        while i < ranges.len() {
            let s = self.shard_of(ranges[i].0);
            let mut j = i + 1;
            while j < ranges.len() && self.shard_of(ranges[j].0) == s {
                j += 1;
            }
            self.shard(s).on_tx_commit(tx_id, &ranges[i..j]);
            i = j;
        }
    }

    fn on_alloc(&mut self, offset: u64, size: u64) {
        self.owner(offset).on_alloc(offset, size);
    }

    fn on_free(&mut self, offset: u64) {
        self.owner(offset).on_free(offset);
    }

    fn on_recover_begin(&mut self) {
        for i in 0..self.shards.len() {
            self.shard(i).on_recover_begin();
        }
    }

    fn on_recover_end(&mut self) {
        for i in 0..self.shards.len() {
            self.shard(i).on_recover_end();
        }
    }

    fn on_recover_read(&mut self, offset: u64, len: u64) {
        self.owner(offset).on_recover_read(offset, len);
    }
}

impl obs::Instrument for ShardedLog {
    /// Attaches `recorder` to every shard, replacing any previously
    /// attached one — attaching twice must never duplicate counter
    /// streams (each shard holds exactly one recorder slot).
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        for i in 0..self.shards.len() {
            self.shard(i).recorder = Some(recorder.clone());
        }
    }

    fn uninstrument(&mut self) {
        for i in 0..self.shards.len() {
            self.shard(i).recorder = None;
        }
    }
}

/// A merged, seq-ordered read view over every shard of a [`ShardedLog`].
///
/// Holds all shard locks for its lifetime, so the view is a consistent
/// snapshot; every query reproduces the corresponding
/// [`CheckpointLog`] method byte-for-byte — same candidate windows (the
/// scan bound is the *global* max data size), same result orders
/// (`covering` descending by address, overlays and seq lists ascending
/// by seq), same zero-fill semantics through realloc chains.
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

    /// The global scan bound: the largest data size any shard recorded.
    fn max_len(&self) -> u64 {
        self.shards.iter().map(|s| s.max_len).max().unwrap_or(0)
    }

    /// Number of shards under the view.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard update counts, in shard-index order. The distribution
    /// is the store's serialization profile: a single-lock store funnels
    /// the sum through one mutex, a sharded store at most the maximum
    /// through any one — an Amdahl bound independent of the host's core
    /// count.
    pub fn shard_updates(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.total_updates()).collect()
    }

    /// Every retained version across all shards as `(seq, addr, bytes)`,
    /// ascending by seq — the merged checkpoint stream.
    pub fn iter_merged(&self) -> Vec<(u64, u64, &[u8])> {
        let mut out: Vec<(u64, u64, &[u8])> = Vec::new();
        for s in &self.shards {
            for (&a, e) in &s.entries {
                for v in &e.versions {
                    out.push((v.seq, a, v.data.as_slice()));
                }
            }
        }
        out.sort_unstable_by_key(|&(seq, _, _)| seq);
        out
    }

    /// Retained versions with `seq > cursor` across all shards as
    /// `(seq, addr, bytes)`, ascending by seq — the replication wire
    /// format. A replica holding apply cursor `c` catches up by applying
    /// `updates_since(c)` in order and advancing its cursor to the last
    /// seq applied. Rotation means a long-lagging replica may not see
    /// every intermediate version of a hot address, but the newest
    /// retained version of each address is always present, so the
    /// caught-up image converges to the primary's durable bytes.
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

    /// See [`CheckpointLog::covering`].
    pub fn covering(&self, addr: u64) -> Vec<(u64, u64)> {
        let max_len = self.max_len();
        let mut out = Vec::new();
        for s in &self.shards {
            s.covering_into(addr, max_len, &mut out);
        }
        // Each shard appends in descending address order; merge back into
        // the single-log order (addresses are unique across shards).
        out.sort_unstable_by_key(|c| std::cmp::Reverse(c.0));
        out
    }

    /// See [`CheckpointLog::expected_current`].
    pub fn expected_current(&self, addr: u64) -> Option<Vec<u8>> {
        let own = self.owner(addr);
        let e = own.entries.get(&addr)?;
        let newest = e.versions.back()?;
        let my_seq = newest.seq;
        let mut buf = newest.data.clone();
        let len = buf.len() as u64;
        let max_len = self.max_len();
        let mut overlays: Vec<(u64, u64, &Vec<u8>)> = Vec::new();
        for s in &self.shards {
            s.overlays_into(addr, len, my_seq, max_len, &mut overlays);
        }
        // Seqs are globally unique, so the merged overlay order is the
        // exact order a single log would apply.
        overlays.sort_unstable_by_key(|&(seq, _, _)| seq);
        apply_overlays(&mut buf, addr, &overlays);
        Some(buf)
    }

    /// See [`CheckpointLog::expected_before`]. The base version comes
    /// from the owning shard; cut-bounded overlays are merged from every
    /// shard — post-cut writes routinely live on *other* shards, which
    /// is exactly what an un-bounded overlay pass gets wrong after a
    /// rollback.
    pub fn expected_before(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        let own = self.owner(addr);
        let e = own.entries.get(&addr)?;
        let newest_len = own
            .chain(e)
            .find_map(|e| e.versions.back())
            .map(|v| v.data.len())?;
        let (my_seq, mut buf) = match own
            .chain(e)
            .find_map(|inc| inc.versions.iter().rev().find(|v| v.seq < cut))
        {
            Some(v) => (v.seq, v.data.clone()),
            None => (0, vec![0; newest_len]),
        };
        let len = buf.len() as u64;
        let max_len = self.max_len();
        let mut overlays: Vec<(u64, u64, &Vec<u8>)> = Vec::new();
        for s in &self.shards {
            s.overlays_before_into(addr, len, my_seq, cut, max_len, &mut overlays);
        }
        overlays.sort_unstable_by_key(|&(seq, _, _)| seq);
        apply_overlays(&mut buf, addr, &overlays);
        Some(buf)
    }

    /// See [`CheckpointLog::data_at_depth`] — an address's history
    /// (including its realloc chain) lives entirely on its owning shard.
    pub fn data_at_depth(&self, addr: u64, depth: usize) -> Option<Vec<u8>> {
        self.owner(addr).data_at_depth(addr, depth)
    }

    /// See [`CheckpointLog::data_before_seq`].
    pub fn data_before_seq(&self, addr: u64, cut: u64) -> Option<Vec<u8>> {
        self.owner(addr).data_before_seq(addr, cut)
    }

    /// See [`CheckpointLog::entry`].
    pub fn entry(&self, addr: u64) -> Option<&Entry> {
        self.owner(addr).entry(addr)
    }

    /// See [`CheckpointLog::addr_of_seq`].
    pub fn addr_of_seq(&self, seq: u64) -> Option<u64> {
        self.shards.iter().find_map(|s| s.addr_of_seq(seq))
    }

    /// See [`CheckpointLog::tx_of_seq`].
    pub fn tx_of_seq(&self, seq: u64) -> Option<u64> {
        let addr = self.addr_of_seq(seq)?;
        self.owner(addr).tx_of_seq(seq)
    }

    /// All sequence numbers belonging to transaction `tx`, ascending —
    /// a transaction's ranges may land on several shards.
    pub fn tx_seqs(&self, tx: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.tx_seqs(tx).iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// See [`CheckpointLog::all_seqs`].
    pub fn all_seqs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.seq_to_addr.keys().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// See [`CheckpointLog::addrs_touched_since`] (ascending by address).
    pub fn addrs_touched_since(&self, cut: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.addrs_touched_since(cut))
            .collect();
        out.sort_unstable();
        out
    }

    /// Every live entry as `(address, entry)`, ascending by address.
    pub fn iter_entries(&self) -> Vec<(u64, &Entry)> {
        let mut out: Vec<(u64, &Entry)> = self
            .shards
            .iter()
            .flat_map(|s| s.entries.iter().map(|(&a, e)| (a, e)))
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// See [`CheckpointLog::live_allocs`] (ascending by address).
    pub fn live_allocs(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.shards.iter().flat_map(|s| s.live_allocs()).collect();
        out.sort_unstable();
        out
    }

    /// The distinct recovery-read ranges across all shards, sorted by
    /// address. Arrival order is shard-local and therefore not
    /// reconstructible, and only the overlap *set* matters to the leak
    /// diff, so the merged view reports the set, the same at every shard
    /// count.
    pub fn recovery_reads(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|s| s.recovery_reads().iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// See [`CheckpointLog::suspected_leaks`] — live allocations from
    /// every shard diffed against recovery reads from every shard.
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
        self.shards.iter().map(|s| s.total_updates()).sum()
    }

    /// Number of distinct checkpointed addresses across all shards.
    pub fn n_entries(&self) -> usize {
        self.shards.iter().map(|s| s.n_entries()).sum()
    }

    /// Aggregated lifetime counters over all shards.
    pub fn stats(&self) -> LogStats {
        let mut out = LogStats::default();
        for s in &self.shards {
            out.merge(s.stats());
        }
        out
    }
}

/// The shard-count-1 compatibility wrapper around [`ShardedLog`].
///
/// Kept for one release so existing call sites migrate mechanically:
/// `&SharedLog` deref-coerces to `&ShardedLog` everywhere the reactor and
/// baselines now expect the sharded store, and [`SharedLog::lock`] still
/// hands out the single shard's guard (it panics on a multi-shard store,
/// where no single guard can represent the log — use
/// [`ShardedLog::view`]).
#[derive(Clone, Default)]
pub struct SharedLog(ShardedLog);

impl SharedLog {
    /// Creates a handle to a fresh, enabled single-shard log.
    pub fn new() -> Self {
        SharedLog(ShardedLog::new(1))
    }

    /// Creates a handle over an `n_shards`-way [`ShardedLog`] — the
    /// bridge for call sites that still name `SharedLog` but want the
    /// concurrent store underneath.
    pub fn sharded(n_shards: usize) -> Self {
        SharedLog(ShardedLog::new(n_shards))
    }

    /// Wraps an existing log.
    pub fn from_log(log: CheckpointLog) -> Self {
        SharedLog(ShardedLog::from_log(log))
    }

    /// Locks the log, recovering from a poisoned mutex.
    ///
    /// # Panics
    ///
    /// On a multi-shard store (from [`SharedLog::sharded`]), where a
    /// single shard guard cannot represent the whole log.
    pub fn lock(&self) -> MutexGuard<'_, CheckpointLog> {
        assert_eq!(
            self.0.n_shards(),
            1,
            "SharedLog::lock is only exact on a single shard; use view()"
        );
        self.0.shard(0)
    }
}

impl Deref for SharedLog {
    type Target = ShardedLog;

    fn deref(&self) -> &ShardedLog {
        &self.0
    }
}

impl From<CheckpointLog> for SharedLog {
    fn from(log: CheckpointLog) -> Self {
        SharedLog::from_log(log)
    }
}

impl obs::Instrument for SharedLog {
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        obs::Instrument::instrument(&mut self.0, recorder);
    }

    fn uninstrument(&mut self) {
        obs::Instrument::uninstrument(&mut self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_rotate_at_max() {
        let mut log = CheckpointLog::new();
        for i in 1..=5u64 {
            log.on_persist(100, &i.to_le_bytes());
        }
        let e = log.entry(100).unwrap();
        assert_eq!(e.versions.len(), MAX_VERSIONS);
        assert_eq!(e.versions.back().unwrap().data, 5u64.to_le_bytes());
        assert_eq!(e.versions.front().unwrap().data, 3u64.to_le_bytes());
        assert_eq!(log.total_updates(), 5);
    }

    #[test]
    fn depth_and_seq_lookups() {
        let mut log = CheckpointLog::new();
        log.on_persist(64, &1u64.to_le_bytes());
        log.on_persist(64, &2u64.to_le_bytes());
        log.on_persist(64, &3u64.to_le_bytes());
        assert_eq!(log.data_at_depth(64, 0).unwrap(), 3u64.to_le_bytes());
        assert_eq!(log.data_at_depth(64, 1).unwrap(), 2u64.to_le_bytes());
        assert_eq!(log.data_at_depth(64, 2).unwrap(), 1u64.to_le_bytes());
        // History exhausted: zeros.
        assert_eq!(log.data_at_depth(64, 3).unwrap(), vec![0; 8]);
        // Before seq 2 the address held version 1.
        assert_eq!(log.data_before_seq(64, 2).unwrap(), 1u64.to_le_bytes());
        assert_eq!(log.data_before_seq(64, 1).unwrap(), vec![0; 8]);
    }

    #[test]
    fn covering_finds_field_within_persist_range() {
        let mut log = CheckpointLog::new();
        log.on_persist(1000, &[7u8; 64]); // a 64-byte object persist
        let hits = log.covering(1032); // field at +32
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1000);
        assert!(log.covering(2000).is_empty());
    }

    #[test]
    fn tx_commit_groups_members() {
        let mut log = CheckpointLog::new();
        log.on_tx_commit(9, &[(100, vec![1]), (200, vec![2])]);
        let seqs = log.tx_seqs(9).to_vec();
        assert_eq!(seqs.len(), 2);
        for s in seqs {
            assert_eq!(log.tx_of_seq(s), Some(9));
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = CheckpointLog::new();
        log.set_enabled(false);
        log.on_persist(0, &[1]);
        log.on_alloc(10, 20);
        assert_eq!(log.n_entries(), 0);
        assert!(log.live_allocs().is_empty());
    }

    #[test]
    fn leak_suspects_exclude_recovery_touched() {
        let mut log = CheckpointLog::new();
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
        let mut log = CheckpointLog::new();
        for a in 0..100u64 {
            log.on_alloc(a * 64, 32);
        }
        log.on_recover_begin();
        // A recovery loop: a million loads over 60 addresses.
        for i in 0..1_000_000u64 {
            log.on_recover_read((i % 60) * 64 + 8, 8);
        }
        log.on_recover_end();
        assert!(log.recovery_reads.ranges.capacity() <= 2 * ReadSet::MIN_ROOM);
        let mut distinct = log.recovery_reads().to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let want: Vec<(u64, u64)> = (0..60).map(|a| (a * 64 + 8, 8)).collect();
        assert_eq!(distinct, want);
        let leaks: Vec<u64> = log.suspected_leaks().iter().map(|l| l.0 / 64).collect();
        assert_eq!(leaks, (60..100).collect::<Vec<_>>());

        // More distinct ranges than the buffer starts with: it grows to at
        // most twice what it has to hold.
        log.clear_recovery_reads();
        log.on_recover_begin();
        for i in 0..100_000u64 {
            log.on_recover_read((i % 5_000) * 8, 8);
        }
        assert!(log.recovery_reads.ranges.capacity() <= 2 * 5_000 + ReadSet::MIN_ROOM);
        assert!(log.suspected_leaks().is_empty());
    }

    #[test]
    fn realloc_chains_old_incarnation() {
        let mut log = CheckpointLog::new();
        log.on_alloc(100, 8);
        log.on_persist(100, &1u64.to_le_bytes()); // seq 1
        log.on_persist(100, &2u64.to_le_bytes()); // seq 2
        log.on_free(100);
        log.on_alloc(100, 8); // same address handed out again
        log.on_persist(100, &9u64.to_le_bytes()); // seq 3

        // The live entry holds only the new incarnation's version and links
        // to the retired one instead of itself.
        let e = log.entry(100).unwrap();
        assert_eq!(e.versions.len(), 1);
        let old = log.retired_entry(e.old_entry.unwrap()).unwrap();
        assert_eq!(old.versions.back().unwrap().data, 2u64.to_le_bytes());
        assert!(old.old_entry.is_none());

        // Depth lookups walk across the realloc boundary.
        assert_eq!(log.data_at_depth(100, 0).unwrap(), 9u64.to_le_bytes());
        assert_eq!(log.data_at_depth(100, 1).unwrap(), 2u64.to_le_bytes());
        assert_eq!(log.data_at_depth(100, 2).unwrap(), 1u64.to_le_bytes());
        assert_eq!(log.data_at_depth(100, 3).unwrap(), vec![0; 8]);
        // Seq lookups resolve through the chain too.
        assert_eq!(log.data_before_seq(100, 2).unwrap(), 1u64.to_le_bytes());
    }

    #[test]
    fn covering_finds_large_entry_behind_many_small_ones() {
        let mut log = CheckpointLog::new();
        // One large object followed by many small neighbours between it and
        // the queried address. The bounded scan must still report the large
        // entry whose range covers the query.
        log.on_persist(0, &[7u8; 8192]);
        for i in 0..120u64 {
            log.on_persist(4096 + i * 8, &i.to_le_bytes());
        }
        let hits = log.covering(5000);
        assert!(hits.iter().any(|&(a, _)| a == 0), "large entry missed");
        assert!(hits.iter().any(|&(a, _)| a == 5000));
    }

    #[test]
    fn expected_current_sees_overlay_larger_than_64k() {
        let mut log = CheckpointLog::new();
        // Older small entry, then a newer >64 KiB entry starting more than
        // 64 KiB below it that overlaps it. The old fixed 1<<16 window
        // missed the overlay entirely.
        let addr = 200_000u64;
        log.on_persist(addr, &[1u8; 8]); // seq 1
        let big_start = addr - 100_000;
        log.on_persist(big_start, &vec![9u8; 100_008]); // seq 2, covers addr..addr+8
        assert_eq!(log.expected_current(addr).unwrap(), vec![9u8; 8]);
    }

    #[test]
    fn log_stats_track_updates_rotations_and_retirements() {
        let mut log = CheckpointLog::new();
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
        assert_eq!(log.iter_entries().count(), 1);
    }

    #[test]
    fn rollback_victims_by_cut() {
        let mut log = CheckpointLog::new();
        log.on_persist(10, &[1]); // seq 1
        log.on_persist(20, &[2]); // seq 2
        log.on_persist(30, &[3]); // seq 3
        let v = log.addrs_touched_since(2);
        assert_eq!(v, vec![20, 30]);
    }

    // ---- sharded store ----------------------------------------------------

    /// Addresses spread wide enough to land on different shards of a
    /// small shard count (4 KiB grain).
    fn spread(i: u64) -> u64 {
        1000 + i * 8192
    }

    #[test]
    fn sharded_seq_assignment_matches_single_log() {
        let mut single = CheckpointLog::new();
        let mut sharded = ShardedLog::new(4);
        for i in 0..32u64 {
            let a = spread(i % 7);
            single.on_persist(a, &i.to_le_bytes());
            sharded.on_persist(a, &i.to_le_bytes());
        }
        let view = sharded.view();
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
        let mut single = CheckpointLog::new();
        let mut sharded = ShardedLog::new(4);
        // Ranges deliberately ping-pong between different shards.
        let ranges: Vec<(u64, Vec<u8>)> = (0..8u64).map(|i| (spread(i), vec![i as u8])).collect();
        single.on_tx_commit(7, &ranges);
        sharded.on_tx_commit(7, &ranges);
        let view = sharded.view();
        assert_eq!(view.tx_seqs(7), single.tx_seqs(7).to_vec());
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
        let mut sharded = ShardedLog::new(4);
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
        let mut sharded = ShardedLog::new(4);
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
        let sharded = ShardedLog::new(4);
        let s1 = sharded.as_sink();
        let s2 = sharded.as_sink();
        s1.lock().unwrap().on_persist(spread(0), &[1]);
        s2.lock().unwrap().on_persist(spread(1), &[2]);
        assert_eq!(sharded.total_updates(), 2);
        assert_eq!(sharded.latest_seq(), 2);
    }

    #[test]
    fn instrument_twice_replaces_counter_stream() {
        use obs::{Instrument, RingRecorder};
        let ring = Arc::new(RingRecorder::new(64));
        let mut sharded = ShardedLog::new(4);
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
        log.as_sink().lock().unwrap().on_persist(64, &[9]);
        assert_eq!(log.lock().total_updates(), 1);
        // Deref exposes the sharded API on the same data.
        assert_eq!(log.total_updates(), 1);
        assert_eq!(log.view().iter_merged().len(), 1);
    }

    #[test]
    fn from_log_continues_sequence_numbering() {
        let mut inner = CheckpointLog::new();
        inner.on_persist(0, &[1]); // seq 1
        let sharded = ShardedLog::from_log(inner);
        sharded.as_sink().lock().unwrap().on_persist(8, &[2]);
        assert_eq!(sharded.latest_seq(), 2);
        let view = sharded.view();
        assert_eq!(view.all_seqs(), vec![1, 2]);
    }
}
