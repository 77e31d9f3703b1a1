//! PMDK-like pools: a root object, a crash-atomic persistent allocator and
//! undo-log transactions on top of [`PmDevice`].
//!
//! The public API deliberately mirrors `libpmemobj`: `alloc`/`free` with
//! redo-logged metadata (atomic under any crash), `tx_begin`/`tx_add`/
//! `tx_commit`/`tx_abort` with an undo log, explicit `persist`, and a root
//! object. A [`PmSink`] can be attached to observe durability events; this
//! is the interception surface the Arthas checkpoint library uses.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::device::{CrashPolicy, PmDevice};
use crate::error::{PmError, PmResult};
use crate::image::PmImage;
use crate::layout::{self, hdr};
use crate::sink::PmSink;

/// Counters of pool-level events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Explicit user persists (including fenced flush ranges).
    pub persists: u64,
    /// Committed transactions.
    pub tx_commits: u64,
    /// Aborted transactions.
    pub tx_aborts: u64,
    /// Allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Staged cache-line flushes (`flush_range`).
    pub flushes: u64,
    /// Fences (`drain_fence`).
    pub drains: u64,
    /// Simulated crashes (`crash_and_reopen`).
    pub crashes: u64,
}

impl PoolStats {
    /// Field-wise difference `self - base` (saturating; counters only
    /// grow, so a genuine descendant never saturates).
    pub fn delta_since(&self, base: &PoolStats) -> PoolStats {
        PoolStats {
            persists: self.persists.saturating_sub(base.persists),
            tx_commits: self.tx_commits.saturating_sub(base.tx_commits),
            tx_aborts: self.tx_aborts.saturating_sub(base.tx_aborts),
            allocs: self.allocs.saturating_sub(base.allocs),
            frees: self.frees.saturating_sub(base.frees),
            flushes: self.flushes.saturating_sub(base.flushes),
            drains: self.drains.saturating_sub(base.drains),
            crashes: self.crashes.saturating_sub(base.crashes),
        }
    }

    /// Field-wise accumulation of a delta.
    pub fn absorb(&mut self, delta: &PoolStats) {
        self.persists += delta.persists;
        self.tx_commits += delta.tx_commits;
        self.tx_aborts += delta.tx_aborts;
        self.allocs += delta.allocs;
        self.frees += delta.frees;
        self.flushes += delta.flushes;
        self.drains += delta.drains;
        self.crashes += delta.crashes;
    }
}

/// The kind of durability boundary a crash-injection site sits on.
///
/// Every call that makes (or retires) durable state — `persist`, the
/// fence of a flush+fence pair, allocator entry points and transaction
/// boundaries — is one *site*, numbered by a monotonic counter over the
/// pool's lifetime (restarts included). Campaign drivers enumerate sites
/// with [`PmPool::record_site_kinds`] and take the crashed image at any
/// of them with [`PmPool::arm_captures`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SiteKind {
    /// An explicit `persist` call.
    Persist,
    /// A `drain_fence` retiring staged flushes.
    Drain,
    /// A persistent-heap allocation.
    Alloc,
    /// A persistent-heap free.
    Free,
    /// A transaction begin.
    TxBegin,
    /// A transaction commit.
    TxCommit,
    /// A transaction abort.
    TxAbort,
}

impl SiteKind {
    /// Stable lowercase name, used in reports and recorder events.
    pub fn as_str(self) -> &'static str {
        match self {
            SiteKind::Persist => "persist",
            SiteKind::Drain => "drain",
            SiteKind::Alloc => "alloc",
            SiteKind::Free => "free",
            SiteKind::TxBegin => "tx_begin",
            SiteKind::TxCommit => "tx_commit",
            SiteKind::TxAbort => "tx_abort",
        }
    }

    /// Inverse of [`SiteKind::as_str`] — journal lines carry the name.
    pub fn parse(s: &str) -> Option<SiteKind> {
        [
            SiteKind::Persist,
            SiteKind::Drain,
            SiteKind::Alloc,
            SiteKind::Free,
            SiteKind::TxBegin,
            SiteKind::TxCommit,
            SiteKind::TxAbort,
        ]
        .into_iter()
        .find(|k| k.as_str() == s)
    }
}

/// One issue found by [`PmPool::check`], the `pmempool-check` analogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckIssue {
    /// Human-readable description of the inconsistency.
    pub message: String,
}

struct OpenTx {
    id: u64,
    ranges: Vec<(u64, u64)>,
    undo_cursor: u64,
}

/// The machine a crash at an armed site leaves, taken on a fork while the
/// pool runs on ([`PmPool::arm_captures`]).
pub struct SiteCapture {
    /// The durability-boundary site it was taken at.
    pub site: u64,
    /// The policy the fork crashed under.
    pub policy: CrashPolicy,
    /// A fork of the pool crashed at the site, in the state the pool
    /// itself would be in had it crashed there: no open transaction, no
    /// sink, no staged flush ranges, `crashes` one higher and not
    /// reopened. Recovery belongs to whoever restarts it.
    pub pool: PmPool,
    /// What the sink answered when told of the capture
    /// ([`PmSink::on_capture`]): its own state at that instant. `None`
    /// without a sink.
    pub sink_state: Option<Box<dyn Any + Send>>,
    /// Length of the interpreter's trace buffer at the capture, set by
    /// the interpreter whose PM operation crossed the site
    /// ([`PmPool::mark_captures`]); `None` when none did.
    pub trace_len: Option<usize>,
}

/// A persistent-memory pool with allocator and transactions.
pub struct PmPool {
    dev: PmDevice,
    sink: Option<Arc<dyn PmSink + Send + Sync>>,
    tx: Option<OpenTx>,
    recovering: bool,
    stats: PoolStats,
    /// The receiving pool's counter snapshot at the root of this pool's
    /// fork lineage (`None` for pools made by `create`/`open`). Lets
    /// [`PmPool::reabsorb`] merge a fork's counters as a *delta*, so
    /// events recorded on the parent between `fork()` and `reabsorb()`
    /// are kept and nothing is double-counted across fork-of-fork chains.
    fork_base: Option<PoolStats>,
    recorder: Option<Arc<dyn obs::Recorder>>,
    pending_flush: Vec<(u64, u64)>,
    /// Monotonic durability-boundary counter; never reset, not even by a
    /// crash, so site N names the same boundary in every deterministic
    /// replay of a workload.
    site_counter: u64,
    /// Armed crash captures, ascending by site, in arming order within a
    /// site.
    armed: VecDeque<(u64, CrashPolicy)>,
    /// The site of `armed`'s front, `u64::MAX` when nothing is armed, so
    /// a boundary tests one number.
    next_armed: u64,
    /// Captures taken and not yet handed out.
    captured: Vec<SiteCapture>,
    /// Whether a capture still waits for its trace mark.
    unmarked: bool,
    /// When enumerating, the kind of every boundary crossed so far.
    site_log: Option<Vec<SiteKind>>,
}

impl PmPool {
    /// Creates and formats a new pool of `capacity` bytes.
    ///
    /// The capacity must leave room for the header, logs and a minimal heap.
    pub fn create(capacity: u64) -> PmResult<Self> {
        if capacity < layout::HEAP_OFF + layout::MIN_BLOCK {
            return Err(PmError::BadHeader(format!(
                "capacity {capacity} too small; need at least {}",
                layout::HEAP_OFF + layout::MIN_BLOCK
            )));
        }
        let mut pool = PmPool {
            dev: PmDevice::new(capacity),
            sink: None,
            tx: None,
            recovering: false,
            stats: PoolStats::default(),
            fork_base: None,
            recorder: None,
            pending_flush: Vec::new(),
            site_counter: 0,
            armed: VecDeque::new(),
            next_armed: u64::MAX,
            captured: Vec::new(),
            unmarked: false,
            site_log: None,
        };
        pool.write_u64(hdr::MAGIC, layout::MAGIC)?;
        pool.write_u64(hdr::VERSION, layout::VERSION)?;
        pool.write_u64(hdr::CAPACITY, capacity)?;
        pool.write_u64(hdr::ROOT_OFF, 0)?;
        pool.write_u64(hdr::ROOT_SIZE, 0)?;
        pool.write_u64(hdr::TX_ACTIVE, 0)?;
        pool.write_u64(hdr::TX_COUNT, 0)?;
        pool.write_u64(hdr::TX_NEXT_ID, 1)?;
        pool.write_u64(hdr::REDO_VALID, 0)?;
        pool.write_u64(hdr::REDO_COUNT, 0)?;
        // The whole heap is one free block.
        let heap_size = capacity - layout::HEAP_OFF;
        let heap_size = heap_size / layout::ALIGN * layout::ALIGN;
        pool.write_u64(layout::HEAP_OFF, heap_size)?;
        pool.write_u64(layout::HEAP_OFF + 8, 0)?;
        pool.write_u64(hdr::FREE_HEAD, layout::HEAP_OFF)?;
        pool.dev.persist(0, layout::HEAP_OFF + layout::BLOCK_HDR)?;
        Ok(pool)
    }

    /// Opens a pool from an existing media image (e.g. after a simulated
    /// restart), validating the header and running crash recovery for the
    /// allocator redo log and any interrupted transaction.
    pub fn open(image: impl Into<PmImage>) -> PmResult<Self> {
        let mut pool = PmPool {
            dev: PmDevice::from_image(image.into()),
            sink: None,
            tx: None,
            recovering: false,
            stats: PoolStats::default(),
            fork_base: None,
            recorder: None,
            pending_flush: Vec::new(),
            site_counter: 0,
            armed: VecDeque::new(),
            next_armed: u64::MAX,
            captured: Vec::new(),
            unmarked: false,
            site_log: None,
        };
        if pool.read_u64(hdr::MAGIC)? != layout::MAGIC {
            return Err(PmError::BadHeader("bad magic".into()));
        }
        if pool.read_u64(hdr::VERSION)? != layout::VERSION {
            return Err(PmError::BadHeader("unsupported version".into()));
        }
        if pool.read_u64(hdr::CAPACITY)? != pool.dev.capacity() {
            return Err(PmError::BadHeader("capacity mismatch".into()));
        }
        pool.recover()?;
        Ok(pool)
    }

    /// Attaches a durability-event sink (checkpointing library).
    ///
    /// The handle is shared with every other pool feeding the same sink
    /// (writer forks, restarted images); the pool takes no lock of its own
    /// to deliver an event.
    pub fn set_sink(&mut self, sink: Arc<dyn PmSink + Send + Sync>) {
        self.sink = Some(sink);
    }

    /// Detaches the sink.
    pub fn clear_sink(&mut self) {
        self.sink = None;
    }

    fn rec_add(&self, counter: &'static str, delta: u64) {
        if let Some(r) = &self.recorder {
            r.add(counter, delta);
        }
    }

    /// Runs a device operation that may write media and feeds the pages it
    /// had to copy (shared with a fork, snapshot or replica until now) to
    /// the recorder, so the cost of sharing is a number the system prints.
    fn media_op<T>(&mut self, op: impl FnOnce(&mut PmDevice) -> T) -> T {
        let before = self.dev.stats().pages_copied;
        let out = op(&mut self.dev);
        let copied = self.dev.stats().pages_copied - before;
        if copied != 0 {
            self.rec_add("pool.pages_copied", copied);
        }
        out
    }

    fn rec_event(&self, kind: &'static str, fields: &dyn Fn() -> Vec<(&'static str, obs::Value)>) {
        if let Some(r) = &self.recorder {
            r.event(kind, fields);
        }
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.dev.capacity()
    }

    /// Pool event counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Sets the crash policy of the underlying device.
    pub fn set_crash_policy(&mut self, policy: CrashPolicy) {
        self.dev.set_crash_policy(policy);
    }

    /// Direct access to the underlying device (diagnostics and baselines).
    pub fn device(&self) -> &PmDevice {
        &self.dev
    }

    // ---- crash-point injection sites --------------------------------------

    /// Number of durability-boundary sites crossed so far (monotonic over
    /// the pool's lifetime, restarts included).
    pub fn site_count(&self) -> u64 {
        self.site_counter
    }

    /// Arms crash captures, replacing any armed before: when the site
    /// counter reaches one of the listed sites, the pool forks its device
    /// once per policy listed for that site (in list order), crashes each
    /// fork under its policy, tells the sink ([`PmSink::on_capture`]) and
    /// runs on unharmed. Sites already crossed never fire and are dropped.
    /// The armed set survives [`PmPool::crash_and_reopen`] (a scenario's
    /// own scripted crashes must not disarm a campaign at a later site)
    /// but not [`PmPool::fork`], since a fork replays history that already
    /// happened. [`PmPool::take_captures`] hands the captures out.
    pub fn arm_captures(&mut self, sites: &[(u64, CrashPolicy)]) {
        let mut armed: Vec<(u64, CrashPolicy)> = sites
            .iter()
            .copied()
            .filter(|&(site, _)| site >= self.site_counter)
            .collect();
        armed.sort_by_key(|&(site, _)| site);
        self.armed = armed.into();
        self.next_armed = self.armed.front().map_or(u64::MAX, |&(site, _)| site);
    }

    /// Armed captures that have not fired yet.
    pub fn captures_armed(&self) -> usize {
        self.armed.len()
    }

    /// Moves out the captures taken since the last call, in the order
    /// they fired.
    pub fn take_captures(&mut self) -> Vec<SiteCapture> {
        self.unmarked = false;
        std::mem::take(&mut self.captured)
    }

    /// Whether a capture taken at the last boundary still lacks its trace
    /// mark: the one test an interpreter makes after each PM operation
    /// that can cross a boundary.
    #[inline]
    pub fn has_unmarked_captures(&self) -> bool {
        self.unmarked
    }

    /// Stamps every unmarked capture with `trace_len`, the length of the
    /// caller's trace buffer when the operation that took it returned (a
    /// boundary emits no trace record, so it is the length at the
    /// boundary itself).
    pub fn mark_captures(&mut self, trace_len: usize) {
        for c in self.captured.iter_mut().rev() {
            if c.trace_len.is_some() {
                break;
            }
            c.trace_len = Some(trace_len);
        }
        self.unmarked = false;
    }

    /// Enables or disables site-kind recording. While enabled, every
    /// boundary crossed appends its [`SiteKind`] to a log retrievable via
    /// [`PmPool::site_kinds`]. Enumeration runs turn this on; trial runs
    /// leave it off.
    pub fn record_site_kinds(&mut self, enable: bool) {
        self.site_log = if enable {
            Some(self.site_log.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// The kinds of all boundaries crossed while recording was enabled
    /// (index = site number only when recording was on from site 0).
    pub fn site_kinds(&self) -> &[SiteKind] {
        self.site_log.as_deref().unwrap_or(&[])
    }

    /// Crosses one durability boundary: bumps the counter, logs the kind,
    /// and takes the captures armed at this site.
    fn site_boundary(&mut self, kind: SiteKind) {
        let site = self.site_counter;
        self.site_counter += 1;
        if let Some(log) = &mut self.site_log {
            log.push(kind);
        }
        if site == self.next_armed {
            self.capture(site, kind);
        }
    }

    /// Takes every capture armed at `site`: per policy, a fork of the
    /// device crashed exactly as [`PmPool::crash_and_reopen`] would crash
    /// it, with the volatile pool state a crash drops (open transaction,
    /// sink, staged flush ranges) left behind and no recovery run.
    #[cold]
    fn capture(&mut self, site: u64, kind: SiteKind) {
        while let Some(&(at, policy)) = self.armed.front() {
            if at != site {
                break;
            }
            self.armed.pop_front();
            let mut fork = PmPool {
                dev: self.dev.clone(),
                sink: None,
                tx: None,
                recovering: false,
                stats: self.stats,
                fork_base: self.fork_base,
                recorder: self.recorder.clone(),
                pending_flush: Vec::new(),
                site_counter: self.site_counter,
                armed: VecDeque::new(),
                next_armed: u64::MAX,
                captured: Vec::new(),
                unmarked: false,
                site_log: None,
            };
            let configured = fork.dev.crash_policy();
            fork.dev.set_crash_policy(policy);
            fork.media_op(PmDevice::crash);
            fork.dev.set_crash_policy(configured);
            fork.stats.crashes += 1;
            fork.rec_add("pool.crashes", 1);
            fork.rec_event("pool.site_crash", &|| {
                vec![
                    ("site", obs::Value::from(site)),
                    ("kind", obs::Value::from(kind.as_str())),
                ]
            });
            self.captured.push(SiteCapture {
                site,
                policy,
                pool: fork,
                sink_state: self.sink.as_ref().and_then(|s| s.on_capture()),
                trace_len: None,
            });
            self.unmarked = true;
        }
        self.next_armed = self.armed.front().map_or(u64::MAX, |&(at, _)| at);
    }

    // ---- raw access -----------------------------------------------------

    /// Reads `len` bytes at `offset` (sees unpersisted stores).
    ///
    /// Fast path: outside an annotated recovery window
    /// (`recover_begin`/`recover_end`) a read never touches the sink, so
    /// checkpointing adds zero cost to the read hot path. Only
    /// recovery-window reads are reported (the leak
    /// monitor's reachability signal, §4.7).
    pub fn read(&mut self, offset: u64, len: u64) -> PmResult<Vec<u8>> {
        let bytes = self.dev.read(offset, len)?;
        self.report_recover_read(offset, len);
        Ok(bytes)
    }

    /// [`PmPool::read`] into a caller-provided buffer: the load path of the
    /// interpreter, which must not allocate per access.
    #[inline]
    pub fn read_into(&mut self, offset: u64, buf: &mut [u8]) -> PmResult<()> {
        self.dev.read_into(offset, buf)?;
        self.report_recover_read(offset, buf.len() as u64);
        Ok(())
    }

    /// Counts and reports a read of `[offset, offset + len)` without
    /// producing the bytes. A caller that moves a large range in bounded
    /// pieces calls this once, then [`PmPool::peek_into`] per piece, and
    /// the device counters and the sink see the one read [`PmPool::read`]
    /// would have made.
    pub fn note_read(&mut self, offset: u64, len: u64) -> PmResult<()> {
        self.dev.note_read(offset, len)?;
        self.report_recover_read(offset, len);
        Ok(())
    }

    /// The bytes at `offset` (seeing unpersisted stores), uncounted and
    /// unreported; see [`PmPool::note_read`].
    pub fn peek_into(&self, offset: u64, buf: &mut [u8]) -> PmResult<()> {
        self.dev.peek_into(offset, buf)
    }

    #[inline]
    fn report_recover_read(&self, offset: u64, len: u64) {
        if self.recovering {
            if let Some(sink) = &self.sink {
                sink.on_recover_read(offset, len);
            }
        }
    }

    /// Errs unless `[offset, offset + len)` lies inside the pool.
    pub fn check_range(&self, offset: u64, len: u64) -> PmResult<()> {
        self.dev.check_range(offset, len)
    }

    /// Stores `bytes` at `offset` without persisting.
    pub fn write(&mut self, offset: u64, bytes: &[u8]) -> PmResult<()> {
        self.dev.write(offset, bytes)
    }

    /// Stores `len` copies of `byte` at `offset` without persisting.
    pub fn fill(&mut self, offset: u64, byte: u8, len: u64) -> PmResult<()> {
        self.dev.fill(offset, byte, len)
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&mut self, offset: u64) -> PmResult<u64> {
        let mut b = [0; 8];
        self.dev.read_into(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Stores a little-endian u64 without persisting.
    pub fn write_u64(&mut self, offset: u64, value: u64) -> PmResult<()> {
        self.dev.write(offset, &value.to_le_bytes())
    }

    /// Explicitly persists `[offset, offset + len)` (the `pmem_persist`
    /// primitive) and notifies the sink with the durable bytes.
    pub fn persist(&mut self, offset: u64, len: u64) -> PmResult<()> {
        self.site_boundary(SiteKind::Persist);
        self.persist_internal(offset, len)?;
        self.stats.persists += 1;
        self.rec_add("pool.persists", 1);
        self.rec_add("pool.bytes_persisted", len);
        if let Some(sink) = &self.sink {
            sink.on_persist(offset, &self.dev.read(offset, len)?);
        }
        Ok(())
    }

    /// Stages `[offset, offset + len)` for write-back (the `clwb`
    /// analogue). The range is remembered and reported to the sink at the
    /// next [`PmPool::drain_fence`], so native-persistence (flush + fence)
    /// programs are checkpointable exactly like `persist`-based ones.
    pub fn flush_range(&mut self, offset: u64, len: u64) -> PmResult<()> {
        self.dev.flush(offset, len)?;
        self.stats.flushes += 1;
        self.rec_add("pool.flushes", 1);
        self.pending_flush.push((offset, len));
        Ok(())
    }

    /// Fence (the `sfence` analogue): commits staged lines, then notifies
    /// the sink once per range flushed since the previous fence, in flush
    /// order, each with its durable bytes. Never errs.
    pub fn drain_fence(&mut self) -> PmResult<()> {
        self.site_boundary(SiteKind::Drain);
        self.media_op(PmDevice::drain);
        self.stats.drains += 1;
        self.rec_add("pool.drains", 1);
        let ranges = std::mem::take(&mut self.pending_flush);
        let Some(sink) = &self.sink else {
            return Ok(());
        };
        for (off, len) in ranges {
            if let Ok(data) = self.dev.read(off, len) {
                self.stats.persists += 1;
                self.rec_add("pool.persists", 1);
                self.rec_add("pool.bytes_persisted", len);
                sink.on_persist(off, &data);
            }
        }
        Ok(())
    }

    /// Persists without notifying the sink; used for allocator and log
    /// metadata so checkpoints only contain application state.
    fn persist_internal(&mut self, offset: u64, len: u64) -> PmResult<()> {
        self.media_op(|dev| dev.persist(offset, len))
    }

    /// Simulates a crash of the process/machine holding this pool, then
    /// reopens it (running recovery). Volatile pool state (open
    /// transaction, sink) is dropped, exactly like a real restart.
    pub fn crash_and_reopen(&mut self) -> PmResult<()> {
        self.media_op(PmDevice::crash);
        self.tx = None;
        self.sink = None;
        self.recovering = false;
        self.pending_flush.clear();
        self.stats.crashes += 1;
        self.rec_add("pool.crashes", 1);
        self.rec_event("pool.crash", &|| {
            vec![("crash_no", obs::Value::from(self.stats.crashes))]
        });
        self.recover()
    }

    // ---- root object ----------------------------------------------------

    /// Allocates (once) and returns the root object payload offset.
    pub fn root(&mut self, size: u64) -> PmResult<u64> {
        let off = self.read_u64(hdr::ROOT_OFF)?;
        if off != 0 {
            return Ok(off);
        }
        let off = self.alloc(size)?;
        self.write_u64(hdr::ROOT_OFF, off)?;
        self.write_u64(hdr::ROOT_SIZE, size)?;
        self.persist_internal(hdr::ROOT_OFF, 16)?;
        Ok(off)
    }

    /// Returns the root payload offset, or 0 if never set.
    pub fn root_offset(&mut self) -> PmResult<u64> {
        self.read_u64(hdr::ROOT_OFF)
    }

    // ---- redo-logged metadata updates ------------------------------------

    /// Applies a batch of metadata writes atomically with respect to
    /// crashes: serialize to the redo log, mark valid, apply, mark invalid.
    fn redo_apply(&mut self, writes: &[(u64, Vec<u8>)]) -> PmResult<()> {
        let mut need = 0u64;
        for (_, data) in writes {
            need += 16 + data.len() as u64;
        }
        if need > layout::REDO_SIZE {
            return Err(PmError::LogFull { log: "redo" });
        }
        let mut cur = layout::REDO_OFF;
        for (off, data) in writes {
            self.write_u64(cur, *off)?;
            self.write_u64(cur + 8, data.len() as u64)?;
            self.dev.write(cur + 16, data)?;
            cur += 16 + data.len() as u64;
        }
        self.write_u64(hdr::REDO_COUNT, writes.len() as u64)?;
        self.persist_internal(layout::REDO_OFF, cur - layout::REDO_OFF)?;
        self.persist_internal(hdr::REDO_COUNT, 8)?;
        self.write_u64(hdr::REDO_VALID, 1)?;
        self.persist_internal(hdr::REDO_VALID, 8)?;
        self.redo_replay()?;
        self.write_u64(hdr::REDO_VALID, 0)?;
        self.persist_internal(hdr::REDO_VALID, 8)?;
        Ok(())
    }

    /// Applies the redo entries currently in the log (idempotent).
    fn redo_replay(&mut self) -> PmResult<()> {
        let count = self.read_u64(hdr::REDO_COUNT)?;
        let mut cur = layout::REDO_OFF;
        for _ in 0..count {
            let off = self.read_u64(cur)?;
            let len = self.read_u64(cur + 8)?;
            let data = self.dev.read(cur + 16, len)?;
            self.dev.write(off, &data)?;
            self.persist_internal(off, len)?;
            cur += 16 + len;
        }
        Ok(())
    }

    /// Crash recovery: replay a valid redo batch, roll back an interrupted
    /// transaction.
    fn recover(&mut self) -> PmResult<()> {
        if self.read_u64(hdr::REDO_VALID)? == 1 {
            self.redo_replay()?;
            self.write_u64(hdr::REDO_VALID, 0)?;
            self.persist_internal(hdr::REDO_VALID, 8)?;
        }
        if self.read_u64(hdr::TX_ACTIVE)? == 1 {
            self.undo_replay()?;
            self.write_u64(hdr::TX_ACTIVE, 0)?;
            self.persist_internal(hdr::TX_ACTIVE, 8)?;
        }
        Ok(())
    }

    // ---- allocator --------------------------------------------------------

    /// Allocates `size` bytes from the persistent heap, zero-filled.
    ///
    /// Metadata updates are crash-atomic via the redo log. Returns the
    /// payload offset.
    pub fn alloc(&mut self, size: u64) -> PmResult<u64> {
        if size == 0 {
            return Err(PmError::OutOfPmSpace { requested: 0 });
        }
        self.site_boundary(SiteKind::Alloc);
        let need = (layout::align_up(size) + layout::BLOCK_HDR).max(layout::MIN_BLOCK);
        // First-fit walk of the free list.
        let mut prev: Option<u64> = None;
        let mut cur = self.read_u64(hdr::FREE_HEAD)?;
        let mut guard = 0u64;
        while cur != 0 {
            guard += 1;
            if guard > 1 << 22 {
                return Err(PmError::Corruption("free list cycle".into()));
            }
            let bsize = self.read_u64(cur)?;
            let next = self.read_u64(cur + 8)?;
            if bsize & 1 != 0 {
                return Err(PmError::Corruption(format!(
                    "allocated block {cur} on free list"
                )));
            }
            if bsize >= need {
                let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
                let replacement = if bsize - need >= layout::MIN_BLOCK {
                    // Split: remainder becomes a free block that inherits
                    // our free-list position.
                    let rem = cur + need;
                    writes.push((rem, (bsize - need).to_le_bytes().to_vec()));
                    writes.push((rem + 8, next.to_le_bytes().to_vec()));
                    writes.push((cur, (need | 1).to_le_bytes().to_vec()));
                    rem
                } else {
                    writes.push((cur, (bsize | 1).to_le_bytes().to_vec()));
                    next
                };
                match prev {
                    Some(p) => writes.push((p + 8, replacement.to_le_bytes().to_vec())),
                    None => writes.push((hdr::FREE_HEAD, replacement.to_le_bytes().to_vec())),
                }
                self.redo_apply(&writes)?;
                let payload = cur + layout::BLOCK_HDR;
                let payload_size = need - layout::BLOCK_HDR;
                self.dev.fill(payload, 0, payload_size)?;
                self.persist_internal(payload, payload_size)?;
                self.stats.allocs += 1;
                self.rec_add("pool.allocs", 1);
                if let Some(sink) = &self.sink {
                    sink.on_alloc(payload, payload_size);
                }
                return Ok(payload);
            }
            prev = Some(cur);
            cur = next;
        }
        Err(PmError::OutOfPmSpace { requested: size })
    }

    /// Frees the block whose payload starts at `offset`.
    pub fn free(&mut self, offset: u64) -> PmResult<()> {
        if offset < layout::HEAP_OFF + layout::BLOCK_HDR || offset >= self.capacity() {
            return Err(PmError::NotAllocated { offset });
        }
        self.site_boundary(SiteKind::Free);
        let block = offset - layout::BLOCK_HDR;
        let bsize = self.read_u64(block)?;
        if bsize & 1 == 0 {
            return Err(PmError::DoubleFree { offset });
        }
        let head = self.read_u64(hdr::FREE_HEAD)?;
        let writes = vec![
            (block, (bsize & !1).to_le_bytes().to_vec()),
            (block + 8, head.to_le_bytes().to_vec()),
            (hdr::FREE_HEAD, block.to_le_bytes().to_vec()),
        ];
        self.redo_apply(&writes)?;
        self.stats.frees += 1;
        self.rec_add("pool.frees", 1);
        if let Some(sink) = &self.sink {
            sink.on_free(offset);
        }
        Ok(())
    }

    /// Returns whether the payload offset names a live allocation.
    pub fn is_allocated(&mut self, offset: u64) -> bool {
        if offset < layout::HEAP_OFF + layout::BLOCK_HDR || offset >= self.capacity() {
            return false;
        }
        match self.read_u64(offset - layout::BLOCK_HDR) {
            Ok(size) => size & 1 == 1,
            Err(_) => false,
        }
    }

    /// Walks the heap and returns all live allocations as
    /// `(payload_offset, payload_size)` pairs.
    pub fn live_blocks(&mut self) -> PmResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        let cap = self.capacity();
        let mut cur = layout::HEAP_OFF;
        while cur + layout::BLOCK_HDR <= cap {
            let word = self.read_u64(cur)?;
            let size = word & !1;
            if size < layout::BLOCK_HDR || cur + size > cap {
                return Err(PmError::Corruption(format!(
                    "bad block size {size} at {cur}"
                )));
            }
            if word & 1 == 1 {
                out.push((cur + layout::BLOCK_HDR, size - layout::BLOCK_HDR));
            }
            cur += size;
        }
        Ok(out)
    }

    /// Total payload bytes currently allocated.
    pub fn allocated_bytes(&mut self) -> PmResult<u64> {
        Ok(self.live_blocks()?.iter().map(|(_, s)| s).sum())
    }

    /// Total bytes on the free list (largest satisfiable request may be
    /// smaller due to fragmentation).
    pub fn free_bytes(&mut self) -> PmResult<u64> {
        let mut total = 0u64;
        let mut cur = self.read_u64(hdr::FREE_HEAD)?;
        let mut guard = 0u64;
        while cur != 0 {
            guard += 1;
            if guard > 1 << 22 {
                return Err(PmError::Corruption("free list cycle".into()));
            }
            let size = self.read_u64(cur)?;
            total += size & !1;
            cur = self.read_u64(cur + 8)?;
        }
        Ok(total)
    }

    // ---- transactions -----------------------------------------------------

    /// Begins a transaction. Nested transactions are not supported.
    pub fn tx_begin(&mut self) -> PmResult<u64> {
        if self.tx.is_some() {
            return Err(PmError::TxState("transaction already open".into()));
        }
        self.site_boundary(SiteKind::TxBegin);
        let id = self.read_u64(hdr::TX_NEXT_ID)?;
        self.write_u64(hdr::TX_NEXT_ID, id + 1)?;
        self.write_u64(hdr::TX_COUNT, 0)?;
        self.persist_internal(hdr::TX_COUNT, 16)?;
        self.write_u64(hdr::TX_ACTIVE, 1)?;
        self.persist_internal(hdr::TX_ACTIVE, 8)?;
        self.tx = Some(OpenTx {
            id,
            ranges: Vec::new(),
            undo_cursor: 0,
        });
        self.rec_add("pool.tx_begins", 1);
        Ok(id)
    }

    /// Snapshots `[offset, offset + len)` into the undo log so the open
    /// transaction can modify it (the `pmemobj_tx_add_range` primitive).
    pub fn tx_add(&mut self, offset: u64, len: u64) -> PmResult<()> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| PmError::TxState("tx_add outside transaction".into()))?;
        let cursor = tx.undo_cursor;
        if cursor + 16 + len > layout::UNDO_SIZE {
            return Err(PmError::LogFull { log: "undo" });
        }
        let old = self.dev.read(offset, len)?;
        let base = layout::UNDO_OFF + cursor;
        self.write_u64(base, offset)?;
        self.write_u64(base + 8, len)?;
        self.dev.write(base + 16, &old)?;
        self.persist_internal(base, 16 + len)?;
        let count = self.read_u64(hdr::TX_COUNT)?;
        self.write_u64(hdr::TX_COUNT, count + 1)?;
        self.persist_internal(hdr::TX_COUNT, 8)?;
        let tx = self.tx.as_mut().expect("tx checked above");
        tx.undo_cursor += 16 + len;
        tx.ranges.push((offset, len));
        Ok(())
    }

    /// Commits the open transaction: persists every snapshotted range,
    /// notifies the sink, then retires the undo log.
    pub fn tx_commit(&mut self) -> PmResult<()> {
        if self.tx.is_none() {
            return Err(PmError::TxState("commit without transaction".into()));
        }
        self.site_boundary(SiteKind::TxCommit);
        let tx = self.tx.take().expect("tx checked above");
        for &(off, len) in &tx.ranges {
            self.dev.flush(off, len)?;
        }
        self.media_op(PmDevice::drain);
        let mut committed = Vec::with_capacity(tx.ranges.len());
        for &(off, len) in &tx.ranges {
            committed.push((off, self.dev.read(off, len)?));
        }
        self.write_u64(hdr::TX_ACTIVE, 0)?;
        self.persist_internal(hdr::TX_ACTIVE, 8)?;
        self.stats.tx_commits += 1;
        self.rec_add("pool.tx_commits", 1);
        if let Some(sink) = &self.sink {
            sink.on_tx_commit(tx.id, &committed);
        }
        Ok(())
    }

    /// Aborts the open transaction, restoring all snapshotted ranges.
    pub fn tx_abort(&mut self) -> PmResult<()> {
        if self.tx.is_none() {
            return Err(PmError::TxState("abort without transaction".into()));
        }
        self.site_boundary(SiteKind::TxAbort);
        self.tx = None;
        self.undo_replay()?;
        self.write_u64(hdr::TX_ACTIVE, 0)?;
        self.persist_internal(hdr::TX_ACTIVE, 8)?;
        self.stats.tx_aborts += 1;
        self.rec_add("pool.tx_aborts", 1);
        Ok(())
    }

    /// Returns whether a transaction is currently open.
    pub fn in_tx(&self) -> bool {
        self.tx.is_some()
    }

    /// Applies the undo log newest-first, restoring pre-transaction data.
    fn undo_replay(&mut self) -> PmResult<()> {
        let count = self.read_u64(hdr::TX_COUNT)?;
        // Collect entry positions first (they are variable length).
        let mut entries = Vec::with_capacity(count as usize);
        let mut cur = layout::UNDO_OFF;
        for _ in 0..count {
            let off = self.read_u64(cur)?;
            let len = self.read_u64(cur + 8)?;
            entries.push((cur + 16, off, len));
            cur += 16 + len;
        }
        for &(data_at, off, len) in entries.iter().rev() {
            let old = self.dev.read(data_at, len)?;
            self.dev.write(off, &old)?;
            self.persist_internal(off, len)?;
        }
        Ok(())
    }

    // ---- recovery annotation ----------------------------------------------

    /// Marks the start of the application's recovery function
    /// (`pmem_recover_begin`, §4.7 of the paper).
    pub fn recover_begin(&mut self) {
        self.recovering = true;
        self.rec_event("pool.recover_begin", &|| Vec::new());
        if let Some(sink) = &self.sink {
            sink.on_recover_begin();
        }
    }

    /// Marks the end of the application's recovery function.
    pub fn recover_end(&mut self) {
        self.recovering = false;
        self.rec_event("pool.recover_end", &|| Vec::new());
        if let Some(sink) = &self.sink {
            sink.on_recover_end();
        }
    }

    /// Flips one durable bit, bypassing the sink. Fault-injection helper
    /// for the hardware-fault scenarios (see
    /// [`PmDevice::corrupt_bit`](crate::PmDevice::corrupt_bit)).
    pub fn corrupt_bit(&mut self, offset: u64, bit: u8) -> PmResult<()> {
        self.media_op(|dev| dev.corrupt_bit(offset, bit))?;
        // The hardware-fault instant belongs on the availability timeline:
        // a serving front-end reports time-to-detect / time-to-mitigate
        // relative to this event.
        if let Some(r) = &self.recorder {
            r.event("pool.corrupt_bit", &|| {
                vec![("offset", offset.into()), ("bit", u64::from(bit).into())]
            });
        }
        Ok(())
    }

    // ---- forking ------------------------------------------------------------

    /// Forks the pool: an independent copy of the complete device state
    /// (durable media *and* volatile cache lines), with no sink attached
    /// and no open transaction; it reports to this pool's recorder, so the
    /// `pool.*` counters cover reversion work wherever it is done. The
    /// copy shares every media page with this
    /// pool until one of them writes it, so a fork costs page pointers, not
    /// bytes. Online mitigation applies each candidate reversion to its
    /// own fork and re-executes there, leaving this pool untouched until a
    /// step wins and is [`PmPool::reabsorb`]ed.
    pub fn fork(&self) -> PmPool {
        PmPool {
            dev: self.dev.clone(),
            sink: None,
            tx: None,
            recovering: false,
            stats: self.stats,
            // Lineage-root snapshot: a fork of a fork keeps the original
            // base, so reabsorbing a grandchild adds the whole lineage's
            // delta exactly once.
            fork_base: Some(self.fork_base.unwrap_or(self.stats)),
            recorder: self.recorder.clone(),
            pending_flush: self.pending_flush.clone(),
            // The counter continues (site numbers stay comparable across
            // forks), but armed captures and enumeration logs
            // belong to the parent's timeline, not the fork's replay.
            site_counter: self.site_counter,
            armed: VecDeque::new(),
            next_armed: u64::MAX,
            captured: Vec::new(),
            unmarked: false,
            site_log: None,
        }
    }

    /// Adopts a fork's device state, committing the attempt made on it.
    /// Counters merge delta-based: only the activity the fork's lineage
    /// performed since it diverged is added, so work the receiving pool did
    /// between `fork()` and `reabsorb()` is never discarded. The receiving
    /// pool keeps its own sink and recorder; the fork's open transaction
    /// (if any) is dropped, as a restart would drop it.
    pub fn reabsorb(&mut self, fork: PmPool) {
        let delta = fork.stats.delta_since(&fork.fork_base.unwrap_or_default());
        self.dev = fork.dev;
        self.tx = None;
        self.recovering = fork.recovering;
        self.stats.absorb(&delta);
        self.pending_flush = fork.pending_flush;
        self.site_counter = self.site_counter.max(fork.site_counter);
        self.rec_add("pool.reabsorbs", 1);
    }

    // ---- snapshot / integrity ----------------------------------------------

    /// Point-in-time image of durable media (the pmCRIU snapshot
    /// primitive); shares pages with the pool until either side writes.
    pub fn snapshot(&self) -> PmImage {
        self.dev.media_image()
    }

    /// Restores a snapshot taken with [`PmPool::snapshot`] and re-runs
    /// recovery. Like a crash, it drops the open transaction and every
    /// range flushed but not yet fenced: those bytes are gone, so the next
    /// fence must not report them to the sink.
    pub fn restore(&mut self, image: &PmImage) -> PmResult<()> {
        self.dev.restore_image(image)?;
        self.tx = None;
        self.pending_flush.clear();
        self.recover()
    }

    /// Writes the durable media image to a file (the PM DAX-file
    /// analogue), so a pool can be reopened by a later process via
    /// [`PmPool::open_file`]. Only durable state is written — exactly what
    /// a machine crash would leave behind.
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.dev.media_image().to_vec())
    }

    /// Opens a pool from a file written by [`PmPool::save_to_file`],
    /// running crash recovery.
    pub fn open_file(path: impl AsRef<std::path::Path>) -> PmResult<Self> {
        let image = std::fs::read(path)
            .map_err(|e| PmError::BadHeader(format!("cannot read pool file: {e}")))?;
        PmPool::open(image)
    }

    /// Integrity check (the `pmempool-check` analogue): validates the
    /// header, walks the heap chain and the free list. Returns all issues
    /// found (empty = clean).
    pub fn check(&mut self) -> Vec<CheckIssue> {
        let mut issues: Vec<CheckIssue> = Vec::new();
        fn push(issues: &mut Vec<CheckIssue>, msg: String) {
            issues.push(CheckIssue { message: msg });
        }
        match self.read_u64(hdr::MAGIC) {
            Ok(m) if m == layout::MAGIC => {}
            _ => push(&mut issues, "bad magic".into()),
        }
        let cap = self.capacity();
        // Heap walk.
        let mut cur = layout::HEAP_OFF;
        let mut seen_blocks = std::collections::BTreeSet::new();
        while cur + layout::BLOCK_HDR <= cap {
            match self.read_u64(cur) {
                Ok(word) => {
                    let size = word & !1;
                    if size < layout::BLOCK_HDR || cur + size > cap || size % layout::ALIGN != 0 {
                        push(
                            &mut issues,
                            format!("bad block size {size} at offset {cur}"),
                        );
                        break;
                    }
                    seen_blocks.insert(cur);
                    cur += size;
                }
                Err(e) => {
                    push(&mut issues, format!("heap walk failed at {cur}: {e}"));
                    break;
                }
            }
        }
        if cur != cap && issues.is_empty() {
            push(
                &mut issues,
                format!("heap walk ended at {cur}, expected {cap}"),
            );
        }
        // Free-list walk.
        let mut fcur = self.read_u64(hdr::FREE_HEAD).unwrap_or(0);
        let mut visited = std::collections::BTreeSet::new();
        while fcur != 0 {
            if !visited.insert(fcur) {
                push(&mut issues, format!("free list cycle at {fcur}"));
                break;
            }
            if !seen_blocks.contains(&fcur) {
                push(
                    &mut issues,
                    format!("free list points at non-block offset {fcur}"),
                );
                break;
            }
            match self.read_u64(fcur) {
                Ok(word) if word & 1 == 1 => {
                    push(&mut issues, format!("allocated block {fcur} on free list"));
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    push(&mut issues, format!("free list read failed: {e}"));
                    break;
                }
            }
            fcur = self.read_u64(fcur + 8).unwrap_or(0);
        }
        // Root sanity.
        if let Ok(root) = self.read_u64(hdr::ROOT_OFF) {
            if root != 0 && !self.is_allocated(root) {
                push(
                    &mut issues,
                    format!("root offset {root} is not an allocated block"),
                );
            }
        }
        issues
    }
}

impl obs::Instrument for PmPool {
    /// Attaches an observability recorder. Unlike the sink — which models
    /// in-process interception and is dropped by a crash — the recorder is
    /// the *observer's* tap and survives [`PmPool::crash_and_reopen`], so
    /// the crash itself lands on the recovery timeline.
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        self.recorder = Some(recorder);
    }

    fn uninstrument(&mut self) {
        self.recorder = None;
    }
}

impl std::fmt::Debug for PmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmPool")
            .field("capacity", &self.dev.capacity())
            .field("in_tx", &self.tx.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = layout::HEAP_OFF + 1024 * 1024;

    #[test]
    fn create_and_reopen() {
        let pool = PmPool::create(CAP).unwrap();
        let image = pool.snapshot();
        let mut pool = PmPool::open(image).unwrap();
        assert!(pool.check().is_empty());
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(100).unwrap();
        let b = pool.alloc(200).unwrap();
        assert_ne!(a, b);
        assert!(pool.is_allocated(a));
        pool.free(a).unwrap();
        assert!(!pool.is_allocated(a));
        assert!(pool.is_allocated(b));
        assert!(pool.check().is_empty());
    }

    #[test]
    fn alloc_is_zeroed_and_reusable() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.write(a, &[0xFF; 64]).unwrap();
        pool.persist(a, 64).unwrap();
        pool.free(a).unwrap();
        let b = pool.alloc(64).unwrap();
        assert_eq!(b, a, "freed block is reused");
        assert_eq!(pool.read(b, 64).unwrap(), vec![0; 64]);
    }

    #[test]
    fn double_free_is_detected() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.free(a).unwrap();
        assert!(matches!(pool.free(a), Err(PmError::DoubleFree { .. })));
    }

    #[test]
    fn out_of_space() {
        let mut pool = PmPool::create(layout::HEAP_OFF + 4096).unwrap();
        assert!(matches!(
            pool.alloc(1 << 20),
            Err(PmError::OutOfPmSpace { .. })
        ));
    }

    #[test]
    fn live_blocks_tracks_heap() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(100).unwrap();
        let b = pool.alloc(50).unwrap();
        pool.free(a).unwrap();
        let live = pool.live_blocks().unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, b);
    }

    #[test]
    fn allocator_metadata_survives_crash() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(128).unwrap();
        pool.crash_and_reopen().unwrap();
        assert!(pool.is_allocated(a));
        assert!(pool.check().is_empty());
    }

    #[test]
    fn tx_commit_persists() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.tx_begin().unwrap();
        pool.tx_add(a, 8).unwrap();
        pool.write_u64(a, 0xDEAD).unwrap();
        pool.tx_commit().unwrap();
        pool.crash_and_reopen().unwrap();
        assert_eq!(pool.read_u64(a).unwrap(), 0xDEAD);
    }

    #[test]
    fn tx_abort_restores_old_data() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.write_u64(a, 1).unwrap();
        pool.persist(a, 8).unwrap();
        pool.tx_begin().unwrap();
        pool.tx_add(a, 8).unwrap();
        pool.write_u64(a, 2).unwrap();
        pool.tx_abort().unwrap();
        assert_eq!(pool.read_u64(a).unwrap(), 1);
    }

    #[test]
    fn interrupted_tx_rolls_back_on_reopen() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.write_u64(a, 7).unwrap();
        pool.persist(a, 8).unwrap();
        pool.tx_begin().unwrap();
        pool.tx_add(a, 8).unwrap();
        pool.write_u64(a, 99).unwrap();
        // Make the bad value durable, then crash before commit.
        pool.persist(a, 8).unwrap();
        pool.crash_and_reopen().unwrap();
        assert_eq!(pool.read_u64(a).unwrap(), 7, "undo log restored old value");
    }

    #[test]
    fn nested_tx_rejected() {
        let mut pool = PmPool::create(CAP).unwrap();
        pool.tx_begin().unwrap();
        assert!(matches!(pool.tx_begin(), Err(PmError::TxState(_))));
    }

    #[test]
    fn root_is_stable_across_reopen() {
        let mut pool = PmPool::create(CAP).unwrap();
        let r = pool.root(256).unwrap();
        pool.write_u64(r, 42).unwrap();
        pool.persist(r, 8).unwrap();
        let image = pool.snapshot();
        let mut pool = PmPool::open(image).unwrap();
        assert_eq!(pool.root(256).unwrap(), r);
        assert_eq!(pool.read_u64(r).unwrap(), 42);
    }

    /// A sink that keeps every event it is handed, in arrival order.
    #[derive(Default)]
    struct Rec(std::sync::Mutex<Vec<Ev>>);

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Persist(u64, Vec<u8>),
        Alloc(u64, u64),
        Free(u64),
        Commit(u64),
        RecoverRead(u64, u64),
    }

    impl Rec {
        fn push(&self, ev: Ev) {
            self.0.lock().unwrap().push(ev);
        }

        fn events(&self) -> Vec<Ev> {
            self.0.lock().unwrap().clone()
        }
    }

    impl PmSink for Rec {
        fn on_persist(&self, offset: u64, data: &[u8]) {
            self.push(Ev::Persist(offset, data.to_vec()));
        }
        fn on_alloc(&self, offset: u64, size: u64) {
            self.push(Ev::Alloc(offset, size));
        }
        fn on_free(&self, offset: u64) {
            self.push(Ev::Free(offset));
        }
        fn on_tx_commit(&self, tx_id: u64, _ranges: &[(u64, Vec<u8>)]) {
            self.push(Ev::Commit(tx_id));
        }
        fn on_recover_read(&self, offset: u64, len: u64) {
            self.push(Ev::RecoverRead(offset, len));
        }
    }

    #[test]
    fn sink_sees_persists_allocs_and_commits() {
        let rec = Arc::new(Rec::default());
        let mut pool = PmPool::create(CAP).unwrap();
        pool.set_sink(rec.clone());
        let a = pool.alloc(64).unwrap();
        pool.write_u64(a, 5).unwrap();
        pool.persist(a, 8).unwrap();
        let tx = pool.tx_begin().unwrap();
        pool.tx_add(a, 8).unwrap();
        pool.write_u64(a, 6).unwrap();
        pool.tx_commit().unwrap();
        pool.free(a).unwrap();

        assert_eq!(
            rec.events(),
            vec![
                Ev::Alloc(a, 64),
                Ev::Persist(a, 5u64.to_le_bytes().to_vec()),
                Ev::Commit(tx),
                Ev::Free(a),
            ]
        );
    }

    #[test]
    fn reads_outside_a_recovery_window_make_no_sink_call() {
        let rec = Arc::new(Rec::default());
        let mut pool = PmPool::create(CAP).unwrap();
        pool.set_sink(rec.clone());
        let a = pool.alloc(64).unwrap();
        pool.write_u64(a, 7).unwrap();
        pool.persist(a, 8).unwrap();
        let before = rec.events();

        for _ in 0..100 {
            pool.read(a, 8).unwrap();
        }
        assert_eq!(rec.events(), before);

        // Inside the annotated window every read is reported once.
        pool.recover_begin();
        for _ in 0..5 {
            pool.read(a, 8).unwrap();
        }
        pool.recover_end();
        let mut want = before;
        want.extend(std::iter::repeat_n(Ev::RecoverRead(a, 8), 5));
        assert_eq!(rec.events(), want);

        // And back outside the window the fast path is restored.
        pool.read(a, 8).unwrap();
        assert_eq!(rec.events(), want);
    }

    #[test]
    fn a_fence_delivers_its_ranges_in_flush_order() {
        let rec = Arc::new(Rec::default());
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(256).unwrap();
        pool.set_sink(rec.clone());
        // Flushed in an order that is neither ascending nor descending.
        let order = [2u64, 0, 3, 1];
        for i in order {
            pool.write_u64(a + i * 8, i).unwrap();
            pool.flush_range(a + i * 8, 8).unwrap();
        }
        assert!(
            rec.events().is_empty(),
            "nothing is durable before the fence"
        );
        pool.drain_fence().unwrap();
        let want: Vec<Ev> = order
            .iter()
            .map(|&i| Ev::Persist(a + i * 8, i.to_le_bytes().to_vec()))
            .collect();
        assert_eq!(rec.events(), want);
        assert_eq!(pool.stats().persists, 4, "each range counts as a persist");
    }

    #[test]
    fn file_round_trip_preserves_durable_state_only() {
        let dir = std::env::temp_dir().join(format!("pmemsim-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.img");

        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.write_u64(a, 0xD00D).unwrap();
        pool.persist(a, 8).unwrap();
        pool.write_u64(a + 8, 0xBEEF).unwrap(); // not persisted
        pool.save_to_file(&path).unwrap();

        let mut reopened = PmPool::open_file(&path).unwrap();
        assert_eq!(reopened.read_u64(a).unwrap(), 0xD00D);
        assert_eq!(
            reopened.read_u64(a + 8).unwrap(),
            0,
            "unpersisted data lost"
        );
        assert!(reopened.check().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_flags_corruption() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        // Corrupt the block header size word.
        pool.write_u64(a - layout::BLOCK_HDR, 3).unwrap();
        pool.persist(a - layout::BLOCK_HDR, 8).unwrap();
        assert!(!pool.check().is_empty());
    }

    #[test]
    fn reabsorb_keeps_parent_activity_between_fork_and_reabsorb() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.persist(a, 8).unwrap();
        assert_eq!(pool.stats().persists, 1);

        let mut fork = pool.fork();

        // Parent keeps working after the fork diverges.
        pool.persist(a, 8).unwrap();
        pool.persist(a, 8).unwrap();

        // The fork does its own (smaller) amount of work.
        let b = fork.alloc(32).unwrap();
        fork.persist(b, 8).unwrap();

        pool.reabsorb(fork);
        let s = pool.stats();
        // 1 pre-fork + 2 parent-only + 1 fork delta; the old wholesale
        // assignment would have reported 2 (fork's view), losing the
        // parent's post-fork persists.
        assert_eq!(s.persists, 4);
        assert_eq!(s.allocs, 2);
    }

    #[test]
    fn reabsorb_fork_of_fork_counts_lineage_delta_once() {
        // A chain of forks, each of its predecessor's pool, reabsorbed
        // into the root.
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.persist(a, 8).unwrap();

        let mut sim = pool.fork();
        sim.persist(a, 8).unwrap(); // batch work in the intermediate fork

        let mut step = sim.fork();
        step.persist(a, 8).unwrap();

        pool.persist(a, 8).unwrap(); // parent activity meanwhile

        pool.reabsorb(step);
        let s = pool.stats();
        // 1 pre-fork + 1 parent + (sim 1 + step 1) lineage delta.
        assert_eq!(s.persists, 4);
        assert_eq!(s.allocs, 1, "pre-fork alloc not double counted");
    }

    #[test]
    fn reabsorbing_a_non_fork_pool_adds_its_whole_stats() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.persist(a, 8).unwrap();

        let mut other = PmPool::create(CAP).unwrap();
        let b = other.alloc(64).unwrap();
        other.persist(b, 8).unwrap();
        other.persist(b, 8).unwrap();

        pool.reabsorb(other);
        let s = pool.stats();
        assert_eq!(s.persists, 3);
        assert_eq!(s.allocs, 2);
    }

    #[test]
    fn recorder_counts_pool_operations_and_survives_crash() {
        use obs::Instrument;
        let rec = std::sync::Arc::new(obs::RingRecorder::new(64));
        let mut pool = PmPool::create(CAP).unwrap();
        pool.instrument(rec.clone());

        let a = pool.alloc(64).unwrap();
        pool.persist(a, 64).unwrap();
        pool.tx_begin().unwrap();
        pool.tx_add(a, 8).unwrap();
        pool.tx_commit().unwrap();
        pool.crash_and_reopen().unwrap();
        pool.persist(a, 8).unwrap();

        let counters = rec.counters();
        assert_eq!(counters.get("pool.allocs"), Some(&1));
        assert_eq!(counters.get("pool.persists"), Some(&2));
        assert_eq!(counters.get("pool.bytes_persisted"), Some(&72));
        assert_eq!(counters.get("pool.tx_commits"), Some(&1));
        assert_eq!(counters.get("pool.crashes"), Some(&1));
        assert!(
            rec.events().iter().any(|e| e.kind == "pool.crash"),
            "crash event recorded"
        );
    }

    #[test]
    fn site_counter_numbers_every_durability_boundary() {
        let mut pool = PmPool::create(CAP).unwrap();
        pool.record_site_kinds(true);
        let a = pool.alloc(64).unwrap(); // site 0
        pool.persist(a, 8).unwrap(); // site 1
        pool.flush_range(a, 8).unwrap(); // not a site
        pool.drain_fence().unwrap(); // site 2
        pool.tx_begin().unwrap(); // site 3
        pool.tx_add(a, 8).unwrap(); // not a site
        pool.tx_commit().unwrap(); // site 4
        pool.free(a).unwrap(); // site 5
        assert_eq!(pool.site_count(), 6);
        assert_eq!(
            pool.site_kinds(),
            &[
                SiteKind::Alloc,
                SiteKind::Persist,
                SiteKind::Drain,
                SiteKind::TxBegin,
                SiteKind::TxCommit,
                SiteKind::Free,
            ]
        );
    }

    /// The one capture armed at `site`, taken by `op` (which crosses it).
    fn captured(pool: &mut PmPool) -> SiteCapture {
        let mut taken = pool.take_captures();
        assert_eq!(taken.len(), 1, "exactly one capture fired");
        taken.remove(0)
    }

    #[test]
    fn armed_site_crash_fires_once_and_loses_unpersisted_data() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap(); // site 0
        pool.write_u64(a, 1).unwrap();
        pool.persist(a, 8).unwrap(); // site 1
        pool.arm_captures(&[(2, CrashPolicy::DropStaged)]);
        pool.write_u64(a + 8, 2).unwrap();
        pool.persist(a + 8, 8).unwrap(); // site 2: captured on a fork
        assert!(pool.has_unmarked_captures());
        pool.mark_captures(7);
        assert!(!pool.has_unmarked_captures());
        let c = captured(&mut pool);
        assert_eq!(
            (c.site, c.policy, c.trace_len),
            (2, CrashPolicy::DropStaged, Some(7))
        );
        assert_eq!(c.pool.stats().crashes, 1);
        assert_eq!(c.pool.site_count(), 3);
        // The capture owns the crashed image; reopen it like a restart would.
        let mut reopened = PmPool::open(c.pool.snapshot()).unwrap();
        assert_eq!(reopened.read_u64(a).unwrap(), 1, "persisted data kept");
        assert_eq!(reopened.read_u64(a + 8).unwrap(), 0, "in-flight data lost");
        // The pool itself never crashed, and the capture fired once.
        assert_eq!(pool.stats().crashes, 0);
        assert_eq!(pool.read_u64(a + 8).unwrap(), 2);
        assert_eq!(pool.captures_armed(), 0);
        pool.persist(a, 8).unwrap();
        assert!(pool.take_captures().is_empty());
    }

    #[test]
    fn armed_site_crash_survives_scripted_crash_and_fork_drops_it() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap(); // site 0
        pool.arm_captures(&[(3, CrashPolicy::DropStaged), (0, CrashPolicy::KeepStaged)]);
        assert_eq!(
            pool.captures_armed(),
            1,
            "an already-crossed site never fires"
        );
        pool.crash_and_reopen().unwrap(); // scenario's own crash
        pool.persist(a, 8).unwrap(); // site 1
        let mut fork = pool.fork();
        fork.persist(a, 8).unwrap(); // fork site 2: capture dropped
        fork.persist(a, 8).unwrap(); // fork site 3: still no capture
        assert!(fork.take_captures().is_empty());
        pool.persist(a, 8).unwrap(); // site 2
        pool.persist(a, 8).unwrap(); // site 3
        assert_eq!(
            captured(&mut pool).site,
            3,
            "armed capture survives an intervening scripted crash"
        );
    }

    #[test]
    fn site_crash_preserves_configured_policy() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.set_crash_policy(CrashPolicy::KeepStaged);
        pool.arm_captures(&[(1, CrashPolicy::DropStaged), (1, CrashPolicy::KeepStaged)]);
        pool.write_u64(a, 7).unwrap();
        pool.flush_range(a, 8).unwrap();
        pool.drain_fence().unwrap(); // site 1: one fork per policy
        let taken = pool.take_captures();
        let policies: Vec<CrashPolicy> = taken.iter().map(|c| c.policy).collect();
        assert_eq!(policies, [CrashPolicy::DropStaged, CrashPolicy::KeepStaged]);
        for c in &taken {
            assert_eq!(
                c.pool.device().crash_policy(),
                CrashPolicy::KeepStaged,
                "capture policy does not leak into the configured policy"
            );
        }
        let value = |c: &SiteCapture| {
            PmPool::open(c.pool.snapshot())
                .unwrap()
                .read_u64(a)
                .unwrap()
        };
        assert_eq!(value(&taken[0]), 0, "staged line dropped");
        assert_eq!(value(&taken[1]), 7, "staged line kept");
        assert_eq!(pool.device().crash_policy(), CrashPolicy::KeepStaged);
    }

    /// The sink is told at the boundary, before the boundary's own
    /// operation reaches it, and its answer rides on the capture.
    #[test]
    fn a_capture_carries_the_sink_state_at_the_boundary() {
        #[derive(Default)]
        struct Count(std::sync::atomic::AtomicU64);
        impl PmSink for Count {
            fn on_persist(&self, _offset: u64, _data: &[u8]) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            fn on_capture(&self) -> Option<Box<dyn Any + Send>> {
                Some(Box::new(self.0.load(std::sync::atomic::Ordering::Relaxed)))
            }
        }
        let sink = Arc::new(Count::default());
        let mut pool = PmPool::create(CAP).unwrap();
        pool.set_sink(sink.clone());
        let a = pool.alloc(64).unwrap(); // site 0
        pool.arm_captures(&[(2, CrashPolicy::DropStaged)]);
        pool.persist(a, 8).unwrap(); // site 1
        pool.persist(a, 8).unwrap(); // site 2
        let state = captured(&mut pool).sink_state.expect("the sink answered");
        assert_eq!(*state.downcast::<u64>().unwrap(), 1);
        assert_eq!(sink.0.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn restore_drops_ranges_flushed_but_not_fenced() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        let image = pool.snapshot();
        let sink = Arc::new(Rec::default());
        pool.set_sink(sink.clone());
        pool.write_u64(a, 9).unwrap();
        pool.flush_range(a, 8).unwrap();
        pool.restore(&image).unwrap();
        pool.drain_fence().unwrap();
        assert!(
            sink.events().is_empty(),
            "the flushed write never became durable, so nothing is checkpointed"
        );
        assert_eq!(pool.stats().persists, 0);
        assert_eq!(pool.read_u64(a).unwrap(), 0);
    }

    #[test]
    fn persisted_writes_leave_no_line_cached() {
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64 * 1024).unwrap();
        assert_eq!(
            pool.device().cached_lines(),
            0,
            "alloc persists its metadata"
        );
        for i in 0..512u64 {
            pool.write_u64(a + i * 128, i).unwrap();
            pool.persist(a + i * 128, 8).unwrap();
            assert_eq!(pool.device().cached_lines(), 0);
        }
    }

    #[test]
    fn a_fork_copies_no_page_and_then_one_per_page_it_writes() {
        const PAGE: u64 = crate::image::PAGE as u64;
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(16 * PAGE).unwrap();
        let first = a.next_multiple_of(PAGE);
        for p in 0..8 {
            pool.write_u64(first + p * PAGE, p + 1).unwrap();
            pool.persist(first + p * PAGE, 8).unwrap();
        }
        let touched = pool.device().stats().pages_copied;
        assert!(touched >= 8, "the parent materialised the pages it wrote");

        let mut fork = pool.fork();
        let snapshot = pool.snapshot();
        let reopened = PmPool::open(pool.snapshot()).unwrap();
        assert_eq!(pool.device().stats().pages_copied, touched);
        assert_eq!(fork.device().stats().pages_copied, touched);
        assert_eq!(reopened.device().stats().pages_copied, 0);

        // k distinct pages written and persisted on the fork: exactly k
        // copies there, none on the parent, and the parent's bytes stay.
        for p in 0..3 {
            fork.write_u64(first + p * PAGE + 64, 0xF0).unwrap();
            fork.persist(first + p * PAGE + 64, 8).unwrap();
        }
        assert_eq!(fork.device().stats().pages_copied, touched + 3);
        assert_eq!(pool.device().stats().pages_copied, touched);
        assert_eq!(pool.read_u64(first + 64).unwrap(), 0);
        assert_eq!(pool.snapshot(), snapshot);
        // A second write to a page the fork now owns copies nothing.
        fork.write_u64(first + 128, 1).unwrap();
        fork.persist(first + 128, 8).unwrap();
        assert_eq!(fork.device().stats().pages_copied, touched + 3);
    }

    #[test]
    fn recorder_counts_pages_copied_after_a_fork() {
        use obs::Instrument;
        let mut pool = PmPool::create(CAP).unwrap();
        let a = pool.alloc(64).unwrap();
        pool.persist(a, 8).unwrap();
        let rec = Arc::new(obs::RingRecorder::new(16));
        pool.instrument(rec.clone());
        pool.write_u64(a, 1).unwrap();
        pool.persist(a, 8).unwrap();
        assert_eq!(rec.counters().get("pool.pages_copied"), None, "owned page");
        let _fork = pool.fork();
        pool.write_u64(a, 2).unwrap();
        pool.persist(a, 8).unwrap();
        pool.write_u64(a, 3).unwrap();
        pool.persist(a, 8).unwrap();
        assert_eq!(rec.counters().get("pool.pages_copied"), Some(&1));
    }

    #[test]
    fn pools_cross_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<PmPool>();
    }
}
