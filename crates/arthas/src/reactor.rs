//! The Arthas reactor (§4.4–4.7): reversion planning and the
//! multi-attempt rollback / purge loop.
//!
//! Given a suspected hard failure, the reactor:
//!
//! 1. computes the backward slice of the fault instruction over the PDG
//!    and keeps only PM-updating instructions;
//! 2. joins those instructions, via their GUIDs and the dynamic PM address
//!    trace, with the checkpoint log to obtain a candidate list of
//!    sequence numbers (default policy: sort descending, de-duplicate);
//! 3. reverts candidates — one by one or in batches, in **purge** mode
//!    (only dependent entries, plus a forward-dependency second pass and
//!    transaction-sibling grouping) or **rollback** mode (everything at or
//!    after the chosen sequence number) — re-executing the target between
//!    attempts and trying older versions when the list is exhausted;
//! 4. falls back from purge to rollback after repeated failures, and
//!    aborts to a plain restart when the plan is empty (the detector's
//!    false alarms are pruned here, §4.5).
//!
//! Persistent-leak failures take the dedicated path of §4.7: live
//! allocations in the checkpoint log that the application's recovery
//! function never touched are freed.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pir::ir::{InstRef, Module};
use pir::vm::{Vm, VmOpts};
use pir_analysis::{Adjacency, ModuleAnalysis};
use pmemsim::{capture_reads, PmPool, PoolGroup, ReadSet};

use obs::Value;

use crate::analyzer::GuidMap;
use crate::checkpoint::{LogView, SharedLog, Span, MAX_VERSIONS};
use crate::detector::{FailureKind, FailureRecord};
use crate::episode::Rung;
use crate::trace::PmTrace;

/// An invalid configuration rejected by a builder's `build()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Reversion strategy: strict time order vs dependent-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Revert every update at or after the chosen sequence number.
    Rollback,
    /// Revert only the dependent entries (may need the consistency second
    /// pass; can fall back to rollback).
    Purge,
}

/// How the revert loop walks the plan: how many candidates each step
/// reverts, and whether it continues the last step's lineage (`OneByOne`,
/// `Batch`) or starts over from the crashed image (`Gallop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// One candidate per step (minimises discarded data): the paper's.
    OneByOne,
    /// Up to `n` candidates per step (fewer re-executions).
    Batch(usize),
    /// For a live server, whose plan tops out with post-fault traffic:
    /// each step starts over, so a wrong guess leaves nothing behind. A
    /// purge step reverts one candidate; rollback steps take 1, 2, 4, …,
    /// reset per depth: depth `d` in O(log d) re-executions, overshooting
    /// the minimal cut by up to the last stride.
    Gallop,
}

impl Search {
    /// The next step under `mode`, after `streak` steps at this version
    /// depth in that mode: how many candidates it takes, and whether it
    /// starts from the crashed image instead of continuing the lineage.
    fn step(self, mode: Mode, streak: u32) -> (usize, bool) {
        match (self, mode) {
            (Search::OneByOne, _) => (1, false),
            (Search::Batch(n), _) => (n.max(1), false),
            (Search::Gallop, Mode::Purge) => (1, true),
            // `streak` steps took 2^streak - 1 candidates: no overflow.
            (Search::Gallop, Mode::Rollback) => (1 << streak, true),
        }
    }
}

/// Reactor configuration.
///
/// Construct with [`ReactorConfig::builder`] (validated) or start from
/// [`ReactorConfig::default`]; derive variants with
/// [`ReactorConfig::to_builder`]. The builder is the only construction
/// path — the struct-literal fields deprecated in 0.4.0 have been
/// removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Reversion mode.
    mode: Mode,
    /// How the loop walks the plan.
    search: Search,
    /// Purge attempts before falling back to rollback mode.
    purge_fallback_after: u32,
    /// After a successful recovery, spend extra re-executions restoring
    /// reverted entries that turn out not to be needed (the technical
    /// report's reduction of the reverted sequence-number set). Lowers
    /// discarded data at the cost of more attempts.
    minimize_loss: bool,
}

/// Validating builder for [`ReactorConfig`]; see the field setters for
/// what each knob does. Obtained from [`ReactorConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfigBuilder {
    cfg: ReactorConfig,
}

impl ReactorConfigBuilder {
    /// Reversion mode (default [`Mode::Purge`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// How the loop walks the plan (default [`Search::OneByOne`]).
    /// `Batch(0)` is rejected by [`ReactorConfigBuilder::build`].
    pub fn search(mut self, search: Search) -> Self {
        self.cfg.search = search;
        self
    }

    /// Purge attempts before falling back to rollback mode, ≥ 1
    /// (default 60).
    pub fn purge_fallback_after(mut self, purge_fallback_after: u32) -> Self {
        self.cfg.purge_fallback_after = purge_fallback_after;
        self
    }

    /// After a successful recovery, spend extra re-executions restoring
    /// reverted entries that turn out not to be needed (default off).
    pub fn minimize_loss(mut self, minimize_loss: bool) -> Self {
        self.cfg.minimize_loss = minimize_loss;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ReactorConfig, ConfigError> {
        if self.cfg.purge_fallback_after == 0 {
            return Err(ConfigError(
                "purge_fallback_after must be at least 1".into(),
            ));
        }
        if self.cfg.search == Search::Batch(0) {
            return Err(ConfigError(
                "batch size 0 would revert nothing per attempt; use OneByOne".into(),
            ));
        }
        Ok(self.cfg)
    }
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            mode: Mode::Purge,
            search: Search::OneByOne,
            purge_fallback_after: 60,
            minimize_loss: false,
        }
    }
}

impl ReactorConfig {
    /// A validating builder seeded with the defaults.
    pub fn builder() -> ReactorConfigBuilder {
        ReactorConfigBuilder {
            cfg: ReactorConfig::default(),
        }
    }

    /// A builder seeded with this configuration, for deriving variants.
    pub fn to_builder(self) -> ReactorConfigBuilder {
        ReactorConfigBuilder { cfg: self }
    }

    /// The profile a live server mitigates under: [`Search::Gallop`], and
    /// a quick fall-back to rollback — under traffic each failed attempt
    /// is a full re-execution with connections stalling, so
    /// time-to-recover outweighs the smaller discard a long purge crawl
    /// might eventually find.
    pub fn serving() -> Self {
        ReactorConfig {
            search: Search::Gallop,
            purge_fallback_after: 8,
            ..ReactorConfig::default()
        }
    }

    /// How the loop walks the plan (what names `arthas-batch:n`).
    pub fn search(&self) -> Search {
        self.search
    }
}

/// Re-execution budget of the revert loop before giving up (the paper's
/// 10-minute timeout analogue).
const MAX_ATTEMPTS: u32 = 200;

/// Reopens a copy of `image`'s durable bytes, as a real restart would,
/// under a fresh VM over `module` with `sink` attached. A pool that does
/// not reopen is the restart's failure.
pub fn reopen(
    module: &Arc<Module>,
    vm: VmOpts,
    image: &PmPool,
    sink: Option<&SharedLog>,
) -> Result<Vm, FailureRecord> {
    let pool = PmPool::open(image.snapshot())
        .map_err(|e| FailureRecord::wrong_result(format!("pool reopen: {e}")))?;
    let mut vm = Vm::new(module.clone(), pool, vm);
    if let Some(log) = sink {
        vm.pool_mut().set_sink(log.as_sink());
    }
    Ok(vm)
}

/// The system under mitigation, restarted: [`reopen`] the candidate
/// image, then `probe` runs the application's recovery and the checks
/// that say it is operational (`Ok(())`), or returns the failure if the
/// symptom persists.
///
/// The reactor attaches its own log as the sink, paused while it
/// reverts so attempts rotate no good version out of it; recovery reads
/// are still tracked for leak mitigation (§4.7).
///
/// The restart contract (DESIGN §4.5) holds by construction for its
/// first half: every run is on a copy of the pool, so the image passed
/// in is never modified; and the reactor's log stays paused through its
/// revert loop, so a failed attempt records nothing anyone reads. The
/// probe owes the second half: its verdict must depend only on the bytes
/// it reads from the reopened image, on the calling thread. The reactor
/// captures those reads ([`pmemsim::capture_reads`]) and gives a later
/// step whose image holds the same bytes at every one of them the
/// earlier verdict without restarting again.
#[derive(Clone, Copy)]
pub struct Restart<'a> {
    /// The module to restart (the trace-instrumented one in production).
    pub module: &'a Arc<Module>,
    /// The restarted VM's options; a restart hangs exactly when a call
    /// under them would.
    pub vm: VmOpts,
    /// Recovery plus verification over the reopened VM.
    pub probe: &'a dyn Fn(&mut Vm) -> Result<(), FailureRecord>,
}

impl Restart<'_> {
    /// Restarts over a copy of `image` with `sink` attached and probes.
    pub fn run(&self, image: &PmPool, sink: &SharedLog) -> Result<(), FailureRecord> {
        let mut vm = reopen(self.module, self.vm, image, Some(sink))?;
        (self.probe)(&mut vm)
    }
}

/// Keeps the checkpoint log disabled while reversions are applied and
/// re-executed, and re-enables it on drop — also when a re-execution
/// panics through the reactor, so a supervisor that catches the panic
/// does not go on serving with checkpointing silently off.
struct LogPaused<'l>(&'l SharedLog);

impl<'l> LogPaused<'l> {
    fn new(log: &'l SharedLog) -> Self {
        log.set_enabled(false);
        LogPaused(log)
    }
}

impl Drop for LogPaused<'_> {
    fn drop(&mut self) {
        self.0.set_enabled(true);
    }
}

/// Wall time spent in each mitigation phase (the per-phase breakdown
/// behind the paper's Fig. 8/Table 9 timing discussion). The phases are
/// disjoint: `slice` is carved out of planning, and time outside all four
/// (bookkeeping, lock waits) is unattributed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Backward slicing of the fault instruction.
    pub slice: Duration,
    /// The rest of candidate planning (trace join, covering lookup, sort).
    pub plan: Duration,
    /// Applying reversion batches to the pool.
    pub revert: Duration,
    /// Re-executing the target (wall time).
    pub reexec: Duration,
}

/// Result of a mitigation: what one rung of the recovery ladder did.
#[derive(Debug, Clone)]
pub struct MitigationOutcome {
    /// The rung this outcome comes from: a plain restart (the plan was
    /// empty: a false alarm), a reversion, or a standby's promotion.
    pub rung: Rung,
    /// Whether the system was brought back to an operational state.
    pub recovered: bool,
    /// Number of re-executions performed.
    pub attempts: u32,
    /// Attempts that took the verdict of an earlier failed re-execution
    /// instead of restarting: the earlier run read no byte their image
    /// changes.
    pub skipped: u32,
    /// Length of the candidate sequence list.
    pub plan_len: usize,
    /// The checkpoint sequence numbers that ended up reverted.
    pub reverted_seqs: BTreeSet<u64>,
    /// Distinct checkpoint updates (sequence numbers) discarded.
    pub discarded_updates: u64,
    /// Distinct PM addresses reverted.
    pub discarded_entries: u64,
    /// Wall-clock time of the whole mitigation.
    pub wall: Duration,
    /// Whether purge mode fell back to rollback.
    pub mode_fellback: bool,
    /// Suspected leak objects freed (leak mitigation only).
    pub leaks_freed: u64,
    /// Per-phase wall-time breakdown.
    pub phases: PhaseTimes,
}

impl MitigationOutcome {
    /// What `rung` reports before it has done anything: nothing
    /// attempted, nothing discarded, not recovered.
    pub fn new(rung: Rung) -> Self {
        MitigationOutcome {
            rung,
            recovered: false,
            attempts: 0,
            skipped: 0,
            plan_len: 0,
            reverted_seqs: BTreeSet::new(),
            discarded_updates: 0,
            discarded_entries: 0,
            wall: Duration::ZERO,
            mode_fellback: false,
            leaks_freed: 0,
            phases: PhaseTimes::default(),
        }
    }

    /// Restarts actually paid: one per attempt that did not take an
    /// earlier verdict. Each costs one restart delay (the paper's 3–5 s).
    pub fn reexec_rounds(&self) -> u32 {
        self.attempts - self.skipped
    }
}

/// Bookkeeping of what the reversion loop has written where, so the
/// minimization pass can undo reversions that were not needed, and so a
/// rollback step can start from where its predecessor left the pool.
#[derive(Default, Clone, PartialEq, Debug)]
struct RevertLedger {
    /// First-touch pool bytes per address (what was there before any
    /// reversion).
    originals: BTreeMap<u64, Vec<u8>>,
    /// Discarded sequence numbers attributed to each reverted address.
    /// Ordered by address: `minimize` walks it under a re-execution
    /// budget, so its order decides which reversions are restored.
    by_addr: BTreeMap<u64, BTreeSet<u64>>,
    /// Every range this lineage wrote, as address → longest length: the
    /// only pool bytes that can differ from the image the plan was made
    /// on (see [`LogFacts::heal_suspects`]).
    written: BTreeMap<u64, u64>,
    /// The cut this lineage's pool was last rolled back to; `None` before
    /// its first rollback. A rollback at or below it pays only for the
    /// difference ([`Reactor::rollback_to`]).
    cut: Option<u64>,
    /// The ranges written since the last heal scan, as in `written`.
    pending: BTreeMap<u64, u64>,
    /// Plan positions the last heal scan left out as its own batch.
    unscanned: Range<usize>,
}

impl RevertLedger {
    /// Writes `data` at `addr` and persists it, noting the range and
    /// keeping the bytes first found there: every reversion write goes
    /// through here.
    fn write(&mut self, pool: &mut PmPool, addr: u64, data: &[u8], work: &mut StepWork) {
        for ranges in [&mut self.written, &mut self.pending] {
            let longest = ranges.entry(addr).or_default();
            *longest = (*longest).max(data.len() as u64);
        }
        if let std::collections::btree_map::Entry::Vacant(e) = self.originals.entry(addr) {
            if let Ok(cur) = pool.read(addr, data.len() as u64) {
                e.insert(cur);
            }
        }
        let _ = pool.write(addr, data);
        let _ = pool.persist(addr, data.len() as u64);
        work.writes += 1;
    }

    /// Writes candidate `seq`'s durable truth back over diverged media at
    /// `addr`.
    fn heal(&mut self, pool: &mut PmPool, seq: u64, addr: u64, data: &[u8], work: &mut StepWork) {
        self.write(pool, addr, data, work);
        self.by_addr.entry(addr).or_default();
        work.heals.push((seq, addr));
    }

    /// Every byte this lineage wrote, range after range, as `pool` holds
    /// it: outside these ranges the pool is the image the plan was made
    /// on.
    #[cfg(debug_assertions)]
    fn written_bytes(&self, pool: &PmPool) -> Vec<u8> {
        let mut out = Vec::new();
        for (&a, &n) in &self.written {
            let at = out.len();
            out.resize(at + n as usize, 0);
            let _ = pool.peek_into(a, &mut out[at..]);
        }
        out
    }

    /// Whether this lineage wrote any byte of `[addr, addr + len)`. Every
    /// write is log data, so none is longer than `max_len`.
    fn wrote_over(&self, addr: u64, len: u64, max_len: u64) -> bool {
        self.written
            .range(addr.saturating_sub(max_len)..addr.saturating_add(len))
            .any(|(&a, &n)| a + n > addr)
    }

    fn discarded_updates(&self) -> u64 {
        self.by_addr.values().map(|s| s.len() as u64).sum()
    }

    fn reverted_seqs(&self) -> BTreeSet<u64> {
        self.by_addr.values().flatten().copied().collect()
    }

    fn touched(&self) -> u64 {
        self.by_addr.len() as u64
    }
}

/// What one reversion step did: the candidates it healed, for its
/// `reactor.heal` events, and its work, for the `reactor.revert_writes`
/// and `reactor.heal_checks` counters.
#[derive(Debug, Default)]
struct StepWork {
    /// `(seq, addr)` of every candidate the step healed.
    heals: Vec<(u64, u64)>,
    /// Pool writes: rollback, heal and purge.
    writes: u64,
    /// Candidates whose bytes the heal below the cut compared.
    heal_checks: u64,
}

/// The newest failed re-execution the revert loop paid for: the bytes its
/// restart read from its start image, and the verdict it reached. A
/// restart is deterministic in the bytes it reads (see [`Restart`]), so a
/// step whose image holds the same bytes at every one of those offsets
/// would read the same values, take the same path and fail the same way.
struct Basis {
    reads: ReadSet,
    /// The start image's bytes at `reads`, range after range.
    bytes: Vec<u8>,
    failure: FailureRecord,
}

impl Basis {
    /// `None` when `pool` holds stores that have not reached media: a
    /// restart opens the durable image, which only a clean pool's reads
    /// show.
    fn new(pool: &PmPool, reads: ReadSet, failure: FailureRecord) -> Option<Basis> {
        if pool.device().dirty_lines() != 0 {
            return None;
        }
        let mut bytes = vec![0; reads.bytes() as usize];
        let mut at = 0;
        for r in reads.ranges() {
            let n = (r.end - r.start) as usize;
            pool.peek_into(r.start, &mut bytes[at..at + n]).ok()?;
            at += n;
        }
        Some(Basis {
            reads,
            bytes,
            failure,
        })
    }

    /// The basis verdict, when `pool`'s durable image holds the basis
    /// bytes at every offset the basis restart read.
    fn verdict_for(&self, pool: &PmPool) -> Option<FailureRecord> {
        if pool.device().dirty_lines() != 0 {
            return None;
        }
        let mut buf = Vec::new();
        let mut at = 0;
        for r in self.reads.ranges() {
            let n = (r.end - r.start) as usize;
            buf.resize(n, 0);
            pool.peek_into(r.start, &mut buf).ok()?;
            if buf != self.bytes[at..at + n] {
                return None;
            }
            at += n;
        }
        Some(self.failure.clone())
    }
}

/// A reversion plan: candidate sequence numbers (most recent first) and,
/// for the purge-mode consistency pass, the slice instructions each
/// candidate came from.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Candidate checkpoint sequence numbers, most recent first.
    pub seqs: Vec<u64>,
    /// Which PM instructions contributed each candidate.
    pub sources: std::collections::HashMap<u64, Vec<InstRef>>,
}

/// What one mitigation knows about the checkpoint log: each fact derived
/// once, then reused by every attempt. Built by [`Reactor::plan`], owned
/// by [`Reactor::mitigate`] and dropped with the outcome; sized by
/// instructions and logged entries (every candidate is one), never by
/// trace records, and by retained versions only once a rollback starts
/// from an earlier one's pool (`versions`).
///
/// Reuse is exact because the log records nothing between the plan and
/// the outcome: [`LogPaused`] holds through the revert loop, and
/// `restart_only`, the one path that restarts with recording on, never
/// reaches it. `frontier` is asserted unchanged at the outcome.
struct LogFacts {
    /// Every entry with a retained version, ascending by address.
    spans: Vec<Span>,
    /// Per entry of `spans`, the largest `end` of it and every entry
    /// below it: a backward scan for entries reaching an address stops
    /// where this falls to it.
    reach: Vec<u64>,
    /// Per entry of `spans`, its position in the final plan when it is a
    /// candidate.
    pos: Vec<Option<u32>>,
    /// Indices into `spans`, newest seq first: the prefix at or above a
    /// cut is `addrs_touched_since(cut)`, and a seq's entry is a binary
    /// search away.
    by_newest: Vec<u32>,
    /// The store-wide largest data size, which bounds every covering and
    /// overlay window.
    max_len: u64,
    /// Per PM-write instruction, the slice × trace × log join: a bit per
    /// entry of `spans` that covers one of its traced offsets.
    joins: HashMap<InstRef, Vec<u64>>,
    /// Candidates whose bytes on the crashed image diverged from
    /// `expected_current` (the plan's divergence sort).
    diverged_seqs: HashSet<u64>,
    /// Plan positions of the `diverged_seqs` candidates.
    diverged_at: Vec<usize>,
    /// The address of every seq asked about that is no entry's newest
    /// (`None`: rotated out).
    addrs: HashMap<u64, Option<u64>>,
    /// `expected_current` of the addresses whose bytes were needed: every
    /// other candidate's are its bytes on the crashed image.
    expected: HashMap<u64, Option<Vec<u8>>>,
    /// `(latest_seq, total_updates)` when the facts were derived.
    frontier: (u64, u64),
    /// [`LogView::version_seqs`], taken by the first rollback that starts
    /// from an earlier one's pool.
    versions: Option<Vec<(u64, u64)>>,
}

impl LogFacts {
    fn new(log: &LogView<'_>) -> Self {
        let spans = log.spans();
        let mut by_newest: Vec<u32> = (0..spans.len() as u32).collect();
        by_newest.sort_unstable_by_key(|&i| std::cmp::Reverse(spans[i as usize].seq));
        let reach = spans
            .iter()
            .scan(0, |top, s| {
                *top = s.end.max(*top);
                Some(*top)
            })
            .collect();
        LogFacts {
            pos: vec![None; spans.len()],
            reach,
            spans,
            by_newest,
            max_len: log.max_len(),
            joins: HashMap::new(),
            diverged_seqs: HashSet::new(),
            diverged_at: Vec::new(),
            addrs: HashMap::new(),
            expected: HashMap::new(),
            frontier: (log.latest_seq(), log.total_updates()),
            versions: None,
        }
    }

    /// The entries [`LogView::covering`] reports for any of `offsets`, as
    /// distinct `(index into spans, seq)`; joined once per instruction.
    fn join(&mut self, at: InstRef, offsets: &[u64]) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (spans, reach) = (&self.spans, &self.reach);
        let words = self.joins.entry(at).or_insert_with(|| {
            let mut offsets = offsets.to_vec();
            offsets.sort_unstable();
            offsets.dedup();
            let mut words = vec![0u64; spans.len().div_ceil(64)];
            let mut upto = 0;
            for off in offsets {
                // Every entry starting at or below `off` whose range
                // reaches past it.
                upto += spans[upto..].partition_point(|s| s.addr <= off);
                for i in (0..upto).rev().take_while(|&i| reach[i] > off) {
                    if spans[i].end > off {
                        words[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            words
        });
        words.iter().enumerate().flat_map(move |(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| (w * 64 + b, spans[w * 64 + b].seq))
        })
    }

    /// The index into `spans` of the entry whose newest version is `seq`.
    fn entry_of(&self, seq: u64) -> Option<usize> {
        let found = self
            .by_newest
            .binary_search_by(|&i| seq.cmp(&self.spans[i as usize].seq));
        found.ok().map(|k| self.by_newest[k] as usize)
    }

    /// Records entry `k`'s newest seq as a candidate and returns whether
    /// its bytes on the crashed image `pool` diverge from the log's
    /// ([`seq_diverged`]), keeping the expected bytes only when they
    /// differ from the pool's.
    fn plan_candidate(&mut self, log: &LogView<'_>, pool: &mut PmPool, k: usize) -> bool {
        let Span { addr, seq, .. } = self.spans[k];
        // With no newer entry overlapping it, an entry's expected bytes
        // are its newest version's.
        let expected = if self.overlaid(k) {
            log.expected_current(addr).map(Cow::Owned)
        } else {
            let newest = log.entry(addr).and_then(|e| e.versions.back());
            newest.map(|v| Cow::Borrowed(&v.data[..]))
        };
        debug_assert_eq!(expected.as_deref(), log.expected_current(addr).as_deref());
        let Some(expected) = expected else {
            return false;
        };
        let diverged = pool
            .read(addr, expected.len() as u64)
            .is_ok_and(|cur| cur != *expected);
        if diverged {
            self.diverged_seqs.insert(seq);
            self.expected.insert(addr, Some(expected.into_owned()));
        }
        diverged
    }

    /// Whether a newer entry overlaps entry `k`'s newest bytes, so that
    /// `expected_current` overlays something on them.
    fn overlaid(&self, k: usize) -> bool {
        let s = self.spans[k];
        let above = self.spans[k + 1..]
            .iter()
            .take_while(|t| t.addr < s.addr + s.len)
            .any(|t| t.seq > s.seq);
        let below = (0..k)
            .rev()
            .take_while(|&j| self.reach[j] > s.addr)
            .map(|j| self.spans[j])
            .any(|t| t.addr + t.len > s.addr && t.seq > s.seq);
        above || below
    }

    /// Marks the final plan's candidates with their positions.
    fn index(&mut self, plan: &Plan) {
        for (i, &s) in plan.seqs.iter().enumerate() {
            if let Some(k) = self.entry_of(s) {
                self.pos[k] = Some(i as u32);
            }
            if self.diverged_seqs.contains(&s) {
                self.diverged_at.push(i);
            }
        }
    }

    /// Learns the address and `expected_current` of a seq that is not a
    /// candidate (a purge's transaction siblings and forward
    /// dependencies).
    fn learn(&mut self, log: &LogView<'_>, seq: u64) {
        let addr = match self.entry_of(seq) {
            Some(k) if self.pos[k].is_some() => return,
            Some(k) => Some(self.spans[k].addr),
            None => *self
                .addrs
                .entry(seq)
                .or_insert_with(|| log.addr_of_seq(seq)),
        };
        if let Some(addr) = addr {
            self.expected
                .entry(addr)
                .or_insert_with(|| log.expected_current(addr));
        }
    }

    /// A candidate's or learned seq's address.
    fn addr(&self, seq: u64) -> Option<u64> {
        match self.entry_of(seq) {
            Some(k) => Some(self.spans[k].addr),
            None => {
                debug_assert!(self.addrs.contains_key(&seq), "seq {seq} not learned");
                self.addrs.get(&seq).copied().flatten()
            }
        }
    }

    /// When `pool`'s bytes at a candidate's or learned seq differ from
    /// what the log says they should be ([`seq_diverged`]), the seq's
    /// address and those bytes. `pool` is the crashed image plus what
    /// `ledger`'s lineage wrote, so a candidate that matched the log on
    /// the crashed image and lies outside every written range still
    /// matches it.
    fn diverged(
        &mut self,
        log: &SharedLog,
        pool: &mut PmPool,
        ledger: &RevertLedger,
        seq: u64,
    ) -> Option<(u64, &[u8])> {
        let addr = match self.entry_of(seq).map(|k| (self.spans[k], self.pos[k])) {
            Some((s, None)) => s.addr,
            Some((s, Some(_)))
                if self.diverged_seqs.contains(&seq)
                    || ledger.wrote_over(s.addr, s.len, self.max_len) =>
            {
                s.addr
            }
            Some(_) => return None,
            None => self.addr(seq)?,
        };
        let expected = self
            .expected
            .entry(addr)
            .or_insert_with(|| log.view().expected_current(addr))
            .as_deref();
        debug_assert_eq!(
            expected,
            log.view().expected_current(addr).as_deref(),
            "kept expected bytes at {addr}"
        );
        let expected = expected?;
        let cur = pool.read(addr, expected.len() as u64).ok()?;
        (cur != expected).then_some((addr, expected))
    }

    /// The addresses a rollback to `cut` writes other bytes at than one
    /// to `from` does, ascending: those with a version in `[cut, from)`.
    /// Without `from` (no earlier rollback to start from), every address
    /// with a version at or after `cut`: `addrs_touched_since(cut)`.
    fn moved(&mut self, log: &LogView<'_>, cut: u64, from: Option<u64>) -> Vec<u64> {
        let mut out: Vec<u64> = match from {
            None => {
                let n = self
                    .by_newest
                    .partition_point(|&i| self.spans[i as usize].seq >= cut);
                self.by_newest[..n]
                    .iter()
                    .map(|&i| self.spans[i as usize].addr)
                    .collect()
            }
            Some(from) => {
                let versions = self.versions.get_or_insert_with(|| log.version_seqs());
                let lo = versions.partition_point(|&(s, _)| s < cut);
                let hi = versions.partition_point(|&(s, _)| s < from);
                versions[lo..hi].iter().map(|&(_, a)| a).collect()
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether a rollback to `cut` writes `addr`: its newest version is
    /// at or after the cut.
    fn touched_since(&self, addr: u64, cut: u64) -> bool {
        let k = self.spans.partition_point(|s| s.addr < addr);
        self.spans
            .get(k)
            .is_some_and(|s| s.addr == addr && s.seq >= cut)
    }

    /// The candidates, by plan position, with an address in
    /// `[from, to)`, as `(position, address, length)`.
    fn candidates_in(&self, from: u64, to: u64) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let lo = self.spans.partition_point(|s| s.addr < from);
        let hi = self.spans.partition_point(|s| s.addr < to);
        (lo..hi).filter_map(|k| {
            let s = &self.spans[k];
            Some((self.pos[k]? as usize, s.addr, s.len))
        })
    }

    /// The plan positions the heal below a cut must look at, ascending,
    /// given the addresses `moved` by the rollback to the cut, the ranges
    /// `written` since the last heal scan, and the positions that scan
    /// left out (`unscanned`).
    ///
    /// A candidate at `addr` whose address was not touched since the cut
    /// (its seq, the address's newest, is below it) is owed a heal when
    /// the pool's bytes differ from `expected_before(addr, cut)`. Both
    /// sides are known unless something changed since they were last
    /// compared. On a lineage's first rollback (`moved` is every address
    /// touched since the cut, `written` everything the lineage wrote),
    /// that comparison is the plan's:
    ///
    /// * `expected_before(addr, cut)` is `addr`'s newest version overlaid
    ///   with the newest below-cut version of every newer entry in its
    ///   overlay window. When no entry in that window has a version at or
    ///   after the cut, each such version is the entry's newest, and the
    ///   result is `expected_current(addr)`.
    /// * The pool holds the crashed image plus what this attempt's lineage
    ///   wrote — re-executions restart on copies — so away from every
    ///   range in `ledger.written` it holds the bytes the plan read, and
    ///   those equal `expected_current(addr)` unless the candidate
    ///   diverged at plan time.
    ///
    /// On a rollback below the lineage's last one, the comparison is the
    /// last scan's, or was settled by it: after the scan (and its heals)
    /// every candidate it looked at or passed over holds its heal bytes
    /// at that cut, unless a heal wrote over it since. Its heal bytes
    /// change only with a version between the two cuts in its window
    /// (`moved`), its pool bytes only under a range written since.
    ///
    /// So only four kinds of candidate can be owed a heal: those that
    /// diverged at plan time, those with a moved entry in their overlay
    /// window, those overlapping a range written since the last scan,
    /// and those the last scan left out as its batch. Every other
    /// candidate's pool bytes equal its heal bytes.
    fn heal_suspects(
        &self,
        moved: &[u64],
        written: &BTreeMap<u64, u64>,
        unscanned: Range<usize>,
    ) -> BTreeSet<usize> {
        let w = self.max_len;
        let mut out: BTreeSet<usize> = self.diverged_at.iter().copied().collect();
        out.extend(unscanned);
        for &t in moved {
            // Overlay windows as `expected_before` scans them:
            // `[c - (w - 1), c + len)`.
            let near = self.candidates_in(t.saturating_sub(w), t.saturating_add(w));
            for (i, c, len) in near {
                if c != t && c.saturating_sub(w.saturating_sub(1)) <= t && t < c + len {
                    out.insert(i);
                }
            }
        }
        for (&a, &n) in written {
            for (i, c, len) in self.candidates_in(a.saturating_sub(w), a.saturating_add(n)) {
                if a < c + len {
                    out.insert(i);
                }
            }
        }
        out
    }
}

/// The reactor.
pub struct Reactor<'a> {
    analysis: &'a ModuleAnalysis,
    guid_map: &'a GuidMap,
    cfg: ReactorConfig,
    /// Wall time of the most recent slicing operation (Table 9).
    pub last_slice_time: Duration,
    /// Slicing wall time accrued since the last reported outcome.
    /// [`Reactor::timed_plan`] drains it into `PhaseTimes.slice`, so an
    /// outcome accounts *every* slice taken on its behalf — a
    /// multi-attempt recovery that planned several times no longer
    /// reports only the final attempt's slice time.
    pending_slice_time: Duration,
    /// Slices this reactor computed, and those it found already taken,
    /// in the analysis's per-fault memo.
    slice_computes: u64,
    slice_memo_hits: u64,
    recorder: Arc<dyn obs::Recorder>,
}

impl<'a> Reactor<'a> {
    /// Creates a reactor over precomputed analysis artifacts.
    pub fn new(analysis: &'a ModuleAnalysis, guid_map: &'a GuidMap, cfg: ReactorConfig) -> Self {
        Reactor {
            analysis,
            guid_map,
            cfg,
            last_slice_time: Duration::ZERO,
            pending_slice_time: Duration::ZERO,
            slice_computes: 0,
            slice_memo_hits: 0,
            recorder: Arc::new(obs::NullRecorder),
        }
    }

    /// Backward slices this reactor computed: its misses in the
    /// analysis's per-fault memo.
    pub fn slice_computes(&self) -> u64 {
        self.slice_computes
    }

    /// Slice requests of this reactor that the analysis's per-fault memo
    /// already held.
    pub fn slice_memo_hits(&self) -> u64 {
        self.slice_memo_hits
    }

    /// The PM writes of the backward slice for `fault`, from the
    /// analysis's per-fault memo ([`ModuleAnalysis::slice_pm_writes`]):
    /// a fault is sliced once per analysis, across reactors and threads.
    /// The `reactor.slice_compute` / `reactor.slice_memo_hit` counters
    /// let regression tests assert the exactly-once property.
    fn slice_for(&mut self, fault: InstRef) -> Arc<[InstRef]> {
        let (writes, computed) = self.analysis.slice_pm_writes(fault);
        if computed {
            self.slice_computes += 1;
            self.recorder.add("reactor.slice_compute", 1);
        } else {
            self.slice_memo_hits += 1;
            self.recorder.add("reactor.slice_memo_hit", 1);
        }
        writes
    }

    /// Computes the candidate sequence list for a fault instruction
    /// (slice → PM filter → trace join → covering checkpoint entries)
    /// over a view of the checkpoint store.
    ///
    /// Policy: candidates whose durable pool bytes *diverge* from their
    /// latest checkpointed version are ordered first — divergence means
    /// the state was corrupted outside a durability point (e.g. a
    /// hardware bit flip), making those entries the prime suspects. The
    /// rest follow most-recent-first (the paper's default sort +
    /// de-duplicate policy, §4.5).
    pub fn plan(
        &mut self,
        fault: InstRef,
        trace: &PmTrace,
        log: &LogView<'_>,
        pool: &mut PmPool,
    ) -> Plan {
        self.plan_with_facts(fault, trace, log, pool).0
    }

    /// [`Reactor::plan`], keeping what it learned about the log for the
    /// revert loop.
    fn plan_with_facts(
        &mut self,
        fault: InstRef,
        trace: &PmTrace,
        log: &LogView<'_>,
        pool: &mut PmPool,
    ) -> (Plan, LogFacts) {
        let t0 = Instant::now();
        let pm_writes = self.slice_for(fault);
        self.last_slice_time = t0.elapsed();
        self.pending_slice_time += self.last_slice_time;
        let mut facts = LogFacts::new(log);
        // Per logged entry, the instructions whose traced offsets it
        // covers: the candidates are the entries with any.
        let mut by_entry: Vec<Vec<InstRef>> = vec![Vec::new(); facts.spans.len()];
        for at in pm_writes.iter() {
            let Some(guid) = self.guid_map.guid_of(*at) else {
                continue;
            };
            for (k, _) in facts.join(*at, trace.offsets(guid)) {
                by_entry[k].push(*at);
            }
        }
        let mut cands: Vec<usize> = (0..by_entry.len())
            .filter(|&k| !by_entry[k].is_empty())
            .collect();
        cands.sort_unstable_by_key(|&k| std::cmp::Reverse(facts.spans[k].seq));
        let (mut diverged, mut rest): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        for &k in &cands {
            let seq = facts.spans[k].seq;
            if facts.plan_candidate(log, pool, k) {
                diverged.push(seq);
            } else {
                rest.push(seq);
            }
        }
        diverged.extend(rest);
        let sources = cands
            .into_iter()
            .map(|k| (facts.spans[k].seq, std::mem::take(&mut by_entry[k])))
            .collect();
        let plan = Plan {
            seqs: diverged,
            sources,
        };
        (plan, facts)
    }

    /// Mitigates a suspected hard failure by reversion: the reversion rung
    /// of an [`Episode`](crate::Episode), and what offline callers run
    /// directly. Takes the checkpoint store itself: the plan reads it
    /// through one [`SharedLog::view`], and it stays paused from the plan
    /// to the outcome, so every attempt reuses what the plan learned.
    ///
    /// A leak takes the dedicated path of §4.7. Otherwise the image is
    /// mitigated by a plain restart when there is no fault instruction to
    /// slice from or nothing to revert (§4.5: likely a false alarm), else
    /// by the revert loop over the plan, which writes `pool` only if it
    /// recovers.
    ///
    /// Every re-execution the outcome counts is `restart` with `log`
    /// attached.
    pub fn mitigate(
        &mut self,
        pool: &mut PmPool,
        log: &SharedLog,
        failure: &FailureRecord,
        trace: &PmTrace,
        restart: &Restart<'_>,
    ) -> MitigationOutcome {
        self.revert(pool, log, failure, trace, restart, None)
    }

    /// [`Reactor::mitigate`], with the plan first narrowed by
    /// [`Reactor::cross_check_plan`] against `quorum` when one is given.
    pub(crate) fn revert(
        &mut self,
        pool: &mut PmPool,
        log: &SharedLog,
        failure: &FailureRecord,
        trace: &PmTrace,
        restart: &Restart<'_>,
        quorum: Option<&PoolGroup>,
    ) -> MitigationOutcome {
        let t0 = Instant::now();
        if failure.kind == FailureKind::Leak {
            return self.mitigate_leak(pool, log, restart, t0);
        }
        let (plan, facts, phases) = match failure.fault {
            Some(fault) => {
                let (mut plan, facts, phases) = self.timed_plan(fault, trace, log, pool);
                if let Some(group) = quorum {
                    plan = self.cross_check_plan(&plan, &log.view(), pool, group);
                }
                (plan, Some(facts), phases)
            }
            None => (Plan::default(), None, PhaseTimes::default()),
        };
        let Some(mut facts) = facts.filter(|_| !plan.seqs.is_empty()) else {
            // The restart runs with checkpointing on, like any other.
            return self.restart_only(pool, log, restart, t0, phases);
        };
        let _paused = LogPaused::new(log);
        facts.index(&plan);
        let out = self.revert_loop(pool, log, &plan, &mut facts, trace, restart, t0, phases);
        debug_assert_eq!(
            (log.latest_seq(), log.total_updates()),
            facts.frontier,
            "the log recorded during a mitigation"
        );
        self.record_outcome(&out);
        out
    }

    /// Runs [`Reactor::plan`] with phase timing and the `reactor.plan`
    /// event.
    fn timed_plan(
        &mut self,
        fault: InstRef,
        trace: &PmTrace,
        log: &SharedLog,
        pool: &mut PmPool,
    ) -> (Plan, LogFacts, PhaseTimes) {
        let t_plan = Instant::now();
        let (plan, facts) = {
            let view = log.view();
            self.plan_with_facts(fault, trace, &view, pool)
        };
        let mut phases = PhaseTimes {
            // Drain the accrued slicing time: if the caller planned for
            // earlier attempts of this recovery before reaching the
            // outcome, those slices are attributed here too.
            slice: std::mem::take(&mut self.pending_slice_time),
            ..Default::default()
        };
        phases.plan = t_plan.elapsed().saturating_sub(self.last_slice_time);
        self.recorder.event(
            "reactor.plan",
            vec![
                ("plan_len", Value::from(plan.seqs.len())),
                ("slice_us", Value::from(phases.slice.as_micros() as u64)),
                ("plan_us", Value::from(phases.plan.as_micros() as u64)),
                ("candidate_seqs", Value::from(seq_list(&plan.seqs))),
            ],
        );
        (plan, facts, phases)
    }

    fn record_outcome(&self, out: &MitigationOutcome) {
        self.recorder.event(
            "reactor.outcome",
            vec![
                ("recovered", Value::from(out.recovered)),
                ("restart_only", Value::from(out.rung == Rung::RestartOnly)),
                ("attempts", Value::from(out.attempts)),
                ("rounds", Value::from(out.reexec_rounds())),
                ("skipped", Value::from(out.skipped)),
                ("discarded_updates", Value::from(out.discarded_updates)),
                ("mode_fellback", Value::from(out.mode_fellback)),
                ("leaks_freed", Value::from(out.leaks_freed)),
                ("wall_us", Value::from(out.wall.as_micros() as u64)),
            ],
        );
        self.recorder.add("reactor.mitigations", 1);
        if out.recovered {
            self.recorder.add("reactor.recoveries", 1);
        }
    }

    /// Cross-checks the crashed image against quorum replica bytes to
    /// *localize* corruption before the revert loop judges
    /// candidates. For each candidate address, replicas that have
    /// applied the address's newest logged write vote with their image
    /// bytes; when a strict majority of eligible voters agree and the
    /// primary's durable bytes differ, the address is corrupted. A
    /// non-empty corrupted set restricts the plan to candidates at
    /// corrupted or log-diverged addresses; an empty one (software
    /// faults replicate faithfully — pool and replicas match) leaves
    /// the plan untouched. The result is always a subset of the input
    /// plan: cross-checking never grows the candidate set.
    pub fn cross_check_plan(
        &self,
        plan: &Plan,
        log: &LogView<'_>,
        pool: &mut PmPool,
        group: &PoolGroup,
    ) -> Plan {
        if group.is_empty() || plan.seqs.is_empty() {
            return plan.clone();
        }
        let mut corrupted: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut judged: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for &s in &plan.seqs {
            let Some(addr) = log.addr_of_seq(s) else {
                continue;
            };
            if !judged.insert(addr) {
                continue;
            }
            let Some(newest) = log.entry(addr).and_then(|e| e.versions.back()) else {
                continue;
            };
            let (newest_seq, len) = (newest.seq, newest.data.len());
            let votes: Vec<Vec<u8>> = (0..group.n())
                .filter(|&i| {
                    group
                        .replica(i)
                        .map(|r| !r.faulted() && r.cursor() >= newest_seq)
                        .unwrap_or(false)
                })
                .filter_map(|i| group.replica_bytes(i, addr, len))
                .collect();
            let Some(quorum) = majority(&votes) else {
                // No quorum (lagging or failed replicas): conservative —
                // the address cannot be judged, so it is not localized.
                continue;
            };
            match pool.read(addr, len as u64) {
                Ok(cur) if cur != quorum => {
                    corrupted.insert(addr);
                }
                _ => {}
            }
        }
        if corrupted.is_empty() {
            self.recorder.event(
                "reactor.cross_check",
                vec![
                    ("plan_len", Value::from(plan.seqs.len())),
                    ("filtered_len", Value::from(plan.seqs.len())),
                    ("corrupted_addrs", Value::from(0u64)),
                    ("replicas", Value::from(group.n())),
                ],
            );
            return plan.clone();
        }
        let seqs: Vec<u64> = plan
            .seqs
            .iter()
            .copied()
            .filter(|&s| {
                log.addr_of_seq(s)
                    .map(|a| corrupted.contains(&a))
                    .unwrap_or(false)
                    || seq_diverged(log, pool, s)
            })
            .collect();
        let sources = plan
            .sources
            .iter()
            .filter(|(s, _)| seqs.contains(s))
            .map(|(s, v)| (*s, v.clone()))
            .collect();
        self.recorder.event(
            "reactor.cross_check",
            vec![
                ("plan_len", Value::from(plan.seqs.len())),
                ("filtered_len", Value::from(seqs.len())),
                ("corrupted_addrs", Value::from(corrupted.len())),
                ("replicas", Value::from(group.n())),
            ],
        );
        Plan { seqs, sources }
    }

    /// Promotes `group`'s standbys best-first until one verifies: the
    /// failover rung of an [`Episode`](crate::Episode). A promoted replica
    /// adopts its image into `pool` (restore + crash recovery) and is
    /// verified by `restart`; a replica that fails verification is marked
    /// faulted and the next-best one is tried. Every checkpoint seq above
    /// the promoted cursor is accounted as discarded — the failover
    /// analogue of rollback's discarded-update accounting.
    ///
    /// The crashed image is saved up front and restored after every
    /// failed promote (and when every replica is exhausted), so a failed
    /// failover hands back the image it was given.
    pub fn failover(
        &mut self,
        pool: &mut PmPool,
        log: &SharedLog,
        restart: &Restart<'_>,
        group: &mut PoolGroup,
    ) -> MitigationOutcome {
        let t0 = Instant::now();
        let _paused = LogPaused::new(log);
        let mut out = MitigationOutcome::new(Rung::Failover);
        let crashed = pool.snapshot();
        for idx in group.failover_order() {
            let cursor = match group.promote_into(idx, pool) {
                Ok(c) => c,
                Err(_) => {
                    group.mark_faulted(idx);
                    let _ = pool.restore(&crashed);
                    continue;
                }
            };
            out.attempts += 1;
            let t_re = Instant::now();
            let ok = restart.run(pool, log).is_ok();
            out.phases.reexec += t_re.elapsed();
            self.recorder.event(
                "reactor.failover",
                vec![
                    ("replica", Value::from(idx)),
                    ("cursor", Value::from(cursor)),
                    ("verified", Value::from(ok)),
                ],
            );
            if ok {
                let view = log.view();
                out.reverted_seqs = view
                    .all_seqs()
                    .into_iter()
                    .filter(|&s| s > cursor)
                    .collect();
                out.discarded_updates = out.reverted_seqs.len() as u64;
                out.discarded_entries = out
                    .reverted_seqs
                    .iter()
                    .filter_map(|&s| view.addr_of_seq(s))
                    .collect::<HashSet<_>>()
                    .len() as u64;
                out.recovered = true;
                break;
            }
            group.mark_faulted(idx);
            let _ = pool.restore(&crashed);
        }
        out.wall = t0.elapsed();
        self.record_outcome(&out);
        out
    }

    /// A plain restart over the image as it is: the restart-only rung,
    /// and what reversion falls back to with nothing to revert.
    pub(crate) fn restart_only(
        &self,
        pool: &PmPool,
        log: &SharedLog,
        restart: &Restart<'_>,
        t0: Instant,
        mut phases: PhaseTimes,
    ) -> MitigationOutcome {
        let t_re = Instant::now();
        let ok = restart.run(pool, log).is_ok();
        phases.reexec += t_re.elapsed();
        self.recorder
            .observe_duration("reactor.reexec_us", t_re.elapsed());
        self.recorder.event(
            "reactor.restart_only",
            vec![
                ("recovered", Value::from(ok)),
                ("plan_len", Value::from(0usize)),
            ],
        );
        let out = MitigationOutcome {
            recovered: ok,
            attempts: 1,
            wall: t0.elapsed(),
            phases,
            ..MitigationOutcome::new(Rung::RestartOnly)
        };
        self.record_outcome(&out);
        out
    }

    /// The revert loop (§4.4–4.5): revert a batch of candidates,
    /// re-execute, repeat, one step at a time.
    ///
    /// Every step writes one lineage: a fork of the crashed image and its
    /// [`RevertLedger`]. The configured [`Search`] sizes each step from
    /// the loop's control state and says whether it continues the lineage
    /// or starts a fresh one. `pool` is written once, by reabsorbing the
    /// lineage when a step wins. The step emits `reactor.attempt`, then a
    /// `reactor.heal` per candidate it healed, and re-executes on the
    /// caller's thread with the caller's log. The attempt-count fallback
    /// and a panic under purge mode flip the loop to rollback. The
    /// candidate cursor resets per version depth.
    ///
    /// A step is re-executed only when it can differ (DESIGN §4.5). The
    /// loop keeps the newest failure it paid a restart for as its
    /// [`Basis`]: the bytes that restart read and its verdict. A step
    /// whose image holds those bytes takes that verdict without
    /// restarting (`skipped`). Only the restarts paid move: attempts, the
    /// fallback order, what is reverted and the final image are those of
    /// re-executing every step. Debug builds restart a skipped step
    /// anyway, outside every count, and require the basis verdict.
    ///
    /// What a step costs besides its re-execution is bounded by what it
    /// changes: its batch, the addresses touched since its cut, and the
    /// ranges its lineage wrote. Everything else about the log comes from
    /// `facts`, derived once by the plan.
    #[allow(clippy::too_many_arguments)]
    fn revert_loop(
        &self,
        pool: &mut PmPool,
        log_rc: &SharedLog,
        plan: &Plan,
        facts: &mut LogFacts,
        trace: &PmTrace,
        restart: &Restart<'_>,
        t0: Instant,
        mut phases: PhaseTimes,
    ) -> MitigationOutcome {
        /// What the loop decides each step with.
        struct Control {
            /// Candidates `plan.seqs[..next]` are consumed at this depth.
            next: usize,
            attempts: u32,
            mode: Mode,
            mode_fellback: bool,
            /// Steps taken at this depth since the mode last changed.
            streak: u32,
        }

        let fwd = match self.cfg.mode {
            Mode::Purge => Some(self.analysis.pdg.forward_index()),
            Mode::Rollback => None,
        };
        let mut ctl = Control {
            next: 0,
            attempts: 0,
            mode: self.cfg.mode,
            mode_fellback: false,
            streak: 0,
        };
        let mut skipped = 0u32;
        let mut lineage = pool.fork();
        let mut ledger = RevertLedger::default();
        let mut basis: Option<Basis> = None;
        for depth in 1..=MAX_VERSIONS {
            ctl.next = 0;
            ctl.streak = 0;
            while ctl.next < plan.seqs.len() && ctl.attempts < MAX_ATTEMPTS {
                let t_rv = Instant::now();
                let budget_flip =
                    ctl.mode == Mode::Purge && ctl.attempts >= self.cfg.purge_fallback_after;
                if budget_flip {
                    ctl.mode = Mode::Rollback;
                    ctl.mode_fellback = true;
                    ctl.streak = 0;
                }
                let (take, fresh) = self.cfg.search.step(ctl.mode, ctl.streak);
                if fresh && ctl.attempts > 0 {
                    lineage = pool.fork();
                    ledger = RevertLedger::default();
                }
                let batch = ctl.next..plan.seqs.len().min(ctl.next + take);
                ctl.next = batch.end;
                ctl.attempts += 1;
                ctl.streak += 1;
                let work = self.apply_batch(
                    &mut lineage,
                    log_rc,
                    plan,
                    facts,
                    trace,
                    batch.clone(),
                    depth,
                    ctl.mode,
                    fwd,
                    &mut ledger,
                );
                let known = basis.as_ref().and_then(|b| b.verdict_for(&lineage));
                self.recorder.add("reactor.revert_writes", work.writes);
                self.recorder.add("reactor.heal_checks", work.heal_checks);
                if self.recorder.is_enabled() {
                    if budget_flip {
                        self.recorder.event(
                            "reactor.fallback",
                            vec![
                                ("attempt", Value::from(ctl.attempts - 1)),
                                ("reason", Value::from("attempt_budget")),
                            ],
                        );
                    }
                    self.recorder.event(
                        "reactor.attempt",
                        vec![
                            ("attempt", Value::from(ctl.attempts)),
                            ("depth", Value::from(depth)),
                            ("mode", Value::from(mode_name(ctl.mode))),
                            ("batch_seqs", Value::from(seq_list(&plan.seqs[batch]))),
                            ("skipped", Value::from(known.is_some())),
                        ],
                    );
                    for &(seq, addr) in &work.heals {
                        self.recorder.event(
                            "reactor.heal",
                            vec![("seq", Value::from(seq)), ("addr", Value::from(addr))],
                        );
                    }
                }
                phases.revert += t_rv.elapsed();
                self.recorder
                    .observe_duration("reactor.revert_us", t_rv.elapsed());
                let failure = match known {
                    Some(failure) => {
                        skipped += 1;
                        #[cfg(debug_assertions)]
                        assert_repeats(restart, &lineage, &failure);
                        Some(failure)
                    }
                    None => {
                        let t_re = Instant::now();
                        let (verdict, reads) = capture_reads(|| restart.run(&lineage, log_rc));
                        phases.reexec += t_re.elapsed();
                        self.recorder
                            .observe_duration("reactor.reexec_us", t_re.elapsed());
                        let failure = verdict.err();
                        if let Some(f) = &failure {
                            // The newest failure paid for becomes the basis.
                            basis = Basis::new(&lineage, reads, f.clone()).or(basis.take());
                        }
                        failure
                    }
                };
                let Some(failure) = failure else {
                    if self.cfg.minimize_loss {
                        let t_min = Instant::now();
                        ctl.attempts += self.minimize(&mut lineage, log_rc, &mut ledger, restart);
                        phases.reexec += t_min.elapsed();
                    }
                    pool.reabsorb(lineage);
                    return MitigationOutcome {
                        recovered: true,
                        attempts: ctl.attempts,
                        skipped,
                        plan_len: plan.seqs.len(),
                        reverted_seqs: ledger.reverted_seqs(),
                        discarded_updates: ledger.discarded_updates(),
                        discarded_entries: ledger.touched(),
                        wall: t0.elapsed(),
                        mode_fellback: ctl.mode_fellback,
                        phases,
                        ..MitigationOutcome::new(Rung::Reversion)
                    };
                };
                if ctl.mode == Mode::Purge && failure.kind == FailureKind::Panic {
                    // An assertion in recovery under purge mode means the
                    // purge introduced an inconsistency: fall back.
                    ctl.mode = Mode::Rollback;
                    ctl.mode_fellback = true;
                    ctl.streak = 0;
                    self.recorder.event(
                        "reactor.fallback",
                        vec![
                            ("attempt", Value::from(ctl.attempts)),
                            ("reason", Value::from("recovery_panic")),
                        ],
                    );
                }
            }
        }
        MitigationOutcome {
            attempts: ctl.attempts,
            skipped,
            plan_len: plan.seqs.len(),
            wall: t0.elapsed(),
            phases,
            ..MitigationOutcome::new(Rung::Reversion)
        }
    }

    /// One reversion step: reverts the plan candidates at positions
    /// `batch` under `mode` at version `depth`, and reports what it
    /// healed and wrote.
    ///
    /// Debug builds check a rollback that starts from an earlier one's
    /// pool against the same step made from scratch: on a fork of the
    /// step's predecessor with the remembered cut unset, it must leave
    /// the same bytes, ledger and heals.
    #[allow(clippy::too_many_arguments)]
    fn apply_batch(
        &self,
        pool: &mut PmPool,
        log_rc: &SharedLog,
        plan: &Plan,
        facts: &mut LogFacts,
        trace: &PmTrace,
        batch: Range<usize>,
        depth: usize,
        mode: Mode,
        fwd: Option<&Adjacency>,
        ledger: &mut RevertLedger,
    ) -> StepWork {
        // The fork is dropped before this step writes the pool, so the
        // check copies no page of it.
        #[cfg(debug_assertions)]
        let from_scratch = ledger.cut.is_some().then(|| {
            let mut fork = pool.fork();
            obs::Instrument::uninstrument(&mut fork);
            let mut full = RevertLedger {
                cut: None,
                ..ledger.clone()
            };
            let work = self.apply_batch(
                &mut fork,
                log_rc,
                plan,
                facts,
                trace,
                batch.clone(),
                depth,
                mode,
                fwd,
                &mut full,
            );
            // A step that rolls nothing back keeps the remembered cut.
            full.cut = full.cut.or(ledger.cut);
            (full.written_bytes(&fork), full, work.heals)
        });
        let mut work = StepWork::default();
        match mode {
            Mode::Purge => {
                for &s in &plan.seqs[batch] {
                    self.purge_seq(
                        pool,
                        log_rc,
                        plan,
                        facts,
                        trace,
                        s,
                        depth,
                        fwd.expect("purge mode"),
                        ledger,
                        &mut work,
                    );
                }
            }
            Mode::Rollback => {
                // Externally corrupted entries are healed to the
                // durable truth in any mode — time-ordered
                // reversion cannot reconstruct a value that never
                // passed a durability point. A healed candidate is
                // *consumed* by the healing: rolling back through
                // it would re-plant the stale value.
                let mut normal: Vec<u64> = Vec::new();
                for &s in &plan.seqs[batch.clone()] {
                    let diverged = facts
                        .diverged(log_rc, pool, ledger, s)
                        .map(|(addr, data)| (addr, data.to_vec()));
                    match diverged {
                        Some((addr, data)) => ledger.heal(pool, s, addr, &data, &mut work),
                        None => normal.push(s),
                    }
                }
                // Roll back to just before the oldest remaining
                // seq in the batch.
                if let Some(&cut) = normal.iter().min() {
                    let from = ledger.cut.filter(|&last| cut <= last);
                    let moved = facts.moved(&log_rc.view(), cut, from);
                    self.rollback_to(pool, log_rc, facts, &moved, cut, from, ledger, &mut work);
                    // Media corruption below the cut is invisible to the
                    // rewind: an address whose newest logged version is
                    // older than the cut is never restored by
                    // `rollback_to`, so its diverged media bytes survive
                    // every rollback attempt. Heal those plan candidates
                    // to the durable truth *at the cut*. The expectation
                    // must be cut-bounded: an overlapping entry written
                    // after the cut would otherwise be overlaid
                    // into the heal bytes right after the rollback
                    // reverted it, re-planting post-cut state. Only the
                    // candidates `heal_suspects` names can be owed one.
                    // From the last cut, that cut's scan settled every
                    // candidate nothing was written over since.
                    let written = match from {
                        Some(_) => &ledger.pending,
                        None => &ledger.written,
                    };
                    let suspects = facts.heal_suspects(&moved, written, ledger.unscanned.clone());
                    let heals: Vec<(u64, u64, Vec<u8>)> = {
                        let log = log_rc.view();
                        suspects
                            .into_iter()
                            .filter(|i| !batch.contains(i))
                            .filter_map(|i| {
                                let s = plan.seqs[i];
                                // A candidate's seq is its address's
                                // newest: at or above the cut, the
                                // rollback restored it.
                                if s >= cut {
                                    return None;
                                }
                                let addr = facts.addr(s)?;
                                let expected = log.expected_before(addr, cut)?;
                                work.heal_checks += 1;
                                match pool.read(addr, expected.len() as u64) {
                                    Ok(cur) if cur != expected => Some((s, addr, expected)),
                                    _ => None,
                                }
                            })
                            .collect()
                    };
                    ledger.cut = Some(cut);
                    ledger.pending.clear();
                    ledger.unscanned = batch;
                    for (s, addr, data) in heals {
                        ledger.heal(pool, s, addr, &data, &mut work);
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        if let Some((bytes, full, heals)) = from_scratch {
            assert_eq!(
                *ledger, full,
                "a rollback from the last cut left another ledger"
            );
            assert_eq!(
                work.heals, heals,
                "a rollback from the last cut healed otherwise"
            );
            assert!(
                full.written_bytes(pool) == bytes,
                "a rollback from the last cut left other bytes"
            );
        }
        work
    }

    /// Purge one sequence number: revert its entry to `depth` versions
    /// back, revert its transaction siblings (§4.6), and run the
    /// forward-dependency consistency second pass (§4.4): checkpoint
    /// entries written *after* the reverted one by instructions that
    /// depend on its sources are purged too.
    #[allow(clippy::too_many_arguments)]
    fn purge_seq(
        &self,
        pool: &mut PmPool,
        log_rc: &SharedLog,
        plan: &Plan,
        facts: &mut LogFacts,
        trace: &PmTrace,
        seq: u64,
        depth: usize,
        fwd: &Adjacency,
        ledger: &mut RevertLedger,
        work: &mut StepWork,
    ) {
        let mut worklist = vec![seq];
        // Externally corrupted entries (divergence) did not propagate via
        // program writes: restoring the durable truth needs no sibling or
        // forward-dependency expansion.
        let externally_corrupted = facts.diverged(log_rc, pool, ledger, seq).is_some();
        // Transaction siblings (§4.6).
        if !externally_corrupted {
            let log = log_rc.view();
            if let Some(tx) = log.tx_of_seq(seq) {
                worklist.extend(log.tx_seqs(tx));
            }
        }
        // Forward-dependency second pass: PM writes reachable forward from
        // the sources of this candidate through *value flow* (data and
        // memory edges, a few hops), whose traced entries were written
        // after it. Control/context edges are excluded — following them
        // would sweep in every later operation and collapse purging into
        // rollback.
        if let Some(sources) = plan.sources.get(&seq).filter(|_| !externally_corrupted) {
            const MAX_HOPS: u32 = 2;
            let mut seen: BTreeSet<InstRef> = BTreeSet::new();
            let mut frontier: Vec<InstRef> = sources.clone();
            for _ in 0..MAX_HOPS {
                let mut next = Vec::new();
                for cur in frontier.drain(..) {
                    if seen.len() > 4_096 || !seen.insert(cur) {
                        continue;
                    }
                    if let Some(nexts) = fwd.get(&cur) {
                        for (n, kind) in nexts {
                            if matches!(
                                kind,
                                pir_analysis::DepKind::Data | pir_analysis::DepKind::Memory
                            ) {
                                next.push(*n);
                            }
                        }
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            for at in seen {
                if !self.analysis.pm.pm_writes.contains(&at) {
                    continue;
                }
                let Some(guid) = self.guid_map.guid_of(at) else {
                    continue;
                };
                let later = facts.join(at, trace.offsets(guid)).map(|(_, s2)| s2);
                worklist.extend(later.filter(|&s2| s2 > seq));
            }
        }
        worklist.sort_unstable();
        worklist.dedup();
        {
            let log = log_rc.view();
            for &s in &worklist {
                facts.learn(&log, s);
            }
        }
        for s in worklist {
            let Some(addr) = facts.addr(s) else {
                continue;
            };
            // External corruption (durable bytes diverging from what the
            // log says they should be, e.g. a bit flip that never passed a
            // durability point): the reversion step is "restore the last
            // known durable state".
            let diverged = facts
                .diverged(log_rc, pool, ledger, s)
                .map(|(_, expected)| expected.to_vec());
            // View dropped before the pool write/persist below.
            let data = diverged.or_else(|| log_rc.view().data_at_depth(addr, depth));
            let Some(data) = data else {
                continue;
            };
            ledger.write(pool, addr, &data, work);
            // Versions discarded: the newest `depth` versions of the entry.
            let log = log_rc.view();
            let slot = ledger.by_addr.entry(addr).or_default();
            if let Some(e) = log.entry(addr) {
                let n = e.versions.len();
                slot.extend(
                    e.versions
                        .iter()
                        .skip(n.saturating_sub(depth))
                        .map(|v| v.seq),
                );
            }
        }
    }

    /// Post-recovery minimization: restore each reverted address to its
    /// pre-reversion bytes and keep the restoration when the restart stays
    /// healthy — shrinking the discarded set to the entries that actually
    /// mattered. Bounded by a re-execution budget.
    fn minimize(
        &self,
        pool: &mut PmPool,
        log: &SharedLog,
        ledger: &mut RevertLedger,
        restart: &Restart<'_>,
    ) -> u32 {
        const BUDGET: u32 = 32;
        let mut used = 0u32;
        let addrs: Vec<u64> = ledger.by_addr.keys().copied().collect();
        for addr in addrs {
            if used >= BUDGET {
                break;
            }
            let Some(original) = ledger.originals.get(&addr).cloned() else {
                continue;
            };
            let Ok(current) = pool.read(addr, original.len() as u64) else {
                continue;
            };
            if current == original {
                // The reversion was a no-op; nothing was really discarded.
                ledger.by_addr.remove(&addr);
                continue;
            }
            let _ = pool.write(addr, &original);
            let _ = pool.persist(addr, original.len() as u64);
            used += 1;
            if restart.run(pool, log).is_ok() {
                // Not needed after all.
                ledger.by_addr.remove(&addr);
            } else {
                // Needed: re-apply the reversion.
                let _ = pool.write(addr, &current);
                let _ = pool.persist(addr, current.len() as u64);
            }
        }
        if used > 0 {
            self.recorder.event(
                "reactor.minimize",
                vec![("reexecutions", Value::from(used))],
            );
        }
        used
    }

    /// Time-ordered rollback: leaves every address touched at or after
    /// `cut` holding its bytes just before `cut`, as writing each one's in
    /// ascending address order does, and accounts each one's versions
    /// from `cut` on as discarded.
    ///
    /// A lineage whose pool was last rolled back to a cut `from` at or
    /// above this one pays only for the difference. Its pool holds that
    /// rollback's bytes except under the ranges written since (the
    /// ledger's `pending`), and the two rollbacks write other bytes only
    /// at the addresses `moved` between the cuts. So the step rewrites,
    /// ascending:
    ///
    /// * every moved address;
    /// * every address the last rollback wrote whose range meets a moved
    ///   address's new range or a range written since;
    /// * every address the last rollback wrote above a rewritten one and
    ///   within its range: its bytes are the later write there.
    ///
    /// Every other byte is what a rewrite of all touched addresses leaves.
    /// That holds also where a moved address's write got shorter: an
    /// address below it that reaches the bytes it gave up meets its new
    /// range too, one above it wrote there later both times, and where
    /// neither is, the full rewrite leaves the bytes alone as well.
    /// Without `from`, `moved` is every touched address and the step is
    /// that rewrite. The ranges of the last rollback's writes are taken
    /// from the ledger's `written`, which holds each at its longest.
    #[allow(clippy::too_many_arguments)]
    fn rollback_to(
        &self,
        pool: &mut PmPool,
        log_rc: &SharedLog,
        facts: &LogFacts,
        moved: &[u64],
        cut: u64,
        from: Option<u64>,
        ledger: &mut RevertLedger,
        work: &mut StepWork,
    ) {
        let victims: Vec<(u64, Vec<u8>)> = {
            let log = log_rc.view();
            let mut fresh: BTreeMap<u64, Vec<u8>> = moved
                .iter()
                .filter_map(|&a| log.data_before_seq(a, cut).map(|d| (a, d)))
                .collect();
            let mut queue: BTreeSet<u64> = fresh.keys().copied().collect();
            // The addresses the last rollback wrote in `[lo, hi)`, with
            // the end of their range; none without a last rollback.
            let last = |lo: u64, hi: u64| {
                let span = if from.is_some() { lo..hi } else { 0..0 };
                ledger
                    .written
                    .range(span)
                    .filter(move |&(&a, _)| from.is_some_and(|f| facts.touched_since(a, f)))
                    .map(|(&a, &n)| (a, a + n))
            };
            let w = facts.max_len;
            let dirty = ledger
                .pending
                .iter()
                .map(|(&a, &n)| (a, a + n))
                .chain(fresh.iter().map(|(&a, d)| (a, a + d.len() as u64)));
            for (lo, hi) in dirty {
                let meets = last(lo.saturating_sub(w), hi).filter(|&(_, e)| e > lo);
                queue.extend(meets.map(|(a, _)| a));
            }
            let mut victims = Vec::new();
            while let Some(a) = queue.pop_first() {
                let Some(data) = fresh.remove(&a).or_else(|| log.data_before_seq(a, cut)) else {
                    continue;
                };
                queue.extend(last(a + 1, a + data.len() as u64).map(|(b, _)| b));
                victims.push((a, data));
            }
            victims
        };
        for (addr, data) in victims {
            ledger.write(pool, addr, &data, work);
        }
        let log = log_rc.view();
        let since = cut..from.unwrap_or(u64::MAX);
        for &addr in moved {
            let versions = log.entry(addr).into_iter().flat_map(|e| &e.versions);
            let slot = ledger.by_addr.entry(addr).or_default();
            slot.extend(versions.map(|v| v.seq).filter(|s| since.contains(s)));
        }
    }

    /// Persistent-leak mitigation (§4.7): run the recovery function once
    /// (tracking which PM objects it reaches), then free every live
    /// checkpointed allocation it never touched.
    fn mitigate_leak(
        &mut self,
        pool: &mut PmPool,
        log_rc: &SharedLog,
        restart: &Restart<'_>,
        t0: Instant,
    ) -> MitigationOutcome {
        let mut phases = PhaseTimes::default();
        let _paused = LogPaused::new(log_rc);
        log_rc.clear_recovery_reads();
        // Run recovery + verification once to populate the recovery reads.
        let t_re = Instant::now();
        let _ = restart.run(pool, log_rc);
        phases.reexec += t_re.elapsed();
        let suspects = log_rc.suspected_leaks();
        let mut freed = 0u64;
        let t_rv = Instant::now();
        for (addr, _size) in &suspects {
            if pool.is_allocated(*addr) && pool.free(*addr).is_ok() {
                log_rc.note_reactor_free(*addr);
                freed += 1;
            }
        }
        phases.revert += t_rv.elapsed();
        let t_re = Instant::now();
        let ok = restart.run(pool, log_rc).is_ok();
        phases.reexec += t_re.elapsed();
        self.recorder.event(
            "reactor.leak_mitigation",
            vec![
                ("suspects", Value::from(suspects.len())),
                ("freed", Value::from(freed)),
                ("recovered", Value::from(ok && freed > 0)),
            ],
        );
        let out = MitigationOutcome {
            recovered: ok && freed > 0,
            attempts: 2,
            plan_len: suspects.len(),
            wall: t0.elapsed(),
            leaks_freed: freed,
            phases,
            ..MitigationOutcome::new(Rung::Reversion)
        };
        self.record_outcome(&out);
        out
    }
}

impl obs::Instrument for Reactor<'_> {
    /// Attaches a recorder; the reactor emits a `reactor.*` event timeline
    /// (plan, per-attempt, fallbacks, outcome) and phase-duration
    /// histograms while mitigating.
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        self.recorder = recorder;
    }

    fn uninstrument(&mut self) {
        self.recorder = Arc::new(obs::NullRecorder);
    }
}

/// Requires a real restart of `pool`'s image to fail as `known`, the
/// basis verdict a step took without restarting: the same kind, fault,
/// detail and exit code. The restart records into a throwaway log and
/// counts nowhere.
#[cfg(debug_assertions)]
fn assert_repeats(restart: &Restart<'_>, pool: &PmPool, known: &FailureRecord) {
    let log = SharedLog::new();
    log.set_enabled(false);
    let again = restart.run(pool, &log);
    let key = |f: &FailureRecord| (f.kind, f.fault, f.detail.clone(), f.exit_code);
    assert!(
        again.as_ref().err().map(key) == Some(key(known)),
        "a step took the verdict {known:?} without restarting; a restart says {again:?}"
    );
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Purge => "purge",
        Mode::Rollback => "rollback",
    }
}

/// The byte string a strict majority of voters agree on, if any.
fn majority(votes: &[Vec<u8>]) -> Option<&[u8]> {
    for candidate in votes {
        let agree = votes.iter().filter(|&v| v == candidate).count();
        if agree * 2 > votes.len() {
            return Some(candidate);
        }
    }
    None
}

/// Renders up to 16 sequence numbers for event fields; longer lists end
/// with `…(+n)`.
fn seq_list(seqs: &[u64]) -> String {
    const SHOWN: usize = 16;
    let mut s = seqs
        .iter()
        .take(SHOWN)
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    if seqs.len() > SHOWN {
        s.push_str(&format!("…(+{})", seqs.len() - SHOWN));
    }
    s
}

/// Whether the pool's durable bytes at a logged sequence number differ
/// from what the checkpoint log says they should be (the newest version
/// overlaid with newer overlapping entries) — the signature of corruption
/// that bypassed every durability point (hardware faults).
fn seq_diverged(log: &LogView<'_>, pool: &mut PmPool, seq: u64) -> bool {
    let Some(addr) = log.addr_of_seq(seq) else {
        return false;
    };
    let Some(expected) = log.expected_current(addr) else {
        return false;
    };
    match pool.read(addr, expected.len() as u64) {
        Ok(cur) => cur != expected,
        Err(_) => false,
    }
}
