//! Mined-invariant oracle for crash campaigns (WITCHER-style, stage 2).
//!
//! Stage 1 (`pir_analysis::ordering`) infers *candidate* persist-ordering
//! invariants statically. This module is the dynamic half: it replays the
//! workload un-injected under several seeds, mines likely invariants from
//! the checkpoint log and PM trace of those runs, *promotes* only the
//! candidates that survive every seed, and then evaluates the promoted
//! set against each trial's raw post-crash image. A trial whose
//! restart-based recovery passes but whose image breaks a promoted
//! invariant is *silent corruption*: the application cannot see the
//! damage, yet the durable state contradicts what every passing run
//! establishes.
//!
//! Three invariant classes are mined:
//!
//! - **persist-order** — from the static `pir_analysis::OrderingPair`
//!   candidates: if PM store *B* consumed the value PM store *A* wrote,
//!   then wherever *B*'s write is durable, the paired *A* write must be
//!   durable too;
//! - **non-null** — a store site whose durable word is non-zero in every
//!   passing run (pointer publication); checked as log-vs-image
//!   consistency, so legitimate crash-time loss never trips it;
//! - **monotonic-seq** — a store site that always hits one fixed address
//!   whose durable versions never decrease (sequence/epoch counters).
//!
//! Candidates that fail any passing seed are discarded (counted, and
//! surfaced through the `invariants.candidates_discarded` obs counter
//! when a recorder is attached) — the promotion protocol that keeps the
//! oracle's false-positive rate at zero on the stock scenarios.

use std::collections::BTreeSet;

use arthas::{LogView, PmTrace, SharedLog};
use obs::Recorder;
use pir::ir::Op;
use pm_workload::{run_with_injection, AppSetup, InjectionOutcome, RunConfig, Scenario};
use pmemsim::PmPool;

/// Workload seeds the miner derives from the campaign seed. Promotion
/// requires a candidate to survive *all* of them (the ISSUE's "≥ 2
/// seeds" floor, with one extra for margin).
pub const MINING_SEEDS: u32 = 3;

/// One promoted likely-invariant over the durable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MinedInvariant {
    /// Wherever the store instrumented as `second_guid` is durable, the
    /// paired dynamic write of `first_guid` must be durable too.
    PersistOrder {
        /// GUID of the store that must persist first.
        first_guid: u64,
        /// GUID of the dependent store.
        second_guid: u64,
    },
    /// Every durable word this store site writes is non-zero.
    NonNull {
        /// GUID of the store site.
        guid: u64,
    },
    /// This store site always writes one fixed address whose durable
    /// versions form a non-decreasing `u64` sequence.
    MonotonicSeq {
        /// GUID of the store site.
        guid: u64,
        /// The fixed pool offset it writes.
        addr: u64,
    },
}

impl MinedInvariant {
    /// Stable document name of the invariant class.
    pub fn kind(&self) -> &'static str {
        match self {
            MinedInvariant::PersistOrder { .. } => "persist_order",
            MinedInvariant::NonNull { .. } => "non_null",
            MinedInvariant::MonotonicSeq { .. } => "monotonic_seq",
        }
    }

    /// Human-readable statement of the invariant.
    pub fn describe(&self) -> String {
        match self {
            MinedInvariant::PersistOrder {
                first_guid,
                second_guid,
            } => format!("guid {first_guid} persists-before guid {second_guid}"),
            MinedInvariant::NonNull { guid } => format!("guid {guid} durably non-null"),
            MinedInvariant::MonotonicSeq { guid, addr } => {
                format!("guid {guid} monotonic at offset {addr}")
            }
        }
    }
}

/// The outcome of mining one scenario: the promoted invariant set plus
/// the promotion-protocol accounting.
#[derive(Debug, Clone, Default)]
pub struct MinedInvariants {
    /// Invariants that survived every passing seed, canonically sorted.
    pub promoted: Vec<MinedInvariant>,
    /// Candidates discarded by the promotion protocol.
    pub discarded: u64,
    /// Passing seeds the promoted set holds under: always
    /// [`MINING_SEEDS`]. It counts seeds, not runs: a run that never read
    /// its seed stands for every seed and is replayed once.
    pub seeds: u32,
}

/// SplitMix64 step — derives the extra mining seeds from the campaign
/// seed, deterministically.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether any checkpoint-log entry covers `off` — i.e. some durability
/// point made the bytes at `off` durable during the run.
fn is_durable(view: &LogView<'_>, off: u64) -> bool {
    !view.covering(off).is_empty()
}

/// The image word at `off`, or `None` when the offset is unreadable
/// (out-of-pool trace noise must never decide a verdict).
fn image_word(pool: &mut PmPool, off: u64) -> Option<u64> {
    pool.read_u64(off).ok()
}

/// Checks one persist-order invariant against an image + log + trace.
///
/// The dynamic executions of the two stores pair up positionally when
/// their trace lengths match (tick `k` of B against tick `k` of A);
/// otherwise the check degrades to the conservative any/all form. A
/// pair only *fires* when the dependent write is durable, the paired
/// write is not, **and** the image actually reads zero there — a crash
/// that loses both writes, or leaves A's bytes intact, is ordinary
/// crash-time loss, not an ordering violation.
fn persist_order_violation(
    pool: &mut PmPool,
    view: &LogView<'_>,
    trace: &PmTrace,
    first_guid: u64,
    second_guid: u64,
) -> Option<String> {
    let firsts = trace.offsets(first_guid);
    let seconds = trace.offsets(second_guid);
    if firsts.is_empty() || seconds.is_empty() {
        return None;
    }
    let fires = |pool: &mut PmPool, a: u64, b: u64| {
        is_durable(view, b) && !is_durable(view, a) && image_word(pool, a) == Some(0)
    };
    if firsts.len() == seconds.len() {
        for (&a, &b) in firsts.iter().zip(seconds) {
            if fires(pool, a, b) {
                return Some(format!(
                    "persist-order: guid {second_guid} durable at {b} but its \
                     source write (guid {first_guid}) at {a} never persisted"
                ));
            }
        }
        None
    } else {
        let any_b = seconds.iter().any(|&b| is_durable(view, b));
        let no_a = !firsts.iter().any(|&a| is_durable(view, a));
        let all_a_zero = firsts.iter().all(|&a| image_word(pool, a) == Some(0));
        if any_b && no_a && all_a_zero {
            return Some(format!(
                "persist-order: guid {second_guid} durable but no write of \
                 guid {first_guid} ever persisted"
            ));
        }
        None
    }
}

/// Checks one non-null invariant: a location the log proves durably
/// non-zero must not read zero from the image. Only meaningful when the
/// image reflects exactly the durable state (`image_is_durable`).
fn non_null_violation(
    pool: &mut PmPool,
    view: &LogView<'_>,
    trace: &PmTrace,
    guid: u64,
) -> Option<String> {
    for &off in trace.offsets(guid) {
        let Some(&(entry_addr, _)) = view.covering(off).first() else {
            continue;
        };
        let Some(expected) = view.expected_current(entry_addr) else {
            continue;
        };
        let idx = (off - entry_addr) as usize;
        let Some(bytes) = expected.get(idx..idx + 8) else {
            continue;
        };
        let exp = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        if exp != 0 && image_word(pool, off) == Some(0) {
            return Some(format!(
                "non-null: guid {guid} at offset {off} durably held {exp} \
                 but the image reads 0"
            ));
        }
    }
    None
}

/// Checks one monotonic-seq invariant at *trial* time: the image must be
/// at least the newest durable version. Only meaningful when
/// `image_is_durable`.
///
/// The in-log backwards-step test deliberately does **not** run here.
/// The checkpoint log keeps only [`arthas::MAX_VERSIONS`] versions per
/// address, so a full passing run retains just the monotone *tail* of a
/// counter that dipped mid-run — while a crash trial's shorter log still
/// holds the dip. Judging a trial by its retained window would convict
/// behaviour the mining runs exhibited too (a false positive); windowed
/// non-decrease is therefore a mining-side discard heuristic only (see
/// [`monotonic_window_decreases`]).
fn monotonic_violation(
    pool: &mut PmPool,
    view: &LogView<'_>,
    guid: u64,
    addr: u64,
) -> Option<String> {
    let entry = view.entry(addr)?;
    let newest_bytes = entry.versions.back()?.data.get(..8)?;
    let newest = u64::from_le_bytes(newest_bytes.try_into().expect("8 bytes"));
    let actual = image_word(pool, addr)?;
    if actual < newest {
        return Some(format!(
            "monotonic-seq: guid {guid} at offset {addr} durably reached \
             {newest} but the image reads {actual}"
        ));
    }
    None
}

/// Whether the retained durable versions at `addr` ever decrease — the
/// mining-side filter for monotonic-seq candidates. Truncation makes
/// this a heuristic (the log may have evicted an early dip), which is
/// exactly why trial-time checking never re-runs it.
fn monotonic_window_decreases(view: &LogView<'_>, addr: u64) -> bool {
    let Some(entry) = view.entry(addr) else {
        return false;
    };
    let mut last: Option<u64> = None;
    for v in &entry.versions {
        let Some(bytes) = v.data.get(..8) else {
            return false;
        };
        let val = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        if last.is_some_and(|prev| val < prev) {
            return true;
        }
        last = Some(val);
    }
    false
}

/// Evaluates a promoted invariant set against a post-crash image.
///
/// `image_is_durable` must be true only when the crash policy leaves the
/// image equal to the durable state (`DropStaged`): the log-vs-image
/// classes (non-null, monotonic-seq) are skipped otherwise, because
/// under `KeepStaged`/`RandomStaged` the image legitimately contains
/// unpersisted bytes. The persist-order class is policy-independent —
/// its durability facts come from the log, and its image conjunct only
/// makes it *more* conservative.
///
/// Returns the violation descriptions, empty when every invariant holds.
pub fn check_image(
    invariants: &[MinedInvariant],
    pool: &mut PmPool,
    log: &SharedLog,
    trace: &PmTrace,
    image_is_durable: bool,
) -> Vec<String> {
    let view = log.view();
    let mut out = Vec::new();
    for inv in invariants {
        let viol = match *inv {
            MinedInvariant::PersistOrder {
                first_guid,
                second_guid,
            } => persist_order_violation(pool, &view, trace, first_guid, second_guid),
            MinedInvariant::NonNull { guid } if image_is_durable => {
                non_null_violation(pool, &view, trace, guid)
            }
            MinedInvariant::MonotonicSeq { guid, addr } if image_is_durable => {
                monotonic_violation(pool, &view, guid, addr)
            }
            _ => None,
        };
        out.extend(viol);
    }
    out
}

/// One un-injected run's material: the final image plus log and trace.
pub(crate) struct PassingRun {
    pub(crate) pool: PmPool,
    log: SharedLog,
    trace: PmTrace,
    /// Whether the run read its seed; when it did not, every seed
    /// replays this same run.
    seed_read: bool,
}

impl PassingRun {
    /// Replays the workload un-injected under `seed`, recording the site
    /// census (a campaign's enumeration reads it off the `base_seed` run).
    /// Nobody restores a pmCRIU snapshot of such a run, so none are taken.
    pub(crate) fn replay(scn: &dyn Scenario, setup: &AppSetup, seed: u64) -> Self {
        let cfg = RunConfig {
            seed,
            criu: false,
            record_sites: true,
            ..RunConfig::default()
        };
        match run_with_injection(scn, setup, &cfg) {
            InjectionOutcome::Completed(c) => PassingRun {
                pool: c.pool,
                log: c.log,
                trace: c.trace,
                seed_read: c.seed_read,
            },
            InjectionOutcome::HardFailure(p) => PassingRun {
                pool: p.pool,
                log: p.log,
                trace: p.trace,
                seed_read: p.seed_read,
            },
            InjectionOutcome::Captured(_) => unreachable!("no injection is armed"),
        }
    }
}

/// Mines and promotes likely invariants for one scenario.
///
/// Runs the workload un-injected under [`MINING_SEEDS`] seeds derived
/// from `base_seed`. A run that ends in the scenario's scripted hard
/// fault still contributes: its entire pre-fault history is a passing
/// prefix, and requiring candidates to hold in its final durable state
/// only discards more — promotion stays sound. Candidates must be
/// *observed* in, and hold on, every run.
///
/// A first run that never read its seed is the run of every seed (the
/// replay contract), so the other seeds are not replayed: promotion over
/// copies of one run is promotion over that run. Debug builds replay them
/// anyway and require the same image bytes, log seqs and trace.
pub fn mine(
    scn: &dyn Scenario,
    setup: &AppSetup,
    base_seed: u64,
    recorder: Option<&dyn Recorder>,
) -> MinedInvariants {
    let first = PassingRun::replay(scn, setup, base_seed);
    mine_from(first, scn, setup, base_seed, recorder).0
}

/// [`mine`] with the `base_seed` run already in hand — a campaign's site
/// enumeration is that same replay, so it is not run twice. Also returns
/// the runs mined, `first` included: [`MINING_SEEDS`] when `first` read
/// its seed, else 1.
pub(crate) fn mine_from(
    first: PassingRun,
    scn: &dyn Scenario,
    setup: &AppSetup,
    base_seed: u64,
    recorder: Option<&dyn Recorder>,
) -> (MinedInvariants, u32) {
    let replays = if first.seed_read { MINING_SEEDS } else { 1 };
    // Debug builds replay every seed; a seed-free run's replays must be it.
    let seeds = if cfg!(debug_assertions) {
        MINING_SEEDS
    } else {
        replays
    };
    let mut runs = vec![first];
    let mut seed = base_seed;
    for _ in 1..seeds {
        seed = splitmix(seed);
        runs.push(PassingRun::replay(scn, setup, seed));
    }
    let key = |r: &PassingRun| (r.pool.snapshot(), r.log.view().all_seqs());
    for again in runs.split_off(replays as usize) {
        let same = key(&again) == key(&runs[0]) && again.trace == runs[0].trace;
        assert!(same, "{}: a seed-free run replays otherwise", scn.id());
    }

    // Candidate generation. Persist-order candidates come from the
    // static pass (stage 1): only the statically *uncovered* pairs —
    // covered pairs are proven ordered and can never fire. Non-null and
    // monotonic-seq candidates start from every instrumented PM store.
    let mut order_cands: BTreeSet<(u64, u64)> = BTreeSet::new();
    for p in setup.analysis.ordering.violations() {
        if let (Some(a), Some(b)) = (
            setup.guid_map.guid_of(p.first),
            setup.guid_map.guid_of(p.second),
        ) {
            if a != b {
                order_cands.insert((a, b));
            }
        }
    }
    let store_guids: Vec<u64> = setup
        .guid_map
        .iter()
        .filter(|m| matches!(setup.module.inst(m.at).op, Op::Store { .. }))
        .map(|m| m.guid)
        .collect();

    let mut candidates = 0u64;
    let mut promoted: BTreeSet<MinedInvariant> = BTreeSet::new();

    for (first_guid, second_guid) in order_cands {
        candidates += 1;
        let survives = runs.iter_mut().all(|r| {
            let view = r.log.view();
            let observed =
                !r.trace.offsets(first_guid).is_empty() && !r.trace.offsets(second_guid).is_empty();
            observed
                && persist_order_violation(&mut r.pool, &view, &r.trace, first_guid, second_guid)
                    .is_none()
        });
        if survives {
            promoted.insert(MinedInvariant::PersistOrder {
                first_guid,
                second_guid,
            });
        }
    }

    for &guid in &store_guids {
        // Non-null: every traced offset durable and non-zero, every run.
        candidates += 1;
        let non_null = runs.iter_mut().all(|r| {
            let view = r.log.view();
            let offs = r.trace.offsets(guid).to_vec();
            !offs.is_empty()
                && offs.iter().all(|&off| {
                    is_durable(&view, off) && image_word(&mut r.pool, off).is_some_and(|w| w != 0)
                })
        });
        if non_null {
            promoted.insert(MinedInvariant::NonNull { guid });
        }

        // Monotonic-seq: the site writes one fixed address in every run
        // (the same one across seeds — a root field, not an allocation),
        // with >= 2 durable versions forming a non-decreasing sequence.
        candidates += 1;
        let fixed_addr = runs
            .iter()
            .map(|r| {
                let offs = r.trace.offsets(guid);
                let distinct: BTreeSet<u64> = offs.iter().copied().collect();
                (distinct.len() == 1).then(|| *offs.first().expect("non-empty"))
            })
            .reduce(|a, b| if a == b { a } else { None })
            .flatten();
        let monotonic = fixed_addr.is_some_and(|addr| {
            runs.iter_mut().all(|r| {
                let view = r.log.view();
                let enough = view.entry(addr).is_some_and(|e| {
                    e.versions.len() >= 2 && e.versions.iter().all(|v| v.data.len() >= 8)
                });
                enough
                    && !monotonic_window_decreases(&view, addr)
                    && monotonic_violation(&mut r.pool, &view, guid, addr).is_none()
            })
        });
        if monotonic {
            promoted.insert(MinedInvariant::MonotonicSeq {
                guid,
                addr: fixed_addr.expect("checked"),
            });
        }
    }

    let discarded = candidates - promoted.len() as u64;
    if let Some(rec) = recorder {
        rec.add("invariants.candidates_discarded", discarded);
        rec.add("invariants.promoted", promoted.len() as u64);
        rec.event("invariants.mined", &|| {
            vec![
                ("scenario", obs::Value::from(scn.id())),
                ("promoted", obs::Value::from(promoted.len() as u64)),
                ("discarded", obs::Value::from(discarded)),
                ("seeds", obs::Value::from(u64::from(MINING_SEEDS))),
            ]
        });
    }
    let mined = MinedInvariants {
        promoted: promoted.into_iter().collect(),
        discarded,
        seeds: MINING_SEEDS,
    };
    (mined, replays)
}
