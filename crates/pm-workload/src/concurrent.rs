//! Multi-threaded YCSB-style workload over the sharded checkpoint store.
//!
//! The 12 Table-2 scenarios run single-threaded pir programs; this module
//! is the concurrency counterpart the sharded pipeline exists for. `W`
//! writer threads each drive a [`PmPool::fork`] of one parent pool, all
//! feeding one [`SharedLog`] through [`SharedLog::as_sink`] — the
//! contention pattern of a multi-client PM server, with the checkpoint
//! store as the only shared state.
//!
//! Determinism contract (what the CI `concurrency` job asserts): each
//! writer updates only its own *bank* of slots with values derived purely
//! from `(writer, op, seed)`, so writer 0's durable history — and
//! therefore the detector verdicts, the reactor-style divergence heal and
//! the final bank-0 digest — is byte-identical whether 1, 4 or 16
//! writers ran beside it. The shared log gains *more* entries with more
//! writers, but per-address merge results never change, which is exactly
//! the runner-count-independence argument of DESIGN §8.

use std::thread;

use arthas::{Detector, FailureRecord, SharedLog, Verdict};
use pmemsim::PmPool;

/// Slots per writer bank.
pub const BANK_SLOTS: u64 = 64;
/// Bytes per bank allocation. Larger than the shard grain (4 KiB) so
/// consecutive banks land on different shards of the store.
pub const BANK_BYTES: u64 = 8192;
/// Pool capacity for concurrent runs (fits 16 banks with room to spare).
pub const POOL_BYTES: u64 = pmemsim::layout::HEAP_OFF + (1 << 20);

/// Configuration of one concurrent run.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentConfig {
    /// Writer threads (1..=16).
    pub writers: usize,
    /// Shard count of the shared checkpoint store.
    pub shards: usize,
    /// Operations per writer.
    pub ops_per_writer: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            writers: 4,
            shards: arthas::DEFAULT_SHARDS,
            ops_per_writer: 200,
            seed: 1,
        }
    }
}

/// The writer-count-independent outcome of one concurrent run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentOutcome {
    /// Detector verdicts across the post-corruption restarts.
    pub verdicts: Vec<Verdict>,
    /// Whether the divergence heal restored writer 0's bank.
    pub recovered: bool,
    /// Whether a plain restart alone already fixed the symptom (it must
    /// not: the corruption is durable, i.e. the fault is *hard*).
    pub via_restart_only: bool,
    /// Heal attempts (always 1 on success: the merged view pinpoints the
    /// diverged bytes without search).
    pub attempts: u32,
    /// Checkpoint entries recorded for writer 0's bank.
    pub bank0_updates: u64,
    /// FNV-1a digest of writer 0's bank after mitigation.
    pub digest: u64,
}

/// SplitMix64: the per-op value/slot generator. Pure in its inputs, so
/// writer streams are independent of scheduling and of each other.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The value writer `w`'s `op`-th operation stores (shadow model shared
/// by the workload, the verifier and the test assertions).
fn op_value(seed: u64, w: usize, op: u64) -> u64 {
    mix(seed ^ (w as u64) << 32 ^ op).max(1)
}

/// The slot writer `w`'s `op`-th operation targets (Zipf-ish: low slots
/// are hot, via a square fold of the hash).
fn op_slot(seed: u64, w: usize, op: u64) -> u64 {
    let h = mix(seed.wrapping_mul(31) ^ (w as u64) << 16 ^ op) % (BANK_SLOTS * BANK_SLOTS);
    h / BANK_SLOTS * h % (BANK_SLOTS * BANK_SLOTS) / BANK_SLOTS % BANK_SLOTS
}

/// Replays writer `w`'s operation stream against a shadow bank, returning
/// the expected final slot values.
fn shadow_bank(cfg: &ConcurrentConfig, w: usize) -> Vec<u64> {
    let mut bank = vec![0u64; BANK_SLOTS as usize];
    for op in 0..cfg.ops_per_writer {
        bank[op_slot(cfg.seed, w, op) as usize] = op_value(cfg.seed, w, op);
    }
    bank
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the concurrent production phase: allocates one bank per writer,
/// forks the pool `W` ways, and lets every writer drive its own bank
/// through the shared sharded sink concurrently. Returns writer 0's pool
/// (the production image whose bank is fully up to date) together with
/// the bank base addresses.
fn run_writers(cfg: &ConcurrentConfig, log: &SharedLog) -> (PmPool, Vec<u64>) {
    let mut parent = PmPool::create(POOL_BYTES).expect("create pool");
    let banks: Vec<u64> = (0..cfg.writers)
        .map(|_| parent.alloc(BANK_BYTES).expect("alloc bank"))
        .collect();

    let mut pools: Vec<Option<PmPool>> = Vec::with_capacity(cfg.writers);
    thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.writers)
            .map(|w| {
                let mut pool = parent.fork();
                pool.set_sink(log.as_sink());
                let bank = banks[w];
                let cfg = *cfg;
                s.spawn(move || {
                    for op in 0..cfg.ops_per_writer {
                        let addr = bank + op_slot(cfg.seed, w, op) * 8;
                        pool.write_u64(addr, op_value(cfg.seed, w, op))
                            .expect("write");
                        pool.persist(addr, 8).expect("persist");
                    }
                    pool
                })
            })
            .collect();
        for h in handles {
            pools.push(Some(h.join().expect("writer thread")));
        }
    });
    (pools[0].take().expect("writer 0 pool"), banks)
}

/// Verifies writer 0's bank against the shadow model on a restarted
/// pool; the first mismatching slot becomes the failure observation.
fn verify_bank0(pool: &mut PmPool, bank0: u64, shadow: &[u64]) -> Result<(), FailureRecord> {
    for (slot, &want) in shadow.iter().enumerate() {
        let got = pool
            .read_u64(bank0 + slot as u64 * 8)
            .map_err(|e| FailureRecord::wrong_result(format!("bank read: {e}")))?;
        if got != want {
            return Err(FailureRecord::wrong_result(format!(
                "bank0 slot {slot} diverged"
            )));
        }
    }
    Ok(())
}

/// Runs the full concurrent scenario: multi-writer production, a durable
/// bit flip in writer 0's bank (bypassing the sink, the hardware-fault
/// model), restart-based detection to a hard verdict, and the reactor's
/// divergence-heal primitive — [`arthas::LogView::expected_current`]
/// over the merged seq-ordered view — to restore the corrupted slot.
pub fn run_concurrent(cfg: &ConcurrentConfig) -> ConcurrentOutcome {
    assert!((1..=16).contains(&cfg.writers), "writers must be in 1..=16");
    let log = SharedLog::sharded(cfg.shards);
    let (mut pool, banks) = run_writers(cfg, &log);
    let bank0 = banks[0];
    let shadow = shadow_bank(cfg, 0);

    let bank0_updates = {
        let view = log.view();
        view.iter_merged()
            .iter()
            .filter(|(_, addr, _)| (bank0..bank0 + BANK_SLOTS * 8).contains(addr))
            .count() as u64
    };

    // Hardware fault: flip a bit of a written slot, beneath every
    // durability point. Pick the hottest written slot so the corruption
    // is guaranteed to be observable.
    let victim_slot = (0..BANK_SLOTS as usize)
        .find(|&s| shadow[s] != 0)
        .expect("at least one written slot");
    let victim = bank0 + victim_slot as u64 * 8;
    pool.corrupt_bit(victim, 3).expect("corrupt");

    // Restart-based detection: the corruption is durable, so every
    // restart re-observes it and the second sighting is ruled hard.
    let mut detector = Detector::new();
    let mut verdicts = Vec::new();
    let mut via_restart_only = false;
    loop {
        pool.crash_and_reopen().expect("reopen");
        match verify_bank0(&mut pool, bank0, &shadow) {
            Ok(()) => {
                via_restart_only = true;
                break;
            }
            Err(rec) => {
                let v = detector.observe(rec);
                verdicts.push(v);
                if v == Verdict::SuspectedHard {
                    break;
                }
            }
        }
    }

    // Mitigation: the merged view's expected durable bytes for the
    // diverged address, written back with checkpointing paused — the
    // same primitive the reactor's purge path uses for external
    // corruption (`seq_diverged` → `expected_current`).
    let mut attempts = 0u32;
    let mut recovered = via_restart_only;
    if !via_restart_only {
        log.set_enabled(false);
        let healed = {
            let view = log.view();
            view.expected_current(victim)
        };
        if let Some(data) = healed {
            attempts = 1;
            let _ = pool.write(victim, &data);
            let _ = pool.persist(victim, data.len() as u64);
        }
        log.set_enabled(true);
        recovered = verify_bank0(&mut pool, bank0, &shadow).is_ok();
    }

    let bank_bytes = pool
        .read(bank0, BANK_SLOTS * 8)
        .expect("read bank for digest");
    ConcurrentOutcome {
        verdicts,
        recovered,
        via_restart_only,
        attempts,
        bank0_updates,
        digest: fnv1a(&bank_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_writer_recovers_from_durable_corruption() {
        let out = run_concurrent(&ConcurrentConfig {
            writers: 1,
            ..ConcurrentConfig::default()
        });
        assert_eq!(
            out.verdicts,
            vec![Verdict::FirstSighting, Verdict::SuspectedHard]
        );
        assert!(out.recovered);
        assert!(!out.via_restart_only, "corruption survives restarts");
        assert_eq!(out.attempts, 1, "merged view pinpoints the bad bytes");
        assert!(out.bank0_updates > 0);
    }

    #[test]
    fn outcome_is_identical_across_writer_counts() {
        let base = run_concurrent(&ConcurrentConfig {
            writers: 1,
            ..ConcurrentConfig::default()
        });
        for writers in [2, 4, 8] {
            let out = run_concurrent(&ConcurrentConfig {
                writers,
                ..ConcurrentConfig::default()
            });
            assert_eq!(out, base, "outcome with {writers} writers");
        }
    }

    #[test]
    fn outcome_is_identical_across_shard_counts() {
        let cfg = ConcurrentConfig::default();
        let base = run_concurrent(&ConcurrentConfig { shards: 1, ..cfg });
        for shards in [2, 8] {
            let out = run_concurrent(&ConcurrentConfig { shards, ..cfg });
            assert_eq!(out, base, "outcome with {shards} shards");
        }
    }

    #[test]
    fn writer_streams_are_schedule_independent() {
        // Two runs of the same config — different thread interleavings —
        // must land on identical outcomes.
        let cfg = ConcurrentConfig {
            writers: 8,
            ..ConcurrentConfig::default()
        };
        assert_eq!(run_concurrent(&cfg), run_concurrent(&cfg));
    }
}
