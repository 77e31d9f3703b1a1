//! Property-based equivalence of the store at N shards and at one.
//!
//! Any event stream delivered to `SharedLog::sharded(N)` and to
//! `SharedLog::new()` (one shard) must produce the same merged picture:
//! `iter_merged()` yields the identical `(seq, addr, bytes)` stream, and
//! every merged-view query — `covering`, `expected_current`, `all_seqs`,
//! `tx_seqs`, `live_allocs`, `suspected_leaks`, `stats` — answers
//! identically. The generated streams deliberately include realloc
//! chaining (free + realloc retiring an incarnation), `MAX_VERSIONS`
//! retirement through repeated same-address persists, transactions whose
//! ranges span shard boundaries, and recovery-read windows — all the
//! places shard-local state could drift from the global picture.

use arthas::SharedLog;
use pmemsim::PmSink;
use proptest::prelude::*;

/// Address grid: slots spread over several 4 KiB shard grains, so a
/// multi-shard store scatters them while the single log keeps them
/// together.
const GRAIN: u64 = 4096;
const N_GRAINS: u64 = 6;
const SLOTS_PER_GRAIN: u64 = 4;

fn slot_addr(slot: u64) -> u64 {
    let grain = slot % N_GRAINS;
    let idx = slot / N_GRAINS % SLOTS_PER_GRAIN;
    1024 + grain * GRAIN + idx * 96
}

#[derive(Debug, Clone)]
enum Op {
    /// Persist `len` bytes of `fill` at a slot.
    Persist { slot: u64, len: usize, fill: u8 },
    /// Free + realloc a slot (first contact allocates), retiring its
    /// current incarnation to the old-entry chain.
    Realloc { slot: u64 },
    /// Allocate a slot without freeing (live-allocation tracking).
    Alloc { slot: u64 },
    /// Commit a transaction whose ranges walk distinct slots in order —
    /// across a multi-shard store this is the arrival-order batching
    /// path.
    TxCommit { slots: Vec<u64>, fill: u8 },
    /// A recovery window reading some slots (leak-diff bookkeeping).
    RecoverWindow { slots: Vec<u64> },
}

fn op() -> impl Strategy<Value = Op> {
    let slot = 0..(N_GRAINS * SLOTS_PER_GRAIN);
    prop_oneof![
        6 => (slot.clone(), 1..160usize, any::<u8>())
            .prop_map(|(slot, len, fill)| Op::Persist { slot, len, fill }),
        2 => slot.clone().prop_map(|slot| Op::Realloc { slot }),
        1 => slot.clone().prop_map(|slot| Op::Alloc { slot }),
        2 => (proptest::collection::vec(slot.clone(), 1..5), any::<u8>())
            .prop_map(|(slots, fill)| Op::TxCommit { slots, fill }),
        1 => proptest::collection::vec(slot, 1..4)
            .prop_map(|slots| Op::RecoverWindow { slots }),
    ]
}

fn apply(sink: &dyn PmSink, ops: &[Op], tx_id: &mut u64) {
    for op in ops {
        match op {
            Op::Persist { slot, len, fill } => {
                sink.on_persist(slot_addr(*slot), &vec![*fill; *len]);
            }
            Op::Realloc { slot } => {
                let addr = slot_addr(*slot);
                sink.on_alloc(addr, 96);
                sink.on_free(addr);
                sink.on_alloc(addr, 96);
            }
            Op::Alloc { slot } => {
                sink.on_alloc(slot_addr(*slot), 96);
            }
            Op::TxCommit { slots, fill } => {
                *tx_id += 1;
                let ranges: Vec<(u64, Vec<u8>)> = slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (slot_addr(*s), vec![fill.wrapping_add(i as u8); 24]))
                    .collect();
                sink.on_tx_commit(*tx_id, &ranges);
            }
            Op::RecoverWindow { slots } => {
                sink.on_recover_begin();
                for s in slots {
                    sink.on_recover_read(slot_addr(*s), 8);
                }
                sink.on_recover_end();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full equivalence sweep: identical merged stream and identical
    /// answers to every merged-view query, for 2, 3 and 8 shards.
    #[test]
    fn sharded_log_matches_single_log(
        ops in proptest::collection::vec(op(), 1..50),
        n_shards in prop_oneof![Just(2usize), Just(3usize), Just(8usize)],
    ) {
        let single = SharedLog::new();
        let sharded = SharedLog::sharded(n_shards);
        let mut tx = 0u64;
        apply(&*single.as_sink(), &ops, &mut tx);
        let mut tx = 0u64;
        apply(&*sharded.as_sink(), &ops, &mut tx);

        let a = single.view();
        let b = sharded.view();

        // The canonical stream: every retained version, ascending by seq.
        prop_assert_eq!(a.iter_merged(), b.iter_merged());
        prop_assert_eq!(a.latest_seq(), b.latest_seq());
        prop_assert_eq!(a.total_updates(), b.total_updates());
        prop_assert_eq!(a.n_entries(), b.n_entries());
        prop_assert_eq!(a.all_seqs(), b.all_seqs());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.live_allocs(), b.live_allocs());
        prop_assert_eq!(a.recovery_reads(), b.recovery_reads());
        prop_assert_eq!(a.suspected_leaks(), b.suspected_leaks());

        for tx_id in 1..=tx {
            prop_assert_eq!(a.tx_seqs(tx_id), b.tx_seqs(tx_id), "tx {}", tx_id);
        }
        for slot in 0..(N_GRAINS * SLOTS_PER_GRAIN) {
            let q = slot_addr(slot);
            let mut ca = a.covering(q);
            let mut cb = b.covering(q);
            ca.sort_unstable();
            cb.sort_unstable();
            prop_assert_eq!(ca, cb, "covering({})", q);
            prop_assert_eq!(
                a.expected_current(q),
                b.expected_current(q),
                "expected_current({})",
                q
            );
            for depth in 0..3 {
                prop_assert_eq!(
                    a.data_at_depth(q, depth),
                    b.data_at_depth(q, depth),
                    "data_at_depth({}, {})",
                    q,
                    depth
                );
            }
        }
        for &s in &a.all_seqs() {
            prop_assert_eq!(a.addr_of_seq(s), b.addr_of_seq(s), "addr_of_seq({})", s);
            prop_assert_eq!(a.tx_of_seq(s), b.tx_of_seq(s), "tx_of_seq({})", s);
        }
        prop_assert_eq!(a.addrs_touched_since(0), b.addrs_touched_since(0));
        let cut = a.latest_seq() / 2;
        prop_assert_eq!(a.addrs_touched_since(cut), b.addrs_touched_since(cut));
    }
}
