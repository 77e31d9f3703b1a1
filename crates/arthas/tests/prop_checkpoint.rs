//! Property-based tests of the checkpoint log's versioning semantics,
//! through the read API the reactor uses (`SharedLog::view`).

use arthas::{SharedLog, MAX_VERSIONS};
use pmemsim::PmSink;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum LogOp {
    Persist { addr: u64, data: Vec<u8> },
    Alloc { addr: u64, size: u64 },
    Free { idx: usize },
}

fn log_op() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        4 => ((0..32u64).prop_map(|a| a * 64), proptest::collection::vec(any::<u8>(), 1..16))
            .prop_map(|(addr, data)| LogOp::Persist { addr, data }),
        1 => ((0..32u64).prop_map(|a| 4096 + a * 64), 8..64u64)
            .prop_map(|(addr, size)| LogOp::Alloc { addr, size }),
        1 => (0..8usize).prop_map(|idx| LogOp::Free { idx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The log retains the most recent MAX_VERSIONS values per address in
    /// order, sequence numbers are strictly increasing per address, and
    /// depth lookups walk them newest-first.
    #[test]
    fn versioning_matches_a_shadow_history(ops in proptest::collection::vec(log_op(), 1..120)) {
        let log = SharedLog::new();
        let mut shadow: std::collections::HashMap<u64, Vec<Vec<u8>>> = Default::default();
        let mut allocs: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                LogOp::Persist { addr, data } => {
                    log.on_persist(*addr, data);
                    shadow.entry(*addr).or_default().push(data.clone());
                }
                LogOp::Alloc { addr, size } => {
                    log.on_alloc(*addr, *size);
                    allocs.push(*addr);
                }
                LogOp::Free { idx } => {
                    if !allocs.is_empty() {
                        let a = allocs.remove(idx % allocs.len());
                        log.on_free(a);
                    }
                }
            }
        }
        let view = log.view();
        for (addr, history) in &shadow {
            let e = view.entry(*addr).expect("entry exists");
            let kept = history.len().min(MAX_VERSIONS);
            prop_assert_eq!(e.versions.len(), kept);
            // Newest-first depth lookups mirror the shadow history.
            for d in 0..kept {
                let expect = &history[history.len() - 1 - d];
                prop_assert_eq!(&view.data_at_depth(*addr, d).unwrap(), expect);
            }
            // Exhausted history yields zeros of the newest length.
            let newest_len = history.last().unwrap().len();
            prop_assert_eq!(
                view.data_at_depth(*addr, MAX_VERSIONS).unwrap(),
                vec![0u8; newest_len]
            );
            // Per-address sequence numbers strictly increase.
            let seqs: Vec<u64> = e.versions.iter().map(|v| v.seq).collect();
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
        // Total updates equals the number of persists issued.
        let persists = ops.iter().filter(|o| matches!(o, LogOp::Persist { .. })).count();
        prop_assert_eq!(view.total_updates(), persists as u64);
    }

    /// `data_before_seq` reconstructs the value an address held just
    /// before any cut point, within the retained window.
    #[test]
    fn before_seq_reconstructs_history(
        values in proptest::collection::vec(any::<u64>(), 1..=MAX_VERSIONS)
    ) {
        let log = SharedLog::new();
        for v in &values {
            log.on_persist(512, &v.to_le_bytes());
        }
        let view = log.view();
        // Cuts between versions: before seq k+1 the value is values[k-1].
        for (i, _) in values.iter().enumerate() {
            let cut = (i + 1) as u64; // seq of the i-th persist
            let expect = if i == 0 {
                vec![0u8; 8]
            } else {
                values[i - 1].to_le_bytes().to_vec()
            };
            prop_assert_eq!(view.data_before_seq(512, cut).unwrap(), expect);
        }
    }

    /// Live-allocation accounting: allocations minus frees.
    #[test]
    fn live_allocs_track_frees(n_alloc in 1..20usize, n_free in 0..20usize) {
        let log = SharedLog::new();
        for i in 0..n_alloc {
            log.on_alloc(1000 + i as u64 * 64, 32);
        }
        let freed = n_free.min(n_alloc);
        for i in 0..freed {
            log.on_free(1000 + i as u64 * 64);
        }
        prop_assert_eq!(log.view().live_allocs().len(), n_alloc - freed);
    }
}
