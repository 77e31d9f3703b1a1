//! Edge cases of the pool layer: log capacity limits, zero-size
//! requests, degenerate transactions, and crash-policy interactions with
//! transactions.

use pmemsim::{CrashPolicy, PmError, PmPool};

fn pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap()
}

#[test]
fn undo_log_overflow_is_an_error_not_a_corruption() {
    let mut p = pool();
    let a = p.alloc(200_000).unwrap();
    p.tx_begin().unwrap();
    // The undo region is 256 KiB; two 200 KB snapshots cannot fit.
    p.tx_add(a, 190_000).unwrap();
    let err = p.tx_add(a, 190_000).unwrap_err();
    assert!(matches!(err, PmError::LogFull { log: "undo" }), "{err}");
    // The transaction can still be aborted cleanly.
    p.tx_abort().unwrap();
    assert!(p.check().is_empty());
}

#[test]
fn zero_size_alloc_rejected() {
    let mut p = pool();
    assert!(matches!(p.alloc(0), Err(PmError::OutOfPmSpace { .. })));
}

#[test]
fn empty_transaction_commits_and_aborts() {
    let mut p = pool();
    p.tx_begin().unwrap();
    p.tx_commit().unwrap();
    p.tx_begin().unwrap();
    p.tx_abort().unwrap();
    assert!(p.check().is_empty());
}

#[test]
fn tx_ops_outside_a_transaction_fail() {
    let mut p = pool();
    assert!(matches!(p.tx_add(0, 8), Err(PmError::TxState(_))));
    assert!(matches!(p.tx_commit(), Err(PmError::TxState(_))));
    assert!(matches!(p.tx_abort(), Err(PmError::TxState(_))));
}

#[test]
fn interrupted_tx_rolls_back_under_every_crash_policy() {
    for policy in [
        CrashPolicy::DropStaged,
        CrashPolicy::KeepStaged,
        CrashPolicy::RandomStaged(11),
    ] {
        let mut p = pool();
        p.set_crash_policy(policy);
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 7).unwrap();
        p.persist(a, 8).unwrap();
        p.tx_begin().unwrap();
        p.tx_add(a, 8).unwrap();
        p.write_u64(a, 99).unwrap();
        p.persist(a, 8).unwrap();
        p.crash_and_reopen().unwrap();
        assert_eq!(
            p.read_u64(a).unwrap(),
            7,
            "undo wins regardless of in-flight-line policy ({policy:?})"
        );
    }
}

#[test]
fn open_rejects_foreign_images() {
    assert!(matches!(
        PmPool::open(vec![0u8; 4096]),
        Err(PmError::OutOfBounds { .. }) | Err(PmError::BadHeader(_))
    ));
    let p = pool();
    let mut image = p.snapshot().to_vec();
    image[0] ^= 0xFF; // corrupt the magic
    assert!(matches!(PmPool::open(image), Err(PmError::BadHeader(_))));
}

#[test]
fn free_of_header_region_rejected() {
    let mut p = pool();
    assert!(matches!(p.free(8), Err(PmError::NotAllocated { .. })));
    assert!(matches!(
        p.free(p.capacity() + 10),
        Err(PmError::NotAllocated { .. })
    ));
}

#[test]
fn many_small_allocations_exhaust_then_recover_after_free() {
    let mut p = PmPool::create(pmemsim::layout::HEAP_OFF + 16 * 1024).unwrap();
    let mut blocks = Vec::new();
    loop {
        match p.alloc(64) {
            Ok(a) => blocks.push(a),
            Err(PmError::OutOfPmSpace { .. }) => break,
            Err(e) => panic!("{e}"),
        }
    }
    assert!(blocks.len() > 100, "filled the heap: {}", blocks.len());
    // Free half; allocation works again.
    for a in blocks.iter().step_by(2) {
        p.free(*a).unwrap();
    }
    assert!(p.alloc(64).is_ok());
    assert!(p.check().is_empty());
}
