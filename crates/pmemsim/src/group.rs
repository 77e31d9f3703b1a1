//! Pool-group replication: one primary [`PmPool`] plus N replicas fed
//! asynchronously by the checkpoint stream.
//!
//! A replica is a durable media image (a [`PmImage`], sharing every
//! page with the primary's base snapshot until a record lands on it)
//! plus an **apply cursor** — the largest checkpoint sequence number it
//! has applied. The checkpoint stream's `(seq, addr, bytes)` records
//! are exactly media splices (checkpoint addresses are pool offsets),
//! so replication is re-applying the primary's persist stream in seq
//! order. Feeding is pull-based and asynchronous: the owner pumps
//! whatever suffix of the stream it chooses, whenever it chooses — a
//! hot standby can deliberately lag so a software fault that travelled
//! through the stream has not yet reached it.
//!
//! The group is deliberately unaware of the log type: any seq-ordered
//! `(seq, addr, bytes)` iterator feeds it, keeping the dependency
//! direction (arthas → pmemsim) intact.
//!
//! With `n = 0` the group holds no images, takes no base snapshot and
//! applies nothing — the degenerate single-pool configuration is
//! byte-identical to not having a group at all.

use crate::error::{PmError, PmResult};
use crate::image::PmImage;
use crate::pool::PmPool;

/// One replica: a durable media image and its apply cursor.
#[derive(Debug, Clone)]
pub struct Replica {
    image: PmImage,
    /// Largest seq applied; updates with `seq <= cursor` are skipped.
    cursor: u64,
    /// Total updates applied (lag/throughput accounting).
    applied: u64,
    /// Marked failed by a promote that did not verify. Faulted replicas
    /// never apply and are never chosen for failover.
    faulted: bool,
}

impl Replica {
    /// The apply cursor: largest seq applied.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Total updates applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Whether the replica is failed (rejected by promote verification).
    pub fn faulted(&self) -> bool {
        self.faulted
    }
}

/// Point-in-time health of one replica, for the observability surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica index within the group.
    pub idx: usize,
    /// Apply cursor.
    pub cursor: u64,
    /// Updates applied in total.
    pub applied: u64,
    /// Seq distance behind the primary's frontier at observation time.
    pub lag: u64,
    /// Failed (rejected by promote verification).
    pub faulted: bool,
}

/// A primary's replica set. The primary itself is *not* owned by the
/// group — it stays wherever it lives today (harness, serve engine,
/// campaign trial); the group only manages the replica images, so the
/// `n = 0` configuration leaves every existing single-pool code path
/// untouched.
#[derive(Debug, Clone, Default)]
pub struct PoolGroup {
    replicas: Vec<Replica>,
}

impl PoolGroup {
    /// A group with `n` replicas, each starting from the primary's
    /// current durable image with its cursor at `base_seq` (the largest
    /// checkpoint seq already reflected in that image — 0 for a fresh
    /// pool). `n = 0` takes no snapshot and costs nothing.
    pub fn new(primary: &PmPool, n: usize, base_seq: u64) -> Self {
        if n == 0 {
            return PoolGroup::default();
        }
        let base = primary.snapshot();
        let replicas = (0..n)
            .map(|_| Replica {
                image: base.clone(),
                cursor: base_seq,
                applied: 0,
                faulted: false,
            })
            .collect();
        PoolGroup { replicas }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// True when the group holds no replicas (the single-pool
    /// degenerate configuration).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica at `idx`.
    pub fn replica(&self, idx: usize) -> Option<&Replica> {
        self.replicas.get(idx)
    }

    /// Applies one checkpoint record to replica `idx`. Records at or
    /// below the cursor are skipped (idempotent re-delivery); faulted
    /// replicas ignore everything. Returns whether the record was
    /// applied.
    pub fn apply(&mut self, idx: usize, seq: u64, addr: u64, bytes: &[u8]) -> bool {
        let Some(r) = self.replicas.get_mut(idx) else {
            return false;
        };
        if r.faulted || seq <= r.cursor {
            return false;
        }
        if r.image.write(addr, bytes).is_err() {
            return false;
        }
        r.cursor = seq;
        r.applied += 1;
        true
    }

    /// Applies a seq-ascending stream of records to replica `idx`,
    /// returning how many were applied. Stops early once the replica is
    /// faulted.
    pub fn apply_stream<'a, I>(&mut self, idx: usize, updates: I) -> u64
    where
        I: IntoIterator<Item = (u64, u64, &'a [u8])>,
    {
        let mut n = 0;
        for (seq, addr, bytes) in updates {
            if self.apply(idx, seq, addr, bytes) {
                n += 1;
            } else if self.replicas.get(idx).map(|r| r.faulted).unwrap_or(true) {
                break;
            }
        }
        n
    }

    /// Pumps a seq-ascending stream of records into every live replica
    /// whose cursor is below each record's seq.
    pub fn pump<'a, I>(&mut self, updates: I)
    where
        I: IntoIterator<Item = (u64, u64, &'a [u8])>,
    {
        let updates: Vec<(u64, u64, &'a [u8])> = updates.into_iter().collect();
        for idx in 0..self.replicas.len() {
            self.apply_stream(idx, updates.iter().copied());
        }
    }

    /// Per-replica status against the primary's current frontier
    /// (`latest` = largest seq issued), in replica-index order.
    pub fn status(&self, latest: u64) -> Vec<ReplicaStatus> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(idx, r)| ReplicaStatus {
                idx,
                cursor: r.cursor,
                applied: r.applied,
                lag: latest.saturating_sub(r.cursor),
                faulted: r.faulted,
            })
            .collect()
    }

    /// Live replicas ordered best-first (descending cursor, ascending
    /// index) — the failover candidate order.
    pub fn failover_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| !self.replicas[i].faulted)
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.replicas[i].cursor), i));
        order
    }

    /// Promotes replica `idx` into `pool`: the primary's device adopts
    /// the replica image (restore + crash recovery). The caller is
    /// responsible for discard accounting — every checkpoint seq above
    /// the replica's cursor is lost by the promotion. Returns the
    /// promoted cursor.
    pub fn promote_into(&self, idx: usize, pool: &mut PmPool) -> PmResult<u64> {
        let r = self
            .replicas
            .get(idx)
            .ok_or_else(|| PmError::BadHeader(format!("no replica {idx}")))?;
        if r.faulted {
            return Err(PmError::BadHeader(format!("replica {idx} is faulted")));
        }
        pool.restore(&r.image)?;
        Ok(r.cursor)
    }

    /// Marks replica `idx` failed (a promote whose verification failed).
    pub fn mark_faulted(&mut self, idx: usize) {
        if let Some(r) = self.replicas.get_mut(idx) {
            r.faulted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    fn pool() -> PmPool {
        PmPool::create(layout::HEAP_OFF + (1 << 16)).unwrap()
    }

    fn bytes(g: &PoolGroup, idx: usize, addr: u64, len: usize) -> Vec<u8> {
        g.replicas[idx].image.read(addr, len).unwrap()
    }

    #[test]
    fn empty_group_is_free_and_inert() {
        let p = pool();
        let mut g = PoolGroup::new(&p, 0, 0);
        assert!(g.is_empty());
        assert_eq!(g.failover_order(), Vec::<usize>::new());
        assert_eq!(g.status(100), vec![]);
        g.pump([(1u64, 0u64, &[0xFFu8; 8][..])]);
    }

    #[test]
    fn apply_advances_cursor_and_skips_replayed_records() {
        let p = pool();
        let mut g = PoolGroup::new(&p, 2, 0);
        let addr = layout::HEAP_OFF;
        assert!(g.apply(0, 5, addr, &[1; 8]));
        assert!(!g.apply(0, 5, addr, &[2; 8]), "re-delivery skipped");
        assert!(!g.apply(0, 3, addr, &[2; 8]), "stale seq skipped");
        assert_eq!(g.replica(0).unwrap().cursor(), 5);
        assert_eq!(g.replica(1).unwrap().cursor(), 0, "replicas independent");
        assert_eq!(bytes(&g, 0, addr, 8), &[1; 8]);
    }

    #[test]
    fn pump_converges_replica_to_primary_bytes() {
        let mut p = pool();
        let addr = layout::HEAP_OFF + 64;
        p.write(addr, &[0xAB; 16]).unwrap();
        p.persist(addr, 16).unwrap();
        let mut g = PoolGroup::new(&p, 1, 0);
        // A later write the replica learns only via the stream.
        p.write(addr, &[0xCD; 16]).unwrap();
        p.persist(addr, 16).unwrap();
        g.pump([(1u64, addr, &[0xCDu8; 16][..])]);
        assert_eq!(bytes(&g, 0, addr, 16), p.read(addr, 16).unwrap());
    }

    #[test]
    fn failover_order_prefers_highest_cursor_live_replica() {
        let p = pool();
        let mut g = PoolGroup::new(&p, 3, 0);
        let addr = layout::HEAP_OFF;
        g.apply(0, 1, addr, &[1; 8]);
        g.apply(1, 1, addr, &[1; 8]);
        g.apply(1, 2, addr, &[2; 8]);
        g.apply(2, 1, addr, &[1; 8]);
        assert_eq!(g.failover_order(), vec![1, 0, 2]);
        g.mark_faulted(1);
        assert_eq!(
            g.failover_order(),
            vec![0, 2],
            "faulted replicas drop out; ties break to the lowest index"
        );
        assert!(
            !g.apply(1, 3, addr, &[3; 8]),
            "a faulted replica applies nothing"
        );
    }

    #[test]
    fn promote_into_restores_and_recovers_the_primary() {
        let mut p = pool();
        let addr = layout::HEAP_OFF + 128;
        p.write(addr, &[0x77; 8]).unwrap();
        p.persist(addr, 8).unwrap();
        let mut g = PoolGroup::new(&p, 1, 10);
        // Primary diverges after the snapshot; the replica never hears
        // about it (a lagging standby).
        p.write(addr, &[0x99; 8]).unwrap();
        p.persist(addr, 8).unwrap();
        let cursor = g.promote_into(0, &mut p).unwrap();
        assert_eq!(cursor, 10);
        assert_eq!(p.read(addr, 8).unwrap(), vec![0x77; 8], "pre-fault bytes");
        g.mark_faulted(0);
        assert!(
            g.promote_into(0, &mut p).is_err(),
            "faulted replica rejected"
        );
    }

    #[test]
    fn seeding_replicas_copies_no_page_until_a_record_lands() {
        let mut p = pool();
        let addr = layout::HEAP_OFF + 64;
        p.write(addr, &[0xAB; 16]).unwrap();
        p.persist(addr, 16).unwrap();
        let before = p.device().stats().pages_copied;
        let mut g = PoolGroup::new(&p, 3, 0);
        assert_eq!(p.device().stats().pages_copied, before);
        for i in 0..3 {
            assert_eq!(g.replica(i).unwrap().image, p.snapshot());
        }
        // One replica applies a record: only its image diverges.
        assert!(g.apply(1, 1, addr, &[0xCD; 16]));
        assert_ne!(g.replica(1).unwrap().image, p.snapshot());
        assert_eq!(g.replica(0).unwrap().image, p.snapshot());
        assert_eq!(p.read(addr, 16).unwrap(), vec![0xAB; 16]);
        // The primary's next write to that page is the copy the sharing
        // deferred; the replicas keep the base bytes.
        p.write(addr, &[0xEF; 16]).unwrap();
        p.persist(addr, 16).unwrap();
        assert_eq!(p.device().stats().pages_copied, before + 1);
        assert_eq!(bytes(&g, 0, addr, 16), vec![0xAB; 16]);
    }
}
