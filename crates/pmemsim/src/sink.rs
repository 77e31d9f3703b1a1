//! Event interception surface for checkpointing tools.
//!
//! Arthas (and the baselines) observe a PM application through the
//! well-defined durability points of the PMDK-like API: explicit persists,
//! transaction commits, allocations and frees. A [`PmSink`] attached to a
//! pool receives exactly those events, mirroring how the paper's checkpoint
//! library intercepts `pmem_persist`, `sfence` and the `libpmemobj`
//! transaction commit (§4.2).

/// Observer for durability events on a [`crate::PmPool`].
///
/// All methods have empty default bodies so implementors override only what
/// they need. Events are delivered *after* the corresponding data is durable
/// on media, so a sink checkpoints only successfully persisted state — the
/// paper's rule that checkpointing "respects the program's persistence
/// points".
///
/// A sink is a shared handle: every pool feeding one store holds a clone
/// of it, so methods take `&self` and the sink does its own locking (the
/// checkpoint store takes its one lock per event).
pub trait PmSink: Send + Sync {
    /// An explicit persist of `[offset, offset + data.len())` completed;
    /// `data` is the durable contents.
    fn on_persist(&self, offset: u64, data: &[u8]) {
        let _ = (offset, data);
    }

    /// A transaction committed; `ranges` are the snapshotted (and therefore
    /// possibly modified) ranges with their *new* durable contents.
    fn on_tx_commit(&self, tx_id: u64, ranges: &[(u64, Vec<u8>)]) {
        let _ = (tx_id, ranges);
    }

    /// A heap block was allocated: payload at `offset`, `size` bytes.
    fn on_alloc(&self, offset: u64, size: u64) {
        let _ = (offset, size);
    }

    /// The heap block with payload at `offset` was freed.
    fn on_free(&self, offset: u64) {
        let _ = offset;
    }

    /// The application's recovery function started (the
    /// `pmem_recover_begin` annotation of §4.7).
    fn on_recover_begin(&self) {}

    /// The application's recovery function finished (`pmem_recover_end`).
    fn on_recover_end(&self) {}

    /// An armed crash capture fired at the current durability boundary
    /// (`PmPool::arm_captures`), before the boundary's own operation: the
    /// sink's state at that instant, handed out with the capture as
    /// `SiteCapture::sink_state`. `None` (the default) keeps nothing. The
    /// checkpoint log answers with a deep copy of itself.
    fn on_capture(&self) -> Option<Box<dyn std::any::Any + Send>> {
        None
    }

    /// A PM address was read while recovery is active. Used by the
    /// persistent-leak mitigation to learn which objects the recovery
    /// function reaches.
    fn on_recover_read(&self, offset: u64, len: u64) {
        let _ = (offset, len);
    }
}
