//! Error types for the persistent-memory simulator.

use std::fmt;

/// Errors returned by the PM device, pool, allocator and transaction layers.
///
/// A crash at an armed injection site is not among them: the pool crashes
/// a fork of itself there and the operation goes on
/// (`PmPool::arm_captures`), so the program under test never sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmError {
    /// An access touched bytes outside the device capacity.
    OutOfBounds {
        /// First byte of the offending access.
        offset: u64,
        /// Length of the offending access.
        len: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The pool header is missing or corrupt (bad magic or version).
    BadHeader(String),
    /// The persistent heap has no free block large enough for a request.
    OutOfPmSpace {
        /// Requested allocation size.
        requested: u64,
    },
    /// An offset that should name an allocated block does not.
    NotAllocated {
        /// The offending offset.
        offset: u64,
    },
    /// A block was freed twice.
    DoubleFree {
        /// The offending offset.
        offset: u64,
    },
    /// A transaction operation was issued in the wrong state.
    TxState(String),
    /// The undo or redo log region overflowed.
    LogFull {
        /// Which log overflowed.
        log: &'static str,
    },
    /// Pool integrity check failed.
    Corruption(String),
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "pm access out of bounds: [{offset}, {offset}+{len}) exceeds capacity {capacity}"
            ),
            PmError::BadHeader(msg) => write!(f, "bad pool header: {msg}"),
            PmError::OutOfPmSpace { requested } => {
                write!(
                    f,
                    "out of persistent memory space (requested {requested} bytes)"
                )
            }
            PmError::NotAllocated { offset } => {
                write!(f, "offset {offset} does not name an allocated block")
            }
            PmError::DoubleFree { offset } => write!(f, "double free of block at {offset}"),
            PmError::TxState(msg) => write!(f, "transaction state error: {msg}"),
            PmError::LogFull { log } => write!(f, "{log} log is full"),
            PmError::Corruption(msg) => write!(f, "pool corruption: {msg}"),
        }
    }
}

impl std::error::Error for PmError {}

/// Convenience result alias for the simulator.
pub type PmResult<T> = Result<T, PmError>;
