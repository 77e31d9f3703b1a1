//! # pmemsim — a simulated persistent-memory substrate
//!
//! This crate stands in for the Intel Optane DC PMEM hardware and the PMDK
//! libraries (`libpmem`, `libpmemobj`) used by the Arthas paper
//! ("Understanding and Dealing with Hard Faults in Persistent Memory
//! Systems", EuroSys '21). It provides:
//!
//! - [`PmDevice`]: a byte-addressable device with CPU-cache-line overlay,
//!   explicit `flush`/`drain` persistence, and crash simulation that drops
//!   non-durable state (configurable via [`CrashPolicy`]);
//! - [`PmImage`]: the device's media and every snapshot of it, as
//!   copy-on-write 4 KiB pages, so forks and snapshots cost page pointers;
//! - [`capture_reads`]: the exact byte ranges a computation reads from
//!   images on its thread (the reactor's proof that a re-execution would
//!   repeat an earlier one);
//! - [`PmPool`]: a PMDK-like pool with a root object, a crash-atomic
//!   persistent allocator (redo-logged metadata) and undo-log transactions;
//! - [`PmSink`]: the durability-event interception surface that the Arthas
//!   checkpoint library and the baselines attach to;
//! - a `pmempool-check`-style integrity checker ([`PmPool::check`]);
//! - numbered crash-injection sites at every durability boundary
//!   ([`SiteKind`]): a pool armed with sites × crash policies
//!   ([`PmPool::arm_captures`]) crashes a fork of itself at each and runs
//!   on, so one pass of a workload yields every post-crash image an
//!   `inject` campaign classifies ([`SiteCapture`]).
//!
//! What matters for hard-fault reproduction is *which values survive a
//! restart*, and the simulator gives exact, deterministic answers to that
//! question.
//!
//! # Examples
//!
//! ```
//! use pmemsim::PmPool;
//!
//! let mut pool = PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
//! let obj = pool.alloc(64).unwrap();
//! pool.write_u64(obj, 0xC0FFEE).unwrap();
//! pool.persist(obj, 8).unwrap();
//! pool.crash_and_reopen().unwrap();
//! assert_eq!(pool.read_u64(obj).unwrap(), 0xC0FFEE);
//! ```

// Every bounds check in this crate is a real check:
// nothing here may trade one for speed.
#![forbid(unsafe_code)]

pub mod capture;
pub mod device;
pub mod error;
pub mod group;
pub mod image;
pub mod layout;
pub mod pool;
pub mod sink;

pub use capture::{capture_reads, ReadSet};
pub use device::{CrashPolicy, DeviceStats, PmDevice, CACHE_LINE};
pub use error::{PmError, PmResult};
pub use group::{PoolGroup, Replica, ReplicaStatus};
pub use image::PmImage;
pub use pool::{CheckIssue, PmPool, PoolStats, SiteCapture, SiteKind};
pub use sink::PmSink;
