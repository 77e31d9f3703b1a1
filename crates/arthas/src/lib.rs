//! # arthas — recovering persistent-memory systems from hard faults
//!
//! A from-scratch Rust reproduction of **Arthas** from "Understanding and
//! Dealing with Hard Faults in Persistent Memory Systems" (Choi, Burns,
//! Huang — EuroSys '21), over the `pmemsim` PM substrate and the `pir`
//! IR/VM toolchain.
//!
//! The pipeline mirrors the paper's Figure 4:
//!
//! 1. **Analyzer** ([`analyzer`]): static analysis (points-to, PM variable
//!    identification, PDG) plus `trace(GUID, addr)` instrumentation and
//!    the GUID metadata map.
//! 2. **Checkpoint library** ([`checkpoint`]): eager, fine-grained,
//!    versioned checkpointing of PM updates at the program's own
//!    persistence points, attached to the pool as a [`pmemsim::PmSink`].
//! 3. **Detector** ([`detector`]): failure classification and the
//!    cross-restart hard-failure heuristic, plus a PM usage monitor for
//!    leaks.
//! 4. **Reactor** ([`reactor`]): backward slicing of the fault
//!    instruction, the slice–trace–checkpoint join, and the multi-attempt
//!    purge/rollback reversion loop with re-execution; plus the dedicated
//!    persistent-leak mitigation.
//! 5. **Episode** ([`episode`]): one recovery, observe → mitigate →
//!    verify, with the detector, a round budget and an ordered ladder of
//!    mitigations (restart, reversion, standby failover).
//!
//! See the repository's `DESIGN.md` for the substitution map from the
//! paper's environment (Optane, PMDK, LLVM, C targets) to this one.

pub mod analyzer;
pub mod checkpoint;
pub mod detector;
pub mod episode;
pub mod reactor;
pub mod trace;

pub use analyzer::{
    analyze_and_instrument, analyze_and_instrument_cached, AnalyzerOutput, GuidMap, GuidMeta,
};
pub use checkpoint::{Entry, LogStats, LogView, SharedLog, VersionData, MAX_VERSIONS};
pub use detector::{Detector, FailureKind, FailureRecord, LeakMonitor, Verdict};
pub use episode::{Episode, Ladder, Recovery, Rung, Subject};
pub use pir_analysis::{AnalysisCache, CacheOutcome};
pub use reactor::{
    reopen, ConfigError, MitigationOutcome, Mode, PhaseTimes, Plan, PlanWork, Reactor,
    ReactorConfig, ReactorConfigBuilder, Restart, Search,
};
pub use trace::PmTrace;
