//! # pm-workload — fault scenarios, workloads and the experiment harness
//!
//! Everything needed to reproduce the Arthas paper's evaluation runs:
//!
//! - [`scenarios`]: the 12 hard faults of Table 2 as [`harness::Scenario`]
//!   implementations over the five `pm-apps` systems;
//! - [`harness`]: the production driver (300-logical-second runs, trigger
//!   at the half-way point, restart-based hard-failure detection) and the
//!   mitigation wrappers for Arthas, pmCRIU and ArCkpt with the measured
//!   metrics (recoverability, attempts, mitigation time, discarded data,
//!   post-recovery consistency);
//! - [`report`]: the `report` CLI subcommand's engine — one scenario run
//!   with a ring recorder attached to every layer, rendered as a
//!   schema-stable JSON document and a human-readable recovery timeline;
//! - [`ycsb`]: YCSB-style workload generation for the overhead
//!   experiments;
//! - [`loadgen`]: the TCP load driver for the `serve` front-end —
//!   YCSB-shaped traffic over N connections with mid-run fault arming,
//!   mitigation-window latency percentiles and exact acked-but-lost
//!   accounting.

pub mod harness;
pub mod loadgen;
pub mod report;
pub mod scenarios;
pub mod ycsb;

pub use arthas::{AnalysisCache, CacheOutcome};
pub use harness::{
    check_consistency, mitigate, run_cell, run_production, run_with_injection, AppSetup,
    CompletedRun, CrashCapture, Drive, InjectionOutcome, MitigationResult, Production, RunConfig,
    RunCtx, Scenario, ScenarioTarget, SiteInjection, Solution, CRIU_INTERVAL, POOL_SIZE, RUN_TICKS,
};
pub use loadgen::{load_report_schema, run_load, LoadConfig, LoadReport};
