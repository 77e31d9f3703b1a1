//! # arthas-bench — harnesses regenerating the paper's tables and figures
//!
//! Each artifact `EXPERIMENTS.md` compares against the paper (Tables 2–5,
//! 7, 9, Figures 8–12, the reactor ablation, the study tables) has a
//! bench target (registered with `harness = false`) that reruns the
//! experiment and prints the rows/series the paper reports. Run them all
//! with `cargo bench --workspace`, or one with
//! `cargo bench -p arthas-bench --bench <name>`. Serving, replication,
//! campaign and sharded-store performance are not here: `hfbench/`
//! measures them with bounded, machine-readable metrics.
//!
//! Absolute numbers differ from the paper (the substrate is an interpreter
//! over simulated PM, not Optane hardware); the comparative shape — who
//! recovers, attempt counts, discarded-data ratios, relative overheads —
//! is the reproduced result. See `EXPERIMENTS.md` at the repository root.

use arthas::{BatchStrategy, Mode, ReactorConfig};
use pm_workload::{
    mitigate, run_production, AppSetup, MitigationResult, RunConfig, Scenario, Solution,
};

/// Runs one scenario's production phase and one mitigation over a
/// prebuilt [`AppSetup`].
///
/// Returns `None` when the scenario failed to produce a detected hard
/// failure (a reproduction bug, reported loudly by the harnesses).
pub fn run_with_setup(
    scn: &dyn Scenario,
    setup: &AppSetup,
    solution: Solution,
    seed: u64,
) -> Option<MitigationResult> {
    let cfg = RunConfig {
        seed,
        ..RunConfig::default()
    };
    let mut prod = run_production(scn, setup, &cfg)?;
    Some(mitigate(&mut prod, scn, setup, solution))
}

/// The default Arthas configuration used across the evaluation.
pub fn arthas_default() -> Solution {
    Solution::Arthas(ReactorConfig::default())
}

/// Arthas with speculative mitigation over `workers` concurrent
/// re-executions (outcome-identical to [`arthas_default`]; only the
/// restart delays overlap).
pub fn arthas_speculative(workers: usize) -> Solution {
    Solution::Arthas(
        ReactorConfig::builder()
            .speculation(Some(workers))
            .build()
            .expect("valid reactor config"),
    )
}

/// Arthas in pure rollback mode.
pub fn arthas_rollback() -> Solution {
    Solution::Arthas(
        ReactorConfig::builder()
            .mode(Mode::Rollback)
            .build()
            .expect("valid reactor config"),
    )
}

/// Arthas in pure purge mode (no fallback to rollback).
pub fn arthas_purge_only() -> Solution {
    Solution::Arthas(
        ReactorConfig::builder()
            .mode(Mode::Purge)
            .purge_fallback_after(u32::MAX)
            .build()
            .expect("valid reactor config"),
    )
}

/// Arthas with batched reversion.
pub fn arthas_batched(n: usize) -> Solution {
    Solution::Arthas(
        ReactorConfig::builder()
            .batch(BatchStrategy::Batch(n))
            .build()
            .expect("valid reactor config"),
    )
}

/// A ✓/✗ cell.
pub fn tick(ok: bool) -> &'static str {
    if ok {
        "Y"
    } else {
        "n"
    }
}

/// Standard pool for overhead runs.
pub fn bench_pool() -> pmemsim::PmPool {
    pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (8 << 20)).expect("pool")
}
