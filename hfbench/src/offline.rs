//! `offline-recover`: production replay and mitigation of the twelve
//! stock faults (the paper's Fig. 8/9 path), and cold against warm
//! restarts over the persistent analysis cache.
//!
//! One unit is one pass over f1–f12: `run_production` then
//! `mitigate(Solution::Arthas(ReactorConfig::default()))`, on one
//! `AppSetup` per application built in the unit's set-up.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use arthas::{AnalysisCache, ReactorConfig};
use obs::RingRecorder;
use pm_workload::{
    mitigate, run_production, scenarios, AppSetup, MitigationResult, RunConfig, Scenario, Solution,
};

use crate::gen::derive;
use crate::metrics::RunResult;
use crate::run::{repeat, Budget};
use crate::stats::{median, ms_since, over};

/// One `AppSetup` per application, keyed by system name.
fn setups(all: &[Box<dyn Scenario>]) -> BTreeMap<&'static str, AppSetup> {
    let mut by_system = BTreeMap::new();
    for scn in all {
        by_system
            .entry(scn.system())
            .or_insert_with(|| AppSetup::new(scn.build_module()));
    }
    by_system
}

struct Pass {
    setup_s: f64,
    production_ms: f64,
    /// One result per scenario, in f1–f12 order; `None` when production
    /// did not end in a detected hard failure.
    results: Vec<(&'static str, Option<MitigationResult>)>,
    slice_computes: u64,
}

impl Pass {
    fn mitigations(&self) -> impl Iterator<Item = &MitigationResult> {
        self.results.iter().filter_map(|(_, r)| r.as_ref())
    }

    fn mitigate_ms(&self) -> f64 {
        self.mitigations().map(|r| r.wall.as_secs_f64() * 1e3).sum()
    }
}

fn pass(seed: u64, recorder: Option<Arc<RingRecorder>>) -> Pass {
    let all = scenarios::all();
    let t = Instant::now();
    let by_system = setups(&all);
    let setup_s = t.elapsed().as_secs_f64();
    let mut production_ms = 0.0;
    let mut results = Vec::with_capacity(all.len());
    for scn in &all {
        let setup = &by_system[scn.system()];
        let cfg = RunConfig {
            seed,
            recorder: recorder.clone().map(|r| r as Arc<dyn obs::Recorder>),
            ..RunConfig::default()
        };
        let t = Instant::now();
        let production = run_production(scn.as_ref(), setup, &cfg);
        production_ms += ms_since(t);
        let result = production.map(|mut p| {
            mitigate(
                &mut p,
                scn.as_ref(),
                setup,
                Solution::Arthas(ReactorConfig::default()),
            )
        });
        results.push((scn.id(), result));
    }
    Pass {
        setup_s,
        production_ms,
        results,
        slice_computes: recorder.map_or(0, |r| r.counter("reactor.slice_compute")),
    }
}

/// Every mitigation must recover and must not be found inconsistent.
fn check(passes: &[Pass], result: &mut RunResult) {
    for p in passes {
        for (id, r) in &p.results {
            result.attempted += 1;
            let problem = match r {
                None => Some("production did not end in a detected hard failure"),
                Some(r) if !r.recovered => Some("not recovered"),
                Some(r) if r.consistent == Some(false) => Some("recovered but inconsistent"),
                Some(_) => None,
            };
            if let Some(why) = problem {
                result.failed += 1;
                result.problems.push(format!("{id}: {why}"));
            }
        }
    }
}

/// Σ over f1–f12 of the median over passes of `f` (ms).
fn sum_of_medians(passes: &[Pass], f: impl Fn(&MitigationResult) -> f64) -> f64 {
    (0..passes[0].results.len())
        .map(|i| {
            let per_pass: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.results[i].1.as_ref().map(&f))
                .collect();
            median(&per_pass)
        })
        .sum()
}

pub fn run(seed: u64, budget: Budget) -> Result<RunResult, String> {
    let run = repeat(
        budget.seconds,
        budget.warmup(1),
        budget.at_least(3, 1),
        |i| Ok(pass(derive(seed, i), None)),
    )?;
    let passes = run.kept;
    let mut result = RunResult::default();
    check(&passes, &mut result);
    let v = &mut result.values;
    v.set(
        "ops_per_s",
        over(&passes, median, |p| {
            p.results.len() as f64 * 1e3 / (p.production_ms + p.mitigate_ms())
        }),
    );
    v.set(
        "response_ms",
        sum_of_medians(&passes, |r| r.wall.as_secs_f64() * 1e3),
    );
    v.set("setup_s", over(&passes, median, |p| p.setup_s));
    v.set("peak_rss_mb", run.peak_rss_mb);
    Ok(result)
}

/// A cold and a warm restart of the analyzer over `dir`: the first on
/// an empty directory computes and stores, the second (a fresh cache
/// object, as a new process would open) loads.
fn restart_pair(dir: &Path) -> Result<(AppSetup, f64, AppSetup, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let open = || AnalysisCache::persistent(dir).map_err(|e| format!("{}: {e}", dir.display()));
    let t = Instant::now();
    let cold = AppSetup::new_with_cache(pm_apps::stress::build(), Some(&open()?));
    let cold_ms = ms_since(t);
    let t = Instant::now();
    let warm = AppSetup::new_with_cache(pm_apps::stress::build(), Some(&open()?));
    let warm_ms = ms_since(t);
    Ok((cold, cold_ms, warm, warm_ms))
}

/// The traced run: passes with a recorder attached to every layer (for
/// the reactor's phase times and slice count), then the restart pairs
/// in `scratch`, a directory of the benchmark's own.
pub fn run_traced(seed: u64, budget: Budget, scratch: &Path) -> Result<RunResult, String> {
    let passes = repeat(
        budget.seconds / 2.0,
        budget.warmup(1),
        budget.at_least(2, 1),
        |i| {
            Ok(pass(
                derive(seed, i),
                Some(Arc::new(RingRecorder::new(1 << 16))),
            ))
        },
    )?
    .kept;
    let mut result = RunResult::default();
    check(&passes, &mut result);
    let first = &passes[0];
    let v = &mut result.values;
    let phase = |f: fn(&arthas::PhaseTimes) -> std::time::Duration| {
        sum_of_medians(&passes, |r| f(&r.phases).as_secs_f64() * 1e3)
    };
    v.set("arthas.reactor.slice_ms", phase(|p| p.slice));
    v.set("arthas.reactor.plan_ms", phase(|p| p.plan));
    v.set("arthas.reactor.revert_ms", phase(|p| p.revert));
    v.set("arthas.reactor.reexec_ms", phase(|p| p.reexec));
    let sum = |f: fn(&MitigationResult) -> u64| first.mitigations().map(f).sum::<u64>() as f64;
    v.set(
        "arthas.reactor.attempts_total",
        sum(|r| u64::from(r.attempts)),
    );
    v.set("arthas.reactor.slice_computes", first.slice_computes as f64);
    v.set(
        "client.discarded_frac",
        sum(|r| r.discarded_updates) / sum(|r| r.total_updates),
    );
    v.set(
        "pm-workload.harness.production_ms",
        over(&passes, median, |p| p.production_ms),
    );

    let pairs = if budget.scale == 1 { 15 } else { 3 };
    let dir = scratch.join("analysis-cache");
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut compute = Vec::new();
    let mut load = Vec::new();
    let mut instrument = Vec::new();
    for _ in 0..pairs {
        let (c, cold_ms, w, warm_ms) = restart_pair(&dir)?;
        cold.push(cold_ms);
        warm.push(warm_ms);
        // A loaded analysis reports its load time as its analysis time.
        compute.push(c.analysis.analysis_time.as_secs_f64() * 1e3);
        load.push(w.analysis.analysis_time.as_secs_f64() * 1e3);
        instrument.push(w.instrument_time.as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
    v.set("pir-analysis.restart_cold_ms", median(&cold));
    v.set("pir-analysis.restart_warm_ms", median(&warm));
    v.set("pir-analysis.compute_ms", median(&compute));
    v.set("pir-analysis.cache_load_ms", median(&load));
    v.set("arthas.analyzer.instrument_ms", median(&instrument));
    Ok(result)
}
