//! `campaign`: the fleet injection campaign over all stock scenarios,
//! invariant oracle on, in-memory analysis cache, no journal.
//!
//! One unit is one `inject::run_fleet`: scenario preparation (site
//! enumeration, invariant mining) and the trial queue are both timed
//! work. The analysis cache is built in the unit's set-up, as a warm
//! command-line invocation would find it.

use std::sync::Arc;
use std::time::Instant;

use arthas::AnalysisCache;
use inject::{CampaignConfig, FleetConfig, FleetReport, TrialVerdict};
use obs::{Recorder, RingRecorder};
use pm_workload::{scenarios, AppSetup};

use crate::gen::derive;
use crate::metrics::RunResult;
use crate::run::{repeat, Budget};
use crate::stats::{median, over};

/// Trials per scenario. CI's campaign uses 200 (about 1.6 k trials,
/// 15 s on the reference host); this is the same campaign cut to what
/// repeats a few times inside one run.
fn budget_per_scenario(scale: usize) -> usize {
    (32 / scale).max(2)
}

struct Unit {
    setup_s: f64,
    wall_s: f64,
    report: FleetReport,
}

impl Unit {
    fn trials(&self) -> u64 {
        self.report
            .campaign
            .scenarios
            .iter()
            .map(|s| s.trials.len() as u64)
            .sum()
    }

    fn count(&self, verdict: TrialVerdict) -> u64 {
        self.report
            .campaign
            .scenarios
            .iter()
            .map(|s| s.count(verdict))
            .sum()
    }
}

fn unit(seed: u64, scale: usize, recorder: Option<Arc<dyn Recorder>>) -> Result<Unit, String> {
    let all = scenarios::all();
    let t = Instant::now();
    let cache = Arc::new(AnalysisCache::in_memory());
    for scn in &all {
        AppSetup::new_with_cache(scn.build_module(), Some(&cache));
    }
    let setup_s = t.elapsed().as_secs_f64();

    let campaign = CampaignConfig::builder()
        .stride(8)
        .budget(budget_per_scenario(scale))
        .runners(crate::nproc())
        .seed(seed)
        .invariants(true)
        .analysis_cache(Some(cache))
        .build()
        .map_err(|e| format!("campaign config: {e:?}"))?;
    let mut fleet = FleetConfig::builder(campaign);
    if let Some(r) = recorder {
        fleet = fleet.recorder(r);
    }
    let fleet = fleet.build().map_err(|e| format!("fleet config: {e:?}"))?;
    let t = Instant::now();
    let report = inject::run_fleet(&all, &fleet).map_err(|e| format!("run_fleet: {e:?}"))?;
    Ok(Unit {
        setup_s,
        wall_s: t.elapsed().as_secs_f64(),
        report,
    })
}

/// The matrix must be complete and schema-valid, with no violated,
/// not-reached or silently corrupt row: the oracle stays on, so
/// throughput is never bought with a blind one.
fn check(units: &[Unit], result: &mut RunResult) {
    for u in units {
        let bad = u.count(TrialVerdict::InvariantViolated)
            + u.count(TrialVerdict::NotReached)
            + u.count(TrialVerdict::SilentCorruption);
        result.attempted += u.trials();
        result.failed += bad;
        if bad > 0 {
            result.problems.push(format!(
                "{bad} trials violated, not reached or silently corrupt"
            ));
        }
        if !u.report.complete {
            result
                .problems
                .push("campaign left unclassified rows".into());
        }
        if let Err(errs) = u.report.campaign.validate_rendered() {
            result
                .problems
                .push(format!("matrix does not match inject::schema(): {errs:?}"));
        }
    }
}

pub fn run(seed: u64, budget: Budget) -> Result<RunResult, String> {
    let run = repeat(budget.seconds, 0, budget.at_least(2, 1), |i| {
        unit(derive(seed, i), budget.scale, None)
    })?;
    let units = run.kept;
    let mut result = RunResult::default();
    check(&units, &mut result);
    let v = &mut result.values;
    v.set(
        "ops_per_s",
        over(&units, median, |u| u.trials() as f64 / u.wall_s),
    );
    v.set("response_ms", over(&units, median, |u| u.wall_s * 1e3));
    v.set("setup_s", over(&units, median, |u| u.setup_s));
    v.set("peak_rss_mb", run.peak_rss_mb);
    Ok(result)
}

/// The traced run: the same campaign with a recorder attached through
/// `FleetConfig::recorder`, read for the prepare phase and the
/// per-trial histogram.
pub fn run_traced(seed: u64, budget: Budget) -> Result<RunResult, String> {
    let recorder = Arc::new(RingRecorder::new(1 << 16));
    let u = unit(derive(seed, 0), budget.scale, Some(recorder.clone()))?;
    let mut result = RunResult::default();
    check(std::slice::from_ref(&u), &mut result);
    let v = &mut result.values;
    let queue_built = recorder
        .events()
        .iter()
        .find(|e| e.kind == "fleet.queue_built")
        .map(|e| e.t_us)
        .ok_or("no fleet.queue_built event")?;
    v.set("inject.prepare_ms", queue_built as f64 / 1e3);
    let trial = recorder
        .histogram("fleet.trial_us")
        .ok_or("no fleet.trial_us histogram")?;
    v.set("inject.trial_us_p50", trial.p50_us as f64);
    v.set("inject.trial_us_p99", trial.p99_us as f64);
    v.set("inject.trials", u.trials() as f64);
    v.set(
        "inject.verdict.clean_recovery",
        u.count(TrialVerdict::CleanRecovery) as f64,
    );
    v.set(
        "inject.verdict.mitigated",
        u.count(TrialVerdict::Mitigated) as f64,
    );
    v.set(
        "inject.verdict.unrecoverable",
        u.count(TrialVerdict::Unrecoverable) as f64,
    );
    v.set("obs.ring.dropped", recorder.dropped() as f64);
    Ok(result)
}

/// The campaign's fixed sizes, for the result document.
pub fn sizes(scale: usize) -> obs::Json {
    obs::Json::obj([
        ("stride", obs::Json::U64(8)),
        (
            "budget_per_scenario",
            obs::Json::U64(budget_per_scenario(scale) as u64),
        ),
        ("workers", obs::Json::U64(crate::nproc() as u64)),
    ])
}
