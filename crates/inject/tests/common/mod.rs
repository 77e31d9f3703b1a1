//! Shared by the integration tests: an un-journaled run of the campaign
//! runtime, an un-injected replay as the miner runs it, and the matrix
//! pinned from the deleted sequential runner.
#![allow(dead_code)]

use arthas::{PmTrace, SharedLog};
use inject::{run_fleet, CampaignConfig, CampaignReport, FleetConfig, ScenarioCampaign};
use obs::Json;
use pm_workload::{run_with_injection, scenarios, AppSetup, InjectionOutcome, RunConfig, Scenario};
use pmemsim::PmPool;

/// Runs `ids` under `cfg` with journaling off and requires a complete
/// matrix.
pub fn campaign(ids: &[&str], cfg: &CampaignConfig) -> CampaignReport {
    let targets = scenarios::by_ids(ids).expect("known scenario ids");
    let fleet = FleetConfig::builder(cfg.clone()).build().unwrap();
    let report = run_fleet(&targets, &fleet).expect("un-journaled run cannot fail on I/O");
    assert!(
        report.complete,
        "no trial limit, so every row is classified"
    );
    report.campaign
}

/// [`campaign`] over one scenario.
pub fn scenario(id: &str, cfg: &CampaignConfig) -> ScenarioCampaign {
    campaign(&[id], cfg).scenarios.remove(0)
}

/// One un-injected run as the miner replays it (site census on, no
/// pmCRIU snapshots): the final pool, log and trace, and whether the run
/// read its seed.
pub struct Run {
    pub pool: PmPool,
    pub log: SharedLog,
    pub trace: PmTrace,
    pub seed_read: bool,
}

pub fn replay(scn: &dyn Scenario, setup: &AppSetup, seed: u64) -> Run {
    let cfg = RunConfig {
        seed,
        criu: false,
        record_sites: true,
        ..RunConfig::default()
    };
    match run_with_injection(scn, setup, &cfg) {
        InjectionOutcome::Completed(c) => Run {
            pool: c.pool,
            log: c.log,
            trace: c.trace,
            seed_read: c.seed_read,
        },
        InjectionOutcome::HardFailure(p) => Run {
            pool: p.pool,
            log: p.log,
            trace: p.trace,
            seed_read: p.seed_read,
        },
        InjectionOutcome::Captured(_) => unreachable!("no injection armed"),
    }
}

/// The `scenarios` and `totals` subtrees of a matrix document — what a
/// campaign computed, without the `config` stanza that names the worker
/// count it was computed with.
pub fn verdict_subtrees(doc: &Json) -> String {
    let part = |key: &str| doc.get(key).expect("matrix member").render_pretty();
    format!("{}\n{}", part("scenarios"), part("totals"))
}

/// `golden/campaign_matrix.json`: the matrix the per-scenario sequential
/// runner rendered at commit ad54ba5, the last one that had it, for f1,
/// f2, f4 at stride 8, budget 16 (runners 4). Regenerate only by
/// checking that commit out; the generator is in CHANGES.md (PR 16).
pub fn golden_matrix() -> Json {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/campaign_matrix.json"
    );
    let text = std::fs::read_to_string(path).expect("golden matrix is committed");
    Json::parse(&text).expect("golden matrix parses")
}
