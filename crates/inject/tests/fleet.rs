//! Campaign runtime guarantees: the matrix pinned from the deleted
//! sequential runner at every worker count, kill-and-resume
//! correctness, and journal header validation.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use arthas::AnalysisCache;
use inject::{invariants, run_fleet, CampaignConfig, FleetConfig, FleetError, FleetReport};
use obs::{RingRecorder, Value};
use pm_workload::{scenarios, Scenario};

mod common;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("inject-fleet-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn targets() -> Vec<Box<dyn Scenario>> {
    vec![
        scenarios::by_id("f1").unwrap(),
        scenarios::by_id("f2").unwrap(),
        scenarios::by_id("f4").unwrap(),
    ]
}

fn small_cfg(runners: usize) -> CampaignConfig {
    CampaignConfig::builder()
        .stride(8)
        .budget(16)
        .runners(runners)
        .build()
        .unwrap()
}

/// Runs f1, f2, f4 under `fleet` and returns the report with its
/// matrix's verdict subtrees rendered.
fn run(fleet: &FleetConfig) -> (FleetReport, String) {
    let report = run_fleet(&targets(), fleet).unwrap();
    let rendered = common::verdict_subtrees(&report.campaign.json());
    (report, rendered)
}

fn trial_count(report: &FleetReport) -> u64 {
    report
        .campaign
        .scenarios
        .iter()
        .map(|s| s.trials.len() as u64)
        .sum()
}

/// The one runtime reproduces the deleted sequential runner: at every
/// worker count, journal off and on, the `scenarios` and `totals`
/// subtrees render byte-identically to the matrix pinned from the
/// parent commit's sequential runner.
#[test]
fn matrix_matches_the_pinned_sequential_golden_at_every_worker_count() {
    let golden_doc = common::golden_matrix();
    let golden = common::verdict_subtrees(&golden_doc);
    for workers in [1, 2, 4, 8] {
        let cfg = small_cfg(workers);

        let plain = FleetConfig::builder(cfg.clone()).build().unwrap();
        let (report, rendered) = run(&plain);
        assert!(report.complete);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.journal_appended, 0);
        assert_eq!(rendered, golden, "{workers} worker(s), journal off");
        // The worker count leaves exactly one trace in the document, the
        // `config.runners` stanza: at the golden's own count (4) the
        // whole document is byte-identical.
        if workers == 4 {
            assert_eq!(
                report.campaign.json().render_pretty(),
                golden_doc.render_pretty()
            );
        }

        let dir = tmp_dir(&format!("identity-{workers}"));
        let journaled = FleetConfig::builder(cfg)
            .journal_dir(&dir)
            .fsync_batch(4)
            .build()
            .unwrap();
        let (report, rendered) = run(&journaled);
        assert_eq!(rendered, golden, "{workers} worker(s), journal on");
        let trials = trial_count(&report);
        assert_eq!(
            report.journal_appended, trials,
            "one journal line per trial"
        );
        assert_eq!(report.executed, trials);
    }
}

/// Kill-and-resume: stop a journaled stride-8 campaign mid-queue (the
/// `trial_limit` hook drops the runtime exactly as a kill would — the
/// journal simply stops growing), resume from the journal, and require
/// (a) the final matrix reproduces the pinned golden and (b) no
/// journaled trial re-executed, counted via journal lines.
#[test]
fn killed_campaign_resumes_to_identical_matrix_without_rerunning_trials() {
    let golden = common::verdict_subtrees(&common::golden_matrix());
    const KILL_AFTER: u64 = 9;
    for workers in [1, 2, 4, 8] {
        let dir = tmp_dir(&format!("resume-{workers}"));
        let cfg = small_cfg(workers);

        let first = FleetConfig::builder(cfg.clone())
            .journal_dir(&dir)
            .fsync_batch(2)
            .trial_limit(Some(KILL_AFTER))
            .build()
            .unwrap();
        let (killed, _) = run(&first);
        assert!(!killed.complete, "trial limit must stop the run mid-queue");
        assert_eq!(killed.executed, KILL_AFTER);
        assert_eq!(killed.journal_appended, KILL_AFTER);

        let resume = FleetConfig::builder(cfg)
            .journal_dir(&dir)
            .resume(true)
            .build()
            .unwrap();
        let (resumed, rendered) = run(&resume);
        assert!(resumed.complete);
        assert_eq!(resumed.skipped, KILL_AFTER, "journaled trials re-admitted");
        assert_eq!(
            rendered, golden,
            "{workers} worker(s): resumed matrix must match an uninterrupted run"
        );

        // Journal accounting proves no re-execution: header + first
        // run's lines + exactly the remaining trials.
        let total = trial_count(&resumed);
        assert_eq!(resumed.executed, total - KILL_AFTER);
        assert_eq!(resumed.journal_appended, total - KILL_AFTER);
        let read = obs::read_journal(&dir.join(inject::fleet::JOURNAL_FILE)).unwrap();
        assert_eq!(
            read.lines.len() as u64,
            1 + total,
            "header + one line per trial"
        );
        assert_eq!(read.skipped, 0);
    }
}

/// A journal written under one configuration refuses to drive another:
/// any drift in the matrix-determining knobs is a hard error, not a
/// silent partial resume.
#[test]
fn resume_rejects_mismatched_header() {
    let dir = tmp_dir("mismatch");
    let write = FleetConfig::builder(small_cfg(2))
        .journal_dir(&dir)
        .trial_limit(Some(3))
        .build()
        .unwrap();
    run_fleet(&targets(), &write).unwrap();

    // Different seed ⇒ different matrix key space.
    let other = CampaignConfig::builder()
        .stride(8)
        .budget(16)
        .runners(2)
        .seed(99)
        .build()
        .unwrap();
    let resume = FleetConfig::builder(other)
        .journal_dir(&dir)
        .resume(true)
        .build()
        .unwrap();
    match run_fleet(&targets(), &resume) {
        Err(FleetError::Journal(msg)) => {
            assert!(msg.contains("header mismatch"), "unhelpful error: {msg}")
        }
        Err(e) => panic!("expected a journal header mismatch, got: {e}"),
        Ok(_) => panic!("resume must fail on a mismatched header"),
    }

    // A different scenario set is a mismatch too.
    let resume = FleetConfig::builder(small_cfg(2))
        .journal_dir(&dir)
        .resume(true)
        .build()
        .unwrap();
    let two: Vec<Box<dyn Scenario>> = vec![
        scenarios::by_id("f1").unwrap(),
        scenarios::by_id("f2").unwrap(),
    ];
    assert!(matches!(
        run_fleet(&two, &resume),
        Err(FleetError::Journal(_))
    ));
}

/// Appends to the journal under `dir` a copy of its last trial line
/// with member `key` set to `value`.
fn append_forged_trial(dir: &std::path::Path, key: &str, value: obs::Json) {
    let path = dir.join(inject::fleet::JOURNAL_FILE);
    let read = obs::read_journal(&path).unwrap();
    let last = read.lines.last().expect("a journaled trial");
    assert_eq!(last.get("kind").and_then(obs::Json::as_str), Some("trial"));
    let obs::Json::Obj(members) = last.clone() else {
        panic!("a trial line is an object");
    };
    let forged = obs::Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| if k == key { (k, value.clone()) } else { (k, v) })
            .collect(),
    );
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str(&forged.render());
    text.push('\n');
    std::fs::write(&path, text).unwrap();
}

/// A resume fed a journal that names a trial no matrix of this
/// configuration holds refuses it: dropping the line would lose a
/// verdict the journal says was recorded.
fn assert_resume_rejects(dir: &std::path::Path, what: &str) {
    let resume = FleetConfig::builder(small_cfg(2))
        .journal_dir(dir)
        .resume(true)
        .build()
        .unwrap();
    match run_fleet(&targets(), &resume) {
        Err(FleetError::Journal(msg)) => {
            assert!(msg.contains("not in the trial matrix"), "{what}: {msg}")
        }
        Err(e) => panic!("{what}: expected a journal error, got: {e}"),
        Ok(_) => panic!("{what}: resume must fail"),
    }
}

/// Journals a two-trial run, appends a copy of its last trial line with
/// `key` set to `value`, and requires the resume to refuse it.
fn forge_and_resume(name: &str, key: &str, value: obs::Json) {
    let dir = tmp_dir(&format!("foreign-{name}"));
    let write = FleetConfig::builder(small_cfg(2))
        .journal_dir(&dir)
        .trial_limit(Some(2))
        .build()
        .unwrap();
    run_fleet(&targets(), &write).unwrap();
    append_forged_trial(&dir, key, value);
    assert_resume_rejects(&dir, name);
}

/// A journaled (scenario, site, policy) that no matrix holds is
/// corruption.
#[test]
fn resume_rejects_a_journaled_trial_no_matrix_holds() {
    forge_and_resume("site", "site", obs::Json::U64(1 << 40));
}

/// A journaled trial of a scenario the campaign does not run is
/// corruption too.
#[test]
fn resume_rejects_a_journaled_trial_of_an_unknown_scenario() {
    forge_and_resume("scenario", "scenario", obs::Json::Str("f99".into()));
}

/// `read_header` round-trips the matrix-determining configuration.
#[test]
fn journal_header_round_trips() {
    let dir = tmp_dir("header");
    let cfg = small_cfg(3);
    let fcfg = FleetConfig::builder(cfg.clone())
        .journal_dir(&dir)
        .trial_limit(Some(1))
        .build()
        .unwrap();
    run_fleet(&targets(), &fcfg).unwrap();
    let h = inject::read_header(&dir).unwrap();
    assert_eq!(h.seed, cfg.seed());
    assert_eq!(h.stride, cfg.stride());
    assert_eq!(h.budget, cfg.budget());
    assert_eq!(h.runners, cfg.runners());
    assert_eq!(h.policies, cfg.policies());
    assert_eq!(h.invariants, cfg.invariants());
    assert_eq!(h.scenarios, vec!["f1", "f2", "f4"]);
    // The header rebuilds the configuration that wrote it.
    let rebuilt = h.campaign_config(None).unwrap();
    assert_eq!(
        (rebuilt.seed(), rebuilt.stride(), rebuilt.budget()),
        (cfg.seed(), cfg.stride(), cfg.budget())
    );
    assert_eq!(rebuilt.runners(), cfg.runners());
    assert_eq!(rebuilt.policies(), cfg.policies());
    assert_eq!(rebuilt.invariants(), cfg.invariants());
    assert_eq!(rebuilt.replicas(), 0);
    let from_header = scenarios::by_ids(&h.scenarios).unwrap();
    assert_eq!(from_header.len(), 3);
    assert_eq!(from_header[2].id(), "f4");
}

/// The fleet instrumentation surfaces queue progress: per-scenario
/// readiness, per-trial completion with remaining-queue depth, and the
/// terminal summary event.
#[test]
fn fleet_recorder_sees_queue_lifecycle() {
    let rec = Arc::new(RingRecorder::new(4096));
    let fcfg = FleetConfig::builder(small_cfg(2))
        .recorder(rec.clone())
        .build()
        .unwrap();
    let report = run_fleet(&targets(), &fcfg).unwrap();
    let events = rec.events();
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count("fleet.scenario_ready"), 3);
    assert!(
        ready_replays(&rec).values().all(|&r| r == 1),
        "with the oracle off, prepare is the enumeration run alone"
    );
    assert_eq!(count("fleet.trial_done"), report.executed);
    assert_eq!(count("fleet.queue_built"), 1);
    assert_eq!(count("fleet.done"), 1);
    assert_eq!(
        rec.counters().get("fleet.trials_executed").copied(),
        Some(report.executed)
    );
    assert!(rec.histograms().contains_key("fleet.trial_us"));
}

/// The `u64` field `name` of `event`.
fn u64_field(event: &obs::Event, name: &str) -> u64 {
    match event.fields.iter().find(|(k, _)| *k == name) {
        Some((_, Value::U64(v))) => *v,
        other => panic!("{} has no u64 {name}: {other:?}", event.kind),
    }
}

/// The restarts a campaign pays count work, not scheduling: the
/// `fleet.restarts_paid` counter is the sum of every `fleet.trial_done`
/// event's `paid`, and it is the same at 1 and at 4 workers. One worker
/// prepares every scenario before it runs a trial, so its
/// `fleet.queue_built` finds none done.
#[test]
fn restarts_paid_do_not_depend_on_the_worker_count() {
    let paid = |workers: usize| {
        let rec = Arc::new(RingRecorder::new(4096));
        let fcfg = FleetConfig::builder(small_cfg(workers))
            .recorder(rec.clone())
            .build()
            .unwrap();
        run_fleet(&targets(), &fcfg).unwrap();
        let events = rec.events();
        let per_trial: u64 = events
            .iter()
            .filter(|e| e.kind == "fleet.trial_done")
            .map(|e| u64_field(e, "paid"))
            .sum();
        let total = rec.counters()["fleet.restarts_paid"];
        assert_eq!(total, per_trial, "{workers} worker(s)");
        let built = events
            .iter()
            .find(|e| e.kind == "fleet.queue_built")
            .unwrap();
        (total, u64_field(built, "trials_done"))
    };
    let (one, done_before_built) = paid(1);
    assert!(one > 0);
    assert_eq!(done_before_built, 0);
    assert_eq!(paid(4).0, one);
}

/// `replays` of every `fleet.scenario_ready` event, by scenario id, with
/// each event's `prepare_us` required present.
fn ready_replays(rec: &RingRecorder) -> BTreeMap<String, u64> {
    rec.events()
        .iter()
        .filter(|e| e.kind == "fleet.scenario_ready")
        .map(|e| {
            let field = |name: &str| {
                e.fields
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| panic!("scenario_ready has no {name}"))
            };
            let (Value::Str(id), Value::U64(replays), Value::U64(_)) =
                (field("id"), field("replays"), field("prepare_us"))
            else {
                panic!("scenario_ready fields have the wrong types: {:?}", e.fields);
            };
            (id, replays)
        })
        .collect()
}

/// Prepare says what it cost: f1 never reads its seed, so its enumeration
/// run is all the mining it needs; f5 reads its seed and replays every
/// mining seed.
#[test]
fn scenario_ready_reports_the_replays_prepare_ran() {
    let rec = Arc::new(RingRecorder::new(4096));
    let cfg = CampaignConfig::builder()
        .stride(8)
        .budget(4)
        .runners(2)
        .invariants(true)
        .build()
        .unwrap();
    let fleet = FleetConfig::builder(cfg)
        .recorder(rec.clone())
        .build()
        .unwrap();
    run_fleet(&scenarios::by_ids(&["f1", "f5"]).unwrap(), &fleet).unwrap();
    let replays = ready_replays(&rec);
    assert_eq!(replays["f1"], 1);
    assert_eq!(replays["f5"], u64::from(invariants::MINING_SEEDS));
}

/// A finished campaign does not keep its analysis cache alive: the
/// report a caller holds on to carries the configuration without it.
#[test]
fn a_report_does_not_pin_the_analysis_cache() {
    let cache = Arc::new(AnalysisCache::in_memory());
    let cfg = CampaignConfig::builder()
        .stride(8)
        .budget(4)
        .analysis_cache(Some(cache.clone()))
        .build()
        .unwrap();
    let fleet = FleetConfig::builder(cfg).build().unwrap();
    let report = run_fleet(&scenarios::by_ids(&["f4"]).unwrap(), &fleet).unwrap();
    drop(fleet);
    assert!(report.complete);
    assert_eq!(Arc::strong_count(&cache), 1);
}
