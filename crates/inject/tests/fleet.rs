//! Campaign runtime guarantees: the matrix pinned from the deleted
//! sequential runner at every worker count, kill-and-resume
//! correctness, and journal header validation.

use std::path::PathBuf;
use std::sync::Arc;

use inject::{run_fleet, CampaignConfig, FleetConfig, FleetError, FleetReport};
use obs::RingRecorder;
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
    assert_eq!(count("fleet.trial_done"), report.executed);
    assert_eq!(count("fleet.queue_built"), 1);
    assert_eq!(count("fleet.done"), 1);
    assert_eq!(
        rec.counters().get("fleet.trials_executed").copied(),
        Some(report.executed)
    );
    assert!(rec.histograms().contains_key("fleet.trial_us"));
}
