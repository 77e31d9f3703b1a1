//! End-to-end serving test: a hard fault is planted while concurrent
//! connections stream YCSB-shaped traffic, and the server must mitigate
//! it **online** — connections observe bounded errors and latency, not a
//! dead process, and every lost request is accounted against the
//! reactor's discarded checkpoint updates (fig9 semantics).

use std::sync::Arc;
use std::time::Duration;

use pm_workload::{run_load, LoadConfig, LoadReport};
use serve::{EngineConfig, Server, ServerConfig};

/// Ops per connection are deliberately small: the tier-1 suite runs this
/// unoptimized, and the VM dominates. The release-mode CI smoke job
/// drives the ≥10k-op configurations.
fn load_cfg(conns: usize, ops: u64, fault_at: Option<u64>) -> LoadConfig {
    LoadConfig {
        conns,
        ops,
        fault_at,
        tracked_every: 32,
        recovery_timeout: Duration::from_secs(120),
        ..LoadConfig::default()
    }
}

/// The serving gates the `serve` command exits on: no codec errors,
/// recovered if a fault was armed, tracked loss ≤ discarded updates —
/// nothing vanished outside the reactor's accounting (fig9 semantics).
fn assert_gates_pass(report: &LoadReport, cfg: &LoadConfig) {
    let failed = report.gate_failures(cfg, None);
    assert!(failed.is_empty(), "serving gates {failed:?}: {report:?}");
}

fn start_server(scenario: &str, recorder: Arc<obs::RingRecorder>) -> serve::ServerHandle {
    start_server_with(scenario, 0, recorder)
}

fn start_server_with(
    scenario: &str,
    replicas: usize,
    recorder: Arc<obs::RingRecorder>,
) -> serve::ServerHandle {
    Server::start(
        ServerConfig {
            workers: 4,
            engine: EngineConfig {
                scenario: scenario.into(),
                replicas,
                // The smoke must resolve by promotion deterministically.
                // The fault arms at op 1600 of 3200, so a lag deeper
                // than the whole run's update count keeps the poison out
                // of the standby regardless of when it first manifests;
                // the lag-vs-manifestation race (and the escalation it
                // forces) is what hfbench's `recover-f4r` workload runs into.
                standby_lag: 4096,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
        None,
        recorder,
    )
    .expect("server starts")
}

#[test]
fn serving_mitigates_hard_fault_online_under_64_connections() {
    let recorder = Arc::new(obs::RingRecorder::new(1 << 18));
    let handle = start_server("f4", recorder.clone());
    let cfg = load_cfg(64, 3200, Some(1600));
    let report = run_load(handle.addr(), &cfg).expect("load run completes");

    // The fault was armed and mitigated online: the run ends with the
    // server recovered, not degraded or dead.
    assert!(
        report.fault_armed_at_us.is_some(),
        "fault was armed mid-run: {report:?}"
    );
    assert_gates_pass(&report, &cfg);
    assert!(
        report.stat_u64("mitigations_recovered").unwrap_or(0) >= 1,
        "at least one reactor mitigation verified: {:?}",
        report.final_stats
    );
    assert_eq!(
        report.stat_u64("mitigating"),
        Some(0),
        "not serving degraded"
    );

    // Bounded errors, not silent corruption: the transport stayed clean
    // end to end.
    assert_eq!(report.io_errors, 0, "zero transport errors: {report:?}");
    assert!(report.ops_ok > 0, "traffic flowed: {report:?}");

    // Availability accounting via obs: latency percentiles exist for the
    // mitigation window (the run observed it, not just survived it).
    assert!(
        report.p99_during_mitigation_us.is_some(),
        "p99 during mitigation measured: {report:?}"
    );

    // The engine emitted the serving-lifecycle events.
    let events = recorder.events();
    for kind in ["serve.start", "serve.fault_armed", "serve.mitigation_end"] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "missing {kind} event"
        );
    }

    // Post-mitigation the cache still serves: a fresh set/get roundtrip
    // through a new connection succeeds.
    let verify = run_load(
        handle.addr(),
        &LoadConfig {
            conns: 2,
            ops: 64,
            fault_at: None,
            ..LoadConfig::default()
        },
    )
    .expect("post-mitigation load");
    assert_eq!(
        verify.ops_ok, 64,
        "post-mitigation traffic clean: {verify:?}"
    );
    assert_eq!(verify.codec_errors, 0);
}

/// The failover smoke (ISSUE 10): fault armed mid-stream against a
/// server with one hot-standby replica; the mitigation must resolve by
/// promoting the standby, loss stays inside the discard accounting, and
/// the stats surface stays schema-valid.
#[test]
fn serving_fails_over_to_hot_standby_under_load() {
    let recorder = Arc::new(obs::RingRecorder::new(1 << 18));
    let handle = start_server_with("f4", 1, recorder.clone());
    let cfg = load_cfg(32, 3200, Some(1600));
    let report = run_load(handle.addr(), &cfg).expect("load run completes");

    assert!(
        report.fault_armed_at_us.is_some(),
        "fault armed: {report:?}"
    );
    // Failover discards the retained updates past the promoted cursor;
    // acked-then-lost writes must stay inside that accounting.
    assert_gates_pass(&report, &cfg);
    assert!(
        report.stat_u64("failovers").unwrap_or(0) >= 1,
        "recovery came from standby promotion: {:?}",
        report.final_stats
    );
    assert_eq!(report.stat_u64("replicas"), Some(1));
    assert_eq!(report.io_errors, 0, "{report:?}");

    let events = recorder.events();
    assert!(
        events.iter().any(|e| e.kind == "serve.failover"),
        "serve.failover event emitted"
    );

    // The stats surface (including the replication keys) matches its
    // schema.
    serve::validate_stats(&report.final_stats).expect("final stats are schema-valid");

    // Post-failover the promoted pool keeps serving. The standby may
    // have pulled the poisoned update through the checkpoint stream
    // before the fault manifested, in which case the fault recurs once
    // on the promoted image and the engine escalates to primary-image
    // reversion — so the first pass tolerates an in-flight escalation
    // and the second pass must be fully clean.
    let settle = run_load(
        handle.addr(),
        &LoadConfig {
            conns: 2,
            ops: 64,
            fault_at: None,
            ..LoadConfig::default()
        },
    )
    .expect("post-failover load");
    assert_eq!(settle.codec_errors, 0, "{settle:?}");
    let verify = run_load(
        handle.addr(),
        &LoadConfig {
            conns: 2,
            ops: 64,
            fault_at: None,
            ..LoadConfig::default()
        },
    )
    .expect("post-escalation load");
    assert_eq!(verify.ops_ok, 64, "post-failover traffic clean: {verify:?}");
}

/// The adversarial-skew replay left open by PR 9: f4 online mitigation
/// under zipfian theta = 0.99 traffic, gating loss ≤ discarded as the
/// uniform run does. Hot keys pile versions onto the same addresses,
/// which is exactly the rotation pressure the checkpoint log's
/// per-address retention must absorb.
#[test]
fn serving_mitigates_f4_under_zipfian_skew() {
    let recorder = Arc::new(obs::RingRecorder::new(1 << 18));
    let handle = start_server("f4", recorder);
    let cfg = LoadConfig {
        skew: 0.99,
        ..load_cfg(32, 3200, Some(1600))
    };
    let report = run_load(handle.addr(), &cfg).expect("load run completes");

    assert!(
        report.fault_armed_at_us.is_some(),
        "fault armed: {report:?}"
    );
    assert_gates_pass(&report, &cfg);
    assert!(report.stat_u64("mitigations_recovered").unwrap_or(0) >= 1);

    // The --json surface built from this run validates against the
    // load-report schema.
    report
        .validate_rendered(None)
        .expect("load report document is schema-valid");
}

#[test]
fn serving_clean_run_stays_clean() {
    let recorder = Arc::new(obs::RingRecorder::new(1 << 16));
    let handle = start_server("f4", recorder);
    let cfg = load_cfg(16, 800, None);
    let report = run_load(handle.addr(), &cfg).expect("load run");
    assert_gates_pass(&report, &cfg);
    assert_eq!(report.ops_ok, report.ops_attempted, "no errors: {report:?}");
    assert_eq!(report.server_errors, 0);
    assert_eq!(report.tracked_lost, 0, "nothing lost without a fault");
    assert!(!report.recovered, "no mitigation on a clean run");
}
