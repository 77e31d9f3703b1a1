//! The reactor's verdicts pinned as data: every stock scenario of
//! Table 2, under the offline default and the serving profile, must
//! reproduce `golden/mitigation_outcomes.txt` — recovery verdict, attempt
//! count, reverted sequence numbers, discarded-data accounting, final
//! pool image and restarts paid. The same outcome, restarts aside, holds
//! against a target whose restarts read every byte of their pool, for
//! which the reactor skips a restart only on an identical image:
//! skipping moves rounds and nothing else. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pm-workload --test mitigation_outcomes
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use arthas::{MitigationOutcome, Reactor, ReactorConfig, Restart, Rung};
use obs::{Instrument as _, RingRecorder};
use pir::vm::Vm;
use pm_workload::{recover_and_verify, run_production, scenarios, AppSetup, RunConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mitigation_outcomes.txt")
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one mitigation from a fresh, deterministic production failure and
/// renders everything but the round count as one table cell.
fn mitigate_once(
    scn: &dyn pm_workload::Scenario,
    setup: &AppSetup,
    profile: &str,
    cfg: ReactorConfig,
    recorder: Option<Arc<RingRecorder>>,
    reads_everything: bool,
) -> (String, MitigationOutcome) {
    let run_cfg = RunConfig {
        recorder: recorder.clone().map(|r| r as _),
        ..RunConfig::default()
    };
    let mut prod = run_production(scn, setup, &run_cfg).expect("scenario reaches a hard failure");
    // When `reads_everything`, every restart reads every byte of its
    // reopened image. A step can then take an earlier verdict only when
    // its whole image equals the earlier one, so the loop runs as if it
    // skipped nothing.
    let probe = |vm: &mut Vm| {
        let verdict = recover_and_verify(scn, vm);
        if reads_everything {
            std::hint::black_box(vm.pool().snapshot().to_vec());
        }
        verdict
    };
    let restart = Restart {
        module: &setup.instrumented,
        vm: prod.vm,
        probe: &probe,
    };
    let mut reactor = Reactor::new(&setup.analysis, &setup.guid_map, cfg);
    if let Some(r) = recorder {
        reactor.instrument(r);
    }
    let out = reactor.mitigate(
        &mut prod.pool,
        &prod.log,
        &prod.failure,
        &prod.trace,
        &restart,
    );
    let reverted = fnv1a(out.reverted_seqs.iter().flat_map(|s| s.to_le_bytes()));
    let image = fnv1a(prod.pool.snapshot().to_vec());
    let row = format!(
        "{} {profile} recovered={} restart_only={} attempts={} plan_len={} \
         discarded_updates={} discarded_entries={} mode_fellback={} leaks_freed={} \
         reverted={reverted:016x} image={image:016x}",
        scn.id(),
        out.recovered,
        out.rung == Rung::RestartOnly,
        out.attempts,
        out.plan_len,
        out.discarded_updates,
        out.discarded_entries,
        out.mode_fellback,
        out.leaks_freed,
    );
    (row, out)
}

#[test]
fn every_scenario_reproduces_the_pinned_outcomes() {
    let mut table = String::new();
    for scn in scenarios::all() {
        let setup = AppSetup::new(scn.build_module());
        for (profile, cfg) in [
            ("default", ReactorConfig::default()),
            ("serving", ReactorConfig::serving()),
        ] {
            let (row, out) = mitigate_once(scn.as_ref(), &setup, profile, cfg, None, false);
            let (unskipped, _) = mitigate_once(scn.as_ref(), &setup, profile, cfg, None, true);
            assert_eq!(row, unskipped, "skipping changed the outcome");
            writeln!(table, "{row} rounds={}", out.reexec_rounds()).unwrap();
        }
    }
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &table).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p pm-workload \
             --test mitigation_outcomes",
            path.display()
        )
    });
    for (got, want) in table.lines().zip(want.lines()) {
        assert_eq!(got, want, "outcome differs from {}", path.display());
    }
    assert_eq!(table.lines().count(), want.lines().count());
}

/// What the recorder sees of f3's mitigation: its 89 attempts, the
/// pool's persists, and the revert work of its steps
/// (`reactor.revert_writes`, `reactor.heal_checks`).
#[test]
fn f3_reports_its_attempts_and_revert_work() {
    let scn = scenarios::by_id("f3").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let recorder = Arc::new(RingRecorder::new(4096));
    mitigate_once(
        scn.as_ref(),
        &setup,
        "default",
        ReactorConfig::default(),
        Some(recorder.clone()),
        false,
    );
    assert_eq!(recorder.dropped(), 0);
    let attempts = recorder
        .events()
        .iter()
        .filter(|e| e.kind == "reactor.attempt")
        .count();
    assert_eq!(attempts, 89);
    let counters = recorder.counters();
    // Production's 325 persists, then the revert loop's: each rollback
    // step rewrites only what changed since its predecessor's cut (4 243
    // reversion writes when every step rewrote all it touched).
    assert_eq!(counters["pool.persists"], 938);
    assert_eq!(counters["pool.bytes_persisted"], 37208);
    assert_eq!(counters["pool.pages_copied"], 4);
    let revert_work = (
        counters["reactor.revert_writes"],
        counters["reactor.heal_checks"],
    );
    assert_eq!(revert_work, (613, 780));
}
