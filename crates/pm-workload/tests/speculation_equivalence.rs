//! The reactor's verdicts pinned as data: every stock scenario of
//! Table 2, under the offline default and the serving profile, must
//! reproduce `golden/mitigation_outcomes.txt` at every wave width —
//! same recovery verdict, attempt count, reverted sequence numbers,
//! discarded-data accounting and final pool image. Only the number of
//! re-execution rounds (overlapped restart delays) may shrink as the
//! wave widens. The same holds against a target whose restarts read
//! every byte of their pool, for which the reactor skips a restart only
//! on an identical image: skipping moves rounds and nothing else.
//! The table was generated from the sequential revert loop before it was
//! folded into the wave loop; regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pm-workload --test speculation_equivalence
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use arthas::{MitigationOutcome, Reactor, ReactorConfig, Restart, Rung};
use obs::{Instrument as _, RingRecorder};
use pir::vm::Vm;
use pm_workload::{recover_and_verify, run_production, scenarios, AppSetup, RunConfig};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Wave widths also run against a probe that reads everything.
const UNSKIPPED_WIDTHS: [usize; 2] = [1, 4];

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
fn every_wave_width_reproduces_the_pinned_outcomes() {
    let mut table = String::new();
    for scn in scenarios::all() {
        let setup = AppSetup::new(scn.build_module());
        for (profile, base) in [
            ("default", ReactorConfig::default()),
            ("serving", ReactorConfig::serving()),
        ] {
            let mut pinned: Option<(String, MitigationOutcome)> = None;
            for k in WIDTHS {
                let cfg = base.to_builder().speculation(Some(k)).build().unwrap();
                let (row, out) = mitigate_once(scn.as_ref(), &setup, profile, cfg, None, false);
                if UNSKIPPED_WIDTHS.contains(&k) {
                    let (unskipped, _) =
                        mitigate_once(scn.as_ref(), &setup, profile, cfg, None, true);
                    assert_eq!(row, unskipped, "k={k}: skipping changed the outcome");
                }
                let Some((one_row, one)) = &pinned else {
                    // A wave of one pays one restart delay per executed
                    // attempt.
                    assert_eq!(out.reexec_rounds + out.skipped, out.attempts, "{row}");
                    writeln!(table, "{row} rounds={}", out.reexec_rounds).unwrap();
                    pinned = Some((row, out));
                    continue;
                };
                assert_eq!(&row, one_row, "k={k} differs from k=1");
                assert!(out.reexec_rounds <= out.attempts, "k={k}: {row}");
                if k == 4 && one.attempts >= 4 && !one.mode_fellback {
                    // With 4 workers and no result-dependent mode flip, a
                    // multi-attempt mitigation must overlap restarts.
                    assert!(
                        out.reexec_rounds < one.attempts,
                        "expected overlapped rounds, got {} for {row}",
                        out.reexec_rounds,
                    );
                }
            }
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
             --test speculation_equivalence",
            path.display()
        )
    });
    for (got, want) in table.lines().zip(want.lines()) {
        assert_eq!(got, want, "outcome differs from {}", path.display());
    }
    assert_eq!(table.lines().count(), want.lines().count());
}

/// What the recorder sees must not depend on where the work was done:
/// f3's 89 attempts are reported at every width, reversion writes made
/// on a fork are counted like those made on the live pool, and the
/// committed steps' revert work (`reactor.revert_writes`,
/// `reactor.heal_checks`) is the same at widths 1, 2 and 4.
#[test]
fn a_wider_wave_reports_the_same_attempts_and_counts_its_forks_writes() {
    let scn = scenarios::by_id("f3").unwrap();
    let setup = AppSetup::new(scn.build_module());
    let observe = |k: usize| {
        let recorder = Arc::new(RingRecorder::new(4096));
        let cfg = ReactorConfig::builder()
            .speculation(Some(k))
            .build()
            .unwrap();
        mitigate_once(
            scn.as_ref(),
            &setup,
            "default",
            cfg,
            Some(recorder.clone()),
            false,
        );
        assert_eq!(recorder.dropped(), 0);
        // Which attempts were skipped depends on the width; the rest of
        // each event does not.
        let attempts: Vec<String> = recorder
            .events()
            .iter()
            .filter(|e| e.kind == "reactor.attempt")
            .map(|e| {
                format!(
                    "{:?}",
                    e.fields
                        .iter()
                        .filter(|f| f.0 != "skipped")
                        .collect::<Vec<_>>()
                )
            })
            .collect();
        (attempts, recorder.counters())
    };
    let (one, one_counters) = observe(1);
    assert_eq!(one.len(), 89);
    // Production's 325 persists, then the revert loop's: each rollback
    // step rewrites only what changed since its predecessor's cut (4 243
    // reversion writes when every step rewrote all it touched).
    assert_eq!(one_counters["pool.persists"], 938);
    assert_eq!(one_counters["pool.bytes_persisted"], 37208);
    assert_eq!(one_counters["pool.pages_copied"], 4);
    let revert_work =
        |c: &BTreeMap<&str, u64>| (c["reactor.revert_writes"], c["reactor.heal_checks"]);
    assert_eq!(revert_work(&one_counters), (613, 780));

    let (two, two_counters) = observe(2);
    assert_eq!(two, one, "reactor.attempt sequence at k=2");
    assert_eq!(revert_work(&two_counters), (613, 780), "k=2");
    let (wide, wide_counters) = observe(4);
    assert_eq!(wide, one, "reactor.attempt sequence at k=4");
    assert_eq!(revert_work(&wide_counters), (613, 780), "k=4");
    assert!(wide_counters["pool.persists"] >= one_counters["pool.persists"]);
    assert!(wide_counters["pool.bytes_persisted"] >= one_counters["pool.bytes_persisted"]);
}
