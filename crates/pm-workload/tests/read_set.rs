//! The read set a re-execution's capture reports is complete: no byte
//! outside it can change the re-execution's verdict. This is what lets the
//! reactor give a reversion step the verdict of an earlier failed restart
//! without restarting (DESIGN §4.5).
//!
//! For every stock scenario the re-execution under test is the first one
//! a mitigation meets: the restart of the crashed production image (the
//! restart that made the fault hard; f12's leak restarts cleanly). Random
//! bytes outside its captured reads — anywhere in the pool, and right
//! next to the bytes it read — are changed, and the restart must reach
//! the identical verdict: kind, exit code, fault instruction, stack and
//! detail. The control flips a byte inside the set: f4's corrupted
//! pointer, which must change the failure.

use std::sync::OnceLock;

use arthas::{FailureRecord, Reactor, ReactorConfig, SharedLog};
use pir::vm::{Vm, VmOpts};
use pm_workload::{recover_and_verify, run_production, scenarios, AppSetup, RunConfig, Scenario};
use pmemsim::{capture_reads, PmImage, PmPool, ReadSet};
use proptest::prelude::*;

/// One scenario's crashed image and what its restart read and reached.
struct Restart {
    id: &'static str,
    setup: AppSetup,
    /// The VM options production ran under.
    vm: VmOpts,
    image: PmImage,
    reads: ReadSet,
    verdict: Result<(), FailureRecord>,
}

/// Restarts `image` the way the reactor's re-executions do: the
/// scenario's recovery and verification over a disabled log, under
/// production's VM options (the step budget `mitigate` ships).
fn restart(
    scn: &dyn Scenario,
    setup: &AppSetup,
    vm: VmOpts,
    image: &PmImage,
) -> Result<(), FailureRecord> {
    let log = SharedLog::new();
    log.set_enabled(false);
    let restart = arthas::Restart {
        module: &setup.instrumented,
        vm,
        probe: &|vm: &mut Vm| recover_and_verify(scn, vm),
    };
    match PmPool::open(image.clone()) {
        Ok(pool) => restart.run(&pool, &log),
        Err(e) => Err(FailureRecord::wrong_result(format!("pool reopen: {e}"))),
    }
}

/// Every scenario's restart under test, prepared once per process.
fn restarts() -> &'static [Restart] {
    static RESTARTS: OnceLock<Vec<Restart>> = OnceLock::new();
    RESTARTS.get_or_init(prepare)
}

fn prepare() -> Vec<Restart> {
    scenarios::all()
        .into_iter()
        .map(|scn| {
            let setup = AppSetup::new(scn.build_module());
            let prod = run_production(scn.as_ref(), &setup, &RunConfig::default())
                .expect("scenario reaches a hard failure");
            let image = prod.pool.snapshot();
            let (verdict, reads) = capture_reads(|| restart(scn.as_ref(), &setup, prod.vm, &image));
            Restart {
                id: scn.id(),
                setup,
                vm: prod.vm,
                image,
                reads,
                verdict,
            }
        })
        .collect()
}

/// Every field of a verdict, as one comparable string.
fn render(verdict: &Result<(), FailureRecord>) -> String {
    match verdict {
        Ok(()) => "ok".to_string(),
        Err(f) => format!(
            "{:?} exit={} fault={:?} stack={:?} detail={}",
            f.kind, f.exit_code, f.fault, f.stack, f.detail
        ),
    }
}

/// `image` with `byte ^ xor` written at each offset `pick` names outside
/// `reads`: a random offset anywhere, or one within 64 bytes of a read
/// range when `near`. Returns the image and how many bytes changed.
fn mutate(image: &PmImage, reads: &ReadSet, picks: &[(u64, i64, u8, bool)]) -> (PmImage, usize) {
    let mut out = image.clone();
    let mut changed = 0;
    let ranges = reads.ranges();
    for &(pick, delta, xor, near) in picks {
        let at = if near && !ranges.is_empty() {
            let r = &ranges[pick as usize % ranges.len()];
            let edge = if delta < 0 { r.start } else { r.end - 1 };
            edge.checked_add_signed(delta)
        } else {
            Some(pick % image.len() as u64)
        };
        let Some(at) = at.filter(|&a| a < image.len() as u64 && !reads.contains(a)) else {
            continue;
        };
        let byte = out.read(at, 1).expect("in bounds")[0];
        out.write(at, &[byte ^ xor]).expect("in bounds");
        changed += 1;
    }
    (out, changed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bytes_outside_the_read_set_never_change_the_verdict(
        picks in proptest::collection::vec(
            (0u64..u64::MAX, -64i64..65, 1u8..=255, proptest::arbitrary::any::<bool>()),
            1..48,
        )
    ) {
        for r in restarts() {
            let scn = scenarios::by_id(r.id).expect("stock scenario");
            let (image, changed) = mutate(&r.image, &r.reads, &picks);
            let verdict = restart(scn.as_ref(), &r.setup, r.vm, &image);
            prop_assert_eq!(
                render(&verdict),
                render(&r.verdict),
                "{}: {} bytes changed outside the read set",
                r.id,
                changed
            );
        }
    }
}

#[test]
fn every_restart_under_test_reads_a_little_and_all_but_the_leak_fails() {
    assert_eq!(restarts().len(), 12);
    for r in restarts() {
        assert_eq!(
            r.verdict.is_ok(),
            r.id == "f12",
            "{}: {}",
            r.id,
            render(&r.verdict)
        );
        let bytes = r.reads.bytes();
        assert!(
            bytes > 0 && bytes < r.image.len() as u64 / 8,
            "{}: {bytes}",
            r.id
        );
    }
}

/// The control: the update the reactor reverts to recover f4 is the
/// append whose 0x41 bytes overran the item's chain pointer. The restart
/// reads that pointer, and changing one of its bytes changes the failure.
#[test]
fn flipping_f4s_corrupted_pointer_changes_the_failure() {
    let r = restarts().iter().find(|r| r.id == "f4").expect("f4");
    let scn = scenarios::by_id("f4").unwrap();
    let mut prod = run_production(scn.as_ref(), &r.setup, &RunConfig::default()).unwrap();
    let reexec = arthas::Restart {
        module: &r.setup.instrumented,
        vm: prod.vm,
        probe: &|vm: &mut Vm| recover_and_verify(scn.as_ref(), vm),
    };
    let mut reactor = Reactor::new(
        &r.setup.analysis,
        &r.setup.guid_map,
        ReactorConfig::default(),
    );
    let out = reactor.mitigate(
        &mut prod.pool,
        &prod.log,
        &prod.failure,
        &prod.trace,
        &reexec,
    );
    assert!(out.recovered && out.reverted_seqs.len() == 1, "{out:?}");
    let seq = *out.reverted_seqs.first().unwrap();
    let view = prod.log.view();
    let addr = view.addr_of_seq(seq).expect("a logged address");
    let len = view
        .entry(addr)
        .unwrap()
        .versions
        .back()
        .unwrap()
        .data
        .len() as u64;
    let pointer = (addr..addr + len)
        .step_by(8)
        .find(|&a| r.reads.contains(a) && r.image.read(a, 8).unwrap() == [0x41; 8])
        .expect("the restart reads the overrun chain pointer");

    let mut image = r.image.clone();
    image.write(pointer, &[0x40]).unwrap();
    let verdict = restart(scn.as_ref(), &r.setup, r.vm, &image);
    assert_ne!(render(&verdict), render(&r.verdict));
}
