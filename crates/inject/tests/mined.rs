//! The mined oracle pinned as data, and the premise that lets mining skip
//! replays: a run that never reads its seed is the same run under every
//! seed, so the miner replays such a scenario once.
//!
//! `golden/mined.txt` holds one line per (scenario, seed) for the
//! twelve stock scenarios plus the fx1 fixture: the promotion accounting
//! (`seeds`, `discarded`), the promoted set, and a hash of the first
//! passing run the miner learns from. A change to mining must reproduce it
//! byte for byte; regenerate only for a deliberate change of what is
//! mined:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p inject --test mined
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use common::{replay, Run};
use inject::invariants;
use pm_workload::{scenarios, AppSetup, Scenario};

mod common;

/// Campaign seeds the golden is taken at.
const SEEDS: [u64; 2] = [1, 2];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mined.txt")
}

/// The stock scenarios plus the seeded-bug fixture.
fn mined_scenarios() -> Vec<Box<dyn Scenario>> {
    let mut all = scenarios::all();
    all.push(scenarios::by_id("fx1").expect("fixture scenario registered"));
    all
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything mining reads of a run, as bytes: the pool image, every
/// checkpoint-log update, and each instrumented GUID's trace offsets.
fn run_bytes(setup: &AppSetup, run: &Run) -> Vec<u8> {
    let mut out = run.pool.snapshot().to_vec();
    for (seq, addr, data) in run.log.view().updates_since(0) {
        out.extend(seq.to_le_bytes());
        out.extend(addr.to_le_bytes());
        out.extend((data.len() as u64).to_le_bytes());
        out.extend(data);
    }
    for meta in setup.guid_map.iter() {
        let offsets = run.trace.offsets(meta.guid);
        out.extend(meta.guid.to_le_bytes());
        out.extend((offsets.len() as u64).to_le_bytes());
        for off in offsets {
            out.extend(off.to_le_bytes());
        }
    }
    out
}

#[test]
fn mined_oracle_matches_golden() {
    let mut table = String::new();
    for scn in mined_scenarios() {
        let setup = AppSetup::new(scn.build_module());
        for seed in SEEDS {
            let first = replay(scn.as_ref(), &setup, seed);
            let run = fnv1a(0xcbf2_9ce4_8422_2325, &run_bytes(&setup, &first));
            let mined = invariants::mine(scn.as_ref(), &setup, seed, None);
            let promoted: Vec<String> = mined.promoted.iter().map(|i| i.describe()).collect();
            writeln!(
                table,
                "{} seed={seed} seeds={} discarded={} run={run:016x} promoted=[{}]",
                scn.id(),
                mined.seeds,
                mined.discarded,
                promoted.join(", ")
            )
            .unwrap();
        }
    }
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &table).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p inject \
             --test mined",
            path.display()
        )
    });
    for (got, want) in table.lines().zip(want.lines()) {
        assert_eq!(got, want, "mining differs from {}", path.display());
    }
    assert_eq!(table.lines().count(), want.lines().count());
}

/// What a run observes agrees with what the scenario declares: a stock
/// scenario reads its seed exactly when Table 2 calls it randomized, so
/// the metadata `reproduce` renders cannot drift from behaviour. The
/// fixture, not randomized, reads its seed for its payloads.
#[test]
fn a_stock_run_reads_its_seed_exactly_when_randomized() {
    let reads = |scn: &dyn Scenario| replay(scn, &AppSetup::new(scn.build_module()), 1).seed_read;
    for scn in scenarios::all() {
        assert_eq!(reads(scn.as_ref()), scn.randomized(), "{}", scn.id());
    }
    let fx1 = scenarios::by_id("fx1").unwrap();
    assert!(!fx1.randomized() && reads(fx1.as_ref()));
}

/// The premise of mining a seed-free scenario once: two replays of a
/// scenario that never read its seed, under seeds 1 and 2, agree byte for
/// byte in everything mining reads.
#[test]
fn a_run_that_never_reads_its_seed_is_the_same_under_every_seed() {
    let mut seed_free = 0;
    for scn in mined_scenarios() {
        let setup = AppSetup::new(scn.build_module());
        let one = replay(scn.as_ref(), &setup, 1);
        if one.seed_read {
            continue;
        }
        let two = replay(scn.as_ref(), &setup, 2);
        let id = scn.id();
        assert!(!two.seed_read, "{id}");
        assert!(
            one.pool.snapshot() == two.pool.snapshot(),
            "{id}: pool image"
        );
        assert!(
            one.log.view().updates_since(0) == two.log.view().updates_since(0),
            "{id}: log updates"
        );
        assert!(
            run_bytes(&setup, &one) == run_bytes(&setup, &two),
            "{id}: trace"
        );
        seed_free += 1;
    }
    assert_eq!(
        seed_free, 10,
        "ten of the twelve stock scenarios are seed-free"
    );
}
