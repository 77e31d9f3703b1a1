//! The live engine's recoveries pinned as data. `serve::Engine`
//! mitigates over its own checkpoint log — 512 retained versions, the
//! serving profile, steps that start over from the crashed image — and
//! every episode below must reproduce `golden/episodes.txt` byte for
//! byte: the engine's recovery counters, the reactor's attempt / heal /
//! failover timeline, and a hash of every key's `get` reply after
//! recovery. Regenerate only for a deliberate change of recovery
//! behaviour:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p serve --test episodes
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use obs::RingRecorder;
use serve::{Cmd, Engine, EngineConfig, Reply};

/// Keys preloaded, and the key space of the traffic.
const KEYS: u64 = 512;
/// Requests before the arm: with the preload, the arm lands [`WINDOW`]
/// requests before the engine's health probe (every 128th request).
const BEFORE_ARM: usize = 120;
/// Alternating set/get requests between the arm and that probe.
const WINDOW: u64 = 8;
/// Requests served after the window.
const AFTER: usize = 56;
/// The configurations: scenario and standby replicas.
const CONFIGS: [(&str, usize); 4] = [("f4", 0), ("f5", 0), ("f10", 0), ("f4", 1)];
const SEEDS: [u64; 2] = [1, 2];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/episodes.txt")
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: the traffic of one episode from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A set of `key` with a seeded fill byte and a length of 8–36.
    fn set(&mut self, key: u64) -> Cmd {
        let fill = 1 + self.below(250) as u8;
        let len = 8 + self.below(29) as usize;
        Cmd::Set {
            key: key.to_string().into_bytes(),
            value: vec![fill; len],
            noreply: false,
        }
    }

    /// A uniform 50/50 get/set request.
    fn request(&mut self) -> Cmd {
        let key = self.below(KEYS);
        if self.next() & 1 == 0 {
            get(key)
        } else {
            self.set(key)
        }
    }
}

fn get(key: u64) -> Cmd {
    Cmd::Get {
        keys: vec![key.to_string().into_bytes()],
    }
}

/// One episode, rendered as one line.
fn episode(scenario: &str, replicas: usize, seed: u64) -> String {
    let recorder = Arc::new(RingRecorder::new(1 << 16));
    let cfg = EngineConfig {
        scenario: scenario.into(),
        replicas,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(cfg, None, recorder.clone()).expect("engine builds");
    let mut rng = Rng(seed);
    for key in 0..KEYS {
        let set = rng.set(key);
        assert_eq!(e.exec(&set), Reply::Stored, "preload {key}");
    }
    for _ in 0..BEFORE_ARM {
        e.exec(&rng.request());
    }
    assert_eq!(e.exec(&Cmd::FaultArm), Reply::Ok);
    for j in 0..WINDOW {
        let key = rng.below(KEYS);
        let cmd = if (j + seed).is_multiple_of(2) {
            get(key)
        } else {
            rng.set(key)
        };
        e.exec(&cmd);
    }
    for _ in 0..AFTER {
        e.exec(&rng.request());
    }
    let mut gets = 0xcbf2_9ce4_8422_2325;
    for key in 0..KEYS {
        gets = fnv1a(gets, format!("{:?}", e.exec(&get(key))).as_bytes());
    }

    let s = e.stats();
    assert!(
        s.mitigations_recovered >= 1 && !s.armed,
        "{scenario}/r{replicas} seed {seed} did not recover: {s:?}"
    );
    assert_eq!(recorder.dropped(), 0, "the timeline is complete");
    let mut line = format!(
        "{scenario} replicas={replicas} seed={seed} faults={} restarts={} mitigations={} \
         recovered={} discarded={} total={} failovers={} armed={} gets={gets:016x}",
        s.faults,
        s.restarts,
        s.mitigations,
        s.mitigations_recovered,
        s.discarded_updates,
        s.total_updates,
        s.failovers,
        s.armed,
    );
    for ev in recorder.events() {
        let names: &[&str] = match ev.kind {
            "reactor.attempt" => &["attempt", "depth", "mode", "batch_seqs"],
            "reactor.heal" => &["seq", "addr"],
            "reactor.failover" => &["replica", "verified"],
            _ => continue,
        };
        let fields: Vec<String> = names
            .iter()
            .map(|name| {
                let (_, v) = ev
                    .fields
                    .iter()
                    .find(|(k, _)| k == name)
                    .unwrap_or_else(|| panic!("{} has no {name}", ev.kind));
                v.to_string()
            })
            .collect();
        write!(line, " {}={}", ev.kind, fields.join("/")).unwrap();
    }
    line
}

#[test]
fn live_engine_recoveries_reproduce_the_pinned_episodes() {
    // One thread per configuration: each episode owns its engine.
    let lines: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = CONFIGS
            .iter()
            .map(|&(scenario, replicas)| {
                s.spawn(move || {
                    SEEDS
                        .iter()
                        .map(|&seed| episode(scenario, replicas, seed))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut table = String::new();
    for line in lines.iter().flatten() {
        writeln!(table, "{line}").unwrap();
    }
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &table).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test -p serve \
             --test episodes",
            path.display()
        )
    });
    for (n, (got, want)) in table.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "episode {} differs from {}",
            n + 1,
            path.display()
        );
    }
    assert_eq!(table.lines().count(), want.lines().count(), "episode count");
}
