//! The plan's divergence rule, against its definition.
//!
//! A candidate has *diverged* when the image's bytes over its newest
//! version differ from its `expected_current`: that version overlaid with
//! every newer overlapping entry's newest version. The plan does not ask
//! `expected_current` of every candidate. It compares each byte once with
//! the version that owns it (the newest one covering it), and calls an
//! entry diverged when its range meets a byte that differs. These tests
//! build checkpoint logs and images by hand and check the plan's `seqs`
//! and diverged set against one `expected_current` per candidate.
//!
//! Each hand-built case also shows a plausible shortcut getting it wrong,
//! so a plan that took the shortcut fails that case:
//!
//! * `same_alone`: compare an entry's whole range with its own newest
//!   version, ignoring overlays (wrong both ways: an overlaid entry that
//!   matches, and one whose overlay never reached the image);
//! * `skip_overlaid`: take an entry with a newer overlapping entry as
//!   matching;
//! * `own_bytes_only`: compare only the bytes the entry owns, ignoring a
//!   newer neighbour's differing bytes inside its range;
//! * `largest_size`: give an entry its largest retained size, with each
//!   byte from the newest of its versions that wrote it;
//! * `retired_owns`: let a reallocated address's previous incarnation
//!   still own its bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use arthas::{analyze_and_instrument, AnalyzerOutput, FailureRecord, Plan, PmTrace, Reactor};
use arthas::{ReactorConfig, SharedLog};
use pir::builder::ModuleBuilder;
use pir::ir::{InstRef, Module};
use pir::vm::{Vm, VmOpts};
use pmemsim::{PmPool, PmSink};
use proptest::prelude::*;

/// Root: flag @8, value @16. `put(666)` corrupts the persistent flag and
/// `get()` crashes while it is set: a fault whose slice holds PM writes.
fn build_app() -> Module {
    let mut m = ModuleBuilder::new();
    {
        let mut f = m.func("put", 1, false);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let v = f.param(0);
        let valp = f.gep(root, 16);
        f.store8(valp, v);
        let bad = f.konst(666);
        let is_bad = f.eq(v, bad);
        f.if_(is_bad, |f| {
            let flagp = f.gep(root, 8);
            f.store8(flagp, v);
            f.pm_persist_c(flagp, 8);
        });
        f.pm_persist_c(valp, 8);
        f.ret(None);
        f.finish();
    }
    {
        let mut f = m.func("get", 0, true);
        let size = f.konst(64);
        let root = f.pm_root(size);
        let flagp = f.gep(root, 8);
        let flag = f.load8(flagp);
        let zero = f.konst(0);
        let tainted = f.ne(flag, zero);
        f.if_(tainted, |f| {
            let c = f.konst(666);
            let p = f.sub(flag, c);
            let v = f.load8(p);
            f.ret(Some(v));
        });
        let valp = f.gep(root, 16);
        let v = f.load8(valp);
        f.ret(Some(v));
        f.finish();
    }
    m.finish().unwrap()
}

/// The toy app's analysis and the fault its poison put leads to.
struct Fixture {
    out: AnalyzerOutput,
    fault: InstRef,
}

impl Fixture {
    fn new() -> Self {
        let out = analyze_and_instrument(&build_app());
        let mut vm = Vm::new(
            Arc::new(out.instrumented.clone()),
            pool(),
            VmOpts::default(),
        );
        vm.call("put", &[666]).unwrap();
        let err = vm.call("get", &[]).unwrap_err();
        let fault = FailureRecord::from_vm(&err)
            .fault
            .expect("a crash has a fault");
        Fixture { out, fault }
    }

    /// The plan over `log` and `image`, with a trace in which every
    /// instrumented instruction touched every logged address, so every
    /// entry with a version is a candidate.
    fn plan(&self, log: &SharedLog, image: &mut PmPool) -> Plan {
        let addrs: BTreeSet<u64> = log.view().iter_merged().iter().map(|u| u.1).collect();
        let mut trace = PmTrace::new();
        trace.absorb(
            self.out
                .guid_map
                .iter()
                .flat_map(|m| addrs.iter().map(move |&a| (m.guid, pir::mem::pm_addr(a)))),
        );
        let mut reactor = Reactor::new(
            &self.out.analysis,
            &self.out.guid_map,
            ReactorConfig::default(),
        );
        let plan = reactor.plan(self.fault, &trace, &log.view(), image);
        assert_eq!(
            plan.seqs.len(),
            addrs.len(),
            "every live entry is a candidate"
        );
        plan
    }
}

/// Where the hand-built entries live: the pool's heap, away from its
/// root.
const BASE: u64 = pmemsim::layout::HEAP_OFF + 4096;

fn pool() -> PmPool {
    PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 16)).unwrap()
}

/// An image holding `bytes` at `BASE` (durably; no log sees the writes).
fn image(bytes: &[u8]) -> PmPool {
    let mut p = pool();
    p.write(BASE, bytes).unwrap();
    p.persist(BASE, bytes.len() as u64).unwrap();
    p
}

/// The plan by definition: each candidate's newest seq, diverged when
/// the image differs from its `expected_current`; the diverged first,
/// each part most recent first. Returns the seqs and the diverged set.
fn reference(log: &SharedLog, image: &mut PmPool) -> (Vec<u64>, BTreeSet<u64>) {
    let view = log.view();
    let newest: BTreeMap<u64, u64> = view.iter_merged().iter().map(|u| (u.1, u.0)).collect();
    let mut by_seq: Vec<(u64, bool)> = newest
        .iter()
        .map(|(&addr, &seq)| {
            let expected = view.expected_current(addr).unwrap();
            let cur = image.read(addr, expected.len() as u64).unwrap();
            (seq, cur != expected)
        })
        .collect();
    by_seq.sort_unstable_by_key(|&(seq, diverged)| (!diverged, std::cmp::Reverse(seq)));
    let diverged = by_seq.iter().filter(|e| e.1).map(|e| e.0).collect();
    (by_seq.into_iter().map(|e| e.0).collect(), diverged)
}

/// Requires the plan to be the reference and returns its diverged set.
fn check(fx: &Fixture, log: &SharedLog, image: &mut PmPool) -> BTreeSet<u64> {
    let plan = fx.plan(log, image);
    let (seqs, diverged) = reference(log, image);
    assert_eq!(plan.seqs, seqs);
    let got: BTreeSet<u64> = plan.seqs[..plan.diverged].iter().copied().collect();
    assert_eq!(got, diverged);
    got
}

/// A version as a shortcut reads it: `(seq, addr, data)`.
type Version = (u64, u64, Vec<u8>);

/// A log's retained versions per address, oldest first, as a shortcut
/// would read them: `(seq, data)`.
struct Versions(BTreeMap<u64, Vec<(u64, Vec<u8>)>>);

impl Versions {
    fn of(log: &SharedLog) -> Self {
        let mut by_addr: BTreeMap<u64, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        for (seq, addr, data) in log.view().iter_merged() {
            by_addr.entry(addr).or_default().push((seq, data.to_vec()));
        }
        Versions(by_addr)
    }

    /// Each address's newest version.
    fn newest(&self) -> Vec<Version> {
        let last = |(&a, v): (&u64, &Vec<(u64, Vec<u8>)>)| {
            let (s, d) = v.last().unwrap();
            (*s, a, d.clone())
        };
        self.0.iter().map(last).collect()
    }
}

/// The newest of `owners` covering byte `p`, and its byte there.
fn owner(owners: &[Version], p: u64) -> Option<(u64, u8)> {
    owners
        .iter()
        .filter(|(_, a, d)| *a <= p && p < a + d.len() as u64)
        .max_by_key(|o| o.0)
        .map(|(s, a, d)| (*s, d[(p - a) as usize]))
}

fn byte(image: &PmPool, p: u64) -> u8 {
    let mut b = [0];
    image.peek_into(p, &mut b).unwrap();
    b[0]
}

/// The seqs of `entries` whose range holds a byte the image does not
/// hold as `owners` say; with `only_own`, a byte another entry owns does
/// not count.
fn differ(
    entries: &[Version],
    owners: &[Version],
    image: &PmPool,
    only_own: bool,
) -> BTreeSet<u64> {
    let differs = |&(seq, a, ref d): &Version| {
        (a..a + d.len() as u64).any(|p| match owner(owners, p) {
            Some((s, b)) => (!only_own || s == seq) && byte(image, p) != b,
            None => false,
        })
    };
    entries.iter().filter(|e| differs(e)).map(|e| e.0).collect()
}

fn same_alone(v: &Versions, image: &PmPool) -> BTreeSet<u64> {
    let differs = |a: u64, d: &[u8]| (0..d.len()).any(|i| byte(image, a + i as u64) != d[i]);
    v.newest()
        .into_iter()
        .filter(|(_, a, d)| differs(*a, d))
        .map(|e| e.0)
        .collect()
}

fn skip_overlaid(v: &Versions, image: &PmPool) -> BTreeSet<u64> {
    let newest = v.newest();
    let overlaid = |(s, a, d): &Version| {
        newest
            .iter()
            .any(|(s2, a2, d2)| s2 > s && *a2 < a + d.len() as u64 && *a < a2 + d2.len() as u64)
    };
    let kept: BTreeSet<u64> = newest
        .iter()
        .filter(|e| !overlaid(e))
        .map(|e| e.0)
        .collect();
    &same_alone(v, image) & &kept
}

fn own_bytes_only(v: &Versions, image: &PmPool) -> BTreeSet<u64> {
    differ(&v.newest(), &v.newest(), image, true)
}

/// Each entry over its largest retained size: a byte comes from the
/// newest of its versions that wrote it, and counts at the entry's
/// newest seq.
fn largest_size(v: &Versions, image: &PmPool) -> BTreeSet<u64> {
    let mut owners = Vec::new();
    for (&a, versions) in &v.0 {
        let size = versions.iter().map(|(_, d)| d.len()).max().unwrap();
        let bytes: Vec<u8> = (0..size)
            .map(|i| versions.iter().rev().find(|(_, d)| i < d.len()).unwrap().1[i])
            .collect();
        owners.push((versions.last().unwrap().0, a, bytes));
    }
    differ(&owners, &owners, image, false)
}

/// The exact rule with `retired`, a reallocated address's previous
/// incarnation, still owning its bytes.
fn retired_owns(v: &Versions, image: &PmPool, retired: Version) -> BTreeSet<u64> {
    let mut owners = v.newest();
    owners.push(retired);
    differ(&v.newest(), &owners, image, false)
}

/// `n` bytes of `b`.
fn fill(b: u8, n: usize) -> Vec<u8> {
    vec![b; n]
}

/// Y at `BASE` (16 bytes of 0x11, seq 1), then X at `BASE + 4` (4 bytes
/// of 0x22, seq 2), and the image they leave: X's bytes over Y's.
fn overlay() -> (SharedLog, Vec<u8>) {
    let log = SharedLog::new();
    log.on_persist(BASE, &fill(0x11, 16));
    log.on_persist(BASE + 4, &fill(0x22, 4));
    let mut bytes = fill(0x11, 16);
    bytes[4..8].copy_from_slice(&fill(0x22, 4));
    (log, bytes)
}

/// A newer entry overlays an older one with other bytes: the older
/// entry's whole-range compare fails, yet neither diverged.
#[test]
fn an_overlaid_entry_matches_under_its_overlay() {
    let fx = Fixture::new();
    let (log, bytes) = overlay();
    let mut img = image(&bytes);
    assert!(check(&fx, &log, &mut img).is_empty());
    assert_eq!(same_alone(&Versions::of(&log), &img), BTreeSet::from([1]));
}

/// A flipped byte only the older, overlaid entry owns: it diverged, the
/// newer one did not.
#[test]
fn a_flip_the_overlaid_entry_owns_diverges_it_alone() {
    let fx = Fixture::new();
    let (log, mut bytes) = overlay();
    bytes[12] ^= 0x80;
    let mut img = image(&bytes);
    assert_eq!(check(&fx, &log, &mut img), BTreeSet::from([1]));
    assert!(skip_overlaid(&Versions::of(&log), &img).is_empty());
}

/// A newer entry's write never reached the image: the bytes under it
/// still hold the older entry's. Both diverged, the older one although
/// the image holds its own newest version.
#[test]
fn a_lost_overlay_diverges_the_entry_under_it() {
    let fx = Fixture::new();
    let (log, _) = overlay();
    let mut img = image(&fill(0x11, 16));
    assert_eq!(check(&fx, &log, &mut img), BTreeSet::from([1, 2]));
    assert_eq!(same_alone(&Versions::of(&log), &img), BTreeSet::from([2]));
}

/// A flipped byte under the newer entry: both entries cover it, and the
/// log says it holds X's byte, so both diverged.
#[test]
fn a_flip_under_the_overlay_diverges_both() {
    let fx = Fixture::new();
    let (log, mut bytes) = overlay();
    bytes[5] ^= 0x01;
    let mut img = image(&bytes);
    assert_eq!(check(&fx, &log, &mut img), BTreeSet::from([1, 2]));
    assert_eq!(
        own_bytes_only(&Versions::of(&log), &img),
        BTreeSet::from([2])
    );
}

/// A's newest version (8 bytes) is shorter than its first (16): the
/// bytes past it belong to C, an older entry at `BASE + 8`, again. An
/// image holding C's bytes there matches the log, though A's first
/// version wrote others; one holding A's first version there, as the
/// writes left it, diverged C.
#[test]
fn a_shorter_newest_version_gives_up_its_tail() {
    let fx = Fixture::new();
    let log = SharedLog::new();
    log.on_persist(BASE + 8, &fill(0x44, 8)); // C, seq 1
    log.on_persist(BASE, &fill(0x11, 16)); // A, seq 2
    log.on_persist(BASE, &fill(0x33, 8)); // A, seq 3
    let v = Versions::of(&log);
    for (tail, diverged) in [(0x44, BTreeSet::new()), (0x11, BTreeSet::from([1]))] {
        let mut bytes = fill(0x33, 8);
        bytes.extend(fill(tail, 8));
        let mut img = image(&bytes);
        assert_eq!(check(&fx, &log, &mut img), diverged);
        assert_ne!(largest_size(&v, &img), diverged);
    }
}

/// X at `BASE + 4` is freed and its address handed out again: its
/// versions move to the retired arena (`old_entry`), and until the new
/// incarnation persists, Y owns those bytes again. The image still holds
/// X's old bytes there, so Y diverged.
#[test]
fn a_reallocated_address_owns_nothing_until_it_persists() {
    let fx = Fixture::new();
    let log = SharedLog::new();
    log.on_alloc(BASE, 16);
    log.on_alloc(BASE + 4, 4);
    log.on_persist(BASE, &fill(0x11, 16)); // Y, seq 1
    log.on_persist(BASE + 4, &fill(0x22, 4)); // X, seq 2
    log.on_free(BASE + 4);
    log.on_alloc(BASE + 4, 4);
    assert!(log.view().entry(BASE + 4).unwrap().old_entry.is_some());
    let (_, bytes) = overlay();
    let mut img = image(&bytes);
    assert_eq!(check(&fx, &log, &mut img), BTreeSet::from([1]));
    let retired = (2, BASE + 4, fill(0x22, 4));
    assert!(retired_owns(&Versions::of(&log), &img, retired).is_empty());
}

/// One logged update: an address in a 48-byte window, its size, and
/// whether the address is freed and reallocated before it.
fn update() -> impl Strategy<Value = (u64, usize, bool)> {
    (0..40u64, 1..16usize, (0..10u8).prop_map(|n| n == 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random overlapping layouts: updates of random sizes at random
    /// addresses (sometimes reallocated first), the image they leave,
    /// and a few flipped bytes. The plan is always the reference.
    #[test]
    fn random_layouts_plan_as_expected_current_says(
        updates in proptest::collection::vec(update(), 1..24),
        flips in proptest::collection::vec((0..56usize, 1..=255u8), 0..4),
    ) {
        let fx = Fixture::new();
        let log = SharedLog::new();
        let mut bytes = fill(0, 56);
        for (n, &(at, size, realloc)) in updates.iter().enumerate() {
            if realloc {
                log.on_alloc(BASE + at, size as u64);
                log.on_free(BASE + at);
                log.on_alloc(BASE + at, size as u64);
            }
            let data: Vec<u8> = (0..size).map(|i| (n * 16 + i) as u8 | 1).collect();
            log.on_persist(BASE + at, &data);
            bytes[at as usize..at as usize + size].copy_from_slice(&data);
        }
        for (at, mask) in flips {
            bytes[at] ^= mask;
        }
        let mut img = image(&bytes);
        let plan = fx.plan(&log, &mut img);
        let (seqs, diverged) = reference(&log, &mut img);
        prop_assert_eq!(&plan.seqs, &seqs);
        let got: BTreeSet<u64> = plan.seqs[..plan.diverged].iter().copied().collect();
        prop_assert_eq!(got, diverged);
    }
}
