//! What an analysis keeps for recovery — the PDG's forward index and
//! each fault's slice PM writes — is computed once and equals a fresh
//! computation: on the five applications, for a computed analysis and
//! for one loaded back from its cache file, and when four threads ask
//! for one fault at once.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use pir::ir::{FuncId, InstRef, Module};
use pir_analysis::{backward_slice, Adjacency, ModuleAnalysis, MAX_SLICE_NODES};

fn apps() -> Vec<(&'static str, Module)> {
    vec![
        ("kvcache", pm_apps::kvcache::build()),
        ("listdb", pm_apps::listdb::build()),
        ("cceh", pm_apps::cceh::build()),
        ("segcache", pm_apps::segcache::build()),
        ("pmkv", pm_apps::pmkv::build()),
    ]
}

/// The app's analysis as computed, and as loaded from its cache file.
fn analyses(module: &Module) -> [(&'static str, ModuleAnalysis); 2] {
    let computed = ModuleAnalysis::compute(module);
    let fp = module.fingerprint();
    let loaded = ModuleAnalysis::from_cache_file(&computed.to_cache_file(fp), fp)
        .expect("a freshly written cache file loads");
    [("computed", computed), ("loaded", loaded)]
}

/// Every instruction of `module`.
fn insts(module: &Module) -> Vec<InstRef> {
    module
        .funcs
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            (0..f.insts.len()).map(move |ii| InstRef {
                func: FuncId(fi as u32),
                inst: ii as u32,
            })
        })
        .collect()
}

/// About 48 instructions spread over the module: the faults sliced.
fn faults(module: &Module) -> Vec<InstRef> {
    let all = insts(module);
    let step = (all.len() / 48).max(1);
    all.into_iter().step_by(step).collect()
}

/// An adjacency as sorted lists, so two builds compare whatever order
/// their hash maps iterate in.
type Sorted = BTreeMap<InstRef, Vec<(InstRef, u8)>>;

fn sorted(adj: &Adjacency) -> Sorted {
    adj.iter()
        .map(|(at, edges)| {
            let mut edges: Vec<_> = edges.iter().map(|&(to, k)| (to, k as u8)).collect();
            edges.sort();
            (*at, edges)
        })
        .collect()
}

/// The forward adjacency inverted from `deps_of` over every instruction.
fn fresh_forward(a: &ModuleAnalysis, module: &Module) -> Sorted {
    let mut fwd = Sorted::new();
    for from in insts(module) {
        for &(to, kind) in a.pdg.deps_of(from) {
            fwd.entry(to).or_default().push((from, kind as u8));
        }
    }
    fwd.values_mut().for_each(|edges| edges.sort());
    fwd
}

fn fresh_pm_writes(a: &ModuleAnalysis, fault: InstRef) -> Vec<InstRef> {
    backward_slice(&a.pdg, fault, MAX_SLICE_NODES)
        .insts
        .into_iter()
        .filter(|at| a.pm.pm_writes.contains(at))
        .collect()
}

#[test]
fn the_kept_forward_index_equals_a_fresh_inversion() {
    for (app, module) in apps() {
        let fresh = fresh_forward(&ModuleAnalysis::compute(&module), &module);
        assert!(!fresh.is_empty(), "{app}: an empty PDG");
        for (how, a) in analyses(&module) {
            let kept = a.pdg.forward_index();
            assert_eq!(sorted(kept), fresh, "{app} ({how})");
            assert!(
                std::ptr::eq(kept, a.pdg.forward_index()),
                "{app} ({how}): a second call built the index again"
            );
        }
    }
}

#[test]
fn the_kept_slice_pm_writes_equal_a_fresh_slice() {
    for (app, module) in apps() {
        let faults = faults(&module);
        for (how, a) in analyses(&module) {
            let mut nonempty = 0;
            for &fault in &faults {
                let fresh = fresh_pm_writes(&a, fault);
                let (first, computed) = a.slice_pm_writes(fault);
                assert!(computed, "{app} ({how}) {fault:?}: the first call computes");
                assert_eq!(&*first, fresh.as_slice(), "{app} ({how}) {fault:?}");
                let (again, computed) = a.slice_pm_writes(fault);
                assert!(!computed, "{app} ({how}) {fault:?}: sliced twice");
                assert!(Arc::ptr_eq(&first, &again), "{app} ({how}) {fault:?}");
                nonempty += usize::from(!fresh.is_empty());
            }
            assert!(
                nonempty > 0,
                "{app} ({how}): no sampled slice reaches a PM write"
            );
        }
    }
}

#[test]
fn four_threads_asking_for_one_fault_compute_it_once() {
    let module = pm_apps::kvcache::build();
    let a = ModuleAnalysis::compute(&module);
    for fault in faults(&module) {
        let barrier = Barrier::new(4);
        let answers: Vec<(Arc<[InstRef]>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        a.slice_pm_writes(fault)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let computes = answers.iter().filter(|(_, computed)| *computed).count();
        assert_eq!(computes, 1, "{fault:?}: computed {computes} times");
        assert!(answers.iter().all(|(w, _)| Arc::ptr_eq(w, &answers[0].0)));
    }
}
