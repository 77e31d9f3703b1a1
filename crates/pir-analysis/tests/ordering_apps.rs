//! The ordering-inference pass over the real applications.
//!
//! The unit tests in `src/ordering.rs` pin the pass's semantics on
//! hand-built IR; these tests pin its behaviour on the actual `pm-apps`
//! modules the campaigns analyze — the candidate surface the dynamic
//! oracle mines from — and the contract the warm-restart CI job relies
//! on: a cache round-trip reproduces the inferred ordering section
//! byte-for-byte.

use pir::ir::Module;
use pir_analysis::{DepKind, ModuleAnalysis};

fn apps() -> Vec<(&'static str, Module)> {
    vec![
        ("kvcache", pm_apps::kvcache::build()),
        ("listdb", pm_apps::listdb::build()),
        ("cceh", pm_apps::cceh::build()),
        ("segcache", pm_apps::segcache::build()),
        ("pmkv", pm_apps::pmkv::build()),
        ("fixture", pm_apps::fixture::build()),
    ]
}

/// Every application exposes a non-empty candidate surface (each one
/// publishes dependent PM state somewhere), and the pair list arrives in
/// the canonical `(first, second, kind)` order the cache layout assumes.
#[test]
fn every_app_yields_canonically_sorted_candidates() {
    for (name, module) in apps() {
        let a = ModuleAnalysis::compute(&module);
        assert!(
            !a.ordering.pairs.is_empty(),
            "{name}: no ordering candidates inferred"
        );
        let mut sorted = a.ordering.pairs.clone();
        sorted.sort_by_key(|p| (p.first, p.second, matches!(p.kind, DepKind::Control)));
        assert_eq!(a.ordering.pairs, sorted, "{name}: pairs not canonical");
    }
}

/// The seeded-bug fixture is the one app whose bug is *statically*
/// decidable: `ob_put` persists the tag (which embeds the payload's
/// value) before the payload itself, with no durability point covering
/// the payload store in between. The pass must report that pair as an
/// uncovered `Data` violation: the pair the invariant miner takes as
/// fx1's persist-order candidate.
#[test]
fn fixture_seeded_bug_is_an_uncovered_data_pair() {
    let module = pm_apps::fixture::build();
    let a = ModuleAnalysis::compute(&module);
    let fid = module.func_by_name("ob_put").expect("ob_put exists");
    let viol: Vec<_> = a
        .ordering
        .violations()
        .filter(|p| p.second.func == fid)
        .collect();
    assert!(
        !viol.is_empty(),
        "fixture: seeded persist-order bug not reported"
    );
    assert!(
        viol.iter().all(|p| p.kind == DepKind::Data),
        "fixture violation must be a value-flow pair"
    );
}

/// Recomputing the analysis yields an identical ordering section —
/// inference has no iteration-order or timing dependence.
#[test]
fn ordering_inference_is_deterministic() {
    for (name, module) in apps() {
        let a = ModuleAnalysis::compute(&module);
        let b = ModuleAnalysis::compute(&module);
        assert_eq!(
            a.ordering.pairs, b.ordering.pairs,
            "{name}: ordering differs across computes"
        );
    }
}

/// A cache round-trip reproduces the envelope byte-for-byte and the
/// parsed ordering pairs exactly — the property that lets a warm
/// `AnalysisCache` restart hand the miner the same candidates the cold
/// run inferred (the warm-restart CI job diffs campaign matrices on it).
#[test]
fn cache_round_trip_preserves_the_ordering_section() {
    for (name, module) in apps() {
        let a = ModuleAnalysis::compute(&module);
        let fp = module.fingerprint();
        let file = a.to_cache_file(fp);
        let back = ModuleAnalysis::from_cache_file(&file, fp)
            .unwrap_or_else(|e| panic!("{name}: cache parse failed: {e}"));
        assert_eq!(
            a.ordering.pairs, back.ordering.pairs,
            "{name}: ordering changed across the cache"
        );
        assert_eq!(
            file,
            back.to_cache_file(fp),
            "{name}: re-serialization is not byte-identical"
        );
    }
}
