//! Cross-crate checks of the analyzer over all five applications: every
//! app verifies, analyzes, instruments transparently, and exposes the PM
//! surface the reactor needs.

use std::sync::Arc;

use pir::vm::{Vm, VmOpts};
use pm_workload::AppSetup;

fn apps() -> Vec<(&'static str, pir::ir::Module)> {
    vec![
        ("kvcache", pm_apps::kvcache::build()),
        ("listdb", pm_apps::listdb::build()),
        ("cceh", pm_apps::cceh::build()),
        ("segcache", pm_apps::segcache::build()),
        ("pmkv", pm_apps::pmkv::build()),
    ]
}

#[test]
fn all_apps_verify_and_analyze() {
    for (name, module) in apps() {
        pir::verify::verify(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
        let setup = AppSetup::new(module);
        assert!(
            setup.guid_map.len() > 10,
            "{name}: substantial PM surface instrumented ({})",
            setup.guid_map.len()
        );
        assert!(
            setup.analysis.pdg.n_edges > 100,
            "{name}: non-trivial PDG ({} edges)",
            setup.analysis.pdg.n_edges
        );
        pir::verify::verify(&setup.instrumented)
            .unwrap_or_else(|e| panic!("{name} instrumented: {e}"));
    }
}

#[test]
fn guid_metadata_is_bijective() {
    for (name, module) in apps() {
        let setup = AppSetup::new(module);
        for meta in setup.guid_map.iter() {
            assert_eq!(
                setup.guid_map.guid_of(meta.at),
                Some(meta.guid),
                "{name}: metadata round trip"
            );
            let resolved = setup.guid_map.meta(meta.guid).expect("resolvable");
            assert_eq!(resolved.at, meta.at, "{name}");
        }
    }
}

#[test]
fn instrumented_apps_trace_pm_addresses_only() {
    // Run a small benign workload on every app and validate each trace
    // record resolves to a known GUID and a PM address.
    type DriveOps = Vec<(&'static str, Vec<u64>)>;
    let drive: Vec<(&str, DriveOps)> = vec![
        ("kvcache", vec![("put", vec![1, 2, 16]), ("get", vec![1])]),
        (
            "listdb",
            vec![("rpush", vec![1, 16, 3]), ("llast", vec![1])],
        ),
        ("cceh", vec![("insert", vec![1, 10]), ("lookup", vec![1])]),
        ("segcache", vec![("set", vec![1, 16, 3]), ("get", vec![1])]),
        ("pmkv", vec![("kv_put", vec![1, 10]), ("kv_get", vec![1])]),
    ];
    for (name, module) in apps() {
        let setup = AppSetup::new(module);
        let pool = pmemsim::PmPool::create(pm_workload::POOL_SIZE).unwrap();
        let mut vm = Vm::new(
            Arc::new((*setup.instrumented).clone()),
            pool,
            VmOpts::default(),
        );
        let ops = &drive.iter().find(|(n, _)| *n == name).expect("driver").1;
        for (f, args) in ops {
            vm.call(f, args)
                .unwrap_or_else(|e| panic!("{name}.{f}: {e}"));
        }
        let trace: Vec<_> = vm.drain_trace().collect();
        assert!(!trace.is_empty(), "{name}: PM updates were traced");
        for (guid, addr) in trace {
            assert!(
                setup.guid_map.meta(guid).is_some(),
                "{name}: guid {guid} resolves"
            );
            assert!(pir::mem::is_pm(addr), "{name}: {addr:#x} is PM");
        }
    }
}
