//! The file-based metadata flow of §4.1/§5: the analyzer's GUID map and
//! the runtime's PM address trace round-trip through files, and a
//! reactor built purely from the on-disk artifacts recovers the system.

use std::path::PathBuf;

use arthas::{analyze_and_instrument, GuidMap, PmTrace};
use pir::builder::ModuleBuilder;
use pir::vm::{Vm, VmOpts};

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "arthas-meta-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_module() -> pir::ir::Module {
    let mut m = ModuleBuilder::new();
    let mut f = m.func("put", 1, false);
    f.loc("kv.c:put");
    let size = f.konst(64);
    let obj = f.pm_alloc(size);
    let v = f.param(0);
    f.store8(obj, v);
    f.pm_persist_c(obj, 8);
    f.ret(None);
    f.finish();
    m.finish().unwrap()
}

#[test]
fn guid_map_round_trips_through_a_file() {
    let dir = tmpdir();
    let path = dir.join("guids.map");
    let out = analyze_and_instrument(&sample_module());
    out.guid_map.save_to(&path).unwrap();
    let loaded = GuidMap::load_from(&path).unwrap();
    assert_eq!(loaded.len(), out.guid_map.len());
    for m in out.guid_map.iter() {
        let l = loaded.meta(m.guid).unwrap();
        assert_eq!(l.at, m.at);
        assert_eq!(l.loc, m.loc);
        assert_eq!(loaded.guid_of(m.at), Some(m.guid));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn guid_map_load_rejects_garbage() {
    let dir = tmpdir();
    let path = dir.join("bad.map");
    std::fs::write(&path, "not\ta\tvalid").unwrap();
    assert!(GuidMap::load_from(&path).is_err());
    std::fs::write(&path, "2\t0\t5\tfoo\n1\t0\t3\tbar\n").unwrap();
    assert!(GuidMap::load_from(&path).is_err(), "out-of-order guids");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_file_round_trips_and_tolerates_truncation() {
    let dir = tmpdir();
    let path = dir.join("pm.trace");
    let out = analyze_and_instrument(&sample_module());
    let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
    let mut vm = Vm::new(
        std::sync::Arc::new(out.instrumented),
        pool,
        VmOpts::default(),
    );
    vm.call("put", &[1]).unwrap();
    PmTrace::append_records_to_file(&path, vm.drain_trace()).unwrap();
    vm.call("put", &[2]).unwrap();
    PmTrace::append_records_to_file(&path, vm.drain_trace()).unwrap();

    // Simulate a writer dying mid-record.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "17").unwrap();
    }

    let direct = {
        let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
        let out2 = analyze_and_instrument(&sample_module());
        let mut vm2 = Vm::new(
            std::sync::Arc::new(out2.instrumented),
            pool,
            VmOpts::default(),
        );
        vm2.call("put", &[1]).unwrap();
        vm2.call("put", &[2]).unwrap();
        let mut t = PmTrace::new();
        t.absorb(vm2.drain_trace());
        t
    };
    let loaded = PmTrace::load_from(&path).unwrap();
    for meta in out.guid_map.iter() {
        assert_eq!(
            loaded.offsets(meta.guid),
            direct.offsets(meta.guid),
            "guid {} offsets survive the file round trip",
            meta.guid
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
