//! The Arthas analyzer: PM-instruction identification, GUID assignment and
//! trace instrumentation (§4.1, step ❶ of the paper's workflow).
//!
//! The analyzer runs the static analyses of `pir-analysis` over the target
//! module, assigns a Globally Unique Identifier (GUID) to every PM-updating
//! instruction, emits the `<GUID, source_location, instruction>` metadata
//! map, and produces an *instrumented* clone of the module in which a
//! lightweight `trace(GUID, pm_address)` intrinsic precedes each PM update
//! (or follows it, for allocations, whose address only exists afterwards).
//!
//! Instrumentation appends to each function's instruction arena, so the
//! [`InstRef`]s of all original instructions are identical in the original
//! and instrumented modules — traps reported by the VM running the
//! instrumented binary can be looked up directly in the PDG computed over
//! the original.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pir::ir::{Inst, InstRef, Intrinsic, Module, Op, Val};
use pir_analysis::{AnalysisCache, ModuleAnalysis, PmInfo};

/// Metadata for one instrumented instruction.
#[derive(Debug, Clone)]
pub struct GuidMeta {
    /// The GUID (dense, starting at 1).
    pub guid: u64,
    /// The PM instruction in the *original* module.
    pub at: InstRef,
    /// Its source-location label.
    pub loc: String,
}

/// The `<GUID, source_location, instruction>` metadata file of the paper.
#[derive(Debug, Default, Clone)]
pub struct GuidMap {
    by_guid: Vec<GuidMeta>,
    by_inst: HashMap<InstRef, u64>,
}

impl GuidMap {
    /// Looks a GUID up by instruction.
    pub fn guid_of(&self, at: InstRef) -> Option<u64> {
        self.by_inst.get(&at).copied()
    }

    /// Looks metadata up by GUID.
    pub fn meta(&self, guid: u64) -> Option<&GuidMeta> {
        self.by_guid.get(guid.checked_sub(1)? as usize)
    }

    /// Number of instrumented instructions.
    pub fn len(&self) -> usize {
        self.by_guid.len()
    }

    /// Whether no instruction was instrumented.
    pub fn is_empty(&self) -> bool {
        self.by_guid.is_empty()
    }

    /// Iterates over all metadata entries.
    pub fn iter(&self) -> impl Iterator<Item = &GuidMeta> {
        self.by_guid.iter()
    }

    /// Writes the metadata map to a file, one
    /// `guid<TAB>func<TAB>inst<TAB>loc` record per line — the paper's
    /// `<GUID, source_location, instruction>` metadata file, consumed by
    /// the reactor server (§5).
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for m in &self.by_guid {
            writeln!(out, "{}\t{}\t{}\t{}", m.guid, m.at.func.0, m.at.inst, m.loc)?;
        }
        Ok(())
    }

    /// Reads a metadata map written by [`GuidMap::save_to`].
    pub fn load_from(path: impl AsRef<std::path::Path>) -> std::io::Result<GuidMap> {
        let text = std::fs::read_to_string(path)?;
        let mut map = GuidMap::default();
        for (lineno, line) in text.lines().enumerate() {
            let mut parts = line.splitn(4, '\t');
            let parse = |s: Option<&str>| -> std::io::Result<u64> {
                s.and_then(|v| v.parse().ok()).ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad guid map record at line {}", lineno + 1),
                    )
                })
            };
            let guid = parse(parts.next())?;
            let func = parse(parts.next())? as u32;
            let inst = parse(parts.next())? as u32;
            let loc = parts.next().unwrap_or("").to_string();
            let at = InstRef {
                func: pir::ir::FuncId(func),
                inst,
            };
            map.by_inst.insert(at, guid);
            map.by_guid.push(GuidMeta { guid, at, loc });
        }
        // Records must be dense and ordered (guid = index + 1).
        for (i, m) in map.by_guid.iter().enumerate() {
            if m.guid != i as u64 + 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "guid map records out of order",
                ));
            }
        }
        Ok(map)
    }
}

/// Full analyzer output: static analysis + instrumented module + metadata.
pub struct AnalyzerOutput {
    /// Static analysis of the original module (shared: a cache may hand
    /// the same result to several consumers).
    pub analysis: Arc<ModuleAnalysis>,
    /// The instrumented module (trace calls inserted).
    pub instrumented: Module,
    /// GUID metadata.
    pub guid_map: GuidMap,
    /// Wall time of the instrumentation pass alone (Table 9).
    pub instrument_time: Duration,
}

/// Runs the analyzer on a module, always computing the analysis.
pub fn analyze_and_instrument(module: &Module) -> AnalyzerOutput {
    analyze_and_instrument_cached(module, None)
}

/// Runs the analyzer on a module, loading the static analysis from
/// `cache` when one is given (computing and saving on a miss).
/// Instrumentation is cheap (Table 9) and always re-runs, so the
/// instrumented module and GUID map are exactly those of the uncached
/// path regardless of where the analysis came from.
pub fn analyze_and_instrument_cached(
    module: &Module,
    cache: Option<&AnalysisCache>,
) -> AnalyzerOutput {
    let analysis = match cache {
        Some(c) => c.load_or_compute(module),
        None => Arc::new(ModuleAnalysis::compute(module)),
    };
    let t0 = Instant::now();
    let (instrumented, guid_map) = instrument(module, &analysis.pm);
    let instrument_time = t0.elapsed();
    AnalyzerOutput {
        analysis,
        instrumented,
        guid_map,
        instrument_time,
    }
}

/// Inserts `trace(guid, addr)` calls around every PM-updating instruction.
pub fn instrument(module: &Module, pm: &PmInfo) -> (Module, GuidMap) {
    let mut out = module.clone();
    let mut map = GuidMap::default();
    let mut next_guid = 1u64;
    for (fi, f) in out.funcs.iter_mut().enumerate() {
        for bi in 0..f.blocks.len() {
            let old_list = std::mem::take(&mut f.blocks[bi].insts);
            let mut new_list = Vec::with_capacity(old_list.len());
            for &ii in &old_list {
                let at = InstRef {
                    func: pir::ir::FuncId(fi as u32),
                    inst: ii,
                };
                let is_pm_write = pm.pm_writes.contains(&at);
                if !is_pm_write {
                    new_list.push(ii);
                    continue;
                }
                let guid = next_guid;
                next_guid += 1;
                map.by_inst.insert(at, guid);
                map.by_guid.push(GuidMeta {
                    guid,
                    at,
                    loc: module.loc_of(at).to_string(),
                });
                let loc = f.insts[ii as usize].loc;
                // The traced address: the instruction's address operand, or
                // its own result for allocations.
                let before_addr = PmInfo::traced_addr_operand(module, at);
                match before_addr {
                    Some(addr) => {
                        let cidx = push_inst(&mut f.insts, Op::Const(guid), loc);
                        let tidx = push_inst(
                            &mut f.insts,
                            Op::Intr {
                                intr: Intrinsic::Trace,
                                args: vec![Val(cidx), addr],
                            },
                            loc,
                        );
                        new_list.push(cidx);
                        new_list.push(tidx);
                        new_list.push(ii);
                    }
                    None => {
                        // Allocation-style: trace after, with the result.
                        let cidx = push_inst(&mut f.insts, Op::Const(guid), loc);
                        let tidx = push_inst(
                            &mut f.insts,
                            Op::Intr {
                                intr: Intrinsic::Trace,
                                args: vec![Val(cidx), Val(ii)],
                            },
                            loc,
                        );
                        new_list.push(ii);
                        new_list.push(cidx);
                        new_list.push(tidx);
                    }
                }
            }
            f.blocks[bi].insts = new_list;
        }
    }
    (out, map)
}

fn push_inst(insts: &mut Vec<Inst>, op: Op, loc: u32) -> u32 {
    let idx = insts.len() as u32;
    insts.push(Inst { op, loc });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::builder::ModuleBuilder;
    use pir::vm::{Vm, VmOpts};
    use std::sync::Arc;

    fn sample() -> Module {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("put", 1, false);
        f.loc("kv.c:put");
        let size = f.konst(64);
        let obj = f.pm_alloc(size);
        let v = f.param(0);
        f.store8(obj, v);
        f.pm_persist_c(obj, 8);
        // A volatile store that must NOT be instrumented.
        let slot = f.alloca(8);
        f.store8(slot, v);
        f.ret(None);
        f.finish();
        m.finish().unwrap()
    }

    #[test]
    fn instruments_only_pm_writes() {
        let module = sample();
        let out = analyze_and_instrument(&module);
        // pm_alloc, store-to-pm, pm_persist → 3 GUIDs.
        assert_eq!(out.guid_map.len(), 3);
        // Instrumented module still verifies.
        pir::verify::verify(&out.instrumented).unwrap();
        // Original InstRefs map to identical instructions in both modules.
        for meta in out.guid_map.iter() {
            assert_eq!(
                module.inst(meta.at).op,
                out.instrumented.inst(meta.at).op,
                "arena indices preserved"
            );
        }
    }

    #[test]
    fn instrumented_module_emits_trace_records() {
        let module = sample();
        let out = analyze_and_instrument(&module);
        let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
        let mut vm = Vm::new(Arc::new(out.instrumented), pool, VmOpts::default());
        vm.call("put", &[42]).unwrap();
        let trace: Vec<_> = vm.drain_trace().collect();
        assert_eq!(trace.len(), 3, "one record per PM update");
        // Every record's GUID resolves in the metadata map.
        for (guid, addr) in trace {
            let meta = out.guid_map.meta(guid).expect("known guid");
            assert!(pir::mem::is_pm(addr), "traced address is PM: {addr:#x}");
            assert!(meta.guid == guid);
        }
    }

    #[test]
    fn loc_labels_flow_into_metadata() {
        let module = sample();
        let out = analyze_and_instrument(&module);
        assert!(out.guid_map.iter().all(|m| m.loc == "kv.c:put"));
    }

    #[test]
    fn vanilla_and_instrumented_compute_the_same_result() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("work", 1, true);
        let size = f.konst(64);
        let obj = f.pm_alloc(size);
        let v = f.param(0);
        f.store8(obj, v);
        f.pm_persist_c(obj, 8);
        let r = f.load8(obj);
        f.ret(Some(r));
        f.finish();
        let module = m.finish().unwrap();
        let out = analyze_and_instrument(&module);

        let mk_pool = || pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
        let mut v1 = Vm::new(Arc::new(module), mk_pool(), VmOpts::default());
        let mut v2 = Vm::new(Arc::new(out.instrumented), mk_pool(), VmOpts::default());
        assert_eq!(
            v1.call("work", &[9]).unwrap(),
            v2.call("work", &[9]).unwrap()
        );
    }
}
