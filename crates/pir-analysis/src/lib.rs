//! # pir-analysis — static analyses over pir modules
//!
//! The analysis half of the Arthas analyzer (§4.1 of "Understanding and
//! Dealing with Hard Faults in Persistent Memory Systems", EuroSys '21):
//!
//! - [`mod@cfg`]: dominators and control dependence
//!   (Ferrante-Ottenstein-Warren);
//! - [`pointsto`]: Andersen-style inclusion-based, field-sensitive,
//!   inter-procedural points-to analysis;
//! - [`pm`]: PM variable / PM instruction identification (the transitive
//!   closure from PM API calls);
//! - [`pdg`]: Program Dependence Graph with data, memory, control and
//!   inter-procedural edges;
//! - [`mod@slice`]: backward program slicing from a fault instruction.
//!
//! [`ModuleAnalysis`] bundles the full pipeline and records per-phase wall
//! times (reproduced in Table 9 of the paper). It also keeps what recovery
//! derives from it on demand: each fault's slice is taken once per
//! analysis ([`ModuleAnalysis::slice_pm_writes`]), like the PDG's forward
//! index ([`Pdg::forward_index`]). [`cache`] persists the result keyed on
//! the module fingerprint so a warm restart skips the whole pipeline.

pub mod cache;
pub mod cfg;
pub mod cover;
pub mod ordering;
pub mod pdg;
pub mod pm;
pub mod pointsto;
pub mod slice;

pub use cache::{AnalysisCache, CacheOutcome, CACHE_FORMAT_VERSION, CACHE_MAGIC};
pub use cfg::DomTree;
pub use cover::{DurKind, DurPoint, FlushCover};
pub use ordering::{OrderingInfo, OrderingPair};
pub use pdg::{Adjacency, DepKind, Pdg};
pub use pm::PmInfo;
pub use pointsto::{AbsObj, Field, PointsTo};
pub use slice::{backward_slice, Slice, MAX_SLICE_NODES};

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pir::ir::{InstRef, Module};

/// The complete static-analysis result for one module.
pub struct ModuleAnalysis {
    /// Points-to result.
    pub pointsto: PointsTo,
    /// PM instruction classification.
    pub pm: PmInfo,
    /// The program dependence graph.
    pub pdg: Pdg,
    /// Inferred persist-ordering candidates (WITCHER-style).
    pub ordering: OrderingInfo,
    /// Wall time of the points-to phase.
    pub pointsto_time: Duration,
    /// Wall time of the PM-classification phase.
    pub pm_time: Duration,
    /// Wall time of the PDG-construction phase.
    pub pdg_time: Duration,
    /// Wall time of the ordering-inference phase.
    pub ordering_time: Duration,
    /// Total static-analysis wall time (sum of the phases).
    pub analysis_time: Duration,
    /// Each sliced fault's PM writes, filled once per fault on demand.
    slices: SliceMemo,
}

/// One cell per fault instruction: the first caller fills it, and every
/// other caller for that fault waits for it, whatever the thread count.
type SliceMemo = Mutex<HashMap<InstRef, Arc<OnceLock<Arc<[InstRef]>>>>>;

impl ModuleAnalysis {
    /// Runs points-to, PM classification, PDG construction and
    /// persist-ordering inference.
    pub fn compute(module: &Module) -> ModuleAnalysis {
        let t0 = Instant::now();
        let pointsto = PointsTo::compute(module);
        let pointsto_time = t0.elapsed();
        let t1 = Instant::now();
        let pm = PmInfo::compute(module, &pointsto);
        let pm_time = t1.elapsed();
        let t2 = Instant::now();
        let pdg = Pdg::compute(module, &pointsto);
        let pdg_time = t2.elapsed();
        let t3 = Instant::now();
        let ordering = OrderingInfo::compute(module, &pointsto, &pm, &pdg);
        let ordering_time = t3.elapsed();
        ModuleAnalysis {
            pointsto,
            pm,
            pdg,
            ordering,
            pointsto_time,
            pm_time,
            pdg_time,
            ordering_time,
            analysis_time: t0.elapsed(),
            slices: SliceMemo::default(),
        }
    }

    /// The PM-writing instructions of the backward slice from `fault`
    /// (at most [`MAX_SLICE_NODES`] visited), nearest first: all that
    /// recovery planning reads from a slice. Also says whether this call
    /// computed them.
    ///
    /// Each fault is sliced once per analysis, however many threads ask
    /// at once; every later call shares the first one's list. The slice
    /// is a pure function of the PDG, so the kept list is the one a
    /// fresh slice would give. Debug builds check that: they slice again
    /// on every later call and require the two lists equal.
    pub fn slice_pm_writes(&self, fault: InstRef) -> (Arc<[InstRef]>, bool) {
        let cell = self
            .slices
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(fault)
            .or_default()
            .clone();
        let mut computed = false;
        let writes = cell.get_or_init(|| {
            computed = true;
            self.fresh_slice_pm_writes(fault)
        });
        debug_assert!(
            computed || *writes == self.fresh_slice_pm_writes(fault),
            "the kept slice of {fault:?} differs from a fresh one"
        );
        (writes.clone(), computed)
    }

    fn fresh_slice_pm_writes(&self, fault: InstRef) -> Arc<[InstRef]> {
        backward_slice(&self.pdg, fault, MAX_SLICE_NODES)
            .insts
            .into_iter()
            .filter(|at| self.pm.pm_writes.contains(at))
            .collect()
    }
}
