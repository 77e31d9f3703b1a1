//! # pir-analysis — static analyses over pir modules
//!
//! The analysis half of the Arthas analyzer (§4.1 of "Understanding and
//! Dealing with Hard Faults in Persistent Memory Systems", EuroSys '21):
//!
//! - [`mod@cfg`]: dominators, post-dominators and control dependence
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
//! times (reproduced in Table 9 of the paper). [`cache`] persists the
//! result keyed on the module fingerprint so a warm restart skips the
//! whole pipeline.

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
pub use cover::{covered_to_exit, DurKind, DurPoint, FlushCover};
pub use ordering::{OrderingInfo, OrderingPair};
pub use pdg::{DepKind, Pdg};
pub use pm::PmInfo;
pub use pointsto::{AbsObj, Field, PointsTo};
pub use slice::{backward_slice, Slice};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pir::ir::Module;

/// Process-wide count of full [`ModuleAnalysis::compute`] runs.
static COMPUTES: AtomicU64 = AtomicU64::new(0);

/// How many times this process has run the full analysis pipeline.
/// Dedup regressions (a layer recomputing an analysis the caller already
/// holds) assert on deltas of this counter.
pub fn compute_count() -> u64 {
    COMPUTES.load(Ordering::Relaxed)
}

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
}

impl ModuleAnalysis {
    /// Runs points-to, PM classification, PDG construction and
    /// persist-ordering inference.
    pub fn compute(module: &Module) -> ModuleAnalysis {
        COMPUTES.fetch_add(1, Ordering::Relaxed);
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
        }
    }
}
