//! Persistent, hash-keyed cache for [`ModuleAnalysis`] results.
//!
//! Table 9 of the paper shows whole-module static analysis dominating
//! restart cost, yet a *hard* fault by definition recurs: the second
//! restart of the same binary analyzes an identical module. This module
//! makes that restart fast by persisting the complete analysis result —
//! points-to heap graph, PM classification, PDG edges — keyed on the
//! module's structural [`fingerprint`](pir::ir::Module::fingerprint).
//!
//! ## Envelope format
//!
//! One file per module, named `<fingerprint:016x>.json`, holding two
//! lines of JSON: a header and the payload.
//!
//! ```json
//! {"magic": "arthas-module-analysis", "version": 2, "fingerprint": 1234, "checksum": 5678}
//! {"pointsto": …, "pm": …, "pdg": …, "ordering": …}
//! ```
//!
//! `version` guards against format skew across binaries, `fingerprint`
//! against a file keyed for a different module, and `checksum` (FNV-1a
//! over the payload line's raw bytes) against bit-level corruption of
//! the payload itself. Checksumming raw bytes keeps the warm-restart
//! load path cheap — no parse-and-re-render round trip before the
//! payload is trusted. Any mismatch — as well as truncation or a parse
//! failure — is *never* fatal: the cache records an
//! `analysis.cache_invalid` event and falls back to recomputing, then
//! overwrites the bad file.
//!
//! ## Determinism
//!
//! The serialized form is canonical: hash-map members are emitted in
//! sorted key order and dependence lists keep their computed order, so
//! `compute(m)` and `load(save(compute(m)))` render to byte-identical
//! [`ModuleAnalysis::semantic_json`] documents — the equivalence the
//! warm-restart CI job gates on.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use obs::{Json, NullRecorder, Recorder, Value};
use pir::ir::{FuncId, GlobalId, InstRef, Module, Val};

use crate::ordering::{OrderingInfo, OrderingPair};
use crate::pdg::{DepKind, Pdg};
use crate::pm::PmInfo;
use crate::pointsto::{AbsObj, Field, Loc, LocSet, PointsTo};
use crate::ModuleAnalysis;

/// Version of the on-disk envelope; bump on any change to the
/// serialization layout below. v2 added the `ordering` payload member
/// (inferred persist-ordering invariants).
pub const CACHE_FORMAT_VERSION: u64 = 2;

/// Envelope magic string.
pub const CACHE_MAGIC: &str = "arthas-module-analysis";

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// String encodings for the IR-level keys
// ---------------------------------------------------------------------------

fn inst_ref_str(r: InstRef) -> String {
    format!("{}:{}", r.func.0, r.inst)
}

fn parse_inst_ref(s: &str) -> Result<InstRef, String> {
    let (f, i) = s
        .split_once(':')
        .ok_or_else(|| format!("bad inst ref `{s}`"))?;
    let func: u32 = f.parse().map_err(|_| format!("bad inst ref `{s}`"))?;
    let inst: u32 = i.parse().map_err(|_| format!("bad inst ref `{s}`"))?;
    Ok(InstRef {
        func: FuncId(func),
        inst,
    })
}

fn field_str(f: Field) -> String {
    match f {
        Field::Exact(off) => off.to_string(),
        Field::Any => "*".to_string(),
    }
}

fn parse_field(s: &str) -> Result<Field, String> {
    if s == "*" {
        return Ok(Field::Any);
    }
    s.parse()
        .map(Field::Exact)
        .map_err(|_| format!("bad field `{s}`"))
}

fn obj_str(o: AbsObj) -> String {
    match o {
        AbsObj::Alloca(r) => format!("a:{}", inst_ref_str(r)),
        AbsObj::Malloc(r) => format!("m:{}", inst_ref_str(r)),
        AbsObj::PmAlloc(r) => format!("p:{}", inst_ref_str(r)),
        AbsObj::PmRoot => "r".to_string(),
        AbsObj::Global(g) => format!("g:{}", g.0),
    }
}

fn parse_obj(s: &str) -> Result<AbsObj, String> {
    if s == "r" {
        return Ok(AbsObj::PmRoot);
    }
    let (tag, rest) = s
        .split_once(':')
        .ok_or_else(|| format!("bad abstract object `{s}`"))?;
    match tag {
        "a" => Ok(AbsObj::Alloca(parse_inst_ref(rest)?)),
        "m" => Ok(AbsObj::Malloc(parse_inst_ref(rest)?)),
        "p" => Ok(AbsObj::PmAlloc(parse_inst_ref(rest)?)),
        "g" => rest
            .parse()
            .map(|g| AbsObj::Global(GlobalId(g)))
            .map_err(|_| format!("bad global id `{s}`")),
        _ => Err(format!("bad abstract object `{s}`")),
    }
}

fn loc_str(l: Loc) -> String {
    format!("{}@{}", obj_str(l.0), field_str(l.1))
}

fn parse_loc(s: &str) -> Result<Loc, String> {
    let (o, f) = s
        .rsplit_once('@')
        .ok_or_else(|| format!("bad location `{s}`"))?;
    Ok((parse_obj(o)?, parse_field(f)?))
}

fn loc_set_json(set: &LocSet) -> Json {
    Json::Arr(set.iter().map(|l| Json::Str(loc_str(*l))).collect())
}

fn parse_loc_set(j: &Json) -> Result<LocSet, String> {
    let arr = j.as_arr().ok_or("location set is not an array")?;
    let mut out = LocSet::new();
    for v in arr {
        out.insert(parse_loc(v.as_str().ok_or("location is not a string")?)?);
    }
    Ok(out)
}

fn dep_kind_char(k: DepKind) -> char {
    match k {
        DepKind::Data => 'd',
        DepKind::Memory => 'm',
        DepKind::Control => 'c',
        DepKind::Interproc => 'x',
    }
}

fn parse_dep_kind(c: &str) -> Result<DepKind, String> {
    match c {
        "d" => Ok(DepKind::Data),
        "m" => Ok(DepKind::Memory),
        "c" => Ok(DepKind::Control),
        "x" => Ok(DepKind::Interproc),
        other => Err(format!("bad dep kind `{other}`")),
    }
}

fn member<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing member `{key}`"))
}

fn member_u64(j: &Json, key: &str) -> Result<u64, String> {
    member(j, key)?
        .as_u64()
        .ok_or_else(|| format!("member `{key}` is not an unsigned integer"))
}

// ---------------------------------------------------------------------------
// (De)serialization of the analysis payload
// ---------------------------------------------------------------------------

fn pointsto_json(pt: &PointsTo) -> Json {
    // HashMap members are sorted before emission so the rendering is
    // canonical; BTree members iterate sorted already.
    let val_pts: BTreeMap<(u32, u32), &LocSet> = pt
        .val_pts
        .iter()
        .map(|((f, v), s)| ((f.0, v.0), s))
        .collect();
    let callees: BTreeMap<InstRef, &Vec<FuncId>> =
        pt.callees.iter().map(|(r, c)| (*r, c)).collect();
    Json::obj([
        (
            "val_pts",
            Json::Obj(
                val_pts
                    .into_iter()
                    .map(|((f, v), s)| (format!("{f}:{v}"), loc_set_json(s)))
                    .collect(),
            ),
        ),
        (
            "heap_pts",
            Json::Obj(
                pt.heap_pts
                    .iter()
                    .map(|(l, s)| (loc_str(*l), loc_set_json(s)))
                    .collect(),
            ),
        ),
        (
            "address_taken",
            Json::Arr(
                pt.address_taken
                    .iter()
                    .map(|f| Json::U64(u64::from(f.0)))
                    .collect(),
            ),
        ),
        (
            "callees",
            Json::Obj(
                callees
                    .into_iter()
                    .map(|(r, c)| {
                        (
                            inst_ref_str(r),
                            Json::Arr(c.iter().map(|f| Json::U64(u64::from(f.0))).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("passes", Json::U64(u64::from(pt.passes))),
    ])
}

fn parse_pointsto(j: &Json) -> Result<PointsTo, String> {
    let Json::Obj(val_pairs) = member(j, "val_pts")? else {
        return Err("val_pts is not an object".into());
    };
    let mut val_pts = std::collections::HashMap::new();
    for (k, v) in val_pairs {
        let r = parse_inst_ref(k)?; // same "num:num" shape as an inst ref
        val_pts.insert((r.func, Val(r.inst)), parse_loc_set(v)?);
    }
    let Json::Obj(heap_pairs) = member(j, "heap_pts")? else {
        return Err("heap_pts is not an object".into());
    };
    let mut heap_pts = BTreeMap::new();
    for (k, v) in heap_pairs {
        heap_pts.insert(parse_loc(k)?, parse_loc_set(v)?);
    }
    let mut address_taken = std::collections::BTreeSet::new();
    for v in member(j, "address_taken")?
        .as_arr()
        .ok_or("address_taken is not an array")?
    {
        address_taken.insert(FuncId(
            v.as_u64().ok_or("address_taken entry is not a number")? as u32,
        ));
    }
    let Json::Obj(callee_pairs) = member(j, "callees")? else {
        return Err("callees is not an object".into());
    };
    let mut callees = std::collections::HashMap::new();
    for (k, v) in callee_pairs {
        let targets = v
            .as_arr()
            .ok_or("callee list is not an array")?
            .iter()
            .map(|t| {
                t.as_u64()
                    .map(|f| FuncId(f as u32))
                    .ok_or_else(|| "callee is not a number".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        callees.insert(parse_inst_ref(k)?, targets);
    }
    Ok(PointsTo {
        val_pts,
        heap_pts,
        address_taken,
        callees,
        passes: member_u64(j, "passes")? as u32,
    })
}

fn pm_json(pm: &PmInfo) -> Json {
    let refs = |set: &std::collections::BTreeSet<InstRef>| {
        Json::Arr(set.iter().map(|r| Json::Str(inst_ref_str(*r))).collect())
    };
    Json::obj([
        ("pm_writes", refs(&pm.pm_writes)),
        ("pm_reads", refs(&pm.pm_reads)),
        (
            "pm_values",
            Json::Arr(
                pm.pm_values
                    .iter()
                    .map(|(f, v)| Json::Str(format!("{}:{}", f.0, v)))
                    .collect(),
            ),
        ),
    ])
}

fn parse_pm(j: &Json) -> Result<PmInfo, String> {
    let refs = |key: &str| -> Result<std::collections::BTreeSet<InstRef>, String> {
        member(j, key)?
            .as_arr()
            .ok_or_else(|| format!("{key} is not an array"))?
            .iter()
            .map(|v| parse_inst_ref(v.as_str().ok_or("inst ref is not a string")?))
            .collect()
    };
    let mut pm_values = std::collections::BTreeSet::new();
    for v in member(j, "pm_values")?
        .as_arr()
        .ok_or("pm_values is not an array")?
    {
        let r = parse_inst_ref(v.as_str().ok_or("pm value is not a string")?)?;
        pm_values.insert((r.func, r.inst));
    }
    Ok(PmInfo {
        pm_writes: refs("pm_writes")?,
        pm_reads: refs("pm_reads")?,
        pm_values,
    })
}

fn pdg_json(pdg: &Pdg) -> Json {
    let deps: BTreeMap<InstRef, &Vec<(InstRef, DepKind)>> =
        pdg.deps.iter().map(|(r, d)| (*r, d)).collect();
    Json::obj([
        (
            "deps",
            Json::Obj(
                deps.into_iter()
                    .map(|(r, d)| {
                        (
                            inst_ref_str(r),
                            // Edge order is preserved: the slicer's BFS
                            // visits deps in this order, and byte-identical
                            // warm restarts depend on reproducing it.
                            Json::Arr(
                                d.iter()
                                    .map(|(to, k)| {
                                        Json::Str(format!(
                                            "{}:{}",
                                            inst_ref_str(*to),
                                            dep_kind_char(*k)
                                        ))
                                    })
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
        ("n_edges", Json::U64(pdg.n_edges as u64)),
    ])
}

fn parse_pdg(j: &Json) -> Result<Pdg, String> {
    let Json::Obj(dep_pairs) = member(j, "deps")? else {
        return Err("deps is not an object".into());
    };
    let mut deps = std::collections::HashMap::new();
    let mut counted = 0usize;
    for (k, v) in dep_pairs {
        let edges = v
            .as_arr()
            .ok_or("dep list is not an array")?
            .iter()
            .map(|e| {
                let s = e.as_str().ok_or("dep edge is not a string")?;
                let (to, kind) = s
                    .rsplit_once(':')
                    .ok_or_else(|| format!("bad dep edge `{s}`"))?;
                Ok::<_, String>((parse_inst_ref(to)?, parse_dep_kind(kind)?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        counted += edges.len();
        deps.insert(parse_inst_ref(k)?, edges);
    }
    let n_edges = member_u64(j, "n_edges")? as usize;
    if counted != n_edges {
        return Err(format!(
            "edge count mismatch: document says {n_edges}, found {counted}"
        ));
    }
    Ok(Pdg::new(deps, n_edges))
}

fn ordering_json(ord: &OrderingInfo) -> Json {
    // Pairs are already canonically sorted by the pass; each renders as
    // "firstFunc:firstInst>secondFunc:secondInst:kind:coveredFlag".
    Json::obj([(
        "pairs",
        Json::Arr(
            ord.pairs
                .iter()
                .map(|p| {
                    Json::Str(format!(
                        "{}>{}:{}:{}",
                        inst_ref_str(p.first),
                        inst_ref_str(p.second),
                        dep_kind_char(p.kind),
                        if p.covered { 1 } else { 0 },
                    ))
                })
                .collect(),
        ),
    )])
}

fn parse_ordering(j: &Json) -> Result<OrderingInfo, String> {
    let mut pairs = Vec::new();
    for v in member(j, "pairs")?
        .as_arr()
        .ok_or("ordering pairs is not an array")?
    {
        let s = v.as_str().ok_or("ordering pair is not a string")?;
        let (first, rest) = s
            .split_once('>')
            .ok_or_else(|| format!("bad ordering pair `{s}`"))?;
        let mut parts = rest.rsplitn(3, ':');
        let covered = parts
            .next()
            .ok_or_else(|| format!("bad ordering pair `{s}`"))?;
        let kind = parts
            .next()
            .ok_or_else(|| format!("bad ordering pair `{s}`"))?;
        let second = parts
            .next()
            .ok_or_else(|| format!("bad ordering pair `{s}`"))?;
        pairs.push(OrderingPair {
            first: parse_inst_ref(first)?,
            second: parse_inst_ref(second)?,
            kind: parse_dep_kind(kind)?,
            covered: match covered {
                "1" => true,
                "0" => false,
                other => return Err(format!("bad covered flag `{other}`")),
            },
        });
    }
    Ok(OrderingInfo { pairs })
}

impl ModuleAnalysis {
    /// The canonical JSON form of the analysis *content* (everything the
    /// recovery pipeline consumes; wall times are measurement metadata
    /// and excluded). Renders byte-identically for a computed analysis
    /// and its cache-loaded twin.
    pub fn semantic_json(&self) -> Json {
        Json::obj([
            ("pointsto", pointsto_json(&self.pointsto)),
            ("pm", pm_json(&self.pm)),
            ("pdg", pdg_json(&self.pdg)),
            ("ordering", ordering_json(&self.ordering)),
        ])
    }

    /// Rebuilds an analysis from [`ModuleAnalysis::semantic_json`]. All
    /// phase times are zero (nothing was computed).
    pub fn from_semantic_json(j: &Json) -> Result<ModuleAnalysis, String> {
        Ok(ModuleAnalysis {
            pointsto: parse_pointsto(member(j, "pointsto")?)?,
            pm: parse_pm(member(j, "pm")?)?,
            pdg: parse_pdg(member(j, "pdg")?)?,
            ordering: parse_ordering(member(j, "ordering")?)?,
            pointsto_time: Duration::ZERO,
            pm_time: Duration::ZERO,
            pdg_time: Duration::ZERO,
            ordering_time: Duration::ZERO,
            analysis_time: Duration::ZERO,
            slices: Default::default(),
        })
    }

    /// Renders the two-line cache file (header + payload) for the
    /// module with the given fingerprint.
    pub fn to_cache_file(&self, fingerprint: u64) -> String {
        let payload = self.semantic_json().render();
        let header = Json::obj([
            ("magic", Json::Str(CACHE_MAGIC.to_string())),
            ("version", Json::U64(CACHE_FORMAT_VERSION)),
            ("fingerprint", Json::U64(fingerprint)),
            ("checksum", Json::U64(fnv64(payload.as_bytes()))),
        ]);
        format!("{}\n{payload}\n", header.render())
    }

    /// Parses a cache file, validating magic, version, fingerprint and
    /// payload checksum before the payload itself is parsed. Every
    /// failure mode returns `Err` — callers treat any error as
    /// "recompute", never as fatal.
    pub fn from_cache_file(text: &str, fingerprint: u64) -> Result<ModuleAnalysis, String> {
        let (header_line, payload) = text
            .split_once('\n')
            .ok_or("truncated cache file: no payload line")?;
        let payload = payload.strip_suffix('\n').unwrap_or(payload);
        let header =
            Json::parse(header_line).map_err(|e| format!("cache header is not valid JSON: {e}"))?;
        let magic = member(&header, "magic")?
            .as_str()
            .ok_or("magic is not a string")?;
        if magic != CACHE_MAGIC {
            return Err(format!("bad magic `{magic}`"));
        }
        let version = member_u64(&header, "version")?;
        if version != CACHE_FORMAT_VERSION {
            return Err(format!(
                "version skew: file is v{version}, this binary reads v{CACHE_FORMAT_VERSION}"
            ));
        }
        let fp = member_u64(&header, "fingerprint")?;
        if fp != fingerprint {
            return Err(format!(
                "fingerprint mismatch: file {fp:#x}, module {fingerprint:#x}"
            ));
        }
        let checksum = member_u64(&header, "checksum")?;
        let found = fnv64(payload.as_bytes());
        if checksum != found {
            return Err(format!(
                "payload checksum mismatch: header {checksum:#x}, content {found:#x}"
            ));
        }
        let doc =
            Json::parse(payload).map_err(|e| format!("cache payload is not valid JSON: {e}"))?;
        ModuleAnalysis::from_semantic_json(&doc)
    }
}

// ---------------------------------------------------------------------------
// The cache store
// ---------------------------------------------------------------------------

/// How one [`AnalysisCache::load_or_compute`] call was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-process map.
    HitMemory,
    /// Deserialized from a cache file.
    HitDisk,
    /// No cached entry existed; the analysis was computed.
    Miss,
    /// A cache file existed but failed validation (the reason is
    /// carried); the analysis was recomputed and the file replaced.
    Invalid(String),
}

/// A fingerprint-keyed [`ModuleAnalysis`] store with an in-process map
/// and an optional persistent directory behind it.
///
/// Loads are corruption-safe: a truncated, bit-flipped, version-skewed
/// or wrongly-keyed file yields an `analysis.cache_invalid` event and a
/// recompute, never a panic or silently-wrong analysis. Counters
/// (`analysis.cache_hit` / `cache_miss` / `cache_invalid` /
/// `cache_store` / `compute`) flow through the attached
/// [`obs::Recorder`].
pub struct AnalysisCache {
    dir: Option<PathBuf>,
    mem: Mutex<std::collections::HashMap<u64, Arc<ModuleAnalysis>>>,
    recorder: Arc<dyn Recorder>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    stores: AtomicU64,
}

impl fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("dir", &self.dir)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("invalidations", &self.invalidations())
            .field("stores", &self.stores())
            .finish()
    }
}

impl AnalysisCache {
    /// An in-process-only cache (no directory): repeated analyses of the
    /// same module in one process are shared, nothing is persisted.
    pub fn in_memory() -> AnalysisCache {
        AnalysisCache {
            dir: None,
            mem: Mutex::new(std::collections::HashMap::new()),
            recorder: Arc::new(NullRecorder),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// A cache persisted under `dir` (created if missing).
    pub fn persistent(dir: impl AsRef<Path>) -> std::io::Result<AnalysisCache> {
        std::fs::create_dir_all(dir.as_ref())?;
        let mut cache = AnalysisCache::in_memory();
        cache.dir = Some(dir.as_ref().to_path_buf());
        Ok(cache)
    }

    /// The persistent directory, when this cache has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The cache file path for a fingerprint (`None` for in-memory-only
    /// caches).
    pub fn path_for(&self, fingerprint: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{fingerprint:016x}.json")))
    }

    /// Loads per [`AnalysisCache::load_or_compute`] and also reports how
    /// the request was satisfied.
    pub fn load_or_compute_traced(&self, module: &Module) -> (Arc<ModuleAnalysis>, CacheOutcome) {
        let fingerprint = module.fingerprint();
        if let Some(hit) = self.mem.lock().unwrap().get(&fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.recorder.add("analysis.cache_hit", 1);
            self.recorder.event("analysis.cache_hit", &|| {
                vec![
                    ("tier", Value::from("memory")),
                    ("fingerprint", Value::from(fingerprint)),
                ]
            });
            return (hit.clone(), CacheOutcome::HitMemory);
        }

        let mut invalid_reason = None;
        if let Some(path) = self.path_for(fingerprint) {
            match self.try_load_file(&path, fingerprint) {
                Ok(Some(analysis)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.recorder.add("analysis.cache_hit", 1);
                    self.recorder.event("analysis.cache_hit", &|| {
                        vec![
                            ("tier", Value::from("disk")),
                            ("fingerprint", Value::from(fingerprint)),
                            (
                                "load_us",
                                Value::from(analysis.analysis_time.as_micros() as u64),
                            ),
                        ]
                    });
                    let analysis = Arc::new(analysis);
                    self.mem
                        .lock()
                        .unwrap()
                        .insert(fingerprint, analysis.clone());
                    return (analysis, CacheOutcome::HitDisk);
                }
                Ok(None) => {}
                Err(reason) => {
                    self.invalid.fetch_add(1, Ordering::Relaxed);
                    self.recorder.add("analysis.cache_invalid", 1);
                    self.recorder.event("analysis.cache_invalid", &|| {
                        vec![
                            ("fingerprint", Value::from(fingerprint)),
                            ("reason", Value::from(reason.clone())),
                        ]
                    });
                    invalid_reason = Some(reason);
                }
            }
        }

        if invalid_reason.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.recorder.add("analysis.cache_miss", 1);
            self.recorder.event("analysis.cache_miss", &|| {
                vec![("fingerprint", Value::from(fingerprint))]
            });
        }
        let analysis = Arc::new(ModuleAnalysis::compute(module));
        self.recorder.add("analysis.compute", 1);
        self.store(fingerprint, &analysis);
        self.mem
            .lock()
            .unwrap()
            .insert(fingerprint, analysis.clone());
        let outcome = match invalid_reason {
            Some(reason) => CacheOutcome::Invalid(reason),
            None => CacheOutcome::Miss,
        };
        (analysis, outcome)
    }

    /// Returns the cached analysis for `module`, computing (and saving)
    /// it on a miss. A cache-loaded analysis carries the load wall time
    /// as its `analysis_time` and zero for the per-phase times.
    pub fn load_or_compute(&self, module: &Module) -> Arc<ModuleAnalysis> {
        self.load_or_compute_traced(module).0
    }

    fn try_load_file(
        &self,
        path: &Path,
        fingerprint: u64,
    ) -> Result<Option<ModuleAnalysis>, String> {
        let t0 = Instant::now();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable cache file: {e}")),
        };
        let mut analysis = ModuleAnalysis::from_cache_file(&text, fingerprint)?;
        analysis.analysis_time = t0.elapsed();
        Ok(Some(analysis))
    }

    /// Best-effort persist: a full write failure only drops the cache
    /// entry (the next restart recomputes), so it is recorded but not
    /// propagated. The write goes through a temp file + rename so a
    /// crash mid-store can never leave a half-written envelope under the
    /// final name.
    fn store(&self, fingerprint: u64, analysis: &ModuleAnalysis) {
        let Some(path) = self.path_for(fingerprint) else {
            return;
        };
        let tmp = path.with_extension("tmp");
        let result = std::fs::write(&tmp, analysis.to_cache_file(fingerprint))
            .and_then(|()| std::fs::rename(&tmp, &path));
        match result {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                self.recorder.add("analysis.cache_store", 1);
                self.recorder.event("analysis.cache_store", &|| {
                    vec![("fingerprint", Value::from(fingerprint))]
                });
            }
            Err(e) => {
                self.recorder.event("analysis.cache_store_failed", &|| {
                    vec![
                        ("fingerprint", Value::from(fingerprint)),
                        ("error", Value::from(e.to_string())),
                    ]
                });
            }
        }
    }

    /// Hits served (memory + disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (no cached entry anywhere).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cache files rejected as invalid (each one also recomputed).
    pub fn invalidations(&self) -> u64 {
        self.invalid.load(Ordering::Relaxed)
    }

    /// Successful persists.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }
}

impl obs::Instrument for AnalysisCache {
    fn instrument(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    fn uninstrument(&mut self) {
        self.recorder = Arc::new(NullRecorder);
    }
}
