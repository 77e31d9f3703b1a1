//! The paper's evaluation (§2 study tables, §6 Tables 2–5, 7, 9 and
//! Figures 8–12, plus the reactor ablation) as one checked document.
//!
//! [`run`] executes every (scenario × solution × seed) cell of the
//! evaluation exactly once through [`pm_workload::run_cell`] and returns
//! `{schema_version, counts, timings}`. `counts` is a function of the
//! source alone: it is committed as `tests/golden/reproduce.json`, gated
//! in tier-1, and every table in `EXPERIMENTS.md` is [`render`]ed from it.
//! `timings` are host-dependent by-products of the same runs —
//! schema-validated, never compared; `hfbench` owns the bounded timing
//! metrics. Each table or figure is one arm of [`render`]: a short
//! projection of the document into markdown.

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use arthas::{AnalysisCache, CacheOutcome, SharedLog};
use obs::{Field, Instrument, Json, RingRecorder, Schema};
use pir::ir::Module;
use pir::vm::{Vm, VmOpts};
use pir_analysis::ModuleAnalysis;
use pm_apps::{cceh, kvcache, listdb, pmkv, segcache, stress};
use pm_workload::harness::REEXEC_DELAY_SECS;
use pm_workload::report::mitigation_json;
use pm_workload::ycsb::{KvOp, KvWorkload};
use pm_workload::{run_cell, scenarios, AppSetup, RunConfig, Solution, POOL_SIZE};

/// Version stamp of the document layout (bump on member removal or type
/// change only).
pub const SCHEMA_VERSION: u64 = 1;

/// Members of the `mitigation` object that read the host clock; every
/// other member is a count.
const TIMING_MEMBERS: [&str; 3] = ["wall_us", "modeled_secs", "phases"];

/// Variants that tune the revert loop, which leak mitigation never enters.
const REVERSION_ONLY: [&str; 3] = [
    "arthas-batch:5",
    "arthas-minimize",
    "arthas-rollback-minimize",
];

/// pmCRIU seeds for the scenarios whose trigger time moves with the seed
/// (Table 3's k/10 cells).
const CRIU_SEEDS: u64 = 10;

/// Operations per overhead pass (Figure 12): enough for every app to
/// reach its steady state, small enough for the debug-profile test.
const OVERHEAD_OPS: u64 = 2_000;

/// The paper's numbers and this repo's expected deviations from them.
pub fn paper() -> &'static Json {
    static PAPER: OnceLock<Json> = OnceLock::new();
    let text = include_str!("../tests/golden/paper.json");
    PAPER.get_or_init(|| Json::parse(text).expect("paper.json is valid JSON"))
}

fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

fn ms(d: Duration) -> Json {
    Json::F64(d.as_secs_f64() * 1e3)
}

/// Runs the whole evaluation and returns the schema-valid document. `Err`
/// names a scenario that never reached a detected hard failure, or the
/// schema violations (either is a bug in this reproduction).
pub fn run(cache: Option<&AnalysisCache>) -> Result<Json, String> {
    let (mut counts, mut timings) = (static_counts(), Vec::new());
    // The analysis section goes first: with a persistent cache its first
    // touch of each module tells a cold start from a warm restart.
    let parts = [
        ("analysis", analysis(cache)),
        ("cells", matrix(cache)?),
        ("overhead", overhead()),
    ];
    for (name, (counted, timed)) in parts {
        counts.push((name.to_string(), Json::Arr(counted)));
        timings.push((name.to_string(), Json::Arr(timed)));
    }
    let doc = Json::obj([
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("counts", Json::Obj(counts)),
        ("timings", Json::Obj(timings)),
    ]);
    let checked = obs::validate(&doc, &schema());
    checked.map_err(|errors| format!("document breaks its schema:\n  {}", errors.join("\n  ")))?;
    Ok(doc)
}

/// The document of the counts that need no run — what `study` and
/// `list` print.
pub fn static_document() -> Json {
    Json::obj([("counts", Json::Obj(static_counts()))])
}

/// The §2 study tables and the scenario metadata of Tables 2 and 7.
fn static_counts() -> Vec<(String, Json)> {
    fn dist<T: std::fmt::Debug>(rows: Vec<(T, usize, f64)>) -> Json {
        let row = |(name, n, _)| {
            Json::obj([
                ("name", s(format!("{name:?}"))),
                ("count", Json::U64(n as u64)),
            ])
        };
        Json::Arr(rows.into_iter().map(row).collect())
    }
    let table1 = pm_study::table1().into_iter().map(|(system, kind, n)| {
        Json::obj([
            ("name", s(system)),
            ("kind", s(format!("{kind:?}"))),
            ("count", Json::U64(n as u64)),
        ])
    });
    let scenarios = scenarios::all().into_iter().map(|scn| {
        Json::obj([
            ("id", s(scn.id())),
            ("system", s(scn.system())),
            ("fault", s(scn.fault())),
            ("consequence", s(scn.consequence())),
            ("leak", Json::Bool(scn.is_leak())),
            ("randomized", Json::Bool(scn.randomized())),
            ("checksum_detectable", Json::Bool(scn.checksum_detectable())),
            (
                "invariant_detectable",
                Json::Bool(scn.invariant_detectable()),
            ),
        ])
    });
    let study = Json::obj([
        ("table1", Json::Arr(table1.collect())),
        ("figure2", dist(pm_study::figure2())),
        ("figure3", dist(pm_study::figure3())),
        ("propagation", dist(pm_study::propagation_types())),
    ]);
    vec![
        ("study".to_string(), study),
        ("scenarios".to_string(), Json::Arr(scenarios.collect())),
    ]
}

/// Runs each cell of the matrix once; returns the count half and the
/// timing half of every cell, in matrix order.
fn matrix(cache: Option<&AnalysisCache>) -> Result<(Vec<Json>, Vec<Json>), String> {
    let (mut counts, mut timings) = (Vec::new(), Vec::new());
    for scn in scenarios::all() {
        let setup = AppSetup::new_with_cache(scn.build_module(), cache);
        for name in Solution::variants() {
            if scn.is_leak() && REVERSION_ONLY.contains(&name.as_str()) {
                continue;
            }
            let solution = Solution::parse(&name).expect("variant names parse");
            let seeds = if name == "pmcriu" && scn.randomized() {
                CRIU_SEEDS
            } else {
                1
            };
            for seed in 1..=seeds {
                let cfg = RunConfig {
                    seed,
                    ..RunConfig::default()
                };
                let (_, result) = run_cell(scn.as_ref(), &setup, solution, &cfg, |_| {})
                    .ok_or_else(|| format!("{}: no detected hard failure", scn.id()))?;
                let Json::Obj(members) = mitigation_json(&result) else {
                    unreachable!("mitigation_json builds an object");
                };
                let (timed, counted): (Vec<_>, Vec<_>) = members
                    .into_iter()
                    .partition(|(k, _)| TIMING_MEMBERS.contains(&k.as_str()));
                for (half, members) in [(&mut counts, counted), (&mut timings, timed)] {
                    let mut cell = vec![
                        ("scenario".to_string(), s(scn.id())),
                        ("solution".to_string(), s(name.clone())),
                        ("seed".to_string(), Json::U64(seed)),
                    ];
                    cell.extend(members);
                    half.push(Json::Obj(cell));
                }
            }
        }
    }
    Ok((counts, timings))
}

type Build = fn() -> Module;
type PutArgs = fn(u64, u64) -> Vec<u64>;

/// The evaluated systems.
const SYSTEMS: [(&str, Build); 6] = [
    ("Memcached", kvcache::build),
    ("Redis", listdb::build),
    ("Pelikan", segcache::build),
    ("PMEMKV", pmkv::build),
    ("CCEH", cceh::build),
    // Scale probe, not a paper system: the five miniatures analyze in about
    // a millisecond, so loading the cache costs what recomputing does. The
    // stress chain restores the paper-scale regime (superlinear analysis,
    // near-linear reload) that a warm restart is for.
    ("Stress", stress::build),
];

/// How the overhead workload calls the five paper systems, in
/// [`SYSTEMS`] order: `(get function, put function, put arguments of a
/// key and a value)`.
const CALLS: [(&str, &str, PutArgs); 5] = [
    ("get", "put", |k, v| vec![k, v, 16]),
    ("llast", "rpush", |k, v| vec![k, 24, v]),
    ("get", "set", |k, v| vec![k, 32, v]),
    ("kv_get", "kv_put", |k, v| vec![k, v]),
    ("lookup", "insert", |k, v| vec![k, v]),
];

/// Figure 12 / Table 8. One YCSB-A pass of [`OVERHEAD_OPS`] operations
/// per configuration: vanilla, checkpoint sink only, instrumentation
/// only, both (Arthas, with a ring recorder on pool and log), and pmCRIU
/// snapshots. The counts are what the overhead is made of — interpreted
/// steps, checkpointed updates and bytes, recorder events; the op/s of
/// the same passes are the timings.
fn overhead() -> (Vec<Json>, Vec<Json>) {
    let (mut counts, mut timings) = (Vec::new(), Vec::new());
    for ((name, build), (get, put, put_args)) in SYSTEMS.into_iter().zip(CALLS) {
        let original = Arc::new(build());
        let instrumented = Arc::new(arthas::analyze_and_instrument(&original).instrumented);
        // Returns (VM steps, log counters, recorder events, op/s).
        let pass = |instrument: bool, checkpoint: bool, criu: bool| {
            let ring = Arc::new(RingRecorder::new(64));
            let mut pool = pmemsim::PmPool::create(POOL_SIZE).expect("pool");
            let mut log = SharedLog::new();
            if instrument && checkpoint {
                pool.instrument(ring.clone());
                log.instrument(ring.clone());
            }
            if checkpoint {
                pool.set_sink(log.as_sink());
            }
            let module = if instrument { &instrumented } else { &original };
            let mut vm = Vm::new(module.clone(), pool, VmOpts::default());
            let mut snapshotter = baselines::PmCriu::new(1);
            let mut workload = KvWorkload::ycsb_a(400, 1, 7);
            let t0 = Instant::now();
            for i in 0..OVERHEAD_OPS {
                let done = match workload.next() {
                    KvOp::Get(k) => vm.call(get, &[k]),
                    KvOp::Put(k, v) => vm.call(put, &put_args(k, v)),
                };
                done.expect("overhead workload runs clean");
                if vm.trace_len() >= 4096 {
                    let _ = vm.drain_trace(); // the asynchronous trace-buffer flush
                }
                if criu && (i + 1).is_multiple_of(OVERHEAD_OPS / 5) {
                    snapshotter.tick(i, vm.pool());
                }
            }
            let rate = OVERHEAD_OPS as f64 / t0.elapsed().as_secs_f64();
            let events = ring.events().len() as u64 + ring.dropped();
            (vm.steps_total(), log.stats(), events, rate)
        };
        let vanilla = pass(false, false, false);
        let arthas = pass(true, true, false);
        counts.push(Json::obj([
            ("system", s(name)),
            ("ops", Json::U64(OVERHEAD_OPS)),
            ("steps_vanilla", Json::U64(vanilla.0)),
            ("steps_instrumented", Json::U64(arthas.0)),
            ("updates", Json::U64(arthas.1.updates)),
            ("bytes_logged", Json::U64(arthas.1.bytes_logged)),
            ("ring_events", Json::U64(arthas.2)),
        ]));
        timings.push(Json::obj([
            ("system", s(name)),
            ("vanilla_ops_s", Json::F64(vanilla.3)),
            ("checkpoint_ops_s", Json::F64(pass(false, true, false).3)),
            ("instrumented_ops_s", Json::F64(pass(true, false, false).3)),
            ("arthas_ops_s", Json::F64(arthas.3)),
            ("pmcriu_ops_s", Json::F64(pass(false, false, true).3)),
        ]));
    }
    (counts, timings)
}

/// Table 9 and the warm-restart path, over `cache`'s directory or a
/// throwaway one. Per system: a cold analysis, then two fresh cache
/// instances over the directory — the first touch (a miss on a cold
/// start, a disk hit on a warm restart) and what a process restarted
/// after it loads. (Slicing time is Figure 8's `slice` phase, measured on
/// the twelve real faults.)
fn analysis(cache: Option<&AnalysisCache>) -> (Vec<Json>, Vec<Json>) {
    let throwaway = std::env::temp_dir().join(format!("reproduce-cache-{}", std::process::id()));
    let dir = cache.and_then(AnalysisCache::dir).unwrap_or(&throwaway);
    let open = || AnalysisCache::persistent(dir).expect("cache directory opens");
    let (mut counts, mut timings) = (Vec::new(), Vec::new());
    for (name, build) in SYSTEMS {
        let module = build();
        // Phase times come from a computed analysis: a loaded one reports
        // zero for the phases it skipped.
        let cold = ModuleAnalysis::compute(&module);
        let (_, first_touch) = open().load_or_compute_traced(&module);
        let restarted = open();
        let (warm, warm_outcome) = restarted.load_or_compute_traced(&module);
        let identical = warm_outcome == CacheOutcome::HitDisk
            && warm.semantic_json().render() == cold.semantic_json().render();
        let instrumented = arthas::analyze_and_instrument_cached(&module, Some(&restarted));
        counts.push(Json::obj([
            ("system", s(name)),
            ("insts", Json::U64(module.inst_count() as u64)),
            ("cache_identical", Json::Bool(identical)),
        ]));
        timings.push(Json::obj([
            ("system", s(name)),
            ("analysis_ms", ms(cold.analysis_time)),
            ("pointsto_ms", ms(cold.pointsto_time)),
            ("pm_ms", ms(cold.pm_time)),
            ("pdg_ms", ms(cold.pdg_time)),
            ("instrument_ms", ms(instrumented.instrument_time)),
            ("warm_ms", ms(warm.analysis_time)),
            ("first_touch", s(format!("{first_touch:?}"))),
        ]));
    }
    let _ = std::fs::remove_dir_all(&throwaway);
    (counts, timings)
}

/// Row schema from a `name:type` list (`s`tring, `u`int, `n`umber,
/// `b`ool, `b?` nullable bool, `m`ap of uints).
fn rows(spec: &'static str) -> Schema {
    let field = |f: &'static str| {
        let (name, ty) = f.split_once(':').expect("name:type");
        let ty = match ty {
            "s" => Schema::Str,
            "u" => Schema::UInt,
            "n" => Schema::Num,
            "b" => Schema::Bool,
            "b?" => Schema::nullable(Schema::Bool),
            "m" => Schema::map(Schema::UInt),
            _ => unreachable!("unknown field type in {f}"),
        };
        Field::req(name, ty)
    };
    Schema::arr(Schema::Obj(spec.split_whitespace().map(field).collect()))
}

/// The document's schema; object members are a floor (additions pass,
/// removals and type changes fail). `timings` is optional as a whole: the
/// committed golden is the counts alone.
pub fn schema() -> Schema {
    let obj = |members: Vec<(&'static str, Schema)>| {
        Schema::Obj(members.into_iter().map(|(n, s)| Field::req(n, s)).collect())
    };
    let named = || rows("name:s count:u");
    let study = obj(vec![
        ("table1", named()),
        ("figure2", named()),
        ("figure3", named()),
        ("propagation", named()),
    ]);
    let scenarios = "id:s system:s fault:s consequence:s leak:b randomized:b \
                     checksum_detectable:b invariant_detectable:b";
    let cell_counts = "scenario:s solution:s seed:u recovered:b attempts:u reexec_rounds:u \
                       discarded_updates:u total_updates:u item_loss_frac:n consistent:b? \
                       leaks_freed:u mode_fellback:b";
    let overhead_counts = "system:s ops:u steps_vanilla:u steps_instrumented:u updates:u \
                           bytes_logged:u ring_events:u";
    let counts = obj(vec![
        ("study", study),
        ("scenarios", rows(scenarios)),
        ("cells", rows(cell_counts)),
        ("overhead", rows(overhead_counts)),
        ("analysis", rows("system:s insts:u cache_identical:b")),
    ]);
    let cell_timings = "scenario:s solution:s seed:u wall_us:u modeled_secs:n phases:m";
    let overhead_timings = "system:s vanilla_ops_s:n checkpoint_ops_s:n instrumented_ops_s:n \
                            arthas_ops_s:n pmcriu_ops_s:n";
    let analysis_timings = "system:s analysis_ms:n pointsto_ms:n pm_ms:n pdg_ms:n \
                            instrument_ms:n warm_ms:n first_touch:s";
    let timings = obj(vec![
        ("cells", rows(cell_timings)),
        ("overhead", rows(overhead_timings)),
        ("analysis", rows(analysis_timings)),
    ]);
    Schema::Obj(vec![
        Field::req("schema_version", Schema::UInt),
        Field::req("counts", counts),
        Field::opt("timings", timings),
    ])
}

// ---------------------------------------------------------------------
// Projections: document -> markdown.

fn arr<'a>(doc: &'a Json, path: &[&str]) -> &'a [Json] {
    let found = path.iter().try_fold(doc, |j, k| j.get(k));
    found.and_then(Json::as_arr).unwrap_or(&[])
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn num(row: &Json, key: &str) -> u64 {
    row.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn real(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn flag(row: &Json, key: &str) -> bool {
    row.get(key).and_then(Json::as_bool).unwrap_or(false)
}

fn tick(ok: bool) -> String {
    if ok { "Y" } else { "n" }.to_string()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Splits a column list `header=source:kind|…` (the source may itself
/// hold a colon, as `arthas-batch:5` does).
fn columns(spec: &str) -> Vec<(&str, &str, &str)> {
    fn column(c: &str) -> Option<(&str, &str, &str)> {
        let (head, rest) = c.rsplit_once('=')?;
        let (source, kind) = rest.rsplit_once(':')?;
        Some((head, source, kind))
    }
    let cols = spec.split('|').map(column);
    cols.map(|c| c.expect("header=source:kind")).collect()
}

/// Every seed's cell of one scenario × solution, from `counts` or
/// `timings`.
fn cells<'a>(doc: &'a Json, half: &str, scenario: &str, solution: &str) -> Vec<&'a Json> {
    let all = arr(doc, &[half, "cells"]).iter();
    all.filter(|c| text(c, "scenario") == scenario && text(c, "solution") == solution)
        .collect()
}

/// `[scenario, a's cell, b's cell]` at seed 1 wherever both solutions
/// recovered the scenario.
fn both<'a>(doc: &'a Json, a: &str, b: &str) -> Vec<[&'a Json; 3]> {
    let recovered = |id, solution| {
        let cell = cells(doc, "counts", id, solution).into_iter().next()?;
        flag(cell, "recovered").then_some(cell)
    };
    let pair = |scn: &'a Json| {
        let id = text(scn, "id");
        Some([scn, recovered(id, a)?, recovered(id, b)?])
    };
    let scenarios = arr(doc, &["counts", "scenarios"]);
    scenarios.iter().filter_map(pair).collect()
}

fn ratio(a: &Json, of_a: &str, b: &Json, of_b: &str) -> f64 {
    num(a, of_a) as f64 / num(b, of_b) as f64
}

fn discarded_pct(cell: &Json) -> f64 {
    100.0 * num(cell, "discarded_updates") as f64 / num(cell, "total_updates").max(1) as f64
}

/// One cell of [`grid`]. The row kinds show the row's member `source`:
/// `text`, `count`, `tick`, `per_op` (the count over the row's `ops`),
/// `share` (of the column's sum), `f<n>` (a float at n decimals), `cost`
/// (throughput lost against vanilla), `speedup` (cold analysis over this
/// member). The other kinds show the matrix cells of the row's scenario
/// under the solution `source`.
fn show(doc: &Json, rows: &[Json], r: &Json, source: &str, kind: &str) -> String {
    let counts = cells(doc, "counts", text(r, "id"), source);
    let timing = cells(doc, "timings", text(r, "id"), source);
    let c = counts.first().copied().unwrap_or(&Json::Null);
    let ok = flag(c, "recovered");
    match kind {
        "text" => text(r, source).to_string(),
        "count" => num(r, source).to_string(),
        "tick" => tick(flag(r, source)),
        "per_op" => format!("{:.2}", ratio(r, source, r, "ops")),
        "share" => {
            let total: u64 = rows.iter().map(|r| num(r, source)).sum();
            format!("{:.1}%", 100.0 * num(r, source) as f64 / total as f64)
        }
        "f0" | "f2" | "f3" => {
            let decimals = kind[1..].parse().expect("f<decimals>");
            format!("{:.decimals$}", real(r, source))
        }
        "cost" => format!(
            "{:.1}%",
            100.0 - 100.0 * real(r, source) / real(r, "vanilla_ops_s")
        ),
        "speedup" => format!("{:.1}x", real(r, "analysis_ms") / real(r, source)),
        _ if counts.is_empty() => "n/a".to_string(),
        // `k/n` over the seeds of a randomized scenario.
        "recovered" if counts.len() > 1 => {
            let recovered = counts.iter().filter(|c| flag(c, "recovered")).count();
            format!("{recovered}/{}", counts.len())
        }
        "recovered" => tick(ok),
        // The paper's notation: T for an ArCkpt timeout, X for a failure.
        "attempts" if !ok && source == "arckpt" => "T".to_string(),
        "attempts" if !ok => "X".to_string(),
        "attempts/discarded" if !ok => "fail".to_string(),
        _ if !ok => "n/a".to_string(),
        "consistent" => tick(flag(c, "consistent")),
        "attempts" | "reexec_rounds" | "discarded_updates" => num(c, kind).to_string(),
        "attempts/discarded" => format!("{}/{}", num(c, "attempts"), num(c, "discarded_updates")),
        "restart_secs" => format!("{:.1}", REEXEC_DELAY_SECS * num(c, "reexec_rounds") as f64),
        "discarded_pct" => format!("{:.3}", discarded_pct(c)),
        "items_lost_pct" => format!("{:.3}", 100.0 * real(c, "item_loss_frac")),
        "modeled_secs" => format!("{:.1}", real(timing[0], kind)),
        phase_us => {
            let us = timing[0].get("phases").map_or(0, |p| num(p, phase_us));
            format!("{:.2}", us as f64 / 1e3)
        }
    }
}

/// Appends a markdown table with one line per element of `rows` and one
/// padded column per `header=source:kind` (see [`show`]).
fn grid(doc: &Json, out: &mut String, rows: &[Json], spec: &str) {
    let cols = columns(spec);
    let line = |r: &Json| -> Vec<String> {
        let cell = |&(_, source, kind): &(&str, &str, &str)| show(doc, rows, r, source, kind);
        cols.iter().map(cell).collect()
    };
    let mut lines: Vec<Vec<String>> = vec![cols.iter().map(|c| c.0.to_string()).collect()];
    lines.extend(rows.iter().map(line));
    let width = |i: usize| {
        let cells = lines.iter().map(|l| l[i].chars().count());
        cells.max().unwrap_or(0).max(3)
    };
    let widths: Vec<usize> = (0..cols.len()).map(width).collect();
    lines.insert(1, widths.iter().map(|&w| "-".repeat(w)).collect());
    for line in &lines {
        for (cell, w) in line.iter().zip(&widths) {
            let _ = write!(out, "| {cell:<w$} ");
        }
        out.push_str("|\n");
    }
}

/// Every section as `(name, heading)`, from `paper.json`: the name goes
/// in `<!-- reproduce:NAME -->` markers. The count sections come in the
/// paper's order; the `-time` sections read `timings`, which the
/// committed document does not carry.
pub fn sections() -> Vec<(String, String)> {
    let Some(Json::Obj(sections)) = paper().get("sections") else {
        panic!("paper.json lists the sections");
    };
    let titled = |(name, about): &(String, Json)| (name.clone(), text(about, "title").to_string());
    sections.iter().map(titled).collect()
}

/// Renders the section called `name` from `doc` (`{counts[, timings]}`)
/// as markdown: its table, its summary line and what the paper reports.
pub fn render(name: &str, doc: &Json) -> String {
    let mut rendered = String::new();
    let out = &mut rendered;
    let scenarios = arr(doc, &["counts", "scenarios"]);
    let study = |key| arr(doc, &["counts", "study", key]);
    // The section's table: its rows and, per column, `header=source:kind`.
    let rows = match name {
        "study" => study("table1"),
        "fig12" => arr(doc, &["counts", "overhead"]),
        "table9" => arr(doc, &["counts", "analysis"]),
        "fig12-time" => arr(doc, &["timings", "overhead"]),
        "table9-time" => arr(doc, &["timings", "analysis"]),
        "deviations" => &[],
        _ => scenarios,
    };
    let spec = match name {
        "study" => "System=name:text|Cases=count:count|Type=kind:text",
        "table2" => "id=id:text|system=system:text|fault=fault:text|consequence=consequence:text",
        "table3" => {
            "id=id:text|pmCRIU=pmcriu:recovered|ArCkpt=arckpt:recovered|Arthas=arthas:recovered"
        }
        "table4" => {
            "id=id:text|pmCRIU=pmcriu:consistent|ArCkpt=arckpt:consistent|\
             Arthas(pg)=arthas-purge:consistent|Arthas(rb)=arthas-rollback:consistent"
        }
        "table5" => {
            "id=id:text|pmCRIU=pmcriu:attempts|ArCkpt=arckpt:attempts|Arthas=arthas:attempts"
        }
        "fig9" => {
            "id=id:text|Arthas (updates)=arthas:discarded_pct|\
             ArCkpt (updates)=arckpt:discarded_pct|pmCRIU (items)=pmcriu:items_lost_pct"
        }
        "fig10" => {
            "id=id:text|batch (s)=arthas-batch:5:restart_secs|single (s)=arthas:restart_secs|\
             batch discarded=arthas-batch:5:discarded_updates|\
             single discarded=arthas:discarded_updates"
        }
        "fig11" => {
            "id=id:text|Rollback=arthas-rollback:discarded_pct|Purge=arthas-purge:discarded_pct"
        }
        "table7" => {
            "id=id:text|fault=fault:text|checksum=checksum_detectable:tick|\
             invariant=invariant_detectable:tick"
        }
        "ablation" => {
            "id=id:text|default=arthas:attempts/discarded|\
             minimize=arthas-minimize:attempts/discarded|\
             rollback=arthas-rollback:attempts/discarded|\
             rollback+min=arthas-rollback-minimize:attempts/discarded|\
             batch(5)=arthas-batch:5:attempts/discarded"
        }
        "fig12" => {
            "System=system:text|VM steps (vanilla)=steps_vanilla:per_op|\
             VM steps (instrumented)=steps_instrumented:per_op|\
             updates checkpointed=updates:per_op|bytes logged=bytes_logged:per_op|\
             ring events=ring_events:per_op"
        }
        "table9" => {
            "System=system:text|instructions=insts:count|\
             reloaded analysis identical=cache_identical:tick"
        }
        "fig8-time" => {
            "id=id:text|Arthas (s)=arthas:modeled_secs|ArCkpt (s)=arckpt:modeled_secs|\
             pmCRIU (s)=pmcriu:modeled_secs|slice=arthas:slice_us|plan=arthas:plan_us|\
             revert=arthas:revert_us|reexec=arthas:reexec_us"
        }
        "fig12-time" => {
            "System=system:text|Vanilla=vanilla_ops_s:f0|w/Ckpt=checkpoint_ops_s:f0|\
             w/Instru=instrumented_ops_s:f0|w/Arthas=arthas_ops_s:f0|w/pmCRIU=pmcriu_ops_s:f0|\
             Arthas cost=arthas_ops_s:cost|pmCRIU cost=pmcriu_ops_s:cost"
        }
        "table9-time" => {
            "System=system:text|StaticAnalysis=analysis_ms:f2|PointsTo=pointsto_ms:f2|\
             PmClass=pm_ms:f2|PDG=pdg_ms:f2|Instrument=instrument_ms:f2|Warm=warm_ms:f3|\
             Speedup=warm_ms:speedup|first touch=first_touch:text"
        }
        "deviations" => "",
        _ => panic!("no section {name}"),
    };
    if !spec.is_empty() {
        grid(doc, out, rows, spec);
    }
    // What follows the table: further tables, summary lines.
    match name {
        "study" => {
            let total: u64 = rows.iter().map(|r| num(r, "count")).sum();
            let _ = writeln!(out, "\ntotal: {total} bugs");
            for (key, head) in [
                ("figure2", "Root cause (Figure 2)"),
                ("figure3", "Consequence (Figure 3)"),
                ("propagation", "Propagation (§2.6)"),
            ] {
                out.push('\n');
                let spec = format!("{head}=name:text|Bugs=count:count|Share=count:share");
                grid(doc, out, study(key), &spec);
            }
        }
        "fig9" => {
            let pairs = both(doc, "arthas", "pmcriu");
            let _ = writeln!(
                out,
                "\naverages over the {} mutually recovered cases: Arthas {:.2}% of updates, \
                 pmCRIU {:.2}% of items",
                pairs.len(),
                mean(pairs.iter().map(|p| discarded_pct(p[1]))),
                mean(pairs.iter().map(|p| 100.0 * real(p[2], "item_loss_frac"))),
            );
        }
        "fig10" => {
            let pairs = both(doc, "arthas", "arthas-batch:5");
            let fewer = mean(
                pairs
                    .iter()
                    .map(|p| ratio(p[1], "attempts", p[2], "attempts")),
            );
            let _ = writeln!(
                out,
                "\nseconds are modelled at {REEXEC_DELAY_SECS} s per re-execution round; where \
                 both recover ({} cases) batching divides re-executions by {fewer:.2} on average",
                pairs.len(),
            );
        }
        "fig11" => {
            let pairs = both(doc, "arthas-rollback", "arthas-purge");
            let rollback = mean(pairs.iter().map(|p| discarded_pct(p[1])));
            let purge = mean(pairs.iter().map(|p| discarded_pct(p[2])));
            let _ = writeln!(
                out,
                "\naverages: rollback {rollback:.2}%, purge {purge:.2}%"
            );
        }
        "table7" => {
            let n = |key| rows.iter().filter(|r| flag(r, key)).count();
            let (sums, invariants) = (n("checksum_detectable"), n("invariant_detectable"));
            let of = rows.len();
            let _ = writeln!(
                out,
                "\n{sums}/{of} detectable by checksums, {invariants}/{of} by common invariant checks"
            );
        }
        "deviations" => {
            for (i, row) in arr(paper(), &["deviations"]).iter().enumerate() {
                let [what, paper, measured, why] =
                    ["what", "paper", "measured", "why"].map(|k| text(row, k));
                let n = i + 1;
                let _ = writeln!(
                    out,
                    "{n}. **{what}** — paper: {paper}; measured: {measured}. {why}"
                );
            }
        }
        _ => {}
    }
    let about = paper().get("sections").and_then(|s| s.get(name));
    if let Some(says) = about.and_then(|a| a.get("says")) {
        let _ = writeln!(out, "\npaper: {}", says.as_str().unwrap_or("?"));
    }
    rendered
}
