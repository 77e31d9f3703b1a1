//! The `report` engine: runs one fault scenario end to end with a
//! [`RingRecorder`] attached to every layer (pool, checkpoint log,
//! detector, reactor) and renders the outcome two ways:
//!
//! - a **schema-stable JSON document** ([`Report::json`], validated
//!   against [`schema`] — additions are allowed, removals and type
//!   changes are schema breaks and fail [`Report::validate_rendered`]);
//! - a **human-readable recovery timeline** ([`Report::render_timeline`])
//!   listing every retained event from the first crash through the
//!   reactor's final verdict.

use std::fmt::Write as _;
use std::sync::Arc;

use arthas::Verdict;
use obs::{Event, Field, Json, RingRecorder, Schema};

use crate::harness::{run_cell, AppSetup, MitigationResult, RunConfig, Solution};
use crate::Scenario;

/// Version stamp of the JSON document layout. Bump only on a breaking
/// change (member removal or type change); additions keep the version.
pub const SCHEMA_VERSION: u64 = 1;

/// Events retained on the recovery timeline (oldest evicted first; the
/// document carries an exact `events_dropped` count).
pub const EVENT_CAPACITY: usize = 4096;

fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::FirstSighting => "first_sighting",
        Verdict::SuspectedHard => "suspected_hard",
    }
}

fn us(d: std::time::Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// One scenario run observed end to end.
pub struct Report {
    /// `"f6: memcached — <fault>"`.
    pub title: String,
    /// Solution that mitigated ([`Solution::name`]).
    pub solution: String,
    /// Run seed.
    pub seed: u64,
    /// The schema-stable JSON document.
    pub json: Json,
    /// Retained timeline events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring before the run ended.
    pub events_dropped: u64,
    /// Production restarts before the hard-failure verdict.
    pub restarts: u32,
    /// One-line failure description.
    pub failure: String,
    /// The mitigation measurement.
    pub result: MitigationResult,
}

/// Runs `scn` to a detected hard failure, mitigates it with `solution`,
/// and assembles the [`Report`]. With a `cache`, the module analysis is
/// loaded from it when fingerprint, version and checksum match, so
/// repeated `report` invocations skip the whole-module analysis. `None`
/// when production completed with no detected failure (a scenario bug in
/// this reproduction).
pub fn run_report(
    scn: &dyn Scenario,
    solution: Solution,
    seed: u64,
    cache: Option<&arthas::AnalysisCache>,
) -> Option<Report> {
    let recorder = Arc::new(RingRecorder::new(EVENT_CAPACITY));
    let setup = AppSetup::new_with_cache(scn.build_module(), cache);
    let cfg = RunConfig {
        seed,
        recorder: Some(recorder.clone()),
        ..RunConfig::default()
    };
    // Pool and log numbers as of detection, before mitigation mutates
    // both.
    let mut at_detection = None;
    let (prod, result) = run_cell(scn, &setup, solution, &cfg, |prod| {
        at_detection = Some((prod.pool.stats(), prod.log.stats()));
    })?;
    let (pool_stats, log_stats) = at_detection.expect("run_cell observed the detection");
    let failure = prod.failure.clone();
    let restarts = prod.restarts;
    let detected_hard = prod.detected_hard;
    let detector: Vec<Json> = prod
        .detector
        .history()
        .iter()
        .zip(prod.detector.verdicts())
        .map(|(rec, &v)| {
            Json::obj([
                ("kind", Json::Str(rec.kind.as_str().to_string())),
                ("exit_code", Json::U64(rec.exit_code)),
                ("verdict", Json::Str(verdict_name(v).to_string())),
            ])
        })
        .collect();

    let production = Json::obj([
        ("restarts", Json::U64(restarts as u64)),
        ("detected_hard", Json::Bool(detected_hard)),
        ("total_updates", Json::U64(result.total_updates)),
        ("steps", Json::U64(prod.steps)),
        (
            "failure",
            Json::obj([
                ("kind", Json::Str(failure.kind.as_str().to_string())),
                ("exit_code", Json::U64(failure.exit_code)),
                ("detail", Json::Str(failure.detail.clone())),
            ]),
        ),
        ("detector", Json::Arr(detector)),
        (
            "pool",
            Json::obj([
                ("persists", Json::U64(pool_stats.persists)),
                ("tx_commits", Json::U64(pool_stats.tx_commits)),
                ("tx_aborts", Json::U64(pool_stats.tx_aborts)),
                ("allocs", Json::U64(pool_stats.allocs)),
                ("frees", Json::U64(pool_stats.frees)),
                ("flushes", Json::U64(pool_stats.flushes)),
                ("drains", Json::U64(pool_stats.drains)),
                ("crashes", Json::U64(pool_stats.crashes)),
            ]),
        ),
        (
            "log",
            Json::obj([
                ("updates", Json::U64(log_stats.updates)),
                ("bytes_logged", Json::U64(log_stats.bytes_logged)),
                ("versions_rotated", Json::U64(log_stats.versions_rotated)),
                ("entries_retired", Json::U64(log_stats.entries_retired)),
            ]),
        ),
    ]);

    let solution = solution.name();
    let mut doc = vec![
        ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
        (
            "scenario".to_string(),
            Json::obj([
                ("id", Json::Str(scn.id().to_string())),
                ("system", Json::Str(scn.system().to_string())),
                ("fault", Json::Str(scn.fault().to_string())),
                ("consequence", Json::Str(scn.consequence().to_string())),
            ]),
        ),
        ("seed".to_string(), Json::U64(seed)),
        ("solution".to_string(), Json::Str(solution.clone())),
        ("production".to_string(), production),
        ("mitigation".to_string(), mitigation_json(&result)),
    ];
    // The recorder's four sections (events, events_dropped, counters,
    // histograms) close out the document.
    if let Json::Obj(sections) = recorder.to_json() {
        doc.extend(sections);
    }

    Some(Report {
        title: format!("{}: {} — {}", scn.id(), scn.system(), scn.fault()),
        solution,
        seed,
        json: Json::Obj(doc),
        events: recorder.events(),
        events_dropped: recorder.dropped(),
        restarts,
        failure: format!(
            "{} (exit code {}): {}",
            failure.kind.as_str(),
            failure.exit_code,
            failure.detail
        ),
        result,
    })
}

/// The `mitigation` object of the report document: one
/// [`MitigationResult`] as JSON. `reproduce` serialises every matrix
/// cell through it too.
pub fn mitigation_json(result: &MitigationResult) -> Json {
    Json::obj([
        ("recovered", Json::Bool(result.recovered)),
        ("attempts", Json::U64(result.attempts as u64)),
        ("reexec_rounds", Json::U64(result.reexec_rounds as u64)),
        ("wall_us", Json::U64(us(result.wall))),
        ("modeled_secs", Json::F64(result.modeled_secs)),
        ("discarded_updates", Json::U64(result.discarded_updates)),
        ("total_updates", Json::U64(result.total_updates)),
        ("item_loss_frac", Json::F64(result.item_loss_frac)),
        (
            "consistent",
            match result.consistent {
                Some(b) => Json::Bool(b),
                None => Json::Null,
            },
        ),
        ("leaks_freed", Json::U64(result.leaks_freed)),
        ("mode_fellback", Json::Bool(result.mode_fellback)),
        (
            "phases",
            Json::obj([
                ("slice_us", Json::U64(us(result.phases.slice))),
                ("plan_us", Json::U64(us(result.phases.plan))),
                ("revert_us", Json::U64(us(result.phases.revert))),
                ("reexec_us", Json::U64(us(result.phases.reexec))),
            ]),
        ),
    ])
}

impl Report {
    /// Renders the document, parses it back, and validates the result
    /// against [`schema`]. This is what guards "schema-stable": any
    /// member removal or type change — in the builder above or in a
    /// layer's `to_json` — fails here with a JSON-path error.
    pub fn validate_rendered(&self) -> Result<(), Vec<String>> {
        let parsed =
            Json::parse(&self.json.render()).map_err(|e| vec![format!("render/parse: {e}")])?;
        obs::validate(&parsed, &schema())
    }

    /// The human-readable recovery timeline.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        let r = &self.result;
        let _ = writeln!(
            out,
            "== {} (solution {}, seed {}) ==",
            self.title, self.solution, self.seed
        );
        let _ = writeln!(
            out,
            "production: {} after {} restart(s); {} updates checkpointed",
            self.failure, self.restarts, r.total_updates
        );
        if self.events_dropped > 0 {
            let _ = writeln!(out, "    … {} earlier events dropped", self.events_dropped);
        }
        for ev in &self.events {
            let _ = write!(out, "{:>10} µs  {:<24}", ev.t_us, ev.kind);
            for (k, v) in &ev.fields {
                let _ = write!(out, " {k}={v}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "{r}");
        let _ = writeln!(
            out,
            "phases: slice={}µs plan={}µs revert={}µs reexec={}µs (wall {}µs, modeled {:.1}s)",
            us(r.phases.slice),
            us(r.phases.plan),
            us(r.phases.revert),
            us(r.phases.reexec),
            us(r.wall),
            r.modeled_secs,
        );
        out
    }
}

/// The report document's schema. [`Schema::Obj`] members are a floor:
/// unknown additions pass, removals and type changes fail.
pub fn schema() -> Schema {
    use Schema::{Bool, Num, Obj, Str, UInt};
    let histogram = Obj(vec![
        Field::req("count", UInt),
        Field::req("sum_us", UInt),
        Field::req("min_us", UInt),
        Field::req("max_us", UInt),
        Field::req("p50_us", UInt),
        Field::req("p95_us", UInt),
        Field::req("p99_us", UInt),
    ]);
    let event = Obj(vec![
        Field::req("t_us", UInt),
        Field::req("kind", Str),
        Field::req("fields", Schema::map(Schema::Any)),
    ]);
    Obj(vec![
        Field::req("schema_version", UInt),
        Field::req(
            "scenario",
            Obj(vec![
                Field::req("id", Str),
                Field::req("system", Str),
                Field::req("fault", Str),
                Field::req("consequence", Str),
            ]),
        ),
        Field::req("seed", UInt),
        Field::req("solution", Str),
        Field::req(
            "production",
            Obj(vec![
                Field::req("restarts", UInt),
                Field::req("detected_hard", Bool),
                Field::req("total_updates", UInt),
                Field::req("steps", UInt),
                Field::req(
                    "failure",
                    Obj(vec![
                        Field::req("kind", Str),
                        Field::req("exit_code", UInt),
                        Field::req("detail", Str),
                    ]),
                ),
                Field::req(
                    "detector",
                    Schema::arr(Obj(vec![
                        Field::req("kind", Str),
                        Field::req("exit_code", UInt),
                        Field::req("verdict", Str),
                    ])),
                ),
                Field::req("pool", Schema::map(UInt)),
                Field::req("log", Schema::map(UInt)),
            ]),
        ),
        Field::req(
            "mitigation",
            Obj(vec![
                Field::req("recovered", Bool),
                Field::req("attempts", UInt),
                Field::req("reexec_rounds", UInt),
                Field::req("wall_us", UInt),
                Field::req("modeled_secs", Num),
                Field::req("discarded_updates", UInt),
                Field::req("total_updates", UInt),
                Field::req("item_loss_frac", Num),
                Field::req("consistent", Schema::nullable(Bool)),
                Field::req("leaks_freed", UInt),
                Field::req("mode_fellback", Bool),
                Field::req(
                    "phases",
                    Obj(vec![
                        Field::req("slice_us", UInt),
                        Field::req("plan_us", UInt),
                        Field::req("revert_us", UInt),
                        Field::req("reexec_us", UInt),
                    ]),
                ),
            ]),
        ),
        Field::req("events", Schema::arr(event)),
        Field::req("events_dropped", UInt),
        Field::req("counters", Schema::map(UInt)),
        Field::req("histograms", Schema::map(histogram)),
    ])
}
