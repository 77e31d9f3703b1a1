//! The campaign runtime: one resumable trial queue.
//!
//! Every scenario is prepared (enumeration, invariant mining, matrix
//! construction) once, then all trials from all scenarios merge into one
//! globally interleaved work queue drained by a fixed worker pool. Long
//! scenarios do not serialize behind short ones, and the pool stays
//! saturated until the very last trial. One scenario, one worker and no
//! journal are this path's degenerate cases, not separate runners.
//!
//! Progress is durable. Each completed trial appends one JSON line to a
//! journal ([`obs::journal`]) keyed by
//! `(scenario, site, policy, seed, stride)`; the journal's header line
//! pins the full matrix-determining configuration. On `--resume`, the
//! journal is replayed: the header must match the reconstructed config
//! exactly, journaled trials are re-admitted as finished verdicts
//! without re-execution (the replay contract makes verdicts pure
//! functions of the key, so a recorded verdict *is* the verdict), and
//! only the remaining rows enter the queue. A fresh run and a
//! killed-and-resumed run therefore produce byte-identical matrix
//! documents.
//!
//! Crash-safety argument, in order of violence:
//!
//! - **worker panic** — the panic propagates out of the thread scope;
//!   the journal holds every completed trial (each append is flushed to
//!   the OS before the next trial starts).
//! - **SIGKILL** — the process dies between appends or mid-append. At
//!   most the in-flight line is torn; [`obs::journal::read_journal`]
//!   skips it and the trial re-executes deterministically on resume.
//! - **power loss** — only `fdatasync`'d bytes survive. The writer
//!   syncs every [`FleetConfig::fsync_batch`] lines, so at most one
//!   batch of trials re-executes — idempotently, to identical verdicts.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use arthas::{AnalysisCache, ConfigError};
use obs::journal::{read_journal, JournalWriter};
use obs::{Field, Json, NullRecorder, Recorder, Schema, Value};
use pm_workload::Scenario;
use pmemsim::SiteKind;

use crate::{
    finish_scenario, policy_from_name, policy_name, prepare_scenario, CampaignConfig,
    CampaignReport, PreparedScenario, Trial, TrialVerdict,
};

/// Version stamp of the journal line layout.
pub const JOURNAL_SCHEMA_VERSION: u64 = 1;

/// File name of the progress journal inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Parameters of one fleet run, wrapping a [`CampaignConfig`].
///
/// The worker-pool width is deliberately *not* a separate knob: the
/// queue is drained by exactly [`CampaignConfig::runners`] workers, the
/// number the matrix document's `config.runners` stanza reports.
#[derive(Clone)]
pub struct FleetConfig {
    /// The campaign parameters (seed, stride, budget, policies,
    /// invariants, analysis cache) shared by every trial.
    campaign: CampaignConfig,
    /// Directory holding the progress journal; `None` disables
    /// journaling (the run is not resumable).
    journal_dir: Option<PathBuf>,
    /// Resume from an existing journal instead of starting fresh.
    resume: bool,
    /// Journal lines between fsyncs (power-loss replay window).
    fsync_batch: usize,
    /// Stop after executing this many *new* trials — the test hook that
    /// simulates a mid-queue kill deterministically.
    trial_limit: Option<u64>,
    /// Recorder for fleet counters, events and the trial-latency
    /// histogram.
    recorder: Arc<dyn Recorder>,
}

impl FleetConfig {
    /// A validating builder over the given campaign configuration.
    pub fn builder(campaign: CampaignConfig) -> FleetConfigBuilder {
        FleetConfigBuilder {
            cfg: FleetConfig {
                campaign,
                journal_dir: None,
                resume: false,
                fsync_batch: obs::DEFAULT_FSYNC_BATCH,
                trial_limit: None,
                recorder: Arc::new(NullRecorder),
            },
        }
    }

    /// The wrapped campaign configuration.
    pub fn campaign(&self) -> &CampaignConfig {
        &self.campaign
    }

    /// Worker-pool width (== [`CampaignConfig::runners`]).
    pub fn workers(&self) -> usize {
        self.campaign.runners()
    }

    /// The journal directory, when journaling is on.
    pub fn journal_dir(&self) -> Option<&Path> {
        self.journal_dir.as_deref()
    }
}

/// Builder for [`FleetConfig`].
pub struct FleetConfigBuilder {
    cfg: FleetConfig,
}

impl FleetConfigBuilder {
    /// Journal progress under `dir` (created if absent).
    pub fn journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.journal_dir = Some(dir.into());
        self
    }

    /// Resume from the journal instead of truncating it.
    pub fn resume(mut self, resume: bool) -> Self {
        self.cfg.resume = resume;
        self
    }

    /// Journal lines between fsyncs, ≥ 1.
    pub fn fsync_batch(mut self, batch: usize) -> Self {
        self.cfg.fsync_batch = batch;
        self
    }

    /// Stop after executing `n` new trials (mid-queue-kill simulation).
    pub fn trial_limit(mut self, n: Option<u64>) -> Self {
        self.cfg.trial_limit = n;
        self
    }

    /// Recorder for fleet instrumentation.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.cfg.recorder = recorder;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<FleetConfig, ConfigError> {
        if self.cfg.fsync_batch == 0 {
            return Err(ConfigError("fsync batch must be ≥ 1".into()));
        }
        if self.cfg.resume && self.cfg.journal_dir.is_none() {
            return Err(ConfigError("resume requires a journal directory".into()));
        }
        Ok(self.cfg)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failures of the fleet runtime itself (trial verdicts are never
/// errors — they are results).
#[derive(Debug)]
pub enum FleetError {
    /// Journal file I/O failed.
    Io(std::io::Error),
    /// The journal exists but cannot drive this run: missing or
    /// mismatched header, or a malformed trial line.
    Journal(String),
    /// Invalid fleet configuration.
    Config(ConfigError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "journal I/O: {e}"),
            FleetError::Journal(m) => write!(f, "journal: {m}"),
            FleetError::Config(ConfigError(m)) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Journal lines
// ---------------------------------------------------------------------------

/// The journal header: everything that determines the trial matrix. A
/// resume refuses to run unless its reconstructed configuration renders
/// this exact document.
fn header_json(cfg: &CampaignConfig, scenario_ids: &[&'static str]) -> Json {
    let mut members = vec![
        ("kind", Json::Str("header".into())),
        ("schema_version", Json::U64(JOURNAL_SCHEMA_VERSION)),
        ("seed", Json::U64(cfg.seed())),
        ("stride", Json::U64(cfg.stride())),
        ("budget", Json::U64(cfg.budget() as u64)),
        ("runners", Json::U64(cfg.runners() as u64)),
        (
            "policies",
            Json::Arr(
                cfg.policies()
                    .iter()
                    .map(|&p| Json::Str(policy_name(p)))
                    .collect(),
            ),
        ),
        ("invariants", Json::Bool(cfg.invariants())),
        (
            "scenarios",
            Json::Arr(
                scenario_ids
                    .iter()
                    .map(|id| Json::Str((*id).to_string()))
                    .collect(),
            ),
        ),
    ];
    // The replication dimension determines trial outcomes, so it is
    // header material; absent members keep pre-replication journals
    // resumable (they decode as the n = 0 configuration).
    if cfg.replicas() > 0 {
        members.push(("replicas", Json::U64(cfg.replicas() as u64)));
        if let Some(f) = cfg.replica_fault() {
            members.push(("replica_fault", Json::Str(f.as_str().to_string())));
        }
    }
    Json::obj(members)
}

/// One completed trial. `seed`/`stride` repeat the header so every line
/// is self-describing under the full `(scenario, site, policy, seed,
/// stride)` key.
fn trial_json(scenario: &str, seed: u64, stride: u64, t: &Trial) -> Json {
    Json::obj([
        ("kind", Json::Str("trial".into())),
        ("scenario", Json::Str(scenario.to_string())),
        ("site", Json::U64(t.site)),
        ("policy", Json::Str(policy_name(t.policy))),
        ("seed", Json::U64(seed)),
        ("stride", Json::U64(stride)),
        ("site_kind", Json::Str(t.kind.as_str().to_string())),
        ("verdict", Json::Str(t.verdict.as_str().to_string())),
        ("restarts", Json::U64(u64::from(t.restarts))),
        ("attempts", Json::U64(u64::from(t.attempts))),
    ])
}

/// Structural schema of a journal trial line (used by tests and external
/// consumers; the resume path re-validates field-by-field anyway since
/// it must reconstruct typed values).
pub fn trial_line_schema() -> Schema {
    use Schema::{Obj, Str, UInt};
    Obj(vec![
        Field::req("kind", Str),
        Field::req("scenario", Str),
        Field::req("site", UInt),
        Field::req("policy", Str),
        Field::req("seed", UInt),
        Field::req("stride", UInt),
        Field::req("site_kind", Str),
        Field::req("verdict", Str),
        Field::req("restarts", UInt),
        Field::req("attempts", UInt),
    ])
}

/// The matrix-determining configuration a journal was written under,
/// decoded from its header line. `inject --resume DIR` reconstructs the
/// whole campaign from this — no matrix-affecting flag may be supplied
/// alongside it.
pub struct JournalHeader {
    /// Workload seed.
    pub seed: u64,
    /// Site stride.
    pub stride: u64,
    /// Per-scenario trial budget.
    pub budget: usize,
    /// Worker-pool width.
    pub runners: usize,
    /// Crash policies, in campaign order.
    pub policies: Vec<pmemsim::CrashPolicy>,
    /// Whether the mined-invariant oracle was on.
    pub invariants: bool,
    /// Scenario ids, in campaign order.
    pub scenarios: Vec<String>,
    /// Hot-standby replicas per trial (0 = single-pool campaign; absent
    /// in pre-replication journals).
    pub replicas: usize,
    /// Replica-side fault mode, when one was configured.
    pub replica_fault: Option<crate::ReplicaFault>,
}

impl JournalHeader {
    /// The campaign configuration this header pins, rebuilt through the
    /// validating builder. The analysis cache is the one thing a header
    /// does not record (verdicts are cache-independent), so the caller
    /// supplies it.
    pub fn campaign_config(
        &self,
        cache: Option<Arc<AnalysisCache>>,
    ) -> Result<CampaignConfig, ConfigError> {
        CampaignConfig::builder()
            .stride(self.stride)
            .budget(self.budget)
            .runners(self.runners)
            .seed(self.seed)
            .policies(self.policies.clone())
            .invariants(self.invariants)
            .replicas(self.replicas)
            .replica_fault(self.replica_fault)
            .analysis_cache(cache)
            .build()
    }
}

/// Reads and decodes the header line of the journal under `dir`.
pub fn read_header(dir: &Path) -> Result<JournalHeader, FleetError> {
    let path = dir.join(JOURNAL_FILE);
    let read = read_journal(&path)?;
    let Some(doc) = read.lines.first() else {
        return Err(FleetError::Journal(format!(
            "{} has no parsable header line",
            path.display()
        )));
    };
    if doc.get("kind").and_then(Json::as_str) != Some("header") {
        return Err(FleetError::Journal(format!(
            "first line of {} is not a header",
            path.display()
        )));
    }
    let version = get_u64(doc, "schema_version")?;
    if version != JOURNAL_SCHEMA_VERSION {
        return Err(FleetError::Journal(format!(
            "journal schema version {version} (this build reads {JOURNAL_SCHEMA_VERSION})"
        )));
    }
    let arr = |key: &str| -> Result<&[Json], FleetError> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| FleetError::Journal(format!("header missing array `{key}`")))
    };
    let policies = arr("policies")?
        .iter()
        .map(|j| {
            j.as_str()
                .and_then(policy_from_name)
                .ok_or_else(|| FleetError::Journal(format!("bad header policy {}", j.render())))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let scenarios = arr("scenarios")?
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| FleetError::Journal(format!("bad header scenario {}", j.render())))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let replica_fault = match doc.get("replica_fault").and_then(Json::as_str) {
        Some(s) => Some(
            crate::ReplicaFault::parse(s)
                .ok_or_else(|| FleetError::Journal(format!("unknown replica fault `{s}`")))?,
        ),
        None => None,
    };
    Ok(JournalHeader {
        seed: get_u64(doc, "seed")?,
        stride: get_u64(doc, "stride")?,
        budget: get_u64(doc, "budget")? as usize,
        runners: get_u64(doc, "runners")? as usize,
        invariants: doc
            .get("invariants")
            .and_then(Json::as_bool)
            .ok_or_else(|| FleetError::Journal("header missing bool `invariants`".into()))?,
        policies,
        scenarios,
        replicas: doc.get("replicas").and_then(Json::as_u64).unwrap_or(0) as usize,
        replica_fault,
    })
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, FleetError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| FleetError::Journal(format!("trial line missing u64 `{key}`")))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, FleetError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| FleetError::Journal(format!("trial line missing string `{key}`")))
}

/// A journaled trial, reconstructed for re-admission.
struct JournaledTrial {
    scenario: String,
    trial: Trial,
}

/// Parses one `kind:"trial"` journal line back into a [`Trial`],
/// checking its `seed`/`stride` against the campaign (the header already
/// matched, so a divergence here means a corrupted or foreign line —
/// hard error, not a skip: silently dropping it would re-execute a trial
/// the caller believes journaled).
fn parse_trial_line(doc: &Json, cfg: &CampaignConfig) -> Result<JournaledTrial, FleetError> {
    let seed = get_u64(doc, "seed")?;
    let stride = get_u64(doc, "stride")?;
    if seed != cfg.seed() || stride != cfg.stride() {
        return Err(FleetError::Journal(format!(
            "trial line keyed (seed {seed}, stride {stride}) in a journal \
             headed (seed {}, stride {})",
            cfg.seed(),
            cfg.stride()
        )));
    }
    let policy_s = get_str(doc, "policy")?;
    let policy = policy_from_name(policy_s)
        .ok_or_else(|| FleetError::Journal(format!("unknown policy `{policy_s}`")))?;
    let kind_s = get_str(doc, "site_kind")?;
    let kind = SiteKind::parse(kind_s)
        .ok_or_else(|| FleetError::Journal(format!("unknown site kind `{kind_s}`")))?;
    let verdict_s = get_str(doc, "verdict")?;
    let verdict = TrialVerdict::parse(verdict_s)
        .ok_or_else(|| FleetError::Journal(format!("unknown verdict `{verdict_s}`")))?;
    Ok(JournaledTrial {
        scenario: get_str(doc, "scenario")?.to_string(),
        trial: Trial {
            site: get_u64(doc, "site")?,
            kind,
            policy,
            verdict,
            restarts: get_u64(doc, "restarts")? as u32,
            attempts: get_u64(doc, "attempts")? as u32,
        },
    })
}

/// The state loaded from an existing journal on resume.
struct ResumeState {
    /// First-occurrence map keyed by `(scenario, site, policy-name)` —
    /// `seed`/`stride` are validated per line against the header, so the
    /// in-memory key can omit them. (Duplicate keys can exist when a
    /// prior kill lost an unsynced batch and a resume re-ran it; first
    /// wins, and determinism makes any duplicate identical anyway.)
    done: BTreeMap<(String, u64, String), Trial>,
    /// Parsable lines found (header + trials), for reporting.
    prior_lines: u64,
    /// Torn/unparsable lines skipped by the reader.
    torn: u64,
}

/// Loads and validates a journal for resume. The header line must
/// render byte-identically to the one this configuration would write —
/// any drift in seed, stride, budget, runners, policies, invariants or
/// scenario set makes the journaled verdicts unusable.
fn load_resume(
    path: &Path,
    cfg: &CampaignConfig,
    scenario_ids: &[&'static str],
) -> Result<ResumeState, FleetError> {
    let read = read_journal(path)?;
    let Some(header) = read.lines.first() else {
        return Err(FleetError::Journal(format!(
            "{} has no parsable header line",
            path.display()
        )));
    };
    let expected = header_json(cfg, scenario_ids);
    if header.render() != expected.render() {
        return Err(FleetError::Journal(format!(
            "header mismatch — the journal was written by a different \
             campaign configuration\n  journal:  {}\n  expected: {}",
            header.render(),
            expected.render()
        )));
    }
    let mut done = BTreeMap::new();
    for doc in &read.lines[1..] {
        match doc.get("kind").and_then(Json::as_str) {
            Some("trial") => {
                let j = parse_trial_line(doc, cfg)?;
                let key = (j.scenario, j.trial.site, policy_name(j.trial.policy));
                done.entry(key).or_insert(j.trial);
            }
            Some("header") => {
                // A resumed-then-killed journal is append-only, so no
                // second header should exist; refuse rather than guess.
                return Err(FleetError::Journal(
                    "journal contains more than one header line".into(),
                ));
            }
            _ => {
                return Err(FleetError::Journal(format!(
                    "unrecognized journal line: {}",
                    doc.render()
                )));
            }
        }
    }
    Ok(ResumeState {
        done,
        prior_lines: read.lines.len() as u64,
        torn: read.skipped,
    })
}

// ---------------------------------------------------------------------------
// The fleet run
// ---------------------------------------------------------------------------

/// Outcome of a fleet run.
pub struct FleetReport {
    /// The assembled campaign — when [`FleetReport::complete`], its
    /// `json()` is a function of the [`CampaignConfig`] alone: worker
    /// count, journaling and resume leave no trace in it.
    pub campaign: CampaignReport,
    /// Worker-pool width the queue was drained with.
    pub workers: usize,
    /// Trials executed by *this* run.
    pub executed: u64,
    /// Trials re-admitted from the journal without execution.
    pub skipped: u64,
    /// Whether every matrix row has a verdict. `false` only when
    /// `trial_limit` stopped the run early — the campaign then holds
    /// just the classified rows and must not be diffed or gated on.
    pub complete: bool,
    /// Wall-clock of the whole run (prepare + drain), milliseconds.
    pub wall_ms: u64,
    /// Journal lines appended by this run (0 when journaling is off).
    pub journal_appended: u64,
    /// fsyncs issued by this run's journal writer.
    pub journal_syncs: u64,
    /// Torn lines skipped while loading the resume journal.
    pub resume_torn: u64,
}

impl FleetReport {
    /// The aggregated cross-scenario fleet summary: per-verdict totals,
    /// per-scenario coverage, and this run's execution accounting.
    pub fn summary_json(&self) -> Json {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.campaign.scenarios {
            for t in &s.trials {
                *totals.entry(t.verdict.as_str()).or_insert(0) += 1;
            }
        }
        Json::obj([
            ("workers", Json::U64(self.workers as u64)),
            ("executed", Json::U64(self.executed)),
            ("skipped", Json::U64(self.skipped)),
            ("complete", Json::Bool(self.complete)),
            ("wall_ms", Json::U64(self.wall_ms)),
            ("journal_appended", Json::U64(self.journal_appended)),
            ("journal_syncs", Json::U64(self.journal_syncs)),
            (
                "verdict_totals",
                Json::obj(
                    totals
                        .into_iter()
                        .map(|(k, n)| (k.to_string(), Json::U64(n))),
                ),
            ),
            (
                "coverage",
                Json::Arr(
                    self.campaign
                        .scenarios
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::Str(s.id.to_string())),
                                ("sites_total", Json::U64(s.sites_total)),
                                ("sites_tested", Json::U64(s.sites_tested)),
                                ("trials", Json::U64(s.trials.len() as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable one-screen fleet summary.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} worker(s), {} trial(s) executed, {} resumed from journal, \
             {:.1}s wall{}",
            self.workers,
            self.executed,
            self.skipped,
            self.wall_ms as f64 / 1000.0,
            if self.complete { "" } else { " [INCOMPLETE]" },
        );
        if self.journal_appended > 0 || self.skipped > 0 {
            let _ = writeln!(
                out,
                "journal: {} line(s) appended, {} fsync(s), {} torn line(s) skipped",
                self.journal_appended, self.journal_syncs, self.resume_torn,
            );
        }
        out
    }
}

/// One queue entry: scenario index × matrix-row index.
type QueueItem = (usize, usize);

/// Runs a campaign over the given scenarios.
///
/// Phases:
///
/// 1. **prepare** — each scenario's enumeration run, invariant mining
///    and matrix construction, in parallel across the worker pool (the
///    analysis cache in the campaign config deduplicates module
///    analysis across scenarios sharing an application).
/// 2. **admit** — on resume, journaled verdicts fill their result slots
///    directly; everything else becomes a queue entry. The queue
///    round-robins across scenarios so every pool sees progress and no
///    scenario's tail monopolizes the drain.
/// 3. **drain** — workers claim queue indices from a shared atomic,
///    classify the trial, journal the verdict, repeat. An exact
///    `trial_limit` is enforced by *pre-claiming* an execution slot
///    before taking a queue index, which is also how tests simulate a
///    kill at a precise queue depth.
/// 4. **assemble** — per-scenario canonical sort + census over result
///    slots indexed by matrix row, so the document does not depend on
///    which worker classified which row or in what order.
pub fn run_fleet(
    scenarios: &[Box<dyn Scenario>],
    cfg: &FleetConfig,
) -> Result<FleetReport, FleetError> {
    let start = Instant::now();
    let campaign = &cfg.campaign;
    let rec = &cfg.recorder;
    let workers = cfg.workers().max(1);
    let scenario_ids: Vec<&'static str> = scenarios.iter().map(|s| s.id()).collect();

    // Journal setup + resume load happen before any expensive work so a
    // doomed resume fails fast.
    let journal_path = cfg.journal_dir.as_ref().map(|d| d.join(JOURNAL_FILE));
    let (resume, writer) = match &journal_path {
        Some(path) if cfg.resume => (
            Some(load_resume(path, campaign, &scenario_ids)?),
            Some(JournalWriter::append_existing(path, cfg.fsync_batch)?),
        ),
        Some(path) => {
            let mut w = JournalWriter::create(path, cfg.fsync_batch)?;
            w.append(&header_json(campaign, &scenario_ids))?;
            (None, Some(w))
        }
        None => (None, None),
    };
    // A fresh run just appended the header through this writer;
    // `journal_appended` must report *trial* lines only.
    let base_appended = writer.as_ref().map_or(0, |w| w.appended());

    // -- phase 1: prepare ------------------------------------------------
    let prep_next = AtomicUsize::new(0);
    let prep_slots: Vec<Mutex<Option<PreparedScenario<'_>>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(scenarios.len().max(1)) {
            s.spawn(|| loop {
                let i = prep_next.fetch_add(1, Ordering::Relaxed);
                let Some(scn) = scenarios.get(i) else { break };
                let t0 = Instant::now();
                let prep = prepare_scenario(scn.as_ref(), campaign);
                rec.event(
                    "fleet.scenario_ready",
                    vec![
                        ("id", Value::Str(scn.id().to_string())),
                        ("sites", Value::U64(prep.sites_total)),
                        ("rows", Value::U64(prep.matrix.len() as u64)),
                        ("prepare_us", Value::U64(t0.elapsed().as_micros() as u64)),
                        ("replays", Value::U64(u64::from(prep.replays))),
                    ],
                );
                *prep_slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(prep);
            });
        }
    });
    let preps: Vec<PreparedScenario<'_>> = prep_slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every scenario prepared")
        })
        .collect();

    // -- phase 2: admit --------------------------------------------------
    // Result slots mirror each scenario's matrix; journaled verdicts
    // land now, live trials land from the drain loop.
    let results: Vec<Vec<Mutex<Option<Trial>>>> = preps
        .iter()
        .map(|p| p.matrix.iter().map(|_| Mutex::new(None)).collect())
        .collect();
    let mut skipped = 0u64;
    let mut done_keys: BTreeSet<(String, u64, String)> = BTreeSet::new();
    let (resume_torn, prior_lines) = match &resume {
        Some(r) => (r.torn, r.prior_lines),
        None => (0, 0),
    };
    if let Some(r) = &resume {
        for (si, prep) in preps.iter().enumerate() {
            for (ri, &(site, _kind, policy)) in prep.matrix.iter().enumerate() {
                let key = (prep.scn.id().to_string(), site, policy_name(policy));
                if let Some(trial) = r.done.get(&key) {
                    *results[si][ri].lock().unwrap_or_else(|p| p.into_inner()) =
                        Some(trial.clone());
                    done_keys.insert(key);
                    skipped += 1;
                }
            }
        }
        // Journaled trials whose key no longer appears in any matrix
        // would silently vanish from the diff — treat as corruption.
        for key in r.done.keys() {
            if !done_keys.contains(key) {
                return Err(FleetError::Journal(format!(
                    "journaled trial ({}, site {}, {}) is not in the trial \
                     matrix this configuration generates",
                    key.0, key.1, key.2
                )));
            }
        }
    }
    rec.add("fleet.trials_skipped", skipped);

    // Round-robin interleave: one row from each scenario in turn.
    let mut queue: Vec<QueueItem> = Vec::new();
    let mut cursors = vec![0usize; preps.len()];
    loop {
        let mut any = false;
        for (si, prep) in preps.iter().enumerate() {
            while cursors[si] < prep.matrix.len() {
                let ri = cursors[si];
                cursors[si] += 1;
                let occupied = results[si][ri]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .is_some();
                if !occupied {
                    queue.push((si, ri));
                    any = true;
                    break;
                }
            }
        }
        if !any {
            break;
        }
    }
    let total_rows: usize = preps.iter().map(|p| p.matrix.len()).sum();
    rec.event(
        "fleet.queue_built",
        vec![
            ("rows", Value::U64(total_rows as u64)),
            ("queued", Value::U64(queue.len() as u64)),
            ("resumed", Value::U64(skipped)),
        ],
    );

    // -- phase 3: drain --------------------------------------------------
    let next = AtomicUsize::new(0);
    let exec_slots = AtomicU64::new(0);
    let executed_ctr = AtomicU64::new(0);
    let limit = cfg.trial_limit.unwrap_or(u64::MAX);
    let journal: Option<Mutex<JournalWriter>> = writer.map(Mutex::new);
    let journal_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let seed = campaign.seed();
    let stride = campaign.stride();
    std::thread::scope(|s| {
        for _ in 0..workers.min(queue.len().max(1)) {
            s.spawn(|| loop {
                // Pre-claim an execution slot: once `limit` slots are
                // out, no worker takes another queue index — the run
                // stops at exactly `trial_limit` executed trials.
                if exec_slots.fetch_add(1, Ordering::Relaxed) >= limit {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(si, ri)) = queue.get(i) else { break };
                let prep = &preps[si];
                let row = prep.matrix[ri];
                let t0 = Instant::now();
                let trial = prep.run_row(campaign, row);
                rec.observe_duration("fleet.trial_us", t0.elapsed());
                rec.add("fleet.trials_executed", 1);
                executed_ctr.fetch_add(1, Ordering::Relaxed);
                rec.event(
                    "fleet.trial_done",
                    vec![
                        ("scenario", Value::Str(prep.scn.id().to_string())),
                        ("site", Value::U64(trial.site)),
                        ("verdict", Value::Str(trial.verdict.as_str().to_string())),
                        (
                            "remaining",
                            Value::U64(
                                (queue.len() as u64)
                                    .saturating_sub(next.load(Ordering::Relaxed) as u64),
                            ),
                        ),
                    ],
                );
                if let Some(j) = &journal {
                    let line = trial_json(prep.scn.id(), seed, stride, &trial);
                    let mut w = j.lock().unwrap_or_else(|p| p.into_inner());
                    if let Err(e) = w.append(&line) {
                        *journal_err.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
                        break;
                    }
                }
                *results[si][ri].lock().unwrap_or_else(|p| p.into_inner()) = Some(trial);
            });
        }
    });
    if let Some(e) = journal_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(FleetError::Io(e));
    }
    let (journal_appended, journal_syncs) = match journal {
        Some(j) => {
            let mut w = j.into_inner().unwrap_or_else(|p| p.into_inner());
            w.sync()?;
            (w.appended() - base_appended, w.syncs())
        }
        None => (0, 0),
    };

    // -- phase 4: assemble -----------------------------------------------
    let executed = executed_ctr.into_inner();
    let mut complete = true;
    let scenario_reports = preps
        .into_iter()
        .zip(results)
        .map(|(prep, slots)| {
            let trials: Vec<Trial> = slots
                .into_iter()
                .filter_map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
                .collect();
            if trials.len() < prep.matrix.len() {
                complete = false;
            }
            finish_scenario(prep, trials)
        })
        .collect();
    let report = FleetReport {
        campaign: CampaignReport {
            scenarios: scenario_reports,
            // The report keeps no analysis cache alive: nothing reads
            // it from a finished campaign.
            config: CampaignConfig {
                cache: None,
                ..campaign.clone()
            },
        },
        workers,
        executed,
        skipped,
        complete,
        wall_ms: start.elapsed().as_millis() as u64,
        journal_appended,
        journal_syncs,
        resume_torn,
    };
    rec.event(
        "fleet.done",
        vec![
            ("executed", Value::U64(report.executed)),
            ("skipped", Value::U64(report.skipped)),
            ("complete", Value::Bool(report.complete)),
            ("wall_ms", Value::U64(report.wall_ms)),
            ("prior_lines", Value::U64(prior_lines)),
        ],
    );
    Ok(report)
}
