//! The campaign runtime: one resumable trial queue.
//!
//! One pool of workers prepares every scenario (enumeration, invariant
//! mining, matrix construction) and drains the trials of all of them.
//! A worker prepares the next unclaimed scenario while one remains;
//! otherwise it takes the next queued row of any prepared scenario; it
//! waits only when nothing is queued and a prepare is still running. So
//! a slow prepare overlaps the trials of the scenarios prepared before
//! it, long scenarios do not serialize behind short ones, and the pool
//! stays saturated until the very last trial. One scenario, one worker
//! and no journal are this path's degenerate cases, not separate
//! runners.
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
//!   syncs every [`FleetConfigBuilder::fsync_batch`] lines, so at most one
//!   batch of trials re-executes — idempotently, to identical verdicts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use arthas::{AnalysisCache, ConfigError};
use obs::journal::{read_journal, JournalWriter};
use obs::{Field, Json, NullRecorder, Recorder, Schema, Value};
use pm_workload::{CrashCapture, Scenario};
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
    Json::obj([
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
    ])
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
    done: BTreeMap<TrialKey, Trial>,
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
    /// Capture passes run: at most one per scenario with a row to run
    /// (`fleet.capture_passes`).
    pub capture_passes: u64,
}

impl FleetReport {
    /// Human-readable one-screen fleet summary.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} worker(s), {} trial(s) executed, {} resumed from journal, \
             {} capture pass(es), {:.1}s wall{}",
            self.workers,
            self.executed,
            self.skipped,
            self.capture_passes,
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

/// The key of a journaled trial: `(scenario, site, policy name)`.
type TrialKey = (String, u64, String);

/// A resume's refusal of a journaled trial this configuration's matrices
/// do not hold: it would silently vanish from the document.
fn foreign_trial(key: &TrialKey) -> FleetError {
    FleetError::Journal(format!(
        "journaled trial ({}, site {}, {}) is not in the trial matrix this \
         configuration generates",
        key.0, key.1, key.2
    ))
}

/// Admits a prepared scenario: its journaled verdicts by matrix row, and
/// the rows left to run. A journaled trial of this scenario that its
/// matrix does not hold is corruption.
fn admit(
    prep: &PreparedScenario<'_>,
    resume: Option<&ResumeState>,
) -> Result<(Vec<Option<Trial>>, Vec<usize>), FleetError> {
    let id = prep.scn.id();
    let key = |&(site, _, policy): &crate::MatrixRow| (id.to_string(), site, policy_name(policy));
    let done = |ri: usize| resume.and_then(|r| r.done.get(&key(&prep.matrix[ri])));
    let results: Vec<Option<Trial>> = (0..prep.matrix.len()).map(|ri| done(ri).cloned()).collect();
    let fresh = (0..prep.matrix.len())
        .filter(|&ri| results[ri].is_none())
        .collect();
    if let Some(r) = resume {
        let held: BTreeSet<TrialKey> = prep.matrix.iter().map(key).collect();
        if let Some(k) = r.done.keys().find(|k| k.0 == id && !held.contains(*k)) {
            return Err(foreign_trial(k));
        }
    }
    Ok((results, fresh))
}

/// A scenario once its prepare ended: the preparation, its verdicts by
/// matrix row (journaled ones from admission, live ones as their trials
/// end), and the crash captures of the rows left to run.
struct Admitted<'a> {
    prep: PreparedScenario<'a>,
    results: Mutex<Vec<Option<Trial>>>,
    /// By matrix row, set by the scenario's one capture pass, which the
    /// worker that claims its first row runs before classifying it. Each
    /// row takes its own capture out, so a scenario's captures live only
    /// while its rows are in flight.
    captures: OnceLock<Mutex<Vec<Option<CrashCapture>>>>,
}

/// What the workers share, behind one lock.
#[derive(Default)]
struct Work {
    /// The next scenario no worker has claimed to prepare.
    next_scenario: usize,
    /// Scenarios admitted; the others below `next_scenario` are being
    /// prepared.
    admitted: usize,
    /// Unclaimed rows of admitted scenarios: (scenario, matrix row).
    queue: VecDeque<(usize, usize)>,
    /// Rows of the admitted matrices that were queued, and those
    /// re-admitted from the journal.
    queued: u64,
    skipped: u64,
    /// Trials claimed for execution.
    claimed: u64,
    /// Scenarios whose capture pass is running: no other worker claims
    /// their rows until it ends.
    capturing: BTreeSet<usize>,
    /// Set on the first error or worker panic: no worker claims more.
    stop: bool,
    error: Option<FleetError>,
}

/// The workers' shared state and the condition variable idle workers
/// wait on for a prepare to admit rows or a capture pass to end.
#[derive(Default)]
struct Board {
    work: Mutex<Work>,
    wake: Condvar,
}

impl Board {
    fn lock(&self) -> MutexGuard<'_, Work> {
        self.work.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Stops every worker, keeping the first error.
    fn stop(&self, error: Option<FleetError>) {
        let mut w = self.lock();
        w.stop = true;
        if w.error.is_none() {
            w.error = error;
        }
        drop(w);
        self.wake.notify_all();
    }
}

/// Locks `m`, recovering from poisoning: a worker that panicked holding
/// it stopped the run, and the data it guards is only read back.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Stops the other workers when the worker holding it panics, so none
/// waits for a prepare that will never be admitted or a capture pass that
/// will never end; the panic then propagates out of the thread scope.
struct StopOnPanic<'b>(&'b Board);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop(None);
        }
    }
}

/// A worker's next piece of work.
enum Job {
    /// Prepare and admit this scenario.
    Prepare(usize),
    /// Run matrix row `ri` of scenario `si`, after the scenario's capture
    /// pass when `pass` (its first row claimed); the queue held
    /// `remaining` unclaimed rows after it was taken.
    Trial {
        si: usize,
        ri: usize,
        remaining: u64,
        pass: bool,
    },
}

/// Runs a campaign over the given scenarios.
///
/// One pool of [`CampaignConfig::runners`] workers does all the work.
/// Each worker repeatedly takes, in this order:
///
/// 1. **prepare** — the next scenario nobody has claimed: its
///    enumeration run, invariant mining and matrix construction (the
///    analysis cache in the campaign config deduplicates module analysis
///    across scenarios sharing an application). Then it **admits** the
///    scenario: on resume, journaled verdicts fill their result slots
///    directly, and every other row joins the back of the queue. A
///    journaled trial the matrix does not hold stops the run with
///    [`FleetError::Journal`]. `fleet.queue_built` fires once, when the
///    last scenario is admitted.
/// 2. **trial** — otherwise, the next queued row of any admitted
///    scenario whose capture pass is not running elsewhere: classify it,
///    journal the verdict, repeat. The worker that claims a scenario's
///    first row first runs its **capture pass**: the workload replayed
///    once with every row left to run armed, which takes each row's
///    post-crash machine on a fork (`fleet.capture_passes`, one per
///    scenario). An exact `trial_limit` is enforced by claiming an
///    execution slot with the row, which is also how tests simulate a
///    kill at a precise queue depth.
///
/// A worker waits only when every queued row waits on a capture pass, or
/// nothing is queued and a prepare is still running, so no worker idles
/// while a slow scenario prepares or captures. Finally,
/// **assemble**: per-scenario canonical sort + census over result slots
/// indexed by matrix row, so the document does not depend on which
/// worker classified which row or in what order.
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
    // A journaled scenario this campaign does not run is refused before
    // any prepare; one a matrix does not hold, at its admission.
    if let Some(r) = &resume {
        if let Some(k) = r
            .done
            .keys()
            .find(|k| !scenario_ids.contains(&k.0.as_str()))
        {
            return Err(foreign_trial(k));
        }
    }
    // A fresh run just appended the header through this writer;
    // `journal_appended` must report *trial* lines only.
    let base_appended = writer.as_ref().map_or(0, |w| w.appended());
    let (resume_torn, prior_lines) = match &resume {
        Some(r) => (r.torn, r.prior_lines),
        None => (0, 0),
    };

    let slots: Vec<OnceLock<Admitted<'_>>> = scenarios.iter().map(|_| OnceLock::new()).collect();
    let board = Board::default();
    let executed_ctr = AtomicU64::new(0);
    let passes_ctr = AtomicU64::new(0);
    let limit = cfg.trial_limit.unwrap_or(u64::MAX);
    let journal: Option<Mutex<JournalWriter>> = writer.map(Mutex::new);
    let seed = campaign.seed();
    let stride = campaign.stride();
    let queue_built = |w: &Work| {
        rec.add("fleet.trials_skipped", w.skipped);
        rec.event("fleet.queue_built", &|| {
            vec![
                ("rows", Value::U64(w.queued + w.skipped)),
                ("queued", Value::U64(w.queued)),
                ("resumed", Value::U64(w.skipped)),
                (
                    "trials_done",
                    Value::U64(executed_ctr.load(Ordering::Relaxed)),
                ),
            ]
        });
    };
    if scenarios.is_empty() {
        queue_built(&Work::default());
    }
    let next_job = || {
        let mut w = board.lock();
        loop {
            if w.stop {
                return None;
            }
            if w.next_scenario < scenarios.len() {
                w.next_scenario += 1;
                return Some(Job::Prepare(w.next_scenario - 1));
            }
            if w.claimed >= limit {
                return None;
            }
            let open = w.queue.iter().position(|(si, _)| !w.capturing.contains(si));
            if let Some((si, ri)) = open.and_then(|at| w.queue.remove(at)) {
                w.claimed += 1;
                let a = slots[si]
                    .get()
                    .expect("a queued row's scenario is admitted");
                let pass = a.captures.get().is_none();
                if pass {
                    w.capturing.insert(si);
                }
                let remaining = w.queue.len() as u64;
                return Some(Job::Trial {
                    si,
                    ri,
                    remaining,
                    pass,
                });
            }
            if w.queue.is_empty() && w.admitted == w.next_scenario {
                return None;
            }
            w = board.wake.wait(w).unwrap_or_else(|p| p.into_inner());
        }
    };
    let prepare = |i: usize| {
        let scn = scenarios[i].as_ref();
        let t0 = Instant::now();
        let prep = prepare_scenario(scn, campaign);
        rec.event("fleet.scenario_ready", &|| {
            vec![
                ("id", Value::Str(scn.id().to_string())),
                ("sites", Value::U64(prep.sites_total)),
                ("rows", Value::U64(prep.matrix.len() as u64)),
                ("prepare_us", Value::U64(t0.elapsed().as_micros() as u64)),
                ("replays", Value::U64(u64::from(prep.replays))),
            ]
        });
        let (results, fresh) = match admit(&prep, resume.as_ref()) {
            Ok(admitted) => admitted,
            Err(e) => return board.stop(Some(e)),
        };
        let rows = prep.matrix.len() as u64;
        let _ = slots[i].set(Admitted {
            prep,
            results: Mutex::new(results),
            captures: OnceLock::new(),
        });
        let mut w = board.lock();
        w.admitted += 1;
        w.queued += fresh.len() as u64;
        w.skipped += rows - fresh.len() as u64;
        w.queue.extend(fresh.into_iter().map(|ri| (i, ri)));
        if w.admitted == scenarios.len() {
            queue_built(&w);
        }
        drop(w);
        board.wake.notify_all();
    };
    let run_row = |si: usize, ri: usize, remaining: u64, pass: bool| -> Result<(), FleetError> {
        let a = slots[si]
            .get()
            .expect("a queued row's scenario is admitted");
        let t0 = Instant::now();
        if pass {
            // No other row of the scenario is claimed until the pass
            // ends, so the rows without a verdict are the ones admission
            // queued.
            let rows: Vec<usize> = lock(&a.results)
                .iter()
                .enumerate()
                .filter_map(|(ri, t)| t.is_none().then_some(ri))
                .collect();
            let _ = a.captures.set(Mutex::new(a.prep.capture(campaign, &rows)));
            passes_ctr.fetch_add(1, Ordering::Relaxed);
            rec.add("fleet.capture_passes", 1);
            rec.event("fleet.capture_pass", &|| {
                vec![
                    ("scenario", Value::Str(a.prep.scn.id().to_string())),
                    ("rows", Value::U64(rows.len() as u64)),
                    ("pass_us", Value::U64(t0.elapsed().as_micros() as u64)),
                ]
            });
            board.lock().capturing.remove(&si);
            board.wake.notify_all();
        }
        let captures = a.captures.get().expect("a row runs after its capture pass");
        let capture = lock(captures)[ri].take();
        let (trial, work) = a.prep.run_row(campaign, ri, capture);
        rec.observe_duration("fleet.trial_us", t0.elapsed());
        rec.add("fleet.trials_executed", 1);
        rec.add("fleet.restarts_paid", u64::from(work.paid));
        rec.add("reactor.plan_entries", work.plan.entries);
        rec.add("reactor.plan_offsets", work.plan.offsets);
        rec.add("reactor.plan_expected", work.plan.expected);
        executed_ctr.fetch_add(1, Ordering::Relaxed);
        rec.event("fleet.trial_done", &|| {
            vec![
                ("scenario", Value::Str(a.prep.scn.id().to_string())),
                ("site", Value::U64(trial.site)),
                ("verdict", Value::Str(trial.verdict.as_str().to_string())),
                ("paid", Value::U64(u64::from(work.paid))),
                ("remaining", Value::U64(remaining)),
            ]
        });
        if let Some(j) = &journal {
            let line = trial_json(a.prep.scn.id(), seed, stride, &trial);
            lock(j).append(&line)?;
        }
        lock(&a.results)[ri] = Some(trial);
        Ok(())
    };
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let _stop = StopOnPanic(&board);
                while let Some(job) = next_job() {
                    match job {
                        Job::Prepare(i) => prepare(i),
                        Job::Trial {
                            si,
                            ri,
                            remaining,
                            pass,
                        } => {
                            if let Err(e) = run_row(si, ri, remaining, pass) {
                                board.stop(Some(e));
                            }
                        }
                    }
                }
            });
        }
    });
    let work = board.work.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(e) = work.error {
        return Err(e);
    }
    let skipped = work.skipped;
    let (journal_appended, journal_syncs) = match journal {
        Some(j) => {
            let mut w = j.into_inner().unwrap_or_else(|p| p.into_inner());
            w.sync()?;
            (w.appended() - base_appended, w.syncs())
        }
        None => (0, 0),
    };

    let executed = executed_ctr.into_inner();
    let mut complete = true;
    let scenario_reports = slots
        .into_iter()
        .map(|slot| {
            let a = slot.into_inner().expect("every scenario admitted");
            let trials: Vec<Trial> = a
                .results
                .into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .into_iter()
                .flatten()
                .collect();
            if trials.len() < a.prep.matrix.len() {
                complete = false;
            }
            finish_scenario(a.prep, trials)
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
        capture_passes: passes_ctr.into_inner(),
    };
    rec.event("fleet.done", &|| {
        vec![
            ("executed", Value::U64(report.executed)),
            ("skipped", Value::U64(report.skipped)),
            ("complete", Value::Bool(report.complete)),
            ("wall_ms", Value::U64(report.wall_ms)),
            ("prior_lines", Value::U64(prior_lines)),
        ]
    });
    Ok(report)
}
