//! # inject — deterministic crash-point injection campaigns
//!
//! A systematic crash-consistency exerciser over the fault scenarios
//! (WITCHER-style exploration adapted to the Arthas pipeline): enumerate
//! every durability boundary a scenario run crosses (`pmemsim`'s
//! monotonic site counter numbers each persist, drain, alloc, free and
//! transaction boundary), then replay the identical workload once per
//! *trial* — a (site, [`CrashPolicy`]) pair — crashing the pool exactly
//! at that boundary and feeding the raw post-crash image through the
//! detection/mitigation pipeline.
//!
//! Every trial ends in one of six [`TrialVerdict`]s:
//!
//! - **clean-recovery** — pool reopen + application recovery + the
//!   scenario's verification workload and domain invariants all pass
//!   without Arthas intervening;
//! - **mitigated** — recovery kept failing (the detector ruled
//!   suspected-hard), the reactor reverted checkpointed updates, and the
//!   system then passed the full consistency check;
//! - **unrecoverable** — the reactor exhausted its budget without
//!   restoring an operational system;
//! - **invariant-violated** — the system *looks* operational after
//!   recovery or mitigation but the scenario's consistency routine finds
//!   broken domain invariants (lost durability it should have kept);
//! - **silent-corruption** — recovery passes *and* the scenario's own
//!   checks pass, but the raw post-crash image breaks an invariant the
//!   [`invariants`] miner promoted from passing runs (the application
//!   cannot see the damage; the mined oracle can);
//! - **not-reached** — the armed site never fired on replay, which a
//!   deterministic workload should make impossible; a nonzero count is a
//!   determinism bug, and the CI campaign treats it as one.
//!
//! [`run_fleet`] is the one function that runs trials: every scenario's
//! rows merge into one queue drained by [`CampaignConfig::runners`]
//! workers, optionally journaled and resumable ([`fleet`]). Results
//! aggregate into a schema-validated JSON matrix (site × policy ×
//! verdict) plus a human-readable coverage table; the `inject` CLI
//! subcommand drives it.

use std::collections::BTreeMap;
use std::sync::Arc;

use arthas::{
    reopen, AnalysisCache, ConfigError, Episode, FailureRecord, Ladder, LogView, MitigationOutcome,
    Reactor, ReactorConfig, Restart, Rung, SharedLog, Subject,
};
use obs::{Field, Json, Schema};
use pir::vm::{Vm, VmOpts};
use pm_workload::{
    run_with_injection, AppSetup, CrashCapture, InjectionOutcome, RunConfig, Scenario,
    SiteInjection,
};
use pmemsim::{CrashPolicy, PmPool, PoolGroup, SiteKind};

pub mod fleet;
pub mod invariants;

pub use fleet::{
    read_header, run_fleet, FleetConfig, FleetConfigBuilder, FleetError, FleetReport, JournalHeader,
};
pub use invariants::{MinedInvariant, MinedInvariants};

/// Version stamp of the campaign matrix document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Restart attempts the classifier grants the application before the
/// detector's verdict decides between clean recovery and mitigation
/// (mirrors the production harness's restart-based detection): the round
/// budget of a trial's recovery [`Episode`].
///
/// These are the restarts the detector observes, and a trial's
/// `restarts` counts them; they are not all paid. Until the mitigation
/// every watch reopens the same unchanged image, so only the first one
/// restarts and the others take its failure.
pub const MAX_TRIAL_RESTARTS: u32 = 3;

// ---------------------------------------------------------------------------
// Campaign configuration
// ---------------------------------------------------------------------------

/// Parameters of one injection campaign.
///
/// The builder is the only construction path — the struct-literal
/// fields deprecated in 0.4.0 have been removed.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Maximum trials per scenario (site × policy pairs), ≥ 1.
    budget: usize,
    /// Test every `stride`-th site, ≥ 1 (1 = exhaustive).
    stride: u64,
    /// Worker threads running trials, ≥ 1. Verdicts are
    /// runner-count-independent: trials are indexed up front and results
    /// land by index.
    runners: usize,
    /// Workload seed shared by the enumeration run and every trial (the
    /// replay contract: same seed ⇒ same boundary sequence).
    seed: u64,
    /// Crash policies applied at each tested site.
    policies: Vec<CrashPolicy>,
    /// Reactor configuration for trials that need mitigation.
    reactor: ReactorConfig,
    /// Mine likely invariants from passing runs and evaluate them as an
    /// oracle over every trial's raw post-crash image (adds the
    /// `silent_corruption` verdict class).
    invariants: bool,
    /// Optional analysis cache: scenarios over the same application
    /// module share one `ModuleAnalysis` (and a persistent cache makes
    /// repeated campaign invocations skip analysis entirely). Every
    /// trial of a scenario already shares its scenario's analysis;
    /// verdicts are cache-independent.
    cache: Option<Arc<AnalysisCache>>,
    /// Hot-standby replicas behind every trial's crashed pool, fed from
    /// the checkpoint stream. `0` (the default) takes exactly the
    /// single-pool mitigation path — the campaign matrix is
    /// byte-identical to a pre-replication build.
    replicas: usize,
    /// Replica-side fault injected into each trial's group (requires
    /// `replicas >= 1`).
    replica_fault: Option<ReplicaFault>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            budget: 400,
            stride: 1,
            runners: 1,
            seed: 1,
            policies: vec![CrashPolicy::DropStaged, CrashPolicy::KeepStaged],
            reactor: ReactorConfig::default(),
            invariants: false,
            cache: None,
            replicas: 0,
            replica_fault: None,
        }
    }
}

impl CampaignConfig {
    /// A validating builder seeded with the defaults.
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            cfg: CampaignConfig::default(),
        }
    }

    /// Maximum trials per scenario.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Site stride.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Parallel trial runners.
    pub fn runners(&self) -> usize {
        self.runners
    }

    /// Workload seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Crash policies applied at each tested site.
    pub fn policies(&self) -> &[CrashPolicy] {
        &self.policies
    }

    /// Whether the mined-invariant oracle is on.
    pub fn invariants(&self) -> bool {
        self.invariants
    }

    /// Hot-standby replicas per trial.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Replica-side fault mode, when configured.
    pub fn replica_fault(&self) -> Option<ReplicaFault> {
        self.replica_fault
    }
}

/// Validating builder for [`CampaignConfig`].
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    cfg: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Maximum trials per scenario (default 400).
    pub fn budget(mut self, budget: usize) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Site stride (default 1 = every site).
    pub fn stride(mut self, stride: u64) -> Self {
        self.cfg.stride = stride;
        self
    }

    /// Parallel trial runners (default 1).
    pub fn runners(mut self, runners: usize) -> Self {
        self.cfg.runners = runners;
        self
    }

    /// Workload seed (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Crash policies to apply at each tested site (default
    /// `DropStaged` + `KeepStaged`).
    pub fn policies(mut self, policies: Vec<CrashPolicy>) -> Self {
        self.cfg.policies = policies;
        self
    }

    /// Reactor configuration for mitigation trials.
    pub fn reactor(mut self, reactor: ReactorConfig) -> Self {
        self.cfg.reactor = reactor;
        self
    }

    /// Enable the mined-invariant oracle (default off): passing runs are
    /// mined for likely invariants, and every clean-recovery trial's raw
    /// image is re-judged against the promoted set.
    pub fn invariants(mut self, enabled: bool) -> Self {
        self.cfg.invariants = enabled;
        self
    }

    /// Analysis cache shared by the campaign's scenarios (default none:
    /// each scenario computes its own analysis).
    pub fn analysis_cache(mut self, cache: Option<Arc<AnalysisCache>>) -> Self {
        self.cfg.cache = cache;
        self
    }

    /// Hot-standby replicas behind every trial's pool (default 0 — the
    /// single-pool path, byte-identical matrices).
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.cfg.replicas = replicas;
        self
    }

    /// Replica-side fault injected into every trial's group (default
    /// none; requires at least one replica).
    pub fn replica_fault(mut self, fault: Option<ReplicaFault>) -> Self {
        self.cfg.replica_fault = fault;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<CampaignConfig, ConfigError> {
        if self.cfg.budget == 0 {
            return Err(ConfigError("budget must be at least 1 trial".into()));
        }
        if self.cfg.stride == 0 {
            return Err(ConfigError("stride must be at least 1".into()));
        }
        if self.cfg.runners == 0 {
            return Err(ConfigError("runners must be at least 1".into()));
        }
        if self.cfg.policies.is_empty() {
            return Err(ConfigError("at least one crash policy is required".into()));
        }
        if self.cfg.replica_fault.is_some() && self.cfg.replicas == 0 {
            return Err(ConfigError(
                "a replica fault requires at least one replica".into(),
            ));
        }
        // The matrix only admits whole sites (every policy at a site, or
        // none — partially-tested sites would skew the census), so the
        // budget must fit at least one full policy row.
        if self.cfg.budget < self.cfg.policies.len() {
            return Err(ConfigError(format!(
                "budget {} cannot fit one site under {} policies",
                self.cfg.budget,
                self.cfg.policies.len()
            )));
        }
        Ok(self.cfg)
    }
}

/// Parses a `--policies` list (`drop`, `keep`, `random`) into concrete
/// policies; `random` expands to `seeds` deterministic [`CrashPolicy::
/// RandomStaged`] variants derived from `base_seed`.
pub fn parse_policies(
    spec: &str,
    seeds: u32,
    base_seed: u64,
) -> Result<Vec<CrashPolicy>, ConfigError> {
    let mut out = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match name {
            "drop" => out.push(CrashPolicy::DropStaged),
            "keep" => out.push(CrashPolicy::KeepStaged),
            "random" => {
                if seeds == 0 {
                    return Err(ConfigError("random policy needs --seeds >= 1".into()));
                }
                for k in 0..seeds {
                    out.push(CrashPolicy::RandomStaged(
                        base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(k),
                    ));
                }
            }
            other => {
                return Err(ConfigError(format!(
                    "unknown crash policy `{other}` (expected drop, keep or random)"
                )))
            }
        }
    }
    if out.is_empty() {
        return Err(ConfigError("empty policy list".into()));
    }
    Ok(out)
}

/// Canonical name of a crash policy in the matrix document.
pub fn policy_name(p: CrashPolicy) -> String {
    match p {
        CrashPolicy::DropStaged => "drop".into(),
        CrashPolicy::KeepStaged => "keep".into(),
        CrashPolicy::RandomStaged(seed) => format!("random:{seed}"),
    }
}

/// Inverse of [`policy_name`] — the resume path reconstructs policies
/// from the journal header's canonical names.
pub fn policy_from_name(name: &str) -> Option<CrashPolicy> {
    match name {
        "drop" => Some(CrashPolicy::DropStaged),
        "keep" => Some(CrashPolicy::KeepStaged),
        _ => name
            .strip_prefix("random:")?
            .parse()
            .ok()
            .map(CrashPolicy::RandomStaged),
    }
}

/// The replica-side fault mode of a replicated campaign (the
/// `--replica-fault` dimension): every trial's pool group takes this
/// fault before mitigation runs, and the gate is that replica damage is
/// *contained* — a corrupted or torn standby may be rejected at
/// promote-verification time, but it must never worsen a verdict the
/// single-pool pipeline would have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFault {
    /// The same image bit flipped in every replica (one bad batch of
    /// DIMMs): failover must reject the whole standby set and fall back
    /// to the primary-image verdict.
    Correlated,
    /// A different bit flipped per replica (independent media faults).
    Independent,
    /// Replica 0 crashes mid-apply of a checkpoint record (torn
    /// replication): half the record's bytes land, the replica faults,
    /// and the survivors lag at the rewound cursor.
    TornApply,
}

impl ReplicaFault {
    /// Stable document/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaFault::Correlated => "correlated",
            ReplicaFault::Independent => "independent",
            ReplicaFault::TornApply => "torn",
        }
    }

    /// Inverse of [`ReplicaFault::as_str`].
    pub fn parse(s: &str) -> Option<ReplicaFault> {
        [
            ReplicaFault::Correlated,
            ReplicaFault::Independent,
            ReplicaFault::TornApply,
        ]
        .into_iter()
        .find(|f| f.as_str() == s)
    }
}

// ---------------------------------------------------------------------------
// Verdicts and results
// ---------------------------------------------------------------------------

/// Classification of one injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrialVerdict {
    /// Restart-based recovery restored an operational, consistent system.
    CleanRecovery,
    /// The reactor reverted checkpointed updates and the system passed
    /// the consistency check afterwards.
    Mitigated,
    /// Neither recovery nor mitigation produced an operational system.
    Unrecoverable,
    /// The system runs but the scenario's domain invariants are broken.
    InvariantViolated,
    /// Recovery and the scenario's own checks pass, but the raw
    /// post-crash image breaks a mined invariant ([`invariants`]).
    SilentCorruption,
    /// The armed site never fired on replay (a determinism bug).
    NotReached,
}

impl TrialVerdict {
    /// Stable document name.
    pub fn as_str(self) -> &'static str {
        match self {
            TrialVerdict::CleanRecovery => "clean_recovery",
            TrialVerdict::Mitigated => "mitigated",
            TrialVerdict::Unrecoverable => "unrecoverable",
            TrialVerdict::InvariantViolated => "invariant_violated",
            TrialVerdict::SilentCorruption => "silent_corruption",
            TrialVerdict::NotReached => "not_reached",
        }
    }

    /// Inverse of [`TrialVerdict::as_str`] — journal lines carry the
    /// document name.
    pub fn parse(s: &str) -> Option<TrialVerdict> {
        [
            TrialVerdict::CleanRecovery,
            TrialVerdict::Mitigated,
            TrialVerdict::Unrecoverable,
            TrialVerdict::InvariantViolated,
            TrialVerdict::SilentCorruption,
            TrialVerdict::NotReached,
        ]
        .into_iter()
        .find(|v| v.as_str() == s)
    }
}

/// One cell of the site × policy matrix.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The durability-boundary index the crash was armed at.
    pub site: u64,
    /// What kind of boundary it is (from the enumeration census).
    pub kind: SiteKind,
    /// The crash policy applied.
    pub policy: CrashPolicy,
    /// The classified outcome.
    pub verdict: TrialVerdict,
    /// Restarts consumed by the classifier (including production
    /// restarts before the site fired).
    pub restarts: u32,
    /// Reactor re-executions, when mitigation ran.
    pub attempts: u32,
}

/// Campaign results for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioCampaign {
    /// Scenario id (`"f1"`…).
    pub id: &'static str,
    /// Target system name.
    pub system: &'static str,
    /// Total durability boundaries the enumeration run crossed.
    pub sites_total: u64,
    /// Distinct sites actually tested (after stride and budget).
    pub sites_tested: u64,
    /// Census of *tested* sites by boundary kind: distinct sites, not
    /// trials, so the per-kind counts sum to `sites_tested` at any
    /// stride or policy count.
    pub site_kinds: BTreeMap<&'static str, u64>,
    /// Every classified trial, in canonical (site, policy-name) order.
    pub trials: Vec<Trial>,
    /// The mined-invariant oracle's promotion summary, when the campaign
    /// ran with invariants enabled.
    pub invariants: Option<MinedInvariants>,
}

impl ScenarioCampaign {
    /// Verdict → count map over the trials.
    pub fn verdict_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for t in &self.trials {
            *m.entry(t.verdict.as_str()).or_insert(0) += 1;
        }
        m
    }

    /// Number of trials with the given verdict.
    pub fn count(&self, v: TrialVerdict) -> u64 {
        self.trials.iter().filter(|t| t.verdict == v).count() as u64
    }
}

/// A full campaign: one [`ScenarioCampaign`] per requested scenario.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioCampaign>,
    /// The configuration the campaign ran under.
    pub config: CampaignConfig,
}

// ---------------------------------------------------------------------------
// Campaign execution
// ---------------------------------------------------------------------------

/// One attempted restart over a post-crash image.
enum RestartResult {
    /// Reopen, structural check, recovery and domain invariants all pass.
    Clean,
    /// The system is operational but the structural check or the
    /// scenario's invariants report issues (silent corruption).
    Inconsistent(FailureRecord),
    /// Reopen or recovery itself failed.
    Failed(FailureRecord),
}

/// The trial-level operational bar over a reopened post-crash image:
/// the pmempool-check analogue, application recovery, then the
/// scenario's domain invariants. Both the classifier's restarts and the
/// reactor's re-executions judge by it.
///
/// Deliberately *not* the production `check_consistency`: a mid-run crash
/// legitimately loses in-flight, unacknowledged work, so the scenario's
/// end-of-workload `verify` (which expects the complete dataset) does not
/// apply — only structural integrity and domain invariants do.
fn trial_check(scn: &dyn Scenario, vm: &mut Vm) -> RestartResult {
    let issues: Vec<String> = vm
        .pool_mut()
        .check()
        .iter()
        .map(|i| format!("{i:?}"))
        .collect();
    if let Err(e) = vm.call(scn.recover_call(), &[]) {
        return RestartResult::Failed(FailureRecord::from_vm(&e));
    }
    if let Some(check) = scn.invariant_call() {
        // A trap here carries the check's fault location — the anchor the
        // reactor slices backward from to find the updates to revert.
        if let Err(e) = vm.call(check, &[]) {
            return RestartResult::Inconsistent(FailureRecord::from_vm(&e));
        }
    }
    if issues.is_empty() {
        RestartResult::Clean
    } else {
        RestartResult::Inconsistent(FailureRecord::wrong_result(issues.join("; ")))
    }
}

/// Classifies a fired injection: restart-based recovery first (the
/// detector owns the soft-vs-hard call, seeded with the production run's
/// pre-crash observations), reactor mitigation when the verdict is
/// suspected-hard. Invariant breakage is itself handed to the reactor —
/// reverting the torn checkpointed updates is exactly its job — and
/// [`TrialVerdict::InvariantViolated`] is the verdict only when
/// mitigation cannot restore the invariants either.
///
/// One recovery [`Episode`] runs it: up to [`MAX_TRIAL_RESTARTS`] restarts
/// before a hard verdict, then at most one mitigation, whose recovered
/// image one more watch verifies ([`CrashedTrial`] says which watches
/// restart). The ladder is the primary-image
/// reversion (cross-checked against the standbys when the campaign has
/// any), then failover: replicas can rescue a trial but never preempt a
/// reversion that would have succeeded.
///
/// A clean recovery is additionally re-judged by the mined-invariant
/// oracle when the campaign promoted any (`--invariants`): a raw image
/// that breaks a promoted invariant downgrades the trial to
/// [`TrialVerdict::SilentCorruption`] — the application recovered onto
/// state every passing run contradicts.
///
/// Returns the verdict, the trial's `restarts` and `attempts`, and the
/// restarts it paid: the watches that restarted plus the mitigation's
/// re-execution rounds.
fn classify(
    scn: &dyn Scenario,
    setup: &AppSetup,
    cfg: &CampaignConfig,
    vm: VmOpts,
    policy: CrashPolicy,
    mined: &[MinedInvariant],
    mut capture: CrashCapture,
) -> (TrialVerdict, u32, u32, u32) {
    let detector = std::mem::take(&mut capture.detector);
    let ladder = [Rung::Reversion, Rung::Failover];
    let mut episode = Episode::new(detector, MAX_TRIAL_RESTARTS, &ladder)
        .cross_checked()
        .at_most(1);
    let mut trial = CrashedTrial {
        scn,
        setup,
        cfg,
        vm,
        policy,
        mined,
        capture,
        operational: false,
        silent: false,
        judged: None,
        mitigated: false,
        verified: false,
        paid: 0,
    };
    let end = episode.run(None, &mut trial);
    let verdict = match (end.healthy, &end.outcome) {
        (true, None) if trial.silent => TrialVerdict::SilentCorruption,
        (true, None) => TrialVerdict::CleanRecovery,
        (true, Some(_)) => TrialVerdict::Mitigated,
        (false, _) if trial.operational => TrialVerdict::InvariantViolated,
        (false, _) => TrialVerdict::Unrecoverable,
    };
    let (attempts, rounds) = end
        .outcome
        .map_or((0, 0), |o| (o.attempts, o.reexec_rounds));
    (
        verdict,
        trial.capture.restarts,
        attempts,
        trial.paid + rounds,
    )
}

/// A fired injection as the subject of its recovery [`Episode`]: a watch
/// restarts over a copy of the image and judges it by [`trial_check`].
///
/// A watch restarts only when its answer is not already known. Before
/// the mitigation every watch reopens the same unchanged image, so the
/// first one's failure answers the rest (they still count in
/// `restarts`: the detector observed them). After a mitigation that
/// recovered, the recovering rung's last re-execution ran this trial's
/// [`Restart`] over this very image and passed, so the verify watch
/// passes too. Debug builds restart anyway and require the same answer.
struct CrashedTrial<'t> {
    scn: &'t dyn Scenario,
    setup: &'t AppSetup,
    cfg: &'t CampaignConfig,
    /// The trial's production VM options: every restart runs under them,
    /// so it hangs exactly when production would.
    vm: VmOpts,
    policy: CrashPolicy,
    mined: &'t [MinedInvariant],
    /// The machine at the crash. Its pool is the raw post-crash image
    /// until the mitigation, and the image the reactor worked on after;
    /// its restarts count the watches before the mitigation too.
    capture: CrashCapture,
    /// Whether the last watch found the system running with its
    /// invariants broken (rather than not running at all).
    operational: bool,
    /// Whether a clean restart's raw image broke a mined invariant.
    silent: bool,
    /// The raw image's failure, once a watch has restarted it.
    judged: Option<FailureRecord>,
    mitigated: bool,
    /// Whether the mitigation recovered: its last re-execution passed on
    /// the image the next watch would restart.
    verified: bool,
    /// Watches that restarted the image.
    paid: u32,
}

impl CrashedTrial<'_> {
    /// One restart over a copy of the image, judged by [`trial_check`].
    fn restart(&self) -> RestartResult {
        match reopen(&self.setup.instrumented, self.vm, &self.capture.pool, None) {
            Ok(mut vm) => trial_check(self.scn, &mut vm),
            Err(rec) => RestartResult::Failed(rec),
        }
    }

    /// Requires a real restart to agree with `answer`, a watch's answer
    /// given without one: both `Ok`, or failures of the same kind, fault,
    /// detail and exit code, with the same `operational` flag.
    fn assert_known(&self, answer: &Result<(), FailureRecord>) {
        let (again, operational) = match self.restart() {
            RestartResult::Clean => (Ok(()), self.operational),
            RestartResult::Inconsistent(rec) => (Err(rec), true),
            RestartResult::Failed(rec) => (Err(rec), false),
        };
        let key = |r: &Result<(), FailureRecord>| {
            r.as_ref()
                .err()
                .map(|f| (f.kind, f.fault, f.detail.clone(), f.exit_code))
        };
        assert!(
            key(&again) == key(answer) && operational == self.operational,
            "{}: a watch answered {answer:?} without restarting; a restart says {again:?}",
            self.scn.id()
        );
    }
}

impl Subject for CrashedTrial<'_> {
    fn mitigate(&mut self, ladder: Ladder<'_>) -> MitigationOutcome {
        let c = &mut self.capture;
        // The pool-level reopen may itself fail on a torn image; the
        // reactor then works on the raw image (its reverts re-persist what
        // they touch).
        if let Ok(opened) = PmPool::open(c.pool.snapshot()) {
            c.pool = opened;
        }
        self.mitigated = true;
        let scn = self.scn;
        let probe = |vm: &mut Vm| match trial_check(scn, vm) {
            RestartResult::Clean => Ok(()),
            RestartResult::Inconsistent(rec) | RestartResult::Failed(rec) => Err(rec),
        };
        let restart = Restart {
            module: &self.setup.instrumented,
            vm: self.vm,
            probe: &probe,
        };
        let mut reactor =
            Reactor::new(&self.setup.analysis, &self.setup.guid_map, self.cfg.reactor);
        let mut group =
            (self.cfg.replicas > 0).then(|| build_trial_group(&c.pool, &c.log, self.cfg, c.site));
        let out = ladder.run(
            &mut reactor,
            &mut c.pool,
            &c.log,
            &c.trace,
            &restart,
            group.as_mut(),
        );
        self.verified = out.recovered;
        out
    }

    fn watch(&mut self) -> Result<(), FailureRecord> {
        let known = match (self.verified, self.mitigated) {
            (true, _) => Some(Ok(())),
            (false, true) => None,
            (false, false) => self.judged.clone().map(Err),
        };
        if !self.mitigated {
            self.capture.restarts += 1;
        }
        if let Some(answer) = known {
            if cfg!(debug_assertions) {
                self.assert_known(&answer);
            }
            return answer;
        }
        self.paid += 1;
        let rec = match self.restart() {
            RestartResult::Clean if self.mitigated => return Ok(()),
            RestartResult::Clean => {
                let image_is_durable = matches!(self.policy, CrashPolicy::DropStaged);
                let c = &mut self.capture;
                let viols = invariants::check_image(
                    self.mined,
                    &mut c.pool,
                    &c.log,
                    &c.trace,
                    image_is_durable,
                );
                if std::env::var_os("ARTHAS_INVARIANT_DEBUG").is_some() {
                    for v in &viols {
                        eprintln!("[invariant] {}: {v}", self.scn.id());
                    }
                }
                self.silent = !viols.is_empty();
                return Ok(());
            }
            RestartResult::Inconsistent(rec) => {
                self.operational = true;
                rec
            }
            RestartResult::Failed(rec) => {
                self.operational = false;
                rec
            }
        };
        if !self.mitigated {
            self.judged = Some(rec.clone());
        }
        Err(rec)
    }
}

/// Builds a trial's pool group from the crashed image and applies the
/// configured replica fault.
///
/// Replicas are seeded from the crashed snapshot itself with cursors at
/// the log frontier: a caught-up standby set is byte-identical to the
/// primary, so the reactor's cross-check localizes nothing and the
/// primary-image arm runs exactly the single-pool pipeline — replica
/// faults can only *rescue* a trial at failover time, never worsen it.
/// The injected faults exercise the containment machinery:
///
/// - [`ReplicaFault::Correlated`] / [`ReplicaFault::Independent`] flip
///   image bits at offsets outside every logged address range, so the
///   damage is invisible to the cross-check quorum (no logged bytes
///   differ) and must be caught — if the trial fails over — by promote
///   verification;
/// - [`ReplicaFault::TornApply`] rewinds the group to half the log
///   frontier and replays the tail into replica 0 with a torn apply
///   armed at the three-quarter mark: the record splices halfway, the
///   replica faults, and the survivors stay byte-identical at the
///   rewound cursor (lagging voters abstain from the cross-check).
fn build_trial_group(pool: &PmPool, log: &SharedLog, cfg: &CampaignConfig, site: u64) -> PoolGroup {
    let view = log.view();
    let latest = view.latest_seq();
    let mut group = match cfg.replica_fault {
        Some(ReplicaFault::TornApply) => PoolGroup::new(pool, cfg.replicas, latest / 2),
        _ => PoolGroup::new(pool, cfg.replicas, latest),
    };
    match cfg.replica_fault {
        None => {}
        Some(ReplicaFault::Correlated) => {
            let (off, bit) = unlogged_offset(&view, pool, site);
            for idx in 0..group.n() {
                let _ = group.corrupt_bit(idx, off, bit);
            }
        }
        Some(ReplicaFault::Independent) => {
            for idx in 0..group.n() {
                let salt = site ^ ((idx as u64 + 1) << 32);
                let (off, bit) = unlogged_offset(&view, pool, salt);
                let _ = group.corrupt_bit(idx, off, bit);
            }
        }
        Some(ReplicaFault::TornApply) => {
            let mid = latest / 2;
            group.arm_torn_apply(0, mid + (latest - mid) / 2);
            group.apply_stream(0, view.updates_since(mid));
        }
    }
    group
}

/// A deterministic pool offset outside the header and every logged
/// address range. Replica corruption there cannot masquerade as primary
/// corruption in the cross-check (whose quorum reads cover exactly the
/// logged addresses), so a corrupted standby is discovered the way a
/// real deployment would discover it: at promote-verification time.
fn unlogged_offset(view: &LogView<'_>, pool: &PmPool, salt: u64) -> (u64, u8) {
    let ranges: Vec<(u64, u64)> = {
        let addrs: std::collections::BTreeSet<u64> = view
            .all_seqs()
            .into_iter()
            .filter_map(|s| view.addr_of_seq(s))
            .collect();
        addrs
            .into_iter()
            .filter_map(|a| {
                let len = view
                    .entry(a)?
                    .versions
                    .iter()
                    .map(|v| v.data.len() as u64)
                    .max()?;
                Some((a, len))
            })
            .collect()
    };
    let heap = pmemsim::layout::HEAP_OFF;
    let span = pool.capacity().saturating_sub(heap).max(1);
    let mut off = heap + salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) % span;
    for _ in 0..1024 {
        if !ranges.iter().any(|&(a, l)| off >= a && off < a + l) {
            break;
        }
        off = heap + (off - heap + 257) % span;
    }
    (off, (salt % 8) as u8)
}

/// Runs one trial: replay the workload with the crash armed, classify
/// the outcome. Also returns the restarts the trial paid: the watches
/// that restarted the image plus the mitigation's re-execution rounds.
fn run_trial(
    scn: &dyn Scenario,
    setup: &AppSetup,
    cfg: &CampaignConfig,
    mined: &[MinedInvariant],
    site: u64,
    kind: SiteKind,
    policy: CrashPolicy,
) -> (Trial, u32) {
    let run_cfg = RunConfig {
        seed: cfg.seed,
        // The capture keeps pool, log and trace; a snapshot would be dropped.
        criu: false,
        injection: Some(SiteInjection { site, policy }),
        ..RunConfig::default()
    };
    match run_with_injection(scn, setup, &run_cfg) {
        InjectionOutcome::SiteCrash(capture) => {
            let (verdict, restarts, attempts, paid) =
                classify(scn, setup, cfg, run_cfg.vm, policy, mined, *capture);
            let trial = Trial {
                site,
                kind,
                policy,
                verdict,
                restarts,
                attempts,
            };
            (trial, paid)
        }
        // The workload finished (or hit its scripted hard fault) without
        // crossing the armed boundary — on a deterministic replay this
        // cannot happen; surface it instead of panicking.
        InjectionOutcome::HardFailure(_) | InjectionOutcome::Completed(_) => (
            Trial {
                site,
                kind,
                policy,
                verdict: TrialVerdict::NotReached,
                restarts: 0,
                attempts: 0,
            },
            0,
        ),
    }
}

/// One row of the trial matrix before classification.
pub type MatrixRow = (u64, SiteKind, CrashPolicy);

/// Builds the site × policy trial matrix from an enumeration census.
///
/// Every enumerated site must carry a recorded kind: a `kinds` slice
/// shorter than `sites_total` is a hard error, never a silent `Persist`
/// fallback (which used to skew the per-kind census for every site past
/// the recorded prefix). The budget admits only *whole* sites — when the
/// remaining budget cannot fit a site's full policy row, that site is
/// dropped rather than partially tested, so per-policy trial counts and
/// the distinct-site census always reconcile:
/// `trials == sites_tested × policies`.
pub fn build_matrix(
    sites_total: u64,
    kinds: &[SiteKind],
    cfg: &CampaignConfig,
) -> Result<Vec<MatrixRow>, ConfigError> {
    if (kinds.len() as u64) < sites_total {
        return Err(ConfigError(format!(
            "enumeration recorded {} site kind(s) for {} sites — the census \
             must cover every durability boundary (is site-kind recording on?)",
            kinds.len(),
            sites_total
        )));
    }
    let mut matrix: Vec<MatrixRow> = Vec::new();
    for site in (0..sites_total).step_by(cfg.stride.max(1) as usize) {
        if matrix.len() + cfg.policies.len() > cfg.budget {
            break;
        }
        let kind = kinds[site as usize];
        for &policy in &cfg.policies {
            matrix.push((site, kind, policy));
        }
    }
    Ok(matrix)
}

/// Census of the distinct sites a trial matrix tests: `(sites_tested,
/// per-kind counts)`. Dedup goes through a keyed map, so the result is
/// independent of row order — trials finish in whatever order the
/// workers run them, so there is no site-sortedness to lean on.
pub fn site_census(matrix: &[MatrixRow]) -> (u64, BTreeMap<&'static str, u64>) {
    let distinct: BTreeMap<u64, SiteKind> = matrix.iter().map(|&(s, k, _)| (s, k)).collect();
    let mut site_kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    for kind in distinct.values() {
        *site_kinds.entry(kind.as_str()).or_insert(0) += 1;
    }
    (distinct.len() as u64, site_kinds)
}

/// A scenario with its enumeration, mining and matrix done — trials not
/// yet classified. The unit [`run_fleet`]'s queue schedules from.
pub(crate) struct PreparedScenario<'a> {
    pub scn: &'a dyn Scenario,
    pub setup: AppSetup,
    pub sites_total: u64,
    pub matrix: Vec<MatrixRow>,
    pub mined: Option<MinedInvariants>,
    /// Un-injected runs prepare took: the enumeration run plus any
    /// further mining replays.
    pub replays: u32,
}

impl PreparedScenario<'_> {
    /// The promoted invariant set (empty when the oracle is off).
    pub fn promoted(&self) -> &[MinedInvariant] {
        self.mined.as_ref().map_or(&[], |m| &m.promoted)
    }

    /// Classifies one matrix row, and says how many restarts that paid
    /// ([`run_trial`]).
    pub fn run_row(&self, cfg: &CampaignConfig, row: MatrixRow) -> (Trial, u32) {
        let (site, kind, policy) = row;
        run_trial(
            self.scn,
            &self.setup,
            cfg,
            self.promoted(),
            site,
            kind,
            policy,
        )
    }
}

/// Enumeration run + invariant mining + matrix construction for one
/// scenario — everything a campaign shares across that scenario's
/// trials.
pub(crate) fn prepare_scenario<'a>(
    scn: &'a dyn Scenario,
    cfg: &CampaignConfig,
) -> PreparedScenario<'a> {
    let setup = AppSetup::new_with_cache(scn.build_module(), cfg.cache.as_deref());

    // Enumeration: one un-armed run with the site census recorder on. It
    // doubles as the first mining run (stage 2: un-injected runs across
    // derived seeds, promotion of the candidates that survive all).
    let enumerated = invariants::PassingRun::replay(scn, &setup, cfg.seed);
    let sites_total = enumerated.pool.site_count();
    let kinds = enumerated.pool.site_kinds().to_vec();
    let (mined, replays) = if cfg.invariants {
        let (mined, replays) = invariants::mine_from(enumerated, scn, &setup, cfg.seed, None);
        (Some(mined), replays)
    } else {
        (None, 1)
    };

    let matrix = build_matrix(sites_total, &kinds, cfg).unwrap_or_else(|e| {
        panic!("{}: {e:?} — enumeration census is broken", scn.id());
    });

    PreparedScenario {
        scn,
        setup,
        sites_total,
        matrix,
        mined,
        replays,
    }
}

/// Assembles the final per-scenario result from classified trials:
/// census over the matrix, canonical row order.
pub(crate) fn finish_scenario(
    prep: PreparedScenario<'_>,
    mut trials: Vec<Trial>,
) -> ScenarioCampaign {
    let (sites_tested, site_kinds) = site_census(&prep.matrix);
    // Canonical row order, independent of the configured policy order
    // (and of queue completion order).
    trials.sort_by_key(|t| (t.site, policy_name(t.policy)));
    ScenarioCampaign {
        id: prep.scn.id(),
        system: prep.scn.system(),
        sites_total: prep.sites_total,
        sites_tested,
        site_kinds,
        trials,
        invariants: prep.mined,
    }
}

// ---------------------------------------------------------------------------
// Rendering and schema
// ---------------------------------------------------------------------------

/// The per-scenario `invariants` document section. Always present, with
/// an `enabled` discriminant, so one schema covers both oracle modes.
/// Promoted rows are already canonically sorted (class, then GUIDs) by
/// the miner's promotion set.
fn invariants_json(mined: Option<&MinedInvariants>) -> Json {
    let Some(m) = mined else {
        return Json::obj([
            ("enabled", Json::Bool(false)),
            ("promoted", Json::Arr(Vec::new())),
            ("discarded", Json::U64(0)),
            ("seeds", Json::U64(0)),
        ]);
    };
    Json::obj([
        ("enabled", Json::Bool(true)),
        (
            "promoted",
            Json::Arr(
                m.promoted
                    .iter()
                    .map(|inv| {
                        Json::obj([
                            ("kind", Json::Str(inv.kind().to_string())),
                            ("detail", Json::Str(inv.describe())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("discarded", Json::U64(m.discarded)),
        ("seeds", Json::U64(u64::from(m.seeds))),
    ])
}

impl CampaignReport {
    /// Total invariant-violated trials (the CI gate).
    pub fn invariant_violations(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.count(TrialVerdict::InvariantViolated))
            .sum()
    }

    /// Total not-reached trials (a determinism bug when nonzero).
    pub fn not_reached(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.count(TrialVerdict::NotReached))
            .sum()
    }

    /// Total silent-corruption trials (the mined-oracle CI gate).
    pub fn silent_corruptions(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.count(TrialVerdict::SilentCorruption))
            .sum()
    }

    /// The schema-stable JSON matrix document.
    pub fn json(&self) -> Json {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        let scenarios: Vec<Json> = self
            .scenarios
            .iter()
            .map(|s| {
                for t in &s.trials {
                    *totals.entry(t.verdict.as_str()).or_insert(0) += 1;
                }
                Json::obj([
                    ("id", Json::Str(s.id.to_string())),
                    ("system", Json::Str(s.system.to_string())),
                    ("sites_total", Json::U64(s.sites_total)),
                    ("sites_tested", Json::U64(s.sites_tested)),
                    (
                        "site_kinds",
                        Json::obj(
                            s.site_kinds
                                .iter()
                                .map(|(k, &n)| (k.to_string(), Json::U64(n))),
                        ),
                    ),
                    (
                        "verdicts",
                        Json::obj(
                            s.verdict_counts()
                                .into_iter()
                                .map(|(k, n)| (k.to_string(), Json::U64(n))),
                        ),
                    ),
                    (
                        "trials",
                        Json::Arr(
                            s.trials
                                .iter()
                                .map(|t| {
                                    Json::obj([
                                        ("site", Json::U64(t.site)),
                                        ("kind", Json::Str(t.kind.as_str().to_string())),
                                        ("policy", Json::Str(policy_name(t.policy))),
                                        ("verdict", Json::Str(t.verdict.as_str().to_string())),
                                        ("restarts", Json::U64(u64::from(t.restarts))),
                                        ("attempts", Json::U64(u64::from(t.attempts))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("invariants", invariants_json(s.invariants.as_ref())),
                ])
            })
            .collect();
        // The replication dimension appears only when enabled: an
        // `n = 0` campaign renders byte-identically to a
        // pre-replication build's document.
        let mut config = vec![
            ("seed", Json::U64(self.config.seed)),
            ("stride", Json::U64(self.config.stride)),
            ("budget", Json::U64(self.config.budget as u64)),
            ("runners", Json::U64(self.config.runners as u64)),
            (
                "policies",
                Json::Arr(
                    self.config
                        .policies
                        .iter()
                        .map(|&p| Json::Str(policy_name(p)))
                        .collect(),
                ),
            ),
        ];
        if self.config.replicas > 0 {
            config.push(("replicas", Json::U64(self.config.replicas as u64)));
            if let Some(f) = self.config.replica_fault {
                config.push(("replica_fault", Json::Str(f.as_str().to_string())));
            }
        }
        Json::obj([
            ("schema_version", Json::U64(SCHEMA_VERSION)),
            ("config", Json::obj(config)),
            ("scenarios", Json::Arr(scenarios)),
            (
                "totals",
                Json::obj([
                    (
                        "sites",
                        Json::U64(self.scenarios.iter().map(|s| s.sites_total).sum()),
                    ),
                    (
                        "trials",
                        Json::U64(self.scenarios.iter().map(|s| s.trials.len() as u64).sum()),
                    ),
                    (
                        "verdicts",
                        Json::obj(
                            totals
                                .into_iter()
                                .map(|(k, n)| (k.to_string(), Json::U64(n))),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Validates the rendered document against [`schema`] (drift guard:
    /// additions pass, removals and type changes fail).
    pub fn validate_rendered(&self) -> Result<(), Vec<String>> {
        obs::validate(&self.json(), &schema())
    }

    /// Human-readable coverage table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:<22} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>5} {:>7} {:>8}",
            "id",
            "system",
            "sites",
            "tested",
            "trials",
            "clean",
            "mitig",
            "unrec",
            "inv!",
            "silent!",
            "missed"
        );
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "{:<5} {:<22} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>5} {:>7} {:>8}",
                s.id,
                s.system,
                s.sites_total,
                s.sites_tested,
                s.trials.len(),
                s.count(TrialVerdict::CleanRecovery),
                s.count(TrialVerdict::Mitigated),
                s.count(TrialVerdict::Unrecoverable),
                s.count(TrialVerdict::InvariantViolated),
                s.count(TrialVerdict::SilentCorruption),
                s.count(TrialVerdict::NotReached),
            );
        }
        let sites: u64 = self.scenarios.iter().map(|s| s.sites_total).sum();
        let trials: usize = self.scenarios.iter().map(|s| s.trials.len()).sum();
        let _ = writeln!(
            out,
            "total: {} sites enumerated, {} trials, {} invariant violation(s), \
             {} silent corruption(s), {} missed",
            sites,
            trials,
            self.invariant_violations(),
            self.silent_corruptions(),
            self.not_reached(),
        );
        out
    }
}

/// The campaign matrix schema. [`Schema::Obj`] members are a floor:
/// unknown additions pass, removals and type changes fail.
pub fn schema() -> Schema {
    use Schema::{Obj, Str, UInt};
    let trial = Obj(vec![
        Field::req("site", UInt),
        Field::req("kind", Str),
        Field::req("policy", Str),
        Field::req("verdict", Str),
        Field::req("restarts", UInt),
        Field::req("attempts", UInt),
    ]);
    let invariant = Obj(vec![Field::req("kind", Str), Field::req("detail", Str)]);
    let scenario = Obj(vec![
        Field::req("id", Str),
        Field::req("system", Str),
        Field::req("sites_total", UInt),
        Field::req("sites_tested", UInt),
        Field::req("site_kinds", Schema::map(UInt)),
        Field::req("verdicts", Schema::map(UInt)),
        Field::req("trials", Schema::arr(trial)),
        Field::req(
            "invariants",
            Obj(vec![
                Field::req("enabled", Schema::Bool),
                Field::req("promoted", Schema::arr(invariant)),
                Field::req("discarded", UInt),
                Field::req("seeds", UInt),
            ]),
        ),
    ]);
    Obj(vec![
        Field::req("schema_version", UInt),
        Field::req(
            "config",
            Obj(vec![
                Field::req("seed", UInt),
                Field::req("stride", UInt),
                Field::req("budget", UInt),
                Field::req("runners", UInt),
                Field::req("policies", Schema::arr(Str)),
                Field::opt("replicas", UInt),
                Field::opt("replica_fault", Str),
            ]),
        ),
        Field::req("scenarios", Schema::arr(scenario)),
        Field::req(
            "totals",
            Obj(vec![
                Field::req("sites", UInt),
                Field::req("trials", UInt),
                Field::req("verdicts", Schema::map(UInt)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(CampaignConfig::builder().build().is_ok());
        assert!(CampaignConfig::builder().budget(0).build().is_err());
        assert!(CampaignConfig::builder().stride(0).build().is_err());
        assert!(CampaignConfig::builder().runners(0).build().is_err());
        assert!(CampaignConfig::builder()
            .policies(Vec::new())
            .build()
            .is_err());
    }

    #[test]
    fn policy_parsing() {
        let ps = parse_policies("drop,keep", 2, 1).unwrap();
        assert_eq!(ps, vec![CrashPolicy::DropStaged, CrashPolicy::KeepStaged]);
        let ps = parse_policies("random", 3, 7).unwrap();
        assert_eq!(ps.len(), 3);
        assert!(ps.iter().all(|p| matches!(p, CrashPolicy::RandomStaged(_))));
        // Deterministic in the base seed.
        assert_eq!(ps, parse_policies("random", 3, 7).unwrap());
        assert_ne!(ps, parse_policies("random", 3, 8).unwrap());
        assert!(parse_policies("bogus", 1, 1).is_err());
        assert!(parse_policies("", 1, 1).is_err());
        assert!(parse_policies("random", 0, 1).is_err());
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(TrialVerdict::CleanRecovery.as_str(), "clean_recovery");
        assert_eq!(
            TrialVerdict::InvariantViolated.as_str(),
            "invariant_violated"
        );
    }
}
