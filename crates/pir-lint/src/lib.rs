//! # pir-lint — crash-consistency and hard-fault linting over pir
//!
//! Arthas's analyzer (§4.1 of the paper) only *locates* PM variables and
//! instructions so the reactor can revert them after the fact. But the §2
//! study shows most hard faults are ordinary bugs — unpersisted updates,
//! leaked PM allocations, stale volatile pointers — that follow a small
//! number of syntactic/dataflow patterns and are statically visible
//! *before* they bite. This crate runs those patterns as dataflow checks
//! over a [`pir::ir::Module`], reusing the full `pir-analysis` stack
//! (Andersen points-to, PM classification, dominators/post-dominators,
//! durability-point covers, and the PDG).
//!
//! ## Check catalogue
//!
//! | id | name | bug class (paper) |
//! |----|------|-------------------|
//! | L1 | unflushed PM store | unpersisted update → lost on crash |
//! | L2 | missing drain | flush without fence → not durable |
//! | L3 | store outside transaction | un-undo-logged tx update → torn state |
//! | L4 | static PM leak | alloc never linked into PM nor freed |
//! | L5 | volatile pointer stored into PM | stale pointer after restart |
//! | L6 | persist-order violation | dependent store may persist first (WITCHER) |
//!
//! Each diagnostic carries the instruction reference, the interned source
//! location, and the Arthas GUID when a `GuidMap`-derived lookup is
//! provided — so a finding can be cross-referenced with the checkpoint
//! log and trace of a live run.
//!
//! False-positive policy: checks are *may*-analyses over the same
//! over-approximate points-to/CFG substrate the reactor uses, so a
//! finding means "no durability evidence found on some path", not "a
//! crash here loses data on every execution". Intentional findings (the
//! seeded f1–f12 bugs in `pm-apps`) are suppressed with documented
//! [`Suppression`] records rather than silenced in the IR.

mod checks;

use std::collections::HashMap;
use std::fmt;

use pir::ir::{InstRef, Module};
use pir_analysis::ModuleAnalysis;

/// The six lint checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Check {
    /// L1: a PM store that may reach a function exit with no covering
    /// `pm_flush`/`pm_persist` (or `pm_tx_commit`) on some path.
    UnflushedStore,
    /// L2: a `pm_flush` not followed by a `pm_drain`/`pm_persist`/
    /// `pm_tx_commit` fence on every path to exit.
    MissingDrain,
    /// L3: a PM store inside a `pm_tx_begin`..`pm_tx_commit` region whose
    /// address was never snapshotted with `pm_tx_add`.
    StoreOutsideTx,
    /// L4: a `pm_alloc` whose result never flows into persistent memory
    /// and is never `pm_free`-d — unreachable after restart.
    PmLeak,
    /// L5: a volatile (malloc/alloca/global) pointer stored through a PM
    /// address — stale after restart.
    VolatilePtrInPm,
    /// L6: a statically-decidable persist-order violation — a PM store
    /// that depends on another PM store with no durability point forced
    /// between them (WITCHER's ordering rule).
    PersistOrder,
}

impl Check {
    /// The short id used in reports and suppressions ("L1".."L6").
    pub fn id(self) -> &'static str {
        match self {
            Check::UnflushedStore => "L1",
            Check::MissingDrain => "L2",
            Check::StoreOutsideTx => "L3",
            Check::PmLeak => "L4",
            Check::VolatilePtrInPm => "L5",
            Check::PersistOrder => "L6",
        }
    }

    /// Human name of the check.
    pub fn name(self) -> &'static str {
        match self {
            Check::UnflushedStore => "unflushed-pm-store",
            Check::MissingDrain => "missing-drain",
            Check::StoreOutsideTx => "store-outside-tx",
            Check::PmLeak => "pm-leak",
            Check::VolatilePtrInPm => "volatile-ptr-in-pm",
            Check::PersistOrder => "persist-order",
        }
    }

    /// Parses a short id ("L1") or name ("pm-leak").
    pub fn parse(s: &str) -> Option<Check> {
        ALL_CHECKS
            .iter()
            .copied()
            .find(|c| c.id().eq_ignore_ascii_case(s) || c.name() == s)
    }
}

/// All checks, in report order.
pub const ALL_CHECKS: [Check; 6] = [
    Check::UnflushedStore,
    Check::MissingDrain,
    Check::StoreOutsideTx,
    Check::PmLeak,
    Check::VolatilePtrInPm,
    Check::PersistOrder,
];

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: likely a hazard, but recoverable or heuristic.
    Warning,
    /// A crash at the wrong moment loses or corrupts persistent state.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which check fired.
    pub check: Check,
    /// The offending instruction.
    pub inst: InstRef,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// The Arthas GUID of the instruction when a lookup was provided and
    /// the instruction is an instrumented PM-update site.
    pub guid: Option<u64>,
    /// The instruction's interned source location ("" when unset).
    pub loc: String,
    /// Name of the containing function.
    pub func: String,
    /// `Some(reason)` when a [`Suppression`] matched this finding.
    pub suppressed: Option<String>,
}

/// A documented allowance for an intentional finding (e.g. a seeded bug
/// from the paper's Table 2 that a scenario depends on).
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Restrict to one check, or `None` for any.
    pub check: Option<Check>,
    /// Matches when the diagnostic's source location contains this
    /// substring (locations are the builder's `loc` labels).
    pub loc_substring: String,
    /// Why the finding is expected (kept in the report).
    pub reason: String,
}

impl Suppression {
    /// Convenience constructor.
    pub fn new(check: Option<Check>, loc_substring: &str, reason: &str) -> Suppression {
        Suppression {
            check,
            loc_substring: loc_substring.to_string(),
            reason: reason.to_string(),
        }
    }

    fn matches(&self, d: &Diagnostic) -> bool {
        self.check.map(|c| c == d.check).unwrap_or(true)
            && !self.loc_substring.is_empty()
            && d.loc.contains(&self.loc_substring)
    }
}

/// Engine options.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Documented allowances applied to the findings.
    pub suppressions: Vec<Suppression>,
    /// Arthas GUIDs per instruction (from `GuidMap`), attached to
    /// matching diagnostics.
    pub guids: HashMap<InstRef, u64>,
}

/// The result of linting one module.
pub struct LintReport {
    /// All findings, ordered by (function, instruction).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Findings that were not suppressed.
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    /// Number of unsuppressed error-severity findings (the CI gate).
    pub fn error_count(&self) -> usize {
        self.active()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of unsuppressed warnings.
    pub fn warning_count(&self) -> usize {
        self.active()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Findings of one check (suppressed included).
    pub fn of_check(&self, check: Check) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.check == check)
            .collect()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let where_ = if d.loc.is_empty() {
                format!("{} at {}", d.func, d.inst)
            } else {
                format!("{} at {} ({})", d.func, d.inst, d.loc)
            };
            match &d.suppressed {
                Some(reason) => {
                    let _ = writeln!(
                        out,
                        "allowed[{}] {}: {} — {}",
                        d.check.id(),
                        where_,
                        d.message,
                        reason
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{}[{}] {}: {}",
                        d.severity,
                        d.check.id(),
                        where_,
                        d.message
                    );
                }
            }
            if let Some(g) = d.guid {
                let _ = writeln!(out, "    guid: {g}");
            }
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} allowed",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len() - self.active().count(),
        );
        out
    }

    /// Machine-readable report (JSON, hand-rolled: the workspace is
    /// offline and serde-free).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"check\": \"{}\", \"severity\": \"{}\", \"func\": \"{}\", \"inst\": \"{}\", \"loc\": \"{}\", \"guid\": {}, \"suppressed\": {}, \"message\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                d.check.id(),
                d.severity,
                esc(&d.func),
                d.inst,
                esc(&d.loc),
                d.guid.map(|g| g.to_string()).unwrap_or_else(|| "null".into()),
                d.suppressed
                    .as_ref()
                    .map(|r| format!("\"{}\"", esc(r)))
                    .unwrap_or_else(|| "false".into()),
                esc(&d.message),
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"errors\": {},\n  \"warnings\": {}\n}}\n",
            self.error_count(),
            self.warning_count()
        );
        out
    }
}

/// Runs every check over `module` using a precomputed analysis.
pub fn lint_module(module: &Module, analysis: &ModuleAnalysis, opts: &LintOptions) -> LintReport {
    let mut diags = checks::run_all(module, analysis);
    for d in &mut diags {
        d.loc = module.loc_of(d.inst).to_string();
        d.func = module.func(d.inst.func).name.clone();
        d.guid = opts.guids.get(&d.inst).copied();
        if let Some(s) = opts.suppressions.iter().find(|s| s.matches(d)) {
            d.suppressed = Some(s.reason.clone());
        }
    }
    // Full deterministic order — site, then check, then severity and
    // message — so rendered reports diff cleanly across runs.
    diags.sort_by(|a, b| {
        (a.inst.func, a.inst.inst, a.check, a.severity)
            .cmp(&(b.inst.func, b.inst.inst, b.check, b.severity))
            .then_with(|| a.message.cmp(&b.message))
    });
    LintReport { diagnostics: diags }
}

/// Convenience entry point. Pass the [`ModuleAnalysis`] you already
/// hold (an analyzer-pipeline or cache result) and the lint engine
/// reuses it; pass `None` and it computes one. The old
/// always-recompute signature made any process that ran both the
/// harness and the lint engine analyze the same module twice —
/// `pir_analysis::compute_count` deltas in the dedup regression tests
/// keep that from coming back.
pub fn lint(module: &Module, analysis: Option<&ModuleAnalysis>, opts: &LintOptions) -> LintReport {
    match analysis {
        Some(a) => lint_module(module, a, opts),
        None => lint_module(module, &ModuleAnalysis::compute(module), opts),
    }
}
