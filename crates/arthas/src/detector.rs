//! The Arthas detector (§4.3): failure classification and the
//! hard-failure heuristic.
//!
//! The detector watches the target across restarts. A failure whose
//! symptom (exit code, fault instruction, loosely the same stack) repeats
//! after a restart is flagged as a *suspected hard failure* and handed to
//! the reactor. The heuristic may misfire; the reactor prunes false alarms
//! when its reversion plan turns out empty (§4.5).

use std::sync::Arc;

use pir::ir::InstRef;
use pir::vm::VmError;

/// Failure symptom categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Crash (segfault, bad free, division by zero).
    Crash,
    /// Hang (step budget exhausted) or deadlock.
    Hang,
    /// Assertion failure / server panic.
    Panic,
    /// Suspected persistent memory leak (usage monitor).
    Leak,
    /// A user-defined check failed (wrong result / data loss).
    WrongResult,
}

impl FailureKind {
    /// Stable lowercase name, used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Crash => "crash",
            FailureKind::Hang => "hang",
            FailureKind::Panic => "panic",
            FailureKind::Leak => "leak",
            FailureKind::WrongResult => "wrong_result",
        }
    }
}

/// One observed failure.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Category.
    pub kind: FailureKind,
    /// Exit-code-like discriminator.
    pub exit_code: u64,
    /// Fault instruction (when the VM reported one).
    pub fault: Option<InstRef>,
    /// Call stack at the failure, innermost last.
    pub stack: Vec<String>,
    /// Free-form description (for user-defined checks).
    pub detail: String,
}

impl FailureRecord {
    /// Builds a record from a VM trap.
    pub fn from_vm(err: &VmError) -> FailureRecord {
        use pir::vm::Trap::*;
        let kind = match &err.trap {
            Segfault { .. } | BadFree { .. } | DivByZero | StackOverflow | Misc(_) => {
                FailureKind::Crash
            }
            StepLimit | Deadlock => FailureKind::Hang,
            AssertFail { .. } | Abort { .. } => FailureKind::Panic,
            InjectedCrash | SiteCrash { .. } => FailureKind::Crash,
        };
        FailureRecord {
            kind,
            exit_code: err.trap.exit_code(),
            fault: err.at,
            stack: err.stack.clone(),
            detail: format!("{err}"),
        }
    }

    /// Builds a record for a failed user-defined check.
    pub fn wrong_result(detail: impl Into<String>) -> FailureRecord {
        FailureRecord {
            kind: FailureKind::WrongResult,
            exit_code: 200,
            fault: None,
            stack: Vec::new(),
            detail: detail.into(),
        }
    }

    /// Builds a record for a suspected persistent leak.
    pub fn leak(detail: impl Into<String>) -> FailureRecord {
        FailureRecord {
            kind: FailureKind::Leak,
            exit_code: 201,
            fault: None,
            stack: Vec::new(),
            detail: detail.into(),
        }
    }

    /// Loose symptom similarity: same exit code and fault instruction, and
    /// at least half of the shorter stack's frames shared as a suffix.
    pub fn similar_to(&self, other: &FailureRecord) -> bool {
        if self.exit_code != other.exit_code || self.fault != other.fault {
            return false;
        }
        let (a, b) = (&self.stack, &other.stack);
        if a.is_empty() && b.is_empty() {
            return true;
        }
        let shared = a
            .iter()
            .rev()
            .zip(b.iter().rev())
            .take_while(|(x, y)| x == y)
            .count();
        shared * 2 >= a.len().min(b.len())
    }
}

/// The detector's verdict after observing a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// First sighting: restart and watch (a soft fault would vanish).
    FirstSighting,
    /// The same symptom recurred across a restart: suspected hard failure,
    /// invoke the reactor.
    SuspectedHard,
}

/// Watches one target system across restarts.
///
/// # Examples
///
/// ```
/// use arthas::{Detector, FailureRecord, Verdict};
///
/// let mut d = Detector::new();
/// let symptom = FailureRecord::wrong_result("key 7 missing");
/// assert_eq!(d.observe(symptom.clone()), Verdict::FirstSighting);
/// // The same symptom after a restart marks the fault as hard.
/// assert_eq!(d.observe(symptom), Verdict::SuspectedHard);
/// ```
#[derive(Default)]
pub struct Detector {
    history: Vec<FailureRecord>,
    verdicts: Vec<Verdict>,
    recorder: Option<Arc<dyn obs::Recorder>>,
}

impl Detector {
    /// Creates a detector with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a failure and renders a verdict.
    pub fn observe(&mut self, rec: FailureRecord) -> Verdict {
        let recurring = self.history.iter().any(|h| h.similar_to(&rec));
        let verdict = if recurring {
            Verdict::SuspectedHard
        } else {
            Verdict::FirstSighting
        };
        if let Some(r) = &self.recorder {
            r.event(
                "detector.observe",
                vec![
                    ("kind", obs::Value::from(rec.kind.as_str())),
                    ("exit_code", obs::Value::from(rec.exit_code)),
                    (
                        "verdict",
                        obs::Value::from(match verdict {
                            Verdict::FirstSighting => "first_sighting",
                            Verdict::SuspectedHard => "suspected_hard",
                        }),
                    ),
                ],
            );
            r.add("detector.observations", 1);
        }
        self.history.push(rec);
        self.verdicts.push(verdict);
        verdict
    }

    /// Forgets every observation (the recorder stays attached): after a
    /// recovery, the next unrelated fault starts a fresh first-sighting
    /// cycle instead of matching this one.
    pub fn reset(&mut self) {
        self.history.clear();
        self.verdicts.clear();
    }

    /// Every failure observed, oldest first.
    pub fn history(&self) -> &[FailureRecord] {
        &self.history
    }

    /// The verdict rendered for each observation, parallel to
    /// [`Detector::history`].
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }
}

impl obs::Instrument for Detector {
    /// Attaches a recorder; each observation emits a `detector.observe`
    /// event.
    fn instrument(&mut self, recorder: Arc<dyn obs::Recorder>) {
        self.recorder = Some(recorder);
    }

    fn uninstrument(&mut self) {
        self.recorder = None;
    }
}

/// PM usage monitor for leak detection: PM utilisation sampled across
/// identical workload runs. Sustained growth despite restarts is a leak
/// suspicion (a restart cannot reclaim persistent memory).
#[derive(Debug, Default)]
pub struct LeakMonitor {
    samples: Vec<u64>,
}

impl LeakMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records PM bytes allocated after a run.
    pub fn sample(&mut self, allocated_bytes: u64) {
        self.samples.push(allocated_bytes);
    }

    /// Whether utilisation grew by at least `threshold` bytes per run over
    /// the last `runs` samples.
    pub fn suspected(&self, runs: usize, threshold: u64) -> bool {
        if self.samples.len() < runs.max(2) {
            return false;
        }
        let tail = &self.samples[self.samples.len() - runs..];
        tail.windows(2).all(|w| w[1] >= w[0] + threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::ir::FuncId;

    fn rec(code: u64, inst: u32, stack: &[&str]) -> FailureRecord {
        FailureRecord {
            kind: FailureKind::Crash,
            exit_code: code,
            fault: Some(InstRef {
                func: FuncId(0),
                inst,
            }),
            stack: stack.iter().map(|s| s.to_string()).collect(),
            detail: String::new(),
        }
    }

    #[test]
    fn recurrence_is_flagged_hard() {
        let mut d = Detector::new();
        assert_eq!(
            d.observe(rec(11, 5, &["main", "get"])),
            Verdict::FirstSighting
        );
        assert_eq!(
            d.observe(rec(11, 5, &["main", "get"])),
            Verdict::SuspectedHard
        );
    }

    #[test]
    fn different_symptom_is_not_hard() {
        let mut d = Detector::new();
        d.observe(rec(11, 5, &["main", "get"]));
        assert_eq!(
            d.observe(rec(11, 9, &["main", "get"])),
            Verdict::FirstSighting,
            "different fault instruction"
        );
        assert_eq!(
            d.observe(rec(124, 5, &["main", "get"])),
            Verdict::FirstSighting,
            "different exit code"
        );
    }

    #[test]
    fn loose_stack_match() {
        let a = rec(11, 5, &["main", "dispatch", "get"]);
        let b = rec(11, 5, &["other", "dispatch", "get"]);
        assert!(a.similar_to(&b), "shared suffix of 2/3 frames");
        let c = rec(11, 5, &["x", "y", "z"]);
        assert!(!a.similar_to(&c));
    }

    #[test]
    fn identical_fault_code_with_disjoint_stacks_is_not_similar() {
        // Same exit code and fault instruction, but the stacks share no
        // suffix frame at all: the two failures came through different
        // paths, so the heuristic must not conflate them.
        let a = rec(11, 5, &["main", "put", "grow"]);
        let b = rec(11, 5, &["repl", "del", "shrink"]);
        assert!(!a.similar_to(&b));
        assert!(!b.similar_to(&a), "similarity is symmetric");
    }

    #[test]
    fn stack_prefix_match_does_not_count() {
        // Shared *prefix* (outermost frames) with divergent innermost
        // frames: the similarity is suffix-based (where the fault actually
        // happened), so a common entry path alone is not similar.
        let a = rec(11, 5, &["main", "dispatch", "get"]);
        let b = rec(11, 5, &["main", "dispatch", "put"]);
        assert!(!a.similar_to(&b));
    }

    #[test]
    fn exactly_half_shared_suffix_is_similar() {
        // shared * 2 >= min(len): the boundary case counts as similar.
        let a = rec(11, 5, &["w", "x", "y", "z"]);
        let b = rec(11, 5, &["p", "q", "y", "z"]);
        assert!(a.similar_to(&b), "2 of min(4,4) frames shared");
    }

    #[test]
    fn empty_stack_boundary_cases() {
        // Both empty: trivially similar (nothing to disagree on).
        let a = rec(11, 5, &[]);
        let b = rec(11, 5, &[]);
        assert!(a.similar_to(&b));
        // One empty, one not: min length is 0, so the suffix test is
        // vacuously satisfied — documented boundary of the loose heuristic.
        let c = rec(11, 5, &["main", "get"]);
        assert!(a.similar_to(&c));
        assert!(c.similar_to(&a));
    }

    #[test]
    fn detector_keeps_history_and_verdicts() {
        let mut d = Detector::new();
        d.observe(rec(11, 5, &["main", "get"]));
        d.observe(rec(12, 6, &["main", "put"]));
        d.observe(rec(11, 5, &["main", "get"]));
        assert_eq!(d.history().len(), 3);
        assert_eq!(
            d.verdicts(),
            &[
                Verdict::FirstSighting,
                Verdict::FirstSighting,
                Verdict::SuspectedHard
            ]
        );
    }

    #[test]
    fn leak_monitor_needs_sustained_growth() {
        let mut m = LeakMonitor::new();
        for v in [100, 200, 300, 400] {
            m.sample(v);
        }
        assert!(m.suspected(3, 50));
        let mut m = LeakMonitor::new();
        for v in [100, 200, 150, 400] {
            m.sample(v);
        }
        assert!(!m.suspected(3, 50));
    }

    #[test]
    fn leak_monitor_threshold_boundaries() {
        // Growth of exactly `threshold` per run: suspected (>=, not >).
        let mut m = LeakMonitor::new();
        for v in [100, 150, 200, 250] {
            m.sample(v);
        }
        assert!(m.suspected(4, 50));
        // One byte short of the threshold on a single step: not suspected.
        let mut m = LeakMonitor::new();
        for v in [100, 150, 199, 249] {
            m.sample(v);
        }
        assert!(!m.suspected(4, 50));
        // Too few samples: never suspected, even with runs < 2.
        let mut m = LeakMonitor::new();
        m.sample(100);
        assert!(!m.suspected(1, 0));
    }
}
