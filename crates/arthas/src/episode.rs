//! One recovery episode (§4.3–4.5): observe → mitigate → verify.
//!
//! A failure is observed by the [`Detector`]. A first sighting is only
//! restarted and watched, since a soft fault vanishes on restart. A
//! symptom that recurs is a suspected hard failure: the episode climbs
//! its ladder of mitigations ([`Rung`]s) over the crashed image, and the
//! next restart verifies the result. That repeats until a watch finds
//! the system healthy or the round budget is spent.
//!
//! The caller is a [`Subject`]. It owns the system: the image, how to
//! restart it live, and the [`Restart`] its mitigations verify copies
//! with. The episode owns the rest: the detector, the budget, the rung
//! order and the verdict. The live server (`serve`) and the campaign
//! trial (`inject`) are two subjects of one episode.

use std::time::Instant;

use pmemsim::{PmPool, PoolGroup};

use crate::checkpoint::SharedLog;
use crate::detector::{Detector, FailureKind, FailureRecord, Verdict};
use crate::reactor::{MitigationOutcome, PhaseTimes, Reactor, Restart};
use crate::trace::PmTrace;

/// One rung of an episode's mitigation ladder, and the rung a
/// [`MitigationOutcome`] comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// A restart over the crashed image as it is. It is also what a
    /// reversion reports when its plan is empty (§4.5: a false alarm of
    /// the detector).
    RestartOnly,
    /// A repair of the image from recorded history:
    /// [`Reactor::mitigate`]'s revert loop (or its leak path, §4.7), or
    /// the baselines' snapshot restore (pmCRIU) and time-order reversion
    /// (ArCkpt). In a ladder built with [`Episode::cross_checked`], the
    /// plan is first narrowed against the standbys' quorum.
    Reversion,
    /// The promotion of a standby replica ([`Reactor::failover`]).
    Failover,
}

/// The caller's side of an [`Episode`].
pub trait Subject {
    /// Round `round` (from 0) opens on `failure`, before the detector
    /// sees it.
    fn fault(&mut self, round: u32, failure: &FailureRecord) {
        let _ = (round, failure);
    }

    /// Mitigates the crashed image: runs `ladder` over it once
    /// ([`Ladder::run`]) and returns that outcome.
    fn mitigate(&mut self, ladder: Ladder<'_>) -> MitigationOutcome;

    /// Restarts the system and watches it: `Ok` when it is healthy, else
    /// the failure it shows.
    fn watch(&mut self) -> Result<(), FailureRecord>;
}

/// The rungs an [`Episode`] hands its [`Subject`] for one suspected hard
/// failure.
pub struct Ladder<'l> {
    rungs: &'l [Rung],
    failure: &'l FailureRecord,
    cross_check: bool,
    after_failover: bool,
}

impl Ladder<'_> {
    /// Climbs the rungs in order over `pool` until one recovers, and
    /// returns the outcome of the rung that ran last.
    ///
    /// A failover rung is skipped for a leak (not an availability event),
    /// without non-empty `standbys`, and right after a mitigation that
    /// recovered by failover: promote verification cannot see damage that
    /// reached the standbys through the checkpoint stream and shows only
    /// on access, so promoting again could loop forever. A failover that
    /// follows a failed rung reports that rung's attempts, rounds and
    /// time with its own. A recovery re-seeds the standbys from the
    /// recovered image, since the old ones straddle the faulty window.
    pub fn run(
        self,
        reactor: &mut Reactor<'_>,
        pool: &mut PmPool,
        log: &SharedLog,
        trace: &PmTrace,
        restart: &Restart<'_>,
        mut standbys: Option<&mut PoolGroup>,
    ) -> MitigationOutcome {
        let mut last: Option<MitigationOutcome> = None;
        for &rung in self.rungs {
            let out = match rung {
                Rung::RestartOnly => {
                    reactor.restart_only(pool, log, restart, Instant::now(), PhaseTimes::default())
                }
                Rung::Reversion => {
                    let quorum = standbys.as_deref().filter(|_| self.cross_check);
                    reactor.revert(pool, log, self.failure, trace, restart, quorum)
                }
                Rung::Failover => {
                    let promotable = |g: &&mut PoolGroup| {
                        !g.is_empty()
                            && self.failure.kind != FailureKind::Leak
                            && !self.after_failover
                    };
                    let Some(group) = standbys.as_deref_mut().filter(promotable) else {
                        continue;
                    };
                    let mut out = reactor.failover(pool, log, restart, group);
                    if let Some(before) = &last {
                        out.attempts += before.attempts;
                        out.reexec_rounds += before.reexec_rounds;
                        out.skipped += before.skipped;
                        out.plan_len = before.plan_len;
                        out.wall += before.wall;
                        out.phases.slice += before.phases.slice;
                        out.phases.plan += before.phases.plan;
                        out.phases.revert += before.phases.revert;
                        out.phases.reexec += before.phases.reexec;
                    }
                    out
                }
            };
            let recovered = out.recovered;
            last = Some(out);
            if recovered {
                break;
            }
        }
        let out = last.unwrap_or_else(|| MitigationOutcome::new(Rung::Failover));
        if let Some(group) = standbys.filter(|g| out.recovered && !g.is_empty()) {
            *group = PoolGroup::new(pool, group.n(), log.latest_seq());
        }
        out
    }
}

/// How an episode ended.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Whether the last watch found the system healthy.
    pub healthy: bool,
    /// Failures the detector observed.
    pub rounds: u32,
    /// The outcome of the episode's last mitigation: the rung that ran
    /// last. `None` when no failure was suspected hard.
    pub outcome: Option<MitigationOutcome>,
}

/// One recovery episode's state and policy: the detector, the round
/// budget and the rung order. A long-lived subject (a server) keeps one
/// across episodes, so a symptom seen in one is recognised in the next.
pub struct Episode {
    detector: Detector,
    rounds: u32,
    rungs: Vec<Rung>,
    cross_check: bool,
    mitigations: u32,
    /// Whether the most recent mitigation recovered by failover.
    after_failover: bool,
}

impl Episode {
    /// Episodes over `detector` (and the history it holds) that
    /// observes at most `rounds` failures per episode and climbs `rungs`
    /// in order on each suspected hard one.
    pub fn new(detector: Detector, rounds: u32, rungs: &[Rung]) -> Self {
        Episode {
            detector,
            rounds,
            rungs: rungs.to_vec(),
            cross_check: false,
            mitigations: u32::MAX,
            after_failover: false,
        }
    }

    /// Narrows every reversion plan against the standbys' quorum first
    /// ([`Reactor::cross_check_plan`]).
    pub fn cross_checked(mut self) -> Self {
        self.cross_check = true;
        self
    }

    /// Ends each episode at its `n`-th mitigation: a recovered image is
    /// verified by one more watch, an unrecovered one ends the episode
    /// unhealthy without another restart.
    pub fn at_most(mut self, n: u32) -> Self {
        self.mitigations = n;
        self
    }

    /// The detector and the history it holds.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Runs one episode. `first` is the failure the system already
    /// showed; without one, the episode starts with a watch.
    ///
    /// Each round observes a failure, mitigates it when the detector
    /// suspects it hard, and then watches. A recovery resets the
    /// detector, so a later unrelated fault starts a fresh first-sighting
    /// cycle.
    pub fn run(&mut self, first: Option<FailureRecord>, subject: &mut impl Subject) -> Recovery {
        let mut end = Recovery {
            healthy: false,
            rounds: 0,
            outcome: None,
        };
        let mut failure = match first.map_or_else(|| subject.watch(), Err) {
            Ok(()) => {
                end.healthy = true;
                return end;
            }
            Err(f) => f,
        };
        let mut mitigations = 0;
        while end.rounds < self.rounds {
            subject.fault(end.rounds, &failure);
            end.rounds += 1;
            let mut spent = false;
            let verdict = self.detector.observe(failure.clone());
            if verdict == Verdict::SuspectedHard && mitigations < self.mitigations {
                let out = subject.mitigate(Ladder {
                    rungs: &self.rungs,
                    failure: &failure,
                    cross_check: self.cross_check,
                    after_failover: self.after_failover,
                });
                mitigations += 1;
                spent = mitigations == self.mitigations;
                let recovered = out.recovered;
                if recovered {
                    self.detector.reset();
                }
                self.after_failover = recovered && out.rung == Rung::Failover;
                end.outcome = Some(out);
                if spent && !recovered {
                    return end;
                }
            }
            match subject.watch() {
                Ok(()) => {
                    end.healthy = true;
                    return end;
                }
                Err(_) if spent => return end,
                Err(f) => failure = f,
            }
        }
        end
    }
}
