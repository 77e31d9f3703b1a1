//! # baselines — the comparison systems of the Arthas evaluation
//!
//! - [`PmCriu`]: the paper's **pmCRIU** — CRIU (a process-level
//!   checkpoint/restore tool) enhanced to snapshot PM pools. It takes
//!   coarse, periodic, point-in-time snapshots of the entire pool and
//!   rolls back snapshot-by-snapshot, newest first (§6.1).
//! - [`ArCkpt`]: Arthas's fine-grained checkpoint log *without* the
//!   analyzer — reversion follows strict reverse time order, one entry per
//!   re-execution, until success or timeout. It is "a facet of Arthas, not
//!   an alternative" (§6.1), demonstrating that fine-grained checkpoints
//!   alone do not recover systems whose root cause lies far in the past.
//!
//! Both answer in Arthas's own [`MitigationOutcome`] as a
//! [`Rung::Reversion`] that skips no restart: one re-execution round per
//! attempt.

use std::time::Instant;

use arthas::checkpoint::MAX_VERSIONS;
use arthas::{MitigationOutcome, Restart, Rung, SharedLog};
use pmemsim::{PmImage, PmPool};

/// A baseline's outcome: `attempts` re-executions, one round each,
/// `discarded` checkpoint updates reverted, over the time since `t0`.
fn outcome(recovered: bool, attempts: u32, discarded: u64, t0: Instant) -> MitigationOutcome {
    MitigationOutcome {
        recovered,
        attempts,
        discarded_updates: discarded,
        wall: t0.elapsed(),
        ..MitigationOutcome::new(Rung::Reversion)
    }
}

/// The pmCRIU baseline: periodic whole-pool snapshots.
///
/// # Examples
///
/// ```
/// use baselines::PmCriu;
///
/// let pool = pmemsim::PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap();
/// let mut criu = PmCriu::new(60);
/// criu.tick(0, &pool);   // due immediately
/// criu.tick(30, &pool);  // not yet
/// criu.tick(60, &pool);  // due again
/// assert_eq!(criu.snapshot_times(), vec![0, 60]);
/// ```
pub struct PmCriu {
    /// Snapshot interval in logical seconds.
    pub interval: u64,
    snapshots: Vec<(u64, PmImage)>,
    last: Option<u64>,
}

impl PmCriu {
    /// Creates a snapshotter with the given logical-time interval (the
    /// paper dumps an image every minute).
    pub fn new(interval: u64) -> Self {
        PmCriu {
            interval,
            snapshots: Vec::new(),
            last: None,
        }
    }

    /// Called by the driver as logical time advances; takes a snapshot
    /// when one is due. Snapshots capture only durable media, exactly like
    /// freezing the process and dumping the PM pool.
    pub fn tick(&mut self, clock: u64, pool: &PmPool) {
        let due = match self.last {
            None => true,
            Some(t) => clock >= t + self.interval,
        };
        if due {
            self.snapshots.push((clock, pool.snapshot()));
            self.last = Some(clock);
        }
    }

    /// Logical timestamps of the snapshots.
    pub fn snapshot_times(&self) -> Vec<u64> {
        self.snapshots.iter().map(|(t, _)| *t).collect()
    }

    /// Rolls back snapshot-by-snapshot (newest first), restarting with
    /// `log` attached after each restore, until the system is operational
    /// or snapshots run out. Whole-pool snapshots are not checkpoint
    /// updates: nothing counts as discarded.
    pub fn mitigate(
        &self,
        pool: &mut PmPool,
        log: &SharedLog,
        restart: &Restart,
    ) -> MitigationOutcome {
        let t0 = Instant::now();
        let mut attempts = 0u32;
        for (_, image) in self.snapshots.iter().rev() {
            if pool.restore(image).is_err() {
                continue;
            }
            attempts += 1;
            if restart.run(pool, log).is_ok() {
                return outcome(true, attempts, 0, t0);
            }
        }
        outcome(false, attempts, 0, t0)
    }
}

/// The ArCkpt baseline: Arthas checkpoints, strict time-order reversion.
pub struct ArCkpt {
    /// Re-execution budget (the paper's 10-minute timeout analogue).
    pub max_attempts: u32,
}

impl Default for ArCkpt {
    fn default() -> Self {
        ArCkpt { max_attempts: 200 }
    }
}

impl ArCkpt {
    /// Creates the baseline with a re-execution budget.
    pub fn new(max_attempts: u32) -> Self {
        ArCkpt { max_attempts }
    }

    /// Reverts checkpoint entries one at a time in reverse sequence order,
    /// re-executing between reversions. No slicing, no dependency
    /// knowledge; like the paper's ArCkpt it only succeeds when the bad
    /// update is among the most recent ones.
    pub fn mitigate(
        &self,
        pool: &mut PmPool,
        log: &SharedLog,
        restart: &Restart,
    ) -> MitigationOutcome {
        let t0 = Instant::now();
        let _paused = log.pause();
        let seqs: Vec<u64> = {
            let l = log.view();
            let mut s = l.all_seqs();
            s.reverse();
            s
        };
        let mut attempts = 0u32;
        let mut reverted = 0u64;
        for depth in 1..=MAX_VERSIONS {
            for &s in &seqs {
                if attempts >= self.max_attempts {
                    return outcome(false, attempts, reverted, t0);
                }
                // View dropped before the pool write below re-enters the sink.
                let (addr, data) = {
                    let l = log.view();
                    let Some(addr) = l.addr_of_seq(s) else {
                        continue;
                    };
                    let Some(data) = l.data_at_depth(addr, depth) else {
                        continue;
                    };
                    (addr, data)
                };
                let _ = pool.write(addr, &data);
                let _ = pool.persist(addr, data.len() as u64);
                reverted += 1;
                attempts += 1;
                if restart.run(pool, log).is_ok() {
                    return outcome(true, attempts, reverted, t0);
                }
            }
        }
        outcome(false, attempts, reverted, t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arthas::{FailureRecord, SharedLog};
    use pir::builder::ModuleBuilder;
    use pir::vm::{Vm, VmOpts};
    use std::sync::Arc;

    fn new_pool() -> PmPool {
        PmPool::create(pmemsim::layout::HEAP_OFF + (1 << 20)).unwrap()
    }

    /// Runs `f` with a restart that is healthy iff the restarted pool
    /// holds a value below `threshold` at `addr`.
    fn with_threshold<T>(addr: u64, threshold: u64, f: impl FnOnce(&Restart) -> T) -> T {
        let module = Arc::new(ModuleBuilder::new().finish().unwrap());
        let probe = |vm: &mut Vm| match vm.pool_mut().read_u64(addr) {
            Ok(v) if v < threshold => Ok(()),
            _ => Err(FailureRecord::wrong_result("bad value")),
        };
        f(&Restart {
            module: &module,
            vm: VmOpts::default(),
            probe: &probe,
        })
    }

    #[test]
    fn criu_restores_a_pre_fault_snapshot() {
        let mut pool = new_pool();
        let a = pool.alloc(64).unwrap();
        let mut criu = PmCriu::new(60);

        pool.write_u64(a, 1).unwrap();
        pool.persist(a, 8).unwrap();
        criu.tick(0, &pool); // snapshot with healthy state

        pool.write_u64(a, 999).unwrap(); // the "bad" update
        pool.persist(a, 8).unwrap();
        criu.tick(60, &pool); // snapshot with bad state

        let out = with_threshold(a, 100, |r| criu.mitigate(&mut pool, &SharedLog::new(), r));
        assert!(out.recovered);
        // The newest (bad) snapshot failed its restart; the second-newest
        // recovered, with its bytes restored.
        assert_eq!(out.attempts, 2, "second-newest snapshot");
        assert_eq!(pool.read_u64(a).unwrap(), 1, "coarse rollback to t=0");
    }

    #[test]
    fn criu_fails_when_every_snapshot_is_bad() {
        let mut pool = new_pool();
        let a = pool.alloc(64).unwrap();
        let mut criu = PmCriu::new(60);
        pool.write_u64(a, 500).unwrap();
        pool.persist(a, 8).unwrap();
        criu.tick(0, &pool);
        let out = with_threshold(a, 100, |r| criu.mitigate(&mut pool, &SharedLog::new(), r));
        assert!(!out.recovered);
    }

    #[test]
    fn arckpt_recovers_immediate_fault_but_times_out_on_old_root_cause() {
        // Immediate fault: the bad update is the most recent one.
        let mut pool = new_pool();
        let a = pool.alloc(64).unwrap();
        let log = SharedLog::new();
        pool.set_sink(log.as_sink());
        pool.write_u64(a, 1).unwrap();
        pool.persist(a, 8).unwrap();
        pool.write_u64(a, 999).unwrap();
        pool.persist(a, 8).unwrap();
        pool.clear_sink();
        let out = with_threshold(a, 100, |r| ArCkpt::new(50).mitigate(&mut pool, &log, r));
        assert!(out.recovered);
        assert_eq!(out.attempts, 1, "one reversion suffices");

        // Old root cause: bad update buried under many good updates to
        // other addresses — one-at-a-time reversion hits the budget.
        let mut pool = new_pool();
        let bad = pool.alloc(64).unwrap();
        let log = SharedLog::new();
        pool.set_sink(log.as_sink());
        pool.write_u64(bad, 999).unwrap();
        pool.persist(bad, 8).unwrap();
        for _ in 0..30 {
            let x = pool.alloc(64).unwrap();
            pool.write_u64(x, 5).unwrap();
            pool.persist(x, 8).unwrap();
        }
        pool.clear_sink();
        let out = with_threshold(bad, 100, |r| ArCkpt::new(10).mitigate(&mut pool, &log, r));
        assert!(!out.recovered, "timeout before reaching the old bad update");
        assert_eq!(out.attempts, 10);
    }

    #[test]
    fn arckpt_resumes_checkpointing_when_a_probe_panics() {
        let mut pool = new_pool();
        let a = pool.alloc(64).unwrap();
        let log = SharedLog::new();
        pool.set_sink(log.as_sink());
        pool.write_u64(a, 999).unwrap();
        pool.persist(a, 8).unwrap();
        pool.clear_sink();
        let module = Arc::new(ModuleBuilder::new().finish().unwrap());
        let probe = |_: &mut Vm| -> Result<(), FailureRecord> { panic!("probe panics") };
        let restart = Restart {
            module: &module,
            vm: VmOpts::default(),
            probe: &probe,
        };
        let mitigate = || ArCkpt::new(5).mitigate(&mut pool, &log, &restart);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(mitigate));
        assert!(caught.is_err(), "the probe's panic reaches the caller");

        let before = log.total_updates();
        let mut served = new_pool();
        served.set_sink(log.as_sink());
        served.write_u64(a, 1).unwrap();
        served.persist(a, 8).unwrap();
        assert_eq!(log.total_updates(), before + 1, "checkpointing is back on");
    }
}
