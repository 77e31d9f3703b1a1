//! `recover-f4`, `recover-f5`, `recover-f10`, `recover-f4r`: a hard
//! fault armed under live traffic and recovered online.
//!
//! One episode: fresh server (one worker), one connection, preload,
//! traffic with a tracked set every 32nd request, `FaultArm`, a window
//! of eight requests up to the engine's next health probe, more traffic
//! on the recovered engine, read back every acknowledged tracked set,
//! `stats`, shutdown. One connection keeps the work exact: the request
//! that hits the fault is the one that waits out the recovery.

use std::time::Instant;

use obs::Event;
use serve::{Cmd, Reply};

use crate::driver::{get_matches, outage_us, run_stream, stat_u64};
use crate::gen::{self, derive, Mix, Request};
use crate::kv::{serve_preloaded, server_config};
use crate::layers::{self, App};
use crate::metrics::RunResult;
use crate::run::{repeat, Budget, Units};
use crate::span::Tracer;
use crate::stats::{median, midhinge, over};

#[derive(Debug, Clone, Copy)]
pub struct Series {
    pub scenario: &'static str,
    pub replicas: usize,
}

pub fn series(workload: &str) -> Series {
    let (scenario, replicas) = match workload {
        "recover-f4" => ("f4", 0),
        "recover-f5" => ("f5", 0),
        "recover-f10" => ("f10", 0),
        "recover-f4r" => ("f4", 1),
        other => panic!("not a recover workload: {other}"),
    };
    Series { scenario, replicas }
}

/// Preloaded keys, and the key space of the traffic.
pub const KEYS: u64 = 512;
/// Requests before the arm. The engine probes its health on every
/// 128th request, preload included, so 512 + 120 requests put the arm
/// [`WINDOW`] requests before the next probe.
pub const OPS_BEFORE_ARM: usize = 120;
/// Requests between the arm and the probe that detects the fault at the
/// latest.
pub const WINDOW: usize = 8;
/// Requests after the arm: the window, then 56 that the recovered
/// engine serves. Episodes this short are what lets a run hold 25 to 40
/// of them.
pub const OPS_AFTER_ARM: usize = WINDOW + 56;
/// Every this-many-th request sets a fresh tracked key.
pub const TRACKED_EVERY: usize = 32;

const MIX: Mix = Mix {
    keys: KEYS,
    read_pct: 50,
    theta: 0.0,
};

pub struct Episode {
    pub setup_s: f64,
    /// First request sent → last reply received, outage included.
    pub traffic_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed request failed.
    pub first_failure: Option<String>,
    pub ok: u64,
    pub outage_us: Option<u64>,
    pub armed_us: u64,
    pub recovered: bool,
    pub tracked_acked: u64,
    pub tracked_lost: u64,
    pub discarded_updates: u64,
    pub total_updates: u64,
    pub attempts: u64,
    pub failovers: u64,
    pub busy_rejections: u64,
    pub protocol_errors: u64,
    pub ring_dropped: u64,
    /// The server's event timeline, on the clock the samples use.
    pub events: Vec<Event>,
}

impl Episode {
    /// The output checks of one episode.
    pub fn check(&self) -> Result<(), String> {
        if !self.recovered {
            return Err("server did not report a recovered mitigation".into());
        }
        if self.outage_us.is_none() {
            return Err("no successful reply after the fault was armed".into());
        }
        if let Some(first) = &self.first_failure {
            return Err(format!("{} requests failed; first: {first}", self.failed));
        }
        if self.tracked_acked == 0 {
            return Err("no tracked set was acknowledged, so the loss check is empty".into());
        }
        if self.tracked_lost > self.discarded_updates {
            return Err(format!(
                "{} acknowledged tracked sets lost but only {} updates discarded",
                self.tracked_lost, self.discarded_updates
            ));
        }
        if self.protocol_errors > 0 {
            return Err(format!("{} protocol errors", self.protocol_errors));
        }
        Ok(())
    }
}

/// Fixes the kinds of the window's requests: sets and gets alternate,
/// starting with a get in even episodes and with a set in odd ones.
/// Keys and values stay the seed's.
///
/// What the traffic sends between the fault and its detection decides
/// how deep the recovery goes, because every set in between is
/// post-fault traffic the reactor has to tell apart from the fault. f10
/// surfaces on the first get (no set before it: 2 attempts, one or two:
/// 5, three: 6) and f5 at the probe (one set in the window: 2 attempts,
/// four to six: 6, a dozen: 8). Left to the seed those counts are random,
/// a run's outage follows its luck, and about one f5 episode in a
/// hundred with 15 or more sets in a 36-request window is not recovered
/// at all (37 attempts, plan exhausted). Fixed, every run holds the same
/// depths in equal parts: f10 alternates 2 and 5 attempts, f5 always
/// reverts four sets.
fn fix_window(stream: &mut [Request], index: u64, seed: u64) {
    for (j, req) in stream.iter_mut().take(WINDOW).enumerate() {
        let j = j as u64;
        *req = if (j + index).is_multiple_of(2) {
            Request::get(req.key)
        } else {
            Request::set(req.key, derive(seed, 0x1EAD + j))
        };
    }
}

/// Episode `index` of a run, on inputs made from `seed`.
pub fn episode(series: Series, index: u64, seed: u64) -> Result<Episode, String> {
    let t_setup = Instant::now();
    let served = serve_preloaded(
        server_config(series.scenario, 1, series.replicas),
        &MIX,
        1,
        seed,
    )?;
    let before = gen::requests(&MIX, OPS_BEFORE_ARM, 0, 1, seed, TRACKED_EVERY, 0);
    let mut after = gen::requests(
        &MIX,
        OPS_AFTER_ARM,
        0,
        1,
        derive(seed, 1),
        TRACKED_EVERY,
        (OPS_BEFORE_ARM / TRACKED_EVERY) as u64,
    );
    fix_window(&mut after, index, seed);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let rec = served.recorder.clone();
    let (mut client, mut model) = served.clients.into_iter().next().expect("one client");
    let mut off = Tracer::new(false);

    let t0 = Instant::now();
    let pre = run_stream(&mut client, &before, &mut model, true, &rec, &mut off);
    match client.request(&Cmd::FaultArm, &mut off, 0) {
        Ok(Reply::Ok) => {}
        other => return Err(format!("fault_arm: {other:?}")),
    }
    let armed_us = rec.now_us();
    // Reverting checkpointed updates may legitimately roll a key back,
    // so after the arm a get only has to succeed.
    let post = run_stream(&mut client, &after, &mut model, false, &rec, &mut off);
    let traffic_s = t0.elapsed().as_secs_f64();

    let mut tracked_acked = 0;
    let mut tracked_lost = 0;
    for &(key, fill, len) in pre.acked_sets.iter().chain(&post.acked_sets) {
        if key < gen::TRACK_BASE {
            continue;
        }
        tracked_acked += 1;
        let intact = matches!(
            client.request(&gen::get(key), &mut off, 0),
            Ok(reply) if get_matches(&reply, Some(&(fill, len)))
        );
        tracked_lost += u64::from(!intact);
    }
    let stats = client.stats()?;
    let report = served.handle.shutdown();

    let timeline = post.samples.iter().map(|s| (s.end_us, s.ok));
    let outage = outage_us(armed_us, timeline);
    let stat = |name: &str| stat_u64(&stats, name).unwrap_or(0);
    Ok(Episode {
        setup_s,
        traffic_s,
        attempted: (before.len() + after.len()) as u64,
        failed: pre.failed() + post.failed(),
        first_failure: pre.first_failure.or(post.first_failure),
        ok: (pre.samples.iter().chain(&post.samples))
            .filter(|s| s.ok)
            .count() as u64,
        outage_us: outage,
        armed_us,
        recovered: stat("mitigations_recovered") >= 1 && stat("mitigating") == 0,
        tracked_acked,
        tracked_lost,
        discarded_updates: stat("discarded_updates"),
        total_updates: stat("total_updates"),
        attempts: stat("last_mitigation_attempts"),
        failovers: stat("failovers"),
        busy_rejections: report.busy_rejections,
        protocol_errors: report.protocol_errors,
        ring_dropped: rec.dropped(),
        events: rec.events(),
    })
}

/// The outage of one episode, split on the server's event timeline.
/// Each interval between two consecutive top-level `serve.*` events
/// belongs to the phase its first event starts, so the phases add up to
/// the outage exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Split {
    /// Armed → first `serve.fault`, and any serving between a recovery
    /// and a recurrence.
    pub detect_lag_us: u64,
    /// Crash and in-process restart (`serve.fault` → next event,
    /// `serve.mitigation_end` → `serve.restart`).
    pub restart_us: u64,
    /// `serve.mitigation_begin` → `serve.mitigation_end`.
    pub mitigation_us: u64,
    /// The health probe after each restart.
    pub verify_us: u64,
    /// `serve.recovered` → the reply that ended the outage.
    pub resume_us: u64,
    /// `serve.fault` events: rounds of the recovery loop.
    pub rounds: u64,
}

impl Split {
    pub fn total_us(&self) -> u64 {
        self.detect_lag_us + self.restart_us + self.mitigation_us + self.verify_us + self.resume_us
    }
}

/// `events` is (time, kind) in time order; only the recovery loop's own
/// events inside `(armed_us, end_us]` count.
pub fn split(armed_us: u64, end_us: u64, events: &[(u64, &str)]) -> Split {
    let mut out = Split::default();
    let mut at = armed_us;
    let mut phase: &str = "armed";
    let charge = |out: &mut Split, phase: &str, us: u64, last: bool| match phase {
        "serve.fault" | "serve.mitigation_end" => out.restart_us += us,
        "serve.mitigation_begin" => out.mitigation_us += us,
        "serve.restart" => out.verify_us += us,
        "serve.recovered" if last => out.resume_us += us,
        _ => out.detect_lag_us += us,
    };
    for &(t, kind) in events {
        let top_level = matches!(
            kind,
            "serve.fault"
                | "serve.mitigation_begin"
                | "serve.mitigation_end"
                | "serve.restart"
                | "serve.recovered"
        );
        if !top_level || t <= armed_us || t > end_us {
            continue;
        }
        charge(&mut out, phase, t - at, false);
        out.rounds += u64::from(kind == "serve.fault");
        at = t;
        phase = kind;
    }
    charge(&mut out, phase, end_us - at, true);
    out
}

impl Episode {
    pub fn split(&self) -> Split {
        let events: Vec<(u64, &str)> = self.events.iter().map(|e| (e.t_us, e.kind)).collect();
        split(
            self.armed_us,
            self.armed_us + self.outage_us.unwrap_or(0),
            &events,
        )
    }
}

/// Counts that must repeat exactly are summed over this many episodes,
/// because the number of episodes a run fits into its budget varies.
fn exact_episodes(budget: &Budget) -> usize {
    budget.at_least(4, 2)
}

fn episodes(
    workload: &str,
    seed: u64,
    seconds: f64,
    budget: &Budget,
) -> Result<Units<Episode>, String> {
    repeat(seconds, budget.warmup(1), exact_episodes(budget), |i| {
        episode(series(workload), i, derive(seed, i))
    })
}

fn totals(eps: &[Episode], result: &mut RunResult) {
    for (i, e) in eps.iter().enumerate() {
        result.attempted += e.attempted;
        result.failed += e.failed;
        if let Err(why) = e.check() {
            result.problems.push(format!("episode {i}: {why}"));
        }
    }
}

pub fn run(workload: &str, seed: u64, budget: Budget) -> Result<RunResult, String> {
    let run = episodes(workload, seed, budget.seconds, &budget)?;
    let eps = run.kept;
    let mut result = RunResult::default();
    totals(&eps, &mut result);
    let v = &mut result.values;
    v.set(
        "ops_per_s",
        over(&eps, midhinge, |e| e.ok as f64 / e.traffic_s),
    );
    v.set(
        "response_ms",
        over(&eps, midhinge, |e| e.outage_us.unwrap_or(0) as f64 / 1e3),
    );
    v.set("setup_s", over(&eps, median, |e| e.setup_s));
    v.set("peak_rss_mb", run.peak_rss_mb);
    Ok(result)
}

/// The traced run: the same episodes, read for the outage split and the
/// reactor's counts, then the layer probes on the traffic the episode
/// had seen when the fault was armed.
pub fn run_traced(workload: &str, seed: u64, budget: Budget) -> Result<RunResult, String> {
    let eps = episodes(workload, seed, budget.seconds / 2.0, &budget)?.kept;
    let mut result = RunResult::default();
    totals(&eps, &mut result);
    let splits: Vec<Split> = eps.iter().map(Episode::split).collect();
    let v = &mut result.values;
    // Each phase's share of all episodes' outage time, applied to the
    // run's outage, so that the five phases add up to it.
    let outage_ms = over(&eps, midhinge, |e| e.outage_us.unwrap_or(0) as f64 / 1e3);
    let all_us: u64 = splits.iter().map(Split::total_us).sum();
    let phase = |f: fn(&Split) -> u64| {
        outage_ms * splits.iter().map(f).sum::<u64>() as f64 / all_us.max(1) as f64
    };
    v.set("client.outage_ms", outage_ms);
    v.set("serve.engine.detect_lag_ms", phase(|s| s.detect_lag_us));
    v.set("serve.engine.restart_ms", phase(|s| s.restart_us));
    v.set("serve.engine.mitigation_ms", phase(|s| s.mitigation_us));
    v.set("serve.engine.verify_ms", phase(|s| s.verify_us));
    v.set("serve.engine.resume_ms", phase(|s| s.resume_us));
    let n_exact = exact_episodes(&budget);
    let exact = &eps[..n_exact];
    let sum = |f: fn(&Episode) -> u64| exact.iter().map(f).sum::<u64>() as f64;
    v.set(
        "serve.engine.rounds",
        splits[..n_exact].iter().map(|s| s.rounds).sum::<u64>() as f64,
    );
    v.set("arthas.reactor.attempts", sum(|e| e.attempts));
    v.set("arthas.reactor.discarded", sum(|e| e.discarded_updates));
    v.set("arthas.reactor.failovers", sum(|e| e.failovers));
    v.set("serve.server.busy_rejections", sum(|e| e.busy_rejections));
    v.set("client.lost_acked", sum(|e| e.tracked_lost));
    v.set(
        "client.discarded_frac",
        sum(|e| e.discarded_updates) / sum(|e| e.total_updates),
    );
    v.set(
        "obs.ring.dropped",
        eps.iter().map(|e| e.ring_dropped).sum::<u64>() as f64,
    );

    let preload = gen::preload(&MIX, 0, 1, seed);
    let stream = gen::requests(&MIX, OPS_BEFORE_ARM, 0, 1, seed, TRACKED_EVERY, 0);
    let mut stack = layers::stack(App::of(series(workload).scenario), &preload, &stream, v)?;
    layers::pool_and_group(&mut stack, v)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_the_outage() {
        // Armed at 1000; first sighting, restart, recurrence, mitigation,
        // restart, healthy probe, recovered; the reply lands at 2000.
        let events = [
            (990, "serve.fault_armed"),
            (1100, "serve.fault"),
            (1110, "serve.restart"),
            (1150, "serve.fault"),
            (1160, "serve.mitigation_begin"),
            (1500, "reactor.attempt"),
            (1800, "serve.mitigation_end"),
            (1830, "serve.restart"),
            (1900, "serve.recovered"),
            (2500, "serve.fault"),
        ];
        let s = split(1000, 2000, &events);
        assert_eq!(
            s,
            Split {
                detect_lag_us: 100,
                restart_us: 10 + 10 + 30,
                mitigation_us: 640,
                verify_us: 40 + 70,
                resume_us: 100,
                rounds: 2,
            }
        );
        assert_eq!(s.total_us(), 1000);
    }

    #[test]
    fn serving_between_two_recoveries_is_detection_lag() {
        let events = [
            (1100, "serve.fault"),
            (1200, "serve.restart"),
            (1300, "serve.recovered"),
            (1700, "serve.fault"),
            (1800, "serve.restart"),
            (1900, "serve.recovered"),
        ];
        let s = split(1000, 1950, &events);
        assert_eq!(s.detect_lag_us, 100 + 400);
        assert_eq!(s.resume_us, 50);
        assert_eq!(s.total_us(), 950);
    }
}
