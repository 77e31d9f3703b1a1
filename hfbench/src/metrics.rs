//! The benchmark's metric and workload tables. `BENCHMARK.json` at the
//! repository root lists the same names; `tests/smoke.rs` keeps the two
//! equal.

use std::collections::BTreeMap;

use obs::Json;

/// Which module runs a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Kv,
    Recover,
    Offline,
    Campaign,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "kv-read",
        kind: Kind::Kv,
        why: "95% gets over TCP: gets skip persist, sink and log append, so codec, server loop, engine and the VM get path do the work; a checkpoint-path change must not move it",
    },
    Workload {
        name: "kv-write",
        kind: Kind::Kv,
        why: "95% zipfian sets over TCP: every op crosses pool persist, sink, sharded-log append and trace absorb, and hot addresses overflow the version cap so rotation runs",
    },
    Workload {
        name: "recover-f4",
        kind: Kind::Recover,
        why: "f4 armed under traffic: detect, restart-and-watch, slice, plan, fork, revert, re-execute do the work (7 or 8 isolated attempts); the steady request path does little",
    },
    Workload {
        name: "recover-f5",
        kind: Kind::Recover,
        why: "f5 bit flip under traffic: silent loss only the health probe sees, so the sets served before detection have to be reverted along with the flipped flag",
    },
    Workload {
        name: "recover-f10",
        kind: Kind::Recover,
        why: "f10 on segcache under traffic: the other engine backend, recovered in 2 or 5 attempts, so restart, fork and verification outweigh planning",
    },
    Workload {
        name: "recover-f4r",
        kind: Kind::Recover,
        why: "f4 with one hot-standby replica: pool-group seed, stream pump and promote-and-verify run before any reversion; no other workload reaches them",
    },
    Workload {
        name: "offline-recover",
        kind: Kind::Offline,
        why: "production replay plus mitigation of all twelve stock faults, and cold against warm analysis-cache restarts: the paper's Fig. 8/9 path, no sockets or health probe",
    },
    Workload {
        name: "campaign",
        kind: Kind::Campaign,
        why: "fleet injection campaign over all scenarios with the invariant oracle on: production replay, pool crash/fork and verdict checks dominate; the serving loop is not involved",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these, and none is ever 0.
/// `ops_per_s` counts the workload's own unit of work and
/// `response_ms` is the time its user waits — see the README's table.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "response_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit for bit for one seed and size.
    pub exact: bool,
}

/// A measured quantity.
const fn t(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// An exact count.
const fn n(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Reported by the traced run; a workload that does not reach a layer
/// reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    // What the client saw beyond the end-to-end medians.
    t("client.p99_us", "us"),
    t("client.outage_ms", "ms"),
    n("client.lost_acked", "count"),
    t("client.discarded_frac", "ratio"),
    // serve: codecs, engine, server runtime.
    t("serve.codec.mc_parse_ns", "ns"),
    t("serve.codec.mc_encode_ns", "ns"),
    t("serve.codec.resp_parse_ns", "ns"),
    t("serve.codec.resp_encode_ns", "ns"),
    t("serve.engine.get_us", "us"),
    t("serve.engine.set_us", "us"),
    t("serve.engine.health_us", "us"),
    t("serve.engine.new_ms", "ms"),
    t("serve.server.transport_us", "us"),
    n("serve.server.busy_rejections", "count"),
    // The outage, split on the server's own event timeline.
    t("serve.engine.detect_lag_ms", "ms"),
    t("serve.engine.restart_ms", "ms"),
    t("serve.engine.mitigation_ms", "ms"),
    t("serve.engine.verify_ms", "ms"),
    t("serve.engine.resume_ms", "ms"),
    n("serve.engine.rounds", "count"),
    // pir: the interpreter under the apps.
    t("pir.vm.get_us", "us"),
    t("pir.vm.put_us", "us"),
    t("pir.vm.trace_emit_us", "us"),
    n("pir.vm.steps_per_get", "count"),
    n("pir.vm.steps_per_put", "count"),
    // pmemsim: pool and pool group.
    t("pmemsim.pool.persist_us", "us"),
    n("pmemsim.pool.persists_per_op", "count"),
    n("pmemsim.pool.fences_per_op", "count"),
    t("pmemsim.pool.fork_ms", "ms"),
    t("pmemsim.pool.reabsorb_ms", "ms"),
    t("pmemsim.pool.crash_reopen_ms", "ms"),
    t("pmemsim.pool.snapshot_ms", "ms"),
    t("pmemsim.group.seed_ms", "ms"),
    t("pmemsim.group.pump_us_per_update", "us"),
    t("pmemsim.group.promote_ms", "ms"),
    // arthas: checkpoint log, trace, reactor, analyzer.
    t("arthas.checkpoint.append_us", "us"),
    n("arthas.checkpoint.updates_per_op", "count"),
    n("arthas.checkpoint.bytes_per_op", "B"),
    n("arthas.checkpoint.rotations_per_kop", "count"),
    t("arthas.checkpoint.view_ms", "ms"),
    t("arthas.checkpoint.updates_since_us", "us"),
    t("arthas.trace.absorb_us", "us"),
    n("arthas.trace.records_per_op", "count"),
    t("arthas.trace.retain_ms", "ms"),
    n("arthas.reactor.attempts", "count"),
    n("arthas.reactor.discarded", "count"),
    n("arthas.reactor.failovers", "count"),
    t("arthas.reactor.slice_ms", "ms"),
    t("arthas.reactor.plan_ms", "ms"),
    t("arthas.reactor.revert_ms", "ms"),
    t("arthas.reactor.reexec_ms", "ms"),
    n("arthas.reactor.attempts_total", "count"),
    n("arthas.reactor.slice_computes", "count"),
    t("arthas.analyzer.instrument_ms", "ms"),
    // pm-workload and pir-analysis: the offline pipeline.
    t("pm-workload.harness.production_ms", "ms"),
    t("pir-analysis.compute_ms", "ms"),
    t("pir-analysis.cache_load_ms", "ms"),
    t("pir-analysis.restart_cold_ms", "ms"),
    t("pir-analysis.restart_warm_ms", "ms"),
    // inject: the campaign runtime.
    t("inject.prepare_ms", "ms"),
    t("inject.trial_us_p50", "us"),
    t("inject.trial_us_p99", "us"),
    n("inject.trials", "count"),
    n("inject.verdict.clean_recovery", "count"),
    n("inject.verdict.mitigated", "count"),
    n("inject.verdict.unrecoverable", "count"),
    // The tracing itself.
    n("obs.ring.dropped", "count"),
    t("bench.trace_overhead_frac", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// The `value` and `unit` members every reported metric has.
pub fn measured(value: f64, unit: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("value", Json::F64(value)),
        ("unit", Json::Str(unit.into())),
    ]
}

/// What one run of one workload produced. It is correct when no
/// output check found a problem.
#[derive(Default)]
pub struct RunResult {
    /// The output checks that did not hold.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    /// The contract's result object: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub fn to_json(&self, traced: bool) -> Result<Json, String> {
        let defined: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for name in self.values.names() {
            if !defined.iter().any(|(n, _)| *n == name) {
                return Err(format!("metric {name} is not in the benchmark's tables"));
            }
        }
        let mut metrics = Vec::new();
        for (name, unit) in defined {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is {v}")),
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !traced && value == 0.0 {
                return Err(format!("end-to-end metric {name} is 0"));
            }
            metrics.push((name.to_string(), Json::obj(measured(value, unit))));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}
