//! Schema for the `stats` command's reply.
//!
//! The memcached `STAT k v` lines double as the server's machine
//! surface (the load driver's loss gate reads `discarded_updates` out
//! of them), so their shape is a promise like the `report`
//! subcommand's JSON: [`stats_json`] lifts a reply into a [`Json`]
//! object and [`stats_schema`] pins the member set and types —
//! additions pass, removals and type changes fail validation.

use obs::{Field, Json, Schema};

/// Converts a `stats` reply's key/value lines into a JSON object:
/// values that parse as unsigned integers (every counter) become
/// numbers, the rest stay strings.
pub fn stats_json(kvs: &[(String, String)]) -> Json {
    Json::Obj(
        kvs.iter()
            .map(|(k, v)| {
                let j = match v.parse::<u64>() {
                    Ok(n) => Json::U64(n),
                    Err(_) => Json::Str(v.clone()),
                };
                (k.clone(), j)
            })
            .collect(),
    )
}

/// Schema of the engine's `stats` reply (after [`stats_json`]).
/// [`Schema::Obj`] members are a floor: unknown additions — including
/// the per-replica `replica_<i>_lag`/`replica_<i>_faulted` lines and
/// server-side extras — pass, removals and type changes fail.
pub fn stats_schema() -> Schema {
    use Schema::{Obj, Str, UInt};
    Obj(vec![
        Field::req("version", Str),
        Field::req("scenario", Str),
        Field::req("backend", Str),
        Field::req("uptime_us", UInt),
        Field::req("curr_items", UInt),
        Field::req("cmd_requests", UInt),
        Field::req("cmd_get", UInt),
        Field::req("cmd_set", UInt),
        Field::req("cmd_delete", UInt),
        Field::req("get_hits", UInt),
        Field::req("get_misses", UInt),
        Field::req("faults_observed", UInt),
        Field::req("restarts", UInt),
        Field::req("mitigations", UInt),
        Field::req("mitigations_recovered", UInt),
        Field::req("mitigating", UInt),
        Field::req("fault_armed", UInt),
        Field::req("discarded_updates", UInt),
        Field::req("total_updates", UInt),
        Field::req("replicas", UInt),
        Field::req("failovers", UInt),
        Field::opt("last_mitigation_recovered", UInt),
        Field::opt("last_mitigation_attempts", UInt),
        Field::opt("last_mitigation_discarded", UInt),
        Field::opt("last_mitigation_wall_us", UInt),
        Field::opt("last_mitigation_failed_over", UInt),
        Field::opt("last_mitigation_slice_us", UInt),
        Field::opt("last_mitigation_plan_us", UInt),
        Field::opt("last_mitigation_revert_us", UInt),
        Field::opt("last_mitigation_reexec_us", UInt),
        Field::opt("last_failover_wall_us", UInt),
        Field::opt("op_p50_us", UInt),
        Field::opt("op_p99_us", UInt),
        Field::opt("op_max_us", UInt),
        Field::opt("repl_lag_p50", UInt),
        Field::opt("repl_lag_p99", UInt),
        Field::opt("repl_lag_max", UInt),
        Field::opt("lock_wait_p50_us", UInt),
        Field::opt("lock_wait_p99_us", UInt),
        Field::opt("worker_wakeups", UInt),
        Field::opt("worker_spurious_wakeups", UInt),
    ])
}

/// Validates a `stats` reply against [`stats_schema`].
pub fn validate_stats(kvs: &[(String, String)]) -> Result<(), Vec<String>> {
    obs::validate(&stats_json(kvs), &stats_schema())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Reply;
    use crate::engine::{Engine, EngineConfig};
    use obs::RingRecorder;
    use std::sync::Arc;

    fn stats_of(replicas: usize) -> Vec<(String, String)> {
        let cfg = EngineConfig {
            scenario: "f4".into(),
            replicas,
            ..EngineConfig::default()
        };
        let mut e =
            Engine::new(cfg, None, Arc::new(RingRecorder::new(1024))).expect("engine builds");
        let Reply::Stats(kvs) = e.stats_reply(&[("threads".into(), "4".into())]) else {
            panic!("stats reply");
        };
        kvs
    }

    #[test]
    fn fresh_engine_stats_are_schema_valid() {
        validate_stats(&stats_of(0)).expect("single-pool stats match the schema");
    }

    #[test]
    fn replicated_engine_stats_are_schema_valid() {
        let kvs = stats_of(2);
        validate_stats(&kvs).expect("replicated stats match the schema");
        let get = |name: &str| {
            kvs.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing stat {name}"))
        };
        assert_eq!(get("replicas"), "2");
        assert_eq!(get("replica_1_faulted"), "0");
    }

    #[test]
    fn schema_drift_is_caught() {
        let mut kvs = stats_of(0);
        kvs.retain(|(k, _)| k != "discarded_updates");
        let errs = validate_stats(&kvs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("`discarded_updates`")),
            "{errs:?}"
        );
        let mut kvs = stats_of(0);
        for (k, v) in kvs.iter_mut() {
            if k == "restarts" {
                *v = "soon".into();
            }
        }
        let errs = validate_stats(&kvs).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("$.restarts")), "{errs:?}");
    }
}
