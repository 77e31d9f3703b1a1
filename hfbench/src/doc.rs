//! The benchmark's result document: assembling it from per-workload
//! runs, its schema, and comparing two of them.

use obs::{Field, Json, Schema};

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;

pub const SCHEMA_VERSION: u64 = 1;

/// `{value, unit}` as the runs print it; `runs` holds every repeat's
/// value when the document was made with `--repeat`.
fn metric_schema() -> Schema {
    Schema::Obj(vec![
        Field::req("value", Schema::Num),
        Field::req("unit", Schema::Str),
        Field::opt("runs", Schema::arr(Schema::Num)),
    ])
}

pub fn schema() -> Schema {
    use Schema::{Bool, Obj, Str, UInt};
    Obj(vec![
        Field::req("schema_version", UInt),
        Field::req("benchmark", Str),
        Field::req("seed", UInt),
        Field::req("seconds", UInt),
        Field::req("quick", Bool),
        Field::req(
            "host",
            Obj(vec![
                Field::req("nproc", UInt),
                Field::req("cpu_model", Str),
            ]),
        ),
        Field::req("git_rev", Str),
        Field::req("sizes", Schema::map(Schema::map(UInt))),
        Field::req(
            "workloads",
            Schema::map(Obj(vec![
                Field::req("correct", Bool),
                Field::req("attempted", UInt),
                Field::req("failed", UInt),
                Field::req("end_to_end", Schema::map(metric_schema())),
                Field::req("per_layer", Schema::map(metric_schema())),
            ])),
        ),
    ])
}

/// Every workload and metric of the benchmark's tables must be present
/// (the schema alone only fixes shapes).
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    obs::validate(doc, &schema())?;
    let mut missing = Vec::new();
    for w in WORKLOADS {
        let Some(entry) = doc.get("workloads").and_then(|ws| ws.get(w.name)) else {
            missing.push(format!("workload {} is missing", w.name));
            continue;
        };
        let e2e = END_TO_END.iter().map(|m| ("end_to_end", m.name));
        let layers = PER_LAYER.iter().map(|m| ("per_layer", m.name));
        for (section, name) in e2e.chain(layers) {
            if entry.get(section).and_then(|s| s.get(name)).is_none() {
                missing.push(format!("{}: {section} metric {name} is missing", w.name));
            }
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

fn value(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    let runs = m
        .get("runs")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, runs))
}

/// (max − min) / median of a metric's repeats; 0 without repeats.
pub fn spread(runs: &[f64]) -> f64 {
    if runs.len() < 2 {
        return 0.0;
    }
    let max = runs.iter().copied().fold(f64::MIN, f64::max);
    let min = runs.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(runs)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges `b` against `a` under `bound`: worse when `b`'s value is
/// worse than `a`'s by more than the bound; unresolved instead when
/// either side's repeats spread wider than the bound, unless every
/// repeat of `b` is better than every repeat of `a`.
pub fn judge(
    better: Better,
    bound: f64,
    (a, a_runs): (f64, &[f64]),
    (b, b_runs): (f64, &[f64]),
) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if spread(a_runs) > bound || spread(b_runs) > bound {
        let b_always_better = a_runs.iter().all(|&x| {
            b_runs.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (workload, end-to-end metric) and one per exact
/// count that differs; returns whether any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    for (name, doc) in [("first", a), ("second", b)] {
        validate(doc).map_err(|e| format!("{name} document: {}", e.join("; ")))?;
    }
    let same = |key: &str| a.get(key) == b.get(key);
    let same_inputs = same("seed") && same("sizes") && same("quick");
    let mut any_worse = false;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "first", "second", "change"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let (av, ar) = value(a, w.name, "end_to_end", m.name).expect("validated");
            let (bv, br) = value(b, w.name, "end_to_end", m.name).expect("validated");
            let verdict = judge(m.better, m.bound, (av, &ar), (bv, &br));
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<16} {:<12} {:>14.4} {:>14.4} {:>+7.1}%  {}",
                w.name,
                m.name,
                av,
                bv,
                (bv - av) / av * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if !same_inputs {
        println!("seed or sizes differ: exact counts not compared");
        return Ok(any_worse);
    }
    for w in WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (av, _) = value(a, w.name, "per_layer", m.name).expect("validated");
            let (bv, _) = value(b, w.name, "per_layer", m.name).expect("validated");
            if av != bv {
                any_worse = true;
                println!(
                    "{:<16} {} is an exact count: {av} against {bv}  worse",
                    w.name, m.name
                );
            }
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_in_the_metrics_direction() {
        let none: &[f64] = &[];
        assert_eq!(
            judge(Better::Lower, 0.1, (100.0, none), (109.0, none)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, (100.0, none), (111.0, none)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.1, (100.0, none), (89.0, none)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.1, (100.0, none), (150.0, none)),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(
            judge(
                Better::Lower,
                0.1,
                (100.0, &noisy),
                (120.0, &[119.0, 120.0, 121.0])
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                Better::Lower,
                0.1,
                (100.0, &noisy),
                (70.0, &[69.0, 70.0, 71.0])
            ),
            Verdict::Ok
        );
        assert!((spread(&noisy) - 0.45).abs() < 1e-9);
    }
}
