//! Every `BENCH_*.json` at the repository root backs a performance claim
//! with committed measurements: the `hfbench run` documents of the parent
//! and the change, the `hfbench compare` rows between them, and the
//! alternating parent/change runs of the claimed metric. This test checks
//! each file's shape against `BENCHMARK.json`; with no such file it passes.

use std::path::Path;

use obs::Json;

const BENCHMARK: &str = include_str!("../BENCHMARK.json");
/// Alternating runs each side needs before a claim can be judged.
const MIN_PAIRS: usize = 10;

/// The `name` of every member of `BENCHMARK.json`'s array `key`.
fn names(benchmark: &Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Every problem with one `BENCH_PR<n>.json` named `file`.
fn problems(file: &str, doc: &Json, workloads: &[String], metrics: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let pr = file
        .strip_prefix("BENCH_PR")
        .and_then(|s| s.strip_suffix(".json"))
        .and_then(|n| n.parse::<u64>().ok());
    if pr.is_none() || doc.get("pr").and_then(Json::as_u64) != pr {
        out.push(format!("`pr` does not match the file name {file}"));
    }
    match doc.get("claim") {
        Some(Json::Null) => {}
        Some(claim) => {
            let named = |key: &str, known: &[String]| {
                claim
                    .get(key)
                    .and_then(Json::as_str)
                    .is_some_and(|v| known.iter().any(|k| k == v))
            };
            if !named("workload", workloads) || !named("metric", metrics) {
                out.push(
                    "`claim` names no workload and end-to-end metric of BENCHMARK.json".into(),
                );
            }
        }
        None => out.push("no `claim` (null when nothing is claimed)".into()),
    }
    for side in ["parent", "change"] {
        for w in workloads {
            for m in metrics {
                let value = doc
                    .get(side)
                    .and_then(|d| d.get("workloads"))
                    .and_then(|ws| ws.get(w))
                    .and_then(|e| e.get("end_to_end"))
                    .and_then(|e| e.get(m))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64);
                if value.is_none() {
                    out.push(format!("`{side}` has no {w} {m}"));
                }
            }
        }
        let runs = doc
            .get("pairs")
            .and_then(|p| p.get(side))
            .and_then(Json::as_arr)
            .map_or(0, |r| r.iter().filter(|v| v.as_f64().is_some()).count());
        if runs < MIN_PAIRS {
            out.push(format!(
                "`pairs.{side}` holds {runs} runs, fewer than {MIN_PAIRS}"
            ));
        }
    }
    if doc.get("compare").and_then(Json::as_arr).is_none() {
        out.push("no `compare` rows".into());
    }
    out
}

#[test]
fn every_bench_document_backs_its_claim() {
    let benchmark = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let workloads = names(&benchmark, "workloads");
    let metrics = names(&benchmark, "end_to_end");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for entry in std::fs::read_dir(root).expect("repository root") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(root.join(name.as_ref())).expect("readable");
        match Json::parse(&text) {
            Ok(doc) => failures.extend(
                problems(&name, &doc, &workloads, &metrics)
                    .into_iter()
                    .map(|p| format!("{name}: {p}")),
            ),
            Err(e) => failures.push(format!("{name}: {e}")),
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn a_document_missing_its_runs_is_caught() {
    let benchmark = Json::parse(BENCHMARK).unwrap();
    let (workloads, metrics) = (
        names(&benchmark, "workloads"),
        names(&benchmark, "end_to_end"),
    );
    let doc = Json::parse(
        r#"{"pr": 3, "claim": {"metric": "response_ms", "workload": "no-such-workload"},
            "parent": {}, "change": {}, "compare": [], "pairs": {"parent": [1.0], "change": []}}"#,
    )
    .unwrap();
    let found = problems("BENCH_PR4.json", &doc, &workloads, &metrics);
    for want in [
        "`pr`",
        "`claim`",
        "`parent` has no",
        "`pairs.parent`",
        "`pairs.change`",
    ] {
        assert!(found.iter().any(|p| p.contains(want)), "{want}: {found:?}");
    }
}
