//! Runs the whole benchmark at 1/50 size and checks that what it
//! writes and what `BENCHMARK.json` promises are the same thing.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use obs::Json;

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name`s of one of the manifest's lists.
fn names(manifest: &Json, list: &str) -> BTreeSet<String> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn keys(obj: Option<&Json>) -> BTreeSet<String> {
    match obj {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn committed_manifest() -> Json {
    read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

#[test]
fn benchmark_json_is_what_the_tables_say() {
    let out = Command::new(env!("CARGO_BIN_EXE_hfbench"))
        .arg("manifest")
        .output()
        .expect("hfbench manifest runs");
    assert!(out.status.success());
    let printed = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("manifest parses");
    assert_eq!(
        printed,
        committed_manifest(),
        "regenerate with `hfbench manifest`"
    );
}

#[test]
fn quick_run_writes_a_document_with_every_workload_and_metric() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let doc_path = tmp.join("hfbench-smoke.json");
    let status = Command::new(env!("CARGO_BIN_EXE_hfbench"))
        .args(["run", "--quick", "--out"])
        .arg(&doc_path)
        .env("CARGO_TARGET_DIR", &tmp)
        .status()
        .expect("hfbench run --quick runs");
    assert!(
        status.success(),
        "an output check failed or the document is invalid"
    );

    let doc = read_json(&doc_path);
    let manifest = committed_manifest();
    let workloads = doc.get("workloads");
    assert_eq!(keys(workloads), names(&manifest, "workloads"));
    for w in names(&manifest, "workloads") {
        let entry = workloads.and_then(|ws| ws.get(&w)).expect("workload entry");
        assert_eq!(
            entry.get("correct").and_then(Json::as_bool),
            Some(true),
            "{w}"
        );
        assert_eq!(entry.get("failed").and_then(Json::as_u64), Some(0), "{w}");
        assert_eq!(
            keys(entry.get("end_to_end")),
            names(&manifest, "end_to_end"),
            "{w}"
        );
        assert_eq!(
            keys(entry.get("per_layer")),
            names(&manifest, "per_layer"),
            "{w}"
        );
        for (name, m) in match entry.get("end_to_end") {
            Some(Json::Obj(pairs)) => pairs,
            _ => unreachable!(),
        } {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value > 0.0, "{w}: end-to-end metric {name} is {value}");
        }
    }

    // A document compares clean against itself, exact counts included.
    let status = Command::new(env!("CARGO_BIN_EXE_hfbench"))
        .arg("compare")
        .arg(&doc_path)
        .arg(&doc_path)
        .status()
        .expect("hfbench compare runs");
    assert!(status.success());
}
