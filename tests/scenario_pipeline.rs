//! The paper's evaluation as tests: fault scenarios through the full
//! production → detection → mitigation pipeline, every cell of the
//! `reproduce` matrix.
//!
//! One test runs the whole matrix (`arthas_repro::reproduce::run`, 120
//! cells) and requires its `counts` to equal `tests/golden/reproduce.json`
//! byte for byte. Every other test reads that committed document, so the
//! paper's claims — and each place this repo departs from them, as rows
//! of `tests/golden/paper.json` — are assertions over data that the first
//! test ties to the code. `EXPERIMENTS.md`'s tables are checked against
//! the same document. Regenerate golden and doc blocks together with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test scenario_pipeline
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use arthas_repro::reproduce;
use obs::Json;
use pm_workload::scenarios;

fn root(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// One live run of the whole matrix, shared by the tests that need it:
/// the full document, and its committed part `{schema_version, counts}`.
fn live() -> &'static (Json, Json) {
    static LIVE: OnceLock<(Json, Json)> = OnceLock::new();
    LIVE.get_or_init(|| {
        let t0 = std::time::Instant::now();
        let doc = reproduce::run(None).expect("every scenario reaches a detected hard failure");
        eprintln!("reproduce::run: {:.1} s", t0.elapsed().as_secs_f64());
        let Json::Obj(mut members) = doc.clone() else {
            panic!("the document is an object")
        };
        members.retain(|(k, _)| k != "timings");
        (doc, Json::Obj(members))
    })
}

/// The committed document (the live one while regenerating, so that no
/// test reads a half-written file).
fn golden() -> Json {
    if updating() {
        return live().1.clone();
    }
    let path = root("tests/golden/reproduce.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test --test scenario_pipeline",
            path.display()
        )
    });
    Json::parse(&text).expect("golden document parses")
}

/// A member of `tests/golden/paper.json`.
fn paper(path: &[&str]) -> Json {
    let member = path.iter().try_fold(reproduce::paper(), |j, k| j.get(k));
    member
        .unwrap_or_else(|| panic!("paper.json has {path:?}"))
        .clone()
}

fn rows(doc: &Json, section: &str) -> Vec<Json> {
    let found = doc.get("counts").and_then(|c| c.get(section));
    found
        .and_then(Json::as_arr)
        .expect("section exists")
        .to_vec()
}

fn ids(doc: &Json) -> Vec<String> {
    let scenarios = rows(doc, "scenarios");
    scenarios
        .iter()
        .map(|s| text(s, "id").to_string())
        .collect()
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).expect("string member")
}

fn num(row: &Json, key: &str) -> u64 {
    row.get(key).and_then(Json::as_u64).expect("integer member")
}

fn flag(row: &Json, key: &str) -> bool {
    row.get(key)
        .and_then(Json::as_bool)
        .expect("boolean member")
}

/// The cell of `scenario` × `solution` at `seed`.
fn cell_at(doc: &Json, scenario: &str, solution: &str, seed: u64) -> Option<Json> {
    rows(doc, "cells").into_iter().find(|c| {
        text(c, "scenario") == scenario && text(c, "solution") == solution && num(c, "seed") == seed
    })
}

fn cell(doc: &Json, scenario: &str, solution: &str) -> Json {
    cell_at(doc, scenario, solution, 1)
        .unwrap_or_else(|| panic!("the matrix has no cell {scenario} × {solution}"))
}

fn recovered(doc: &Json, scenario: &str, solution: &str) -> bool {
    flag(&cell(doc, scenario, solution), "recovered")
}

/// The scenarios for which `keep` holds, as `"f1, f3"`.
fn list(doc: &Json, keep: impl Fn(&str) -> bool) -> String {
    let kept: Vec<String> = ids(doc).into_iter().filter(|id| keep(id)).collect();
    kept.join(", ")
}

fn reversion_faults(doc: &Json) -> Vec<String> {
    let scenarios = rows(doc, "scenarios");
    let reversion = scenarios.iter().filter(|s| !flag(s, "leak"));
    reversion.map(|s| text(s, "id").to_string()).collect()
}

fn first_difference(got: &str, want: &str) -> String {
    let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    let line = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    format!(
        "line {}\n  got:  {:?}\n  want: {:?}\n(UPDATE_GOLDEN=1 to accept)",
        line + 1,
        got.lines().nth(line).unwrap_or(""),
        want.lines().nth(line).unwrap_or(""),
    )
}

#[test]
fn the_matrix_runs_each_cell_once_and_equals_the_golden_document() {
    let (full, doc) = live();
    // Every section renders, the timing ones included (only the command
    // prints those).
    for (name, _) in reproduce::sections() {
        assert!(!reproduce::render(&name, full).is_empty(), "{name}");
    }
    let cells = rows(doc, "cells");
    let keys: BTreeSet<(String, String, u64)> = cells
        .iter()
        .map(|c| {
            (
                text(c, "scenario").into(),
                text(c, "solution").into(),
                num(c, "seed"),
            )
        })
        .collect();
    assert_eq!((cells.len(), keys.len()), (108, 108), "108 distinct cells");

    let got = doc.render_pretty();
    let path = root("tests/golden/reproduce.json");
    if updating() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden document exists");
    assert!(
        got == want,
        "reproduce counts differ from {} at {}",
        path.display(),
        first_difference(&got, &want)
    );
}

/// Every measured table of `EXPERIMENTS.md` sits between
/// `<!-- reproduce:NAME -->` and `<!-- /reproduce:NAME -->` and is the
/// section `reproduce` prints, rendered from the committed document.
#[test]
fn experiments_md_blocks_are_rendered_from_the_golden_document() {
    let doc = golden();
    let path = root("EXPERIMENTS.md");
    let before = std::fs::read_to_string(&path).expect("EXPERIMENTS.md exists");
    let mut after = before.clone();
    for (name, _) in reproduce::sections() {
        if name.ends_with("-time") {
            assert!(
                !before.contains(&format!("reproduce:{name} ")),
                "{name} reads timings"
            );
            continue;
        }
        let (open, close) = (
            format!("<!-- reproduce:{name} -->\n"),
            format!("<!-- /reproduce:{name} -->"),
        );
        let start = after
            .find(&open)
            .unwrap_or_else(|| panic!("no {name} block in EXPERIMENTS.md"))
            + open.len();
        let end = start
            + after[start..]
                .find(&close)
                .unwrap_or_else(|| panic!("{name} block is not closed"));
        let want = format!("\n{}\n", reproduce::render(&name, &doc));
        if !updating() {
            assert!(
                after[start..end] == want,
                "EXPERIMENTS.md block {name} differs from the rendered section at {}",
                first_difference(&after[start..end], &want)
            );
        }
        after.replace_range(start..end, &want);
    }
    if after != before {
        std::fs::write(&path, after).unwrap();
    }
}

#[test]
fn arthas_recovers_all_twelve_and_the_baselines_fail_where_the_paper_says() {
    let doc = golden();
    let all = ids(&doc);
    assert_eq!(
        all.len() as u64,
        num(
            &paper(&["sections", "table3", "numbers"]),
            "arthas_recovered"
        )
    );
    for id in &all {
        assert!(recovered(&doc, id, "arthas"), "{id}");
        // At most one restart per attempt: fewer when the reactor skips
        // restarts that provably repeat a failure.
        let c = cell(&doc, id, "arthas");
        assert!(
            num(&c, "reexec_rounds") <= num(&c, "attempts"),
            "{id}: more rounds than attempts"
        );
    }
    // pmCRIU: the seeded cells land on the paper's fractions, f3 fails.
    let Json::Obj(criu) = paper(&["sections", "table3", "numbers", "pmcriu"]) else {
        panic!("pmcriu expectations are an object")
    };
    for (id, want) in criu {
        let seeds: Vec<bool> = (1..=10)
            .filter_map(|seed| cell_at(&doc, &id, "pmcriu", seed))
            .map(|c| flag(&c, "recovered"))
            .collect();
        let got = match seeds.as_slice() {
            [one] => if *one { "Y" } else { "n" }.to_string(),
            many => format!("{}/{}", many.iter().filter(|ok| **ok).count(), many.len()),
        };
        assert_eq!(Some(got.as_str()), want.as_str(), "pmCRIU on {id}");
    }
    // ArCkpt times out exactly where the root cause is old.
    assert_eq!(
        list(&doc, |id| !recovered(&doc, id, "arckpt")),
        "f3, f5, f8, f12"
    );
}

#[test]
fn leak_mitigation_discards_no_update() {
    let doc = golden();
    let leaks: Vec<Json> = rows(&doc, "scenarios")
        .into_iter()
        .filter(|s| flag(s, "leak"))
        .collect();
    assert_eq!(
        leaks.len() as u64,
        num(&paper(&["sections", "table2", "numbers"]), "leaks")
    );
    for scn in leaks {
        for solution in ["arthas", "arthas-rollback", "arthas-purge"] {
            let c = cell(&doc, text(&scn, "id"), solution);
            assert!(flag(&c, "recovered") && num(&c, "leaks_freed") > 0, "{c:?}");
            assert_eq!(num(&c, "discarded_updates"), 0, "{c:?}");
        }
    }
}

#[test]
fn batching_never_discards_less_than_one_by_one() {
    let doc = golden();
    for id in reversion_faults(&doc) {
        let (batch, single) = (cell(&doc, &id, "arthas-batch:5"), cell(&doc, &id, "arthas"));
        if flag(&batch, "recovered") && flag(&single, "recovered") {
            assert!(
                num(&batch, "discarded_updates") >= num(&single, "discarded_updates"),
                "{id}"
            );
        }
    }
}

#[test]
fn minimize_loss_never_discards_more() {
    let doc = golden();
    for id in reversion_faults(&doc) {
        for (minimized, plain) in [
            ("arthas-minimize", "arthas"),
            ("arthas-rollback-minimize", "arthas-rollback"),
        ] {
            let (m, p) = (cell(&doc, &id, minimized), cell(&doc, &id, plain));
            assert!(flag(&m, "recovered") && flag(&p, "recovered"), "{id}");
            assert!(
                num(&m, "discarded_updates") <= num(&p, "discarded_updates"),
                "{id} {minimized}"
            );
            assert!(
                num(&m, "attempts") >= num(&p, "attempts"),
                "{id}: minimizing costs re-executions"
            );
        }
    }
}

#[test]
fn table7_and_the_study_tables_match_the_paper() {
    let doc = golden();
    let scenarios = rows(&doc, "scenarios");
    let numbers = paper(&["sections", "table7", "numbers"]);
    for (member, want) in [
        ("checksum_detectable", "checksum"),
        ("invariant_detectable", "invariant"),
    ] {
        let got = scenarios.iter().filter(|s| flag(s, member)).count() as u64;
        assert_eq!(got, num(&numbers, want), "{want} of 12");
    }
    assert_eq!(
        list(&doc, |id| flag(
            &cell_scenario(&doc, id),
            "checksum_detectable"
        )),
        "f5"
    );

    let study = doc
        .get("counts")
        .and_then(|c| c.get("study"))
        .expect("study section");
    let table = |key: &str| -> Vec<(String, u64)> {
        let rows = study.get(key).and_then(Json::as_arr).expect("study table");
        rows.iter()
            .map(|r| (text(r, "name").to_string(), num(r, "count")))
            .collect()
    };
    let expected = |key: &str| -> Vec<(String, u64)> {
        let Json::Obj(members) = paper(&["sections", "study", "numbers", key]) else {
            panic!("{key} is an object")
        };
        members
            .into_iter()
            .map(|(k, v)| (k, v.as_u64().expect("integer")))
            .collect()
    };
    let sorted = |mut v: Vec<(String, u64)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(table("table1")), sorted(expected("table1")));
    for (key, want) in [
        ("figure2", "figure2_percent"),
        ("figure3", "figure3_percent"),
        ("propagation", "propagation_percent"),
    ] {
        let counts = table(key);
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 28, "{key}");
        let rounded = counts
            .into_iter()
            .map(|(name, n)| (name, (100.0 * n as f64 / total as f64).round() as u64));
        assert_eq!(sorted(rounded.collect()), sorted(expected(want)), "{key}");
    }
}

fn cell_scenario(doc: &Json, id: &str) -> Json {
    let scenarios = rows(doc, "scenarios");
    scenarios
        .into_iter()
        .find(|s| text(s, "id") == id)
        .expect("scenario exists")
}

/// Each place the repo departs from the paper is a row of `paper.json`
/// whose `measured` text is recomputed here from the golden document: a
/// change in either direction — a deviation closing, or a new one — fails.
#[test]
fn the_deviations_from_the_paper_are_exactly_the_expected_ones() {
    let doc = golden();
    let d = &doc;
    let all = ids(d);
    let count = |solution: &str| all.iter().filter(|id| recovered(d, id, solution)).count();
    let mean_pct = |solution: &str| {
        let pcts = all
            .iter()
            .map(|id| cell(d, id, solution))
            .map(|c| 100.0 * num(&c, "discarded_updates") as f64 / num(&c, "total_updates") as f64);
        pcts.sum::<f64>() / all.len() as f64
    };
    let versus = |a: &str, b: &str, key: &str, worse: fn(u64, u64) -> bool| {
        let pairs = reversion_faults(d)
            .into_iter()
            .filter(|id| recovered(d, id, a) && recovered(d, id, b));
        let odd = pairs.filter_map(|id| {
            let (x, y) = (num(&cell(d, &id, a), key), num(&cell(d, &id, b), key));
            worse(x, y).then(|| format!("{id} ({x} vs {y})"))
        });
        odd.collect::<Vec<_>>().join(" and ")
    };
    let fewer = {
        let both: Vec<String> = reversion_faults(d)
            .into_iter()
            .filter(|id| recovered(d, id, "arthas-batch:5"))
            .collect();
        let ratios = both.iter().map(|id| {
            num(&cell(d, id, "arthas"), "attempts") as f64
                / num(&cell(d, id, "arthas-batch:5"), "attempts") as f64
        });
        ratios.sum::<f64>() / both.len() as f64
    };
    let inconsistent = |solution: &str| {
        let found = list(d, |id| {
            recovered(d, id, solution)
                && cell(d, id, solution).get("consistent") == Some(&Json::Bool(false))
        });
        if found.is_empty() {
            "never".to_string()
        } else {
            format!("on {found}")
        }
    };
    let measured = |id: &str| match id {
        "arckpt-recovers" => format!(
            "{}/12 ({})",
            count("arckpt"),
            list(d, |id| recovered(d, id, "arckpt"))
        ),
        "pmcriu-fails" => list(d, |id| {
            !flag(&cell_scenario(d, id), "randomized") && !recovered(d, id, "pmcriu")
        }),
        "purge-consistency" => format!(
            "purge {}; rollback {}",
            inconsistent("arthas-purge"),
            inconsistent("arthas-rollback")
        ),
        "rollback-purge-gap" => format!(
            "{:.2}% vs {:.2}%",
            mean_pct("arthas-rollback"),
            mean_pct("arthas-purge")
        ),
        "rollback-at-least-purge" => format!(
            "except {}",
            versus(
                "arthas-rollback",
                "arthas-purge",
                "discarded_updates",
                |r, p| r < p
            )
        ),
        "batch-attempts" => format!(
            "{fewer:.2}x fewer on average; more on {}",
            versus("arthas-batch:5", "arthas", "attempts", |b, s| b > s)
        ),
        "batch-recovers" => list(d, |id| {
            reversion_faults(d).contains(&id.to_string()) && !recovered(d, id, "arthas-batch:5")
        }),
        other => {
            panic!("paper.json lists a deviation `{other}` this test does not know how to measure")
        }
    };
    let Json::Arr(expected) = paper(&["deviations"]) else {
        panic!("deviations is an array")
    };
    assert_eq!(
        expected.len(),
        7,
        "a deviation was added or removed without its check"
    );
    for row in expected {
        assert_eq!(
            measured(text(&row, "id")),
            text(&row, "measured"),
            "deviation {}",
            text(&row, "id")
        );
    }
}

// The seven per-scenario checks this file started with: rows of the matrix.

#[test]
fn f4_segfault_recovered_by_arthas_with_one_reversion() {
    let res = cell(&golden(), "f4", "arthas");
    assert!(
        flag(&res, "recovered") && flag(&res, "consistent"),
        "{res:?}"
    );
    assert!(num(&res, "attempts") <= 4, "few attempts: {res:?}");
    assert!(
        num(&res, "discarded_updates") * 20 < num(&res, "total_updates"),
        "tiny fraction discarded: {res:?}"
    );
}

#[test]
fn f11_crash_injected_hard_fault_recovered() {
    let res = cell(&golden(), "f11", "arthas");
    assert!(
        flag(&res, "recovered") && flag(&res, "consistent"),
        "{res:?}"
    );
}

#[test]
fn f12_leak_mitigation_frees_only_leaked_objects() {
    let res = cell(&golden(), "f12", "arthas");
    assert!(flag(&res, "recovered"), "{res:?}");
    assert!(num(&res, "leaks_freed") > 0, "freed leaked entries");
    assert_eq!(
        num(&res, "discarded_updates"),
        0,
        "leak mitigation discards no good updates"
    );
}

#[test]
fn f4_also_recovered_by_arckpt_immediately() {
    // ArCkpt succeeds on immediate-crash cases (the paper's observation).
    let res = cell(&golden(), "f4", "arckpt");
    assert!(
        flag(&res, "recovered") && num(&res, "attempts") == 1,
        "{res:?}"
    );
}

#[test]
fn f2_recovered_by_pmcriu_with_heavy_data_loss() {
    let doc = golden();
    let (arthas, criu) = (cell(&doc, "f2", "arthas"), cell(&doc, "f2", "pmcriu"));
    assert!(flag(&arthas, "recovered") && flag(&criu, "recovered"));
    let arthas_frac =
        num(&arthas, "discarded_updates") as f64 / num(&arthas, "total_updates") as f64;
    let criu_frac = criu
        .get("item_loss_frac")
        .and_then(Json::as_f64)
        .expect("fraction");
    assert!(
        arthas_frac < 0.05,
        "Arthas discards a tiny fraction ({arthas_frac})"
    );
    assert!(
        criu_frac > arthas_frac,
        "pmCRIU loses more: {criu_frac} vs {arthas_frac}"
    );
}

#[test]
fn f3_pmcriu_cannot_recover_the_early_race() {
    let res = cell(&golden(), "f3", "pmcriu");
    assert!(
        !flag(&res, "recovered"),
        "the race precedes every useful snapshot: {res:?}"
    );
}

#[test]
fn table2_metadata_is_complete() {
    let all = scenarios::all();
    assert_eq!(
        all.len() as u64,
        num(&paper(&["sections", "table2", "numbers"]), "faults")
    );
    let ids: BTreeSet<&str> = all.iter().map(|s| s.id()).collect();
    assert_eq!(ids.len(), 12, "unique ids");
    for s in &all {
        assert!(!s.fault().is_empty());
        assert!(!s.consequence().is_empty());
        assert!(!s.system().is_empty());
    }
    // The document's Table 2 is these scenarios, in this order.
    let listed: Vec<String> = self::ids(&golden());
    assert_eq!(
        listed,
        all.iter().map(|s| s.id().to_string()).collect::<Vec<_>>()
    );
}

fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_arthas-repro"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `run`'s third positional used to fall back to seed 1 when it did not
/// parse; a bad solution name lists the accepted ones.
#[test]
fn run_rejects_a_bad_seed_and_a_bad_solution() {
    let (code, err) = cli(&["run", "f4", "arthas", "seven"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("seed expects a number, got `seven`"), "{err}");
    for bad in [
        "arthas-sepc",
        "arthas-batch:x",
        "pmcriu:3",
        "arthas-batch:0",
    ] {
        let (code, err) = cli(&["report", "f4", bad]);
        assert_eq!(code, Some(1), "{bad}: {err}");
        assert!(err.contains(bad), "{bad}: {err}");
    }
    let (_, err) = cli(&["run", "f4", "arthas-sepc"]);
    for name in pm_workload::Solution::variants() {
        assert!(err.contains(&name), "{name} missing from: {err}");
    }
}
