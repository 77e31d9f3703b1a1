//! The `report` document: schema validity of real runs, cross-layer
//! counter flow, and detection of schema drift.

use arthas::ReactorConfig;
use obs::Json;
use pm_workload::report::{run_report, schema};
use pm_workload::{scenarios, Solution};

fn u64_at(j: &Json, path: &[&str]) -> Option<u64> {
    let mut cur = j;
    for k in path {
        cur = cur.get(k)?;
    }
    cur.as_u64()
}

#[test]
fn report_document_is_schema_valid_and_wired_through_every_layer() {
    let scn = scenarios::by_id("f6").expect("f6 exists");
    let report = run_report(
        scn.as_ref(),
        Solution::Arthas(ReactorConfig::default()),
        1,
        None,
    )
    .expect("f6 reaches a detected hard failure");
    report
        .validate_rendered()
        .expect("document round-trips through render/parse and matches the schema");

    let j = &report.json;
    assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(
        j.get("scenario")
            .and_then(|s| s.get("id"))
            .and_then(Json::as_str),
        Some("f6")
    );
    assert_eq!(j.get("solution").and_then(Json::as_str), Some("arthas"));
    assert_eq!(
        j.get("mitigation")
            .and_then(|m| m.get("recovered"))
            .and_then(Json::as_bool),
        Some(true)
    );

    // Counters prove every instrumented layer reported into the one
    // recorder: pool, checkpoint log, detector, reactor.
    assert!(u64_at(j, &["counters", "pool.persists"]).unwrap() > 0);
    assert!(u64_at(j, &["counters", "log.updates"]).unwrap() > 0);
    assert!(u64_at(j, &["counters", "detector.observations"]).unwrap() >= 2);
    assert!(u64_at(j, &["counters", "reactor.mitigations"]).unwrap() >= 1);

    // The timeline carries the reactor's verdict and the phase split.
    assert!(report.events.iter().any(|e| e.kind == "reactor.outcome"));
    let text = report.render_timeline();
    assert!(text.contains("reactor.plan"), "timeline:\n{text}");
    assert!(text.contains("phases:"), "timeline:\n{text}");

    // Schema drift must be caught: removing a required member or
    // changing a member's type fails validation with a JSON-path error.
    let Json::Obj(pairs) = j.clone() else {
        panic!("report document is an object")
    };
    let mut missing = pairs.clone();
    missing.retain(|(k, _)| k != "mitigation");
    let errs = obs::validate(&Json::Obj(missing), &schema()).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("mitigation")), "{errs:?}");
    let mut retyped = pairs;
    for (k, v) in &mut retyped {
        if k == "seed" {
            *v = Json::Str("1".to_string());
        }
    }
    let errs = obs::validate(&Json::Obj(retyped), &schema()).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("seed")), "{errs:?}");
}

#[test]
fn leak_scenario_report_validates_with_zeroed_planning_phases() {
    let scn = scenarios::by_id("f12").expect("f12 exists");
    let report = run_report(
        scn.as_ref(),
        Solution::Arthas(ReactorConfig::default()),
        1,
        None,
    )
    .expect("f12 reaches a detected leak");
    report.validate_rendered().expect("schema-valid");
    let j = &report.json;
    assert!(u64_at(j, &["mitigation", "leaks_freed"]).unwrap() > 0);
    // Leak mitigation never slices or plans a revert; the phase members
    // are present (schema floor) but zero.
    assert_eq!(u64_at(j, &["mitigation", "phases", "slice_us"]), Some(0));
    assert_eq!(u64_at(j, &["mitigation", "phases", "plan_us"]), Some(0));
    assert!(report
        .events
        .iter()
        .any(|e| e.kind == "reactor.leak_mitigation"));
}
