//! Smoke sizes of every workload, end-to-end and traced: each prints every
//! metric `BENCHMARK.json` names, with its unit, and every output check
//! passes.

use charles_perfbench::report::Outcome;
use charles_perfbench::{run, Params, Workload};
use charles_server::Json;
use std::path::Path;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// A run small enough for a test: 1000 rows, one set-up, the minimum
/// operation count of each workload.
fn smoke(workload: Workload, trace: bool) -> Outcome {
    let mut params = Params::new(workload, 7, 0.01, trace);
    params.rows = 1_000;
    params.setups = 1;
    params.trace_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    run(&params)
}

/// The result line parses, is correct, and names exactly the declared
/// metrics with their declared units.
fn assert_reports(workload: Workload, trace: bool, list: &str) {
    let out = smoke(workload, trace);
    let name = workload.name();
    assert!(out.attempted > 0, "{name}: nothing attempted");
    assert_eq!(out.failed, 0, "{name}: failures {:?}", out.failures);
    let line = out.result_json();
    let doc = Json::parse(&line).expect("result line is JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("{name}: no metrics object in {line}");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            assert!(
                v.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}: {k} has no finite value in {line}"
            );
            let unit = v.get("unit").and_then(Json::as_str).expect("unit");
            (k.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, declared(list), "{name} (trace={trace})");
    let human = out.human_lines().join("\n");
    for (metric, unit) in &printed {
        assert!(
            human.lines().any(|l| l.starts_with(metric.as_str())
                && l.contains(&format!(" {unit} "))
                && l.contains("(n=")),
            "{name}: {metric} missing from the human-readable lines"
        );
    }
}

#[test]
fn search_cold_reports_every_end_to_end_metric() {
    assert_reports(Workload::SearchCold, false, "end_to_end");
}

#[test]
fn serve_interactive_reports_every_end_to_end_metric() {
    assert_reports(Workload::ServeInteractive, false, "end_to_end");
}

#[test]
fn serve_ingest_reports_every_end_to_end_metric() {
    assert_reports(Workload::ServeIngest, false, "end_to_end");
}

#[test]
fn search_cold_traced_reports_every_per_layer_metric() {
    assert_reports(Workload::SearchCold, true, "per_layer");
}

#[test]
fn serve_interactive_traced_reports_every_per_layer_metric() {
    assert_reports(Workload::ServeInteractive, true, "per_layer");
}

#[test]
fn serve_ingest_traced_reports_every_per_layer_metric() {
    assert_reports(Workload::ServeIngest, true, "per_layer");
}
