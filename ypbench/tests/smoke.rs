//! A short run of every workload, end to end and traced, against real
//! `ypd` daemons built from this repository: each must pass its checks and
//! print exactly the metrics `BENCHMARK.json` declares, with their units.

use std::path::{Path, PathBuf};

use actyp_bench::json::{self, Json};
use ypbench::run::{run, Options, Report};
use ypbench::workload::Workload;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared_metrics(list: &str) -> Vec<(String, String)> {
    declared()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn printed(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn the_declared_workloads_are_the_implemented_ones() {
    let names: Vec<String> = declared()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let implemented: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, implemented);
}

#[test]
fn every_workload_runs_checks_and_prints_the_declared_metrics() {
    let root = repo_root();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 7,
                seconds: 1,
                trace,
            };
            let report = run(&root, &opts).unwrap_or_else(|e| panic!("{opts:?}: {e}"));
            assert!(
                report.problems.is_empty(),
                "{opts:?}: {:?}",
                report.problems
            );
            assert!(report.attempted > 0, "{opts:?}");
            assert_eq!(report.failed, 0, "{opts:?}");
            let list = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(
                sorted(printed(&report)),
                sorted(declared_metrics(list)),
                "{opts:?}"
            );
            if !trace {
                for m in &report.metrics {
                    assert!(m.value.is_finite() && m.value > 0.0, "{opts:?}: {m:?}");
                }
            }
            let line = report.result_json().to_compact();
            let parsed = json::parse(&line).expect("the result line is JSON");
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        }
    }
}
