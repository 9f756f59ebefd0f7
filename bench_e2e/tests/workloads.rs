//! Smoke-scale runs of every workload, and the metric contract with
//! `BENCHMARK.json` at the repository root: each workload emits exactly
//! the declared end-to-end metrics untraced and exactly the declared
//! per-layer metrics traced, under valid names, with its checks passing.

use culda_bench_e2e::ledger::Report;
use culda_bench_e2e::{run, workload, Opts, WORKLOADS};
use culda_metrics::Json;
use std::time::Instant;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(section: &str) -> Vec<String> {
    let mut v: Vec<String> = benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    v.sort();
    v
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn smoke(name: &str, trace: bool) -> Report {
    let w = workload(name).expect("registered workload").smoke();
    let opts = Opts {
        seed: 7,
        seconds: 0.0,
        trace,
        trace_out: None,
        started: Instant::now(),
    };
    let report = run(&w, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        report.failed, 0,
        "{name} (trace {trace}): {:#?}",
        report.notes
    );
    assert!(report.attempted > 0);
    report
}

fn check_workload(name: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = smoke(name, trace);
        let mut emitted: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
        emitted.sort();
        assert_eq!(
            emitted,
            names(section),
            "{name}: emitted vs declared {section}"
        );
        for m in &report.metrics {
            assert!(valid_name(&m.name), "{name}: bad metric name {:?}", m.name);
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            if !trace {
                assert!(m.value > 0.0, "{name}: end-to-end {} reads 0", m.name);
            }
        }
        let line = Json::parse(&report.json_line()).expect("result line parses");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn ny_paper_k1024_smoke() {
    check_workload("ny-paper-k1024");
}

#[test]
fn ny_auto_k4096_2gpu_smoke() {
    check_workload("ny-auto-k4096-2gpu");
}

#[test]
fn pubmed_2node_oocore_smoke() {
    check_workload("pubmed-2node-oocore");
}

#[test]
fn serve_heldout_1200rps_smoke() {
    check_workload("serve-heldout-1200rps");
}

#[test]
fn declared_workloads_are_the_registered_ones() {
    let mut registered: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
    registered.sort();
    assert_eq!(names("workloads"), registered);
    assert!(workload("no-such-workload").is_none());
}

#[test]
fn declared_metric_names_are_valid_and_unique() {
    let mut all = names("end_to_end");
    all.extend(names("per_layer"));
    for n in &all {
        assert!(valid_name(n), "bad metric name {n:?}");
    }
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "a metric name is declared twice");
}
