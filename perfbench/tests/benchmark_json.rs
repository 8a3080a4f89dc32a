//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics (with their units) that the benchmark prints.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let json = benchmark_json();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(r#"{{"name": "{name}", "unit": "{unit}","#);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches(r#""unit": "#).count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_workload_is_declared() {
    let json = benchmark_json();
    for w in WORKLOADS {
        assert!(
            json.contains(&format!(r#"{{"name": "{w}", "why": "#)),
            "BENCHMARK.json lacks {w}"
        );
    }
    assert_eq!(json.matches(r#""why": "#).count(), WORKLOADS.len());
}
