//! The metrics a run prints are exactly the ones `BENCHMARK.json` lists,
//! with the same units, in both modes.

use perfbench::workload::Workload;

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closed")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(trace: bool) -> Vec<(String, String)> {
    let r = perfbench::run(Workload::OltpInline, 7, 1.5, trace);
    assert!(r.correct);
    assert!(r.attempted > 0);
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn untraced_run_prints_the_end_to_end_metrics() {
    assert_eq!(printed(false), listed("end_to_end"));
}

#[test]
fn traced_run_prints_the_per_layer_metrics() {
    assert_eq!(printed(true), listed("per_layer"));
}
