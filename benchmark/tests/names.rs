//! `BENCHMARK.json` and the harness's metric registry say the same thing,
//! every name is well-formed, and a real (tiny) run emits exactly the
//! registered names.

use serde_json::Value;
use wlm_benchmark::measure::{traced_run, untraced_run};
use wlm_benchmark::names::{MetricDef, END_TO_END, PER_LAYER};
use wlm_benchmark::workloads::Workload;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn listed(doc: &Value, key: &str) -> Vec<Value> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
        .to_vec()
}

fn assert_same(defs: &[MetricDef], listed: &[Value], with_bound: bool) {
    let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    let in_file: Vec<&str> = listed
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect();
    assert_eq!(
        names, in_file,
        "registry and BENCHMARK.json list different metrics"
    );
    for (def, m) in defs.iter().zip(listed) {
        assert!(well_formed(def.name), "bad metric name `{}`", def.name);
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            m.get("better").and_then(Value::as_str),
            Some(def.better.word()),
            "{}",
            def.name
        );
        assert!(
            def.unit.len() <= 16
                && def
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit `{}`",
            def.unit
        );
        if with_bound {
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{} bound", def.name);
        } else {
            assert!(m.get("bound").is_none(), "{} has no bound", def.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let doc = benchmark_json();
    assert_same(END_TO_END, &listed(&doc, "end_to_end"), true);
    assert_same(PER_LAYER, &listed(&doc, "per_layer"), false);
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));

    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );

    let workloads: Vec<String> = listed(&doc, "workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
    assert!(known.iter().all(|n| well_formed(n)));

    // The command names nothing outside `paths`.
    let paths = listed(&doc, "paths");
    assert_eq!(paths, vec![Value::String("benchmark".into())]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

#[test]
fn a_run_emits_exactly_the_registered_names() {
    // The smallest workload at the smallest size; enough to walk every
    // code path that names a metric.
    let out = untraced_run(Workload::Cluster8Chaos, 3, 1);
    let names: Vec<&str> = out.metrics.iter().map(|(d, _)| d.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
    assert!(out.correct, "{:?}", out.notes);
    assert_eq!(out.failed, 0);
    assert!(out.metrics.iter().all(|(_, v)| v.is_finite() && *v != 0.0));

    for workload in [Workload::EngineBare, Workload::Cluster8Chaos] {
        let (out, spans) = traced_run(workload, 3, 1);
        let names: Vec<&str> = out.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        // An unregistered name would have failed the run.
        assert!(out.correct, "{:?}", out.notes);
        assert!(out.metrics.iter().all(|(_, v)| v.is_finite()));
        let requests = out
            .metrics
            .iter()
            .find(|(d, _)| d.name == "workload.requests")
            .map(|(_, v)| *v)
            .expect("workload.requests");
        assert!(requests > 0.0 && requests <= 1_000_000.0);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
