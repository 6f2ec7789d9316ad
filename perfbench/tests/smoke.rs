//! A tiny-sized pass of every workload through the real binary: every
//! metric `BENCHMARK.json` names is printed with its unit, no pass
//! fails, and back-to-back runs agree on digests and simulated counts.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve_fresh", "cluster_pooled", "partition_x48"];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Value,
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--size", "tiny", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the last line is JSON");
    Run { stdout, result }
}

fn metrics(r: &Run) -> BTreeMap<String, (f64, String)> {
    let m = r
        .result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    m.iter()
        .map(|(k, v)| {
            let value = v
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            let unit = v
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            (k.clone(), (value, unit))
        })
        .collect()
}

fn line<'a>(r: &'a Run, prefix: &str) -> &'a str {
    r.stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{}", r.stdout))
}

fn assert_clean(r: &Run, workload: &str) {
    assert_eq!(
        r.result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {}",
        r.stdout
    );
    assert_eq!(
        r.result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        r.result
            .get("attempted")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn end_to_end_metrics_are_complete_and_outputs_repeat() {
    let e2e = declared("end_to_end");
    for w in WORKLOADS {
        let (a, b) = (run(w, 0), run(w, 0));
        for r in [&a, &b] {
            assert_clean(r, w);
            let m = metrics(r);
            assert_eq!(
                m.len(),
                e2e.len(),
                "{w}: exactly the declared end-to-end metrics"
            );
            for (name, unit) in &e2e {
                let (value, got) = m
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: `{name}` missing"));
                assert_eq!(got, unit, "{w}: `{name}` unit");
                assert!(*value > 0.0, "{w}: `{name}` must never be 0");
            }
            assert!(
                line(r, "metric   : failed_frac").contains(" 0.000000 ratio"),
                "{w}"
            );
        }
        assert_eq!(
            line(&a, "digest"),
            line(&b, "digest"),
            "{w}: digests differ between runs"
        );
        assert!(
            line(&a, "digest").contains("(pinned)"),
            "{w}: tiny default seed is pinned"
        );
    }
}

#[test]
fn per_layer_metrics_are_complete_and_counts_repeat() {
    let layers = declared("per_layer");
    for w in WORKLOADS {
        let (a, b) = (run(w, 1), run(w, 1));
        let (ma, mb) = (metrics(&a), metrics(&b));
        for (r, m) in [(&a, &ma), (&b, &mb)] {
            assert_clean(r, w);
            assert_eq!(
                m.len(),
                layers.len(),
                "{w}: exactly the declared per-layer metrics"
            );
            for (name, unit) in &layers {
                let (_, got) = m
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: `{name}` missing"));
                assert_eq!(got, unit, "{w}: `{name}` unit");
            }
            assert!(line(r, "coverage").ends_with(": ok"), "{w}: {}", r.stdout);
        }
        for (name, unit) in layers.iter().filter(|(_, u)| u == "count") {
            assert_eq!(
                ma[name], mb[name],
                "{w}: simulated count `{name}` ({unit}) differs"
            );
        }
    }
}
