//! Runs every workload end to end at tiny sizes, untraced and traced, and
//! checks the result line against the metric list in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use perfbench::inputs::{self, Spec, WORKLOADS};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("{section} is declared"));
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("name ends")];
            let unit_at = entry.find("\"unit\": \"").expect("unit given") + 9;
            let unit = &entry[unit_at..unit_at + entry[unit_at..].find('"').expect("unit ends")];
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Runs the benchmark binary and returns its last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value printed for metric `name` with unit `unit`.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("value ends");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} lacks unit {unit}: {line}"
    );
    rest[..end].parse().expect("a number")
}

fn check(line: &str, metrics: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{line}");
    for (name, unit) in metrics {
        let v = value(line, name, unit);
        if name == "route.allocs_per_batch" {
            // Serial routing on warmed scratch allocates nothing.
            assert_eq!(v, 0.0, "{line}");
        } else {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}: {line}");
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = declared("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        check(&run(w, 5, false), &metrics);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    let metrics = declared("per_layer");
    for w in WORKLOADS {
        check(&run(w, 5, true), &metrics);
    }
}

#[test]
fn inputs_depend_only_on_the_seed() {
    for w in WORKLOADS {
        let spec = Spec::named(w, true).expect("a known workload");
        assert_eq!(inputs::digest(&spec, 11), inputs::digest(&spec, 11), "{w}");
        assert_ne!(inputs::digest(&spec, 11), inputs::digest(&spec, 12), "{w}");
    }
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
