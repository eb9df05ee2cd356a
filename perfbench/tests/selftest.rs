//! The benchmark's self-test: every workload at a tiny size, in seconds.
//!
//! Each run must pass its correctness checks and print every declared
//! metric with its unit; the closing JSON line must carry exactly the
//! metrics `BENCHMARK.json` declares for its mode; and the negative
//! control (an off-by-one recorded value) must fail the run.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use gcs_scenarios::json::{self, JsonValue};

const WORKLOADS: &[&str] = &[
    "geometric-4k-sharded",
    "churn-grid-oracle",
    "daemon-mesh-uds",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The build profile directory holding the benchmark binary.
fn profile_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_gcs-perfbench"))
        .parent()
        .expect("binary directory")
        .to_path_buf()
}

/// The `gcs-node` daemon, built next to this test's benchmark binary.
fn node_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let profile_dir = profile_dir();
        let target = profile_dir.parent().expect("target directory");
        let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        cmd.args([
            "build",
            "--offline",
            "--quiet",
            "--bin",
            "gcs-node",
            "--manifest-path",
        ])
        .arg(root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target);
        if profile_dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo runs");
        assert!(status.success(), "building gcs-node failed");
        profile_dir.join("gcs-node")
    })
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let work_dir = profile_dir().join(format!(
        "gcs-perfbench-selftest-{}-{workload}-{}-{}",
        std::process::id(),
        u8::from(trace),
        extra.len()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_gcs-perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .arg("--root")
        .arg(root())
        .arg("--node-bin")
        .arg(node_bin())
        .arg("--work-dir")
        .arg(&work_dir)
        .current_dir(root())
        .output()
        .expect("the benchmark runs");
    let _ = std::fs::remove_dir_all(&work_dir);
    out
}

/// `(name, unit)` of the metrics `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    json::arr_field(&doc, key, "BENCHMARK.json")
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                json::str_field(m, "name", key).expect("name"),
                json::str_field(m, "unit", key).expect("unit"),
            )
        })
        .collect()
}

fn last_json(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("output");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn check_run(workload: &str, trace: bool) {
    let out = run(workload, trace, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    for line in ["host nproc=", "commit=", "daemon_time_scale="] {
        assert!(
            stdout.contains(line),
            "{workload}: no {line} in the host record"
        );
    }
    let all: Vec<(String, String)> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .collect();
    for (name, unit) in &all {
        let printed = stdout.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() == 4
                && f[0] == "metric"
                && f[1] == name
                && f[2].parse::<f64>().is_ok()
                && f[3] == unit
        });
        assert!(printed, "{workload}: metric {name} [{unit}] not printed");
    }
    let doc = last_json(&out);
    assert_eq!(
        doc.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        doc.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(doc.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: BTreeSet<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            assert!(
                v.get("value").and_then(JsonValue::as_f64).is_some(),
                "{workload}: {k}"
            );
            (k.clone(), json::str_field(v, "unit", k).expect("unit"))
        })
        .collect();
    assert_eq!(
        got,
        want.into_iter().collect(),
        "{workload}: JSON metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_reports_every_metric_untraced() {
    for w in WORKLOADS {
        check_run(w, false);
    }
}

#[test]
fn every_workload_reports_every_metric_traced() {
    for w in WORKLOADS {
        check_run(w, true);
    }
}

#[test]
fn forged_expected_values_fail_the_run() {
    for w in WORKLOADS {
        let out = run(w, false, &["--forge-expected"]);
        assert!(!out.status.success(), "{w}: the negative control passed");
        let doc = last_json(&out);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)), "{w}");
        assert!(
            doc.get("failed").and_then(JsonValue::as_u64) >= Some(1),
            "{w}"
        );
    }
}

#[test]
fn benchmark_json_names_the_workloads() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("parses");
    let names: Vec<String> = json::arr_field(&doc, "workloads", "BENCHMARK.json")
        .expect("workloads")
        .iter()
        .map(|w| json::str_field(w, "name", "workload").expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}
