//! Negative-path CLI regression tests for `gcs-scenarios` and
//! `gcs-node` failure handling.
//!
//! The `trace` and `bench --telemetry` verbs used to reach `.expect()`
//! calls on user-reachable failure paths, killing the process with a
//! panic backtrace instead of a diagnostic. `gcs-node` used to add its
//! ID-range flags unchecked: an overflowing range panicked in debug
//! builds and wrapped to an empty node set in release, and IDs past
//! `u32::MAX` collided. Every failure driven here must exit with the
//! documented code (1 = generic error) and print a single readable
//! `error:` line to stderr — never `panicked at`.

use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcs-scenarios"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts the documented generic-failure contract: exit code 1, a
/// readable `error:` diagnostic, and no panic machinery in sight.
fn assert_clean_failure(out: &Output, needle: &str) {
    let err = stderr(out);
    assert_eq!(
        out.status.code(),
        Some(1),
        "generic failures exit with code 1: {err}"
    );
    assert!(err.contains("error:"), "diagnostic goes to stderr: {err}");
    assert!(
        !err.contains("panicked at"),
        "failure must not be a panic: {err}"
    );
    assert!(
        err.contains(needle),
        "diagnostic must explain itself: {err}"
    );
}

#[test]
fn trace_without_a_target_fails_readably() {
    let out = bin().arg("trace").output().unwrap();
    assert_clean_failure(&out, "trace needs a scenario");
}

#[test]
fn trace_rejects_the_all_selection_readably() {
    let out = bin().args(["trace", "all"]).output().unwrap();
    assert_clean_failure(&out, "exactly one scenario");
}

#[test]
fn trace_names_an_unknown_scenario_readably() {
    let out = bin().args(["trace", "no-such-scenario"]).output().unwrap();
    assert_clean_failure(&out, "no-such-scenario");
}

#[test]
fn trace_reports_an_unwritable_output_path_readably() {
    let out = bin()
        .args([
            "trace",
            "ring-steady",
            "--scale",
            "tiny",
            "--out",
            "/dev/null/trace.jsonl",
        ])
        .output()
        .unwrap();
    assert_clean_failure(&out, "cannot write");
}

#[test]
fn bench_rejects_an_unknown_option_readably() {
    let out = bin()
        .args(["bench", "ring-steady", "--no-such-flag"])
        .output()
        .unwrap();
    assert_clean_failure(&out, "--no-such-flag");
}

#[test]
fn unknown_command_prints_usage_and_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_clean_failure(&out, "frobnicate");
    assert!(stderr(&out).contains("USAGE"), "usage rides along");
}

/// Runs `gcs-node` with `args` on a free loopback port. Stdin is closed,
/// so a daemon that wrongly accepts the flags shuts down at once (exit
/// 0) instead of hanging the test.
fn node(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcs-node"))
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

#[test]
fn node_rejects_an_id_range_that_overflows_u64() {
    let out = node(&["--first", "18446744073709551615", "--count", "1"]);
    assert_clean_failure(&out, "--first");
}

#[test]
fn node_rejects_an_id_range_past_the_node_id_space() {
    let out = node(&["--first", "4294967295", "--count", "1"]);
    assert_clean_failure(&out, "node ID space");
    let out = node(&["--first", "4294967000", "--count", "1000"]);
    assert_clean_failure(&out, "node ID space");
}

#[test]
fn node_rejects_a_total_past_the_node_id_space() {
    let out = node(&["--count", "2", "--total", "4294967296"]);
    assert_clean_failure(&out, "--total");
}

#[test]
fn node_rejects_a_range_past_its_total() {
    let out = node(&["--first", "2", "--count", "2", "--total", "3"]);
    assert_clean_failure(&out, "exceed --total 3");
}
