//! Integration tests for the `gcs-node` socket daemon: a two-process
//! Unix-domain-socket cluster exchanging wire floods, plus the
//! `gcs-scenarios node-smoke` loopback harness end to end.
//!
//! Everything here runs over loopback transports with piped stdin, so
//! the tests are hermetic; a daemon whose stdin pipe closes shuts
//! itself down, so a failing assertion cannot leak processes past the
//! test binary's lifetime.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn daemon() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gcs-node"));
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
    cmd
}

/// Reads the `listening <addr>` announce line.
fn announced_addr(reader: &mut BufReader<ChildStdout>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("expected an announce line, got {line:?}"))
        .to_string()
}

/// Polls until the child exits or the deadline passes.
fn wait_with_deadline(child: &mut Child, secs: u64) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn two_daemons_exchange_floods_over_unix_sockets_and_shut_down_cleanly() {
    let dir = std::env::temp_dir();
    let sock_a = dir.join(format!("gcs-node-a-{}.sock", std::process::id()));
    let sock_b = dir.join(format!("gcs-node-b-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock_a);
    let _ = std::fs::remove_file(&sock_b);

    let mut a = daemon()
        .args(["--uds", sock_a.to_str().unwrap()])
        .args(["--first", "0", "--count", "1", "--total", "2"])
        .args(["--refresh", "0.1", "--status-every", "0.1"])
        .spawn()
        .unwrap();
    let mut a_out = BufReader::new(a.stdout.take().unwrap());
    let addr_a = announced_addr(&mut a_out);
    assert_eq!(addr_a, format!("unix:{}", sock_a.display()));

    let mut b = daemon()
        .args(["--uds", sock_b.to_str().unwrap()])
        .args(["--first", "1", "--count", "1", "--total", "2"])
        .args(["--refresh", "0.1", "--status-every", "0.1"])
        .args(["--peers", &addr_a])
        .spawn()
        .unwrap();
    let mut b_out = BufReader::new(b.stdout.take().unwrap());
    let _ = announced_addr(&mut b_out);

    // Let the pair exchange a handful of refresh rounds, then request
    // the graceful path by closing both stdin pipes.
    std::thread::sleep(Duration::from_millis(1200));
    drop(a.stdin.take());
    drop(b.stdin.take());
    let status_a = wait_with_deadline(&mut a, 5).expect("daemon A ignored stdin EOF");
    let status_b = wait_with_deadline(&mut b, 5).expect("daemon B ignored stdin EOF");
    assert_eq!(status_a.code(), Some(0), "A: {status_a}");
    assert_eq!(status_b.code(), Some(0), "B: {status_b}");

    // Drain both logs: each daemon must have heard the other (floods
    // crossed the socket in both directions — B dialed A, and A routes
    // back over the same connection) and printed the clean-exit marker.
    for (name, reader) in [("A", &mut a_out), ("B", &mut b_out)] {
        let lines: Vec<String> = reader.lines().map_while(Result::ok).collect();
        let heard = lines
            .iter()
            .filter_map(|l| l.split("peers_heard=").nth(1))
            .filter_map(|v| v.trim().parse::<usize>().ok())
            .max()
            .unwrap_or(0);
        assert_eq!(heard, 1, "daemon {name} never heard its peer: {lines:?}");
        assert!(
            lines.iter().any(|l| l == "shutdown clean"),
            "daemon {name} skipped the graceful path: {lines:?}"
        );
    }
    assert!(!sock_a.exists(), "daemon A left its socket file behind");
    assert!(!sock_b.exists(), "daemon B left its socket file behind");
}

#[test]
fn a_peer_hello_with_an_overflowing_range_is_survived() {
    use gcs_protocol::wire::Frame;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let sock = std::env::temp_dir().join(format!("gcs-node-hello-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut a = daemon()
        .args(["--uds", sock.to_str().unwrap()])
        .args(["--first", "0", "--count", "1", "--total", "2"])
        .args(["--refresh", "0.1"])
        .spawn()
        .unwrap();
    let mut a_out = BufReader::new(a.stdout.take().unwrap());
    let _ = announced_addr(&mut a_out);

    // A peer claiming IDs [u64::MAX, u64::MAX + 2): routing node 0's
    // floods to ID 1 must not overflow on that range.
    let mut peer = UnixStream::connect(&sock).unwrap();
    let mut buf = Vec::new();
    Frame::Hello {
        first: u64::MAX,
        count: 2,
    }
    .encode(&mut buf);
    peer.write_all(&buf).unwrap();

    std::thread::sleep(Duration::from_millis(600));
    drop(a.stdin.take());
    let status = wait_with_deadline(&mut a, 5).expect("daemon ignored stdin EOF");
    assert_eq!(status.code(), Some(0), "the daemon died: {status}");
}

#[test]
fn a_daemon_whose_stdout_is_closed_still_exits_cleanly() {
    let sock = std::env::temp_dir().join(format!("gcs-node-stdout-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut a = daemon()
        .args(["--uds", sock.to_str().unwrap()])
        .args(["--first", "0", "--count", "1", "--total", "1"])
        .args(["--refresh", "0.1", "--status-every", "0.1"])
        .spawn()
        .unwrap();
    let mut a_out = BufReader::new(a.stdout.take().unwrap());
    let _ = announced_addr(&mut a_out);
    // The reader goes away first; the shutdown marker then hits a
    // broken pipe, which must not turn the graceful exit into a panic.
    drop(a_out);
    std::thread::sleep(Duration::from_millis(300));
    drop(a.stdin.take());
    let status = wait_with_deadline(&mut a, 5).expect("daemon ignored stdin EOF");
    assert_eq!(status.code(), Some(0), "the daemon died: {status}");
    assert!(!sock.exists(), "the daemon left its socket file behind");
}

#[test]
fn the_complete_mesh_is_reported_without_waiting_for_the_status_period() {
    let dir = std::env::temp_dir();
    let sock_a = dir.join(format!("gcs-node-mesh-a-{}.sock", std::process::id()));
    let sock_b = dir.join(format!("gcs-node-mesh-b-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock_a);
    let _ = std::fs::remove_file(&sock_b);
    // The status period is far longer than the test: after the block at
    // start-up, only the complete-mesh block can report a heard peer.
    let period = ["--refresh", "0.1", "--status-every", "60"];
    let mut a = daemon()
        .args(["--uds", sock_a.to_str().unwrap()])
        .args(["--first", "0", "--count", "1", "--total", "2"])
        .args(period)
        .spawn()
        .unwrap();
    let mut a_out = BufReader::new(a.stdout.take().unwrap());
    let addr_a = announced_addr(&mut a_out);
    let mut b = daemon()
        .args(["--uds", sock_b.to_str().unwrap()])
        .args(["--first", "1", "--count", "1", "--total", "2"])
        .args(period)
        .args(["--peers", &addr_a])
        .spawn()
        .unwrap();
    let mut b_out = BufReader::new(b.stdout.take().unwrap());
    let _ = announced_addr(&mut b_out);

    let (tx, rx) = std::sync::mpsc::channel();
    for (name, reader) in [("A", a_out), ("B", b_out)] {
        let tx = tx.clone();
        // Reads to EOF: the daemon's stdout must stay open until it exits.
        std::thread::spawn(move || {
            let mut sent = false;
            for line in reader.lines().map_while(Result::ok) {
                if !sent && line.starts_with("status ") && line.ends_with(" peers_heard=1") {
                    sent = tx.send(name).is_ok();
                }
            }
        });
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut reported = Vec::new();
    while reported.len() < 2 {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(name) => reported.push(name),
            Err(_) => break,
        }
    }
    drop(a.stdin.take());
    drop(b.stdin.take());
    let status_a = wait_with_deadline(&mut a, 5).expect("daemon A ignored stdin EOF");
    let status_b = wait_with_deadline(&mut b, 5).expect("daemon B ignored stdin EOF");
    assert_eq!(status_a.code(), Some(0), "A: {status_a}");
    assert_eq!(status_b.code(), Some(0), "B: {status_b}");
    reported.sort_unstable();
    assert_eq!(
        reported,
        ["A", "B"],
        "a daemon never reported its complete mesh within 5s"
    );
}

#[test]
fn node_smoke_verb_passes_on_a_small_tcp_cluster() {
    let out = Command::new(env!("CARGO_BIN_EXE_gcs-scenarios"))
        .args([
            "node-smoke",
            "--procs",
            "2",
            "--per-proc",
            "1",
            "--secs",
            "2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "node-smoke failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("within the Thm 5.22 envelope"),
        "skew verdict missing: {stdout}"
    );
}
