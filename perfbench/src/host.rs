//! The host record and the `/proc` readers the metrics come from.

use std::process::{Command, Stdio};

/// What every output carries about the machine and the code it ran.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub commit: String,
}

impl HostRecord {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // A source checkout without git metadata has no commit to name;
        // one nested inside another repository must not borrow its HEAD.
        let cwd = std::env::current_dir().and_then(std::fs::canonicalize).ok();
        let commit = Command::new("git")
            .args(["rev-parse", "--show-toplevel", "--short=12", "HEAD"])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).to_string();
                let mut lines = text.lines();
                let top = std::fs::canonicalize(lines.next()?).ok()?;
                (Some(top) == cwd).then(|| lines.next().map(str::to_string))?
            })
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        HostRecord {
            nproc,
            cpu_model,
            commit,
        }
    }
}

/// Kernel clock ticks per second, the unit of `/proc/<pid>/stat` times.
fn clock_ticks() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .and_then(|o| String::from_utf8_lossy(&o.stdout).trim().parse().ok())
            .filter(|&t: &f64| t > 0.0)
            .unwrap_or(100.0)
    })
}

/// CPU seconds of another process at nanosecond resolution: the
/// scheduler's on-CPU time summed over its live threads.
pub fn threads_cpu_secs(pid: &str) -> Option<f64> {
    let mut total = 0.0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
        total += ns / 1e9;
    }
    Some(total)
}

/// User plus system CPU seconds of process `pid` (`"self"` for this one),
/// summed over all its threads, exited ones included, at clock-tick
/// resolution.
pub fn cpu_secs(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks())
}

/// Peak resident memory (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(cpu_secs("self").is_some());
        assert!(threads_cpu_secs("self").unwrap() > 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(HostRecord::detect().nproc >= 1);
    }
}
