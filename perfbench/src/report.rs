//! Metric names, units, the summary statistics, and the output format.
//!
//! Every run prints each metric it measured as a `metric <name> <value>
//! <unit>` line, then, as its last line, one JSON object holding the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). `BENCHMARK.json` lists the same names; a test keeps them equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_cpu_s", "1/s"),
    ("msgs_per_cpu_s", "1/s"),
    ("sim_s_per_cpu_s", "sim-s/s"),
];

/// Per-layer metrics, reported by every workload from its traced run; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenarios.parse_s", "s"),
    ("net.schedule_s", "s"),
    ("net.edge_events", "count"),
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("core.ns_per_event", "ns"),
    ("core.events", "count"),
    ("core.ticks", "count"),
    ("core.queue_p50", "count"),
    ("core.queue_max", "count"),
    ("core.mode_evals", "count"),
    ("core.eval_ratio", "ratio"),
    ("core.msgs_sent", "count"),
    ("core.msgs_delivered", "count"),
    ("core.drop_ratio", "ratio"),
    ("core.handshakes", "count"),
    ("core.insertions", "count"),
    ("core.edge_removals", "count"),
    ("shard.window_s", "s"),
    ("shard.segments", "count"),
    ("shard.barrier_rounds", "count"),
    ("shard.stall_ratio", "ratio"),
    ("shard.mailbox_events", "count"),
    ("shard.imbalance", "ratio"),
    ("protocol.floods", "count"),
    ("protocol.flood_merges", "count"),
    ("protocol.m_jump_ratio", "ratio"),
    ("protocol.mode_switches", "count"),
    ("analysis.observe_s", "s"),
    ("analysis.snapshots", "count"),
    ("analysis.observe_share", "ratio"),
    ("analysis.gradient_util_pct", "%"),
    ("analysis.global_util_pct", "%"),
    ("telemetry.trace_records", "count"),
    ("telemetry.trace_bytes", "bytes"),
    ("telemetry.finish_s", "s"),
    ("node.d0.cpu_s", "s"),
    ("node.d1.cpu_s", "s"),
    ("node.d0.cpu_share", "ratio"),
    ("node.d1.cpu_share", "ratio"),
    ("node.rss_mb", "MB"),
    ("node.frames_rx", "count"),
    ("node.bytes_rx", "bytes"),
    ("node.loss_ratio", "ratio"),
    ("node.corrupt_frames", "count"),
    ("node.late_ratio", "ratio"),
    ("node.period_slip_ms", "ms"),
    ("node.skew_util_pct", "%"),
    ("node.gen_lag_ms", "ms"),
    ("node.transit_p50_ms", "ms"),
    ("node.transit_p99_ms", "ms"),
    ("node.transit_samples", "count"),
    ("bench.harness_s", "s"),
    ("wall.events_per_s", "1/s"),
    ("wall.sim_s_per_s", "sim-s/s"),
    ("traced.setup_s", "s"),
    ("traced.events_per_cpu_s", "1/s"),
    ("traced.msgs_per_cpu_s", "1/s"),
    ("traced.sim_s_per_cpu_s", "sim-s/s"),
    ("trace_overhead_pct", "%"),
];

/// Metrics a workload measured, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

impl Metrics {
    /// Sets a metric; the name must be one of the declared ones.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a check; a failing one is a problem and a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The failed checks, the `metric` lines (every metric, untraced and
    /// `traced.*` side by side, with its unit), and the closing JSON line
    /// of the `traced` or untraced mode.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for p in &self.problems {
            let _ = writeln!(out, "check FAILED: {p}");
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "metric fail_ratio {fail_ratio} failed/attempted");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let value = self.metrics.get(name).unwrap_or(0.0);
            let _ = writeln!(out, "metric {name} {value} {unit}");
        }
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

/// A finite JSON number (JSON has no NaN or infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn render_ends_with_the_result_json() {
        let mut o = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.5);
        o.check(false, || "forged".to_string());
        let text = o.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(text.contains("check FAILED: forged"));
    }
}
