//! Longitudinal trend series: the `gcs-trend/v1` JSONL format the nightly
//! pipeline appends to, plus the regression gate over it.
//!
//! Where [`trend`](crate::trend) compares one fresh campaign against one
//! checked-in baseline *point*, this module turns repeated runs into a
//! *trajectory*: every nightly appends one line per `(kind, scenario,
//! seed, threads, metric-set)` observation to a `TREND_*.jsonl` file, and
//! [`trend_gate`] compares each series' newest point against the median of
//! its trailing window. The format is append-only JSONL — one
//! self-describing point per line — so the history survives partial
//! writes, diffs cleanly, and can be seeded from a checked-in
//! `BENCH_*.json` artifact (`gcs-scenarios trend-append`).
//!
//! Gating is orientation-aware per metric: throughput regresses *down*,
//! oracle utilization regresses *up*, and wall-clock is recorded but never
//! gated (CI runners are too noisy for it). The absolute floor, relative
//! drift, breach predicate and tight/loose tolerance lookup are the
//! [`trend`](crate::trend) gate's own.

use gcs_analysis::Table;

use crate::bench::BenchEntry;
use crate::conformance::ConformanceRow;
use crate::json::{self, field, str_field, u64_field, Json, JsonValue};
use crate::trend::{breaches, relative_drift, scenario_tolerance};

/// The per-line format tag.
pub const TREND_FORMAT: &str = "gcs-trend/v1";

/// Points with no trailing history are not gated; a series needs at least
/// this many *prior* points before its newest one can regress.
pub const MIN_HISTORY: usize = 2;

/// Default trailing-window size the gate compares the newest point against.
pub const DEFAULT_WINDOW: usize = 5;

/// One appended observation: a `(kind, scenario, seed, threads)` run at
/// some instant, carrying a flat name → value metric map.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Caller-supplied stamp (the CLI writes unix milliseconds; any
    /// monotone token works — the gate orders by file position, not by
    /// parsing this).
    pub when: String,
    /// Observation kind: `"bench"` or `"conformance"`.
    pub kind: String,
    /// Scale token the run used.
    pub scale: String,
    /// Scenario name.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// Worker thread count.
    pub threads: u64,
    /// Flat metric map, sorted by name on write.
    pub metrics: Vec<(String, f64)>,
}

impl TrendPoint {
    /// The series key: every field that identifies *what* was measured
    /// (everything but `when` and the values).
    #[must_use]
    pub fn series_key(&self) -> (String, String, String, u64, u64) {
        (
            self.kind.clone(),
            self.scale.clone(),
            self.scenario.clone(),
            self.seed,
            self.threads,
        )
    }

    /// Looks up one metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Which direction is a regression for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Bigger is better (throughput): a drop beyond tolerance regresses.
    HigherBetter,
    /// Smaller is better (oracle utilization, skew): a rise regresses.
    LowerBetter,
    /// Recorded for the record, never gated (wall-clock, raw counts).
    Informational,
}

/// The gate orientation of a metric name. Throughput gates downward;
/// oracle-utilization and skew metrics gate upward; everything else —
/// wall-clock, build time, raw event/sample counts — is informational
/// (deterministic counters are already exactly gated by `bench-compare`,
/// and wall-clock is runner noise).
#[must_use]
pub fn orientation(metric: &str) -> Orientation {
    match metric {
        "events_per_sec" => Orientation::HigherBetter,
        m if m.ends_with("_worst") || m.ends_with("_skew") || m == "min_margin_deficit" => {
            Orientation::LowerBetter
        }
        _ => Orientation::Informational,
    }
}

/// Distills one bench entry into a trend point.
#[must_use]
pub fn point_from_bench(when: &str, scale: &str, e: &BenchEntry) -> TrendPoint {
    TrendPoint {
        when: when.to_string(),
        kind: "bench".to_string(),
        scale: scale.to_string(),
        scenario: e.scenario.clone(),
        seed: e.seed,
        threads: e.threads as u64,
        metrics: vec![
            ("build_secs".to_string(), e.build_secs),
            ("events".to_string(), e.events as f64),
            ("events_per_sec".to_string(), e.events_per_sec),
            ("wall_secs".to_string(), e.wall_secs),
        ],
    }
}

/// Distills one conformance verdict into a trend point. Utilizations are
/// the worst observed/allowed ratio per bound family — the margin the
/// nightly trend watches erode long before an outright violation.
#[must_use]
pub fn point_from_conformance(
    when: &str,
    scale: &str,
    threads: u64,
    row: &ConformanceRow,
) -> TrendPoint {
    TrendPoint {
        when: when.to_string(),
        kind: "conformance".to_string(),
        scale: scale.to_string(),
        scenario: row.name.clone(),
        seed: row.seed,
        threads,
        metrics: vec![
            (
                "global_worst".to_string(),
                row.report.global.worst_utilization,
            ),
            (
                "gradient_worst".to_string(),
                row.report.gradient.worst_utilization,
            ),
            ("samples".to_string(), row.report.samples as f64),
            (
                "sampled_sources".to_string(),
                row.report.sampled_sources as f64,
            ),
            (
                "violations".to_string(),
                row.report.violations().len() as f64,
            ),
            (
                "weak_worst".to_string(),
                row.report.weak_edges.worst_utilization,
            ),
        ],
    }
}

/// Serializes one point as a single JSONL line (no trailing newline).
/// Metric keys are dynamic, so the map is spliced by hand exactly like the
/// baseline writer's tolerance table.
#[must_use]
pub fn point_json(p: &TrendPoint) -> String {
    let head = Json::Obj(vec![
        ("format", Json::Str(TREND_FORMAT.to_string())),
        ("when", Json::Str(p.when.clone())),
        ("kind", Json::Str(p.kind.clone())),
        ("scale", Json::Str(p.scale.clone())),
        ("scenario", Json::Str(p.scenario.clone())),
        ("seed", Json::Int(p.seed)),
        ("threads", Json::Int(p.threads)),
    ])
    .to_string();
    let mut out = String::new();
    out.push_str(&head[..head.len() - 1]);
    out.push_str(",\"metrics\":{");
    let mut metrics = p.metrics.clone();
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    for (i, (name, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", Json::Str(name.clone()), Json::Num(*v)));
    }
    out.push_str("}}");
    out
}

/// Parses a whole `TREND_*.jsonl` series (blank lines tolerated), in file
/// order — which the gate treats as time order, because the file is
/// append-only.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn read_series(text: &str) -> Result<Vec<TrendPoint>, String> {
    let mut points = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let what = format!("trend line {}", i + 1);
        let doc = json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        let format = str_field(&doc, "format", &what)?;
        if format != TREND_FORMAT {
            return Err(format!(
                "{what}: expected format {TREND_FORMAT:?}, got {format:?}"
            ));
        }
        let metrics_doc = field(&doc, "metrics", &what)?;
        let JsonValue::Obj(fields) = metrics_doc else {
            return Err(format!("{what}: field \"metrics\" is not an object"));
        };
        let mut metrics = Vec::with_capacity(fields.len());
        for (name, v) in fields {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("{what}: metric {name:?} is not a number"))?;
            metrics.push((name.clone(), v));
        }
        points.push(TrendPoint {
            when: str_field(&doc, "when", &what)?,
            kind: str_field(&doc, "kind", &what)?,
            scale: str_field(&doc, "scale", &what)?,
            scenario: str_field(&doc, "scenario", &what)?,
            seed: u64_field(&doc, "seed", &what)?,
            threads: u64_field(&doc, "threads", &what)?,
            metrics,
        });
    }
    Ok(points)
}

/// Appends points to a series file (creating it and parent directories on
/// first use) — one line per point, never rewriting history.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_points(path: &std::path::Path, points: &[TrendPoint]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for p in points {
        writeln!(f, "{}", point_json(p))?;
    }
    Ok(())
}

/// One out-of-tolerance trend observation, carrying everything the
/// `--explain` flag prints: which tolerance fired and the historical
/// window the newest point was compared against.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendFinding {
    /// Observation kind (`bench` / `conformance`).
    pub kind: String,
    /// Scenario name.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// Worker thread count.
    pub threads: u64,
    /// The regressing metric.
    pub metric: String,
    /// The metric's gate orientation (never `Informational` here).
    pub orientation: Orientation,
    /// Newest value.
    pub current: f64,
    /// Median of the trailing window.
    pub median: f64,
    /// The trailing window values compared against, oldest first.
    pub window: Vec<f64>,
    /// The relative tolerance that fired.
    pub tolerance: f64,
    /// Why that tolerance applies (`"tight (deterministic scenario)"`,
    /// `"loose (seed-realized scenario)"`, or `"--tol override"`).
    pub tolerance_source: String,
}

impl TrendFinding {
    /// Signed relative drift of the newest point vs the window median,
    /// oriented so positive is always *worse*.
    #[must_use]
    pub fn relative(&self) -> f64 {
        relative_drift(self.worsening(), self.median)
    }

    /// How far the newest point moved in the failing direction.
    fn worsening(&self) -> f64 {
        match self.orientation {
            Orientation::HigherBetter => self.median - self.current,
            _ => self.current - self.median,
        }
    }

    /// The `--explain` paragraph: which tolerance fired and the window it
    /// was judged against.
    #[must_use]
    pub fn explain(&self) -> String {
        let dir = match self.orientation {
            Orientation::HigherBetter => "dropped below",
            _ => "rose above",
        };
        let window: Vec<String> = self.window.iter().map(|v| format!("{v:.6}")).collect();
        format!(
            "{} {} seed {} threads {} [{}]: {:.6} {} the ±{:.0}% band around the \
             median {:.6} of its last {} point(s) [{}]; tolerance source: {}",
            self.kind,
            self.scenario,
            self.seed,
            self.threads,
            self.metric,
            self.current,
            dir,
            self.tolerance * 100.0,
            self.median,
            self.window.len(),
            window.join(", "),
            self.tolerance_source,
        )
    }
}

/// The trend gate's outcome: a printable table (one row per gated series
/// metric) plus every finding that breached tolerance.
#[derive(Debug)]
pub struct TrendGateReport {
    /// One row per gated `(series, metric)`.
    pub table: Table,
    /// Out-of-tolerance findings (empty ⇒ gate passes).
    pub findings: Vec<TrendFinding>,
}

impl TrendGateReport {
    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The per-scenario tolerance and its provenance. `tol_override` (the
/// CLI's `--tol`) wins; otherwise [`scenario_tolerance`] decides.
fn tolerance_for(scenario: &str, tol_override: Option<f64>) -> (f64, String) {
    if let Some(t) = tol_override {
        return (t, "--tol override".to_string());
    }
    let (tol, class) = scenario_tolerance(scenario);
    (tol, class.to_string())
}

fn median(sorted: &mut [f64]) -> f64 {
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Gates the newest point of every series in `points` against the median
/// of its trailing `window` predecessors (at least [`MIN_HISTORY`]; series
/// with less history are reported as `building` and never fail).
/// Orientation decides the failing direction per metric via
/// [`orientation`]; informational metrics are recorded in the table but
/// never gate. `tol_override` replaces the per-scenario tolerance table
/// when given.
#[must_use]
pub fn trend_gate(
    points: &[TrendPoint],
    window: usize,
    tol_override: Option<f64>,
) -> TrendGateReport {
    let window = window.max(1);
    let mut findings = Vec::new();
    let mut table = Table::new(
        format!(
            "trend gate — {} point(s), window {window}, min history {MIN_HISTORY}",
            points.len()
        ),
        &[
            "kind", "scenario", "seed", "thr", "metric", "median", "current", "drift", "tol",
            "status",
        ],
    );
    table.caption(
        "Newest point per series vs the median of its trailing window. Throughput \
         (events_per_sec) gates downward, oracle utilization (\"*_worst\") gates \
         upward, wall-clock and raw counts are informational. `building` = not \
         enough history to gate yet.",
    );

    // Series in first-appearance order, keyed by everything but `when`.
    let mut keys: Vec<(String, String, String, u64, u64)> = Vec::new();
    for p in points {
        let k = p.series_key();
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    for key in keys {
        let series: Vec<&TrendPoint> = points.iter().filter(|p| p.series_key() == key).collect();
        let (newest, history) = series.split_last().expect("key came from a point");
        let (tol, tol_source) = tolerance_for(&newest.scenario, tol_override);
        for (metric, current) in &newest.metrics {
            let orient = orientation(metric);
            let prior: Vec<f64> = history
                .iter()
                .rev()
                .take(window)
                .rev()
                .filter_map(|p| p.metric(metric))
                .collect();
            let med = if prior.is_empty() {
                f64::NAN
            } else {
                median(&mut prior.clone())
            };
            let mut status = "ok";
            let mut drift_cell = "-".to_string();
            if prior.len() < MIN_HISTORY {
                status = "building";
            } else if orient == Orientation::Informational {
                status = "info";
            } else {
                let finding = TrendFinding {
                    kind: newest.kind.clone(),
                    scenario: newest.scenario.clone(),
                    seed: newest.seed,
                    threads: newest.threads,
                    metric: metric.clone(),
                    orientation: orient,
                    current: *current,
                    median: med,
                    window: prior.clone(),
                    tolerance: tol,
                    tolerance_source: tol_source.clone(),
                };
                drift_cell = format!("{:+.1}%", finding.relative() * 100.0);
                if breaches(finding.worsening(), med, tol) {
                    status = "REGRESSION";
                    findings.push(finding);
                }
            }
            table.row([
                newest.kind.clone(),
                newest.scenario.clone(),
                newest.seed.to_string(),
                newest.threads.to_string(),
                metric.clone(),
                if med.is_nan() {
                    "-".to_string()
                } else {
                    format!("{med:.6}")
                },
                format!("{current:.6}"),
                drift_cell,
                format!("±{:.0}%", tol * 100.0),
                status.to_string(),
            ]);
        }
    }
    TrendGateReport { table, findings }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(scenario: &str, when: &str, metrics: &[(&str, f64)]) -> TrendPoint {
        TrendPoint {
            when: when.to_string(),
            kind: "bench".to_string(),
            scale: "default".to_string(),
            scenario: scenario.to_string(),
            seed: 0,
            threads: 1,
            metrics: metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn points_round_trip_through_jsonl() {
        let pts = vec![
            point(
                "ring-100k",
                "1",
                &[("events_per_sec", 1.5e6), ("wall_secs", 30.0)],
            ),
            point(
                "ring-100k",
                "2",
                &[("events_per_sec", 1.4e6), ("wall_secs", 31.0)],
            ),
        ];
        let text: String = pts
            .iter()
            .map(|p| point_json(p) + "\n")
            .collect::<Vec<_>>()
            .join("");
        assert!(text.starts_with("{\"format\":\"gcs-trend/v1\""));
        let back = read_series(&text).unwrap();
        assert_eq!(back, pts);
        assert!(read_series("{\"format\":\"nope\"}\n").is_err());
        assert_eq!(read_series("\n\n").unwrap(), Vec::new());
    }

    #[test]
    fn orientation_classifies_known_metrics() {
        assert_eq!(orientation("events_per_sec"), Orientation::HigherBetter);
        assert_eq!(orientation("global_worst"), Orientation::LowerBetter);
        assert_eq!(orientation("gradient_worst"), Orientation::LowerBetter);
        assert_eq!(orientation("wall_secs"), Orientation::Informational);
        assert_eq!(orientation("events"), Orientation::Informational);
    }

    #[test]
    fn gate_needs_history_before_failing() {
        // One prior point only: still "building", even on a huge drop.
        let pts = vec![
            point("ring-100k", "1", &[("events_per_sec", 1.0e6)]),
            point("ring-100k", "2", &[("events_per_sec", 1.0e3)]),
        ];
        assert!(trend_gate(&pts, DEFAULT_WINDOW, None).passed());
    }

    #[test]
    fn throughput_drop_beyond_tolerance_regresses() {
        let mut pts: Vec<TrendPoint> = (0..5)
            .map(|i| {
                point(
                    "ring-100k",
                    &i.to_string(),
                    &[("events_per_sec", 1.0e6), ("wall_secs", 30.0)],
                )
            })
            .collect();
        // ring-100k is deterministic: tight ±25 %. A 40 % drop fails...
        pts.push(point(
            "ring-100k",
            "5",
            &[("events_per_sec", 0.6e6), ("wall_secs", 50.0)],
        ));
        let report = trend_gate(&pts, DEFAULT_WINDOW, None);
        assert!(!report.passed());
        assert_eq!(report.findings.len(), 1, "wall_secs must not gate");
        let f = &report.findings[0];
        assert_eq!(f.metric, "events_per_sec");
        assert_eq!(f.window.len(), 5);
        assert!(
            f.tolerance_source.contains("tight"),
            "{}",
            f.tolerance_source
        );
        assert!(f.explain().contains("dropped below"), "{}", f.explain());
        // ... and a 10 % drop passes.
        let last = pts.last_mut().unwrap();
        last.metrics[0].1 = 0.9e6;
        assert!(trend_gate(&pts, DEFAULT_WINDOW, None).passed());
    }

    #[test]
    fn utilization_rise_regresses_and_tol_override_wins() {
        let mut pts: Vec<TrendPoint> = (0..4)
            .map(|i| {
                let mut p = point("self-heal", &i.to_string(), &[("gradient_worst", 0.50)]);
                p.kind = "conformance".to_string();
                p
            })
            .collect();
        let mut last = point("self-heal", "4", &[("gradient_worst", 0.70)]);
        last.kind = "conformance".to_string();
        pts.push(last);
        // +40 % utilization: fails the tight default...
        let report = trend_gate(&pts, DEFAULT_WINDOW, None);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].explain().contains("rose above"));
        // ... passes with an explicit loose override, whose provenance the
        // explain output names.
        let report = trend_gate(&pts, DEFAULT_WINDOW, Some(0.60));
        assert!(report.passed());
        let report = trend_gate(&pts, DEFAULT_WINDOW, Some(0.10));
        assert!(report.findings[0].tolerance_source.contains("--tol"));
    }

    #[test]
    fn window_limits_how_far_back_the_median_looks() {
        // History: five slow points, then three fast ones. Window 3 only
        // sees the fast era, so a return to the slow rate regresses.
        let mut pts: Vec<TrendPoint> = (0..5)
            .map(|i| point("ring-100k", &i.to_string(), &[("events_per_sec", 1.0e6)]))
            .collect();
        for i in 5..8 {
            pts.push(point(
                "ring-100k",
                &i.to_string(),
                &[("events_per_sec", 2.0e6)],
            ));
        }
        pts.push(point("ring-100k", "8", &[("events_per_sec", 1.0e6)]));
        assert!(
            !trend_gate(&pts, 3, None).passed(),
            "window 3: fast era only"
        );
        // A window spanning the slow era pulls the median down to 1.5e6;
        // the same point is then a 33 % drop — still failing tight, but
        // passing a 40 % override. The window genuinely changes the verdict.
        assert!(trend_gate(&pts, 8, Some(0.40)).passed());
        assert!(!trend_gate(&pts, 3, Some(0.40)).passed());
    }

    #[test]
    fn series_are_keyed_by_seed_and_threads() {
        // Interleaved seeds: each seed's series gates independently.
        let mut pts = Vec::new();
        for i in 0..4 {
            for seed in [0u64, 1] {
                let mut p = point("ring-100k", &i.to_string(), &[("events_per_sec", 1.0e6)]);
                p.seed = seed;
                pts.push(p);
            }
        }
        let mut bad = point("ring-100k", "4", &[("events_per_sec", 0.5e6)]);
        bad.seed = 1;
        pts.push(bad);
        let report = trend_gate(&pts, DEFAULT_WINDOW, None);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].seed, 1);
    }

    #[test]
    fn distillers_produce_gateable_points() {
        let e = BenchEntry {
            scenario: "ring-100k".to_string(),
            nodes: 100_000,
            seed: 0,
            threads: 2,
            sim_secs: 1.5,
            build_secs: 0.5,
            wall_secs: 30.0,
            events: 44_000_000,
            events_per_sec: 1.46e6,
            ticks: 987,
            mode_evaluations: 1,
            messages_delivered: 2,
        };
        let p = point_from_bench("123", "default", &e);
        assert_eq!(p.kind, "bench");
        assert_eq!(p.threads, 2);
        assert_eq!(p.metric("events_per_sec"), Some(1.46e6));
        let line = point_json(&p);
        assert_eq!(read_series(&line).unwrap()[0], p);
    }
}
