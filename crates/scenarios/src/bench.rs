//! Engine-throughput benchmarking: drive registry scenarios end to end,
//! measure wall-clock and events/second, and emit the machine-readable
//! `BENCH_engine.json` artifact (`gcs-engine-bench/v1`) that the repo's
//! bench trajectory tracks across PRs.
//!
//! This is deliberately *not* a statistics campaign: runs execute
//! sequentially (wall-clock timing must not share cores), skip the
//! observation sampling grid, and report engine counters
//! ([`SimStats`](gcs_core::SimStats)) next to the timings, so a throughput
//! regression can be attributed (more events? slower events? more mode
//! evaluations?) straight from the artifact.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::error::ScenarioError;
use crate::json::Json;
use crate::spec::{Scale, ScenarioSpec};

/// The artifact format tag.
pub const BENCH_FORMAT: &str = "gcs-engine-bench/v1";

/// One scenario × seed engine-throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Scenario name.
    pub scenario: String,
    /// Node count after scaling.
    pub nodes: usize,
    /// Run seed.
    pub seed: u64,
    /// Worker thread count: 1 = the sequential reference engine, >1 = the
    /// parallel sharded engine with that many shards.
    pub threads: usize,
    /// Simulated seconds driven (`warmup + duration`).
    pub sim_secs: f64,
    /// Wall-clock seconds to build the simulation.
    pub build_secs: f64,
    /// Wall-clock seconds to drive it to the end.
    pub wall_secs: f64,
    /// Events processed.
    pub events: u64,
    /// Throughput: `events / wall_secs`.
    pub events_per_sec: f64,
    /// Tick events processed.
    pub ticks: u64,
    /// Per-node mode decisions actually evaluated (`ticks × nodes` minus
    /// what the dirty-set/stability-certificate machinery skipped).
    pub mode_evaluations: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
}

/// Runs one scenario once, for throughput: build, replay scripted faults,
/// drive to the end instant, and time it. No observation sampling.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the spec fails to validate or build.
pub fn run_one(
    spec: &ScenarioSpec,
    seed: u64,
    threads: usize,
) -> Result<BenchEntry, ScenarioError> {
    let built = Instant::now();
    enum Built {
        Sequential(gcs_core::Simulation),
        Sharded(gcs_core::ParallelSimulation),
    }
    let mut sim = if threads <= 1 {
        Built::Sequential(spec.build(seed)?)
    } else {
        let engine = gcs_core::ParallelSimBuilder::new(spec.builder(seed)?)
            .shards(threads)
            .build()
            .map_err(|e| ScenarioError::Invalid(format!("{}: {e}", spec.name)))?;
        Built::Sharded(engine)
    };
    let build_secs = built.elapsed().as_secs_f64();

    let end = spec.end_secs();
    let started = Instant::now();
    let stats = match &mut sim {
        Built::Sequential(sim) => {
            crate::campaign::apply_faults(sim, &spec.faults);
            sim.run_until_secs(end);
            sim.stats()
        }
        Built::Sharded(sim) => {
            crate::campaign::apply_faults(sim, &spec.faults);
            sim.run_until_secs(end);
            sim.stats()
        }
    };
    let wall_secs = started.elapsed().as_secs_f64();

    let nodes = match &sim {
        Built::Sequential(sim) => sim.node_count(),
        Built::Sharded(sim) => sim.node_count(),
    };
    Ok(BenchEntry {
        scenario: spec.name.clone(),
        nodes,
        seed,
        threads: threads.max(1),
        sim_secs: end,
        build_secs,
        wall_secs,
        events: stats.events,
        events_per_sec: stats.events as f64 / wall_secs.max(1e-9),
        ticks: stats.ticks,
        mode_evaluations: stats.mode_evaluations,
        messages_delivered: stats.messages_delivered,
    })
}

/// Runs `specs × seeds` sequentially (never in parallel — the timings are
/// the point) and returns the entries in input order. Each combination is
/// driven `repeat` times and the fastest wall-clock run is kept — the
/// standard way to strip scheduler noise from a throughput number; the
/// engine counters are asserted identical across repetitions (determinism
/// cross-check for free).
///
/// # Errors
///
/// Returns the first [`ScenarioError`] any run produced.
///
/// # Panics
///
/// Panics if `repeat` is zero, or if two repetitions of the same seeded
/// run disagree on any engine counter (a determinism bug).
pub fn run_suite(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    threads: &[usize],
    repeat: u32,
) -> Result<Vec<BenchEntry>, ScenarioError> {
    assert!(repeat > 0, "need at least one repetition");
    assert!(!threads.is_empty(), "need at least one thread count");
    let mut entries = Vec::with_capacity(specs.len() * seeds.len() * threads.len());
    for spec in specs {
        for &seed in seeds {
            let mut per_thread: Vec<BenchEntry> = Vec::with_capacity(threads.len());
            for &t in threads {
                let mut best = run_one(spec, seed, t)?;
                for _ in 1..repeat {
                    let again = run_one(spec, seed, t)?;
                    assert_eq!(
                        (again.events, again.ticks, again.mode_evaluations),
                        (best.events, best.ticks, best.mode_evaluations),
                        "{} seed {seed} threads {t}: engine counters diverged across repetitions",
                        spec.name
                    );
                    if again.wall_secs < best.wall_secs {
                        best = again;
                    }
                }
                per_thread.push(best);
            }
            // Cross-engine determinism for free: every thread count must
            // agree on every deterministic counter.
            for e in &per_thread[1..] {
                assert_eq!(
                    (e.events, e.ticks, e.mode_evaluations, e.messages_delivered),
                    (
                        per_thread[0].events,
                        per_thread[0].ticks,
                        per_thread[0].mode_evaluations,
                        per_thread[0].messages_delivered
                    ),
                    "{} seed {seed}: counters diverged between {} and {} threads",
                    spec.name,
                    per_thread[0].threads,
                    e.threads
                );
            }
            entries.append(&mut per_thread);
        }
    }
    Ok(entries)
}

/// Serializes a bench suite to the `gcs-engine-bench/v1` JSON artifact.
#[must_use]
pub fn bench_json(scale: Scale, seeds: &[u64], entries: &[BenchEntry]) -> String {
    let entry_json = |e: &BenchEntry| {
        Json::Obj(vec![
            ("scenario", Json::Str(e.scenario.clone())),
            ("nodes", Json::Int(e.nodes as u64)),
            ("seed", Json::Int(e.seed)),
            ("threads", Json::Int(e.threads as u64)),
            ("sim_secs", Json::Num(e.sim_secs)),
            ("build_secs", Json::Num(e.build_secs)),
            ("wall_secs", Json::Num(e.wall_secs)),
            ("events", Json::Int(e.events)),
            ("events_per_sec", Json::Num(e.events_per_sec)),
            ("ticks", Json::Int(e.ticks)),
            ("mode_evaluations", Json::Int(e.mode_evaluations)),
            ("messages_delivered", Json::Int(e.messages_delivered)),
        ])
    };
    let head = Json::Obj(vec![
        ("format", Json::Str(BENCH_FORMAT.to_string())),
        ("scale", Json::Str(scale.name().to_string())),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Int(s)).collect()),
        ),
    ]);
    // One entry per line so checked-in artifacts diff cleanly.
    let head = head.to_string();
    let mut out = String::new();
    out.push_str(&head[..head.len() - 1]);
    out.push_str(",\"entries\":[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&entry_json(e).to_string());
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// A fully parsed `gcs-engine-bench/v1` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Scale token the suite ran at.
    pub scale: String,
    /// Seed list.
    pub seeds: Vec<u64>,
    /// Per-scenario × seed entries, in artifact order.
    pub entries: Vec<BenchEntry>,
}

/// Parses a `gcs-engine-bench/v1` artifact back into its entries.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong `format` tag, or a
/// missing/mistyped field.
pub fn read_bench(text: &str) -> Result<BenchArtifact, String> {
    use crate::json::{self, arr_field, f64_field, str_field, u64_field};
    let doc = json::parse(text)?;
    let format = str_field(&doc, "format", "bench artifact")?;
    if format != BENCH_FORMAT {
        return Err(format!("expected format {BENCH_FORMAT:?}, got {format:?}"));
    }
    let seeds = arr_field(&doc, "seeds", "bench artifact")?
        .iter()
        .map(|s| s.as_u64().ok_or_else(|| "non-integer seed".to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    let mut entries = Vec::new();
    for e in arr_field(&doc, "entries", "bench artifact")? {
        let scenario = str_field(e, "scenario", "bench entry")?;
        let what = format!("bench entry {scenario:?}");
        entries.push(BenchEntry {
            nodes: usize::try_from(u64_field(e, "nodes", &what)?)
                .map_err(|err| format!("{what}: {err}"))?,
            seed: u64_field(e, "seed", &what)?,
            threads: usize::try_from(u64_field(e, "threads", &what)?)
                .map_err(|err| format!("{what}: {err}"))?,
            sim_secs: f64_field(e, "sim_secs", &what)?,
            build_secs: f64_field(e, "build_secs", &what)?,
            wall_secs: f64_field(e, "wall_secs", &what)?,
            events: u64_field(e, "events", &what)?,
            events_per_sec: f64_field(e, "events_per_sec", &what)?,
            ticks: u64_field(e, "ticks", &what)?,
            mode_evaluations: u64_field(e, "mode_evaluations", &what)?,
            messages_delivered: u64_field(e, "messages_delivered", &what)?,
            scenario,
        });
    }
    Ok(BenchArtifact {
        scale: str_field(&doc, "scale", "bench artifact")?,
        seeds,
        entries,
    })
}

/// One counter mismatch between two bench artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterFinding {
    /// Scenario name.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// Worker thread count of the run.
    pub threads: usize,
    /// Which counter diverged (or a structural problem: `missing entry`,
    /// `new entry`, `nodes`).
    pub counter: &'static str,
    /// Baseline value (`u64::MAX` for structural findings).
    pub baseline: u64,
    /// Current value (`u64::MAX` for structural findings).
    pub current: u64,
}

/// The outcome of an exact counter comparison: a printable table plus
/// every mismatch.
#[derive(Debug)]
pub struct BenchCompareReport {
    /// One row per baseline entry, counters side by side.
    pub table: gcs_analysis::Table,
    /// Mismatches (empty ⇒ gate passes).
    pub findings: Vec<CounterFinding>,
}

impl BenchCompareReport {
    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Compares the *deterministic engine counters* of two bench artifacts
/// **exactly** — `events`, `ticks`, `mode_evaluations`, and
/// `messages_delivered` are pure functions of scenario + seed + code, so
/// any divergence is a real behavioural change even where wall-clock is
/// noise. Entries are matched by `(scenario, seed, threads)`; wall-clock
/// and throughput columns are reported but never gated.
///
/// With `subset` the gate only requires the *baseline entries that the
/// current artifact also ran* to match — entries the current run skipped
/// are reported but not failed. This is for partial reruns (e.g. a CI
/// smoke that benches a single thread count against the full checked-in
/// artifact). Current-only entries are still findings in both modes, and
/// an empty intersection always fails: a gate that compared nothing has
/// not verified anything.
#[must_use]
pub fn compare_counters(
    baseline: &BenchArtifact,
    current: &BenchArtifact,
    subset: bool,
) -> BenchCompareReport {
    let mut findings = Vec::new();
    let mut matched = 0usize;
    let mut table = gcs_analysis::Table::new(
        format!(
            "engine counter gate — scale {} vs baseline scale {}{}",
            current.scale,
            baseline.scale,
            if subset { " (subset)" } else { "" }
        ),
        &[
            "scenario", "seed", "thr", "counter", "baseline", "current", "status",
        ],
    );
    table.caption(
        "events/ticks/mode_evaluations/messages_delivered are deterministic per \
         (scenario, seed): gated exactly. wall_secs is scheduler noise: reported \
         in the artifact, never gated.",
    );
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| {
            e.scenario == base.scenario && e.seed == base.seed && e.threads == base.threads
        }) else {
            if !subset {
                findings.push(CounterFinding {
                    scenario: base.scenario.clone(),
                    seed: base.seed,
                    threads: base.threads,
                    counter: "missing entry",
                    baseline: u64::MAX,
                    current: u64::MAX,
                });
            }
            table.row([
                base.scenario.clone(),
                base.seed.to_string(),
                base.threads.to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                if subset { "skipped" } else { "MISSING" }.to_string(),
            ]);
            continue;
        };
        matched += 1;
        let pairs: [(&'static str, u64, u64); 5] = [
            ("nodes", base.nodes as u64, cur.nodes as u64),
            ("events", base.events, cur.events),
            ("ticks", base.ticks, cur.ticks),
            (
                "mode_evaluations",
                base.mode_evaluations,
                cur.mode_evaluations,
            ),
            (
                "messages_delivered",
                base.messages_delivered,
                cur.messages_delivered,
            ),
        ];
        for (counter, b, c) in pairs {
            let ok = b == c;
            table.row([
                base.scenario.clone(),
                base.seed.to_string(),
                base.threads.to_string(),
                counter.to_string(),
                b.to_string(),
                c.to_string(),
                if ok { "ok" } else { "MISMATCH" }.to_string(),
            ]);
            if !ok {
                findings.push(CounterFinding {
                    scenario: base.scenario.clone(),
                    seed: base.seed,
                    threads: base.threads,
                    counter,
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    for cur in &current.entries {
        if !baseline
            .entries
            .iter()
            .any(|e| e.scenario == cur.scenario && e.seed == cur.seed && e.threads == cur.threads)
        {
            findings.push(CounterFinding {
                scenario: cur.scenario.clone(),
                seed: cur.seed,
                threads: cur.threads,
                counter: "new entry (refresh the baseline)",
                baseline: u64::MAX,
                current: u64::MAX,
            });
        }
    }
    if matched == 0 {
        findings.push(CounterFinding {
            scenario: "(whole artifact)".to_string(),
            seed: 0,
            threads: 0,
            counter: "no overlapping entries: gate compared nothing",
            baseline: u64::MAX,
            current: u64::MAX,
        });
    }
    BenchCompareReport { table, findings }
}

/// Writes the artifact to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench(
    path: &Path,
    scale: Scale,
    seeds: &[u64],
    entries: &[BenchEntry],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(bench_json(scale, seeds, entries).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn bench_runs_and_serializes() {
        let spec = registry::find("ring-steady")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let entries = run_suite(std::slice::from_ref(&spec), &[0, 1], &[1, 2], 2).unwrap();
        assert_eq!(entries.len(), 4, "one row per (seed, threads)");
        for e in &entries {
            assert_eq!(e.scenario, "ring-steady");
            assert!(e.events > 0);
            assert!(e.events_per_sec > 0.0);
            assert!(e.ticks > 0);
            assert!(e.mode_evaluations > 0);
        }
        // run_suite itself asserts counters match across thread counts;
        // double-check the rows landed as (seed 0, t1), (seed 0, t2), ...
        assert_eq!(
            entries
                .iter()
                .map(|e| (e.seed, e.threads))
                .collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 1), (1, 2)]
        );
        // Same seed twice: identical engine counters (timings differ).
        let again = run_one(&spec, 0, 1).unwrap();
        assert_eq!(again.events, entries[0].events);
        assert_eq!(again.mode_evaluations, entries[0].mode_evaluations);
        let json = bench_json(Scale::Tiny, &[0, 1], &entries);
        assert!(json.starts_with("{\"format\":\"gcs-engine-bench/v1\""));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"threads\":2"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn bench_reader_inverts_the_writer() {
        let spec = registry::find("line-worstcase")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let entries = run_suite(std::slice::from_ref(&spec), &[0, 1], &[1, 2], 1).unwrap();
        let text = bench_json(Scale::Tiny, &[0, 1], &entries);
        let artifact = read_bench(&text).unwrap();
        assert_eq!(artifact.scale, "tiny");
        assert_eq!(artifact.seeds, vec![0, 1]);
        assert_eq!(
            artifact.entries, entries,
            "parsed entries must be bit-identical"
        );
    }

    #[test]
    fn counter_gate_is_exact() {
        let spec = registry::find("line-worstcase")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let entries = run_suite(std::slice::from_ref(&spec), &[0], &[1], 1).unwrap();
        let artifact = read_bench(&bench_json(Scale::Tiny, &[0], &entries)).unwrap();
        // Identical runs pass; wall-clock differences are ignored.
        let mut rerun = artifact.clone();
        rerun.entries[0].wall_secs *= 10.0;
        rerun.entries[0].events_per_sec /= 10.0;
        let report = compare_counters(&artifact, &rerun, false);
        assert!(report.passed(), "{:?}", report.findings);
        // A single off-by-one event count fails the gate exactly.
        let mut drifted = artifact.clone();
        drifted.entries[0].events += 1;
        let report = compare_counters(&artifact, &drifted, false);
        assert!(!report.passed());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].counter, "events");
        assert!(report.table.to_string().contains("MISMATCH"));
        // Entry-set mismatches are structural findings in both directions.
        let empty = BenchArtifact {
            scale: "tiny".to_string(),
            seeds: vec![0],
            entries: Vec::new(),
        };
        assert!(compare_counters(&artifact, &empty, false)
            .findings
            .iter()
            .any(|f| f.counter == "missing entry"));
        assert!(compare_counters(&empty, &artifact, false)
            .findings
            .iter()
            .any(|f| f.counter.starts_with("new entry")));
    }

    #[test]
    fn subset_gate_skips_missing_rows_but_never_passes_on_nothing() {
        let spec = registry::find("line-worstcase")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let full = run_suite(std::slice::from_ref(&spec), &[0], &[1, 2], 1).unwrap();
        let baseline = read_bench(&bench_json(Scale::Tiny, &[0], &full)).unwrap();
        // A partial rerun covering only the 2-thread row.
        let partial = BenchArtifact {
            scale: "tiny".to_string(),
            seeds: vec![0],
            entries: vec![full[1].clone()],
        };
        assert!(!compare_counters(&baseline, &partial, false).passed());
        let report = compare_counters(&baseline, &partial, true);
        assert!(report.passed(), "{:?}", report.findings);
        assert!(report.table.to_string().contains("skipped"));
        // Subset rows that DID run are still gated exactly.
        let mut drifted = partial.clone();
        drifted.entries[0].messages_delivered += 1;
        let report = compare_counters(&baseline, &drifted, true);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].counter, "messages_delivered");
        // An empty intersection is a failure even in subset mode.
        let unrelated = BenchArtifact {
            scale: "tiny".to_string(),
            seeds: vec![9],
            entries: Vec::new(),
        };
        let report = compare_counters(&baseline, &unrelated, true);
        assert!(!report.passed());
        assert!(report
            .findings
            .iter()
            .any(|f| f.counter.contains("compared nothing")));
    }

    #[test]
    fn bench_includes_scripted_faults() {
        // The fault replay is part of the driven workload: the scenario
        // must still run to its end instant.
        let spec = registry::find("self-heal")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let e = run_one(&spec, 3, 1).unwrap();
        assert!((e.sim_secs - spec.end_secs()).abs() < 1e-12);
        assert!(e.events > 0);
    }
}
