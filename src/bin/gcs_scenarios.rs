//! The `gcs-scenarios` CLI: list, validate, run, export, and show
//! declarative scenarios.
//!
//! ```sh
//! cargo run --release --bin gcs-scenarios -- list
//! cargo run --release --bin gcs-scenarios -- validate scenarios/
//! cargo run --release --bin gcs-scenarios -- run churn-storm --seeds 4
//! cargo run --release --bin gcs-scenarios -- run all --seeds 2 --scale tiny
//! cargo run --release --bin gcs-scenarios -- export scenarios/
//! ```

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_protocol::runtime::derive_run_config;
use gcs_protocol::{EstimateMode, Params};
use gcs_scenarios::json::Json;
use gcs_scenarios::{
    campaign, format, registry, telemetry, trend, trendseries, ConformanceOptions, OracleRide,
    Scale, ScenarioSpec,
};

const USAGE: &str = "\
gcs-scenarios — declarative dynamic-network scenarios

USAGE:
    gcs-scenarios list
        List the built-in scenario registry.
    gcs-scenarios show <name>
        Print a built-in scenario in canonical .scn form.
    gcs-scenarios validate <dir>
        Parse, validate, round-trip-check, and test-build every .scn
        file in <dir>; exits nonzero on the first problem.
    gcs-scenarios run <name|file.scn|all> [--seeds N] [--scale S] [--out DIR]
        Run a campaign (scenario x seed fan-out) and write the
        results/campaign_*.json artifact. `all` sweeps the campaign set
        (every built-in except the bench-class engine-scale scenarios,
        which run by name or via `bench`). The per-scenario summary
        includes the engine's deterministic counters (events, ticks,
        mode evaluations, deliveries) summed across seeds.
        --seeds N   seeds 0..N          (default 4)
        --scale S   tiny|default|full   (default default)
        --out DIR   artifact directory  (default results)
        --progress  print one line per completed scenario x seed, in
                    canonical (scenario-major) order
        --telemetry FILE  also drive every scenario x seed instrumented
                    (sequential engine) and write the gcs-telemetry/v1
                    artifact to FILE
    gcs-scenarios bench [selection] [--seeds N] [--scale S] [--out FILE]
        Engine-throughput benchmark: drive scenarios end to end
        (sequentially, no observation sampling) and write the
        gcs-engine-bench/v1 artifact with wall-clock and events/sec per
        scenario x seed. `all` (the default) sweeps the whole registry,
        bench-class scenarios included.
        --seeds N     seeds 0..N          (default 1)
        --repeat R    keep the fastest of R runs per entry (default 1)
        --scale S     tiny|default|full   (default default)
        --threads LST comma list of worker counts, one row each; 1 = the
                      sequential reference, >1 = the sharded engine
                      (default 1)
        --out FILE    artifact path       (default results/BENCH_engine.json)
        --trend FILE  also append one gcs-trend/v1 point per entry to the
                      longitudinal TREND_*.jsonl series (see trend-gate)
        --telemetry FILE  re-drive every timed entry with the telemetry
                      sink attached, assert the deterministic counters
                      are IDENTICAL to the timed pass (zero
                      instrumentation drift), and write the
                      gcs-telemetry/v1 artifact to FILE
    gcs-scenarios trace <name|file.scn> [--seed N] [--threads T] [--scale S]
                        [--out FILE]
        Run one scenario instrumented and emit the deterministic
        gcs-trace/v1 JSONL run log (sealed with a running FNV-1a content
        hash). The bytes are engine-invariant: the same (scenario, seed)
        produces the identical trace from the sequential engine and the
        sharded engine at every shard count.
        --seed N     run seed            (default 0)
        --threads T  1 = sequential, >1 = sharded with T shards (default 1)
        --scale S    tiny|default|full   (default tiny)
        --out FILE   write the trace here instead of stdout
    gcs-scenarios node-smoke [--procs P] [--per-proc K] [--secs S]
                             [--refresh R]
        Loopback cluster smoke test for the gcs-node socket daemon: spawn
        P daemon processes on 127.0.0.1 (K virtual nodes each, wired into
        a full mesh via --peers), let them exchange wire floods for S
        wall-clock seconds, then assert that every node heard every other
        node, that the observed logical-clock skew fits the Theorem 5.22
        gradient envelope of the cluster's derived parameters (plus a
        small measurement slack for pipe latency), that daemons whose
        stdin closes exit 0 printing `shutdown clean`, and that a
        SIGTERM'd daemon stops promptly. Needs the gcs-node binary next
        to this one (cargo builds both).
        --procs P     daemon processes        (default 3)
        --per-proc K  virtual nodes per proc  (default 2)
        --secs S      run duration, seconds   (default 4)
        --refresh R   flood refresh period    (default 0.2)
    gcs-scenarios trace-diff <a.jsonl> <b.jsonl>
        Verify both traces' content hashes, then compare them
        byte-for-byte. On divergence, prints one machine-readable JSON
        record to stdout — {\"rec\":\"divergence\",\"line\":N,\"a\":...,
        \"b\":...} with the 1-based line and both records (null when one
        trace ended) — and exits with code 3. The replay/equivalence
        gate.
    gcs-scenarios replay <trace.jsonl> [--threads T]
        Re-materialize a run from a sealed gcs-trace/v1 artifact ALONE:
        verify the seal (a mutated artifact is rejected), parse the
        embedded .scn spec record, rebuild from the recorded seed, drive
        the identical observation grid, and compare the fresh trace
        byte-for-byte against the original. Bit-identity is the
        contract; on divergence prints the same machine-readable record
        as trace-diff and exits with code 3.
        --threads T  replaying engine: 1 = sequential, >1 = sharded with
                     T shards (default 1; the outcome is invariant)
    gcs-scenarios chaos-search <name|file.scn> [--seed S] [--budget N]
                  [--seeds K] [--scale SC] [--threads T] [--log FILE]
                  [--resume FILE] [--export FILE] [--rename NAME]
                  [--trend FILE] [--violation-out FILE]
        Adversarial fault-schedule search: a seeded greedy-mutation loop
        over fault scripts (clock offsets, est-bias corruption,
        partition/churn-burst timing) inside the .scn validation
        envelope, scoring every candidate with the exact conformance
        oracle and hill-climbing on worst-case margin utilization. The
        gcs-chaos/v1 search log is byte-deterministic for a fixed
        (base, --seed, --budget) and embeds every frontier candidate's
        .scn. A candidate that EXCEEDS 100% utilization stops the
        search, writes a sealed replayable trace of the violating run,
        and exits with code 4.
        --seed S     search RNG seed (default 0)
        --budget N   candidate evaluations (default 32)
        --seeds K    score each candidate over run seeds 0..K (default 1)
        --scale SC   tiny|default|full (default default)
        --threads T  engine threads per evaluation (default 1)
        --log FILE   write the gcs-chaos/v1 search log here
        --resume FILE  start from the frontier of a previous search log
                     instead of the base scenario
        --export FILE  write the best-found schedule as canonical .scn
        --rename NAME  rename the exported schedule (required when the
                     export will join the registry next to its base)
        --trend FILE append one gcs-trend/v1 point (kind chaos, metric
                     best_util) to the longitudinal series
        --violation-out FILE  where the violating run's trace artifact
                     goes (default results/CHAOS_violation.jsonl)
    gcs-scenarios conformance [selection] [--seeds N] [--scale S]
        Drive a scenario selection (default: the whole registry,
        bench-class scenarios included) through the paper-bound
        conformance oracles: the Theorem 5.6 global-skew
        envelope, the Theorem 5.22 gradient bound per hop class, and the
        weak-edge legality bound, with self-stabilization and partition
        allowances replayed from each run's realized fault/insertion log.
        The oracle streams over sampled snapshots during the run — no
        trajectory is retained, so memory stays bounded at engine scale.
        Exits non-zero on any bound violation, and on an unknown scenario
        or set name. The theorem-level CI gate.
        --seeds N   seeds 0..N          (default 2)
        --scale S   tiny|default|full   (default tiny)
        --oracle-sample P  sampled-pairs oracle: stratified per-snapshot
                    source draws at rate P in (0,1] instead of the exact
                    all-pairs sweep. A violating pair escapes one snapshot
                    with probability <= (1-P)^2; sampled verdicts are a
                    conservative projection of exact ones (never a false
                    alarm). Deterministic for a (scenario, seed) at every
                    shard count.
        --oracle-seed N  base seed for the sampled source draws (default
                    0; mixed with each run seed)
        --threads T 1 = sequential reference engine, >1 = the sharded
                    engine with T shards per run (default 1)
        --trend FILE  also append one gcs-trend/v1 point per run (bound
                    utilizations, sample counts) to the longitudinal
                    TREND_*.jsonl series (see trend-gate)
        --progress  print one line per completed scenario x seed, in
                    canonical (scenario-major) order
        --telemetry FILE  also drive every scenario x seed instrumented
                    with the oracle riding along (same exact/sampled mode)
                    and write the gcs-telemetry/v1 artifact (including the
                    bound-margin utilization time series) to FILE
    gcs-scenarios trend-append <bench.json> [--out FILE]
        Distill a gcs-engine-bench/v1 artifact into gcs-trend/v1 points
        (one per scenario x seed x threads entry, stamped now) and append
        them to FILE (default results/TREND_engine.jsonl). Seeds the
        nightly trend trajectory from a checked-in BENCH_*.json point.
    gcs-scenarios trend-gate <trend.jsonl> [--window N] [--tol PCT]
                             [--explain]
        Gate the newest point of every (kind, scale, scenario, seed,
        threads) series in an append-only TREND_*.jsonl file against the
        median of its trailing window. Orientation-aware: events_per_sec
        regresses downward, oracle \"*_worst\" utilizations regress
        upward; wall-clock and raw counts are informational. Series with
        fewer than 2 prior points report `building` and never fail.
        Exits non-zero on any regression beyond tolerance.
        --window N  trailing points the median spans (default 5)
        --tol PCT   override the per-scenario tolerance table (tight for
                    deterministic scenarios, loose for seed-realized
                    random families) with one percentage for everything
        --explain   print, per finding, which tolerance fired and the
                    historical window values it was judged against
    gcs-scenarios bench-compare [--subset] <baseline.json> <current.json>
        Gate the deterministic engine counters (events, ticks,
        mode_evaluations, messages_delivered) of a fresh
        gcs-engine-bench/v1 artifact EXACTLY against a checked-in one,
        matched by (scenario, seed, threads). Wall-clock is never gated.
        Exits non-zero on any counter mismatch or entry-set change.
        --subset  only gate baseline rows the current artifact also ran
                  (for partial CI reruns); fails if nothing overlaps.
    gcs-scenarios export <dir>
        Write every built-in scenario to <dir>/<name>.scn.
    gcs-scenarios baseline <campaign.json> [--out FILE]
        Distill a gcs-campaign/v1 artifact into a compact gcs-baseline/v2
        summary (per-scenario mean/p90 skews, stabilization time, and
        trajectory envelopes: peak time + growth/recovery slopes), embed
        the default per-scenario tolerance table (tight for deterministic
        topologies, loose for seed-realized random families), and write
        it to FILE (default: stdout). Check the summary in to pin the
        current behaviour; hand-tune tolerances in the file if needed.
    gcs-scenarios compare <baseline> <campaign.json>... [--tol PCT]
        Diff a fresh campaign against a baseline (gcs-baseline/v2 or a
        raw gcs-campaign/v1 artifact) and exit non-zero on any
        per-scenario drift beyond the scenario's tolerance — its override
        from the baseline's tolerance table when present, else PCT
        percent (default 20). With several campaign files (e.g. an
        unexpanded results/campaign_*.json glob) the newest is compared.
        The CI regression gate.

SELECTIONS
    Where a command takes a [selection], it accepts a .scn file path or a
    comma list of built-in scenario names and sets: `all` (whole
    registry), `campaign` (statistics tier), `bench` (engine-scale tier),
    `fault-heavy` (every scenario with faults or dynamic topology).
    A name that matches nothing is a hard error, never an empty sweep.

EXIT CODES
    0  success
    1  generic error (bad arguments, I/O, gate failure)
    3  trace divergence (trace-diff, replay)
    4  chaos-search found a schedule exceeding a paper bound
";

/// A command failure with a documented process exit code: 1 = generic
/// error, 3 = trace divergence (`trace-diff`, `replay`), 4 = a
/// chaos-search candidate broke a paper bound.
struct Failure {
    code: u8,
    msg: String,
}

impl Failure {
    /// Exit code for a trace divergence.
    const DIVERGED: u8 = 3;
    /// Exit code for a found conformance violation.
    const VIOLATION: u8 = 4;

    fn at(code: u8, msg: impl Into<String>) -> Self {
        Failure {
            code,
            msg: msg.into(),
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure { code: 1, msg }
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure {
            code: 1,
            msg: msg.to_string(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), Failure> = match args.first().map(String::as_str) {
        Some("list") => cmd_list().map_err(Failure::from),
        Some("show") => cmd_show(&args[1..]).map_err(Failure::from),
        Some("validate") => cmd_validate(&args[1..]).map_err(Failure::from),
        Some("run") => cmd_run(&args[1..]).map_err(Failure::from),
        Some("bench") => cmd_bench(&args[1..]).map_err(Failure::from),
        Some("bench-compare") => cmd_bench_compare(&args[1..]).map_err(Failure::from),
        Some("trace") => cmd_trace(&args[1..]).map_err(Failure::from),
        Some("node-smoke") => cmd_node_smoke(&args[1..]).map_err(Failure::from),
        Some("trace-diff") => cmd_trace_diff(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("chaos-search") => cmd_chaos_search(&args[1..]),
        Some("conformance") => cmd_conformance(&args[1..]).map_err(Failure::from),
        Some("trend-append") => cmd_trend_append(&args[1..]).map_err(Failure::from),
        Some("trend-gate") => cmd_trend_gate(&args[1..]).map_err(Failure::from),
        Some("export") => cmd_export(&args[1..]).map_err(Failure::from),
        Some("baseline") => cmd_baseline(&args[1..]).map_err(Failure::from),
        Some("compare") => cmd_compare(&args[1..]).map_err(Failure::from),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(Failure::from(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("error: {}", f.msg);
            ExitCode::from(f.code)
        }
    }
}

fn cmd_list() -> Result<(), String> {
    let specs = registry::all();
    println!("{} built-in scenarios:\n", specs.len());
    println!(
        "{:<18} {:>5}  {:<22} {:<10} {:<17} description",
        "name", "nodes", "topology", "dynamics", "metric"
    );
    for s in &specs {
        println!(
            "{:<18} {:>5}  {:<22} {:<10} {:<17} {}",
            s.name,
            s.topology.node_count(),
            format!("{} ", s.topology.family()),
            s.dynamics.kind(),
            s.metric.token(),
            s.description
        );
    }
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("show needs a scenario name")?;
    let spec = registry::find(name)
        .ok_or_else(|| format!("no built-in scenario {name:?} (try `gcs-scenarios list`)"))?;
    print!("{}", format::write(&spec));
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let dir = args.first().ok_or("validate needs a directory")?;
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .scn files in {dir}"));
    }
    let mut names = std::collections::BTreeSet::new();
    let mut failures = 0usize;
    for path in &files {
        match validate_file(path) {
            Ok(spec) => {
                if !names.insert(spec.name.clone()) {
                    eprintln!(
                        "FAIL {}: duplicate scenario name {:?}",
                        path.display(),
                        spec.name
                    );
                    failures += 1;
                } else {
                    println!("ok   {} ({})", path.display(), spec.name);
                }
            }
            Err(msg) => {
                eprintln!("FAIL {}: {msg}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} file(s) failed", files.len()));
    }
    println!("all {} scenario file(s) valid", files.len());
    Ok(())
}

fn validate_file(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let spec = format::parse(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    // The repo keeps scenario files in canonical form so diffs stay
    // meaningful; `gcs-scenarios export` regenerates them.
    let canonical = format::write(&spec);
    if canonical != text {
        return Err(
            "file is not in canonical form (regenerate with `gcs-scenarios export`)".to_string(),
        );
    }
    // A spec that parses but cannot build is rot; seed 0 stands in for all.
    spec.build(0).map_err(|e| format!("build(0): {e}"))?;
    Ok(spec)
}

/// Parses the value of a positive-integer flag (`--seeds N`, `--repeat R`).
fn positive_flag(args: &[String], i: usize, flag: &str) -> Result<u64, String> {
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

/// Parses the value of a `--scale` flag.
fn scale_flag(args: &[String], i: usize) -> Result<Scale, String> {
    args.get(i + 1)
        .and_then(|v| Scale::parse(v))
        .ok_or_else(|| "--scale needs tiny|default|full".to_string())
}

/// Parses the value of a `--out` flag.
fn out_flag(args: &[String], i: usize, what: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(
        args.get(i + 1)
            .ok_or_else(|| format!("--out needs a {what}"))?,
    ))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let target = args
        .first()
        .ok_or("run needs a scenario name, .scn file, or `all`")?;
    let mut seeds_n = 4u64;
    let mut scale = Scale::Default;
    let mut out_dir = PathBuf::from("results");
    let mut progress = false;
    let mut telemetry_out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                seeds_n = positive_flag(args, i, "--seeds")?;
                i += 2;
            }
            "--scale" => {
                scale = scale_flag(args, i)?;
                i += 2;
            }
            "--out" => {
                out_dir = out_flag(args, i, "directory")?;
                i += 2;
            }
            "--progress" => {
                progress = true;
                i += 1;
            }
            "--telemetry" => {
                telemetry_out = Some(
                    args.get(i + 1)
                        .map(PathBuf::from)
                        .ok_or("--telemetry needs a file")?,
                );
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }

    // `run all` sweeps the campaign set: the bench-class engine-scale
    // scenarios would dwarf the statistics runs and are not pinned by the
    // baseline (they run by name or via `bench`).
    let (title, specs) = if target == "all" {
        ("all".to_string(), registry::campaign())
    } else {
        resolve_specs(target)?
    };
    let specs: Vec<ScenarioSpec> = specs.iter().map(|s| s.scaled(scale)).collect();
    let seeds: Vec<u64> = (0..seeds_n).collect();
    println!(
        "campaign {title:?}: {} scenario(s) x {} seed(s), scale {}",
        specs.len(),
        seeds.len(),
        scale.name()
    );

    let started = std::time::Instant::now();
    let rows = if progress {
        campaign::run_campaign_progress(&specs, &seeds, |spec, seed, result| match result {
            Ok(o) => println!(
                "done {:<18} seed {:>3}: {} {:.6} ({} events)",
                spec.name,
                seed,
                spec.metric.token(),
                o.primary,
                o.events
            ),
            Err(e) => println!("FAIL {:<18} seed {:>3}: {e}", spec.name, seed),
        })
    } else {
        campaign::run_campaign(&specs, &seeds)
    }
    .map_err(|e| e.to_string())?;
    println!(
        "\n{:<18} {:>5} {:<17} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>11} {:>8} {:>11} {:>11}",
        "scenario",
        "nodes",
        "metric",
        "mean",
        "stddev",
        "p10",
        "p90",
        "max",
        "viol",
        "events",
        "ticks",
        "evals",
        "delivered"
    );
    for r in &rows {
        let sum = |f: fn(&campaign::ScenarioOutcome) -> u64| r.outcomes.iter().map(f).sum::<u64>();
        println!(
            "{:<18} {:>5} {:<17} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>6} {:>11} {:>8} {:>11} {:>11}",
            r.name,
            r.nodes,
            r.metric.token(),
            r.stats.mean,
            r.stats.stddev,
            r.stats.p10,
            r.stats.p90,
            r.stats.max,
            sum(|o| o.invariant_violations),
            sum(|o| o.events),
            sum(|o| o.ticks),
            sum(|o| o.mode_evaluations),
            sum(|o| o.messages_delivered)
        );
    }
    let path = campaign::write_campaign(&out_dir, &title, scale, &seeds, &rows)
        .map_err(|e| format!("cannot write artifact: {e}"))?;
    println!(
        "\n{} run(s) in {:.1}s; wrote {}",
        rows.len() * seeds.len(),
        started.elapsed().as_secs_f64(),
        path.display()
    );
    if let Some(tpath) = telemetry_out {
        write_instrumented(&tpath, &specs, &seeds, scale, None)?;
    }
    Ok(())
}

/// Drives every scenario × seed instrumented on the sequential engine and
/// writes the `gcs-telemetry/v1` artifact (shared by `run --telemetry`
/// and `conformance --telemetry`; the latter passes its
/// [`ConformanceOptions`] so the oracle rides along — in the same
/// exact/sampled mode as the gate itself — and the artifact carries the
/// bound-margin series).
fn write_instrumented(
    path: &Path,
    specs: &[ScenarioSpec],
    seeds: &[u64],
    scale: Scale,
    oracle: Option<&ConformanceOptions>,
) -> Result<(), String> {
    let mut runs = Vec::with_capacity(specs.len() * seeds.len());
    for spec in specs {
        for &seed in seeds {
            let ride = match oracle {
                None => OracleRide::Off,
                Some(opts) => match opts.sampling_for(seed) {
                    Some(sampling) => OracleRide::Sampled(sampling),
                    None => OracleRide::Exact,
                },
            };
            runs.push(
                telemetry::run_instrumented_oracle(spec, seed, 1, false, ride)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    telemetry::write_telemetry(path, scale, &runs)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} instrumented run(s))",
        path.display(),
        runs.len()
    );
    Ok(())
}

/// Runs the engine-throughput benchmark and writes `BENCH_engine.json`.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut target = "all".to_string();
    let mut seeds_n = 1u64;
    let mut repeat = 1u32;
    let mut scale = Scale::Default;
    let mut threads: Vec<usize> = vec![1];
    let mut out = PathBuf::from("results/BENCH_engine.json");
    let mut telemetry_out: Option<PathBuf> = None;
    let mut trend_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trend" => {
                trend_out = Some(
                    args.get(i + 1)
                        .map(PathBuf::from)
                        .ok_or("--trend needs a file")?,
                );
                i += 2;
            }
            "--threads" => {
                let raw = args
                    .get(i + 1)
                    .ok_or_else(|| "--threads needs a comma list, e.g. 1,2,4".to_string())?;
                threads = raw
                    .split(',')
                    .map(|p| match p.trim().parse::<usize>() {
                        Ok(t) if t > 0 => Ok(t),
                        _ => Err(format!("--threads: {p:?} is not a positive integer")),
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--repeat" => {
                repeat = u32::try_from(positive_flag(args, i, "--repeat")?)
                    .map_err(|_| "--repeat is out of range".to_string())?;
                i += 2;
            }
            "--seeds" => {
                seeds_n = positive_flag(args, i, "--seeds")?;
                i += 2;
            }
            "--scale" => {
                scale = scale_flag(args, i)?;
                i += 2;
            }
            "--out" => {
                out = out_flag(args, i, "file")?;
                i += 2;
            }
            "--telemetry" => {
                telemetry_out = Some(
                    args.get(i + 1)
                        .map(PathBuf::from)
                        .ok_or("--telemetry needs a file")?,
                );
                i += 2;
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => {
                target = other.to_string();
                i += 1;
            }
        }
    }
    let (title, specs) = resolve_specs(&target)?;
    let specs: Vec<ScenarioSpec> = specs.iter().map(|s| s.scaled(scale)).collect();
    let seeds: Vec<u64> = (0..seeds_n).collect();
    println!(
        "engine bench {title:?}: {} scenario(s) x {} seed(s) x threads {:?}, scale {}",
        specs.len(),
        seeds.len(),
        threads,
        scale.name()
    );
    let entries = gcs_scenarios::bench::run_suite(&specs, &seeds, &threads, repeat)
        .map_err(|e| e.to_string())?;
    println!(
        "\n{:<18} {:>6} {:>5} {:>4} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "scenario", "nodes", "seed", "thr", "wall s", "events", "events/sec", "ticks", "evals"
    );
    for e in &entries {
        println!(
            "{:<18} {:>6} {:>5} {:>4} {:>10.3} {:>12} {:>12.0} {:>10} {:>10}",
            e.scenario,
            e.nodes,
            e.seed,
            e.threads,
            e.wall_secs,
            e.events,
            e.events_per_sec,
            e.ticks,
            e.mode_evaluations
        );
    }
    gcs_scenarios::bench::write_bench(&out, scale, &seeds, &entries)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    if let Some(tpath) = trend_out {
        let when = now_millis();
        let points: Vec<trendseries::TrendPoint> = entries
            .iter()
            .map(|e| trendseries::point_from_bench(&when, scale.name(), e))
            .collect();
        trendseries::append_points(&tpath, &points)
            .map_err(|e| format!("cannot append to {}: {e}", tpath.display()))?;
        println!(
            "appended {} trend point(s) to {}",
            points.len(),
            tpath.display()
        );
    }
    if let Some(tpath) = telemetry_out {
        // Re-drive every timed entry with the sink attached. The
        // instrumented counters must be IDENTICAL to the timed pass:
        // telemetry observes the run, it must never change it.
        let mut runs = Vec::with_capacity(entries.len());
        for e in &entries {
            let spec = specs.iter().find(|s| s.name == e.scenario).ok_or_else(|| {
                format!(
                    "bench entry {:?} (seed {}, threads {}) does not match any resolved \
                     scenario — the timed sweep and the telemetry re-drive must run the \
                     same selection",
                    e.scenario, e.seed, e.threads
                )
            })?;
            let inst = telemetry::bench_instrumented(spec, e.seed, e.threads)
                .map_err(|x| x.to_string())?;
            if (
                inst.stats.events,
                inst.stats.ticks,
                inst.stats.mode_evaluations,
                inst.stats.messages_delivered,
            ) != (e.events, e.ticks, e.mode_evaluations, e.messages_delivered)
            {
                return Err(format!(
                    "instrumentation drift: {} seed {} threads {}: the instrumented run's \
                     deterministic counters diverged from the timed run",
                    e.scenario, e.seed, e.threads
                ));
            }
            runs.push(inst);
        }
        telemetry::write_telemetry(&tpath, scale, &runs)
            .map_err(|e| format!("cannot write {}: {e}", tpath.display()))?;
        println!(
            "wrote {} ({} instrumented run(s), zero counter drift vs the timed suite)",
            tpath.display(),
            runs.len()
        );
    }
    Ok(())
}

/// Gates the deterministic engine counters of two bench artifacts.
fn cmd_bench_compare(args: &[String]) -> Result<(), String> {
    let mut subset = false;
    let mut paths: Vec<&String> = Vec::new();
    for a in args {
        if a == "--subset" {
            subset = true;
        } else if a.starts_with("--") {
            return Err(format!("unknown option {a:?}"));
        } else {
            paths.push(a);
        }
    }
    let [baseline_path, current_path] = paths[..] else {
        return Err(
            "bench-compare needs exactly [--subset] <baseline.json> <current.json>".to_string(),
        );
    };
    let read = |path: &str| -> Result<gcs_scenarios::BenchArtifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        gcs_scenarios::bench::read_bench(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let report = gcs_scenarios::bench::compare_counters(&baseline, &current, subset);
    println!("{}", report.table);
    if report.passed() {
        println!(
            "ok: {} entr(ies) counter-identical to {baseline_path}{}",
            current.entries.len(),
            if subset { " (subset gate)" } else { "" }
        );
        Ok(())
    } else {
        for f in &report.findings {
            if f.baseline == u64::MAX {
                eprintln!(
                    "MISMATCH {} seed {} threads {}: {}",
                    f.scenario, f.seed, f.threads, f.counter
                );
            } else {
                eprintln!(
                    "MISMATCH {} seed {} threads {}: {} {} -> {}",
                    f.scenario, f.seed, f.threads, f.counter, f.baseline, f.current
                );
            }
        }
        Err(format!(
            "{} counter mismatch(es) — the engine's deterministic behaviour changed; \
             refresh the checked-in BENCH artifact if this is intentional",
            report.findings.len()
        ))
    }
}

/// Emits the deterministic `gcs-trace/v1` run log for one scenario.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let target = args
        .first()
        .ok_or("trace needs a scenario name or .scn file")?;
    let mut seed = 0u64;
    let mut threads = 1usize;
    let mut scale = Scale::Tiny;
    let mut out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a non-negative integer")?;
                i += 2;
            }
            "--threads" => {
                threads = usize::try_from(positive_flag(args, i, "--threads")?)
                    .map_err(|_| "--threads is out of range".to_string())?;
                i += 2;
            }
            "--scale" => {
                scale = scale_flag(args, i)?;
                i += 2;
            }
            "--out" => {
                out = Some(out_flag(args, i, "file")?);
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if target == "all" {
        return Err("trace runs exactly one scenario (a name or a .scn file)".to_string());
    }
    let (_, specs) = resolve_specs(target)?;
    let spec = specs[0].scaled(scale);
    let run = telemetry::run_instrumented(&spec, seed, threads, true, false)
        .map_err(|e| e.to_string())?;
    let trace = run.telemetry.trace.as_ref().ok_or_else(|| {
        format!(
            "instrumented run of {:?} (seed {seed}) produced no trace even though \
             tracing was requested — the telemetry sink dropped its run log",
            spec.name
        )
    })?;
    match out {
        Some(path) => {
            telemetry::write_trace(&path, trace)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "wrote {} ({} record(s), {}, engine {})",
                path.display(),
                trace.records,
                trace.hash_hex(),
                run.engine
            );
        }
        None => {
            // Trace to stdout, summary to stderr, so the JSONL pipes clean.
            print!("{}", trace.text);
            eprintln!(
                "{} record(s), {}, engine {}",
                trace.records,
                trace.hash_hex(),
                run.engine
            );
        }
    }
    Ok(())
}

/// Extrapolation slack for the node-smoke skew check, in seconds: status
/// lines are timestamped when the harness *reads* them, so pipe and
/// scheduler latency between a daemon's print and our receipt shifts each
/// node's reading by up to this much under load.
const NODE_SMOKE_SLACK: f64 = 0.025;

/// One parsed daemon `status` line, stamped with the harness wall-clock
/// instant it arrived.
struct NodeStatus {
    wall: f64,
    logical: f64,
    peers_heard: usize,
}

fn parse_status_line(wall: f64, line: &str) -> Option<(u64, NodeStatus)> {
    let mut id = None;
    let mut logical = None;
    let mut peers_heard = None;
    for field in line.strip_prefix("status ")?.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "id" => id = value.parse().ok(),
            "logical" => logical = value.parse().ok(),
            "peers_heard" => peers_heard = value.parse().ok(),
            _ => {}
        }
    }
    Some((
        id?,
        NodeStatus {
            wall,
            logical: logical?,
            peers_heard: peers_heard?,
        },
    ))
}

/// One spawned `gcs-node` process: the child, its bound address, the
/// stdout collector, and every line it has printed (harness-stamped).
struct Daemon {
    child: Child,
    addr: String,
    lines: Arc<Mutex<Vec<(f64, String)>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

fn spawn_daemon(
    bin: &Path,
    start: Instant,
    first: u64,
    count: u64,
    total: u64,
    refresh: f64,
    peers: &[String],
) -> Result<Daemon, String> {
    let mut cmd = Command::new(bin);
    cmd.arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--first")
        .arg(first.to_string())
        .arg("--count")
        .arg(count.to_string())
        .arg("--total")
        .arg(total.to_string())
        .arg("--refresh")
        .arg(refresh.to_string())
        .arg("--status-every")
        .arg("0.1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if !peers.is_empty() {
        cmd.arg("--peers").arg(peers.join(","));
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or("daemon stdout was not captured")?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("cannot read the daemon's announce line: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .ok_or_else(|| {
            format!(
                "daemon hosting IDs [{first}, {}) did not announce a listening \
                 address (got {:?})",
                first + count,
                line.trim()
            )
        })?
        .to_string();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    let handle = std::thread::spawn(move || {
        let mut buf = String::new();
        loop {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let wall = start.elapsed().as_secs_f64();
                    if let Ok(mut v) = sink.lock() {
                        v.push((wall, buf.trim().to_string()));
                    }
                }
            }
        }
    });
    Ok(Daemon {
        child,
        addr,
        lines,
        reader: Some(handle),
    })
}

/// Polls `try_wait` until the child exits or the deadline passes.
fn wait_until(child: &mut Child, deadline: Instant) -> Result<Option<ExitStatus>, String> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(Some(status)),
            Ok(None) if Instant::now() >= deadline => return Ok(None),
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(format!("cannot wait for a daemon: {e}")),
        }
    }
}

fn cmd_node_smoke(args: &[String]) -> Result<(), String> {
    let mut procs = 3u64;
    let mut per_proc = 2u64;
    let mut secs = 4.0f64;
    let mut refresh = 0.2f64;
    let mut i = 0;
    while i < args.len() {
        let float = |args: &[String], i: usize, flag: &str| -> Result<f64, String> {
            let v: f64 = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))?;
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{flag} must be a positive finite number"))
            }
        };
        match args[i].as_str() {
            "--procs" => procs = positive_flag(args, i, "--procs")?,
            "--per-proc" => per_proc = positive_flag(args, i, "--per-proc")?,
            "--secs" => secs = float(args, i, "--secs")?,
            "--refresh" => refresh = float(args, i, "--refresh")?,
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 2;
    }
    if procs < 2 {
        return Err("node-smoke needs at least 2 daemon processes".to_string());
    }
    let total = procs * per_proc;

    let bin = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .parent()
        .ok_or("this executable has no parent directory")?
        .join("gcs-node");
    if !bin.exists() {
        return Err(format!(
            "gcs-node binary not found at {} — build it first (`cargo build --bin gcs-node`)",
            bin.display()
        ));
    }

    // The Theorem 5.22 envelope for the cluster the daemons will derive:
    // same base parameters, same complete-graph universe, same
    // derivation (`derive_run_config`), so the oracle bound and the
    // daemons' runtime constants cannot drift apart. Every pair in a
    // complete graph is one hop, so the pairwise bound is evaluated at
    // the single-edge path weight.
    let node = |id: u64| NodeId(u32::try_from(id).unwrap_or(u32::MAX));
    let base = Params::builder()
        .rho(1e-3)
        .mu(0.1)
        .refresh_period(refresh)
        .build()
        .map_err(|e| format!("invalid parameters: {e}"))?;
    let edge = EdgeParams::try_new(1e-3, 0.05, 0.0, 0.05)
        .map_err(|e| format!("invalid edge parameters: {e}"))?;
    let edge_params = EdgeParamsMap::uniform(edge);
    let mut universe = Vec::new();
    for a in 0..total {
        for b in (a + 1)..total {
            universe.push(EdgeKey::new(node(a), node(b)));
        }
    }
    let cfg = derive_run_config(
        &base,
        EstimateMode::Messages,
        &edge_params,
        &universe,
        usize::try_from(total).map_err(|_| "--procs x --per-proc is out of range".to_string())?,
    );
    let g_hat = cfg
        .params
        .g_tilde()
        .ok_or("the derived run configuration is missing G-tilde")?;
    let kappa = cfg
        .edge_info
        .values()
        .map(|e| e.kappa)
        .fold(0.0f64, f64::max);
    let envelope = gcs_analysis::gradient_bound(&cfg.params, g_hat, kappa);

    // Spawn the cluster: each daemon dials every earlier one, which wires
    // the complete process graph (connections are used in both
    // directions). If this harness dies early, the daemons' stdin pipes
    // close and they shut themselves down — no orphans.
    let start = Instant::now();
    let mut daemons: Vec<Daemon> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for p in 0..procs {
        let d = spawn_daemon(&bin, start, p * per_proc, per_proc, total, refresh, &addrs)?;
        addrs.push(d.addr.clone());
        daemons.push(d);
    }
    println!(
        "node-smoke: {procs} daemon(s) x {per_proc} node(s) = {total} nodes on {}",
        addrs.join(" ")
    );
    std::thread::sleep(Duration::from_secs_f64(secs));

    // Graceful path: close stdin on all daemons but the last — EOF is
    // the documented shutdown request, and their SHUTDOWN broadcast must
    // not take the SIGTERM target down before we signal it.
    let last = daemons.len() - 1;
    let term_pid = daemons[last].child.id();
    let term = Command::new("kill")
        .args(["-TERM", &term_pid.to_string()])
        .status()
        .map_err(|e| format!("cannot send SIGTERM: {e}"))?;
    if !term.success() {
        return Err(format!("kill -TERM {term_pid} failed: {term}"));
    }
    let hard_stop = wait_until(
        &mut daemons[last].child,
        Instant::now() + Duration::from_secs(2),
    )?
    .ok_or("the SIGTERM'd daemon did not stop within 2s")?;
    if hard_stop.success() {
        return Err("the SIGTERM'd daemon reported success instead of dying by signal".to_string());
    }
    for d in &mut daemons[..last] {
        drop(d.child.stdin.take());
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for (p, d) in daemons[..last].iter_mut().enumerate() {
        let status = wait_until(&mut d.child, deadline)?
            .ok_or_else(|| format!("daemon {p} did not exit within 5s of stdin EOF"))?;
        if status.code() != Some(0) {
            return Err(format!("daemon {p} exited with {status} instead of code 0"));
        }
    }
    for d in &mut daemons {
        if let Some(handle) = d.reader.take() {
            let _ = handle.join();
        }
    }

    // Analysis: the newest status per node, plus each graceful daemon's
    // shutdown marker.
    let mut latest: std::collections::BTreeMap<u64, NodeStatus> = std::collections::BTreeMap::new();
    for (p, d) in daemons.iter().enumerate() {
        let lines = d
            .lines
            .lock()
            .map_err(|_| "a status collector thread panicked".to_string())?;
        let clean = lines.iter().any(|(_, l)| l == "shutdown clean");
        if p != last && !clean {
            return Err(format!(
                "daemon {p} exited without printing `shutdown clean`"
            ));
        }
        for (wall, line) in lines.iter() {
            if let Some((id, st)) = parse_status_line(*wall, line) {
                latest.insert(id, st);
            }
        }
    }
    for id in 0..total {
        let st = latest
            .get(&id)
            .ok_or_else(|| format!("node {id} never reported a status line"))?;
        let expected = usize::try_from(total - 1).unwrap_or(usize::MAX);
        if st.peers_heard != expected {
            return Err(format!(
                "node {id} heard {} of {expected} peers — the mesh never completed",
                st.peers_heard
            ));
        }
    }

    // Skew: extrapolate every node's newest logical reading to the
    // newest sample instant (hardware rates are within rho of 1, so the
    // extrapolation error over a <=0.2s status gap is sub-microsecond)
    // and compare the spread against the Theorem 5.22 pairwise bound.
    let t_ref = latest
        .values()
        .map(|s| s.wall)
        .fold(f64::NEG_INFINITY, f64::max);
    let adjusted: Vec<f64> = latest
        .values()
        .map(|s| s.logical + (t_ref - s.wall))
        .collect();
    let skew = adjusted.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - adjusted.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let allowed = envelope + NODE_SMOKE_SLACK;
    if skew > allowed {
        return Err(format!(
            "observed logical skew {skew:.6}s exceeds the Theorem 5.22 envelope \
             {envelope:.6}s (+{NODE_SMOKE_SLACK}s measurement slack)"
        ));
    }
    println!(
        "node-smoke: skew {skew:.6}s within the Thm 5.22 envelope {envelope:.6}s \
         (+{NODE_SMOKE_SLACK}s slack); {last} graceful exit(s) clean, SIGTERM stopped pid \
         {term_pid} promptly"
    );
    Ok(())
}

/// Renders a first-divergence record as the stable machine-readable JSON
/// line `trace-diff` and `replay` print to stdout: 1-based line number
/// plus both records verbatim (`null` when one trace ended early).
fn divergence_json(d: &gcs_telemetry::TraceDiff) -> String {
    let side = |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str);
    Json::Obj(vec![
        ("rec", Json::Str("divergence".to_string())),
        ("line", Json::Int(d.line as u64)),
        ("a", side(&d.a)),
        ("b", side(&d.b)),
    ])
    .to_string()
}

/// Verifies and byte-compares two sealed traces.
fn cmd_trace_diff(args: &[String]) -> Result<(), Failure> {
    let [a_path, b_path] = args else {
        return Err("trace-diff needs exactly <a.jsonl> <b.jsonl>"
            .to_string()
            .into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let a = read(a_path)?;
    let b = read(b_path)?;
    // Verify both seals first: a diff of tampered traces proves nothing.
    let (records, hash) = gcs_telemetry::verify_trace(&a).map_err(|e| format!("{a_path}: {e}"))?;
    gcs_telemetry::verify_trace(&b).map_err(|e| format!("{b_path}: {e}"))?;
    match gcs_telemetry::trace_diff(&a, &b) {
        None => {
            println!("identical: {records} record(s), {hash}");
            Ok(())
        }
        Some(d) => {
            // Machine-readable record on stdout, human summary on stderr.
            println!("{}", divergence_json(&d));
            Err(Failure::at(
                Failure::DIVERGED,
                format!("traces diverge at line {}", d.line),
            ))
        }
    }
}

/// Re-materializes a run from a sealed trace artifact and asserts
/// bit-identity.
fn cmd_replay(args: &[String]) -> Result<(), Failure> {
    let path = args
        .first()
        .ok_or_else(|| "replay needs a gcs-trace/v1 artifact".to_string())?;
    let mut threads = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                threads = usize::try_from(positive_flag(args, i, "--threads")?)
                    .map_err(|_| "--threads is out of range".to_string())?;
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let outcome = gcs_scenarios::replay_trace(&text, threads).map_err(|e| e.to_string())?;
    let a = &outcome.artifact;
    match &outcome.divergence {
        None => {
            println!(
                "replay identical: {} seed {} ({} node(s)), {} record(s), {}, {} thread(s)",
                a.scenario, a.seed, a.nodes, a.records, a.hash, outcome.threads
            );
            Ok(())
        }
        Some(d) => {
            println!("{}", divergence_json(d));
            Err(Failure::at(
                Failure::DIVERGED,
                format!(
                    "replay of {} seed {} diverges at line {} (original {}, replayed {})",
                    a.scenario, a.seed, d.line, a.hash, outcome.replayed_hash
                ),
            ))
        }
    }
}

/// Seeded adversarial fault-schedule search over one base scenario.
fn cmd_chaos_search(args: &[String]) -> Result<(), Failure> {
    let target = args
        .first()
        .ok_or_else(|| "chaos-search needs a scenario name or .scn file".to_string())?;
    let mut opts = gcs_scenarios::ChaosOptions::default();
    let mut seeds_n = 1u64;
    let mut scale = Scale::Default;
    let mut log_out: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut export: Option<PathBuf> = None;
    let mut rename: Option<String> = None;
    let mut trend_out: Option<PathBuf> = None;
    let mut violation_out = PathBuf::from("results/CHAOS_violation.jsonl");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                opts.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a non-negative integer")?;
                i += 2;
            }
            "--budget" => {
                opts.budget = u32::try_from(positive_flag(args, i, "--budget")?)
                    .map_err(|_| "--budget is out of range".to_string())?;
                i += 2;
            }
            "--seeds" => {
                seeds_n = positive_flag(args, i, "--seeds")?;
                i += 2;
            }
            "--scale" => {
                scale = scale_flag(args, i)?;
                i += 2;
            }
            "--threads" => {
                opts.threads = usize::try_from(positive_flag(args, i, "--threads")?)
                    .map_err(|_| "--threads is out of range".to_string())?;
                i += 2;
            }
            "--log" => {
                log_out = Some(out_flag(args, i, "file")?);
                i += 2;
            }
            "--resume" => {
                resume = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--resume needs a file")?,
                ));
                i += 2;
            }
            "--export" => {
                export = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--export needs a file")?,
                ));
                i += 2;
            }
            "--rename" => {
                rename = Some(args.get(i + 1).ok_or("--rename needs a name")?.clone());
                i += 2;
            }
            "--trend" => {
                trend_out = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--trend needs a file")?,
                ));
                i += 2;
            }
            "--violation-out" => {
                violation_out =
                    PathBuf::from(args.get(i + 1).ok_or("--violation-out needs a file")?);
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    opts.run_seeds = (0..seeds_n).collect();
    if target == "all" {
        return Err(
            "chaos-search attacks exactly one scenario (a name or a .scn file)"
                .to_string()
                .into(),
        );
    }
    let (_, specs) = resolve_specs(target)?;
    let base = match &resume {
        Some(log_path) => {
            let text = std::fs::read_to_string(log_path)
                .map_err(|e| format!("cannot read {}: {e}", log_path.display()))?;
            let frontier = gcs_scenarios::frontier_from_log(&text).map_err(|e| e.to_string())?;
            println!(
                "resuming from the frontier of {} ({})",
                log_path.display(),
                frontier.name
            );
            frontier
        }
        None => specs[0].scaled(scale),
    };
    println!(
        "chaos-search {:?}: seed {}, budget {}, {} run seed(s), scale {}, objective = worst \
         conformance-margin utilization",
        base.name,
        opts.seed,
        opts.budget,
        opts.run_seeds.len(),
        scale.name()
    );
    let started = std::time::Instant::now();
    let result = gcs_scenarios::chaos_search(&base, &opts).map_err(|e| e.to_string())?;
    println!(
        "evaluated {} candidate(s) ({} envelope-violating draw(s) skipped) in {:.1}s",
        result.evaluated,
        result.skipped,
        started.elapsed().as_secs_f64()
    );
    println!(
        "best: iter {} ({}), {} utilization {:.1}% at run seed {}",
        result.best.iter,
        result.best.op,
        result.best.family,
        100.0 * result.best.utilization,
        result.best.run_seed
    );
    if let Some(path) = &log_out {
        write_text(path, &result.log)?;
        println!("wrote search log to {}", path.display());
    }
    if let Some(path) = &export {
        let mut spec = result.best.spec.clone();
        if let Some(name) = &rename {
            spec.name.clone_from(name);
        }
        spec.validate().map_err(|e| e.to_string())?;
        write_text(path, &gcs_scenarios::format::write(&spec))?;
        println!(
            "exported best schedule as {} ({})",
            path.display(),
            spec.name
        );
    }
    if let Some(path) = &trend_out {
        let point = trendseries::TrendPoint {
            when: now_millis(),
            kind: "chaos".to_string(),
            scale: scale.name().to_string(),
            scenario: result.base.clone(),
            seed: opts.seed,
            threads: opts.threads.max(1) as u64,
            metrics: vec![
                ("best_util".to_string(), result.best.utilization),
                ("evaluated".to_string(), f64::from(result.evaluated)),
            ],
        };
        trendseries::append_points(path, &[point])
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        println!("appended 1 trend point to {}", path.display());
    }
    match result.violation {
        None => {
            println!(
                "ok: best-found schedule stays within the paper bounds \
                 (frontier proves the base maximal within this budget when iter = 0)"
            );
            Ok(())
        }
        Some(v) => {
            write_text(&violation_out, &v.trace)?;
            for line in &v.violations {
                eprintln!("VIOLATION {}: {line}", v.candidate.spec.name);
            }
            Err(Failure::at(
                Failure::VIOLATION,
                format!(
                    "candidate {} exceeded a paper bound ({} utilization {:.1}%); replayable \
                     trace written to {} (verify with `gcs-scenarios replay`)",
                    v.candidate.iter,
                    v.candidate.family,
                    100.0 * v.candidate.utilization,
                    violation_out.display()
                ),
            ))
        }
    }
}

/// Writes text to a path, creating parent directories as needed.
fn write_text(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs the conformance oracles over a scenario selection.
fn cmd_conformance(args: &[String]) -> Result<(), String> {
    let mut target = "all".to_string();
    let mut seeds_n = 2u64;
    let mut scale = Scale::Tiny;
    let mut progress = false;
    let mut opts = ConformanceOptions::default();
    let mut telemetry_out: Option<PathBuf> = None;
    let mut trend_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                seeds_n = positive_flag(args, i, "--seeds")?;
                i += 2;
            }
            "--scale" => {
                scale = scale_flag(args, i)?;
                i += 2;
            }
            "--oracle-sample" => {
                let p: f64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|p: &f64| *p > 0.0 && *p <= 1.0)
                    .ok_or("--oracle-sample needs a rate in (0, 1]")?;
                opts.oracle_sample = Some(p);
                i += 2;
            }
            "--oracle-seed" => {
                opts.oracle_seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--oracle-seed needs a non-negative integer")?;
                i += 2;
            }
            "--threads" => {
                opts.threads = usize::try_from(positive_flag(args, i, "--threads")?)
                    .map_err(|_| "--threads is out of range".to_string())?;
                i += 2;
            }
            "--progress" => {
                progress = true;
                i += 1;
            }
            "--telemetry" => {
                telemetry_out = Some(
                    args.get(i + 1)
                        .map(PathBuf::from)
                        .ok_or("--telemetry needs a file")?,
                );
                i += 2;
            }
            "--trend" => {
                trend_out = Some(
                    args.get(i + 1)
                        .map(PathBuf::from)
                        .ok_or("--trend needs a file")?,
                );
                i += 2;
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => {
                target = other.to_string();
                i += 1;
            }
        }
    }
    let (title, specs) = resolve_specs(&target)?;
    let specs: Vec<ScenarioSpec> = specs.iter().map(|s| s.scaled(scale)).collect();
    let seeds: Vec<u64> = (0..seeds_n).collect();
    println!(
        "conformance {title:?}: {} scenario(s) x {} seed(s), scale {}, {} engine — checking \
         every sampled snapshot against the Theorem 5.6 / 5.22 bounds",
        specs.len(),
        seeds.len(),
        scale.name(),
        if opts.threads <= 1 {
            "sequential".to_string()
        } else {
            format!("{}-shard", opts.threads)
        }
    );
    if let Some(p) = opts.oracle_sample {
        // The escape bound is per snapshot and per pair: at rate p a
        // violating pair dodges one snapshot's stratified source draw with
        // probability at most (1-p)^2 — and sampled checks are a strict
        // subset of the exact sweep, so a sampled alarm is never false.
        println!(
            "sampled oracle: source rate {p}, per-snapshot pair escape probability <= {:.4}",
            (1.0 - p) * (1.0 - p)
        );
    }
    let started = std::time::Instant::now();
    let rows = if progress {
        gcs_scenarios::conformance::run_conformance_progress_with(&specs, &seeds, &opts, {
            |spec: &ScenarioSpec, seed, result: &Result<_, _>| match result {
                Ok(r) => println!(
                    "done {:<18} seed {:>3}: {}",
                    spec.name,
                    seed,
                    if r.is_conformant() { "ok" } else { "VIOLATION" }
                ),
                Err(e) => println!("FAIL {:<18} seed {:>3}: {e}", spec.name, seed),
            }
        })
    } else {
        gcs_scenarios::conformance::run_conformance_with(&specs, &seeds, &opts)
    }
    .map_err(|e| e.to_string())?;
    println!("\n{}", gcs_scenarios::conformance::conformance_table(&rows));
    let violations = gcs_scenarios::conformance::violations(&rows);
    println!(
        "{} run(s) in {:.1}s",
        rows.len(),
        started.elapsed().as_secs_f64()
    );
    if let Some(tpath) = trend_out {
        let when = now_millis();
        let points: Vec<trendseries::TrendPoint> = rows
            .iter()
            .map(|r| {
                trendseries::point_from_conformance(&when, scale.name(), opts.threads as u64, r)
            })
            .collect();
        trendseries::append_points(&tpath, &points)
            .map_err(|e| format!("cannot append to {}: {e}", tpath.display()))?;
        println!(
            "appended {} trend point(s) to {}",
            points.len(),
            tpath.display()
        );
    }
    if let Some(tpath) = telemetry_out {
        write_instrumented(&tpath, &specs, &seeds, scale, Some(&opts))?;
    }
    if violations.is_empty() {
        println!("ok: every run conforms to the paper bounds");
        Ok(())
    } else {
        for (name, seed, lines) in &violations {
            for line in lines {
                eprintln!("VIOLATION {name} seed {seed}: {line}");
            }
        }
        // The full per-run breakdown helps localize the failure.
        for row in rows.iter().filter(|r| !r.report.is_conformant()) {
            eprintln!(
                "\n{} seed {}:\n{}",
                row.name,
                row.seed,
                row.report.to_table()
            );
        }
        Err(format!(
            "{} run(s) violated a paper bound",
            violations.len()
        ))
    }
}

/// Resolves a `run`/`bench`/`conformance` target into a title and spec
/// list: a `.scn` file on disk, or a [`registry::select`] selection — a
/// comma list of built-in names and sets (`all`, `campaign`, `bench`,
/// `fault-heavy`). A selection that matches nothing is a hard error, so a
/// typo'd scenario name can never turn a CI gate into an empty (vacuously
/// green) sweep.
fn resolve_specs(target: &str) -> Result<(String, Vec<ScenarioSpec>), String> {
    let path = Path::new(target);
    if target.ends_with(".scn") || path.exists() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {target}: {e}"))?;
        let spec = format::parse(&text).map_err(|e| format!("{target}: {e}"))?;
        spec.validate().map_err(|e| format!("{target}: {e}"))?;
        return Ok((spec.name.clone(), vec![spec]));
    }
    let specs = registry::select(target)?;
    Ok((target.to_string(), specs))
}

/// Unix-millisecond stamp for appended trend points. The gate orders by
/// file position, not by parsing this — it is for humans reading the file.
fn now_millis() -> String {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or_else(|_| "0".to_string(), |d| d.as_millis().to_string())
}

/// Seeds (or extends) a trend series from a `gcs-engine-bench/v1` artifact.
fn cmd_trend_append(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .ok_or("trend-append needs a gcs-engine-bench/v1 artifact")?;
    let mut out = PathBuf::from("results/TREND_engine.jsonl");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = out_flag(args, i, "file")?;
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let artifact = gcs_scenarios::bench::read_bench(&text).map_err(|e| format!("{input}: {e}"))?;
    let when = now_millis();
    let points: Vec<trendseries::TrendPoint> = artifact
        .entries
        .iter()
        .map(|e| trendseries::point_from_bench(&when, &artifact.scale, e))
        .collect();
    trendseries::append_points(&out, &points)
        .map_err(|e| format!("cannot append to {}: {e}", out.display()))?;
    println!(
        "appended {} trend point(s) from {input} to {}",
        points.len(),
        out.display()
    );
    Ok(())
}

/// Gates the newest point of every trend series against its own history.
fn cmd_trend_gate(args: &[String]) -> Result<(), String> {
    let input = args
        .first()
        .ok_or("trend-gate needs a TREND_*.jsonl file")?;
    let mut window = trendseries::DEFAULT_WINDOW;
    let mut tol_override: Option<f64> = None;
    let mut explain = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--window" => {
                window = usize::try_from(positive_flag(args, i, "--window")?)
                    .map_err(|_| "--window is out of range".to_string())?;
                i += 2;
            }
            "--tol" => {
                let pct: f64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or("--tol needs a non-negative percentage")?;
                tol_override = Some(pct / 100.0);
                i += 2;
            }
            "--explain" => {
                explain = true;
                i += 1;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let points = trendseries::read_series(&text).map_err(|e| format!("{input}: {e}"))?;
    if points.is_empty() {
        return Err(format!("{input} holds no trend points"));
    }
    let report = trendseries::trend_gate(&points, window, tol_override);
    println!("{}", report.table);
    if report.passed() {
        println!(
            "ok: no trend regression across {} point(s) in {input}",
            points.len()
        );
        Ok(())
    } else {
        for f in &report.findings {
            eprintln!(
                "REGRESSION {} {} seed {} threads {}: {} {:.6} vs window median {:.6} \
                 ({:+.1}%, tolerance ±{:.0}%)",
                f.kind,
                f.scenario,
                f.seed,
                f.threads,
                f.metric,
                f.current,
                f.median,
                f.relative() * 100.0,
                f.tolerance * 100.0
            );
            if explain {
                eprintln!("  {}", f.explain());
            }
        }
        Err(format!(
            "{} trend regression(s) beyond tolerance{}",
            report.findings.len(),
            if explain {
                ""
            } else {
                " (re-run with --explain for the window each finding was judged against)"
            }
        ))
    }
}

fn cmd_baseline(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("baseline needs a campaign artifact")?;
    let mut out: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).ok_or("--out needs a file")?));
                i += 2;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let mut summary = trend::read_summary(&text).map_err(|e| format!("{input}: {e}"))?;
    if summary.tolerances.is_empty() {
        // Pin the default per-scenario tolerance table alongside the
        // stats: tight for deterministic scenarios, loose for
        // seed-realized random families. Hand-tune the file if needed.
        summary.tolerances = trend::default_tolerances(&summary);
    }
    let baseline = trend::baseline_json(&summary);
    match out {
        None => print!("{baseline}"),
        Some(path) => {
            std::fs::write(&path, baseline)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "wrote {} ({} scenario(s), {} seed(s))",
                path.display(),
                summary.rows.len(),
                summary.seeds.len()
            );
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let baseline_path = args.first().ok_or("compare needs a baseline file")?;
    // Everything positional after the baseline is a campaign artifact —
    // `results/campaign_*.json` may glob to several accumulated runs;
    // the newest one (by modification time) is the campaign under test.
    let mut campaign_paths: Vec<&String> = Vec::new();
    let mut tol_pct = 20.0f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tol" => {
                tol_pct = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or("--tol needs a non-negative percentage")?;
                i += 2;
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            _ => {
                campaign_paths.push(&args[i]);
                i += 1;
            }
        }
    }
    let current_path = campaign_paths
        .iter()
        .max_by_key(|p| {
            std::fs::metadata(p.as_str())
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH)
        })
        .ok_or("compare needs a campaign artifact")?;
    if campaign_paths.len() > 1 {
        println!(
            "{} campaign artifact(s) given; comparing the newest: {current_path}",
            campaign_paths.len()
        );
    }
    let read = |path: &str| -> Result<trend::TrendSummary, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        trend::read_summary(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let report = trend::compare(&baseline, &current, tol_pct / 100.0);
    println!("{}", report.table);
    if report.passed() {
        println!(
            "ok: {} scenario(s) within ±{tol_pct}% of {baseline_path}",
            baseline.rows.len()
        );
        Ok(())
    } else {
        for f in &report.findings {
            if f.baseline.is_nan() {
                eprintln!("DRIFT {}: {}", f.scenario, f.column);
            } else {
                eprintln!(
                    "DRIFT {}: {} {} -> {} ({:+.1}%)",
                    f.scenario,
                    f.column,
                    f.baseline,
                    f.current,
                    f.relative() * 100.0
                );
            }
        }
        Err(format!(
            "{} drift finding(s) beyond ±{tol_pct}% (refresh the baseline with \
             `gcs-scenarios baseline` if this change is intentional)",
            report.findings.len()
        ))
    }
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let dir = args.first().ok_or("export needs a directory")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let specs = registry::all();
    for spec in &specs {
        let path = Path::new(dir).join(format!("{}.scn", spec.name));
        std::fs::write(&path, format::write(spec))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!("exported {} scenario(s) to {dir}", specs.len());
    Ok(())
}
