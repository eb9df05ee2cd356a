//! The simulator workloads: a `.scn` input parsed, realized and built
//! through the public `gcs-scenarios`/`gcs-core` API, then driven
//! through `campaign::drive_sampled` with the benchmark's own timing
//! wrapped around the observer closure.

use std::time::Instant;

use gcs_analysis::oracle::{ConformanceChecker, ConformanceReport};
use gcs_core::{Engine, ParallelSimBuilder, ParallelSimulation, SimBuilder, SimStats, Simulation};
use gcs_scenarios::{campaign, format, Scale, ScenarioSpec};
use gcs_telemetry::{RunTelemetry, Sample, SharedRecorder};

use crate::expected::{self, Counters};
use crate::host;
use crate::report::{median, quantile, Outcome};
use crate::spans::Tracer;
use crate::RunArgs;

/// One simulator workload.
pub struct SimWorkload {
    /// The workload name, also the stem of its `.scn` input.
    pub name: &'static str,
    /// `Some(k)`: the sharded engine with `k` shards; `None`: sequential.
    pub shards: Option<usize>,
    /// Whether the exact conformance oracle and the sealed trace recorder
    /// ride along on every run, as `conformance`/`trace` users run them.
    pub rides: bool,
}

/// Set-ups per run: at least `MIN_SETUPS`, and more (up to
/// `MAX_SETUPS`) until `SETUP_BUDGET_S` is spent, so `setup_s` is a
/// median of many even where one set-up takes milliseconds.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 0.5;

enum Eng {
    Seq(Simulation),
    Par(ParallelSimulation),
}

struct Built {
    spec: ScenarioSpec,
    engine: Eng,
    edge_events: usize,
}

/// Parse, realize the schedule, build the engine: the set-up a user pays
/// before the first simulated instant.
fn setup(args: &RunArgs, w: &SimWorkload, text: &str, tr: &mut Tracer) -> Result<Built, String> {
    let spec = tr.span("parse", "scenarios", || -> Result<ScenarioSpec, String> {
        let spec = format::parse(text).map_err(|e| e.to_string())?;
        Ok(if args.tiny {
            spec.scaled(Scale::Tiny)
        } else {
            spec
        })
    })?;
    let params = tr.span("params", "scenarios", || {
        spec.params().map_err(|e| e.to_string())
    })?;
    // The network instance (topology and churn script) is the one the
    // recorded values pin; the run seed drives drift and message delays.
    // Random topologies differ in per-event cost, which would otherwise
    // spread the throughput figures across seeds.
    let schedule = tr.span("schedule", "net", || {
        spec.schedule(expected::DEFAULT_SEED)
            .map_err(|e| e.to_string())
    })?;
    let edge_events = schedule.events().len();
    // The builder chain of `ScenarioSpec::builder_with`, spelled out so
    // schedule realization and engine build are timed apart. The
    // default-seed counter check against `results/BENCH_engine.json`
    // catches any drift between the two.
    let builder = SimBuilder::new(params)
        .schedule(schedule)
        .drift(spec.drift.model())
        .estimates(spec.estimates.mode())
        .horizon(spec.end_secs() + 10.0)
        .seed(args.seed);
    let engine = tr.span("build", "core", || match w.shards {
        None => builder.build().map(Eng::Seq).map_err(|e| e.to_string()),
        Some(k) => ParallelSimBuilder::new(builder)
            .shards(k)
            .build()
            .map(Eng::Par)
            .map_err(|e| e.to_string()),
    })?;
    Ok(Built {
        spec,
        engine,
        edge_events,
    })
}

/// What one drive of a built engine produced.
struct Drive {
    stats: SimStats,
    nodes: usize,
    sim_s: f64,
    run_s: f64,
    cpu_s: f64,
    /// Pending events at each observation instant (traced runs only).
    queue: Vec<f64>,
    telemetry: Option<RunTelemetry>,
    oracle: Option<ConformanceReport>,
}

impl Drive {
    fn trace_seal(&self) -> Option<(u64, u64)> {
        let trace = self.telemetry.as_ref()?.trace.as_ref()?;
        Some((trace.records, trace.hash))
    }
}

fn drive<E: Engine>(
    sim: &mut E,
    spec: &ScenarioSpec,
    seed: u64,
    rides: bool,
    tr: &mut Tracer,
) -> Drive {
    let traced = tr.enabled();
    let nodes = sim.as_sim().node_count();
    let cpu0 = host::cpu_secs("self").unwrap_or(0.0);
    let started = Instant::now();

    // The recorder: the sealed trace when it rides along, and the
    // engines' own counters on a traced run.
    let recorder = (rides || traced).then(|| {
        let rec = SharedRecorder::new(rides);
        tr.span("begin_run", "telemetry", || {
            rec.begin_run(&spec.name, seed, nodes, Some(&format::write(spec)));
        });
        sim.set_telemetry(rec.sink());
        rec
    });
    let mut checker = rides.then(|| ConformanceChecker::new(sim.as_sim(), spec.sample));
    let mut queue = Vec::new();
    let mut slice_from = Instant::now();
    campaign::drive_sampled(sim, &spec.faults, spec.sample, spec.end_secs(), |t, s| {
        tr.record("run_until", "core", slice_from, Instant::now());
        if traced {
            queue.push(s.pending_events() as f64);
        }
        if let Some(rec) = &recorder {
            tr.span("sample", "telemetry", || {
                let g = s.gauges();
                rec.on_sample(Sample {
                    t,
                    global_skew: g.global_skew,
                    queue_depth: g.queue_depth,
                    dirty_nodes: g.dirty_nodes,
                    events: g.events,
                });
            });
        }
        if let Some(c) = checker.as_mut() {
            tr.span("observe", "analysis", || c.observe(s.as_sim()));
        }
        slice_from = Instant::now();
    });
    drop(sim.take_telemetry());
    let telemetry = recorder.map(|rec| tr.span("finish", "telemetry", || rec.finish()));
    let oracle = checker.map(ConformanceChecker::finish);
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_secs("self").unwrap_or(0.0) - cpu0;
    Drive {
        stats: sim.as_sim().stats(),
        nodes,
        sim_s: spec.end_secs(),
        run_s,
        cpu_s,
        queue,
        telemetry,
        oracle,
    }
}

fn run_built(built: &mut Built, seed: u64, rides: bool, tr: &mut Tracer) -> Drive {
    let id = tr.open("drive", "bench");
    let d = match &mut built.engine {
        Eng::Seq(sim) => drive(sim, &built.spec, seed, rides, tr),
        Eng::Par(sim) => drive(sim, &built.spec, seed, rides, tr),
    };
    tr.close(id);
    d
}

fn rate(num: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        num / secs
    } else {
        0.0
    }
}

/// Runs the workload: untraced repetitions for `args.seconds`, then one
/// traced repetition of the same input, then the correctness checks.
pub fn run(args: &RunArgs, w: &SimWorkload) -> Result<Outcome, String> {
    let path = args
        .root
        .join("perfbench/inputs")
        .join(format!("{}.scn", w.name));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Outcome::default();
    let mut quiet = Tracer::new(false, 0);

    // Untraced: set up and drive until the next repetition would overrun
    // the measuring time, then the extra set-ups.
    let mut setups = Vec::new();
    let mut reps: Vec<Drive> = Vec::new();
    let mut peak_rss = 0.0;
    let phase = Instant::now();
    loop {
        let t = Instant::now();
        let mut built = setup(args, w, &text, &mut quiet)?;
        setups.push(t.elapsed().as_secs_f64());
        let rep_started = Instant::now();
        reps.push(run_built(&mut built, args.seed, w.rides, &mut quiet));
        drop(built);
        // Later repetitions reuse freed memory unevenly; the first one's
        // peak is the one a user running the scenario once sees.
        if reps.len() == 1 {
            peak_rss = host::peak_rss_mb("self").unwrap_or(0.0);
        }
        let last = rep_started.elapsed().as_secs_f64();
        if phase.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        drop(setup(args, w, &text, &mut quiet)?);
        setups.push(t.elapsed().as_secs_f64());
    }

    // Traced: the same input once more, with spans and the engines'
    // counters.
    let mut tr = Tracer::new(true, args.seed);
    let root = tr.open("run", "bench");
    let t = Instant::now();
    let setup_id = tr.open("setup", "bench");
    let mut built = setup(args, w, &text, &mut tr)?;
    tr.close(setup_id);
    let traced_setup = t.elapsed().as_secs_f64();
    let edge_events = built.edge_events;
    let traced = run_built(&mut built, args.seed, w.rides, &mut tr);
    drop(built);
    tr.close(root);
    args.write_spans(&tr)?;

    // Per repetition: throughput per CPU second of the run phase (the
    // end-to-end figures), then per wall second.
    let e2e = |d: &Drive| {
        [
            rate(d.sim_s, d.cpu_s),
            rate(d.stats.events as f64, d.cpu_s),
            rate(d.stats.messages_delivered as f64, d.cpu_s),
            rate(d.sim_s, d.run_s),
            rate(d.stats.events as f64, d.run_s),
        ]
    };
    let untraced_names = [
        "sim_s_per_cpu_s",
        "events_per_cpu_s",
        "msgs_per_cpu_s",
        "wall.sim_s_per_s",
        "wall.events_per_s",
    ];
    let rates: Vec<[f64; 5]> = reps.iter().map(e2e).collect();
    for (i, r) in rates.iter().enumerate().take(20) {
        let listed: Vec<String> = untraced_names
            .iter()
            .zip(r)
            .map(|(n, v)| format!("{n} {v}"))
            .collect();
        println!("repetition {i} {}", listed.join(" "));
    }
    let med = |i: usize| median(&rates.iter().map(|r| r[i]).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", peak_rss);
    for (i, name) in untraced_names.into_iter().enumerate() {
        m.set(name, med(i));
    }
    let t = e2e(&traced);
    m.set("traced.setup_s", traced_setup);
    m.set("traced.sim_s_per_cpu_s", t[0]);
    m.set("traced.events_per_cpu_s", t[1]);
    m.set("traced.msgs_per_cpu_s", t[2]);
    m.set("trace_overhead_pct", 100.0 * (med(0) - t[0]) / med(0));
    layer_metrics(&mut out, &tr, &traced, edge_events, w.shards);

    check(args, w, &mut out, &reps, &traced)?;
    out.attempted = reps.len() as u64 + 1;
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    d: &Drive,
    edge_events: usize,
    shards: Option<usize>,
) {
    let own = tr.self_time();
    let own = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let m = &mut out.metrics;
    let s = &d.stats;
    m.set("scenarios.parse_s", own("parse") + own("params"));
    m.set("net.schedule_s", own("schedule"));
    m.set("net.edge_events", edge_events as f64);
    m.set("core.build_s", own("build"));
    let run_s = own("run_until");
    m.set("core.run_s", run_s);
    m.set("core.ns_per_event", 1e9 * rate(run_s, s.events as f64));
    m.set("core.events", s.events as f64);
    m.set("core.ticks", s.ticks as f64);
    m.set("core.queue_p50", median(&d.queue));
    m.set("core.queue_max", quantile(&d.queue, 1.0));
    m.set("core.mode_evals", s.mode_evaluations as f64);
    m.set(
        "core.eval_ratio",
        rate(s.mode_evaluations as f64, (s.ticks * d.nodes as u64) as f64),
    );
    m.set("core.msgs_sent", s.messages_sent as f64);
    m.set("core.msgs_delivered", s.messages_delivered as f64);
    m.set(
        "core.drop_ratio",
        rate(s.messages_dropped as f64, s.messages_sent as f64),
    );
    m.set("core.handshakes", s.handshakes_offered as f64);
    m.set("core.insertions", s.insertions_scheduled as f64);
    m.set("core.edge_removals", s.edge_removals as f64);
    if let Some(tel) = &d.telemetry {
        if let Some(k) = shards {
            m.set("shard.window_s", rate(run_s, tel.segments as f64));
            m.set("shard.segments", tel.segments as f64);
            m.set("shard.barrier_rounds", tel.barrier_rounds as f64);
            m.set(
                "shard.stall_ratio",
                rate(
                    tel.stalled_shard_rounds as f64,
                    (tel.barrier_rounds * k as u64) as f64,
                ),
            );
            m.set("shard.mailbox_events", tel.mailbox_events as f64);
            let drained: Vec<f64> = tel.per_shard_drained.iter().map(|&v| v as f64).collect();
            let mean = drained.iter().sum::<f64>() / drained.len().max(1) as f64;
            let max = drained.iter().copied().fold(0.0, f64::max);
            m.set("shard.imbalance", rate(max, mean));
        }
        m.set("protocol.floods", tel.local.floods as f64);
        m.set("protocol.flood_merges", tel.local.flood_merges as f64);
        m.set(
            "protocol.m_jump_ratio",
            rate(tel.local.m_jumps as f64, tel.local.flood_merges as f64),
        );
        m.set("protocol.mode_switches", tel.mode_switches as f64);
        if let Some(trace) = &tel.trace {
            m.set("telemetry.trace_records", trace.records as f64);
            m.set("telemetry.trace_bytes", trace.text.len() as f64);
        }
    }
    m.set("telemetry.finish_s", own("finish"));
    let observe = own("observe");
    m.set("analysis.observe_s", observe);
    m.set("analysis.observe_share", rate(observe, d.run_s));
    if let Some(rep) = &d.oracle {
        m.set("analysis.snapshots", rep.samples as f64);
        m.set(
            "analysis.gradient_util_pct",
            100.0 * rep.gradient.worst_utilization,
        );
        m.set(
            "analysis.global_util_pct",
            100.0 * rep.global.worst_utilization,
        );
    }
    m.set("bench.harness_s", own("run") + own("setup") + own("drive"));
}

fn counters(s: &SimStats) -> Counters {
    vec![
        ("events", s.events),
        ("ticks", s.ticks),
        ("mode_evaluations", s.mode_evaluations),
        ("messages_sent", s.messages_sent),
        ("messages_delivered", s.messages_delivered),
        ("messages_dropped", s.messages_dropped),
        ("handshakes_offered", s.handshakes_offered),
        ("insertions_scheduled", s.insertions_scheduled),
        ("edge_removals", s.edge_removals),
    ]
}

/// The correctness checks: every repetition and the traced run agree on
/// every engine counter (and on the trace seal), the oracle's verdict is
/// conformant, and at the default seed the counters equal the recorded
/// ones.
fn check(
    args: &RunArgs,
    w: &SimWorkload,
    out: &mut Outcome,
    reps: &[Drive],
    traced: &Drive,
) -> Result<(), String> {
    for (i, d) in reps.iter().enumerate() {
        out.check(d.stats == traced.stats, || {
            format!(
                "repetition {i}: counters {:?} differ from the traced run's {:?}",
                d.stats, traced.stats
            )
        });
        out.check(d.trace_seal() == traced.trace_seal(), || {
            format!(
                "repetition {i}: trace seal {:?} differs from the traced run's {:?}",
                d.trace_seal(),
                traced.trace_seal()
            )
        });
    }
    out.check(traced.stats.events > 0, || {
        "the run processed no events".to_string()
    });
    if w.rides {
        for (i, d) in reps.iter().chain(std::iter::once(traced)).enumerate() {
            let verdict = d.oracle.as_ref().map(ConformanceReport::is_conformant);
            out.check(verdict == Some(true), || {
                format!("run {i}: the conformance oracle's verdict is {verdict:?}")
            });
        }
        let text = traced.telemetry.as_ref().and_then(|t| t.trace.as_ref());
        let sealed = text.map(|t| gcs_telemetry::verify_trace(&t.text));
        out.check(matches!(sealed, Some(Ok(_))), || {
            format!("the trace does not verify against its seal: {sealed:?}")
        });
    }
    let mut have = counters(&traced.stats);
    if let Some((records, hash)) = traced.trace_seal() {
        have.push(("trace_records", records));
        have.push(("trace_hash", hash));
    }
    let listed: Vec<String> = have.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("counters {}", listed.join(" "));
    expected::compare(args, w.name, &have, out)
}
