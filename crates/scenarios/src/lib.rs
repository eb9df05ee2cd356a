//! Declarative scenarios for `gradient-clock-sync`.
//!
//! The paper's guarantees are claims over *adversarial dynamic-network
//! scenarios* — churn, insertion, partition, drift flips. This crate makes
//! those scenarios first-class data instead of per-scenario Rust:
//!
//! * [`spec`] — [`ScenarioSpec`]: topology family + size, drift model,
//!   estimate layer, edge-schedule generator, fault injections, parameters,
//!   and the observation plan, compiled through one seam
//!   ([`ScenarioSpec::build`]) into a ready-to-run
//!   [`Simulation`](gcs_core::Simulation);
//! * [`format`](mod@format) — the line-oriented `.scn` text format (hand-rolled parser
//!   and canonical writer with exact round-trip; grammar in
//!   `scenarios/README.md`);
//! * [`registry`] — ≥ 20 named built-in scenarios spanning
//!   ring/line/grid/torus/geometric/small-world/scale-free/hypercube
//!   topologies and churn-storm / churn-burst / byzantine-est /
//!   flash-join / partition-heal / mobile-swarm / drift-flip dynamics,
//!   including the `bench`-class engine-scale entries (`ring-1k`,
//!   `geometric-4k`) that the default campaigns exclude;
//! * [`presets`] — parametric families shared with the experiment harness;
//! * [`campaign`] — the parallel scenario × seed runner and the
//!   `results/campaign_*.json` trajectory artifact;
//! * [`trend`] — the artifact reader, `gcs-baseline/v2` summaries
//!   (scalar stats + trajectory envelopes + per-scenario tolerances),
//!   and the tolerance-gated baseline comparison CI runs;
//! * [`conformance`] — the paper-bound gate: every scenario × seed driven
//!   through the [`gcs_analysis::oracle`] conformance oracles, exiting
//!   non-zero on any Theorem 5.6 / 5.22 bound violation, streaming over
//!   either engine and optionally in sampled-source mode
//!   ([`ConformanceOptions`]) for conformance at 10⁵-node scale;
//! * [`trendseries`] — the append-only `gcs-trend/v1` JSONL series the
//!   nightly pipeline grows (`trend-append`) and the orientation-aware
//!   windowed regression gate over it (`trend-gate`);
//! * [`bench`](mod@bench) — the sequential engine-throughput harness behind
//!   `gcs-scenarios bench` and the `BENCH_engine.json`
//!   (`gcs-engine-bench/v1`) artifact, plus the exact deterministic
//!   counter gate behind `gcs-scenarios bench-compare`;
//! * [`chaos`] — bit-exact trace replay (a sealed `gcs-trace/v1`
//!   artifact re-materializes its run stand-alone via the embedded
//!   `.scn` record) and the seeded adversarial fault-schedule search
//!   whose best finds ratchet the conformance gates (`gcs-chaos/v1`
//!   logs, `gcs-scenarios replay` / `chaos-search`);
//! * [`telemetry`] — instrumented runs: both engines driven with a
//!   [`gcs_telemetry`] sink attached, the engine-invariant
//!   `gcs-trace/v1` run log behind `gcs-scenarios trace`/`trace-diff`,
//!   and the `gcs-telemetry/v1` metrics artifact behind the
//!   `--telemetry` flag of `run`/`bench`/`conformance`;
//! * the `gcs-scenarios` CLI (`list | validate <dir> | run <name|file> |
//!   bench | bench-compare | trace | trace-diff | replay | chaos-search |
//!   conformance | trend-append | trend-gate | baseline | compare |
//!   export <dir> | show <name>`).
//!
//! # Example
//!
//! ```
//! use gcs_scenarios::{registry, Scale};
//!
//! let spec = registry::find("churn-storm").unwrap().scaled(Scale::Tiny);
//! let mut sim = spec.build(7).unwrap();
//! sim.run_until_secs(spec.end_secs());
//! assert!(sim.snapshot().global_skew().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod campaign;
pub mod chaos;
pub mod conformance;
pub mod error;
pub mod format;
pub mod json;
pub mod presets;
pub mod registry;
pub mod spec;
pub mod telemetry;
pub mod trend;
pub mod trendseries;

pub use bench::{BenchArtifact, BenchCompareReport, BenchEntry};
pub use campaign::{run_campaign, run_scenario, CampaignRow, ScenarioOutcome};
pub use chaos::{
    chaos_search, frontier_from_log, read_trace, replay_trace, ChaosCandidate, ChaosOptions,
    ChaosResult, ChaosViolation, ReplayOutcome, TraceArtifact, CHAOS_FORMAT,
};
pub use conformance::{run_conformance, run_conformance_with, ConformanceOptions, ConformanceRow};
pub use error::ScenarioError;
pub use spec::{
    DriftSpec, DynamicsSpec, EstimateSpec, FaultSpec, Metric, Scale, ScenarioSpec, TopologySpec,
};
pub use telemetry::{
    bench_instrumented, run_instrumented, run_instrumented_oracle, OracleRide, TelemetryRun,
    TELEMETRY_FORMAT,
};
pub use trend::{
    CampaignArtifact, CompareReport, EnvelopeStats, TrajectoryEnvelope, TrendRow, TrendSummary,
};
pub use trendseries::{
    trend_gate, TrendFinding, TrendGateReport, TrendPoint, DEFAULT_WINDOW, TREND_FORMAT,
};
