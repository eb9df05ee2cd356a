//! Campaign trend tracking: read `gcs-campaign/v1` artifacts back in,
//! distill them into compact `gcs-baseline/v2` summaries — scalar
//! ensemble stats *plus* per-trajectory envelopes (growth/recovery
//! slopes, peak time, settling time) and a per-scenario tolerance table —
//! and compare a fresh campaign against a checked-in baseline: the
//! regression gate CI hangs off (`gcs-scenarios baseline` / `compare`).
//!
//! The reader is hand-rolled like the writer (no serde) and inverts
//! [`campaign_json`](crate::campaign::campaign_json) exactly: floats are
//! written in shortest round-trip notation and re-parsed with correct
//! rounding, so a parsed artifact is bit-identical to the
//! [`CampaignRow`]s that produced it (property-tested).
//!
//! The gate core — the absolute floor, relative drift, the breach
//! predicate and the tight/loose tolerance lookup — is shared with the
//! windowed series gate in [`trendseries`](crate::trendseries).

use gcs_analysis::{EnsembleStats, Table};

use crate::campaign::{CampaignRow, ScenarioOutcome};
use crate::json::{self, arr_field, f64_field, field, str_field, u64_field, Json, JsonValue};
use crate::spec::{DriftSpec, DynamicsSpec, Metric, Scale, ScenarioSpec, TopologySpec};

/// The artifact format tag the campaign writer emits.
pub const CAMPAIGN_FORMAT: &str = "gcs-campaign/v1";
/// The baseline format the writer emits: scalars + trajectory envelopes
/// + per-scenario tolerances.
pub const BASELINE_FORMAT: &str = "gcs-baseline/v2";

/// Near-zero metrics (a skew of `1e-12` vs `2e-12`) must not trip the
/// relative gate; drifts below this many seconds are never significant.
const ABSOLUTE_FLOOR: f64 = 1e-6;

/// Signed relative drift of `delta` against `reference` (`+0.25` = 25 %).
/// A significant move away from a (near-)zero reference has no finite
/// ratio and reports ±∞, so it still ranks as the worst drift and prints
/// as `+inf%` rather than masquerading as `+0.0%`.
pub(crate) fn relative_drift(delta: f64, reference: f64) -> f64 {
    if reference.abs() >= ABSOLUTE_FLOOR {
        delta / reference.abs()
    } else if delta.abs() <= ABSOLUTE_FLOOR {
        0.0
    } else {
        f64::INFINITY.copysign(delta)
    }
}

/// Whether a drift of `delta` away from `reference` breaches the relative
/// tolerance `tol` (drifts under the absolute floor never do).
pub(crate) fn breaches(delta: f64, reference: f64, tol: f64) -> bool {
    delta > tol * reference.abs() + ABSOLUTE_FLOOR
}

// ---------------------------------------------------------------------
// Reading campaign artifacts
// ---------------------------------------------------------------------

/// A fully parsed `gcs-campaign/v1` artifact — the same [`CampaignRow`]s
/// the runner aggregated before writing.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArtifact {
    /// Campaign title.
    pub campaign: String,
    /// Scale token (`tiny` / `default` / `full`).
    pub scale: String,
    /// The seed list the campaign fanned out over.
    pub seeds: Vec<u64>,
    /// Per-scenario rows, in artifact order.
    pub rows: Vec<CampaignRow>,
}

fn read_stats(v: &JsonValue, what: &str) -> Result<EnsembleStats, String> {
    Ok(EnsembleStats {
        runs: usize::try_from(u64_field(v, "runs", what)?).map_err(|e| format!("{what}: {e}"))?,
        mean: f64_field(v, "mean", what)?,
        min: f64_field(v, "min", what)?,
        max: f64_field(v, "max", what)?,
        median: f64_field(v, "median", what)?,
        stddev: f64_field(v, "stddev", what)?,
        p10: f64_field(v, "p10", what)?,
        p90: f64_field(v, "p90", what)?,
    })
}

fn read_outcome(v: &JsonValue, what: &str) -> Result<ScenarioOutcome, String> {
    let mut trajectory = Vec::new();
    for (i, pt) in arr_field(v, "trajectory", what)?.iter().enumerate() {
        let pair = pt
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{what}: trajectory[{i}] is not a [t, skew] pair"))?;
        let t = pair[0]
            .as_f64()
            .ok_or_else(|| format!("{what}: trajectory[{i}] time is not a number"))?;
        let g = pair[1]
            .as_f64()
            .ok_or_else(|| format!("{what}: trajectory[{i}] skew is not a number"))?;
        trajectory.push((t, g));
    }
    Ok(ScenarioOutcome {
        seed: u64_field(v, "seed", what)?,
        primary: f64_field(v, "primary", what)?,
        max_global_skew: f64_field(v, "max_global_skew", what)?,
        max_local_skew: f64_field(v, "max_local_skew", what)?,
        final_global_skew: f64_field(v, "final_global_skew", what)?,
        invariant_violations: u64_field(v, "invariant_violations", what)?,
        messages_sent: u64_field(v, "messages_sent", what)?,
        messages_delivered: u64_field(v, "messages_delivered", what)?,
        messages_dropped: u64_field(v, "messages_dropped", what)?,
        events: u64_field(v, "events", what)?,
        ticks: u64_field(v, "ticks", what)?,
        mode_evaluations: u64_field(v, "mode_evaluations", what)?,
        trajectory,
    })
}

/// Parses a `gcs-campaign/v1` artifact back into its [`CampaignRow`]s.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong `format` tag, or a
/// missing/mistyped field.
pub fn read_campaign(text: &str) -> Result<CampaignArtifact, String> {
    campaign_from_doc(&json::parse(text)?)
}

fn campaign_from_doc(doc: &JsonValue) -> Result<CampaignArtifact, String> {
    let format = str_field(doc, "format", "artifact")?;
    if format != CAMPAIGN_FORMAT {
        return Err(format!(
            "expected format {CAMPAIGN_FORMAT:?}, got {format:?}"
        ));
    }
    let seeds = arr_field(doc, "seeds", "artifact")?
        .iter()
        .map(|s| s.as_u64().ok_or_else(|| "non-integer seed".to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    let mut rows = Vec::new();
    for sc in arr_field(doc, "scenarios", "artifact")? {
        let name = str_field(sc, "name", "scenario")?;
        let what = format!("scenario {name:?}");
        let metric_token = str_field(sc, "metric", &what)?;
        let metric = Metric::parse(&metric_token)
            .ok_or_else(|| format!("{what}: unknown metric {metric_token:?}"))?;
        let outcomes = arr_field(sc, "outcomes", &what)?
            .iter()
            .map(|o| read_outcome(o, &what))
            .collect::<Result<Vec<_>, String>>()?;
        rows.push(CampaignRow {
            name,
            nodes: usize::try_from(u64_field(sc, "nodes", &what)?)
                .map_err(|e| format!("{what}: {e}"))?,
            metric,
            stats: read_stats(field(sc, "stats", &what)?, &what)?,
            outcomes,
        });
    }
    Ok(CampaignArtifact {
        campaign: str_field(doc, "campaign", "artifact")?,
        scale: str_field(doc, "scale", "artifact")?,
        seeds,
        rows,
    })
}

// ---------------------------------------------------------------------
// Distilling: per-scenario trend rows
// ---------------------------------------------------------------------

/// The trajectory-*shape* statistics of one run, distilled from its
/// sampled `(t, global skew)` series. This is what lets the gate see a
/// regression that scalar stats miss — a recovery that takes twice as
/// long at the same mean skew shows up as a halved
/// [`recovery_slope`](TrajectoryEnvelope::recovery_slope).
///
/// Distillation is invariant to sample order and exact-duplicate samples
/// (the points are canonicalized first; property-tested), so envelope
/// values only move when the trajectory *shape* moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryEnvelope {
    /// The trajectory's maximum skew.
    pub peak: f64,
    /// Earliest sampled instant attaining the peak.
    pub peak_time: f64,
    /// Average climb rate from the first sample to the peak
    /// (`(peak − g₀)/(t_peak − t₀)`; 0 when the peak is the first sample).
    pub growth_slope: f64,
    /// Average drain rate from the peak to the final sample
    /// (`(peak − g_end)/(t_end − t_peak)`; 0 when the peak is last).
    pub recovery_slope: f64,
    /// When the trajectory settles (see [`stabilization_time`]).
    pub settling_time: f64,
}

/// Distills a trajectory into its [`TrajectoryEnvelope`]. The input is
/// canonicalized (sorted by `(t, skew)`, exact duplicates removed) so the
/// result is invariant to sample order and duplication. Returns an
/// all-zero envelope for an empty trajectory.
#[must_use]
pub fn envelope(trajectory: &[(f64, f64)]) -> TrajectoryEnvelope {
    let mut pts: Vec<(f64, f64)> = trajectory.to_vec();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    pts.dedup();
    let (Some(&(t0, g0)), Some(&(t_end, g_end))) = (pts.first(), pts.last()) else {
        return TrajectoryEnvelope {
            peak: 0.0,
            peak_time: 0.0,
            growth_slope: 0.0,
            recovery_slope: 0.0,
            settling_time: 0.0,
        };
    };
    let (mut peak, mut peak_time) = (f64::NEG_INFINITY, t0);
    for &(t, g) in &pts {
        if g > peak {
            peak = g;
            peak_time = t;
        }
    }
    let growth_slope = if peak_time > t0 {
        (peak - g0) / (peak_time - t0)
    } else {
        0.0
    };
    let recovery_slope = if t_end > peak_time {
        (peak - g_end) / (t_end - peak_time)
    } else {
        0.0
    };
    TrajectoryEnvelope {
        peak,
        peak_time,
        growth_slope,
        recovery_slope,
        settling_time: stabilization_time(&pts),
    }
}

/// Ensemble means of the per-run [`TrajectoryEnvelope`]s — the extra
/// columns a `gcs-baseline/v2` row pins beyond the scalar stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeStats {
    /// Mean earliest-peak instant across seeds.
    pub mean_peak_time: f64,
    /// Mean climb rate to the peak.
    pub mean_growth_slope: f64,
    /// Mean drain rate from the peak.
    pub mean_recovery_slope: f64,
}

/// The compact per-scenario statistics a baseline pins: ensemble mean and
/// p90 of the primary metric and of both skew maxima, the mean
/// stabilization time derived from the trajectories, and the
/// trajectory-envelope means.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Scenario name.
    pub name: String,
    /// Node count after scaling.
    pub nodes: u64,
    /// Primary-metric token.
    pub metric: String,
    /// Seeds aggregated.
    pub runs: u64,
    /// Mean of the primary metric across seeds.
    pub mean_primary: f64,
    /// 90th percentile of the primary metric.
    pub p90_primary: f64,
    /// Mean of the per-run max global skew.
    pub mean_global: f64,
    /// p90 of the per-run max global skew.
    pub p90_global: f64,
    /// Mean of the per-run max local skew.
    pub mean_local: f64,
    /// p90 of the per-run max local skew.
    pub p90_local: f64,
    /// Mean stabilization time (see [`stabilization_time`]).
    pub mean_stabilization: f64,
    /// Trajectory-envelope means.
    pub envelope: EnvelopeStats,
}

impl TrendRow {
    /// The compared columns, as `(label, value)` pairs: seven scalar
    /// columns, then the three envelope columns.
    #[must_use]
    pub fn columns(&self) -> [(&'static str, f64); 10] {
        [
            ("primary mean", self.mean_primary),
            ("primary p90", self.p90_primary),
            ("global mean", self.mean_global),
            ("global p90", self.p90_global),
            ("local mean", self.mean_local),
            ("local p90", self.p90_local),
            ("stabilization", self.mean_stabilization),
            ("peak time", self.envelope.mean_peak_time),
            ("growth slope", self.envelope.mean_growth_slope),
            ("recovery slope", self.envelope.mean_recovery_slope),
        ]
    }
}

/// When the trajectory settles: the earliest sampled instant after which
/// the global skew never again leaves the settle band (1.1× the worst
/// skew over the final quarter of the run). Recovery scenarios (faults,
/// partitions) yield their recovery time; steady scenarios yield the end
/// of their initial transient. A run that is still at its worst when
/// observation ends — the final quarter clearly above everything before
/// it — never settled and yields the final instant, so divergence shows
/// up as *growing* stabilization time in the trend gate, not as zero.
/// Returns `0` for an empty trajectory.
#[must_use]
pub fn stabilization_time(trajectory: &[(f64, f64)]) -> f64 {
    let Some(&(last_t, _)) = trajectory.last() else {
        return 0.0;
    };
    let tail_start = trajectory.len() - trajectory.len().div_ceil(4);
    let max_over = |part: &[(f64, f64)]| part.iter().map(|&(_, g)| g).fold(0.0f64, f64::max);
    let tail_max = max_over(&trajectory[tail_start..]);
    // Still climbing at the end: the final quarter tops everything that
    // came before it by more than noise.
    if tail_max > max_over(&trajectory[..tail_start]) * 1.05 + 1e-9 {
        return last_t;
    }
    let band = tail_max * 1.1 + 1e-9;
    // The sample after the last excursion above the band (tail samples
    // are below the band by construction, so `i + 1` always exists).
    match trajectory.iter().rposition(|&(_, g)| g > band) {
        None => trajectory[0].0,
        Some(i) => trajectory[i + 1].0,
    }
}

/// Distills campaign rows into per-scenario trend rows.
#[must_use]
pub fn summarize(rows: &[CampaignRow]) -> Vec<TrendRow> {
    rows.iter()
        .map(|r| {
            let collect =
                |f: fn(&ScenarioOutcome) -> f64| -> Vec<f64> { r.outcomes.iter().map(f).collect() };
            let globals = EnsembleStats::from_values(&collect(|o| o.max_global_skew));
            let locals = EnsembleStats::from_values(&collect(|o| o.max_local_skew));
            let envelopes: Vec<TrajectoryEnvelope> =
                r.outcomes.iter().map(|o| envelope(&o.trajectory)).collect();
            let env_mean = |f: fn(&TrajectoryEnvelope) -> f64| -> f64 {
                let vals: Vec<f64> = envelopes.iter().map(f).collect();
                gcs_analysis::stats::mean(&vals)
            };
            TrendRow {
                name: r.name.clone(),
                nodes: r.nodes as u64,
                metric: r.metric.token().to_string(),
                runs: r.stats.runs as u64,
                mean_primary: r.stats.mean,
                p90_primary: r.stats.p90,
                mean_global: globals.mean,
                p90_global: globals.p90,
                mean_local: locals.mean,
                p90_local: locals.p90,
                // The envelope's settling time IS stabilization_time (its
                // canonicalization is a no-op on real, time-sorted
                // trajectories), computed once per outcome above.
                mean_stabilization: env_mean(|e| e.settling_time),
                envelope: EnvelopeStats {
                    mean_peak_time: env_mean(|e| e.peak_time),
                    mean_growth_slope: env_mean(|e| e.growth_slope),
                    mean_recovery_slope: env_mean(|e| e.recovery_slope),
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Baseline artifacts
// ---------------------------------------------------------------------

/// A trend summary with its provenance — either distilled from a fresh
/// campaign artifact or read back from a checked-in baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSummary {
    /// Campaign title the rows came from.
    pub campaign: String,
    /// Scale token.
    pub scale: String,
    /// Seed list.
    pub seeds: Vec<u64>,
    /// Per-scenario rows.
    pub rows: Vec<TrendRow>,
    /// Per-scenario relative-tolerance overrides (fractions: `0.25` =
    /// ±25 %), sorted by scenario name. A baseline carries these so the
    /// gate can be tight for deterministic topologies and loose for
    /// seed-realized random families; [`compare`] consults the *baseline*
    /// side. Empty in summaries distilled straight from a campaign —
    /// populate with [`default_tolerances`] (or hand-edit the file).
    pub tolerances: Vec<(String, f64)>,
}

impl TrendSummary {
    /// Distills a parsed campaign artifact.
    #[must_use]
    pub fn from_campaign(artifact: &CampaignArtifact) -> Self {
        TrendSummary {
            campaign: artifact.campaign.clone(),
            scale: artifact.scale.clone(),
            seeds: artifact.seeds.clone(),
            rows: summarize(&artifact.rows),
            tolerances: Vec::new(),
        }
    }

    /// Builds a summary straight from in-memory campaign rows (what the
    /// CLI uses right after a run).
    #[must_use]
    pub fn from_rows(campaign: &str, scale: Scale, seeds: &[u64], rows: &[CampaignRow]) -> Self {
        TrendSummary {
            campaign: campaign.to_string(),
            scale: scale.name().to_string(),
            seeds: seeds.to_vec(),
            rows: summarize(rows),
            tolerances: Vec::new(),
        }
    }

    /// The effective relative tolerance for one scenario: its override if
    /// the summary carries one, else `default_tol`.
    #[must_use]
    pub fn tolerance_for(&self, scenario: &str, default_tol: f64) -> f64 {
        self.tolerances
            .iter()
            .find(|(name, _)| name == scenario)
            .map_or(default_tol, |&(_, t)| t)
    }
}

/// Whether a scenario's outcome depends on the run seed structurally —
/// a seed-realized random topology, stochastic dynamics, or randomized
/// drift — rather than only through message-delay noise.
#[must_use]
pub fn seed_sensitive(spec: &ScenarioSpec) -> bool {
    matches!(
        spec.topology,
        TopologySpec::Gnp { .. }
            | TopologySpec::Geometric { .. }
            | TopologySpec::SmallWorld { .. }
            | TopologySpec::ScaleFree { .. }
    ) || matches!(
        spec.dynamics,
        DynamicsSpec::Churn { .. } | DynamicsSpec::Mobility { .. }
    ) || matches!(
        spec.drift,
        DriftSpec::RandomConstant | DriftSpec::RandomWalk { .. }
    )
}

/// Tight tolerance for scenarios whose realization is deterministic.
pub const TOL_TIGHT: f64 = 0.25;
/// Loose tolerance for seed-realized random families.
pub const TOL_LOOSE: f64 = 0.60;

/// The default relative tolerance for one scenario, with its class:
/// [`TOL_LOOSE`] for seed-realized random families ([`seed_sensitive`])
/// and for scenarios the registry does not know, [`TOL_TIGHT`] otherwise.
/// Both gates — [`default_tolerances`] here and the trend-series gate —
/// use it.
pub(crate) fn scenario_tolerance(scenario: &str) -> (f64, &'static str) {
    if crate::registry::find(scenario).is_none_or(|s| seed_sensitive(&s)) {
        (TOL_LOOSE, "loose (seed-realized scenario)")
    } else {
        (TOL_TIGHT, "tight (deterministic scenario)")
    }
}

/// The default per-scenario tolerance table for a summary: [`TOL_TIGHT`]
/// for deterministic topologies/dynamics, [`TOL_LOOSE`] for seed-realized
/// random families (looked up in the registry; unknown scenarios are
/// treated as random). `gcs-scenarios baseline` embeds this table when
/// pinning a fresh baseline; hand-tune the file afterwards if a scenario
/// needs special treatment.
#[must_use]
pub fn default_tolerances(summary: &TrendSummary) -> Vec<(String, f64)> {
    let mut tols: Vec<(String, f64)> = summary
        .rows
        .iter()
        .map(|r| (r.name.clone(), scenario_tolerance(&r.name).0))
        .collect();
    tols.sort_by(|a, b| a.0.cmp(&b.0));
    tols
}

/// Serializes a summary as a `gcs-baseline/v2` document (one scenario per
/// line, so checked-in baselines diff cleanly). The tolerance table is
/// embedded as relative fractions (`0.25` = ±25 %), exactly as held in
/// memory, so the file round-trips bit-exactly.
#[must_use]
pub fn baseline_json(summary: &TrendSummary) -> String {
    let row_json = |r: &TrendRow| {
        Json::Obj(vec![
            ("name", Json::Str(r.name.clone())),
            ("nodes", Json::Int(r.nodes)),
            ("metric", Json::Str(r.metric.clone())),
            ("runs", Json::Int(r.runs)),
            ("mean_primary", Json::Num(r.mean_primary)),
            ("p90_primary", Json::Num(r.p90_primary)),
            ("mean_global_skew", Json::Num(r.mean_global)),
            ("p90_global_skew", Json::Num(r.p90_global)),
            ("mean_local_skew", Json::Num(r.mean_local)),
            ("p90_local_skew", Json::Num(r.p90_local)),
            ("mean_stabilization", Json::Num(r.mean_stabilization)),
            ("mean_peak_time", Json::Num(r.envelope.mean_peak_time)),
            ("mean_growth_slope", Json::Num(r.envelope.mean_growth_slope)),
            (
                "mean_recovery_slope",
                Json::Num(r.envelope.mean_recovery_slope),
            ),
        ])
    };
    let head = Json::Obj(vec![
        ("format", Json::Str(BASELINE_FORMAT.to_string())),
        ("campaign", Json::Str(summary.campaign.clone())),
        ("scale", Json::Str(summary.scale.clone())),
        (
            "seeds",
            Json::Arr(summary.seeds.iter().map(|&s| Json::Int(s)).collect()),
        ),
    ]);
    // Splice the dynamic-keyed parts in by hand (the writer's object type
    // carries static keys only): the tolerance table, then one scenario
    // per line.
    let head = head.to_string();
    let mut out = String::new();
    out.push_str(&head[..head.len() - 1]);
    out.push_str(",\"tolerances\":{");
    for (i, (name, tol)) in summary.tolerances.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", Json::Str(name.clone()), Json::Num(*tol)));
    }
    out.push_str("},\"scenarios\":[\n");
    for (i, r) in summary.rows.iter().enumerate() {
        out.push_str(&row_json(r).to_string());
        if i + 1 < summary.rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Reads a `gcs-baseline/v2` document.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong `format` tag, or a
/// missing/mistyped field.
pub fn read_baseline(text: &str) -> Result<TrendSummary, String> {
    baseline_from_doc(&json::parse(text)?)
}

fn baseline_from_doc(doc: &JsonValue) -> Result<TrendSummary, String> {
    let format = str_field(doc, "format", "baseline")?;
    if format != BASELINE_FORMAT {
        return Err(format!(
            "expected format {BASELINE_FORMAT:?}, got {format:?}"
        ));
    }
    let seeds = arr_field(doc, "seeds", "baseline")?
        .iter()
        .map(|s| s.as_u64().ok_or_else(|| "non-integer seed".to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    let mut rows = Vec::new();
    for sc in arr_field(doc, "scenarios", "baseline")? {
        let name = str_field(sc, "name", "baseline scenario")?;
        let what = format!("baseline scenario {name:?}");
        rows.push(TrendRow {
            nodes: u64_field(sc, "nodes", &what)?,
            metric: str_field(sc, "metric", &what)?,
            runs: u64_field(sc, "runs", &what)?,
            mean_primary: f64_field(sc, "mean_primary", &what)?,
            p90_primary: f64_field(sc, "p90_primary", &what)?,
            mean_global: f64_field(sc, "mean_global_skew", &what)?,
            p90_global: f64_field(sc, "p90_global_skew", &what)?,
            mean_local: f64_field(sc, "mean_local_skew", &what)?,
            p90_local: f64_field(sc, "p90_local_skew", &what)?,
            mean_stabilization: f64_field(sc, "mean_stabilization", &what)?,
            envelope: EnvelopeStats {
                mean_peak_time: f64_field(sc, "mean_peak_time", &what)?,
                mean_growth_slope: f64_field(sc, "mean_growth_slope", &what)?,
                mean_recovery_slope: f64_field(sc, "mean_recovery_slope", &what)?,
            },
            name,
        });
    }
    let mut tolerances = Vec::new();
    if let Some(tols) = doc.get("tolerances") {
        let JsonValue::Obj(fields) = tols else {
            return Err("baseline: field \"tolerances\" is not an object".to_string());
        };
        for (name, v) in fields {
            let tol = v
                .as_f64()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| {
                    format!("baseline: tolerance for {name:?} is not a non-negative number")
                })?;
            tolerances.push((name.clone(), tol));
        }
        tolerances.sort_by(|a, b| a.0.cmp(&b.0));
    }
    Ok(TrendSummary {
        campaign: str_field(doc, "campaign", "baseline")?,
        scale: str_field(doc, "scale", "baseline")?,
        seeds,
        rows,
        tolerances,
    })
}

/// Reads either artifact flavour into a [`TrendSummary`], keyed on the
/// `format` tag — so `compare` accepts a raw campaign artifact where a
/// baseline is expected and vice versa.
///
/// # Errors
///
/// Returns a message on malformed JSON or an unknown `format` tag.
pub fn read_summary(text: &str) -> Result<TrendSummary, String> {
    let doc = json::parse(text)?;
    match str_field(&doc, "format", "artifact")?.as_str() {
        BASELINE_FORMAT => baseline_from_doc(&doc),
        CAMPAIGN_FORMAT => Ok(TrendSummary::from_campaign(&campaign_from_doc(&doc)?)),
        other => Err(format!(
            "expected format {BASELINE_FORMAT:?} or {CAMPAIGN_FORMAT:?}, got {other:?}"
        )),
    }
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// One out-of-tolerance observation.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftFinding {
    /// Scenario name.
    pub scenario: String,
    /// What drifted: a [`TrendRow::columns`] label, or a structural
    /// problem (`missing scenario`, `new scenario`, `runs`).
    pub column: String,
    /// Baseline value (NaN for structural findings).
    pub baseline: f64,
    /// Current value (NaN for structural findings).
    pub current: f64,
}

impl DriftFinding {
    /// Signed relative drift (`+0.25` = 25 % above baseline; ±∞ for a
    /// significant move away from a (near-)zero baseline).
    #[must_use]
    pub fn relative(&self) -> f64 {
        relative_drift(self.current - self.baseline, self.baseline)
    }
}

/// The outcome of a baseline comparison: a printable table plus every
/// finding that breaches the tolerance.
#[derive(Debug)]
pub struct CompareReport {
    /// One row per scenario, baseline vs current headline stats.
    pub table: Table,
    /// Out-of-tolerance findings (empty ⇒ gate passes).
    pub findings: Vec<DriftFinding>,
}

impl CompareReport {
    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Diffs `current` against `baseline` with default relative tolerance
/// `tol` (`0.25` = ±25 %; drifts under an absolute floor of 1 µs never
/// count). A per-scenario override in the *baseline*'s tolerance table
/// takes precedence over `tol` — tight for deterministic topologies,
/// loose for seed-realized random families. Envelope columns (peak time,
/// growth/recovery slope) gate too, so a doubled recovery slope fails
/// even when every mean stays flat.
/// Scenario-set mismatches and changed seed counts are findings too —
/// the baseline must be refreshed deliberately, not silently outgrown.
#[must_use]
pub fn compare(baseline: &TrendSummary, current: &TrendSummary, tol: f64) -> CompareReport {
    let mut findings = Vec::new();
    let mut table = Table::new(
        format!(
            "campaign trend — {} ({} seeds, scale {}) vs baseline, default tol ±{:.0}%",
            current.campaign,
            current.seeds.len(),
            current.scale,
            tol * 100.0
        ),
        &[
            "scenario",
            "tol",
            "primary (base)",
            "primary (cur)",
            "global p90 (base)",
            "global p90 (cur)",
            "recovery (base)",
            "recovery (cur)",
            "worst drift",
            "status",
        ],
    );
    table.caption(
        "primary = each scenario's own metric (mean across seeds); recovery = mean \
         trajectory recovery slope. A drift beyond the scenario's tolerance in any \
         tracked column (primary/global/local mean+p90, stabilization, peak time, \
         growth/recovery slope) fails the gate; refresh the baseline deliberately \
         when a change is intended.",
    );
    let recovery_cell = |r: &TrendRow| fmt(r.envelope.mean_recovery_slope);

    for base_row in &baseline.rows {
        let row_tol = baseline.tolerance_for(&base_row.name, tol);
        let Some(cur_row) = current.rows.iter().find(|r| r.name == base_row.name) else {
            findings.push(DriftFinding {
                scenario: base_row.name.clone(),
                column: "missing scenario".to_string(),
                baseline: f64::NAN,
                current: f64::NAN,
            });
            table.row([
                base_row.name.clone(),
                format!("±{:.0}%", row_tol * 100.0),
                fmt(base_row.mean_primary),
                "-".to_string(),
                fmt(base_row.p90_global),
                "-".to_string(),
                recovery_cell(base_row),
                "-".to_string(),
                "-".to_string(),
                "MISSING".to_string(),
            ]);
            continue;
        };
        let mut row_findings = Vec::new();
        if cur_row.runs != base_row.runs {
            row_findings.push(DriftFinding {
                scenario: base_row.name.clone(),
                column: "runs".to_string(),
                baseline: base_row.runs as f64,
                current: cur_row.runs as f64,
            });
        }
        let mut worst: Option<DriftFinding> = None;
        for ((label, base), (_, cur)) in base_row.columns().into_iter().zip(cur_row.columns()) {
            let finding = DriftFinding {
                scenario: base_row.name.clone(),
                column: label.to_string(),
                baseline: base,
                current: cur,
            };
            let out_of_tol = breaches((cur - base).abs(), base, row_tol);
            if worst
                .as_ref()
                .is_none_or(|w| finding.relative().abs() > w.relative().abs())
            {
                worst = Some(finding.clone());
            }
            if out_of_tol {
                row_findings.push(finding);
            }
        }
        let status = if row_findings.is_empty() {
            "ok".to_string()
        } else {
            "DRIFT".to_string()
        };
        let worst_cell = worst.map_or("-".to_string(), |w| {
            format!("{} {:+.1}%", w.column, w.relative() * 100.0)
        });
        table.row([
            base_row.name.clone(),
            format!("±{:.0}%", row_tol * 100.0),
            fmt(base_row.mean_primary),
            fmt(cur_row.mean_primary),
            fmt(base_row.p90_global),
            fmt(cur_row.p90_global),
            recovery_cell(base_row),
            recovery_cell(cur_row),
            worst_cell,
            status,
        ]);
        findings.append(&mut row_findings);
    }
    for cur_row in &current.rows {
        if !baseline.rows.iter().any(|r| r.name == cur_row.name) {
            findings.push(DriftFinding {
                scenario: cur_row.name.clone(),
                column: "new scenario (refresh the baseline)".to_string(),
                baseline: f64::NAN,
                current: f64::NAN,
            });
            table.row([
                cur_row.name.clone(),
                "-".to_string(),
                "-".to_string(),
                fmt(cur_row.mean_primary),
                "-".to_string(),
                fmt(cur_row.p90_global),
                "-".to_string(),
                recovery_cell(cur_row),
                "-".to_string(),
                "NEW".to_string(),
            ]);
        }
    }
    CompareReport { table, findings }
}

fn fmt(v: f64) -> String {
    gcs_analysis::report::fmt_val(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_json, run_campaign};
    use crate::registry;

    fn tiny_rows() -> (Vec<u64>, Vec<CampaignRow>) {
        let specs = vec![
            registry::find("line-worstcase")
                .unwrap()
                .scaled(Scale::Tiny),
            registry::find("self-heal").unwrap().scaled(Scale::Tiny),
        ];
        let seeds = vec![0, 1];
        let rows = run_campaign(&specs, &seeds).unwrap();
        (seeds, rows)
    }

    #[test]
    fn campaign_reader_inverts_the_writer() {
        let (seeds, rows) = tiny_rows();
        let text = campaign_json("smoke", Scale::Tiny, &seeds, &rows);
        let artifact = read_campaign(&text).unwrap();
        assert_eq!(artifact.campaign, "smoke");
        assert_eq!(artifact.scale, "tiny");
        assert_eq!(artifact.seeds, seeds);
        assert_eq!(artifact.rows, rows, "parsed rows must be bit-identical");
    }

    #[test]
    fn baseline_round_trips() {
        let (seeds, rows) = tiny_rows();
        let mut summary = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        summary.tolerances = default_tolerances(&summary);
        let text = baseline_json(&summary);
        assert!(text.starts_with("{\"format\":\"gcs-baseline/v2\""));
        assert!(text.contains("\"tolerances\":{"));
        assert!(text.contains("\"mean_recovery_slope\""));
        let back = read_baseline(&text).unwrap();
        assert_eq!(back, summary);
        // And the format-sniffing reader agrees on both flavours (the raw
        // campaign artifact distills with an empty tolerance table).
        assert_eq!(read_summary(&text).unwrap(), summary);
        let campaign_text = campaign_json("smoke", Scale::Tiny, &seeds, &rows);
        let mut from_campaign = summary.clone();
        from_campaign.tolerances = Vec::new();
        assert_eq!(read_summary(&campaign_text).unwrap(), from_campaign);
    }

    #[test]
    fn v1_baselines_are_rejected() {
        // The scalar-only format the first baseline writer emitted: no
        // envelope fields, no tolerance table. No reader accepts it.
        let v1 = BASELINE_FORMAT.replace("/v2", "/v1");
        let text = format!(
            "{{\"format\":\"{v1}\",\"campaign\":\"old\",\"scale\":\"tiny\",\"seeds\":[0,1],\
             \"scenarios\":[\n{{\"name\":\"ring-steady\",\"nodes\":4,\"metric\":\"global-skew\",\
             \"runs\":2,\"mean_primary\":0.01,\"p90_primary\":0.012,\"mean_global_skew\":0.01,\
             \"p90_global_skew\":0.012,\"mean_local_skew\":0.005,\"p90_local_skew\":0.006,\
             \"mean_stabilization\":1.5}}\n]}}\n"
        );
        for err in [
            read_baseline(&text).unwrap_err(),
            read_summary(&text).unwrap_err(),
        ] {
            assert!(err.contains("expected format"), "{err}");
            assert!(err.contains(&format!("got {v1:?}")), "{err}");
        }
    }

    #[test]
    fn envelope_is_invariant_to_order_and_duplication() {
        let traj: Vec<(f64, f64)> = (0..=20)
            .map(|k| {
                let t = k as f64 * 0.5;
                (
                    t,
                    if t < 5.0 {
                        0.02 * t
                    } else {
                        (0.3 - 0.05 * (t - 5.0)).max(0.01)
                    },
                )
            })
            .collect();
        let base = envelope(&traj);
        assert!(base.peak > 0.0 && base.peak_time > 0.0);
        assert!(base.growth_slope > 0.0 && base.recovery_slope > 0.0);
        let mut shuffled = traj.clone();
        shuffled.reverse();
        shuffled.swap(3, 11);
        assert_eq!(envelope(&shuffled), base, "order must not matter");
        let mut duplicated = traj.clone();
        duplicated.extend_from_slice(&traj[5..15]);
        duplicated.push(traj[0]);
        assert_eq!(envelope(&duplicated), base, "duplication must not matter");
        assert_eq!(envelope(&[]).peak, 0.0);
    }

    #[test]
    fn per_scenario_tolerances_override_the_default() {
        let (seeds, rows) = tiny_rows();
        let mut base = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        let mut cur = base.clone();
        cur.rows[0].mean_global *= 1.4; // +40 %
                                        // Default tol 50 %: passes.
        assert!(compare(&base, &cur, 0.50).passed());
        // A tight per-scenario override on that scenario: fails.
        base.tolerances = vec![(base.rows[0].name.clone(), 0.10)];
        let report = compare(&base, &cur, 0.50);
        assert!(!report.passed());
        assert!(report
            .findings
            .iter()
            .all(|f| f.scenario == base.rows[0].name));
        // A loose override on the drifting scenario forgives it even when
        // the default is tight (the other scenarios have zero drift, so
        // the tight default cannot trip them).
        base.tolerances = vec![(base.rows[0].name.clone(), 0.60)];
        assert!(compare(&base, &cur, 0.01).passed());
    }

    #[test]
    fn default_tolerances_are_tight_for_deterministic_scenarios() {
        let (seeds, rows) = tiny_rows();
        let summary = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        let tols = default_tolerances(&summary);
        assert_eq!(tols.len(), summary.rows.len());
        // line-worstcase is fully deterministic; self-heal too (line +
        // two-block + scripted fault).
        for (name, tol) in &tols {
            assert_eq!(*tol, TOL_TIGHT, "{name} should be tight");
        }
        // A random-family scenario gets the loose tolerance.
        let specs = vec![registry::find("geometric-dense")
            .unwrap()
            .scaled(Scale::Tiny)];
        let rows = run_campaign(&specs, &[0]).unwrap();
        let summary = TrendSummary::from_rows("r", Scale::Tiny, &[0], &rows);
        assert_eq!(default_tolerances(&summary)[0].1, TOL_LOOSE);
    }

    #[test]
    fn perturbed_recovery_slope_fails_the_envelope_gate() {
        // The regression the scalar gate cannot see: recovery takes a
        // different slope while the scalar stats barely move. A +40 %
        // recovery-slope drift must fail at the tight tolerance.
        let (seeds, rows) = tiny_rows();
        let base = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        let mut cur = base.clone();
        for row in &mut cur.rows {
            row.envelope.mean_recovery_slope *= 1.4;
        }
        let report = compare(&base, &cur, TOL_TIGHT);
        assert!(!report.passed(), "slope drift must gate");
        assert!(report.findings.iter().all(|f| f.column == "recovery slope"));
        // The very same artifacts pass when the envelope is unperturbed.
        assert!(compare(&base, &base, TOL_TIGHT).passed());
    }

    #[test]
    fn identical_artifacts_compare_clean() {
        let (seeds, rows) = tiny_rows();
        let summary = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        let report = compare(&summary, &summary, 0.05);
        assert!(report.passed(), "{:?}", report.findings);
        assert_eq!(report.table.row_count(), summary.rows.len());
    }

    #[test]
    fn injected_regression_is_flagged() {
        let (seeds, rows) = tiny_rows();
        let base = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        let mut cur = base.clone();
        // A +20 % global-skew regression in one scenario.
        cur.rows[0].mean_global *= 1.2;
        cur.rows[0].p90_global *= 1.2;
        let report = compare(&base, &cur, 0.10);
        assert!(!report.passed());
        assert!(report
            .findings
            .iter()
            .any(|f| f.scenario == base.rows[0].name && f.column == "global mean"));
        // The same drift sails through a generous tolerance.
        assert!(compare(&base, &cur, 0.30).passed());
    }

    #[test]
    fn drift_from_a_zero_baseline_reports_infinite_relative() {
        let (seeds, rows) = tiny_rows();
        let base = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        let mut cur = base.clone();
        let mut zero_base = base.clone();
        zero_base.rows[0].mean_stabilization = 0.0;
        cur.rows[0].mean_stabilization = 5.0;
        let report = compare(&zero_base, &cur, 0.10);
        let f = report
            .findings
            .iter()
            .find(|f| f.column == "stabilization")
            .expect("zero-baseline drift flagged");
        assert_eq!(f.relative(), f64::INFINITY, "must rank as worst, not +0%");
    }

    #[test]
    fn scenario_set_mismatches_are_structural_findings() {
        let (seeds, rows) = tiny_rows();
        let base = TrendSummary::from_rows("smoke", Scale::Tiny, &seeds, &rows);
        let mut cur = base.clone();
        let dropped = cur.rows.remove(0);
        let report = compare(&base, &cur, 0.5);
        assert!(report
            .findings
            .iter()
            .any(|f| f.scenario == dropped.name && f.column == "missing scenario"));
        let report = compare(&cur, &base, 0.5);
        assert!(report
            .findings
            .iter()
            .any(|f| f.scenario == dropped.name && f.column.starts_with("new scenario")));
    }

    #[test]
    fn stabilization_time_finds_the_recovery_point() {
        // Steady at 0.1, spike to 1.0 at t = 5, decays back by t = 8.
        let mut traj: Vec<(f64, f64)> = (0..=20).map(|k| (k as f64 * 0.5, 0.1)).collect();
        for (t, g) in traj.iter_mut() {
            if *t >= 5.0 {
                *g = (1.0 - (*t - 5.0) * 0.3).max(0.1);
            }
        }
        let st = stabilization_time(&traj);
        assert!((7.0..=9.0).contains(&st), "got {st}");
        // A flat run stabilizes immediately.
        let flat: Vec<(f64, f64)> = (0..=10).map(|k| (k as f64, 0.2)).collect();
        assert_eq!(stabilization_time(&flat), 0.0);
        assert_eq!(stabilization_time(&[]), 0.0);
        // A diverging run — still climbing when observation ends — never
        // settles: it reports the final instant, not "settled at t=0".
        let grow: Vec<(f64, f64)> = (0..=20)
            .map(|k| (k as f64 * 0.5, 0.01 * k as f64))
            .collect();
        assert_eq!(stabilization_time(&grow), 10.0);
    }
}
