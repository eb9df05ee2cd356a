//! The parallel sharded engine: conservative lookahead simulation that is
//! bit-identical to the sequential [`Simulation`].
//!
//! # Model-derived lookahead
//!
//! The paper's network model (§3.1) guarantees every message spends at
//! least the edge's minimum transit latency in flight. The smallest
//! `delay_min` over the scenario's edge universe is therefore a *lookahead
//! bound*: an event executed at time `s` cannot affect another shard
//! before `s + lookahead`. That is exactly the window width a conservative
//! parallel discrete-event simulator needs — no optimism, no rollback.
//!
//! # Architecture
//!
//! Nodes are partitioned into contiguous-ID shards ([`Partition`]). Each
//! shard owns a calendar [`EventQueue`] holding every node-local event
//! (floods, deliveries, rate changes, handshake timers) of its nodes, a
//! namespaced sequence counter, and private scratch. The master
//! [`Simulation`] keeps only the cross-shard-state events — ticks and
//! scripted edge transitions — plus all shared read-only state.
//!
//! [`ParallelSimulation::run_until`] advances in segments bounded by
//! `cut = min(target, next master event, earliest shard event + window)`.
//! Within a segment, worker threads drain their shard's events `≤ cut`
//! (clean `split_at_mut` borrows of the node array and hot columns — no
//! locks, no `unsafe`), exchanging cross-shard deliveries through
//! mailboxes at round barriers; then the master executes its events at
//! `cut` sequentially (mode re-evaluation sweeps, edge up/down), routing
//! any node-local events they spawn back to the owning shard.
//!
//! # Why the merged order is the sequential order
//!
//! - Routed events keep their original `(time, seq)` keys, and all
//!   shard-spawned events draw keys from per-shard counters namespaced
//!   above every build-time key, so the merged key order is a pure
//!   function of the simulation — never of thread scheduling.
//! - Capping `cut` at the next master event time means master events only
//!   ever execute at `time == cut`, after every shard event `< cut`. The
//!   boundary instant itself is merged explicitly: master and shard events
//!   at exactly `cut` run in ascending sequence order — the order the
//!   sequential engine's single queue pops them — so even a delivery
//!   colliding with a scripted edge transition lands on the correct side
//!   of the §3.1 delivery rule.
//! - Cross-shard deliveries land at `≥ cut` by the lookahead bound, so no
//!   shard ever receives an event earlier than something it already ran.
//! - Same-instant deliveries to one node (a flood fan-out over
//!   equal-latency edges) commute: bound merges are max/min operations and
//!   per-sender estimate slots are disjoint.
//!
//! The equivalence test grid (scenarios × shard counts × partitioners)
//! enforces all of this bit-for-bit, counters included.

use std::collections::HashMap;
use std::ops::Range;

use rand::rngs::StdRng;

use gcs_net::{DynamicGraph, EdgeKey, EdgeParams, NodeId};
use gcs_sim::{EventQueue, SimTime};
use gcs_telemetry::{LocalCounters, TelemetrySink};

use crate::node::NodeState;
use crate::params::Params;
use crate::shard::{balanced_ranges, contiguous_ranges, owner, owning_node, LocalCtx, ShardSink};
use crate::sim::{BuildError, Event, SimBuilder, SimStats, Simulation};
use gcs_protocol::EdgeInfo;

/// Shard-spawned events take sequence keys from per-shard counters
/// namespaced above this bit, keeping them disjoint from build-time keys
/// (small integers) and from every other shard.
const SEQ_NAMESPACE_SHIFT: u32 = 48;

/// How the node set is split into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Contiguous ID blocks of (nearly) equal node count.
    #[default]
    Contiguous,
    /// Contiguous ID blocks balanced by node degree in the scenario's
    /// edge universe — better load balance when degree is skewed (the
    /// per-node event rate is roughly proportional to degree).
    DegreeBalanced,
}

/// Why [`ParallelSimBuilder::build`] refused to construct an engine.
#[derive(Debug)]
pub enum ParallelBuildError {
    /// The underlying sequential build failed.
    Build(BuildError),
    /// Diameter tracking observes every delivery globally and is only
    /// supported on the sequential engine.
    DiameterTrackingUnsupported,
    /// The scenario's minimum transit latency is zero (or there are no
    /// edges with positive `delay_min`), so no conservative window exists
    /// for more than one shard.
    NoLookahead,
    /// A window override exceeded the model-derived lookahead bound.
    ///
    /// A window wider than the minimum transit latency would let a
    /// cross-shard message land inside an already-drained window —
    /// conservative synchronization is unsound past that bound, so the
    /// builder rejects it at construction.
    WindowTooWide {
        /// The requested window (seconds).
        requested: f64,
        /// The largest sound window: the scenario's minimum `delay_min`.
        max: f64,
    },
}

impl std::fmt::Display for ParallelBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelBuildError::Build(e) => write!(f, "{e}"),
            ParallelBuildError::DiameterTrackingUnsupported => {
                f.write_str("diameter tracking is only supported on the sequential engine")
            }
            ParallelBuildError::NoLookahead => f.write_str(
                "scenario has no positive minimum transit latency: no conservative window exists",
            ),
            ParallelBuildError::WindowTooWide { requested, max } => write!(
                f,
                "window {requested} exceeds the lookahead bound {max} (minimum transit latency)"
            ),
        }
    }
}

impl std::error::Error for ParallelBuildError {}

impl From<BuildError> for ParallelBuildError {
    fn from(e: BuildError) -> Self {
        ParallelBuildError::Build(e)
    }
}

/// Builder for [`ParallelSimulation`]: wraps a fully configured
/// [`SimBuilder`] and adds the sharding knobs.
#[derive(Debug)]
pub struct ParallelSimBuilder {
    inner: SimBuilder,
    shards: usize,
    partition: Partition,
    window_override: Option<f64>,
}

impl ParallelSimBuilder {
    /// Wraps a configured sequential builder. Defaults: 1 shard,
    /// contiguous partition, model-derived window.
    #[must_use]
    pub fn new(inner: SimBuilder) -> Self {
        ParallelSimBuilder {
            inner,
            shards: 1,
            partition: Partition::Contiguous,
            window_override: None,
        }
    }

    /// Number of shards (worker parallelism). Clamped to the node count
    /// at build time.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Partitioning strategy.
    #[must_use]
    pub fn partition(mut self, p: Partition) -> Self {
        self.partition = p;
        self
    }

    /// Overrides the synchronization window width (seconds).
    ///
    /// Only narrowing is allowed: build fails with
    /// [`ParallelBuildError::WindowTooWide`] if the override exceeds the
    /// scenario's minimum transit latency, because a wider window is not
    /// a conservative lookahead and would break determinism.
    #[must_use]
    pub fn lookahead_override(mut self, window: f64) -> Self {
        self.window_override = Some(window);
        self
    }

    /// Builds the sharded engine.
    ///
    /// # Errors
    ///
    /// Everything [`SimBuilder::build`] rejects, plus the parallel-only
    /// conditions documented on [`ParallelBuildError`].
    pub fn build(self) -> Result<ParallelSimulation, ParallelBuildError> {
        if self.inner.track_diameter {
            return Err(ParallelBuildError::DiameterTrackingUnsupported);
        }
        let mut sim = self.inner.build()?;
        let n = sim.nodes.len();
        let shards = self.shards.min(n);

        // Model-derived lookahead: the smallest minimum transit latency
        // over the scenario's whole edge universe (§3.1 lower bound).
        let lookahead = sim
            .edge_info
            .values()
            .map(|info| info.params.delay_min)
            .fold(f64::INFINITY, f64::min);
        let window = match self.window_override {
            Some(w) if w > lookahead => {
                return Err(ParallelBuildError::WindowTooWide {
                    requested: w,
                    max: lookahead,
                });
            }
            Some(w) => w,
            None => lookahead,
        };
        let window = if shards == 1 { f64::INFINITY } else { window };
        if window.is_nan() || window <= 0.0 {
            return Err(ParallelBuildError::NoLookahead);
        }

        let ranges = match self.partition {
            Partition::Contiguous => contiguous_ranges(n, shards),
            Partition::DegreeBalanced => {
                let mut degree = vec![0u64; n];
                for key in sim.edge_info.keys() {
                    degree[key.lo().index()] += 1;
                    degree[key.hi().index()] += 1;
                }
                balanced_ranges(&degree, shards)
            }
        };
        let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        let mut shard_states: Vec<Shard> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, range)| Shard {
                index: i,
                range,
                queue: EventQueue::new(),
                seq: (i as u64 + 1) << SEQ_NAMESPACE_SHIFT,
                stats: SimStats::default(),
                flood_buf: Vec::new(),
                outbox: Vec::new(),
                tel: LocalCounters::default(),
            })
            .collect();

        // Deal the build-time events out by owner, preserving their
        // original (time, seq) keys: the master keeps ticks and scripted
        // edge transitions; each shard gets its nodes' local events.
        let mut master: EventQueue<Event> = EventQueue::new();
        let mut built = std::mem::replace(&mut sim.queue, EventQueue::new());
        while let Some((t, seq, ev)) = built.pop_keyed() {
            match owning_node(&ev) {
                None => master.schedule_keyed(t, seq, ev),
                Some(u) => shard_states[owner(&starts, u)]
                    .queue
                    .schedule_keyed(t, seq, ev),
            }
        }
        sim.queue = master;
        // Arm the redirect seam: node-local events spawned by master-side
        // handlers now surface in `sim.redirect` for routing.
        sim.redirect = Some(Vec::new());

        Ok(ParallelSimulation {
            sim,
            shards: shard_states,
            starts,
            window,
        })
    }
}

/// One shard: a contiguous node range, its event queue, its namespaced
/// sequence counter, and private scratch.
#[derive(Debug)]
struct Shard {
    index: usize,
    range: Range<usize>,
    queue: EventQueue<Event>,
    seq: u64,
    stats: SimStats,
    flood_buf: Vec<(NodeId, EdgeParams)>,
    outbox: Vec<(usize, SimTime, u64, Event)>,
    /// Telemetry counter block this shard accumulates into (when enabled);
    /// folded into the master sink by `merge_stats`, like `stats`.
    tel: LocalCounters,
}

/// Read-only state shared by all workers during a drain round.
struct SharedCtx<'a> {
    params: &'a Params,
    message_mode: bool,
    edge_info: &'a HashMap<EdgeKey, EdgeInfo>,
    graph: &'a DynamicGraph,
    refresh: f64,
    starts: &'a [usize],
    /// Whether a telemetry sink is installed (workers can't touch the
    /// sink itself — they count into their shard's block instead).
    telemetry: bool,
}

/// One worker's disjoint mutable state for a drain round: its shard plus
/// the matching slices of the node array and hot columns.
struct Work<'a> {
    shard: &'a mut Shard,
    nodes: &'a mut [NodeState],
    stable_until: &'a mut [f64],
    m_jump_sensitive: &'a mut [bool],
    delay_rng: &'a mut [StdRng],
}

/// Splits one column into per-shard `&mut` slices along `ranges`
/// (contiguous, ascending, starting at 0).
fn split_ranges<'a, T>(mut rest: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut offset = 0;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.end - offset);
        out.push(head);
        rest = tail;
        offset = r.end;
    }
    out
}

/// Drains every event inside the segment (`< cut` when `strict`, else
/// `≤ cut`) from one shard, running the shared node-local handlers with a
/// [`ShardSink`]. Runs on a worker thread.
fn drain_one(work: Work<'_>, shared: &SharedCtx<'_>, cut: SimTime, strict: bool) {
    let Work {
        shard,
        nodes,
        stable_until,
        m_jump_sensitive,
        delay_rng,
    } = work;
    let Shard {
        index,
        range,
        queue,
        seq,
        stats,
        flood_buf,
        outbox,
        tel,
    } = shard;
    loop {
        match queue.next_time() {
            Some(t) if t < cut || (!strict && t == cut) => {}
            _ => break,
        }
        let (t, _seq, ev) = queue.pop_keyed().expect("peeked");
        stats.events += 1;
        let mut sink = ShardSink {
            queue: &mut *queue,
            starts: shared.starts,
            shard: *index,
            seq: &mut *seq,
            outbox: &mut *outbox,
        };
        let mut ctx = LocalCtx {
            range: range.clone(),
            nodes: &mut *nodes,
            stable_until: &mut *stable_until,
            m_jump_sensitive: &mut *m_jump_sensitive,
            delay_rng: &mut *delay_rng,
            stats: &mut *stats,
            sink: &mut sink,
            flood_buf: &mut *flood_buf,
            params: shared.params,
            message_mode: shared.message_mode,
            edge_info: shared.edge_info,
            graph: shared.graph,
            diameter: None,
            refresh: shared.refresh,
            tel: if shared.telemetry {
                Some(&mut *tel)
            } else {
                None
            },
        };
        ctx.handle(t, ev);
    }
}

/// The sharded engine. Observation goes through `Deref<Target =
/// Simulation>`: snapshots, change log, stats, and node accessors all
/// read the master state, which is fully synchronized whenever no
/// `run_until` call is in progress.
#[derive(Debug)]
pub struct ParallelSimulation {
    sim: Simulation,
    shards: Vec<Shard>,
    starts: Vec<usize>,
    window: f64,
}

impl std::ops::Deref for ParallelSimulation {
    type Target = Simulation;

    fn deref(&self) -> &Simulation {
        &self.sim
    }
}

impl ParallelSimulation {
    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The synchronization window width in seconds (`INFINITY` for a
    /// single shard, which needs no cross-shard rendezvous).
    #[must_use]
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Runs until simulated time `t` (inclusive), bit-identically to
    /// [`Simulation::run_until`] on the same configuration and seed.
    pub fn run_until(&mut self, target: SimTime) {
        assert!(target >= self.sim.now, "cannot run backwards to {target:?}");
        loop {
            // Conservative segment bound: nothing at or before `cut` can
            // still be affected by an unexecuted event elsewhere.
            let master_next = self.sim.queue.next_time();
            let earliest = self
                .shards
                .iter_mut()
                .filter_map(|s| s.queue.next_time())
                .fold(None, |acc: Option<SimTime>, t| {
                    Some(acc.map_or(t, |a| a.min(t)))
                });
            let mut cut = target;
            if let Some(m) = master_next {
                cut = cut.min(m);
            }
            if self.window.is_finite() {
                if let Some(e) = earliest {
                    cut = cut.min(SimTime::from_secs(e.as_secs() + self.window));
                }
            }
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                sink.on_segment_cut(cut.as_secs());
            }

            // 1. Shard events strictly before the cut, in parallel.
            //    Events exactly *at* the cut are boundary events: the cut
            //    is capped at the next master event, so a scripted edge
            //    transition can coincide with a same-instant delivery or
            //    flood there, and those must not run before the master's
            //    earlier-keyed events.
            self.drain_shards(cut, true);
            // 2. The boundary instant itself: master events and shard
            //    events at exactly the cut, interleaved in ascending
            //    sequence order — the order the sequential engine's single
            //    queue pops them. This pins the §3.1 closed-interval
            //    semantics at window barriers: an edge up exactly at a send
            //    time delivers, a removal exactly at a delivery instant
            //    drops (scripted transitions carry build-time keys, which
            //    sort before every dynamically spawned event).
            // 3. Node-local events the master spawned (leader checks from
            //    edge-ups) go to their owners; redirected events land at or
            //    after the cut, so only another boundary pass can run any
            //    that landed inside this segment.
            loop {
                self.boundary_merge(cut);
                if !self.route_redirects(cut) {
                    break;
                }
            }
            if cut >= target {
                break;
            }
            self.sim.now = cut;
        }
        self.sim.now = target;
        self.merge_stats();
        self.sim.advance_all(target);
    }

    /// [`run_until`](ParallelSimulation::run_until) with a plain seconds
    /// argument.
    pub fn run_until_secs(&mut self, secs: f64) {
        self.run_until(SimTime::from_secs(secs));
    }

    /// Injects a clock fault (see [`Simulation::inject_clock_offset`]).
    /// Shards are quiescent between `run_until` calls, so the master may
    /// mutate node state directly.
    pub fn inject_clock_offset(&mut self, u: NodeId, offset: f64) {
        self.sim.inject_clock_offset(u, offset);
    }

    /// Installs a scripted estimate corruption (see
    /// [`Simulation::inject_estimate_bias`]).
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is finite and within `[-1, 1]`.
    pub fn inject_estimate_bias(&mut self, u: NodeId, bias: f64) {
        self.sim.inject_estimate_bias(u, bias);
    }

    /// Installs a telemetry sink (see [`Simulation::set_telemetry`]).
    /// Master-side hooks report through it directly; shard workers count
    /// into per-shard blocks that are folded in at stats merges.
    pub fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        self.sim.set_telemetry(sink);
    }

    /// Removes the telemetry sink (shard counter blocks were already
    /// flushed by the stats merge at the end of the last `run_until`).
    pub fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.sim.take_telemetry()
    }

    /// Pending events across the master queue and every shard queue. At
    /// quiescence (between `run_until` calls) the pending multiset is
    /// engine-invariant, so this gauge matches the sequential engine's.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.sim.queue.len() + self.shards.iter().map(|s| s.queue.len()).sum::<usize>()
    }

    /// Runs drain rounds until every shard's next event is outside the
    /// segment: each round drains all shards in parallel, then exchanges
    /// mailbox deliveries at the barrier; only an exchanged event landing
    /// back inside the segment (possible exactly at the lookahead bound on
    /// zero-jitter edges) forces another round. With `strict` the segment
    /// is `t < cut` — events exactly at the cut stay queued for the
    /// boundary merge, which orders them against same-instant master
    /// events; without it the segment is `t ≤ cut`.
    fn drain_shards(&mut self, cut: SimTime, strict: bool) {
        let inside = |t: SimTime| if strict { t < cut } else { t <= cut };
        loop {
            let active: Vec<bool> = self
                .shards
                .iter_mut()
                .map(|s| matches!(s.queue.next_time(), Some(t) if inside(t)))
                .collect();
            let busy = active.iter().filter(|&&a| a).count();
            if busy == 0 {
                return;
            }
            self.drain_round(&active, cut, strict);
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                sink.on_barrier_round(busy, active.len() - busy);
            }
            // Barrier: exchange cross-shard deliveries.
            let mut moved: Vec<(usize, SimTime, u64, Event)> = Vec::new();
            for s in &mut self.shards {
                moved.append(&mut s.outbox);
            }
            if !moved.is_empty() {
                if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                    sink.on_mailbox(moved.len());
                }
            }
            let mut exchanged_in_window = false;
            for (dest, t, seq, ev) in moved {
                exchanged_in_window |= inside(t);
                self.shards[dest].queue.schedule_keyed(t, seq, ev);
            }
            if !exchanged_in_window {
                return;
            }
        }
    }

    /// Executes every event scheduled exactly at `cut` — master and shard
    /// alike — in ascending sequence order, i.e. exactly the order the
    /// sequential engine's single queue would pop them. Shard events run
    /// on the calling thread against the full node range, but keep their
    /// owning shard's sink, sequence counter, stats, per-node RNG rows,
    /// and telemetry block, so spawned keys and per-shard counters are
    /// indistinguishable from a parallel drain. Cross-shard deliveries
    /// spawned here (which land strictly later — the builder guarantees a
    /// positive lookahead) are exchanged before returning.
    fn boundary_merge(&mut self, cut: SimTime) {
        loop {
            let master = self
                .sim
                .queue
                .next_key()
                .filter(|&(t, _)| t == cut)
                .map(|(_, seq)| seq);
            let shard = self
                .shards
                .iter_mut()
                .filter_map(|s| {
                    let (t, seq) = s.queue.next_key()?;
                    (t == cut).then_some((seq, s.index))
                })
                .min();
            match (master, shard) {
                (None, None) => break,
                (Some(_), None) => self.pop_master_at(cut),
                (None, Some((_, i))) => self.pop_shard_at(i, cut),
                (Some(m), Some((s, i))) => {
                    if m < s {
                        self.pop_master_at(cut);
                    } else {
                        self.pop_shard_at(i, cut);
                    }
                }
            }
        }
        let mut moved: Vec<(usize, SimTime, u64, Event)> = Vec::new();
        for s in &mut self.shards {
            moved.append(&mut s.outbox);
        }
        if !moved.is_empty() {
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                sink.on_mailbox(moved.len());
            }
            for (dest, t, seq, ev) in moved {
                debug_assert!(t > cut, "boundary sends land after the cut");
                self.shards[dest].queue.schedule_keyed(t, seq, ev);
            }
        }
    }

    /// Pops and executes the master queue's earliest event (at `cut`).
    fn pop_master_at(&mut self, cut: SimTime) {
        let (when, ev) = self.sim.queue.pop().expect("peeked");
        debug_assert_eq!(when, cut);
        self.sim.now = when;
        self.sim.stats.events += 1;
        self.sim.handle(when, ev);
    }

    /// Pops and executes shard `index`'s earliest event (at `cut`) on the
    /// calling thread, with the shard's own sink, stats, and counters.
    fn pop_shard_at(&mut self, index: usize, cut: SimTime) {
        let sim = &mut self.sim;
        let Shard {
            index: _,
            range: _,
            queue,
            seq,
            stats,
            flood_buf,
            outbox,
            tel,
        } = &mut self.shards[index];
        let (t, _seq, ev) = queue.pop_keyed().expect("peeked");
        debug_assert_eq!(t, cut);
        stats.events += 1;
        let mut sink = ShardSink {
            queue: &mut *queue,
            starts: &self.starts,
            shard: index,
            seq: &mut *seq,
            outbox: &mut *outbox,
        };
        let mut ctx = LocalCtx {
            range: 0..sim.nodes.len(),
            nodes: &mut sim.nodes,
            stable_until: &mut sim.hot.stable_until,
            m_jump_sensitive: &mut sim.hot.m_jump_sensitive,
            delay_rng: &mut sim.hot.delay_rng,
            stats: &mut *stats,
            sink: &mut sink,
            flood_buf: &mut *flood_buf,
            params: &sim.params,
            message_mode: matches!(sim.mode, crate::EstimateMode::Messages),
            edge_info: &sim.edge_info,
            graph: &sim.graph,
            diameter: None,
            refresh: sim.refresh,
            tel: if sim.telemetry.is_some() {
                Some(&mut *tel)
            } else {
                None
            },
        };
        ctx.handle(t, ev);
    }

    /// One parallel round: every active shard drains on its own thread
    /// (the first active one on the calling thread), with disjoint
    /// `split_at_mut` borrows of the node array and hot columns.
    fn drain_round(&mut self, active: &[bool], cut: SimTime, strict: bool) {
        let sim = &mut self.sim;
        let shared = SharedCtx {
            params: &sim.params,
            message_mode: matches!(sim.mode, crate::EstimateMode::Messages),
            edge_info: &sim.edge_info,
            graph: &sim.graph,
            refresh: sim.refresh,
            starts: &self.starts,
            telemetry: sim.telemetry.is_some(),
        };
        let ranges: Vec<Range<usize>> = self.shards.iter().map(|s| s.range.clone()).collect();
        let node_cols = split_ranges(&mut sim.nodes, &ranges);
        let su_cols = split_ranges(&mut sim.hot.stable_until, &ranges);
        let mj_cols = split_ranges(&mut sim.hot.m_jump_sensitive, &ranges);
        let dr_cols = split_ranges(&mut sim.hot.delay_rng, &ranges);
        let mut works: Vec<Option<Work<'_>>> = Vec::with_capacity(self.shards.len());
        for ((((shard, nodes), stable_until), m_jump_sensitive), delay_rng) in self
            .shards
            .iter_mut()
            .zip(node_cols)
            .zip(su_cols)
            .zip(mj_cols)
            .zip(dr_cols)
        {
            let is_active = active[shard.index];
            let w = Work {
                shard,
                nodes,
                stable_until,
                m_jump_sensitive,
                delay_rng,
            };
            works.push(is_active.then_some(w));
        }
        let mut iter = works.into_iter().flatten();
        let first = iter.next().expect("at least one active shard");
        let rest: Vec<Work<'_>> = iter.collect();
        if rest.is_empty() {
            drain_one(first, &shared, cut, strict);
        } else {
            let shared = &shared;
            std::thread::scope(|scope| {
                for w in rest {
                    scope.spawn(move || drain_one(w, shared, cut, strict));
                }
                drain_one(first, shared, cut, strict);
            });
        }
    }

    /// Routes master-spawned node-local events to their owning shards
    /// with owner-namespaced keys, in spawn order. Returns whether any
    /// landed at or before `cut`.
    fn route_redirects(&mut self, cut: SimTime) -> bool {
        let buf = self
            .sim
            .redirect
            .as_mut()
            .expect("parallel engine always arms the redirect seam");
        if buf.is_empty() {
            return false;
        }
        let drained: Vec<(SimTime, Event)> = std::mem::take(buf);
        let mut in_window = false;
        for (t, ev) in drained {
            let u = owning_node(&ev).expect("redirected events are node-local");
            let shard = &mut self.shards[owner(&self.starts, u)];
            let seq = shard.seq;
            shard.seq += 1;
            shard.queue.schedule_keyed(t, seq, ev);
            in_window |= t <= cut;
        }
        in_window
    }

    /// Folds every shard's counters into the master stats (shard
    /// accumulators reset to zero), so the `Deref`'d
    /// [`Simulation::stats`] is exact at every observation point.
    fn merge_stats(&mut self) {
        for s in &mut self.shards {
            let st = std::mem::take(&mut s.stats);
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                let tel = std::mem::take(&mut s.tel);
                sink.on_local(s.index, &tel);
                sink.on_shard_drained(s.index, st.events);
            }
            let total = &mut self.sim.stats;
            total.messages_sent += st.messages_sent;
            total.messages_delivered += st.messages_delivered;
            total.messages_dropped += st.messages_dropped;
            total.ticks += st.ticks;
            total.events += st.events;
            total.mode_evaluations += st.mode_evaluations;
            total.handshakes_offered += st.handshakes_offered;
            total.insertions_scheduled += st.insertions_scheduled;
        }
    }
}

/// Engine-invariant gauges read at a quiescent instant — the streaming
/// snapshot hook the per-sample observation loops use instead of
/// materializing a full [`ClockSnapshot`](crate::ClockSnapshot). Every
/// field is deterministic and identical across the sequential and the
/// sharded engine at any shard count (the telemetry trace contract leans
/// on this), and reading them allocates nothing, so observers stay
/// bounded-memory at 10⁵ nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineGauges {
    /// The current instant, seconds.
    pub t: f64,
    /// `max_u L_u − min_u L_u` over all logical clocks.
    pub global_skew: f64,
    /// Pending events across every queue the engine owns.
    pub queue_depth: usize,
    /// Nodes whose stability horizon has expired (the next tick sweep's
    /// work).
    pub dirty_nodes: usize,
    /// Total events processed so far.
    pub events: u64,
}

/// A uniform driving interface over the sequential and sharded engines,
/// so campaign/bench/conformance code is generic in which one it runs.
pub trait Engine {
    /// Runs until `secs` simulated seconds (inclusive).
    fn run_until_secs(&mut self, secs: f64);

    /// Reads the engine-invariant [`EngineGauges`] at the current
    /// (quiescent) instant, allocation-free.
    fn gauges(&self) -> EngineGauges {
        let sim = self.as_sim();
        EngineGauges {
            t: sim.now().as_secs(),
            global_skew: sim.global_skew_now(),
            queue_depth: self.pending_events(),
            dirty_nodes: sim.dirty_nodes(),
            events: sim.stats().events,
        }
    }
    /// Injects a clock fault at the current instant.
    fn inject_clock_offset(&mut self, u: NodeId, offset: f64);
    /// Installs a scripted estimate corruption at the current instant.
    fn inject_estimate_bias(&mut self, u: NodeId, bias: f64);
    /// The master simulation state, for observation.
    fn as_sim(&self) -> &Simulation;
    /// Installs a telemetry sink (post-build, either engine).
    fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>);
    /// Removes the telemetry sink, flushing pending counters into it.
    fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>>;
    /// Pending events across every queue this engine owns (an
    /// engine-invariant gauge at quiescent instants).
    fn pending_events(&self) -> usize;
}

impl Engine for Simulation {
    fn run_until_secs(&mut self, secs: f64) {
        Simulation::run_until_secs(self, secs);
    }

    fn inject_clock_offset(&mut self, u: NodeId, offset: f64) {
        Simulation::inject_clock_offset(self, u, offset);
    }

    fn inject_estimate_bias(&mut self, u: NodeId, bias: f64) {
        Simulation::inject_estimate_bias(self, u, bias);
    }

    fn as_sim(&self) -> &Simulation {
        self
    }

    fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        Simulation::set_telemetry(self, sink);
    }

    fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        Simulation::take_telemetry(self)
    }

    fn pending_events(&self) -> usize {
        Simulation::pending_events(self)
    }
}

impl Engine for ParallelSimulation {
    fn run_until_secs(&mut self, secs: f64) {
        ParallelSimulation::run_until_secs(self, secs);
    }

    fn inject_clock_offset(&mut self, u: NodeId, offset: f64) {
        ParallelSimulation::inject_clock_offset(self, u, offset);
    }

    fn inject_estimate_bias(&mut self, u: NodeId, bias: f64) {
        ParallelSimulation::inject_estimate_bias(self, u, bias);
    }

    fn as_sim(&self) -> &Simulation {
        self
    }

    fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        ParallelSimulation::set_telemetry(self, sink);
    }

    fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        ParallelSimulation::take_telemetry(self)
    }

    fn pending_events(&self) -> usize {
        ParallelSimulation::pending_events(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Payload;
    use gcs_net::Topology;
    use gcs_sim::DriftModel;

    fn builder(seed: u64) -> SimBuilder {
        let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        SimBuilder::new(params)
            .topology(Topology::ring(4))
            .drift(DriftModel::TwoBlock)
            .seed(seed)
    }

    /// A flood whose bounds no organic run could produce, so whether it
    /// was delivered is visible in the receiver's state.
    fn poison() -> Payload {
        Payload::Flood {
            logical: 1.0e6,
            max_est: 1.0e6,
            min_lb: 0.0,
            max_ub: 2.0e6,
        }
    }

    /// §3.1 boundary, removal side: an edge removal scheduled at exactly a
    /// delivery instant sorts first (scripted transitions carry build-time
    /// keys, below every dynamic key), so the message drops — and the
    /// sharded engine must reproduce that at its window barrier, where the
    /// removal is a master event and the delivery a shard event. Before
    /// the boundary merge, the shard drained its side of the instant
    /// first and delivered through the removed edge.
    #[test]
    fn removal_at_the_delivery_instant_drops_in_both_engines() {
        let cut = SimTime::from_secs(1.7717);
        let sent = SimTime::from_secs(1.7);
        let dyn_seq = (1u64 << SEQ_NAMESPACE_SHIFT) | 7;
        let down = || Event::EdgeDown {
            from: NodeId(1),
            to: NodeId(0),
        };
        let deliver = || Event::Deliver {
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: sent,
            payload: poison(),
        };

        let mut seq_sim = builder(11).build().unwrap();
        let mut par = ParallelSimBuilder::new(builder(11))
            .shards(2)
            .build()
            .unwrap();
        seq_sim.run_until_secs(1.0);
        par.run_until_secs(1.0);

        seq_sim.queue.schedule_keyed(cut, 1_000, down());
        seq_sim.queue.schedule_keyed(cut, dyn_seq, deliver());
        par.sim.queue.schedule_keyed(cut, 1_000, down());
        let shard = owner(&par.starts, 1);
        par.shards[shard]
            .queue
            .schedule_keyed(cut, dyn_seq, deliver());

        let dropped_before = seq_sim.stats().messages_dropped;
        seq_sim.run_until_secs(2.5);
        par.run_until_secs(2.5);

        assert!(
            seq_sim.stats().messages_dropped > dropped_before,
            "the colliding delivery must be dropped"
        );
        assert!(
            seq_sim.nodes[1].max_estimate() < 1.0e5,
            "sequential engine delivered through a removed edge"
        );
        assert!(
            par.nodes[1].max_estimate() < 1.0e5,
            "sharded engine delivered through a removed edge"
        );
        assert_eq!(seq_sim.stats(), par.stats());
        assert_eq!(seq_sim.snapshot().logical, par.snapshot().logical);
    }

    /// §3.1 boundary, insertion side: a message sent at exactly the
    /// instant the receiver discovered the sender is deliverable — the
    /// presence interval is closed on the left — identically in both
    /// engines (here across the shard boundary).
    #[test]
    fn send_at_the_discovery_instant_delivers_in_both_engines() {
        let at = SimTime::from_secs(0.006);
        let sent = SimTime::from_secs(0.0);
        let dyn_seq = (1u64 << SEQ_NAMESPACE_SHIFT) | 7;
        let deliver = || Event::Deliver {
            src: NodeId(2),
            dst: NodeId(1),
            sent_at: sent,
            payload: poison(),
        };

        let mut seq_sim = builder(17).build().unwrap();
        seq_sim.queue.schedule_keyed(at, dyn_seq, deliver());
        let mut par = ParallelSimBuilder::new(builder(17))
            .shards(2)
            .build()
            .unwrap();
        let shard = owner(&par.starts, 1);
        par.shards[shard]
            .queue
            .schedule_keyed(at, dyn_seq, deliver());

        seq_sim.run_until_secs(1.0);
        par.run_until_secs(1.0);

        assert!(
            seq_sim.nodes[1].max_estimate() >= 1.0e6,
            "the boundary send must be delivered"
        );
        assert_eq!(seq_sim.stats(), par.stats());
        assert_eq!(seq_sim.snapshot().logical, par.snapshot().logical);
        assert_eq!(
            seq_sim.nodes[1].max_estimate().to_bits(),
            par.nodes[1].max_estimate().to_bits()
        );
    }
}
