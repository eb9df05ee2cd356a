//! [`NodeCore`]: one complete virtual node as a sans-IO state machine,
//! plus the derivation of the run constants every harness must agree on.
//!
//! A `NodeCore` is what the `gcs-node` socket daemon multiplexes over a
//! real transport: the caller owns time (it passes explicit [`SimTime`]
//! instants read from whatever clock it trusts) and transport (it carries
//! the returned [`Send`]s and feeds received messages back in). It keeps
//! its own flood and evaluation timers, on the engines' schedules; the
//! caller polls them ([`NodeCore::poll_sends`], [`NodeCore::poll_tick`]).
//! The state transitions are the same functions the simulation engines
//! execute — [`merge_flood`] for arrivals, the
//! [`ModePolicy`] triggers for decisions — so a message sequence recorded
//! from a simulation replays through a `NodeCore` bit-for-bit (the
//! engine-side property test pins this).
//!
//! Scope: `NodeCore` runs the *message-mode* estimate layer (clock
//! samples carried by the floods themselves) over a static neighbour set
//! installed fully inserted at startup. The staged insertion handshake
//! and the oracle estimate layer need engine-side machinery (scripted
//! truth, generation-tracked rediscovery) and stay in `gcs-core` for now.

use std::collections::HashMap;

use gcs_net::{EdgeKey, EdgeParamsMap, NodeId};
use gcs_sim::{SimDuration, SimTime};

use crate::edge_state::EdgeSlot;
use crate::estimate::EstimateMode;
use crate::flood::{flood_from, merge_flood, FloodMsg, MergeOutcome};
use crate::node::{EdgeInfo, NodeState};
use crate::params::{InsertionStrategy, Params};
use crate::triggers::{AoptPolicy, Mode, ModePolicy, NeighborView, NodeView};

/// One outbound message: the flood body to put on the wire for `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Send {
    /// The sending node (the wire frame carries it for routing).
    pub src: NodeId,
    /// The neighbour to deliver to.
    pub dst: NodeId,
    /// The send instant (travels with the message for the §3.1 check).
    pub sent_at: SimTime,
    /// The flood body.
    pub msg: FloodMsg,
}

/// The constants a run derives from its parameters and edge universe:
/// what [`derive_run_config`] returns.
///
/// Both the simulation builder and the daemon call the same derivation,
/// so a daemon cluster configured like a scenario uses bit-identical
/// `ε`/`κ`/`ι`/`G̃` values — the conformance oracle's envelope is
/// comparable across harnesses.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Parameters with `ι` and the static `G̃` filled in.
    pub params: Params,
    /// The flood refresh period (hardware seconds).
    pub refresh: f64,
    /// The mode-evaluation tick interval (seconds).
    pub tick: f64,
    /// Cached per-edge derived quantities for the whole edge universe.
    pub edge_info: HashMap<EdgeKey, EdgeInfo>,
}

/// Derives the run constants — refresh period, per-edge `ε`/`κ`/`δ`,
/// `ι`, the static `G̃` default, and the tick interval — from validated
/// parameters, an estimate layer, per-edge model parameters, and the
/// scenario's edge universe. This is the exact computation
/// `SimBuilder::build` performs (it delegates here).
#[must_use]
pub fn derive_run_config(
    base: &Params,
    mode: EstimateMode,
    edge_params: &EdgeParamsMap,
    universe: &[EdgeKey],
    n: usize,
) -> RunConfig {
    let refresh = base
        .refresh_period()
        .unwrap_or_else(|| edge_params.max_delay_bound());

    let mut edge_info = HashMap::with_capacity(universe.len());
    let mut kappa_min = f64::INFINITY;
    let mut per_hop_max = 0.0f64;
    for &e in universe {
        let ep = edge_params.get(e);
        let epsilon = mode.advertised_epsilon(base, ep, refresh);
        let kappa = base.kappa(ep, epsilon);
        let delta = base.delta(ep, epsilon);
        kappa_min = kappa_min.min(kappa);
        let drift_window = refresh / base.alpha() + ep.delay_bound();
        let per_hop = epsilon
            + base.mu() * ep.tau
            + (2.0 * base.rho() + base.mu() * base.rho()) * drift_window;
        per_hop_max = per_hop_max.max(per_hop);
        edge_info.insert(
            e,
            EdgeInfo {
                params: ep,
                epsilon,
                kappa,
                delta,
            },
        );
    }
    if !kappa_min.is_finite() {
        // A universe without any edges: still runnable (clocks free-run).
        kappa_min = 1.0;
        per_hop_max = 1.0;
    }

    let iota = kappa_min / 8.0;
    // Conservative static estimate: four times the worst-case accumulated
    // per-hop uncertainty across the longest possible path.
    let g_tilde_default = 4.0 * n as f64 * per_hop_max + iota;
    let params = base
        .clone()
        .with_iota_default(iota)
        .with_g_tilde_default(g_tilde_default);

    let tick = params
        .tick()
        .unwrap_or_else(|| kappa_min / (8.0 * params.beta()));

    RunConfig {
        params,
        refresh,
        tick,
        edge_info,
    }
}

/// A complete virtual node: clock/bound state, neighbour table, flood
/// schedule, and mode policy — everything but time and transport.
#[derive(Debug)]
pub struct NodeCore {
    state: NodeState,
    params: Params,
    policy: Box<dyn ModePolicy>,
    refresh: f64,
    next_flood: SimTime,
    tick: Option<SimDuration>,
    next_tick: SimTime,
    views: Vec<NeighborView>,
}

impl NodeCore {
    /// Creates a virtual node with the default [`AoptPolicy`].
    ///
    /// `params` must come out of [`derive_run_config`] (so `ι` and `G̃`
    /// are filled); `refresh` is the flood period in hardware seconds;
    /// `first_flood` schedules the initial broadcast (stagger these
    /// across a cluster so the network does not send in lockstep). No
    /// evaluation tick is set: give one with
    /// [`with_tick`](NodeCore::with_tick) to drive decisions through
    /// [`poll_tick`](NodeCore::poll_tick).
    #[must_use]
    pub fn new(
        id: NodeId,
        params: Params,
        refresh: f64,
        hw_rate: f64,
        first_flood: SimTime,
    ) -> Self {
        let policy = Box::new(AoptPolicy::new(params.max_levels()));
        NodeCore {
            state: NodeState::new(id, hw_rate),
            params,
            policy,
            refresh,
            next_flood: first_flood,
            tick: None,
            next_tick: SimTime::ZERO,
            views: Vec::new(),
        }
    }

    /// Sets the mode-evaluation tick interval ([`RunConfig::tick`], in
    /// seconds) and puts the first tick at `tick`, the instant the
    /// engines' first `Tick` event fires.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is not a positive finite number.
    #[must_use]
    pub fn with_tick(mut self, tick: f64) -> Self {
        assert!(
            tick.is_finite() && tick > 0.0,
            "tick interval must be positive and finite, got {tick}"
        );
        self.tick = Some(SimDuration::from_secs(tick));
        self.next_tick = SimTime::from_secs(tick);
        self
    }

    /// Read access to the tracked clock state.
    #[must_use]
    pub fn state(&self) -> &NodeState {
        &self.state
    }

    /// The run parameters this node decides under.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The instant of the next scheduled flood.
    #[must_use]
    pub fn next_flood_at(&self) -> SimTime {
        self.next_flood
    }

    /// The instant of the next evaluation tick, or `None` if no tick
    /// interval is set.
    #[must_use]
    pub fn next_tick_at(&self) -> Option<SimTime> {
        self.tick.map(|_| self.next_tick)
    }

    /// Installs `peer` as a fully inserted neighbour (the `N^s(0) = N(0)`
    /// startup case of §4.2: every configured edge is present and past
    /// its insertion schedule from the start).
    pub fn add_neighbor(&mut self, peer: NodeId, info: EdgeInfo) {
        self.state.slots.insert(peer, info, EdgeSlot::initial());
    }

    /// Drops `peer` from the neighbour table; returns whether it was
    /// present. Subsequent messages from it fail the delivery rule.
    pub fn remove_neighbor(&mut self, peer: NodeId) -> bool {
        self.state.slots.remove(peer)
    }

    /// Applies a hardware-clock rate change at `t` (the drift adversary,
    /// or a measured-frequency update from the host clock).
    pub fn set_hw_rate(&mut self, t: SimTime, rate: f64) {
        self.state.advance_to(t, &self.params);
        self.state.set_hw_rate(rate);
    }

    /// Brings the tracked clock values to `t` without deciding anything:
    /// a closed-form refresh that changes no later value. Call it before
    /// reading [`state`](NodeCore::state) at an instant no input touched.
    pub fn advance_to(&mut self, t: SimTime) {
        self.state.advance_to(t, &self.params);
    }

    /// Feeds one received flood message in. Returns `None` if the §3.1
    /// delivery rule drops it (unknown sender, or the slot was discovered
    /// after the send), otherwise what the merge changed.
    pub fn on_message(
        &mut self,
        t: SimTime,
        src: NodeId,
        sent_at: SimTime,
        msg: FloodMsg,
    ) -> Option<MergeOutcome> {
        let edge = match self.state.slots.entry(src) {
            Some(entry) if entry.slot.discovered_at <= sent_at => entry.info.params,
            _ => return None,
        };
        self.state.advance_to(t, &self.params);
        Some(merge_flood(
            &mut self.state,
            src,
            msg,
            edge,
            self.params.rho(),
            self.params.beta(),
        ))
    }

    /// Emits any flood due at `t` into `out` (one [`Send`] per
    /// neighbour) and schedules the next one `refresh` hardware seconds
    /// later. Call this whenever the caller's clock passes
    /// [`next_flood_at`](NodeCore::next_flood_at).
    pub fn poll_sends(&mut self, t: SimTime, out: &mut Vec<Send>) {
        if t < self.next_flood {
            return;
        }
        self.state.advance_to(t, &self.params);
        let msg = flood_from(&self.state);
        for entry in self.state.slots.iter() {
            out.push(Send {
                src: self.state.id(),
                dst: entry.id,
                sent_at: t,
                msg,
            });
        }
        let dt = self.refresh / self.state.hw_rate();
        self.next_flood = t + SimDuration::from_secs(dt);
    }

    /// Evaluates the mode triggers at `t` and applies the decision,
    /// returning the (possibly unchanged) mode. This is the tick-sweep
    /// body of the engines, without the incremental skipping — a polled
    /// node re-decides every call, which is always bit-identical to the
    /// certified skip (that is the certificates' soundness contract).
    pub fn evaluate(&mut self, t: SimTime) -> Mode {
        self.state.advance_to(t, &self.params);
        let mut views = std::mem::take(&mut self.views);
        self.fill_views(&mut views);
        let view = NodeView {
            logical: self.state.logical(),
            max_estimate: self.state.max_estimate(),
            current_mode: self.state.mode(),
            iota: self.params.iota(),
            mu: self.params.mu(),
            rho: self.params.rho(),
            neighbors: &views,
        };
        let mode = self.policy.decide(&view);
        self.state.set_mode(mode);
        self.views = views;
        mode
    }

    /// Evaluates the mode triggers if a tick is due at `t`, returning the
    /// decision, and `None` otherwise (or if no tick interval is set).
    ///
    /// Ticks lie on the engines' grid: the first at `tick`, each next one
    /// the previous due instant plus `tick`, accumulated the same way the
    /// engines reschedule their `Tick` event. A poll that comes several
    /// ticks late evaluates once, at `t`, and skips the missed grid
    /// instants rather than replaying them.
    pub fn poll_tick(&mut self, t: SimTime) -> Option<Mode> {
        let tick = self.tick?;
        if t < self.next_tick {
            return None;
        }
        while self.next_tick <= t {
            self.next_tick += tick;
        }
        Some(self.evaluate(t))
    }

    /// The message-mode neighbour views: the same per-entry computation
    /// as the engines' view fill, minus the oracle-layer branches (a
    /// `NodeCore` has no scripted truth to read).
    fn fill_views(&self, out: &mut Vec<NeighborView>) {
        out.clear();
        let logical = self.state.logical();
        let hw = self.state.hardware();
        for entry in self.state.slots.iter() {
            let info = &entry.info;
            let level = entry.slot.insert.level_at(logical);
            let (kappa, delta) = match self.params.insertion_strategy() {
                InsertionStrategy::Staged => (info.kappa, info.delta),
                InsertionStrategy::DecayingWeight { halving } => {
                    let k = entry
                        .slot
                        .insert
                        .effective_kappa(logical, info.kappa, halving);
                    (k, self.params.delta_for_kappa(k, info.params, info.epsilon))
                }
            };
            out.push(NeighborView {
                estimate: entry.slot.reckoned_estimate(hw),
                kappa,
                epsilon: info.epsilon,
                tau: info.params.tau,
                delta,
                level,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_net::EdgeParams;

    fn two_node_universe() -> (Vec<EdgeKey>, EdgeParamsMap) {
        let universe = vec![EdgeKey::new(NodeId(0), NodeId(1))];
        let map = EdgeParamsMap::uniform(EdgeParams::default());
        (universe, map)
    }

    fn config() -> RunConfig {
        let base = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        let (universe, map) = two_node_universe();
        derive_run_config(&base, EstimateMode::Messages, &map, &universe, 2)
    }

    fn core(id: u32, cfg: &RunConfig, hw_rate: f64) -> NodeCore {
        let mut c = NodeCore::new(
            NodeId(id),
            cfg.params.clone(),
            cfg.refresh,
            hw_rate,
            SimTime::ZERO,
        );
        let info = cfg.edge_info[&EdgeKey::new(NodeId(0), NodeId(1))];
        c.add_neighbor(NodeId(1 - id), info);
        c
    }

    #[test]
    fn derive_fills_iota_and_g_tilde() {
        let cfg = config();
        assert!(cfg.params.iota() > 0.0);
        assert!(cfg.params.g_tilde().unwrap() > 0.0);
        assert!(cfg.refresh > 0.0 && cfg.tick > 0.0);
        assert_eq!(cfg.edge_info.len(), 1);
    }

    #[test]
    fn floods_carry_the_senders_bounds_and_respect_the_schedule() {
        let cfg = config();
        let mut a = core(0, &cfg, 1.0);
        let mut out = Vec::new();
        a.poll_sends(SimTime::from_secs(0.5), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, NodeId(1));
        assert_eq!(out[0].sent_at, SimTime::from_secs(0.5));
        // Not due again until a refresh period has elapsed.
        let before = out.len();
        a.poll_sends(SimTime::from_secs(0.5001), &mut out);
        assert_eq!(out.len(), before);
        a.poll_sends(a.next_flood_at(), &mut out);
        assert_eq!(out.len(), before + 1);
    }

    #[test]
    fn message_exchange_moves_the_receivers_estimate() {
        let cfg = config();
        let mut a = core(0, &cfg, 1.0 + cfg.params.rho());
        let mut b = core(1, &cfg, 1.0 - cfg.params.rho());
        let t1 = SimTime::from_secs(1.0);
        let mut out = Vec::new();
        a.poll_sends(t1, &mut out);
        let t2 = SimTime::from_secs(1.005);
        let outcome = b
            .on_message(t2, NodeId(0), out[0].sent_at, out[0].msg)
            .expect("deliverable");
        assert!(outcome.m_moved, "the faster sender lifts the receiver's M");
        assert!(outcome.estimate_written);
        assert!(b.state().slots.get(NodeId(0)).unwrap().estimate.is_some());
        let _ = b.evaluate(t2);
    }

    /// The grid instant `k` ticks in, accumulated like the engines'
    /// `Tick` rescheduling.
    fn grid(tick: f64, k: usize) -> SimTime {
        let step = SimDuration::from_secs(tick);
        (1..k).fold(SimTime::from_secs(tick), |t, _| t + step)
    }

    #[test]
    fn first_tick_is_due_at_one_interval() {
        let cfg = config();
        let a = core(0, &cfg, 1.0);
        assert_eq!(a.next_tick_at(), None, "no grid without a tick interval");
        let mut a = a.with_tick(cfg.tick);
        assert_eq!(a.next_tick_at(), Some(SimTime::from_secs(cfg.tick)));
        assert_eq!(a.poll_tick(SimTime::ZERO), None);
        assert_eq!(a.poll_tick(SimTime::from_secs(cfg.tick * 0.999)), None);
        assert!(a.poll_tick(SimTime::from_secs(cfg.tick)).is_some());
    }

    #[test]
    fn one_evaluation_per_grid_instant_and_none_between() {
        let cfg = config();
        let mut a = core(0, &cfg, 1.0).with_tick(cfg.tick);
        for k in 1..=50 {
            let due = grid(cfg.tick, k);
            assert_eq!(a.next_tick_at(), Some(due), "tick {k} off the grid");
            let between = SimTime::from_secs(due.as_secs() - cfg.tick / 2.0);
            assert_eq!(a.poll_tick(between), None, "fired before tick {k}");
            assert!(a.poll_tick(due).is_some(), "tick {k} did not fire");
            assert_eq!(a.poll_tick(due), None, "tick {k} fired twice");
        }
    }

    #[test]
    fn a_late_poll_evaluates_once_and_lands_back_on_the_grid() {
        let cfg = config();
        let mut a = core(0, &cfg, 1.0).with_tick(cfg.tick);
        // Five ticks are due by this instant; only one evaluation runs.
        let late = SimTime::from_secs(grid(cfg.tick, 5).as_secs() + cfg.tick / 3.0);
        assert!(a.poll_tick(late).is_some());
        assert_eq!(a.state().last_update(), late, "evaluated at the poll");
        assert_eq!(a.poll_tick(late), None, "missed ticks are not replayed");
        assert_eq!(a.next_tick_at(), Some(grid(cfg.tick, 6)));
        assert!(a.poll_tick(grid(cfg.tick, 6)).is_some());
    }

    #[test]
    fn evaluate_still_decides_on_every_call() {
        let cfg = config();
        let mut a = core(0, &cfg, 1.0).with_tick(cfg.tick);
        let mut b = core(1, &cfg, 1.0);
        // Off the grid: `poll_tick` waits, `evaluate` decides anyway.
        let t = SimTime::from_secs(cfg.tick / 4.0);
        assert_eq!(a.poll_tick(t), None);
        assert_eq!(a.evaluate(t), Mode::Slow);
        // Node 0 hears of a neighbour far ahead: the very next call flips.
        let mut out = Vec::new();
        b.poll_sends(SimTime::ZERO, &mut out);
        let mut ahead = out[0].msg;
        ahead.logical += 1.0;
        ahead.max_est += 1.0;
        a.on_message(t, NodeId(1), out[0].sent_at, ahead)
            .expect("deliverable");
        assert_eq!(a.poll_tick(t), None);
        assert_eq!(a.evaluate(t), Mode::Fast);
        assert_eq!(a.state().mode(), Mode::Fast);
        // The grid is left where it was.
        assert_eq!(a.next_tick_at(), Some(SimTime::from_secs(cfg.tick)));
    }

    #[test]
    fn delivery_rule_drops_unknown_and_prediscovery_senders() {
        let cfg = config();
        let mut b = core(1, &cfg, 1.0);
        let msg = FloodMsg {
            logical: 1.0,
            max_est: 1.0,
            min_lb: 0.0,
            max_ub: 2.0,
        };
        // Unknown sender.
        assert!(b
            .on_message(SimTime::from_secs(1.0), NodeId(7), SimTime::ZERO, msg)
            .is_none());
        // Known sender, message sent before (re)discovery: drop. Reinstall
        // the neighbour with a later discovery instant to simulate churn.
        assert!(b.remove_neighbor(NodeId(0)));
        let info = cfg.edge_info[&EdgeKey::new(NodeId(0), NodeId(1))];
        b.state.slots.insert(
            NodeId(0),
            info,
            EdgeSlot::discovered(SimTime::from_secs(2.0), 0.0, 1),
        );
        assert!(b
            .on_message(
                SimTime::from_secs(2.5),
                NodeId(0),
                SimTime::from_secs(1.5),
                msg
            )
            .is_none());
        // Sent exactly at the discovery instant: the closed interval
        // includes the endpoint, so this delivers.
        assert!(b
            .on_message(
                SimTime::from_secs(2.5),
                NodeId(0),
                SimTime::from_secs(2.0),
                msg
            )
            .is_some());
    }
}
