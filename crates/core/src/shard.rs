//! Node-local event handling, shared by the sequential and sharded
//! engines.
//!
//! Every event except `Tick`, `EdgeUp`, and `EdgeDown` touches exactly
//! one node's state (floods read only the sender's own neighbour table;
//! deliveries mutate only the receiver). [`LocalCtx`] packages the
//! disjoint per-node state one handler needs — a contiguous `&mut` range
//! of the node array plus the matching rows of the hot columns — together
//! with the shared read-only engine state and an [`EventSink`] for spawned
//! events.
//!
//! The sequential engine builds a `LocalCtx` covering the whole node
//! range with the master queue as the sink; the parallel engine builds
//! one per shard with a [`ShardSink`] that routes cross-shard deliveries
//! through a mailbox. Both run *this* code, so bit-identity between the
//! engines is structural rather than re-proved per handler.
//!
//! Determinism note: every float expression here is byte-for-byte the
//! code both engines execute, and all RNG draws come from per-node
//! streams indexed by the node that owns them, so the draw order is a
//! function of that node's own event order — identical under sequential
//! and sharded execution.

use std::collections::HashMap;
use std::ops::Range;

use rand::rngs::StdRng;

use gcs_net::transport;
use gcs_net::{DynamicGraph, EdgeKey, EdgeParams, NodeId};
use gcs_sim::{EventQueue, SimDuration, SimTime};
use gcs_telemetry::LocalCounters;

use crate::edge_state::{align_t0, InsertState};
use crate::node::NodeState;
use crate::params::Params;
use crate::sim::{Event, Payload, SimStats};
use gcs_protocol::flood::{self, FloodMsg};
use gcs_protocol::EdgeInfo;

/// Where a handler's spawned events go: the master queue (sequential
/// engine) or a shard queue plus cross-shard mailbox ([`ShardSink`]).
pub(crate) trait EventSink {
    /// Schedules `event` at `time`.
    fn schedule(&mut self, time: SimTime, event: Event);
}

/// The sequential engine's sink: the master queue itself, allocating
/// ordering keys from the queue's own monotone counter (exactly the
/// pre-sharding behaviour).
impl EventSink for EventQueue<Event> {
    fn schedule(&mut self, time: SimTime, event: Event) {
        EventQueue::schedule(self, time, event);
    }
}

/// A shard worker's sink. Same-shard events go straight into the shard's
/// calendar queue; a `Deliver` whose receiver lives elsewhere goes into
/// the outbox for the mailbox exchange at the next window rendezvous.
/// All keys come from the shard's namespaced counter, so the merged
/// `(time, seq)` order is a pure function of the simulation, not of
/// thread scheduling.
pub(crate) struct ShardSink<'a> {
    /// The owning shard's queue.
    pub queue: &'a mut EventQueue<Event>,
    /// Start index of every shard, ascending (see [`owner`]).
    pub starts: &'a [usize],
    /// This shard's index.
    pub shard: usize,
    /// The shard's namespaced sequence counter.
    pub seq: &'a mut u64,
    /// Cross-shard events: `(destination shard, time, seq, event)`.
    pub outbox: &'a mut Vec<(usize, SimTime, u64, Event)>,
}

impl EventSink for ShardSink<'_> {
    fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = *self.seq;
        *self.seq += 1;
        let dest = match owning_node(&event) {
            Some(node) => owner(self.starts, node),
            None => unreachable!("shard handlers only spawn node-local events"),
        };
        if dest == self.shard {
            self.queue.schedule_keyed(time, seq, event);
        } else {
            debug_assert!(
                matches!(event, Event::Deliver { .. }),
                "only deliveries cross shards"
            );
            self.outbox.push((dest, time, seq, event));
        }
    }
}

/// The node whose state an event mutates, or `None` for the
/// cross-shard-state events the master executes at rendezvous.
pub(crate) fn owning_node(event: &Event) -> Option<usize> {
    match *event {
        Event::Tick | Event::EdgeUp { .. } | Event::EdgeDown { .. } => None,
        Event::Flood { node } => Some(node.index()),
        Event::Deliver { dst, .. } => Some(dst.index()),
        Event::RateChange { node, .. } => Some(node),
        Event::LeaderCheck { u, .. } | Event::FollowerApply { u, .. } => Some(u.index()),
    }
}

/// The shard owning global node index `node`, given the ascending shard
/// start indices (`starts[0] == 0`).
pub(crate) fn owner(starts: &[usize], node: usize) -> usize {
    debug_assert!(!starts.is_empty() && starts[0] == 0);
    starts.partition_point(|&s| s <= node) - 1
}

/// Splits `n` nodes into `shards` contiguous near-equal ranges.
pub(crate) fn contiguous_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards >= 1 && shards <= n);
    (0..shards)
        .map(|i| (i * n / shards)..((i + 1) * n / shards))
        .collect()
}

/// Splits `n` nodes into `shards` contiguous ranges balanced by the given
/// per-node weights (degrees in the scenario's edge universe): boundary
/// `i` lands where the weight prefix sum crosses `i/shards` of the total.
/// Every shard still gets at least one node.
pub(crate) fn balanced_ranges(weights: &[u64], shards: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    assert!(shards >= 1 && shards <= n);
    // +1 per node keeps zero-degree stretches from collapsing into one
    // shard and guarantees strictly increasing cut points exist.
    let total: u64 = weights.iter().map(|&w| w + 1).sum();
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut next = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        acc += w + 1;
        // Close the current shard once its weight quota is met, leaving
        // enough nodes for the remaining shards.
        let quota = total * (ranges.len() as u64 + 1) / shards as u64;
        let remaining_shards = shards - ranges.len() - 1;
        if ranges.len() < shards - 1 && acc >= quota && n - (i + 1) >= remaining_shards {
            ranges.push(start..i + 1);
            start = i + 1;
        }
        next = i + 1;
    }
    ranges.push(start..next);
    debug_assert_eq!(ranges.len(), shards);
    ranges
}

/// Everything one node-local handler may touch: the owned node range
/// (mutable), the matching hot-column rows, the event sink, and shared
/// read-only engine state.
///
/// Indexing is by *global* node id; debug builds assert every access
/// stays inside the owned range, so a cross-shard state touch panics in
/// the CI `parallel-smoke` job instead of racing.
pub(crate) struct LocalCtx<'a, S: EventSink> {
    /// Global node-index range this context owns.
    pub range: Range<usize>,
    /// The owned nodes; `nodes[u - range.start]` is global node `u`.
    pub nodes: &'a mut [NodeState],
    /// Stability horizons of the owned nodes (same local indexing).
    pub stable_until: &'a mut [f64],
    /// M-jump sensitivity flags of the owned nodes.
    pub m_jump_sensitive: &'a mut [bool],
    /// Per-node transport-delay streams of the owned nodes.
    pub delay_rng: &'a mut [StdRng],
    /// Counter sink (the shard's own accumulator under sharding).
    pub stats: &'a mut SimStats,
    /// Where spawned events go.
    pub sink: &'a mut S,
    /// Reusable flood fan-out buffer.
    pub flood_buf: &'a mut Vec<(NodeId, EdgeParams)>,
    /// Algorithm parameters (read-only, shared).
    pub params: &'a Params,
    /// Whether estimates are message-borne (stored samples are decision
    /// inputs).
    pub message_mode: bool,
    /// Per-edge derived constants (read-only, shared).
    pub edge_info: &'a HashMap<EdgeKey, EdgeInfo>,
    /// The dynamic graph — read-only between rendezvous points (only the
    /// master's edge-up/down handlers write it); used by the debug
    /// cross-check of the §3.1 delivery rule.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub graph: &'a DynamicGraph,
    /// Diameter tracker (sequential engine only; the parallel builder
    /// rejects it).
    pub diameter: Option<&'a mut crate::diameter::DiameterTracker>,
    /// Flood refresh period (hardware seconds).
    pub refresh: f64,
    /// Telemetry counter block (the engine's under sequential execution,
    /// the shard's own under sharding); `None` when telemetry is off, so
    /// the counting costs one branch per event. Per-kind totals are
    /// order-free, hence engine-invariant after merging.
    pub tel: Option<&'a mut LocalCounters>,
}

impl<S: EventSink> LocalCtx<'_, S> {
    /// Dispatches one node-local event.
    ///
    /// # Panics
    ///
    /// Panics on the cross-shard-state events (`Tick`, `EdgeUp`,
    /// `EdgeDown`) — those execute on the master at rendezvous points.
    pub fn handle(&mut self, t: SimTime, event: Event) {
        if let Some(tel) = self.tel.as_deref_mut() {
            match &event {
                Event::Flood { .. } => tel.floods += 1,
                Event::Deliver { .. } => tel.deliveries += 1,
                Event::RateChange { .. } => tel.rate_changes += 1,
                Event::LeaderCheck { .. } => tel.leader_checks += 1,
                Event::FollowerApply { .. } => tel.follower_applies += 1,
                _ => {}
            }
        }
        match event {
            Event::Flood { node } => self.on_flood(t, node),
            Event::Deliver {
                src,
                dst,
                sent_at,
                payload,
            } => self.on_deliver(t, src, dst, sent_at, payload),
            Event::RateChange { node, rate } => {
                self.advance(node, t);
                self.node_mut(node).set_hw_rate(rate);
                self.mark_dirty(node);
            }
            Event::LeaderCheck {
                u,
                v,
                generation,
                target_logical,
            } => self.on_leader_check(t, u, v, generation, target_logical),
            Event::FollowerApply {
                u,
                v,
                generation,
                target_logical,
            } => self.on_follower_apply(t, u, v, generation, target_logical),
            Event::Tick | Event::EdgeUp { .. } | Event::EdgeDown { .. } => {
                unreachable!("cross-shard-state event routed to a node-local handler")
            }
        }
    }

    /// Local row of global node index `u`, with the cross-shard access
    /// guard: touching a node outside the owned range is a determinism
    /// (and, under sharding, a data-race) bug, so debug builds panic.
    #[inline]
    fn local(&self, u: usize) -> usize {
        debug_assert!(
            self.range.contains(&u),
            "cross-shard access: node {u} outside owned range {:?}",
            self.range
        );
        u - self.range.start
    }

    #[inline]
    fn node_mut(&mut self, u: usize) -> &mut NodeState {
        let i = self.local(u);
        &mut self.nodes[i]
    }

    /// Advances node `u`'s clocks to `t` (field-split so `params` stays
    /// borrowable).
    #[inline]
    fn advance(&mut self, u: usize, t: SimTime) {
        let i = self.local(u);
        self.nodes[i].advance_to(t, self.params);
    }

    #[inline]
    fn node(&self, u: usize) -> &NodeState {
        &self.nodes[self.local(u)]
    }

    /// Drops node `u`'s stability certificate (marks it dirty).
    #[inline]
    fn mark_dirty(&mut self, u: usize) {
        let i = self.local(u);
        self.stable_until[i] = f64::NEG_INFINITY;
    }

    fn on_flood(&mut self, t: SimTime, u: NodeId) {
        self.advance(u.index(), t);
        let msg = flood::flood_from(self.node(u.index()));
        let payload = Payload::Flood {
            logical: msg.logical,
            max_est: msg.max_est,
            min_lb: msg.min_lb,
            max_ub: msg.max_ub,
        };
        // The neighbour table mirrors the graph adjacency (same ids, same
        // ascending order) and already carries each edge's parameters.
        let i = self.local(u.index());
        let mut flood = std::mem::take(self.flood_buf);
        flood.clear();
        flood.extend(self.nodes[i].slots.iter().map(|e| (e.id, e.info.params)));
        for &(v, edge) in &flood {
            self.send(t, u, v, edge, payload);
        }
        *self.flood_buf = flood;
        // Next flood after `refresh` *hardware* seconds: converting with the
        // current rate keeps the real period within [P/(1+rho), P/(1-rho)].
        let dt = self.refresh / self.node(u.index()).hw_rate();
        self.sink
            .schedule(t + SimDuration::from_secs(dt), Event::Flood { node: u });
    }

    fn send(&mut self, t: SimTime, u: NodeId, v: NodeId, edge: EdgeParams, payload: Payload) {
        let i = self.local(u.index());
        let delay = transport::sample_delay(&mut self.delay_rng[i], edge);
        self.stats.messages_sent += 1;
        self.sink.schedule(
            t + SimDuration::from_secs(delay),
            Event::Deliver {
                src: u,
                dst: v,
                sent_at: t,
                payload,
            },
        );
    }

    fn on_deliver(
        &mut self,
        t: SimTime,
        src: NodeId,
        dst: NodeId,
        sent_at: SimTime,
        payload: Payload,
    ) {
        // §3.1 delivery rule: `(dst, src)` continuously present since the
        // send. [`transport::deliverable`] is the documented reference
        // implementation of the rule; this inlined check answers the same
        // query from the receiver's slot table, which mirrors the graph
        // adjacency (both are written at exactly the edge-up/edge-down
        // sites with the same timestamps) — one lookup then serves the
        // rule, the edge constants, and the estimate write. Debug builds
        // assert the two implementations agree on every message.
        let info = match self.node(dst.index()).slots.entry(src) {
            Some(entry) if entry.slot.discovered_at <= sent_at => Some(entry.info),
            _ => None,
        };
        #[cfg(debug_assertions)]
        {
            let reference = transport::deliverable(
                self.graph,
                &transport::Envelope {
                    src,
                    dst,
                    sent_at,
                    deliver_at: t,
                    payload: (),
                },
            );
            debug_assert_eq!(
                info.is_some(),
                reference,
                "slot mirror diverged from the §3.1 delivery rule on ({src}, {dst})"
            );
        }
        let Some(info) = info else {
            self.stats.messages_dropped += 1;
            return;
        };
        self.stats.messages_delivered += 1;
        self.advance(dst.index(), t);
        let rho = self.params.rho();
        let beta = self.params.beta();
        let is_message_mode = self.message_mode;
        match payload {
            Payload::Flood {
                logical,
                max_est,
                min_lb,
                max_ub,
            } => {
                if let Some(tracker) = self.diameter.as_deref_mut() {
                    tracker.on_delivery(
                        src.index(),
                        dst.index(),
                        sent_at,
                        t,
                        info.params.delay_uncertainty(),
                    );
                }
                let outcome = flood::merge_flood(
                    self.node_mut(dst.index()),
                    src,
                    FloodMsg {
                        logical,
                        max_est,
                        min_lb,
                        max_ub,
                    },
                    info.params,
                    rho,
                    beta,
                );
                // In message mode the stored sample *is* a decision input;
                // in oracle mode the views never read it.
                if outcome.estimate_written && is_message_mode {
                    self.mark_dirty(dst.index());
                }
                // An upward M jump flips a slow-decided node only once the
                // lifted gap reaches iota; `m_jump_triggers_fast` is pinned
                // to the policy's exact fast-branch float expression.
                // (Between now and the next tick, m only drifts down, which
                // can make this conservative but never unsound.)
                if outcome.m_moved
                    && self.m_jump_sensitive[self.local(dst.index())]
                    && flood::m_jump_triggers_fast(self.node(dst.index()), self.params.iota())
                {
                    self.mark_dirty(dst.index());
                }
                if let Some(tel) = self.tel.as_deref_mut() {
                    tel.flood_merges += 1;
                    if outcome.m_moved {
                        tel.m_jumps += 1;
                    }
                }
            }
            Payload::InsertEdge { l_ins, g_tilde } => {
                let l_now = self.node(dst.index()).logical();
                let wait = beta * (info.params.delay_bound() + info.params.tau);
                let Some(slot) = self.node_mut(dst.index()).slots.get_mut(src) else {
                    return; // Edge vanished at the receiver: offer ignored.
                };
                // Only accept an offer for a fresh, unscheduled incarnation.
                if !matches!(slot.insert, InsertState::Pending) {
                    return;
                }
                slot.insert = InsertState::FollowerWait {
                    l_ins,
                    g_tilde,
                    l_at_receive: l_now,
                };
                let generation = slot.generation;
                self.mark_dirty(dst.index());
                self.schedule_logical_event(t, dst, l_now + wait, |target_logical| {
                    Event::FollowerApply {
                        u: dst,
                        v: src,
                        generation,
                        target_logical,
                    }
                });
            }
        }
    }

    /// Shard-side twin of `Simulation::schedule_logical_event` — the same
    /// float expression, with the event time anchored at the explicit
    /// current instant `t` (a shard worker has no `self.now`).
    fn schedule_logical_event(
        &mut self,
        t: SimTime,
        u: NodeId,
        target: f64,
        make_event: impl FnOnce(f64) -> Event,
    ) {
        let node = self.node(u.index());
        let rate = node.mode().multiplier(self.params.mu()) * node.hw_rate();
        let dt = ((target - node.logical()) / rate).max(0.0);
        self.sink
            .schedule(t + SimDuration::from_secs(dt), make_event(target));
    }

    fn on_leader_check(
        &mut self,
        t: SimTime,
        u: NodeId,
        v: NodeId,
        generation: u64,
        target_logical: f64,
    ) {
        self.advance(u.index(), t);
        let Some(slot) = self.node(u.index()).slots.get(v) else {
            return; // Edge went down; a rediscovery starts a new handshake.
        };
        if slot.generation != generation || !matches!(slot.insert, InsertState::Pending) {
            return;
        }
        if self.node(u.index()).logical() < target_logical - 1e-12 {
            // Rates changed during the wait; try again when we get there.
            self.schedule_logical_event(t, u, target_logical, |target_logical| {
                Event::LeaderCheck {
                    u,
                    v,
                    generation,
                    target_logical,
                }
            });
            return;
        }
        // Continuity (Listing 1 line 6) holds by construction: the slot has
        // existed since `discovered_l` and L has advanced by beta * Delta.
        let info = self.edge_info[&EdgeKey::new(u, v)];
        let g_tilde = if self.params.dynamic_estimates() {
            // The iota margin absorbs the bracket's tick-level optimism.
            self.node(u.index()).g_estimate() + self.params.iota()
        } else {
            self.params.g_tilde().expect("static G~ filled at build")
        };
        let l_now = self.node(u.index()).logical();
        let l_ins = l_now + g_tilde + self.params.beta() * info.params.delay_bound();
        let i = self.params.insertion_duration(info.params, g_tilde);
        let t0 = align_t0(l_ins, i);
        if let Some(slot) = self.node_mut(u.index()).slots.get_mut(v) {
            slot.insert = InsertState::Scheduled { t0, i };
        }
        self.mark_dirty(u.index());
        self.stats.handshakes_offered += 1;
        self.stats.insertions_scheduled += 1;
        self.send(t, u, v, info.params, Payload::InsertEdge { l_ins, g_tilde });
    }

    fn on_follower_apply(
        &mut self,
        t: SimTime,
        u: NodeId,
        v: NodeId,
        generation: u64,
        target_logical: f64,
    ) {
        self.advance(u.index(), t);
        let Some(slot) = self.node(u.index()).slots.get(v) else {
            return;
        };
        if slot.generation != generation {
            return;
        }
        let InsertState::FollowerWait {
            l_ins,
            g_tilde,
            l_at_receive,
        } = slot.insert
        else {
            return;
        };
        if self.node(u.index()).logical() < target_logical - 1e-12 {
            self.schedule_logical_event(t, u, target_logical, |target_logical| {
                Event::FollowerApply {
                    u,
                    v,
                    generation,
                    target_logical,
                }
            });
            return;
        }
        // Listing 1 line 13: the edge must have been present throughout the
        // logical window reaching back to the receive instant.
        if slot.discovered_l > l_at_receive {
            return;
        }
        let info = self.edge_info[&EdgeKey::new(u, v)];
        let i = self.params.insertion_duration(info.params, g_tilde);
        let t0 = align_t0(l_ins, i);
        if let Some(slot) = self.node_mut(u.index()).slots.get_mut(v) {
            slot.insert = InsertState::Scheduled { t0, i };
        }
        self.mark_dirty(u.index());
        self.stats.insertions_scheduled += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_ranges_cover_exactly() {
        for n in [2usize, 3, 7, 10, 64] {
            for shards in 1..=n.min(8) {
                let ranges = contiguous_ranges(n, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(!w[0].is_empty());
                }
                assert!(!ranges.last().unwrap().is_empty());
            }
        }
    }

    #[test]
    fn balanced_ranges_cover_and_track_weight() {
        // A degree-skewed profile: heavy head, light tail.
        let weights: Vec<u64> = (0..32).map(|i| if i < 4 { 20 } else { 1 }).collect();
        let ranges = balanced_ranges(&weights, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 32);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The heavy head must not drag half the tail with it.
        assert!(
            ranges[0].len() < 16,
            "first shard too large: {:?}",
            ranges[0]
        );
        // Degenerate cases still cover.
        let flat = balanced_ranges(&[0u64; 5], 5);
        assert_eq!(flat.len(), 5);
        assert!(flat.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn owner_inverts_the_ranges() {
        let ranges = contiguous_ranges(10, 3);
        let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        for (s, r) in ranges.iter().enumerate() {
            for u in r.clone() {
                assert_eq!(owner(&starts, u), s);
            }
        }
    }
}
