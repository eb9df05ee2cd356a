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

use std::ops::Range;

use rand::rngs::StdRng;

use gcs_net::transport;
use gcs_net::{DynamicGraph, EdgeParams, NodeId};
use gcs_sim::{EventQueue, SimDuration, SimTime};
use gcs_telemetry::LocalCounters;

use crate::node::NodeState;
use crate::params::Params;
use crate::sim::{Event, Payload, SimStats};
use gcs_protocol::flood;
use gcs_protocol::handshake::Step;

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
            // The handshake timers: the decision is the protocol's; a timer
            // that fired short of its deadline is re-armed as it is.
            Event::LeaderCheck {
                u,
                v,
                generation,
                target_logical,
            } => {
                self.advance(u.index(), t);
                let i = self.local(u.index());
                match self.nodes[i].leader_check(v, generation, target_logical, self.params) {
                    Step::Ignore => {}
                    Step::Rearm => self.arm(t, u, target_logical, event),
                    Step::Done((offer, edge)) => {
                        self.mark_dirty(u.index());
                        self.stats.handshakes_offered += 1;
                        self.stats.insertions_scheduled += 1;
                        self.send(t, u, v, edge, Payload::InsertEdge(offer));
                    }
                }
            }
            Event::FollowerApply {
                u,
                v,
                generation,
                target_logical,
            } => {
                self.advance(u.index(), t);
                let i = self.local(u.index());
                match self.nodes[i].follower_apply(v, generation, target_logical, self.params) {
                    Step::Ignore => {}
                    Step::Rearm => self.arm(t, u, target_logical, event),
                    Step::Done(()) => {
                        self.mark_dirty(u.index());
                        self.stats.insertions_scheduled += 1;
                    }
                }
            }
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
        let payload = Payload::Flood(flood::flood_from(self.node(u.index())));
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
        // implementation of the rule; the protocol's slot check answers
        // the same query from the receiver's slot table, which mirrors the
        // graph adjacency (both are written at exactly the edge-up/edge-down
        // sites with the same timestamps) — one lookup then serves the
        // rule and the edge constants. Debug builds assert the two
        // implementations agree on every message.
        let info = self
            .node(dst.index())
            .slots
            .deliverable(src, sent_at)
            .map(|entry| entry.info);
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
        let params = self.params;
        match payload {
            Payload::Flood(msg) => {
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
                    msg,
                    info.params,
                    params.rho(),
                    params.beta(),
                );
                // In message mode the stored sample *is* a decision input;
                // in oracle mode the views never read it.
                if outcome.estimate_written && self.message_mode {
                    self.mark_dirty(dst.index());
                }
                // An upward M jump flips a slow-decided node only once the
                // lifted gap reaches iota; `m_jump_triggers_fast` is pinned
                // to the policy's exact fast-branch float expression.
                // (Between now and the next tick, m only drifts down, which
                // can make this conservative but never unsound.)
                if outcome.m_moved
                    && self.m_jump_sensitive[self.local(dst.index())]
                    && flood::m_jump_triggers_fast(self.node(dst.index()), params.iota())
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
            Payload::InsertEdge(offer) => {
                let i = self.local(dst.index());
                let Some((generation, target)) = self.nodes[i].receive_offer(src, offer, params)
                else {
                    return;
                };
                self.mark_dirty(dst.index());
                let apply = Event::FollowerApply {
                    u: dst,
                    v: src,
                    generation,
                    target_logical: target,
                };
                self.arm(t, dst, target, apply);
            }
        }
    }

    /// Schedules node `u`'s handshake timer `event` for when its logical
    /// clock reaches `target`, with the delay the master's leader-check
    /// arming uses too ([`NodeState::secs_to_logical`]), counted from the
    /// explicit current instant `t` (a shard worker has no `self.now`).
    fn arm(&mut self, t: SimTime, u: NodeId, target: f64, event: Event) {
        let dt = self.node(u.index()).secs_to_logical(target, self.params);
        self.sink.schedule(t + SimDuration::from_secs(dt), event);
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
