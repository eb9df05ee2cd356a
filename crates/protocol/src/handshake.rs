//! The Listing 1 insertion handshake as plain transitions on
//! [`NodeState`].
//!
//! A discovered edge is not used at once: the lower-id endpoint (the
//! *leader*) waits `∆` and sends `insertedge(L_ins, G̃)`; the *follower*
//! waits `T + τ` after receipt; both then install the same schedule
//! `T₀`, `I` (Lemma 5.5). Every wait is a *logical* deadline, which
//! implies the real-time wait and the listing's continuity window.
//!
//! Each transition reads and writes one neighbour slot, taking its edge
//! constants from the slot's cached [`EdgeInfo`], and tells the host what
//! to do. Hosts own time, timers (armed with
//! [`NodeState::secs_to_logical`]), transport and the generation counter
//! that tells incarnations of an edge apart.

use gcs_net::{EdgeParams, NodeId};
use gcs_sim::SimTime;

use crate::edge_state::{align_t0, EdgeSlot, InsertState};
use crate::node::{EdgeInfo, NeighborEntry, NodeState};
use crate::params::{InsertionStrategy, Params};

/// The leader's `insertedge(L_ins, G̃)` message (Listing 1 line 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertOffer {
    /// Logical insertion anchor `L_ins`.
    pub l_ins: f64,
    /// The leader's global-skew estimate `G̃`.
    pub g_tilde: f64,
}

/// What the host must do after [`NodeState::discover`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discovery {
    /// This node leads: arm the leader check at this logical deadline.
    Lead {
        /// `L` at discovery plus `β∆`.
        target: f64,
    },
    /// The peer leads: wait for its offer.
    Follow,
    /// The §5.5 decaying-weight start: in every level at once, no
    /// handshake.
    Decaying,
}

/// What the host must do after a timed step
/// ([`NodeState::leader_check`], [`NodeState::follower_apply`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step<T> {
    /// Nothing: the edge is gone, was rediscovered, or left this stage.
    Ignore,
    /// The clock is short of the deadline (rates changed during the
    /// wait): arm the same step again, at the same deadline.
    Rearm,
    /// The slot is now `Scheduled`; carry out `T`.
    Done(T),
}

/// The leader of a potential edge `{u, v}`: the lower id (§4.3).
fn is_leader(u: NodeId, v: NodeId) -> bool {
    u < v
}

/// The `G̃` an insertion uses: the node's bracket `G̃_u(t) + ι` under §7
/// dynamic estimates (`ι` absorbs the bracket's tick-level optimism),
/// else the run's static `G̃`, which the run derivation always fills.
fn insertion_g_tilde(node: &NodeState, params: &Params) -> f64 {
    if params.dynamic_estimates() {
        node.g_estimate() + params.iota()
    } else {
        params.g_tilde().expect("static G~ filled at build")
    }
}

/// The leader's `∆`-wait deadline: `L` at discovery plus `β∆`.
fn leader_target(slot: &EdgeSlot, info: &EdgeInfo, params: &Params) -> f64 {
    slot.discovered_l + params.beta() * params.handshake_delta(info.params)
}

/// The leader-check deadline of node `u`'s neighbour entry, if it is a
/// pending handshake `u` leads: how a host arms the handshakes of slots
/// it installs itself (edges present in one direction at startup).
#[must_use]
pub fn leader_deadline(u: NodeId, entry: &NeighborEntry, params: &Params) -> Option<f64> {
    (matches!(entry.slot.insert, InsertState::Pending) && is_leader(u, entry.id))
        .then(|| leader_target(&entry.slot, &entry.info, params))
}

impl NodeState {
    /// Real seconds until the logical clock reaches `target` at the
    /// current rate; zero if it has. Rates may change before a timer
    /// armed this far ahead fires, so the step re-checks the clock.
    #[must_use]
    pub fn secs_to_logical(&self, target: f64, params: &Params) -> f64 {
        let rate = self.mode().multiplier(params.mu()) * self.hw_rate();
        ((target - self.logical()) / rate).max(0.0)
    }

    /// Installs the slot for `peer`, discovered at `at` (the node advanced
    /// there) as incarnation `generation`, with the host's oracle-layer
    /// bias draw. The slot is `Pending` under staged insertion and starts
    /// `Decaying` from `max(2G̃, κ)` under the §5.5 strategy.
    pub fn discover(
        &mut self,
        peer: NodeId,
        info: EdgeInfo,
        at: SimTime,
        generation: u64,
        oracle_bias: f64,
        params: &Params,
    ) -> Discovery {
        let logical = self.logical();
        let mut slot = EdgeSlot::discovered(at, logical, generation);
        slot.oracle_bias = oracle_bias;
        let step = match params.insertion_strategy() {
            InsertionStrategy::DecayingWeight { .. } => {
                let g = insertion_g_tilde(self, params);
                slot.insert = InsertState::Decaying {
                    l0: logical,
                    kappa0: (2.0 * g).max(info.kappa),
                };
                Discovery::Decaying
            }
            InsertionStrategy::Staged if is_leader(self.id(), peer) => Discovery::Lead {
                target: leader_target(&slot, &info, params),
            },
            InsertionStrategy::Staged => Discovery::Follow,
        };
        self.slots.insert(peer, info, slot);
        step
    }

    /// The leader's check once its `∆` deadline `target` is due (Listing
    /// 1 lines 5–9), with the node advanced to now. Done: the slot is
    /// scheduled from `L_ins = L + G̃ + βT`; send the offer over the edge
    /// (its parameters come along for the transport). Continuity (line 6)
    /// holds by construction: the slot has existed since discovery.
    pub fn leader_check(
        &mut self,
        peer: NodeId,
        generation: u64,
        target: f64,
        params: &Params,
    ) -> Step<(InsertOffer, EdgeParams)> {
        let Some(entry) = self.slots.entry(peer) else {
            return Step::Ignore;
        };
        if entry.slot.generation != generation || !matches!(entry.slot.insert, InsertState::Pending)
        {
            return Step::Ignore;
        }
        if self.logical() < target - 1e-12 {
            return Step::Rearm;
        }
        let edge = entry.info.params;
        let g_tilde = insertion_g_tilde(self, params);
        let l_ins = self.logical() + g_tilde + params.beta() * edge.delay_bound();
        self.schedule_insertion(peer, edge, l_ins, g_tilde, params);
        Step::Done((InsertOffer { l_ins, g_tilde }, edge))
    }

    /// The follower's receipt of an offer that passed the §3.1 rule
    /// (Listing 1 lines 10–11). A `Pending` slot becomes `FollowerWait`
    /// and the result is `(generation, target)`: arm the apply for that
    /// incarnation at `L + β(T + τ)`. Any other slot ignores the offer.
    pub fn receive_offer(
        &mut self,
        peer: NodeId,
        offer: InsertOffer,
        params: &Params,
    ) -> Option<(u64, f64)> {
        let l_now = self.logical();
        let entry = self.slots.entry_mut(peer)?;
        if !matches!(entry.slot.insert, InsertState::Pending) {
            return None;
        }
        let edge = entry.info.params;
        let wait = params.beta() * (edge.delay_bound() + edge.tau);
        entry.slot.insert = InsertState::FollowerWait {
            l_ins: offer.l_ins,
            g_tilde: offer.g_tilde,
            l_at_receive: l_now,
        };
        Some((entry.slot.generation, l_now + wait))
    }

    /// The follower's apply once its deadline `target` is due (Listing 1
    /// lines 12–14), with the node advanced to now. If the edge was
    /// present throughout the logical window back to the offer's receipt
    /// (line 13), the slot is scheduled from the leader's `(L_ins, G̃)`.
    pub fn follower_apply(
        &mut self,
        peer: NodeId,
        generation: u64,
        target: f64,
        params: &Params,
    ) -> Step<()> {
        let Some(entry) = self.slots.entry(peer) else {
            return Step::Ignore;
        };
        let InsertState::FollowerWait {
            l_ins,
            g_tilde,
            l_at_receive,
        } = entry.slot.insert
        else {
            return Step::Ignore;
        };
        if entry.slot.generation != generation {
            return Step::Ignore;
        }
        if self.logical() < target - 1e-12 {
            return Step::Rearm;
        }
        if entry.slot.discovered_l > l_at_receive {
            return Step::Ignore;
        }
        let edge = entry.info.params;
        self.schedule_insertion(peer, edge, l_ins, g_tilde, params);
        Step::Done(())
    }

    /// Installs the schedule both endpoints derive from the same
    /// `(L_ins, G̃)`: `I(G̃)` and `T₀ = ⌈L_ins/I⌉·I` (Lemma 5.5).
    fn schedule_insertion(
        &mut self,
        peer: NodeId,
        edge: EdgeParams,
        l_ins: f64,
        g_tilde: f64,
        params: &Params,
    ) {
        let i = params.insertion_duration(edge, g_tilde);
        if let Some(slot) = self.slots.get_mut(peer) {
            slot.insert = InsertState::Scheduled {
                t0: align_t0(l_ins, i),
                i,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_state::Level;

    fn params(dynamic: bool, strategy: InsertionStrategy, g_tilde: f64) -> Params {
        let mut b = Params::builder();
        b.rho(0.01)
            .mu(0.1)
            .insertion_scale(0.02)
            .dynamic_estimates(dynamic)
            .insertion_strategy(strategy);
        b.build()
            .unwrap()
            .with_iota_default(0.001)
            .with_g_tilde_default(g_tilde)
    }

    fn staged() -> Params {
        params(false, InsertionStrategy::Staged, 0.05)
    }

    fn info() -> EdgeInfo {
        EdgeInfo {
            params: EdgeParams::default(),
            epsilon: 0.002,
            kappa: 0.0135,
            delta: 0.001,
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Both endpoints of `{0, 1}`, discovered at `at` as generation 1,
    /// and the leader's check deadline.
    fn pair(p: &Params, at: f64) -> (NodeState, NodeState, f64) {
        let mut leader = NodeState::new(NodeId(0), 1.004);
        let mut follower = NodeState::new(NodeId(1), 0.997);
        for n in [&mut leader, &mut follower] {
            n.advance_to(t(at), p);
        }
        let Discovery::Lead { target } = leader.discover(NodeId(1), info(), t(at), 1, 0.0, p)
        else {
            panic!("the lower id leads");
        };
        let back = follower.discover(NodeId(0), info(), t(at), 1, 0.0, p);
        assert_eq!(back, Discovery::Follow);
        (leader, follower, target)
    }

    /// Advances `node` to the instant a timer armed now for `target` fires.
    fn fire(node: &mut NodeState, target: f64, p: &Params) {
        let at = node.last_update().as_secs() + node.secs_to_logical(target, p);
        node.advance_to(t(at), p);
    }

    /// Runs the leader check at its deadline and delivers the offer.
    fn offer(p: &Params) -> (NodeState, NodeState, InsertOffer, f64) {
        let (mut leader, mut follower, target) = pair(p, 1.0);
        fire(&mut leader, target, p);
        let Step::Done((offer, edge)) = leader.leader_check(NodeId(1), 1, target, p) else {
            panic!("the deadline is reached");
        };
        assert_eq!(edge, info().params);
        follower.advance_to(leader.last_update(), p);
        let (generation, apply) = follower
            .receive_offer(NodeId(0), offer, p)
            .expect("a pending follower accepts");
        assert_eq!(generation, 1);
        (leader, follower, offer, apply)
    }

    #[test]
    fn only_the_lower_id_leads() {
        assert!(is_leader(NodeId(2), NodeId(5)));
        assert!(!is_leader(NodeId(5), NodeId(2)));
        assert!(!is_leader(NodeId(3), NodeId(3)));
    }

    #[test]
    fn a_stale_generation_is_ignored() {
        let p = staged();
        let (mut leader, _, target) = pair(&p, 1.0);
        fire(&mut leader, target, &p);
        assert_eq!(leader.leader_check(NodeId(1), 7, target, &p), Step::Ignore);
        let slot = leader.slots.get(NodeId(1)).unwrap();
        assert_eq!(slot.insert, InsertState::Pending);
        let (_, mut follower, _, apply) = offer(&p);
        fire(&mut follower, apply, &p);
        assert_eq!(
            follower.follower_apply(NodeId(0), 2, apply, &p),
            Step::Ignore
        );
        let slot = follower.slots.get(NodeId(0)).unwrap();
        assert!(matches!(slot.insert, InsertState::FollowerWait { .. }));
        // A lost edge ignores the step too.
        assert!(leader.slots.remove(NodeId(1)));
        assert_eq!(leader.leader_check(NodeId(1), 1, target, &p), Step::Ignore);
    }

    #[test]
    fn a_clock_below_the_target_rearms_with_the_same_target() {
        let p = staged();
        let (mut leader, _, target) = pair(&p, 1.0);
        assert!(target > leader.logical());
        assert_eq!(leader.leader_check(NodeId(1), 1, target, &p), Step::Rearm);
        let slot = leader.slots.get(NodeId(1)).unwrap();
        assert_eq!(slot.insert, InsertState::Pending);
        // The same deadline, re-armed from here, offers.
        fire(&mut leader, target, &p);
        assert!(matches!(
            leader.leader_check(NodeId(1), 1, target, &p),
            Step::Done(_)
        ));
        let (_, mut follower, _, apply) = offer(&p);
        assert_eq!(
            follower.follower_apply(NodeId(0), 1, apply, &p),
            Step::Rearm
        );
        fire(&mut follower, apply, &p);
        assert_eq!(
            follower.follower_apply(NodeId(0), 1, apply, &p),
            Step::Done(())
        );
    }

    #[test]
    fn offer_then_apply_agree_bitwise_lemma_5_5() {
        for dynamic in [false, true] {
            let p = params(dynamic, InsertionStrategy::Staged, 0.05);
            let (leader, mut follower, offer, apply) = offer(&p);
            fire(&mut follower, apply, &p);
            assert_eq!(
                follower.follower_apply(NodeId(0), 1, apply, &p),
                Step::Done(())
            );
            let a = leader.slots.get(NodeId(1)).unwrap().insert;
            let b = follower.slots.get(NodeId(0)).unwrap().insert;
            let (
                InsertState::Scheduled { t0: a0, i: ai },
                InsertState::Scheduled { t0: b0, i: bi },
            ) = (a, b)
            else {
                panic!("both sides scheduled: {a:?} / {b:?}");
            };
            assert_eq!(a0.to_bits(), b0.to_bits(), "T0 (dynamic {dynamic})");
            assert_eq!(ai.to_bits(), bi.to_bits(), "I (dynamic {dynamic})");
            assert!(a0 >= offer.l_ins);
        }
    }

    #[test]
    fn an_offer_to_a_slot_that_is_not_pending_is_ignored() {
        let p = staged();
        let (_, mut follower, offer, _) = offer(&p);
        // A second offer finds the slot in FollowerWait.
        let before = follower.slots.get(NodeId(0)).unwrap().insert;
        assert_eq!(follower.receive_offer(NodeId(0), offer, &p), None);
        assert_eq!(follower.slots.get(NodeId(0)).unwrap().insert, before);
        // Initial and unknown slots ignore offers too.
        let mut node = NodeState::new(NodeId(1), 1.0);
        node.slots.insert(NodeId(0), info(), EdgeSlot::initial());
        assert_eq!(node.receive_offer(NodeId(0), offer, &p), None);
        assert_eq!(node.receive_offer(NodeId(9), offer, &p), None);
    }

    #[test]
    fn the_decaying_start_uses_max_of_twice_g_tilde_and_kappa() {
        let decaying = InsertionStrategy::DecayingWeight { halving: 0.5 };
        for g_tilde in [0.05, 0.001] {
            let p = params(false, decaying, g_tilde);
            let mut node = NodeState::new(NodeId(0), 1.0);
            node.advance_to(t(3.0), &p);
            let step = node.discover(NodeId(1), info(), t(3.0), 4, 0.25, &p);
            assert_eq!(step, Discovery::Decaying);
            let slot = node.slots.get(NodeId(1)).unwrap();
            let kappa0 = (2.0 * g_tilde).max(info().kappa);
            assert_eq!(
                slot.insert,
                InsertState::Decaying {
                    l0: node.logical(),
                    kappa0,
                }
            );
            assert_eq!(slot.insert.level_at(node.logical()), Level::Infinite);
            assert_eq!((slot.generation, slot.oracle_bias), (4, 0.25));
        }
    }

    #[test]
    fn leader_deadline_matches_discovery() {
        let p = staged();
        let (leader, follower, target) = pair(&p, 1.0);
        let entry = leader.slots.entry(NodeId(1)).unwrap();
        assert_eq!(leader_deadline(NodeId(0), entry, &p), Some(target));
        let back = follower.slots.entry(NodeId(0)).unwrap();
        assert_eq!(leader_deadline(NodeId(1), back, &p), None);
    }

    #[test]
    fn secs_to_logical_is_zero_once_reached() {
        let p = staged();
        let mut node = NodeState::new(NodeId(0), 1.0);
        node.advance_to(t(2.0), &p);
        assert_eq!(node.secs_to_logical(1.0, &p), 0.0);
        assert!((node.secs_to_logical(3.0, &p) - 1.0).abs() < 1e-12);
    }
}
