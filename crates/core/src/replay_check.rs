//! Engine-vs-[`NodeCore`] replay equivalence: the property test pinning
//! the sans-IO re-host.
//!
//! The sequential engine's event loop is driven one popped event at a
//! time while a bank of mirror [`NodeCore`]s — the exact state machines
//! the `gcs-node` daemon multiplexes over real sockets — consumes the
//! same recorded inputs: every delivered flood (with its send instant)
//! and every hardware-rate change. The mirrors never send; they only
//! replay what the engine's transport realized. Their mode decisions
//! come from their own tick timer ([`NodeCore::poll_tick`], polled at
//! every replayed event), built from the engine's tick interval.
//!
//! The contract checked here is *bit*-identity, not approximation: the
//! anchored piecewise-linear clock representation ([`NodeState`]
//! re-anchors only at discontinuities and evaluates segments in closed
//! form) makes clock values independent of when intermediate
//! advancements happen, so an engine node and a mirror fed the same
//! discontinuities agree on every `f64`. Concretely, after every event:
//!
//! * a delivery is accepted/dropped identically (§3.1), and an accepted
//!   one leaves bitwise-equal clocks, bounds, and estimate-slot writes;
//! * each mirror's timer fires exactly at the engine's `Tick` instants
//!   (bitwise-equal [`SimTime`]s) and never in between;
//! * a tick leaves every node with the same mode decision (this also
//!   cross-checks the engine's stability-certificate skipping against
//!   the mirror's always-reevaluate policy — a cert that wrongly skips
//!   a flip shows up as a mode mismatch here);
//! * a rate change leaves bitwise-equal clocks.

use proptest::prelude::*;

use gcs_net::{NodeId, Topology};
use gcs_protocol::flood::FloodMsg;
use gcs_protocol::{EstimateMode, NodeCore, Params};
use gcs_sim::{DriftModel, SimTime};

use crate::sim::{Event, Payload, SimBuilder, Simulation};

/// What one popped engine event means for the mirror bank.
enum Act {
    Deliver {
        src: NodeId,
        dst: NodeId,
        sent_at: SimTime,
        msg: FloodMsg,
    },
    Rate {
        node: usize,
        rate: f64,
    },
    Tick,
    /// A flood broadcast: reads the sender's clocks (a pure closed-form
    /// evaluation under the anchor representation) and touches no mirror
    /// state.
    Skip,
}

fn mirror_bank(sim: &Simulation) -> Vec<NodeCore> {
    sim.nodes
        .iter()
        .map(|n| {
            let mut core = NodeCore::new(
                n.id(),
                sim.params.clone(),
                sim.refresh,
                n.hw_rate(),
                // The mirrors never send; the flood schedule is unused.
                SimTime::ZERO,
            )
            .with_tick(sim.tick_interval());
            for entry in n.slots.iter() {
                core.add_neighbor(entry.id, entry.info);
            }
            core
        })
        .collect()
}

fn assert_clocks_match(
    what: &str,
    t: SimTime,
    engine: &gcs_protocol::NodeState,
    mirror: &gcs_protocol::NodeState,
) -> Result<(), TestCaseError> {
    for (name, a, b) in [
        ("logical", engine.logical(), mirror.logical()),
        ("hardware", engine.hardware(), mirror.hardware()),
        ("max_estimate", engine.max_estimate(), mirror.max_estimate()),
        (
            "min_lower_bound",
            engine.min_lower_bound(),
            mirror.min_lower_bound(),
        ),
        (
            "max_upper_bound",
            engine.max_upper_bound(),
            mirror.max_upper_bound(),
        ),
    ] {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} diverged after {} at {:?}: engine {} vs mirror {}",
            name,
            what,
            t,
            a,
            b
        );
    }
    prop_assert_eq!(
        engine.mode(),
        mirror.mode(),
        "mode diverged after {} at {:?}",
        what,
        t
    );
    Ok(())
}

/// Drives a seeded static-topology, message-mode run event by event and
/// replays its recorded inputs through the mirror bank.
fn replay_static_run(
    seed: u64,
    topology: Topology,
    drift: DriftModel,
    horizon_secs: f64,
) -> Result<(), TestCaseError> {
    let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
    let mut sim = SimBuilder::new(params)
        .topology(topology)
        .drift(drift)
        .estimates(EstimateMode::Messages)
        .seed(seed)
        .build()
        .unwrap();
    let mut cores = mirror_bank(&sim);
    let horizon = SimTime::from_secs(horizon_secs);

    let mut deliveries = 0u64;
    while let Some(next) = sim.queue.next_time() {
        if next > horizon {
            break;
        }
        let (when, event) = sim.queue.pop().expect("peeked");
        sim.now = when;
        sim.stats.events += 1;
        let act = match &event {
            Event::Deliver {
                src,
                dst,
                sent_at,
                payload: Payload::Flood(msg),
            } => Act::Deliver {
                src: *src,
                dst: *dst,
                sent_at: *sent_at,
                msg: *msg,
            },
            Event::RateChange { node, rate } => Act::Rate {
                node: *node,
                rate: *rate,
            },
            Event::Tick => Act::Tick,
            Event::Flood { .. } => Act::Skip,
            other => {
                return Err(TestCaseError::fail(format!(
                    "static message-mode run produced an unexpected event: {other:?}"
                )))
            }
        };
        let delivered_before = sim.stats.messages_delivered;
        sim.handle(when, event);

        // The mirrors' tick timers run on every event; only an engine
        // tick may fire them, and it must fire every one.
        let is_tick = matches!(act, Act::Tick);
        for (i, core) in cores.iter_mut().enumerate() {
            if is_tick {
                let due = core.next_tick_at().map(|d| d.as_secs().to_bits());
                prop_assert_eq!(
                    due,
                    Some(when.as_secs().to_bits()),
                    "node {} tick grid is off the engine's at {:?}",
                    i,
                    when
                );
            }
            let Some(mode) = core.poll_tick(when) else {
                prop_assert!(!is_tick, "node {} missed the tick at {:?}", i, when);
                continue;
            };
            prop_assert!(is_tick, "node {} ticked between ticks at {:?}", i, when);
            prop_assert_eq!(
                mode,
                sim.nodes[i].mode(),
                "mode decision diverged for node {} at tick {:?}",
                i,
                when
            );
            prop_assert_eq!(
                sim.nodes[i].logical_at(when, &sim.params).to_bits(),
                core.state().logical().to_bits(),
                "logical clock diverged for node {} at tick {:?}",
                i,
                when
            );
        }

        match act {
            Act::Deliver {
                src,
                dst,
                sent_at,
                msg,
            } => {
                let outcome = cores[dst.index()].on_message(when, src, sent_at, msg);
                let delivered = sim.stats.messages_delivered > delivered_before;
                prop_assert_eq!(
                    outcome.is_some(),
                    delivered,
                    "§3.1 verdicts diverged for ({:?}, {:?}) sent {:?} delivered {:?}",
                    src,
                    dst,
                    sent_at,
                    when
                );
                let Some(outcome) = outcome else { continue };
                deliveries += 1;
                prop_assert!(
                    outcome.estimate_written,
                    "a delivered flood must write the sender's estimate slot"
                );
                assert_clocks_match(
                    "a delivery",
                    when,
                    &sim.nodes[dst.index()],
                    cores[dst.index()].state(),
                )?;
                // The estimate write itself, bit for bit.
                let engine_slot = sim.nodes[dst.index()]
                    .slots
                    .get(src)
                    .and_then(|s| s.estimate);
                let mirror_slot = cores[dst.index()]
                    .state()
                    .slots
                    .get(src)
                    .and_then(|s| s.estimate);
                let (Some(engine_est), Some(mirror_est)) = (engine_slot, mirror_slot) else {
                    return Err(TestCaseError::fail(
                        "estimate slot missing after an accepted delivery".to_string(),
                    ));
                };
                prop_assert_eq!(engine_est.value.to_bits(), mirror_est.value.to_bits());
                prop_assert_eq!(
                    engine_est.hw_at_recv.to_bits(),
                    mirror_est.hw_at_recv.to_bits()
                );
            }
            Act::Rate { node, rate } => {
                cores[node].set_hw_rate(when, rate);
                assert_clocks_match("a rate change", when, &sim.nodes[node], cores[node].state())?;
            }
            Act::Tick | Act::Skip => {}
        }
    }
    prop_assert!(sim.stats.ticks > 0, "the run never ticked");
    prop_assert!(
        deliveries > 0,
        "the run never delivered a flood — the replay checked nothing"
    );
    Ok(())
}

fn topologies() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::ring(5)),
        Just(Topology::complete(4)),
        Just(Topology::line(6)),
    ]
}

fn drifts() -> impl Strategy<Value = DriftModel> {
    prop_oneof![
        Just(DriftModel::TwoBlock),
        Just(DriftModel::RandomConstant),
        Just(DriftModel::Alternating),
        Just(DriftModel::RandomWalk {
            period: 1.0,
            step_frac: 0.5,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn recorded_message_sequences_replay_through_the_sans_io_core(
        seed in any::<u64>(),
        topology in topologies(),
        drift in drifts(),
    ) {
        replay_static_run(seed, topology, drift, 8.0)?;
    }
}

#[cfg(test)]
mod pinned {
    use super::*;

    /// A deterministic non-proptest anchor so `cargo test replay` always
    /// exercises the worst-case drift split on a ring, seed-stable.
    #[test]
    fn two_block_ring_replays_bit_identically() {
        for seed in 0..4 {
            replay_static_run(seed, Topology::ring(5), DriftModel::TwoBlock, 10.0).unwrap();
        }
    }
}
