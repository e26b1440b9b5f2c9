//! The async engine's ground-truth pin: sync equivalence.
//!
//! PR 3–9 built every verdict on the sync walk, so the engine must
//! answer **identically** before it is allowed to add time. Two
//! properties, over arbitrary rings, crash plans and Byzantine fault
//! plans:
//!
//! 1. At zero (unit-constant) latency — where the latency model draws
//!    nothing from the RNG — a sequentially-driven engine with deadlines
//!    disarmed is *bit-identical* to the sync walk: same owner, same
//!    hops, same fully-attributed cost, same counters (all but the
//!    engine's own), same span totals and the same trace digest (traces,
//!    ordinals and outcomes byte-for-byte) — with adaptive scoring on or
//!    off, from a live or a dead origin.
//! 2. At nonzero (randomized) latency the costs legitimately diverge
//!    (different RNG streams), but the *answer* may not: routing
//!    decisions consume no randomness, so the owner is timing-independent.

use chord::{
    AdaptiveConfig, ChordConfig, ChordNetwork, EngineConfig, FaultPlan, LookupEngine, NodeId,
    RetryPolicy,
};
use keyspace::{KeySpace, Point};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::LatencyModel;

fn build_net(n: usize, seed: u64, latency: LatencyModel, tracing: bool) -> ChordNetwork {
    let space = KeySpace::full();
    let mut rng = StdRng::seed_from_u64(seed);
    let net = ChordNetwork::bootstrap(
        space,
        space.random_points(&mut rng, n),
        ChordConfig::default().with_latency(latency),
    );
    net.metrics().recorder().set_tracing(tracing);
    net
}

/// A deterministic churn + fault plan derived from the proptest inputs:
/// crash a contiguous arc (correlated outage) plus a strided scatter,
/// and mark a strided subset of survivors Byzantine.
struct Plan {
    dead: Vec<NodeId>,
    faults: FaultPlan,
    origin: NodeId,
}

fn apply_plan(
    net: &mut ChordNetwork,
    arc_start: usize,
    arc_len: usize,
    liar_stride: usize,
) -> Plan {
    let mut ring = net.live_ids();
    ring.sort_by_key(|&id| net.node(id).point());
    let n = ring.len();
    let dead: Vec<NodeId> = (0..arc_len.min(n / 4))
        .map(|k| ring[(arc_start + k) % n])
        .collect();
    for &id in &dead {
        net.crash(id);
    }
    let survivors: Vec<NodeId> = ring
        .iter()
        .copied()
        .filter(|id| !dead.contains(id))
        .collect();
    let origin = survivors[arc_start % survivors.len()];
    let liars: Vec<NodeId> = survivors
        .iter()
        .copied()
        .filter(|&id| id != origin)
        .step_by(liar_stride)
        .collect();
    Plan {
        dead,
        faults: FaultPlan::for_nodes(liars),
        origin,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Property 1: zero-latency async == sync walk, bit for bit.
    #[test]
    fn zero_latency_async_is_bit_identical_to_sync(
        n in 32usize..=96,
        seed in 0u64..500,
        arc_start in 0usize..96,
        arc_len in 0usize..16,
        liar_stride in 3usize..8,
        with_policy in any::<bool>(),
        with_scoring in any::<bool>(),
        dead_origin in any::<bool>(),
        targets in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        // Two identical worlds: the sync driver and the engine driver.
        let mut sync_net = build_net(n, seed, LatencyModel::UNIT, true);
        let mut async_net = build_net(n, seed, LatencyModel::UNIT, true);
        let plan = apply_plan(&mut sync_net, arc_start, arc_len, liar_stride);
        let async_plan = apply_plan(&mut async_net, arc_start, arc_len, liar_stride);
        prop_assert_eq!(plan.dead.len(), async_plan.dead.len());
        if with_policy {
            sync_net.enable_retry_policy(RetryPolicy::default());
            async_net.enable_retry_policy(RetryPolicy::default());
        }
        if with_scoring {
            sync_net.enable_adaptive_routing(AdaptiveConfig::default());
            async_net.enable_adaptive_routing(AdaptiveConfig::default());
        }
        if dead_origin {
            sync_net.crash(plan.origin);
            async_net.crash(async_plan.origin);
        }

        // Sync pass. Unit-constant latency draws nothing from the RNG,
        // so the two drivers' different RNG plumbing cannot diverge.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE9_61_7E);
        let mut sync_results = Vec::new();
        for &raw in &targets {
            let r = sync_net.find_successor_with_policy(
                plan.origin, Point::new(raw), &plan.faults, &mut rng);
            sync_results.push(r);
        }

        // Engine pass: sequential (submit one, drain it) — concurrency
        // off, deadlines disarmed, so only the message decomposition is
        // under test.
        let mut engine = LookupEngine::new(EngineConfig { seed, ..EngineConfig::default() });
        for &raw in &targets {
            let tag = engine.submit(&async_net, async_plan.origin, Point::new(raw));
            engine.drain(&async_net, &async_plan.faults);
            prop_assert_eq!(engine.completions().last().unwrap().tag, tag);
        }

        for (done, sync) in engine.completions().iter().zip(&sync_results) {
            match (&done.result, sync) {
                (Ok(a), Ok(s)) => {
                    prop_assert_eq!(a.node, s.node);
                    prop_assert_eq!(a.point, s.point);
                    prop_assert_eq!(a.hops, s.hops);
                    prop_assert_eq!(a.cost, s.cost, "cost attribution must match");
                    // The latency-wiring invariant: simulated wall-clock
                    // is exactly the accounted latency.
                    prop_assert_eq!(
                        (done.completed_at - done.started_at).ticks(),
                        a.cost.latency
                    );
                }
                (Err(a), Err(s)) => prop_assert_eq!(a, s),
                (a, s) => prop_assert!(false, "outcome mismatch: {a:?} vs {s:?}"),
            }
        }

        // Bit-identity of the observable record: hop counters and the
        // full trace stream (ordinals, hop paths, outcomes, latencies).
        for key in ["lookup.hops", "lookup.dead_probe", "lookup.byzantine_claim",
                    "lookup.retries", "lookup.fallback_depth"] {
            prop_assert_eq!(
                sync_net.metrics().get(key), async_net.metrics().get(key), "{}", key);
        }
        prop_assert_eq!(
            sync_net.metrics().recorder().trace_digest(),
            async_net.metrics().recorder().trace_digest(),
            "trace digests must be bit-identical"
        );
        // Every span and every counter but the engine's own agree too.
        prop_assert_eq!(
            sync_net.metrics().recorder().profiler().totals(),
            async_net.metrics().recorder().profiler().totals()
        );
        let shared_counters = |net: &ChordNetwork| {
            let mut counters = net.metrics().snapshot();
            counters.retain(|name, _| !name.starts_with("engine."));
            counters
        };
        prop_assert_eq!(shared_counters(&sync_net), shared_counters(&async_net));
    }

    /// Property 2: under randomized per-message latency the answer is
    /// timing-independent — same owner, whatever the delays did.
    #[test]
    fn nonzero_latency_still_returns_the_same_owner(
        n in 32usize..=96,
        seed in 0u64..500,
        arc_start in 0usize..96,
        arc_len in 0usize..16,
        targets in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let latency = LatencyModel::Uniform { lo: 1, hi: 9 };
        let mut sync_net = build_net(n, seed, LatencyModel::UNIT, false);
        let mut async_net = build_net(n, seed, latency, false);
        let plan = apply_plan(&mut sync_net, arc_start, arc_len, 7);
        let async_plan = apply_plan(&mut async_net, arc_start, arc_len, 7);
        sync_net.enable_retry_policy(RetryPolicy::default());
        async_net.enable_retry_policy(RetryPolicy::default());

        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD);
        let mut engine = LookupEngine::new(EngineConfig { seed: seed ^ 0xA5, ..EngineConfig::default() });
        for (i, &raw) in targets.iter().enumerate() {
            let sync = sync_net.find_successor_with_policy(
                plan.origin, Point::new(raw), &plan.faults, &mut rng);
            engine.submit_tagged(&async_net, i as u64, async_plan.origin, Point::new(raw));
            engine.drain(&async_net, &async_plan.faults);
            match (&engine.completions()[i].result, &sync) {
                (Ok(a), Ok(s)) => {
                    prop_assert_eq!(a.node, s.node, "owner must be timing-independent");
                    prop_assert_eq!(a.point, s.point);
                }
                (Err(a), Err(s)) => prop_assert_eq!(a, s),
                (a, s) => prop_assert!(false, "outcome mismatch: {a:?} vs {s:?}"),
            }
        }
    }
}

/// The walk/quorum degradation tiers answer identically through the
/// engine: a dead arc longer than the successor list defeats routed
/// attempts in both drivers, and both degrade to the same owner with the
/// same attributed cost.
#[test]
fn degradation_tiers_are_equivalent_through_the_engine() {
    let build = || {
        let mut net = build_net(64, 41, LatencyModel::UNIT, true);
        net.enable_retry_policy(RetryPolicy::default());
        let mut ring = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        let arc = ring[20..36].to_vec();
        for &v in &arc {
            net.crash(v);
        }
        let target = net.node(arc[8]).point();
        (net, ring[0], target)
    };
    let (sync_net, origin, target) = build();
    let (async_net, a_origin, a_target) = build();
    assert_eq!(origin, a_origin);

    let mut rng = StdRng::seed_from_u64(7);
    let sync = sync_net
        .find_successor_with_policy(origin, target, &FaultPlan::none(), &mut rng)
        .unwrap();

    let mut engine = LookupEngine::new(EngineConfig::default());
    engine.submit(&async_net, a_origin, a_target);
    engine.drain(&async_net, &FaultPlan::none());
    let done = engine.completions()[0].result.as_ref().unwrap();

    assert_eq!(done.node, sync.node);
    assert_eq!(done.point, sync.point);
    assert_eq!(done.hops, sync.hops);
    assert_eq!(done.cost, sync.cost);
    assert_eq!(
        sync_net.metrics().get("lookup.fallback_depth"),
        async_net.metrics().get("lookup.fallback_depth")
    );
    assert_eq!(
        sync_net.metrics().recorder().trace_digest(),
        async_net.metrics().recorder().trace_digest()
    );
}

/// Regression for the latency-model wiring (the silent no-op this PR
/// fixes for scenarios): scaling the constant model must scale both the
/// accounted latency and the engine's simulated wall-clock by exactly
/// the message count.
#[test]
fn latency_model_scales_wall_clock_and_cost_together() {
    for ticks in [1u64, 10, 25] {
        let net = build_net(64, 11, LatencyModel::Constant(ticks), false);
        let origin = net.live_ids()[0];
        let mut engine = LookupEngine::new(EngineConfig::default());
        let mut r = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let target = net.space().random_point(&mut r);
            engine.submit(&net, origin, target);
        }
        engine.drain(&net, &FaultPlan::none());
        assert_eq!(engine.completions().len(), 20);
        for c in engine.completions() {
            let hit = c.result.as_ref().unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(hit.point));
            assert_eq!(
                hit.cost.latency,
                hit.cost.messages * ticks,
                "latency must scale with the model"
            );
            assert_eq!((c.completed_at - c.started_at).ticks(), hit.cost.latency);
        }
    }
}
