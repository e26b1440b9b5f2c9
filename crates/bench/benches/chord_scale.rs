//! Chord routing-state compaction and incremental ring verification at
//! scale: the two changes that move chord arms from 10⁴–10⁵ to 10⁶ nodes.
//!
//! Besides the criterion groups (at n = 10⁴ so `cargo bench` stays
//! pleasant), the run measures the headline numbers at the acceptance
//! size n = 10⁵ and appends one machine-readable point to the
//! `BENCH_chord_scale.json` history at the repo root (entries keyed by
//! `RP_BENCH_SHA`, deduped per revision — see `bench::history`):
//!
//! * **bytes/node** — the struct-of-arrays arena
//!   (`ChordNetwork::routing_bytes`) vs the pre-arena per-node
//!   representation, *measured* from the live shadow mirror rather than
//!   derived from a formula. Bar: ≥ 8× smaller.
//! * **per-round verification** — polling `verify_ring()` (O(1) read of
//!   the incrementally maintained ledger) vs the seed's from-scratch
//!   `verify_ring_full()` re-scan, after a churn batch. Bar: ≥ 20×
//!   faster.
//! * **telemetry overhead** — the disabled-tracing instrumentation a
//!   routed lookup executes (counter adds, histogram record, flag check)
//!   vs the lookup itself. Bar: ≤ 2%. Plus the recorder's resident
//!   footprint amortized per node. Bar: ≤ 4 B/node. The always-on
//!   explainability bundle (op ordinal + span attribution + exemplar
//!   capture) is gated separately at ≤ 2% of a routed lookup.
//! * **churn repair wall** — the 64-crash churn batch plus the batched
//!   rounds that drain it, in milliseconds (`churn_drain_ms`). Recorded,
//!   not gated: it tracks the membership and maintenance bookkeeping
//!   around the drain's routed lookups.
//!
//! With `RP_ENFORCE_BENCH=1` the process exits non-zero when any bar
//! is missed — CI runs it that way so a regression fails the job.

use std::time::Instant;

use chord::{
    AdaptiveConfig, ChordConfig, ChordNetwork, EngineConfig, FaultPlan, LookupEngine,
    MaintenanceBudget, NodeId, SloConfig, Watchdog,
};
use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use keyspace::KeySpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acceptance size for the JSON point.
const SCALE_N: usize = 100_000;
/// Criterion-group size (keeps interactive runs fast).
const GROUP_N: usize = 10_000;

const MEMORY_BAR: f64 = 8.0;
const VERIFY_BAR: f64 = 20.0;
/// Budget for disabled-telemetry instrumentation on the lookup hot path:
/// the counter adds, the histogram record, and the tracing flag check a
/// routed `find_successor` executes may not cost more than 2% of the
/// lookup itself. The events are measured standalone (they are identical
/// code with tracing on or off — tracing only changes whether hop records
/// are built), so the figure is the *ceiling* of what instrumenting an
/// uninstrumented lookup could add.
const TELEMETRY_OVERHEAD_BUDGET_PCT: f64 = 2.0;
/// Budget for the always-on explainability instrumentation a routed
/// attempt executes: one op-ordinal draw (`ChordNetwork::next_op_ordinal`,
/// a plain per-network cell), one span cost attribution to
/// `lookup;finger_walk` (`SpanProfiler::add`), and the exemplar-tagged
/// hop-histogram record (`record_with_exemplar`). Measured as a
/// standalone bundle of exactly those three calls — a ceiling on what the
/// profiler adds to an uninstrumented lookup — and gated at 2% of the
/// routed lookup it decorates.
const PROFILER_OVERHEAD_BUDGET_PCT: f64 = 2.0;
/// Budget for one full watchdog window observation (recorder window
/// close + sampled ring spot-check + SLO evaluation + series append),
/// amortized against the draws that fill a window: the harness closes a
/// window every `max(500, 5·live)` draws, so at the acceptance size the
/// observation must cost under 2% of the lookups those draws execute.
const WATCHDOG_OVERHEAD_BUDGET_PCT: f64 = 2.0;
/// Budget for the recorder's resident footprint, amortized per node: the
/// preallocated counter slots plus the lazily allocated hop-histogram
/// buckets are a fixed ~10 KB per network, so at the acceptance size they
/// must amortize to well under 4 B/node.
const RECORDER_BYTES_BUDGET: f64 = 4.0;
/// Budget for the verification ledger (`ChordNetwork::verifier_bytes`).
/// The `Vec<Vec<u32>>` reverse indexes cost ~101 B/node; the compact
/// sorted-run multimaps plus the derived-successor column measure
/// ~37 B/node, gated here so the ledger stays a small fraction of the
/// ~134 B/node of routing state it verifies.
const VERIFIER_BYTES_BUDGET: f64 = 40.0;
/// Budget for the batched-maintenance dirty set
/// (`ChordNetwork::maintenance_bytes`): finger masks + bitsets + queue,
/// ~8.3 B/node steady-state. Gated so maintenance bookkeeping cannot
/// silently erode the scale headroom the other two budgets protect.
const MAINTENANCE_BYTES_BUDGET: f64 = 16.0;
/// Budget for the async engine's message decomposition: a lookup driven
/// through the event loop at unit-constant latency makes the same
/// routing decisions as the sync walk, so everything above 1.0× is pure
/// engine bookkeeping — message structs, queue pushes/pops, per-request
/// state. Gated at ≤ 1.10× the policy-aware sync walk so "async" never
/// quietly becomes "slow".
const ENGINE_OVERHEAD_BAR: f64 = 1.10;
/// Budget for the adaptive peer-score table (`ChordNetwork::score_bytes`):
/// two u8 columns (success EWMA + consecutive failures) per node, ~2 B
/// steady-state. Gated at 8 so adaptive routing stays a rounding error
/// next to the ~134 B/node of routing state it ranks.
const SCORE_BYTES_BUDGET: f64 = 8.0;

fn build(n: usize, seed: u64) -> ChordNetwork {
    let space = KeySpace::full();
    let mut rng = StdRng::seed_from_u64(seed);
    ChordNetwork::bootstrap(
        space,
        space.random_points(&mut rng, n),
        ChordConfig::default(),
    )
}

/// Crashes `k` spread-out victims so both pollers see a ring with real
/// pending changes (the incremental ledger absorbed them as deltas).
fn churn_batch(net: &mut ChordNetwork, k: usize) {
    let victims: Vec<NodeId> = net
        .live_ids()
        .into_iter()
        .step_by((net.live_len() / k).max(1))
        .take(k)
        .collect();
    for v in victims {
        net.crash(v);
    }
}

fn bench_verify_poll(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_poll");
    let mut net = build(GROUP_N, 7);
    churn_batch(&mut net, 64);
    group.bench_with_input(
        BenchmarkId::new("incremental", GROUP_N),
        &GROUP_N,
        |b, _| b.iter(|| black_box(net.verify_ring())),
    );
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("full_rescan", GROUP_N),
        &GROUP_N,
        |b, _| b.iter(|| black_box(net.verify_ring_full())),
    );
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let net = build(GROUP_N, 7);
    let origin = net.node_ids()[0];
    let space = KeySpace::full();
    let mut rng = StdRng::seed_from_u64(21);
    let targets = space.random_points(&mut rng, 1024);
    let mut group = c.benchmark_group("lookup");
    group.bench_with_input(BenchmarkId::new("chord", GROUP_N), &GROUP_N, |b, _| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(net.find_successor(origin, targets[i], &mut rng))
        })
    });
    group.finish();
}

fn bench_bulk_join(c: &mut Criterion) {
    let space = KeySpace::full();
    let mut rng = StdRng::seed_from_u64(13);
    let points = space.random_points(&mut rng, GROUP_N);
    let mut group = c.benchmark_group("bulk_join");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("chord", GROUP_N), &GROUP_N, |b, _| {
        b.iter(|| ChordNetwork::bootstrap(space, black_box(points.clone()), ChordConfig::default()))
    });
    group.finish();
}

/// Times `op` and returns mean nanoseconds per iteration.
fn measure<O>(iters: u32, mut op: impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(op());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The acceptance measurement at n = 10⁵, serialized to the repo root.
fn emit_json_point() -> bool {
    let build_start = Instant::now();
    let mut net = build(SCALE_N, 7);
    let bulk_ms = build_start.elapsed().as_secs_f64() * 1e3;

    // Memory: measured compact bytes vs the measured legacy mirror.
    net.enable_shadow_mirror();
    net.assert_shadow_matches();
    let compact = net.routing_bytes() as f64 / SCALE_N as f64;
    let legacy = net.shadow_routing_bytes().unwrap() as f64 / SCALE_N as f64;
    let verifier = net.verifier_bytes() as f64 / SCALE_N as f64;
    let memory_ratio = legacy / compact;
    let mut maintenance_bytes = net.maintenance_bytes() as f64 / SCALE_N as f64;

    // Per-round verification polling, with pending churn deltas absorbed.
    let churn_start = Instant::now();
    churn_batch(&mut net, 64);
    let mut churn_drain_ms = churn_start.elapsed().as_secs_f64() * 1e3;
    let incr_ns = measure(50_000, || net.verify_ring());
    let full_ns = measure(10, || net.verify_ring_full());
    let verify_speedup = full_ns / incr_ns.max(1e-9);
    let report = net.verify_ring();
    assert_eq!(report, net.verify_ring_full(), "pollers disagree");

    // Batched maintenance: drain the churn batch's dirty set and count
    // the routed lookups it took — a classic round costs n of them.
    let dirty_after_churn = net.maintenance_backlog();
    let mut rng = StdRng::seed_from_u64(99);
    let mut drain_lookups = 0u64;
    let mut drain_rounds = 0u32;
    let drain_start = Instant::now();
    while net.maintenance_backlog() > 0 && drain_rounds < 256 {
        let w = net.batched_maintenance_round(MaintenanceBudget::unlimited(), &mut rng);
        drain_lookups += w.lookups;
        drain_rounds += 1;
    }
    churn_drain_ms += drain_start.elapsed().as_secs_f64() * 1e3;
    let drained = net.maintenance_backlog() == 0;
    assert_eq!(net.verify_ring(), net.verify_ring_full(), "drain desynced");
    // The dirty set is busiest right after a churn batch; gate on the
    // larger of the converged and mid-drain figures.
    maintenance_bytes = maintenance_bytes.max(net.maintenance_bytes() as f64 / SCALE_N as f64);

    // Telemetry overhead on the lookup hot path, with tracing disabled
    // (the default). A routed lookup executes one tracing-flag load, one
    // counter add and one histogram record; measure a full routed lookup,
    // then that event bundle standalone, and gate the ratio.
    let origin = net
        .live_ids()
        .first()
        .copied()
        .expect("scale net has live nodes");
    let space = KeySpace::full();
    let targets = space.random_points(&mut rng, 1024);
    let mut t = 0usize;
    let lookup_ns = measure(20_000, || {
        t = (t + 1) % targets.len();
        net.find_successor(origin, targets[t], &mut rng)
    });
    let recorder = net.metrics().recorder();
    let counters = net.counters();
    assert!(
        !recorder.tracing_enabled(),
        "overhead gate measures the default path"
    );
    let telemetry_event_ns = measure(1_000_000, || {
        black_box(recorder.tracing_enabled());
        recorder.add(counters.lookup_hops, 1);
        recorder.record(counters.hop_hist, 8);
    });
    let telemetry_overhead_pct = telemetry_event_ns / lookup_ns.max(1e-9) * 100.0;

    // The explainability bundle every routed attempt also executes, call
    // for call: the network's op-ordinal draw, the finger-walk span add
    // and the exemplar-tagged hop-histogram record. After the first
    // iteration the exemplar bitmap bit is set, so the loop measures the
    // steady-state fast path a long run actually pays.
    let profiler = recorder.profiler();
    let profiler_event_ns = measure(1_000_000, || {
        let ordinal = net.next_op_ordinal();
        profiler.add(counters.span_finger_walk, 1);
        recorder.record_with_exemplar(counters.hop_hist, 8, ordinal);
    });
    let profiler_overhead_pct = profiler_event_ns / lookup_ns.max(1e-9) * 100.0;
    let recorder_bytes = recorder.bytes() as f64 / SCALE_N as f64;

    // Watchdog overhead: one full window observation (close the recorder
    // window, sampled spot-check, SLO rules, series append) vs the
    // lookups of the draws that fill one harness window.
    let mut watchdog = Watchdog::new(SloConfig::default(), 0x57A7);
    let watchdog_observe_ns = measure(200, || {
        let window = recorder.reset_window();
        watchdog.observe(&net, window, None);
    });
    let window_draws = 500.max(5 * net.live_len()) as f64;
    let watchdog_overhead_pct = watchdog_observe_ns / (window_draws * lookup_ns).max(1e-9) * 100.0;

    // Async-engine overhead: the same lookups, decomposed into messages
    // and driven through the event loop at unit latency, vs the
    // policy-aware sync walk they must answer identically to. Driven
    // sequentially (submit one, drain it) so both sides walk the ring
    // with the same access pattern and the ratio isolates the engine's
    // own bookkeeping — message structs, queue pushes/pops, request
    // state — rather than the cache effects of multiplexing. Measured as
    // the median of paired back-to-back rounds: on a shared single-core
    // runner, clock-frequency drift between two long measurements easily
    // fakes a 2x "regression", so each round times both sides under the
    // same conditions and the median discards the outlier rounds. Both
    // sides of a round walk the same targets in the same order (each
    // round continues where the last one stopped), and the side that runs
    // first alternates, so neither side gets a smaller, warmer target set
    // or the other's cache warm-up.
    let rounds = 27u64;
    let mut sync_rounds = Vec::new();
    let mut engine_rounds = Vec::new();
    let mut ratios = Vec::new();
    for round in 0..rounds {
        let first = t;
        let mut sync_side = || {
            let mut i = first;
            measure(2_500, || {
                i = (i + 1) % targets.len();
                net.find_successor_with_policy(origin, targets[i], &FaultPlan::none(), &mut rng)
            })
        };
        let engine_side = || {
            let mut engine = LookupEngine::new(EngineConfig {
                seed: round,
                ..EngineConfig::default()
            });
            let mut i = first;
            let engine_ns = measure(2_500, || {
                i = (i + 1) % targets.len();
                engine.submit(&net, origin, targets[i]);
                engine.drain(&net, &FaultPlan::none());
            });
            assert_eq!(
                engine.completions().len(),
                2_500,
                "engine must complete the whole round"
            );
            engine_ns
        };
        let (sync_ns, engine_ns) = if round % 2 == 0 {
            let sync_ns = sync_side();
            (sync_ns, engine_side())
        } else {
            let engine_ns = engine_side();
            (sync_side(), engine_ns)
        };
        t = (first + 2_500) % targets.len();
        sync_rounds.push(sync_ns);
        engine_rounds.push(engine_ns);
        ratios.push(engine_ns / sync_ns.max(1e-9));
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let policy_lookup_ns = median(&mut sync_rounds);
    let engine_ns = median(&mut engine_rounds);
    let engine_overhead = median(&mut ratios);

    // Adaptive peer-score state, with scoring enabled on the full-scale
    // ring (measured last: enabling it changes finger ranking, which
    // would perturb the lookup figures above). The score columns grow
    // only as lookups record scores, so a scored batch of 2,500 lookups
    // from random live origins runs before the measurement.
    net.enable_adaptive_routing(AdaptiveConfig::default());
    let live = net.live_ids();
    for i in 0..2_500 {
        let from = live[rng.gen_range(0..live.len())];
        let _ = net.find_successor(from, targets[i % targets.len()], &mut rng);
    }
    let score_bytes = net.score_bytes() as f64 / SCALE_N as f64;

    let row = format!(
        "{{\"bench\": \"chord_scale\", \"n\": {SCALE_N}, \
         \"routing_bytes_per_node\": {compact:.1}, \
         \"legacy_bytes_per_node\": {legacy:.1}, \
         \"verifier_bytes_per_node\": {verifier:.1}, \
         \"verifier_bytes_budget\": {VERIFIER_BYTES_BUDGET}, \
         \"memory_ratio\": {memory_ratio:.1}, \"memory_bar\": {MEMORY_BAR}, \
         \"verify_full_ns\": {full_ns:.0}, \"verify_incremental_ns\": {incr_ns:.1}, \
         \"verify_speedup\": {verify_speedup:.0}, \"verify_bar\": {VERIFY_BAR}, \
         \"maintenance_dirty_after_64_crashes\": {dirty_after_churn}, \
         \"maintenance_drain_lookups\": {drain_lookups}, \
         \"maintenance_drain_rounds\": {drain_rounds}, \
         \"maintenance_full_round_lookups\": {SCALE_N}, \
         \"maintenance_bytes_per_node\": {maintenance_bytes:.1}, \
         \"maintenance_bytes_budget\": {MAINTENANCE_BYTES_BUDGET}, \
         \"churn_drain_ms\": {churn_drain_ms:.1}, \
         \"lookup_ns\": {lookup_ns:.0}, \
         \"telemetry_event_ns\": {telemetry_event_ns:.1}, \
         \"telemetry_overhead_pct\": {telemetry_overhead_pct:.2}, \
         \"telemetry_overhead_budget_pct\": {TELEMETRY_OVERHEAD_BUDGET_PCT}, \
         \"profiler_event_ns\": {profiler_event_ns:.1}, \
         \"profiler_overhead_pct\": {profiler_overhead_pct:.2}, \
         \"profiler_overhead_budget_pct\": {PROFILER_OVERHEAD_BUDGET_PCT}, \
         \"watchdog_observe_ns\": {watchdog_observe_ns:.0}, \
         \"watchdog_overhead_pct\": {watchdog_overhead_pct:.3}, \
         \"watchdog_overhead_budget_pct\": {WATCHDOG_OVERHEAD_BUDGET_PCT}, \
         \"recorder_bytes_per_node\": {recorder_bytes:.2}, \
         \"recorder_bytes_budget\": {RECORDER_BYTES_BUDGET}, \
         \"score_bytes_per_node\": {score_bytes:.2}, \
         \"score_bytes_budget\": {SCORE_BYTES_BUDGET}, \
         \"policy_lookup_ns\": {policy_lookup_ns:.0}, \
         \"engine_lookup_ns\": {engine_ns:.0}, \
         \"engine_overhead_ratio\": {engine_overhead:.3}, \
         \"engine_overhead_bar\": {ENGINE_OVERHEAD_BAR}, \
         \"bulk_join_ms\": {bulk_ms:.0}}}"
    );
    // CARGO_MANIFEST_DIR = crates/bench; the trajectory file lives at the
    // repo root so the PR driver can diff it across revisions. Appended
    // as a history entry keyed by RP_BENCH_SHA (see bench::history).
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_chord_scale.json");
    match bench::history::append_entry(&path, std::slice::from_ref(&row)) {
        Ok(sha) => println!("json point [{sha}] -> {}", path.display()),
        Err(e) => println!("json point not persisted ({e}); {row}"),
    }

    let memory_ok = memory_ratio >= MEMORY_BAR;
    let verify_ok = verify_speedup >= VERIFY_BAR;
    let verifier_ok = verifier <= VERIFIER_BYTES_BUDGET;
    // Batched repair of a 64-crash batch must undercut even one classic
    // round's n lookups (it lands around changes * log n), and the
    // dirty-set bookkeeping must stay within its per-node budget.
    let maintenance_ok =
        drained && drain_lookups < SCALE_N as u64 && maintenance_bytes <= MAINTENANCE_BYTES_BUDGET;
    let telemetry_ok = telemetry_overhead_pct <= TELEMETRY_OVERHEAD_BUDGET_PCT
        && recorder_bytes <= RECORDER_BYTES_BUDGET;
    let profiler_ok = profiler_overhead_pct <= PROFILER_OVERHEAD_BUDGET_PCT;
    let watchdog_ok = watchdog_overhead_pct <= WATCHDOG_OVERHEAD_BUDGET_PCT;
    let score_ok = score_bytes <= SCORE_BYTES_BUDGET;
    let engine_ok = engine_overhead <= ENGINE_OVERHEAD_BAR;
    println!(
        "memory: {compact:.1} B/node vs legacy {legacy:.1} B/node => {memory_ratio:.1}x \
         (bar {MEMORY_BAR}x, {})",
        if memory_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "verify poll: incremental {incr_ns:.1} ns vs full {full_ns:.0} ns => {verify_speedup:.0}x \
         (bar {VERIFY_BAR}x, {})",
        if verify_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "verifier ledger: {verifier:.1} B/node (budget {VERIFIER_BYTES_BUDGET}, {})",
        if verifier_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "batched maintenance: {dirty_after_churn} dirty entries after 64 crashes, drained \
         in {drain_rounds} rounds / {drain_lookups} lookups vs {SCALE_N} per classic round \
         ({churn_drain_ms:.1} ms with the crashes, recorded); \
         dirty set {maintenance_bytes:.1} B/node (budget {MAINTENANCE_BYTES_BUDGET}) ({})",
        if maintenance_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "telemetry: {telemetry_event_ns:.1} ns/lookup of instrumentation vs {lookup_ns:.0} ns \
         lookups => {telemetry_overhead_pct:.2}% (budget {TELEMETRY_OVERHEAD_BUDGET_PCT}%); \
         recorder {recorder_bytes:.2} B/node (budget {RECORDER_BYTES_BUDGET}) ({})",
        if telemetry_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "profiler: {profiler_event_ns:.1} ns/attempt of span+exemplar instrumentation vs \
         {lookup_ns:.0} ns lookups => {profiler_overhead_pct:.2}% \
         (budget {PROFILER_OVERHEAD_BUDGET_PCT}%) ({})",
        if profiler_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "watchdog: {watchdog_observe_ns:.0} ns/window observation vs {window_draws:.0} draws \
         per window => {watchdog_overhead_pct:.3}% (budget {WATCHDOG_OVERHEAD_BUDGET_PCT}%) ({})",
        if watchdog_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "peer scores: {score_bytes:.2} B/node (budget {SCORE_BYTES_BUDGET}) ({})",
        if score_ok { "ok" } else { "REGRESSED" }
    );
    println!(
        "async engine: {engine_ns:.0} ns/lookup through the event loop vs \
         {policy_lookup_ns:.0} ns sync walk => {engine_overhead:.3}x \
         (bar {ENGINE_OVERHEAD_BAR}x, {})",
        if engine_ok { "ok" } else { "REGRESSED" }
    );
    memory_ok
        && verify_ok
        && verifier_ok
        && maintenance_ok
        && telemetry_ok
        && profiler_ok
        && watchdog_ok
        && score_ok
        && engine_ok
}

criterion_group!(benches, bench_verify_poll, bench_lookup, bench_bulk_join);

fn main() {
    benches();
    let ok = emit_json_point();
    if !ok && std::env::var("RP_ENFORCE_BENCH").is_ok() {
        eprintln!("chord_scale acceptance bars missed (RP_ENFORCE_BENCH set)");
        std::process::exit(1);
    }
}
