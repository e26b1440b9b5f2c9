use core::fmt;
use std::cell::{Cell, RefCell};

use keyspace::{Distance, KeySpace, Point};
use rand::Rng;
use ringidx::RingIndex;
use simnet::Metrics;
use telemetry::{CounterId, HistogramId, SpanId};

use crate::arena::{NodeRef, RoutingArena};
use crate::maintenance::{DirtySet, MaintenanceBudget, MaintenanceWork};
use crate::multimap::CompactMultiMap;
use crate::score::{AdaptiveConfig, PeerScores, RetryPolicy};
use crate::shadow::Shadow;
use crate::ChordConfig;

/// Sentinel for "no node" in the ledger's flat `u32` columns (mirrors the
/// arena's encoding).
const NONE32: u32 = u32::MAX;

/// Stable handle of a node in a [`ChordNetwork`].
///
/// Ids index an arena and are never reused; a crashed or departed node
/// keeps its id (with `is_alive() == false`), so experiment histograms can
/// be keyed by `NodeId` across churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a handle from a raw arena index.
    pub const fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }

    /// The raw arena index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Snapshot of ring-consistency checks, produced by
/// [`ChordNetwork::verify_ring`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingReport {
    /// Live nodes whose first successor matches the ground truth.
    pub correct_successors: usize,
    /// Live nodes whose predecessor matches the ground truth.
    pub correct_predecessors: usize,
    /// Fraction of finger-table entries pointing at the true successor of
    /// their target (over live nodes' populated fingers).
    pub finger_accuracy: f64,
    /// Number of live nodes.
    pub live: usize,
}

impl RingReport {
    /// Whether every live node has the correct successor and predecessor —
    /// the invariant Chord's stabilization converges to.
    pub fn is_converged(&self) -> bool {
        self.correct_successors == self.live && self.correct_predecessors == self.live
    }
}

/// Incrementally maintained [`RingReport`] state.
///
/// Every routing write and membership event flows through a
/// `ChordNetwork` funnel that re-evaluates exactly the per-node
/// correctness predicates the event could have changed, keeping the
/// report counters current as deltas. [`ChordNetwork::verify_ring`] is
/// then an O(1) counter read instead of the seed's O(n log n) full scan,
/// which made per-round convergence polling the scale bottleneck.
///
/// Reverse dependency indexes make the delta sets exact:
///
/// * `dsucc_watch[y]` — nodes whose *derived first-live successor* is `y`
///   (the one quantity on the left side of the successor-correctness
///   predicate that `y`'s death can change; nodes merely holding `y`
///   deeper in their successor list keep the same derived successor, so
///   they need no re-check — the insight that shrinks this index from
///   `r` entries per node to one);
/// * `pred_watch[y]` — nodes whose predecessor pointer is `y`.
///
/// Both relations hold at most one entry per node and live in
/// [`CompactMultiMap`]s (flat sorted `u32`-keyed runs, the same
/// chunked-column style as the arena's finger store) instead of the
/// earlier `Vec<Vec<u32>>` pair, cutting the ledger from ~100 B/node to
/// under 40 (gated in `BENCH_chord_scale.json`).
///
/// Membership events additionally re-check the dead/new node's ring
/// neighbours (whose ground truth shifted) and, per finger bit, the
/// nodes whose finger *target* falls in the ownership arc that changed —
/// an O(log n + hits) range query per bit.
struct Ledger {
    /// Per-node counted contributions: bit 0 = successor correct,
    /// bit 1 = predecessor correct.
    flags: Vec<u8>,
    /// Per-node mask of finger bits counted as populated.
    fpop: Vec<u64>,
    /// Per-node mask of finger bits counted as correct.
    fok: Vec<u64>,
    succ_ok: usize,
    pred_ok: usize,
    fingers_total: usize,
    fingers_right: usize,
    /// Per-node derived first-live successor (`NONE32` while dead or
    /// unset) — the forward side of `dsucc_watch`.
    dsucc: Vec<u32>,
    /// `y -> nodes whose derived first-live successor is y`.
    dsucc_watch: CompactMultiMap,
    /// `y -> nodes whose predecessor pointer is y`.
    pred_watch: CompactMultiMap,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            flags: Vec::new(),
            fpop: Vec::new(),
            fok: Vec::new(),
            succ_ok: 0,
            pred_ok: 0,
            fingers_total: 0,
            fingers_right: 0,
            dsucc: Vec::new(),
            dsucc_watch: CompactMultiMap::new(),
            pred_watch: CompactMultiMap::new(),
        }
    }

    fn push(&mut self) {
        self.flags.push(0);
        self.fpop.push(0);
        self.fok.push(0);
        self.dsucc.push(NONE32);
    }

    /// Bytes held by the verification ledger (flags, finger masks, the
    /// derived-successor column and both reverse multimaps) — reported
    /// separately from [`ChordNetwork::routing_bytes`] because it
    /// accelerates *verification*, not routing, and the seed
    /// representation had no counterpart.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.flags.len()
            + (self.fpop.len() + self.fok.len()) * size_of::<u64>()
            + self.dsucc.len() * size_of::<u32>()
            + self.dsucc_watch.bytes()
            + self.pred_watch.bytes()
    }
}

/// A simulated Chord overlay.
///
/// All protocol state lives in a struct-of-arrays
/// [`RoutingArena`](crate::arena) indexed by [`NodeId`] — a flat alive
/// bitset, flat predecessor column, one shared successor-list buffer and
/// a run-length-compressed shared finger store (~130 routing bytes per
/// node instead of the seed's ~1.2 KB of per-node heap blocks; see
/// [`routing_bytes`](ChordNetwork::routing_bytes)). Protocol logic
/// (routing in `lookup.rs`, membership and maintenance here) reads that
/// state through cheap [`NodeRef`] views and writes it through funnels
/// that also keep an incremental [`RingReport`] ledger current, so
/// [`verify_ring`](ChordNetwork::verify_ring) is an O(1) read.
///
/// Two construction modes:
///
/// * [`ChordNetwork::bootstrap`] — a fully converged ring (correct
///   successor lists, predecessors and fingers), for static experiments
///   where only lookup costs matter.
/// * [`ChordNetwork::new`] + [`join`](ChordNetwork::join) — protocol-built
///   rings, converged by repeated
///   [`maintenance_round`](ChordNetwork::maintenance_round)s, for churn
///   experiments.
pub struct ChordNetwork {
    space: KeySpace,
    config: ChordConfig,
    arena: RoutingArena,
    metrics: Metrics,
    counters: ChordCounters,
    finger_bits: usize,
    /// Live ring positions in clockwise order: the incremental ground
    /// truth behind every `truth_*` query (O(log n) instead of an arena
    /// scan), maintained on every join, leave and crash.
    index: RingIndex<NodeId>,
    /// Live ids in ascending arena order, maintained incrementally so
    /// [`live_ids`](ChordNetwork::live_ids) never re-filters dead slots.
    live_set: Vec<NodeId>,
    ledger: Ledger,
    /// Known-stale routing state, fed by the same funnels as the ledger:
    /// what [`batched_maintenance_round`](ChordNetwork::batched_maintenance_round)
    /// spends its budget on.
    dirty: DirtySet,
    /// Optional mirror of the pre-arena per-node representation, for
    /// equivalence tests and memory benchmarks. See `crate::shadow`.
    shadow: Option<Box<Shadow>>,
    /// Adaptive per-peer responsiveness scores (see `crate::score`),
    /// `None` until [`enable_adaptive_routing`]. Behind a `RefCell`
    /// because lookups take `&self` yet must fold probe outcomes in;
    /// borrows never escape a single routing step.
    ///
    /// [`enable_adaptive_routing`]: ChordNetwork::enable_adaptive_routing
    scores: Option<RefCell<PeerScores>>,
    /// Retry/fallback policy applied by policy-path lookups, `None`
    /// until [`enable_retry_policy`](ChordNetwork::enable_retry_policy).
    retry: Option<RetryPolicy>,
    /// The successor list [`stabilize`](ChordNetwork::stabilize) builds,
    /// kept between calls so a call allocates nothing.
    list_scratch: Vec<NodeId>,
    /// The next operation ordinal
    /// ([`next_op_ordinal`](ChordNetwork::next_op_ordinal)). Lookups take
    /// `&self` and the network is not `Sync`, so a plain cell suffices.
    op_seq: Cell<u64>,
}

/// Pre-registered telemetry handles for every chord hot-path counter plus
/// the lookup hop-count histogram, interned once per network at
/// construction — hot-path events are single lock-free atomic adds, never
/// per-event `String` allocation or registry lookups ([`Metrics`] keeps
/// only by-name reads).
#[derive(Debug, Clone, Copy)]
pub struct ChordCounters {
    /// `bulk_join.nodes` — nodes created by [`ChordNetwork::bulk_join`].
    pub bulk_join_nodes: CounterId,
    /// `join.messages` — protocol-join routing plus handoff messages.
    pub join_messages: CounterId,
    /// `leave.messages` — graceful-departure notifications.
    pub leave_messages: CounterId,
    /// `stabilize.messages` — liveness probes per stabilize round.
    pub stabilize_messages: CounterId,
    /// `notify.messages` — predecessor-candidate notifications.
    pub notify_messages: CounterId,
    /// `fix_finger.messages` — routed finger-refresh lookups.
    pub fix_finger_messages: CounterId,
    /// `check_predecessor.messages` — predecessor liveness probes.
    pub check_predecessor_messages: CounterId,
    /// `lookup.hops` — total forwarding hops across all lookups.
    pub lookup_hops: CounterId,
    /// `lookup.dead_probe` — probes that hit a dead node.
    pub lookup_dead_probe: CounterId,
    /// `lookup.byzantine_claim` — lookups captured by a lying hop.
    pub lookup_byzantine_claim: CounterId,
    /// `lookup.forged_position` — owners self-reporting a forged point.
    pub lookup_forged_position: CounterId,
    /// `storage.put` — store writes.
    pub storage_put: CounterId,
    /// `storage.get` — store reads.
    pub storage_get: CounterId,
    /// `storage.migrate` — keys migrated on ownership change.
    pub storage_migrate: CounterId,
    /// `storage.replicate` — replica repairs.
    pub storage_replicate: CounterId,
    /// `lookup.retries` — routed re-attempts under a [`RetryPolicy`].
    pub lookup_retries: CounterId,
    /// `lookup.fallback_depth` — cumulative degradation depth (1 = answer
    /// after retry, 2 = successor-walk tier, 3 = verified-quorum tier).
    pub lookup_fallback_depth: CounterId,
    /// `domain.events` — correlated domain crash/heal events applied.
    pub domain_events: CounterId,
    /// `engine.timeouts` — async-engine attempt deadlines that fired.
    pub engine_timeouts: CounterId,
    /// `engine.completions` — async-engine lookups completed (either way).
    pub engine_completions: CounterId,
    /// Per-lookup hop-count distribution (p50/p99/p999 in e16 records).
    pub hop_hist: HistogramId,
    /// Submit-to-completion age of async-engine lookups in simulated
    /// ticks — the latency tail (`engine.inflight_age` p999) the
    /// watchdog's in-flight-age SLO gates.
    pub engine_age_hist: HistogramId,
    /// `lookup;finger_walk` span — routed-walk latency net of demoted
    /// skips (ticks).
    pub span_finger_walk: SpanId,
    /// `lookup;demoted_skip` span — latency of probes burnt on
    /// score-demoted candidates that turned out dead (ticks).
    pub span_demoted_skip: SpanId,
    /// `lookup;retry_backoff` span — deterministic backoff waits between
    /// routed re-attempts (ticks).
    pub span_retry_backoff: SpanId,
    /// `lookup;successor_walk` span — walk-tier fallback latency (ticks).
    pub span_successor_walk: SpanId,
    /// `lookup;verified_quorum` span — quorum-tier fallback latency
    /// (ticks).
    pub span_verified_quorum: SpanId,
    /// `maintenance;repair` span — batched-round repair actions
    /// (sp + finger refreshes; unit is repairs, not ticks).
    pub span_maintenance_repair: SpanId,
}

impl ChordCounters {
    fn register(recorder: &telemetry::Recorder) -> ChordCounters {
        ChordCounters {
            bulk_join_nodes: recorder.counter("bulk_join.nodes"),
            join_messages: recorder.counter("join.messages"),
            leave_messages: recorder.counter("leave.messages"),
            stabilize_messages: recorder.counter("stabilize.messages"),
            notify_messages: recorder.counter("notify.messages"),
            fix_finger_messages: recorder.counter("fix_finger.messages"),
            check_predecessor_messages: recorder.counter("check_predecessor.messages"),
            lookup_hops: recorder.counter("lookup.hops"),
            lookup_dead_probe: recorder.counter("lookup.dead_probe"),
            lookup_byzantine_claim: recorder.counter("lookup.byzantine_claim"),
            lookup_forged_position: recorder.counter("lookup.forged_position"),
            storage_put: recorder.counter("storage.put"),
            storage_get: recorder.counter("storage.get"),
            storage_migrate: recorder.counter("storage.migrate"),
            storage_replicate: recorder.counter("storage.replicate"),
            lookup_retries: recorder.counter("lookup.retries"),
            lookup_fallback_depth: recorder.counter("lookup.fallback_depth"),
            domain_events: recorder.counter("domain.events"),
            engine_timeouts: recorder.counter("engine.timeouts"),
            engine_completions: recorder.counter("engine.completions"),
            hop_hist: recorder.histogram("lookup.hops"),
            engine_age_hist: recorder.histogram("engine.inflight_age"),
            span_finger_walk: recorder.profiler().span("lookup;finger_walk"),
            span_demoted_skip: recorder.profiler().span("lookup;demoted_skip"),
            span_retry_backoff: recorder.profiler().span("lookup;retry_backoff"),
            span_successor_walk: recorder.profiler().span("lookup;successor_walk"),
            span_verified_quorum: recorder.profiler().span("lookup;verified_quorum"),
            span_maintenance_repair: recorder.profiler().span("maintenance;repair"),
        }
    }
}

impl ChordNetwork {
    /// Creates an empty overlay on `space`.
    pub fn new(space: KeySpace, config: ChordConfig) -> ChordNetwork {
        let finger_bits = (128 - (space.modulus() - 1).leading_zeros()) as usize;
        let finger_bits = finger_bits.max(1);
        // Every write comes from the network's own `&self`/`&mut self`
        // methods, and the network is not `Sync`, so one thread writes at
        // a time and the recorder can skip locked read-modify-writes.
        let metrics = Metrics::single_writer();
        let counters = ChordCounters::register(metrics.recorder());
        ChordNetwork {
            space,
            config,
            arena: RoutingArena::new(finger_bits, config.successor_list_len()),
            metrics,
            counters,
            finger_bits,
            index: RingIndex::new(space),
            live_set: Vec::new(),
            ledger: Ledger::new(),
            dirty: DirtySet::new(),
            shadow: None,
            scores: None,
            retry: None,
            list_scratch: Vec::new(),
            op_seq: Cell::new(0),
        }
    }

    /// Builds a fully converged ring over the given points (duplicates
    /// removed).
    pub fn bootstrap(space: KeySpace, points: Vec<Point>, config: ChordConfig) -> ChordNetwork {
        let mut net = ChordNetwork::new(space, config);
        net.bulk_join(points);
        net
    }

    /// Mass-joins `points` in O(n log n), deriving all routing state from
    /// the ground-truth index instead of running n sequential gateway
    /// joins (which would cost n routed lookups plus O(n) stabilization
    /// rounds to converge).
    ///
    /// Models an out-of-band coordinated bootstrap: after the call the
    /// whole overlay — pre-existing live nodes included — has the fully
    /// converged successor lists, predecessors and fingers of
    /// [`bootstrap`](ChordNetwork::bootstrap). Input duplicates and points
    /// already occupied by a live node are skipped. Returns the ids of the
    /// newly created nodes, in clockwise point order.
    ///
    /// Fingers are built per node as the ~log n ownership runs of its
    /// table (each finger bit's target either stays inside the current
    /// successor's arc or jumps to a new one at a predictable bit). Nodes
    /// are visited in ring order, so each bit's target only moves
    /// clockwise: one forward-only cursor per bit finds every run's owner
    /// without a search, going at most twice around the sorted entries.
    pub fn bulk_join(&mut self, mut points: Vec<Point>) -> Vec<NodeId> {
        points.sort_unstable();
        points.dedup();
        let mut created = Vec::with_capacity(points.len());
        if self.index.is_empty() {
            // From-empty fast path: one O(n log n) bulk index build
            // instead of n incremental inserts.
            let mut entries = Vec::with_capacity(points.len());
            for &p in &points {
                let id = self.push_node(p);
                self.live_set.push(id);
                entries.push((p, id));
                created.push(id);
            }
            self.index = RingIndex::bulk(self.space, entries);
        } else {
            for p in points {
                if self.index.contains_point(p) {
                    continue;
                }
                let id = self.push_node(p);
                self.index.insert(p, id);
                self.live_set.push(id);
                created.push(id);
            }
        }
        self.metrics
            .recorder()
            .add(self.counters.bulk_join_nodes, created.len() as u64);

        // Rebuild every live node's routing state from ring order: the
        // successor list is the next r entries, the predecessor the
        // previous one, fingers are ownership runs over the sorted order.
        let order: Vec<(Point, NodeId)> = self.index.entries().copied().collect();
        let n = order.len();
        if n == 0 {
            return created;
        }
        let r = self.config.successor_list_len();
        self.arena.reset_finger_store();
        let mut succs: Vec<NodeId> = Vec::with_capacity(r);
        let mut run_starts: Vec<u8> = Vec::with_capacity(self.finger_bits);
        let mut run_vals: Vec<u32> = Vec::with_capacity(self.finger_bits);
        let mut cursors = [0usize; 64];
        for (rank, &(point, id)) in order.iter().enumerate() {
            succs.clear();
            for k in 1..=r.min(n.saturating_sub(1)).max(1) {
                succs.push(order[(rank + k) % n].1);
            }
            let pred = order[(rank + n - 1) % n].1;
            run_starts.clear();
            run_vals.clear();
            self.fill_finger_runs(point, &order, &mut cursors, &mut run_starts, &mut run_vals);
            // Raw column writes: the converged ledger is rebuilt wholesale
            // below, far cheaper than n · (log n) funnel re-checks.
            self.arena.set_successors(id.0, &succs);
            self.arena.set_pred(id.0, Some(pred.0));
            self.arena.set_finger_runs(id.0, &run_starts, &run_vals);
            // Mirror decodes through the one tested run decoder instead
            // of re-expanding the runs by hand.
            let fingers = self
                .shadow
                .is_some()
                .then(|| self.node(id).fingers().to_vec());
            if let (Some(sh), Some(fingers)) = (&mut self.shadow, fingers) {
                let node = &mut sh.nodes[id.0];
                node.successors = succs.clone();
                node.predecessor = Some(pred);
                node.fingers = fingers;
            }
        }
        self.rebuild_ledger_converged(&order);
        created
    }

    /// Appends the finger table of `origin` as ownership runs: value `v`
    /// from bit `b` onward until the target distance `2^bit` outgrows
    /// `v`'s arc. `order` must be the live entries sorted by point, and
    /// successive calls must pass their origins in that order, so that
    /// every bit's target only grows. `cursors[bit]` then only moves
    /// forward, through a doubled view of `order` in which index `k ≥ n`
    /// is `order[k − n]` one turn (`M`) later. It stops at the first entry
    /// at or past the target, so among co-located entries at the one with
    /// the smallest id, as the ground-truth index resolves ties.
    fn fill_finger_runs(
        &self,
        origin: Point,
        order: &[(Point, NodeId)],
        cursors: &mut [usize; 64],
        starts: &mut Vec<u8>,
        vals: &mut Vec<u32>,
    ) {
        let n = order.len();
        let modulus = self.space.modulus();
        let origin = origin.get() as u128;
        let mut bit = 0usize;
        while bit < self.finger_bits {
            // The unreduced target stays below the origin's own next turn,
            // origin + M, so the cursor never passes index 2n − 1.
            let target = origin + self.finger_offset(bit) as u128;
            let k = &mut cursors[bit];
            let (owner, at) = loop {
                let (i, turn) = if *k < n { (*k, 0) } else { (*k - n, modulus) };
                let (p, id) = order[i];
                let at = p.get() as u128 + turn;
                if at >= target {
                    break (id, at);
                }
                *k += 1;
            };
            starts.push(bit as u8);
            vals.push(owner.0 as u32);
            let d = at - origin;
            if d == modulus {
                // Wrapped all the way back to the origin: every remaining
                // (larger) target also lands in the wrap arc.
                break;
            }
            // The next distinct successor appears at the first bit whose
            // target distance 2^bit exceeds d.
            bit = (128 - d.leading_zeros()) as usize;
        }
    }

    /// The key space of the overlay.
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChordConfig {
        &self.config
    }

    /// The shared message-accounting registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The pre-registered telemetry handles for this network's recorder.
    pub fn counters(&self) -> ChordCounters {
        self.counters
    }

    /// Draws the next operation ordinal: the id a lookup attempt (or a
    /// lookup's fallback tiers) stamps on its hop-histogram exemplar and
    /// its trace, so a tail bucket joins back to a replayable
    /// [`LookupTrace`](telemetry::LookupTrace). Ordinals count from 0 per
    /// network and are drawn whether or not tracing is on, so traced and
    /// untraced replays of a seed carry the same ids.
    #[inline]
    pub fn next_op_ordinal(&self) -> u64 {
        let ordinal = self.op_seq.get();
        self.op_seq.set(ordinal + 1);
        ordinal
    }

    /// Number of finger-table entries per node (`⌈log₂ M⌉`).
    pub fn finger_bits(&self) -> usize {
        self.finger_bits
    }

    /// All node ids ever created (including dead nodes).
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.arena.len()).map(NodeId).collect()
    }

    /// Ids of currently live nodes, in arena order.
    ///
    /// O(live) copy of the incrementally maintained live set — dead arena
    /// slots are never re-scanned.
    pub fn live_ids(&self) -> Vec<NodeId> {
        self.live_set.clone()
    }

    /// Borrowed view of the live ids in arena order (allocation-free; the
    /// hot path for uniform live-node sampling under churn).
    pub fn live_slice(&self) -> &[NodeId] {
        &self.live_set
    }

    /// Number of live nodes (O(1)).
    pub fn live_len(&self) -> usize {
        self.live_set.len()
    }

    /// The ground-truth ring index over live nodes, in clockwise
    /// `(point, id)` order.
    pub fn ring_index(&self) -> &RingIndex<NodeId> {
        &self.index
    }

    /// Total arena size (live + dead).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Borrow a node's state as a view over the arena columns.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef::new(&self.arena, id.0)
    }

    /// Bytes of routing state currently held by the arena (points, alive
    /// bitset, predecessors, successor lists, compressed fingers). The
    /// seed's per-node representation measured ~1.2 KB/node; see
    /// `BENCH_chord_scale.json` for the tracked ratio.
    pub fn routing_bytes(&self) -> usize {
        self.arena.routing_bytes()
    }

    /// Bytes held by the incremental-verification ledger (reported apart
    /// from [`routing_bytes`](ChordNetwork::routing_bytes): it buys O(1)
    /// [`verify_ring`](ChordNetwork::verify_ring), not routing).
    pub fn verifier_bytes(&self) -> usize {
        self.ledger.bytes()
    }

    /// Whether every finger of `id` is the true live successor of its
    /// target — the ledger's correct-finger mask for `id` is full. Only a
    /// live node's table can be exact.
    pub(crate) fn finger_table_exact(&self, id: NodeId) -> bool {
        self.ledger.fok[id.0] == self.full_finger_mask()
    }

    /// The mask with every finger bit set.
    fn full_finger_mask(&self) -> u64 {
        u64::MAX >> (64 - self.finger_bits)
    }

    /// Turns on adaptive peer scoring: routed lookups start folding every
    /// probe outcome into a per-peer [`PeerScores`] table and ranking
    /// alternative next-hops (successor-list entries, lower finger
    /// levels) penalized-last. Deterministic and RNG-free; with scoring
    /// off, lookup behaviour is byte-identical to the pre-adaptive
    /// overlay.
    pub fn enable_adaptive_routing(&mut self, config: AdaptiveConfig) {
        self.scores = Some(RefCell::new(PeerScores::new(config)));
    }

    /// Arms the retry/fallback policy used by
    /// [`find_successor_with_policy`](ChordNetwork::find_successor_with_policy)
    /// (and by the DHT facade's draws once armed).
    pub fn enable_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// The armed retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Whether adaptive peer scoring is enabled.
    pub fn adaptive_enabled(&self) -> bool {
        self.scores.is_some()
    }

    /// Shared view of the peer-score table (`None` until
    /// [`enable_adaptive_routing`](ChordNetwork::enable_adaptive_routing)).
    pub(crate) fn scores(&self) -> Option<&RefCell<PeerScores>> {
        self.scores.as_ref()
    }

    /// Current EWMA responsiveness score of `id` (max = 255; 255 also for
    /// peers never probed, and always when scoring is disabled).
    pub fn peer_score(&self, id: NodeId) -> u8 {
        self.scores
            .as_ref()
            .map_or(crate::score::SCORE_MAX, |s| s.borrow().score(id))
    }

    /// Whether `id` is currently ranked penalized-last by adaptive
    /// routing (always `false` when scoring is disabled).
    pub fn peer_penalized(&self, id: NodeId) -> bool {
        self.scores
            .as_ref()
            .is_some_and(|s| s.borrow().penalized(id))
    }

    /// Bytes held by the adaptive peer-score table (0 when disabled;
    /// bench-gated at ≤ 8 B/node in `chord_scale`).
    pub fn score_bytes(&self) -> usize {
        self.scores.as_ref().map_or(0, |s| s.borrow().bytes())
    }

    /// Starts mirroring every routing write into the pre-arena per-node
    /// representation (see `crate::shadow`), backfilling current state.
    /// Diagnostic-only: enables [`assert_shadow_matches`] and
    /// [`shadow_routing_bytes`].
    ///
    /// [`assert_shadow_matches`]: ChordNetwork::assert_shadow_matches
    /// [`shadow_routing_bytes`]: ChordNetwork::shadow_routing_bytes
    pub fn enable_shadow_mirror(&mut self) {
        let mut sh = Shadow::new(self.finger_bits);
        for i in 0..self.arena.len() {
            sh.push(self.arena.point(i));
            let view = self.node(NodeId(i));
            let node = &mut sh.nodes[i];
            node.alive = view.is_alive();
            node.predecessor = view.predecessor();
            node.successors = view.successors().to_vec();
            node.fingers = view.fingers().to_vec();
        }
        self.shadow = Some(Box::new(sh));
    }

    /// Live routing bytes of the mirrored legacy representation, if the
    /// mirror is enabled — the measured baseline for the arena's
    /// bytes/node ratio.
    pub fn shadow_routing_bytes(&self) -> Option<usize> {
        self.shadow.as_ref().map(|sh| sh.routing_bytes())
    }

    /// Asserts the arena views are bit-for-bit equal to the mirrored
    /// legacy representation, node by node.
    ///
    /// # Panics
    ///
    /// Panics if the mirror is disabled or any node diverges.
    pub fn assert_shadow_matches(&self) {
        let sh = self
            .shadow
            .as_ref()
            .expect("shadow mirror not enabled; call enable_shadow_mirror() first");
        assert_eq!(sh.nodes.len(), self.arena.len(), "arena length");
        for (i, legacy) in sh.nodes.iter().enumerate() {
            let view = self.node(NodeId(i));
            assert_eq!(legacy.point, view.point(), "n{i} point");
            assert_eq!(legacy.alive, view.is_alive(), "n{i} alive");
            assert_eq!(legacy.predecessor, view.predecessor(), "n{i} predecessor");
            assert!(
                view.successors() == legacy.successors[..],
                "n{i} successors: arena {:?} vs legacy {:?}",
                view.successors(),
                legacy.successors
            );
            for (bit, &f) in legacy.fingers.iter().enumerate() {
                assert_eq!(f, view.fingers().get(bit), "n{i} finger bit {bit}");
            }
        }
    }

    /// The point `2^bit` clockwise of `origin` — finger `bit`'s target.
    pub fn finger_target(&self, origin: Point, bit: usize) -> Point {
        self.space
            .add(origin, Distance::new(self.finger_offset(bit)))
    }

    /// Finger `bit`'s clockwise distance `2^bit`. `finger_bits` is the bit
    /// length of `M − 1`, so every finger bit's offset is already below
    /// `M` and needs no reduction.
    fn finger_offset(&self, bit: usize) -> u64 {
        debug_assert!(bit < self.finger_bits, "finger bit {bit} out of range");
        1u64 << bit
    }

    // ---- ground truth (oracle views used by bootstrap, repair and tests)

    /// The true successor point of `x` over live nodes.
    ///
    /// # Panics
    ///
    /// Panics if no node is live.
    pub fn ground_truth_successor(&self, x: Point) -> Point {
        self.node(self.truth_successor_id(x).expect("no live nodes"))
            .point()
    }

    /// The true successor id of `x` over live nodes, or `None` when the
    /// overlay is empty. O(log n) via the ring index.
    pub(crate) fn truth_successor_id(&self, x: Point) -> Option<NodeId> {
        self.index.successor(x).map(|(_, id)| id)
    }

    // ---- interval helpers (Chord conventions: (a, a] and (a, a) denote
    // the full ring, arising when a node is its own successor)

    pub(crate) fn between_open_closed(&self, a: Point, x: Point, b: Point) -> bool {
        if a == b {
            return true;
        }
        let dx = self.space.distance(a, x);
        !dx.is_zero() && dx <= self.space.distance(a, b)
    }

    pub(crate) fn between_open(&self, a: Point, x: Point, b: Point) -> bool {
        if a == b {
            return x != a;
        }
        let dx = self.space.distance(a, x);
        !dx.is_zero() && dx < self.space.distance(a, b)
    }

    // ---- write funnels: every routing mutation flows through one of
    // these so the arena, the optional shadow mirror and the incremental
    // verification ledger stay in lockstep.

    fn push_node(&mut self, point: Point) -> NodeId {
        assert!(
            self.arena.len() < u32::MAX as usize,
            "arena full: the compact columns store node ids as u32"
        );
        let i = self.arena.push(point);
        self.ledger.push();
        self.dirty.push_node(i);
        if let Some(sh) = &mut self.shadow {
            sh.push(point);
        }
        NodeId(i)
    }

    fn write_successors(&mut self, id: NodeId, list: &[NodeId]) {
        if self.arena.successors_eq(id.0, list) {
            return;
        }
        self.arena.set_successors(id.0, list);
        if self.shadow.is_some() {
            let stored: Vec<NodeId> = self.node(id).successors().to_vec();
            if let Some(sh) = &mut self.shadow {
                sh.nodes[id.0].successors = stored;
            }
        }
        // recompute_sp refreshes the derived-successor reverse index.
        self.recompute_sp(id.0);
        // A changed list invalidates the copies its upstream holders
        // spliced from it (stabilize builds `[succ] + succ.list`), so
        // re-mark them; the propagation reaches a fixpoint because a
        // stabilize that recomputes an identical list short-circuits
        // above and marks nothing.
        if self.arena.is_alive(id.0) {
            self.dirty_list_window(self.arena.point(id.0));
        }
    }

    fn write_pred(&mut self, id: NodeId, pred: Option<NodeId>) {
        let old = self.arena.pred(id.0);
        if old == pred.map(|p| p.0) {
            return;
        }
        if let Some(o) = old {
            self.ledger.pred_watch.remove(o as u32, id.0 as u32);
        }
        self.arena.set_pred(id.0, pred.map(|p| p.0));
        if let Some(p) = pred {
            self.ledger.pred_watch.insert(p.0 as u32, id.0 as u32);
        }
        if let Some(sh) = &mut self.shadow {
            sh.nodes[id.0].predecessor = pred;
        }
        self.recompute_sp(id.0);
    }

    fn write_finger(&mut self, id: NodeId, bit: usize, val: Option<NodeId>) {
        if self.write_fingers(id, 1 << bit, val) != 0 {
            self.recompute_finger(id.0, bit);
        }
    }

    /// Sets every finger level in `levels` of `id` to `val` with one
    /// arena write, mirrors each level it changed and returns those.
    /// Unlike [`write_finger`](Self::write_finger) it re-checks nothing:
    /// the caller re-checks the levels.
    fn write_fingers(&mut self, id: NodeId, levels: u64, val: Option<NodeId>) -> u64 {
        let changed = self.arena.set_fingers(id.0, levels, val.map(|v| v.0));
        if let Some(sh) = &mut self.shadow {
            let mut rest = changed;
            while rest != 0 {
                sh.nodes[id.0].fingers[rest.trailing_zeros() as usize] = val;
                rest &= rest - 1;
            }
        }
        changed
    }

    fn clear_routing(&mut self, id: NodeId) {
        self.write_successors(id, &[]);
        self.write_pred(id, None);
        let l = &mut self.ledger;
        l.fingers_total -= l.fpop[id.0].count_ones() as usize;
        l.fingers_right -= l.fok[id.0].count_ones() as usize;
        l.fpop[id.0] = 0;
        l.fok[id.0] = 0;
        self.arena.clear_fingers(id.0);
        if let Some(sh) = &mut self.shadow {
            for f in &mut sh.nodes[id.0].fingers {
                *f = None;
            }
        }
    }

    /// Re-evaluates node `i`'s successor/predecessor correctness, folds
    /// the change into the report counters, and refreshes the
    /// derived-successor reverse index. Idempotent; O(r + log n).
    fn recompute_sp(&mut self, i: usize) {
        let id = NodeId(i);
        let alive = self.arena.is_alive(i);
        let derived = if alive {
            self.first_live_successor(id)
        } else {
            None
        };
        // The reverse index tracks the *derived* successor (what the
        // correctness predicate actually reads), so a death re-checks
        // exactly the nodes whose predicate it can flip.
        let new_raw = derived.map_or(NONE32, |s| s.0 as u32);
        let old_raw = self.ledger.dsucc[i];
        if old_raw != new_raw {
            if old_raw != NONE32 {
                self.ledger.dsucc_watch.remove(old_raw, i as u32);
            }
            if new_raw != NONE32 {
                self.ledger.dsucc_watch.insert(new_raw, i as u32);
            }
            self.ledger.dsucc[i] = new_raw;
        }
        let (succ_ok, pred_ok) = if alive {
            let (truth_pred, truth_succ) = self.truth_strict_neighbours(id);
            let pred = self
                .arena
                .pred(i)
                .map(NodeId)
                .filter(|&p| self.arena.is_alive(p.0));
            (derived == truth_succ, pred == truth_pred)
        } else {
            (false, false)
        };
        let new = u8::from(succ_ok) | (u8::from(pred_ok) << 1);
        // A live node failing either predicate is maintenance work.
        // (Marked even when the flags did not change, so a node that a
        // repair attempt left incorrect is re-queued and retried. The
        // converse does not clear: sp marks also carry list-hygiene work
        // on predicate-clean nodes — see `dirty_list_window` — and are
        // consumed only when the batched round processes the node.)
        if alive && new != 3 {
            self.dirty.mark_sp(i);
        }
        let l = &mut self.ledger;
        let old = l.flags[i];
        if old == new {
            return;
        }
        if old & 1 != new & 1 {
            if new & 1 == 1 {
                l.succ_ok += 1;
            } else {
                l.succ_ok -= 1;
            }
        }
        if old & 2 != new & 2 {
            if new & 2 == 2 {
                l.pred_ok += 1;
            } else {
                l.pred_ok -= 1;
            }
        }
        l.flags[i] = new;
    }

    /// Re-evaluates one finger entry's populated/correct contribution.
    /// Idempotent; O(log n): one truth search when the entry is
    /// populated.
    fn recompute_finger(&mut self, i: usize, bit: usize) {
        let truth = if self.arena.is_alive(i) && self.arena.finger(i, bit).is_some() {
            self.truth_successor_id(self.finger_target(self.arena.point(i), bit))
        } else {
            None
        };
        self.settle_finger(i, bit, truth);
    }

    /// [`recompute_finger`](Self::recompute_finger) against a known
    /// `truth`: the live successor of finger `bit`'s target, read only
    /// when the entry is populated. Callers that know several levels
    /// share one truth search it once. Idempotent; O(1).
    fn settle_finger(&mut self, i: usize, bit: usize, truth: Option<NodeId>) {
        let alive = self.arena.is_alive(i);
        let val = self.arena.finger(i, bit).map(NodeId);
        let pop = alive && val.is_some();
        let ok = pop && val == truth;
        // Dirty mirror: a live node's missing or wrong entry is pending
        // maintenance work; a correct (or dead) one is not.
        if alive && !ok {
            self.dirty.mark_finger(i, bit);
        } else {
            self.dirty.clear_finger(i, bit);
        }
        let mask = 1u64 << bit;
        let l = &mut self.ledger;
        if pop != (l.fpop[i] & mask != 0) {
            if pop {
                l.fingers_total += 1;
                l.fpop[i] |= mask;
            } else {
                l.fingers_total -= 1;
                l.fpop[i] &= !mask;
            }
        }
        if ok != (l.fok[i] & mask != 0) {
            if ok {
                l.fingers_right += 1;
                l.fok[i] |= mask;
            } else {
                l.fingers_right -= 1;
                l.fok[i] &= !mask;
            }
        }
    }

    /// Re-checks the finger entries whose target lies on the ownership
    /// arc a membership change at `hi` moved: the clockwise arc from the
    /// nearest *distinct* live point `lo` before `hi` (every target in it
    /// can switch owner — on a point collision the id tie-break can hand
    /// the whole arc to another co-located entry, not just the target
    /// `hi` itself). With no distinct other point (all members
    /// co-located, or a singleton) the arc degenerates to the full ring,
    /// which is then only the cluster itself. Finger `bit` targets the
    /// arc from the origins on `(lo − 2^bit, hi − 2^bit]`; one range
    /// query per bit finds them, expected O(1) hits each.
    ///
    /// The low bits need no query. With `pp` the nearest distinct point
    /// before `lo`, every bit with `2^bit < min(d(lo, hi), d(pp, lo))`
    /// shifts the arc onto exactly `lo`'s co-located cluster, and each
    /// such target lies strictly inside `(lo, hi)`, which holds no live
    /// point, so its truth is `successor(hi)`. One cluster query and one
    /// truth search serve that prefix (about 45 of 64 bits at 10⁵
    /// peers); the re-checks run in the same order as per-bit queries
    /// would make them.
    fn dirty_finger_arc(&mut self, hi: Point) {
        let lo = self.index.predecessor(hi).map(|(q, _)| q);
        let pp = lo.and_then(|q| self.index.predecessor(q)).map(|(q, _)| q);
        // One scratch buffer across all ~64 arc queries: the queries
        // expect O(1) hits each, so a fresh Vec per bit was the dominant
        // cost of this feed (ringidx::for_each_in_range is the
        // allocation-free visitor added for it).
        let mut hits: Vec<u32> = Vec::new();
        let mut first_ranged = 0;
        if let (Some(lo), Some(pp)) = (lo, pp) {
            let gap = self
                .space
                .distance(lo, hi)
                .min(self.space.distance(pp, lo))
                .get();
            // The bits with 2^bit < gap.
            first_ranged = ((64 - (gap - 1).leading_zeros()) as usize).min(self.finger_bits);
            if first_ranged > 0 {
                let truth = self.truth_successor_id(hi);
                let one = Distance::new(1);
                self.index
                    .for_each_in_range(self.space.sub(lo, one), lo, |_, oid| {
                        hits.push(oid.0 as u32)
                    });
                for bit in 0..first_ranged {
                    for &o in &hits {
                        self.settle_finger(o as usize, bit, truth);
                    }
                }
            }
        }
        for bit in first_ranged..self.finger_bits {
            let off = Distance::new(self.finger_offset(bit));
            let b = self.space.sub(hi, off);
            // A `(b, b]` arc is the full ring by the index's convention.
            let a = lo.map_or(b, |q| self.space.sub(q, off));
            hits.clear();
            self.index
                .for_each_in_range(a, b, |_, oid| hits.push(oid.0 as u32));
            for &o in &hits {
                self.recompute_finger(o as usize, bit);
            }
        }
    }

    /// Re-checks the successor/predecessor flags of every node whose
    /// ground truth can involve point `p` after a membership change
    /// there: the co-located cluster at `p` and the clusters at the
    /// nearest distinct points on either side (strict successor and
    /// predecessor ties resolve by id, so any member of those clusters
    /// may gain or lose a tie against the entries at `p`).
    fn dirty_sp_around(&mut self, p: Point) {
        let one = Distance::new(1);
        let mut ids: Vec<NodeId> = Vec::new();
        let extend_cluster = |ids: &mut Vec<NodeId>, index: &RingIndex<NodeId>, at: Point| {
            // (at - 1, at] is exactly the co-located cluster at `at`.
            index.for_each_in_range(self.space.sub(at, one), at, |_, id| ids.push(id));
        };
        extend_cluster(&mut ids, &self.index, p);
        if let Some((q, _)) = self.index.predecessor(p) {
            extend_cluster(&mut ids, &self.index, q);
        }
        if let Some((r, _)) = self.index.successor(self.space.add(p, one)) {
            extend_cluster(&mut ids, &self.index, r);
        }
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            self.recompute_sp(id.0);
        }
    }

    /// Marks the successor-*list* holders a membership change at `p` left
    /// stale: the ~r nodes counter-clockwise of `p` carry `p`'s arc
    /// inside their successor-list window, and a routed lookup may answer
    /// from *any* list entry, not just the first. The ledger's
    /// correctness predicate only covers the derived first successor, so
    /// these are hygiene marks: the batched round stabilizes each holder
    /// once (nearest holder first — queue order — so refreshed lists
    /// propagate counter-clockwise within a round). The classic full
    /// round gets this for free by stabilizing everyone.
    ///
    /// The holders are the co-located clusters at the r nearest distinct
    /// points counter-clockwise of `p` (a whole cluster holds the same
    /// window), found by one backward walk over the index. Their marking
    /// order fixes the FIFO repair order, and so the round's RNG draws.
    fn dirty_list_window(&mut self, p: Point) {
        let r = self.config.successor_list_len();
        let (arena, dirty) = (&self.arena, &mut self.dirty);
        self.index.for_each_cluster_before(p, r, |_, id| {
            if arena.is_alive(id.0) {
                dirty.mark_sp(id.0);
            }
        });
    }

    /// Rebuilds the ledger after [`bulk_join`](ChordNetwork::bulk_join):
    /// by construction every live node is fully converged, so counters
    /// are assigned directly and only the reverse indexes are re-derived.
    /// `order` is the post-rebuild ring order.
    fn rebuild_ledger_converged(&mut self, order: &[(Point, NodeId)]) {
        let n = self.arena.len();
        // By construction nothing is stale; the co-located recomputes
        // below re-mark the few exceptions.
        self.dirty.reset(n);
        let full = self.full_finger_mask();
        let l = &mut self.ledger;
        l.flags.clear();
        l.flags.resize(n, 0);
        l.fpop.clear();
        l.fpop.resize(n, 0);
        l.fok.clear();
        l.fok.resize(n, 0);
        l.dsucc.clear();
        l.dsucc.resize(n, NONE32);
        let mut spairs: Vec<(u32, u32)> = Vec::with_capacity(self.live_set.len());
        let mut ppairs: Vec<(u32, u32)> = Vec::with_capacity(self.live_set.len());
        for &id in &self.live_set {
            l.flags[id.0] = 3;
            l.fpop[id.0] = full;
            l.fok[id.0] = full;
            // A converged list is non-empty and leads with the derived
            // first-live successor (a singleton's list is `[self]`).
            let s = self.arena.successors(id.0)[0];
            l.dsucc[id.0] = s;
            spairs.push((s, id.0 as u32));
            if let Some(p) = self.arena.pred(id.0) {
                ppairs.push((p as u32, id.0 as u32));
            }
        }
        l.dsucc_watch = CompactMultiMap::bulk(spairs);
        l.pred_watch = CompactMultiMap::bulk(ppairs);
        l.succ_ok = self.live_set.len();
        l.pred_ok = self.live_set.len();
        l.fingers_total = self.live_set.len() * self.finger_bits;
        l.fingers_right = l.fingers_total;

        // Co-located entries (protocol joins that landed on an occupied
        // point) break the all-converged shortcut: strict successor and
        // predecessor ties resolve by *id*, while the rebuilt lists follow
        // ring order. Re-derive the flags of each co-located cluster and
        // its immediate ring neighbours exactly. (Fingers are unaffected:
        // the run builder already resolves point ties to the smallest id,
        // matching the ground-truth index.)
        let n = order.len();
        if n >= 2 {
            let mut affected: Vec<usize> = Vec::new();
            for i in 0..n {
                let j = (i + 1) % n;
                if order[i].0 == order[j].0 {
                    affected.extend([(i + n - 1) % n, i, j, (j + 1) % n]);
                }
            }
            affected.sort_unstable();
            affected.dedup();
            for rank in affected {
                self.recompute_sp(order[rank].1.index());
            }
        }
    }

    // ---- membership

    /// Creates the overlay's first node.
    ///
    /// # Panics
    ///
    /// Panics if the overlay already has live nodes (join via a gateway
    /// instead).
    pub fn create(&mut self, point: Point) -> NodeId {
        assert_eq!(self.live_len(), 0, "use join() on a non-empty overlay");
        let id = self.push_node(point);
        // A lone node is its own successor (Chord's base case).
        self.write_successors(id, &[id]);
        self.write_pred(id, Some(id));
        self.admit(point, id);
        id
    }

    /// Registers a freshly created live node with the ground-truth index
    /// and the live set, then re-checks the ring neighbours and finger
    /// entries whose ground truth the new member shifted. New ids are
    /// strictly increasing, so pushing keeps the live set in arena order.
    fn admit(&mut self, point: Point, id: NodeId) {
        self.index.insert(point, id);
        self.live_set.push(id);
        // A protocol joiner starts with an empty finger table: every
        // level is pending maintenance work.
        self.dirty.mark_all_fingers(id.0, self.finger_bits);
        self.recompute_sp(id.0);
        self.dirty_sp_around(point);
        self.dirty_list_window(point);
        self.dirty_finger_arc(point);
    }

    /// Unregisters a dying node from the ground-truth index and live set,
    /// marks it dead, and re-checks everything whose correctness predicate
    /// referenced it: its ring neighbours, every node holding it in a
    /// successor list or predecessor pointer, and the finger entries
    /// targeting its (former) ownership arc.
    fn remove_member(&mut self, id: NodeId) {
        let point = self.arena.point(id.0);
        self.index.remove(point, id);
        if let Ok(at) = self.live_set.binary_search(&id) {
            self.live_set.remove(at);
        }
        self.arena.set_alive(id.0, false);
        if let Some(sh) = &mut self.shadow {
            sh.nodes[id.0].alive = false;
        }
        // The dead owe no maintenance.
        self.dirty.clear_node(id.0);
        self.recompute_sp(id.0);
        self.dirty_sp_around(point);
        // Exactly the nodes whose derived successor was the deceased (one
        // entry each in the compact reverse maps; nodes holding it deeper
        // in their lists keep the same derived successor).
        for w in self.ledger.dsucc_watch.values(id.0 as u32) {
            self.recompute_sp(w as usize);
        }
        for w in self.ledger.pred_watch.values(id.0 as u32) {
            self.recompute_sp(w as usize);
        }
        self.dirty_list_window(point);
        self.dirty_finger_arc(point);
    }

    /// Joins a new node at `point` through live gateway `via`, following
    /// the Chord join protocol: route to the point's successor, adopt it,
    /// and copy its successor list. The ring converges fully after
    /// subsequent stabilization rounds.
    ///
    /// # Errors
    ///
    /// Returns the routing error if the successor lookup fails.
    pub fn join<R: Rng + ?Sized>(
        &mut self,
        point: Point,
        via: NodeId,
        rng: &mut R,
    ) -> Result<NodeId, crate::LookupError> {
        let found = self.find_successor(via, point, rng)?;
        self.metrics
            .recorder()
            .add(self.counters.join_messages, found.cost.messages + 1);
        let id = self.push_node(point);
        // Adopt the successor and splice in its list (one message,
        // included in the accounting above).
        let mut list = vec![found.node];
        list.extend(self.node(found.node).successors().iter());
        list.truncate(self.config.successor_list_len());
        self.write_successors(id, &list);
        self.admit(point, id);
        Ok(id)
    }

    /// Gracefully removes a node: its predecessor and successor are
    /// notified so the ring heals immediately (the paper's `next` pointer
    /// stays correct without waiting for stabilization).
    ///
    /// # Panics
    ///
    /// Panics if the node is already dead.
    pub fn leave(&mut self, id: NodeId) {
        assert!(self.node(id).is_alive(), "{id} is already dead");
        let succ = self.first_live_successor(id);
        let pred = self
            .node(id)
            .predecessor()
            .filter(|&p| p != id && self.node(p).is_alive());
        self.metrics.recorder().add(self.counters.leave_messages, 2);
        // Departing nodes hand their stored data to their successor
        // before breaking links (SIGCOMM §4's key transfer).
        if let Some(succ) = succ.filter(|&s| s != id) {
            self.hand_off_store(id, succ);
        }
        self.remove_member(id);
        self.clear_routing(id);
        if let (Some(succ), Some(pred)) = (succ, pred) {
            // Predecessor splices the departing node out of its list.
            let r = self.config.successor_list_len();
            let mut list = self.node(pred).successors().to_vec();
            list.retain(|&s| s != id);
            if list.is_empty() {
                list.push(succ);
            }
            list.truncate(r);
            self.write_successors(pred, &list);
            // Successor adopts the departing node's predecessor.
            if self.node(succ).predecessor() == Some(id) {
                self.write_pred(succ, Some(pred));
            }
        }
    }

    /// Crashes a node silently: no notifications, neighbours discover the
    /// failure through probes and stabilization.
    ///
    /// # Panics
    ///
    /// Panics if the node is already dead.
    pub fn crash(&mut self, id: NodeId) {
        assert!(self.node(id).is_alive(), "{id} is already dead");
        self.remove_member(id);
        self.clear_routing(id);
        // A crash loses the node's data copies; replicas must recover it.
        self.store_mut(id).clear();
    }

    pub(crate) fn store_mut(
        &mut self,
        id: NodeId,
    ) -> &mut std::collections::BTreeMap<Point, Vec<u8>> {
        self.arena.store_mut(id.0)
    }

    // ---- maintenance (stabilize / notify / fix fingers)

    /// The first live entry of `id`'s successor list.
    pub(crate) fn first_live_successor(&self, id: NodeId) -> Option<NodeId> {
        self.node(id)
            .successors()
            .iter()
            .find(|&s| self.node(s).is_alive() && s != id)
            .or_else(|| {
                // A node may legitimately be its own successor (singleton).
                self.node(id)
                    .successors()
                    .iter()
                    .find(|&s| self.node(s).is_alive())
            })
    }

    /// One stabilization round at `id` (SIGCOMM Fig. 7): verify the
    /// immediate successor, adopt its predecessor if closer, refresh the
    /// successor list from it, and notify it.
    ///
    /// Dead nodes and empty rings are no-ops.
    pub fn stabilize(&mut self, id: NodeId) {
        if !self.node(id).is_alive() {
            return;
        }
        // Drop dead entries from the successor list (each liveness probe
        // costs a message).
        let probes = self.node(id).successors().len() as u64;
        self.metrics
            .recorder()
            .add(self.counters.stabilize_messages, probes.max(1));
        let mut list = std::mem::take(&mut self.list_scratch);
        list.clear();
        list.extend(
            self.node(id)
                .successors()
                .iter()
                .filter(|&s| self.node(s).is_alive()),
        );
        self.write_successors(id, &list);

        let Some(succ) = self.first_live_successor(id) else {
            self.list_scratch = list;
            // Lost every successor: re-attach through the modelled
            // bootstrap server — under realistic churn the successor list
            // makes this vanishingly rare (needs r simultaneous failures).
            let sid = self.truth_fallback(id);
            self.write_successors(id, &[sid]);
            return;
        };

        // succ.predecessor may be a better (closer) successor for us.
        let my_point = self.node(id).point();
        let succ_point = self.node(succ).point();
        let mut adopted = succ;
        if let Some(cand) = self.node(succ).predecessor() {
            if cand != id
                && self.node(cand).is_alive()
                && self.between_open(my_point, self.node(cand).point(), succ_point)
            {
                adopted = cand;
            }
        }

        // Refresh our list as [adopted] + adopted's list.
        list.clear();
        list.push(adopted);
        list.extend(
            self.node(adopted)
                .successors()
                .iter()
                .filter(|&s| s != id && self.node(s).is_alive()),
        );
        list.dedup();
        list.truncate(self.config.successor_list_len());
        self.write_successors(id, &list);
        self.list_scratch = list;

        self.notify(adopted, id);
    }

    /// `notify(candidate)` at node `at` (SIGCOMM Fig. 7): adopt the
    /// candidate as predecessor if it is closer than the current one.
    pub fn notify(&mut self, at: NodeId, candidate: NodeId) {
        if !self.node(at).is_alive() || !self.node(candidate).is_alive() {
            return;
        }
        self.metrics.recorder().incr(self.counters.notify_messages);
        let at_point = self.node(at).point();
        let cand_point = self.node(candidate).point();
        let adopt = match self.node(at).predecessor() {
            None => true,
            Some(p) if !self.node(p).is_alive() => true,
            Some(p) => {
                let p_point = self.node(p).point();
                p == at || self.between_open(p_point, cand_point, at_point)
            }
        };
        if adopt && candidate != at {
            self.write_pred(at, Some(candidate));
        }
    }

    /// Refreshes finger `bit` of node `id` by routing to its target.
    /// Failed lookups clear the finger (it will be retried next round).
    pub fn fix_finger<R: Rng + ?Sized>(&mut self, id: NodeId, bit: usize, rng: &mut R) {
        if !self.node(id).is_alive() {
            return;
        }
        let target = self.finger_target(self.node(id).point(), bit);
        let entry = match self.find_successor(id, target, rng) {
            Ok(found) => {
                self.metrics
                    .recorder()
                    .add(self.counters.fix_finger_messages, found.cost.messages);
                Some(found.node)
            }
            Err(_) => None,
        };
        self.write_finger(id, bit, entry);
    }

    /// Clears the predecessor pointer if it stopped responding.
    pub fn check_predecessor(&mut self, id: NodeId) {
        if !self.node(id).is_alive() {
            return;
        }
        self.metrics
            .recorder()
            .incr(self.counters.check_predecessor_messages);
        if let Some(p) = self.node(id).predecessor() {
            if !self.node(p).is_alive() {
                self.write_pred(id, None);
            }
        }
    }

    /// One full maintenance round: every live node checks its predecessor,
    /// stabilizes, and fixes finger `round % finger_bits`.
    ///
    /// Repeated rounds converge a protocol-built or churned ring back to
    /// the correct successor/predecessor structure (asserted by
    /// [`verify_ring`](ChordNetwork::verify_ring) in tests).
    pub fn maintenance_round<R: Rng + ?Sized>(&mut self, round: usize, rng: &mut R) {
        let ids = self.live_ids();
        let bit = round % self.finger_bits;
        for id in ids {
            self.check_predecessor(id);
            self.stabilize(id);
            self.fix_finger(id, bit, rng);
        }
    }

    /// Runs enough maintenance rounds to refresh every finger once, then
    /// returns the consistency report.
    pub fn converge<R: Rng + ?Sized>(&mut self, rng: &mut R) -> RingReport {
        for round in 0..self.finger_bits {
            self.maintenance_round(round, rng);
        }
        self.verify_ring()
    }

    // ---- batched incremental maintenance (see crate::maintenance)

    /// Dirty entries currently awaiting batched maintenance: stale
    /// successor/predecessor flags plus missing-or-wrong finger levels.
    /// Zero if and only if every live node's routing state matches the
    /// ground truth (the staleness figure e16 records surface).
    pub fn maintenance_backlog(&self) -> usize {
        self.dirty.entries()
    }

    /// Bytes held by the batched-maintenance dirty set (reported apart
    /// from [`routing_bytes`](ChordNetwork::routing_bytes) and
    /// [`verifier_bytes`](ChordNetwork::verifier_bytes); gated per node
    /// in `BENCH_chord_scale.json` alongside them).
    pub fn maintenance_bytes(&self) -> usize {
        self.dirty.bytes()
    }

    /// One **batched** maintenance round: repairs up to `budget` dirty
    /// entries instead of touching all n live nodes.
    ///
    /// Sp-dirty nodes run the ordinary [`check_predecessor`] +
    /// [`stabilize`] protocol ops; dirty finger levels are refreshed by
    /// ownership-run jumping (one routed lookup per run of levels that
    /// resolve to the same owner — `bulk_join`'s amortization applied to
    /// point repairs). Work per round is amortized O(changes · log n),
    /// vs [`maintenance_round`](ChordNetwork::maintenance_round)'s O(n)
    /// routed lookups; a repair that fails or lands on a stale answer
    /// re-marks itself through the write funnels and is retried next
    /// round, so repeated rounds converge exactly as the classic ones do.
    ///
    /// Nodes queued when the round starts are processed at most once per
    /// round (re-marked nodes wait for the next round), which keeps a
    /// round's work bounded even when repairs cascade.
    ///
    /// [`check_predecessor`]: ChordNetwork::check_predecessor
    /// [`stabilize`]: ChordNetwork::stabilize
    pub fn batched_maintenance_round<R: Rng + ?Sized>(
        &mut self,
        budget: MaintenanceBudget,
        rng: &mut R,
    ) -> MaintenanceWork {
        let mut work = MaintenanceWork::default();
        let mut remaining = budget.limit();
        let snapshot = self.dirty.queue_len();
        for _ in 0..snapshot {
            if remaining == Some(0) {
                break;
            }
            let Some(i) = self.dirty.pop() else { break };
            let id = NodeId(i);
            if !self.arena.is_alive(i) {
                self.dirty.clear_node(i);
                continue;
            }
            if self.dirty.is_sp(i) && remaining != Some(0) {
                self.dirty.take_sp(i);
                if let Some(r) = &mut remaining {
                    *r -= 1;
                }
                work.sp_refreshed += 1;
                self.check_predecessor(id);
                self.stabilize(id);
                // A wrong predecessor pointer is repaired from the
                // *other* side in Chord: the true predecessor's
                // stabilize ends in notify. The classic round gets this
                // for free by stabilizing everyone; here that neighbour
                // may be clean and never run, so replay its notify on
                // demand — the candidates are exactly the nodes whose
                // derived successor is this node (`dsucc_watch`).
                // (A notify rewrites only this node's predecessor, never
                // a derived successor, so the watch list cannot change
                // under the walk.)
                if self.ledger.flags[i] & 2 == 0 {
                    let mut from = 0;
                    while let Some(w) = self.ledger.dsucc_watch.next_value(i as u32, from) {
                        from = w + 1; // ids stay below the u32::MAX sentinel
                        let cand = NodeId(w as usize);
                        if cand != id && self.arena.is_alive(cand.0) {
                            self.notify(id, cand);
                        }
                    }
                }
                // The funnels recompute only on change; force a re-check
                // so a node a repair could not fix yet stays queued.
                self.recompute_sp(i);
            }
            if self.dirty.finger_mask(i) != 0 && remaining != Some(0) {
                let taken = self.dirty.take_fingers(i, remaining.unwrap_or(u32::MAX));
                if let Some(r) = &mut remaining {
                    *r -= taken.count_ones();
                }
                self.refresh_fingers(id, taken, rng, &mut work);
            }
            self.dirty.requeue_if_dirty(i);
        }
        work.backlog = self.dirty.entries();
        let repairs = (work.sp_refreshed + work.fingers_refreshed) as u64;
        if repairs > 0 {
            self.metrics
                .recorder()
                .profiler()
                .add(self.counters.span_maintenance_repair, repairs);
        }
        work
    }

    /// Repairs the dirty finger levels in `mask` by ownership-run
    /// jumping: one routed lookup resolves the lowest level, and every
    /// higher taken level whose target falls inside the returned owner's
    /// arc reuses the answer. The run's levels are written with one
    /// arena write and re-checked once each, with one truth search per
    /// span of levels that share a true owner.
    fn refresh_fingers<R: Rng + ?Sized>(
        &mut self,
        id: NodeId,
        mut mask: u64,
        rng: &mut R,
        work: &mut MaintenanceWork,
    ) {
        let origin = self.node(id).point();
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            let target = self.finger_target(origin, bit);
            work.lookups += 1;
            let Ok(found) = self.find_successor(id, target, rng) else {
                // Clear the entry and re-check it so it stays in the
                // dirty set for a retry next round.
                mask &= mask - 1;
                self.write_fingers(id, 1 << bit, None);
                self.recompute_finger(id.0, bit);
                work.fingers_refreshed += 1;
                continue;
            };
            self.metrics
                .recorder()
                .add(self.counters.fix_finger_messages, found.cost.messages);
            let d = self.space.distance(origin, found.point).get();
            // Any level with target distance 2^b <= d lands in
            // (origin, owner] and shares the owner; d == 0 means the
            // lookup wrapped the whole ring, so every remaining level
            // does.
            let run_end = if d == 0 { 64 } else { 64 - d.leading_zeros() };
            let run = 1 << bit | mask & u64::MAX.checked_shr(64 - run_end).unwrap_or(0);
            mask &= !run;
            work.fingers_refreshed += run.count_ones() as usize;
            self.write_fingers(id, run, Some(found.node));
            // Re-check every level, changed or not, so a repair that
            // re-wrote the same stale answer is re-marked and retried,
            // not silently dropped from the dirty set. The true owner of
            // a level's target, at clockwise distance t from the origin
            // (a full turn when it sits at the origin's point), also owns
            // every later target up to t: no live point lies between.
            // That span is decided by the truth's distance, never by the
            // looked-up owner's, which may be stale and lie past it.
            let (mut truth, mut span) = (None, 0u128);
            let mut levels = run;
            while levels != 0 {
                let b = levels.trailing_zeros() as usize;
                levels &= levels - 1;
                if 1u128 << b > span {
                    let owner = self.index.successor(self.finger_target(origin, b));
                    truth = owner.map(|(_, t)| t);
                    span = match owner.map(|(p, _)| self.space.distance(origin, p).get()) {
                        Some(t) if t > 0 => u128::from(t),
                        _ => self.space.modulus(),
                    };
                }
                self.settle_finger(id.0, b, truth);
            }
        }
    }

    // ---- verification

    /// The current [`RingReport`], read in O(1) from the incrementally
    /// maintained ledger (every membership event and routing write updates
    /// the counters as a delta), so per-round convergence polling costs
    /// O(changes) instead of the seed's O(n log n) full re-scan. Equal to
    /// [`verify_ring_full`](ChordNetwork::verify_ring_full) after every
    /// operation — a property the test suite enforces.
    pub fn verify_ring(&self) -> RingReport {
        let l = &self.ledger;
        RingReport {
            correct_successors: l.succ_ok,
            correct_predecessors: l.pred_ok,
            finger_accuracy: if l.fingers_total == 0 {
                1.0
            } else {
                l.fingers_right as f64 / l.fingers_total as f64
            },
            live: self.live_set.len(),
        }
    }

    /// Checks every live node's routing state against the ground truth
    /// from scratch — the O(n log n) reference implementation the
    /// incremental [`verify_ring`](ChordNetwork::verify_ring) is tested
    /// (and benchmarked) against.
    pub fn verify_ring_full(&self) -> RingReport {
        let mut correct_successors = 0;
        let mut correct_predecessors = 0;
        let mut fingers_total = 0usize;
        let mut fingers_right = 0usize;
        for &id in &self.live_set {
            let (s, p, ft, fr) = self.check_node(id);
            correct_successors += usize::from(s);
            correct_predecessors += usize::from(p);
            fingers_total += ft;
            fingers_right += fr;
        }
        RingReport {
            correct_successors,
            correct_predecessors,
            finger_accuracy: if fingers_total == 0 {
                1.0
            } else {
                fingers_right as f64 / fingers_total as f64
            },
            live: self.live_set.len(),
        }
    }

    /// Spot-checks `k` distinct live nodes drawn uniformly at random,
    /// returning a report over the sample (`live ==` sample size). A
    /// cheap statistical cross-check of the incremental ledger on rings
    /// too large for [`verify_ring_full`](ChordNetwork::verify_ring_full)
    /// to be pleasant.
    ///
    /// Each live node is checked **at most once** per call: the sample is
    /// without replacement by construction (a sparse Fisher–Yates over
    /// the live ranks), so `k >=` the live count degrades to exactly
    /// [`verify_ring_full`](ChordNetwork::verify_ring_full)'s coverage
    /// instead of re-checking some nodes and skipping others — on tiny
    /// rings the two reports are identical. O(k) time and memory; the
    /// live set is never cloned (this runs on rings where an O(n) copy
    /// per poll is the thing being avoided).
    pub fn verify_ring_sampled<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> RingReport {
        self.verify_ring_sampled_attributed(k, rng).0
    }

    /// [`verify_ring_sampled`](ChordNetwork::verify_ring_sampled) with
    /// per-node attribution: also returns the ring points of the sampled
    /// nodes that failed any check (wrong successor, wrong predecessor,
    /// or a stale populated finger), in ring-rank order. The health
    /// watchdog pins its breach events on these. Consumes the RNG
    /// identically to the unattributed form.
    pub fn verify_ring_sampled_attributed<R: Rng + ?Sized>(
        &self,
        k: usize,
        rng: &mut R,
    ) -> (RingReport, Vec<u64>) {
        let n = self.live_set.len();
        let k = k.min(n);
        let mut correct_successors = 0;
        let mut correct_predecessors = 0;
        let mut fingers_total = 0usize;
        let mut fingers_right = 0usize;
        let mut defects = Vec::new();
        // Sparse partial Fisher–Yates: the virtual array 0..n starts as
        // the identity and only displaced slots are materialized, so
        // ranks are distinct (a permutation prefix) in O(k) memory for
        // every k, dense or sparse.
        let mut displaced: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(k);
        let mut ranks: Vec<usize> = Vec::with_capacity(k);
        for i in 0..k {
            let j = rng.gen_range(i..n);
            let vi = displaced.get(&i).copied().unwrap_or(i);
            let vj = displaced.get(&j).copied().unwrap_or(j);
            ranks.push(vj);
            // Slot i is never revisited; only j's displacement matters.
            displaced.insert(j, vi);
        }
        ranks.sort_unstable(); // deterministic order for the checks
        for id in ranks.into_iter().map(|r| self.live_set[r]) {
            let (s, p, ft, fr) = self.check_node(id);
            correct_successors += usize::from(s);
            correct_predecessors += usize::from(p);
            fingers_total += ft;
            fingers_right += fr;
            if !s || !p || fr < ft {
                defects.push(self.node(id).point().get());
            }
        }
        let report = RingReport {
            correct_successors,
            correct_predecessors,
            finger_accuracy: if fingers_total == 0 {
                1.0
            } else {
                fingers_right as f64 / fingers_total as f64
            },
            live: k,
        };
        (report, defects)
    }

    /// From-scratch correctness predicates of one live node: (successor
    /// correct, predecessor correct, fingers populated, fingers right).
    fn check_node(&self, id: NodeId) -> (bool, bool, usize, usize) {
        let me = self.node(id).point();
        // True successor: closest live node strictly clockwise.
        let succ_ok = self.first_live_successor(id) == self.truth_strict_successor(id);
        let pred = self
            .node(id)
            .predecessor()
            .filter(|&p| self.node(p).is_alive());
        let pred_ok = pred == self.truth_strict_predecessor(id);
        let mut fingers_total = 0;
        let mut fingers_right = 0;
        for bit in 0..self.finger_bits {
            if let Some(f) = self.node(id).fingers().get(bit) {
                fingers_total += 1;
                let target = self.finger_target(me, bit);
                if Some(f) == self.truth_successor_id(target) {
                    fingers_right += 1;
                }
            }
        }
        (succ_ok, pred_ok, fingers_total, fingers_right)
    }

    fn truth_strict_successor(&self, id: NodeId) -> Option<NodeId> {
        let me = self.node(id).point();
        // A singleton ring node is its own successor.
        self.index
            .strict_successor(me, id)
            .map(|(_, nid)| nid)
            .or(Some(id))
    }

    fn truth_strict_predecessor(&self, id: NodeId) -> Option<NodeId> {
        let me = self.node(id).point();
        self.index
            .strict_predecessor(me, id)
            .map(|(_, nid)| nid)
            .or_else(|| if self.live_len() == 1 { Some(id) } else { None })
    }

    /// `(truth_strict_predecessor(id), truth_strict_successor(id))` from
    /// one index search.
    fn truth_strict_neighbours(&self, id: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        let (pred, succ) = self.index.strict_neighbours(self.node(id).point(), id);
        (
            pred.map(|(_, p)| p)
                .or_else(|| (self.live_len() == 1).then_some(id)),
            succ.map(|(_, s)| s).or(Some(id)),
        )
    }

    /// Last-resort repair when a node has lost its entire successor list:
    /// the true next live node on the ring, falling back to the node
    /// itself when it is the only survivor.
    ///
    /// In a deployment the orphan would re-join through an out-of-band
    /// bootstrap server that knows some live member; the ground-truth
    /// index stands in for that server. The repair is deliberately
    /// minimal — only the immediate successor pointer is restored, and
    /// subsequent stabilization rounds must rebuild the rest of the list
    /// and the fingers through the protocol itself.
    fn truth_fallback(&self, id: NodeId) -> NodeId {
        self.truth_strict_successor(id).unwrap_or(id)
    }
}

impl fmt::Debug for ChordNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChordNetwork")
            .field("space", &self.space)
            .field("live", &self.live_len())
            .field("arena", &self.arena.len())
            .field("finger_bits", &self.finger_bits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{Just, Strategy};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn bootstrap(n: usize, seed: u64) -> ChordNetwork {
        let space = KeySpace::full();
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, n),
            ChordConfig::default(),
        )
    }

    #[test]
    fn bootstrap_ring_is_converged() {
        let net = bootstrap(64, 1);
        let report = net.verify_ring();
        assert!(report.is_converged(), "{report:?}");
        assert_eq!(report.live, 64);
        assert!((report.finger_accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_successor_lists_follow_ring_order() {
        let net = bootstrap(16, 2);
        for id in net.live_ids() {
            let succ = net.first_live_successor(id).unwrap();
            let truth = net.ground_truth_successor(
                net.space()
                    .add(net.node(id).point(), keyspace::Distance::new(1)),
            );
            assert_eq!(net.node(succ).point(), truth);
            assert_eq!(net.node(id).successors().len(), 8);
        }
    }

    #[test]
    fn bulk_join_from_empty_matches_bootstrap() {
        let space = KeySpace::full();
        let mut r = rng();
        let points = space.random_points(&mut r, 128);
        let boot = ChordNetwork::bootstrap(space, points.clone(), ChordConfig::default());
        let mut bulk = ChordNetwork::new(space, ChordConfig::default());
        let created = bulk.bulk_join(points);
        assert_eq!(created.len(), 128);
        assert_eq!(bulk.live_len(), boot.live_len());
        for id in boot.live_ids() {
            assert_eq!(bulk.node(id).point(), boot.node(id).point());
            assert_eq!(bulk.node(id).successors(), boot.node(id).successors());
            assert_eq!(bulk.node(id).predecessor(), boot.node(id).predecessor());
            assert_eq!(bulk.node(id).fingers(), boot.node(id).fingers());
        }
        assert!(bulk.verify_ring().is_converged());
    }

    #[test]
    fn bulk_join_into_existing_ring_is_converged() {
        let mut net = bootstrap(64, 12);
        let mut r = rng();
        let extra = net.space().random_points(&mut r, 192);
        let created = net.bulk_join(extra);
        assert_eq!(created.len(), 192);
        assert_eq!(net.live_len(), 256);
        let report = net.verify_ring();
        assert!(report.is_converged(), "{report:?}");
        assert!((report.finger_accuracy - 1.0).abs() < 1e-12);
        // Routed lookups agree with the ground truth immediately.
        let start = net.live_ids()[0];
        for _ in 0..50 {
            let target = net.space().random_point(&mut r);
            let hit = net.find_successor(start, target, &mut r).unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(target));
        }
    }

    /// How a [`FingerBuild`] reaches its last `bulk_join`.
    #[derive(Debug, Clone, Copy)]
    enum BuildHistory {
        FromEmpty,
        /// Into a ring that lost about a third of its nodes to crashes.
        AfterCrashes,
        /// After a protocol join at an occupied point made a co-located
        /// pair, whose fingers must resolve to the smaller id.
        AfterTwinJoin,
    }

    /// A ring of `n` distinct points on `ℤ_modulus`, bulk-built along
    /// `history`.
    #[derive(Debug, Clone)]
    struct FingerBuild {
        modulus: u128,
        n: usize,
        seed: u64,
        history: BuildHistory,
    }

    impl FingerBuild {
        fn build(&self) -> ChordNetwork {
            let space = KeySpace::with_modulus(self.modulus).unwrap();
            let mut r = rand::rngs::StdRng::seed_from_u64(self.seed);
            let mut points = space.random_distinct_points(&mut r, self.n);
            let config = ChordConfig::default();
            match self.history {
                BuildHistory::FromEmpty => ChordNetwork::bootstrap(space, points, config),
                BuildHistory::AfterCrashes => {
                    let late = points.split_off(self.n / 2 + 1);
                    let mut net = ChordNetwork::bootstrap(space, points, config);
                    for id in net.live_ids().into_iter().skip(1).step_by(3) {
                        net.crash(id);
                    }
                    net.bulk_join(late);
                    net
                }
                BuildHistory::AfterTwinJoin => {
                    let mut net = ChordNetwork::bootstrap(space, points, config);
                    let ids = net.live_ids();
                    let occupied = net.node(ids[ids.len() / 2]).point();
                    net.join(occupied, ids[0], &mut r).unwrap();
                    net.bulk_join(space.random_points(&mut r, self.n / 4));
                    net
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn bulk_join_fingers_match_per_bit_index_queries(
            build in proptest::prop_oneof![
                // The fixed case this property grew from: 97 random points
                // on the full ring.
                Just(FingerBuild {
                    modulus: 1 << 64,
                    n: 97,
                    seed: 15,
                    history: BuildHistory::FromEmpty,
                }),
                (0usize..7, 0usize..300, 0u64..1_000_000, 0usize..3).prop_map(
                    |(m, n, seed, h)| {
                        let modulus = [2, 3, 64, 1000, 1 << 16, (1 << 20) + 7, 1 << 64][m];
                        let history = [
                            BuildHistory::FromEmpty,
                            BuildHistory::AfterCrashes,
                            BuildHistory::AfterTwinJoin,
                        ][h];
                        let n = 1 + n % modulus.min(300) as usize;
                        FingerBuild { modulus, n, seed, history }
                    }
                ),
            ],
        ) {
            // The run-sweeping finger builder must agree with one
            // ground-truth index query per bit on every bit of every node.
            let net = build.build();
            let m = build.modulus;
            for id in net.live_ids() {
                let me = net.node(id).point();
                for bit in 0..net.finger_bits() {
                    let target = net.finger_target(me, bit);
                    proptest::prop_assert_eq!(
                        target.get() as u128,
                        (me.get() as u128 + (1u128 << bit)) % m
                    );
                    proptest::prop_assert_eq!(
                        net.node(id).fingers().get(bit),
                        net.truth_successor_id(target),
                        "{:?}: {} bit {} of {}", build, id, bit, me
                    );
                }
            }
            let report = net.verify_ring();
            proptest::prop_assert_eq!(report, net.verify_ring_full(), "{:?}", build);
            proptest::prop_assert_eq!(report.finger_accuracy, 1.0);
            // Strict successor and predecessor ties resolve by id while the
            // rebuilt lists follow ring order, so a co-located pair is
            // never converged; every other build is.
            let twins = matches!(build.history, BuildHistory::AfterTwinJoin);
            proptest::prop_assert!(twins || report.is_converged(), "{:?}: {:?}", build, report);
        }
    }

    /// One event of a [`ChurnScript`]. Node and point choices are raw
    /// draws, reduced against the ring as it stands when the event runs.
    #[derive(Debug, Clone, Copy)]
    enum Churn {
        Crash(u64),
        /// A protocol join at a random point through a random live gateway.
        Join {
            at: u64,
            via: u64,
        },
        /// A protocol join at an occupied point: a co-located peer.
        JoinOccupied {
            host: u64,
            via: u64,
        },
        Leave(u64),
        Round(MaintenanceBudget),
    }

    /// A bootstrapped ring of `peers` distinct points on `ℤ_modulus` (or,
    /// when `tiny`, of 1–3 distinct points that further joins co-locate
    /// on), then `steps` applied in order.
    #[derive(Debug, Clone)]
    struct ChurnScript {
        modulus: u128,
        peers: usize,
        tiny: bool,
        seed: u64,
        steps: Vec<Churn>,
    }

    fn churn_strategy() -> impl Strategy<Value = Churn> {
        (
            0u32..9,
            proptest::prelude::any::<u64>(),
            proptest::prelude::any::<u64>(),
        )
            .prop_map(|(kind, a, b)| match kind {
                0 | 1 => Churn::Crash(a),
                2 | 3 => Churn::Join { at: a, via: b },
                4 => Churn::JoinOccupied { host: a, via: b },
                5 => Churn::Leave(a),
                6 => Churn::Round(MaintenanceBudget::per_round(0)),
                7 => Churn::Round(MaintenanceBudget::per_round(5)),
                _ => Churn::Round(MaintenanceBudget::unlimited()),
            })
    }

    /// Checks every piece of incremental bookkeeping against a
    /// from-scratch recount: the ledger against `verify_ring_full`, each
    /// node's dirty finger mask against its missing-or-wrong levels
    /// (truth from a sorted copy of the live points, not the index), the
    /// sp flag on every node that fails a predicate, and the backlog
    /// against a recount of the flags.
    fn assert_bookkeeping_exact(net: &ChordNetwork, ctx: &dyn Fn() -> String) {
        assert_eq!(net.verify_ring(), net.verify_ring_full(), "{}", ctx());
        let mut live: Vec<(Point, NodeId)> = net
            .live_ids()
            .into_iter()
            .map(|id| (net.node(id).point(), id))
            .collect();
        live.sort_unstable();
        let owner = |x: Point| {
            let at = live.partition_point(|&(p, _)| p < x);
            live.get(at).or(live.first()).map(|&(_, id)| id)
        };
        let mut entries = 0;
        for id in net.node_ids() {
            let (sp, dirty) = (net.dirty.is_sp(id.0), net.dirty.finger_mask(id.0));
            entries += usize::from(sp) + dirty.count_ones() as usize;
            if !net.node(id).is_alive() {
                assert!(!sp && dirty == 0, "{}: dead {id} owes maintenance", ctx());
                continue;
            }
            let me = net.node(id).point();
            let stale = (0..net.finger_bits())
                .filter(|&bit| {
                    let f = net.node(id).fingers().get(bit);
                    f.is_none() || f != owner(net.finger_target(me, bit))
                })
                .fold(0u64, |m, bit| m | 1 << bit);
            assert_eq!(dirty, stale, "{}: {id}'s dirty finger levels", ctx());
            let (succ_ok, pred_ok, _, _) = net.check_node(id);
            assert!(
                sp || succ_ok && pred_ok,
                "{}: {id} fails a predicate without the sp flag",
                ctx()
            );
        }
        assert_eq!(net.maintenance_backlog(), entries, "{}: backlog", ctx());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        #[test]
        fn bookkeeping_matches_a_from_scratch_oracle_through_churn(
            script in (
                0usize..5,
                proptest::prop_oneof![1usize..=12, 1usize..=60, 1usize..=300],
                proptest::prelude::any::<bool>(),
                0u64..1_000_000,
                proptest::collection::vec(churn_strategy(), 100),
            ).prop_map(|(m, peers, tiny, seed, steps)| ChurnScript {
                modulus: [64, 256, 1000, (1 << 20) + 7, 1 << 64][m],
                peers,
                tiny,
                seed,
                steps,
            }),
        ) {
            let space = KeySpace::with_modulus(script.modulus).unwrap();
            let mut r = rand::rngs::StdRng::seed_from_u64(script.seed);
            let distinct = if script.tiny { 1 + script.peers % 3 } else { script.peers };
            let distinct = distinct.min(script.modulus.min(1 << 20) as usize);
            let points = space.random_distinct_points(&mut r, distinct);
            let mut net = ChordNetwork::bootstrap(
                space,
                points,
                ChordConfig::default().with_successor_list_len(4),
            );
            let pick = |net: &ChordNetwork, raw: u64| {
                net.live_slice()[(raw % net.live_len() as u64) as usize]
            };
            // Tiny rings fill up with co-located peers first.
            let fill = if script.tiny { script.peers.min(12) } else { 0 };
            let steps = (0..fill)
                .map(|k| Churn::JoinOccupied { host: k as u64, via: k as u64 * 7 })
                .chain(script.steps.iter().copied());
            assert_bookkeeping_exact(&net, &|| format!("{script:?}: bootstrap"));
            for (k, step) in steps.enumerate() {
                let lone = net.live_len() == 1;
                match step {
                    Churn::Crash(v) if !lone => net.crash(pick(&net, v)),
                    Churn::Leave(v) if !lone => net.leave(pick(&net, v)),
                    Churn::Crash(_) | Churn::Leave(_) => continue,
                    Churn::Join { at, via } => {
                        let at = Point::new((at as u128 % script.modulus) as u64);
                        let _ = net.join(at, pick(&net, via), &mut r);
                    }
                    Churn::JoinOccupied { host, via } => {
                        let at = net.node(pick(&net, host)).point();
                        let _ = net.join(at, pick(&net, via), &mut r);
                    }
                    Churn::Round(budget) => {
                        net.batched_maintenance_round(budget, &mut r);
                    }
                }
                assert_bookkeeping_exact(&net, &|| format!("{script:?}: step {k} {step:?}"));
            }
        }
    }

    #[test]
    fn bulk_join_skips_duplicates_and_occupied_points() {
        let mut net = bootstrap(8, 13);
        let taken = net.node(net.live_ids()[0]).point();
        let created = net.bulk_join(vec![taken, Point::new(1), Point::new(1)]);
        assert_eq!(created.len(), 1);
        assert_eq!(net.live_len(), 9);
    }

    #[test]
    fn live_set_tracks_membership_incrementally() {
        let mut net = bootstrap(32, 14);
        assert_eq!(net.live_slice(), &net.live_ids()[..]);
        let victim = net.live_ids()[7];
        net.crash(victim);
        assert!(!net.live_slice().contains(&victim));
        assert_eq!(net.live_len(), 31);
        assert_eq!(net.ring_index().len(), 31);
        let leaver = net.live_ids()[3];
        net.leave(leaver);
        assert_eq!(net.live_len(), 30);
        assert!(net.live_slice().windows(2).all(|w| w[0] < w[1]));
        // The index and live set agree on membership.
        let mut from_index: Vec<NodeId> = net.ring_index().entries().map(|&(_, id)| id).collect();
        from_index.sort_unstable();
        assert_eq!(from_index, net.live_ids());
    }

    #[test]
    fn create_then_join_then_converge() {
        let space = KeySpace::full();
        let mut net = ChordNetwork::new(space, ChordConfig::default());
        let mut r = rng();
        let first = net.create(space.random_point(&mut r));
        for _ in 0..31 {
            let p = space.random_point(&mut r);
            net.join(p, first, &mut r).unwrap();
        }
        assert_eq!(net.live_len(), 32);
        // Joins leave the ring incoherent; maintenance converges it.
        let mut report = net.verify_ring();
        for _ in 0..80 {
            if report.is_converged() {
                break;
            }
            net.maintenance_round(0, &mut r);
            report = net.verify_ring();
        }
        assert!(report.is_converged(), "never converged: {report:?}");
        // Fingers converge once every bit has been refreshed.
        let report = net.converge(&mut r);
        assert!(report.finger_accuracy > 0.99, "{report:?}");
    }

    #[test]
    fn graceful_leave_heals_immediately() {
        let mut net = bootstrap(32, 3);
        let victim = net.live_ids()[5];
        let pred = net.node(victim).predecessor().unwrap();
        net.leave(victim);
        assert!(!net.node(victim).is_alive());
        assert_eq!(net.live_len(), 31);
        // The predecessor's successor pointer skips the departed node.
        let succ_of_pred = net.first_live_successor(pred).unwrap();
        assert_ne!(succ_of_pred, victim);
        let report = net.verify_ring();
        assert_eq!(report.correct_successors, 31, "{report:?}");
    }

    #[test]
    fn crash_is_repaired_by_stabilization() {
        let mut net = bootstrap(32, 4);
        let mut r = rng();
        let victim = net.live_ids()[10];
        net.crash(victim);
        // Immediately after the crash the predecessor's pointer is stale...
        let report_before = net.verify_ring();
        assert!(report_before.correct_successors <= 31);
        // ...maintenance repairs it.
        let report_after = net.converge(&mut r);
        assert!(report_after.is_converged(), "{report_after:?}");
    }

    #[test]
    fn mass_crash_survivable_with_successor_lists() {
        let mut net = bootstrap(64, 5);
        let mut r = rng();
        // Crash 25% of nodes at once (fewer than r = 8 consecutive w.h.p.).
        let victims: Vec<NodeId> = net.live_ids().into_iter().step_by(4).collect();
        for v in victims {
            net.crash(v);
        }
        assert_eq!(net.live_len(), 48);
        for _ in 0..4 {
            net.converge(&mut r);
        }
        let report = net.verify_ring();
        assert!(report.is_converged(), "{report:?}");
    }

    #[test]
    fn incremental_report_matches_full_rescan_through_churn() {
        let mut net = bootstrap(48, 21);
        let mut r = rng();
        assert_eq!(net.verify_ring(), net.verify_ring_full());
        // Crash a batch, poll, repair, poll — the ledger must equal the
        // from-scratch reference at every step.
        for step in 0..6 {
            let victims: Vec<NodeId> = net.live_ids().into_iter().step_by(9).take(2).collect();
            for v in victims {
                net.crash(v);
            }
            assert_eq!(net.verify_ring(), net.verify_ring_full(), "step {step}");
            net.maintenance_round(step, &mut r);
            assert_eq!(net.verify_ring(), net.verify_ring_full(), "step {step}");
            let gw = net.live_ids()[0];
            let p = net.space().random_point(&mut r);
            net.join(p, gw, &mut r).unwrap();
            assert_eq!(net.verify_ring(), net.verify_ring_full(), "step {step}");
        }
    }

    #[test]
    fn colocated_tie_break_transfers_keep_the_ledger_exact() {
        // Regression: removing the lowest-id member of a co-located pair
        // hands the *entire* arc back to the previous distinct point over
        // to the surviving twin (ties resolve by id), so finger rightness
        // and neighbour succ/pred flags far from the collision point must
        // be re-derived — not just the colliding target itself.
        let space = KeySpace::with_modulus(256).unwrap();
        let mut r = rng();
        let mut net = ChordNetwork::bootstrap(
            space,
            vec![Point::new(10), Point::new(100), Point::new(200)],
            ChordConfig::default().with_successor_list_len(2),
        );
        let original = net.truth_successor_id(Point::new(100)).unwrap();
        // Join a second node at the occupied point 100 (higher id).
        let gw = net.truth_successor_id(Point::new(10)).unwrap();
        let twin = net.join(Point::new(100), gw, &mut r).unwrap();
        assert_ne!(twin, original);
        assert_eq!(net.verify_ring(), net.verify_ring_full(), "after twin join");
        // Crash the original (lowest-id) twin: node@10's fingers that
        // target (10, 100) now truly resolve to the surviving twin.
        net.crash(original);
        assert_eq!(
            net.verify_ring(),
            net.verify_ring_full(),
            "after twin crash"
        );
        net.converge(&mut r);
        assert_eq!(net.verify_ring(), net.verify_ring_full(), "after repair");
    }

    #[test]
    fn sampled_verification_agrees_on_a_converged_ring() {
        let net = bootstrap(128, 22);
        let mut r = rng();
        let report = net.verify_ring_sampled(32, &mut r);
        assert_eq!(report.live, 32);
        assert!(report.is_converged(), "{report:?}");
        assert!((report.finger_accuracy - 1.0).abs() < 1e-12);
        // Oversampling clamps to the live count.
        assert_eq!(net.verify_ring_sampled(10_000, &mut r).live, 128);
    }

    #[test]
    fn sampled_verification_is_without_replacement_on_tiny_rings() {
        // Exactly one node is stale after a crash (the successor's
        // predecessor pointer; successor lists skip the dead entry). A
        // full-coverage sample must find exactly that one defect on
        // every seed: a duplicate draw would either double-count the
        // broken node or crowd out a correct one, so this fails if
        // sampling is with replacement.
        let mut net = bootstrap(9, 31);
        net.crash(net.live_ids()[4]);
        let full = net.verify_ring_full();
        assert_eq!(full.correct_predecessors, full.live - 1, "{full:?}");
        for seed in 0..50 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            // k > live count clamps to full coverage, each node once.
            let sampled = net.verify_ring_sampled(1_000, &mut r);
            assert_eq!(sampled, full, "seed {seed}");
        }
    }

    #[test]
    fn sampled_verification_draws_distinct_partial_samples() {
        // Partial samples on a converged ring: every report is clean and
        // sized exactly k (a with-replacement draw on a ring with one
        // defect has a k-dependent chance of missing it; here we at
        // least pin the sample-size contract across k regimes).
        let net = bootstrap(16, 32);
        let mut r = rng();
        for k in [1, 7, 8, 15, 16] {
            let report = net.verify_ring_sampled(k, &mut r);
            assert_eq!(report.live, k);
            assert_eq!(report.correct_successors, k, "k = {k}");
            assert_eq!(report.correct_predecessors, k, "k = {k}");
        }
    }

    #[test]
    fn routing_bytes_are_a_fraction_of_the_legacy_representation() {
        let mut net = bootstrap(512, 23);
        net.enable_shadow_mirror();
        net.assert_shadow_matches();
        let compact = net.routing_bytes();
        let legacy = net.shadow_routing_bytes().unwrap();
        let ratio = legacy as f64 / compact as f64;
        assert!(
            ratio >= 8.0,
            "memory ratio {ratio:.1} (compact {compact}, legacy {legacy})"
        );
        assert!(net.verifier_bytes() > 0);
    }

    #[test]
    fn shadow_mirror_tracks_protocol_churn() {
        let mut net = bootstrap(40, 24);
        net.enable_shadow_mirror();
        let mut r = rng();
        for round in 0..6 {
            let victim = net.live_ids()[round * 3 % net.live_len()];
            net.crash(victim);
            let gw = net.live_ids()[0];
            let p = net.space().random_point(&mut r);
            net.join(p, gw, &mut r).unwrap();
            net.maintenance_round(round, &mut r);
            net.assert_shadow_matches();
        }
        let leaver = net.live_ids()[1];
        net.leave(leaver);
        net.assert_shadow_matches();
    }

    #[test]
    fn singleton_is_its_own_ring() {
        let space = KeySpace::full();
        let mut net = ChordNetwork::new(space, ChordConfig::default());
        let id = net.create(Point::new(42));
        assert_eq!(net.first_live_successor(id), Some(id));
        let report = net.verify_ring();
        assert!(report.is_converged(), "{report:?}");
    }

    #[test]
    #[should_panic(expected = "non-empty overlay")]
    fn create_twice_panics() {
        let space = KeySpace::full();
        let mut net = ChordNetwork::new(space, ChordConfig::default());
        net.create(Point::new(1));
        net.create(Point::new(2));
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_crash_panics() {
        let mut net = bootstrap(4, 6);
        let id = net.live_ids()[0];
        net.crash(id);
        net.crash(id);
    }

    #[test]
    fn interval_helpers_follow_chord_conventions() {
        let net = bootstrap(4, 7);
        let (a, b, x) = (Point::new(10), Point::new(20), Point::new(15));
        assert!(net.between_open(a, x, b));
        assert!(net.between_open_closed(a, Point::new(20), b));
        assert!(!net.between_open(a, Point::new(20), b));
        assert!(!net.between_open_closed(a, Point::new(10), b));
        // Degenerate (a, a] is the full ring; (a, a) excludes only a.
        assert!(net.between_open_closed(a, x, a));
        assert!(net.between_open(a, x, a));
        assert!(!net.between_open(a, a, a));
    }

    #[test]
    fn metrics_account_messages() {
        let mut net = bootstrap(16, 8);
        let mut r = rng();
        net.maintenance_round(0, &mut r);
        assert!(net.metrics().get("stabilize.messages") > 0);
        assert!(net.metrics().get("notify.messages") > 0);
        assert!(net.metrics().get("check_predecessor.messages") > 0);
    }

    #[test]
    fn node_ids_and_display() {
        let net = bootstrap(3, 9);
        assert_eq!(net.node_ids().len(), 3);
        assert_eq!(NodeId::from_index(2).to_string(), "n2");
        assert_eq!(NodeId::from_index(2).index(), 2);
        assert!(format!("{net:?}").contains("live"));
    }
}
