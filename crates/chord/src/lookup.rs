use core::fmt;
use core::ops::ControlFlow;

use keyspace::Point;
use peer_sampling::Cost;
use rand::Rng;
use telemetry::{FallbackTier, HopRecord, LookupTrace, TraceOutcome};

use crate::network::{ChordNetwork, NodeId};
use crate::RetryPolicy;

/// Per-lookup trace state, allocated only when the recorder's tracing
/// flag is on — the disabled hot path pays one relaxed atomic load.
pub(crate) struct TraceBuilder {
    from: Point,
    target: Point,
    hops: Vec<HopRecord>,
    /// Latency accounted so far, to attribute per-hop deltas (probe
    /// timeouts included in the hop that paid for them).
    seen_latency: u64,
    /// Retry attempt stamped on every routed hop (0 = first try).
    attempt: u8,
    /// Operation ordinal (from [`ChordNetwork::next_op_ordinal`]) — the
    /// id histogram exemplars carry, so tail buckets join back to traces.
    ordinal: u64,
}

impl TraceBuilder {
    /// A trace of a lookup from `from` for `target` whose first hop
    /// follows `seen_latency` ticks already accounted, or `None` while
    /// tracing is off.
    fn open(
        net: &ChordNetwork,
        from: NodeId,
        target: Point,
        seen_latency: u64,
        attempt: u8,
        ordinal: u64,
    ) -> Option<TraceBuilder> {
        net.metrics()
            .recorder()
            .tracing_enabled()
            .then(|| TraceBuilder {
                from: net.node(from).point(),
                target,
                hops: Vec::new(),
                seen_latency,
                attempt,
                ordinal,
            })
    }

    fn hop(&mut self, net: &ChordNetwork, origin: Point, to: NodeId, forged: bool, cost: &Cost) {
        let to_point = net.node(to).point();
        let distance = net.space().distance(origin, to_point).get();
        let finger_level = if distance == 0 {
            0
        } else {
            (64 - distance.leading_zeros()) as u8
        };
        self.hops.push(HopRecord {
            node: to_point.get(),
            finger_level,
            forged,
            latency: cost.latency - self.seen_latency,
            attempt: self.attempt,
            tier: FallbackTier::Direct,
        });
        self.seen_latency = cost.latency;
    }

    /// A synthetic fallback-tier hop (successor-walk step or quorum
    /// round); `finger_level` is 0 — no finger resolved it.
    fn fallback_hop(&mut self, node: Point, tier: FallbackTier, total_latency: u64) {
        self.hops.push(HopRecord {
            node: node.get(),
            finger_level: 0,
            forged: false,
            latency: total_latency - self.seen_latency,
            attempt: self.attempt,
            tier,
        });
        self.seen_latency = total_latency;
    }

    fn finish(self, net: &ChordNetwork, outcome: TraceOutcome, cost: &Cost) {
        net.metrics().recorder().push_trace(LookupTrace {
            from: self.from.get(),
            target: self.target.get(),
            hops: self.hops,
            outcome,
            messages: cost.messages,
            latency: cost.latency,
            ordinal: self.ordinal,
        });
    }
}

/// Error from a routed Chord lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupError {
    /// The starting node is dead.
    StartDead,
    /// The hop cap was exceeded (routing loop or pathological churn).
    HopLimitExceeded {
        /// Configured cap that was hit.
        max_hops: u32,
    },
    /// A hop's entire successor list was dead — the ring is partitioned
    /// from this node's perspective.
    SuccessorsAllDead,
    /// Every async-engine attempt ran past its deadline (the routed walk
    /// never failed outright — it was simply too slow). Sync lookups
    /// never return this; only the [`engine`](crate::engine) arms
    /// deadlines.
    TimedOut {
        /// The per-attempt deadline that expired, in ticks.
        timeout_ticks: u64,
    },
}

impl fmt::Display for LookupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LookupError::StartDead => write!(f, "lookup started at a dead node"),
            LookupError::HopLimitExceeded { max_hops } => {
                write!(f, "lookup exceeded the {max_hops}-hop cap")
            }
            LookupError::SuccessorsAllDead => {
                write!(f, "every successor of a hop was dead (ring partition)")
            }
            LookupError::TimedOut { timeout_ticks } => {
                write!(
                    f,
                    "every attempt ran past its {timeout_ticks}-tick deadline"
                )
            }
        }
    }
}

impl std::error::Error for LookupError {}

/// A successful routed lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The node owning the target point (its successor on the ring).
    pub node: NodeId,
    /// That node's point.
    pub point: Point,
    /// Routing hops taken (nodes traversed).
    pub hops: u32,
    /// Messages and latency spent, **including** probes of dead nodes
    /// (failure detection is not free).
    pub cost: Cost,
}

/// What one [`ChordNetwork::hop_step`] decided: the routed walk either
/// resolved, must forward to a next hop, or cannot make progress.
pub(crate) enum HopOutcome {
    /// The lookup resolved (or was Byzantine-captured) at this hop.
    Done(LookupResult),
    /// Forward the lookup to this next node (one more hop).
    Forward(NodeId),
    /// The hop could not make progress; the walk fails with this error.
    Failed(LookupError),
}

/// One lookup's attempt accounting, shared by the sync walk and the async
/// [`engine`](crate::engine) through
/// [`open_attempt`](ChordNetwork::open_attempt),
/// [`step_attempt`](ChordNetwork::step_attempt) and
/// [`close_attempt`](ChordNetwork::close_attempt): each attempt is charged
/// once, the same way, whichever driver routes it.
pub(crate) struct Attempt {
    pub(crate) from: NodeId,
    pub(crate) target: Point,
    /// 1-based number of the open (or last) attempt; 0 before the first.
    pub(crate) number: u8,
    /// Op ordinal of the last attempt past the origin check (the exemplar
    /// and trace id); `None` while there is none.
    pub(crate) ordinal: Option<u64>,
    /// Cost of the open attempt so far.
    pub(crate) cost: Cost,
    /// The open attempt's latency burnt on dead score-demoted candidates
    /// (the `lookup;demoted_skip` span).
    skip: u64,
    /// Hops the open attempt has taken.
    pub(crate) hops: u32,
    /// Cost of the closed attempts plus retry backoff.
    pub(crate) spent: Cost,
    trace: Option<TraceBuilder>,
}

impl Attempt {
    /// A lookup from `from` for `target`, before its first attempt.
    pub(crate) fn new(from: NodeId, target: Point) -> Attempt {
        Attempt {
            from,
            target,
            number: 0,
            ordinal: None,
            cost: Cost::FREE,
            skip: 0,
            hops: 0,
            spent: Cost::FREE,
            trace: None,
        }
    }

    /// Ends the open attempt's trace, if it has one, with `outcome`.
    pub(crate) fn finish_trace(&mut self, net: &ChordNetwork, outcome: TraceOutcome) {
        if let Some(t) = self.trace.take() {
            t.finish(net, outcome, &self.cost);
        }
    }
}

impl ChordNetwork {
    /// Routes a lookup for `target` starting at node `from`, returning the
    /// live node whose point is the clockwise successor of `target`.
    ///
    /// This is the iterative Chord algorithm (SIGCOMM Fig. 5): at each hop
    /// the current node either answers from its successor list (when the
    /// target falls between itself and a live successor) or forwards to
    /// the closest preceding finger. Each contacted node costs one message
    /// and one latency sample; contacting a dead node costs the same (a
    /// timed-out probe) and the router falls back to the next candidate.
    ///
    /// # Errors
    ///
    /// * [`LookupError::StartDead`] — `from` is dead.
    /// * [`LookupError::SuccessorsAllDead`] — some hop lost its entire
    ///   successor list (only possible when churn outpaces stabilization).
    /// * [`LookupError::HopLimitExceeded`] — the configured cap was hit.
    pub fn find_successor<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        self.find_successor_with_faults(from, target, &crate::FaultPlan::none(), rng)
    }

    /// [`find_successor`](ChordNetwork::find_successor) with routing-level
    /// fault injection: any hop that reaches a node for which
    /// [`FaultPlan::claims_ownership`](crate::FaultPlan::claims_ownership)
    /// holds is answered by that node claiming the target for itself,
    /// regardless of ring position. The originating node is exempt (a peer
    /// trusts its own state; the attack is on *remote* answers).
    ///
    /// With an empty plan this is byte-for-byte the honest lookup.
    ///
    /// # Errors
    ///
    /// Same as [`find_successor`](ChordNetwork::find_successor).
    pub fn find_successor_with_faults<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        faults: &crate::FaultPlan,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        self.route(from, target, faults, None, rng)
    }

    /// The attempt loop behind
    /// [`find_successor_with_faults`](Self::find_successor_with_faults)
    /// (no `policy`: one attempt, no fallback) and
    /// [`find_successor_with_policy`](Self::find_successor_with_policy).
    fn route<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        faults: &crate::FaultPlan,
        policy: Option<RetryPolicy>,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        let mut st = Attempt::new(from, target);
        loop {
            self.open_attempt(&mut st, policy)?;
            let mut current = from;
            let outcome = loop {
                match self.step_attempt(&mut st, current, faults, rng) {
                    HopOutcome::Done(hit) => break Ok(hit),
                    HopOutcome::Failed(e) => break Err(e),
                    HopOutcome::Forward(next) => {
                        current = next;
                        st.hops += 1;
                    }
                }
            };
            if let ControlFlow::Break(result) = self.close_attempt(&mut st, policy, outcome, rng) {
                return result;
            }
        }
    }

    /// Opens attempt `st.number + 1`. A retry first waits out `policy`'s
    /// backoff: latency into `spent`, no messages. A dead origin ends the
    /// lookup with [`LookupError::StartDead`] before an ordinal is drawn
    /// (no fallback can act for it).
    pub(crate) fn open_attempt(
        &self,
        st: &mut Attempt,
        policy: Option<RetryPolicy>,
    ) -> Result<(), LookupError> {
        let counters = self.counters();
        let recorder = self.metrics().recorder();
        st.number += 1;
        if st.number > 1 {
            let backoff = policy
                .expect("only a retry policy retries")
                .backoff_ticks(st.number - 1);
            st.spent.latency += backoff;
            recorder.incr(counters.lookup_retries);
            recorder
                .profiler()
                .add(counters.span_retry_backoff, backoff);
        }
        if !self.node(st.from).is_alive() {
            recorder.profiler().add(counters.span_finger_walk, 0);
            return Err(LookupError::StartDead);
        }
        // Drawn whether or not tracing is on, so exemplar ids agree
        // between traced and untraced replays of the same seed.
        let ordinal = self.next_op_ordinal();
        st.ordinal = Some(ordinal);
        st.cost = Cost::FREE;
        st.skip = 0;
        st.hops = 0;
        st.trace = TraceBuilder::open(self, st.from, st.target, 0, st.number - 1, ordinal);
        Ok(())
    }

    /// One hop of the open attempt, at `current`: past the hop cap the
    /// attempt fails with [`LookupError::HopLimitExceeded`], otherwise
    /// [`hop_step`](Self::hop_step) routes it. The async engine runs one
    /// per delivered `FindSuccessor` message.
    pub(crate) fn step_attempt<R: Rng + ?Sized>(
        &self,
        st: &mut Attempt,
        current: NodeId,
        faults: &crate::FaultPlan,
        rng: &mut R,
    ) -> HopOutcome {
        let max_hops = self.config().max_hops();
        if st.hops > max_hops {
            st.finish_trace(self, TraceOutcome::Unresolved);
            return HopOutcome::Failed(LookupError::HopLimitExceeded { max_hops });
        }
        self.hop_step(st, current, faults, rng)
    }

    /// Closes the open attempt with its `outcome`: its latency goes to
    /// the `lookup;finger_walk` and `lookup;demoted_skip` spans, its cost
    /// into `spent`. A success breaks with the whole lookup's cost (a
    /// retried one adds 1 to `lookup.fallback_depth`). A failure continues
    /// while `policy` has attempts left, then breaks with the fallback
    /// tiers' answer, or at once with the error when there is no policy.
    pub(crate) fn close_attempt<R: Rng + ?Sized>(
        &self,
        st: &mut Attempt,
        policy: Option<RetryPolicy>,
        outcome: Result<LookupResult, LookupError>,
        rng: &mut R,
    ) -> ControlFlow<Result<LookupResult, LookupError>> {
        let counters = self.counters();
        let recorder = self.metrics().recorder();
        let profiler = recorder.profiler();
        profiler.add(counters.span_finger_walk, st.cost.latency - st.skip);
        if st.skip > 0 {
            profiler.add(counters.span_demoted_skip, st.skip);
        }
        st.spent.messages += st.cost.messages;
        st.spent.latency += st.cost.latency;
        match (outcome, policy) {
            (Ok(hit), _) => {
                if st.number > 1 {
                    recorder.add(counters.lookup_fallback_depth, 1);
                }
                ControlFlow::Break(Ok(LookupResult {
                    cost: st.spent,
                    ..hit
                }))
            }
            (Err(e), None) => ControlFlow::Break(Err(e)),
            (Err(_), Some(policy)) if st.number < policy.max_attempts.max(1) => {
                ControlFlow::Continue(())
            }
            (Err(e), Some(policy)) => {
                ControlFlow::Break(self.fallback_resolve(&policy, st, e, rng))
            }
        }
    }

    /// One hop of the iterative walk at `current`, shared verbatim by the
    /// sync loop and the async [`engine`](crate::engine) through
    /// [`step_attempt`](Self::step_attempt). All recorder/score side
    /// effects happen here in a fixed order, so the two drivers stay
    /// bit-identical.
    fn hop_step<R: Rng + ?Sized>(
        &self,
        st: &mut Attempt,
        current: NodeId,
        faults: &crate::FaultPlan,
        rng: &mut R,
    ) -> HopOutcome {
        let counters = self.counters();
        let recorder = self.metrics().recorder();
        let latency_model = self.config().latency();
        let cur_point = self.node(current).point();
        let (target, hops) = (st.target, st.hops);
        let ordinal = st.ordinal.expect("an open attempt has drawn its ordinal");

        // Fault injection: a Byzantine hop answers the lookup with
        // itself instead of routing on, *and* forges its reported ring
        // position as the target itself — the most advantageous lie,
        // since any interval check the caller runs (the sampler's
        // `|I(s, l(h(s)))| < λ` test in particular) then passes. The
        // origin never lies to itself, so `hops > 0` guards the first
        // iteration.
        if hops > 0 && faults.claims_ownership(current) {
            recorder.incr(counters.lookup_byzantine_claim);
            recorder.add(counters.lookup_hops, hops as u64);
            recorder.record_with_exemplar(counters.hop_hist, hops as u64, ordinal);
            st.finish_trace(self, TraceOutcome::Captured(cur_point.get()));
            return HopOutcome::Done(LookupResult {
                node: current,
                point: target,
                hops,
                cost: st.cost,
            });
        }

        // Singleton special case: a node that is its own successor
        // owns the whole ring.
        let successors = self.node(current).successors();
        if successors.len() == 1 && successors.first() == Some(current) {
            recorder.add(counters.lookup_hops, hops as u64);
            recorder.record_with_exemplar(counters.hop_hist, hops as u64, ordinal);
            st.finish_trace(self, TraceOutcome::Resolved(cur_point.get()));
            return HopOutcome::Done(LookupResult {
                node: current,
                point: cur_point,
                hops,
                cost: st.cost,
            });
        }

        // Case 1: the target falls between us and some successor-list
        // entry. The first such entry is the locally-believed answer;
        // if it turns out dead, the next live list entry is the true
        // successor (list entries are consecutive ring nodes), at the
        // price of one timed-out probe per dead entry.
        if successors.is_empty() {
            st.finish_trace(self, TraceOutcome::Unresolved);
            return HopOutcome::Failed(LookupError::SuccessorsAllDead);
        }
        let answer_rank = successors
            .iter()
            .position(|e| self.between_open_closed(cur_point, target, self.node(e).point()));
        if let Some(rank) = answer_rank {
            let mut found = None;
            for cand in successors.iter().skip(rank) {
                // Probe / handoff message.
                st.cost.messages += 1;
                st.cost.latency += latency_model.sample(rng).ticks();
                let alive = self.node(cand).is_alive();
                if let Some(scores) = self.scores() {
                    scores.borrow_mut().record(cand, alive);
                }
                if alive {
                    found = Some(cand);
                    break;
                }
                recorder.incr(counters.lookup_dead_probe);
            }
            if let Some(cand) = found {
                recorder.add(counters.lookup_hops, (hops + 1) as u64);
                recorder.record_with_exemplar(counters.hop_hist, (hops + 1) as u64, ordinal);
                let answer_point = self.node(cand).point();
                if let Some(t) = st.trace.as_mut() {
                    t.hop(self, cur_point, cand, faults.is_byzantine(cand), &st.cost);
                }
                st.finish_trace(self, TraceOutcome::Resolved(answer_point.get()));
                return HopOutcome::Done(LookupResult {
                    node: cand,
                    point: answer_point,
                    hops: hops + 1,
                    cost: st.cost,
                });
            }
            // The whole tail of the list was dead: fall through to
            // finger routing, which forwards to a live node *before*
            // the target; that node's (fresher) list resolves it.
        }

        // Case 2: forward to the closest preceding live candidate
        // (fingers first, then the successor list).
        let Some(next_hop) =
            self.closest_preceding(current, target, &mut st.cost, &mut st.skip, rng)
        else {
            st.finish_trace(self, TraceOutcome::Unresolved);
            return HopOutcome::Failed(LookupError::SuccessorsAllDead);
        };
        if let Some(t) = st.trace.as_mut() {
            t.hop(
                self,
                cur_point,
                next_hop,
                faults.is_byzantine(next_hop),
                &st.cost,
            );
        }
        HopOutcome::Forward(next_hop)
    }

    /// The closest node preceding `target` among `at`'s fingers and
    /// successor list (SIGCOMM Fig. 5's `closest_preceding_node`).
    ///
    /// One pass over the candidates finds the one
    /// [`closest_preceding_ordered`](Self::closest_preceding_ordered)
    /// would probe first: the in-range candidate with the largest
    /// `(not penalized, distance from at)`, the last one winning ties as
    /// the stable sorts there leave it. If it is alive — the common case
    /// on a healthy ring — it costs exactly that walk's first probe and
    /// is returned with no allocation or sort. Only a dead first pick (or
    /// no candidate at all) runs the ordered walk, which re-derives the
    /// same first probe, so every message, latency draw, score update
    /// and counter is bit-identical either way.
    ///
    /// The key is one `u128`, `healthy << 64 | distance`, with 0 for a
    /// candidate out of range, and the running best is that integer and
    /// its candidate in two locals. Keep them plain integers: a fold over
    /// `Option<((bool, Distance), NodeId)>` values copies its accumulator
    /// through the stack in overlapping pieces and reloads it whole, a
    /// load no store can forward, which stalls the loop once per
    /// candidate.
    ///
    /// On an exact finger table ([`finger_table_exact`]) the fingers'
    /// share of that pass is a scan of the sorted runs instead of a read
    /// of every run's ring point. Each finger `b` then holds the true
    /// live successor of `at + 2^b`, so run `k`, starting at bit `s_k`,
    /// holds a node at a distance in `[2^s_k, 2^s_(k+1))`; only the last
    /// run may instead wrap round to `at`'s own point (distance 0). The
    /// in-range runs are therefore a prefix of the table, ordered by
    /// distance. The scan starts at the highest run with `2^s < span`
    /// (every run above it lies at or past the target), steps down past
    /// it if its node is out of range, and stops at the first in-range
    /// run that is not score-penalized — usually one or two point reads.
    /// That run is the one the full pass would pick: no two runs of an
    /// exact table share a distance, so there is no tie to break.
    ///
    /// [`finger_table_exact`]: ChordNetwork::finger_table_exact
    fn closest_preceding<R: Rng + ?Sized>(
        &self,
        at: NodeId,
        target: Point,
        cost: &mut Cost,
        skip: &mut u64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let space = self.space();
        let node = self.node(at);
        let at_point = node.point();
        // `(at, target)` is open; `at == target` denotes the whole ring
        // minus `at` itself (see `between_open`).
        let span = space.distance(at_point, target).get();
        // The best key so far and its candidate; `pick` means nothing
        // while `best` is 0.
        let (mut best, mut pick) = (0u128, at);
        {
            let scores = self.scores().map(|s| s.borrow());
            // A candidate's `(not penalized, distance from at)` key as one
            // integer, `healthy << 64 | distance`, or 0 out of range: the
            // distance must lie in `[1, span)`, or be nonzero when the
            // span is 0 (the whole ring). `at` itself sits at distance 0.
            let key = |c: NodeId| -> u128 {
                let d = space.distance(at_point, self.node(c).point()).get();
                if d.wrapping_sub(1) >= span.wrapping_sub(1) {
                    return 0;
                }
                let healthy = scores.as_ref().is_none_or(|s| !s.penalized(c));
                u128::from(healthy) << 64 | u128::from(d)
            };
            let fingers = node.fingers();
            if self.finger_table_exact(at) {
                // Runs starting below bit `ilog2(span - 1) + 1` have
                // `2^s < span`; a zero span (the whole ring) admits all.
                // Their distances fall run by run, so the first healthy
                // in-range run beats every run below it.
                let below = 64 - span.wrapping_sub(1).leading_zeros();
                for c in fingers.runs_starting_below(below).rev() {
                    let k = key(c);
                    if k > best {
                        (best, pick) = (k, c);
                        if k >> 64 != 0 {
                            break;
                        }
                    }
                }
            } else {
                // The later of two equal keys wins, as the stable sorts of
                // the ordered walk leave it. An out-of-range 0 only
                // replaces another 0.
                for c in fingers.distinct() {
                    let k = key(c);
                    if k >= best {
                        (best, pick) = (k, c);
                    }
                }
            }
            // The successor list joins the same maximum, with the same
            // tie rule.
            for c in node.successors().iter() {
                let k = key(c);
                if k >= best {
                    (best, pick) = (k, c);
                }
            }
        }
        if best == 0 || !self.node(pick).is_alive() {
            return self.closest_preceding_ordered(at, target, cost, skip, rng);
        }
        cost.messages += 1;
        cost.latency += self.config().latency().sample(rng).ticks();
        if let Some(scores) = self.scores() {
            scores.borrow_mut().record(pick, true);
        }
        Some(pick)
    }

    /// The full ordered walk behind
    /// [`closest_preceding`](Self::closest_preceding): collect every
    /// in-range candidate, order it, and probe from closest-preceding
    /// downward, skipping dead ones (each probe costs a message). `skip`
    /// accumulates latency burnt on probes of score-demoted candidates
    /// that were dead anyway, for span attribution. It is the next-hop
    /// selection as it stood before the one-pass fast path, kept verbatim
    /// as that path's fallback and as the reference its equivalence
    /// property test compares against: optimizing it means first
    /// freezing a copy under `#[cfg(test)]` for that test.
    fn closest_preceding_ordered<R: Rng + ?Sized>(
        &self,
        at: NodeId,
        target: Point,
        cost: &mut Cost,
        skip: &mut u64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let at_point = self.node(at).point();
        let latency_model = self.config().latency();

        // Collect candidates strictly inside (at, target), dedup, order by
        // distance from `at` descending (closest to target first). The
        // finger table is iterated by its ~log n *distinct* run values
        // rather than all 64 bit entries — same candidate set after the
        // dedup below, a fraction of the scanning.
        let node = self.node(at);
        let mut candidates: Vec<NodeId> = node
            .fingers()
            .distinct()
            .chain(node.successors().iter())
            .filter(|&c| c != at && self.between_open(at_point, self.node(c).point(), target))
            .collect();
        candidates.sort_by_key(|&c| self.space().distance(at_point, self.node(c).point()));
        candidates.dedup();

        // Adaptive ranking: candidates the score table currently holds
        // penalized sink to the *front* of the vec — the probe loop below
        // walks it back-to-front, so they are tried last and a healthy
        // lower finger level (or successor-list entry) is preferred over
        // a closer-but-flaky one. The sort is stable, so within each
        // class the closest-preceding order is untouched; with scoring
        // disabled this block is skipped and the routing is byte-identical
        // to the pre-adaptive overlay.
        if let Some(scores) = self.scores() {
            let scores = scores.borrow();
            candidates.sort_by_key(|&c| !scores.penalized(c));
        }

        for &cand in candidates.iter().rev() {
            cost.messages += 1;
            let probe_latency = latency_model.sample(rng).ticks();
            cost.latency += probe_latency;
            let was_penalized = self
                .scores()
                .map(|s| s.borrow().penalized(cand))
                .unwrap_or(false);
            let alive = self.node(cand).is_alive();
            if let Some(scores) = self.scores() {
                scores.borrow_mut().record(cand, alive);
            }
            if alive {
                return Some(cand);
            }
            if was_penalized {
                *skip += probe_latency;
            }
            self.metrics()
                .recorder()
                .incr(self.counters().lookup_dead_probe);
        }
        // No usable finger: fall back to the first live successor, which
        // always makes clockwise progress.
        self.first_live_successor(at)
            .filter(|&s| s != at)
            .inspect(|_s| {
                cost.messages += 1;
                cost.latency += latency_model.sample(rng).ticks();
            })
    }

    /// [`find_successor_with_faults`](ChordNetwork::find_successor_with_faults)
    /// under the armed [`RetryPolicy`](crate::RetryPolicy) — the
    /// graceful-degradation entry point used by the DHT facade.
    ///
    /// With no policy armed this is exactly
    /// [`find_successor_with_faults`](ChordNetwork::find_successor_with_faults).
    /// With a policy, a failed routed attempt is retried up to
    /// `max_attempts` times, each retry paying a deterministic backoff
    /// (`backoff_base << (k − 1)` latency ticks, no messages) — with
    /// adaptive scoring on, the failed attempt's dead probes have already
    /// re-ranked the next attempt's candidates. If every routed attempt
    /// fails, the lookup *degrades* instead of erroring:
    ///
    /// * **successor-walk** (fallback depth 2): pure `next`-pointer
    ///   progress from the origin for up to `walk_limit` hops, one
    ///   message per hop — correct on any ring whose live successor
    ///   chain is intact, no fingers needed;
    /// * **verified-quorum resolution** (fallback depth 3): an
    ///   out-of-band query of the quorum-verified position directory,
    ///   charged `quorum_messages` messages plus one parallel round of
    ///   latency. Returns the true owner whenever any live node exists.
    ///
    /// All failed-attempt cost is carried into the returned
    /// [`LookupResult::cost`], and every escalation bumps
    /// `lookup.retries` / `lookup.fallback_depth`, so degraded answers
    /// arrive with their extra cost attributed.
    ///
    /// # Errors
    ///
    /// [`LookupError::StartDead`] when `from` is dead (no fallback can
    /// act for a dead origin); the last routed error only if the ring has
    /// no live nodes left to resolve against.
    pub fn find_successor_with_policy<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        target: Point,
        faults: &crate::FaultPlan,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        self.route(from, target, faults, self.retry_policy(), rng)
    }

    /// The degradation tail of a lookup whose routed attempts all failed:
    /// successor-walk, then verified-quorum resolution. `st.spent`
    /// carries the cost of the failed attempts (and any backoff) so the
    /// degraded answer arrives fully attributed; `last_err` is returned
    /// when even the quorum tier has nothing live to resolve against.
    fn fallback_resolve<R: Rng + ?Sized>(
        &self,
        policy: &RetryPolicy,
        st: &Attempt,
        last_err: LookupError,
        rng: &mut R,
    ) -> Result<LookupResult, LookupError> {
        let (from, target, mut spent) = (st.from, st.target, st.spent);
        let counters = self.counters();
        let recorder = self.metrics().recorder();
        let latency_model = self.config().latency();
        // The fallback tiers are one logical operation: one ordinal
        // (drawn traced or not, keeping exemplar ids replay-stable) and
        // one trace carrying synthetic walk/quorum hops.
        let fallback_ordinal = self.next_op_ordinal();
        let last_attempt = policy.max_attempts.max(1) - 1;
        let mut trace = TraceBuilder::open(
            self,
            from,
            target,
            spent.latency,
            last_attempt,
            fallback_ordinal,
        );

        // Fallback tier: successor-walk from the origin. Immune to the
        // stale fingers that defeated routing; every hop is guaranteed
        // clockwise progress through live nodes.
        let walk_start = spent.latency;
        let mut cur = from;
        let mut walked = 0u32;
        while walked < policy.walk_limit {
            let cur_point = self.node(cur).point();
            let Some(next) = self.first_live_successor(cur).filter(|&s| s != cur) else {
                break; // the walk itself hit a dead arc: escalate
            };
            spent.messages += 1;
            spent.latency += latency_model.sample(rng).ticks();
            walked += 1;
            let next_point = self.node(next).point();
            if let Some(t) = trace.as_mut() {
                t.fallback_hop(next_point, telemetry::FallbackTier::Walk, spent.latency);
            }
            if self.between_open_closed(cur_point, target, next_point) {
                recorder.add(counters.lookup_hops, u64::from(walked));
                recorder.record_with_exemplar(
                    counters.hop_hist,
                    u64::from(walked),
                    fallback_ordinal,
                );
                recorder.add(counters.lookup_fallback_depth, 2);
                recorder
                    .profiler()
                    .add(counters.span_successor_walk, spent.latency - walk_start);
                if let Some(t) = trace.take() {
                    t.finish(self, TraceOutcome::Resolved(next_point.get()), &spent);
                }
                return Ok(LookupResult {
                    node: next,
                    point: next_point,
                    hops: walked,
                    cost: spent,
                });
            }
            cur = next;
        }
        if spent.latency > walk_start {
            recorder
                .profiler()
                .add(counters.span_successor_walk, spent.latency - walk_start);
        }

        // Last-resort tier: verified-quorum resolution against the
        // ground-truth directory — always correct while anything lives,
        // charged as a quorum of parallel queries.
        if let Some(owner) = self.truth_successor_id(target) {
            spent.messages += policy.quorum_messages;
            let quorum_latency = latency_model.sample(rng).ticks();
            spent.latency += quorum_latency;
            recorder.add(counters.lookup_fallback_depth, 3);
            recorder
                .profiler()
                .add(counters.span_verified_quorum, quorum_latency);
            let owner_point = self.node(owner).point();
            if let Some(mut t) = trace.take() {
                t.fallback_hop(owner_point, telemetry::FallbackTier::Quorum, spent.latency);
                t.finish(self, TraceOutcome::Resolved(owner_point.get()), &spent);
            }
            return Ok(LookupResult {
                node: owner,
                point: owner_point,
                hops: 0,
                cost: spent,
            });
        }
        if let Some(t) = trace.take() {
            t.finish(self, TraceOutcome::Unresolved, &spent);
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChordConfig;
    use keyspace::KeySpace;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
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
    fn lookup_matches_ground_truth() {
        let net = bootstrap(256, 1);
        let mut r = rng();
        let start = net.live_ids()[0];
        for _ in 0..200 {
            let target = net.space().random_point(&mut r);
            let hit = net.find_successor(start, target, &mut r).unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(target));
        }
    }

    #[test]
    fn lookup_from_every_start_matches() {
        let net = bootstrap(64, 2);
        let mut r = rng();
        let target = net.space().random_point(&mut r);
        let truth = net.ground_truth_successor(target);
        for start in net.live_ids() {
            let hit = net.find_successor(start, target, &mut r).unwrap();
            assert_eq!(hit.point, truth, "start {start}");
        }
    }

    #[test]
    fn hops_are_logarithmic() {
        let net = bootstrap(1024, 3);
        let mut r = rng();
        let start = net.live_ids()[0];
        let mut total_hops = 0u64;
        let lookups = 300;
        for _ in 0..lookups {
            let target = net.space().random_point(&mut r);
            let hit = net.find_successor(start, target, &mut r).unwrap();
            total_hops += hit.hops as u64;
            assert!(hit.hops <= 30, "hop count {} too high for n=1024", hit.hops);
        }
        let mean = total_hops as f64 / lookups as f64;
        // Chord's expected path length is ~½ log2 n = 5; allow slack.
        assert!((2.0..10.0).contains(&mean), "mean hops {mean}");
    }

    #[test]
    fn messages_track_hops_on_healthy_ring() {
        let net = bootstrap(128, 4);
        let mut r = rng();
        let start = net.live_ids()[0];
        let target = net.space().random_point(&mut r);
        let hit = net.find_successor(start, target, &mut r).unwrap();
        // On a fault-free ring: one message per forwarding step plus the
        // final handoff; no dead probes.
        assert!(hit.cost.messages >= hit.hops as u64);
        assert!(hit.cost.messages <= hit.hops as u64 + 2);
        assert_eq!(net.metrics().get("lookup.dead_probe"), 0);
    }

    #[test]
    fn lookup_self_point_returns_self() {
        let net = bootstrap(32, 5);
        let mut r = rng();
        let start = net.live_ids()[7];
        let hit = net
            .find_successor(start, net.node(start).point(), &mut r)
            .unwrap();
        assert_eq!(hit.node, start);
    }

    #[test]
    fn lookup_routes_around_crashes() {
        let mut net = bootstrap(128, 6);
        let mut r = rng();
        // Crash 20 nodes without any repair rounds.
        let victims: Vec<NodeId> = net.live_ids().into_iter().step_by(6).take(20).collect();
        for v in &victims {
            net.crash(*v);
        }
        let start = net.live_ids()[0];
        for _ in 0..100 {
            let target = net.space().random_point(&mut r);
            let hit = net.find_successor(start, target, &mut r).unwrap();
            assert!(net.node(hit.node).is_alive());
            assert_eq!(hit.point, net.ground_truth_successor(target));
        }
        // Dead fingers cost extra probe messages.
        assert!(net.metrics().get("lookup.dead_probe") > 0);
    }

    #[test]
    fn start_dead_is_an_error() {
        let mut net = bootstrap(8, 7);
        let mut r = rng();
        let id = net.live_ids()[0];
        net.crash(id);
        assert_eq!(
            net.find_successor(id, Point::new(1), &mut r).unwrap_err(),
            LookupError::StartDead
        );
    }

    #[test]
    fn singleton_owns_everything() {
        let space = KeySpace::full();
        let mut net = ChordNetwork::new(space, ChordConfig::default());
        let id = net.create(Point::new(99));
        let mut r = rng();
        let hit = net.find_successor(id, Point::new(5), &mut r).unwrap();
        assert_eq!(hit.node, id);
        assert_eq!(hit.hops, 0);
    }

    #[test]
    fn latency_accumulates_per_message() {
        let space = KeySpace::full();
        let mut r = rng();
        let net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, 64),
            ChordConfig::default().with_latency(simnet::LatencyModel::Constant(10)),
        );
        let start = net.live_ids()[0];
        let target = net.space().random_point(&mut r);
        let hit = net.find_successor(start, target, &mut r).unwrap();
        assert_eq!(hit.cost.latency, hit.cost.messages * 10);
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_honest_routing() {
        let net = bootstrap(128, 21);
        let start = net.live_ids()[0];
        let plan = crate::FaultPlan::none();
        let mut targets = rng();
        let mut lookups = rng();
        for _ in 0..50 {
            let target = net.space().random_point(&mut targets);
            let honest = net.find_successor(start, target, &mut lookups).unwrap();
            let faulted = net
                .find_successor_with_faults(start, target, &plan, &mut lookups)
                .unwrap();
            // Unit latency draws nothing from the rng, so answers and costs
            // must match exactly.
            assert_eq!(honest.node, faulted.node);
            assert_eq!(honest.cost, faulted.cost);
        }
        assert_eq!(net.metrics().get("lookup.byzantine_claim"), 0);
    }

    #[test]
    fn byzantine_hops_capture_lookups() {
        let net = bootstrap(256, 22);
        let mut r = rng();
        let start = net.live_ids()[0];
        // Every node except the origin lies: any multi-hop lookup must be
        // captured at its first remote hop.
        let liars: Vec<NodeId> = net.live_ids().into_iter().filter(|&n| n != start).collect();
        let plan = crate::FaultPlan::for_nodes(liars);
        let mut captured = 0;
        let mut honest_answers = 0;
        for _ in 0..100 {
            let target = net.space().random_point(&mut r);
            let hit = net
                .find_successor_with_faults(start, target, &plan, &mut r)
                .unwrap();
            if hit.point == net.ground_truth_successor(target) {
                honest_answers += 1;
            } else {
                captured += 1;
                assert!(plan.is_byzantine(hit.node), "wrong answers come from liars");
            }
        }
        assert!(
            captured > 50,
            "a fully Byzantine remote ring must capture most lookups \
             (captured {captured}, honest {honest_answers})"
        );
        assert!(net.metrics().get("lookup.byzantine_claim") > 0);
    }

    #[test]
    fn origin_is_exempt_from_its_own_fault_entry() {
        let net = bootstrap(32, 23);
        let mut r = rng();
        let start = net.live_ids()[0];
        let plan = crate::FaultPlan::for_nodes([start]);
        // Targets owned by other nodes must still resolve correctly: the
        // origin does not "capture" its own lookups.
        for _ in 0..20 {
            let target = net.space().random_point(&mut r);
            let hit = net
                .find_successor_with_faults(start, target, &plan, &mut r)
                .unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(target));
        }
    }

    #[test]
    fn traces_capture_hop_paths_and_attribution() {
        let net = bootstrap(256, 31);
        let rec = net.metrics().recorder();
        rec.set_tracing(true);
        let mut r = rng();
        let start = net.live_ids()[0];

        // Honest lookups: hops resolve, per-hop latency sums to the cost.
        let target = net.space().random_point(&mut r);
        let hit = net.find_successor(start, target, &mut r).unwrap();
        let traces = rec.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.from, net.node(start).point().get());
        assert_eq!(t.target, target.get());
        assert_eq!(t.hops.len(), hit.hops as usize);
        assert_eq!(t.messages, hit.cost.messages);
        assert_eq!(t.latency, hit.cost.latency);
        assert_eq!(
            t.hops.iter().map(|h| h.latency).sum::<u64>(),
            hit.cost.latency,
            "per-hop latencies must account for the whole walk"
        );
        assert!(t.hops.iter().all(|h| !h.forged));
        assert!(matches!(
            t.outcome,
            telemetry::TraceOutcome::Resolved(p) if p == hit.point.get()
        ));

        // Byzantine capture: the capturing hop is marked forged.
        let liars: Vec<NodeId> = net.live_ids().into_iter().filter(|&n| n != start).collect();
        let plan = crate::FaultPlan::for_nodes(liars);
        let mut captured_seen = false;
        for _ in 0..20 {
            let target = net.space().random_point(&mut r);
            let hit = net
                .find_successor_with_faults(start, target, &plan, &mut r)
                .unwrap();
            if hit.point != net.ground_truth_successor(target) {
                captured_seen = true;
            }
        }
        assert!(captured_seen);
        assert!(rec.traces().iter().any(|t| matches!(
            t.outcome,
            telemetry::TraceOutcome::Captured(_)
        ) && t.hops.iter().any(|h| h.forged)));

        // The hop histogram agrees with the per-lookup results.
        let hist = rec.histogram_snapshot(net.counters().hop_hist);
        assert_eq!(hist.count(), rec.traces_recorded());
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let net = bootstrap(64, 32);
        let mut r = rng();
        let start = net.live_ids()[0];
        for _ in 0..10 {
            let target = net.space().random_point(&mut r);
            net.find_successor(start, target, &mut r).unwrap();
        }
        let rec = net.metrics().recorder();
        assert_eq!(rec.traces_recorded(), 0);
        assert!(rec.traces().is_empty());
        // Counters and the hop histogram stay on regardless.
        assert!(rec.histogram_snapshot(net.counters().hop_hist).count() >= 10);
        assert!(net.metrics().get("lookup.hops") > 0);
    }

    #[test]
    fn policy_entry_without_a_policy_is_byte_identical() {
        let net = bootstrap(128, 43);
        let start = net.live_ids()[0];
        let plan = crate::FaultPlan::none();
        let mut targets = rng();
        let mut plain_rng = rng();
        let mut policy_rng = rng();
        for _ in 0..30 {
            let target = net.space().random_point(&mut targets);
            let plain = net.find_successor(start, target, &mut plain_rng).unwrap();
            let policied = net
                .find_successor_with_policy(start, target, &plan, &mut policy_rng)
                .unwrap();
            assert_eq!(plain.node, policied.node);
            assert_eq!(plain.cost, policied.cost);
        }
        assert_eq!(net.metrics().get("lookup.retries"), 0);
        assert_eq!(net.metrics().get("lookup.fallback_depth"), 0);
    }

    #[test]
    fn policy_degrades_through_a_dead_arc_and_stays_correct() {
        let mut net = bootstrap(64, 41);
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        net.enable_retry_policy(crate::RetryPolicy::default());
        // Crash a contiguous arc longer than the successor-list depth:
        // the arc's predecessor loses its entire list, which is exactly
        // the partition plain routing cannot cross.
        let mut ring: Vec<NodeId> = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        let arc = ring[20..36].to_vec();
        for &v in &arc {
            net.crash(v);
        }
        let start = ring[0];
        let target = net.node(arc[8]).point(); // deep inside the dead arc
        let mut r = rng();
        assert_eq!(
            net.find_successor(start, target, &mut r).unwrap_err(),
            LookupError::SuccessorsAllDead,
            "plain routing must fail across the dead arc"
        );
        let hit = net
            .find_successor_with_policy(start, target, &crate::FaultPlan::none(), &mut r)
            .unwrap();
        assert_eq!(
            hit.point,
            net.ground_truth_successor(target),
            "the degraded answer must still be the true owner"
        );
        assert!(
            net.metrics().get("lookup.retries") >= 1,
            "a retry must have been attempted"
        );
        assert!(
            net.metrics().get("lookup.fallback_depth") >= 2,
            "the answer came from a fallback tier"
        );
        assert!(
            hit.cost.messages > 1,
            "degradation must carry its attributed cost"
        );
    }

    #[test]
    fn walk_tier_rescues_hop_capped_lookups() {
        // A pathologically low hop cap defeats finger routing while the
        // successor chain stays fully intact: exactly the case the
        // successor-walk tier exists for.
        let space = KeySpace::full();
        let mut r = rng();
        let mut net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, 64),
            ChordConfig::default().with_max_hops(1),
        );
        net.enable_retry_policy(crate::RetryPolicy {
            walk_limit: 64,
            ..crate::RetryPolicy::default()
        });
        let start = net.live_ids()[0];
        let mut rescued = 0;
        for _ in 0..40 {
            let target = net.space().random_point(&mut r);
            let capped = net.find_successor(start, target, &mut r);
            let hit = net
                .find_successor_with_policy(start, target, &crate::FaultPlan::none(), &mut r)
                .unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(target));
            if capped.is_err() {
                rescued += 1;
            }
        }
        assert!(rescued > 0, "some lookups must have needed the fallback");
        assert!(net.metrics().get("lookup.fallback_depth") > 0);
    }

    #[test]
    fn adaptive_scoring_learns_to_avoid_dead_fingers() {
        let mut net = bootstrap(128, 42);
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        let victims: Vec<NodeId> = net.live_ids().into_iter().step_by(3).take(30).collect();
        for v in victims {
            net.crash(v);
        }
        let start = net.live_ids()[0];
        let mut r = rng();
        let targets: Vec<Point> = (0..60).map(|_| net.space().random_point(&mut r)).collect();
        // First pass pays dead probes and feeds the score table.
        for &t in &targets {
            net.find_successor(start, t, &mut r).unwrap();
        }
        let first_pass = net.metrics().get("lookup.dead_probe");
        assert!(first_pass > 0, "crashed fingers must cost probes initially");
        // Second pass over the same targets: penalized peers now rank
        // last, so known-dead fingers are no longer probed first.
        for &t in &targets {
            let hit = net.find_successor(start, t, &mut r).unwrap();
            assert_eq!(hit.point, net.ground_truth_successor(t));
        }
        let second_pass = net.metrics().get("lookup.dead_probe") - first_pass;
        assert!(
            second_pass < first_pass,
            "scoring must cut repeat dead probes: {first_pass} then {second_pass}"
        );
        assert!(net.score_bytes() > 0);
        assert!(net.peer_score(start) == crate::score::SCORE_MAX);
    }

    #[test]
    fn spans_and_trace_annotations_explain_degraded_lookups() {
        let mut net = bootstrap(64, 41);
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        net.enable_retry_policy(crate::RetryPolicy::default());
        net.metrics().recorder().set_tracing(true);
        let mut ring: Vec<NodeId> = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        let arc = ring[20..36].to_vec();
        for &v in &arc {
            net.crash(v);
        }
        let start = ring[0];
        let target = net.node(arc[8]).point();
        let mut r = rng();
        // A few healthy lookups first: they claim hop-histogram exemplar
        // slots and leave replayable traces behind them.
        for _ in 0..10 {
            let t = net.space().random_point(&mut r);
            net.find_successor_with_policy(start, t, &crate::FaultPlan::none(), &mut r)
                .unwrap();
        }
        let hit = net
            .find_successor_with_policy(start, target, &crate::FaultPlan::none(), &mut r)
            .unwrap();
        assert_eq!(hit.point, net.ground_truth_successor(target));

        // The profiler attributes the slow lookup to its actual causes:
        // backoff plus a fallback tier, not just the finger walk.
        let totals = net.metrics().recorder().profiler().totals();
        assert!(totals["lookup;retry_backoff"] > 0, "{totals:?}");
        assert!(
            totals["lookup;successor_walk"] > 0 || totals["lookup;verified_quorum"] > 0,
            "{totals:?}"
        );
        let collapsed = net.metrics().recorder().profiler().collapsed();
        assert!(collapsed.contains("lookup;finger_walk "));

        // The degradation path is visible on the trace itself.
        let traces = net.metrics().recorder().traces();
        let fallback = traces.last().unwrap();
        assert!(fallback
            .hops
            .iter()
            .any(|h| h.tier != telemetry::FallbackTier::Direct));
        assert!(fallback.hops.iter().all(|h| h.attempt > 0));

        // Exemplars link the hop histogram's buckets back to ordinals of
        // retained traces.
        let hist = net
            .metrics()
            .recorder()
            .histogram_snapshot(net.counters().hop_hist);
        assert!(!hist.exemplars().is_empty());
        let ordinals: Vec<u64> = traces.iter().map(|t| t.ordinal).collect();
        assert!(hist
            .exemplars()
            .iter()
            .any(|e| ordinals.contains(&e.trace_id)));
    }

    #[test]
    fn untraced_lookups_draw_the_same_ordinals() {
        // Exemplar trace ids must agree between traced and untraced runs
        // of the same seed, or a tail exemplar could never be replayed.
        let run = |tracing: bool| {
            let net = bootstrap(64, 44);
            net.metrics().recorder().set_tracing(tracing);
            let mut r = rng();
            let start = net.live_ids()[0];
            for _ in 0..50 {
                let target = net.space().random_point(&mut r);
                net.find_successor(start, target, &mut r).unwrap();
            }
            net.metrics()
                .recorder()
                .histogram_snapshot(net.counters().hop_hist)
                .exemplars()
                .to_vec()
        };
        let traced = run(true);
        let untraced = run(false);
        assert!(!traced.is_empty());
        assert_eq!(traced, untraced);
    }

    /// How [`damaged_ring`] builds and damages a test ring.
    #[derive(Debug, Clone, Copy)]
    struct RingShape {
        modulus: u128,
        n: usize,
        /// A protocol join on an occupied point, then a `bulk_join` of
        /// `n / 4` fresh points that rebuilds every table around the
        /// co-located pair.
        twin: bool,
        crashes: usize,
        joins: usize,
        adaptive: bool,
        latency: simnet::LatencyModel,
    }

    /// A ring from `seed` in `shape`, damaged the way a lookup meets it
    /// between maintenance rounds: `crashes` random crashes without
    /// repair (dead fingers and successor entries), then `joins` protocol
    /// joins without stabilization (stale fingers). With scoring on, an
    /// eighth of the live nodes then take the two strikes an engine
    /// deadline records against a slow peer, so live fingers of exact
    /// tables are penalized too. Same arguments, same ring.
    fn damaged_ring(shape: RingShape, seed: u64) -> ChordNetwork {
        let space = KeySpace::with_modulus(shape.modulus).unwrap();
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, shape.n),
            ChordConfig::default().with_latency(shape.latency),
        );
        if shape.twin {
            let ids = net.live_ids();
            let occupied = net.node(ids[ids.len() / 2]).point();
            net.join(occupied, ids[0], &mut r).unwrap();
            net.bulk_join(space.random_points(&mut r, shape.n / 4));
        }
        if shape.adaptive {
            net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        }
        for _ in 0..shape.crashes {
            let live = net.live_ids();
            net.crash(live[r.gen_range(0..live.len())]);
        }
        for _ in 0..shape.joins {
            let live = net.live_ids();
            let via = live[r.gen_range(0..live.len())];
            let point = space.random_point(&mut r);
            let _ = net.join(point, via, &mut r);
        }
        if let Some(scores) = net.scores() {
            let live = net.live_ids();
            for _ in 0..live.len() / 8 {
                let slow = live[r.gen_range(0..live.len())];
                scores.borrow_mut().record(slow, false);
                scores.borrow_mut().record(slow, false);
            }
        }
        net
    }

    /// What [`assert_selection_matches`] saw across its selections.
    #[derive(Debug, Default)]
    struct SelectionCounts {
        /// Selections with a penalized candidate.
        penalized: usize,
        /// Selections that paid a dead probe (the ordered-walk fallback).
        fallbacks: usize,
        /// Selections at an exact finger table (the sorted-run scan).
        scans: usize,
    }

    /// Runs `queries` random `(at, target)` selections on twin rings,
    /// the one-pass `closest_preceding` on `fast` and the ordered walk
    /// on `reference`, and checks every observable side effect agrees.
    fn assert_selection_matches(
        fast: &ChordNetwork,
        reference: &ChordNetwork,
        queries: usize,
        seed: u64,
    ) -> SelectionCounts {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let mut seen = SelectionCounts::default();
        let all = fast.node_ids();
        for q in 0..queries {
            let live = fast.live_ids();
            let at = live[r.gen_range(0..live.len())];
            // Mostly arbitrary targets, plus the interval edges: a node's
            // own point (the open upper bound excludes it) and `at`'s
            // point (the whole ring minus `at`).
            let target = match r.gen_range(0..8u32) {
                0 => fast.node(all[r.gen_range(0..all.len())]).point(),
                1 => fast.node(at).point(),
                _ => fast.space().random_point(&mut r),
            };
            let node = fast.node(at);
            if node
                .fingers()
                .distinct()
                .chain(node.successors().iter())
                .any(|c| fast.peer_penalized(c))
            {
                seen.penalized += 1;
            }
            if fast.finger_table_exact(at) {
                seen.scans += 1;
            }
            if assert_one_selection_matches(fast, reference, at, target, r.gen::<u64>(), q) > 0 {
                seen.fallbacks += 1;
            }
        }
        seen
    }

    /// One selection at `at` for `target`: the one-pass
    /// `closest_preceding` on `fast` and the ordered walk on `reference`,
    /// both drawing latency from `probe_seed`. Checks that the next hop,
    /// cost, demoted skip, dead probes, latency draws and scores agree,
    /// and returns the dead probes the selection paid. `q` labels
    /// failures.
    fn assert_one_selection_matches(
        fast: &ChordNetwork,
        reference: &ChordNetwork,
        at: NodeId,
        target: Point,
        probe_seed: u64,
        q: usize,
    ) -> u64 {
        let dead_probes = |net: &ChordNetwork| {
            net.metrics()
                .recorder()
                .counter_value(net.counters().lookup_dead_probe)
        };
        let node = fast.node(at);
        let candidates: Vec<NodeId> = node
            .fingers()
            .distinct()
            .chain(node.successors().iter())
            .collect();
        let (mut fast_rng, mut ref_rng) = (
            rand::rngs::StdRng::seed_from_u64(probe_seed),
            rand::rngs::StdRng::seed_from_u64(probe_seed),
        );
        let (mut fast_cost, mut ref_cost) = (Cost::FREE, Cost::FREE);
        let (mut fast_skip, mut ref_skip) = (0u64, 0u64);
        let (fast_dead, ref_dead) = (dead_probes(fast), dead_probes(reference));
        let got = fast.closest_preceding(at, target, &mut fast_cost, &mut fast_skip, &mut fast_rng);
        let want = reference.closest_preceding_ordered(
            at,
            target,
            &mut ref_cost,
            &mut ref_skip,
            &mut ref_rng,
        );
        assert_eq!(got, want, "query {q}: next hop");
        assert_eq!(fast_cost, ref_cost, "query {q}: cost");
        assert_eq!(fast_skip, ref_skip, "query {q}: demoted skip");
        let dead_delta = dead_probes(fast) - fast_dead;
        assert_eq!(
            dead_delta,
            dead_probes(reference) - ref_dead,
            "query {q}: dead probes"
        );
        assert_eq!(
            fast_rng.gen::<u64>(),
            ref_rng.gen::<u64>(),
            "query {q}: latency draws"
        );
        assert_eq!(
            fast.score_bytes(),
            reference.score_bytes(),
            "query {q}: score table"
        );
        for c in candidates {
            assert_eq!(
                fast.peer_score(c),
                reference.peer_score(c),
                "query {q}: score of {c}"
            );
            assert_eq!(
                fast.peer_penalized(c),
                reference.peer_penalized(c),
                "query {q}: penalty of {c}"
            );
        }
        dead_delta
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn one_pass_selection_matches_the_ordered_walk(
            // The full ring; one whose top finger target leaves a 7-point
            // arc, so the last run usually wraps; a small decimal ring.
            m in 0usize..3,
            n in 24usize..=160,
            seed in 0u64..1_000_000,
            twin in proptest::prelude::any::<bool>(),
            intact in proptest::prelude::any::<bool>(),
            crash_pct in 0usize..=30,
            join_pct in 0usize..=20,
            adaptive in proptest::prelude::any::<bool>(),
            sampled in proptest::prelude::any::<bool>(),
        ) {
            let (crashes, joins) = if intact {
                (0, 0)
            } else {
                (n * crash_pct / 100, n * join_pct / 100)
            };
            let shape = RingShape {
                modulus: [1 << 64, (1 << 20) + 7, 1000][m],
                n,
                twin,
                crashes,
                joins,
                adaptive,
                latency: if sampled {
                    simnet::LatencyModel::Uniform { lo: 1, hi: 40 }
                } else {
                    simnet::LatencyModel::UNIT
                },
            };
            let fast = damaged_ring(shape, seed);
            let reference = damaged_ring(shape, seed);
            let seen = assert_selection_matches(&fast, &reference, 64, seed ^ 0x005E_1EC7);
            // A converged ring, co-located pair or not, has only exact
            // tables.
            proptest::prop_assert!(!intact || seen.scans == 64, "{:?}: {:?}", shape, seen);
        }
    }

    #[test]
    fn selection_equivalence_reaches_penalties_and_dead_first_picks() {
        // The property above is only as strong as the states it visits:
        // pin that a crash-heavy adaptive ring exercises the score-demoted
        // ranking, the ordered-walk fallback, and both the sorted-run scan
        // of exact tables and the full pass over stale ones.
        let shape = RingShape {
            modulus: 1 << 64,
            n: 96,
            twin: false,
            crashes: 24,
            joins: 8,
            adaptive: true,
            latency: simnet::LatencyModel::Uniform { lo: 1, hi: 40 },
        };
        let fast = damaged_ring(shape, 9);
        let reference = damaged_ring(shape, 9);
        let seen = assert_selection_matches(&fast, &reference, 400, 17);
        assert!(seen.penalized > 0, "no selection met a penalized candidate");
        assert!(
            seen.fallbacks > 0,
            "no selection fell back to the ordered walk"
        );
        assert!(seen.scans > 0, "no selection scanned an exact table");
        assert!(seen.scans < 400, "no selection took the full pass");
    }

    /// A stale table whose full pass meets a tie: two runs holding
    /// co-located peers. On the ring 0..1024, node `x` at 0 keeps
    /// 1, 2, 4, 8 at finger levels 0–3, `q` at 200 at levels 4–7 and the
    /// first of a co-located pair at 512 at levels 8–9; its successor list
    /// is 1..=8. Crashing `q` and the pair's first member, then re-routing
    /// level 4, writes the live twin into a run of its own below the dead
    /// one. Returns the ring, `x`, the dead member and its live twin.
    fn co_located_runs() -> (ChordNetwork, NodeId, NodeId, NodeId) {
        let space = KeySpace::with_modulus(1024).unwrap();
        let points = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 512].map(Point::new);
        let mut net = ChordNetwork::bootstrap(space, points.to_vec(), ChordConfig::default());
        let at = |net: &ChordNetwork, p: u64| {
            net.live_ids()
                .into_iter()
                .find(|&id| net.node(id).point() == Point::new(p))
                .unwrap()
        };
        let (x, q, dead) = (at(&net, 0), at(&net, 200), at(&net, 512));
        let mut r = rng();
        let twin = net.join(Point::new(512), x, &mut r).unwrap();
        // Rebuilds every table around the pair; the fingers keep naming
        // the pair's first member, the lower id.
        net.bulk_join(vec![Point::new(700)]);
        net.crash(q);
        net.crash(dead);
        net.fix_finger(x, 4, &mut r);
        (net, x, dead, twin)
    }

    #[test]
    fn full_pass_ties_between_co_located_runs_go_to_the_later_run() {
        // The ordered walk's stable sorts leave the later of two equal
        // keys on top, so the full pass over a stale table must keep the
        // later run: here the dead member, which sends the hop to the
        // ordered walk and its dead probe. Keeping the earlier run instead
        // would forward to the live twin one message early.
        let (fast, x, dead, twin) = co_located_runs();
        let (reference, ..) = co_located_runs();
        let runs: Vec<NodeId> = fast.node(x).fingers().distinct().collect();
        let pos = |id| runs.iter().position(|&c| c == id);
        assert!(pos(twin) < pos(dead), "runs {runs:?}");
        assert!(!fast.finger_table_exact(x));
        assert!(!fast
            .node(x)
            .successors()
            .iter()
            .any(|c| c == twin || c == dead));
        // Just past the pair, the two tie for the top key.
        let dead_paid = assert_one_selection_matches(&fast, &reference, x, Point::new(513), 7, 0);
        assert_eq!(dead_paid, 1, "the later run holds the dead member");
        // Every other live origin and target just past a live point.
        let points: Vec<Point> = fast
            .live_ids()
            .iter()
            .map(|&id| fast.node(id).point())
            .collect();
        for (q, at) in fast.live_ids().into_iter().enumerate() {
            for &p in &points {
                let target = fast.space().add(p, keyspace::Distance::new(1));
                assert_one_selection_matches(&fast, &reference, at, target, p.get(), q);
            }
        }
    }

    #[test]
    fn errors_display() {
        assert!(LookupError::StartDead.to_string().contains("dead"));
        assert!(LookupError::HopLimitExceeded { max_hops: 9 }
            .to_string()
            .contains('9'));
        assert!(LookupError::SuccessorsAllDead
            .to_string()
            .contains("partition"));
    }
}
