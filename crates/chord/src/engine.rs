//! Async message-passing lookup engine: in-flight lookups through simnet.
//!
//! The sync walk ([`find_successor_with_policy`]) resolves a lookup in
//! one call; this engine decomposes the *same* protocol into
//! [`Message`]s driven through a [`simnet::EventQueue`], so delay-based
//! faults become expressible: per-hop [`simnet::LatencyModel`] delays stretch
//! into simulated wall-clock, a [`SlowOverlay`] can make a ring sector
//! slow-but-alive, per-attempt deadlines feed the existing
//! [`RetryPolicy`](crate::RetryPolicy) tiers, and thousands of requests
//! multiplex over one deterministic event loop.
//!
//! Equivalence is the design invariant, pinned by
//! `tests/engine_equivalence.rs`. Both drivers run one attempt loop: each
//! request carries the sync walk's per-attempt state, and the shared
//! [`open_attempt`], [`step_attempt`] (one per delivered
//! `FindSuccessor`) and [`close_attempt`] own every charge an attempt
//! makes — backoff, ordinal, trace, hops, spans, retries and the fallback
//! tiers. The engine adds only event plumbing: the queue, the request
//! table, deadlines, the slow overlay, hops that die in flight and the
//! backlog. So a sequentially-driven engine with deadlines disarmed
//! is **bit-identical** to the sync walk — same owners, same hops, same
//! costs, same ordinals, same trace digest.
//! Concurrency then changes *interleaving* only: requests draw latency
//! from per-request RNG streams and routing consumes randomness nowhere
//! else, which is what makes 10k interleaved lookups replay
//! byte-identically and submission order not matter.
//!
//! The request table is a slab. An admitted request occupies a free
//! slot, and its messages carry the slot index and the slot's
//! generation instead of the caller's tag. The generation moves on at
//! every retry and every completion, so whatever a preempted attempt or
//! a slot's previous occupant still has in flight — replies, deadlines
//! — is dropped on arrival. Caller tags only key the [`Completion`]s and
//! the duplicate-tag check, a bitset over the prefix that sequential tags
//! fill.
//!
//! One modeling artifact is deliberate: a request's lifecycle is
//! attributed to its *origin*. `NextHop`/`Notify` answers return to the
//! origin, which re-issues the next `FindSuccessor` in the same tick —
//! iterative Chord, like the sync walk, not recursive routing. A
//! handler's final message that would be the loop's very next event
//! (nothing else due by its arrival, inside the running window) is
//! delivered to its handler at once instead of round-tripping the
//! queue: every message still goes through its one handler, in the
//! plain queue order; only the queue bookkeeping is skipped.
//!
//! [`find_successor_with_policy`]: ChordNetwork::find_successor_with_policy
//! [`open_attempt`]: ChordNetwork
//! [`step_attempt`]: ChordNetwork
//! [`close_attempt`]: ChordNetwork

use std::collections::{BTreeSet, VecDeque};
use std::ops::ControlFlow;

use keyspace::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{EventQueue, SimDuration, SimTime};
use telemetry::TraceOutcome;

use crate::lookup::{Attempt, HopOutcome};
use crate::msg::{Message, NO_NEXT};
use crate::network::{ChordNetwork, NodeId};
use crate::{LookupError, LookupResult};

/// Knobs of one [`LookupEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Per-attempt deadline in ticks; `None` disarms deadlines entirely
    /// (no timeout events are ever scheduled — the equivalence tests run
    /// this way so stranded wakeups cannot advance the clock). When a
    /// deadline fires with a [`RetryPolicy`](crate::RetryPolicy) armed,
    /// the attempt is preempted into the policy's retry/fallback tiers;
    /// without one it only counts (`engine.timeouts`) and re-arms.
    pub timeout_ticks: Option<u64>,
    /// In-flight cap: requests beyond it queue in submission order and
    /// are admitted as completions free slots.
    pub max_inflight: usize,
    /// Master seed for the per-request RNG streams (latency draws).
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            timeout_ticks: None,
            max_inflight: usize::MAX,
            seed: 0,
        }
    }
}

/// A latency-skewed (not dead) ring sector: while `from <= now < until`,
/// every delivery produced by a hop processed at a node in `nodes` takes
/// `factor`× its sampled latency in wall-clock. Protocol *cost*
/// accounting is untouched — the slowdown shows up purely as in-flight
/// age, which is exactly what the watchdog's in-flight-age SLO measures.
#[derive(Debug, Clone)]
pub struct SlowOverlay {
    /// The slow sector's members.
    pub nodes: BTreeSet<NodeId>,
    /// Wall-clock multiplier (≥ 2 to mean anything).
    pub factor: u64,
    /// First tick of the slowdown window.
    pub from: SimTime,
    /// First tick after the slowdown window.
    pub until: SimTime,
}

/// One finished request: the terminal record the determinism tests
/// digest. Wall-clock fields are simulated time; with deadlines disarmed
/// and no slow overlay, `completed_at − started_at` equals the result's
/// accounted latency exactly (the latency-wiring invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Caller-chosen request tag (unique per engine).
    pub tag: u64,
    /// When the request entered the engine (backlog included).
    pub submitted_at: SimTime,
    /// When it was admitted in-flight and its first attempt began.
    pub started_at: SimTime,
    /// When the terminal answer landed at the origin.
    pub completed_at: SimTime,
    /// Routed attempts consumed (1 = no retry).
    pub attempts: u8,
    /// Deadlines that fired against this request.
    pub timeouts: u32,
    /// The lookup's outcome, cost fully attributed as in the sync walk.
    pub result: Result<LookupResult, LookupError>,
}

/// Per-request in-flight state (the occupant of a request-table slot).
struct Pending {
    /// The caller's tag.
    tag: u64,
    /// Private latency stream — `derive_seed(engine seed, tag)` — so a
    /// request's draws are independent of interleaving.
    rng: StdRng,
    /// The lookup's attempt accounting, shared with the sync walk.
    attempt: Attempt,
    /// The walk resolved; the final `Notify` is in flight. Deadlines no
    /// longer preempt (the answer is already on the wire), making
    /// completion exactly-once.
    resolved: bool,
    submitted_at: SimTime,
    started_at: SimTime,
    /// Node whose answer the origin is currently waiting on — the peer a
    /// firing deadline penalizes in the score table.
    current: NodeId,
    timeouts: u32,
}

/// One slot of the request table. Messages name a request by its slot
/// and the slot's generation, which moves on at every retry and at every
/// completion and never goes back, so whatever a preempted attempt or a
/// previous occupant left in flight can never match again.
struct Slot {
    generation: u32,
    pending: Option<Pending>,
}

/// The tags submitted to one engine, for the duplicate-tag check. A
/// bitset covers a prefix of the tag space that grows by a word whenever
/// a tag lands just past its end, so sequential tags cost a bit each;
/// every other tag goes to the ordered set.
#[derive(Default)]
struct TagSet {
    dense: Vec<u64>,
    sparse: BTreeSet<u64>,
}

impl TagSet {
    /// Adds `tag`; false if it was already there.
    fn insert(&mut self, tag: u64) -> bool {
        let word = usize::try_from(tag / 64).unwrap_or(usize::MAX);
        if word == self.dense.len() {
            self.dense.push(0);
        }
        match self.dense.get_mut(word) {
            // The prefix may have grown over a tag that arrived before it.
            Some(bits) if !self.sparse.contains(&tag) => {
                let bit = 1 << (tag % 64);
                let fresh = *bits & bit == 0;
                *bits |= bit;
                fresh
            }
            Some(_) => false,
            None => self.sparse.insert(tag),
        }
    }
}

/// The deterministic async lookup event loop. See the module docs.
///
/// The engine holds no borrow of the network: every method takes
/// `&ChordNetwork`, so a driver can interleave `run_until` windows with
/// churn (`crash`/`join`/maintenance, which need `&mut`) — in-flight
/// requests then observe the ring changing under them, exactly the
/// production hazard the sync walk cannot express.
pub struct LookupEngine {
    config: EngineConfig,
    queue: EventQueue<Message>,
    now: SimTime,
    /// The request table; admitted requests occupy slots, free ones are
    /// listed in `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Requests waiting for a slot: (tag, origin, target, submitted at).
    backlog: VecDeque<(u64, NodeId, Point, SimTime)>,
    completions: Vec<Completion>,
    seen_tags: TagSet,
    slow: Option<SlowOverlay>,
    next_tag: u64,
}

impl LookupEngine {
    /// Creates an idle engine at tick 0.
    pub fn new(config: EngineConfig) -> LookupEngine {
        LookupEngine {
            config,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            slots: Vec::new(),
            free: Vec::new(),
            backlog: VecDeque::new(),
            completions: Vec::new(),
            seen_tags: TagSet::default(),
            slow: None,
            next_tag: 0,
        }
    }

    /// Installs (or clears) the slow-sector overlay.
    pub fn set_slow_overlay(&mut self, slow: Option<SlowOverlay>) {
        self.slow = slow;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Requests admitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Requests waiting for an in-flight slot.
    pub fn backlog(&self) -> usize {
        self.backlog.len()
    }

    /// Everything completed so far, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Submits a lookup with the next sequential tag; returns the tag.
    pub fn submit(&mut self, net: &ChordNetwork, from: NodeId, target: Point) -> u64 {
        let tag = self.next_tag;
        self.submit_tagged(net, tag, from, target);
        tag
    }

    /// Submits a lookup under a caller-chosen `tag` (the permutation
    /// tests submit one workload in shuffled order but with stable
    /// per-request identity, hence stable per-request RNG streams).
    ///
    /// # Panics
    ///
    /// If `tag` was already submitted to this engine.
    pub fn submit_tagged(&mut self, net: &ChordNetwork, tag: u64, from: NodeId, target: Point) {
        assert!(self.seen_tags.insert(tag), "duplicate request tag {tag}");
        self.next_tag = self.next_tag.max(tag.saturating_add(1));
        // Every call that frees a slot admits the backlog, so a free slot
        // means an empty backlog.
        if self.in_flight() < self.config.max_inflight {
            self.start_request(net, tag, from, target, self.now);
        } else {
            self.backlog.push_back((tag, from, target, self.now));
        }
    }

    /// Runs the event loop up to and including `deadline`, then parks the
    /// clock there. Apply churn between calls — never during one.
    pub fn run_until(&mut self, net: &ChordNetwork, faults: &crate::FaultPlan, deadline: SimTime) {
        self.admit(net);
        while let Some((t, msg)) = self.queue.pop_due(deadline) {
            self.now = t;
            self.process(net, faults, msg, deadline);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until every admitted *and backlogged* request has completed.
    pub fn drain(&mut self, net: &ChordNetwork, faults: &crate::FaultPlan) {
        self.admit(net);
        while let Some((t, msg)) = self.queue.pop() {
            self.now = t;
            self.process(net, faults, msg, SimTime::from_ticks(u64::MAX));
        }
    }

    /// FNV-1a digest of every completion, keyed by tag — independent of
    /// completion order, so it is the byte-identity the determinism and
    /// permutation-invariance tests compare. Covers outcomes, costs,
    /// attempts/timeouts and simulated wall-clock stamps; excludes op
    /// ordinals (global submission-order artifacts by design).
    pub fn report_digest(&self) -> u64 {
        let mut sorted: Vec<&Completion> = self.completions.iter().collect();
        sorted.sort_by_key(|c| c.tag);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in sorted {
            put(c.tag);
            put(c.submitted_at.ticks());
            put(c.started_at.ticks());
            put(c.completed_at.ticks());
            put(u64::from(c.attempts));
            put(u64::from(c.timeouts));
            match &c.result {
                Ok(hit) => {
                    put(1);
                    put(hit.node.index() as u64);
                    put(hit.point.get());
                    put(u64::from(hit.hops));
                    put(hit.cost.messages);
                    put(hit.cost.latency);
                }
                Err(e) => {
                    put(2);
                    put(match e {
                        LookupError::StartDead => 1,
                        LookupError::HopLimitExceeded { .. } => 2,
                        LookupError::SuccessorsAllDead => 3,
                        LookupError::TimedOut { .. } => 4,
                    });
                }
            }
        }
        h
    }

    /// Wall-clock delay of a delivery produced by a hop processed at
    /// `at`: the accounted latency, stretched by the slow overlay when
    /// `at` sits in the slow sector during its window.
    fn wall_delay(&self, at: NodeId, latency: u64) -> SimDuration {
        let factor = match &self.slow {
            Some(o) if self.now >= o.from && self.now < o.until && o.nodes.contains(&at) => {
                o.factor
            }
            _ => 1,
        };
        SimDuration::from_ticks(latency.saturating_mul(factor))
    }

    fn schedule_in(&mut self, delay: SimDuration, msg: Message) {
        self.queue.schedule(self.now.saturating_add(delay), msg);
    }

    /// Admits backlogged requests while in-flight slots are free.
    fn admit(&mut self, net: &ChordNetwork) {
        while self.in_flight() < self.config.max_inflight {
            let Some((tag, from, target, submitted_at)) = self.backlog.pop_front() else {
                return;
            };
            self.start_request(net, tag, from, target, submitted_at);
        }
    }

    /// Admits a request submitted at `submitted_at`: its first attempt
    /// starts now, so a backlogged request's wait counts in its age.
    fn start_request(
        &mut self,
        net: &ChordNetwork,
        tag: u64,
        from: NodeId,
        target: Point,
        submitted_at: SimTime,
    ) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                generation: 0,
                pending: None,
            });
            u32::try_from(self.slots.len() - 1).expect("in-flight requests fit u32")
        });
        self.slots[slot as usize].pending = Some(Pending {
            tag,
            rng: StdRng::seed_from_u64(simnet::rng::derive_seed(self.config.seed, tag)),
            attempt: Attempt::new(from, target),
            resolved: false,
            submitted_at,
            started_at: self.now,
            current: from,
            timeouts: 0,
        });
        self.start_attempt(net, slot);
    }

    /// The request in `slot` while `gen` is its current attempt, or
    /// `None` for a stale message.
    fn current(&mut self, slot: u32, gen: u32) -> Option<&mut Pending> {
        let s = &mut self.slots[slot as usize];
        if s.generation != gen {
            return None;
        }
        s.pending.as_mut()
    }

    /// The request in `slot` and its generation.
    fn occupant(&mut self, slot: u32) -> (&mut Pending, u32) {
        let s = &mut self.slots[slot as usize];
        let p = s.pending.as_mut().expect("slot holds a request");
        (p, s.generation)
    }

    /// Opens the next attempt of the request in `slot` through the shared
    /// [`open_attempt`](ChordNetwork) (backoff on retries, dead-origin
    /// exit, ordinal, trace), then queues its first `FindSuccessor` and
    /// its deadline, both after the backoff.
    fn start_attempt(&mut self, net: &ChordNetwork, slot: u32) {
        let (p, gen) = self.occupant(slot);
        let waited = p.attempt.spent.latency;
        let opened = net.open_attempt(&mut p.attempt, net.retry_policy());
        let start_delay = SimDuration::from_ticks(p.attempt.spent.latency - waited);
        if let Err(e) = opened {
            let at = self.now.saturating_add(start_delay);
            self.complete(net, slot, Err(e), at);
            return;
        }
        p.current = p.attempt.from;
        let at = u32::try_from(p.current.index()).expect("arena indexes fit u32");
        self.schedule_in(
            start_delay,
            Message::FindSuccessor {
                slot,
                gen,
                at,
                hops: 0,
            },
        );
        if let Some(ticks) = self.config.timeout_ticks {
            let deadline = SimDuration::from_ticks(start_delay.ticks().saturating_add(ticks));
            self.schedule_in(deadline, Message::Timeout { slot, gen });
        }
    }

    /// Hands `msg` to its handler at the current instant. The walk's
    /// handlers return their final send, `(delay, message)`, instead of
    /// queueing it. When that message would be the loop's very next pop
    /// — it arrives by `horizon`, the last instant the running loop may
    /// process, and nothing queued is due by then (a queued event due at
    /// the same instant was scheduled first, so it would pop first) —
    /// the clock moves to its arrival and it goes straight to its
    /// handler. Otherwise it is queued. Either way the handlers run in
    /// the plain `(time, seq)` queue order.
    fn process(
        &mut self,
        net: &ChordNetwork,
        faults: &crate::FaultPlan,
        mut msg: Message,
        horizon: SimTime,
    ) {
        loop {
            let sent = match msg {
                Message::FindSuccessor {
                    slot,
                    gen,
                    at,
                    hops,
                } => self.on_find(net, faults, slot, gen, at, hops),
                Message::NextHop { slot, gen, next } => self.on_next(net, slot, gen, next),
                Message::Notify {
                    slot,
                    gen,
                    owner,
                    hops,
                    captured,
                } => {
                    self.on_notify(net, slot, gen, owner, hops, captured);
                    None
                }
                Message::Timeout { slot, gen } => {
                    self.on_timeout(net, slot, gen);
                    None
                }
            };
            let Some((delay, next)) = sent else {
                return;
            };
            let at = self.now.saturating_add(delay);
            if at > horizon || self.queue.peek_time().is_some_and(|t| t <= at) {
                self.queue.schedule(at, next);
                return;
            }
            self.now = at;
            msg = next;
        }
    }

    /// A hop processes one step of the walk through the shared
    /// [`step_attempt`](ChordNetwork). Returns the reply to the origin
    /// for [`process`](Self::process) to send, if the walk got that far.
    fn on_find(
        &mut self,
        net: &ChordNetwork,
        faults: &crate::FaultPlan,
        slot: u32,
        gen: u32,
        at: u32,
        hops: u32,
    ) -> Option<(SimDuration, Message)> {
        let p = self.current(slot, gen)?;
        if p.resolved {
            return None; // stale: the attempt was retried out from under it
        }
        let current = NodeId::from_index(at as usize);
        p.current = current;
        p.attempt.hops = hops;

        // The hop died while the request was in flight (churn the sync
        // walk cannot see): unless the hop cap ends the attempt first,
        // the probe costs one timed-out message and reports no progress,
        // which ends the attempt's trace; the policy tiers take it from
        // there.
        if hops <= net.config().max_hops() && !net.node(current).is_alive() {
            p.attempt.cost.messages += 1;
            let d = net.config().latency().sample(&mut p.rng).ticks();
            p.attempt.cost.latency += d;
            p.attempt.finish_trace(net, TraceOutcome::Unresolved);
            let delay = self.wall_delay(current, d);
            let reply = Message::NextHop {
                slot,
                gen,
                next: NO_NEXT,
            };
            return Some((delay, reply));
        }

        let before = p.attempt.cost.latency;
        let outcome = net.step_attempt(&mut p.attempt, current, faults, &mut p.rng);
        let step_latency = p.attempt.cost.latency - before;
        let reply = match outcome {
            HopOutcome::Failed(e @ LookupError::HopLimitExceeded { .. }) => {
                // The origin-side hop cap: nothing was sent.
                self.attempt_failed(net, slot, e);
                return None;
            }
            HopOutcome::Done(hit) => {
                // The attempt resolved: close it now, in the sync walk's
                // order; the answer itself still has to travel back to
                // the origin.
                p.resolved = true;
                let _ = net.close_attempt(&mut p.attempt, net.retry_policy(), Ok(hit), &mut p.rng);
                let captured = hit.point != net.node(hit.node).point();
                Message::Notify {
                    slot,
                    gen,
                    owner: u32::try_from(hit.node.index()).expect("arena indexes fit u32"),
                    hops: hit.hops,
                    captured,
                }
            }
            HopOutcome::Forward(next) => Message::NextHop {
                slot,
                gen,
                next: u32::try_from(next.index()).expect("arena indexes fit u32"),
            },
            HopOutcome::Failed(e) => {
                debug_assert_eq!(e, LookupError::SuccessorsAllDead);
                // The failure still travels back to the origin before the
                // policy reacts (its probes' latency is already charged).
                Message::NextHop {
                    slot,
                    gen,
                    next: NO_NEXT,
                }
            }
        };
        Some((self.wall_delay(current, step_latency), reply))
    }

    /// The origin hears back from a hop: either forward the walk one
    /// step (same tick — iterative routing charges nothing between
    /// hops) by returning the next `FindSuccessor` for
    /// [`process`](Self::process) to send, or fail the attempt into the
    /// policy tiers.
    fn on_next(
        &mut self,
        net: &ChordNetwork,
        slot: u32,
        gen: u32,
        next: u32,
    ) -> Option<(SimDuration, Message)> {
        let p = self.current(slot, gen)?;
        if p.resolved {
            return None;
        }
        if next == NO_NEXT {
            self.attempt_failed(net, slot, LookupError::SuccessorsAllDead);
            return None;
        }
        let find = Message::FindSuccessor {
            slot,
            gen,
            at: next,
            hops: p.attempt.hops + 1,
        };
        Some((SimDuration::ZERO, find))
    }

    /// The terminal answer lands at the origin: exactly-once completion.
    fn on_notify(
        &mut self,
        net: &ChordNetwork,
        slot: u32,
        gen: u32,
        owner: u32,
        hops: u32,
        captured: bool,
    ) {
        let Some(p) = self.current(slot, gen) else {
            return;
        };
        if !p.resolved {
            return;
        }
        let node = NodeId::from_index(owner as usize);
        let point = if captured {
            p.attempt.target
        } else {
            net.node(node).point()
        };
        // Closing the resolved attempt folded its cost into `spent`.
        let result = LookupResult {
            node,
            point,
            hops,
            cost: p.attempt.spent,
        };
        self.complete(net, slot, Ok(result), self.now);
    }

    /// A deadline fired. Stale generations and resolved attempts (the
    /// answer is already on the wire) are no-ops; a live one counts,
    /// penalizes the peer being waited on, and — with a policy armed —
    /// preempts the attempt into retry/fallback. Without a policy it
    /// merely re-arms: pure observation.
    fn on_timeout(&mut self, net: &ChordNetwork, slot: u32, gen: u32) {
        let timeout_ticks = self
            .config
            .timeout_ticks
            .expect("a deadline fired, so deadlines are armed");
        let Some(p) = self.current(slot, gen) else {
            return;
        };
        if p.resolved {
            return;
        }
        let recorder = net.metrics().recorder();
        recorder.incr(net.counters().engine_timeouts);
        p.timeouts += 1;
        // A deadline is stronger evidence than one failed probe: record
        // two strikes, enough to penalize a slow-but-alive peer on the
        // spot, so the retry (and every concurrent lookup) routes around
        // it while the overlay lasts.
        if let Some(scores) = net.scores() {
            let mut scores = scores.borrow_mut();
            scores.record(p.current, false);
            scores.record(p.current, false);
        }
        if net.retry_policy().is_none() {
            let deadline = SimDuration::from_ticks(timeout_ticks);
            self.schedule_in(deadline, Message::Timeout { slot, gen });
            return;
        }
        // Preempt: the attempt's probes were paid for even though it
        // never failed outright.
        p.attempt.finish_trace(net, TraceOutcome::Unresolved);
        let e = LookupError::TimedOut { timeout_ticks };
        self.attempt_failed(net, slot, e);
    }

    /// Shared failure path: closes the attempt through
    /// [`close_attempt`](ChordNetwork), then either opens the next
    /// generation's attempt or completes with what the close returned —
    /// the error, or the fallback tiers' answer.
    fn attempt_failed(&mut self, net: &ChordNetwork, slot: u32, e: LookupError) {
        let (p, _) = self.occupant(slot);
        let ControlFlow::Break(result) =
            net.close_attempt(&mut p.attempt, net.retry_policy(), Err(e), &mut p.rng)
        else {
            let s = &mut self.slots[slot as usize];
            s.generation = s.generation.wrapping_add(1);
            self.start_attempt(net, slot);
            return;
        };
        // The fallback tiers resolve synchronously (walk hops are
        // successor-chain traversals from the origin, the quorum is an
        // out-of-band directory round); the wall-clock charge is their
        // latency on top of the routed attempts'.
        let routed = p.attempt.spent.latency;
        let completed_at = match &result {
            Ok(hit) => self
                .now
                .saturating_add(SimDuration::from_ticks(hit.cost.latency - routed)),
            Err(_) => self.now,
        };
        self.complete(net, slot, result, completed_at);
    }

    /// Frees the request's slot, records the engine-level telemetry
    /// (`engine.completions`, the `engine.inflight_age` tail the
    /// watchdog gates), stores the [`Completion`] and admits backlog.
    fn complete(
        &mut self,
        net: &ChordNetwork,
        slot: u32,
        result: Result<LookupResult, LookupError>,
        completed_at: SimTime,
    ) {
        let s = &mut self.slots[slot as usize];
        let p = s.pending.take().expect("completion has state");
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        let recorder = net.metrics().recorder();
        recorder.incr(net.counters().engine_completions);
        let age = (completed_at - p.submitted_at).ticks();
        let age_hist = net.counters().engine_age_hist;
        // A request whose origin was dead from the start routed nothing,
        // so it has no ordinal for an exemplar to cite.
        match p.attempt.ordinal {
            Some(ordinal) => recorder.record_with_exemplar(age_hist, age, ordinal),
            None => recorder.record(age_hist, age),
        }
        self.completions.push(Completion {
            tag: p.tag,
            submitted_at: p.submitted_at,
            started_at: p.started_at,
            completed_at,
            attempts: p.attempt.number,
            timeouts: p.timeouts,
            result,
        });
        self.admit(net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyspace::KeySpace;
    use rand::Rng;

    /// A traced ring with unrepaired crashes and adaptive scoring on, so
    /// the order in which concurrent hops run shows in the trace digest
    /// and in what later hops route around.
    fn scored_ring(seed: u64) -> ChordNetwork {
        let space = KeySpace::full();
        let mut r = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, 256),
            crate::ChordConfig::default().with_latency(simnet::LatencyModel::Constant(10)),
        );
        net.enable_adaptive_routing(crate::AdaptiveConfig::default());
        for _ in 0..64 {
            let live = net.live_ids();
            net.crash(live[r.gen_range(0..live.len())]);
        }
        net.metrics().recorder().set_tracing(true);
        net
    }

    /// Submits `count` lookups `stagger` ticks apart and runs them to
    /// completion, either in one-tick `run_until` windows or in windows
    /// spanning each gap followed by a drain.
    fn replay(count: u64, stagger: u64, one_tick: bool) -> (Vec<Completion>, u64) {
        let net = scored_ring(4);
        let faults = crate::FaultPlan::none();
        let mut r = StdRng::seed_from_u64(9);
        let mut engine = LookupEngine::new(EngineConfig::default());
        let run_to = |engine: &mut LookupEngine, to: u64| {
            let from = if one_tick { engine.now().ticks() } else { to };
            for t in from..=to {
                engine.run_until(&net, &faults, SimTime::from_ticks(t));
                assert_eq!(
                    engine.now(),
                    SimTime::from_ticks(t),
                    "clock ran past the window"
                );
            }
        };
        for k in 0..count {
            let live = net.live_ids();
            engine.submit(&net, live[r.gen_range(0..live.len())], Point::new(r.gen()));
            run_to(&mut engine, k * stagger);
        }
        if one_tick {
            while engine.in_flight() > 0 {
                let next = engine.now().ticks() + 1;
                run_to(&mut engine, next);
            }
        } else {
            engine.drain(&net, &faults);
        }
        (
            engine.completions().to_vec(),
            net.metrics().recorder().trace_digest(),
        )
    }

    #[test]
    fn one_tick_windows_replay_direct_hand_offs_exactly() {
        // Under one-tick `run_until` windows every reply that carries
        // latency arrives after the deadline and is queued; only the
        // origin's zero-delay re-issues can go straight on. Long windows
        // hand every reply straight to its handler whenever it would pop
        // next. Both must produce the same completions, in the same
        // order, and the same trace digest — with lone walks (staggered
        // submissions) and with the timestamp ties of lock-step walks
        // (simultaneous submissions).
        for stagger in [0, 1, 25, 400] {
            assert_eq!(
                replay(48, stagger, true),
                replay(48, stagger, false),
                "stagger {stagger}"
            );
        }
    }

    #[test]
    fn a_hop_that_dies_in_flight_records_an_unresolved_trace() {
        // Half the ring crashes while 64 walks are in flight. A walk whose
        // next hop died fails its only attempt (no policy), and that
        // attempt must reach the flight recorder as Unresolved, as every
        // failed attempt of the sync walk does.
        let space = KeySpace::full();
        let mut r = StdRng::seed_from_u64(5);
        let mut net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, 256),
            crate::ChordConfig::default().with_latency(simnet::LatencyModel::Constant(10)),
        );
        net.metrics().recorder().set_tracing(true);
        let faults = crate::FaultPlan::none();
        let mut engine = LookupEngine::new(EngineConfig::default());
        let live = net.live_ids();
        for _ in 0..64 {
            engine.submit(&net, live[r.gen_range(0..live.len())], Point::new(r.gen()));
        }
        engine.run_until(&net, &faults, SimTime::from_ticks(15));
        for id in live.into_iter().step_by(2) {
            net.crash(id);
        }
        engine.drain(&net, &faults);

        let failed = engine
            .completions()
            .iter()
            .filter(|c| c.result.is_err())
            .count();
        let traces = net.metrics().recorder().traces();
        let unresolved = traces
            .iter()
            .filter(|t| t.outcome == TraceOutcome::Unresolved)
            .count();
        assert!(failed > 0, "the crash must fail some walks");
        assert_eq!(traces.len(), 64, "one trace per attempt");
        assert_eq!(unresolved, failed);
    }

    /// What reached a recycled slot: the deliveries a slot's previous
    /// occupants left queued, by kind.
    #[derive(Debug, Default)]
    struct Recycled {
        /// Each admitted tag's slot generation when it moved in.
        moved_in: std::collections::BTreeMap<u64, u32>,
        timeouts: usize,
        next_hops: usize,
    }

    impl Recycled {
        fn note_occupants(&mut self, engine: &LookupEngine) {
            for slot in &engine.slots {
                if let Some(p) = &slot.pending {
                    self.moved_in.entry(p.tag).or_insert(slot.generation);
                }
            }
        }

        /// Counts `msg` if it predates its slot's current occupant.
        fn classify(&mut self, engine: &LookupEngine, msg: Message) {
            let (slot, gen) = match msg {
                Message::Timeout { slot, gen } | Message::NextHop { slot, gen, .. } => (slot, gen),
                _ => return,
            };
            let s = &engine.slots[slot as usize];
            let Some(p) = &s.pending else { return };
            if gen < self.moved_in[&p.tag] {
                match msg {
                    Message::Timeout { .. } => self.timeouts += 1,
                    _ => self.next_hops += 1,
                }
            }
        }
    }

    /// `run_until` with every queued delivery classified against the
    /// slot it reaches (direct hand-offs are always current).
    fn run_until_classified(
        engine: &mut LookupEngine,
        net: &ChordNetwork,
        deadline: SimTime,
        seen: &mut Recycled,
    ) {
        let faults = crate::FaultPlan::none();
        engine.admit(net);
        seen.note_occupants(engine);
        while let Some((t, msg)) = engine.queue.pop_due(deadline) {
            engine.now = t;
            seen.classify(engine, msg);
            engine.process(net, &faults, msg, deadline);
            seen.note_occupants(engine);
        }
        engine.now = engine.now.max(deadline);
    }

    #[test]
    fn recycled_slots_drop_what_their_previous_occupants_left_queued() {
        // Three slots serve 240 lookups in waves of three: a wave goes in
        // once the last one has completed. Deadlines (armed well past an
        // honest walk) stay queued behind every request that beats them,
        // and walks through a 32x slow sector time out, retry and finish
        // while the preempted attempt's reply is still on the wire — so
        // recycled slots keep meeting both kinds of stale delivery.
        // Every tag must complete exactly once, and with scoring off the
        // tag-keyed report must not depend on which slot a tag drew:
        // shuffling each wave's submission order leaves it unchanged.
        let space = KeySpace::full();
        let mut r = StdRng::seed_from_u64(31);
        let mut net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, 256),
            crate::ChordConfig::default().with_latency(simnet::LatencyModel::Constant(4)),
        );
        net.enable_retry_policy(crate::RetryPolicy::default());
        let mut ring = net.live_ids();
        ring.sort_by_key(|&id| net.node(id).point());
        let slow: BTreeSet<NodeId> = ring[96..160].iter().copied().collect();
        let fast: Vec<NodeId> = ring
            .iter()
            .copied()
            .filter(|id| !slow.contains(id))
            .collect();
        let waves: Vec<Vec<(u64, NodeId, Point)>> = (0..80u64)
            .map(|w| {
                (0..3)
                    .map(|k| {
                        let origin = fast[r.gen_range(0..fast.len())];
                        (3 * w + k, origin, Point::new(r.gen()))
                    })
                    .collect()
            })
            .collect();
        let run = |shuffle: Option<u64>| {
            let mut order = StdRng::seed_from_u64(shuffle.unwrap_or(0));
            let mut engine = LookupEngine::new(EngineConfig {
                timeout_ticks: Some(40),
                max_inflight: 3,
                seed: 77,
            });
            engine.set_slow_overlay(Some(SlowOverlay {
                nodes: slow.clone(),
                factor: 32,
                from: SimTime::ZERO,
                until: SimTime::from_ticks(u64::MAX),
            }));
            let mut seen = Recycled::default();
            for wave in &waves {
                let mut wave = wave.clone();
                if shuffle.is_some() {
                    for i in (1..wave.len()).rev() {
                        wave.swap(i, order.gen_range(0..=i));
                    }
                }
                for (tag, origin, target) in wave {
                    engine.submit_tagged(&net, tag, origin, target);
                }
                while engine.in_flight() > 0 {
                    let next = SimTime::from_ticks(engine.now().ticks() + 1);
                    run_until_classified(&mut engine, &net, next, &mut seen);
                }
            }
            engine.drain(&net, &crate::FaultPlan::none());
            let tags: BTreeSet<u64> = engine.completions().iter().map(|c| c.tag).collect();
            assert_eq!(engine.completions().len(), 240, "a tag completed twice");
            assert_eq!(tags, (0..240).collect(), "a tag never completed");
            (engine.report_digest(), seen)
        };
        let (digest, seen) = run(None);
        assert!(
            seen.timeouts > 0,
            "no stale deadline met a recycled slot: {seen:?}"
        );
        assert!(
            seen.next_hops > 0,
            "no stale reply met a recycled slot: {seen:?}"
        );
        assert_eq!(digest, run(Some(5)).0);
        assert_eq!(digest, run(Some(6)).0);
    }

    #[test]
    fn a_repeated_tag_panics() {
        let net = scored_ring(4);
        let origin = net.live_ids()[0];
        for tag in [3, u64::MAX] {
            let mut engine = LookupEngine::new(EngineConfig::default());
            engine.submit_tagged(&net, tag, origin, Point::new(7));
            let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.submit_tagged(&net, tag, origin, Point::new(9));
            }));
            let err = again.expect_err("a repeated tag must panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("the panic carries a formatted message");
            assert_eq!(*msg, format!("duplicate request tag {tag}"));
        }
    }

    #[test]
    fn tag_set_agrees_with_an_ordered_set() {
        // Sequential runs, permuted dense blocks, tags past the dense
        // prefix that it later grows over, and the extremes of `u64`.
        for seed in 0..24u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let mut tags: Vec<u64> = (0..3_000).collect();
            tags.extend((0..200).map(|_| r.gen_range(0..200_000u64)));
            tags.extend((0..50).map(|_| r.gen::<u64>()));
            tags.extend([u64::MAX, u64::MAX - 1, 0, 1 << 40]);
            for i in (1..tags.len()).rev() {
                tags.swap(i, r.gen_range(0..=i));
            }
            let (mut set, mut model) = (TagSet::default(), BTreeSet::new());
            for &tag in tags.iter().chain(&tags[..500]) {
                assert_eq!(set.insert(tag), model.insert(tag), "seed {seed} tag {tag}");
            }
        }
    }

    #[test]
    fn a_backlogged_request_ages_from_its_submission() {
        // One slot, two requests submitted at tick 5: the second waits in
        // the backlog until the first completes, and that wait belongs to
        // its age.
        let net = scored_ring(4);
        let live = net.live_ids();
        let mut engine = LookupEngine::new(EngineConfig {
            max_inflight: 1,
            ..EngineConfig::default()
        });
        let faults = crate::FaultPlan::none();
        engine.run_until(&net, &faults, SimTime::from_ticks(5));
        engine.submit(&net, live[0], Point::new(1 << 62));
        engine.submit(&net, live[1], Point::new(3 << 62));
        assert_eq!(engine.backlog(), 1);
        engine.drain(&net, &faults);

        let done = engine.completions();
        assert_eq!(done.len(), 2);
        let (first, second) = (&done[0], &done[1]);
        assert_eq!(first.tag, 0);
        assert!(first.completed_at > SimTime::from_ticks(5), "{first:?}");
        assert_eq!(second.submitted_at, SimTime::from_ticks(5));
        assert_eq!(second.started_at, first.completed_at);
        let ages: Vec<u64> = done
            .iter()
            .map(|c| (c.completed_at - c.submitted_at).ticks())
            .collect();
        assert!(ages[1] > (second.completed_at - second.started_at).ticks());
        let hist = net
            .metrics()
            .recorder()
            .histogram_snapshot(net.counters().engine_age_hist);
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.min(), *ages.iter().min().unwrap());
        assert_eq!(hist.max(), *ages.iter().max().unwrap());
    }

    #[test]
    fn a_dead_origin_request_cites_no_exemplar() {
        // A request from a dead origin routes nothing and draws no op
        // ordinal, so its in-flight age must cite none: ordinal 0
        // belongs to the live origin's lookup.
        let net = scored_ring(4);
        let dead = net
            .node_ids()
            .into_iter()
            .find(|&id| !net.node(id).is_alive());
        let mut engine = LookupEngine::new(EngineConfig::default());
        engine.submit(&net, net.live_ids()[0], Point::new(7));
        engine.submit(&net, dead.expect("the ring has crashes"), Point::new(7));
        engine.drain(&net, &crate::FaultPlan::none());

        let done = engine.completions();
        assert_eq!(done[0].result, Err(LookupError::StartDead));
        let age = (done[1].completed_at - done[1].submitted_at).ticks();
        let hist = net
            .metrics()
            .recorder()
            .histogram_snapshot(net.counters().engine_age_hist);
        assert_eq!(hist.count(), 2, "both requests record their age");
        let cited: Vec<(u64, u64)> = hist
            .exemplars()
            .iter()
            .map(|e| (e.value, e.trace_id))
            .collect();
        assert_eq!(cited, [(age, 0)]);
    }
}
