//! Wall-clock spans recorded from the benchmark's own call sites.
//!
//! The traced run opens a span around every call into a layer: building
//! an epoch's DHT views, estimate, sample, each DHT `h` and `next`
//! (through [`TimedDht`]), membership events, maintenance rounds and owner
//! audits, plus `harness` spans over the benchmark's own bookkeeping. A layer's self time is its span minus
//! its child spans. Trial boundaries inside a draw are recovered from
//! outside: both samplers draw exactly one random start point per trial,
//! so [`TrialRng`] marks a trial each time the sampler pulls randomness.
//!
//! The tracer lives in a thread-local and is off unless [`start`] was
//! called; a closed span costs one thread-local read when it is off. The
//! benchmark is single-threaded, so one tracer sees every span.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use keyspace::{KeySpace, Point};
use peer_sampling::{Dht, DhtError, Resolved};
use rand::RngCore;

/// The layers a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own bookkeeping between calls into the system.
    Harness,
    /// Building the ring for a run.
    Setup,
    /// `NetworkSizeEstimator::estimate`.
    Estimate,
    /// One `Sampler::sample` or `DefendedSampler::sample` call.
    Sample,
    /// One `Dht::h` call.
    H,
    /// One `Dht::next` call.
    Next,
    /// `ChordNetwork::crash`.
    Crash,
    /// `ChordNetwork::join`.
    Join,
    /// `ChordNetwork::batched_maintenance_round`.
    Maintenance,
    /// One owner audit: `h(x)` through a second view against the truth.
    Audit,
    /// Building an epoch's DHT views (`ChordDht::new`,
    /// `spread_verified_views`).
    Views,
}

pub const LAYERS: usize = 11;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Setup => "setup",
            Layer::Estimate => "estimate",
            Layer::Sample => "sample",
            Layer::H => "dht.h",
            Layer::Next => "dht.next",
            Layer::Crash => "crash",
            Layer::Join => "join",
            Layer::Maintenance => "maintenance",
            Layer::Audit => "audit",
            Layer::Views => "views",
        }
    }
}

/// Every 64th draw keeps its spans for the Chrome trace.
const KEEP_EVERY_DRAW: u64 = 64;
/// Bound on the spans kept for the Chrome trace, so a long traced run
/// cannot grow without limit.
const MAX_EVENTS: usize = 400_000;

struct Open {
    layer: Layer,
    start: u64,
    child: u64,
    keep: bool,
}

/// A kept span, for the Chrome trace.
pub struct Event {
    layer: Layer,
    start: u64,
    dur: u64,
}

/// What one tracing session recorded.
pub struct Session {
    pub totals: Totals,
    pub events: Vec<Event>,
    /// Spans not kept because the event buffer was full.
    pub dropped: u64,
}

/// Per-layer totals of a traced phase.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Span durations, children included.
    pub total_ns: [u64; LAYERS],
    /// Span durations minus child spans.
    pub self_ns: [u64; LAYERS],
    pub calls: [u64; LAYERS],
    /// Messages reported by `h` / `next` results.
    pub msgs: [u64; LAYERS],
    /// Time inside draws before the start of their last trial: the cost
    /// of the rejected trials.
    pub rejected_ns: u64,
    /// Trials seen through [`TrialRng`].
    pub trials: u64,
}

impl Totals {
    pub fn total(&self, l: Layer) -> u64 {
        self.total_ns[l as usize]
    }
    pub fn self_time(&self, l: Layer) -> u64 {
        self.self_ns[l as usize]
    }
    pub fn calls(&self, l: Layer) -> u64 {
        self.calls[l as usize]
    }
    pub fn msgs(&self, l: Layer) -> u64 {
        self.msgs[l as usize]
    }
    /// Sum of every layer's self time, which equals the summed duration
    /// of the root spans.
    pub fn self_sum(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

struct Tracer {
    stack: Vec<Open>,
    totals: Totals,
    draws: u64,
    draw_start: u64,
    trial_start: Option<u64>,
    events: Vec<Event>,
    dropped: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        base().elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: Layer) {
        let start = self.now();
        let keep = match self.stack.last() {
            Some(parent) => parent.keep,
            None => match layer {
                Layer::Sample => self.draws.is_multiple_of(KEEP_EVERY_DRAW),
                Layer::Harness => false,
                _ => true,
            },
        };
        if layer == Layer::Sample {
            self.draws += 1;
            self.draw_start = start;
            self.trial_start = None;
        }
        self.stack.push(Open {
            layer,
            start,
            child: 0,
            keep,
        });
    }

    fn exit(&mut self) {
        let end = self.now();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end - open.start;
        let i = open.layer as usize;
        self.totals.total_ns[i] += dur;
        self.totals.self_ns[i] += dur.saturating_sub(open.child);
        self.totals.calls[i] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        if open.layer == Layer::Sample {
            if let Some(t) = self.trial_start {
                self.totals.rejected_ns += t - self.draw_start;
            }
        }
        if open.keep {
            if self.events.len() < MAX_EVENTS {
                self.events.push(Event {
                    layer: open.layer,
                    start: open.start,
                    dur,
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    fn mark_trial(&mut self) {
        if self.stack.iter().any(|o| o.layer == Layer::Sample) {
            self.totals.trials += 1;
            self.trial_start = Some(self.now());
        }
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// One time origin for every session of the process, so spans from
/// separate sessions line up in one Chrome trace.
fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Turns tracing on with empty totals.
pub fn start() {
    base();
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            stack: Vec::new(),
            totals: Totals::default(),
            draws: 0,
            draw_start: 0,
            trial_start: None,
            events: Vec::new(),
            dropped: 0,
        })
    });
}

/// A tracer set aside while untraced work runs; its totals and kept spans
/// carry on when it is resumed.
pub struct Suspended(Tracer);

/// Turns tracing off, keeping what it recorded so far.
pub fn suspend() -> Option<Suspended> {
    let tracer = TRACER.with(|t| t.borrow_mut().take())?;
    assert!(tracer.stack.is_empty(), "tracing suspended inside a span");
    Some(Suspended(tracer))
}

/// Turns a suspended tracer back on.
pub fn resume(s: Suspended) {
    TRACER.with(|t| *t.borrow_mut() = Some(s.0));
}

/// Whether tracing is on.
pub fn on() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Turns tracing off and returns what the session recorded.
pub fn finish() -> Option<Session> {
    let tracer = TRACER.with(|t| t.borrow_mut().take())?;
    assert!(tracer.stack.is_empty(), "tracing stopped inside a span");
    Some(Session {
        totals: tracer.totals,
        events: tracer.events,
        dropped: tracer.dropped,
    })
}

/// Kept spans as Chrome `trace_event` JSON (complete events, microsecond
/// timestamps).
pub fn chrome_json(events: &[Event], dropped: u64) -> String {
    let mut json = String::with_capacity(96 * events.len() + 128);
    json.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"name\":\"{}\",\"cat\":\"rpbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
            e.layer.name(),
            e.start as f64 / 1e3,
            e.dur as f64 / 1e3
        );
    }
    let _ = write!(
        json,
        "],\"otherData\":{{\"kept_every_draw\":{KEEP_EVERY_DRAW},\"dropped_spans\":{dropped}}}}}"
    );
    json
}

/// An open span; closes when dropped.
#[must_use = "a span closes when dropped"]
pub struct Span {
    on: bool,
}

/// Opens a span for `layer` if tracing is on.
pub fn span(layer: Layer) -> Span {
    let on = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tracer) => {
            tracer.enter(layer);
            true
        }
        None => false,
    });
    Span { on }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.on {
            TRACER.with(|t| {
                if let Some(tracer) = t.borrow_mut().as_mut() {
                    tracer.exit();
                }
            });
        }
    }
}

fn add_msgs(layer: Layer, msgs: u64) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.totals.msgs[layer as usize] += msgs;
        }
    });
}

/// A [`Dht`] that times and counts every `h` and `next` and otherwise
/// answers exactly as the backend it wraps.
#[derive(Debug)]
pub struct TimedDht<'a, D> {
    inner: &'a D,
}

impl<'a, D: Dht> TimedDht<'a, D> {
    pub fn new(inner: &'a D) -> TimedDht<'a, D> {
        TimedDht { inner }
    }

    fn timed(
        layer: Layer,
        call: impl FnOnce() -> Result<Resolved<D::Peer>, DhtError>,
    ) -> Result<Resolved<D::Peer>, DhtError> {
        let result = {
            let _s = span(layer);
            call()
        };
        if let Ok(r) = &result {
            add_msgs(layer, r.cost.messages);
        }
        result
    }
}

impl<D: Dht> Dht for TimedDht<'_, D> {
    type Peer = D::Peer;

    fn space(&self) -> KeySpace {
        self.inner.space()
    }

    fn h(&self, x: Point) -> Result<Resolved<D::Peer>, DhtError> {
        Self::timed(Layer::H, || self.inner.h(x))
    }

    fn next(&self, p: D::Peer) -> Result<Resolved<D::Peer>, DhtError> {
        Self::timed(Layer::Next, || self.inner.next(p))
    }

    fn point_of(&self, p: D::Peer) -> Result<Point, DhtError> {
        self.inner.point_of(p)
    }
}

/// An RNG that marks a trial each time a draw pulls randomness from it
/// and otherwise yields exactly the wrapped stream.
pub struct TrialRng<'a, R> {
    inner: &'a mut R,
}

impl<'a, R: RngCore> TrialRng<'a, R> {
    pub fn new(inner: &'a mut R) -> TrialRng<'a, R> {
        TrialRng { inner }
    }
}

fn mark_trial() {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.mark_trial();
        }
    });
}

impl<R: RngCore> RngCore for TrialRng<'_, R> {
    fn next_u32(&mut self) -> u32 {
        mark_trial();
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        mark_trial();
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        mark_trial();
        self.inner.fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::{ChordConfig, ChordDht, ChordNetwork};
    use keyspace::SortedRing;
    use peer_sampling::{OracleDht, Sampler, SamplerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draws<D: Dht, R: RngCore>(dht: &D, rng: &mut R, n: u64) -> Vec<(Point, u32, u64)> {
        let sampler = Sampler::new(SamplerConfig::new(n));
        (0..200)
            .map(|_| {
                let _s = span(Layer::Sample);
                let s = sampler.sample(dht, rng).expect("draw");
                (s.point, s.trials, s.cost.messages)
            })
            .collect()
    }

    #[test]
    fn timed_dht_is_transparent_on_oracle_and_chord() {
        let space = KeySpace::full();
        let mut rng = StdRng::seed_from_u64(5);
        let points = space.random_points(&mut rng, 2000);
        let oracle = OracleDht::new(SortedRing::new(space, points.clone()));
        let net = ChordNetwork::bootstrap(space, points, ChordConfig::default());
        let chord = ChordDht::new(&net, net.live_ids()[7], 9);
        let chord_again = ChordDht::new(&net, net.live_ids()[7], 9);

        let bare = draws(&oracle, &mut StdRng::seed_from_u64(1), 2000);
        start();
        let timed = draws(
            &TimedDht::new(&oracle),
            &mut TrialRng::new(&mut StdRng::seed_from_u64(1)),
            2000,
        );
        let totals = finish().expect("tracing was on").totals;
        assert_eq!(bare, timed);
        let trials: u64 = bare.iter().map(|d| d.1 as u64).sum();
        assert_eq!(totals.trials, trials);
        assert_eq!(totals.calls(Layer::H), trials);
        assert_eq!(
            totals.msgs(Layer::H) + totals.msgs(Layer::Next),
            bare.iter().map(|d| d.2).sum::<u64>()
        );

        let bare = draws(&chord, &mut StdRng::seed_from_u64(2), 2000);
        start();
        let timed = draws(
            &TimedDht::new(&chord_again),
            &mut TrialRng::new(&mut StdRng::seed_from_u64(2)),
            2000,
        );
        finish();
        assert_eq!(bare, timed);
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_roots() {
        start();
        {
            let _outer = span(Layer::Estimate);
            let _inner = span(Layer::Next);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _h = span(Layer::Harness);
        }
        let session = finish().expect("tracing was on");
        let t = session.totals;
        let json = chrome_json(&session.events, session.dropped);
        assert!(t.self_time(Layer::Next) >= 2_000_000);
        assert!(t.self_time(Layer::Estimate) < t.self_time(Layer::Next));
        assert_eq!(
            t.self_sum(),
            t.total(Layer::Estimate) + t.total(Layer::Harness)
        );
        // Root harness spans stay out of the Chrome export.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(!on());
    }
}
