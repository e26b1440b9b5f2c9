//! What a timed phase measured, and the helpers every workload measures
//! its draws, estimates and audits with.

use std::collections::BTreeMap;
use std::time::Instant;

use adversary::DefendedSample;
use chord::ChordNetwork;
use keyspace::{KeySpace, Point};
use peer_sampling::{Dht, NetworkSizeEstimator, Sample, SampleError, Sampler, SamplerConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use super::Budget;
use crate::quantile::{self, percentile};
use crate::trace::{self, Layer, TimedDht, TrialRng};

/// Draws per latency block: a block's p99 has ten samples beyond it.
const BLOCK: usize = 1_000;
/// Timed wall of one throughput window.
const WINDOW_NS: u64 = 500_000_000;
/// Full blocks a timed run fills at the least, so that its quietest tenth
/// is a whole block.
const MIN_BLOCKS: usize = 10;

/// Deterministic counts: functions of the seed and the epochs run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub draws: u64,
    pub msgs: u64,
    /// Draws by message count, for an exact percentile.
    pub msgs_hist: BTreeMap<u32, u64>,
    pub audits: u64,
    pub stale: u64,
}

impl Counts {
    /// Nearest-rank percentile of messages per draw.
    pub fn msgs_percentile(&self, q: f64) -> u32 {
        if self.draws == 0 {
            return 0;
        }
        let rank = quantile::nearest_rank(self.draws as usize, q) as u64;
        let mut seen = 0;
        for (&msgs, &count) in &self.msgs_hist {
            seen += count;
            if seen >= rank {
                return msgs;
            }
        }
        unreachable!("the histogram holds every draw")
    }
}

/// What a timed phase did.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Timed wall: every epoch's work, checks excluded.
    pub wall_ns: u64,
    pub epochs: u64,
    pub draws_ok: u64,
    pub draws_failed: u64,
    /// Latencies of the block being filled; a failed draw reads
    /// `u32::MAX`, so it misses any latency limit.
    block: Vec<u32>,
    /// Nearest-rank p50 and p99 latency of each full block, in ns.
    pub blocks: Vec<(u32, u32)>,
    /// Successful draws and timed wall of the window being filled.
    window: (u64, u64),
    /// Successful draws per second of each full window.
    pub windows: Vec<f64>,
    pub counts: Counts,
    /// `counts` when the scale's fixed epochs were done.
    pub fixed: Option<Counts>,
    /// Peak resident set of the process when the fixed epochs were done,
    /// in MiB. Reading it after a fixed amount of work keeps it
    /// independent of the machine's speed.
    pub peak_rss_mb: f64,
    pub trials: u64,
    pub h_calls: u64,
    pub next_calls: u64,
    /// Sum over successful draws of the expected trials `M / (n·λ)`.
    pub theory_trials: f64,
    pub quorum_failures: u64,
    pub sybil_draws: u64,
    pub dead_draws: u64,
    pub estimates: u64,
    pub estimates_failed: u64,
    pub est_probes: u64,
    /// Sum over estimates of `n_upper / n`.
    pub est_ratio: f64,
    pub audits_failed: u64,
    pub crashes: u64,
    pub joins: u64,
    pub joins_failed: u64,
    pub rounds: u64,
    pub maint_lookups: u64,
    /// Maintenance backlog left by each cycle's membership events.
    pub dirty: u64,
    pub retries: u64,
    pub fallback_depth: u64,
    /// Per-layer totals, when the phase was traced.
    pub trace: Option<trace::Totals>,
}

impl Phase {
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    pub fn attempted(&self) -> u64 {
        self.draws_ok + self.draws_failed + self.estimates + self.counts.audits + self.joins
    }

    pub fn failed(&self) -> u64 {
        self.draws_failed + self.estimates_failed + self.audits_failed + self.joins_failed
    }

    fn record_latency(&mut self, ns: u32) {
        self.block.push(ns);
        if self.block.len() == BLOCK {
            self.block.sort_unstable();
            let (p50, p99) = (percentile(&self.block, 0.5), percentile(&self.block, 0.99));
            self.blocks.push((p50, p99));
            self.block.clear();
        }
    }

    /// Closes epoch work of `draws` successful draws in `wall_ns`.
    pub(super) fn end_epoch(&mut self, draws: u64, wall_ns: u64, fixed_epochs: u64) {
        self.epochs += 1;
        self.window.0 += draws;
        self.window.1 += wall_ns;
        if self.window.1 >= WINDOW_NS {
            self.windows
                .push(self.window.0 as f64 / (self.window.1 as f64 / 1e9));
            self.window = (0, 0);
        }
        if self.epochs == fixed_epochs {
            self.fixed = Some(self.counts.clone());
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    /// Successful draws per second in the quietest tenth of the phase:
    /// the nearest-rank p90 of the window rates, or the whole phase's rate
    /// when it is shorter than one window.
    ///
    /// The machine is shared, and a neighbour's cache and memory traffic
    /// can slow this process for seconds at a time; noise only ever adds
    /// time, so the fastest windows measure the system itself.
    pub fn draws_per_s(&self) -> f64 {
        if self.windows.is_empty() {
            return self.draws_ok as f64 / self.wall_s();
        }
        let mut w = self.windows.clone();
        w.sort_by(f64::total_cmp);
        percentile(&w, 0.9)
    }

    /// Latency p50 and p99, in ns, in the quietest tenth of the phase: the
    /// nearest-rank p10 over blocks of each block's percentile (the
    /// partial block alone before the first block fills). Also returns
    /// the draws behind them.
    pub fn quiet_latency(&self) -> (u32, u32, usize) {
        assert!(quantile::beyond(BLOCK, 0.99) >= quantile::MIN_BEYOND);
        let mut blocks = self.blocks.clone();
        if blocks.is_empty() {
            let mut b = self.block.clone();
            b.sort_unstable();
            blocks.push((percentile(&b, 0.5), percentile(&b, 0.99)));
        }
        let quiet = |mut v: Vec<u32>| {
            v.sort_unstable();
            percentile(&v, 0.1)
        };
        let samples = (self.blocks.len() * BLOCK).max(self.block.len());
        (
            quiet(blocks.iter().map(|b| b.0).collect()),
            quiet(blocks.iter().map(|b| b.1).collect()),
            samples,
        )
    }

    /// The summed self time of every layer over the timed wall, when the
    /// phase was traced.
    pub fn layer_sum_ratio(&self) -> Option<f64> {
        let totals = self.trace.as_ref()?;
        Some(totals.self_sum() as f64 / self.wall_ns as f64)
    }

    /// Whether this phase has done the work `budget` asks of it.
    pub(super) fn spent(&self, budget: Budget, fixed_epochs: u64) -> bool {
        match budget {
            Budget::Seconds(s) => {
                self.wall_s() >= s && self.epochs >= fixed_epochs && self.blocks.len() >= MIN_BLOCKS
            }
            Budget::Epochs(k) => self.epochs >= k,
        }
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A drawn peer, whichever sampler drew it.
pub(super) struct Draw<P> {
    pub(super) peer: P,
    pub(super) point: Point,
    trials: u32,
    h_calls: u64,
    next_calls: u64,
    messages: u64,
    quorum_failures: u32,
}

impl<P> From<Sample<P>> for Draw<P> {
    fn from(s: Sample<P>) -> Draw<P> {
        Draw {
            peer: s.peer,
            point: s.point,
            trials: s.trials,
            h_calls: s.h_calls,
            next_calls: s.next_calls,
            messages: s.cost.messages,
            quorum_failures: 0,
        }
    }
}

impl<P> From<DefendedSample<P>> for Draw<P> {
    fn from(s: DefendedSample<P>) -> Draw<P> {
        Draw {
            peer: s.peer,
            point: s.point,
            trials: s.trials,
            h_calls: s.lookups,
            next_calls: 0,
            messages: s.cost.messages,
            quorum_failures: s.quorum_failures,
        }
    }
}

/// Draws `count` peers back to back, timing each `sample` call.
pub(super) fn draw_loop<P, R: RngCore>(
    count: u32,
    rng: &mut R,
    theory: f64,
    phase: &mut Phase,
    mut draw: impl FnMut(&mut R) -> Result<Draw<P>, SampleError>,
    mut seen: impl FnMut(&Draw<P>, &mut Phase),
) {
    for _ in 0..count {
        let t0 = Instant::now();
        let result = {
            let _s = trace::span(Layer::Sample);
            draw(rng)
        };
        let ns = t0.elapsed().as_nanos().min(u32::MAX as u128 - 1) as u32;
        let _h = trace::span(Layer::Harness);
        match result {
            Ok(d) => {
                phase.draws_ok += 1;
                phase.record_latency(ns);
                let msgs = d.messages.min(u32::MAX as u64) as u32;
                phase.counts.draws += 1;
                phase.counts.msgs += msgs as u64;
                *phase.counts.msgs_hist.entry(msgs).or_default() += 1;
                phase.trials += d.trials as u64;
                phase.h_calls += d.h_calls;
                phase.next_calls += d.next_calls;
                phase.quorum_failures += d.quorum_failures as u64;
                phase.theory_trials += theory;
                seen(&d, phase);
            }
            Err(_) => {
                phase.draws_failed += 1;
                phase.record_latency(u32::MAX);
            }
        }
    }
}

/// Plain-sampler draws over `dht`, through [`TimedDht`] and [`TrialRng`]
/// when tracing.
pub(super) fn plain_draws<D: Dht>(
    sampler: &Sampler,
    dht: &D,
    rng: &mut StdRng,
    count: u32,
    theory: f64,
    phase: &mut Phase,
    seen: impl FnMut(&Draw<D::Peer>, &mut Phase),
) {
    if trace::on() {
        let timed = TimedDht::new(dht);
        let draw = |r: &mut TrialRng<StdRng>| sampler.sample(&timed, r).map(Draw::from);
        draw_loop(count, &mut TrialRng::new(rng), theory, phase, draw, seen);
    } else {
        let draw = |r: &mut StdRng| sampler.sample(dht, r).map(Draw::from);
        draw_loop(count, rng, theory, phase, draw, seen);
    }
}

/// Runs *Estimate n* from `origin` and returns the sampler configuration
/// it yields, or `None` if the estimate failed.
pub(super) fn estimate<D: Dht>(
    dht: &D,
    origin: D::Peer,
    n: usize,
    phase: &mut Phase,
) -> Option<SamplerConfig> {
    let est = {
        let _s = trace::span(Layer::Estimate);
        if trace::on() {
            NetworkSizeEstimator::default().estimate(&TimedDht::new(dht), origin)
        } else {
            NetworkSizeEstimator::default().estimate(dht, origin)
        }
    };
    let _h = trace::span(Layer::Harness);
    phase.estimates += 1;
    match est {
        Ok(est) => {
            let config = est.to_sampler_config();
            phase.est_probes += est.probes;
            phase.est_ratio += config.n_upper() as f64 / n as f64;
            Some(config)
        }
        Err(_) => {
            phase.estimates_failed += 1;
            None
        }
    }
}

/// Expected trials per draw, `M / (n·λ)`: the inverse of the acceptance
/// probability of Theorem 7.
pub(super) fn theory_trials(config: &SamplerConfig, space: KeySpace, n: usize) -> f64 {
    let lambda = config
        .lambda(space)
        .expect("lambda is positive on the full ring");
    space.modulus() as f64 / (n as f64 * lambda as f64)
}

/// Owner audits: resolves `h(x)` through `view` and counts answers that
/// differ from the ground-truth owner.
pub(super) fn audits<D: Dht>(
    view: &D,
    count: u32,
    rng: &mut StdRng,
    phase: &mut Phase,
    truth: impl Fn(Point) -> D::Peer,
) {
    let space = view.space();
    for _ in 0..count {
        let x = space.random_point(rng);
        let _s = trace::span(Layer::Audit);
        let got = if trace::on() {
            TimedDht::new(view).h(x)
        } else {
            view.h(x)
        };
        phase.counts.audits += 1;
        match got {
            Ok(r) => phase.counts.stale += u64::from(r.peer != truth(x)),
            Err(_) => phase.audits_failed += 1,
        }
    }
}

pub(super) fn fold_digest(digest: u64, point: Point) -> u64 {
    (digest ^ point.get()).wrapping_mul(0x0000_0100_0000_01b3)
}

pub(super) fn pick<T: Copy>(items: &[T], rng: &mut StdRng) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Adds the routing counters an epoch moved to the phase.
pub(super) fn counter_deltas(net: &ChordNetwork, before: &Counters, phase: &mut Phase) {
    let after = Counters::read(net);
    phase.retries += after.retries - before.retries;
    phase.fallback_depth += after.fallback_depth - before.fallback_depth;
}

pub(super) struct Counters {
    retries: u64,
    fallback_depth: u64,
}

impl Counters {
    pub(super) fn read(net: &ChordNetwork) -> Counters {
        let snap = net.metrics().recorder().snapshot();
        let get = |k: &str| snap.get(k).copied().unwrap_or(0);
        Counters {
            retries: get("lookup.retries"),
            fallback_depth: get("lookup.fallback_depth"),
        }
    }
}
