//! The four workloads: set-up, one epoch of fixed work, and the
//! correctness checks each run ends with.
//!
//! Every workload is one client on one thread drawing back to back (a
//! closed loop). A run repeats epochs of fixed work until its time budget
//! is spent; epoch `e` draws all its randomness from streams derived from
//! `(seed, e)`, so a seed fixes the inputs of every epoch.

mod chord_draw;
mod churn_policy;
mod defended_sybil;
mod oracle_draw;
mod phase;

use std::time::Instant;

use chord::ChordNetwork;
use keyspace::KeySpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::rng::derive_seed;

use crate::trace::{self, Layer};
use chord_draw::ChordDraw;
use churn_policy::ChurnPolicy;
use defended_sybil::DefendedSybil;
use oracle_draw::OracleDraw;
pub use phase::Phase;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain draws over a converged 10^6-node Chord ring.
    ChordDraw,
    /// The same draws over `OracleDht`, bypassing every Chord layer.
    OracleDraw,
    /// Quorum-defended draws over a ring with 10% arc-capturing sybils.
    DefendedSybil,
    /// Draws on a churning ring with retry and adaptive routing armed.
    ChurnPolicy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChordDraw,
        Workload::OracleDraw,
        Workload::DefendedSybil,
        Workload::ChurnPolicy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChordDraw => "chord-draw-1m",
            Workload::OracleDraw => "oracle-draw-1m",
            Workload::DefendedSybil => "defended-sybil-100k",
            Workload::ChurnPolicy => "churn-policy-100k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Ring size, the fixed work of one epoch, and the epochs every
/// untraced run completes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Honest ring members at set-up.
    pub n: usize,
    pub draws_per_epoch: u32,
    pub audits_per_epoch: u32,
    /// The message and audit metrics cover exactly these first epochs, so
    /// they repeat exactly for a seed whatever the machine's speed.
    pub fixed_epochs: u64,
    /// A run keeps setting up until this much time has passed (and at
    /// least [`MIN_SETUPS`] times); `setup_s` is the median.
    pub min_setup_s: f64,
    /// Random crashes and joins per churn cycle.
    pub crashes: u32,
    pub joins: u32,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full(w: Workload) -> Scale {
        match w {
            Workload::ChordDraw => Scale::draws(1_000_000, 1_000, 100),
            Workload::OracleDraw => Scale::draws(1_000_000, 4_000, 500),
            Workload::DefendedSybil => Scale::draws(100_000, 50, 160),
            Workload::ChurnPolicy => Scale {
                audits_per_epoch: 1_024,
                crashes: 200,
                joins: 200,
                ..Scale::draws(100_000, 2_000, 40)
            },
        }
    }

    /// Small sizes for tests.
    #[cfg(test)]
    pub fn tiny(w: Workload) -> Scale {
        let tiny = Scale {
            min_setup_s: 0.0,
            ..Scale::draws(2_000, 100, 2)
        };
        match w {
            Workload::ChurnPolicy => Scale {
                crashes: 10,
                joins: 10,
                ..tiny
            },
            _ => tiny,
        }
    }

    fn draws(n: usize, draws_per_epoch: u32, fixed_epochs: u64) -> Scale {
        Scale {
            n,
            draws_per_epoch,
            audits_per_epoch: AUDITS_PER_EPOCH,
            fixed_epochs,
            min_setup_s: 2.0,
            crashes: 0,
            joins: 0,
        }
    }
}

const AUDITS_PER_EPOCH: u32 = 256;
/// Set-ups every run makes, at the least.
const MIN_SETUPS: usize = 3;
/// The band `trace.layer_sum_ratio` must fall in: the layers' self times
/// must account for the traced wall.
const LAYER_SUM_BAND: (f64, f64) = (0.95, 1.05);

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole epochs until this many seconds of timed work have passed,
    /// and at least the scale's fixed epochs and ten latency blocks.
    Seconds(f64),
    /// Exactly this many epochs per phase (the untraced and traced
    /// phases of a traced run each get this many).
    #[cfg_attr(not(test), allow(dead_code))]
    Epochs(u64),
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub budget: Budget,
    pub trace: bool,
}

/// Seed streams derived from the run seed.
mod stream {
    pub const POINTS: u64 = 1;
    pub const EPOCH: u64 = 2;
    // Sub-streams of one epoch.
    pub const PICK: u64 = 10;
    pub const DRAWS: u64 = 11;
    pub const AUDITS: u64 = 12;
    pub const LATENCY: u64 = 13;
    pub const CHURN: u64 = 14;
    pub const AUDIT_LATENCY: u64 = 15;
}

fn epoch_seed(seed: u64, e: u64, sub: u64) -> u64 {
    derive_seed(derive_seed(derive_seed(seed, stream::EPOCH), e), sub)
}

fn epoch_rng(seed: u64, e: u64, sub: u64) -> StdRng {
    StdRng::seed_from_u64(epoch_seed(seed, e, sub))
}

/// One correctness check.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Bytes of routing-side state per live node.
#[derive(Debug, Clone, Copy, Default)]
pub struct Memory {
    pub routing: f64,
    pub verifier: f64,
    pub maintenance: f64,
    pub scores: f64,
}

impl Memory {
    fn of(net: &ChordNetwork) -> Memory {
        let n = net.live_len() as f64;
        Memory {
            routing: net.routing_bytes() as f64 / n,
            verifier: net.verifier_bytes() as f64 / n,
            maintenance: net.maintenance_bytes() as f64 / n,
            scores: net.score_bytes() as f64 / n,
        }
    }
}

trait Bench {
    /// Live peers when the run started.
    fn n(&self) -> usize;
    /// Runs epoch `e`'s fixed work, adding its timed wall to `phase`.
    fn epoch(&mut self, e: u64, phase: &mut Phase);
    /// Checks the outputs of every epoch run.
    fn checks(&mut self, runs: &Tally) -> Vec<Check>;
    fn memory(&self) -> Memory;
}

/// Epochs and draw outcomes of both phases, for the checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub epochs: u64,
    pub ok: u64,
    pub sybil: u64,
    pub dead: u64,
}

/// Set-up times of one run, in seconds, one entry per set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub points: Vec<f64>,
    pub overlay: Vec<f64>,
}

/// Everything a run measured.
pub struct Outcome {
    pub params: Params,
    pub n: usize,
    pub setup: SetupTimes,
    pub untraced: Phase,
    pub traced: Option<Phase>,
    pub memory: Memory,
    pub checks: Vec<Check>,
    pub trace: Option<trace::Session>,
}

/// Sets the workload up [`MIN_SETUPS`] or more times, runs its epochs,
/// and checks the outputs. A traced run alternates untraced and traced
/// epochs, so both phases see the same ring and the same machine
/// conditions.
pub fn run(params: Params) -> Outcome {
    let mut setup = SetupTimes::default();
    if params.trace {
        trace::start();
    }
    let mut bench: Option<Box<dyn Bench>> = None;
    let started = Instant::now();
    while setup.total.len() < MIN_SETUPS
        || started.elapsed().as_secs_f64() < params.scale.min_setup_s
    {
        // Free the previous ring first, so memory peaks at one ring.
        drop(bench.take());
        let _s = trace::span(Layer::Setup);
        let t = Instant::now();
        let (b, points_s) = build(params);
        let total = t.elapsed().as_secs_f64();
        setup.total.push(total);
        setup.points.push(points_s);
        setup.overlay.push(total - points_s);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let setup_session = trace::finish();
    let mut tracer = params.trace.then(|| {
        trace::start();
        trace::suspend().expect("tracing was just started")
    });

    // A traced run splits its time between the two phases and reports no
    // deterministic counts, so it needs no fixed epochs.
    let (budget, fixed_epochs) = match params.budget {
        Budget::Seconds(s) if params.trace => (Budget::Seconds(s / 2.0), 0),
        b => (b, params.scale.fixed_epochs),
    };
    let mut untraced = Phase::default();
    let mut traced = params.trace.then(Phase::default);
    for e in 0.. {
        match (&mut traced, &mut tracer) {
            (Some(phase), Some(_)) if e % 2 == 1 => {
                trace::resume(tracer.take().expect("tracer is suspended"));
                epoch(bench.as_mut(), e, phase, fixed_epochs);
                tracer = trace::suspend();
            }
            _ => epoch(bench.as_mut(), e, &mut untraced, fixed_epochs),
        }
        if std::iter::once(&untraced)
            .chain(traced.as_ref())
            .all(|p| p.spent(budget, fixed_epochs))
        {
            break;
        }
    }
    let session = tracer.map(|t| {
        trace::resume(t);
        let mut s = trace::finish().expect("tracer was resumed");
        if let Some(setup) = setup_session {
            s.events.splice(0..0, setup.events);
            s.dropped += setup.dropped;
        }
        s
    });
    if let (Some(phase), Some(s)) = (&mut traced, &session) {
        phase.trace = Some(s.totals.clone());
    }

    let phases = std::iter::once(&untraced).chain(traced.as_ref());
    let tally = phases.fold(Tally::default(), |t, p| Tally {
        epochs: t.epochs + p.epochs,
        ok: t.ok + p.draws_ok,
        sybil: t.sybil + p.sybil_draws,
        dead: t.dead + p.dead_draws,
    });
    let mut checks = bench.checks(&tally);
    if let Some(ratio) = traced.as_ref().and_then(Phase::layer_sum_ratio) {
        let (lo, hi) = LAYER_SUM_BAND;
        checks.push(Check {
            name: "trace-layers-sum-to-wall",
            ok: (lo..=hi).contains(&ratio),
            detail: format!("layer self times / traced wall = {ratio:.4}"),
        });
    }
    Outcome {
        params,
        n: bench.n(),
        setup,
        memory: bench.memory(),
        untraced,
        traced,
        checks,
        trace: session,
    }
}

/// Runs epoch `e` into `phase`.
fn epoch(bench: &mut dyn Bench, e: u64, phase: &mut Phase, fixed_epochs: u64) {
    let (draws, wall) = (phase.draws_ok, phase.wall_ns);
    bench.epoch(e, phase);
    phase.end_epoch(phase.draws_ok - draws, phase.wall_ns - wall, fixed_epochs);
}

/// Builds the workload's ring; returns it and the seconds spent placing
/// points.
fn build(p: Params) -> (Box<dyn Bench>, f64) {
    let space = KeySpace::full();
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, stream::POINTS));
    let points = space.random_points(&mut rng, p.scale.n);
    let points_s = t.elapsed().as_secs_f64();
    let bench: Box<dyn Bench> = match p.workload {
        Workload::ChordDraw => Box::new(ChordDraw::build(p, space, points)),
        Workload::OracleDraw => Box::new(OracleDraw::build(p, space, points)),
        Workload::DefendedSybil => Box::new(DefendedSybil::build(p, space, points)),
        Workload::ChurnPolicy => Box::new(ChurnPolicy::build(p, space, points)),
    };
    (bench, points_s)
}
