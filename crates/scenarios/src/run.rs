//! Compiling one `(spec, backend, seed)` triple into a runnable simulation
//! and executing it.
//!
//! Everything a run consumes derives from the caller's seed through
//! SplitMix64 stream derivation, so each record is a pure function of
//! `(spec, backend, seed)` — the property the parallel sweep runner relies
//! on for deterministic reports.

use adversary::{compile_coalition, majority_capture_probability, sybil_ids, DefendedSampler};
use chord::{
    AdaptiveConfig, ChordConfig, ChordDht, ChordNetwork, ChurnSimulation, FaultPlan,
    LookupOutcomes, MaintenanceBudget, NodeId, RetryPolicy, SloConfig, Watchdog,
};
use keyspace::{KeySpace, Point};
use peer_sampling::{Dht, NetworkSizeEstimator, OracleDht, Sampler, SamplerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringidx::RingIndex;
use serde::Serialize;
use simnet::churn::{ChurnPhase, ChurnSchedule};
use simnet::rng::derive_seed;
use simnet::SimDuration;
use stats::{divergence, LogHistogram};
use std::collections::BTreeMap;
use telemetry::TraceDump;

use crate::placement::place_index;
use crate::{AdversaryModel, Backend, ChurnModel, DefenseModel, ScenarioSpec};

/// Committee size used for the per-record capture-probability figures:
/// small enough that honest capture probability is printable, large
/// enough that the Chernoff cliff between honest and biased shares is
/// orders of magnitude.
pub const COMMITTEE_SIZE: usize = 15;

/// Independent random streams a run derives from its seed.
mod stream {
    pub const PLACEMENT: u64 = 0;
    pub const CHURN: u64 = 1;
    pub const FAULTS: u64 = 2;
    pub const DRAWS: u64 = 3;
    pub const LATENCY: u64 = 4;
    pub const WATCHDOG: u64 = 5;
    /// Post-outage repair: heal-time rejoins and the maintenance drain
    /// that re-converges the ring after a correlated domain crash.
    pub const REPAIR: u64 = 6;
    /// The async lookup engine's per-request latency streams.
    pub const ENGINE: u64 = 7;
    /// The engine phase's workload (origin/target pairs).
    pub const ENGINE_WORKLOAD: u64 = 8;
}

/// Target draws per watchdog observation window on chord arms. The
/// realized window is `max(DRAW_WINDOW, 5 · live)` so the chi-square
/// drift rule always sees enough per-cell mass to be evaluable; a final
/// partial window is always flushed, so the post-churn ring state is
/// observed at least once per run.
pub const DRAW_WINDOW: u64 = 500;

/// One tail exemplar off the chord hop histogram: which window and
/// log-bucket it came from, and the operation ordinal of the first lookup
/// that landed there. The ordinal matches [`telemetry::LookupTrace`]'s
/// `ordinal` field in a traced replay of the same `(spec, backend,
/// seed)`, so a p99/p999 figure links to a concrete replayable walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TailExemplar {
    /// Watchdog window index the exemplar was captured in.
    pub window: u64,
    /// Inclusive upper edge of the histogram bucket the sample landed in.
    pub bucket_upper: u64,
    /// The recorded value (per-lookup hop count).
    pub value: u64,
    /// Operation ordinal of the exemplar lookup (ids agree between
    /// traced and untraced runs).
    pub trace_id: u64,
}

/// Metrics of one `(spec, backend, seed)` execution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeedRunRecord {
    /// Backend name (`"oracle"` / `"chord"`).
    pub backend: String,
    /// The seed this record is a pure function of.
    pub seed: u64,
    /// Live peers at sampling time (after churn).
    pub live_peers: u64,
    /// Ring position of the measuring client (the honest observer every
    /// draw routes from).
    pub anchor_point: Point,
    /// Byzantine peers at sampling time.
    pub byzantine_peers: u64,
    /// Draws that returned a peer.
    pub samples_ok: u64,
    /// Draws that errored (routing failure or trial exhaustion).
    pub samples_failed: u64,
    /// Whether the §2 size estimator failed (fell back to the live count).
    pub estimate_failed: bool,
    /// Mean rejection-loop trials per successful draw.
    pub mean_trials: f64,
    /// Mean messages per successful draw.
    pub mean_messages: f64,
    /// Mean latency ticks per successful draw.
    pub mean_latency: f64,
    /// Total-variation distance of the selection histogram from uniform.
    pub tv_from_uniform: f64,
    /// Max/min selection-frequency ratio (`None` when a peer was never
    /// selected, where the ratio is infinite).
    pub max_min_ratio: Option<f64>,
    /// Pearson chi-square p-value against the uniform null.
    pub chi_square_p: f64,
    /// Fraction of live peers that are Byzantine.
    pub byzantine_population_share: f64,
    /// Fraction of successful draws that landed on a Byzantine peer.
    pub byzantine_sample_share: f64,
    /// Probability a [`COMMITTEE_SIZE`]-member committee drawn at the
    /// *measured* Byzantine sample share seats a Byzantine majority.
    pub committee_capture_p: f64,
    /// The honest baseline: the same committee drawn at the Byzantine
    /// *population* share (what a perfectly uniform sampler would risk).
    pub committee_capture_p_uniform: f64,
    /// Defended draws whose quorum round detected disagreement and
    /// redrew (0 without a defense arm) — each one is a blocked attack.
    pub quorum_failures: u64,
    /// Fraction of populated finger entries disagreeing with the ground
    /// truth at sampling time (`1 − finger_accuracy`; 0 on oracle
    /// backends, which have no routing state to go stale).
    pub finger_staleness: f64,
    /// Dirty entries the batched maintenance left unrepaired at sampling
    /// time — the staleness a finite `MaintenanceSpec::Batched` budget
    /// buys its savings with. 0 on oracle backends and under
    /// `MaintenanceSpec::FullRefresh` (the classic path has no dirty
    /// queue to drain).
    pub maintenance_backlog: u64,
    /// Median per-lookup hop count off the chord hop histogram (0 on
    /// oracle backends, which answer in one synthetic step).
    pub hop_p50: u64,
    /// 99th-percentile per-lookup hop count — the tail the paper's
    /// O(log n) bound is about. Log-bucketed (≤ 1/16 relative error,
    /// never under-reported), so it is safe to gate verdicts on.
    pub hop_p99: u64,
    /// 99.9th-percentile per-lookup hop count.
    pub hop_p999: u64,
    /// Median messages per successful draw (both backends; the oracle
    /// charges its synthetic ceil(log2 n) cost here).
    pub draw_msgs_p50: u64,
    /// 99th-percentile messages per successful draw — a defended arm's
    /// redundancy multiplier shows up here, not in the mean.
    pub draw_msgs_p99: u64,
    /// Observation windows the health watchdog closed over the run: one
    /// per maintenance round during churn, then one per
    /// [`DRAW_WINDOW`]-sized draw batch (0 on oracle backends, which
    /// have no overlay to watch).
    pub watchdog_windows: u64,
    /// SLO breach edges the watchdog emitted (each is one rule going
    /// from holding to violated; recoveries are not counted here).
    pub health_breaches: u64,
    /// Window index of the first SLO breach — the time-to-detect figure
    /// for scenarios whose fault is active from window 0. −1 when no
    /// rule ever breached.
    pub time_to_detect: i64,
    /// Windows from first breach to last recovery: 0 when nothing ever
    /// breached, −1 when some rule was still violated at run end
    /// (recovery unconfirmed).
    pub time_to_recover: i64,
    /// Draws attempted while a correlated domain outage was active (0
    /// when the spec has no `domains` structure).
    pub outage_draws: u64,
    /// Draws that succeeded while the outage was active — with retry /
    /// fallback routing on, degraded-but-correct answers count here.
    pub outage_ok: u64,
    /// `outage_ok / outage_draws` (1.0 when no draw ran under an
    /// outage) — the figure the domain-outage verdicts gate on.
    pub outage_success_ratio: f64,
    /// Lookups submitted to the async engine phase (0 when the spec has
    /// no `engine` structure, and on oracle backends).
    pub engine_lookups: u64,
    /// Engine lookups that completed (the phase drains, so this equals
    /// `engine_lookups` unless the ring itself was unanswerable).
    pub engine_completed: u64,
    /// Engine deadlines that fired (each one preempted a late attempt
    /// into the retry tiers, or — with retries off — re-armed and kept
    /// waiting).
    pub engine_timeouts: u64,
    /// Median submit-to-completion age of an engine lookup in simulated
    /// ticks (exact, computed over the completion set, not bucketed).
    pub engine_age_p50: u64,
    /// 99th-percentile engine completion age in ticks.
    pub engine_age_p99: u64,
    /// 99.9th-percentile engine completion age in ticks — the figure
    /// the slow-domain verdicts gate on: a sector that answers late
    /// fails nothing, so only this tail shows the fault.
    pub engine_age_p999: u64,
    /// Engine-phase windows until the watchdog's in-flight-age rule
    /// first breached, counted from the slow-sector fault's onset window
    /// (from the phase's first window when the spec has no slow sector).
    /// −1 when it never breached (healthy arms, or no engine phase).
    pub engine_ttd: i64,
    /// Windows from that first breach to the rule's last recovery: 0
    /// when nothing breached, −1 when still violated at phase end.
    pub engine_ttr: i64,
    /// FNV-1a digest (hex) over the engine's tag-sorted completion
    /// report — byte-identical across replays of the same cell; empty
    /// when the spec has no engine phase.
    pub engine_digest: String,
    /// Every watchdog event, rendered one line each
    /// ([`chord::HealthEvent::render`]): attributed, byte-stable, in
    /// emission order.
    pub health_events: Vec<String>,
    /// Longitudinal gauge columns from the watchdog's window ring, one
    /// entry per observed window per gauge (live, backlog, staleness,
    /// defect_rate, hop_p50, hop_p99, forged_rate, draw_cost). Empty on
    /// oracle backends.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Per-window hop-histogram tail exemplars, in window order (empty on
    /// oracle backends). Captured whether or not tracing is on, so the
    /// trace ids stay valid for a traced replay.
    pub tail_exemplars: Vec<TailExemplar>,
    /// `tail_exemplars.len()` — the numeric column aggregates and diffs
    /// gate on.
    pub exemplar_count: u64,
    /// Span-profiler totals: simulated cost attributed to each lookup /
    /// maintenance phase (`lookup;finger_walk`, `lookup;retry_backoff`,
    /// …), name-sorted. Includes zero rows, so the column set is stable
    /// across arms. Empty on oracle backends.
    pub span_costs: BTreeMap<String, u64>,
    /// FNV-1a digest over every lookup trace recorded during the run
    /// (hex; empty when `telemetry.trace_lookups` is off or the backend
    /// does not route). Two runs of the same `(spec, backend, seed)`
    /// produce the same digest — a cheap cross-machine replay check.
    pub trace_digest: String,
    /// Full counter snapshot from the backend's telemetry recorder
    /// (chord arms; empty on oracle backends, which have no instrumented
    /// substrate). Sorted by name, so report JSON is deterministic.
    pub counters: BTreeMap<String, u64>,
}

/// Runs one scenario under one backend for one seed.
///
/// # Panics
///
/// Panics if the spec fails [`ScenarioSpec::validate`] or names a
/// degenerate simulation (e.g. churn that wipes out the whole overlay).
pub fn run_scenario_seed(spec: &ScenarioSpec, backend: Backend, seed: u64) -> SeedRunRecord {
    run_seed_inner(spec, backend, seed, false).0
}

/// Runs one scenario with lookup tracing forced on, returning the record
/// alongside the flight-recorder dump — the post-mortem entry point e16
/// uses to replay a failing `(spec, backend, seed)` cell.
///
/// The record is identical to [`run_scenario_seed`]'s except for its
/// `trace_digest` field (tracing perturbs nothing else). Oracle backends
/// do not route, so their dump is empty.
///
/// # Panics
///
/// Panics under the same conditions as [`run_scenario_seed`].
pub fn run_scenario_seed_traced(
    spec: &ScenarioSpec,
    backend: Backend,
    seed: u64,
) -> (SeedRunRecord, TraceDump) {
    let (record, dump) = run_seed_inner(spec, backend, seed, true);
    (
        record,
        dump.unwrap_or_else(|| TraceDump::from_recorder(&telemetry::Recorder::new())),
    )
}

fn run_seed_inner(
    spec: &ScenarioSpec,
    backend: Backend,
    seed: u64,
    force_trace: bool,
) -> (SeedRunRecord, Option<TraceDump>) {
    if let Err(problems) = spec.validate() {
        panic!("invalid scenario {:?}: {problems:?}", spec.name);
    }
    let space = KeySpace::full();
    let mut placement_rng = StdRng::seed_from_u64(derive_seed(seed, stream::PLACEMENT));
    // One index-backed membership compilation feeds both backends, so a
    // paired oracle/chord run sees the same initial ring.
    let members = place_index(&spec.placement, space, spec.n_initial, &mut placement_rng);
    match backend {
        Backend::Oracle => (run_oracle(spec, seed, space, members, None), None),
        Backend::StaleOracle { lag_ticks } => (
            run_oracle(spec, seed, space, members, Some(lag_ticks)),
            None,
        ),
        Backend::Chord => run_chord(spec, seed, space, members, force_trace),
    }
}

fn churn_schedule(model: &ChurnModel) -> Option<ChurnSchedule> {
    match model {
        ChurnModel::Static => None,
        ChurnModel::Poisson {
            arrivals_per_1000_ticks,
            mean_lifetime_ticks,
            crash_fraction,
            horizon_ticks,
        } => Some(ChurnSchedule::new(vec![ChurnPhase {
            duration: SimDuration::from_ticks(*horizon_ticks),
            arrivals_per_1000_ticks: *arrivals_per_1000_ticks,
            mean_lifetime: SimDuration::from_ticks(*mean_lifetime_ticks),
            crash_fraction: *crash_fraction,
        }])),
        ChurnModel::Phased { phases } => Some(ChurnSchedule::new(
            phases
                .iter()
                .map(|p| ChurnPhase {
                    duration: SimDuration::from_ticks(p.duration_ticks),
                    arrivals_per_1000_ticks: p.arrivals_per_1000_ticks,
                    mean_lifetime: SimDuration::from_ticks(p.mean_lifetime_ticks),
                    crash_fraction: p.crash_fraction,
                })
                .collect(),
        )),
    }
}

/// Per-draw accumulators shared by both backends.
#[derive(Default)]
struct DrawTally {
    ok: u64,
    failed: u64,
    trials: u64,
    messages: u64,
    latency: u64,
}

impl DrawTally {
    fn record(&mut self, trials: u32, cost: peer_sampling::Cost) {
        self.ok += 1;
        self.trials += trials as u64;
        self.messages += cost.messages;
        self.latency += cost.latency;
    }

    fn mean(total: u64, count: u64) -> f64 {
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

/// Builds the sampler configuration from the spec: deployment mode
/// estimates `n` through the backend itself; oracle-knowledge mode
/// inflates the true count.
fn build_sampler_config<D: Dht>(
    spec: &ScenarioSpec,
    dht: &D,
    origin: D::Peer,
    live: usize,
) -> (SamplerConfig, bool) {
    let mut estimate_failed = false;
    let config = if spec.workload.estimate_n {
        match NetworkSizeEstimator::default().estimate(dht, origin) {
            Ok(est) => est.to_sampler_config(),
            Err(_) => {
                estimate_failed = true;
                SamplerConfig::new(live as u64)
            }
        }
    } else {
        let inflated = (live as f64 * spec.sampler.n_upper_inflation).round() as u64;
        SamplerConfig::new(inflated.max(1))
    };
    (
        config.with_max_trials(spec.sampler.max_trials),
        estimate_failed,
    )
}

fn uniformity(counts: &[u64]) -> (f64, Option<f64>, f64) {
    let tv = divergence::tv_from_uniform(counts);
    let ratio = divergence::max_min_ratio(counts);
    let ratio = ratio.is_finite().then_some(ratio);
    let chi_p = stats::ChiSquare::uniform(counts)
        .map(|t| t.p_value())
        .unwrap_or(f64::NAN);
    (tv, ratio, chi_p)
}

fn run_oracle(
    spec: &ScenarioSpec,
    seed: u64,
    space: KeySpace,
    mut members: RingIndex<u64>,
    lag_ticks: Option<u64>,
) -> SeedRunRecord {
    // Churn against the oracle mutates the membership set only: the
    // oracle's "routing" is always perfectly fresh, so Oracle-vs-Chord
    // deltas under the same churn isolate stale-routing-state effects
    // from population-change effects. Each event is an O(log n) index
    // update, so 10^5-member rings churn without rescans or re-sorts.
    //
    // The stale-oracle arm additionally maintains a *bounded-lag* replica
    // of the index that stops absorbing events `lag_ticks` before the
    // horizon — the membership view a client with delayed propagation
    // would sample against. Both replicas see the identical event stream
    // (the stale bookkeeping draws nothing from the churn RNG), so the
    // fresh-oracle record is byte-identical with or without a stale arm
    // in the battery.
    let mut stale = lag_ticks.map(|_| members.clone());
    if let Some(schedule) = churn_schedule(&spec.churn) {
        let cutoff = lag_ticks.map(|lag| schedule.horizon().ticks().saturating_sub(lag));
        let mut churn_rng = StdRng::seed_from_u64(derive_seed(seed, stream::CHURN));
        let mut next_id = members.len() as u64;
        for event in schedule.generate(&mut churn_rng) {
            let seen_by_stale = cutoff.is_some_and(|c| event.time.ticks() <= c);
            match event.kind {
                simnet::churn::ChurnKind::Join => {
                    let point = space.random_point(&mut churn_rng);
                    members.insert(point, next_id);
                    if seen_by_stale {
                        if let Some(stale) = stale.as_mut() {
                            stale.insert(point, next_id);
                        }
                    }
                    next_id += 1;
                }
                simnet::churn::ChurnKind::Leave | simnet::churn::ChurnKind::Crash => {
                    if members.len() > 2 {
                        let (point, id) = members
                            .nth(churn_rng.gen_range(0..members.len()))
                            .expect("victim rank is in range");
                        members.remove(point, id);
                        if seen_by_stale {
                            if let Some(stale) = stale.as_mut() {
                                stale.remove(point, id);
                            }
                        }
                    }
                }
            }
        }
    }
    let truth = OracleDht::from_index(&members);
    let live = truth.len();
    assert!(live >= 2, "churn left fewer than two live peers");
    // The client samples against its (possibly lagged) view; correctness
    // is judged against the current population. The fresh arm borrows
    // the truth ring rather than copying it — at RP_SCALE sizes the ring
    // is megabytes per task.
    let stale_view = stale.as_ref().map(OracleDht::from_index);
    let view: &OracleDht = stale_view.as_ref().unwrap_or(&truth);
    assert!(view.len() >= 2, "stale view collapsed below two peers");
    let (config, estimate_failed) = build_sampler_config(spec, view, 0, view.len());
    let sampler = Sampler::new(config);

    let mut draw_rng = StdRng::seed_from_u64(derive_seed(seed, stream::DRAWS));
    let mut tally = DrawTally::default();
    let mut draw_msgs = LogHistogram::new();
    let mut counts = vec![0u64; live];
    for _ in 0..spec.workload.draws {
        match sampler.sample(view, &mut draw_rng) {
            Ok(s) => {
                if stale.is_none() {
                    tally.record(s.trials, s.cost);
                    draw_msgs.record(s.cost.messages);
                    counts[s.peer] += 1;
                    continue;
                }
                // Stale arm: the draw names a peer from the lagged view.
                // Contacting one that has since departed bounces (a
                // failed draw); a live one is tallied at its *current*
                // rank, so joiners the view missed show up as zero cells
                // in the uniformity histogram.
                if members.contains_point(s.point) {
                    tally.record(s.trials, s.cost);
                    draw_msgs.record(s.cost.messages);
                    counts[truth.ring().successor_of(s.point)] += 1;
                } else {
                    tally.failed += 1;
                }
            }
            Err(_) => tally.failed += 1,
        }
    }
    let (tv, ratio, chi_p) = uniformity(&counts);
    SeedRunRecord {
        backend: match lag_ticks {
            Some(lag) => Backend::StaleOracle { lag_ticks: lag }.name().to_string(),
            None => Backend::Oracle.name().to_string(),
        },
        seed,
        live_peers: live as u64,
        anchor_point: view.ring().point(0),
        byzantine_peers: 0,
        samples_ok: tally.ok,
        samples_failed: tally.failed,
        estimate_failed,
        mean_trials: DrawTally::mean(tally.trials, tally.ok),
        mean_messages: DrawTally::mean(tally.messages, tally.ok),
        mean_latency: DrawTally::mean(tally.latency, tally.ok),
        tv_from_uniform: tv,
        max_min_ratio: ratio,
        chi_square_p: chi_p,
        byzantine_population_share: 0.0,
        byzantine_sample_share: 0.0,
        committee_capture_p: 0.0,
        committee_capture_p_uniform: 0.0,
        quorum_failures: 0,
        finger_staleness: 0.0,
        maintenance_backlog: 0,
        hop_p50: 0,
        hop_p99: 0,
        hop_p999: 0,
        draw_msgs_p50: draw_msgs.p50(),
        draw_msgs_p99: draw_msgs.p99(),
        watchdog_windows: 0,
        health_breaches: 0,
        time_to_detect: -1,
        time_to_recover: 0,
        outage_draws: 0,
        outage_ok: 0,
        outage_success_ratio: 1.0,
        engine_lookups: 0,
        engine_completed: 0,
        engine_timeouts: 0,
        engine_age_p50: 0,
        engine_age_p99: 0,
        engine_age_p999: 0,
        engine_ttd: -1,
        engine_ttr: 0,
        engine_digest: String::new(),
        health_events: Vec::new(),
        series: BTreeMap::new(),
        tail_exemplars: Vec::new(),
        exemplar_count: 0,
        span_costs: BTreeMap::new(),
        trace_digest: String::new(),
        counters: BTreeMap::new(),
    }
}

/// Closes the current draw window: per-peer draw deltas since the last
/// close feed the chi-square drift rule, and the recorder's windowed
/// counter/histogram deltas feed the longitudinal gauges.
///
/// Domain-outage runs additionally hand the watchdog a per-window
/// lookup-outcome tally (the success-ratio rule) and suppress the
/// chi-square drift input for windows the outage touched — a correlated
/// crash *makes* the draw distribution non-uniform, and flagging that as
/// sampler drift would misattribute the fault.
fn close_draw_window(
    watchdog: &mut Watchdog,
    net: &ChordNetwork,
    base: &mut [u64],
    counts: &[u64],
    outcomes: Option<&LookupOutcomes>,
    suppress_drift: bool,
) {
    let delta: Vec<u64> = counts.iter().zip(base.iter()).map(|(c, b)| c - b).collect();
    let window = net.metrics().recorder().reset_window();
    let draw_counts = if suppress_drift {
        None
    } else {
        Some(delta.as_slice())
    };
    watchdog.observe_with_outcomes(net, window, draw_counts, outcomes);
    base.copy_from_slice(counts);
}

/// Drives a spec's correlated domain outage through the chord draw loop:
/// crashes domains `0..crash_domains` as a unit at the crash checkpoint,
/// rejoins exactly the downed members at the heal checkpoint (then drains
/// the repair backlog), and tallies per-window lookup outcomes for the
/// watchdog's success-ratio rule, attributed to the offending domains.
struct OutageDriver {
    map: simnet::DomainMap,
    crash_domains: u32,
    /// Draw indices at which the outage begins / ends.
    crash_at: u64,
    heal_at: u64,
    active: bool,
    /// Whether the outage overlapped the watchdog window being tallied.
    window_touched: bool,
    /// `(point, original id)` per downed member, so healing rejoins
    /// exactly the members that failed and reports can map the rejoined
    /// node (a fresh id) back to its pre-outage draw-histogram cell.
    downed: Vec<(Point, NodeId)>,
    outage_draws: u64,
    outage_ok: u64,
    window_ok: u64,
    window_failed: u64,
}

impl OutageDriver {
    fn new(spec: &crate::FailureDomainSpec, space: KeySpace, draws: u64) -> OutageDriver {
        OutageDriver {
            map: simnet::DomainMap::sectors(spec.domains, space.modulus()),
            crash_domains: spec.crash_domains,
            crash_at: (draws as f64 * spec.outage_start).floor() as u64,
            heal_at: (draws as f64 * spec.outage_end).floor() as u64,
            active: false,
            window_touched: false,
            downed: Vec::new(),
            outage_draws: 0,
            outage_ok: 0,
            window_ok: 0,
            window_failed: 0,
        }
    }

    /// Whether `p` lies in one of the domains scripted to crash.
    fn in_crashed_domains(&self, p: Point) -> bool {
        self.map.domain_of(p.get()) < self.crash_domains
    }

    /// The crashed domain labels — the watchdog attribution payload.
    fn suspects(&self) -> Vec<u64> {
        (0..u64::from(self.crash_domains)).collect()
    }

    /// Kills every live member of the crashed domains in one instant
    /// (the measuring anchor survives by construction: it is chosen
    /// outside the crashed domains).
    fn apply_crash(&mut self, net: &mut ChordNetwork, anchor: NodeId) {
        let victims: Vec<NodeId> = net
            .live_ids()
            .into_iter()
            .filter(|&id| id != anchor && self.in_crashed_domains(net.node(id).point()))
            .collect();
        for v in victims {
            if net.live_len() < 2 {
                break;
            }
            self.downed.push((net.node(v).point(), v));
            net.crash(v);
        }
        net.metrics()
            .recorder()
            .add(net.counters().domain_events, u64::from(self.crash_domains));
        self.active = true;
        self.window_touched = true;
    }

    /// Rejoins the downed members at their original ring points (via the
    /// anchor), draining the maintenance backlog between passes so
    /// rejoins that raced the still-damaged ring get a second chance
    /// over a repaired one. Returns `new id → original id` aliases so
    /// draw accounting keeps one histogram cell per ring point across
    /// the outage.
    fn apply_heal(
        &mut self,
        net: &mut ChordNetwork,
        anchor: NodeId,
        repair_rng: &mut StdRng,
    ) -> std::collections::HashMap<NodeId, NodeId> {
        let mut aliases = std::collections::HashMap::new();
        let mut pending = std::mem::take(&mut self.downed);
        // Successor-list correctness propagates backwards one node per
        // stabilize round, so re-converging a rejoined arc takes Θ(arc)
        // rounds, not O(1): cap the drain proportionally.
        let drain_cap = 8 + 2 * pending.len();
        for _ in 0..2 {
            let mut failed = Vec::new();
            for (point, original) in pending {
                match net.join(point, anchor, repair_rng) {
                    Ok(id) => {
                        aliases.insert(id, original);
                    }
                    Err(_) => failed.push((point, original)),
                }
            }
            // Drain the repair backlog (bounded: repairs can re-dirty
            // neighbours) so retries and post-outage draws route over a
            // re-converged ring.
            for _ in 0..drain_cap {
                if net.maintenance_backlog() == 0 {
                    break;
                }
                net.batched_maintenance_round(MaintenanceBudget::unlimited(), repair_rng);
            }
            pending = failed;
            if pending.is_empty() {
                break;
            }
        }
        net.metrics()
            .recorder()
            .add(net.counters().domain_events, u64::from(self.crash_domains));
        self.active = false;
        // The heal window stays suppressed for drift purposes: the heal
        // itself (rejoins + repair lookups) skews that window's deltas.
        self.window_touched = true;
        aliases
    }

    /// One draw's outcome, while the driver is attached.
    fn record_draw(&mut self, ok: bool) {
        if ok {
            self.window_ok += 1;
        } else {
            self.window_failed += 1;
        }
        if self.active {
            self.window_touched = true;
            self.outage_draws += 1;
            if ok {
                self.outage_ok += 1;
            }
        }
    }

    /// Closes the window tally: the outcome payload for the watchdog and
    /// whether the chi-square drift input should be suppressed.
    fn close_window(&mut self) -> (LookupOutcomes, bool) {
        let outcomes = LookupOutcomes {
            ok: self.window_ok,
            failed: self.window_failed,
            suspects: if self.window_touched {
                self.suspects()
            } else {
                Vec::new()
            },
        };
        let suppress = self.window_touched;
        self.window_ok = 0;
        self.window_failed = 0;
        self.window_touched = self.active;
        (outcomes, suppress)
    }

    fn success_ratio(&self) -> f64 {
        if self.outage_draws == 0 {
            1.0
        } else {
            self.outage_ok as f64 / self.outage_draws as f64
        }
    }
}

/// The watchdog-close payload for the current window: the outcome tally
/// (domain runs only) and whether to suppress the drift input.
fn outage_close_args(outage: &mut Option<OutageDriver>) -> (Option<LookupOutcomes>, bool) {
    match outage.as_mut() {
        Some(o) => {
            let (outcomes, suppress) = o.close_window();
            (Some(outcomes), suppress)
        }
        None => (None, false),
    }
}

/// Everything the async engine phase contributes to the record.
struct EnginePhase {
    lookups: u64,
    completed: u64,
    timeouts: u64,
    age_p50: u64,
    age_p99: u64,
    age_p999: u64,
    ttd: i64,
    ttr: i64,
    digest: String,
}

/// Exact nearest-rank percentile over a sorted sample set (0 on empty).
/// The engine tail is computed here, not off the log-bucketed window
/// histograms: the e16 verdicts compare arms against each other, and
/// bucket rounding at 1/16 relative error could mask a real delta.
fn exact_percentile(sorted: &[u64], numer: usize, denom: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * numer / denom]
}

/// Drives the spec's async engine phase: the whole workload is submitted
/// up front and multiplexed through `chord::LookupEngine` — explicit
/// find-successor messages over the simnet event queue with per-hop
/// latency draws, per-request deadlines feeding the retry tiers — while
/// the clock advances in observation windows, each closing a telemetry
/// window into the watchdog (the in-flight-age SLO). An optional
/// slow-sector overlay delays the fault sector's answers mid-phase:
/// nothing dies and no lookup fails, so the only observable symptom is
/// the completion-age tail.
fn run_engine_phase(
    engine_spec: &crate::EngineSpec,
    net: &ChordNetwork,
    faults: &FaultPlan,
    watchdog: &mut Watchdog,
    space: KeySpace,
    seed: u64,
) -> EnginePhase {
    let mut engine = chord::LookupEngine::new(chord::EngineConfig {
        timeout_ticks: Some(engine_spec.timeout_ticks),
        max_inflight: engine_spec.inflight as usize,
        seed: derive_seed(seed, stream::ENGINE),
    });
    let live = net.live_ids();
    let total_ticks = u64::from(engine_spec.windows) * engine_spec.window_ticks;

    // The slow sectors and the origin pool: origins are drawn outside
    // the slow sectors (a slow *origin* cannot be routed around; the
    // fault under test is slow transit hops and owners).
    let slow_nodes: std::collections::BTreeSet<NodeId> = engine_spec
        .slow
        .map(|s| {
            let map = simnet::DomainMap::sectors(s.domains, space.modulus());
            live.iter()
                .copied()
                .filter(|&id| map.domain_of(net.node(id).point().get()) < s.slow)
                .collect()
        })
        .unwrap_or_default();
    if let Some(s) = engine_spec.slow {
        engine.set_slow_overlay(Some(chord::SlowOverlay {
            nodes: slow_nodes.clone(),
            factor: s.factor,
            from: simnet::SimTime::from_ticks((total_ticks as f64 * s.start_frac).floor() as u64),
            until: simnet::SimTime::from_ticks((total_ticks as f64 * s.end_frac).floor() as u64),
        }));
    }
    let origins: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|id| !slow_nodes.contains(id))
        .collect();
    assert!(!origins.is_empty(), "slow sectors swallowed every origin");

    // The workload is submitted in per-window batches (each batch enters
    // the event loop at its window's opening tick), so traffic is in
    // flight across the whole phase and a mid-phase slow window has
    // requests to age — an up-front burst would drain before the fault
    // starts. Tags are global and the RNG stream is one sequence, so the
    // batching is part of the deterministic replay.
    let mut workload_rng = StdRng::seed_from_u64(derive_seed(seed, stream::ENGINE_WORKLOAD));
    let total_lookups = u64::from(engine_spec.lookups);
    let windows = u64::from(engine_spec.windows);
    let per_window = (total_lookups / windows).max(1);
    let mut next_tag = 0u64;
    let base_window = watchdog.windows_observed();
    for w in 1..=windows {
        let quota = if w == windows {
            total_lookups - next_tag
        } else {
            per_window.min(total_lookups - next_tag)
        };
        for _ in 0..quota {
            let origin = origins[workload_rng.gen_range(0..origins.len())];
            let target = space.random_point(&mut workload_rng);
            engine.submit_tagged(net, next_tag, origin, target);
            next_tag += 1;
        }
        engine.run_until(
            net,
            faults,
            simnet::SimTime::from_ticks(w * engine_spec.window_ticks),
        );
        let window = net.metrics().recorder().reset_window();
        watchdog.observe_with_outcomes(net, window, None, None);
    }
    // Stragglers past the horizon (the backlog admits as slots free, so
    // the tail of a capped run finishes here), then their final window.
    engine.drain(net, faults);
    let window = net.metrics().recorder().reset_window();
    watchdog.observe_with_outcomes(net, window, None, None);

    let mut ages: Vec<u64> = engine
        .completions()
        .iter()
        .map(|c| (c.completed_at - c.submitted_at).ticks())
        .collect();
    ages.sort_unstable();
    // Detection / recovery for the in-flight-age rule alone. Detection
    // is counted from the *fault onset* window (the slow window's first
    // tick) when the phase carries a slow sector, else from the phase's
    // first window — so a "ttd ≤ k" gate reads as "windows from the
    // fault starting to the watchdog flagging it". The record's
    // run-level ttd/ttr span every rule over the whole run.
    let onset_window = base_window
        + engine_spec
            .slow
            .map_or(0, |s| (windows as f64 * s.start_frac).floor() as u64);
    let age_events: Vec<&chord::HealthEvent> = watchdog
        .events()
        .iter()
        .filter(|e| e.rule == chord::SloRule::InflightAge && e.window >= base_window)
        .collect();
    let first_breach = age_events
        .iter()
        .find(|e| e.kind == chord::HealthKind::Breach)
        .map(|e| e.window);
    let ttd = first_breach.map_or(-1, |w| w as i64 - onset_window as i64);
    let ttr = match first_breach {
        None => 0,
        Some(b) => match age_events.last() {
            Some(e) if e.kind == chord::HealthKind::Recover => (e.window - b) as i64,
            _ => -1,
        },
    };
    EnginePhase {
        lookups: u64::from(engine_spec.lookups),
        completed: engine.completions().len() as u64,
        timeouts: net.metrics().get("engine.timeouts"),
        age_p50: exact_percentile(&ages, 50, 100),
        age_p99: exact_percentile(&ages, 99, 100),
        age_p999: exact_percentile(&ages, 999, 1000),
        ttd,
        ttr,
        digest: format!("{:016x}", engine.report_digest()),
    }
}

/// The watchdog's gauge columns as named series, in window order. The
/// success-ratio column only exists on runs that fed the watchdog
/// outcome tallies (domain-outage arms), and the in-flight-age column
/// only on runs with an engine phase — elsewhere those gauges are never
/// stamped and a column of implicit zeros would misread as figures.
fn watchdog_series(
    watchdog: &Watchdog,
    with_success: bool,
    with_engine: bool,
) -> BTreeMap<String, Vec<f64>> {
    use chord::watchdog::gauge;
    let mut names = vec![
        gauge::LIVE,
        gauge::BACKLOG,
        gauge::STALENESS,
        gauge::DEFECT_RATE,
        gauge::HOP_P50,
        gauge::HOP_P99,
        gauge::FORGED_RATE,
        gauge::DRAW_COST,
    ];
    if with_success {
        names.push(gauge::SUCCESS);
    }
    if with_engine {
        names.push(gauge::AGE_P99);
    }
    names
        .into_iter()
        .map(|name| (name.to_string(), watchdog.series().gauge_column(name)))
        .collect()
}

fn run_chord(
    spec: &ScenarioSpec,
    seed: u64,
    space: KeySpace,
    members: RingIndex<u64>,
    force_trace: bool,
) -> (SeedRunRecord, Option<TraceDump>) {
    let mut config = ChordConfig::default().with_successor_list_len(spec.chord.successor_list_len);
    // Compile the spec's latency model into the substrate (previously the
    // spec had no latency knob and every chord arm silently ran at the
    // unit-constant default). Every routed message — draws, maintenance,
    // engine hops — samples from it.
    if let Some(latency) = spec.chord.latency {
        config = config.with_latency(latency.to_model());
    }

    // A coalition adversary compiles *before* the overlay exists: it
    // observes the honest membership and chooses its own ring positions
    // (sybil strategies) and/or a corruption budget over incumbents.
    let coalition = match &spec.adversary {
        AdversaryModel::Coalition { strategy, fraction } => {
            let honest = members.len();
            // Sybil members are *added*, so a budget of f of the final
            // population means m = f/(1−f)·honest joiners; corrupt-existing
            // strategies convert ⌊f·honest⌋ incumbents instead.
            let strategy = strategy.to_strategy();
            let budget = match strategy {
                adversary::CoalitionStrategy::AdaptiveArcLiars => {
                    (honest as f64 * fraction).floor() as usize
                }
                _ => (honest as f64 * fraction / (1.0 - fraction)).round() as usize,
            };
            Some(compile_coalition(strategy, &members, budget.max(1)))
        }
        _ => None,
    };
    let mut points = members.points();
    if let Some(coalition) = &coalition {
        points.extend(coalition.sybil_points.iter().copied());
    }

    // Build the overlay: straight bootstrap when static, an event-driven
    // churn run (joins through the protocol, crashes silent) otherwise.
    // (Coalition specs validate as static, so sybil joins never race
    // churn.) Owned mutably: a domain outage crashes and heals members
    // mid-draw-loop.
    let mut watchdog = None;
    let mut churned = match churn_schedule(&spec.churn) {
        None => chord::ChordNetwork::bootstrap(space, points, config),
        Some(schedule) => {
            let mut sim = ChurnSimulation::with_schedule_over(
                points,
                config,
                &schedule,
                SimDuration::from_ticks(spec.chord.stabilize_every_ticks),
                derive_seed(seed, stream::CHURN),
            );
            if let Some(budget) = spec.chord.maintenance.budget() {
                sim = sim.with_maintenance_budget(budget);
            }
            // The watchdog rides the churn phase: one window per
            // maintenance round, observed pre-repair. It draws from its
            // own stream, so attaching it perturbs no other randomness.
            sim = sim.with_watchdog(Watchdog::new(
                SloConfig::default(),
                derive_seed(seed, stream::WATCHDOG),
            ));
            sim.run_to_end();
            watchdog = sim.take_watchdog();
            sim.into_network()
        }
    };
    // Arm the resilience knobs before any measured lookup routes: peer
    // scoring learns from per-hop probe outcomes, the retry policy
    // degrades failed lookups through fallback tiers (see `chord::score`).
    // Both are deterministic and off the RNG path, so arming them never
    // perturbs another stream.
    if spec.adaptive.peer_scoring {
        churned.enable_adaptive_routing(AdaptiveConfig::default());
    }
    if spec.adaptive.retry {
        churned.enable_retry_policy(RetryPolicy::default());
    }

    let live = churned.live_ids();
    assert!(live.len() >= 2, "churn left fewer than two live peers");

    // Tracing covers the *measured* workload only: switching it on after
    // overlay construction keeps bulk-join / churn lookups out of the
    // flight recorder, so the digest fingerprints the draws alone.
    let tracing = force_trace || spec.telemetry.trace_lookups;
    if tracing {
        let recorder = churned.metrics().recorder();
        recorder.set_trace_capacity(spec.telemetry.flight_recorder_capacity.max(1) as usize);
        recorder.set_tracing(true);
    }

    // Static arms start the watchdog clock here; either way the recorder
    // window closes at the draw boundary, so draw windows carry draw
    // activity only (bootstrap and post-horizon churn deltas excluded).
    let mut watchdog = watchdog.unwrap_or_else(|| {
        Watchdog::new(SloConfig::default(), derive_seed(seed, stream::WATCHDOG))
    });
    let _ = churned.metrics().recorder().reset_window();

    // Resolve the coalition's sybil points to overlay ids before picking
    // the observer, so the anchor is never a coalition plant.
    let sybils: Vec<NodeId> = coalition
        .as_ref()
        .map(|c| sybil_ids(&churned, &c.sybil_points))
        .unwrap_or_default();
    let sybil_set: std::collections::HashSet<NodeId> = sybils.iter().copied().collect();

    // The correlated-outage driver (specs with domain structure). Its
    // checkpoints are draw indices, applied inside the draw loop.
    let mut outage = spec
        .domains
        .as_ref()
        .map(|d| OutageDriver::new(d, space, u64::from(spec.workload.draws)));

    // The sampling client is always an honest peer: the measurement model
    // is an honest node asking "whom do I reach?", so the anchor is fixed
    // first and exempted from adversary sampling. At fraction = 1 this
    // caps the adversary at live − 1 nodes (everyone but the observer).
    // Under a domain outage it is additionally chosen outside the
    // crashed domains — the observer's rack stays up; it is the *routes*
    // through the dead arc that degrade.
    let anchor = live
        .iter()
        .copied()
        .find(|&id| {
            !sybil_set.contains(&id)
                && outage
                    .as_ref()
                    .is_none_or(|o| !o.in_crashed_domains(churned.node(id).point()))
        })
        .expect("a sub-half coalition and a sub-total outage leave an honest observer");

    // Uniform sample without replacement from the non-anchor peers
    // (partial Fisher–Yates over the fault stream).
    let sample_existing = |count: usize, fault_rng: &mut StdRng| -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = live
            .iter()
            .copied()
            .filter(|&id| id != anchor && !sybil_set.contains(&id))
            .collect();
        let count = count.min(candidates.len());
        for i in 0..count {
            let j = fault_rng.gen_range(i..candidates.len());
            candidates.swap(i, j);
        }
        candidates.truncate(count);
        candidates
    };

    // Compile the adversary into a fault plan; coalition behaviours are
    // *merged* onto the base plan, never overwritten.
    let mut plan = FaultPlan::none();
    match &spec.adversary {
        AdversaryModel::Honest => {}
        AdversaryModel::ByzantineRouters {
            fraction,
            claim_ownership,
            eclipse_next,
        } => {
            let mut fault_rng = StdRng::seed_from_u64(derive_seed(seed, stream::FAULTS));
            let count = ((live.len() as f64 * fraction).floor() as usize).min(live.len() - 1);
            let mut routers = FaultPlan::for_nodes(sample_existing(count, &mut fault_rng));
            if !claim_ownership {
                routers = routers.without_ownership_claims();
            }
            if !eclipse_next {
                routers = routers.without_next_eclipse();
            }
            plan.merge(&routers);
        }
        AdversaryModel::Coalition { .. } => {
            let coalition = coalition.as_ref().expect("compiled above");
            plan.merge(&FaultPlan::with_behavior(
                sybils.iter().copied(),
                coalition.behavior,
            ));
            if coalition.corrupt_existing > 0 {
                let mut fault_rng = StdRng::seed_from_u64(derive_seed(seed, stream::FAULTS));
                plan.merge(&FaultPlan::with_behavior(
                    sample_existing(coalition.corrupt_existing, &mut fault_rng),
                    coalition.behavior,
                ));
            }
        }
    }
    let byzantine: std::collections::HashSet<NodeId> = plan.byzantine_nodes().into_iter().collect();

    let index_of: std::collections::HashMap<NodeId, usize> =
        live.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut draw_rng = StdRng::seed_from_u64(derive_seed(seed, stream::DRAWS));
    let mut tally = DrawTally::default();
    let mut draw_msgs = LogHistogram::new();
    let mut counts = vec![0u64; live.len()];
    let mut byz_hits = 0u64;
    let mut quorum_failures = 0u64;
    let estimate_failed;

    // Draw-phase observation windows (see [`DRAW_WINDOW`]).
    let draw_window = (DRAW_WINDOW as usize).max(5 * live.len()) as u64;
    let mut window_base = vec![0u64; live.len()];
    let mut draws_in_window = 0u64;

    // Rejoined outage members come back under fresh overlay ids; this
    // maps them to their pre-outage ids so the uniformity histogram
    // keeps one cell per ring point across the outage.
    let mut aliases: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();

    // The per-draw bookkeeping both arms share, so defended and
    // undefended accounting cannot diverge.
    let record_draw = |tally: &mut DrawTally,
                       draw_msgs: &mut LogHistogram,
                       counts: &mut [u64],
                       byz_hits: &mut u64,
                       aliases: &std::collections::HashMap<NodeId, NodeId>,
                       peer: NodeId,
                       trials: u32,
                       cost: peer_sampling::Cost| {
        tally.record(trials, cost);
        draw_msgs.record(cost.messages);
        let peer = aliases.get(&peer).copied().unwrap_or(peer);
        if let Some(&i) = index_of.get(&peer) {
            counts[i] += 1;
        }
        if byzantine.contains(&peer) {
            *byz_hits += 1;
        }
    };

    match spec.defense {
        DefenseModel::None => {
            let latency_seed = derive_seed(seed, stream::LATENCY);
            // The sampler is configured once, against the pre-outage
            // ring (a deployment would not retune mid-outage).
            let (config, est_failed) = {
                let dht =
                    ChordDht::new(&churned, anchor, latency_seed).with_fault_plan(plan.clone());
                build_sampler_config(spec, &dht, anchor, live.len())
            };
            estimate_failed = est_failed;
            let sampler = Sampler::new(config);
            let mut repair_rng = StdRng::seed_from_u64(derive_seed(seed, stream::REPAIR));
            let total = u64::from(spec.workload.draws);
            let mut next_draw = 0u64;
            // The draw loop runs in segments bounded by the outage
            // checkpoints: membership transitions need `&mut` access to
            // the overlay, so the DHT view (a shared borrow) is rebuilt
            // after each one. The latency seed is reused verbatim — the
            // default latency model is constant, so the view's RNG draws
            // nothing and the rebuild perturbs no stream.
            while next_draw < total {
                if let Some(o) = outage.as_mut() {
                    if next_draw == o.crash_at {
                        o.apply_crash(&mut churned, anchor);
                    }
                    if next_draw == o.heal_at {
                        aliases.extend(o.apply_heal(&mut churned, anchor, &mut repair_rng));
                    }
                }
                let segment_end = outage
                    .as_ref()
                    .and_then(|o| {
                        [o.crash_at, o.heal_at]
                            .into_iter()
                            .filter(|&b| b > next_draw && b < total)
                            .min()
                    })
                    .unwrap_or(total);
                let dht =
                    ChordDht::new(&churned, anchor, latency_seed).with_fault_plan(plan.clone());
                for _ in next_draw..segment_end {
                    let ok = match sampler.sample(&dht, &mut draw_rng) {
                        Ok(s) => {
                            record_draw(
                                &mut tally,
                                &mut draw_msgs,
                                &mut counts,
                                &mut byz_hits,
                                &aliases,
                                s.peer,
                                s.trials,
                                s.cost,
                            );
                            true
                        }
                        Err(_) => {
                            tally.failed += 1;
                            false
                        }
                    };
                    if let Some(o) = outage.as_mut() {
                        o.record_draw(ok);
                    }
                    draws_in_window += 1;
                    if draws_in_window == draw_window {
                        let (outcomes, suppress) = outage_close_args(&mut outage);
                        close_draw_window(
                            &mut watchdog,
                            &churned,
                            &mut window_base,
                            &counts,
                            outcomes.as_ref(),
                            suppress,
                        );
                        draws_in_window = 0;
                    }
                }
                next_draw = segment_end;
            }
        }
        DefenseModel::Quorum { entries } => {
            // Specs with domain structure validate as undefended, so the
            // quorum path never sees an outage checkpoint.
            let net = &churned;
            let views = adversary::spread_verified_views(
                net,
                anchor,
                &plan,
                entries,
                derive_seed(seed, stream::LATENCY),
            );
            let view_refs: Vec<&ChordDht> = views.iter().collect();
            let (config, est_failed) = build_sampler_config(spec, view_refs[0], anchor, live.len());
            estimate_failed = est_failed;
            let sampler = DefendedSampler::new(config);
            // Registered here, not in `chord` — the adversary crate has
            // no telemetry dependency, so the defended-draw phase is
            // annotated at the call site that drives it.
            let span_verify = net
                .metrics()
                .recorder()
                .profiler()
                .span("draw;defended_verify");
            for _ in 0..spec.workload.draws {
                // Tracked sampling: quorum failures on *exhausted* draws
                // (the fully-blocked case) still reach the counter.
                match sampler.sample_tracked(&view_refs, &mut draw_rng, &mut quorum_failures) {
                    Ok(s) => {
                        quorum_failures += s.quorum_failures as u64;
                        net.metrics()
                            .recorder()
                            .profiler()
                            .add(span_verify, s.cost.latency);
                        record_draw(
                            &mut tally,
                            &mut draw_msgs,
                            &mut counts,
                            &mut byz_hits,
                            &aliases,
                            s.peer,
                            s.trials,
                            s.cost,
                        )
                    }
                    Err(_) => tally.failed += 1,
                }
                draws_in_window += 1;
                if draws_in_window == draw_window {
                    close_draw_window(&mut watchdog, net, &mut window_base, &counts, None, false);
                    draws_in_window = 0;
                }
            }
        }
    }
    // Flush the final partial window: every run observes the post-churn
    // ring state at least once, so recoveries are confirmable.
    if draws_in_window > 0 {
        let (outcomes, suppress) = outage_close_args(&mut outage);
        close_draw_window(
            &mut watchdog,
            &churned,
            &mut window_base,
            &counts,
            outcomes.as_ref(),
            suppress,
        );
    }
    // The async engine phase (specs with engine structure) runs after
    // the draw loop, so draw windows and engine windows never interleave
    // and the age-rule verdicts are attributable to the engine workload.
    let engine_phase = spec
        .engine
        .as_ref()
        .map(|e| run_engine_phase(e, &churned, &plan, &mut watchdog, space, seed));
    let net = &churned;

    let (tv, ratio, chi_p) = uniformity(&counts);
    let byz_population_share = byzantine.len() as f64 / live.len() as f64;
    let byz_sample_share = if tally.ok == 0 {
        0.0
    } else {
        byz_hits as f64 / tally.ok as f64
    };
    // Staleness at sampling time: what the maintenance budget did not
    // repair (the verify_ring read is O(1) off the incremental ledger).
    let finger_staleness = 1.0 - net.verify_ring().finger_accuracy;
    let maintenance_backlog = if spec.chord.maintenance.budget().is_some() {
        net.maintenance_backlog() as u64
    } else {
        0
    };
    let recorder = net.metrics().recorder();
    let hop_hist = recorder.histogram_snapshot(net.counters().hop_hist);
    let trace_digest = if tracing {
        format!("{:016x}", recorder.trace_digest())
    } else {
        String::new()
    };
    let dump = tracing.then(|| TraceDump::from_recorder(recorder));
    // Tail exemplars ride each closed window's hop histogram (the final
    // partial window was flushed above, so nothing is still pending in
    // the open slot).
    let mut tail_exemplars = Vec::new();
    for window in watchdog.series().iter() {
        for (name, hist) in &window.hists {
            if name != "lookup.hops" {
                continue;
            }
            for e in hist.exemplars() {
                tail_exemplars.push(TailExemplar {
                    window: window.index,
                    bucket_upper: LogHistogram::bucket_upper(e.bucket),
                    value: e.value,
                    trace_id: e.trace_id,
                });
            }
        }
    }
    let span_costs = recorder.profiler().totals();
    let record = SeedRunRecord {
        backend: Backend::Chord.name().to_string(),
        seed,
        live_peers: live.len() as u64,
        anchor_point: net.node(anchor).point(),
        byzantine_peers: byzantine.len() as u64,
        samples_ok: tally.ok,
        samples_failed: tally.failed,
        estimate_failed,
        mean_trials: DrawTally::mean(tally.trials, tally.ok),
        mean_messages: DrawTally::mean(tally.messages, tally.ok),
        mean_latency: DrawTally::mean(tally.latency, tally.ok),
        tv_from_uniform: tv,
        max_min_ratio: ratio,
        chi_square_p: chi_p,
        byzantine_population_share: byz_population_share,
        byzantine_sample_share: byz_sample_share,
        committee_capture_p: majority_capture_probability(byz_sample_share, COMMITTEE_SIZE),
        committee_capture_p_uniform: majority_capture_probability(
            byz_population_share,
            COMMITTEE_SIZE,
        ),
        quorum_failures,
        finger_staleness,
        maintenance_backlog,
        hop_p50: hop_hist.p50(),
        hop_p99: hop_hist.p99(),
        hop_p999: hop_hist.p999(),
        draw_msgs_p50: draw_msgs.p50(),
        draw_msgs_p99: draw_msgs.p99(),
        watchdog_windows: watchdog.windows_observed(),
        health_breaches: watchdog.breaches(),
        time_to_detect: watchdog.time_to_detect(),
        time_to_recover: watchdog.time_to_recover(),
        outage_draws: outage.as_ref().map_or(0, |o| o.outage_draws),
        outage_ok: outage.as_ref().map_or(0, |o| o.outage_ok),
        outage_success_ratio: outage.as_ref().map_or(1.0, |o| o.success_ratio()),
        engine_lookups: engine_phase.as_ref().map_or(0, |e| e.lookups),
        engine_completed: engine_phase.as_ref().map_or(0, |e| e.completed),
        engine_timeouts: engine_phase.as_ref().map_or(0, |e| e.timeouts),
        engine_age_p50: engine_phase.as_ref().map_or(0, |e| e.age_p50),
        engine_age_p99: engine_phase.as_ref().map_or(0, |e| e.age_p99),
        engine_age_p999: engine_phase.as_ref().map_or(0, |e| e.age_p999),
        engine_ttd: engine_phase.as_ref().map_or(-1, |e| e.ttd),
        engine_ttr: engine_phase.as_ref().map_or(0, |e| e.ttr),
        engine_digest: engine_phase
            .as_ref()
            .map_or_else(String::new, |e| e.digest.clone()),
        health_events: watchdog
            .events()
            .iter()
            .map(chord::HealthEvent::render)
            .collect(),
        series: watchdog_series(&watchdog, outage.is_some(), engine_phase.is_some()),
        exemplar_count: tail_exemplars.len() as u64,
        tail_exemplars,
        span_costs,
        trace_digest,
        counters: net.metrics().snapshot(),
    };
    (record, dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementModel;

    fn quick(spec: &mut ScenarioSpec) {
        spec.n_initial = 96;
        spec.workload.draws = 400;
    }

    #[test]
    fn records_are_a_pure_function_of_spec_backend_seed() {
        let mut spec = ScenarioSpec::preset_crash_churn();
        quick(&mut spec);
        for backend in [Backend::Oracle, Backend::Chord] {
            let a = run_scenario_seed(&spec, backend, 42);
            let b = run_scenario_seed(&spec, backend, 42);
            assert_eq!(a, b, "{backend:?} must be deterministic");
            let c = run_scenario_seed(&spec, backend, 43);
            assert_ne!(a, c, "{backend:?} must vary with the seed");
        }
    }

    #[test]
    fn records_carry_exemplars_and_span_costs() {
        let mut spec = ScenarioSpec::preset_crash_churn();
        quick(&mut spec);
        // Retain every draw-phase trace so exemplar ids must resolve
        // (draws issue several routed attempts each; exemplars are
        // keep-first, so a small ring would evict exactly their traces).
        spec.telemetry.flight_recorder_capacity = 1 << 20;
        let r = run_scenario_seed(&spec, Backend::Chord, 42);
        assert!(r.exemplar_count > 0, "chord arms must claim exemplars");
        assert_eq!(r.exemplar_count as usize, r.tail_exemplars.len());
        assert!(r.span_costs["lookup;finger_walk"] > 0);
        assert!(r.span_costs.contains_key("maintenance;repair"));

        // A traced replay of the same cell resolves exemplar ids to
        // concrete traces whose hop count is the exemplar's value.
        let (replayed, dump) = run_scenario_seed_traced(&spec, Backend::Chord, 42);
        assert_eq!(replayed.tail_exemplars, r.tail_exemplars);
        assert_eq!(replayed.span_costs, r.span_costs);
        let by_ordinal: BTreeMap<u64, &telemetry::LookupTrace> =
            dump.traces.iter().map(|t| (t.ordinal, t)).collect();
        let matched: Vec<&TailExemplar> = r
            .tail_exemplars
            .iter()
            .filter(|e| by_ordinal.contains_key(&e.trace_id))
            .collect();
        assert!(
            !matched.is_empty(),
            "some exemplar must resolve to a retained trace"
        );
        for e in matched {
            let t = by_ordinal[&e.trace_id];
            assert_eq!(
                t.hops.len() as u64,
                e.value,
                "the replayed trace must land in the exemplar's bucket"
            );
            assert!(e.value <= e.bucket_upper);
        }

        // Oracle arms have no routing substrate: no exemplars, no spans.
        let o = run_scenario_seed(&spec, Backend::Oracle, 42);
        assert_eq!(o.exemplar_count, 0);
        assert!(o.tail_exemplars.is_empty());
        assert!(o.span_costs.is_empty());
    }

    #[test]
    fn honest_static_is_uniform_and_cheap_on_both_backends() {
        let mut spec = ScenarioSpec::preset_honest_static();
        quick(&mut spec);
        spec.workload.draws = 3_000;
        for backend in [Backend::Oracle, Backend::Chord] {
            let r = run_scenario_seed(&spec, backend, 7);
            assert_eq!(r.samples_failed, 0, "{backend:?}");
            assert_eq!(r.samples_ok, 3_000);
            assert!(
                r.tv_from_uniform < 0.35,
                "{backend:?} tv {}",
                r.tv_from_uniform
            );
            assert!(r.chi_square_p > 1e-4, "{backend:?} p {}", r.chi_square_p);
            assert!(r.mean_messages > 0.0);
        }
    }

    #[test]
    fn backends_are_paired_and_cost_within_a_constant_factor() {
        let mut spec = ScenarioSpec::preset_honest_static();
        quick(&mut spec);
        let oracle = run_scenario_seed(&spec, Backend::Oracle, 9);
        let chord = run_scenario_seed(&spec, Backend::Chord, 9);
        // Same placement stream: identical populations.
        assert_eq!(oracle.live_peers, chord.live_peers);
        // Both are Theta(log n) message machines; the oracle charges the
        // synthetic ceil(log2 n) per lookup while Chord pays measured hops
        // (~ half that on a healthy ring), so they agree to a constant.
        let ratio = chord.mean_messages / oracle.mean_messages;
        assert!(
            (0.2..5.0).contains(&ratio),
            "per-draw messages diverged: chord {} vs oracle {}",
            chord.mean_messages,
            oracle.mean_messages
        );
    }

    #[test]
    fn byzantine_routers_bias_chord_but_not_oracle() {
        let mut spec = ScenarioSpec::preset_byzantine_routers();
        quick(&mut spec);
        spec.workload.draws = 800;
        let chord = run_scenario_seed(&spec, Backend::Chord, 11);
        assert!(chord.byzantine_peers > 0);
        assert!(
            chord.byzantine_sample_share > 1.5 * chord.byzantine_population_share,
            "capture attack must overrepresent the adversary ({} vs {})",
            chord.byzantine_sample_share,
            chord.byzantine_population_share
        );
        let oracle = run_scenario_seed(&spec, Backend::Oracle, 11);
        assert_eq!(oracle.byzantine_peers, 0, "no routing to subvert");
        assert_eq!(oracle.byzantine_sample_share, 0.0);
    }

    #[test]
    fn crash_churn_changes_population_and_still_samples() {
        let mut spec = ScenarioSpec::preset_crash_churn();
        quick(&mut spec);
        let r = run_scenario_seed(&spec, Backend::Chord, 13);
        assert_ne!(r.live_peers, 96, "churn must move the population");
        let total = r.samples_ok + r.samples_failed;
        assert_eq!(total, 400);
        assert!(
            r.samples_ok as f64 / total as f64 > 0.9,
            "failure rate too high: {} ok / {total}",
            r.samples_ok
        );
    }

    #[test]
    fn clustered_ring_runs_and_reports_realized_population() {
        let mut spec = ScenarioSpec::preset_clustered_ring();
        quick(&mut spec);
        let r = run_scenario_seed(&spec, Backend::Oracle, 17);
        assert!(r.live_peers >= 2);
        assert_eq!(r.samples_ok + r.samples_failed, 400);
    }

    #[test]
    fn estimator_mode_works_end_to_end() {
        let mut spec = ScenarioSpec::preset_honest_static();
        quick(&mut spec);
        spec.workload.estimate_n = true;
        let r = run_scenario_seed(&spec, Backend::Oracle, 19);
        assert!(!r.estimate_failed);
        assert!(r.samples_ok > 0);
    }

    #[test]
    fn fully_byzantine_spec_runs_with_an_honest_observer() {
        // fraction = 1.0 is a valid spec; the measuring client stays
        // honest, capping the adversary at live - 1 peers.
        let mut spec = ScenarioSpec::preset_byzantine_routers();
        quick(&mut spec);
        spec.workload.draws = 100;
        spec.adversary = AdversaryModel::ByzantineRouters {
            fraction: 1.0,
            claim_ownership: true,
            eclipse_next: true,
        };
        let r = run_scenario_seed(&spec, Backend::Chord, 23);
        assert_eq!(r.byzantine_peers, r.live_peers - 1);
        assert!(
            r.byzantine_sample_share > 0.9,
            "{}",
            r.byzantine_sample_share
        );
    }

    #[test]
    fn full_spread_clustered_placement_runs() {
        // spread_fraction = 1.0 degenerates to uniform-per-cluster over
        // the whole ring; must not panic on the 2^64 modulus.
        let mut spec = ScenarioSpec::preset_clustered_ring();
        quick(&mut spec);
        spec.workload.draws = 100;
        spec.placement = PlacementModel::Clustered {
            clusters: 4,
            spread_fraction: 1.0,
        };
        let r = run_scenario_seed(&spec, Backend::Oracle, 29);
        assert!(r.samples_ok > 0);
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn invalid_specs_are_rejected() {
        let mut spec = ScenarioSpec::preset_honest_static();
        spec.workload.draws = 0;
        let _ = run_scenario_seed(&spec, Backend::Oracle, 1);
    }

    #[test]
    fn tail_percentiles_and_counters_populate_per_backend() {
        let mut spec = ScenarioSpec::preset_honest_static();
        quick(&mut spec);
        let chord = run_scenario_seed(&spec, Backend::Chord, 31);
        // Chord routes: hop tails are measured and ordered.
        assert!(chord.hop_p99 > 0, "routed lookups must record hops");
        assert!(chord.hop_p50 <= chord.hop_p99 && chord.hop_p99 <= chord.hop_p999);
        // The paper's bound at this size, with the histogram's 1/16 slack.
        let log_n = (chord.live_peers as f64).log2();
        assert!(
            (chord.hop_p99 as f64) <= 4.0 * log_n + 4.0,
            "hop p99 {} breaks O(log n) on a healthy ring",
            chord.hop_p99
        );
        assert!(chord.draw_msgs_p50 > 0 && chord.draw_msgs_p50 <= chord.draw_msgs_p99);
        assert!(!chord.counters.is_empty(), "chord arms snapshot counters");
        assert!(chord.counters.contains_key("lookup.hops"), "{:?}", {
            chord.counters.keys().collect::<Vec<_>>()
        });
        assert!(chord.trace_digest.is_empty(), "tracing defaults off");
        // The oracle has no routing substrate: hop tails and counters are
        // empty, but per-draw message tails still report synthetic cost.
        let oracle = run_scenario_seed(&spec, Backend::Oracle, 31);
        assert_eq!(oracle.hop_p99, 0);
        assert!(oracle.draw_msgs_p50 > 0);
        assert!(oracle.counters.is_empty());
        assert!(oracle.trace_digest.is_empty());
    }

    #[test]
    fn traced_runs_differ_only_in_the_digest_field() {
        let mut spec = ScenarioSpec::preset_honest_static();
        quick(&mut spec);
        let plain = run_scenario_seed(&spec, Backend::Chord, 37);
        let (traced, dump) = run_scenario_seed_traced(&spec, Backend::Chord, 37);
        assert!(!traced.trace_digest.is_empty());
        assert_eq!(traced.trace_digest, format!("{:016x}", dump.digest));
        assert!(dump.recorded > 0, "draws must leave traces");
        assert!(!dump.traces.is_empty());
        assert!(dump.traces.len() as u64 <= dump.recorded);
        // Tracing must not perturb the simulation: same record otherwise.
        let mut masked = traced.clone();
        masked.trace_digest = String::new();
        assert_eq!(masked, plain);
        // Replays are deterministic down to the digest.
        let (again, dump2) = run_scenario_seed_traced(&spec, Backend::Chord, 37);
        assert_eq!(again, traced);
        assert_eq!(dump2, dump);
    }

    #[test]
    fn spec_level_tracing_populates_the_digest_and_oracle_dumps_are_empty() {
        let mut spec = ScenarioSpec::preset_honest_static();
        quick(&mut spec);
        spec.telemetry.trace_lookups = true;
        spec.telemetry.flight_recorder_capacity = 8;
        let r = run_scenario_seed(&spec, Backend::Chord, 41);
        assert!(!r.trace_digest.is_empty());
        let (oracle, dump) = run_scenario_seed_traced(&spec, Backend::Oracle, 41);
        assert!(oracle.trace_digest.is_empty(), "no routing, no traces");
        assert_eq!(dump.recorded, 0);
        assert!(dump.traces.is_empty());
    }

    fn quick_domain_arm(name: &str, draws: u32) -> ScenarioSpec {
        let mut spec = ScenarioSpec::domain_battery()
            .into_iter()
            .find(|s| s.name == name)
            .expect("battery arm exists");
        quick(&mut spec);
        spec.workload.draws = draws;
        spec
    }

    #[test]
    fn domain_outage_measures_degradation_and_adaptive_recovery() {
        let baseline = quick_domain_arm("domain-outage-baseline", 1_500);
        let adaptive = quick_domain_arm("domain-outage-adaptive", 1_500);
        let base = run_scenario_seed(&baseline, Backend::Chord, 51);
        let resilient = run_scenario_seed(&adaptive, Backend::Chord, 51);

        // Both arms ran the same outage window: [0.25, 0.75) of 1500.
        assert_eq!(base.outage_draws, 750);
        assert_eq!(resilient.outage_draws, 750);
        // A quarter of the ring dying as one arc must actually hurt the
        // plain arm (dead successor chains longer than r fail routes)...
        assert!(
            base.outage_success_ratio < 0.99,
            "baseline survived the outage unscathed: {}",
            base.outage_success_ratio
        );
        // ...while retry + fallback routing holds the SLO through it.
        assert!(
            resilient.outage_success_ratio >= 0.99,
            "adaptive arm broke the SLO: {}",
            resilient.outage_success_ratio
        );
        assert!(resilient.outage_success_ratio > base.outage_success_ratio);
        // Degradation is paid for and attributed, not free.
        assert!(resilient.counters["lookup.retries"] > 0);
        assert!(resilient.counters["lookup.fallback_depth"] > 0);
        // Two transitions (crash, heal) over two domains each.
        assert_eq!(base.counters["domain.events"], 4);
        assert_eq!(resilient.counters["domain.events"], 4);
        // Outage runs stay a pure function of (spec, backend, seed).
        assert_eq!(run_scenario_seed(&adaptive, Backend::Chord, 51), resilient);
        assert_eq!(run_scenario_seed(&baseline, Backend::Chord, 51), base);
    }

    #[test]
    fn domain_outage_breaches_the_success_slo_attributed_to_domains() {
        // 2000 draws put the outage edges on window boundaries: window 0
        // clean, windows 1–2 under the outage, window 3 healed.
        let spec = quick_domain_arm("domain-outage-baseline", 2_000);
        let r = run_scenario_seed(&spec, Backend::Chord, 53);
        assert!(r.health_breaches >= 1, "the outage must be detected");
        assert!(r.time_to_detect >= 0);
        assert!(
            r.time_to_recover >= 0,
            "the healed final window must confirm recovery: {:?}",
            r.health_events
        );
        let success_breach = r
            .health_events
            .iter()
            .find(|e| e.contains("breach success_ratio"))
            .unwrap_or_else(|| panic!("no success-ratio breach in {:?}", r.health_events));
        // The breach is attributed to the crashed domain labels.
        assert!(
            success_breach.contains("nodes=[0000000000000000,0000000000000001]"),
            "{success_breach}"
        );
        // The success-ratio gauge rides the longitudinal series.
        let success = &r.series["success_ratio"];
        assert_eq!(success.len() as u64, r.watchdog_windows);
        assert!(success.iter().any(|&v| v < 0.99), "{success:?}");
        assert!(
            success.last().is_some_and(|&v| v >= 0.99),
            "healed window must close clean: {success:?}"
        );
    }

    #[test]
    fn retry_without_outage_changes_no_accounting() {
        // A chord-only honest spec with the full adaptive arm on, no
        // domain structure: every draw succeeds the plain way, so the
        // retry/fallback counters must stay zero and the record must be
        // identical to the plain arm's except for those counter keys.
        let mut plain = ScenarioSpec::preset_honest_static();
        quick(&mut plain);
        plain.backends = vec![Backend::Chord];
        let mut armed = plain.clone();
        armed.adaptive = crate::AdaptiveRoutingSpec {
            peer_scoring: false,
            retry: true,
        };
        let p = run_scenario_seed(&plain, Backend::Chord, 59);
        let a = run_scenario_seed(&armed, Backend::Chord, 59);
        // The snapshot omits untouched counters, so "the retry machinery
        // never fired" reads as the keys being absent entirely — and the
        // whole counter map matching the plain arm's.
        assert!(!a.counters.contains_key("lookup.retries"));
        assert!(!a.counters.contains_key("lookup.fallback_depth"));
        assert_eq!(a.counters, p.counters);
        assert_eq!(a.outage_draws, 0);
        assert_eq!(a.outage_success_ratio, 1.0);
        assert_eq!(a.samples_ok, p.samples_ok);
        assert_eq!(a.mean_messages, p.mean_messages);
        assert_eq!(a.tv_from_uniform, p.tv_from_uniform);
        assert_eq!(a.series, p.series);
    }

    #[test]
    fn defended_draws_are_attributed_with_tail_costs() {
        let mut spec = ScenarioSpec::preset_sybil_arc_capture().with_defense(3);
        quick(&mut spec);
        let r = run_scenario_seed(&spec, Backend::Chord, 43);
        // Quorum redundancy multiplies the per-draw message tail over the
        // mean: p99 must sit at or above the defended mean cost.
        assert!(r.draw_msgs_p99 as f64 >= r.mean_messages);
        assert!(r.counters.contains_key("lookup.hops"));
    }

    #[test]
    fn chord_latency_spec_scales_accounted_latency_with_messages() {
        // Regression for the silent no-op this PR fixes: before the
        // `chord.latency` knob existed, run_chord never called
        // `with_latency`, so every chord arm ran at the unit-constant
        // model regardless of intent. Under `Constant{ticks}` every
        // message costs exactly `ticks`, so the accounted draw latency
        // must be exactly `ticks ×` the message count — and the unit arm
        // must differ from the scaled arm in latency *only*.
        let mut unit = ScenarioSpec::preset_honest_static();
        quick(&mut unit);
        unit.backends = vec![Backend::Chord];
        let mut scaled = unit.clone();
        scaled.chord.latency = Some(crate::LatencySpec::Constant { ticks: 7 });
        let u = run_scenario_seed(&unit, Backend::Chord, 61);
        let s = run_scenario_seed(&scaled, Backend::Chord, 61);
        assert!(s.samples_ok > 0);
        assert!(
            (s.mean_latency - 7.0 * s.mean_messages).abs() < 1e-9,
            "constant(7) must charge 7 ticks per message: latency {} messages {}",
            s.mean_latency,
            s.mean_messages
        );
        // Routing is latency-independent: same draws, same messages.
        assert_eq!(s.samples_ok, u.samples_ok);
        assert_eq!(s.mean_messages, u.mean_messages);
        assert!((u.mean_latency - u.mean_messages).abs() < 1e-9);
    }

    fn quick_engine_arm(name: &str) -> ScenarioSpec {
        let mut spec = ScenarioSpec::engine_battery()
            .into_iter()
            .find(|s| s.name == name)
            .expect("battery arm exists");
        spec.n_initial = 128;
        spec.workload.draws = 400;
        spec
    }

    #[test]
    fn engine_phase_detects_the_slow_sector_and_replays_byte_identically() {
        let baseline = quick_engine_arm("engine-slowdomain-baseline");
        let adaptive = quick_engine_arm("engine-slowdomain-adaptive");
        let base = run_scenario_seed(&baseline, Backend::Chord, 71);
        let resilient = run_scenario_seed(&adaptive, Backend::Chord, 71);

        for (r, name) in [(&base, "baseline"), (&resilient, "adaptive")] {
            // Exactly-once: every submitted lookup completed (the slow
            // sector is alive, so nothing may fail).
            assert_eq!(r.engine_lookups, 2_000, "{name}");
            assert_eq!(r.engine_completed, r.engine_lookups, "{name}");
            // The delay fault is *detected* by the in-flight-age rule —
            // within two windows of the slowdown starting — and the
            // rule recovers once the sector speeds back up.
            assert!(
                (0..=2).contains(&r.engine_ttd),
                "{name} ttd {} events {:?}",
                r.engine_ttd,
                r.health_events
            );
            assert!(
                r.engine_ttr >= 0,
                "{name} must confirm recovery: {:?}",
                r.health_events
            );
            assert!(
                r.health_events
                    .iter()
                    .any(|e| e.contains("breach inflight_age")),
                "{name}: {:?}",
                r.health_events
            );
            // The age gauge rides the longitudinal series.
            assert!(r.series.contains_key("engine_age_p99"), "{name}");
            assert!(!r.engine_digest.is_empty(), "{name}");
            assert!(r.engine_age_p999 >= r.engine_age_p99, "{name}");
            assert!(r.engine_age_p99 >= r.engine_age_p50, "{name}");
        }
        // Deadlines fired on the adaptive arm (at this seed) and
        // preempted late walks into the retry tiers — every preempted
        // walk still completed exactly once (checked above). The tail
        // itself is reported, not gated against the baseline: with a
        // regional delay fault the slow owner probe is unavoidable, so
        // preemption bounds *attempts*, not the worst-case age.
        assert!(resilient.engine_timeouts > 0);
        assert_eq!(
            resilient.counters["engine.timeouts"],
            resilient.engine_timeouts
        );
        // The fault is visible in both arms' tails: the p999 completion
        // age carries at least one 32×-slowed 4-tick hop.
        assert!(base.engine_age_p999 >= 128);
        assert!(resilient.engine_age_p999 >= 128);
        // Engine runs stay a pure function of (spec, backend, seed):
        // the whole record — engine digest included — replays.
        assert_eq!(run_scenario_seed(&adaptive, Backend::Chord, 71), resilient);
        assert_eq!(run_scenario_seed(&baseline, Backend::Chord, 71), base);
    }

    #[test]
    fn engine_free_specs_carry_no_engine_columns() {
        let mut spec = ScenarioSpec::preset_honest_static();
        quick(&mut spec);
        for backend in [Backend::Oracle, Backend::Chord] {
            let r = run_scenario_seed(&spec, backend, 73);
            assert_eq!(r.engine_lookups, 0);
            assert_eq!(r.engine_completed, 0);
            assert_eq!(r.engine_ttd, -1);
            assert_eq!(r.engine_ttr, 0);
            assert!(r.engine_digest.is_empty());
            assert!(!r.series.contains_key("engine_age_p99"));
        }
    }
}
