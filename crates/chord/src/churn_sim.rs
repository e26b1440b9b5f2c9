use core::fmt;

use keyspace::KeySpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::churn::{ChurnConfig, ChurnKind};
use simnet::{EventQueue, SimDuration, SimTime};

use crate::maintenance::MaintenanceBudget;
use crate::network::{ChordNetwork, NodeId};
use crate::watchdog::Watchdog;
use crate::ChordConfig;

/// What the simulation processes at each event-queue firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Churn(ChurnKind),
    Maintenance,
}

/// Tally of a churn run, returned by [`ChurnSimulation::run_to_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnReport {
    /// Successful protocol joins.
    pub joins: u64,
    /// Joins whose bootstrap lookup failed (retried never — counted).
    pub failed_joins: u64,
    /// Graceful departures.
    pub leaves: u64,
    /// Silent crashes.
    pub crashes: u64,
    /// Maintenance rounds executed.
    pub maintenance_rounds: u64,
}

impl fmt::Display for ChurnReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} joins ({} failed), {} leaves, {} crashes, {} maintenance rounds",
            self.joins, self.failed_joins, self.leaves, self.crashes, self.maintenance_rounds
        )
    }
}

/// An event-driven Chord overlay under membership churn.
///
/// Drives a [`ChordNetwork`] from a `simnet` churn schedule interleaved
/// with periodic maintenance ticks, in deterministic event order. This is
/// the workhorse of experiment **E11** (the paper's "evaluate it in
/// practice" open problem): the sampler runs against snapshots of the
/// churning overlay, measuring failure rates and uniformity drift as churn
/// outpaces stabilization.
///
/// # Example
///
/// ```
/// use chord::{ChordConfig, ChurnSimulation};
/// use simnet::churn::ChurnConfig;
/// use simnet::SimDuration;
///
/// let churn = ChurnConfig {
///     arrivals_per_1000_ticks: 5.0,
///     mean_lifetime: SimDuration::from_ticks(20_000),
///     crash_fraction: 0.5,
///     horizon: SimDuration::from_ticks(10_000),
/// };
/// let mut sim = ChurnSimulation::new(
///     64,
///     ChordConfig::default(),
///     churn,
///     SimDuration::from_ticks(500),
///     7,
/// );
/// let report = sim.run_to_end();
/// assert!(sim.network().live_len() > 0);
/// assert!(report.maintenance_rounds > 0);
/// ```
pub struct ChurnSimulation {
    net: ChordNetwork,
    queue: EventQueue<Event>,
    clock: SimTime,
    horizon: SimTime,
    stabilize_every: SimDuration,
    round: usize,
    rng: StdRng,
    report: ChurnReport,
    replication: Option<usize>,
    /// When set, maintenance ticks run the batched incremental round
    /// under this budget instead of the classic full O(n) round.
    budget: Option<MaintenanceBudget>,
    /// When attached, each maintenance tick first closes a telemetry
    /// window and lets the watchdog observe the *pre-repair* overlay.
    watchdog: Option<Watchdog>,
}

impl ChurnSimulation {
    /// Builds a converged `initial_peers`-node overlay, then schedules the
    /// churn workload and a maintenance tick every `stabilize_every`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_peers == 0` or `stabilize_every` is zero.
    pub fn new(
        initial_peers: usize,
        config: ChordConfig,
        churn: ChurnConfig,
        stabilize_every: SimDuration,
        seed: u64,
    ) -> ChurnSimulation {
        ChurnSimulation::with_schedule(
            initial_peers,
            config,
            &simnet::churn::ChurnSchedule::constant(churn),
            stabilize_every,
            seed,
        )
    }

    /// Like [`ChurnSimulation::new`], but driven by a multi-phase
    /// [`ChurnSchedule`](simnet::churn::ChurnSchedule) — churn storms,
    /// flash crowds, or any piecewise-stationary workload.
    ///
    /// # Panics
    ///
    /// Panics if `initial_peers == 0` or `stabilize_every` is zero.
    pub fn with_schedule(
        initial_peers: usize,
        config: ChordConfig,
        schedule: &simnet::churn::ChurnSchedule,
        stabilize_every: SimDuration,
        seed: u64,
    ) -> ChurnSimulation {
        assert!(initial_peers > 0, "need at least one initial peer");
        let mut rng = StdRng::seed_from_u64(seed);
        let space = KeySpace::full();
        let points = space.random_points(&mut rng, initial_peers);
        ChurnSimulation::from_parts(points, config, schedule, stabilize_every, rng)
    }

    /// Like [`ChurnSimulation::with_schedule`], but over an explicit
    /// initial placement (clustered/skewed rings under churn) instead of
    /// i.i.d. uniform points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or `stabilize_every` is zero.
    pub fn with_schedule_over(
        points: Vec<keyspace::Point>,
        config: ChordConfig,
        schedule: &simnet::churn::ChurnSchedule,
        stabilize_every: SimDuration,
        seed: u64,
    ) -> ChurnSimulation {
        assert!(!points.is_empty(), "need at least one initial peer");
        let rng = StdRng::seed_from_u64(seed);
        ChurnSimulation::from_parts(points, config, schedule, stabilize_every, rng)
    }

    fn from_parts(
        points: Vec<keyspace::Point>,
        config: ChordConfig,
        schedule: &simnet::churn::ChurnSchedule,
        stabilize_every: SimDuration,
        mut rng: StdRng,
    ) -> ChurnSimulation {
        assert!(
            !stabilize_every.is_zero(),
            "stabilization interval must be positive"
        );
        let space = KeySpace::full();
        let net = ChordNetwork::bootstrap(space, points, config);
        let mut queue = EventQueue::new();
        let horizon = SimTime::ZERO + schedule.horizon();
        for ev in schedule.generate(&mut rng) {
            queue.schedule(ev.time, Event::Churn(ev.kind));
        }
        queue.schedule(SimTime::ZERO + stabilize_every, Event::Maintenance);
        ChurnSimulation {
            net,
            queue,
            clock: SimTime::ZERO,
            horizon,
            stabilize_every,
            round: 0,
            rng,
            report: ChurnReport::default(),
            replication: None,
            budget: None,
            watchdog: None,
        }
    }

    /// Enables storage anti-entropy: every maintenance tick also runs one
    /// [`replication_round`](ChordNetwork::replication_round) per live
    /// node at the given replication factor, so stored data chases
    /// ownership changes through the churn.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn with_replication(mut self, replicas: usize) -> ChurnSimulation {
        assert!(replicas > 0, "need at least one replica");
        self.replication = Some(replicas);
        self
    }

    /// Switches maintenance ticks to
    /// [`ChordNetwork::batched_maintenance_round`] under `budget`:
    /// each tick repairs only state the churn actually invalidated
    /// (amortized O(changes · log n)) instead of running the classic
    /// full round's O(n) routed lookups — the difference between 10⁶-
    /// and 10⁷-node churn runs. A finite budget deliberately lets a
    /// backlog accumulate; read it with
    /// [`ChordNetwork::maintenance_backlog`].
    pub fn with_maintenance_budget(mut self, budget: MaintenanceBudget) -> ChurnSimulation {
        self.budget = Some(budget);
        self
    }

    /// Attaches a health watchdog: every maintenance tick first closes
    /// the current telemetry window and hands it — together with the
    /// *pre-repair* overlay state — to [`Watchdog::observe`], so what
    /// the watchdog sees is the damage maintenance is about to fix, not
    /// the freshly repaired ring. Attachment also starts a clean window
    /// boundary, keeping bootstrap counters out of window 0.
    ///
    /// The watchdog runs on its own RNG stream, so attaching it changes
    /// neither the churn trajectory nor the resulting overlay.
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> ChurnSimulation {
        let _ = self.net.metrics().recorder().reset_window();
        self.watchdog = Some(watchdog);
        self
    }

    /// Detaches and returns the watchdog (e.g. to keep observing the
    /// overlay through a post-churn measurement phase after
    /// [`ChurnSimulation::into_network`]).
    pub fn take_watchdog(&mut self) -> Option<Watchdog> {
        self.watchdog.take()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The overlay being churned.
    pub fn network(&self) -> &ChordNetwork {
        &self.net
    }

    /// Mutable access to the overlay (e.g. to run sampler probes between
    /// [`run_until`](ChurnSimulation::run_until) calls).
    pub fn network_mut(&mut self) -> &mut ChordNetwork {
        &mut self.net
    }

    /// Consumes the simulation, returning the churned overlay (for
    /// post-churn measurement phases that outlive the schedule).
    pub fn into_network(self) -> ChordNetwork {
        self.net
    }

    /// Processes events up to and including time `until`. Returns `false`
    /// when the queue is exhausted.
    pub fn run_until(&mut self, until: SimTime) -> bool {
        while let Some((time, event)) = self.queue.pop_due(until) {
            self.clock = time;
            self.handle(event);
        }
        if self.clock < until {
            self.clock = until;
        }
        !self.queue.is_empty()
    }

    /// Runs the simulation to the end of the schedule.
    pub fn run_to_end(&mut self) -> ChurnReport {
        self.run_until(self.horizon);
        // Drain any maintenance tick scheduled exactly at the horizon.
        while let Some((time, event)) = self.queue.pop() {
            self.clock = time;
            self.handle(event);
        }
        self.report
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Churn(ChurnKind::Join) => {
                let point = self.net.space().random_point(&mut self.rng);
                match self.random_live_node() {
                    Some(via) => match self.net.join(point, via, &mut self.rng) {
                        Ok(_) => self.report.joins += 1,
                        Err(_) => self.report.failed_joins += 1,
                    },
                    None => self.report.failed_joins += 1,
                }
            }
            Event::Churn(ChurnKind::Leave) => {
                if let Some(victim) = self.random_live_node_if_plural() {
                    self.net.leave(victim);
                    self.report.leaves += 1;
                }
            }
            Event::Churn(ChurnKind::Crash) => {
                if let Some(victim) = self.random_live_node_if_plural() {
                    self.net.crash(victim);
                    self.report.crashes += 1;
                }
            }
            Event::Maintenance => {
                if let Some(watchdog) = self.watchdog.as_mut() {
                    let window = self.net.metrics().recorder().reset_window();
                    watchdog.observe(&self.net, window, None);
                }
                match self.budget {
                    Some(budget) => {
                        self.net.batched_maintenance_round(budget, &mut self.rng);
                    }
                    None => self.net.maintenance_round(self.round, &mut self.rng),
                }
                if let Some(replicas) = self.replication {
                    for id in self.net.live_ids() {
                        self.net.replication_round(id, replicas);
                    }
                }
                self.round += 1;
                self.report.maintenance_rounds += 1;
                let next = self.clock + self.stabilize_every;
                if next <= self.horizon {
                    self.queue.schedule(next, Event::Maintenance);
                }
            }
        }
    }

    fn random_live_node(&mut self) -> Option<NodeId> {
        // live_slice is maintained incrementally, so selection is O(1)
        // instead of an O(arena) rescan per churn event.
        let live = self.net.live_slice();
        if live.is_empty() {
            return None;
        }
        Some(live[self.rng.gen_range(0..live.len())])
    }

    /// A random live node, but never the last one (the overlay must not
    /// die out entirely).
    fn random_live_node_if_plural(&mut self) -> Option<NodeId> {
        let live = self.net.live_slice();
        if live.len() < 2 {
            return None;
        }
        Some(live[self.rng.gen_range(0..live.len())])
    }
}

impl fmt::Debug for ChurnSimulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChurnSimulation")
            .field("clock", &self.clock)
            .field("live", &self.net.live_len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_cfg(horizon: u64) -> ChurnConfig {
        ChurnConfig {
            arrivals_per_1000_ticks: 10.0,
            mean_lifetime: SimDuration::from_ticks(30_000),
            crash_fraction: 0.5,
            horizon: SimDuration::from_ticks(horizon),
        }
    }

    fn sim(seed: u64) -> ChurnSimulation {
        ChurnSimulation::new(
            48,
            ChordConfig::default(),
            churn_cfg(20_000),
            SimDuration::from_ticks(250),
            seed,
        )
    }

    #[test]
    fn simulation_processes_all_events() {
        let mut s = sim(1);
        let report = s.run_to_end();
        assert!(report.joins + report.failed_joins > 100, "{report}");
        assert!(report.maintenance_rounds >= 79, "{report}");
        assert!(s.network().live_len() > 0);
    }

    #[test]
    fn population_tracks_joins_minus_departures() {
        let mut s = sim(2);
        let report = s.run_to_end();
        let expected = 48 + report.joins as i64 - report.leaves as i64 - report.crashes as i64;
        assert_eq!(s.network().live_len() as i64, expected, "{report}");
    }

    #[test]
    fn run_until_is_incremental_and_monotone() {
        let mut s = sim(3);
        let t1 = SimTime::from_ticks(5_000);
        s.run_until(t1);
        assert_eq!(s.now(), t1);
        let live_mid = s.network().live_len();
        assert!(live_mid > 0);
        s.run_until(SimTime::from_ticks(20_000));
        assert!(s.now() >= t1);
    }

    #[test]
    fn deterministic_across_same_seed() {
        let mut a = sim(4);
        let mut b = sim(4);
        let ra = a.run_to_end();
        let rb = b.run_to_end();
        assert_eq!(ra, rb);
        assert_eq!(a.network().live_len(), b.network().live_len());
    }

    #[test]
    fn ring_remains_usable_under_churn() {
        let mut s = sim(5);
        s.run_until(SimTime::from_ticks(10_000));
        // Lookups still resolve correctly against the live ground truth
        // for the overwhelming majority of targets.
        let net = s.network();
        let mut rng = StdRng::seed_from_u64(99);
        let start = net.live_ids()[0];
        let mut ok = 0;
        let trials = 100;
        for _ in 0..trials {
            let target = net.space().random_point(&mut rng);
            if let Ok(hit) = net.find_successor(start, target, &mut rng) {
                if hit.point == net.ground_truth_successor(target) {
                    ok += 1;
                }
            }
        }
        assert!(
            ok >= trials * 85 / 100,
            "only {ok}/{trials} lookups correct"
        );
    }

    #[test]
    fn maintenance_converges_ring_after_churn_stops() {
        let mut s = sim(6);
        s.run_to_end();
        let mut rng = StdRng::seed_from_u64(123);
        let report = {
            let net = s.network_mut();
            for _ in 0..3 {
                net.converge(&mut rng);
            }
            net.verify_ring()
        };
        assert!(report.is_converged(), "{report:?}");
    }

    #[test]
    fn schedule_constructor_matches_config_constructor() {
        let mut a = sim(9);
        let schedule = simnet::churn::ChurnSchedule::constant(churn_cfg(20_000));
        let mut b = ChurnSimulation::with_schedule(
            48,
            ChordConfig::default(),
            &schedule,
            SimDuration::from_ticks(250),
            9,
        );
        assert_eq!(a.run_to_end(), b.run_to_end());
        assert_eq!(a.network().live_len(), b.network().live_len());
    }

    #[test]
    fn storm_phase_crashes_dominate() {
        use simnet::churn::{ChurnPhase, ChurnSchedule};
        let schedule = ChurnSchedule::new(vec![
            ChurnPhase {
                duration: SimDuration::from_ticks(10_000),
                arrivals_per_1000_ticks: 5.0,
                mean_lifetime: SimDuration::from_ticks(200_000),
                crash_fraction: 0.0,
            },
            ChurnPhase {
                duration: SimDuration::from_ticks(10_000),
                arrivals_per_1000_ticks: 100.0,
                mean_lifetime: SimDuration::from_ticks(2_000),
                crash_fraction: 1.0,
            },
        ]);
        let mut s = ChurnSimulation::with_schedule(
            64,
            ChordConfig::default(),
            &schedule,
            SimDuration::from_ticks(250),
            10,
        );
        let report = s.run_to_end();
        assert!(report.crashes > 0, "{report}");
        assert!(
            report.crashes > report.leaves,
            "storm-phase departures are all crashes: {report}"
        );
        assert!(s.network().live_len() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one initial peer")]
    fn zero_initial_peers_panics() {
        let _ = ChurnSimulation::new(
            0,
            ChordConfig::default(),
            churn_cfg(100),
            SimDuration::from_ticks(10),
            1,
        );
    }

    #[test]
    fn report_and_debug_display() {
        let mut s = sim(7);
        assert!(format!("{s:?}").contains("live"));
        let report = s.run_to_end();
        assert!(report.to_string().contains("joins"));
    }
}
