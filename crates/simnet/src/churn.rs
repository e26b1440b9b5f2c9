//! Churn workload generation.
//!
//! The paper's conclusion lists "evaluate it in practice" as an open
//! problem; experiment E11 does exactly that by running the sampler on a
//! Chord ring under membership churn. This module generates the membership
//! event schedule: node arrivals as a Poisson process, per-node session
//! lifetimes exponentially distributed (the standard M/M/∞ churn model used
//! in DHT studies).
//!
//! Correlated outages are not churn events. A rack-sized crash takes a
//! whole [`DomainMap`](crate::DomainMap) sector down at once, and the
//! scenario layer drives it at draw checkpoints, outside this schedule.

use rand::Rng;

use crate::{SimDuration, SimTime};

/// What happens to a node at a churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnKind {
    /// A fresh node joins the overlay.
    Join,
    /// An existing node departs gracefully (notifying neighbours).
    Leave,
    /// An existing node crashes silently.
    Crash,
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the change happens.
    pub time: SimTime,
    /// Join, leave, or crash.
    pub kind: ChurnKind,
}

/// Parameters of the M/M/∞ churn model.
///
/// # Example
///
/// ```
/// use simnet::churn::ChurnConfig;
/// use simnet::SimDuration;
/// use rand::SeedableRng;
///
/// let cfg = ChurnConfig {
///     arrivals_per_1000_ticks: 50.0,
///     mean_lifetime: SimDuration::from_ticks(10_000),
///     crash_fraction: 0.25,
///     horizon: SimDuration::from_ticks(100_000),
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let schedule = cfg.generate(&mut rng);
/// assert!(!schedule.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Mean node arrivals per 1000 ticks (Poisson rate).
    pub arrivals_per_1000_ticks: f64,
    /// Mean session length; departures are scheduled `Exp(1/mean)` after
    /// the corresponding join.
    pub mean_lifetime: SimDuration,
    /// Fraction of departures that are crashes instead of graceful leaves,
    /// in `[0, 1]`.
    pub crash_fraction: f64,
    /// Generate events up to this time.
    pub horizon: SimDuration,
}

impl ChurnConfig {
    /// Generates the full event schedule, sorted by time.
    ///
    /// Departures whose lifetime extends beyond the horizon are dropped
    /// (the node simply survives the experiment).
    ///
    /// # Panics
    ///
    /// Panics if rates or fractions are out of range.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<ChurnEvent> {
        assert!(
            self.arrivals_per_1000_ticks > 0.0 && self.arrivals_per_1000_ticks.is_finite(),
            "arrival rate must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.crash_fraction),
            "crash fraction must be in [0, 1]"
        );
        assert!(
            !self.mean_lifetime.is_zero(),
            "mean lifetime must be positive"
        );
        let horizon = self.horizon.ticks() as f64;
        let mean_gap = 1000.0 / self.arrivals_per_1000_ticks;
        let mean_life = self.mean_lifetime.ticks() as f64;

        let mut events = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += exponential(rng, mean_gap);
            if t >= horizon {
                break;
            }
            let join_at = SimTime::from_ticks(t as u64);
            events.push(ChurnEvent {
                time: join_at,
                kind: ChurnKind::Join,
            });
            let life = exponential(rng, mean_life);
            let depart = t + life;
            if depart < horizon {
                let kind = if rng.gen::<f64>() < self.crash_fraction {
                    ChurnKind::Crash
                } else {
                    ChurnKind::Leave
                };
                events.push(ChurnEvent {
                    time: SimTime::from_ticks(depart as u64),
                    kind,
                });
            }
        }
        events.sort_by_key(|e| e.time);
        events
    }
}

/// One phase of a piecewise-stationary churn schedule.
///
/// Each phase runs its own M/M/∞ parameters for `duration`; chaining
/// phases expresses the non-stationary workloads the static model cannot —
/// churn storms (a high-rate, crash-heavy phase between calm ones) and
/// flash crowds (an arrival burst with long lifetimes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPhase {
    /// How long this phase lasts.
    pub duration: SimDuration,
    /// Mean node arrivals per 1000 ticks during the phase.
    pub arrivals_per_1000_ticks: f64,
    /// Mean session length for nodes that join during the phase.
    pub mean_lifetime: SimDuration,
    /// Fraction of those nodes' departures that are crashes, in `[0, 1]`.
    pub crash_fraction: f64,
}

/// A multi-phase churn schedule (piecewise-stationary M/M/∞).
///
/// # Example: a churn storm between two calm phases
///
/// ```
/// use simnet::churn::{ChurnPhase, ChurnSchedule};
/// use simnet::SimDuration;
/// use rand::SeedableRng;
///
/// let calm = ChurnPhase {
///     duration: SimDuration::from_ticks(10_000),
///     arrivals_per_1000_ticks: 5.0,
///     mean_lifetime: SimDuration::from_ticks(50_000),
///     crash_fraction: 0.1,
/// };
/// let storm = ChurnPhase {
///     duration: SimDuration::from_ticks(5_000),
///     arrivals_per_1000_ticks: 200.0,
///     mean_lifetime: SimDuration::from_ticks(2_000),
///     crash_fraction: 0.9,
/// };
/// let schedule = ChurnSchedule::new(vec![calm, storm, calm]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let events = schedule.generate(&mut rng);
/// assert!(!events.is_empty());
/// assert_eq!(schedule.horizon().ticks(), 25_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    phases: Vec<ChurnPhase>,
}

impl ChurnSchedule {
    /// Builds a schedule from phases, run back to back.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has a zero duration.
    pub fn new(phases: Vec<ChurnPhase>) -> ChurnSchedule {
        assert!(
            !phases.is_empty(),
            "a churn schedule needs at least one phase"
        );
        assert!(
            phases.iter().all(|p| !p.duration.is_zero()),
            "churn phases must have positive duration"
        );
        ChurnSchedule { phases }
    }

    /// A single-phase schedule equivalent to `config`.
    pub fn constant(config: ChurnConfig) -> ChurnSchedule {
        ChurnSchedule::new(vec![ChurnPhase {
            duration: config.horizon,
            arrivals_per_1000_ticks: config.arrivals_per_1000_ticks,
            mean_lifetime: config.mean_lifetime,
            crash_fraction: config.crash_fraction,
        }])
    }

    /// The phases, in order.
    pub fn phases(&self) -> &[ChurnPhase] {
        &self.phases
    }

    /// Total schedule length (sum of phase durations).
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_ticks(self.phases.iter().map(|p| p.duration.ticks()).sum())
    }

    /// Generates the full event schedule, sorted by time.
    ///
    /// Arrivals in each phase follow that phase's Poisson rate; each
    /// arrival's lifetime is drawn from its join phase's distribution.
    /// Departures beyond the overall horizon are dropped (the node
    /// survives the run), matching [`ChurnConfig::generate`].
    ///
    /// # Panics
    ///
    /// Panics if any phase's rates or fractions are out of range.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<ChurnEvent> {
        let horizon = self.horizon().ticks() as f64;
        let mut events = Vec::new();
        let mut phase_start = 0.0f64;
        for phase in &self.phases {
            assert!(
                phase.arrivals_per_1000_ticks > 0.0 && phase.arrivals_per_1000_ticks.is_finite(),
                "arrival rate must be positive"
            );
            assert!(
                (0.0..=1.0).contains(&phase.crash_fraction),
                "crash fraction must be in [0, 1]"
            );
            assert!(
                !phase.mean_lifetime.is_zero(),
                "mean lifetime must be positive"
            );
            let phase_end = phase_start + phase.duration.ticks() as f64;
            let mean_gap = 1000.0 / phase.arrivals_per_1000_ticks;
            let mean_life = phase.mean_lifetime.ticks() as f64;
            let mut t = phase_start;
            loop {
                t += exponential(rng, mean_gap);
                if t >= phase_end {
                    break;
                }
                events.push(ChurnEvent {
                    time: SimTime::from_ticks(t as u64),
                    kind: ChurnKind::Join,
                });
                let depart = t + exponential(rng, mean_life);
                if depart < horizon {
                    let kind = if rng.gen::<f64>() < phase.crash_fraction {
                        ChurnKind::Crash
                    } else {
                        ChurnKind::Leave
                    };
                    events.push(ChurnEvent {
                        time: SimTime::from_ticks(depart as u64),
                        kind,
                    });
                }
            }
            phase_start = phase_end;
        }
        events.sort_by_key(|e| e.time);
        events
    }
}

/// An `Exp(1/mean)` variate via inverse CDF.
fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>();
    // 1 − u ∈ (0, 1]; ln of it is finite.
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn config() -> ChurnConfig {
        ChurnConfig {
            arrivals_per_1000_ticks: 100.0,
            mean_lifetime: SimDuration::from_ticks(5_000),
            crash_fraction: 0.5,
            horizon: SimDuration::from_ticks(50_000),
        }
    }

    #[test]
    fn schedule_is_sorted_and_within_horizon() {
        let events = config().generate(&mut rng());
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert!(events.iter().all(|e| e.time.ticks() < 50_000));
    }

    #[test]
    fn arrival_count_near_expectation() {
        // rate 100/1000 ticks × 50_000 ticks → 5000 expected joins.
        let events = config().generate(&mut rng());
        let joins = events.iter().filter(|e| e.kind == ChurnKind::Join).count() as f64;
        assert!((joins - 5000.0).abs() < 300.0, "got {joins} joins");
    }

    #[test]
    fn departures_never_exceed_joins() {
        let events = config().generate(&mut rng());
        let joins = events.iter().filter(|e| e.kind == ChurnKind::Join).count();
        let departs = events.len() - joins;
        assert!(departs <= joins);
        assert!(departs > 0, "with 5k-tick lifetimes most nodes depart");
    }

    #[test]
    fn crash_fraction_respected() {
        let events = config().generate(&mut rng());
        let crashes = events.iter().filter(|e| e.kind == ChurnKind::Crash).count() as f64;
        let leaves = events.iter().filter(|e| e.kind == ChurnKind::Leave).count() as f64;
        let frac = crashes / (crashes + leaves);
        assert!((frac - 0.5).abs() < 0.05, "crash fraction {frac}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = config().generate(&mut rng());
        let b = config().generate(&mut rng());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn zero_rate_panics() {
        let mut cfg = config();
        cfg.arrivals_per_1000_ticks = 0.0;
        let _ = cfg.generate(&mut rng());
    }

    #[test]
    #[should_panic(expected = "crash fraction")]
    fn bad_crash_fraction_panics() {
        let mut cfg = config();
        cfg.crash_fraction = 1.5;
        let _ = cfg.generate(&mut rng());
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = rng();
        let mean: f64 = (0..20000).map(|_| exponential(&mut r, 10.0)).sum::<f64>() / 20000.0;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    fn storm_schedule() -> ChurnSchedule {
        ChurnSchedule::new(vec![
            ChurnPhase {
                duration: SimDuration::from_ticks(20_000),
                arrivals_per_1000_ticks: 10.0,
                mean_lifetime: SimDuration::from_ticks(100_000),
                crash_fraction: 0.1,
            },
            ChurnPhase {
                duration: SimDuration::from_ticks(10_000),
                arrivals_per_1000_ticks: 300.0,
                mean_lifetime: SimDuration::from_ticks(3_000),
                crash_fraction: 0.9,
            },
        ])
    }

    #[test]
    fn schedule_constant_matches_config() {
        let a = config().generate(&mut rng());
        let b = ChurnSchedule::constant(config()).generate(&mut rng());
        assert_eq!(
            a, b,
            "single-phase schedule must replay ChurnConfig exactly"
        );
    }

    #[test]
    fn phased_schedule_shifts_rate_between_phases() {
        let events = storm_schedule().generate(&mut rng());
        let joins_calm = events
            .iter()
            .filter(|e| e.kind == ChurnKind::Join && e.time.ticks() < 20_000)
            .count() as f64;
        let joins_storm = events
            .iter()
            .filter(|e| e.kind == ChurnKind::Join && e.time.ticks() >= 20_000)
            .count() as f64;
        // Calm: 10/1k x 20k = 200 expected. Storm: 300/1k x 10k = 3000.
        assert!((joins_calm - 200.0).abs() < 80.0, "calm joins {joins_calm}");
        assert!(
            (joins_storm - 3000.0).abs() < 300.0,
            "storm joins {joins_storm}"
        );
    }

    #[test]
    fn phased_schedule_sorted_and_bounded() {
        let schedule = storm_schedule();
        let events = schedule.generate(&mut rng());
        assert_eq!(schedule.horizon().ticks(), 30_000);
        assert_eq!(schedule.phases().len(), 2);
        for pair in events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert!(events.iter().all(|e| e.time.ticks() < 30_000));
    }

    #[test]
    fn phased_schedule_deterministic_per_seed() {
        let a = storm_schedule().generate(&mut rng());
        let b = storm_schedule().generate(&mut rng());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_panics() {
        let _ = ChurnSchedule::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_phase_panics() {
        let _ = ChurnSchedule::new(vec![ChurnPhase {
            duration: SimDuration::from_ticks(0),
            arrivals_per_1000_ticks: 1.0,
            mean_lifetime: SimDuration::from_ticks(10),
            crash_fraction: 0.0,
        }]);
    }
}
