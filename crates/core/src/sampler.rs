use core::fmt;

use keyspace::Point;
use rand::Rng;

use crate::{ConfigError, Cost, Dht, DhtError, SamplerConfig};

/// Error returned by [`Sampler::sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// A DHT operation failed (possible only on faulty/churning backends).
    Dht(DhtError),
    /// The rejection loop hit the retry cap — with a sane configuration
    /// this indicates a misconfigured `n_upper`, not bad luck (the
    /// default cap of 4096 trials fails with probability below `10⁻¹²`
    /// even at the loosest legal estimate).
    TrialsExhausted {
        /// Number of trials attempted.
        attempts: u32,
    },
    /// The configuration is inconsistent with the key space.
    Config(ConfigError),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Dht(e) => write!(f, "DHT operation failed: {e}"),
            SampleError::TrialsExhausted { attempts } => {
                write!(f, "no trial succeeded in {attempts} attempts")
            }
            SampleError::Config(e) => write!(f, "invalid sampler configuration: {e}"),
        }
    }
}

impl std::error::Error for SampleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SampleError::Dht(e) => Some(e),
            SampleError::Config(e) => Some(e),
            SampleError::TrialsExhausted { .. } => None,
        }
    }
}

impl From<DhtError> for SampleError {
    fn from(e: DhtError) -> SampleError {
        SampleError::Dht(e)
    }
}

impl From<ConfigError> for SampleError {
    fn from(e: ConfigError) -> SampleError {
        SampleError::Config(e)
    }
}

/// A successfully drawn uniform random peer, with full cost attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample<P> {
    /// The chosen peer — uniform over all peers (Theorem 6).
    pub peer: P,
    /// The chosen peer's ring point.
    pub point: Point,
    /// Trials used (geometric with `Ω(1)` success probability, Theorem 7).
    pub trials: u32,
    /// Total `h` lookups issued (one per trial).
    pub h_calls: u64,
    /// Total `next` steps issued (at most `R` per trial).
    pub next_calls: u64,
    /// Total messages/latency across all trials.
    pub cost: Cost,
}

/// Outcome of one deterministic trial of Figure 1 for a fixed start point.
///
/// Exposed so tests and the exhaustive verifier can drive the deterministic
/// part directly: after `s` is fixed, the algorithm either maps `s` to a
/// unique peer or rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome<P> {
    /// `s` belongs to an interval owned by this peer.
    Accepted {
        /// The owning peer.
        peer: P,
        /// The owning peer's ring point.
        point: Point,
        /// `next` steps the scan consumed.
        steps: u32,
        /// Messages/latency the scan consumed (including the `h` lookup).
        cost: Cost,
    },
    /// `s` belongs to no peer's intervals (or the scan bound truncated the
    /// walk); the caller must redraw `s`.
    Rejected {
        /// `next` steps the failed scan consumed.
        steps: u32,
        /// Messages/latency the failed scan consumed.
        cost: Cost,
    },
}

impl<P: Copy> TrialOutcome<P> {
    /// The accepted peer, if any.
    pub fn accepted_peer(&self) -> Option<P> {
        match *self {
            TrialOutcome::Accepted { peer, .. } => Some(peer),
            TrialOutcome::Rejected { .. } => None,
        }
    }

    /// `next` steps consumed by the scan.
    pub fn steps(&self) -> u32 {
        match *self {
            TrialOutcome::Accepted { steps, .. } | TrialOutcome::Rejected { steps, .. } => steps,
        }
    }

    /// Messages/latency consumed by the scan.
    pub fn cost(&self) -> Cost {
        match *self {
            TrialOutcome::Accepted { cost, .. } | TrialOutcome::Rejected { cost, .. } => cost,
        }
    }
}

/// The *Choose Random Peer* algorithm (Figure 1).
///
/// Conceptually the ring is partitioned so that every peer owns intervals
/// of total measure exactly `λ` (its own trailing arc if long enough,
/// supplemented from preceding peerless intervals otherwise). A trial draws
/// `s` uniformly, resolves `first = h(s)` and runs the exact accumulator
///
/// ```text
/// T ← |I(s, l(first))| − λ                  // accept first if T < 0 (SMALL)
/// repeat ≤ R times:
///     T ← T + |I(l(cur), l(next(cur)))| − λ
///     accept next(cur) if T < 0
/// ```
///
/// Acceptance maps each `s` to at most one peer, and each peer receives
/// **exactly `λ`** of the ring's `M` points, so conditioned on acceptance
/// the chosen peer is exactly uniform. All arithmetic is `i128`-exact; see
/// [`assignment`](crate::assignment) for the exhaustive verification.
///
/// **Deviation from the paper** (`docs/ARCHITECTURE.md`, "Deviations from
/// the paper"): Figure 1 accepts on `T ≤ 0` inside the loop but `T < 0`
/// at step 2. On the continuous circle the `T = 0` boundary has measure
/// zero, so the mixed convention is immaterial; on a discrete ring the
/// boundary is a real point and the mixed convention hands every "needy"
/// peer `λ + 1` points. We use strict `T < 0` uniformly, which is the
/// unique convention under which every peer's measure is exactly `λ` — the
/// discrete Theorem 6.
///
/// # Example
///
/// ```
/// use keyspace::{KeySpace, SortedRing};
/// use peer_sampling::{OracleDht, Sampler, SamplerConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let space = KeySpace::full();
/// let dht = OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, 100)));
/// let sampler = Sampler::new(SamplerConfig::new(100));
/// let sample = sampler.sample(&dht, &mut rng)?;
/// assert!(sample.trials >= 1);
/// # Ok::<(), peer_sampling::SampleError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    config: SamplerConfig,
}

impl Sampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: SamplerConfig) -> Sampler {
        Sampler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Draws one uniform random peer.
    ///
    /// Retries rejected trials up to `config.max_trials()` times; each
    /// trial succeeds with probability `n·λ/M = Ω(1)` (Theorem 7), so the
    /// expected number of trials is `O(1)`.
    ///
    /// # Errors
    ///
    /// * [`SampleError::Config`] — `λ` is zero on this key space.
    /// * [`SampleError::Dht`] — a lookup failed (churning backend).
    /// * [`SampleError::TrialsExhausted`] — the retry cap was hit.
    pub fn sample<D: Dht, R: Rng + ?Sized>(
        &self,
        dht: &D,
        rng: &mut R,
    ) -> Result<Sample<D::Peer>, SampleError> {
        let space = dht.space();
        let mut total_cost = Cost::FREE;
        let mut next_calls = 0u64;
        for trial in 1..=self.config.max_trials() {
            let s = space.random_point(rng);
            match self.trial(dht, s)? {
                TrialOutcome::Accepted {
                    peer,
                    point,
                    steps,
                    cost,
                } => {
                    return Ok(Sample {
                        peer,
                        point,
                        trials: trial,
                        // Exactly one h lookup per trial.
                        h_calls: trial as u64,
                        next_calls: next_calls + steps as u64,
                        cost: total_cost + cost,
                    });
                }
                TrialOutcome::Rejected { steps, cost } => {
                    next_calls += steps as u64;
                    total_cost += cost;
                }
            }
        }
        Err(SampleError::TrialsExhausted {
            attempts: self.config.max_trials(),
        })
    }

    /// Runs the deterministic part of one trial for a fixed start point
    /// `s` (everything after Figure 1's step 1).
    ///
    /// Exposed for the exhaustive uniformity verification and for
    /// experiments that want per-trial telemetry.
    ///
    /// # Errors
    ///
    /// * [`SampleError::Config`] — `λ` is zero on this key space.
    /// * [`SampleError::Dht`] — a lookup failed.
    pub fn trial<D: Dht>(&self, dht: &D, s: Point) -> Result<TrialOutcome<D::Peer>, SampleError> {
        let space = dht.space();
        let lambda = self.config.lambda(space)? as i128;

        let first = dht.h(s)?;
        let mut cost = first.cost;

        // Step 2: |I(s, l(h(s)))| < λ (SMALL) → return h(s).
        let mut t: i128 = space.distance(s, first.point).to_u128() as i128 - lambda;
        if t < 0 {
            return Ok(TrialOutcome::Accepted {
                peer: first.peer,
                point: first.point,
                steps: 0,
                cost,
            });
        }

        // Step 3: walk successors, accumulating T; accept on T < 0 (strict,
        // see the type-level docs on the discrete boundary convention).
        //
        // Exact short-circuit (behaviour-preserving; see "Deviations from
        // the paper" in docs/ARCHITECTURE.md): each step lowers T by at
        // most λ (arcs are non-negative), so once T ≥ remaining·λ the trial
        // cannot accept and is rejected immediately. This leaves the
        // accept/reject map bit-identical to Figure 1 while cutting the
        // expected cost of rejected trials from Θ(log n) next-steps to O(1).
        let bound = self.config.step_bound();
        if t >= bound as i128 * lambda {
            return Ok(TrialOutcome::Rejected { steps: 0, cost });
        }
        let mut current = first;
        for step in 1..=bound {
            let nxt = dht.next(current.peer)?;
            cost += nxt.cost;
            t += space.distance(current.point, nxt.point).to_u128() as i128 - lambda;
            if t < 0 {
                return Ok(TrialOutcome::Accepted {
                    peer: nxt.peer,
                    point: nxt.point,
                    steps: step,
                    cost,
                });
            }
            if t >= (bound - step) as i128 * lambda {
                return Ok(TrialOutcome::Rejected { steps: step, cost });
            }
            current = nxt;
        }
        Ok(TrialOutcome::Rejected { steps: bound, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleDht;
    use keyspace::{KeySpace, SortedRing};
    use rand::SeedableRng;

    fn dht(n: usize, seed: u64) -> OracleDht {
        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, n)))
    }

    #[test]
    fn sample_returns_valid_peer() {
        let d = dht(200, 1);
        let sampler = Sampler::new(SamplerConfig::new(200));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let s = sampler.sample(&d, &mut rng).unwrap();
            assert!(s.peer < d.len());
            assert_eq!(d.ring().point(s.peer), s.point);
            assert!(s.trials >= 1);
            assert!(s.cost.messages > 0);
            assert_eq!(s.h_calls, s.trials as u64);
        }
    }

    #[test]
    fn trials_are_few_in_expectation() {
        // With n_upper = n, success prob per trial is ≈ n·λ/M = 1/7.
        let d = dht(500, 3);
        let sampler = Sampler::new(SamplerConfig::new(500));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let total: u32 = (0..400)
            .map(|_| sampler.sample(&d, &mut rng).unwrap().trials)
            .sum();
        let mean = total as f64 / 400.0;
        assert!(
            (4.0..12.0).contains(&mean),
            "mean trials {mean}, expected ≈ 7"
        );
    }

    #[test]
    fn deterministic_trial_is_a_function_of_s() {
        let d = dht(100, 5);
        let sampler = Sampler::new(SamplerConfig::new(100));
        let space = d.space();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let s = space.random_point(&mut rng);
            let a = sampler.trial(&d, s).unwrap();
            let b = sampler.trial(&d, s).unwrap();
            assert_eq!(a.accepted_peer(), b.accepted_peer());
            assert_eq!(a.steps(), b.steps());
            assert_eq!(a.cost(), b.cost());
        }
    }

    #[test]
    fn s_on_peer_point_accepts_that_peer() {
        // d(s, l(h(s))) = 0 < λ: the SMALL case fires immediately.
        let d = dht(50, 7);
        let sampler = Sampler::new(SamplerConfig::new(50));
        let s = d.ring().point(13);
        let outcome = sampler.trial(&d, s).unwrap();
        assert_eq!(outcome.accepted_peer(), Some(13));
        assert_eq!(outcome.steps(), 0);
    }

    #[test]
    fn truncating_scan_only_rejects_never_redirects() {
        // Truncating the scan may convert acceptances to rejections but
        // must never change which peer an accepted point maps to. Plant a
        // ring with a tight cluster of peers after a huge gap, so the
        // cluster's tail peers need deep supplementation scans.
        let space = KeySpace::full();
        let cluster: Vec<keyspace::Point> =
            (0..30).map(|i| keyspace::Point::new(1000 + i)).collect();
        let d = OracleDht::new(SortedRing::new(space, cluster));
        let full = Sampler::new(SamplerConfig::new(30).with_step_limit(64));
        let cut = Sampler::new(SamplerConfig::new(30).with_step_limit(2));
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut truncated = 0;
        for _ in 0..2000 {
            let s = space.random_point(&mut rng);
            let a = full.trial(&d, s).unwrap().accepted_peer();
            let b = cut.trial(&d, s).unwrap().accepted_peer();
            match (a, b) {
                (Some(x), Some(y)) => assert_eq!(x, y),
                (Some(_), None) => truncated += 1,
                (None, Some(_)) => panic!("truncation cannot create acceptances"),
                (None, None) => {}
            }
        }
        assert!(truncated > 0, "a 2-step limit should truncate deep scans");
    }

    #[test]
    fn exhausted_trials_reported() {
        // An over-inflated n_upper with step limit 1 makes acceptance rare;
        // max_trials 1 makes exhaustion likely within a few attempts.
        let d = dht(10, 10);
        let sampler = Sampler::new(
            SamplerConfig::new(1_000_000)
                .with_max_trials(1)
                .with_step_limit(1),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut saw_exhaustion = false;
        for _ in 0..200 {
            if let Err(SampleError::TrialsExhausted { attempts }) = sampler.sample(&d, &mut rng) {
                assert_eq!(attempts, 1);
                saw_exhaustion = true;
                break;
            }
        }
        assert!(saw_exhaustion, "tiny λ + 1 trial should sometimes exhaust");
    }

    #[test]
    fn config_error_propagates() {
        let space = KeySpace::with_modulus(100).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let d = OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, 30)));
        let sampler = Sampler::new(SamplerConfig::new(1000)); // λ = 100/7000 = 0
        let err = sampler.sample(&d, &mut rng).unwrap_err();
        assert!(matches!(err, SampleError::Config(_)));
        assert!(err.to_string().contains("configuration"));
    }

    #[test]
    fn empty_ring_errors() {
        let space = KeySpace::full();
        let d = OracleDht::new(SortedRing::new(space, vec![]));
        let sampler = Sampler::new(SamplerConfig::new(1));
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        assert_eq!(
            sampler.sample(&d, &mut rng).unwrap_err(),
            SampleError::Dht(DhtError::EmptyRing)
        );
    }

    #[test]
    fn singleton_ring_always_returns_the_peer() {
        let space = KeySpace::full();
        let d = OracleDht::new(SortedRing::new(space, vec![keyspace::Point::new(5)]));
        let sampler = Sampler::new(SamplerConfig::new(1));
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for _ in 0..20 {
            assert_eq!(sampler.sample(&d, &mut rng).unwrap().peer, 0);
        }
    }

    #[test]
    fn cost_accumulates_across_rejected_trials() {
        let d = dht(300, 15);
        let sampler = Sampler::new(SamplerConfig::new(300));
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        // Find a multi-trial sample; its cost must exceed one h lookup.
        for _ in 0..100 {
            let s = sampler.sample(&d, &mut rng).unwrap();
            if s.trials > 1 {
                let h_cost = d.h(keyspace::Point::new(0)).unwrap().cost;
                assert!(s.cost.messages > h_cost.messages);
                return;
            }
        }
        panic!("never saw a multi-trial sample at 1/7 acceptance");
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e = SampleError::Dht(DhtError::EmptyRing);
        assert!(e.source().is_some());
        let t = SampleError::TrialsExhausted { attempts: 3 };
        assert!(t.source().is_none());
        assert!(t.to_string().contains('3'));
    }
}
