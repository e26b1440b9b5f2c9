use core::fmt;

use stats::gamma::reg_upper_gamma;

use crate::{Cost, Dht, DhtError, SamplerConfig};

/// Result of the *Estimate n* algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimate `n̂₂ = s / t` (paper notation), or the exact count when
    /// the probe walk looped the whole ring.
    pub n_hat: f64,
    /// The coarse first-stage estimate `n̂₁ = 1/d(l(p), l(next(p)))`.
    pub n_hat_coarse: f64,
    /// Number of `next` probes actually issued (the paper's `s`, possibly
    /// truncated by a full loop).
    pub probes: u64,
    /// Whether the walk returned to the origin, making `n_hat` exact.
    pub exact: bool,
    /// Total messages/latency spent.
    pub cost: Cost,
}

impl Estimate {
    /// Converts the estimate into a sampler configuration whose `n_upper`
    /// is `≥ n` with probability at least `1 − n̂⁻²`, with the scan bound
    /// [`SamplerConfig::chernoff_step_bound`] and `d = 7`. Exact estimates
    /// are used as-is, with the paper's `R`.
    ///
    /// The walk sums `s` = [`probes`](Estimate::probes) arcs, which on a
    /// random ring are i.i.d. exponential, so `n/n̂` is distributed like
    /// `Gamma(s, 1)/s`. The estimate is inflated by that law's upper
    /// `n̂⁻²`-quantile `x`: `n′ = ⌈n̂·x/s⌉`, never below `n̂`. At `n = 10⁶`
    /// with the default `c₁`, `n′/n` is 1.2–1.6, where the paper's
    /// `1/γ₁` (Lemma 3's proof constant `γ₁ = 2/7`) gives about 3.5. Each
    /// draw then needs about `7·n′/n ≈ 9.5` trials instead of 25.
    pub fn to_sampler_config(&self) -> SamplerConfig {
        if self.exact {
            return SamplerConfig::new(self.n_hat.round().max(1.0) as u64);
        }
        let s = self.probes as f64;
        let x = gamma_upper_quantile(s, self.n_hat.powi(-2));
        let config = SamplerConfig::new((self.n_hat * x / s).ceil() as u64);
        config.with_step_limit(config.chernoff_step_bound())
    }
}

/// The upper `δ`-quantile of Gamma(`a`, 1), never below `a`: the least
/// `x ≥ a` with `Q(a, x) ≤ δ`, bisected to a relative `2⁻⁴⁰` from above.
fn gamma_upper_quantile(a: f64, delta: f64) -> f64 {
    let (mut lo, mut hi) = (a, a);
    while reg_upper_gamma(a, hi) > delta {
        lo = hi;
        hi *= 2.0;
    }
    while hi - lo > hi * f64::powi(2.0, -40) {
        let mid = 0.5 * (lo + hi);
        if reg_upper_gamma(a, mid) > delta {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n_hat = {:.1}{} ({} probes, {})",
            self.n_hat,
            if self.exact { " (exact)" } else { "" },
            self.probes,
            self.cost
        )
    }
}

/// The §2 *Estimate n* algorithm.
///
/// A peer estimates the total peer count in two stages:
///
/// 1. **Coarse**: `n̂₁ = 1 / d(l(p), l(next(p)))` — by Lemma 1 the arc to
///    the immediate successor is between `1/n³` and `≈ log n / n` w.h.p.,
///    so `ln n̂₁ = Θ(ln n)`.
/// 2. **Refine**: walk `s = ⌈c₁ ln n̂₁⌉` successors, measure the total arc
///    `t` they span, and return `n̂₂ = s/t` — the local peer density. By
///    Lemma 2, `t` concentrates around `s/n`, giving a constant-factor
///    approximation (Lemma 3: within `(2/7 − ε, 6 + ε)`).
///
/// **Deviation from the paper** (`docs/ARCHITECTURE.md`, "Deviations from
/// the paper"): on small rings the walk length `s` can exceed `n`; the
/// paper implicitly assumes `s ≪ n`. We detect the walk returning to its
/// origin, in which case the count is *exact* — strictly more accurate at
/// no extra cost, and asymptotically irrelevant.
///
/// # Example
///
/// ```
/// use keyspace::{KeySpace, SortedRing};
/// use peer_sampling::{NetworkSizeEstimator, OracleDht};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let space = KeySpace::full();
/// let ring = SortedRing::new(space, space.random_points(&mut rng, 2000));
/// let dht = OracleDht::new(ring);
/// let est = NetworkSizeEstimator::default().estimate(&dht, 0)?;
/// // Lemma 3 band (slack for the small-n constant effects):
/// assert!(est.n_hat > 2000.0 * 0.2 && est.n_hat < 2000.0 * 7.0);
/// # Ok::<(), peer_sampling::DhtError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSizeEstimator {
    c1: f64,
}

impl NetworkSizeEstimator {
    /// Default probe multiplier `c₁`.
    ///
    /// The paper's proof wants a large constant (`C > 144/(α₁ε²)`); in
    /// practice the estimate is already within Lemma 3's band for modest
    /// `c₁`, and experiment E3 sweeps this to show the trade-off between
    /// probe cost and tightness. At 32 the walk takes about 460 probes at
    /// `n = 10⁶`, which tightens the `n′/n` that
    /// [`Estimate::to_sampler_config`] derives from the probe count to
    /// 1.2–1.6 (1.3–2.4 at `c₁ = 8`); a client that estimates once per
    /// thousand draws pays under one `next` per draw for it.
    pub const DEFAULT_C1: f64 = 32.0;

    /// Creates an estimator with probe multiplier `c1`.
    ///
    /// # Panics
    ///
    /// Panics unless `c1` is positive and finite.
    pub fn new(c1: f64) -> NetworkSizeEstimator {
        assert!(c1.is_finite() && c1 > 0.0, "c1 must be positive, got {c1}");
        NetworkSizeEstimator { c1 }
    }

    /// The probe multiplier.
    pub fn c1(&self) -> f64 {
        self.c1
    }

    /// Runs *Estimate n* from peer `origin`.
    ///
    /// # Errors
    ///
    /// Propagates [`DhtError`] from `next` probes (only possible on a
    /// faulty/churning DHT backend).
    pub fn estimate<D: Dht>(&self, dht: &D, origin: D::Peer) -> Result<Estimate, DhtError> {
        let space = dht.space();
        let origin_point = dht.point_of(origin)?;

        // Stage 1: n̂₁ from the arc to the immediate successor.
        let first = dht.next(origin)?;
        let mut cost = first.cost;
        if first.peer == origin {
            // Singleton ring: next(p) = p. The estimate is exact.
            return Ok(Estimate {
                n_hat: 1.0,
                n_hat_coarse: 1.0,
                probes: 1,
                exact: true,
                cost,
            });
        }
        let d1 = space.distance(origin_point, first.point);
        debug_assert!(!d1.is_zero(), "distinct peers share a point");
        let n_hat_coarse = space.modulus() as f64 / d1.to_u128() as f64;

        // Stage 2: walk s = ⌈c₁ ln n̂₁⌉ successors, summing their arcs.
        let s = (self.c1 * n_hat_coarse.ln()).ceil().max(1.0) as u64;
        let mut probes = 1u64; // the stage-1 probe is the walk's first step
        let mut span = d1.to_u128();
        let mut current = first;
        let mut exact = false;
        while probes < s {
            let step = dht.next(current.peer)?;
            cost += step.cost;
            probes += 1;
            span += space.distance(current.point, step.point).to_u128();
            current = step;
            if step.peer == origin {
                // Walked the entire ring back to the origin: the ring has
                // exactly `probes` peers.
                exact = true;
                break;
            }
        }

        let n_hat = if exact {
            probes as f64
        } else {
            // n̂₂ = s/t with t in circle fractions: s · M / span.
            probes as f64 * space.modulus() as f64 / span as f64
        };
        Ok(Estimate {
            n_hat,
            n_hat_coarse,
            probes,
            exact,
            cost,
        })
    }
}

impl Default for NetworkSizeEstimator {
    fn default() -> NetworkSizeEstimator {
        NetworkSizeEstimator::new(NetworkSizeEstimator::DEFAULT_C1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleDht;
    use keyspace::{KeySpace, Point, SortedRing};
    use rand::SeedableRng;

    fn uniform_dht(n: usize, seed: u64) -> OracleDht {
        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, n)))
    }

    #[test]
    fn estimate_within_lemma3_band() {
        for n in [500usize, 2000, 8000] {
            for seed in 0..5 {
                let dht = uniform_dht(n, seed);
                let est = NetworkSizeEstimator::default().estimate(&dht, 0).unwrap();
                let ratio = est.n_hat / n as f64;
                assert!(
                    (0.15..8.0).contains(&ratio),
                    "n = {n}, seed = {seed}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn singleton_ring_is_exact() {
        let space = KeySpace::full();
        let dht = OracleDht::new(SortedRing::new(space, vec![Point::new(42)]));
        let est = NetworkSizeEstimator::default().estimate(&dht, 0).unwrap();
        assert_eq!(est.n_hat, 1.0);
        assert!(est.exact);
    }

    #[test]
    fn tiny_ring_detects_full_loop_and_is_exact() {
        // 5 peers: s = c1·ln(n̂₁) will exceed 5, so the walk loops.
        let dht = uniform_dht(5, 3);
        let est = NetworkSizeEstimator::default().estimate(&dht, 2).unwrap();
        assert!(est.exact, "walk must detect the loop");
        assert_eq!(est.n_hat, 5.0);
    }

    #[test]
    fn probes_scale_logarithmically() {
        let small = uniform_dht(256, 1);
        let large = uniform_dht(65536, 1);
        let e_small = NetworkSizeEstimator::default().estimate(&small, 0).unwrap();
        let e_large = NetworkSizeEstimator::default().estimate(&large, 0).unwrap();
        assert!(e_large.probes > e_small.probes);
        // probes = Θ(log n): doubling the exponent should not explode them.
        assert!(
            (e_large.probes as f64) < 4.0 * e_small.probes as f64,
            "small: {}, large: {}",
            e_small.probes,
            e_large.probes
        );
    }

    #[test]
    fn cost_counts_next_probes() {
        let dht = uniform_dht(1000, 7);
        let est = NetworkSizeEstimator::default().estimate(&dht, 0).unwrap();
        // OracleDht charges 1 message per next.
        assert_eq!(est.cost.messages, est.probes);
    }

    #[test]
    fn larger_c1_gives_more_probes() {
        let dht = uniform_dht(1000, 11);
        let few = NetworkSizeEstimator::new(2.0).estimate(&dht, 0).unwrap();
        let many = NetworkSizeEstimator::new(32.0).estimate(&dht, 0).unwrap();
        assert!(many.probes > few.probes);
        assert_eq!(NetworkSizeEstimator::new(2.0).c1(), 2.0);
    }

    #[test]
    fn to_sampler_config_is_an_upper_bound_whp() {
        let n = 4000usize;
        for seed in 0..10 {
            let dht = uniform_dht(n, 100 + seed);
            let est = NetworkSizeEstimator::default().estimate(&dht, 0).unwrap();
            let cfg = est.to_sampler_config();
            assert!(
                cfg.n_upper() >= n as u64 / 2,
                "seed {seed}: n_upper {} far below n {n}",
                cfg.n_upper()
            );
        }
    }

    #[test]
    fn to_sampler_config_inflates_by_the_probe_count_quantile() {
        let est = |n_hat: f64, probes: u64| Estimate {
            n_hat,
            n_hat_coarse: n_hat,
            probes,
            exact: false,
            cost: Cost::FREE,
        };
        // At 10⁶ with ~460 probes n′/n̂ ≈ 1.36 (Wilson–Hilferty), R at d = 7.
        let cfg = est(1e6, 460).to_sampler_config();
        let ratio = cfg.n_upper() as f64 / 1e6;
        assert!((1.25..1.45).contains(&ratio), "n'/n_hat {ratio}");
        assert_eq!(cfg.lambda_denominator(), 7);
        assert_eq!(cfg.step_bound(), cfg.chernoff_step_bound());
        // x is the upper n̂⁻²-quantile of Gamma(s, 1).
        let x = ratio * 460.0;
        let tail = reg_upper_gamma(460.0, x);
        assert!((0.9e-12..=1.0e-12).contains(&tail), "Q(s, x) = {tail}");
        // Fewer probes, wider inflation; never below n̂.
        assert!(est(1e6, 60).to_sampler_config().n_upper() > cfg.n_upper());
        assert!(est(1.2, 1).to_sampler_config().n_upper() >= 2);
    }

    #[test]
    fn exact_estimate_config_not_inflated() {
        let dht = uniform_dht(5, 3);
        let est = NetworkSizeEstimator::default().estimate(&dht, 0).unwrap();
        assert!(est.exact);
        assert_eq!(est.to_sampler_config().n_upper(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_c1_panics() {
        let _ = NetworkSizeEstimator::new(0.0);
    }

    #[test]
    fn display_mentions_probes() {
        let dht = uniform_dht(100, 2);
        let est = NetworkSizeEstimator::default().estimate(&dht, 0).unwrap();
        assert!(est.to_string().contains("probes"));
    }
}
