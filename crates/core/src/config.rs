use core::fmt;

use keyspace::KeySpace;

/// The paper's interval-measure denominator: `λ = 1/(7 n̂)`.
pub const DEFAULT_LAMBDA_DENOMINATOR: u64 = 7;

/// Default cap on rejection-sampling retries.
///
/// Theorem 7 shows each trial succeeds with probability `n·λ = Ω(1)`
/// (at worst `≈ 1/147` with the loosest legal estimate), so 4096 trials
/// fail with probability below `(1 − 1/147)^4096 < 10^{-12}` — if the cap
/// is ever hit, the configuration is wrong, not unlucky. The inflation
/// [`Estimate::to_sampler_config`](crate::Estimate::to_sampler_config)
/// derives from the probe count stays below `1/γ₁` whenever the walk
/// takes at least `1.61 ln n̂` probes, which the default `c₁` gives unless
/// the first arc alone spans almost the whole ring, so the same worst
/// case holds.
pub const DEFAULT_MAX_TRIALS: u32 = 4096;

/// Error from an inconsistent [`SamplerConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `λ = ⌊M / (denominator · n_upper)⌋` came out zero: the ring modulus
    /// is too small for this population bound. Use a bigger modulus.
    LambdaVanishes {
        /// Ring modulus.
        modulus: u128,
        /// Configured denominator.
        denominator: u64,
        /// Configured population upper bound.
        n_upper: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LambdaVanishes {
                modulus,
                denominator,
                n_upper,
            } => write!(
                f,
                "lambda is zero: modulus {modulus} < {denominator} * {n_upper}; use a larger key space"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of the *Choose Random Peer* algorithm (Figure 1).
///
/// The single load-bearing input is `n_upper`, an estimate of the peer
/// count that must satisfy `n ≤ n_upper = O(n)` with high probability —
/// this is the paper's `n′ = n̂/γ₁`. From it the sampler derives
///
/// * `λ = ⌊M / (denominator · n_upper)⌋` — each peer's exact measure of
///   ring points ([`SamplerConfig::lambda`]), and
/// * the scan bound `R = ⌈6 ln n_upper⌉` — Figure 1's "repeat `6 ln n′`
///   times" ([`SamplerConfig::step_bound`]).
///
/// In deployment, `n_upper` comes from
/// [`Estimate::to_sampler_config`](crate::Estimate::to_sampler_config),
/// which inflates the §2 estimate by the upper `n̂⁻²`-quantile of its own
/// probe count's error (1.2–1.6× at `n = 10⁶`, where the paper's `1/γ₁`
/// with Lemma 3's `γ₁ = 2/7` is 3.5×) and bounds the scan by
/// [`chernoff_step_bound`](SamplerConfig::chernoff_step_bound). Tests and
/// experiments that know the true `n` use [`SamplerConfig::new`]
/// directly, with the paper's `R = ⌈6 ln n′⌉`.
///
/// # Example
///
/// ```
/// use keyspace::KeySpace;
/// use peer_sampling::SamplerConfig;
///
/// let config = SamplerConfig::new(1000);
/// let space = KeySpace::full();
/// // Each peer owns exactly this many ring points.
/// assert_eq!(config.lambda(space).unwrap() as u128, (1u128 << 64) / 7000);
/// assert_eq!(config.step_bound(), (6.0f64 * 1000f64.ln()).ceil() as u32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    n_upper: u64,
    lambda_denominator: u64,
    max_trials: u32,
    step_limit: Option<u32>,
}

impl SamplerConfig {
    /// Creates a config for a population upper bound `n_upper ≥ n`.
    ///
    /// # Panics
    ///
    /// Panics if `n_upper == 0`.
    pub fn new(n_upper: u64) -> SamplerConfig {
        assert!(n_upper > 0, "population bound must be at least 1");
        SamplerConfig {
            n_upper,
            lambda_denominator: DEFAULT_LAMBDA_DENOMINATOR,
            max_trials: DEFAULT_MAX_TRIALS,
            step_limit: None,
        }
    }

    /// Overrides the `λ` denominator (the paper's 7). Smaller values give
    /// higher per-trial acceptance but need a stronger Lemma 4 margin; the
    /// E-ablation benches sweep this.
    ///
    /// # Panics
    ///
    /// Panics if `denominator == 0`.
    pub fn with_lambda_denominator(mut self, denominator: u64) -> SamplerConfig {
        assert!(denominator > 0, "denominator must be positive");
        self.lambda_denominator = denominator;
        self
    }

    /// Overrides the retry cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_trials == 0`.
    pub fn with_max_trials(mut self, max_trials: u32) -> SamplerConfig {
        assert!(max_trials > 0, "need at least one trial");
        self.max_trials = max_trials;
        self
    }

    /// Overrides the scan bound `R` (Figure 1's `6 ln n′`). Used by the
    /// exhaustive verification, which sets it high enough that no scan is
    /// ever truncated.
    ///
    /// # Panics
    ///
    /// Panics if `step_limit == 0`.
    pub fn with_step_limit(mut self, step_limit: u32) -> SamplerConfig {
        assert!(step_limit > 0, "step limit must be positive");
        self.step_limit = Some(step_limit);
        self
    }

    /// The configured population upper bound `n′`.
    pub fn n_upper(&self) -> u64 {
        self.n_upper
    }

    /// The `λ` denominator.
    pub fn lambda_denominator(&self) -> u64 {
        self.lambda_denominator
    }

    /// The retry cap.
    pub fn max_trials(&self) -> u32 {
        self.max_trials
    }

    /// The per-peer measure `λ` in ring points:
    /// `⌊M / (denominator · n_upper)⌋`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::LambdaVanishes`] when the modulus is too
    /// small to give every peer at least one point.
    pub fn lambda(&self, space: KeySpace) -> Result<u64, ConfigError> {
        let denom = self.lambda_denominator as u128 * self.n_upper as u128;
        let lambda = space.modulus() / denom;
        if lambda == 0 {
            Err(ConfigError::LambdaVanishes {
                modulus: space.modulus(),
                denominator: self.lambda_denominator,
                n_upper: self.n_upper,
            })
        } else {
            Ok(lambda as u64)
        }
    }

    /// The scan bound `R`: explicit override, or `⌈6 ln n_upper⌉` (at
    /// least 1).
    pub fn step_bound(&self) -> u32 {
        if let Some(limit) = self.step_limit {
            return limit;
        }
        let r = (6.0 * (self.n_upper as f64).ln()).ceil();
        (r as u32).max(1)
    }

    /// Lemma 4's scan bound at the load this configuration allows:
    /// `R = ⌈3 ln n′ / I(1/d)⌉`, where `I(ρ) = ρ − 1 − ln ρ`, `n′` is
    /// `n_upper` and `d` the `λ` denominator; at least 1 and at most `n′`.
    /// At `d = 7`, `I(1/7) ≈ 1.089`, so `R ≈ 2.8 ln n′` instead of the
    /// paper's `6 ln n′`.
    ///
    /// With `n ≤ n′` peers the load `ρ = n·λ/M` is at most `1/d`. A
    /// truncated scan loses points only if some run of `k > R`
    /// consecutive arcs sums to less than `k·λ`, which by the Chernoff
    /// bound on the Gamma lower tail has probability at most `e^{−k·I(ρ)}`
    /// per start. A union bound over the peers puts the chance of any
    /// loss near `n′⁻²`. A scan of `n′ ≥ n` steps has looped the ring,
    /// and a loop raises `T` by `M − n·λ ≥ 0`, so `n′` steps always
    /// suffice, which also bounds `d = 1`, where `I(1) = 0`.
    /// [`assignment::lost_measure`](crate::assignment::lost_measure)
    /// certifies the bound exactly on a given ring.
    ///
    /// [`step_bound`](SamplerConfig::step_bound) ignores it unless set
    /// through [`with_step_limit`](SamplerConfig::with_step_limit), as
    /// [`Estimate::to_sampler_config`](crate::Estimate::to_sampler_config)
    /// does.
    pub fn chernoff_step_bound(&self) -> u32 {
        let rho = 1.0 / self.lambda_denominator as f64;
        let rate = rho - 1.0 - rho.ln();
        let n_upper = self.n_upper as f64;
        // `f64::min` drops the NaN of `0/0` (n′ = 1, d = 1).
        let r = (3.0 * n_upper.ln() / rate).ceil().min(n_upper);
        (r.min(u32::MAX as f64) as u32).max(1)
    }
}

impl fmt::Display for SamplerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SamplerConfig(n' = {}, lambda = 1/({} n'), R = {}, max_trials = {})",
            self.n_upper,
            self.lambda_denominator,
            self.step_bound(),
            self.max_trials
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_matches_formula() {
        let space = KeySpace::with_modulus(1_000_000).unwrap();
        let cfg = SamplerConfig::new(100);
        assert_eq!(cfg.lambda(space).unwrap(), 1_000_000 / 700);
    }

    #[test]
    fn lambda_vanishes_on_tiny_ring() {
        let space = KeySpace::with_modulus(100).unwrap();
        let cfg = SamplerConfig::new(100);
        let err = cfg.lambda(space).unwrap_err();
        assert!(matches!(err, ConfigError::LambdaVanishes { .. }));
        assert!(err.to_string().contains("larger key space"));
    }

    #[test]
    fn step_bound_is_six_ln_n() {
        assert_eq!(SamplerConfig::new(1000).step_bound(), 42); // 6 ln 1000 ≈ 41.45
        assert_eq!(SamplerConfig::new(1).step_bound(), 1); // floor at 1
        assert_eq!(SamplerConfig::new(1000).with_step_limit(7).step_bound(), 7);
    }

    #[test]
    fn chernoff_step_bound_is_three_ln_n_over_the_rate() {
        // I(1/7) = 1/7 − 1 + ln 7 ≈ 1.0888; 3 ln 1000 / 1.0888 ≈ 19.03.
        assert_eq!(SamplerConfig::new(1000).chernoff_step_bound(), 20);
        // 3 ln 10⁶ / 1.0888 ≈ 38.07, against the paper's 83.
        assert_eq!(SamplerConfig::new(1_000_000).chernoff_step_bound(), 39);
        // Grows with n′ and as d falls; n′ = 1 still scans one step.
        let r = |n: u64, d: u64| {
            SamplerConfig::new(n)
                .with_lambda_denominator(d)
                .chernoff_step_bound()
        };
        assert!(r(1000, 7) < r(1_000_000, 7));
        assert!(r(1000, 7) < r(1000, 3) && r(1000, 3) < r(1000, 2));
        assert_eq!(r(1, 7), 1);
        // d = 1 leaves no Chernoff margin: the bound is a full loop, n′.
        assert_eq!(r(1000, 1), 1000);
        assert_eq!(r(1, 1), 1);
        // It does not replace the paper's bound unless applied.
        let cfg = SamplerConfig::new(1000);
        assert_eq!(cfg.step_bound(), 42);
        let applied = cfg.with_step_limit(cfg.chernoff_step_bound());
        assert_eq!(applied.step_bound(), 20);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = SamplerConfig::new(10)
            .with_lambda_denominator(5)
            .with_max_trials(9);
        assert_eq!(cfg.lambda_denominator(), 5);
        assert_eq!(cfg.max_trials(), 9);
        assert_eq!(cfg.n_upper(), 10);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_population_panics() {
        let _ = SamplerConfig::new(0);
    }

    #[test]
    fn display_mentions_parameters() {
        let s = SamplerConfig::new(10).to_string();
        assert!(s.contains("n' = 10"));
        assert!(s.contains("max_trials"));
    }
}
