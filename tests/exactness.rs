//! The discrete Theorem 6, verified exhaustively and cross-implementation.
//!
//! Two independent implementations of the Figure-1 scan exist:
//!
//! * `peer_sampling::Sampler::trial` — the production path, generic over
//!   `Dht`, with the exact rejection short-circuit;
//! * `peer_sampling::assignment::owner_of` — the reference path, direct
//!   ring indexing, no short-circuit.
//!
//! These tests enumerate *every* point of small rings and assert the two
//! agree point-by-point (so the short-circuit provably changes nothing),
//! and that the resulting partition gives every peer exactly `λ` points.
//! At scale, `assignment::lost_measure` certifies the same in closed form.

use keyspace::{KeySpace, Point, SortedRing};
use peer_sampling::{
    assignment, NetworkSizeEstimator, OracleDht, Sampler, SamplerConfig, TrialOutcome,
};
use rand::SeedableRng;

fn small_ring(modulus: u128, n: usize, seed: u64) -> SortedRing {
    let space = KeySpace::with_modulus(modulus).expect("modulus");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    SortedRing::new(space, space.random_distinct_points(&mut rng, n))
}

/// Production trial vs reference scan, every point, multiple seeds — with
/// the paper's step bound, where the short-circuit actually fires.
#[test]
fn sampler_trial_matches_reference_scan_everywhere() {
    for seed in 0..6 {
        let n = 20usize;
        let ring = small_ring(1 << 14, n, seed);
        let lambda = (1u64 << 14) / (7 * n as u64);
        let step_bound = (6.0 * (n as f64).ln()).ceil() as u32;

        let dht = OracleDht::free(ring.clone());
        let sampler = Sampler::new(SamplerConfig::new(n as u64).with_step_limit(step_bound));
        for c in 0..(1u64 << 14) {
            let s = Point::new(c);
            let reference = assignment::owner_of(&ring, lambda, step_bound, s);
            let production = match sampler.trial(&dht, s).expect("oracle") {
                TrialOutcome::Accepted { peer, .. } => Some(peer),
                TrialOutcome::Rejected { .. } => None,
            };
            assert_eq!(
                production, reference,
                "seed {seed}, s = {c}: production and reference scans disagree"
            );
        }
    }
}

/// The partition property: with an untruncated scan, every peer owns
/// exactly λ ring points, for a spread of ring sizes and populations.
#[test]
fn every_peer_owns_exactly_lambda_points() {
    let cases = [
        (1u128 << 12, 5usize),
        (1 << 14, 17),
        (1 << 16, 64),
        (1 << 16, 200),
    ];
    for (i, &(modulus, n)) in cases.iter().enumerate() {
        let ring = small_ring(modulus, n, 100 + i as u64);
        let lambda = (modulus / (7 * n as u128)) as u64;
        assert!(lambda > 0, "test case too tight");
        let counts = assignment::measure_per_peer(&ring, lambda, n as u32 + 1);
        for (peer, &c) in counts.iter().enumerate() {
            assert_eq!(
                c, lambda,
                "modulus {modulus}, n {n}: peer {peer} owns {c} != lambda {lambda}"
            );
        }
    }
}

/// Changing the λ denominator re-partitions but keeps exactness: the
/// ablation benches rely on this.
#[test]
fn exactness_holds_for_other_lambda_denominators() {
    let n = 16usize;
    let modulus = 1u128 << 14;
    let ring = small_ring(modulus, n, 9);
    for denom in [3u128, 7, 11, 20] {
        let lambda = (modulus / (denom * n as u128)) as u64;
        let counts = assignment::measure_per_peer(&ring, lambda, n as u32 + 1);
        assert!(
            counts.iter().all(|&c| c == lambda),
            "denominator {denom}: {counts:?} != {lambda}"
        );
    }
}

/// Acceptance probability equals `n·λ/M` exactly — Theorem 7's geometric
/// trial parameter, as a counting identity rather than a statistic.
#[test]
fn acceptance_measure_is_exactly_n_lambda() {
    let n = 30usize;
    let modulus = 1u128 << 15;
    let ring = small_ring(modulus, n, 11);
    let lambda = (modulus / (7 * n as u128)) as u64;
    let owned = assignment::owner_map(&ring, lambda, n as u32 + 1)
        .into_iter()
        .flatten()
        .count() as u64;
    assert_eq!(owned, lambda * n as u64);
}

/// Drawing through the public sampler API on a small ring reproduces the
/// exhaustive distribution (sanity link between the two levels).
#[test]
fn sampled_frequencies_match_exhaustive_partition() {
    let n = 12usize;
    let modulus = 1u128 << 12;
    let ring = small_ring(modulus, n, 13);
    let dht = OracleDht::free(ring);
    let sampler = Sampler::new(SamplerConfig::new(n as u64));
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let mut counts = vec![0u64; n];
    let draws = 60_000;
    for _ in 0..draws {
        counts[sampler.sample(&dht, &mut rng).expect("sample").peer] += 1;
    }
    let expected = draws as f64 / n as f64;
    for (peer, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - expected).abs() < expected * 0.1,
            "peer {peer}: {c} vs expected {expected}"
        );
    }
}

/// The constants `Estimate::to_sampler_config` derives from the probe
/// count (`n′` from the estimate's own error law, `R` from the Chernoff
/// bound at that load) are exact on real rings, with margin: `n′ ≥ n`, the
/// certificate reads 0 at `R`, and every supplementation chain already
/// fits in `⌊R/2⌋` steps.
#[test]
fn derived_constants_lose_no_measure() {
    let space = KeySpace::full();
    for n in [1_000usize, 10_000, 100_000] {
        for seed in 0..3u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 1_000 + n as u64);
            let dht = OracleDht::new(SortedRing::new(space, space.random_points(&mut rng, n)));
            let n = dht.len();
            for origin in [0, n / 3, n / 2, n - 1] {
                let est = NetworkSizeEstimator::default()
                    .estimate(&dht, origin)
                    .expect("oracle");
                let config = est.to_sampler_config();
                let lambda = config.lambda(space).expect("full ring");
                let r = config.step_bound();
                let at = format!("n {n}, seed {seed}, origin {origin}: {config}");
                assert!(config.n_upper() >= n as u64, "{at}");
                assert_eq!(assignment::lost_measure(dht.ring(), lambda, r), 0, "{at}");
                assert_eq!(
                    assignment::lost_measure(dht.ring(), lambda, r / 2),
                    0,
                    "{at}: a chain needs more than half of R"
                );
            }
        }
    }
}
