//! Exhaustive verification of the interval assignment (Theorem 6).
//!
//! The proof of Theorem 6 shows that the deterministic part of Figure 1
//! partitions the circle so every peer owns points of total measure exactly
//! `λ`. Because this crate uses a **discrete** ring, that statement becomes
//! finite and checkable: on a small ring we can run the deterministic scan
//! for *every* start point `s` and count each peer's preimages.
//!
//! [`owner_map`] computes that full map through direct ring indexing — an
//! implementation *independent of the [`Dht`](crate::Dht) plumbing* — and
//! the test suite cross-checks it against [`Sampler::trial`] point by
//! point, then asserts the exact-measure invariant:
//!
//! * with an untruncated scan, **every peer owns exactly `λ` points**;
//! * with the paper's `R = 6 ln n′` bound, ownership can only shrink
//!   (never move to a different peer), which is what makes truncation
//!   bias-free in the accepted region.
//!
//! So accepted draws are exactly uniform if and only if the truncated scan
//! keeps all `n·λ` points. [`lost_measure`] is the at-scale form of the
//! exhaustive check: it counts the points a scan bound drops in closed
//! form, in `O(n·R)` exact integer steps on any modulus, and matches
//! [`measure_per_peer`] wherever both run. A reading of 0 certifies that
//! a configuration is exact on that ring.
//!
//! [`Sampler::trial`]: crate::Sampler::trial

use keyspace::{Point, SortedRing};

/// Computes the owner (peer rank) of a single start point `s`, or `None`
/// if the scan rejects within `step_limit` steps.
///
/// This follows Figure 1 exactly but against the ring directly, bypassing
/// the `Dht` abstraction, so it can serve as an independent reference for
/// the sampler.
///
/// # Panics
///
/// Panics if the ring is empty or `lambda == 0`.
pub fn owner_of(ring: &SortedRing, lambda: u64, step_limit: u32, s: Point) -> Option<usize> {
    assert!(!ring.is_empty(), "assignment needs at least one peer");
    assert!(lambda > 0, "lambda must be positive");
    let space = ring.space();
    let lambda = lambda as i128;

    let first = ring.successor_of(s);
    let mut t: i128 = space.distance(s, ring.point(first)).to_u128() as i128 - lambda;
    if t < 0 {
        return Some(first);
    }
    let mut current = first;
    for _ in 0..step_limit {
        let nxt = ring.next_index(current);
        t += space
            .distance(ring.point(current), ring.point(nxt))
            .to_u128() as i128
            - lambda;
        // Strict `< 0`, matching the sampler's discrete boundary
        // convention (see `Sampler` docs): the unique convention giving
        // every peer exactly λ points.
        if t < 0 {
            return Some(nxt);
        }
        current = nxt;
    }
    None
}

/// Computes the owner of **every** point of a small ring.
///
/// Index `i` of the result is the owner of `Point(i)` (or `None` for
/// rejected points). Intended for exhaustive verification and for the E5a
/// experiment; refuses rings large enough to make enumeration silly.
///
/// # Panics
///
/// Panics if the modulus exceeds `2^24`, the ring is empty, or
/// `lambda == 0`.
pub fn owner_map(ring: &SortedRing, lambda: u64, step_limit: u32) -> Vec<Option<usize>> {
    let modulus = ring.space().modulus();
    assert!(
        modulus <= 1 << 24,
        "owner_map enumerates every ring point; modulus {modulus} is too large"
    );
    (0..modulus as u64)
        .map(|c| owner_of(ring, lambda, step_limit, Point::new(c)))
        .collect()
}

/// Counts how many ring points each peer owns under the assignment.
///
/// Theorem 6's discrete form: with an untruncated scan every entry equals
/// `λ` exactly.
///
/// # Panics
///
/// As [`owner_map`].
pub fn measure_per_peer(ring: &SortedRing, lambda: u64, step_limit: u32) -> Vec<u64> {
    let mut counts = vec![0u64; ring.len()];
    for owner in owner_map(ring, lambda, step_limit).into_iter().flatten() {
        counts[owner] += 1;
    }
    counts
}

/// The ring points that scans bounded by `step_limit` steps drop: `n·λ`
/// minus the points some peer keeps, computed in closed form rather than
/// by enumeration.
///
/// Let `g_j` be the arc before peer `j` and
/// `P_k = Σ_{i=1..k} (g_{j+i} − λ)`. A start point in that arc with
/// `T = d − λ ≥ 0` is accepted at step `k` exactly when `T + P_k < 0`,
/// so the arc keeps `min(g_j, λ)` points through the SMALL case plus
/// `min((g_j − λ)⁺, (−min_{k ≤ R} P_k)⁺)` through the scan. Exact in
/// `i128` for any modulus, at most `n·R` steps: each scan stops once its
/// arc is fully kept or, as in [`Sampler::trial`](crate::Sampler::trial),
/// once the remaining steps cannot lower `P` further. A lone peer's scan
/// wraps onto itself and keeps up to `(R + 1)·λ` points; it loses
/// nothing.
///
/// # Panics
///
/// Panics if the ring is empty or `lambda == 0`.
pub fn lost_measure(ring: &SortedRing, lambda: u64, step_limit: u32) -> u128 {
    assert!(!ring.is_empty(), "assignment needs at least one peer");
    assert!(lambda > 0, "lambda must be positive");
    let space = ring.space();
    let n = ring.len();
    let lambda = lambda as i128;
    // A scan step's arc: 0 on a lone peer, whose scan stays in place.
    let arc = |i: usize| ring.arc_after(i).to_u128() as i128;
    let mut kept: i128 = 0;
    for j in 0..n {
        // Points whose successor is peer j: all of them on a lone peer.
        let owned = if n == 1 {
            space.modulus() as i128
        } else {
            ring.arc_before(j).to_u128() as i128
        };
        let need = owned - lambda;
        if need <= 0 {
            kept += owned;
            continue;
        }
        // `reach` = (−min P_k)⁺ so far, capped at `need`.
        let (mut p, mut reach, mut i) = (0i128, 0i128, j);
        for k in 1..=step_limit as i128 {
            p += arc(i) - lambda;
            i = if i + 1 == n { 0 } else { i + 1 };
            reach = reach.max(-p);
            if reach >= need || p + reach >= (step_limit as i128 - k) * lambda {
                break;
            }
        }
        kept += lambda + reach.min(need);
    }
    (n as u128 * lambda as u128).saturating_sub(kept as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyspace::KeySpace;
    use rand::SeedableRng;

    fn ring(modulus: u128, n: usize, seed: u64) -> SortedRing {
        let space = KeySpace::with_modulus(modulus).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        SortedRing::new(space, space.random_distinct_points(&mut rng, n))
    }

    #[test]
    fn untruncated_assignment_gives_every_peer_exactly_lambda() {
        // The discrete Theorem 6, checked exhaustively across seeds.
        for seed in 0..8 {
            let r = ring(1 << 14, 24, seed);
            let lambda = (1u64 << 14) / (7 * 24);
            let counts = measure_per_peer(&r, lambda, r.len() as u32 + 1);
            for (peer, &c) in counts.iter().enumerate() {
                assert_eq!(
                    c, lambda,
                    "seed {seed}: peer {peer} owns {c} points, expected {lambda}"
                );
            }
        }
    }

    #[test]
    fn truncation_shrinks_but_never_moves_ownership() {
        let r = ring(1 << 14, 24, 3);
        let lambda = (1u64 << 14) / (7 * 24);
        let full = owner_map(&r, lambda, r.len() as u32 + 1);
        let cut = owner_map(&r, lambda, 2);
        for (s, (f, c)) in full.iter().zip(&cut).enumerate() {
            match (f, c) {
                (Some(a), Some(b)) => assert_eq!(a, b, "point {s} moved owner"),
                (None, Some(_)) => panic!("truncation created ownership at {s}"),
                _ => {}
            }
        }
        let owned_full = full.iter().flatten().count();
        let owned_cut = cut.iter().flatten().count();
        assert!(owned_cut <= owned_full);
    }

    #[test]
    fn paper_step_bound_loses_nothing_on_typical_rings() {
        // With R = ⌈6 ln n⌉ and a healthy ring, property 3 holds and no
        // point is truncated — acceptance measure is exactly n·λ.
        let n = 24;
        let r = ring(1 << 14, n, 5);
        let lambda = (1u64 << 14) / (7 * n as u64);
        let step_bound = (6.0 * (n as f64).ln()).ceil() as u32;
        let counts = measure_per_peer(&r, lambda, step_bound);
        assert!(counts.iter().all(|&c| c == lambda), "{counts:?}");
    }

    #[test]
    fn owner_is_deterministic_and_total_measure_bounded() {
        let r = ring(1 << 12, 10, 7);
        let lambda = (1u64 << 12) / 70;
        let map1 = owner_map(&r, lambda, 64);
        let map2 = owner_map(&r, lambda, 64);
        assert_eq!(map1, map2);
        let owned = map1.iter().flatten().count() as u64;
        assert_eq!(owned, lambda * 10, "total accepted measure is n·λ");
    }

    #[test]
    fn peer_points_own_themselves() {
        let r = ring(1 << 12, 16, 9);
        let lambda = (1u64 << 12) / (7 * 16);
        for rank in 0..r.len() {
            let p = r.point(rank);
            assert_eq!(
                owner_of(&r, lambda, 64, p),
                Some(rank),
                "peer point must be owned by its peer (SMALL case, d = 0)"
            );
        }
    }

    /// `lost_measure` against enumeration: `n·λ` minus the points
    /// `measure_per_peer` counts (a lone peer over-keeps, so saturate).
    fn assert_certificate_matches(r: &SortedRing, lambda: u64, step_limit: u32) -> u128 {
        let counted: u64 = measure_per_peer(r, lambda, step_limit).iter().sum();
        let lost = (r.len() as u128 * lambda as u128).saturating_sub(counted as u128);
        assert_eq!(
            lost_measure(r, lambda, step_limit),
            lost,
            "n = {}, lambda = {lambda}, R = {step_limit}",
            r.len()
        );
        lost
    }

    #[test]
    fn lost_measure_matches_enumeration_on_a_fixed_grid() {
        let modulus = 1u128 << 18;
        let mut lossy = 0;
        for seed in 0..6 {
            let n = 256 >> (seed % 3);
            let r = ring(modulus, n, seed);
            for denom in [2u64, 3, 7] {
                let lambda = (modulus / (denom as u128 * n as u128)) as u64;
                for step_limit in [1, 2, 4, 8, 34] {
                    if assert_certificate_matches(&r, lambda, step_limit) > 0 {
                        lossy += 1;
                    }
                }
            }
        }
        // Both outcomes occur, so equality is not vacuous.
        assert!((1..90).contains(&lossy), "{lossy} of 90 cases lose measure");
    }

    #[test]
    fn lone_peer_loses_nothing() {
        let r = ring(1 << 10, 1, 4);
        assert_eq!(assert_certificate_matches(&r, 100, 3), 0);
        // λ above the modulus: the whole ring is kept and the rest lost.
        assert_eq!(lost_measure(&r, 2000, 3), 2000 - 1024);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn lost_measure_matches_enumeration(
            bits in 14u32..=18,
            n in 1usize..=300,
            denom_index in 0usize..3,
            step_limit in 1u32..=40,
            seed in 0u64..1_000_000,
        ) {
            let modulus = 1u128 << bits;
            let denom = [2u128, 3, 7][denom_index];
            let r = ring(modulus, n, seed);
            let lambda = (modulus / (denom * n as u128)) as u64;
            assert_certificate_matches(&r, lambda, step_limit);
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn owner_map_refuses_huge_rings() {
        let space = KeySpace::full();
        let r = SortedRing::new(space, vec![Point::new(1)]);
        let _ = owner_map(&r, 1, 1);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn zero_lambda_panics() {
        let r = ring(1 << 10, 4, 1);
        let _ = owner_of(&r, 0, 4, Point::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_ring_panics() {
        let space = KeySpace::with_modulus(1 << 10).unwrap();
        let r = SortedRing::new(space, vec![]);
        let _ = owner_of(&r, 1, 1, Point::new(0));
    }
}
