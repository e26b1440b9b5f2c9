//! Correlated failure domains over ring positions.
//!
//! Every failure model elsewhere in the workspace is independent
//! per-node; real deployments fail in correlated groups — a rack loses
//! power, a region partitions, a switch takes its whole pod down. A
//! [`DomainMap`] assigns each ring position a *domain label* so an outage
//! can address "everything in rack 3" as one unit.
//!
//! The labeling is **sectoral**: domain `d` of `D` owns the contiguous
//! ring arc that starts at `⌈d·M/D⌉` and ends where domain `d + 1`
//! starts (the last sector ends at the modulus `M`). This matches the
//! clustered-ring placement geometry (a placement cluster lands inside
//! one sector when the cluster count divides the domain count) and —
//! deliberately — makes a domain crash the *worst case* for Chord:
//! a crashed sector is a contiguous dead arc, exactly the shape that
//! defeats an `r`-deep successor list. Sectors nest: domain `d` of `D`
//! is the union of domains `k·d .. k·d + k` of `k·D`.
//!
//! # Example
//!
//! ```
//! use simnet::DomainMap;
//!
//! let map = DomainMap::sectors(8, 1 << 32);
//! assert_eq!(map.domain_of(0), 0);
//! assert_eq!(map.domain_of((1u64 << 32) - 1), 7);
//! ```

/// Domain labels over ring positions: equal contiguous sectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    domains: u32,
    modulus: u128,
}

impl DomainMap {
    /// `domains` equal contiguous sectors of a ring with `modulus`
    /// points: position `p` belongs to domain `p·domains/modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero or `modulus < domains` (a sector must
    /// contain at least one point).
    pub fn sectors(domains: u32, modulus: u128) -> DomainMap {
        assert!(domains > 0, "a domain map needs at least one domain");
        assert!(
            modulus >= u128::from(domains),
            "modulus {modulus} cannot split into {domains} non-empty sectors"
        );
        DomainMap { domains, modulus }
    }

    /// The domain of ring position `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside the modulus.
    pub fn domain_of(&self, p: u64) -> u32 {
        assert!(
            u128::from(p) < self.modulus,
            "point {p} outside modulus {}",
            self.modulus
        );
        (u128::from(p) * u128::from(self.domains) / self.modulus) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sectors_partition_the_ring() {
        let m = 1u128 << 20;
        let map = DomainMap::sectors(8, m);
        // Every point has exactly one in-range label, non-decreasing
        // around the ring.
        let mut last = 0;
        for p in (0..(m as u64)).step_by(1 << 12) {
            let d = map.domain_of(p);
            assert!(d < 8);
            assert!(d >= last, "sector labels must be monotone");
            last = d;
        }
        assert_eq!(map.domain_of(0), 0);
        assert_eq!(map.domain_of((m as u64) - 1), 7);
    }

    #[test]
    fn full_modulus_sectors_label_without_overflow() {
        let map = DomainMap::sectors(4, 1u128 << 64);
        assert_eq!(map.domain_of(0), 0);
        assert_eq!(map.domain_of(u64::MAX), 3);
        assert_eq!(map.domain_of(1u64 << 63), 2);
        assert_eq!(map.domain_of(3u64 << 62), 3);
        assert_eq!(map.domain_of((3u64 << 62) - 1), 2);
    }

    proptest! {
        /// Sector `d` of `D` over modulus `M` starts at `⌈d·M/D⌉`: every
        /// point between two starts carries the lower label, so a start
        /// labels `d`, the point before it `d − 1`, labels never decrease
        /// and every domain is reached. The `D`-sector map is also the
        /// `k·D`-sector map divided by `k`.
        #[test]
        fn sectors_start_at_the_ceiling_and_nest(
            modulus in prop_oneof![
                Just(2u128),
                Just(3u128),
                Just(1_000_003u128),
                Just((1u128 << 20) + 7),
                Just(1u128 << 64),
            ],
            domains_pick in any::<u32>(),
            k_pick in any::<u32>(),
            probes in proptest::collection::vec(any::<u64>(), 16),
        ) {
            let domains = 1 + domains_pick % modulus.min(64) as u32;
            let k = 1 + k_pick % (modulus / u128::from(domains)).min(8) as u32;
            let map = DomainMap::sectors(domains, modulus);
            let fine = DomainMap::sectors(k * domains, modulus);
            let start = |d: u32| (u128::from(d) * modulus).div_ceil(u128::from(domains));

            // Every sector start, the point before it, the last point, and
            // probes scaled onto [0, M): the multiply-shift keeps them in
            // range for every modulus, including 2^64.
            let mut points = vec![modulus - 1];
            for d in 0..domains {
                prop_assert!(start(d) < start(d + 1), "sector {} is empty", d);
                points.push(start(d));
                if d > 0 {
                    points.push(start(d) - 1);
                }
            }
            points.extend(probes.iter().map(|&x| (u128::from(x) * modulus) >> 64));
            for p in points {
                let d = map.domain_of(p as u64);
                prop_assert!(
                    start(d) <= p && p < start(d + 1),
                    "point {} labels {} outside its sector", p, d
                );
                prop_assert_eq!(fine.domain_of(p as u64) / k, d, "sectors must nest");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one domain")]
    fn zero_domains_panics() {
        let _ = DomainMap::sectors(0, 100);
    }

    #[test]
    #[should_panic(expected = "outside modulus")]
    fn out_of_range_point_panics() {
        let map = DomainMap::sectors(2, 100);
        let _ = map.domain_of(100);
    }
}
