//! Property tests: every `RingIndex` query agrees with a naive linear
//! scan over an unsorted member list, under randomized interleaved
//! insert/remove sequences.
//!
//! Two regimes mirror the index's two consumers:
//!
//! * a tiny point domain with few distinct ids — forces co-located
//!   entries, exact-duplicate inserts, wrap-arounds and empty/singleton
//!   states (the hard tie-break cases);
//! * the full `2^64` ring with arrival-ordered ids — the Chord arena /
//!   oracle membership usage pattern.

use keyspace::{KeySpace, Point};
use proptest::prelude::*;
use ringidx::RingIndex;

/// The reference model: an unsorted member list answering every query by
/// linear scan, per the contract in the `ringidx` crate docs.
struct Naive {
    space: KeySpace,
    entries: Vec<(Point, u64)>,
}

impl Naive {
    fn new(space: KeySpace) -> Naive {
        Naive {
            space,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, p: Point, id: u64) -> bool {
        if self.entries.contains(&(p, id)) {
            return false;
        }
        self.entries.push((p, id));
        true
    }

    fn remove(&mut self, p: Point, id: u64) -> bool {
        match self.entries.iter().position(|&e| e == (p, id)) {
            Some(i) => {
                self.entries.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Minimum by `(clockwise distance from x, id)` — the scan the index
    /// replaced in `ChordNetwork::truth_successor_id`.
    fn successor(&self, x: Point) -> Option<(Point, u64)> {
        self.entries
            .iter()
            .copied()
            .min_by_key(|&(p, id)| (self.space.distance(x, p).get(), id))
    }

    /// Minimum by `(counter-clockwise distance from x, id)` over entries
    /// not at `x`.
    fn predecessor(&self, x: Point) -> Option<(Point, u64)> {
        self.entries
            .iter()
            .copied()
            .filter(|&(p, _)| p != x)
            .min_by_key(|&(p, id)| (self.space.distance(p, x).get(), id))
    }

    fn strict_successor(&self, p0: Point, id0: u64) -> Option<(Point, u64)> {
        self.entries
            .iter()
            .copied()
            .filter(|&e| e != (p0, id0))
            .min_by_key(|&(p, id)| (self.space.distance(p0, p).get(), id))
    }

    fn strict_predecessor(&self, p0: Point, id0: u64) -> Option<(Point, u64)> {
        self.entries
            .iter()
            .copied()
            .filter(|&e| e != (p0, id0))
            .min_by_key(|&(p, id)| (self.space.distance(p, p0).get(), id))
    }

    /// `r` rounds of "`q = predecessor(at)`, the `(q − 1, q]` range,
    /// `at = q`", stopping after a cluster at `x` itself — the loop
    /// `RingIndex::for_each_cluster_before` replaces.
    fn clusters_before(&self, x: Point, r: usize) -> Vec<(Point, u64)> {
        let one = keyspace::Distance::new(1);
        let mut out = Vec::new();
        let mut at = x;
        for _ in 0..r {
            let Some((q, _)) = self.predecessor(at) else {
                break;
            };
            out.extend(self.range(self.space.sub(q, one), q));
            if q == x {
                break;
            }
            at = q;
        }
        out
    }

    fn sorted(&self) -> Vec<(Point, u64)> {
        let mut v = self.entries.clone();
        v.sort_unstable();
        v
    }

    /// Entries on `(a, b]` ordered clockwise starting just past `a`
    /// (`a == b` is the full ring).
    fn range(&self, a: Point, b: Point) -> Vec<(Point, u64)> {
        let arc = self.space.distance(a, b).get();
        let mut hits: Vec<(u64, u64, Point)> = self
            .entries
            .iter()
            .copied()
            .filter_map(|(p, id)| {
                let d = self.space.distance(a, p).get();
                if a == b {
                    // Full ring: entries at `a` come last, not first.
                    let key = if d == 0 { u64::MAX } else { d };
                    Some((key, id, p))
                } else if d > 0 && d <= arc {
                    Some((d, id, p))
                } else {
                    None
                }
            })
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|(_, id, p)| (p, id)).collect()
    }
}

/// One scripted membership operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Remove(u64, u64),
}

fn apply(ops: &[Op], modulus: u128) -> (RingIndex<u64>, Naive) {
    let space = KeySpace::with_modulus(modulus).unwrap();
    let mut index = RingIndex::new(space);
    let mut naive = Naive::new(space);
    let m = modulus.min(u64::MAX as u128 + 1);
    for &op in ops {
        match op {
            Op::Insert(praw, id) => {
                let p = Point::new((praw as u128 % m) as u64);
                assert_eq!(index.insert(p, id), naive.insert(p, id), "insert {p} {id}");
            }
            Op::Remove(praw, id) => {
                let p = Point::new((praw as u128 % m) as u64);
                assert_eq!(index.remove(p, id), naive.remove(p, id), "remove {p} {id}");
            }
        }
    }
    (index, naive)
}

fn check_agreement(index: &RingIndex<u64>, naive: &Naive, probes: &[u64], modulus: u128) {
    assert_eq!(index.len(), naive.entries.len());
    assert_eq!(
        index.entries().copied().collect::<Vec<_>>(),
        naive.sorted(),
        "ring order"
    );
    for (k, &(p, id)) in naive.sorted().iter().enumerate() {
        assert_eq!(index.nth(k), Some((p, id)), "nth({k})");
        assert!(index.contains(p, id));
        assert_eq!(
            index.strict_successor(p, id),
            naive.strict_successor(p, id),
            "strict_successor of ({p}, {id})"
        );
        assert_eq!(
            index.strict_predecessor(p, id),
            naive.strict_predecessor(p, id),
            "strict_predecessor of ({p}, {id})"
        );
        assert_eq!(
            index.strict_neighbours(p, id),
            (
                naive.strict_predecessor(p, id),
                naive.strict_successor(p, id)
            ),
            "strict_neighbours of ({p}, {id})"
        );
    }
    assert_eq!(index.nth(index.len()), None);
    let m = modulus.min(u64::MAX as u128 + 1);
    for &raw in probes {
        let x = Point::new((raw as u128 % m) as u64);
        assert_eq!(index.successor(x), naive.successor(x), "successor({x})");
        assert_eq!(
            index.predecessor(x),
            naive.predecessor(x),
            "predecessor({x})"
        );
        // Non-members too: the strict queries are defined for any pair.
        let stranger = raw % 7;
        assert_eq!(
            index.strict_neighbours(x, stranger),
            (
                naive.strict_predecessor(x, stranger),
                naive.strict_successor(x, stranger)
            ),
            "strict_neighbours of ({x}, {stranger})"
        );
        for r in [1, 3, 8] {
            let mut walk = Vec::new();
            index.for_each_cluster_before(x, r, |p, id| walk.push((p, id)));
            assert_eq!(
                walk,
                naive.clusters_before(x, r),
                "for_each_cluster_before({x}, {r})"
            );
        }
    }
    for pair in probes.chunks(2) {
        if let [araw, braw] = *pair {
            let a = Point::new((araw as u128 % m) as u64);
            let b = Point::new((braw as u128 % m) as u64);
            assert_eq!(index.range(a, b), naive.range(a, b), "range({a}, {b})");
        }
    }
}

fn ops_strategy(point_span: u64, id_span: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..3, 0..point_span, 0..id_span).prop_map(|(kind, p, id)| {
            // Bias 2:1 toward inserts so the structure actually grows.
            if kind < 2 {
                Op::Insert(p, id)
            } else {
                Op::Remove(p, id)
            }
        }),
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiny domain: co-located entries, duplicate pairs, heavy removal.
    #[test]
    fn agrees_with_naive_scan_on_a_tiny_ring(
        ops in ops_strategy(19, 5, 120),
        probes in proptest::collection::vec(0u64..19, 16),
    ) {
        let (index, naive) = apply(&ops, 19);
        check_agreement(&index, &naive, &probes, 19);
    }

    /// Full 2^64 ring with arrival-ordered ids — the simulator's pattern.
    #[test]
    fn agrees_with_naive_scan_on_the_full_ring(
        ops in ops_strategy(u64::MAX, u64::MAX, 80),
        probes in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let modulus = u64::MAX as u128 + 1;
        let (index, naive) = apply(&ops, modulus);
        check_agreement(&index, &naive, &probes, modulus);
    }

    /// Removing everything always returns the index to the empty state.
    #[test]
    fn drain_returns_to_empty(ops in ops_strategy(97, 4, 100)) {
        let (mut index, naive) = apply(&ops, 97);
        for (p, id) in naive.sorted() {
            prop_assert!(index.remove(p, id));
        }
        prop_assert!(index.is_empty());
        prop_assert_eq!(index.successor(Point::new(0)), None);
    }
}
