//! An incremental ordered index over live ring positions.
//!
//! Every ground-truth query the simulator needs — "who is the clockwise
//! successor of `x`?", "who precedes this node?", "which peers sit on this
//! arc?" — used to be an O(n) scan over a node arena, which capped scenario
//! sweeps at a few hundred peers. [`RingIndex`] keeps the live `(Point, id)`
//! pairs in clockwise order and answers all of them in O(log n), while
//! membership churn (join / leave / fail) maintains the order incrementally
//! instead of re-sorting.
//!
//! # Contract
//!
//! Entries are `(Point, I)` pairs ordered by `(point, id)`. Ids make
//! co-located entries (distinct peers hashing to the same point)
//! first-class: every query that must break a tie between entries at the
//! same point prefers the **smallest id**, matching the arena-scan
//! semantics the index replaces (the scan kept the first, i.e. lowest,
//! arena index among equal distances).
//!
//! * [`successor`](RingIndex::successor) — inclusive `h(x)`: the first
//!   entry at or clockwise of `x`.
//! * [`predecessor`](RingIndex::predecessor) — the entry at the nearest
//!   point strictly counter-clockwise of `x`.
//! * [`strict_successor`](RingIndex::strict_successor) /
//!   [`strict_predecessor`](RingIndex::strict_predecessor) — the same
//!   queries asked *by a member entry about itself*: the entry `(p, id)` is
//!   excluded, co-located other entries count as distance zero.
//! * [`strict_neighbours`](RingIndex::strict_neighbours) — both strict
//!   queries of one member entry from a single search.
//! * [`range`](RingIndex::range) — entries on the clockwise arc `(a, b]`
//!   (Chord convention: `a == b` denotes the full ring).
//! * [`for_each_cluster_before`](RingIndex::for_each_cluster_before) — the
//!   co-located clusters at the `r` nearest distinct points
//!   counter-clockwise of `x`, nearest first, from one search and a
//!   backward walk; what `r` repeated `predecessor` hops plus a cluster
//!   range query each would visit.
//! * [`nth`](RingIndex::nth) — the `k`-th live entry in ring order, for
//!   O(1)-ish uniform sampling of a live peer.
//!
//! # Implementation
//!
//! A tiered vector: one `Vec` of sorted chunks, each at most
//! `MAX_CHUNK` (1024) entries, plus a contiguous *fence* column holding
//! each chunk's last entry. Point lookups binary-search the fences and
//! then one chunk — O(log n), and the chunk-level probes read one small
//! array instead of dereferencing a heap block per probe, which matters
//! once the chunk list outgrows the cache (10⁶ entries make ~2,000
//! chunks). Inserts and removes shift at most one chunk —
//! O(√n)-flavoured constant work (≤ 1024 `memmove`d entries) with O(log n)
//! search, amortized by chunk splits and merges, and keep the fences
//! current. `nth` walks chunk lengths, O(n / MAX_CHUNK). This beats a
//! `BTreeMap` for the simulator's workloads because bulk construction is
//! a single sort and iteration is cache-friendly.
//!
//! # Example
//!
//! ```
//! use keyspace::{KeySpace, Point};
//! use ringidx::RingIndex;
//!
//! let space = KeySpace::with_modulus(100).unwrap();
//! let mut idx = RingIndex::bulk(space, vec![(Point::new(10), 0u64), (Point::new(70), 1)]);
//! idx.insert(Point::new(40), 2);
//! assert_eq!(idx.successor(Point::new(15)), Some((Point::new(40), 2)));
//! assert_eq!(idx.successor(Point::new(90)), Some((Point::new(10), 0))); // wraps
//! idx.remove(Point::new(40), 2);
//! assert_eq!(idx.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use keyspace::{KeySpace, Point};

/// Maximum entries per chunk; a full chunk splits into two halves.
const MAX_CHUNK: usize = 1024;

/// Chunks below this occupancy try to merge with a neighbour after a
/// removal, bounding fragmentation under sustained churn.
const MIN_CHUNK: usize = MAX_CHUNK / 8;

/// Position of an entry: (chunk index, offset within chunk).
type Pos = (usize, usize);

/// A strict predecessor and a strict successor, either absent.
type Neighbours<I> = (Option<(Point, I)>, Option<(Point, I)>);

/// A sorted, incrementally-maintained index of `(Point, I)` ring entries.
///
/// See the [crate docs](crate) for the query contract.
#[derive(Clone)]
pub struct RingIndex<I> {
    space: KeySpace,
    chunks: Vec<Vec<(Point, I)>>,
    /// `fences[c]` is the last entry of `chunks[c]`: the chunk-level
    /// binary searches read this column only.
    fences: Vec<(Point, I)>,
    len: usize,
}

impl<I: Copy + Ord> RingIndex<I> {
    /// An empty index over `space`.
    pub fn new(space: KeySpace) -> RingIndex<I> {
        RingIndex {
            space,
            chunks: Vec::new(),
            fences: Vec::new(),
            len: 0,
        }
    }

    /// Builds an index from arbitrary-order entries in one O(n log n)
    /// sort. Exact duplicate `(point, id)` pairs collapse to one entry;
    /// co-located entries with distinct ids are all retained.
    pub fn bulk(space: KeySpace, mut entries: Vec<(Point, I)>) -> RingIndex<I> {
        debug_assert!(entries.iter().all(|&(p, _)| space.contains_point(p)));
        entries.sort_unstable();
        entries.dedup();
        let len = entries.len();
        // Fill chunks to half capacity so early inserts don't split.
        let fill = MAX_CHUNK / 2;
        let mut chunks = Vec::with_capacity(len.div_ceil(fill.max(1)));
        let mut entries = entries.into_iter().peekable();
        while entries.peek().is_some() {
            chunks.push(entries.by_ref().take(fill).collect::<Vec<_>>());
        }
        let fences = chunks.iter().map(|c| last(c)).collect();
        RingIndex {
            space,
            chunks,
            fences,
            len,
        }
    }

    /// The key space the entries live on.
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over all entries in clockwise `(point, id)` order.
    pub fn entries(&self) -> impl Iterator<Item = &(Point, I)> {
        self.chunks.iter().flatten()
    }

    /// All points in clockwise order (duplicates retained).
    pub fn points(&self) -> Vec<Point> {
        self.entries().map(|&(p, _)| p).collect()
    }

    // ---- mutation

    /// Inserts `(point, id)`; returns `false` if the exact pair was
    /// already present.
    pub fn insert(&mut self, point: Point, id: I) -> bool {
        debug_assert!(self.space.contains_point(point));
        let key = (point, id);
        if self.chunks.is_empty() {
            self.chunks.push(vec![key]);
            self.fences.push(key);
            self.len = 1;
            return true;
        }
        // The first chunk whose last entry is >= key holds (or should
        // hold) the pair; past-the-end keys append to the final chunk.
        let ci = self
            .fences
            .partition_point(|&f| f < key)
            .min(self.chunks.len() - 1);
        let chunk = &mut self.chunks[ci];
        match chunk.binary_search(&key) {
            Ok(_) => false,
            Err(off) => {
                chunk.insert(off, key);
                self.len += 1;
                if chunk.len() >= MAX_CHUNK {
                    let upper = chunk.split_off(MAX_CHUNK / 2);
                    self.fences.insert(ci + 1, last(&upper));
                    self.chunks.insert(ci + 1, upper);
                }
                self.fences[ci] = last(&self.chunks[ci]);
                true
            }
        }
    }

    /// Removes `(point, id)`; returns `false` if the pair was absent.
    pub fn remove(&mut self, point: Point, id: I) -> bool {
        let key = (point, id);
        let Some((ci, off)) = self.find(key) else {
            return false;
        };
        self.chunks[ci].remove(off);
        self.len -= 1;
        if self.chunks[ci].is_empty() {
            self.chunks.remove(ci);
            self.fences.remove(ci);
            return true;
        }
        self.fences[ci] = last(&self.chunks[ci]);
        if self.chunks[ci].len() < MIN_CHUNK {
            // Fold a sparse chunk into a neighbour when the pair fits
            // comfortably below the split threshold; the merged chunk
            // ends where the absorbed one did.
            let (a, b) = if ci + 1 < self.chunks.len() {
                (ci, ci + 1)
            } else {
                (ci.saturating_sub(1), ci)
            };
            if a != b && self.chunks[a].len() + self.chunks[b].len() <= MAX_CHUNK / 2 {
                let tail = self.chunks.remove(b);
                self.chunks[a].extend(tail);
                self.fences[a] = self.fences.remove(b);
            }
        }
        true
    }

    /// Whether the exact `(point, id)` pair is present.
    pub fn contains(&self, point: Point, id: I) -> bool {
        self.find((point, id)).is_some()
    }

    /// Whether any entry sits exactly at `point`.
    pub fn contains_point(&self, point: Point) -> bool {
        matches!(self.lower_bound(point), Some(pos) if self.get(pos).0 == point)
    }

    // ---- queries

    /// `h(x)`: the first entry at or clockwise of `x` (inclusive), with
    /// co-located entries ordered by id. `None` on an empty index.
    pub fn successor(&self, x: Point) -> Option<(Point, I)> {
        Some(self.get(self.lower_bound_wrapping(x)?))
    }

    /// The entry at the nearest point strictly counter-clockwise of `x`
    /// (entries at `x` itself are excluded); among co-located entries the
    /// smallest id wins. `None` when empty or every entry sits at `x`.
    pub fn predecessor(&self, x: Point) -> Option<(Point, I)> {
        let before = self.cluster_head(self.prev_pos_wrapping(self.lower_bound_wrapping(x)?));
        (before.0 != x).then_some(before)
    }

    /// The strict clockwise successor of member entry `(point, id)`: the
    /// entry minimizing (clockwise distance from `point`, id) over all
    /// entries except `(point, id)`. Co-located entries have distance
    /// zero, so the smallest co-located other id wins when one exists.
    /// `None` when no other entry exists.
    pub fn strict_successor(&self, point: Point, id: I) -> Option<(Point, I)> {
        if let Some(other) = self.colocated_other(point, id) {
            return Some(other);
        }
        let pos = self.upper_bound(point).unwrap_or((0, 0)); // wrap
        let e = self.get_checked(pos)?;
        // Wrapping back to `point` means no entry at a distinct point
        // exists (and co-located others were handled above).
        (e.0 != point).then_some(e)
    }

    /// The strict counter-clockwise predecessor of member entry
    /// `(point, id)`, mirroring [`strict_successor`](RingIndex::strict_successor):
    /// the smallest co-located other id when one exists, else the
    /// lowest-id entry at the nearest distinct point counter-clockwise.
    pub fn strict_predecessor(&self, point: Point, id: I) -> Option<(Point, I)> {
        if let Some(other) = self.colocated_other(point, id) {
            return Some(other);
        }
        self.predecessor(point)
    }

    /// `(strict_predecessor(point, id), strict_successor(point, id))`
    /// from one search: the co-located cluster at `point` is found once,
    /// and the nearest distinct points on either side are the entries
    /// just outside it.
    pub fn strict_neighbours(&self, point: Point, id: I) -> Neighbours<I> {
        let Some(start) = self.lower_bound_wrapping(point) else {
            return (None, None);
        };
        // Walk the cluster at `point` (empty when `start` is past it);
        // its first other id is the smallest, and both answers.
        let mut pos = Some(start);
        while let Some(p) = pos {
            let e = self.get(p);
            if e.0 != point {
                break;
            }
            if e.1 != id {
                return (Some(e), Some(e));
            }
            pos = self.next_pos(p);
        }
        let after = self.get(pos.unwrap_or((0, 0))); // wrap
        let before = self.cluster_head(self.prev_pos_wrapping(start));
        (
            (before.0 != point).then_some(before),
            (after.0 != point).then_some(after),
        )
    }

    /// Visits the co-located clusters at the `r` nearest distinct points
    /// counter-clockwise of `x`, nearest first and ascending id inside a
    /// cluster — exactly what `r` rounds of "`q = predecessor(at)`, visit
    /// the `(q − 1, q]` range, `at = q`" visit, from one search and a
    /// backward walk. As those rounds do, the walk goes around again on
    /// a ring with fewer than `r` distinct points (clusters repeat), stops
    /// right after visiting a cluster at `x` itself, and visits nothing
    /// when every entry sits at `x`.
    pub fn for_each_cluster_before(&self, x: Point, r: usize, mut f: impl FnMut(Point, I)) {
        // `head` is the first entry of the cluster the walk stands on;
        // at the start, the first entry at or after `x`.
        let Some(mut head) = self.lower_bound_wrapping(x) else {
            return;
        };
        let mut at = x;
        for _ in 0..r {
            let tail = self.prev_pos_wrapping(head);
            let q = self.get(tail).0;
            if q == at {
                break; // every entry sits at `at`: no predecessor
            }
            head = self.cluster_start(tail);
            let mut pos = head;
            loop {
                let e = self.get(pos);
                f(e.0, e.1);
                if pos == tail {
                    break;
                }
                pos = self.next_pos(pos).expect("a cluster ends at its tail");
            }
            if q == x {
                break; // wrapped all the way around a tiny ring
            }
            at = q;
        }
    }

    /// Entries on the clockwise arc `(a, b]`, in ring order starting just
    /// past `a`. Following the Chord convention, `a == b` denotes the full
    /// ring (all entries, starting just past `a`).
    pub fn range(&self, a: Point, b: Point) -> Vec<(Point, I)> {
        let mut out = Vec::new();
        self.for_each_in_range(a, b, |p, id| out.push((p, id)));
        out
    }

    /// Calls `f` for each entry on the clockwise arc `(a, b]`, in ring
    /// order starting just past `a`, without allocating — the delta-feed
    /// form of [`range`](RingIndex::range). Incremental-verification and
    /// dirty-set feeds issue one of these per finger level per membership
    /// event (~64 per event), each expecting O(1) hits, so the per-call
    /// `Vec` was pure overhead. `a == b` denotes the full ring.
    pub fn for_each_in_range(&self, a: Point, b: Point, mut f: impl FnMut(Point, I)) {
        if self.is_empty() {
            return;
        }
        let arc = self.space.distance(a, b);
        let full_ring = a == b;
        let start = self.upper_bound(a).unwrap_or((0, 0));
        let mut pos = start;
        for _ in 0..self.len {
            let e = self.get(pos);
            if !full_ring {
                let d = self.space.distance(a, e.0);
                if d.is_zero() || d > arc {
                    break;
                }
            }
            f(e.0, e.1);
            pos = self.next_pos(pos).unwrap_or((0, 0));
        }
    }

    /// The `k`-th entry in clockwise order, or `None` if `k >= len()`.
    pub fn nth(&self, k: usize) -> Option<(Point, I)> {
        if k >= self.len {
            return None;
        }
        let mut k = k;
        for chunk in &self.chunks {
            if k < chunk.len() {
                return Some(chunk[k]);
            }
            k -= chunk.len();
        }
        unreachable!("len invariant: k < len implies a holding chunk");
    }

    // ---- internal navigation

    fn get(&self, (ci, off): Pos) -> (Point, I) {
        self.chunks[ci][off]
    }

    fn get_checked(&self, (ci, off): Pos) -> Option<(Point, I)> {
        self.chunks.get(ci)?.get(off).copied()
    }

    /// The position before `pos` in ring order: the last entry when
    /// `pos` is the first.
    fn prev_pos_wrapping(&self, (ci, off): Pos) -> Pos {
        if off > 0 {
            return (ci, off - 1);
        }
        let ci = ci.checked_sub(1).unwrap_or(self.chunks.len() - 1);
        (ci, self.chunks[ci].len() - 1)
    }

    /// The first position of the co-located cluster holding `pos`.
    /// Clusters never wrap: entries are sorted by point.
    fn cluster_start(&self, mut pos: Pos) -> Pos {
        let p = self.get(pos).0;
        while pos != (0, 0) {
            let prev = self.prev_pos_wrapping(pos);
            if self.get(prev).0 != p {
                break;
            }
            pos = prev;
        }
        pos
    }

    /// The smallest-id entry of the cluster holding `pos`.
    fn cluster_head(&self, pos: Pos) -> (Point, I) {
        self.get(self.cluster_start(pos))
    }

    fn next_pos(&self, (ci, off): Pos) -> Option<Pos> {
        if off + 1 < self.chunks[ci].len() {
            Some((ci, off + 1))
        } else if ci + 1 < self.chunks.len() {
            Some((ci + 1, 0))
        } else {
            None
        }
    }

    /// [`lower_bound`](Self::lower_bound) wrapping past the end to the
    /// first entry: the position of `successor(p)`. `None` when empty.
    fn lower_bound_wrapping(&self, p: Point) -> Option<Pos> {
        (!self.is_empty()).then(|| self.lower_bound(p).unwrap_or((0, 0)))
    }

    /// Position of the first entry with point `>= p`, or `None` when every
    /// entry's point is `< p`.
    fn lower_bound(&self, p: Point) -> Option<Pos> {
        let ci = self.fences.partition_point(|f| f.0 < p);
        if ci == self.chunks.len() {
            return None;
        }
        let off = self.chunks[ci].partition_point(|e| e.0 < p);
        Some((ci, off))
    }

    /// Position of the first entry with point `> p`, or `None` when every
    /// entry's point is `<= p`.
    fn upper_bound(&self, p: Point) -> Option<Pos> {
        let ci = self.fences.partition_point(|f| f.0 <= p);
        if ci == self.chunks.len() {
            return None;
        }
        let off = self.chunks[ci].partition_point(|e| e.0 <= p);
        Some((ci, off))
    }

    fn find(&self, key: (Point, I)) -> Option<Pos> {
        if self.chunks.is_empty() {
            return None;
        }
        let ci = self.fences.partition_point(|&f| f < key);
        if ci == self.chunks.len() {
            return None;
        }
        self.chunks[ci]
            .binary_search(&key)
            .ok()
            .map(|off| (ci, off))
    }

    /// The smallest-id entry co-located at `point` whose id differs from
    /// `id`, if any.
    fn colocated_other(&self, point: Point, id: I) -> Option<(Point, I)> {
        let mut pos = self.lower_bound(point)?;
        loop {
            let e = self.get(pos);
            if e.0 != point {
                return None;
            }
            if e.1 != id {
                return Some(e);
            }
            pos = self.next_pos(pos)?;
        }
    }
}

/// The last entry of a chunk (chunks are never empty).
fn last<I: Copy>(chunk: &[(Point, I)]) -> (Point, I) {
    *chunk.last().expect("chunks are non-empty")
}

impl<I: fmt::Debug> fmt::Debug for RingIndex<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingIndex")
            .field("space", &self.space)
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> KeySpace {
        KeySpace::with_modulus(100).unwrap()
    }

    fn idx(points: &[u64]) -> RingIndex<u64> {
        RingIndex::bulk(
            space(),
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| (Point::new(p), i as u64))
                .collect(),
        )
    }

    #[test]
    fn bulk_sorts_and_counts() {
        let i = idx(&[70, 10, 40, 95]);
        assert_eq!(i.len(), 4);
        assert!(!i.is_empty());
        assert_eq!(
            i.points(),
            vec![
                Point::new(10),
                Point::new(40),
                Point::new(70),
                Point::new(95)
            ]
        );
    }

    #[test]
    fn successor_is_inclusive_and_wraps() {
        let i = idx(&[70, 10, 40, 95]);
        assert_eq!(i.successor(Point::new(0)).unwrap().0, Point::new(10));
        assert_eq!(i.successor(Point::new(10)).unwrap().0, Point::new(10));
        assert_eq!(i.successor(Point::new(11)).unwrap().0, Point::new(40));
        assert_eq!(i.successor(Point::new(96)).unwrap().0, Point::new(10));
    }

    #[test]
    fn predecessor_is_strict_and_wraps() {
        let i = idx(&[70, 10, 40, 95]);
        assert_eq!(i.predecessor(Point::new(10)).unwrap().0, Point::new(95));
        assert_eq!(i.predecessor(Point::new(11)).unwrap().0, Point::new(10));
        assert_eq!(i.predecessor(Point::new(0)).unwrap().0, Point::new(95));
    }

    #[test]
    fn insert_remove_maintain_order() {
        let mut i = idx(&[10, 70]);
        assert!(i.insert(Point::new(40), 9));
        assert!(!i.insert(Point::new(40), 9), "exact duplicates rejected");
        assert!(i.insert(Point::new(40), 3), "co-located distinct id kept");
        assert_eq!(i.len(), 4);
        assert_eq!(i.successor(Point::new(20)), Some((Point::new(40), 3)));
        assert!(i.remove(Point::new(40), 3));
        assert!(!i.remove(Point::new(40), 3));
        assert_eq!(i.successor(Point::new(20)), Some((Point::new(40), 9)));
        assert!(i.contains(Point::new(40), 9));
        assert!(i.contains_point(Point::new(70)));
        assert!(!i.contains_point(Point::new(71)));
    }

    #[test]
    fn strict_queries_exclude_self() {
        let i = idx(&[70, 10, 40]);
        // Entry (10, 1) asking about itself.
        assert_eq!(
            i.strict_successor(Point::new(10), 1),
            Some((Point::new(40), 2))
        );
        assert_eq!(
            i.strict_predecessor(Point::new(10), 1),
            Some((Point::new(70), 0))
        );
    }

    #[test]
    fn strict_queries_prefer_colocated_lowest_id() {
        let mut i = RingIndex::new(space());
        i.insert(Point::new(50), 5u64);
        i.insert(Point::new(50), 2);
        i.insert(Point::new(50), 8);
        i.insert(Point::new(90), 1);
        // From (50, 5): the co-located entry with the smallest other id.
        assert_eq!(
            i.strict_successor(Point::new(50), 5),
            Some((Point::new(50), 2))
        );
        assert_eq!(
            i.strict_predecessor(Point::new(50), 5),
            Some((Point::new(50), 2))
        );
        // From (90, 1): nearest distinct point, lowest id there.
        assert_eq!(
            i.strict_successor(Point::new(90), 1),
            Some((Point::new(50), 2))
        );
    }

    #[test]
    fn singleton_has_no_strict_neighbours() {
        let i = idx(&[42]);
        assert_eq!(i.strict_successor(Point::new(42), 0), None);
        assert_eq!(i.strict_predecessor(Point::new(42), 0), None);
        assert_eq!(i.predecessor(Point::new(42)), None);
        assert_eq!(i.successor(Point::new(7)), Some((Point::new(42), 0)));
    }

    #[test]
    fn range_follows_chord_conventions() {
        let i = idx(&[70, 10, 40, 95]);
        let pts = |v: Vec<(Point, u64)>| v.into_iter().map(|(p, _)| p.get()).collect::<Vec<_>>();
        assert_eq!(pts(i.range(Point::new(10), Point::new(70))), vec![40, 70]);
        assert_eq!(pts(i.range(Point::new(80), Point::new(20))), vec![95, 10]);
        // (a, a] is the full ring, starting just past a.
        assert_eq!(
            pts(i.range(Point::new(40), Point::new(40))),
            vec![70, 95, 10, 40]
        );
        assert_eq!(i.range(Point::new(41), Point::new(69)).len(), 0);
    }

    #[test]
    fn for_each_in_range_matches_range_without_allocating_results() {
        let i = idx(&[70, 10, 40, 95]);
        let cases = [
            (10, 70),
            (80, 20),
            (40, 40), // full ring
            (41, 69), // empty arc
            (95, 10),
        ];
        for (a, b) in cases {
            let mut seen = Vec::new();
            i.for_each_in_range(Point::new(a), Point::new(b), |p, id| seen.push((p, id)));
            assert_eq!(seen, i.range(Point::new(a), Point::new(b)), "({a}, {b}]");
        }
        let empty: RingIndex<u64> = RingIndex::new(space());
        empty.for_each_in_range(Point::new(0), Point::new(50), |_, _| {
            panic!("no entries to visit")
        });
    }

    #[test]
    fn nth_walks_ring_order() {
        let i = idx(&[70, 10, 40, 95]);
        assert_eq!(i.nth(0).unwrap().0, Point::new(10));
        assert_eq!(i.nth(3).unwrap().0, Point::new(95));
        assert_eq!(i.nth(4), None);
    }

    #[test]
    fn empty_index_answers_none() {
        let i: RingIndex<u64> = RingIndex::new(space());
        assert!(i.is_empty());
        assert_eq!(i.successor(Point::new(1)), None);
        assert_eq!(i.predecessor(Point::new(1)), None);
        assert_eq!(i.nth(0), None);
        assert!(i.range(Point::new(0), Point::new(50)).is_empty());
        assert_eq!(i.entries().count(), 0);
    }

    /// The fence column holds exactly each chunk's last entry.
    fn assert_fences(i: &RingIndex<u64>) {
        let lasts: Vec<(Point, u64)> = i.chunks.iter().map(|c| last(c)).collect();
        assert_eq!(i.fences, lasts, "fence column out of step with the chunks");
    }

    #[test]
    fn chunks_split_and_merge_under_heavy_churn() {
        let space = KeySpace::full();
        let mut i: RingIndex<u64> = RingIndex::new(space);
        let n = 10 * MAX_CHUNK as u64;
        let mut splits = 0;
        for k in 0..n {
            // Spread insertions over the ring to hit many chunks.
            let chunks = i.chunks.len();
            assert!(i.insert(Point::new(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)), k));
            splits += usize::from(chunks > 0 && i.chunks.len() > chunks);
            assert_fences(&i);
        }
        assert_eq!(i.len(), n as usize);
        assert!(splits > 0, "index must have split");
        assert!(i.chunks.iter().all(|c| c.len() < MAX_CHUNK));
        // Entries stay globally sorted across chunk boundaries.
        let all: Vec<_> = i.entries().copied().collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        // Remove everything again through the incremental path.
        let mut merges = 0;
        for k in 0..n {
            let before: Vec<usize> = i.chunks.iter().map(Vec::len).collect();
            assert!(i.remove(Point::new(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)), k));
            // A merge drops a chunk that did not just run empty.
            merges += usize::from(i.chunks.len() < before.len() && !before.contains(&1));
            assert_fences(&i);
        }
        assert!(merges > 0, "sparse chunks must have merged");
        assert!(i.is_empty());
        assert!(i.chunks.is_empty());
    }

    #[test]
    fn strict_neighbours_pair_the_strict_queries() {
        let mut i = idx(&[70, 10, 40, 95]);
        i.insert(Point::new(40), 7);
        for &(p, id) in &[
            (10, 1),
            (40, 2),
            (40, 7),
            (95, 3),
            (70, 0),
            (50, 9),
            (99, 4),
        ] {
            let (p, id) = (Point::new(p), id);
            assert_eq!(
                i.strict_neighbours(p, id),
                (i.strict_predecessor(p, id), i.strict_successor(p, id)),
                "({p}, {id})"
            );
        }
        assert_eq!(
            idx(&[42]).strict_neighbours(Point::new(42), 0),
            (None, None)
        );
    }

    #[test]
    fn cluster_walk_goes_around_tiny_rings_and_stops_at_x() {
        let mut i = idx(&[10, 40, 70]);
        i.insert(Point::new(40), 9);
        let walk = |i: &RingIndex<u64>, x: u64, r: usize| {
            let mut seen = Vec::new();
            i.for_each_cluster_before(Point::new(x), r, |p, id| seen.push((p.get(), id)));
            seen
        };
        // Nearest first, ascending id inside the cluster at 40.
        assert_eq!(walk(&i, 71, 2), vec![(70, 2), (40, 1), (40, 9)]);
        // x = 40 holds entries: the walk stops right after reaching it.
        assert_eq!(walk(&i, 40, 8), vec![(10, 0), (70, 2), (40, 1), (40, 9)]);
        // x = 50 holds none: clusters repeat until r are visited.
        assert_eq!(
            walk(&i, 50, 4),
            vec![(40, 1), (40, 9), (10, 0), (70, 2), (40, 1), (40, 9)]
        );
        // Every entry at x: nothing precedes it.
        assert_eq!(walk(&idx(&[5]), 5, 3), vec![]);
        assert_eq!(walk(&idx(&[5]), 6, 3), vec![(5, 0)]);
    }

    #[test]
    fn debug_reports_len() {
        let i = idx(&[1, 2, 3]);
        assert!(format!("{i:?}").contains("len: 3"));
    }
}
