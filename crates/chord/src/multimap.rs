//! A compact sorted-run multimap from `u32` keys to `u32` values.
//!
//! The incremental verification ledger needs two reverse indexes —
//! "which nodes' derived successor is `y`?" and "which nodes' predecessor
//! pointer is `y`?" — that it consults on every membership event. The
//! obvious `Vec<Vec<u32>>` representation costs a 24-byte `Vec` header
//! per node *per index* before a single entry is stored (~48 B/node of
//! pure bookkeeping at 10⁷ nodes). [`CompactMultiMap`] stores the same
//! relation as `(key, value)` pairs packed into sorted `u64`s
//! (`key << 32 | value`) held in bounded chunks — the same
//! chunked-sorted-vec shape as `ringidx` and the arena's shared finger
//! store:
//!
//! * **lookup** of a key's values: binary search to the first packed
//!   entry of the key, then a run scan — O(log n + hits);
//! * **insert/remove**: O(log n) search plus one bounded `memmove`
//!   (≤ [`MAX_CHUNK`] entries), amortized by chunk splits and merges;
//! * **bytes**: 8 B per entry plus a few dozen bytes per 1024-entry
//!   chunk — no per-key headers at all.
//!
//! Both ledger relations hold at most one entry per live node, so the two
//! maps together cost ~16 B/node where the `Vec<Vec<u32>>` pair cost
//! ~80 B/node (headers plus r-long successor watch lists).

use core::fmt;

/// Maximum packed entries per chunk; a full chunk splits into two halves.
const MAX_CHUNK: usize = 1024;

/// Chunks below this occupancy try to merge with a neighbour after a
/// removal, bounding fragmentation under sustained churn.
const MIN_CHUNK: usize = MAX_CHUNK / 8;

#[inline]
fn pack(key: u32, value: u32) -> u64 {
    (key as u64) << 32 | value as u64
}

/// A sorted multimap of `u32 -> u32` pairs, stored as packed `u64`s in
/// bounded sorted chunks. See the [module docs](self) for the layout and
/// cost model.
#[derive(Clone, Default)]
pub(crate) struct CompactMultiMap {
    chunks: Vec<Vec<u64>>,
    len: usize,
}

impl CompactMultiMap {
    pub(crate) fn new() -> CompactMultiMap {
        CompactMultiMap::default()
    }

    /// Builds a map from arbitrary-order `(key, value)` pairs in one
    /// O(n log n) sort — the bulk-rebuild path. Exact duplicates collapse.
    pub(crate) fn bulk(pairs: impl IntoIterator<Item = (u32, u32)>) -> CompactMultiMap {
        let mut packed: Vec<u64> = pairs.into_iter().map(|(k, v)| pack(k, v)).collect();
        packed.sort_unstable();
        packed.dedup();
        let len = packed.len();
        // Fill chunks to half capacity so early inserts don't split.
        let fill = MAX_CHUNK / 2;
        let mut chunks = Vec::with_capacity(len.div_ceil(fill));
        let mut packed = packed.into_iter().peekable();
        while packed.peek().is_some() {
            chunks.push(packed.by_ref().take(fill).collect());
        }
        CompactMultiMap { chunks, len }
    }

    /// Number of `(key, value)` entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts `(key, value)`; returns `false` if the exact pair was
    /// already present.
    pub(crate) fn insert(&mut self, key: u32, value: u32) -> bool {
        let e = pack(key, value);
        if self.chunks.is_empty() {
            self.chunks.push(vec![e]);
            self.len = 1;
            return true;
        }
        // The first chunk whose last entry is >= e holds (or should hold)
        // the pair; past-the-end entries append to the final chunk.
        let ci = self
            .chunks
            .partition_point(|c| *c.last().expect("chunks are non-empty") < e)
            .min(self.chunks.len() - 1);
        let chunk = &mut self.chunks[ci];
        match chunk.binary_search(&e) {
            Ok(_) => false,
            Err(off) => {
                chunk.insert(off, e);
                self.len += 1;
                if chunk.len() >= MAX_CHUNK {
                    let upper = chunk.split_off(MAX_CHUNK / 2);
                    self.chunks[ci].shrink_to_fit();
                    self.chunks.insert(ci + 1, upper);
                }
                true
            }
        }
    }

    /// Removes `(key, value)`; returns `false` if the pair was absent.
    pub(crate) fn remove(&mut self, key: u32, value: u32) -> bool {
        let e = pack(key, value);
        if self.chunks.is_empty() {
            return false;
        }
        let ci = self
            .chunks
            .partition_point(|c| *c.last().expect("chunks are non-empty") < e);
        if ci == self.chunks.len() {
            return false;
        }
        let Ok(off) = self.chunks[ci].binary_search(&e) else {
            return false;
        };
        self.chunks[ci].remove(off);
        self.len -= 1;
        if self.chunks[ci].is_empty() {
            self.chunks.remove(ci);
        } else if self.chunks[ci].len() < MIN_CHUNK {
            let merge_into = |a: usize, b: usize, chunks: &mut Vec<Vec<u64>>| {
                if chunks[a].len() + chunks[b].len() <= MAX_CHUNK / 2 {
                    let tail = chunks.remove(b);
                    chunks[a].extend(tail);
                    true
                } else {
                    false
                }
            };
            if ci + 1 < self.chunks.len() {
                merge_into(ci, ci + 1, &mut self.chunks);
            } else if ci > 0 {
                merge_into(ci - 1, ci, &mut self.chunks);
            }
        }
        true
    }

    /// The values stored under `key`, in ascending order.
    ///
    /// Collects into a `Vec` for callers that mutate the map while
    /// walking the result; [`next_value`](Self::next_value) walks one key
    /// without collecting.
    pub(crate) fn values(&self, key: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(v) = self.next_value(key, from) {
            out.push(v);
            let Some(next) = v.checked_add(1) else { break };
            from = next;
        }
        out
    }

    /// The smallest value stored under `key` that is at least `from`:
    /// one binary search, no allocation.
    pub(crate) fn next_value(&self, key: u32, from: u32) -> Option<u32> {
        let lo = pack(key, from);
        let ci = self
            .chunks
            .partition_point(|c| *c.last().expect("chunks are non-empty") < lo);
        let chunk = self.chunks.get(ci)?;
        let e = chunk[chunk.partition_point(|&e| e < lo)];
        (e >> 32 == key as u64).then_some(e as u32)
    }

    /// Bytes of entry data plus chunk-list headers. Mirrors the ledger's
    /// historical accounting (entry lengths, not reserve capacity; the
    /// slack is bounded by the chunking constants).
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.len * size_of::<u64>() + self.chunks.len() * size_of::<Vec<u64>>()
    }
}

impl fmt::Debug for CompactMultiMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompactMultiMap")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut m = CompactMultiMap::new();
        assert!(m.insert(5, 10));
        assert!(m.insert(5, 7));
        assert!(!m.insert(5, 7), "exact duplicates rejected");
        assert!(m.insert(2, 1));
        assert_eq!(m.len(), 3);
        assert_eq!(m.values(5), vec![7, 10], "values sorted ascending");
        assert_eq!(m.values(2), vec![1]);
        assert_eq!(m.values(99), Vec::<u32>::new());
        assert_eq!(m.next_value(5, 0), Some(7));
        assert_eq!(m.next_value(5, 8), Some(10));
        assert_eq!(m.next_value(5, 11), None);
        assert_eq!(m.next_value(4, 0), None);
        assert!(m.remove(5, 10));
        assert!(!m.remove(5, 10));
        assert_eq!(m.values(5), vec![7]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn bulk_matches_incremental_construction() {
        let pairs: Vec<(u32, u32)> = (0..500).map(|i| (i % 37, i)).collect();
        let bulk = CompactMultiMap::bulk(pairs.iter().copied());
        let mut incr = CompactMultiMap::new();
        for &(k, v) in &pairs {
            assert!(incr.insert(k, v));
        }
        assert_eq!(bulk.len(), incr.len());
        for k in 0..40 {
            assert_eq!(bulk.values(k), incr.values(k), "key {k}");
        }
    }

    #[test]
    fn extreme_keys_and_values() {
        let mut m = CompactMultiMap::new();
        m.insert(u32::MAX, u32::MAX);
        m.insert(u32::MAX, 0);
        m.insert(0, u32::MAX);
        m.insert(0, 0);
        assert_eq!(m.values(u32::MAX), vec![0, u32::MAX]);
        assert_eq!(m.values(0), vec![0, u32::MAX]);
    }

    #[test]
    fn random_churn_matches_a_btreeset_model() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut m = CompactMultiMap::new();
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        for step in 0..60_000 {
            let k = rng.gen_range(0..50u32);
            let v = rng.gen_range(0..200u32);
            if rng.gen_range(0..3u32) == 0 {
                assert_eq!(m.remove(k, v), model.remove(&(k, v)), "step {step}");
            } else {
                assert_eq!(m.insert(k, v), model.insert((k, v)), "step {step}");
            }
        }
        assert_eq!(m.len(), model.len());
        for k in 0..50 {
            let want: Vec<u32> = model
                .range((k, 0)..=(k, u32::MAX))
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(m.values(k), want, "key {k}");
        }
    }

    #[test]
    fn chunks_split_and_merge_under_heavy_churn() {
        let mut m = CompactMultiMap::new();
        let n = 6 * MAX_CHUNK as u32;
        for i in 0..n {
            assert!(m.insert(i.wrapping_mul(0x9E37_79B9), i));
        }
        assert_eq!(m.len(), n as usize);
        assert!(m.chunks.len() > 1, "map must have split");
        for c in &m.chunks {
            assert!(c.windows(2).all(|w| w[0] < w[1]), "chunk sorted");
        }
        for i in 0..n {
            assert!(m.remove(i.wrapping_mul(0x9E37_79B9), i));
        }
        assert_eq!(m.len(), 0);
        assert!(m.chunks.is_empty());
    }

    #[test]
    fn values_walk_across_chunk_boundaries() {
        // One key with more values than a chunk holds: the run scan must
        // continue into following chunks.
        let mut m = CompactMultiMap::new();
        let n = MAX_CHUNK as u32 + MAX_CHUNK as u32 / 2;
        for v in 0..n {
            m.insert(7, v);
        }
        m.insert(6, 1);
        m.insert(8, 1);
        let vals = m.values(7);
        assert_eq!(vals.len(), n as usize);
        assert!(vals.windows(2).all(|w| w[0] + 1 == w[1]));
    }

    #[test]
    fn bytes_track_entries_not_headers_per_key() {
        let mut m = CompactMultiMap::new();
        for i in 0..1000u32 {
            m.insert(i, i);
        }
        let per_entry = m.bytes() as f64 / 1000.0;
        assert!(per_entry < 9.0, "bytes/entry {per_entry}");
        assert!(format!("{m:?}").contains("len: 1000"));
    }
}
