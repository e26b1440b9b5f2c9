//! Struct-of-arrays routing storage for [`ChordNetwork`](crate::ChordNetwork).
//!
//! The seed kept one heap-allocated `NodeState` per node: a
//! `Vec<Option<NodeId>>` of 64 finger entries (16 bytes each) plus a
//! successor `Vec`, ~1.2 KB of routing state per node before the allocator
//! gets a word in. That representation capped chord rings around 10⁵
//! nodes. `RoutingArena` stores the same state column-wise in shared
//! flat buffers:
//!
//! * **points** — one `Point` per node (`Vec<Point>`).
//! * **alive** — a bitset (`Vec<u64>`, one bit per node).
//! * **predecessors** — one `u32` per node (`u32::MAX` = none).
//! * **successor lists** — one shared `Vec<u32>` with a fixed stride of
//!   `successor_list_len` slots per node plus a per-node length byte.
//! * **fingers** — run-length compressed. In an n-node ring only
//!   ~log₂(n) of the 64 finger targets resolve to distinct nodes (all the
//!   low bits point at the immediate successor), so the 64-entry table is
//!   stored as runs: a per-node `u64` *run-start mask* (bit `b` set ⇔ a
//!   new run begins at finger bit `b`) and `popcount(mask)` run values in
//!   a shared `Vec<u32>` span. Reading entry `b` is a popcount and one
//!   load; a write of any set of levels rewrites one node's ≤ 64-entry
//!   run list once. Spans that outgrow their capacity relocate to the end
//!   of the shared buffer and the buffer compacts when garbage exceeds
//!   half its length.
//!
//! Net effect: ~130 bytes of routing state per node at n = 10⁵ (measure
//! it with `RoutingArena::routing_bytes`), a ≥ 8× reduction that lets
//! chord arms run at 10⁶ nodes. The old accessor shapes survive as cheap
//! views ([`NodeRef`], [`Successors`], [`Fingers`]) so routing, storage
//! and experiment code reads exactly as before.

use core::fmt;
use std::collections::BTreeMap;

use keyspace::Point;

use crate::network::NodeId;

/// Sentinel for "no node" in the flat `u32` columns.
const NONE: u32 = u32::MAX;

#[inline]
fn encode(id: Option<usize>) -> u32 {
    match id {
        Some(i) => {
            debug_assert!((i as u64) < NONE as u64, "arena index {i} overflows u32");
            i as u32
        }
        None => NONE,
    }
}

#[inline]
fn decode(raw: u32) -> Option<usize> {
    (raw != NONE).then_some(raw as usize)
}

/// Mask of finger bits `0..=bit`.
#[inline]
fn bits_through(bit: usize) -> u64 {
    debug_assert!(bit < 64);
    if bit == 63 {
        !0
    } else {
        (1u64 << (bit + 1)) - 1
    }
}

/// Column-wise routing state of every node ever created (live and dead).
///
/// See the [module docs](self) for the layout. All `usize` node arguments
/// are raw arena indices; the public views translate to [`NodeId`].
pub(crate) struct RoutingArena {
    finger_bits: usize,
    succ_cap: usize,
    points: Vec<Point>,
    alive: Vec<u64>,
    preds: Vec<u32>,
    succ_len: Vec<u8>,
    succ_buf: Vec<u32>,
    finger_mask: Vec<u64>,
    finger_off: Vec<u32>,
    finger_cap: Vec<u8>,
    finger_vals: Vec<u32>,
    /// Dead slots in `finger_vals` left behind by span relocation.
    finger_garbage: usize,
    stores: Vec<BTreeMap<Point, Vec<u8>>>,
}

impl RoutingArena {
    pub(crate) fn new(finger_bits: usize, succ_cap: usize) -> RoutingArena {
        assert!(
            (1..=64).contains(&finger_bits),
            "finger table width {finger_bits} outside 1..=64"
        );
        assert!(
            (1..=u8::MAX as usize).contains(&succ_cap),
            "successor list length {succ_cap} outside 1..=255"
        );
        RoutingArena {
            finger_bits,
            succ_cap,
            points: Vec::new(),
            alive: Vec::new(),
            preds: Vec::new(),
            succ_len: Vec::new(),
            succ_buf: Vec::new(),
            finger_mask: Vec::new(),
            finger_off: Vec::new(),
            finger_cap: Vec::new(),
            finger_vals: Vec::new(),
            finger_garbage: 0,
            stores: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Appends a fresh, alive node with empty routing state.
    pub(crate) fn push(&mut self, point: Point) -> usize {
        let i = self.points.len();
        self.points.push(point);
        if i / 64 == self.alive.len() {
            self.alive.push(0);
        }
        self.alive[i / 64] |= 1 << (i % 64);
        self.preds.push(NONE);
        self.succ_len.push(0);
        self.succ_buf
            .resize(self.succ_buf.len() + self.succ_cap, NONE);
        self.finger_mask.push(0);
        self.finger_off.push(0);
        self.finger_cap.push(0);
        self.stores.push(BTreeMap::new());
        i
    }

    pub(crate) fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    pub(crate) fn is_alive(&self, i: usize) -> bool {
        assert!(i < self.points.len(), "node index {i} out of range");
        self.alive[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn set_alive(&mut self, i: usize, alive: bool) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if alive {
            self.alive[word] |= bit;
        } else {
            self.alive[word] &= !bit;
        }
    }

    pub(crate) fn pred(&self, i: usize) -> Option<usize> {
        decode(self.preds[i])
    }

    pub(crate) fn set_pred(&mut self, i: usize, pred: Option<usize>) {
        self.preds[i] = encode(pred);
    }

    pub(crate) fn successors(&self, i: usize) -> &[u32] {
        let off = i * self.succ_cap;
        &self.succ_buf[off..off + self.succ_len[i] as usize]
    }

    /// Whether the stored list equals `ids` after stride truncation.
    pub(crate) fn successors_eq(&self, i: usize, ids: &[NodeId]) -> bool {
        let n = ids.len().min(self.succ_cap);
        self.succ_len[i] as usize == n
            && self
                .successors(i)
                .iter()
                .zip(ids)
                .all(|(&s, id)| s as usize == id.index())
    }

    /// Overwrites the successor list, truncating at the stride.
    pub(crate) fn set_successors(&mut self, i: usize, ids: &[NodeId]) {
        let n = ids.len().min(self.succ_cap);
        let off = i * self.succ_cap;
        for (slot, id) in self.succ_buf[off..off + n].iter_mut().zip(ids) {
            *slot = encode(Some(id.index()));
        }
        self.succ_len[i] = n as u8;
    }

    pub(crate) fn finger(&self, i: usize, bit: usize) -> Option<usize> {
        debug_assert!(bit < self.finger_bits);
        let mask = self.finger_mask[i];
        if mask == 0 {
            return None;
        }
        let run = (mask & bits_through(bit)).count_ones() as usize - 1;
        decode(self.finger_vals[self.finger_off[i] as usize + run])
    }

    /// Sets every finger level in `levels` to `val` with one rewrite of
    /// the run list, merging equal-valued neighbours. Returns the levels
    /// whose entry changed; when none did, the table is left untouched
    /// after one decode per level.
    pub(crate) fn set_fingers(&mut self, i: usize, levels: u64, val: Option<usize>) -> u64 {
        debug_assert!(levels >> (self.finger_bits - 1) >> 1 == 0);
        let mut changed = 0u64;
        let mut rest = levels;
        while rest != 0 {
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.finger(i, b) != val {
                changed |= 1 << b;
            }
        }
        if changed == 0 {
            return 0;
        }
        // Expand the runs into one entry per level (≤ 64), override,
        // and re-encode as maximal runs.
        let mut table = [NONE; 64];
        let mask = self.finger_mask[i];
        let off = self.finger_off[i] as usize;
        let mut starts = mask;
        for &raw in &self.finger_vals[off..off + mask.count_ones() as usize] {
            let s = starts.trailing_zeros() as usize;
            starts &= starts - 1;
            let e = if starts == 0 {
                self.finger_bits
            } else {
                starts.trailing_zeros() as usize
            };
            table[s..e].fill(raw);
        }
        let v = encode(val);
        let mut rest = changed;
        while rest != 0 {
            table[rest.trailing_zeros() as usize] = v;
            rest &= rest - 1;
        }
        let mut ns = [0u8; 64];
        let mut nv = [NONE; 64];
        let mut m = 0usize;
        for (b, &raw) in table[..self.finger_bits].iter().enumerate() {
            if m == 0 || nv[m - 1] != raw {
                ns[m] = b as u8;
                nv[m] = raw;
                m += 1;
            }
        }
        self.write_runs(i, &ns[..m], &nv[..m]);
        changed
    }

    /// Replaces node `i`'s table with an explicit run list (starts strictly
    /// increasing from 0, adjacent values distinct) — the bulk-build path.
    pub(crate) fn set_finger_runs(&mut self, i: usize, starts: &[u8], vals: &[u32]) {
        debug_assert_eq!(starts.len(), vals.len());
        debug_assert!(starts.first().is_none_or(|&s| s == 0));
        self.write_runs(i, starts, vals);
    }

    pub(crate) fn clear_fingers(&mut self, i: usize) {
        self.finger_mask[i] = 0;
        self.finger_garbage += self.finger_cap[i] as usize;
        self.finger_cap[i] = 0;
        self.maybe_compact();
    }

    /// Drops every node's finger span and the shared store — the bulk
    /// rebuild path re-appends spans with [`set_finger_runs`].
    ///
    /// [`set_finger_runs`]: RoutingArena::set_finger_runs
    pub(crate) fn reset_finger_store(&mut self) {
        self.finger_vals.clear();
        self.finger_garbage = 0;
        for i in 0..self.len() {
            self.finger_mask[i] = 0;
            self.finger_off[i] = 0;
            self.finger_cap[i] = 0;
        }
    }

    fn write_runs(&mut self, i: usize, starts: &[u8], vals: &[u32]) {
        // Canonical form: an all-`None` table is mask 0 with no span.
        if vals.iter().all(|&v| v == NONE) {
            self.clear_fingers(i);
            return;
        }
        let m = vals.len();
        let mut mask = 0u64;
        for &s in starts {
            mask |= 1 << s;
        }
        debug_assert_eq!(mask.count_ones() as usize, m, "duplicate run starts");
        if m <= self.finger_cap[i] as usize {
            let off = self.finger_off[i] as usize;
            self.finger_vals[off..off + m].copy_from_slice(vals);
        } else {
            // Relocate to the end of the buffer with a little slack so a
            // split/merge cycle does not relocate every time.
            self.finger_garbage += self.finger_cap[i] as usize;
            let cap = (m + 2).min(self.finger_bits);
            self.finger_off[i] = self.finger_vals.len() as u32;
            self.finger_cap[i] = cap as u8;
            self.finger_vals.extend_from_slice(vals);
            self.finger_vals
                .resize(self.finger_off[i] as usize + cap, NONE);
        }
        self.finger_mask[i] = mask;
        self.maybe_compact();
    }

    /// Rewrites the shared finger buffer once garbage from relocations
    /// exceeds half of it.
    fn maybe_compact(&mut self) {
        if self.finger_vals.len() < 4096 || self.finger_garbage * 2 < self.finger_vals.len() {
            return;
        }
        let mut fresh = Vec::with_capacity(self.finger_vals.len() - self.finger_garbage);
        for i in 0..self.len() {
            let runs = self.finger_mask[i].count_ones() as usize;
            if runs == 0 {
                self.finger_off[i] = 0;
                self.finger_cap[i] = 0;
                continue;
            }
            let off = self.finger_off[i] as usize;
            self.finger_off[i] = fresh.len() as u32;
            self.finger_cap[i] = runs as u8;
            fresh.extend_from_slice(&self.finger_vals[off..off + runs]);
        }
        self.finger_vals = fresh;
        self.finger_garbage = 0;
    }

    pub(crate) fn store(&self, i: usize) -> &BTreeMap<Point, Vec<u8>> {
        &self.stores[i]
    }

    pub(crate) fn store_mut(&mut self, i: usize) -> &mut BTreeMap<Point, Vec<u8>> {
        &mut self.stores[i]
    }

    /// Bytes of routing state currently held across all columns: points,
    /// alive bitset, predecessors, successor lists and the compressed
    /// finger store (relocation garbage included — it is real footprint,
    /// bounded at 50% by compaction). Key-value stores and the
    /// verification ledger are accounted separately.
    pub(crate) fn routing_bytes(&self) -> usize {
        use std::mem::size_of;
        self.points.len() * size_of::<Point>()
            + self.alive.len() * size_of::<u64>()
            + self.preds.len() * size_of::<u32>()
            + self.succ_len.len()
            + self.succ_buf.len() * size_of::<u32>()
            + self.finger_mask.len() * size_of::<u64>()
            + self.finger_off.len() * size_of::<u32>()
            + self.finger_cap.len()
            + self.finger_vals.len() * size_of::<u32>()
    }
}

impl fmt::Debug for RoutingArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutingArena")
            .field("nodes", &self.len())
            .field("finger_bits", &self.finger_bits)
            .field("succ_cap", &self.succ_cap)
            .field("finger_vals", &self.finger_vals.len())
            .field("finger_garbage", &self.finger_garbage)
            .finish()
    }
}

// ---- views -----------------------------------------------------------------

/// Borrowed view of one node's state — the accessor shape the old owned
/// `NodeState` record had, backed by the arena columns at zero copy cost.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    arena: &'a RoutingArena,
    id: usize,
}

impl<'a> NodeRef<'a> {
    pub(crate) fn new(arena: &'a RoutingArena, id: usize) -> NodeRef<'a> {
        assert!(id < arena.len(), "node index {id} out of range");
        NodeRef { arena, id }
    }

    /// The node's ring identifier.
    pub fn point(&self) -> Point {
        self.arena.point(self.id)
    }

    /// Whether the node is currently live.
    pub fn is_alive(&self) -> bool {
        self.arena.is_alive(self.id)
    }

    /// The predecessor pointer, if known.
    pub fn predecessor(&self) -> Option<NodeId> {
        self.arena.pred(self.id).map(NodeId::from_index)
    }

    /// The successor list, nearest first. May transiently contain dead
    /// nodes between failures and the next stabilization round.
    pub fn successors(&self) -> Successors<'a> {
        Successors {
            ids: self.arena.successors(self.id),
        }
    }

    /// The first entry of the successor list, if any.
    pub fn successor(&self) -> Option<NodeId> {
        self.successors().first()
    }

    /// The finger table; entry `i` is the believed successor of
    /// `point + 2^i`.
    pub fn fingers(&self) -> Fingers<'a> {
        let runs = self.arena.finger_mask[self.id].count_ones() as usize;
        let off = self.arena.finger_off[self.id] as usize;
        Fingers {
            mask: self.arena.finger_mask[self.id],
            vals: &self.arena.finger_vals[off..off + runs],
            bits: self.arena.finger_bits,
        }
    }

    /// The key-value pairs this node currently holds (as owner or
    /// replica).
    pub fn store(&self) -> &'a BTreeMap<Point, Vec<u8>> {
        self.arena.store(self.id)
    }
}

impl fmt::Display for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Node@{} ({}, {} successors)",
            self.point(),
            if self.is_alive() { "alive" } else { "dead" },
            self.successors().len()
        )
    }
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Borrowed view of a successor list.
#[derive(Clone, Copy)]
pub struct Successors<'a> {
    ids: &'a [u32],
}

impl<'a> Successors<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Entry `i`, if present.
    pub fn get(&self, i: usize) -> Option<NodeId> {
        self.ids.get(i).map(|&s| NodeId::from_index(s as usize))
    }

    /// The first entry, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.get(0)
    }

    /// Whether `id` appears in the list.
    pub fn contains(&self, id: NodeId) -> bool {
        self.ids.iter().any(|&s| s as usize == id.index())
    }

    /// The entries in list order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.ids.iter().map(|&s| NodeId::from_index(s as usize))
    }

    /// The entries collected into an owned vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl PartialEq for Successors<'_> {
    fn eq(&self, other: &Successors<'_>) -> bool {
        self.ids == other.ids
    }
}

impl PartialEq<[NodeId]> for Successors<'_> {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, &b)| a == b)
    }
}

impl fmt::Debug for Successors<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|id| id.index()))
            .finish()
    }
}

/// Borrowed view of a finger table: 64 logical `Option<NodeId>` entries
/// decoded on demand from the run-length representation.
#[derive(Clone, Copy)]
pub struct Fingers<'a> {
    mask: u64,
    vals: &'a [u32],
    bits: usize,
}

impl<'a> Fingers<'a> {
    /// Number of logical entries (`⌈log₂ M⌉`).
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the table has zero logical entries (never true for a real
    /// ring; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Entry `bit`: the believed successor of `point + 2^bit`.
    pub fn get(&self, bit: usize) -> Option<NodeId> {
        assert!(bit < self.bits, "finger bit {bit} out of range");
        if self.mask == 0 {
            return None;
        }
        let run = (self.mask & bits_through(bit)).count_ones() as usize - 1;
        decode(self.vals[run]).map(NodeId::from_index)
    }

    /// All logical entries in bit order.
    pub fn iter(&self) -> impl Iterator<Item = Option<NodeId>> + 'a {
        let this = *self;
        (0..self.bits).map(move |b| this.get(b))
    }

    /// The run decomposition: `(first_bit, end_bit_exclusive, value)`
    /// triples covering all bits. Iterating runs instead of bits is the
    /// cheap way to enumerate the table's ~log n *distinct* values.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize, Option<NodeId>)> + 'a {
        // `vals` holds one value per set mask bit (none when the mask is
        // 0), so each step clears exactly the run start it consumed.
        let bits = self.bits;
        let mut mask = self.mask;
        self.vals.iter().map(move |&raw| {
            let start = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let end = if mask == 0 {
                bits
            } else {
                mask.trailing_zeros() as usize
            };
            (start, end, decode(raw).map(NodeId::from_index))
        })
    }

    /// The distinct populated values, in run order.
    pub fn distinct(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.vals
            .iter()
            .filter_map(|&raw| decode(raw).map(NodeId::from_index))
    }

    /// The populated values of the runs whose first bit is below `bits`,
    /// in run order: a prefix of [`distinct`](Self::distinct), found with
    /// one popcount.
    pub(crate) fn runs_starting_below(
        &self,
        bits: u32,
    ) -> impl DoubleEndedIterator<Item = NodeId> + 'a {
        let below = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
        let runs = (self.mask & below).count_ones() as usize;
        self.vals[..runs]
            .iter()
            .filter_map(|&raw| decode(raw).map(NodeId::from_index))
    }

    /// All logical entries collected into the old owned representation.
    pub fn to_vec(&self) -> Vec<Option<NodeId>> {
        self.iter().collect()
    }
}

impl PartialEq for Fingers<'_> {
    fn eq(&self, other: &Fingers<'_>) -> bool {
        // Tables are kept canonical (adjacent runs merged, all-`None` is
        // mask 0), so representation equality is semantic equality.
        self.bits == other.bits && self.mask == other.mask && self.vals == other.vals
    }
}

impl fmt::Debug for Fingers<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.runs().map(|(s, e, v)| (s..e, v.map(|id| id.index()))))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn arena(bits: usize) -> RoutingArena {
        let mut a = RoutingArena::new(bits, 8);
        for i in 0..10 {
            a.push(Point::new(i * 100));
        }
        a
    }

    #[test]
    fn fresh_node_has_empty_routing() {
        let a = arena(64);
        let n = NodeRef::new(&a, 3);
        assert_eq!(n.point(), Point::new(300));
        assert!(n.is_alive());
        assert_eq!(n.predecessor(), None);
        assert_eq!(n.successor(), None);
        assert!(n.successors().is_empty());
        assert_eq!(n.fingers().len(), 64);
        assert!(n.fingers().iter().all(|f| f.is_none()));
    }

    #[test]
    fn successor_lists_truncate_at_the_stride() {
        let mut a = arena(8);
        let long: Vec<NodeId> = (0..12).map(NodeId::from_index).collect();
        a.set_successors(2, &long);
        assert_eq!(a.successors(2).len(), 8);
        assert!(a.successors_eq(2, &long), "truncation-aware equality");
        let view = NodeRef::new(&a, 2).successors();
        assert_eq!(view.first(), Some(NodeId::from_index(0)));
        assert_eq!(view.get(7), Some(NodeId::from_index(7)));
        assert_eq!(view.get(8), None);
        assert!(view.contains(NodeId::from_index(5)));
        assert!(!view.contains(NodeId::from_index(11)));
    }

    #[test]
    fn finger_point_updates_match_a_naive_table() {
        let bits = 64;
        let mut a = arena(bits);
        let mut naive: Vec<Vec<Option<usize>>> = vec![vec![None; bits]; 10];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for step in 0..6_000 {
            let i = rng.gen_range(0..10usize);
            let bit = rng.gen_range(0..bits);
            // Few distinct values => long runs; occasional None clears.
            let val = match rng.gen_range(0..10u32) {
                0 => None,
                v => Some((v % 4) as usize),
            };
            if step % 3 == 0 {
                // A multi-level write: a random set of levels, often a
                // contiguous span as a repaired ownership run is.
                let levels = if rng.gen_range(0..2u32) == 0 {
                    let hi = rng.gen_range(bit..bits);
                    bits_through(hi) & !((1u64 << bit) - 1)
                } else {
                    rng.gen::<u64>()
                };
                let mut want = 0u64;
                for (b, entry) in naive[i].iter_mut().enumerate() {
                    if levels >> b & 1 == 1 && *entry != val {
                        want |= 1 << b;
                        *entry = val;
                    }
                }
                assert_eq!(a.set_fingers(i, levels, val), want, "step {step}");
            } else {
                let changed = a.set_fingers(i, 1 << bit, val) != 0;
                assert_eq!(changed, naive[i][bit] != val, "step {step}");
                naive[i][bit] = val;
            }
            for (b, &want) in naive[i].iter().enumerate() {
                assert_eq!(a.finger(i, b), want, "node {i} bit {b} step {step}");
            }
            // The run views agree with the per-bit decode: maximal runs of
            // equal entries, none at all for the canonical empty table.
            let f = NodeRef::new(&a, i).fingers();
            let mut want_runs: Vec<(usize, usize, Option<NodeId>)> = Vec::new();
            for (b, v) in f.iter().enumerate() {
                match want_runs.last_mut() {
                    Some(run) if run.2 == v => run.1 = b + 1,
                    _ => want_runs.push((b, b + 1, v)),
                }
            }
            if f.iter().all(|v| v.is_none()) {
                want_runs.clear();
            }
            assert_eq!(f.runs().collect::<Vec<_>>(), want_runs, "step {step}");
            let want_distinct: Vec<NodeId> = want_runs.iter().filter_map(|r| r.2).collect();
            assert_eq!(
                f.distinct().collect::<Vec<_>>(),
                want_distinct,
                "step {step}"
            );
        }
        // Relocation garbage stays bounded by compaction.
        assert!(a.finger_garbage * 2 <= a.finger_vals.len().max(4096));
    }

    #[test]
    fn finger_runs_are_canonical_and_views_agree() {
        let mut a = arena(16);
        for bit in 0..16 {
            a.set_fingers(0, 1 << bit, Some(if bit < 5 { 1 } else { 2 }));
        }
        let f = NodeRef::new(&a, 0).fingers();
        let runs: Vec<_> = f.runs().collect();
        assert_eq!(
            runs,
            vec![
                (0, 5, Some(NodeId::from_index(1))),
                (5, 16, Some(NodeId::from_index(2))),
            ]
        );
        assert_eq!(f.distinct().count(), 2);
        // Clearing everything returns to the canonical empty table.
        for bit in 0..16 {
            a.set_fingers(0, 1 << bit, None);
        }
        assert_eq!(a.finger_mask[0], 0);
        assert!(NodeRef::new(&a, 0).fingers().iter().all(|f| f.is_none()));
    }

    #[test]
    fn set_finger_runs_matches_point_updates() {
        let mut a = arena(64);
        a.set_finger_runs(0, &[0, 10, 40], &[7, 8, NONE]);
        let mut b = arena(64);
        for bit in 0..64 {
            let v = match bit {
                0..=9 => Some(7),
                10..=39 => Some(8),
                _ => None,
            };
            b.set_fingers(1, 1 << bit, v);
        }
        for bit in 0..64 {
            assert_eq!(a.finger(0, bit), b.finger(1, bit), "bit {bit}");
        }
    }

    #[test]
    fn alive_bitset_tracks_state() {
        let mut a = arena(4);
        assert!(a.is_alive(7));
        a.set_alive(7, false);
        assert!(!a.is_alive(7));
        assert!(a.is_alive(6) && a.is_alive(8));
        a.set_alive(7, true);
        assert!(a.is_alive(7));
    }

    #[test]
    fn routing_bytes_is_a_fraction_of_the_old_representation() {
        let mut a = RoutingArena::new(64, 8);
        for i in 0..1_000u64 {
            let id = a.push(Point::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let succs: Vec<NodeId> = (1..=8).map(NodeId::from_index).collect();
            a.set_successors(id, &succs);
            a.set_pred(id, Some(id));
            // A realistic ~log n distinct-value table.
            a.set_finger_runs(id, &[0, 47, 50, 53, 56, 59, 62], &[1, 2, 3, 4, 5, 6, 7]);
        }
        let per_node = a.routing_bytes() as f64 / 1_000.0;
        // Old representation: 64 * 16 B fingers + 8 * 8 B successors + the
        // struct itself — well over 1 KB.
        assert!(per_node < 150.0, "bytes/node {per_node}");
    }

    #[test]
    fn display_mentions_liveness() {
        let mut a = arena(4);
        assert!(NodeRef::new(&a, 1).to_string().contains("alive"));
        a.set_alive(1, false);
        assert!(NodeRef::new(&a, 1).to_string().contains("dead"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_view_panics() {
        let a = arena(4);
        let _ = NodeRef::new(&a, 99);
    }
}
