//! Batched incremental maintenance: the dirty-set behind
//! [`ChordNetwork::batched_maintenance_round`].
//!
//! A classic maintenance round is O(n): every live node stabilizes and
//! routes one `fix_finger` lookup, whether or not anything near it
//! changed. That was the wall between the 10⁶-node chord arms and 10⁷ —
//! five rounds of ten million routed lookups each dwarf the churn they
//! repair (a few hundred membership events).
//!
//! The batched model instead keeps a **dirty set** of exactly the state
//! that is known stale, fed by the same write funnels and membership
//! events that keep the verification ledger current:
//!
//! * a per-node *sp* flag — the node's successor list or predecessor
//!   pointer disagrees with the ground truth (set by the ledger's
//!   `recompute_sp` whenever a re-check fails, cleared when one passes);
//! * a per-node *finger bitmask* — finger levels whose entry is missing
//!   or wrong (set by `recompute_finger`, which membership events invoke
//!   for precisely the ownership arcs they moved; newly joined nodes
//!   start all-dirty).
//!
//! [`ChordNetwork::batched_maintenance_round`] then walks only the dirty
//! queue: sp-dirty nodes run the ordinary `check_predecessor` +
//! `stabilize` protocol ops; dirty finger levels are refreshed by
//! **ownership-run jumping** — one routed lookup resolves the lowest
//! dirty level, and every higher dirty level whose target falls inside
//! the returned owner's arc reuses the answer (the same trick
//! `bulk_join` uses to build whole tables in O(log n) lookups). Repairs
//! that fail or return stale answers re-mark themselves through the
//! funnels and are retried next round, so convergence is still driven by
//! the protocol — the dirty set only *selects* where to spend work.
//!
//! The bookkeeping around those lookups costs index searches, not
//! messages, and is kept to about one search per finger *run* (a span of
//! levels that resolve to one node) rather than one per level:
//!
//! * a repaired run is written with one multi-level arena write and each
//!   level is re-checked once, against one truth search per span of
//!   levels sharing a true owner. The owner of a level's target at
//!   clockwise distance `t` from the origin owns every later target up
//!   to `t` (a full turn when it sits at the origin's point). The span
//!   is decided by the truth's distance, never by the looked-up owner's,
//!   which may be stale;
//! * a membership event at `hi` re-checks the low finger bits without a
//!   range query per bit: with `lo` and `pp` the nearest distinct points
//!   before `hi` and before `lo`, every bit with
//!   `2^bit < min(d(lo, hi), d(pp, lo))` moves exactly `lo`'s co-located
//!   cluster, whose targets all resolve to `successor(hi)` — one cluster
//!   query and one truth search for that prefix, about 45 of 64 bits at
//!   10⁵ peers. Higher bits keep their range query;
//! * the successor-list holders a membership event marks come from one
//!   backward walk over the index's clusters, in the order r repeated
//!   predecessor searches would find them (that order is the FIFO repair
//!   order, so it fixes the round's RNG draws).
//!
//! Per round this is amortized O(changes · log n) instead of O(n) routed
//! lookups (counter-asserted in `tests/batched_maintenance.rs`), and a
//! [`MaintenanceBudget`] caps the work per round so scenarios can trade
//! staleness for repair cost — the backlog left behind is first-class
//! ([`ChordNetwork::maintenance_backlog`]) and surfaced in e16 records.
//!
//! [`ChordNetwork::batched_maintenance_round`]: crate::ChordNetwork::batched_maintenance_round
//! [`ChordNetwork::maintenance_backlog`]: crate::ChordNetwork::maintenance_backlog

use std::collections::VecDeque;

/// Work cap for one [`batched_maintenance_round`]: how many dirty
/// entries (an sp flag counts one, each dirty finger level counts one)
/// the round may repair.
///
/// [`batched_maintenance_round`]: crate::ChordNetwork::batched_maintenance_round
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceBudget {
    limit: Option<u32>,
}

impl MaintenanceBudget {
    /// No cap: the round drains every entry dirty when it started.
    pub const fn unlimited() -> MaintenanceBudget {
        MaintenanceBudget { limit: None }
    }

    /// At most `entries` dirty entries repaired per round. `0` is pure
    /// staleness: the round does nothing and the backlog only grows.
    pub const fn per_round(entries: u32) -> MaintenanceBudget {
        MaintenanceBudget {
            limit: Some(entries),
        }
    }

    /// The cap, or `None` when unlimited.
    pub const fn limit(self) -> Option<u32> {
        self.limit
    }
}

/// What one [`batched_maintenance_round`] actually did.
///
/// [`batched_maintenance_round`]: crate::ChordNetwork::batched_maintenance_round
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceWork {
    /// Nodes whose sp flag was taken (each ran `check_predecessor` +
    /// `stabilize`).
    pub sp_refreshed: usize,
    /// Finger levels written (lookups shared across a run count each
    /// level they filled).
    pub fingers_refreshed: usize,
    /// Routed lookups issued for finger repair — the quantity the
    /// O(changes · log n) bound is asserted on.
    pub lookups: u64,
    /// Dirty entries remaining after the round (budget leftovers plus
    /// repairs that re-marked themselves).
    pub backlog: usize,
}

/// The dirty-entry bookkeeping: per-node finger bitmask + sp bit, and a
/// FIFO queue of nodes with any dirty state (each node queued at most
/// once, tracked by the `queued` bitset).
pub(crate) struct DirtySet {
    fingers: Vec<u64>,
    sp: Vec<u64>,
    queued: Vec<u64>,
    queue: VecDeque<u32>,
    entries: usize,
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], i: usize, on: bool) {
    let (w, b) = (i / 64, 1u64 << (i % 64));
    if on {
        words[w] |= b;
    } else {
        words[w] &= !b;
    }
}

impl DirtySet {
    pub(crate) fn new() -> DirtySet {
        DirtySet {
            fingers: Vec::new(),
            sp: Vec::new(),
            queued: Vec::new(),
            queue: VecDeque::new(),
            entries: 0,
        }
    }

    /// Registers arena slot `i` (must be called in slot order).
    pub(crate) fn push_node(&mut self, i: usize) {
        self.fingers.push(0);
        if i / 64 == self.sp.len() {
            self.sp.push(0);
            self.queued.push(0);
        }
    }

    /// Total dirty entries (sp flags + dirty finger levels).
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// Bytes held by the dirty-set bookkeeping (finger masks, the two
    /// bitsets and the live queue entries) — accounted like the
    /// ledger's [`bytes`](crate::ChordNetwork::verifier_bytes): entry
    /// lengths, with reserve slack bounded by the containers' growth
    /// policies. Gated per node in `BENCH_chord_scale.json` so
    /// maintenance state cannot silently erode the scale headroom the
    /// routing-arena and verifier budgets protect.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.fingers.len() + self.sp.len() + self.queued.len()) * size_of::<u64>()
            + self.queue.len() * size_of::<u32>()
    }

    /// Nodes currently queued for processing.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn enqueue(&mut self, i: usize) {
        if !get_bit(&self.queued, i) {
            set_bit(&mut self.queued, i, true);
            self.queue.push_back(i as u32);
        }
    }

    /// Pops the next queued node, clearing its queued bit. The caller
    /// must re-[`enqueue`](Self::enqueue) (via the mark methods) any node
    /// left or made dirty again.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let i = self.queue.pop_front()? as usize;
        set_bit(&mut self.queued, i, false);
        Some(i)
    }

    /// Re-queues `i` if it still carries dirty state (post-processing).
    pub(crate) fn requeue_if_dirty(&mut self, i: usize) {
        if self.fingers[i] != 0 || get_bit(&self.sp, i) {
            self.enqueue(i);
        }
    }

    pub(crate) fn mark_sp(&mut self, i: usize) {
        if !get_bit(&self.sp, i) {
            set_bit(&mut self.sp, i, true);
            self.entries += 1;
        }
        self.enqueue(i);
    }

    pub(crate) fn clear_sp(&mut self, i: usize) {
        if get_bit(&self.sp, i) {
            set_bit(&mut self.sp, i, false);
            self.entries -= 1;
        }
    }

    pub(crate) fn is_sp(&self, i: usize) -> bool {
        get_bit(&self.sp, i)
    }

    /// Takes (returns and clears) the sp flag.
    pub(crate) fn take_sp(&mut self, i: usize) -> bool {
        let was = get_bit(&self.sp, i);
        self.clear_sp(i);
        was
    }

    pub(crate) fn mark_finger(&mut self, i: usize, bit: usize) {
        let mask = 1u64 << bit;
        if self.fingers[i] & mask == 0 {
            self.fingers[i] |= mask;
            self.entries += 1;
        }
        self.enqueue(i);
    }

    pub(crate) fn clear_finger(&mut self, i: usize, bit: usize) {
        let mask = 1u64 << bit;
        if self.fingers[i] & mask != 0 {
            self.fingers[i] &= !mask;
            self.entries -= 1;
        }
    }

    /// Marks every level of a `bits`-wide table dirty (new joiners).
    pub(crate) fn mark_all_fingers(&mut self, i: usize, bits: usize) {
        let full = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        self.entries += (full & !self.fingers[i]).count_ones() as usize;
        self.fingers[i] = full;
        self.enqueue(i);
    }

    pub(crate) fn finger_mask(&self, i: usize) -> u64 {
        self.fingers[i]
    }

    /// Takes (returns and clears) up to `limit` of the lowest dirty
    /// finger levels.
    pub(crate) fn take_fingers(&mut self, i: usize, limit: u32) -> u64 {
        let mask = self.fingers[i];
        let available = mask.count_ones();
        let taken = if available <= limit {
            mask
        } else {
            // Lowest `limit` set bits.
            let mut m = mask;
            for _ in 0..limit {
                m &= m - 1;
            }
            mask & !m
        };
        self.fingers[i] &= !taken;
        self.entries -= taken.count_ones() as usize;
        taken
    }

    /// Forgets everything and re-registers `n` slots — the bulk-rebuild
    /// path, where the caller just made every node converged.
    pub(crate) fn reset(&mut self, n: usize) {
        self.fingers.clear();
        self.fingers.resize(n, 0);
        self.sp.clear();
        self.sp.resize(n.div_ceil(64), 0);
        self.queued.clear();
        self.queued.resize(n.div_ceil(64), 0);
        self.queue.clear();
        self.entries = 0;
    }

    /// Drops every dirty entry of a node that died.
    pub(crate) fn clear_node(&mut self, i: usize) {
        self.entries -= self.fingers[i].count_ones() as usize;
        self.fingers[i] = 0;
        self.clear_sp(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> DirtySet {
        let mut d = DirtySet::new();
        for i in 0..100 {
            d.push_node(i);
        }
        d
    }

    #[test]
    fn marking_is_idempotent_and_counts_entries() {
        let mut d = set();
        d.mark_sp(3);
        d.mark_sp(3);
        d.mark_finger(3, 7);
        d.mark_finger(3, 7);
        d.mark_finger(4, 0);
        assert_eq!(d.entries(), 3);
        assert_eq!(d.queue_len(), 2, "each node queued once");
        d.clear_sp(3);
        d.clear_sp(3);
        d.clear_finger(3, 7);
        assert_eq!(d.entries(), 1);
    }

    #[test]
    fn queue_pops_fifo_and_requeues_only_dirty() {
        let mut d = set();
        d.mark_sp(5);
        d.mark_finger(9, 2);
        assert_eq!(d.pop(), Some(5));
        assert!(d.take_sp(5));
        d.requeue_if_dirty(5); // clean now: not re-queued
        assert_eq!(d.pop(), Some(9));
        d.requeue_if_dirty(9); // finger bit still set: re-queued
        assert_eq!(d.pop(), Some(9));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn take_fingers_respects_the_limit_lowest_bits_first() {
        let mut d = set();
        d.mark_all_fingers(1, 64);
        assert_eq!(d.entries(), 64);
        let taken = d.take_fingers(1, 3);
        assert_eq!(taken, 0b111);
        assert_eq!(d.entries(), 61);
        let rest = d.take_fingers(1, u32::MAX);
        assert_eq!(rest, !0b111u64);
        assert_eq!(d.entries(), 0);
    }

    #[test]
    fn clear_node_drops_all_entries() {
        let mut d = set();
        d.mark_all_fingers(2, 16);
        d.mark_sp(2);
        assert_eq!(d.entries(), 17);
        d.clear_node(2);
        assert_eq!(d.entries(), 0);
        assert_eq!(d.finger_mask(2), 0);
        assert!(!d.is_sp(2));
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(MaintenanceBudget::unlimited().limit(), None);
        assert_eq!(MaintenanceBudget::per_round(5).limit(), Some(5));
        assert_eq!(MaintenanceBudget::per_round(0).limit(), Some(0));
    }
}
