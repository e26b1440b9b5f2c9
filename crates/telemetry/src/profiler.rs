//! Deterministic span profiler: per-phase cost attribution with interned
//! span ids and flamegraph-compatible export.
//!
//! The paper's cost bound is per *lookup*, but since the retry/fallback
//! work a slow lookup's latency may be owed to backoff, successor-walks,
//! quorum verification or maintenance repair rather than the finger walk
//! itself. The [`SpanProfiler`] attributes **simulated** cost (ticks or
//! messages — the caller picks the unit per span) to a fixed taxonomy of
//! phases, with the same determinism contract as the rest of the
//! recorder: no RNG draws, no wall-clock reads, relaxed atomic adds on
//! preallocated slots, so the profile is a pure function of the run.
//!
//! Span names are semicolon-separated stacks (`lookup;retry_backoff`),
//! which makes [`SpanProfiler::collapsed`] directly consumable by
//! `flamegraph.pl` / speedscope ("collapsed stack" format, one
//! `stack cost` line per span).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Fixed span-slot capacity. The taxonomy is a dozen phases; 32 leaves
/// slack while keeping the always-allocated footprint at 256 B.
const SPAN_CAPACITY: usize = 32;

/// Interned handle for a named span; obtained once from
/// [`SpanProfiler::span`], then used for lock-free cost adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

/// Deterministic per-phase cost profiler (see the module docs).
///
/// # Example
///
/// ```
/// use telemetry::SpanProfiler;
///
/// let p = SpanProfiler::new();
/// let walk = p.span("lookup;finger_walk");
/// let retry = p.span("lookup;retry_backoff");
/// p.add(walk, 12);
/// p.add(retry, 40);
/// assert_eq!(p.top(1)[0], ("lookup;retry_backoff".to_string(), 40));
/// assert!(p.collapsed().contains("lookup;finger_walk 12\n"));
/// ```
#[derive(Debug)]
pub struct SpanProfiler {
    names: Mutex<Vec<&'static str>>,
    costs: Box<[AtomicU64]>,
    /// Whether several threads may add at once (see
    /// [`Recorder::single_writer`](crate::Recorder::single_writer)).
    shared: bool,
}

impl SpanProfiler {
    /// Creates an empty profiler.
    pub fn new() -> SpanProfiler {
        SpanProfiler {
            names: Mutex::new(Vec::new()),
            costs: (0..SPAN_CAPACITY).map(|_| AtomicU64::new(0)).collect(),
            shared: true,
        }
    }

    /// An empty profiler for one writer at a time, the profiler of a
    /// [`Recorder::single_writer`](crate::Recorder::single_writer): each
    /// [`add`](SpanProfiler::add) is a plain load and store instead of a
    /// locked read-modify-write.
    pub(crate) fn single_writer() -> SpanProfiler {
        SpanProfiler {
            shared: false,
            ..SpanProfiler::new()
        }
    }

    /// Registers (or looks up) a span by name and returns its handle.
    /// Idempotent; meant for setup paths, not per-event use. Names are
    /// `'static` on purpose — the taxonomy is compiled in, never built
    /// from runtime data.
    ///
    /// # Panics
    ///
    /// Panics if more than 32 distinct spans are registered.
    pub fn span(&self, name: &'static str) -> SpanId {
        let mut names = self.names.lock();
        if let Some(idx) = names.iter().position(|n| *n == name) {
            return SpanId(idx as u32);
        }
        assert!(
            names.len() < SPAN_CAPACITY,
            "span capacity ({SPAN_CAPACITY}) exhausted registering {name:?}"
        );
        names.push(name);
        SpanId((names.len() - 1) as u32)
    }

    /// Attributes `cost` simulated units to a span (one relaxed atomic
    /// add, or a plain load and store in a
    /// [`Recorder::single_writer`](crate::Recorder::single_writer);
    /// lock-free either way).
    #[inline]
    pub fn add(&self, id: SpanId, cost: u64) {
        crate::bump(self.shared, &self.costs[id.0 as usize], cost);
    }

    /// Every registered span with its summed simulated cost (ticks or
    /// messages, caller-defined), name-sorted. Untouched spans are
    /// included (zero rows), so column sets are stable across runs that
    /// exercise different phases.
    pub fn totals(&self) -> BTreeMap<String, u64> {
        let names = self.names.lock();
        names
            .iter()
            .enumerate()
            .map(|(i, n)| ((*n).to_owned(), self.costs[i].load(Ordering::Relaxed)))
            .collect()
    }

    /// The `n` most expensive spans, cost-descending (name-ascending on
    /// ties, so the order is deterministic); zero-cost spans are omitted.
    pub fn top(&self, n: usize) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .totals()
            .into_iter()
            .filter(|&(_, cost)| cost > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Collapsed-stack export: one `stack cost` line per nonzero span,
    /// name-sorted — byte-deterministic and directly consumable by
    /// flamegraph tooling.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (name, cost) in self.totals() {
            if cost > 0 {
                out.push_str(&name);
                out.push(' ');
                out.push_str(&cost.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Approximate resident bytes (slots plus interned name pointers).
    pub fn bytes(&self) -> usize {
        SPAN_CAPACITY * 8 + self.names.lock().len() * 16
    }
}

impl Default for SpanProfiler {
    fn default() -> SpanProfiler {
        SpanProfiler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_costs_accumulate() {
        let p = SpanProfiler::new();
        let a = p.span("lookup;finger_walk");
        let b = p.span("lookup;finger_walk");
        assert_eq!(a, b);
        p.add(a, 3);
        p.add(b, 4);
        let totals = p.totals();
        assert_eq!(totals["lookup;finger_walk"], 7);
    }

    #[test]
    fn top_is_cost_descending_with_deterministic_ties() {
        let p = SpanProfiler::new();
        let a = p.span("b_span");
        let b = p.span("a_span");
        let c = p.span("big");
        let idle = p.span("idle");
        p.add(a, 5);
        p.add(b, 5);
        p.add(c, 100);
        let _ = idle; // registered but never charged: omitted from top
        let top = p.top(10);
        assert_eq!(
            top,
            vec![
                ("big".to_string(), 100),
                ("a_span".to_string(), 5),
                ("b_span".to_string(), 5),
            ]
        );
        assert_eq!(p.top(1).len(), 1);
    }

    #[test]
    fn collapsed_is_flamegraph_shaped_and_sorted() {
        let p = SpanProfiler::new();
        p.add(p.span("lookup;retry_backoff"), 40);
        p.add(p.span("lookup;finger_walk"), 12);
        assert_eq!(
            p.collapsed(),
            "lookup;finger_walk 12\nlookup;retry_backoff 40\n"
        );
    }

    #[test]
    #[should_panic(expected = "span capacity")]
    fn registration_past_capacity_panics() {
        let p = SpanProfiler::new();
        // Leak to obtain distinct 'static names without a const table.
        for i in 0..=SPAN_CAPACITY {
            let name: &'static str = Box::leak(format!("s{i}").into_boxed_str());
            let _ = p.span(name);
        }
    }
}
