//! Deterministic, low-overhead observability for the simulation stack.
//!
//! The paper's headline claims are *cost* claims — O(log n) messages and
//! latency per random-peer draw — so the repro needs more than flat
//! aggregate counters: it needs tail distributions, per-operation hop
//! traces, and per-phase cost attribution, all without perturbing either
//! the deterministic RNG streams or the n=10^7 wall-clock budgets.
//!
//! * [`Recorder`] — interned [`CounterId`]/[`HistogramId`] handles over
//!   preallocated atomic slots: no per-event `String` allocation or map
//!   lookup on the hot path. Histograms are log-bucketed
//!   ([`stats::LogHistogram`] math) and report p50/p90/p99/p999/max.
//! * [`LookupTrace`] / flight recorder — each `find_successor` walk can
//!   record its full hop path (node, finger level, forged/honest, per-hop
//!   latency) into a bounded ring buffer, gated by a single relaxed
//!   atomic-bool check when disabled.
//! * [`WindowSnapshot`] / [`TimeSeries`] — longitudinal view: closing an
//!   observation window ([`Recorder::reset_window`]) yields per-window
//!   counter *deltas* (computed per slot, so zero-skipping snapshots can
//!   never drop a column) and per-window histogram tails; a fixed-capacity
//!   ring keeps the recent history for breach dumps, and merging all
//!   windows reproduces the whole-run histogram within bucketing error.
//! * [`HealthEventRecord`] — attributed SLO breach/recovery events pushed
//!   by the `chord` watchdog (rule, window, bound, offending nodes,
//!   cost-attribution scope).
//! * [`TraceDump`] exporters — deterministic pretty text and Chrome
//!   `trace_event` JSON (load in `chrome://tracing` or Perfetto), plus an
//!   FNV-1a digest over the full trace stream for byte-stable record
//!   fields. Hops carry retry-attempt and fallback-tier annotations
//!   ([`FallbackTier`]) so a degraded lookup's path explains itself.
//! * Tail exemplars — [`Recorder::record_with_exemplar`] stores the
//!   operation ordinal of the first sample to land in each histogram
//!   bucket per window ([`stats::Exemplar`]), so a p99/p999 figure links
//!   to a concrete replayable [`LookupTrace`] (matched via
//!   `LookupTrace::ordinal`).
//! * [`SpanProfiler`] — the one cost-attribution mechanism: deterministic
//!   per-phase cost (finger walk vs retry/backoff vs successor-walk vs
//!   quorum vs maintenance repair vs defended-draw verification) with
//!   collapsed-stack flamegraph export.
//!
//! # Example
//!
//! ```
//! use telemetry::Recorder;
//!
//! let r = Recorder::new();
//! let hops = r.counter("lookup.hops");
//! let hist = r.histogram("lookup.hops");
//! let walk = r.profiler().span("lookup;finger_walk");
//! r.add(hops, 3);
//! r.record(hist, 3);
//! r.profiler().add(walk, 3);
//! assert_eq!(r.counter_value(hops), 3);
//! assert_eq!(r.histogram_snapshot(hist).max(), 3);
//! assert_eq!(r.profiler().totals()["lookup;finger_walk"], 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profiler;
mod recorder;
mod timeseries;
mod trace;

use std::sync::atomic::{AtomicU64, Ordering};

/// Adds `delta` to `slot`: one locked `fetch_add` when the slot may have
/// several writers at once, a plain load and store when it has one.
#[inline]
fn bump(shared: bool, slot: &AtomicU64, delta: u64) {
    if shared {
        slot.fetch_add(delta, Ordering::Relaxed);
    } else {
        slot.store(
            slot.load(Ordering::Relaxed).wrapping_add(delta),
            Ordering::Relaxed,
        );
    }
}

pub use profiler::{SpanId, SpanProfiler};
pub use recorder::{CounterId, HistogramId, Recorder};
pub use timeseries::{HealthEventRecord, TimeSeries, WindowSnapshot};
pub use trace::{FallbackTier, HopRecord, LookupTrace, TraceDump, TraceOutcome};
