use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use stats::{Exemplar, LogHistogram};

use crate::profiler::SpanProfiler;
use crate::timeseries::{HealthEventRecord, WindowSnapshot};
use crate::trace::{FlightRecorder, LookupTrace};

/// Fixed counter-slot capacity. Registration past this panics — the
/// simulation registers a few dozen counters, so 128 leaves ample slack
/// while keeping the always-allocated footprint at 1 KiB per recorder.
const COUNTER_CAPACITY: usize = 128;

/// Fixed histogram-slot capacity. Bucket arrays are allocated lazily on
/// first record, so unused slots cost one `OnceLock` each.
const HISTOGRAM_CAPACITY: usize = 16;

/// Interned handle for a named counter; obtained once from
/// [`Recorder::counter`], then used for lock-free increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Interned handle for a named histogram; obtained once from
/// [`Recorder::histogram`], then used for lock-free records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

/// Words in the per-slot exemplar bucket bitmap (one bit per histogram
/// bucket, rounded up).
const EXEMPLAR_WORDS: usize = LogHistogram::BUCKETS.div_ceil(64);

/// One histogram's atomic storage: lazily-allocated log buckets plus the
/// exactly-tracked extrema needed to clamp reported percentiles, plus the
/// per-window exemplar slots (keep-first per bucket; the `seen` bitmap
/// keeps the common already-claimed path to one relaxed load).
#[derive(Debug)]
struct HistSlot {
    buckets: OnceLock<Box<[AtomicU64]>>,
    min: AtomicU64,
    max: AtomicU64,
    exemplar_seen: Box<[AtomicU64]>,
    exemplars: Mutex<Vec<Exemplar>>,
}

impl HistSlot {
    fn new() -> HistSlot {
        HistSlot {
            buckets: OnceLock::new(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplar_seen: (0..EXEMPLAR_WORDS).map(|_| AtomicU64::new(0)).collect(),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    fn buckets(&self) -> &[AtomicU64] {
        self.buckets.get_or_init(|| {
            (0..LogHistogram::BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect()
        })
    }

    /// Folds `value` into the exact extrema. Both only ever move
    /// outward, so a relaxed load that already covers `value`
    /// proves the current extremum does too; the read-modify-write runs
    /// only when `value` extends the range, which in steady state is
    /// almost never.
    #[inline]
    fn extend_range(&self, value: u64) {
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Offers `trace_id` as the exemplar for `value`'s bucket. Keep-first
    /// per bucket per window: the hot already-claimed path is one relaxed
    /// bitmap load, the claiming path takes the slot lock once.
    fn offer_exemplar(&self, bucket: usize, value: u64, trace_id: u64) {
        let (word, bit) = (bucket / 64, 1u64 << (bucket % 64));
        if self.exemplar_seen[word].load(Ordering::Relaxed) & bit != 0 {
            return;
        }
        let mut slots = self.exemplars.lock();
        // Re-check under the lock (concurrent claimers race benignly in
        // tests; the simulation loop is single-threaded).
        if self.exemplar_seen[word].fetch_or(bit, Ordering::Relaxed) & bit != 0 {
            return;
        }
        if slots.len() < LogHistogram::MAX_EXEMPLARS {
            slots.push(Exemplar {
                bucket,
                value,
                trace_id,
            });
        }
    }

    /// Drains this window's exemplars (bucket-sorted) and reopens every
    /// slot for the next window.
    fn take_exemplars(&self) -> Vec<Exemplar> {
        let mut slots = self.exemplars.lock();
        for word in self.exemplar_seen.iter() {
            word.store(0, Ordering::Relaxed);
        }
        let mut out = std::mem::take(&mut *slots);
        out.sort_by_key(|e| e.bucket);
        out
    }
}

/// Window base values for [`Recorder::reset_window`]: the cumulative
/// counter/bucket readings at the last window boundary, kept **per slot**
/// so deltas can never lose a counter the way a zero-skipping
/// [`Recorder::snapshot`] difference would.
#[derive(Debug, Default)]
struct WindowState {
    index: u64,
    counter_base: Vec<u64>,
    hist_base: Vec<Vec<u64>>,
}

/// Interned-handle metrics recorder: atomic counters, log-bucketed
/// histograms, a bounded lookup-trace flight recorder, and the span
/// profiler. See the crate docs for the architecture.
///
/// Counter and histogram updates are relaxed atomic operations on
/// preallocated slots — safe for concurrent use and near-free on the
/// simulation hot path. Registration (name → handle) takes a lock and is
/// meant to happen once at setup.
#[derive(Debug)]
pub struct Recorder {
    counters: Box<[AtomicU64]>,
    counter_names: Mutex<Vec<String>>,
    hist_slots: Box<[HistSlot]>,
    hist_names: Mutex<Vec<String>>,
    tracing: AtomicBool,
    flight: Mutex<FlightRecorder>,
    window: Mutex<WindowState>,
    health: Mutex<Vec<HealthEventRecord>>,
    profiler: SpanProfiler,
    /// Whether several threads may write at once (see
    /// [`single_writer`](Recorder::single_writer)).
    shared: bool,
}

impl Recorder {
    /// Creates an empty recorder with a default flight-recorder capacity
    /// of 64 traces.
    pub fn new() -> Recorder {
        Recorder {
            counters: (0..COUNTER_CAPACITY).map(|_| AtomicU64::new(0)).collect(),
            counter_names: Mutex::new(Vec::new()),
            hist_slots: (0..HISTOGRAM_CAPACITY).map(|_| HistSlot::new()).collect(),
            hist_names: Mutex::new(Vec::new()),
            tracing: AtomicBool::new(false),
            flight: Mutex::new(FlightRecorder::new(64)),
            window: Mutex::new(WindowState::default()),
            health: Mutex::new(Vec::new()),
            profiler: SpanProfiler::new(),
            shared: true,
        }
    }

    /// An empty recorder for one writer at a time, such as the recorder
    /// a `!Sync` simulation object owns. Counter adds, histogram bucket
    /// increments and span adds are plain loads and stores instead of
    /// locked read-modify-writes, which on the lookup hot path cost
    /// several times more. Totals are exact while no two threads write
    /// at once; reads from other threads stay safe, and every value is
    /// the same as a [`new`](Recorder::new) recorder's given the same
    /// single-threaded writes.
    pub fn single_writer() -> Recorder {
        Recorder {
            profiler: SpanProfiler::single_writer(),
            shared: false,
            ..Recorder::new()
        }
    }

    // ---- counters ----

    /// Registers (or looks up) a counter by name and returns its handle.
    /// Idempotent; meant for setup paths, not per-event use.
    ///
    /// # Panics
    ///
    /// Panics if more than 128 distinct counters are registered.
    pub fn counter(&self, name: &str) -> CounterId {
        let mut names = self.counter_names.lock();
        if let Some(idx) = names.iter().position(|n| n == name) {
            return CounterId(idx as u32);
        }
        assert!(
            names.len() < COUNTER_CAPACITY,
            "counter capacity ({COUNTER_CAPACITY}) exhausted registering {name:?}"
        );
        names.push(name.to_owned());
        CounterId((names.len() - 1) as u32)
    }

    /// Increments a counter by one (relaxed atomic; lock-free).
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `delta` (relaxed atomic, or a plain load
    /// and store on a [`single_writer`](Recorder::single_writer)
    /// recorder; lock-free either way).
    #[inline]
    pub fn add(&self, id: CounterId, delta: u64) {
        crate::bump(self.shared, &self.counters[id.0 as usize], delta);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].load(Ordering::Relaxed)
    }

    /// Current value of a counter by name (0 if never registered).
    pub fn counter_named(&self, name: &str) -> u64 {
        let names = self.counter_names.lock();
        match names.iter().position(|n| n == name) {
            Some(idx) => self.counters[idx].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Deterministically ordered snapshot of every counter with a nonzero
    /// value (matching the legacy `Metrics` behaviour, where only touched
    /// names appeared).
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let names = self.counter_names.lock();
        names
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                let v = self.counters[i].load(Ordering::Relaxed);
                (v > 0).then(|| (n.clone(), v))
            })
            .collect()
    }

    // ---- histograms ----

    /// Registers (or looks up) a histogram by name and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than 16 distinct histograms are registered.
    pub fn histogram(&self, name: &str) -> HistogramId {
        let mut names = self.hist_names.lock();
        if let Some(idx) = names.iter().position(|n| n == name) {
            return HistogramId(idx as u32);
        }
        assert!(
            names.len() < HISTOGRAM_CAPACITY,
            "histogram capacity ({HISTOGRAM_CAPACITY}) exhausted registering {name:?}"
        );
        names.push(name.to_owned());
        HistogramId((names.len() - 1) as u32)
    }

    /// Records one observation into a histogram (relaxed atomics).
    #[inline]
    pub fn record(&self, id: HistogramId, value: u64) {
        let slot = &self.hist_slots[id.0 as usize];
        crate::bump(
            self.shared,
            &slot.buckets()[LogHistogram::bucket_index(value)],
            1,
        );
        slot.extend_range(value);
    }

    /// Records one observation and offers `trace_id` as its bucket's
    /// exemplar for the current window (deterministic keep-first per
    /// bucket; see [`stats::Exemplar`]). The already-claimed path adds
    /// one relaxed bitmap load to [`Recorder::record`], so the call is
    /// safe on the lookup hot path. Exemplar capture is *always on* —
    /// ids are op ordinals, which exist with tracing on or off, so
    /// traced and untraced runs stay byte-identical.
    #[inline]
    pub fn record_with_exemplar(&self, id: HistogramId, value: u64, trace_id: u64) {
        let slot = &self.hist_slots[id.0 as usize];
        let bucket = LogHistogram::bucket_index(value);
        crate::bump(self.shared, &slot.buckets()[bucket], 1);
        slot.extend_range(value);
        slot.offer_exemplar(bucket, value, trace_id);
    }

    /// The deterministic span profiler (per-phase simulated cost
    /// attribution; see [`SpanProfiler`]).
    #[inline]
    pub fn profiler(&self) -> &SpanProfiler {
        &self.profiler
    }

    /// Copies a histogram's buckets out into an owned [`LogHistogram`]
    /// for percentile queries and merging.
    pub fn histogram_snapshot(&self, id: HistogramId) -> LogHistogram {
        let slot = &self.hist_slots[id.0 as usize];
        match slot.buckets.get() {
            Some(buckets) => {
                let counts: Vec<u64> = buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                let mut hist = LogHistogram::from_bucket_counts(
                    &counts,
                    slot.min.load(Ordering::Relaxed),
                    slot.max.load(Ordering::Relaxed),
                );
                // Attach the open window's exemplars (peek, don't drain —
                // `reset_window` still owns handing them to the window).
                for e in slot.exemplars.lock().iter() {
                    hist.offer_exemplar(e.value, e.trace_id);
                }
                hist
            }
            None => LogHistogram::new(),
        }
    }

    // ---- observation windows ----

    /// Closes the current observation window and returns it: the delta of
    /// every registered counter and histogram since the previous
    /// `reset_window` call (or since construction for the first window),
    /// then advances the window boundary. The
    /// cumulative counters and histograms themselves are **not** touched,
    /// so end-of-run totals are unaffected by windowing.
    ///
    /// # Why not diff two `snapshot()` calls?
    ///
    /// [`Recorder::snapshot`] deliberately skips zero-valued counters
    /// (legacy `Metrics` behaviour). Subtracting such maps drops any
    /// counter that was nonzero in a previous window but untouched in
    /// this one — its key is simply absent on one side. Window deltas are
    /// therefore computed per counter *slot* against per-slot base values,
    /// and the returned [`WindowSnapshot::counters`] map includes zero
    /// deltas for every registered counter.
    ///
    /// Per-window histogram extrema are bucket-derived (the exact min/max
    /// atomics are cumulative): max is the upper edge of the highest
    /// nonzero delta bucket — never *below* the true window max, so
    /// clamped quantiles never under-report — and min the lower edge of
    /// the lowest. Merging all windows thus reproduces the whole-run
    /// histogram's bucket counts exactly and its quantiles to within the
    /// 1/16 bucketing error.
    pub fn reset_window(&self) -> WindowSnapshot {
        let names = self.counter_names.lock();
        let hist_names = self.hist_names.lock();
        let mut state = self.window.lock();
        let registered = names.len();
        if state.counter_base.len() < registered {
            state.counter_base.resize(registered, 0);
        }
        let mut counters = BTreeMap::new();
        for (i, name) in names.iter().enumerate() {
            let now = self.counters[i].load(Ordering::Relaxed);
            let delta = now.saturating_sub(state.counter_base[i]);
            state.counter_base[i] = now;
            counters.insert(name.clone(), delta);
        }
        if state.hist_base.len() < hist_names.len() {
            state.hist_base.resize(hist_names.len(), Vec::new());
        }
        let mut hists = Vec::with_capacity(hist_names.len());
        for (i, name) in hist_names.iter().enumerate() {
            let mut hist = match self.hist_slots[i].buckets.get() {
                Some(buckets) => {
                    let base = &mut state.hist_base[i];
                    if base.len() < buckets.len() {
                        base.resize(buckets.len(), 0);
                    }
                    let mut deltas = vec![0u64; buckets.len()];
                    for (j, bucket) in buckets.iter().enumerate() {
                        let now = bucket.load(Ordering::Relaxed);
                        deltas[j] = now.saturating_sub(base[j]);
                        base[j] = now;
                    }
                    window_hist_from_deltas(&deltas)
                }
                None => LogHistogram::new(),
            };
            // This window's exemplars travel with its delta histogram
            // (keep-first per bucket, slots reopened for the next window).
            for e in self.hist_slots[i].take_exemplars() {
                hist.offer_exemplar(e.value, e.trace_id);
            }
            hists.push((name.clone(), hist));
        }
        let index = state.index;
        state.index += 1;
        WindowSnapshot {
            index,
            counters,
            hists,
            gauges: BTreeMap::new(),
        }
    }

    /// Appends an attributed health event to the flight log. Always on
    /// (unlike lookup traces): the watchdog emits edge-triggered events —
    /// one breach plus one recovery per episode — so volume is bounded by
    /// overlay health, not by traffic.
    pub fn push_health(&self, event: HealthEventRecord) {
        self.health.lock().push(event);
    }

    /// Every health event pushed since construction, in emission order.
    pub fn health_events(&self) -> Vec<HealthEventRecord> {
        self.health.lock().clone()
    }

    // ---- lookup traces / flight recorder ----

    /// Enables or disables lookup tracing. Disabled is the default and
    /// costs one relaxed load per lookup on the hot path.
    pub fn set_tracing(&self, enabled: bool) {
        self.tracing.store(enabled, Ordering::Relaxed);
    }

    /// Whether lookup traces are currently being recorded.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Resizes the flight-recorder ring buffer (dropping retained traces).
    pub fn set_trace_capacity(&self, capacity: usize) {
        *self.flight.lock() = FlightRecorder::new(capacity.max(1));
    }

    /// Pushes a completed lookup trace into the flight recorder. A no-op
    /// when tracing is disabled, so callers may build traces
    /// unconditionally only if they also check [`Recorder::tracing_enabled`].
    pub fn push_trace(&self, trace: LookupTrace) {
        if self.tracing_enabled() {
            self.flight.lock().push(trace);
        }
    }

    /// The retained traces, oldest first.
    pub fn traces(&self) -> Vec<LookupTrace> {
        self.flight.lock().traces()
    }

    /// Total traces ever recorded (including ones evicted from the ring).
    pub fn traces_recorded(&self) -> u64 {
        self.flight.lock().recorded()
    }

    /// FNV-1a digest over every trace ever pushed (eviction does not
    /// change it), for byte-stable record fields.
    pub fn trace_digest(&self) -> u64 {
        self.flight.lock().digest()
    }

    // ---- lifecycle / accounting ----

    /// Approximate resident bytes of the recorder's storage (counter
    /// slots, allocated histogram buckets, interned names); the scale
    /// bench gates this per node.
    pub fn bytes(&self) -> usize {
        let counters = COUNTER_CAPACITY * 8;
        let hists: usize = self
            .hist_slots
            .iter()
            .map(|s| {
                24 + EXEMPLAR_WORDS * 8
                    + s.exemplars.lock().len() * std::mem::size_of::<Exemplar>()
                    + if s.buckets.get().is_some() {
                        LogHistogram::BUCKETS * 8
                    } else {
                        0
                    }
            })
            .sum();
        let names: usize = self
            .counter_names
            .lock()
            .iter()
            .chain(self.hist_names.lock().iter())
            .map(|n| n.len() + 24)
            .sum();
        let window = {
            let state = self.window.lock();
            state.counter_base.len() * 8
                + state.hist_base.iter().map(|b| b.len() * 8).sum::<usize>()
        };
        counters + hists + names + window + self.profiler.bytes()
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// Builds a per-window histogram from delta bucket counts. The exact
/// min/max atomics track the cumulative run, so the window extrema are
/// bucket-derived: max = inclusive upper edge of the highest nonzero
/// bucket (≥ the true window max, so clamped quantiles never
/// under-report), min = lower edge of the lowest nonzero bucket.
fn window_hist_from_deltas(deltas: &[u64]) -> LogHistogram {
    let lo = deltas.iter().position(|&d| d > 0);
    let hi = deltas.iter().rposition(|&d| d > 0);
    match (lo, hi) {
        (Some(lo), Some(hi)) => {
            let min = if lo == 0 {
                0
            } else {
                LogHistogram::bucket_upper(lo - 1) + 1
            };
            let max = LogHistogram::bucket_upper(hi);
            LogHistogram::from_bucket_counts(deltas, min, max)
        }
        _ => LogHistogram::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FallbackTier, HopRecord, TraceOutcome};

    fn tiny_trace(from: u64) -> LookupTrace {
        LookupTrace {
            from,
            target: 42,
            hops: vec![HopRecord {
                node: 7,
                finger_level: 3,
                forged: false,
                latency: 5,
                attempt: 0,
                tier: FallbackTier::Direct,
            }],
            outcome: TraceOutcome::Resolved(7),
            messages: 1,
            latency: 5,
            ordinal: 0,
        }
    }

    #[test]
    fn counter_registration_is_idempotent() {
        let r = Recorder::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.incr(a);
        r.add(b, 4);
        assert_eq!(r.counter_value(a), 5);
        assert_eq!(r.counter_named("x"), 5);
        assert_eq!(r.counter_named("missing"), 0);
    }

    #[test]
    fn snapshot_skips_untouched_counters() {
        let r = Recorder::new();
        let _zero = r.counter("never");
        let hit = r.counter("hit");
        r.incr(hit);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap["hit"], 1);
    }

    #[test]
    fn histogram_snapshot_reports_percentiles() {
        let r = Recorder::new();
        let h = r.histogram("hops");
        for v in 1..=100 {
            r.record(h, v);
        }
        let snap = r.histogram_snapshot(h);
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.max(), 100);
        assert!(snap.p99() >= 99);
        let empty = r.histogram_snapshot(r.histogram("unused"));
        assert!(empty.is_empty());
    }

    #[test]
    fn tracing_gate_controls_flight_recorder() {
        let r = Recorder::new();
        assert!(!r.tracing_enabled());
        r.push_trace(tiny_trace(1));
        assert_eq!(r.traces_recorded(), 0);
        r.set_tracing(true);
        r.push_trace(tiny_trace(1));
        r.push_trace(tiny_trace(2));
        assert_eq!(r.traces_recorded(), 2);
        assert_eq!(r.traces().len(), 2);
        assert_ne!(r.trace_digest(), 0);
    }

    #[test]
    fn flight_recorder_ring_evicts_oldest_but_digest_covers_all() {
        let r = Recorder::new();
        r.set_trace_capacity(2);
        r.set_tracing(true);
        for i in 0..5 {
            r.push_trace(tiny_trace(i));
        }
        let retained = r.traces();
        assert_eq!(retained.len(), 2);
        assert_eq!(retained[0].from, 3);
        assert_eq!(retained[1].from, 4);
        assert_eq!(r.traces_recorded(), 5);

        // Digest depends on all five, not just the retained two.
        let r2 = Recorder::new();
        r2.set_trace_capacity(2);
        r2.set_tracing(true);
        for i in 3..5 {
            r2.push_trace(tiny_trace(i));
        }
        assert_ne!(r.trace_digest(), r2.trace_digest());
    }

    #[test]
    fn window_deltas_never_drop_previously_nonzero_counters() {
        let r = Recorder::new();
        let a = r.counter("a");
        let b = r.counter("b");
        r.add(a, 5);
        let w0 = r.reset_window();
        assert_eq!(w0.index, 0);
        assert_eq!(w0.counters["a"], 5);
        assert_eq!(w0.counters["b"], 0, "untouched counters still appear");
        // "a" stays at 5 through window 1: a naive difference of two
        // zero-skipping snapshot() maps would drop it entirely, because
        // its delta is zero on both sides; per-slot bases keep the key.
        r.add(b, 3);
        let w1 = r.reset_window();
        assert_eq!(w1.index, 1);
        assert_eq!(
            w1.counters["a"], 0,
            "counter nonzero in a past window must stay present"
        );
        assert_eq!(w1.counters["b"], 3);
        assert_eq!(r.counter_value(a), 5, "cumulative totals untouched");
    }

    #[test]
    fn window_histograms_are_deltas_and_cumulative_survives() {
        let r = Recorder::new();
        let h = r.histogram("hops");
        for v in [1u64, 2, 3] {
            r.record(h, v);
        }
        let w0 = r.reset_window();
        for v in [100u64, 200] {
            r.record(h, v);
        }
        let w1 = r.reset_window();
        let h0 = w0.hist("hops").unwrap();
        let h1 = w1.hist("hops").unwrap();
        assert_eq!(h0.count(), 3);
        assert_eq!(h1.count(), 2);
        // Bucket-derived extrema: at most one bucket (+1 at this
        // magnitude) above the true max of 3.
        assert!(h0.max() >= 3 && h0.max() <= 4);
        assert!(h1.p99() >= 200);
        // Window 1's tail must not include window 0's samples.
        assert!(h1.min() > 3);
        assert_eq!(r.histogram_snapshot(h).count(), 5);
        assert_eq!(r.histogram_snapshot(h).max(), 200);
    }

    #[test]
    fn bytes_accounts_for_lazy_buckets() {
        let r = Recorder::new();
        let before = r.bytes();
        let h = r.histogram("h");
        r.record(h, 1);
        assert!(r.bytes() > before + 7000, "bucket allocation must show up");
    }

    #[test]
    fn a_single_writer_recorder_counts_like_a_shared_one() {
        let run = |r: Recorder| {
            let (c, h) = (r.counter("c"), r.histogram("h"));
            let span = r.profiler().span("s");
            for i in 0..1000u64 {
                r.add(c, i % 7);
                r.incr(c);
                r.record(h, i % 300);
                r.record_with_exemplar(h, i * 3, i);
                r.profiler().add(span, i % 5);
            }
            let hist = r.histogram_snapshot(h);
            (
                r.snapshot(),
                hist.count(),
                hist.p99(),
                hist.exemplars().to_vec(),
                r.profiler().totals(),
            )
        };
        assert_eq!(run(Recorder::single_writer()), run(Recorder::new()));
    }

    #[test]
    fn concurrent_updates_all_land() {
        let r = std::sync::Arc::new(Recorder::new());
        let c = r.counter("shared");
        let h = r.histogram("shared");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    r.incr(c);
                    r.record(h, i % 64);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(r.counter_value(c), 8000);
        assert_eq!(r.histogram_snapshot(h).count(), 8000);
    }
}
