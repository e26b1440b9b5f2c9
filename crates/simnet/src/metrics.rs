use std::collections::BTreeMap;

use telemetry::Recorder;

/// A thread-safe registry of named monotonic counters.
///
/// Chord increments counters per message kind (`lookup.hop`, `stabilize`,
/// `notify`, …) while the sampler and the experiment harness read snapshots
/// before and after an operation to attribute costs. Snapshots are
/// deterministically ordered for table output.
///
/// This type is a thin wrapper over [`telemetry::Recorder`]. Writers
/// pre-register a handle via [`Metrics::recorder`] →
/// [`Recorder::counter`](telemetry::Recorder::counter) and increment
/// through [`telemetry::CounterId`], which is a single lock-free atomic
/// add per event. [`Metrics::get`] and [`Metrics::snapshot`] read by
/// name.
///
/// # Example
///
/// ```
/// use simnet::Metrics;
///
/// let m = Metrics::new();
/// let hop = m.recorder().counter("lookup.hop");
/// m.recorder().incr(hop);
/// m.recorder().add(hop, 2);
/// assert_eq!(m.get("lookup.hop"), 3);
/// assert_eq!(m.get("unknown"), 0);
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    recorder: Recorder,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Creates an empty registry over a
    /// [`Recorder::single_writer`](telemetry::Recorder::single_writer),
    /// for an owner that writes from one thread at a time.
    pub fn single_writer() -> Metrics {
        Metrics {
            recorder: Recorder::single_writer(),
        }
    }

    /// The underlying recorder: interned counter/histogram handles,
    /// lookup traces, and cost attribution scopes live there.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Current value of `name` (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.recorder.counter_named(name)
    }

    /// A point-in-time copy of every counter that has been incremented.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.recorder.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_detached() {
        let m = Metrics::new();
        let z = m.recorder().counter("z");
        let a = m.recorder().counter("a");
        m.recorder().incr(z);
        m.recorder().add(a, 2);
        assert_eq!(m.get("a"), 2);
        assert_eq!(m.get("c"), 0);
        let snap = m.snapshot();
        let keys: Vec<_> = snap.keys().cloned().collect();
        assert_eq!(keys, vec!["a", "z"]);
        m.recorder().incr(a);
        assert_eq!(snap["a"], 2, "snapshot must not see later increments");
        assert_eq!(m.get("a"), 3);
    }
}
