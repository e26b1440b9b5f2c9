//! Metrics derived from a run, and the forms they are printed in.

use serde_json::Value;

use crate::quantile::median;
use crate::trace::Layer;
use crate::workload::Outcome;

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind an order statistic.
    pub samples: Option<usize>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What a user of the system sees, from the untraced phase.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let u = &o.untraced;
    let counts = u.fixed.as_ref().unwrap_or(&u.counts);
    let (p50, p99, samples) = u.quiet_latency();
    let order = |name, value: f64, unit, n| Metric {
        name,
        value,
        unit,
        samples: Some(n),
    };
    vec![
        m("setup_s", median(&o.setup.total), "s"),
        m("draws_per_s", u.draws_per_s(), "draws/s"),
        order("draw_us_p50", p50 as f64 / 1e3, "us", samples),
        order("draw_us_p99", p99 as f64 / 1e3, "us", samples),
        m(
            "msgs_per_draw",
            ratio(counts.msgs as f64, counts.draws as f64),
            "messages",
        ),
        order(
            "draw_msgs_p99",
            counts.msgs_percentile(0.99) as f64,
            "messages",
            counts.draws as usize,
        ),
        m(
            "fresh_owner_ratio",
            1.0 - ratio(counts.stale as f64, counts.audits as f64),
            "ratio",
        ),
        m("peak_rss_mb", u.peak_rss_mb, "MiB"),
    ]
}

/// Per-layer numbers, from the traced phase.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let t = o
        .traced
        .as_ref()
        .expect("per-layer metrics need a traced phase");
    let tt = t.trace.as_ref().expect("a traced phase has totals");
    let draws = t.draws_ok as f64;
    let us = |ns: u64, per: f64| ratio(ns as f64, per) / 1e3;
    let per_call = |l: Layer| us(tt.total(l), tt.calls(l) as f64);
    let h_calls = tt.calls(Layer::H) as f64;
    let h_msgs = ratio(tt.msgs(Layer::H) as f64, h_calls);
    let wall = t.wall_ns as f64;
    let events = (t.crashes + t.joins) as f64;
    let mem = o.memory;
    vec![
        m(
            "sampler.trials_per_draw",
            ratio(t.trials as f64, draws),
            "trials",
        ),
        m(
            "sampler.accept_ratio",
            ratio(draws, t.trials as f64),
            "ratio",
        ),
        m(
            "sampler.trials_vs_theory",
            ratio(t.trials as f64, t.theory_trials),
            "ratio",
        ),
        m(
            "sampler.h_per_draw",
            ratio(t.h_calls as f64, draws),
            "calls",
        ),
        m(
            "sampler.next_per_draw",
            ratio(t.next_calls as f64, draws),
            "calls",
        ),
        m(
            "sampler.self_us_per_draw",
            us(tt.self_time(Layer::Sample), draws),
            "us",
        ),
        m(
            "sampler.rejected_us_per_draw",
            us(tt.rejected_ns, draws),
            "us",
        ),
        m("estimate.us_per_call", per_call(Layer::Estimate), "us"),
        m(
            "estimate.probes_per_call",
            ratio(t.est_probes as f64, t.estimates as f64),
            "probes",
        ),
        m(
            "estimate.n_upper_ratio",
            ratio(t.est_ratio, t.estimates as f64),
            "ratio",
        ),
        m("dht.h_us_per_call", per_call(Layer::H), "us"),
        m("dht.next_us_per_call", per_call(Layer::Next), "us"),
        m("dht.h_msgs_per_call", h_msgs, "messages"),
        m("dht.h_msgs_vs_log2n", h_msgs / (o.n as f64).log2(), "ratio"),
        m(
            "dht.next_msgs_per_call",
            ratio(tt.msgs(Layer::Next) as f64, tt.calls(Layer::Next) as f64),
            "messages",
        ),
        m(
            "lookup.retries_per_1k_h",
            1e3 * ratio(t.retries as f64, h_calls),
            "count",
        ),
        m(
            "lookup.fallback_depth_per_1k_h",
            1e3 * ratio(t.fallback_depth as f64, h_calls),
            "count",
        ),
        m("audit.us_per_call", per_call(Layer::Audit), "us"),
        m(
            "defense.quorum_fail_ratio",
            ratio(t.quorum_failures as f64, t.trials as f64),
            "ratio",
        ),
        m(
            "defense.sybil_share",
            ratio(t.sybil_draws as f64, draws),
            "ratio",
        ),
        m(
            "membership.wall_share",
            ratio(
                (tt.total(Layer::Crash) + tt.total(Layer::Join)) as f64,
                wall,
            ),
            "ratio",
        ),
        m(
            "membership.join_fail_ratio",
            ratio(t.joins_failed as f64, t.joins as f64),
            "ratio",
        ),
        m(
            "maintenance.wall_share",
            ratio(tt.total(Layer::Maintenance) as f64, wall),
            "ratio",
        ),
        m(
            "maintenance.rounds_per_cycle",
            ratio(t.rounds as f64, t.epochs as f64),
            "rounds",
        ),
        m(
            "maintenance.lookups_per_event",
            ratio(t.maint_lookups as f64, events),
            "lookups",
        ),
        m(
            "maintenance.dirty_per_event",
            ratio(t.dirty as f64, events),
            "entries",
        ),
        m("setup.points_s", median(&o.setup.points), "s"),
        m("setup.overlay_s", median(&o.setup.overlay), "s"),
        m("arena.routing_bytes_per_node", mem.routing, "B/node"),
        m("verifier.bytes_per_node", mem.verifier, "B/node"),
        m("maintenance.bytes_per_node", mem.maintenance, "B/node"),
        m("scores.bytes_per_node", mem.scores, "B/node"),
        m(
            "rpbench.self_us_per_draw",
            us(tt.self_time(Layer::Harness), draws),
            "us",
        ),
        m(
            "trace.overhead_pct",
            100.0
                * ratio(
                    o.untraced.draws_per_s() - t.draws_per_s(),
                    o.untraced.draws_per_s(),
                ),
            "%",
        ),
        m(
            "trace.layer_sum_ratio",
            t.layer_sum_ratio().unwrap_or(0.0),
            "ratio",
        ),
    ]
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(attempted.into())),
        ("failed".into(), Value::Int(failed.into())),
        ("metrics".into(), metrics_json(metrics, false)),
    ])
}

/// Metrics keyed by name, each `{"value", "unit"}`, plus `"samples"` for
/// order statistics when `with_samples` is set.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|x| {
                let mut fields = vec![
                    ("value".to_string(), Value::Float(x.value)),
                    ("unit".to_string(), Value::Str(x.unit.into())),
                ];
                if let Some(n) = x.samples.filter(|_| with_samples) {
                    fields.push(("samples".into(), Value::Int(n as i128)));
                }
                (x.name.to_string(), Value::Map(fields))
            })
            .collect(),
    )
}

/// Appends one run to the run file at `path` (`{"runs": [...]}`),
/// creating it if needed.
pub fn append_run(path: &str, run: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str::<Value>(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .get("runs")
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("{path}: no \"runs\" list"))?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    runs.push(run);
    let text = serde_json::to_string_pretty(&Value::Map(vec![("runs".into(), Value::Seq(runs))]))
        .map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}
