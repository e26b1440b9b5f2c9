//! The `exp -- dash` renderer: one self-contained, byte-deterministic
//! HTML page explaining a harness report.
//!
//! Input is the same machine-readable JSON `exp -- report` diffs — an e16
//! sweep report (`target/e16_*.json`) or a `BENCH_*.json` trajectory —
//! and the output embeds everything inline (no external scripts, fonts or
//! fetches), so the file can be attached to a CI run or an issue and
//! opened offline:
//!
//! * a per-arm metric table (failure rate, messages, hop tails, watchdog
//!   verdicts, exemplar counts, top span),
//! * inline SVG sparklines for every windowed gauge column the watchdog
//!   recorded (`series_mean`),
//! * a tail table per arm whose exemplar drill-downs name the trace ids
//!   behind the p99/p999 buckets,
//! * the attributed health-event timeline,
//! * a one-level span treemap (proportional bars) showing where the
//!   simulated routing cost went,
//! * a bench-history trend section when the input is a trajectory file,
//! * and, when a baseline is supplied, the full `exp -- report`
//!   regression diff.
//!
//! The raw report JSON rides along in a
//! `<script type="application/json" id="payload">` block (validated by
//! the CI `domain-smoke` job), so the dashboard doubles as a viewer-friendly
//! envelope of the machine-readable data. Rendering is a pure function of
//! the input bytes — no clocks, no randomness, no map reordering — so the
//! same report renders byte-identically forever.

use crate::report::{diff_reports, ReportDiff};
use serde_json::Value;

/// A rendered dashboard plus the regression verdict that should drive the
/// process exit code (`0` clean, `1` when `regressions > 0`).
#[derive(Debug)]
pub struct Dashboard {
    /// The complete HTML document.
    pub html: String,
    /// Number of regressions found against the baseline (0 when no
    /// baseline was supplied).
    pub regressions: usize,
}

/// Renders `report` (sweep report or bench trajectory JSON) into a
/// self-contained HTML dashboard, diffing against `baseline` when given.
///
/// Errors mirror `exp -- report` usage errors: unparseable JSON, an
/// unrecognized shape, or a baseline/report kind mismatch.
pub fn render_dashboard(report: &str, baseline: Option<&str>) -> Result<Dashboard, String> {
    let value: Value =
        serde_json::from_str(report).map_err(|e| format!("report: unparseable JSON ({e})"))?;
    let diff = match baseline {
        Some(base) => Some(diff_reports(base, report)?),
        None => None,
    };
    let mut body = String::new();
    if value.get("scenarios").is_some() {
        render_sweep(&mut body, &value);
    } else if value.as_seq().is_some() {
        render_bench_trend(&mut body, &value);
    } else {
        return Err(format!(
            "unrecognized report shape ({}): expected a sweep report object \
             with \"scenarios\" or a bench history array",
            value.kind()
        ));
    }
    if let Some(diff) = &diff {
        render_diff(&mut body, diff);
    }
    let html = format!(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>peer-sampling dashboard</title>\n<style>{STYLE}</style></head>\n\
         <body>\n<h1>peer-sampling dashboard</h1>\n{body}\
         <script type=\"application/json\" id=\"payload\">{}</script>\n\
         </body></html>\n",
        embed_json(report)
    );
    Ok(Dashboard {
        html,
        regressions: diff.map_or(0, |d| d.regressions.len()),
    })
}

/// Inline stylesheet — deliberately tiny, no external assets.
const STYLE: &str = "body{font:14px/1.4 monospace;margin:2em;max-width:72em}\
table{border-collapse:collapse;margin:1em 0}\
td,th{border:1px solid #999;padding:2px 8px;text-align:right}\
th{background:#eee}td:first-child,th:first-child{text-align:left}\
details{margin:.3em 0}svg{vertical-align:middle}\
.breach{color:#a00}.ok{color:#070}.regressed{color:#a00;font-weight:bold}";

/// Escapes `</` so arbitrary JSON is safe inside a `<script>` block while
/// staying valid JSON (`\/` is a legal JSON escape).
fn embed_json(raw: &str) -> String {
    raw.replace("</", "<\\/")
}

/// HTML-escapes text content.
fn esc(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Deterministic numeric rendering: integers bare, floats with 4 places.
fn fnum(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:.4}"),
        _ => "-".to_string(),
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// An inline SVG sparkline over `values` (min..max auto-scaled).
fn sparkline(values: &[f64]) -> String {
    const W: f64 = 240.0;
    const H: f64 = 36.0;
    if values.is_empty() {
        return "<svg width=\"240\" height=\"36\"></svg>".to_string();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let step = if values.len() > 1 {
        W / (values.len() - 1) as f64
    } else {
        0.0
    };
    let points: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            format!(
                "{:.1},{:.1}",
                i as f64 * step,
                2.0 + (H - 4.0) * (1.0 - (v - lo) / span)
            )
        })
        .collect();
    format!(
        "<svg width=\"240\" height=\"36\" viewBox=\"0 0 240 36\">\
         <polyline fill=\"none\" stroke=\"#36c\" stroke-width=\"1.5\" points=\"{}\"/></svg>",
        points.join(" ")
    )
}

/// A one-level treemap of span costs: one proportional bar per span,
/// widest first, with the name/cost/share legend beside it.
fn span_treemap(span_costs: &[(String, &Value)]) -> String {
    let mut spans: Vec<(&str, u64)> = span_costs
        .iter()
        .filter_map(|(name, v)| match v {
            Value::Int(i) if *i > 0 => Some((name.as_str(), *i as u64)),
            _ => None,
        })
        .collect();
    spans.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = spans.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return "<p>no span costs recorded</p>\n".to_string();
    }
    let mut out =
        String::from("<table><tr><th>span</th><th>cost</th><th>share</th><th></th></tr>\n");
    for (name, cost) in &spans {
        let share = *cost as f64 / total as f64;
        out.push_str(&format!(
            "<tr><td>{}</td><td>{cost}</td><td>{:.1}%</td>\
             <td><svg width=\"200\" height=\"12\"><rect width=\"{:.1}\" height=\"12\" \
             fill=\"#6a6\"/></svg></td></tr>\n",
            esc(name),
            100.0 * share,
            200.0 * share
        ));
    }
    out.push_str("</table>\n");
    out
}

/// The sweep-report sections: arms table, sparklines, tails + exemplars,
/// health timeline, span treemaps.
fn render_sweep(out: &mut String, report: &Value) {
    let scenarios = report
        .get("scenarios")
        .and_then(Value::as_seq)
        .unwrap_or(&[]);
    out.push_str(&format!(
        "<p>master seed {}, {} seeds/scenario, {} scenarios</p>\n",
        report.get("master_seed").map(fnum).unwrap_or_default(),
        report
            .get("seeds_per_scenario")
            .map(fnum)
            .unwrap_or_default(),
        scenarios.len()
    ));

    out.push_str("<h2>arms</h2>\n<table><tr>");
    const COLS: &[(&str, &str)] = &[
        ("fail_rate_mean", "fail"),
        ("messages_mean", "msgs/draw"),
        ("hop_p99_max", "hop_p99"),
        ("draw_msgs_p99_max", "draw_p99"),
        ("health_breaches_mean", "breaches"),
        ("time_to_detect_max", "ttd"),
        ("time_to_recover_min", "ttr"),
        ("exemplar_count_sum", "exemplars"),
        ("top_span_cost", "top_span_cost"),
    ];
    out.push_str("<th>scenario</th><th>backend</th>");
    for (_, label) in COLS {
        out.push_str(&format!("<th>{label}</th>"));
    }
    out.push_str("<th>top_span</th></tr>\n");
    for scenario in scenarios {
        let name = scenario_name(scenario);
        for agg in scenario
            .get("aggregates")
            .and_then(Value::as_seq)
            .unwrap_or(&[])
        {
            let backend = agg.get("backend").and_then(Value::as_str).unwrap_or("?");
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td>",
                esc(&name),
                esc(backend)
            ));
            for (key, _) in COLS {
                out.push_str(&format!(
                    "<td>{}</td>",
                    agg.get(key).map(fnum).unwrap_or_else(|| "-".to_string())
                ));
            }
            let top = agg.get("top_span").and_then(Value::as_str).unwrap_or("-");
            out.push_str(&format!("<td>{}</td></tr>\n", esc(top)));
        }
    }
    out.push_str("</table>\n");

    out.push_str("<h2>windowed series</h2>\n");
    for scenario in scenarios {
        let name = scenario_name(scenario);
        for agg in scenario
            .get("aggregates")
            .and_then(Value::as_seq)
            .unwrap_or(&[])
        {
            let backend = agg.get("backend").and_then(Value::as_str).unwrap_or("?");
            let series = agg
                .get("series_mean")
                .and_then(Value::as_map)
                .unwrap_or(&[]);
            for (gauge, column) in series {
                let values: Vec<f64> = column
                    .as_seq()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(as_f64)
                    .collect();
                out.push_str(&format!(
                    "<div>{}/{} {}: {} ({} windows)</div>\n",
                    esc(&name),
                    esc(backend),
                    esc(gauge),
                    sparkline(&values),
                    values.len()
                ));
            }
        }
    }

    out.push_str("<h2>tails and exemplars</h2>\n");
    for scenario in scenarios {
        let name = scenario_name(scenario);
        for run in scenario.get("runs").and_then(Value::as_seq).unwrap_or(&[]) {
            let backend = run.get("backend").and_then(Value::as_str).unwrap_or("?");
            let exemplars = run
                .get("tail_exemplars")
                .and_then(Value::as_seq)
                .unwrap_or(&[]);
            out.push_str(&format!(
                "<details><summary>{}/{} seed {}: hop p50/p99/p999 = {}/{}/{}, \
                 {} exemplars</summary>\n",
                esc(&name),
                esc(backend),
                run.get("seed").map(fnum).unwrap_or_default(),
                run.get("hop_p50").map(fnum).unwrap_or_default(),
                run.get("hop_p99").map(fnum).unwrap_or_default(),
                run.get("hop_p999").map(fnum).unwrap_or_default(),
                exemplars.len()
            ));
            if !exemplars.is_empty() {
                out.push_str(
                    "<table><tr><th>window</th><th>bucket &le;</th><th>value</th>\
                     <th>trace op</th></tr>\n",
                );
                for e in exemplars {
                    out.push_str(&format!(
                        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                        e.get("window").map(fnum).unwrap_or_default(),
                        e.get("bucket_upper").map(fnum).unwrap_or_default(),
                        e.get("value").map(fnum).unwrap_or_default(),
                        e.get("trace_id").map(fnum).unwrap_or_default(),
                    ));
                }
                out.push_str("</table>\n");
            }
            out.push_str("</details>\n");
        }
    }

    out.push_str("<h2>health timeline</h2>\n");
    let mut any_events = false;
    for scenario in scenarios {
        let name = scenario_name(scenario);
        for run in scenario.get("runs").and_then(Value::as_seq).unwrap_or(&[]) {
            let backend = run.get("backend").and_then(Value::as_str).unwrap_or("?");
            for event in run
                .get("health_events")
                .and_then(Value::as_seq)
                .unwrap_or(&[])
            {
                let text = event.as_str().unwrap_or("?");
                let class = if text.contains("breach") {
                    "breach"
                } else {
                    "ok"
                };
                out.push_str(&format!(
                    "<div class=\"{class}\">{}/{} seed {}: {}</div>\n",
                    esc(&name),
                    esc(backend),
                    run.get("seed").map(fnum).unwrap_or_default(),
                    esc(text)
                ));
                any_events = true;
            }
        }
    }
    if !any_events {
        out.push_str("<p>no health events recorded</p>\n");
    }

    out.push_str("<h2>span cost breakdown</h2>\n");
    for scenario in scenarios {
        let name = scenario_name(scenario);
        for agg in scenario
            .get("aggregates")
            .and_then(Value::as_seq)
            .unwrap_or(&[])
        {
            let backend = agg.get("backend").and_then(Value::as_str).unwrap_or("?");
            let spans: Vec<(String, &Value)> = agg
                .get("span_costs")
                .and_then(Value::as_map)
                .unwrap_or(&[])
                .iter()
                .map(|(k, v)| (k.clone(), v))
                .collect();
            if spans.is_empty() {
                continue;
            }
            out.push_str(&format!("<h3>{}/{}</h3>\n", esc(&name), esc(backend)));
            out.push_str(&span_treemap(&spans));
        }
    }
}

fn scenario_name(scenario: &Value) -> String {
    scenario
        .get("spec")
        .and_then(|s| s.get("name"))
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

/// One `(bench, n)` arm's metric columns across history entries, in
/// first-seen order.
type BenchArm = ((String, String), Vec<(String, Vec<f64>)>);

/// The bench-trajectory section: one sparkline per `(bench, n, metric)`
/// across history entries, plus the latest entry's rows verbatim.
fn render_bench_trend(out: &mut String, history: &Value) {
    let entries = history.as_seq().unwrap_or(&[]);
    out.push_str(&format!(
        "<h2>bench history ({} entries)</h2>\n",
        entries.len()
    ));
    let mut arms: Vec<BenchArm> = Vec::new();
    for entry in entries {
        let rows = match entry.get("rows").and_then(Value::as_seq) {
            Some(rows) => rows,
            // Legacy flat-row files: the entry *is* a row.
            None => std::slice::from_ref(entry),
        };
        for row in rows {
            let bench = row
                .get("bench")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let n = row.get("n").map(fnum).unwrap_or_default();
            let key = (bench, n);
            let slot = match arms.iter_mut().find(|(k, _)| *k == key) {
                Some((_, slot)) => slot,
                None => {
                    arms.push((key, Vec::new()));
                    &mut arms.last_mut().unwrap().1
                }
            };
            for (metric, value) in row.as_map().unwrap_or(&[]) {
                let Some(v) = as_f64(value) else { continue };
                match slot.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, column)) => column.push(v),
                    None => slot.push((metric.clone(), vec![v])),
                }
            }
        }
    }
    for ((bench, n), metrics) in &arms {
        out.push_str(&format!("<h3>{}@n={}</h3>\n", esc(bench), esc(n)));
        for (metric, column) in metrics {
            out.push_str(&format!(
                "<div>{}: {} latest {:.2} over {} entries</div>\n",
                esc(metric),
                sparkline(column),
                column.last().copied().unwrap_or(0.0),
                column.len()
            ));
        }
    }
}

/// The regression-diff section (baseline supplied).
fn render_diff(out: &mut String, diff: &ReportDiff) {
    out.push_str("<h2>baseline diff</h2>\n");
    out.push_str(&format!(
        "<p class=\"{}\">{} metrics compared, {} regression(s)</p>\n",
        if diff.clean() { "ok" } else { "regressed" },
        diff.lines.len(),
        diff.regressions.len()
    ));
    for line in &diff.lines {
        let class = if line.contains("REGRESSED") || line.contains("MISSING") {
            "regressed"
        } else {
            "ok"
        };
        out.push_str(&format!("<div class=\"{class}\">{}</div>\n", esc(line)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handcrafted two-run sweep report exercising every section.
    fn sweep_fixture() -> String {
        r#"{
  "master_seed": 7, "seeds_per_scenario": 1,
  "scenarios": [
    {
      "spec": {"name": "crash-churn"},
      "runs": [
        {"backend": "chord", "seed": 3, "hop_p50": 4, "hop_p99": 9, "hop_p999": 12,
         "health_events": ["w3 breach hop_p99: 14.000 > 12.000 [maintenance.round]",
                           "w5 recover hop_p99: 9.000 <= 12.000 [maintenance.round]"],
         "tail_exemplars": [
            {"window": 3, "bucket_upper": 15, "value": 14, "trace_id": 512},
            {"window": 4, "bucket_upper": 9, "value": 8, "trace_id": 700}
         ],
         "exemplar_count": 2,
         "span_costs": {"lookup;finger_walk": 900, "lookup;retry_backoff": 48,
                        "maintenance;repair": 120}}
      ],
      "aggregates": [
        {"backend": "chord", "fail_rate_mean": 0.01, "messages_mean": 12.5,
         "hop_p99_max": 9, "draw_msgs_p99_max": 21, "health_breaches_mean": 1.0,
         "time_to_detect_max": 0, "time_to_recover_min": 2,
         "exemplar_count_sum": 2, "top_span": "lookup;finger_walk",
         "top_span_cost": 900,
         "span_costs": {"lookup;finger_walk": 900, "lookup;retry_backoff": 48,
                        "maintenance;repair": 120},
         "series_mean": {"success_ratio": [1.0, 0.8, 0.95, 1.0],
                         "live": [96.0, 94.0, 92.0, 92.0]}}
      ]
    }
  ]
}"#
        .to_string()
    }

    #[test]
    fn sweep_dashboard_renders_every_section_and_is_deterministic() {
        let report = sweep_fixture();
        let dash = render_dashboard(&report, None).unwrap();
        for needle in [
            "<h2>arms</h2>",
            "<h2>windowed series</h2>",
            "<h2>tails and exemplars</h2>",
            "<h2>health timeline</h2>",
            "<h2>span cost breakdown</h2>",
            "crash-churn",
            "lookup;finger_walk",
            "<polyline",
            "id=\"payload\"",
        ] {
            assert!(dash.html.contains(needle), "missing {needle}");
        }
        // Exemplar drill-down names the trace id behind the tail bucket.
        assert!(dash.html.contains("<td>512</td>"), "exemplar trace id");
        assert!(dash.html.contains("<td>14</td>"), "exemplar value");
        // Health events carry their breach/recover class.
        assert!(dash.html.contains("class=\"breach\""));
        assert_eq!(dash.regressions, 0);
        // Pure function of the input: byte-identical re-render.
        let again = render_dashboard(&report, None).unwrap();
        assert_eq!(dash.html, again.html);
    }

    #[test]
    fn embedded_payload_is_the_report_json() {
        let report = sweep_fixture();
        let dash = render_dashboard(&report, None).unwrap();
        let start = dash.html.find("id=\"payload\">").unwrap() + "id=\"payload\">".len();
        let end = dash.html[start..].find("</script>").unwrap() + start;
        let embedded = dash.html[start..end].replace("<\\/", "</");
        let value: Value = serde_json::from_str(&embedded).unwrap();
        assert!(value.get("scenarios").is_some());
        assert_eq!(embedded, report);
    }

    #[test]
    fn baseline_diff_drives_the_regression_count() {
        let report = sweep_fixture();
        // Against itself: compared, clean, exit 0.
        let clean = render_dashboard(&report, Some(&report)).unwrap();
        assert_eq!(clean.regressions, 0);
        assert!(clean.html.contains("<h2>baseline diff</h2>"));
        // A degraded hop tail regresses and is classed for the eye.
        let worse = report.replace("\"hop_p99_max\": 9", "\"hop_p99_max\": 40");
        assert_ne!(worse, report);
        let regressed = render_dashboard(&worse, Some(&report)).unwrap();
        assert!(regressed.regressions > 0);
        assert!(regressed.html.contains("class=\"regressed\""));
    }

    #[test]
    fn bench_history_renders_trend_sparklines() {
        let history = r#"[
          {"sha": "a", "timestamp": 1, "rows": [
            {"bench": "chord_scale", "n": 100000, "lookup_ns": 4000}]},
          {"sha": "b", "timestamp": 2, "rows": [
            {"bench": "chord_scale", "n": 100000, "lookup_ns": 4200}]}
        ]"#;
        let dash = render_dashboard(history, None).unwrap();
        assert!(dash.html.contains("bench history (2 entries)"));
        assert!(dash.html.contains("chord_scale@n=100000"));
        assert!(dash.html.contains("lookup_ns"));
        assert!(dash.html.contains("<polyline"));
        assert!(dash.html.contains("over 2 entries"));
    }

    #[test]
    fn garbage_and_shape_errors_are_usage_errors() {
        assert!(render_dashboard("not json", None).is_err());
        assert!(render_dashboard(r#"{"neither": 1}"#, None).is_err());
        // Kind mismatch against the baseline propagates from the differ.
        let sweep = sweep_fixture();
        assert!(render_dashboard(&sweep, Some("[]")).is_err());
    }

    #[test]
    fn html_content_is_escaped() {
        let hostile = sweep_fixture().replace("crash-churn", "x<script>y");
        let dash = render_dashboard(&hostile, None).unwrap();
        // The scenario name renders escaped in the body...
        assert!(dash.html.contains("x&lt;script&gt;y"));
        // ...and the payload block never contains a terminating tag.
        let payload_at = dash.html.find("id=\"payload\">").unwrap();
        let body = &dash.html[payload_at..];
        assert_eq!(body.matches("</script>").count(), 1);
    }
}
