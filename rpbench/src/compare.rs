//! `rpbench compare <a.json> <b.json>`: judges run file `b` against run
//! file `a` with the bounds declared in `BENCHMARK.json`, the only place
//! they are stored.

use serde_json::Value;

use crate::quantile::{median, quartiles};

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The metrics listed under `section` (`end_to_end` or `per_layer`).
pub fn declared(bench: &Value, section: &str) -> Result<Vec<Declared>, String> {
    let list = bench
        .get(section)
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|entry| {
            let field = |k: &str| {
                entry
                    .get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{section} entry without string {k:?}"))
            };
            let better = field("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!(
                    "{section}: better must be lower or higher, not {better:?}"
                ));
            }
            Ok(Declared {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: better == "lower",
                bound: entry.get("bound").and_then(number).unwrap_or(0.0),
            })
        })
        .collect()
}

pub fn read_declared(path: &str, section: &str) -> Result<Vec<Declared>, String> {
    declared(&read_json(path)?, section)
}

/// Values of `metric` over the untraced runs of `workload` in a run file.
fn values(runs: &Value, workload: &str, metric: &str) -> Vec<f64> {
    runs.get("runs")
        .and_then(Value::as_seq)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace") != Some(&Value::Bool(true)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value").and_then(number))
        .collect()
}

fn workloads(runs: &Value) -> Vec<String> {
    let mut names: Vec<String> = runs
        .get("runs")
        .and_then(Value::as_seq)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| r.get("workload").and_then(Value::as_str).map(String::from))
        .collect();
    names.sort();
    names.dedup();
    names
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartile spread as a share of the median; `None` with fewer than two
/// runs.
fn spread(v: &[f64]) -> Option<f64> {
    if v.len() < 2 {
        return None;
    }
    let (q1, q3) = quartiles(v);
    Some((q3 - q1) / median(v).abs())
}

/// Judges candidate runs `b` against baseline runs `a`. A metric whose
/// run-to-run spread exceeds its bound on either side is unresolved,
/// unless every candidate run reads better than every baseline run.
pub fn judge(d: &Declared, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if d.lower_is_better { x < y } else { x > y };
    let steady = [a, b]
        .iter()
        .all(|v| spread(v).is_some_and(|s| s <= d.bound));
    if !steady {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let limit = if d.lower_is_better {
        ma * (1.0 + d.bound)
    } else {
        ma * (1.0 - d.bound)
    };
    if better(limit, mb) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints one line per workload and end-to-end metric; returns whether
/// any metric got worse.
pub fn compare(bench_path: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let declared = read_declared(bench_path, "end_to_end")?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let mut any_worse = false;
    println!("workload metric median_a median_b spread_a spread_b bound verdict");
    for w in workloads(&a).iter().filter(|w| workloads(&b).contains(w)) {
        for d in &declared {
            let (va, vb) = (values(&a, w, &d.name), values(&b, w, &d.name));
            let verdict = judge(d, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            let show = |v: &[f64]| {
                if v.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.6}", median(v))
                }
            };
            let show_spread = |v: &[f64]| spread(v).map_or("-".to_string(), |s| format!("{s:.4}"));
            println!(
                "{w} {} {} {} {} {} {} {}",
                d.name,
                show(&va),
                show(&vb),
                show_spread(&va),
                show_spread(&vb),
                d.bound,
                verdict.name()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "x".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&lower(0.1), &a, &[10.5, 10.4, 10.6]), Verdict::Ok);
        assert_eq!(judge(&lower(0.1), &a, &[11.5, 11.4, 11.6]), Verdict::Worse);
        // A spread wider than the bound cannot be judged...
        assert_eq!(
            judge(&lower(0.01), &a, &[10.5, 10.4, 10.6]),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every baseline run.
        assert_eq!(judge(&lower(0.01), &a, &[9.0, 9.1, 8.9]), Verdict::Ok);
        assert_eq!(judge(&lower(0.1), &a, &[10.0]), Verdict::Unresolved);
        let higher = Declared {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(judge(&higher, &a, &[8.5, 8.6, 8.4]), Verdict::Worse);
        assert_eq!(judge(&higher, &a, &[9.5, 9.6, 9.4]), Verdict::Ok);
    }
}
