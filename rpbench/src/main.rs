//! `rpbench`: one uniform random-peer draw measured end to end and layer
//! by layer, on four workloads.
//!
//! ```text
//! rpbench [run] --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! rpbench compare <a.json> <b.json> [--bench BENCHMARK.json]
//! ```
//!
//! `run` prints every metric as `workload metric value unit [samples]`,
//! then the result as one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`); untraced runs report the end-to-end metrics and traced runs
//! the per-layer ones. It exits 1 when a correctness check fails.
//! `--workload all` runs each workload in a fresh process of its own, so
//! peak memory is per workload. See README.md for the metrics.

mod compare;
mod quantile;
mod report;
mod trace;
mod workload;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use report::Metric;
use workload::{Budget, Outcome, Params, Scale, Workload};

/// Default timed seconds per run (BENCHMARK.json's `run_seconds`).
const DEFAULT_SECONDS: f64 = 25.0;
/// Where traced runs write their Chrome trace, relative to the working
/// directory.
const TRACE_DIR: &str = "target/rpbench";

const USAGE: &str = "usage: rpbench [run] --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
       rpbench compare <a.json> <b.json> [--bench BENCHMARK.json]";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                run.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                // A bare `--trace` turns tracing on.
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("false") => {
                        it.next();
                        false
                    }
                    Some("1") | Some("true") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => run.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.workload != "all" && Workload::parse(&run.workload).is_none() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!(
            "--workload must be one of {} or all, not {:?}",
            names.join(", "),
            run.workload
        ));
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("run") => parse_run(&args[1..]).and_then(cmd_run),
        Some(a) if a.starts_with("--") => parse_run(&args).and_then(cmd_run),
        _ => Err("no command".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rpbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let (mut files, mut bench) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare needs two run files".to_string());
    };
    Ok(exit_code(!compare::compare(&bench, a, b)?))
}

fn cmd_run(run: RunArgs) -> Result<ExitCode, String> {
    match Workload::parse(&run.workload) {
        Some(w) => run_one(w, &run),
        None => run_all(&run),
    }
}

/// The metrics a run reports: end-to-end when untraced, per-layer when
/// traced.
fn metrics(o: &Outcome) -> Vec<Metric> {
    if o.params.trace {
        report::per_layer(o)
    } else {
        report::end_to_end(o)
    }
}

fn run_one(w: Workload, run: &RunArgs) -> Result<ExitCode, String> {
    let params = Params {
        workload: w,
        seed: run.seed,
        scale: Scale::full(w),
        budget: Budget::Seconds(run.seconds),
        trace: run.trace,
    };
    let outcome = workload::run(params);
    let metrics = metrics(&outcome);
    let phases = std::iter::once(&outcome.untraced).chain(outcome.traced.as_ref());
    let (attempted, failed) = phases.fold((0, 0), |(a, f), p| (a + p.attempted(), f + p.failed()));
    let correct = outcome.checks.iter().all(|c| c.ok);

    for m in &metrics {
        let samples = m.samples.map_or(String::new(), |n| format!(" {n}"));
        println!("{} {} {} {}{samples}", w.name(), m.name, m.value, m.unit);
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{} check {} {verdict}: {}", w.name(), c.name, c.detail);
    }
    if let Some(session) = &outcome.trace {
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/{}.trace.json", w.name());
        std::fs::write(&path, trace::chrome_json(&session.events, session.dropped))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{} trace {path}", w.name());
    }
    if let Some(path) = &run.json {
        let record = Value::Map(vec![
            ("workload".into(), Value::Str(w.name().into())),
            ("seed".into(), Value::Int(run.seed.into())),
            ("trace".into(), Value::Bool(run.trace)),
            ("correct".into(), Value::Bool(correct)),
            ("metrics".into(), report::metrics_json(&metrics, true)),
        ]);
        report::append_run(path, record)?;
    }
    let line = report::result_json(correct, attempted, failed, &metrics);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(exit_code(correct))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, one after another,
/// and ends with a result line whose metrics are keyed `workload/metric`.
fn run_all(run: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0i128, 0i128);
    let mut merged = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }]);
        if let Some(path) = &run.json {
            cmd.args(["--json", path]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut last = None;
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if let Some(prev) = last.replace(line) {
                println!("{prev}");
            }
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let result: Value = last
            .as_deref()
            .and_then(|l| serde_json::from_str(l).ok())
            .ok_or(format!("{}: no result line", w.name()))?;
        correct &= status.success() && result.get("correct") == Some(&Value::Bool(true));
        let int = |k| match result.get(k) {
            Some(Value::Int(i)) => *i,
            _ => 0,
        };
        attempted += int("attempted");
        failed += int("failed");
        for (name, v) in result
            .get("metrics")
            .and_then(Value::as_map)
            .unwrap_or_default()
        {
            merged.push((format!("{}/{name}", w.name()), v.clone()));
        }
    }
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(attempted)),
        ("failed".into(), Value::Int(failed)),
        ("metrics".into(), Value::Map(merged)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(exit_code(correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{run, Budget, Params, Scale};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let r = parse_run(&args(
            "--workload oracle-draw-1m --seed 7 --seconds 10 --trace 0",
        ))
        .expect("valid");
        assert_eq!(r.workload, "oracle-draw-1m");
        assert_eq!((r.seed, r.seconds, r.trace), (7, 10.0, false));
        let r = parse_run(&args("--trace --workload all")).expect("valid");
        assert!(r.trace);
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload all --seconds 0")).is_err());
        assert!(parse_run(&args("--workload all --bogus 1")).is_err());
    }

    fn tiny(w: Workload, seed: u64, trace: bool) -> Outcome {
        run(Params {
            workload: w,
            seed,
            scale: Scale::tiny(w),
            budget: Budget::Epochs(3),
            trace,
        })
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        compare::read_declared(path, section)
            .expect("BENCHMARK.json is readable")
            .into_iter()
            .map(|d| (d.name, d.unit))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_metrics_and_passes_its_checks() {
        for w in Workload::ALL {
            let untraced = tiny(w, 3, false);
            assert_eq!(
                emitted(&metrics(&untraced)),
                declared("end_to_end"),
                "{w:?}"
            );
            let traced = tiny(w, 3, true);
            let layers = metrics(&traced);
            assert_eq!(emitted(&layers), declared("per_layer"), "{w:?}");
            for o in [&untraced, &traced] {
                for c in &o.checks {
                    assert!(c.ok, "{w:?}: {} failed: {}", c.name, c.detail);
                }
                let phases = std::iter::once(&o.untraced).chain(o.traced.as_ref());
                assert!(
                    phases.clone().all(|p| p.failed() == 0),
                    "{w:?}: operations failed"
                );
                assert!(metrics(o).iter().all(|m| m.value.is_finite()), "{w:?}");
            }
            for m in metrics(&untraced) {
                assert!(m.value > 0.0, "{w:?}: {} must never be 0", m.name);
            }
        }
    }

    #[test]
    fn deterministic_metrics_repeat_exactly() {
        let deterministic = ["msgs_per_draw", "draw_msgs_p99", "fresh_owner_ratio"];
        for w in Workload::ALL {
            let pick = |o: &Outcome| -> Vec<f64> {
                metrics(o)
                    .into_iter()
                    .filter(|m| deterministic.contains(&m.name))
                    .map(|m| m.value)
                    .collect()
            };
            let (a, b) = (tiny(w, 11, false), tiny(w, 11, false));
            assert_eq!(pick(&a), pick(&b), "{w:?}");
            assert_eq!(a.untraced.failed(), b.untraced.failed(), "{w:?}");
            assert_eq!(a.untraced.trials, b.untraced.trials, "{w:?}");
            assert_ne!(pick(&a), pick(&tiny(w, 12, false)), "{w:?}: seed ignored");
        }
    }
}
