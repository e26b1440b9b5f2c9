//! Experiment runner: regenerates every experiment table (E1–E16).
//!
//! ```text
//! cargo run --release -p bench --bin exp -- all          # every experiment
//! cargo run --release -p bench --bin exp -- e5 e6        # a subset
//! cargo run --release -p bench --bin exp -- e16-engine   # one e16 battery
//! cargo run --release -p bench --bin exp -- --md all     # markdown output
//! RP_QUICK=1 cargo run -p bench --bin exp -- all         # fast smoke run
//! RP_SEED=42 cargo run --release -p bench --bin exp -- e5  # different seed
//! RP_SCALE=1000000 cargo run --release -p bench --bin exp -- e16-scale
//!                      # the scale arms at 10^6 peers (default 10^5)
//!
//! Exit codes: 0 = every verdict holds, 1 = some verdict does not (every
//! table still prints), 2 = unknown id, bad environment value or usage.
//!
//! cargo run --release -p bench --bin exp -- report base.json cand.json
//!                      # diff two e16 reports / BENCH_* trajectories;
//!                      # exits 1 when any gated metric regressed
//! cargo run --release -p bench --bin exp -- dash report.json [base.json]
//!                      # render a self-contained HTML dashboard (to
//!                      # target/dash.html, or RP_DASH=<path>); with a
//!                      # baseline, embeds the diff and exits 1 on
//!                      # regression
//! ```

use bench::{experiments, ExpContext};

/// `exp -- report <baseline> <candidate>`: regression-diff two reports.
///
/// Exit codes: 0 = no regressions, 1 = regressions found, 2 = usage or
/// unreadable/unrecognized input.
fn run_report(paths: &[String]) -> ! {
    let [baseline, candidate] = paths else {
        eprintln!("usage: exp report <baseline.json> <candidate.json>");
        std::process::exit(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    match apps::report::diff_reports(&read(baseline), &read(candidate)) {
        Ok(diff) => {
            for line in &diff.lines {
                println!("{line}");
            }
            if diff.clean() {
                println!(
                    "report: no regressions ({} metrics compared)",
                    diff.lines.len()
                );
                std::process::exit(0);
            }
            eprintln!("report: {} regression(s):", diff.regressions.len());
            for r in &diff.regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("report: {e}");
            std::process::exit(2);
        }
    }
}

/// `exp -- dash <report> [baseline]`: render the HTML dashboard.
///
/// Writes to `target/dash.html` unless `RP_DASH=<path>` overrides it.
/// Exit codes mirror `exp -- report`: 0 = rendered (no baseline, or no
/// regressions), 1 = rendered but the baseline diff regressed, 2 = usage
/// or unreadable/unrecognized input.
fn run_dash(paths: &[String]) -> ! {
    let (report_path, baseline_path) = match paths {
        [report] => (report, None),
        [report, baseline] => (report, Some(baseline)),
        _ => {
            eprintln!("usage: exp dash <report.json> [baseline.json]");
            std::process::exit(2);
        }
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let report = read(report_path);
    let baseline = baseline_path.map(read);
    match apps::dash::render_dashboard(&report, baseline.as_deref()) {
        Ok(dash) => {
            let out = std::env::var("RP_DASH").unwrap_or_else(|_| "target/dash.html".to_string());
            if let Some(dir) = std::path::Path::new(&out).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(&out, &dash.html) {
                eprintln!("dash: cannot write {out}: {e}");
                std::process::exit(2);
            }
            println!(
                "dash: {} bytes -> {out}{}",
                dash.html.len(),
                if baseline.is_some() {
                    format!(" ({} regression(s))", dash.regressions)
                } else {
                    String::new()
                }
            );
            std::process::exit(if dash.regressions > 0 { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("dash: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--md");
    let ids: Vec<String> = args.into_iter().filter(|a| a != "--md").collect();
    if ids.first().map(String::as_str) == Some("report") {
        run_report(&ids[1..]);
    }
    if ids.first().map(String::as_str) == Some("dash") {
        run_dash(&ids[1..]);
    }
    if ids.is_empty() {
        eprintln!("usage: exp [--md] <experiment | all | report <base> <cand> | dash <report>>...");
        eprintln!(
            "experiments: {}, e16-scale (runs only when named)",
            experiments::ALL.join(", ")
        );
        std::process::exit(2);
    }

    let ctx = ExpContext::from_env().unwrap_or_else(|e| {
        eprintln!("exp: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "# master seed {:#x}{}",
        ctx.seed,
        if ctx.quick { " (quick mode)" } else { "" }
    );

    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        experiments::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };

    let mut unknown_id = false;
    let mut printed = Vec::new();
    for id in selected {
        let started = std::time::Instant::now();
        match experiments::run(id, &ctx) {
            Some(tables) => {
                for table in tables {
                    if markdown {
                        println!("{}", table.to_markdown());
                    } else {
                        println!("{}", table.render());
                    }
                    printed.push(table);
                }
                eprintln!("# {id} finished in {:.1?}", started.elapsed());
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                unknown_id = true;
            }
        }
    }
    std::process::exit(bench::exit_code(unknown_id, &printed));
}
