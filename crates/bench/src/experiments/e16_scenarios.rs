//! E16 — the adversarial scenario batteries.
//!
//! A battery is a set of `scenarios` [`ScenarioSpec`] arms swept together
//! over several seeds and judged by one verdict line. Each battery is one
//! row of the `BATTERIES` table, run by its `exp` experiment id through
//! the one driver, `run_battery`: sweep → JSON report under `target/` →
//! one table row per scenario × backend → verdict → flight dump on
//! `CHECK`.
//!
//! * `e16` — the preset battery (honest-static, crash-churn with a
//!   stale-oracle arm, byzantine-routers, clustered-ring, flash-crowd)
//!   against every backend each spec names. It also writes the
//!   `RP_TRACE` export.
//! * `e16-coalition` — every `adversary` strategy × budget
//!   `b ∈ {0.05, 0.1}` × {undefended, defended}, asserting the
//!   attack→defense loop end to end.
//! * `e16-domains` — a correlated rack/region outage × the resilience
//!   knobs.
//! * `e16-engine` — thousands of async in-flight lookups vs a slow
//!   sector.
//! * `e16-scale` — the scale-stress arms at `RP_SCALE` peers (default
//!   10⁵). `exp -- all` leaves it out; it runs only when named.
//!
//! The headline comparisons:
//!
//! * honest-static is the control: near-zero TV distance, no failures, on
//!   both backends — Theorem 6 survives the trip from oracle to Chord.
//! * crash-churn and flash-crowd measure what churn costs: failure rate
//!   and message inflation on Chord vs the membership-only oracle; the
//!   crash-churn *stale-oracle* arm splits that delta further into
//!   staleness cost (oracle vs stale) and routing-repair cost (stale vs
//!   chord).
//! * byzantine-routers shows the capture attack: the adversary's sample
//!   share vs its population share on Chord (the oracle arm is immune).
//! * clustered-ring stresses the geometry: cost and uniformity on a ring
//!   that violates the i.i.d. placement assumption.
//! * the coalition battery demands, per strategy and budget: the
//!   undefended sampler *fails* chi-square uniformity on every seed, the
//!   defended sampler *passes* it, committee-capture probability returns
//!   to within 2× of the uniform baseline, and the defense overhead is
//!   reported in messages per accepted sample.

use adversary::majority_capture_probability;
use scenarios::{
    run_scenario_seed_traced, Backend, BackendAggregate, MaintenanceSpec, ScenarioSpec, Sweep,
    SweepReport, COMMITTEE_SIZE,
};

use crate::{fmt_f, ExpContext, Table};

/// One table column: its header and how one scenario × backend aggregate
/// renders under it.
type Column = (&'static str, fn(&ScenarioSpec, &BackendAggregate) -> String);

/// What a battery's verdict judges: the finished sweep and its report.
struct Outcome<'a> {
    ctx: &'a ExpContext,
    /// The sweep as it ran, so a verdict can replay it.
    sweep: &'a Sweep,
    report: &'a SweepReport,
    /// The report's pretty JSON, and the path it was written to.
    json: &'a str,
    json_path: &'a str,
}

/// One e16 battery: everything that tells it apart from the others.
struct Battery {
    /// The `exp` experiment id that runs it.
    id: &'static str,
    /// The sweep's master seed is `ctx.stream(16, stream)`.
    stream: u64,
    quick_seeds: u32,
    full_seeds: u32,
    /// JSON report file under `target/`.
    report: &'static str,
    /// Flight-recorder dump under `target/`, written on a `CHECK` verdict.
    flight: &'static str,
    /// The arms, sized for the context.
    specs: fn(&ExpContext) -> Vec<ScenarioSpec>,
    title: fn(&ExpContext) -> String,
    claim: &'static str,
    columns: &'static [Column],
    verdict: fn(&Outcome) -> String,
}

/// Every e16 battery, in `exp -- all` order (`e16-scale` runs only when
/// named).
static BATTERIES: [Battery; 5] = [
    Battery {
        id: "e16",
        stream: 0,
        quick_seeds: 4,
        full_seeds: 8,
        report: "e16_scenarios.json",
        flight: "e16_flight.txt",
        specs: preset_specs,
        title: |_| "E16: adversarial scenario battery (oracle vs chord)".into(),
        claim: "uniformity holds on honest rings under every topology; churn costs messages not \
                correctness; Byzantine routers capture samples only on the routed backend",
        columns: &[
            SCENARIO,
            BACKEND,
            LIVE,
            FAIL_RATE,
            MSGS,
            HOP_P99,
            DRAW_P99,
            TV,
            BYZ_POP,
            ("byz_samples", |_, a| fmt_f(a.byzantine_sample_share_mean)),
            TTD,
            TTR,
        ],
        verdict: preset_verdict,
    },
    Battery {
        id: "e16-coalition",
        stream: 2,
        quick_seeds: 2,
        full_seeds: 6,
        report: "e16_coalition.json",
        flight: "e16_coalition_flight.txt",
        specs: coalition_specs,
        title: |_| {
            "E16-coalition: coalition attacks vs the verified-sampling defense (chord)".into()
        },
        claim: "every coalition strategy breaks chi-square uniformity undefended and is \
                restored by quorum-verified redundant sampling, with committee capture back at \
                the uniform baseline and the defense overhead priced in messages per sample",
        columns: &[
            SCENARIO,
            LIVE,
            BYZ_POP,
            ("byz_share", |_, a| fmt_f(a.byzantine_sample_share_mean)),
            ("chi_p_max", |_, a| format!("{:.1e}", a.chi_square_p_max)),
            ("capture_p", |_, a| {
                format!("{:.1e}", a.committee_capture_p_mean)
            }),
            ("capture_uniform", |_, a| {
                format!("{:.1e}", a.committee_capture_p_uniform_mean)
            }),
            MSGS,
            ("quorum_fails", |_, a| fmt_f(a.quorum_failures_mean)),
            TTD,
            TTR,
        ],
        verdict: coalition_verdict,
    },
    Battery {
        id: "e16-domains",
        stream: 4,
        quick_seeds: 2,
        full_seeds: 3,
        report: "e16_domains.json",
        flight: "e16_domains_flight.txt",
        specs: domain_specs,
        title: |_| "E16-domains: correlated domain outage vs adaptive routing (chord)".into(),
        claim: "a rack-sized correlated crash partitions plain routing; peer scoring plus \
                retry/fallback degradation holds lookup success through the outage at an \
                attributed extra cost, and the watchdog pins the breach on the failed domains",
        columns: &[
            SCENARIO,
            LIVE,
            FAIL_RATE,
            MSGS,
            ("latency", |_, a| fmt_f(a.latency_mean)),
            ("outage_ok_min", |_, a| fmt_f(a.outage_success_ratio_min)),
            ("retries", |_, a| counter(a, "lookup.retries").to_string()),
            ("fallbacks", |_, a| {
                counter(a, "lookup.fallback_depth").to_string()
            }),
            ("dom_events", |_, a| counter(a, "domain.events").to_string()),
            TTD,
            TTR,
        ],
        verdict: domain_verdict,
    },
    Battery {
        id: "e16-engine",
        stream: 5,
        quick_seeds: 2,
        full_seeds: 3,
        report: "e16_engine.json",
        flight: "e16_engine_flight.txt",
        specs: engine_specs,
        title: |_| "E16-engine: async in-flight lookups vs a slow domain (chord)".into(),
        claim: "thousands of lookups in flight over one deterministic event loop; a \
                latency-skewed sector breaches the in-flight-age SLO within 2 windows, \
                deadlines+retries pay attributed timeouts, and the whole battery replays \
                byte-identically",
        columns: &[
            SCENARIO,
            LIVE,
            ("lookups", |_, a| a.engine_lookups_sum.to_string()),
            ("done", |_, a| a.engine_completed_sum.to_string()),
            ("timeouts", |_, a| a.engine_timeouts_sum.to_string()),
            ("age_p999", |_, a| fmt_f(a.engine_age_p999_mean)),
            ("age_p999_max", |_, a| a.engine_age_p999_max.to_string()),
            ("ttd", |_, a| a.engine_ttd_max.to_string()),
            ("ttr", |_, a| a.engine_ttr_min.to_string()),
        ],
        verdict: engine_verdict,
    },
    Battery {
        id: "e16-scale",
        stream: 1,
        quick_seeds: 2,
        full_seeds: 2,
        report: "e16_scale.json",
        flight: "e16_scale_flight.txt",
        specs: scale_specs,
        title: |ctx| {
            format!(
                "E16-scale: scale-stress at n = {} (oracle and chord)",
                scale_n(ctx)
            )
        },
        claim: "compact routing arenas, bulk construction, incremental verification and batched \
                O(changes log n) maintenance carry 10^4-10^7-node rings through churn and \
                sampling deterministically",
        columns: &[
            SCENARIO,
            BACKEND,
            ("n_initial", |spec, _| spec.n_initial.to_string()),
            LIVE,
            FAIL_RATE,
            MSGS,
            HOP_P99,
            DRAW_P99,
            TV,
            ("staleness", |_, a| fmt_f(a.finger_staleness_mean)),
            ("backlog", |_, a| fmt_f(a.maintenance_backlog_mean)),
            TTD,
            TTR,
        ],
        verdict: scale_verdict,
    },
];

const SCENARIO: Column = ("scenario", |spec, _| spec.name.clone());
const BACKEND: Column = ("backend", |_, a| a.backend.clone());
const LIVE: Column = ("live", |_, a| fmt_f(a.live_peers_mean));
const FAIL_RATE: Column = ("fail_rate", |_, a| fmt_f(a.fail_rate_mean));
const MSGS: Column = ("msgs/draw", |_, a| fmt_f(a.messages_mean));
const HOP_P99: Column = ("hop_p99", |_, a| a.hop_p99_max.to_string());
const DRAW_P99: Column = ("draw_p99", |_, a| a.draw_msgs_p99_max.to_string());
const TV: Column = ("tv", |_, a| fmt_f(a.tv_mean));
const BYZ_POP: Column = ("byz_pop", |_, a| fmt_f(a.byzantine_population_share_mean));
const TTD: Column = ("ttd", |_, a| a.time_to_detect_max.to_string());
const TTR: Column = ("ttr", |_, a| a.time_to_recover_min.to_string());

/// Runs the battery `id` names; `None` when it names none.
pub fn run(id: &str, ctx: &ExpContext) -> Option<Table> {
    let battery = BATTERIES.iter().find(|b| b.id == id)?;
    if battery.id == "e16" {
        export_trace_if_requested(ctx);
    }
    Some(run_battery(ctx, battery))
}

/// The one battery driver: sweep → JSON report → table rows → verdict →
/// flight dump on `CHECK`.
fn run_battery(ctx: &ExpContext, battery: &Battery) -> Table {
    let seeds = if ctx.quick {
        battery.quick_seeds
    } else {
        battery.full_seeds
    };
    let sweep = Sweep::new((battery.specs)(ctx))
        .with_master_seed(ctx.stream(16, battery.stream))
        .with_seeds(seeds);
    let report = sweep.run();
    let json = report.to_json_pretty();
    let json_path = persist_named_report(&json, battery.report);

    let headers: Vec<&str> = battery.columns.iter().map(|&(header, _)| header).collect();
    let mut table = Table::new((battery.title)(ctx), battery.claim, &headers);
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            table.push_row(
                battery
                    .columns
                    .iter()
                    .map(|(_, cell)| cell(&scenario.spec, agg))
                    .collect(),
            );
        }
    }
    let verdict = (battery.verdict)(&Outcome {
        ctx,
        sweep: &sweep,
        report: &report,
        json: &json,
        json_path: &json_path,
    });
    table.set_verdict(dump_flight_on_check(verdict, &report, battery.flight));
    table
}

/// A verdict line: `HOLDS: <summary>; json -> <path>`, or `CHECK: ...`
/// with the flagged gates appended.
fn verdict_line(holds: bool, summary: String, json_path: &str, flagged: &[String]) -> String {
    let mut line = format!(
        "{}: {summary}; json -> {json_path}",
        if holds { "HOLDS" } else { "CHECK" }
    );
    if !flagged.is_empty() {
        line.push_str(&format!("; flagged: {}", flagged.join(", ")));
    }
    line
}

/// The first aggregate of the scenario named `name`.
fn aggregate<'a>(report: &'a SweepReport, name: &str) -> Option<&'a BackendAggregate> {
    report
        .scenarios
        .iter()
        .find(|s| s.spec.name == name)
        .map(|s| &s.aggregates[0])
}

/// A telemetry counter summed across seeds; 0 when never registered.
fn counter(agg: &BackendAggregate, name: &str) -> u64 {
    agg.counters.get(name).copied().unwrap_or(0)
}

/// The preset battery, cut to its first three scenarios at smoke size in
/// quick mode.
fn preset_specs(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    let mut specs = ScenarioSpec::presets();
    if ctx.quick {
        specs.truncate(3);
        for spec in &mut specs {
            spec.n_initial = 96;
            spec.workload.draws = 500;
        }
    }
    specs
}

fn preset_verdict(run: &Outcome) -> String {
    let report = run.report;
    let mut checks = Vec::new();
    for scenario in &report.scenarios {
        for agg in &scenario.aggregates {
            // The paper's O(log n) bound is a *tail* claim: gate the
            // worst per-seed hop p99, not the mean.
            checks.extend(hop_tail_violation(&scenario.spec.name, agg));
            // The stale-oracle arm is *supposed* to fail draws (that is
            // the staleness cost it measures); it only has to stay
            // usable.
            if agg.backend == "stale-oracle" {
                if agg.fail_rate_mean == 0.0 || agg.fail_rate_mean > 0.6 {
                    checks.push(format!(
                        "{}:stale-oracle fail={:.3} (expected in (0, 0.6])",
                        scenario.spec.name, agg.fail_rate_mean
                    ));
                }
                continue;
            }
            match scenario.spec.name.as_str() {
                // Honest rings: no failures, uniformity intact.
                "honest-static" | "clustered-ring"
                    if agg.fail_rate_mean > 0.01 || agg.chi_square_p_min < 1e-6 =>
                {
                    checks.push(format!(
                        "{}:{} fail={:.3} p_min={:.1e}",
                        scenario.spec.name, agg.backend, agg.fail_rate_mean, agg.chi_square_p_min
                    ));
                }
                // Churn may fail a few draws but must stay usable.
                "crash-churn" | "flash-crowd" | "scale-stress" if agg.fail_rate_mean > 0.10 => {
                    checks.push(format!(
                        "{}:{} fail={:.3}",
                        scenario.spec.name, agg.backend, agg.fail_rate_mean
                    ));
                }
                // The watchdog must flag the churn fault promptly on
                // every seed: crash churn is active from window 0, so
                // the first breach may lag it by at most 2 windows.
                "crash-churn"
                    if agg.backend == "chord" && !(0..=2).contains(&agg.time_to_detect_max) =>
                {
                    checks.push(format!(
                        "crash-churn:chord ttd {} outside [0, 2]",
                        agg.time_to_detect_max
                    ));
                }
                // The capture attack must show up on the routed backend...
                "byzantine-routers"
                    if agg.backend == "chord"
                        && agg.byzantine_sample_share_mean
                            <= agg.byzantine_population_share_mean =>
                {
                    checks.push(format!(
                        "byzantine:chord capture {:.3} <= share {:.3}",
                        agg.byzantine_sample_share_mean, agg.byzantine_population_share_mean
                    ));
                }
                // ...and only there.
                "byzantine-routers"
                    if agg.backend != "chord" && agg.byzantine_sample_share_mean != 0.0 =>
                {
                    checks.push("byzantine:oracle captured samples".to_string());
                }
                _ => {}
            }
        }
    }
    verdict_line(
        checks.is_empty(),
        format!(
            "{} scenarios x {} seeds x 2 backends",
            report.scenarios.len(),
            report.seeds_per_scenario
        ),
        run.json_path,
        &checks,
    )
}

/// Strategy × budget × {undefended, defended}. Quick mode shrinks to the
/// 10% budget at small n — the smoke shape; the full battery is the
/// acceptance grid.
fn coalition_specs(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    if !ctx.quick {
        return ScenarioSpec::coalition_battery(&[0.05, 0.10]);
    }
    let mut specs = ScenarioSpec::coalition_battery(&[0.10]);
    for spec in &mut specs {
        spec.n_initial = 96;
        spec.workload.draws = 1_500;
    }
    specs
}

/// Pairs each undefended arm with its `-defended` partner and checks the
/// acceptance criteria.
fn coalition_verdict(run: &Outcome) -> String {
    let report = run.report;
    // Capture probabilities are recomputed from the *mean* sample share
    // (capture is convex in the share, so per-seed means overweight noisy
    // high seeds). Quick mode runs 2 seeds × 1,500 draws, so its share
    // estimate is noisier; the restoration bound widens accordingly.
    let restore_bar = if run.ctx.quick { 3.0 } else { 2.0 };
    let mut checks = Vec::new();
    let mut pairs = 0;
    for scenario in &report.scenarios {
        let name = &scenario.spec.name;
        if name.ends_with("-defended") {
            continue;
        }
        let attack = &scenario.aggregates[0];
        let Some(defended) = aggregate(report, &format!("{name}-defended")) else {
            checks.push(format!("{name}: no defended arm"));
            continue;
        };
        pairs += 1;
        // Both arms must actually sample: trial exhaustion would leave
        // the bias (and its chi-square, sentinel -1.0) unmeasured, not
        // absent.
        if attack.fail_rate_mean > 0.05 || defended.fail_rate_mean > 0.05 {
            checks.push(format!(
                "{name}: draws failing (attack {:.3}, defended {:.3})",
                attack.fail_rate_mean, defended.fail_rate_mean
            ));
        }
        // Attack lands: uniformity measured and failing on every seed.
        if attack.chi_square_p_max > 1e-4 || attack.chi_square_p_max < 0.0 {
            checks.push(format!(
                "{name}: attack p_max {:.1e}",
                attack.chi_square_p_max
            ));
        }
        // Defense restores: uniformity passes on every seed.
        if defended.chi_square_p_min < 1e-4 {
            checks.push(format!(
                "{name}: defended p_min {:.1e}",
                defended.chi_square_p_min
            ));
        }
        // Committee capture returns to the uniform baseline's
        // neighbourhood.
        let restored =
            majority_capture_probability(defended.byzantine_sample_share_mean, COMMITTEE_SIZE);
        let baseline =
            majority_capture_probability(defended.byzantine_population_share_mean, COMMITTEE_SIZE)
                .max(1e-12);
        if restored > restore_bar * baseline {
            checks.push(format!(
                "{name}: capture {restored:.1e} > {restore_bar}x baseline {baseline:.1e}"
            ));
        }
        // The defense must cost something measurable — a free defense
        // means the redundant lookups silently stopped running.
        if defended.messages_mean <= attack.messages_mean {
            checks.push(format!(
                "{name}: defense overhead vanished ({} <= {})",
                defended.messages_mean, attack.messages_mean
            ));
        }
        // The watchdog's chi-drift rule must flag the undefended attack
        // within 2 draw windows of the fault (active from window 0) on
        // every seed...
        if !(0..=2).contains(&attack.time_to_detect_max) {
            checks.push(format!(
                "{name}: attack ttd {} outside [0, 2]",
                attack.time_to_detect_max
            ));
        }
        // ...and the defended arm must end every seed healthy (recovery
        // confirmed, or no breach at all).
        if defended.time_to_recover_min < 0 {
            checks.push(format!(
                "{name}: defended arm unhealthy at run end (ttr {})",
                defended.time_to_recover_min
            ));
        }
    }
    verdict_line(
        checks.is_empty() && pairs > 0,
        format!(
            "{pairs} attack/defense pairs x {} seeds",
            report.seeds_per_scenario
        ),
        run.json_path,
        &checks,
    )
}

/// The failure-domain battery: one correlated rack/region outage (25% of
/// the ring crashing as a single arc mid-run, healing later) crossed with
/// the resilience knobs — {baseline, scored, retry, scored+retry} — all
/// chord-only, all undefended. Its sizes put the outage edges exactly on
/// watchdog window boundaries (the realized window is
/// `max(500, 5·n_initial)` draws), so the per-window success-ratio rule
/// sees one clean window, two outage windows, and one healed window on
/// every arm.
fn domain_specs(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    let mut specs = ScenarioSpec::domain_battery();
    for spec in &mut specs {
        if ctx.quick {
            spec.n_initial = 96; // window 500
            spec.workload.draws = 2_000;
        } else {
            spec.n_initial = 256; // window 1280
            spec.workload.draws = 5_120;
        }
    }
    specs
}

/// The failure-domain acceptance gates: the outage must hurt the plain
/// arm, the full adaptive arm must hold ≥ 99% success *during* the
/// outage with its degradation cost attributed, every arm's watchdog
/// must detect the outage promptly and confirm recovery by run end, and
/// the success/latency deltas vs the non-adaptive baseline are reported.
fn domain_verdict(run: &Outcome) -> String {
    let report = run.report;
    let seeds = report.seeds_per_scenario;
    let (Some(base), Some(adaptive)) = (
        aggregate(report, "domain-outage-baseline"),
        aggregate(report, "domain-outage-adaptive"),
    ) else {
        return format!("CHECK: battery arms missing; json -> {}", run.json_path);
    };
    let mut checks = Vec::new();
    // Same outage, same draws, on both comparison arms.
    if base.outage_draws_sum == 0 || base.outage_draws_sum != adaptive.outage_draws_sum {
        checks.push(format!(
            "outage draws mismatch (baseline {}, adaptive {})",
            base.outage_draws_sum, adaptive.outage_draws_sum
        ));
    }
    // The correlated crash must actually break plain routing...
    if base.outage_success_ratio_mean >= 0.99 {
        checks.push(format!(
            "baseline survived the outage unscathed ({:.4})",
            base.outage_success_ratio_mean
        ));
    }
    // ...while the full adaptive arm holds the SLO on every seed.
    if adaptive.outage_success_ratio_min < 0.99 {
        checks.push(format!(
            "adaptive arm broke the 99% during-outage SLO ({:.4})",
            adaptive.outage_success_ratio_min
        ));
    }
    // Degradation is paid for and attributed, never free.
    if counter(adaptive, "lookup.retries") == 0 || counter(adaptive, "lookup.fallback_depth") == 0 {
        checks.push("adaptive arm shows no attributed retry/fallback cost".to_string());
    }
    for scenario in &report.scenarios {
        let a = &scenario.aggregates[0];
        let name = &scenario.spec.name;
        // Two transitions (crash, heal) over two domains, every seed.
        let events = counter(a, "domain.events");
        if events != 4 * u64::from(seeds) {
            checks.push(format!("{name}: domain.events {events} != {}", 4 * seeds));
        }
        // The watchdog must flag the outage within 2 windows of the
        // crash on every seed...
        if !(0..=2).contains(&a.time_to_detect_max) {
            checks.push(format!(
                "{name}: ttd {} outside [0, 2]",
                a.time_to_detect_max
            ));
        }
        // ...and the heal must leave every seed healthy by run end.
        if a.time_to_recover_min < 0 {
            checks.push(format!(
                "{name}: unhealthy at run end (ttr {})",
                a.time_to_recover_min
            ));
        }
    }
    verdict_line(
        checks.is_empty(),
        format!(
            "4 arms x {seeds} seeds; outage success {:.3} -> {:.3}, latency/draw {:.1} -> {:.1}",
            base.outage_success_ratio_mean,
            adaptive.outage_success_ratio_mean,
            base.latency_mean,
            adaptive.latency_mean,
        ),
        run.json_path,
        &checks,
    )
}

/// The async-engine battery: both `engine-slowdomain` arms — baseline
/// deadlines-only vs adaptive deadlines+retry/fallback — against a
/// latency-skewed (not dead) sector mid-run. The quick shape is the unit
/// suite's (128-node ring, 2k in-flight lookups per arm); the full shape
/// pushes 10k lookups through a 10k-wide in-flight window per arm.
fn engine_specs(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    let mut specs = ScenarioSpec::engine_battery();
    for spec in &mut specs {
        if ctx.quick {
            spec.n_initial = 128;
            spec.workload.draws = 400;
        } else {
            spec.n_initial = 256;
            spec.workload.draws = 1_000;
            let engine = spec
                .engine
                .as_mut()
                .expect("engine battery arms carry an engine phase");
            engine.lookups = 10_000;
            engine.inflight = 10_000;
        }
    }
    specs
}

/// The async-engine acceptance gates: exactly-once completion, prompt
/// slow-sector detection (ttd ≤ 2 windows) with recovery confirmed by
/// run end, a visible latency tail on both arms, attributed deadline
/// cost on the adaptive arm, and bit-for-bit determinism: the
/// zero-latency sync-equivalence spot check, and the whole sweep replayed
/// byte-identically. The adaptive arm's p999 is *reported*, not gated
/// against the baseline: under a regional delay fault the slow owner
/// probe is unavoidable, so preemptive retry bounds attempts, not the
/// worst-case age.
fn engine_verdict(run: &Outcome) -> String {
    let report = run.report;
    let replay_identical = run.sweep.run().to_json_pretty() == run.json;
    let mut checks = Vec::new();
    if !replay_identical {
        checks.push("sweep replay diverged (report not byte-identical)".to_string());
    }
    checks.extend(equivalence_violation(run.ctx.stream(16, 6)));
    let (Some(base), Some(adaptive)) = (
        aggregate(report, "engine-slowdomain-baseline"),
        aggregate(report, "engine-slowdomain-adaptive"),
    ) else {
        return format!("CHECK: battery arms missing; json -> {}", run.json_path);
    };
    for (name, a) in [
        ("engine-slowdomain-baseline", base),
        ("engine-slowdomain-adaptive", adaptive),
    ] {
        // Every submitted lookup completes exactly once, on every seed.
        if a.engine_lookups_sum == 0 || a.engine_completed_sum != a.engine_lookups_sum {
            checks.push(format!(
                "{name}: {}/{} lookups completed",
                a.engine_completed_sum, a.engine_lookups_sum
            ));
        }
        // The in-flight-age rule must flag the slow sector within 2
        // windows of the fault onset, on every seed...
        if !(0..=2).contains(&a.engine_ttd_max) {
            checks.push(format!(
                "{name}: engine ttd {} outside [0, 2]",
                a.engine_ttd_max
            ));
        }
        // ...and the heal must leave every seed recovered by run end.
        if a.engine_ttr_min < 0 {
            checks.push(format!(
                "{name}: engine unhealthy at run end (ttr {})",
                a.engine_ttr_min
            ));
        }
        // The fault is visible in the tail: the slowed sector multiplies
        // one wire delay (4 ticks) by 32, so a p999 under one slow hop
        // means the skew never reached the in-flight window.
        if a.engine_age_p999_max < 128 {
            checks.push(format!(
                "{name}: age p999 {} never saw a slow hop",
                a.engine_age_p999_max
            ));
        }
    }
    // The adaptive arm's deadlines actually fired and were accounted.
    if adaptive.engine_timeouts_sum == 0 {
        checks.push("adaptive arm fired no deadlines".to_string());
    }
    verdict_line(
        checks.is_empty(),
        format!(
            "2 arms x {} seeds; replay {}; age p999 max {} -> {} (baseline -> adaptive)",
            report.seeds_per_scenario,
            if replay_identical {
                "byte-identical"
            } else {
                "DIVERGED"
            },
            base.engine_age_p999_max,
            adaptive.engine_age_p999_max,
        ),
        run.json_path,
        &checks,
    )
}

/// The scale arms' ring size when `RP_SCALE` is unset.
const REFERENCE_SCALE_N: usize = 100_000;

/// Ring size of both scale arms: `RP_SCALE`, else the 10⁵ reference.
fn scale_n(ctx: &ExpContext) -> usize {
    ctx.scale.unwrap_or(REFERENCE_SCALE_N)
}

/// The scale-stress battery: an oracle arm and a chord arm of the same
/// size. The compact `RoutingArena` (~130 B/node, `BENCH_chord_scale.json`)
/// and O(1) incremental ring verification let the chord arm match the
/// oracle's size. A classic maintenance round routes one `fix_finger`
/// lookup per live node, O(n) per round, which 10⁷ peers cannot afford;
/// so the chord arm runs **batched incremental maintenance**
/// (`BatchedDrain`), where each tick repairs only what churn invalidated,
/// amortized O(changes · log n). Its cadence (every 500 ticks, 20 rounds
/// over the horizon) bounds staleness, not cost; the leftover staleness
/// is reported per record.
fn scale_specs(ctx: &ExpContext) -> Vec<ScenarioSpec> {
    let base = ScenarioSpec::preset_scale_stress();
    let mut oracle = base.clone();
    oracle.name = "scale-stress-oracle".to_string();
    oracle.backends = vec![Backend::Oracle];
    oracle.n_initial = scale_n(ctx);
    let mut chord = base;
    chord.name = "scale-stress-chord".to_string();
    chord.backends = vec![Backend::Chord];
    chord.n_initial = scale_n(ctx);
    chord.chord.stabilize_every_ticks = 500;
    chord.chord.maintenance = MaintenanceSpec::BatchedDrain;
    vec![oracle, chord]
}

/// The scale gates, on every arm: the O(log n) hop tail, at most 5% of
/// draws failing, at least half the ring alive; and on the chord arm,
/// fingers kept fresh and every seed healthy at run end.
fn scale_verdict(run: &Outcome) -> String {
    let report = run.report;
    let mut flagged = Vec::new();
    for scenario in &report.scenarios {
        let name = &scenario.spec.name;
        for agg in &scenario.aggregates {
            flagged.extend(hop_tail_violation(name, agg));
            if agg.fail_rate_mean > 0.05 {
                flagged.push(format!(
                    "{name}:{} fail={:.3}",
                    agg.backend, agg.fail_rate_mean
                ));
            }
            if agg.live_peers_mean < scenario.spec.n_initial as f64 * 0.5 {
                flagged.push(format!(
                    "{name}:{} live collapsed to {:.0}",
                    agg.backend, agg.live_peers_mean
                ));
            }
            // The drain cadence must keep the routed overlay essentially
            // fresh: standing staleness above 5% of fingers means the
            // batched maintenance stopped keeping up.
            if agg.backend == "chord" && agg.finger_staleness_mean > 0.05 {
                flagged.push(format!(
                    "{name}: staleness {:.3}",
                    agg.finger_staleness_mean
                ));
            }
            // The batched arm must end every seed healthy: whatever the
            // churn phase breached, the final drain rounds recover it
            // before the run ends (ttr −1 = recovery unconfirmed).
            if agg.backend == "chord" && agg.time_to_recover_min < 0 {
                flagged.push(format!(
                    "{name}: unhealthy at run end (ttr {})",
                    agg.time_to_recover_min
                ));
            }
        }
    }
    verdict_line(
        flagged.is_empty(),
        format!("2 arms x {} seeds", report.seeds_per_scenario),
        run.json_path,
        &flagged,
    )
}

/// The paper's latency/message bound, as a per-lookup hop gate: a healthy
/// Chord ring resolves `find_successor` in O(log n) hops, so the run's
/// 99th-percentile hop count must stay under `4·log₂(live) + 4` (the
/// histogram never under-reports, so the gate cannot pass on bucketing
/// slack). Returns `None` when the arm holds, or a description when it
/// does not. Oracle arms (no routing, hop tail 0) are skipped.
fn hop_tail_violation(scenario: &str, agg: &BackendAggregate) -> Option<String> {
    if agg.backend != "chord" || agg.hop_p99_max == 0 {
        return None;
    }
    let bound = 4.0 * agg.live_peers_mean.max(2.0).log2() + 4.0;
    (agg.hop_p99_max as f64 > bound).then(|| {
        format!(
            "{scenario}:chord hop_p99 {} > O(log n) bound {bound:.1}",
            agg.hop_p99_max
        )
    })
}

/// `RP_TRACE=<path>`: replay one representative chord arm with lookup
/// tracing on and write the flight recorder as a Chrome `trace_event`
/// file (load in `chrome://tracing` or Perfetto). The export is
/// schema-checked in process before it is written, so a malformed trace
/// fails the run instead of failing the viewer later.
fn export_trace_if_requested(ctx: &ExpContext) {
    let Ok(path) = std::env::var("RP_TRACE") else {
        return;
    };
    // The representative arm: Byzantine routers on a small ring, so the
    // trace shows honest and forged hops side by side.
    let mut spec = ScenarioSpec::preset_byzantine_routers();
    spec.n_initial = 96;
    spec.workload.draws = 200;
    spec.telemetry.flight_recorder_capacity = 256;
    let (record, dump) = run_scenario_seed_traced(&spec, Backend::Chord, ctx.stream(16, 3));
    let json = dump.chrome_trace_json();
    let value: serde_json::Value =
        serde_json::from_str(&json).expect("chrome trace export must be valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_seq())
        .expect("chrome trace export must carry a traceEvents array");
    assert!(
        !events.is_empty(),
        "traced run recorded {} lookups but exported no events",
        dump.recorded
    );
    std::fs::write(&path, &json)
        .unwrap_or_else(|e| panic!("RP_TRACE={path}: cannot write trace: {e}"));
    println!(
        "RP_TRACE: {} events from {} lookups (digest {}) -> {path}",
        events.len(),
        dump.recorded,
        record.trace_digest
    );
}

/// On a `CHECK` verdict, replays the first chord arm of the report with
/// tracing forced on and writes the flight-recorder dump under `target/`
/// — the hop-level post-mortem for whatever the gate flagged. Records are
/// pure functions of `(spec, backend, seed)`, so the replay reproduces
/// the failing run's routing exactly.
fn dump_flight_on_check(verdict: String, report: &SweepReport, file: &str) -> String {
    if !verdict.starts_with("CHECK") {
        return verdict;
    }
    let Some((mut spec, seed)) = report.scenarios.iter().find_map(|s| {
        s.runs
            .iter()
            .find(|r| r.backend == "chord")
            .map(|r| (s.spec.clone(), r.seed))
    }) else {
        return verdict;
    };
    // The replay's flight ring keeps the *last* N traces while tail
    // exemplars keep the *first* claimant per window bucket, so a
    // production-sized ring would usually have evicted the cited ops by
    // run end. Record fields are capacity-independent (the digest covers
    // every push), so widening the ring for the post-mortem changes
    // nothing but trace retention.
    spec.telemetry.flight_recorder_capacity = 1 << 20;
    let (record, dump) = run_scenario_seed_traced(&spec, Backend::Chord, seed);
    // The windowed series and attributed health events travel with the
    // hop-level flight traces: the post-mortem shows *when* the run went
    // bad, not just which lookups were in flight.
    let mut health = String::new();
    health.push_str(&format!(
        "health: {} windows, {} breaches, ttd {}, ttr {}\n",
        record.watchdog_windows,
        record.health_breaches,
        record.time_to_detect,
        record.time_to_recover
    ));
    for line in &record.health_events {
        health.push_str(&format!("  {line}\n"));
    }
    for (gauge, column) in &record.series {
        let rendered: Vec<String> = column.iter().map(|v| format!("{v:.3}")).collect();
        health.push_str(&format!("series {gauge}: [{}]\n", rendered.join(", ")));
    }
    health.push_str(&explain_tail(&record, &dump));
    let text = format!(
        "flight recorder: scenario {:?}, backend chord, seed {seed}\n{health}{}",
        spec.name,
        dump.pretty()
    );
    let path = persist_named_report(&text, file);
    format!("{verdict}; flight -> {path}")
}

/// The "why" section of a flight dump: the top span contributors (where
/// the simulated routing cost actually went — a degraded run's leader is
/// a retry/fallback span, not the finger walk) and every tail exemplar
/// resolved back to its retained trace, so a breaching histogram bucket
/// names a concrete replayable lookup instead of an anonymous count.
fn explain_tail(record: &scenarios::SeedRunRecord, dump: &telemetry::TraceDump) -> String {
    let mut out = String::new();
    let mut spans: Vec<(&String, u64)> = record
        .span_costs
        .iter()
        .filter(|&(_, &cost)| cost > 0)
        .map(|(name, &cost)| (name, cost))
        .collect();
    spans.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = spans.iter().map(|(_, c)| c).sum();
    out.push_str("top spans:\n");
    for (name, cost) in spans.iter().take(3) {
        out.push_str(&format!(
            "  {name}: {cost} ({:.1}%)\n",
            100.0 * *cost as f64 / total.max(1) as f64
        ));
    }
    let by_ordinal: std::collections::BTreeMap<u64, &telemetry::LookupTrace> =
        dump.traces.iter().map(|t| (t.ordinal, t)).collect();
    out.push_str(&format!(
        "tail exemplars ({} captured):\n",
        record.tail_exemplars.len()
    ));
    for e in &record.tail_exemplars {
        match by_ordinal.get(&e.trace_id) {
            Some(t) => out.push_str(&format!(
                "  exemplar window {} value {} (bucket <= {}) -> op {}: {} hops, {:?}\n",
                e.window,
                e.value,
                e.bucket_upper,
                t.ordinal,
                t.hops.len(),
                t.outcome
            )),
            None => out.push_str(&format!(
                "  exemplar window {} value {} (bucket <= {}) -> op {} (not retained)\n",
                e.window, e.value, e.bucket_upper, e.trace_id
            )),
        }
    }
    out
}

/// The in-harness zero-latency equivalence spot check: one ring, one
/// origin, 256 lookups driven *concurrently* through the engine vs the
/// sequential sync walk — owner, point, hops and attributed cost must
/// match bit-for-bit. The arbitrary-ring/fault property battery lives in
/// `chord/tests/engine_equivalence.rs`; this pins the same contract
/// inside the experiment harness, so a regression fails the battery and
/// not just the unit suite.
fn equivalence_violation(seed: u64) -> Option<String> {
    use chord::{ChordConfig, ChordNetwork, Completion, EngineConfig, FaultPlan, LookupEngine};
    use keyspace::KeySpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let space = KeySpace::full();
    let mut rng = StdRng::seed_from_u64(seed);
    let points = space.random_points(&mut rng, 128);
    let sync_net = ChordNetwork::bootstrap(space, points.clone(), ChordConfig::default());
    let async_net = ChordNetwork::bootstrap(space, points, ChordConfig::default());
    let origin = sync_net.live_ids()[0];
    let targets: Vec<_> = (0..256).map(|_| space.random_point(&mut rng)).collect();

    let mut engine = LookupEngine::new(EngineConfig {
        seed,
        ..EngineConfig::default()
    });
    let tags: Vec<u64> = targets
        .iter()
        .map(|&t| engine.submit(&async_net, origin, t))
        .collect();
    engine.drain(&async_net, &FaultPlan::none());
    let by_tag: std::collections::BTreeMap<u64, &Completion> =
        engine.completions().iter().map(|c| (c.tag, c)).collect();

    let mut walk_rng = StdRng::seed_from_u64(seed ^ 0x51DE);
    for (tag, &t) in tags.iter().zip(&targets) {
        let done = by_tag.get(tag)?;
        let sync =
            sync_net.find_successor_with_policy(origin, t, &FaultPlan::none(), &mut walk_rng);
        match (&done.result, &sync) {
            (Ok(a), Ok(s))
                if a.node == s.node
                    && a.point == s.point
                    && a.hops == s.hops
                    && a.cost == s.cost => {}
            (Err(a), Err(s)) if a == s => {}
            (a, s) => {
                return Some(format!(
                    "engine/sync divergence on target {t:?}: {a:?} vs {s:?}"
                ))
            }
        }
    }
    None
}

/// Writes `text` under `target/`; falls back to stdout-only when the
/// directory is not writable (e.g. read-only CI caches).
fn persist_named_report(text: &str, file: &str) -> String {
    let path = std::path::Path::new("target").join(file);
    match std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => path.display().to_string(),
        Err(_) => {
            println!("{text}");
            "(stdout)".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery(id: &str) -> &'static Battery {
        BATTERIES.iter().find(|b| b.id == id).unwrap()
    }

    fn quick() -> ExpContext {
        ExpContext {
            quick: true,
            ..ExpContext::default()
        }
    }

    #[test]
    fn quick_battery_holds() {
        let t = run_battery(&quick(), battery("e16"));
        // 3 quick scenarios x 2 backends, plus crash-churn's stale arm.
        assert_eq!(t.rows.len(), 7);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
    }

    #[test]
    fn quick_coalition_battery_holds() {
        let t = run_battery(&quick(), battery("e16-coalition"));
        // 3 strategies x 1 budget x {attack, defended}.
        assert_eq!(t.rows.len(), 6);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
        assert!(
            t.verdict.contains("3 attack/defense pairs"),
            "{}",
            t.verdict
        );
    }

    #[test]
    fn quick_domain_battery_holds() {
        let t = run_battery(&quick(), battery("e16-domains"));
        // 4 resilience arms x 1 backend (chord-only).
        assert_eq!(t.rows.len(), 4);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
        assert!(t.verdict.contains("outage success"), "{}", t.verdict);
    }

    #[test]
    fn domain_battery_sizes_align_with_watchdog_windows() {
        for (quick, window) in [(true, 500u64), (false, 1_280u64)] {
            let ctx = ExpContext {
                quick,
                ..ExpContext::default()
            };
            for spec in (battery("e16-domains").specs)(&ctx) {
                spec.validate().unwrap();
                assert_eq!(spec.backends, vec![Backend::Chord], "{}", spec.name);
                // The realized window is max(500, 5·n) and the outage
                // runs over draws [0.25, 0.75): both edges and the run
                // end must land on window boundaries, or the watchdog's
                // final window straddles the heal and ttr never clears.
                assert_eq!(window, 500.max(5 * spec.n_initial as u64));
                let draws = u64::from(spec.workload.draws);
                assert_eq!(draws % window, 0, "{}", spec.name);
                assert_eq!(draws / 4 % window, 0, "{}", spec.name);
                assert_eq!(3 * draws / 4 % window, 0, "{}", spec.name);
            }
        }
    }

    #[test]
    fn quick_engine_battery_holds() {
        let t = run_battery(&quick(), battery("e16-engine"));
        // 2 resilience arms (baseline, adaptive), chord-only.
        assert_eq!(t.rows.len(), 2);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
        assert!(t.verdict.contains("byte-identical"), "{}", t.verdict);
    }

    #[test]
    fn engine_battery_scales_to_ten_thousand_inflight_lookups() {
        for quick in [true, false] {
            let ctx = ExpContext {
                quick,
                ..ExpContext::default()
            };
            for spec in (battery("e16-engine").specs)(&ctx) {
                spec.validate().unwrap();
                assert_eq!(spec.backends, vec![Backend::Chord], "{}", spec.name);
                let engine = spec.engine.as_ref().unwrap();
                if quick {
                    assert_eq!(engine.lookups, 2_000, "{}", spec.name);
                } else {
                    // The acceptance shape: 10k lookups through a
                    // 10k-wide in-flight window.
                    assert_eq!(engine.lookups, 10_000, "{}", spec.name);
                    assert_eq!(engine.inflight, 10_000, "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn engine_equivalence_spot_check_passes_and_detects() {
        // The harness-side pin agrees with the chord property battery.
        assert_eq!(equivalence_violation(9), None);
        assert_eq!(equivalence_violation(77), None);
    }

    #[test]
    fn quick_battery_covers_both_backends_per_scenario() {
        let specs = (battery("e16").specs)(&quick());
        assert_eq!(specs.len(), 3);
        for spec in specs {
            assert!(spec.backends.len() >= 2, "{}", spec.name);
            assert!(spec.backends.contains(&Backend::Oracle), "{}", spec.name);
            assert!(spec.backends.contains(&Backend::Chord), "{}", spec.name);
        }
    }

    #[test]
    fn scale_battery_runs_both_backends_at_full_scale() {
        let specs = (battery("e16-scale").specs)(&ExpContext::default());
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].backends, vec![Backend::Oracle]);
        assert_eq!(specs[1].backends, vec![Backend::Chord]);
        // The compact arena closed the decade gap: both arms same size.
        assert_eq!(specs[0].n_initial, specs[1].n_initial);
        assert_eq!(specs[1].chord.stabilize_every_ticks, 500);
        // Scale arms opt into batched maintenance: classic full rounds
        // are O(n) routed lookups each, which 10^7 cannot afford.
        assert_eq!(specs[1].chord.maintenance, MaintenanceSpec::BatchedDrain);
        for spec in &specs {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn tiny_scale_run_holds() {
        // The e16-scale battery, shrunk far below the acceptance sizes so
        // the unit suite stays fast: both arms at 1,000 peers.
        let ctx = ExpContext {
            scale: Some(1_000),
            ..ExpContext::default()
        };
        let t = run_battery(&ctx, battery("e16-scale"));
        assert_eq!(t.rows.len(), 2, "one row per arm");
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
    }

    #[test]
    fn all_runs_every_battery_but_scale() {
        let ids: Vec<&str> = BATTERIES
            .iter()
            .map(|b| b.id)
            .filter(|&id| id != "e16-scale")
            .collect();
        assert!(super::super::ALL.ends_with(&ids), "{ids:?}");
    }

    #[test]
    fn hop_gate_skips_oracle_and_bounds_chord() {
        let mut spec = ScenarioSpec::preset_honest_static();
        spec.n_initial = 96;
        spec.workload.draws = 300;
        let report = Sweep::new(vec![spec]).with_seeds(2).run();
        for agg in &report.scenarios[0].aggregates {
            assert_eq!(
                hop_tail_violation("honest-static", agg),
                None,
                "healthy {} arm must pass the O(log n) gate",
                agg.backend
            );
        }
        // A fabricated pathological tail trips the gate.
        let mut broken = report.scenarios[0]
            .aggregates
            .iter()
            .find(|a| a.backend == "chord")
            .unwrap()
            .clone();
        broken.hop_p99_max = 10_000;
        let violation = hop_tail_violation("honest-static", &broken).unwrap();
        assert!(violation.contains("O(log n)"), "{violation}");
    }

    #[test]
    fn check_verdicts_dump_the_flight_recorder() {
        let mut spec = ScenarioSpec::preset_byzantine_routers();
        spec.n_initial = 96;
        spec.workload.draws = 200;
        let report = Sweep::new(vec![spec]).with_seeds(1).run();
        // HOLDS verdicts pass through untouched — no replay, no file.
        let holds = dump_flight_on_check("HOLDS: fine".to_string(), &report, "unused.txt");
        assert_eq!(holds, "HOLDS: fine");
        // CHECK verdicts replay the first chord arm traced and point at
        // the dump.
        let verdict =
            dump_flight_on_check("CHECK: forced".to_string(), &report, "e16_test_flight.txt");
        assert!(verdict.contains("flight -> "), "{verdict}");
        let path = verdict.rsplit("flight -> ").next().unwrap();
        let dump = std::fs::read_to_string(path).unwrap();
        assert!(dump.contains("flight recorder: scenario"), "{path}");
        assert!(dump.contains("hop"), "dump must carry hop paths");
    }

    #[test]
    fn flight_dump_explains_an_induced_hop_tail_breach() {
        // The explainability acceptance arm: a crash burst takes half the
        // ring down for most of the draw loop, the adaptive knobs degrade
        // through retries and fallbacks, and the resulting CHECK dump must
        // (a) name at least one tail exemplar that resolves to a retained
        // trace whose replayed hop count is exactly the exemplar's
        // recorded value (i.e. the lookup sits in the breaching bucket),
        // and (b) rank a retry/fallback span — not the healthy finger
        // walk — as the top cost contributor.
        let mut spec = ScenarioSpec::preset_domain_outage();
        spec.name = "crash-burst-explain".to_string();
        spec.n_initial = 96;
        spec.workload.draws = 2_000;
        spec.domains = Some(scenarios::FailureDomainSpec {
            domains: 4,
            crash_domains: 2,
            outage_start: 0.05,
            outage_end: 0.95,
        });
        let report = Sweep::new(vec![spec.clone()]).with_seeds(1).run();
        let verdict = dump_flight_on_check(
            "CHECK: forced".to_string(),
            &report,
            "e16_explain_flight.txt",
        );
        let path = verdict.rsplit("flight -> ").next().unwrap();
        let dump = std::fs::read_to_string(path).unwrap();
        // The watchdog attributed the burst...
        assert!(dump.contains("breach"), "no watchdog breach in dump");
        // ...the span breakdown names the injected cause first...
        let top = dump
            .lines()
            .skip_while(|l| !l.starts_with("top spans:"))
            .nth(1)
            .expect("dump must carry a top-spans section");
        let degradation = [
            "lookup;demoted_skip",
            "lookup;retry_backoff",
            "lookup;successor_walk",
            "lookup;verified_quorum",
        ];
        assert!(
            degradation.iter().any(|s| top.contains(s)),
            "top span must be a degradation span, got: {top}"
        );
        // ...and at least one exemplar resolves to a retained trace whose
        // replayed hop count lands in the cited bucket.
        let mut resolved = 0;
        for line in dump.lines().filter(|l| l.contains("-> op ")) {
            let value: u64 = line
                .split("value ")
                .nth(1)
                .and_then(|r| r.split(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap();
            let upper: u64 = line
                .split("bucket <= ")
                .nth(1)
                .and_then(|r| r.split(')').next())
                .and_then(|v| v.parse().ok())
                .unwrap();
            if let Some(hops) = line
                .split(": ")
                .nth(1)
                .and_then(|r| r.split(" hops").next())
                .and_then(|v| v.parse::<u64>().ok())
            {
                assert_eq!(hops, value, "replayed hop count must match: {line}");
                assert!(value <= upper, "exemplar outside its bucket: {line}");
                resolved += 1;
            }
        }
        assert!(resolved > 0, "no exemplar resolved to a retained trace");
    }

    #[test]
    fn representative_trace_export_is_schema_valid_chrome_json() {
        // The RP_TRACE arm, minus the env-var plumbing (env mutation would
        // race parallel tests): the traced replay must export parseable
        // trace_event JSON with one complete event per lookup and hop.
        let mut spec = ScenarioSpec::preset_byzantine_routers();
        spec.n_initial = 96;
        spec.workload.draws = 200;
        spec.telemetry.flight_recorder_capacity = 256;
        let (record, dump) = run_scenario_seed_traced(&spec, Backend::Chord, 5);
        let json = dump.chrome_trace_json();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value.get("traceEvents").and_then(|v| v.as_seq()).unwrap();
        assert!(events.len() >= dump.traces.len());
        for event in events {
            assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert!(event.get("name").is_some());
            assert!(event.get("ts").is_some());
            assert!(event.get("dur").is_some());
        }
        assert!(!record.trace_digest.is_empty());
    }
}
