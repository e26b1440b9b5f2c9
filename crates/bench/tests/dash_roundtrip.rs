//! End-to-end dashboard determinism: a real (tiny) e16-style sweep,
//! rendered through `apps::dash`, must be byte-identical across renders,
//! embed the machine-readable payload intact, and surface the run's
//! actual tail exemplars and span costs — the acceptance gates behind the
//! dashboard steps of the CI `domain-smoke` job.

use scenarios::{FailureDomainSpec, ScenarioSpec, Sweep};

/// A small domain-outage arm: degraded lookups guarantee the report
/// carries exemplars, retry/fallback spans and health events.
fn outage_report_json() -> String {
    let mut spec = ScenarioSpec::preset_domain_outage();
    spec.n_initial = 64;
    spec.workload.draws = 500;
    spec.domains = Some(FailureDomainSpec {
        domains: 4,
        crash_domains: 1,
        outage_start: 0.2,
        outage_end: 0.8,
    });
    Sweep::new(vec![spec]).with_seeds(1).run().to_json_pretty()
}

#[test]
fn real_sweep_dashboard_is_byte_identical_and_carries_the_evidence() {
    let report = outage_report_json();
    let first = apps::dash::render_dashboard(&report, None).unwrap();
    let second = apps::dash::render_dashboard(&report, None).unwrap();
    assert_eq!(
        first.html, second.html,
        "dashboard must render byte-identically"
    );
    assert_eq!(first.regressions, 0);

    // The run's own explainability data made it into the page: the arm,
    // at least one exemplar drill-down and the span taxonomy.
    assert!(first.html.contains("domain-outage"));
    assert!(first.html.contains("lookup;finger_walk"));
    assert!(first.html.contains("exemplars</summary>"));
    assert!(first.html.contains("<polyline"), "series sparkline missing");

    // The embedded payload is the exact report JSON, recoverable and
    // machine-readable (what the CI smoke job validates with python).
    let start = first.html.find("id=\"payload\">").unwrap() + "id=\"payload\">".len();
    let end = first.html[start..].find("</script>").unwrap() + start;
    let embedded = first.html[start..end].replace("<\\/", "</");
    assert_eq!(embedded, report);
    let value: serde_json::Value = serde_json::from_str(&embedded).unwrap();
    let scenarios = value.get("scenarios").and_then(|v| v.as_seq()).unwrap();
    assert_eq!(scenarios.len(), 1);

    // Self-diff renders the baseline section and stays clean.
    let with_diff = apps::dash::render_dashboard(&report, Some(&report)).unwrap();
    assert_eq!(with_diff.regressions, 0);
    assert!(with_diff.html.contains("baseline diff"));
}
