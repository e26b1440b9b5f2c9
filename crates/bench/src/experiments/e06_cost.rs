//! E6 — Theorem 7: `O(log n)` messages and latency, `O(1)` trials.
//!
//! Claim: on a standard DHT (`t_h = m_h = O(log n)`), one sample costs
//! `O(log n)` messages and latency in expectation. We run the sampler over
//! *real Chord routing*, sweep `n`, and fit `messages ~ a ln n + b`
//! (log-linear, expect an excellent fit) as well as reporting the mean
//! trial count (expect a constant ≈ `λ⁻¹/n` independent of `n`).
//!
//! Two accountings per size:
//!
//! * `msgs` — the implemented sampler (with the exact rejection
//!   short-circuit, see "Deviations from the paper" in
//!   `docs/ARCHITECTURE.md`);
//! * `paper_msgs` — Figure 1 as literally written, where every rejected
//!   trial walks the full `R = ⌈6 ln n′⌉` steps (reconstructed from
//!   per-trial telemetry; same accept/reject outcomes).

use chord::{ChordConfig, ChordDht, ChordNetwork};
use keyspace::KeySpace;
use peer_sampling::{Sampler, SamplerConfig, TrialOutcome};
use rand::SeedableRng;
use stats::fit;

use crate::{fmt_f, ExpContext, Table};

/// Runs the experiment.
pub fn run(ctx: &ExpContext) -> Table {
    let sizes: Vec<usize> = if ctx.quick {
        vec![256, 1024]
    } else {
        vec![256, 1024, 4096, 16384]
    };
    let samples = if ctx.quick { 100 } else { 400 };
    let mut table = Table::new(
        "E6: Theorem 7 cost on real Chord routing",
        "expected O(m_h + log n) messages, O(t_h + log n) latency, O(1) trials per sample",
        &[
            "n",
            "mean_trials",
            "mean_msgs",
            "mean_latency",
            "paper_msgs",
            "h_msgs/lookup",
        ],
    );
    let mut xs = Vec::new();
    let mut msgs_series = Vec::new();
    let mut trials_series = Vec::new();
    for &n in &sizes {
        let space = KeySpace::full();
        let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.stream(6, n as u64));
        let net = ChordNetwork::bootstrap(
            space,
            space.random_points(&mut rng, n),
            ChordConfig::default(),
        );
        let dht = ChordDht::new(&net, net.live_ids()[0], ctx.stream(6, n as u64 + 1));
        let config = SamplerConfig::new(n as u64);
        let sampler = Sampler::new(config);
        let step_bound = config.step_bound() as u64;

        let mut trials = 0u64;
        let mut msgs = 0u64;
        let mut latency = 0u64;
        let mut paper_msgs = 0u64;
        let mut h_msgs = 0u64;
        for _ in 0..samples {
            // Drive trials manually so both accountings are available.
            loop {
                let s = space.random_point(&mut rng);
                trials += 1;
                match sampler.trial(&dht, s).expect("healthy chord") {
                    TrialOutcome::Accepted { steps, cost, .. } => {
                        msgs += cost.messages;
                        latency += cost.latency;
                        paper_msgs += cost.messages;
                        h_msgs += cost.messages - steps as u64;
                        break;
                    }
                    TrialOutcome::Rejected { steps, cost } => {
                        msgs += cost.messages;
                        latency += cost.latency;
                        // Figure 1 literal: the rejected scan would have
                        // walked the full step bound.
                        paper_msgs += cost.messages + (step_bound - steps as u64);
                    }
                }
            }
        }
        let sf = samples as f64;
        xs.push(n as f64);
        msgs_series.push(msgs as f64 / sf);
        trials_series.push(trials as f64 / sf);
        table.push_row(vec![
            n.to_string(),
            fmt_f(trials as f64 / sf),
            fmt_f(msgs as f64 / sf),
            fmt_f(latency as f64 / sf),
            fmt_f(paper_msgs as f64 / sf),
            // h cost of the accepted lookup (one per sample).
            fmt_f(h_msgs as f64 / sf),
        ]);
    }
    let log_fit = fit::log_linear_fit(&xs, &msgs_series);
    let trials_spread = trials_series
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        / trials_series.iter().cloned().fold(f64::INFINITY, f64::min);
    let ok = log_fit.r_squared > 0.9 && trials_spread < 1.6;
    table.set_verdict(format!(
        "{}: msgs ~ {:.2} ln n + {:.1} (R^2 {:.4}); trial count varies only {:.2}x across sizes",
        if ok { "HOLDS" } else { "CHECK" },
        log_fit.slope,
        log_fit.intercept,
        log_fit.r_squared,
        trials_spread
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_scales_logarithmically() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let t = run(&ctx);
        assert_eq!(t.rows.len(), 2);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
    }
}
