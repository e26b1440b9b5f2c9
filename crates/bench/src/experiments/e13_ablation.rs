//! E13 — ablation: the `λ` denominator (the paper's constant 7).
//!
//! The paper fixes `λ = 1/(7n̂)` without discussing the constant. The
//! trade-off it controls:
//!
//! * smaller denominator → larger `λ` → higher per-trial acceptance
//!   (fewer trials, fewer messages), but
//! * larger `λ` makes more peers "needy" (arc < λ), deepening the
//!   supplementation chains that must finish within `R = ⌈6 ln n⌉` steps
//!   — truncation beyond `R` silently *loses measure* (those peers are
//!   under-sampled).
//!
//! This table measures both sides. The paper's 7 buys a large safety
//! margin; denominators below ~3 start leaking measure.
//!
//! The loss side runs twice: exhaustively on a 256-peer ring, and through
//! the closed-form certificate [`assignment::lost_measure`] on a 10⁶-peer
//! full-modulus ring (10⁵ in quick mode), at the paper's `R = ⌈6 ln n⌉`
//! and at the Chernoff bound `R = ⌈3 ln n / I(1/d)⌉` that
//! [`SamplerConfig::chernoff_step_bound`] derives for each denominator.

use keyspace::KeySpace;
use peer_sampling::{assignment, OracleDht, Sampler, SamplerConfig};
use rand::SeedableRng;

use super::make_ring;
use crate::{fmt_f, ExpContext, Table};

/// Runs the experiment.
pub fn run(ctx: &ExpContext) -> Table {
    let mut table = Table::new(
        "E13: lambda-denominator ablation (paper uses 7)",
        "smaller denominators cut trials/messages but risk measure loss past the 6 ln n scan bound",
        &[
            "denom",
            "accept_prob",
            "mean_trials",
            "mean_msgs",
            "lost_measure",
            "exact_when_untruncated",
            "R_derived",
            "lost_pts_paper_R",
            "lost_pts_derived_R",
        ],
    );
    let denominators = [2u64, 3, 5, 7, 14, 28];

    // Cost side: oracle DHT at realistic size.
    let n_cost = if ctx.quick { 512 } else { 2048 };
    let samples = if ctx.quick { 300 } else { 1500 };
    let ring_cost = make_ring(n_cost, ctx.stream(13, 1));
    let dht = OracleDht::new(ring_cost);
    let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.stream(13, 2));

    // Measure-loss side: exhaustive enumeration on a small ring with the
    // paper's step bound.
    let n_small = 256usize;
    let modulus = 1u128 << 18;
    let space = KeySpace::with_modulus(modulus).expect("modulus");
    let mut ring_rng = rand::rngs::StdRng::seed_from_u64(ctx.stream(13, 3));
    let ring_small =
        keyspace::SortedRing::new(space, space.random_distinct_points(&mut ring_rng, n_small));
    let step_bound_small = (6.0 * (n_small as f64).ln()).ceil() as u32;

    // Measure-loss side at scale: the closed-form certificate.
    let n_scale = if ctx.quick { 100_000 } else { 1_000_000 };
    let ring_scale = make_ring(n_scale, ctx.stream(13, 4));
    let space_scale = ring_scale.space();

    let mut seven_loss = 0.0f64;
    let mut seven_scale_loss = 0u128;
    let mut min_loss_denom = (f64::INFINITY, 0u64);
    for &denom in &denominators {
        // Sampling cost.
        let sampler =
            Sampler::new(SamplerConfig::new(n_cost as u64).with_lambda_denominator(denom));
        let mut trials = 0u64;
        let mut msgs = 0u64;
        for _ in 0..samples {
            let s = sampler.sample(&dht, &mut rng).expect("oracle");
            trials += s.trials as u64;
            msgs += s.cost.messages;
        }

        // Measure accounting (exhaustive).
        let lambda = (modulus / (denom as u128 * n_small as u128)) as u64;
        let truncated = assignment::measure_per_peer(&ring_small, lambda, step_bound_small);
        let full = assignment::measure_per_peer(&ring_small, lambda, n_small as u32 + 1);
        let demanded = lambda as f64 * n_small as f64;
        let owned: u64 = truncated.iter().sum();
        let lost = (demanded - owned as f64) / demanded;
        let exact_untruncated = full.iter().all(|&c| c == lambda);

        // Certificate at scale, at the paper's and the derived R.
        let config = SamplerConfig::new(ring_scale.len() as u64).with_lambda_denominator(denom);
        let lambda_scale = config.lambda(space_scale).expect("full modulus");
        let derived_r = config.chernoff_step_bound();
        let lost_paper = assignment::lost_measure(&ring_scale, lambda_scale, config.step_bound());
        let lost_derived = assignment::lost_measure(&ring_scale, lambda_scale, derived_r);
        if denom == 7 {
            seven_loss = lost;
            seven_scale_loss = lost_paper + lost_derived;
        }
        if lost < min_loss_denom.0 {
            min_loss_denom = (lost, denom);
        }

        table.push_row(vec![
            denom.to_string(),
            fmt_f(owned as f64 / modulus as f64),
            fmt_f(trials as f64 / samples as f64),
            fmt_f(msgs as f64 / samples as f64),
            fmt_f(lost),
            exact_untruncated.to_string(),
            derived_r.to_string(),
            lost_paper.to_string(),
            lost_derived.to_string(),
        ]);
    }
    let ok = seven_loss == 0.0 && seven_scale_loss == 0;
    table.set_verdict(format!(
        "{}: the paper's denominator 7 loses zero measure at R = 6 ln n, and at n = {n_scale} also at the derived R; untruncated partitions are exact at every denominator",
        if ok { "HOLDS" } else { "CHECK" }
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_seven_is_safe() {
        let ctx = ExpContext {
            quick: true,
            ..ExpContext::default()
        };
        let t = run(&ctx);
        assert_eq!(t.rows.len(), 6);
        assert!(t.verdict.starts_with("HOLDS"), "{}", t.verdict);
        // Every denominator's untruncated partition is exact.
        assert!(t.rows.iter().all(|r| r[5] == "true"));
        // d = 7 loses nothing at scale at either R, and its derived R is
        // below the paper's ⌈6 ln 10⁵⌉ = 70.
        let seven = t.rows.iter().find(|r| r[0] == "7").expect("d = 7 row");
        assert_eq!((seven[7].as_str(), seven[8].as_str()), ("0", "0"));
        assert!(seven[6].parse::<u32>().expect("R") < 70);
    }
}
