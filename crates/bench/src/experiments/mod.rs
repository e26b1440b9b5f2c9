//! The experiment suite (E1–E16).
//!
//! One module per experiment; each module's doc names the paper claim it
//! checks, and each exposes `run(&ExpContext)`. E16 is the exception:
//! each of its batteries runs under an id of its own. Where the
//! implementation departs from the letter of the paper,
//! "Deviations from the paper" in `docs/ARCHITECTURE.md` says how and
//! why.

pub mod e01_lemma1;
pub mod e02_min_arc;
pub mod e03_estimate;
pub mod e04_windows;
pub mod e05_uniformity;
pub mod e06_cost;
pub mod e07_walks;
pub mod e08_naive_bias;
pub mod e09_links;
pub mod e10_virtual;
pub mod e11_churn;
pub mod e12_apps;
pub mod e13_ablation;
pub mod e14_weighted;
pub mod e15_storage;
pub mod e16_scenarios;

use keyspace::{KeySpace, SortedRing};
use rand::SeedableRng;

use crate::{ExpContext, Table};

/// Every experiment id `exp -- all` runs, in order. `e16-scale` runs only
/// when named.
pub const ALL: &[&str] = &[
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "e9",
    "e10",
    "e11",
    "e12",
    "e13",
    "e14",
    "e15",
    "e16",
    "e16-coalition",
    "e16-domains",
    "e16-engine",
];

/// Runs one experiment by id.
///
/// Returns `None` for an unknown id.
pub fn run(id: &str, ctx: &ExpContext) -> Option<Vec<Table>> {
    let tables = match id {
        "e1" => vec![e01_lemma1::run(ctx)],
        "e2" => vec![e02_min_arc::run(ctx)],
        "e3" => vec![e03_estimate::run(ctx)],
        "e4" => vec![e04_windows::run(ctx)],
        "e5" => e05_uniformity::run(ctx),
        "e6" => vec![e06_cost::run(ctx)],
        "e7" => vec![e07_walks::run(ctx)],
        "e8" => vec![e08_naive_bias::run(ctx)],
        "e9" => vec![e09_links::run(ctx)],
        "e10" => vec![e10_virtual::run(ctx)],
        "e11" => vec![e11_churn::run(ctx)],
        "e12" => e12_apps::run(ctx),
        "e13" => vec![e13_ablation::run(ctx)],
        "e14" => vec![e14_weighted::run(ctx)],
        "e15" => vec![e15_storage::run(ctx)],
        _ => vec![e16_scenarios::run(id, ctx)?],
    };
    Some(tables)
}

/// A ring of `n` i.i.d. uniform peers on the full key space.
pub(crate) fn make_ring(n: usize, seed: u64) -> SortedRing {
    let space = KeySpace::full();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    SortedRing::new(space, space.random_points(&mut rng, n))
}

/// The network-size sweep used by the scaling experiments.
pub(crate) fn size_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![256, 1024]
    } else {
        vec![256, 1024, 4096, 16384]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("e999", &ExpContext::default()).is_none());
    }

    #[test]
    fn all_ids_are_unique() {
        let set: std::collections::HashSet<_> = ALL.iter().collect();
        assert_eq!(set.len(), ALL.len());
    }

    #[test]
    fn make_ring_has_requested_size() {
        assert_eq!(make_ring(100, 1).len(), 100);
    }
}
