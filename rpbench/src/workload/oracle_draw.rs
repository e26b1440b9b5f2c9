//! `oracle-draw-1m`.

use std::time::Instant;

use keyspace::{KeySpace, Point, SortedRing};
use peer_sampling::{Dht, OracleDht, Sampler};
use rand::Rng;

use super::phase::{audits, estimate, plain_draws, theory_trials};
use super::{epoch_rng, stream, Bench, Check, Memory, Params, Phase, Tally};
use crate::trace::{self, Layer};

/// Rank bins of the chi-square test.
const RANK_BINS: usize = 1_000;

/// `oracle-draw-1m`: the same epochs over `OracleDht`.
pub(super) struct OracleDraw {
    p: Params,
    dht: OracleDht,
    /// Draw counts per equal-width rank bin.
    bins: Vec<u64>,
}

impl OracleDraw {
    pub(super) fn build(p: Params, space: KeySpace, points: Vec<Point>) -> OracleDraw {
        let dht = OracleDht::new(SortedRing::new(space, points));
        OracleDraw {
            p,
            bins: vec![0; RANK_BINS.min(dht.len())],
            dht,
        }
    }
}

impl Bench for OracleDraw {
    fn n(&self) -> usize {
        self.dht.len()
    }

    fn epoch(&mut self, e: u64, phase: &mut Phase) {
        let t = Instant::now();
        let (seed, dht, n) = (self.p.seed, &self.dht, self.dht.len());
        let h = trace::span(Layer::Harness);
        let anchor = epoch_rng(seed, e, stream::PICK).gen_range(0..n);
        drop(h);
        if let Some(config) = estimate(dht, anchor, n, phase) {
            let theory = theory_trials(&config, dht.space(), n);
            let bins = &mut self.bins;
            let width = bins.len();
            plain_draws(
                &Sampler::new(config),
                dht,
                &mut epoch_rng(seed, e, stream::DRAWS),
                self.p.scale.draws_per_epoch,
                theory,
                phase,
                |d, _| bins[d.peer * width / n] += 1,
            );
        }
        let mut audit_rng = epoch_rng(seed, e, stream::AUDITS);
        audits(
            dht,
            self.p.scale.audits_per_epoch,
            &mut audit_rng,
            phase,
            |x| dht.ring().successor_of(x),
        );
        phase.wall_ns += t.elapsed().as_nanos() as u64;
    }

    /// Chi-square of the draws over equal-width rank bins against the bin
    /// sizes.
    fn checks(&mut self, _: &Tally) -> Vec<Check> {
        let n = self.dht.len();
        let width = self.bins.len();
        let mut sizes = vec![0f64; width];
        for rank in 0..n {
            sizes[rank * width / n] += 1.0;
        }
        let p = stats::ChiSquare::against(&self.bins, &sizes)
            .map(|c| c.p_value())
            .unwrap_or(0.0);
        vec![Check {
            name: "oracle-draws-uniform-over-ranks",
            ok: p >= 1e-6,
            detail: format!("chi-square p = {p:.3e} over {width} rank bins"),
        }]
    }

    fn memory(&self) -> Memory {
        Memory::default()
    }
}
