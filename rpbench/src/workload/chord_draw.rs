//! `chord-draw-1m`.

use std::time::Instant;

use chord::{ChordConfig, ChordDht, ChordNetwork};
use keyspace::{KeySpace, Point, SortedRing};
use peer_sampling::{NetworkSizeEstimator, OracleDht, Sampler};

use super::phase::{
    audits, counter_deltas, estimate, fold_digest, pick, plain_draws, theory_trials, Counters,
};
use super::{epoch_rng, epoch_seed, stream, Bench, Check, Memory, Params, Phase, Tally};
use crate::trace::{self, Layer};

/// `chord-draw-1m`: estimate then draw over a converged Chord ring.
pub(super) struct ChordDraw {
    p: Params,
    net: ChordNetwork,
    /// Fold of every drawn point, in draw order.
    digest: u64,
}

impl ChordDraw {
    pub(super) fn build(p: Params, space: KeySpace, points: Vec<Point>) -> ChordDraw {
        ChordDraw {
            p,
            net: ChordNetwork::bootstrap(space, points, ChordConfig::default()),
            digest: 0,
        }
    }
}

impl Bench for ChordDraw {
    fn n(&self) -> usize {
        self.net.live_len()
    }

    fn epoch(&mut self, e: u64, phase: &mut Phase) {
        let before = Counters::read(&self.net);
        let t = Instant::now();
        let (seed, net, n) = (self.p.seed, &self.net, self.net.live_len());
        let h = trace::span(Layer::Harness);
        let mut pick_rng = epoch_rng(seed, e, stream::PICK);
        let anchor = pick(net.live_slice(), &mut pick_rng);
        let auditor = pick(net.live_slice(), &mut pick_rng);
        drop(h);
        let v = trace::span(Layer::Views);
        let dht = ChordDht::new(net, anchor, epoch_seed(seed, e, stream::LATENCY));
        let view = ChordDht::new(net, auditor, epoch_seed(seed, e, stream::AUDIT_LATENCY));
        drop(v);
        if let Some(config) = estimate(&dht, anchor, n, phase) {
            let theory = theory_trials(&config, net.space(), n);
            let digest = &mut self.digest;
            plain_draws(
                &Sampler::new(config),
                &dht,
                &mut epoch_rng(seed, e, stream::DRAWS),
                self.p.scale.draws_per_epoch,
                theory,
                phase,
                |d, _| *digest = fold_digest(*digest, d.point),
            );
        }
        let mut audit_rng = epoch_rng(seed, e, stream::AUDITS);
        audits(
            &view,
            self.p.scale.audits_per_epoch,
            &mut audit_rng,
            phase,
            |x| net.ring_index().successor(x).expect("ring is not empty").1,
        );
        phase.wall_ns += t.elapsed().as_nanos() as u64;
        counter_deltas(&self.net, &before, phase);
    }

    /// Replays every epoch over `OracleDht` with the same points, seeds and
    /// configurations: on a converged ring Chord must draw the very same
    /// points.
    fn checks(&mut self, runs: &Tally) -> Vec<Check> {
        let space = self.net.space();
        let oracle = OracleDht::new(SortedRing::from_sorted(
            space,
            self.net.ring_index().points(),
        ));
        let mut digest = 0;
        for e in 0..runs.epochs {
            let mut pick_rng = epoch_rng(self.p.seed, e, stream::PICK);
            let anchor = pick(self.net.live_slice(), &mut pick_rng);
            let rank = oracle
                .ring()
                .index_of(self.net.node(anchor).point())
                .expect("anchor is on the ring");
            let Ok(est) = NetworkSizeEstimator::default().estimate(&oracle, rank) else {
                continue;
            };
            let sampler = Sampler::new(est.to_sampler_config());
            let mut rng = epoch_rng(self.p.seed, e, stream::DRAWS);
            for _ in 0..self.p.scale.draws_per_epoch {
                if let Ok(s) = sampler.sample(&oracle, &mut rng) {
                    digest = fold_digest(digest, s.point);
                }
            }
        }
        vec![Check {
            name: "chord-draws-equal-oracle-replay",
            ok: digest == self.digest,
            detail: format!("chord digest {:016x}, oracle {digest:016x}", self.digest),
        }]
    }

    fn memory(&self) -> Memory {
        Memory::of(&self.net)
    }
}
