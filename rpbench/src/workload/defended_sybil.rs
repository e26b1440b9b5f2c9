//! `defended-sybil-100k`.

use std::time::Instant;

use adversary::{
    compile_coalition, spread_verified_views, sybil_ids, CoalitionStrategy, DefendedSampler,
};
use chord::{ChordConfig, ChordDht, ChordNetwork, FaultPlan, NodeId};
use keyspace::{KeySpace, Point};
use rand::rngs::StdRng;
use ringidx::RingIndex;

use super::phase::{audits, draw_loop, estimate, pick, theory_trials, Draw};
use super::{epoch_rng, epoch_seed, stream, Bench, Check, Memory, Params, Phase, Tally};
use crate::trace::{self, Layer, TimedDht, TrialRng};

/// Sybils as a share of the final population.
const SYBIL_FRACTION: f64 = 0.1;
/// Disjoint-entry views the defended client quorums over.
const VIEWS: usize = 5;

/// `defended-sybil-100k`: quorum-defended draws against sybil arc capture.
pub(super) struct DefendedSybil {
    p: Params,
    net: ChordNetwork,
    plan: FaultPlan,
    /// Whether each arena slot is a sybil.
    sybil: Vec<bool>,
    honest: Vec<NodeId>,
}

impl DefendedSybil {
    pub(super) fn build(p: Params, space: KeySpace, points: Vec<Point>) -> DefendedSybil {
        let members = RingIndex::bulk(
            space,
            points.iter().copied().zip(0u32..).collect::<Vec<_>>(),
        );
        // Sybils are added, so f of the final population is f/(1-f) of
        // the honest one.
        let budget = (points.len() as f64 * SYBIL_FRACTION / (1.0 - SYBIL_FRACTION)).round();
        let coalition = compile_coalition(
            CoalitionStrategy::SybilArcCapture,
            &members,
            (budget as usize).max(1),
        );
        let mut all = points;
        all.extend_from_slice(&coalition.sybil_points);
        let net = ChordNetwork::bootstrap(space, all, ChordConfig::default());
        let sybils = sybil_ids(&net, &coalition.sybil_points);
        let mut sybil = vec![false; net.arena_len()];
        for id in &sybils {
            sybil[id.index()] = true;
        }
        let honest = net
            .live_slice()
            .iter()
            .copied()
            .filter(|id| !sybil[id.index()])
            .collect();
        DefendedSybil {
            p,
            plan: FaultPlan::with_behavior(sybils, coalition.behavior),
            net,
            sybil,
            honest,
        }
    }

    fn sybil_fraction(&self) -> f64 {
        self.sybil.iter().filter(|&&s| s).count() as f64 / self.net.live_len() as f64
    }
}

impl Bench for DefendedSybil {
    fn n(&self) -> usize {
        self.net.live_len()
    }

    fn epoch(&mut self, e: u64, phase: &mut Phase) {
        let t = Instant::now();
        let (seed, net, n) = (self.p.seed, &self.net, self.net.live_len());
        let h = trace::span(Layer::Harness);
        let mut pick_rng = epoch_rng(seed, e, stream::PICK);
        // Clients and auditors are honest: the adversary does not get to
        // run the measurement.
        let anchor = pick(&self.honest, &mut pick_rng);
        let auditor = pick(&self.honest, &mut pick_rng);
        drop(h);
        let v = trace::span(Layer::Views);
        let latency = epoch_seed(seed, e, stream::LATENCY);
        let views = spread_verified_views(net, anchor, &self.plan, VIEWS, latency);
        let view = ChordDht::new(net, auditor, epoch_seed(seed, e, stream::AUDIT_LATENCY))
            .with_fault_plan(self.plan.clone())
            .with_verified_positions();
        drop(v);
        if let Some(config) = estimate(&views[0], anchor, n, phase) {
            let theory = theory_trials(&config, net.space(), n);
            let sampler = DefendedSampler::new(config);
            let sybil = &self.sybil;
            let seen = |d: &Draw<NodeId>, phase: &mut Phase| {
                phase.sybil_draws += u64::from(sybil[d.peer.index()]);
                phase.dead_draws += u64::from(!net.node(d.peer).is_alive());
            };
            let mut rng = epoch_rng(seed, e, stream::DRAWS);
            let count = self.p.scale.draws_per_epoch;
            if trace::on() {
                let timed: Vec<TimedDht<ChordDht>> = views.iter().map(TimedDht::new).collect();
                let refs: Vec<&TimedDht<ChordDht>> = timed.iter().collect();
                let draw = |r: &mut TrialRng<StdRng>| sampler.sample(&refs, r).map(Draw::from);
                draw_loop(
                    count,
                    &mut TrialRng::new(&mut rng),
                    theory,
                    phase,
                    draw,
                    seen,
                );
            } else {
                let refs: Vec<&ChordDht> = views.iter().collect();
                let draw = |r: &mut StdRng| sampler.sample(&refs, r).map(Draw::from);
                draw_loop(count, &mut rng, theory, phase, draw, seen);
            }
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
    }

    /// The sybil share of defended draws must match the sybil share of
    /// the population, and every drawn peer must be live.
    fn checks(&mut self, runs: &Tally) -> Vec<Check> {
        let fraction = self.sybil_fraction();
        let share = runs.sybil as f64 / runs.ok.max(1) as f64;
        // 0.01, or five standard errors when the run is too short for
        // 0.01 to be a sharp test.
        let sd = (fraction * (1.0 - fraction) / runs.ok.max(1) as f64).sqrt();
        let tolerance = f64::max(0.01, 5.0 * sd);
        vec![
            Check {
                name: "defended-sybil-share-matches-population",
                ok: (share - fraction).abs() <= tolerance,
                detail: format!(
                    "sybil share {share:.4}, population {fraction:.4}, tolerance {tolerance:.4}"
                ),
            },
            Check {
                name: "defended-draws-live",
                ok: runs.dead == 0,
                detail: format!("{} dead peers drawn", runs.dead),
            },
        ]
    }

    fn memory(&self) -> Memory {
        Memory::of(&self.net)
    }
}
