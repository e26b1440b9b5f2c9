//! `churn-policy-100k`.

use std::time::Instant;

use chord::{
    AdaptiveConfig, ChordConfig, ChordDht, ChordNetwork, MaintenanceBudget, NodeId, RetryPolicy,
};
use keyspace::{KeySpace, Point};
use peer_sampling::Sampler;
use rand::rngs::StdRng;

use super::phase::{audits, counter_deltas, estimate, pick, plain_draws, theory_trials, Counters};
use super::{epoch_rng, epoch_seed, stream, Bench, Check, Memory, Params, Phase, Tally};
use crate::trace::{self, Layer};

/// Batched maintenance rounds a churn cycle may spend draining.
const MAX_ROUNDS: u32 = 8;
/// Nodes in the one contiguous arc each cycle crashes: longer than the
/// 8-entry successor list, so the arc's predecessor loses every successor
/// and lookups must fall back.
const ARC_LEN: u32 = 12;

/// `churn-policy-100k`: membership events, draws on the stale ring, owner
/// audits, then batched maintenance, cycle after cycle.
pub(super) struct ChurnPolicy {
    p: Params,
    net: ChordNetwork,
    n: usize,
}

impl ChurnPolicy {
    pub(super) fn build(p: Params, space: KeySpace, points: Vec<Point>) -> ChurnPolicy {
        let mut net = ChordNetwork::bootstrap(space, points, ChordConfig::default());
        net.enable_retry_policy(RetryPolicy::default());
        net.enable_adaptive_routing(AdaptiveConfig::default());
        ChurnPolicy {
            p,
            n: net.live_len(),
            net,
        }
    }

    fn crash(&mut self, id: NodeId, phase: &mut Phase) {
        let _s = trace::span(Layer::Crash);
        self.net.crash(id);
        phase.crashes += 1;
    }

    /// Crashes and joins of one cycle, then one contiguous arc crash.
    fn membership(&mut self, rng: &mut StdRng, phase: &mut Phase) {
        let space = self.net.space();
        for _ in 0..self.p.scale.crashes {
            let victim = {
                let _h = trace::span(Layer::Harness);
                pick(self.net.live_slice(), rng)
            };
            self.crash(victim, phase);
        }
        for _ in 0..self.p.scale.joins {
            let (point, gateway) = {
                let _h = trace::span(Layer::Harness);
                let mut point = space.random_point(rng);
                while self.net.ring_index().contains_point(point) {
                    point = space.random_point(rng);
                }
                (point, pick(self.net.live_slice(), rng))
            };
            let _s = trace::span(Layer::Join);
            phase.joins += 1;
            if self.net.join(point, gateway, rng).is_err() {
                phase.joins_failed += 1;
            }
        }
        let arc = {
            let _h = trace::span(Layer::Harness);
            let index = self.net.ring_index();
            let mut at = index
                .successor(space.random_point(rng))
                .expect("ring is not empty");
            let mut arc = vec![at.1];
            for _ in 1..ARC_LEN {
                at = index
                    .strict_successor(at.0, at.1)
                    .expect("ring is not empty");
                arc.push(at.1);
            }
            arc
        };
        for id in arc {
            self.crash(id, phase);
        }
    }

    /// Batched maintenance rounds until the backlog is gone or the round
    /// cap is hit.
    fn drain(&mut self, max_rounds: u32, rng: &mut StdRng, phase: &mut Phase) {
        for _ in 0..max_rounds {
            if self.net.maintenance_backlog() == 0 {
                break;
            }
            let _s = trace::span(Layer::Maintenance);
            let work = self
                .net
                .batched_maintenance_round(MaintenanceBudget::unlimited(), rng);
            phase.rounds += 1;
            phase.maint_lookups += work.lookups;
        }
    }
}

impl Bench for ChurnPolicy {
    fn n(&self) -> usize {
        self.n
    }

    fn epoch(&mut self, e: u64, phase: &mut Phase) {
        let before = Counters::read(&self.net);
        let t = Instant::now();
        let seed = self.p.seed;
        let mut churn_rng = epoch_rng(seed, e, stream::CHURN);
        self.membership(&mut churn_rng, phase);
        phase.dirty += self.net.maintenance_backlog() as u64;

        let net = &self.net;
        let n = net.live_len();
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
            plain_draws(
                &Sampler::new(config),
                &dht,
                &mut epoch_rng(seed, e, stream::DRAWS),
                self.p.scale.draws_per_epoch,
                theory,
                phase,
                |d, phase| phase.dead_draws += u64::from(!net.node(d.peer).is_alive()),
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
        self.drain(MAX_ROUNDS, &mut churn_rng, phase);
        phase.wall_ns += t.elapsed().as_nanos() as u64;
        counter_deltas(&self.net, &before, phase);
    }

    /// Every drawn peer was live when drawn, and once maintenance has
    /// drained the incremental ring report equals the full re-scan.
    fn checks(&mut self, runs: &Tally) -> Vec<Check> {
        let mut rng = epoch_rng(self.p.seed, runs.epochs, stream::CHURN);
        let mut scratch = Phase::default();
        self.drain(64, &mut rng, &mut scratch);
        let (fast, full) = (self.net.verify_ring(), self.net.verify_ring_full());
        vec![
            Check {
                name: "churn-draws-live",
                ok: runs.dead == 0,
                detail: format!("{} dead peers drawn", runs.dead),
            },
            Check {
                name: "churn-ring-report-equals-full-scan",
                ok: fast == full,
                detail: format!(
                    "incremental {fast:?}, full {full:?}, backlog {}",
                    self.net.maintenance_backlog()
                ),
            },
        ]
    }

    fn memory(&self) -> Memory {
        Memory::of(&self.net)
    }
}
