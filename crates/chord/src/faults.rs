//! Routing-level fault injection: Byzantine nodes that misreport the
//! protocol's primitives.
//!
//! King & Saia's guarantees assume every peer answers `h(x)` and `next(p)`
//! honestly. A Byzantine router can bias the sampler three ways, one per
//! protocol surface:
//!
//! * **Claiming ownership** (`h` routing) — when a lookup reaches it, it
//!   answers `find_successor` with *itself* regardless of the target,
//!   forging its reported ring position as the target so the caller's
//!   interval checks pass. `h(x)` then resolves to the adversary for every
//!   start point routed through it (a classic capture attack on DHT
//!   lookups). Without the position forgery the sampler's exact
//!   `|I(s, l(h(s)))| < λ` test rejects almost every claim — a robustness
//!   property the scenario experiments measure.
//! * **Forging its own position** (`h` answer) — when it genuinely owns
//!   the looked-up point it confirms ownership but self-reports its
//!   position *as the target*, so the SMALL check `|I(s, l(h(s)))| < λ`
//!   passes for every point of its trailing arc instead of only the last
//!   `λ` of it. This is the *adaptive arc-liar*: the lie is arc-local
//!   (the node really is `h(s)`; only the position is false), so no
//!   honest peer ever contradicts the ownership claim and detection
//!   requires independent position evidence (see
//!   `adversary::DefendedSampler`).
//! * **Eclipsing the next hop** (`next`) — when asked for its successor
//!   it skips the true one and reports the peer after it, erasing an
//!   honest peer from every supplementation scan that passes through the
//!   adversary.
//!
//! A [`FaultPlan`] maps each Byzantine node to the [`NodeFaults`] it
//! exercises. Plans are *composable*: [`FaultPlan::merge`] layers one
//! plan's behaviours onto another's without clobbering (a coalition plan
//! can ride on top of a hand-built plan), and [`FaultPlan::clear`] resets
//! a plan to honest. [`ChordNetwork::find_successor_with_faults`] and
//! [`ChordDht::with_fault_plan`] apply a plan without touching
//! honest-path code.
//!
//! [`ChordNetwork::find_successor_with_faults`]: crate::ChordNetwork::find_successor_with_faults
//! [`ChordDht::with_fault_plan`]: crate::ChordDht::with_fault_plan

use std::collections::HashMap;

use rand::Rng;

use crate::network::{ChordNetwork, NodeId};

/// The misbehaviours one Byzantine node exercises, one flag per protocol
/// surface it can lie on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeFaults {
    /// Captures routed `find_successor` lookups passing through the node
    /// (answering with itself, position forged as the target).
    pub claim_ownership: bool,
    /// Skips the true successor when answering `next(p)`.
    pub eclipse_next: bool,
    /// Self-reports its position as the target when it is the genuine
    /// answer of an `h(x)` lookup (the adaptive arc-liar).
    pub forge_owned_position: bool,
}

impl NodeFaults {
    /// Every behaviour enabled.
    pub const ALL: NodeFaults = NodeFaults {
        claim_ownership: true,
        eclipse_next: true,
        forge_owned_position: true,
    };

    /// The two classic router faults (capture + eclipse), as enabled by
    /// [`FaultPlan::for_nodes`].
    pub const ROUTER: NodeFaults = NodeFaults {
        claim_ownership: true,
        eclipse_next: true,
        forge_owned_position: false,
    };

    /// No misbehaviour (an honest node).
    pub const HONEST: NodeFaults = NodeFaults {
        claim_ownership: false,
        eclipse_next: false,
        forge_owned_position: false,
    };

    /// Whether any behaviour is enabled.
    pub fn is_byzantine(self) -> bool {
        self.claim_ownership || self.eclipse_next || self.forge_owned_position
    }

    /// The union of two behaviour sets (per-flag OR).
    pub fn union(self, other: NodeFaults) -> NodeFaults {
        NodeFaults {
            claim_ownership: self.claim_ownership || other.claim_ownership,
            eclipse_next: self.eclipse_next || other.eclipse_next,
            forge_owned_position: self.forge_owned_position || other.forge_owned_position,
        }
    }
}

/// Which nodes are Byzantine and how each one misbehaves.
///
/// # Example
///
/// ```
/// use chord::{ChordConfig, ChordNetwork, FaultPlan};
/// use keyspace::KeySpace;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let space = KeySpace::full();
/// let net = ChordNetwork::bootstrap(
///     space,
///     space.random_points(&mut rng, 64),
///     ChordConfig::default(),
/// );
/// let plan = FaultPlan::sample_fraction(&net, 0.25, &mut rng);
/// assert_eq!(plan.byzantine_count(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    byzantine: HashMap<NodeId, NodeFaults>,
}

impl FaultPlan {
    /// A plan with no Byzantine nodes (honest network).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Marks an explicit set of nodes Byzantine with the classic router
    /// misbehaviours (capture + eclipse) enabled.
    pub fn for_nodes(nodes: impl IntoIterator<Item = NodeId>) -> FaultPlan {
        FaultPlan::with_behavior(nodes, NodeFaults::ROUTER)
    }

    /// Marks an explicit set of nodes Byzantine with the given behaviour
    /// set.
    pub fn with_behavior(nodes: impl IntoIterator<Item = NodeId>, faults: NodeFaults) -> FaultPlan {
        FaultPlan {
            byzantine: nodes.into_iter().map(|id| (id, faults)).collect(),
        }
    }

    /// Samples `⌊fraction · live⌋` live nodes as Byzantine, uniformly
    /// without replacement, with the classic router misbehaviours enabled.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction ≤ 1`.
    pub fn sample_fraction<R: Rng + ?Sized>(
        net: &ChordNetwork,
        fraction: f64,
        rng: &mut R,
    ) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "byzantine fraction {fraction} outside [0, 1]"
        );
        let mut live = net.live_ids();
        let count = (live.len() as f64 * fraction).floor() as usize;
        // Partial Fisher–Yates: the first `count` entries are a uniform
        // sample without replacement.
        for i in 0..count {
            let j = rng.gen_range(i..live.len());
            live.swap(i, j);
        }
        live.truncate(count);
        FaultPlan::for_nodes(live)
    }

    /// Layers `other`'s behaviours on top of this plan: nodes present in
    /// both keep the *union* of their behaviour sets, so merging never
    /// disables anything either plan enabled. This is what lets a
    /// coalition plan ride on a hand-built plan without clobbering it.
    pub fn merge(&mut self, other: &FaultPlan) {
        for (&id, &faults) in &other.byzantine {
            let entry = self.byzantine.entry(id).or_insert(NodeFaults::HONEST);
            *entry = entry.union(faults);
        }
    }

    /// Returns this plan merged with `other` (builder-style
    /// [`merge`](FaultPlan::merge)).
    pub fn merged(mut self, other: &FaultPlan) -> FaultPlan {
        self.merge(other);
        self
    }

    /// Resets the plan to honest (no Byzantine nodes).
    pub fn clear(&mut self) {
        self.byzantine.clear();
    }

    /// Disables the `find_successor` capture behaviour on every node.
    pub fn without_ownership_claims(mut self) -> FaultPlan {
        for faults in self.byzantine.values_mut() {
            faults.claim_ownership = false;
        }
        self
    }

    /// Disables the `next(p)` eclipse behaviour on every node.
    pub fn without_next_eclipse(mut self) -> FaultPlan {
        for faults in self.byzantine.values_mut() {
            faults.eclipse_next = false;
        }
        self
    }

    /// The behaviour set of `node` ([`NodeFaults::HONEST`] if absent).
    pub fn faults_of(&self, node: NodeId) -> NodeFaults {
        self.byzantine
            .get(&node)
            .copied()
            .unwrap_or(NodeFaults::HONEST)
    }

    /// Whether `node` is Byzantine (has any behaviour enabled).
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.faults_of(node).is_byzantine()
    }

    /// Whether `node` answers lookups by claiming ownership of the target.
    pub fn claims_ownership(&self, node: NodeId) -> bool {
        self.faults_of(node).claim_ownership
    }

    /// Whether `node` misreports its successor pointer.
    pub fn eclipses_next(&self, node: NodeId) -> bool {
        self.faults_of(node).eclipse_next
    }

    /// Whether `node` forges its self-reported position when it is the
    /// genuine answer of a lookup.
    pub fn forges_owned_position(&self, node: NodeId) -> bool {
        self.faults_of(node).forge_owned_position
    }

    /// Number of Byzantine nodes in the plan (nodes whose behaviour set is
    /// empty — e.g. after `without_*` stripped it — don't count).
    pub fn byzantine_count(&self) -> usize {
        self.byzantine.values().filter(|f| f.is_byzantine()).count()
    }

    /// The Byzantine nodes, in arena order (deterministic).
    pub fn byzantine_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .byzantine
            .iter()
            .filter(|(_, f)| f.is_byzantine())
            .map(|(&id, _)| id)
            .collect();
        nodes.sort_unstable();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChordConfig;
    use keyspace::KeySpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bootstrap(n: usize, seed: u64) -> ChordNetwork {
        let space = KeySpace::full();
        let mut r = StdRng::seed_from_u64(seed);
        ChordNetwork::bootstrap(
            space,
            space.random_points(&mut r, n),
            ChordConfig::default(),
        )
    }

    #[test]
    fn none_is_honest() {
        let plan = FaultPlan::none();
        assert_eq!(plan.byzantine_count(), 0);
        assert!(!plan.claims_ownership(NodeId::from_index(0)));
        assert!(!plan.eclipses_next(NodeId::from_index(0)));
        assert!(!plan.forges_owned_position(NodeId::from_index(0)));
    }

    #[test]
    fn sample_fraction_is_exact_and_live() {
        let net = bootstrap(80, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let plan = FaultPlan::sample_fraction(&net, 0.25, &mut rng);
        assert_eq!(plan.byzantine_count(), 20);
        for id in plan.byzantine_nodes() {
            assert!(net.node(id).is_alive());
        }
    }

    #[test]
    fn behaviours_can_be_disabled_independently() {
        let node = NodeId::from_index(3);
        let plan = FaultPlan::for_nodes([node]);
        assert!(plan.claims_ownership(node));
        assert!(plan.eclipses_next(node));
        assert!(!plan.forges_owned_position(node), "not a router fault");
        let no_claim = plan.clone().without_ownership_claims();
        assert!(!no_claim.claims_ownership(node));
        assert!(no_claim.eclipses_next(node));
        let no_eclipse = plan.without_next_eclipse();
        assert!(no_eclipse.claims_ownership(node));
        assert!(!no_eclipse.eclipses_next(node));
    }

    #[test]
    fn sample_fraction_deterministic_per_seed() {
        let net = bootstrap(40, 3);
        let a = FaultPlan::sample_fraction(&net, 0.5, &mut StdRng::seed_from_u64(9));
        let b = FaultPlan::sample_fraction(&net, 0.5, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.byzantine_nodes(), b.byzantine_nodes());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_fraction_panics() {
        let net = bootstrap(8, 4);
        let _ = FaultPlan::sample_fraction(&net, 1.5, &mut StdRng::seed_from_u64(5));
    }

    #[test]
    fn merge_takes_the_union_per_node() {
        let a_node = NodeId::from_index(1);
        let shared = NodeId::from_index(2);
        let b_node = NodeId::from_index(3);
        let mut plan = FaultPlan::with_behavior(
            [a_node, shared],
            NodeFaults {
                claim_ownership: true,
                ..NodeFaults::HONEST
            },
        );
        let other = FaultPlan::with_behavior(
            [shared, b_node],
            NodeFaults {
                eclipse_next: true,
                ..NodeFaults::HONEST
            },
        );
        plan.merge(&other);
        assert_eq!(plan.byzantine_count(), 3);
        // The shared node keeps both behaviours: merging never clobbers.
        assert!(plan.claims_ownership(shared));
        assert!(plan.eclipses_next(shared));
        assert!(plan.claims_ownership(a_node) && !plan.eclipses_next(a_node));
        assert!(plan.eclipses_next(b_node) && !plan.claims_ownership(b_node));
    }

    #[test]
    fn merged_is_builder_style_merge() {
        let x = NodeId::from_index(7);
        let plan = FaultPlan::none().merged(&FaultPlan::with_behavior(
            [x],
            NodeFaults {
                forge_owned_position: true,
                ..NodeFaults::HONEST
            },
        ));
        assert!(plan.forges_owned_position(x));
        assert!(!plan.claims_ownership(x));
    }

    #[test]
    fn clear_resets_to_honest() {
        let mut plan = FaultPlan::for_nodes([NodeId::from_index(0), NodeId::from_index(1)]);
        assert_eq!(plan.byzantine_count(), 2);
        plan.clear();
        assert_eq!(plan.byzantine_count(), 0);
        assert!(plan.byzantine_nodes().is_empty());
    }

    #[test]
    fn stripped_nodes_do_not_count_as_byzantine() {
        let node = NodeId::from_index(4);
        let plan = FaultPlan::for_nodes([node])
            .without_ownership_claims()
            .without_next_eclipse();
        assert!(!plan.is_byzantine(node), "no behaviour left");
        assert_eq!(plan.byzantine_count(), 0);
        assert!(plan.byzantine_nodes().is_empty());
    }

    #[test]
    fn node_faults_union_and_predicates() {
        assert!(NodeFaults::ALL.is_byzantine());
        assert!(!NodeFaults::HONEST.is_byzantine());
        let forged = NodeFaults {
            forge_owned_position: true,
            ..NodeFaults::HONEST
        };
        assert!(forged.is_byzantine());
        assert_eq!(NodeFaults::ROUTER.union(forged), NodeFaults::ALL);
    }
}
