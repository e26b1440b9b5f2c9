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
//! honest-path code. A lookup asks the plan about every hop it takes, so
//! the plan is a table indexed by arena index, one byte of packed flags
//! per node, rather than a hashed map.
//!
//! [`ChordNetwork::find_successor_with_faults`]: crate::ChordNetwork::find_successor_with_faults
//! [`ChordDht::with_fault_plan`]: crate::ChordDht::with_fault_plan

use rand::Rng;

use crate::network::{ChordNetwork, NodeId};

/// [`NodeFaults::claim_ownership`] in a packed flag byte.
const CLAIM: u8 = 1;
/// [`NodeFaults::eclipse_next`] in a packed flag byte.
const ECLIPSE: u8 = 1 << 1;
/// [`NodeFaults::forge_owned_position`] in a packed flag byte.
const FORGE: u8 = 1 << 2;

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

    /// The flags as one byte: bit 0 claims ownership, bit 1 eclipses
    /// `next`, bit 2 forges the owned position.
    const fn pack(self) -> u8 {
        self.claim_ownership as u8
            | (self.eclipse_next as u8) << 1
            | (self.forge_owned_position as u8) << 2
    }

    /// The flags [`pack`](Self::pack) stored in `bits`.
    const fn unpack(bits: u8) -> NodeFaults {
        NodeFaults {
            claim_ownership: bits & CLAIM != 0,
            eclipse_next: bits & ECLIPSE != 0,
            forge_owned_position: bits & FORGE != 0,
        }
    }

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
    /// [`NodeFaults::pack`]ed flags per arena index, up to the highest
    /// index any behaviour was given to; every index past the end is
    /// honest.
    flags: Vec<u8>,
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
        let mut plan = FaultPlan::none();
        let bits = faults.pack();
        for id in nodes {
            let i = id.index();
            if i >= plan.flags.len() {
                plan.flags.resize(i + 1, 0);
            }
            plan.flags[i] = bits;
        }
        plan
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
        if other.flags.len() > self.flags.len() {
            self.flags.resize(other.flags.len(), 0);
        }
        for (mine, theirs) in self.flags.iter_mut().zip(&other.flags) {
            *mine |= theirs;
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
        self.flags.clear();
    }

    /// Disables the `find_successor` capture behaviour on every node.
    pub fn without_ownership_claims(self) -> FaultPlan {
        self.without(CLAIM)
    }

    /// Disables the `next(p)` eclipse behaviour on every node.
    pub fn without_next_eclipse(self) -> FaultPlan {
        self.without(ECLIPSE)
    }

    /// This plan with the `flag` behaviour disabled on every node.
    fn without(mut self, flag: u8) -> FaultPlan {
        for bits in &mut self.flags {
            *bits &= !flag;
        }
        self
    }

    /// The packed flags of `node` (0 if the plan never named it).
    fn bits(&self, node: NodeId) -> u8 {
        self.flags.get(node.index()).copied().unwrap_or(0)
    }

    /// The behaviour set of `node` ([`NodeFaults::HONEST`] if absent).
    pub fn faults_of(&self, node: NodeId) -> NodeFaults {
        NodeFaults::unpack(self.bits(node))
    }

    /// Whether `node` is Byzantine (has any behaviour enabled).
    pub fn is_byzantine(&self, node: NodeId) -> bool {
        self.bits(node) != 0
    }

    /// Whether `node` answers lookups by claiming ownership of the target.
    pub fn claims_ownership(&self, node: NodeId) -> bool {
        self.bits(node) & CLAIM != 0
    }

    /// Whether `node` misreports its successor pointer.
    pub fn eclipses_next(&self, node: NodeId) -> bool {
        self.bits(node) & ECLIPSE != 0
    }

    /// Whether `node` forges its self-reported position when it is the
    /// genuine answer of a lookup.
    pub fn forges_owned_position(&self, node: NodeId) -> bool {
        self.bits(node) & FORGE != 0
    }

    /// Number of Byzantine nodes in the plan (nodes whose behaviour set is
    /// empty — e.g. after `without_*` stripped it — don't count).
    pub fn byzantine_count(&self) -> usize {
        self.flags.iter().filter(|&&bits| bits != 0).count()
    }

    /// The Byzantine nodes, in arena order (deterministic).
    pub fn byzantine_nodes(&self) -> Vec<NodeId> {
        self.flags
            .iter()
            .enumerate()
            .filter(|&(_, &bits)| bits != 0)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChordConfig;
    use keyspace::KeySpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

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

    /// A random behaviour set (honest included).
    fn random_faults(r: &mut StdRng) -> NodeFaults {
        NodeFaults {
            claim_ownership: r.gen(),
            eclipse_next: r.gen(),
            forge_owned_position: r.gen(),
        }
    }

    /// A random plan over indices below `span`, with the map it stands
    /// for: `with_behavior` gives every named node the same set.
    fn random_plan(r: &mut StdRng, span: usize) -> (FaultPlan, HashMap<NodeId, NodeFaults>) {
        let faults = random_faults(r);
        let nodes: Vec<NodeId> = (0..r.gen_range(0..12usize))
            .map(|_| NodeId::from_index(r.gen_range(0..span)))
            .collect();
        let model = nodes.iter().map(|&id| (id, faults)).collect();
        (FaultPlan::with_behavior(nodes, faults), model)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn the_packed_table_answers_like_a_map(
            seed in 0u64..1_000_000,
            steps in 1usize..40,
            span in 1usize..300,
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut plan = FaultPlan::none();
            let mut model: HashMap<NodeId, NodeFaults> = HashMap::new();
            for step in 0..steps {
                match r.gen_range(0..6u32) {
                    0 => (plan, model) = random_plan(&mut r, span),
                    1 | 2 => {
                        let (other, other_model) = random_plan(&mut r, span);
                        plan.merge(&other);
                        for (id, faults) in other_model {
                            let entry = model.entry(id).or_insert(NodeFaults::HONEST);
                            *entry = entry.union(faults);
                        }
                    }
                    3 => {
                        plan = plan.without_ownership_claims();
                        model.values_mut().for_each(|f| f.claim_ownership = false);
                    }
                    4 => {
                        plan = plan.without_next_eclipse();
                        model.values_mut().for_each(|f| f.eclipse_next = false);
                    }
                    _ => {
                        plan.clear();
                        model.clear();
                    }
                }
                for i in 0..span + 8 {
                    let id = NodeId::from_index(i);
                    let want = model.get(&id).copied().unwrap_or(NodeFaults::HONEST);
                    proptest::prop_assert_eq!(plan.faults_of(id), want, "step {}: {}", step, id);
                    proptest::prop_assert_eq!(plan.is_byzantine(id), want.is_byzantine());
                    proptest::prop_assert_eq!(plan.claims_ownership(id), want.claim_ownership);
                    proptest::prop_assert_eq!(plan.eclipses_next(id), want.eclipse_next);
                    proptest::prop_assert_eq!(
                        plan.forges_owned_position(id),
                        want.forge_owned_position
                    );
                }
                let mut byzantine: Vec<NodeId> = model
                    .iter()
                    .filter(|(_, f)| f.is_byzantine())
                    .map(|(&id, _)| id)
                    .collect();
                byzantine.sort_unstable();
                proptest::prop_assert_eq!(plan.byzantine_count(), byzantine.len(), "step {}", step);
                proptest::prop_assert_eq!(plan.byzantine_nodes(), byzantine, "step {}", step);
            }
        }
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
