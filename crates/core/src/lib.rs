//! `peer-sampling` — King & Saia, *Choosing a Random Peer* (PODC 2004).
//!
//! This crate implements the paper's contribution: the first fully
//! distributed algorithm that chooses a peer **uniformly at random** from
//! all peers of a DHT, using only the two primitive DHT operations
//!
//! * `h(x)` — the peer closest clockwise of an arbitrary ring point `x`
//!   (a DHT lookup, `O(log n)` messages in Chord), and
//! * `next(p)` — the immediate clockwise successor of a peer (`O(1)`).
//!
//! Both primitives are abstracted by the [`Dht`] trait, so the algorithms
//! run unchanged against the zero-cost [`OracleDht`] (for correctness
//! testing) and against the full Chord protocol from the `chord` crate (for
//! cost measurements).
//!
//! # The two algorithms
//!
//! * [`NetworkSizeEstimator`] — §2's *Estimate n*: a peer estimates the
//!   network size within a constant factor from `O(log n)` `next` probes.
//! * [`Sampler`] — §3's *Choose Random Peer* (Figure 1): rejection sampling
//!   over a conceptual partition of the ring that assigns every peer
//!   intervals of total measure **exactly** `λ`, making every accepted
//!   draw exactly uniform (Theorem 6) at `O(log n)` expected cost
//!   (Theorem 7).
//!
//! All decision arithmetic is exact integer arithmetic on the discrete
//! ring — no floating point — so Theorem 6 is *exhaustively verifiable*:
//! see [`assignment::owner_map`], which enumerates every ring point on a
//! small ring and checks that each peer owns exactly `λ` of them.
//!
//! # Quickstart
//!
//! ```
//! use keyspace::{KeySpace, SortedRing};
//! use peer_sampling::{OracleDht, Sampler, SamplerConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let space = KeySpace::full();
//! let ring = SortedRing::new(space, space.random_points(&mut rng, 500));
//! let dht = OracleDht::new(ring);
//!
//! // In deployment n is unknown; here we build the config from the truth.
//! let config = SamplerConfig::new(dht.len() as u64);
//! let sampler = Sampler::new(config);
//! let sample = sampler.sample(&dht, &mut rng)?;
//! assert!(sample.peer < dht.len());
//! # Ok::<(), peer_sampling::SampleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod weighted;

mod config;
mod cost;
mod dht;
mod estimate;
mod faulty;
mod oracle;
mod sampler;
pub mod theory;

pub use config::{ConfigError, SamplerConfig, DEFAULT_LAMBDA_DENOMINATOR};
pub use cost::Cost;
pub use dht::{Dht, DhtError, Resolved};
pub use estimate::{Estimate, NetworkSizeEstimator};
pub use faulty::FaultyDht;
pub use oracle::OracleDht;
pub use sampler::{Sample, SampleError, Sampler, TrialOutcome};
