//! Deterministic discrete-event network simulation substrate.
//!
//! The paper measures its algorithm in two currencies — **messages sent**
//! and **latency** (sequential message delays). This crate supplies the
//! machinery to account for both in a reproducible way:
//!
//! * [`SimTime`] / [`SimDuration`] — integer simulated clock.
//! * [`EventQueue`] — a deterministic future-event list (ties broken by
//!   insertion order), the core of the event-driven churn simulations.
//! * [`LatencyModel`] — pluggable per-message delay distributions
//!   (constant, uniform, log-normal) so experiments can check that the
//!   *shape* of results is robust to the delay model.
//! * [`Metrics`] — a thread-safe counter registry for message accounting:
//!   writers increment `telemetry` handles, readers look counters up by
//!   name.
//! * [`rng`] — SplitMix64 seed derivation so every component of every
//!   experiment gets an independent, reproducible random stream.
//! * [`churn`] — Poisson join/leave/crash workload generation for the
//!   E11 experiments, in one phase or several.
//! * [`DomainMap`] — rack/region failure-domain labels over ring
//!   positions: equal contiguous sectors, which the scenario layer's
//!   outage driver crashes as units.
//!
//! # Example: draining events in deterministic order
//!
//! ```
//! use simnet::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ticks(20), "late");
//! q.schedule(SimTime::from_ticks(10), "early-a");
//! q.schedule(SimTime::from_ticks(10), "early-b"); // same time: FIFO
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, vec!["early-a", "early-b", "late"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
mod domains;
mod event;
mod latency;
mod metrics;
pub mod rng;
mod time;

pub use domains::DomainMap;
pub use event::{EventQueue, Wakeup, WakeupSet};
pub use latency::LatencyModel;
pub use metrics::Metrics;
pub use time::{SimDuration, SimTime};
