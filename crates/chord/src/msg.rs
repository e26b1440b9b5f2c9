//! Messages of the async lookup [`engine`](crate::engine).
//!
//! The sync walk steps a lookup by function call; the engine sends these
//! messages through a [`simnet::EventQueue`] instead, so delay, loss (a
//! hop crashing mid-flight) and preemption (a timeout firing first)
//! become expressible. The set follows iterative Chord: the origin asks a
//! hop to [`FindSuccessor`](Message::FindSuccessor), the hop answers
//! [`NextHop`](Message::NextHop) (or the final
//! [`Notify`](Message::Notify)), and a per-attempt
//! [`Timeout`](Message::Timeout) wakeup guards the round-trip.

/// Sentinel node index in [`Message::NextHop`]: the hop could not route
/// (its candidate set was exhausted, or it died before answering) — the
/// origin fails the attempt with `SuccessorsAllDead` semantics.
pub const NO_NEXT: u32 = u32::MAX;

/// One protocol message of the async lookup engine.
///
/// `slot` is the request's slot in the engine's request table; `gen` the
/// slot's attempt generation — a delivery whose generation no longer
/// matches is stale (its attempt was retried, or its request completed
/// and the slot moved on to another) and is dropped, which is what makes
/// completion exactly-once under timeout races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Origin → hop: route one step of the walk for the request in
    /// `slot` at node `at`, `hops` steps deep.
    FindSuccessor {
        /// Request slot.
        slot: u32,
        /// Attempt generation.
        gen: u32,
        /// Node processing this step (arena index).
        at: u32,
        /// Hops taken so far.
        hops: u32,
    },
    /// Hop → origin: forward the walk to `next` ([`NO_NEXT`] = the hop
    /// failed to make progress).
    NextHop {
        /// Request slot.
        slot: u32,
        /// Attempt generation.
        gen: u32,
        /// Next node to ask (arena index), or [`NO_NEXT`].
        next: u32,
    },
    /// Hop → origin: the walk resolved at `owner` after `hops` steps.
    /// `captured` marks a Byzantine capture (the answer point is the
    /// target itself — the forged lie — not the owner's ring point).
    Notify {
        /// Request slot.
        slot: u32,
        /// Attempt generation.
        gen: u32,
        /// Answering node (arena index).
        owner: u32,
        /// Total hops of the resolved walk.
        hops: u32,
        /// Whether a Byzantine hop captured the lookup.
        captured: bool,
    },
    /// Self-addressed wakeup: the attempt's deadline expired. Stale once
    /// the attempt resolved or was already retried.
    Timeout {
        /// Request slot.
        slot: u32,
        /// Attempt generation this deadline was armed for.
        gen: u32,
    },
}
