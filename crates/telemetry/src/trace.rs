use std::collections::VecDeque;
use std::fmt::Write as _;

/// Which degradation tier issued a hop (the retry/fallback path; see
/// `chord::RetryPolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackTier {
    /// Ordinary finger routing (no fallback active).
    #[default]
    Direct,
    /// The bounded successor-walk fallback tier.
    Walk,
    /// The verified-quorum fallback tier.
    Quorum,
}

impl FallbackTier {
    /// Stable lowercase label used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            FallbackTier::Direct => "direct",
            FallbackTier::Walk => "walk",
            FallbackTier::Quorum => "quorum",
        }
    }

    fn code(self) -> u64 {
        match self {
            FallbackTier::Direct => 0,
            FallbackTier::Walk => 1,
            FallbackTier::Quorum => 2,
        }
    }
}

/// One hop of a `find_successor` walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Ring point of the node the message was sent to.
    pub node: u64,
    /// Finger level chosen: bit length of the ring distance this hop
    /// covered (≈ which finger-table row resolved it).
    pub finger_level: u8,
    /// Whether the hop target is a coalition node answering with forged
    /// routing state.
    pub forged: bool,
    /// Simulated latency of this hop's message, in ticks.
    pub latency: u64,
    /// Which retry attempt issued this hop (0 = the first try; nonzero
    /// means the lookup was re-routed after backoff).
    pub attempt: u8,
    /// Which degradation tier issued this hop — the *why was this lookup
    /// slow* annotation the retry/fallback path writes.
    pub tier: FallbackTier,
}

/// How a traced lookup ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The walk reached the honest successor of the target.
    Resolved(u64),
    /// A coalition node captured the lookup by claiming ownership.
    Captured(u64),
    /// The walk terminated without an answer (all probes dead).
    Unresolved,
}

/// Full record of one lookup walk: the hop path plus its cost totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTrace {
    /// Ring point of the node that started the walk.
    pub from: u64,
    /// The target ring point being resolved.
    pub target: u64,
    /// The hop path, in order.
    pub hops: Vec<HopRecord>,
    /// How the walk ended.
    pub outcome: TraceOutcome,
    /// Total messages sent (may exceed `hops.len()` — dead probes and
    /// successor-list scans send messages without advancing the walk).
    pub messages: u64,
    /// Total sequential latency in ticks.
    pub latency: u64,
    /// Run-wide operation ordinal, drawn by the lookup's driver (chord's
    /// `ChordNetwork::next_op_ordinal`).
    /// This is the id histogram exemplars store, so a tail bucket can be
    /// joined back to its trace even after ring eviction; it is drawn
    /// whether or not tracing is enabled, so ids agree across traced and
    /// untraced replays of the same seed.
    pub ordinal: u64,
}

/// Bounded ring buffer of lookup traces with an eviction-stable digest.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    capacity: usize,
    buf: VecDeque<LookupTrace>,
    recorded: u64,
    digest: u64,
}

/// FNV-1a offset basis; the digest of an empty trace stream.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut digest: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        digest ^= u64::from(byte);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(1024)),
            recorded: 0,
            digest: FNV_OFFSET,
        }
    }

    pub(crate) fn push(&mut self, trace: LookupTrace) {
        self.digest = fnv_u64(self.digest, trace.from);
        self.digest = fnv_u64(self.digest, trace.target);
        self.digest = fnv_u64(self.digest, trace.messages);
        self.digest = fnv_u64(self.digest, trace.latency);
        self.digest = fnv_u64(self.digest, trace.ordinal);
        for hop in &trace.hops {
            self.digest = fnv_u64(self.digest, hop.node);
            self.digest = fnv_u64(
                self.digest,
                (u64::from(hop.finger_level) << 1) | u64::from(hop.forged),
            );
            self.digest = fnv_u64(self.digest, hop.latency);
            self.digest = fnv_u64(self.digest, (u64::from(hop.attempt) << 2) | hop.tier.code());
        }
        self.digest = fnv_u64(
            self.digest,
            match trace.outcome {
                TraceOutcome::Resolved(n) => n.wrapping_mul(3),
                TraceOutcome::Captured(n) => n.wrapping_mul(3).wrapping_add(1),
                TraceOutcome::Unresolved => 2,
            },
        );
        self.recorded += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(trace);
    }

    pub(crate) fn traces(&self) -> Vec<LookupTrace> {
        self.buf.iter().cloned().collect()
    }

    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }
}

/// An exported bundle of retained traces, ready for rendering.
///
/// Obtained via [`TraceDump::from_recorder`]; render with
/// [`TraceDump::pretty`] (terminal) or
/// [`TraceDump::chrome_trace_json`] (`chrome://tracing` / Perfetto).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// Retained traces, oldest first.
    pub traces: Vec<LookupTrace>,
    /// FNV-1a digest over every trace ever recorded.
    pub digest: u64,
    /// Total traces ever recorded (≥ `traces.len()`).
    pub recorded: u64,
}

impl TraceDump {
    /// Snapshots the flight recorder of `recorder`.
    pub fn from_recorder(recorder: &crate::Recorder) -> TraceDump {
        TraceDump {
            traces: recorder.traces(),
            digest: recorder.trace_digest(),
            recorded: recorder.traces_recorded(),
        }
    }

    /// Renders the dump in Chrome `trace_event` JSON format: one complete
    /// ("ph":"X") event per lookup on tid 1 and one per hop on tid 2,
    /// laid end to end on a synthetic tick timeline. Deterministic for a
    /// given dump.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = Vec::new();
        let mut clock = 0u64;
        for (i, trace) in self.traces.iter().enumerate() {
            let outcome = match trace.outcome {
                TraceOutcome::Resolved(_) => "resolved",
                TraceOutcome::Captured(_) => "captured",
                TraceOutcome::Unresolved => "unresolved",
            };
            events.push(format!(
                concat!(
                    "{{\"name\":\"lookup {i} 0x{from:016x}->0x{target:016x}\",",
                    "\"cat\":\"lookup\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},",
                    "\"pid\":1,\"tid\":1,\"args\":{{\"hops\":{hops},",
                    "\"messages\":{msgs},\"outcome\":\"{outcome}\",",
                    "\"ordinal\":{ordinal}}}}}"
                ),
                i = i,
                from = trace.from,
                target = trace.target,
                ts = clock,
                dur = trace.latency.max(1),
                hops = trace.hops.len(),
                msgs = trace.messages,
                outcome = outcome,
                ordinal = trace.ordinal,
            ));
            let mut hop_clock = clock;
            for hop in &trace.hops {
                events.push(format!(
                    concat!(
                        "{{\"name\":\"hop->0x{node:016x}\",\"cat\":\"hop\",",
                        "\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,",
                        "\"tid\":2,\"args\":{{\"finger_level\":{level},",
                        "\"forged\":{forged},\"attempt\":{attempt},",
                        "\"tier\":\"{tier}\"}}}}"
                    ),
                    node = hop.node,
                    ts = hop_clock,
                    dur = hop.latency.max(1),
                    level = hop.finger_level,
                    forged = hop.forged,
                    attempt = hop.attempt,
                    tier = hop.tier.label(),
                ));
                hop_clock += hop.latency.max(1);
            }
            clock += trace.latency.max(1) + 1;
        }
        format!(
            concat!(
                "{{\"displayTimeUnit\":\"ms\",",
                "\"otherData\":{{\"digest\":\"{digest:016x}\",",
                "\"recorded\":{recorded}}},",
                "\"traceEvents\":[{events}]}}"
            ),
            digest = self.digest,
            recorded = self.recorded,
            events = events.join(","),
        )
    }

    /// Renders the dump as indented terminal text with per-hop
    /// attribution (`FORGED` marks coalition hops).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} trace(s) retained of {} recorded, digest {:016x}",
            self.traces.len(),
            self.recorded,
            self.digest
        );
        for (i, trace) in self.traces.iter().enumerate() {
            let outcome = match trace.outcome {
                TraceOutcome::Resolved(n) => format!("resolved(0x{n:016x})"),
                TraceOutcome::Captured(n) => format!("CAPTURED(0x{n:016x})"),
                TraceOutcome::Unresolved => "unresolved".to_owned(),
            };
            let _ = writeln!(
                out,
                "trace #{i} (op {}): 0x{:016x} -> 0x{:016x}  {outcome}  hops={} msgs={} latency={}",
                trace.ordinal,
                trace.from,
                trace.target,
                trace.hops.len(),
                trace.messages,
                trace.latency
            );
            for (h, hop) in trace.hops.iter().enumerate() {
                let degraded = match (hop.attempt, hop.tier) {
                    (0, FallbackTier::Direct) => String::new(),
                    (a, FallbackTier::Direct) => format!(" retry={a}"),
                    (a, tier) => format!(" retry={a} tier={}", tier.label()),
                };
                let _ = writeln!(
                    out,
                    "  hop {:>2}: -> 0x{:016x}  level={:<2} latency={:<6} {}{degraded}",
                    h + 1,
                    hop.node,
                    hop.finger_level,
                    hop.latency,
                    if hop.forged { "FORGED" } else { "honest" }
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dump() -> TraceDump {
        TraceDump {
            traces: vec![LookupTrace {
                from: 0x10,
                target: 0x20,
                hops: vec![
                    HopRecord {
                        node: 0x30,
                        finger_level: 17,
                        forged: false,
                        latency: 3,
                        attempt: 0,
                        tier: FallbackTier::Direct,
                    },
                    HopRecord {
                        node: 0x40,
                        finger_level: 4,
                        forged: true,
                        latency: 2,
                        attempt: 2,
                        tier: FallbackTier::Walk,
                    },
                ],
                outcome: TraceOutcome::Captured(0x40),
                messages: 3,
                latency: 5,
                ordinal: 7,
            }],
            digest: 0xdead_beef,
            recorded: 9,
        }
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let json = sample_dump().chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"finger_level\":17"));
        assert!(json.contains("\"forged\":true"));
        assert!(json.contains("\"outcome\":\"captured\""));
        assert!(json.contains("\"ordinal\":7"));
        assert!(json.contains("\"attempt\":2"));
        assert!(json.contains("\"tier\":\"walk\""));
        assert!(json.contains("\"tier\":\"direct\""));
        // Balanced braces/brackets — cheap structural sanity check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn pretty_shows_attribution() {
        let text = sample_dump().pretty();
        assert!(text.contains("CAPTURED"));
        assert!(text.contains("FORGED"));
        assert!(text.contains("honest"));
        assert!(text.contains("digest 00000000deadbeef"));
        assert!(text.contains("(op 7)"));
        assert!(text.contains("retry=2 tier=walk"));
        // First-try direct hops carry no degradation annotation.
        let first_hop = text.lines().find(|l| l.contains("hop  1")).unwrap();
        assert!(!first_hop.contains("retry"));
    }

    #[test]
    fn digest_covers_degradation_annotations_and_ordinal() {
        let base = sample_dump().traces[0].clone();
        let mut retried = base.clone();
        retried.hops[0].attempt = 1;
        let mut quorum = base.clone();
        quorum.hops[1].tier = FallbackTier::Quorum;
        let mut renumbered = base.clone();
        renumbered.ordinal = 8;
        let digest_of = |t: &LookupTrace| {
            let mut fr = FlightRecorder::new(4);
            fr.push(t.clone());
            fr.digest()
        };
        let d = digest_of(&base);
        assert_ne!(d, digest_of(&retried));
        assert_ne!(d, digest_of(&quorum));
        assert_ne!(d, digest_of(&renumbered));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let t1 = LookupTrace {
            from: 1,
            target: 2,
            hops: vec![],
            outcome: TraceOutcome::Unresolved,
            messages: 0,
            latency: 0,
            ordinal: 0,
        };
        let t2 = LookupTrace {
            from: 3,
            ..t1.clone()
        };
        let mut a = FlightRecorder::new(8);
        a.push(t1.clone());
        a.push(t2.clone());
        let mut b = FlightRecorder::new(8);
        b.push(t2);
        b.push(t1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn empty_dump_renders() {
        let dump = TraceDump {
            traces: vec![],
            digest: FlightRecorder::new(1).digest(),
            recorded: 0,
        };
        assert!(dump.chrome_trace_json().contains("\"traceEvents\":[]"));
        assert!(dump.pretty().contains("0 trace(s)"));
    }
}
