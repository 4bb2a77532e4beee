//! Packet flight recorder: per-packet journey capture for post-mortem
//! diagnosis.
//!
//! A trace buffer answers "what happened on the network"; the flight
//! recorder answers "what happened to *this packet*". It rides the same
//! [`Obs::emit`](crate::obs::Obs::emit) path as the trace buffer and
//! groups events by packet id into journeys (hop, port, cycle, and the
//! retry/ECC/detour cause encoded in the event kind).
//!
//! Recording every journey of a long run is unaffordable, so capture is
//! bounded two ways:
//!
//! * **seeded sampling** — a packet is *pinned* (always dumped) when
//!   `mix(seed, packet_id) % sample_interval == 0`. The hash is a pure
//!   function of the seed and the id, so the same seed always pins the
//!   same packets and the dump is byte-identical across runs;
//! * **every Undeliverable packet** — a journey that ends in the
//!   terminal [`EventKind::Undeliverable`] outcome is pinned
//!   retroactively: all packets keep a pending journey so the full
//!   history is available when the retry cap fires.
//!
//! Pending journeys are capped at `max_pending` (oldest non-pinned
//! evicted first) and each journey at `max_steps` events; evictions and
//! truncations are counted in the dump header so a bounded capture never
//! masquerades as a complete one.

#![expect(
    clippy::disallowed_types,
    reason = "journeys keyed by packet id; the dump sorts by packet id before emitting"
)]

use crate::obs::event::{direction_name, EventKind, SimEvent};
use crate::obs::json::JsonValue;
use std::collections::HashMap;
use std::collections::VecDeque;

/// One recorded event of a packet's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightStep {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// What happened (hop, fallback, retry, ECC, detour, ...).
    pub kind: EventKind,
    /// Router/node involved.
    pub node: u16,
    /// Outgoing or entry port, when the event concerns a link.
    pub port: Option<crate::geometry::Direction>,
}

/// One packet's recorded journey.
#[derive(Debug, Clone, Default)]
pub struct Journey {
    /// Packet id.
    pub packet: u64,
    /// Pinned by the seeded sampler (as opposed to by an Undeliverable
    /// outcome).
    pub sampled: bool,
    /// The journey ended in a terminal Undeliverable event.
    pub undeliverable: bool,
    /// Deliveries observed (can exceed 1 for multicast packets).
    pub deliveries: u32,
    /// Steps dropped once the journey hit the per-journey cap.
    pub truncated: u64,
    /// The recorded events, oldest first.
    pub steps: Vec<FlightStep>,
}

impl Journey {
    /// JSON object for one journey (stable key order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("packet".to_string(), JsonValue::Uint(self.packet)),
            ("sampled".to_string(), JsonValue::Bool(self.sampled)),
            (
                "undeliverable".to_string(),
                JsonValue::Bool(self.undeliverable),
            ),
            (
                "deliveries".to_string(),
                JsonValue::Uint(u64::from(self.deliveries)),
            ),
            ("truncated".to_string(), JsonValue::Uint(self.truncated)),
            (
                "steps".to_string(),
                JsonValue::Arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            let mut obj = vec![
                                ("cycle".to_string(), JsonValue::Uint(s.cycle)),
                                (
                                    "event".to_string(),
                                    JsonValue::Str(s.kind.name().to_string()),
                                ),
                                ("node".to_string(), JsonValue::Uint(u64::from(s.node))),
                            ];
                            if let Some(p) = s.port {
                                obj.push((
                                    "port".to_string(),
                                    JsonValue::Str(direction_name(p).to_string()),
                                ));
                            }
                            JsonValue::Obj(obj)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// splitmix64 finalizer over `seed ^ f(id)` — the sampling decision is a
/// pure function of (seed, packet id), independent of event order. The
/// shared [`crate::rng::mix64`] stream is pinned by its own unit tests,
/// so committed flight dumps keep their sampling forever.
fn mix(seed: u64, id: u64) -> u64 {
    crate::rng::mix64(seed, id)
}

/// The per-network journey recorder. Attach via
/// [`Network::set_flight_recorder`](crate::network::Network::set_flight_recorder),
/// detach with `take_flight_recorder`, and dump with
/// [`to_json`](FlightRecorder::to_json).
#[derive(Debug)]
pub struct FlightRecorder {
    seed: u64,
    sample_interval: u64,
    max_pending: usize,
    max_steps: usize,
    journeys: HashMap<u64, Journey>,
    /// Packet ids in first-seen order — the eviction queue. May contain
    /// ids already evicted (lazily skipped).
    order: VecDeque<u64>,
    packets_seen: u64,
    evicted: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Default cap on concurrently-pending journeys.
    pub const DEFAULT_MAX_PENDING: usize = 8192;
    /// Default cap on recorded steps per journey.
    pub const DEFAULT_MAX_STEPS: usize = 256;

    /// A recorder pinning roughly one in `sample_interval` packets
    /// (clamped to ≥ 1; 1 = pin every packet), chosen by a pure hash of
    /// `seed` and the packet id.
    pub fn new(seed: u64, sample_interval: u64) -> Self {
        FlightRecorder {
            seed,
            sample_interval: sample_interval.max(1),
            max_pending: Self::DEFAULT_MAX_PENDING,
            max_steps: Self::DEFAULT_MAX_STEPS,
            journeys: HashMap::new(),
            order: VecDeque::new(),
            packets_seen: 0,
            evicted: 0,
            dropped: 0,
        }
    }

    /// Overrides the pending-journey and per-journey-step caps (both
    /// clamped to ≥ 1).
    #[must_use]
    pub fn with_caps(mut self, max_pending: usize, max_steps: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self.max_steps = max_steps.max(1);
        self
    }

    /// Whether the seeded sampler pins this packet id.
    pub fn samples(&self, packet: u64) -> bool {
        mix(self.seed, packet).is_multiple_of(self.sample_interval)
    }

    /// Feeds one simulation event to the recorder. Events without a
    /// packet id are ignored; everything else lands in that packet's
    /// journey.
    pub fn observe(&mut self, ev: &SimEvent) {
        let Some(pid) = ev.packet else { return };
        let id = pid.0;
        if !self.journeys.contains_key(&id) {
            self.packets_seen += 1;
            if self.journeys.len() >= self.max_pending && !self.evict_one() {
                // Every pending journey is pinned; dropping the new one
                // keeps memory bounded (counted, never silent).
                self.dropped += 1;
                return;
            }
            self.journeys.insert(
                id,
                Journey {
                    packet: id,
                    sampled: self.samples(id),
                    ..Journey::default()
                },
            );
            self.order.push_back(id);
        }
        let journey = self.journeys.get_mut(&id).expect("just ensured");
        match ev.kind {
            EventKind::Undeliverable => journey.undeliverable = true,
            EventKind::Eject => journey.deliveries += 1,
            _ => {}
        }
        if journey.steps.len() >= self.max_steps {
            journey.truncated += 1;
        } else {
            journey.steps.push(FlightStep {
                cycle: ev.cycle,
                kind: ev.kind,
                node: ev.node.0,
                port: ev.port,
            });
        }
    }

    /// Evicts the oldest non-pinned pending journey. False if every
    /// pending journey is pinned.
    fn evict_one(&mut self) -> bool {
        let mut kept = Vec::new();
        let mut evicted = false;
        while let Some(id) = self.order.pop_front() {
            match self.journeys.get(&id) {
                // Stale queue entry for an already-evicted id.
                None => continue,
                Some(j) if j.sampled || j.undeliverable => kept.push(id),
                Some(_) => {
                    self.journeys.remove(&id);
                    self.evicted += 1;
                    evicted = true;
                    break;
                }
            }
        }
        // Pinned ids we skipped stay at the front, preserving order.
        for id in kept.into_iter().rev() {
            self.order.push_front(id);
        }
        evicted
    }

    /// Number of journeys that will be dumped (pinned by sampling or by
    /// an Undeliverable outcome).
    pub fn pinned(&self) -> usize {
        self.journeys
            .values()
            .filter(|j| j.sampled || j.undeliverable)
            .count()
    }

    /// The full dump as one JSON document. Journeys are sorted by packet
    /// id and only pinned ones are emitted, so the dump is a pure
    /// function of the recorder's inputs: same seed + same run → an
    /// identical document.
    pub fn to_json(&self) -> JsonValue {
        let mut pinned: Vec<&Journey> = self
            .journeys
            .values()
            .filter(|j| j.sampled || j.undeliverable)
            .collect();
        pinned.sort_by_key(|j| j.packet);
        JsonValue::Obj(vec![
            ("seed".to_string(), JsonValue::Uint(self.seed)),
            (
                "sample_interval".to_string(),
                JsonValue::Uint(self.sample_interval),
            ),
            (
                "packets_seen".to_string(),
                JsonValue::Uint(self.packets_seen),
            ),
            (
                "journeys_evicted".to_string(),
                JsonValue::Uint(self.evicted),
            ),
            (
                "journeys_dropped".to_string(),
                JsonValue::Uint(self.dropped),
            ),
            (
                "journeys".to_string(),
                JsonValue::Arr(pinned.into_iter().map(Journey::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Direction, NodeId};
    use crate::packet::PacketId;

    fn ev(cycle: u64, kind: EventKind, packet: u64) -> SimEvent {
        SimEvent {
            cycle,
            kind,
            node: NodeId(2),
            port: Some(Direction::West),
            packet: Some(PacketId(packet)),
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_id() {
        let a = FlightRecorder::new(7, 4);
        let b = FlightRecorder::new(7, 4);
        let c = FlightRecorder::new(8, 4);
        let picks = |r: &FlightRecorder| (0..256).filter(|&i| r.samples(i)).collect::<Vec<_>>();
        assert_eq!(picks(&a), picks(&b), "same seed, same picks");
        assert_ne!(picks(&a), picks(&c), "different seed, different picks");
        assert!(!picks(&a).is_empty(), "interval 4 over 256 ids picks some");
    }

    #[test]
    fn undeliverable_journeys_are_pinned() {
        // Interval so large nothing gets sampled; only the terminal
        // outcome pins.
        let mut r = FlightRecorder::new(1, u64::MAX);
        r.observe(&ev(0, EventKind::Inject, 5));
        r.observe(&ev(1, EventKind::OpticalTransit, 5));
        r.observe(&ev(2, EventKind::Undeliverable, 5));
        r.observe(&ev(0, EventKind::Inject, 6));
        r.observe(&ev(3, EventKind::Eject, 6));
        assert_eq!(r.pinned(), 1);
        let dump = r.to_json();
        let journeys = dump.get("journeys").unwrap().as_arr().unwrap();
        assert_eq!(journeys.len(), 1);
        assert_eq!(journeys[0].get("packet").unwrap().as_u64(), Some(5));
        assert_eq!(
            journeys[0].get("steps").unwrap().as_arr().unwrap().len(),
            3,
            "full history retained from injection"
        );
    }

    #[test]
    fn eviction_prefers_oldest_non_pinned_and_is_counted() {
        let mut r = FlightRecorder::new(1, u64::MAX).with_caps(2, 16);
        r.observe(&ev(0, EventKind::Inject, 1));
        r.observe(&ev(1, EventKind::Undeliverable, 1)); // pinned
        r.observe(&ev(2, EventKind::Inject, 2)); // evictable
        r.observe(&ev(3, EventKind::Inject, 3)); // forces eviction of 2
        let dump = r.to_json();
        assert_eq!(dump.get("journeys_evicted").unwrap().as_u64(), Some(1));
        assert!(r.journeys.contains_key(&1), "pinned survives");
        assert!(r.journeys.contains_key(&3), "newest pending kept");
        assert!(!r.journeys.contains_key(&2), "oldest non-pinned evicted");
    }

    #[test]
    fn all_pinned_drops_new_journeys() {
        let mut r = FlightRecorder::new(0, 1).with_caps(2, 16); // everything sampled
        r.observe(&ev(0, EventKind::Inject, 1));
        r.observe(&ev(0, EventKind::Inject, 2));
        r.observe(&ev(0, EventKind::Inject, 3)); // no room, all pinned
        assert_eq!(
            r.to_json().get("journeys_dropped").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(r.pinned(), 2);
    }

    #[test]
    fn step_cap_truncates_and_counts() {
        let mut r = FlightRecorder::new(0, 1).with_caps(8, 2);
        for c in 0..5 {
            r.observe(&ev(c, EventKind::OpticalTransit, 9));
        }
        let j = &r.journeys[&9];
        assert_eq!(j.steps.len(), 2);
        assert_eq!(j.truncated, 3);
    }

    #[test]
    fn dump_is_deterministic_for_the_same_inputs() {
        let run = || {
            let mut r = FlightRecorder::new(42, 2);
            for p in 0..50u64 {
                r.observe(&ev(p, EventKind::Inject, p));
                r.observe(&ev(p + 1, EventKind::OpticalTransit, p));
                if p % 7 == 0 {
                    r.observe(&ev(p + 2, EventKind::Undeliverable, p));
                } else {
                    r.observe(&ev(p + 2, EventKind::Eject, p));
                }
            }
            r.to_json().to_string_pretty()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn events_without_a_packet_are_ignored() {
        let mut r = FlightRecorder::new(0, 1);
        r.observe(&SimEvent {
            cycle: 0,
            kind: EventKind::FaultInjected,
            node: NodeId(0),
            port: None,
            packet: None,
        });
        assert_eq!(r.packets_seen, 0);
    }
}
