//! Cycle-stamped structured simulation events and the ring-buffered
//! trace that collects them.

use crate::geometry::{Direction, NodeId};
use crate::obs::flight::FlightRecorder;
use crate::obs::json::JsonValue;
use crate::packet::PacketId;
use std::collections::VecDeque;
use std::fmt;

/// What happened. The taxonomy follows the Phastlane pipeline: a packet
/// is injected, transits optically, falls back to an electrical buffer
/// on contention, overflows and is dropped when the buffer is full, the
/// drop signal returns to the launcher, and the launcher retransmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A packet was accepted into the source node's NIC.
    Inject,
    /// The source NIC was full; the workload must retry the injection.
    NicRetry,
    /// An optical hop: the packet traversed the link leaving `node`
    /// toward `port` within the current cycle's wavefront.
    OpticalTransit,
    /// An electrical link/crossbar traversal (baseline network).
    LinkTraversal,
    /// Contention: the packet was received into `node`'s electrical
    /// input-port buffer instead of continuing optically.
    ElectricalFallback,
    /// The input buffer was full: the packet was dropped at `node` and a
    /// drop signal was launched down the optical return path.
    BufferOverflow,
    /// The Packet Dropped signal reached the launching router; the
    /// buffered copy reverts and schedules a backoff.
    DropReturn,
    /// A previously-dropped packet re-entered arbitration after backoff.
    Retransmit,
    /// The packet was delivered (ejected) at `node`.
    Eject,
    /// A scheduled fault became active at `node` (`port` names the dead
    /// link for link faults).
    FaultInjected,
    /// A transient fault's window ended at `node`.
    FaultCleared,
    /// The packet was steered around a faulted link/router: a productive
    /// detour at launch, or a forced electrical fallback at the faulted
    /// hop mid-wavefront.
    FaultReroute,
    /// The packet could not launch because every usable output at `node`
    /// was faulted; it backs off in place (counts against the retry cap).
    FaultStall,
    /// A transient bit error was corrected by SECDED on delivery.
    EccCorrected,
    /// An uncorrectable (double) bit error: the delivery was rejected and
    /// the packet re-buffered for retransmission.
    EccUncorrectable,
    /// The retry cap / livelock guard fired: the packet's remaining
    /// destinations are terminally undeliverable.
    Undeliverable,
}

impl EventKind {
    /// Every kind, in pipeline order (stable across releases — the
    /// trace format depends on it; new kinds are only ever appended).
    pub const ALL: [EventKind; 16] = [
        EventKind::Inject,
        EventKind::NicRetry,
        EventKind::OpticalTransit,
        EventKind::LinkTraversal,
        EventKind::ElectricalFallback,
        EventKind::BufferOverflow,
        EventKind::DropReturn,
        EventKind::Retransmit,
        EventKind::Eject,
        EventKind::FaultInjected,
        EventKind::FaultCleared,
        EventKind::FaultReroute,
        EventKind::FaultStall,
        EventKind::EccCorrected,
        EventKind::EccUncorrectable,
        EventKind::Undeliverable,
    ];

    /// Stable machine-readable name (used in JSON/CSV exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Inject => "inject",
            EventKind::NicRetry => "nic_retry",
            EventKind::OpticalTransit => "optical_transit",
            EventKind::LinkTraversal => "link_traversal",
            EventKind::ElectricalFallback => "electrical_fallback",
            EventKind::BufferOverflow => "buffer_overflow",
            EventKind::DropReturn => "drop_return",
            EventKind::Retransmit => "retransmit",
            EventKind::Eject => "eject",
            EventKind::FaultInjected => "fault_injected",
            EventKind::FaultCleared => "fault_cleared",
            EventKind::FaultReroute => "fault_reroute",
            EventKind::FaultStall => "fault_stall",
            EventKind::EccCorrected => "ecc_corrected",
            EventKind::EccUncorrectable => "ecc_uncorrectable",
            EventKind::Undeliverable => "undeliverable",
        }
    }

    /// Parses a [`name`](Self::name) back to a kind.
    pub fn from_name(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// How noteworthy this kind is. Per-hop transits are debug noise at
    /// scale; contention and loss events are what saturation debugging
    /// needs.
    pub fn severity(self) -> Severity {
        match self {
            EventKind::OpticalTransit | EventKind::LinkTraversal => Severity::Debug,
            EventKind::Inject | EventKind::Eject => Severity::Info,
            EventKind::NicRetry
            | EventKind::ElectricalFallback
            | EventKind::BufferOverflow
            | EventKind::DropReturn
            | EventKind::Retransmit
            | EventKind::FaultInjected
            | EventKind::FaultCleared
            | EventKind::FaultReroute
            | EventKind::FaultStall
            | EventKind::EccCorrected
            | EventKind::EccUncorrectable
            | EventKind::Undeliverable => Severity::Warn,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Event importance, for trace filtering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Per-hop progress events (high volume).
    #[default]
    Debug,
    /// Packet lifecycle milestones.
    Info,
    /// Contention, loss, and back-pressure.
    Warn,
}

impl Severity {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }

    /// Parses a [`name`](Self::name) back to a severity.
    pub fn from_name(s: &str) -> Option<Severity> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            _ => None,
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEvent {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Router/node involved.
    pub node: NodeId,
    /// Outgoing or entry port, when the event concerns a link.
    pub port: Option<Direction>,
    /// The packet involved, when known.
    pub packet: Option<PacketId>,
}

impl SimEvent {
    /// JSON object for one event (stable key order).
    pub fn to_json(&self) -> JsonValue {
        let mut obj = vec![
            ("cycle".to_string(), JsonValue::Uint(self.cycle)),
            (
                "kind".to_string(),
                JsonValue::Str(self.kind.name().to_string()),
            ),
            ("node".to_string(), JsonValue::Uint(u64::from(self.node.0))),
        ];
        if let Some(p) = self.port {
            obj.push((
                "port".to_string(),
                JsonValue::Str(direction_name(p).to_string()),
            ));
        }
        if let Some(id) = self.packet {
            obj.push(("packet".to_string(), JsonValue::Uint(id.0)));
        }
        JsonValue::Obj(obj)
    }

    /// CSV row matching [`TraceBuffer::CSV_HEADER`].
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.cycle,
            self.kind.name(),
            self.node.0,
            self.port
                .map_or(String::new(), |p| direction_name(p).to_string()),
            self.packet.map_or(String::new(), |p| p.0.to_string()),
        )
    }
}

/// Stable lowercase direction name for exports.
pub fn direction_name(d: Direction) -> &'static str {
    match d {
        Direction::North => "north",
        Direction::South => "south",
        Direction::East => "east",
        Direction::West => "west",
    }
}

/// A bounded or unbounded event trace with severity filtering.
///
/// In ring mode the buffer keeps the **latest** `capacity` events and
/// counts evictions — saturation debugging usually cares about the
/// steady state, not the warm-up, and memory stays bounded no matter
/// how long the run is.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: VecDeque<SimEvent>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    min_severity: Severity,
    recorded: u64,
    evicted: u64,
    filtered: u64,
}

impl TraceBuffer {
    /// CSV header matching [`SimEvent::to_csv_row`].
    pub const CSV_HEADER: &'static str = "cycle,kind,node,port,packet";

    /// An unbounded trace keeping every event.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bounded trace keeping the latest `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        TraceBuffer {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Drops events below `min` instead of recording them.
    #[must_use]
    pub fn with_min_severity(mut self, min: Severity) -> Self {
        self.min_severity = min;
        self
    }

    /// The severity floor.
    pub fn min_severity(&self) -> Severity {
        self.min_severity
    }

    /// Records one event (if it passes the severity filter).
    #[inline]
    pub fn push(&mut self, ev: SimEvent) {
        if ev.kind.severity() < self.min_severity {
            self.filtered += 1;
            return;
        }
        self.recorded += 1;
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.evicted += 1;
            }
        }
        self.events.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded (retained + evicted), excluding filtered ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events pushed out of the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events rejected by the severity filter.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// The full trace as one JSON document:
    /// `{"min_severity", "recorded", "evicted", "filtered", "events": [...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            (
                "min_severity".to_string(),
                JsonValue::Str(self.min_severity.name().to_string()),
            ),
            ("recorded".to_string(), JsonValue::Uint(self.recorded)),
            ("evicted".to_string(), JsonValue::Uint(self.evicted)),
            ("filtered".to_string(), JsonValue::Uint(self.filtered)),
            (
                "events".to_string(),
                JsonValue::Arr(self.events.iter().map(SimEvent::to_json).collect()),
            ),
        ])
    }

    /// The retained events as CSV (header + one row per event).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.to_csv_row());
            out.push('\n');
        }
        out
    }
}

/// The consumers an [`Obs`] handle can fan an event out to (boxed
/// behind the handle's single `Option`).
#[derive(Debug, Default)]
struct ObsState {
    trace: Option<TraceBuffer>,
    flight: Option<FlightRecorder>,
}

/// The per-network observability handle: a maybe-attached trace buffer
/// and/or packet [`FlightRecorder`], fed from the same emit sites.
///
/// Disabled (`Obs::off()`, the default) this is a single `None`; every
/// [`emit`](Obs::emit) is one predictable branch and no event is built.
#[derive(Debug, Default)]
pub struct Obs {
    state: Option<Box<ObsState>>,
}

impl Obs {
    /// The disabled handle (default state of every network).
    pub const fn off() -> Self {
        Obs { state: None }
    }

    /// An enabled handle collecting into `buffer`.
    pub fn with_trace(buffer: TraceBuffer) -> Self {
        let mut obs = Obs::off();
        obs.attach_trace(buffer);
        obs
    }

    /// Attaches (or replaces) the trace buffer, keeping any flight
    /// recorder already attached.
    pub fn attach_trace(&mut self, buffer: TraceBuffer) {
        self.state.get_or_insert_default().trace = Some(buffer);
    }

    /// Attaches (or replaces) the flight recorder, keeping any trace
    /// buffer already attached.
    pub fn attach_flight(&mut self, recorder: FlightRecorder) {
        self.state.get_or_insert_default().flight = Some(recorder);
    }

    /// Whether any consumer is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Records an event if any consumer is attached.
    #[inline]
    pub fn emit(
        &mut self,
        cycle: u64,
        kind: EventKind,
        node: NodeId,
        port: Option<Direction>,
        packet: Option<PacketId>,
    ) {
        if let Some(s) = &mut self.state {
            let ev = SimEvent {
                cycle,
                kind,
                node,
                port,
                packet,
            };
            if let Some(t) = &mut s.trace {
                t.push(ev);
            }
            if let Some(f) = &mut s.flight {
                f.observe(&ev);
            }
        }
    }

    /// Detaches and returns the trace buffer, disabling tracing.
    pub fn take(&mut self) -> Option<TraceBuffer> {
        let taken = self.state.as_mut().and_then(|s| s.trace.take());
        self.prune();
        taken
    }

    /// Detaches and returns the flight recorder.
    pub fn take_flight(&mut self) -> Option<FlightRecorder> {
        let taken = self.state.as_mut().and_then(|s| s.flight.take());
        self.prune();
        taken
    }

    /// Drops the boxed state once every consumer is detached, restoring
    /// the zero-cost disabled fast path.
    fn prune(&mut self) {
        if self
            .state
            .as_ref()
            .is_some_and(|s| s.trace.is_none() && s.flight.is_none())
        {
            self.state = None;
        }
    }

    /// A read-only view of the attached buffer.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.state.as_ref().and_then(|s| s.trace.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind) -> SimEvent {
        SimEvent {
            cycle,
            kind,
            node: NodeId(3),
            port: Some(Direction::East),
            packet: Some(PacketId(9)),
        }
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut t = TraceBuffer::new();
        for c in 0..100 {
            t.push(ev(c, EventKind::Inject));
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.recorded(), 100);
        assert_eq!(t.evicted(), 0);
    }

    #[test]
    fn ring_keeps_latest_and_counts_evictions() {
        let mut t = TraceBuffer::ring(10);
        for c in 0..25 {
            t.push(ev(c, EventKind::Eject));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.evicted(), 15);
        assert_eq!(t.recorded(), 25);
        let first = t.events().next().unwrap();
        assert_eq!(first.cycle, 15, "oldest retained is cycle 15");
    }

    #[test]
    fn severity_filter_drops_debug() {
        let mut t = TraceBuffer::new().with_min_severity(Severity::Warn);
        t.push(ev(0, EventKind::OpticalTransit)); // debug
        t.push(ev(0, EventKind::Inject)); // info
        t.push(ev(0, EventKind::BufferOverflow)); // warn
        assert_eq!(t.len(), 1);
        assert_eq!(t.filtered(), 2);
        assert_eq!(t.events().next().unwrap().kind, EventKind::BufferOverflow);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        for s in [Severity::Debug, Severity::Info, Severity::Warn] {
            assert_eq!(Severity::from_name(s.name()), Some(s));
        }
    }

    #[test]
    fn disabled_obs_is_inert() {
        let mut o = Obs::off();
        assert!(!o.enabled());
        o.emit(0, EventKind::Inject, NodeId(0), None, None);
        assert!(o.take().is_none());
    }

    #[test]
    fn enabled_obs_records_and_detaches() {
        let mut o = Obs::with_trace(TraceBuffer::new());
        o.emit(5, EventKind::Eject, NodeId(1), None, Some(PacketId(2)));
        let t = o.take().expect("buffer attached");
        assert!(!o.enabled());
        assert_eq!(t.len(), 1);
        assert_eq!(t.events().next().unwrap().cycle, 5);
    }

    #[test]
    fn flight_recorder_rides_the_same_emit_path() {
        let mut o = Obs::off();
        o.attach_trace(TraceBuffer::new());
        o.attach_flight(FlightRecorder::new(0, 1)); // pin everything
        o.emit(3, EventKind::Inject, NodeId(4), None, Some(PacketId(11)));
        // Detaching one consumer keeps the other attached and live.
        let trace = o.take().expect("trace attached");
        assert_eq!(trace.len(), 1);
        assert!(o.enabled(), "flight recorder still attached");
        o.emit(4, EventKind::Eject, NodeId(4), None, Some(PacketId(11)));
        let flight = o.take_flight().expect("recorder attached");
        assert!(!o.enabled(), "fully detached handle is off again");
        let dump = flight.to_json();
        let journeys = dump.get("journeys").unwrap().as_arr().unwrap();
        assert_eq!(journeys.len(), 1);
        assert_eq!(
            journeys[0].get("steps").unwrap().as_arr().unwrap().len(),
            2,
            "both events captured"
        );
    }

    #[test]
    fn csv_shape() {
        let mut t = TraceBuffer::new();
        t.push(ev(7, EventKind::DropReturn));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(TraceBuffer::CSV_HEADER));
        assert_eq!(lines.next(), Some("7,drop_return,3,east,9"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ring_rejected() {
        let _ = TraceBuffer::ring(0);
    }
}
