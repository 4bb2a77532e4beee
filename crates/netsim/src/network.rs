//! The [`Network`] abstraction both simulators implement, so that the
//! harness, traffic generators, and experiment binaries are agnostic to
//! which network they drive.

use crate::fault::{FailedDelivery, FaultPlan};
use crate::geometry::Mesh;
use crate::obs::{FlightRecorder, PhaseBreakdown, PhaseProfiler, TraceBuffer};
use crate::packet::{Delivery, NewPacket, PacketId};
use crate::stats::{EnergyReport, NetworkStats};
use crate::telemetry::LinkCounters;

/// A cycle-accurate network simulator.
///
/// The drive loop is: call [`inject`](Network::inject) for packets the
/// workload wants to send this cycle, call [`step`](Network::step) once to
/// advance one clock, then [`drain_deliveries`](Network::drain_deliveries)
/// to observe what arrived.
pub trait Network {
    /// Short human-readable configuration name (e.g. `"Optical4"`,
    /// `"Electrical3"`). Matches the labels of Figures 10 and 11.
    fn name(&self) -> String;

    /// The mesh this network spans.
    fn mesh(&self) -> Mesh;

    /// Current cycle count (number of completed [`step`](Network::step)s).
    fn cycle(&self) -> u64;

    /// Attempts to accept a packet into the source node's NIC.
    ///
    /// Returns the assigned packet id, or `None` if the NIC is full (the
    /// caller should retry on a later cycle — this is the back-pressure
    /// path). Ids are handed out consecutively, in acceptance order; the
    /// synthetic harness keys its per-packet table on that.
    fn inject(&mut self, packet: NewPacket) -> Option<PacketId>;

    /// Advances the simulation by one clock cycle.
    fn step(&mut self);

    /// Returns and clears the deliveries that completed since the last
    /// call. A multi-destination packet produces one [`Delivery`] per
    /// destination.
    fn drain_deliveries(&mut self) -> Vec<Delivery>;

    /// Appends the pending deliveries to `out` and clears them, without
    /// surrendering the internal buffer — per-cycle harness loops call
    /// this with a reused scratch vector so neither side reallocates.
    /// The default delegates to [`drain_deliveries`](Self::drain_deliveries).
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.drain_deliveries());
    }

    /// Number of packets accepted but not yet delivered to all of their
    /// destinations. Zero means the network is idle.
    fn in_flight(&self) -> usize;

    /// Cumulative energy since construction.
    fn energy(&self) -> EnergyReport;

    /// Cumulative counters since construction.
    fn stats(&self) -> NetworkStats;

    /// Per-link traversal telemetry, when the implementation collects it
    /// (the default is empty counters).
    fn link_counters(&self) -> LinkCounters {
        LinkCounters::new()
    }

    /// Attaches an event trace; subsequent cycles record
    /// [`crate::obs::SimEvent`]s into it. The default implementation
    /// discards the buffer (networks without observability support simply
    /// stay silent).
    fn set_trace(&mut self, trace: TraceBuffer) {
        let _ = trace;
    }

    /// Detaches and returns the event trace attached via
    /// [`set_trace`](Network::set_trace), if any. Tracing stops.
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        None
    }

    /// Attaches a hot-loop phase profiler; subsequent
    /// [`step`](Network::step)s attribute time and work to the six
    /// per-cycle phases. The default discards it (such a network simply
    /// reports no breakdown).
    fn set_phase_profiler(&mut self, profiler: PhaseProfiler) {
        let _ = profiler;
    }

    /// Detaches the profiler attached via
    /// [`set_phase_profiler`](Network::set_phase_profiler) and returns
    /// its accumulated totals, if any. Profiling stops.
    fn take_phase_breakdown(&mut self) -> Option<PhaseBreakdown> {
        None
    }

    /// Attaches a packet flight recorder; it rides the same event path
    /// as the trace buffer and both may be attached at once. The default
    /// discards it.
    fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        let _ = recorder;
    }

    /// Detaches and returns the flight recorder attached via
    /// [`set_flight_recorder`](Network::set_flight_recorder), if any.
    fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        None
    }

    /// Total packets/flits currently held in router-side buffers
    /// (electrical VCs, or Phastlane's electrical fallback buffers).
    /// NIC-side queues are excluded. The default reports zero.
    fn buffer_occupancy(&self) -> u64 {
        0
    }

    /// Installs a fault schedule and the seed for the dedicated
    /// fault-path RNG stream (kept separate from the network's own RNG so
    /// an empty plan leaves seeded runs byte-identical). The default
    /// implementation ignores faults — such a network simply never
    /// degrades.
    fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        let _ = (plan, seed);
    }

    /// Returns and clears the destinations the network has terminally
    /// given up on (retry cap / livelock guard). Under a fault plan,
    /// every accepted destination eventually appears in exactly one of
    /// [`drain_deliveries`](Network::drain_deliveries) or this list.
    fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        Vec::new()
    }

    /// Appends the pending terminal failures to `out` and clears them
    /// (buffer-reusing counterpart of [`drain_failures`](Self::drain_failures)).
    fn drain_failures_into(&mut self, out: &mut Vec<FailedDelivery>) {
        out.append(&mut self.drain_failures());
    }
}

/// Blanket impl so `Box<dyn Network>` composes with generic harness code.
impl<N: Network + ?Sized> Network for Box<N> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn mesh(&self) -> Mesh {
        (**self).mesh()
    }
    fn cycle(&self) -> u64 {
        (**self).cycle()
    }
    fn inject(&mut self, packet: NewPacket) -> Option<PacketId> {
        (**self).inject(packet)
    }
    fn step(&mut self) {
        (**self).step()
    }
    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        (**self).drain_deliveries()
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        (**self).drain_deliveries_into(out)
    }
    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }
    fn energy(&self) -> EnergyReport {
        (**self).energy()
    }
    fn stats(&self) -> NetworkStats {
        (**self).stats()
    }
    fn link_counters(&self) -> LinkCounters {
        (**self).link_counters()
    }
    fn set_trace(&mut self, trace: TraceBuffer) {
        (**self).set_trace(trace)
    }
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        (**self).take_trace()
    }
    fn set_phase_profiler(&mut self, profiler: PhaseProfiler) {
        (**self).set_phase_profiler(profiler)
    }
    fn take_phase_breakdown(&mut self) -> Option<PhaseBreakdown> {
        (**self).take_phase_breakdown()
    }
    fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        (**self).set_flight_recorder(recorder)
    }
    fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        (**self).take_flight_recorder()
    }
    fn buffer_occupancy(&self) -> u64 {
        (**self).buffer_occupancy()
    }
    fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        (**self).set_fault_plan(plan, seed)
    }
    fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        (**self).drain_failures()
    }
    fn drain_failures_into(&mut self, out: &mut Vec<FailedDelivery>) {
        (**self).drain_failures_into(out)
    }
}
