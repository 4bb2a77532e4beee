//! Decorators that time the hot-loop calls of a network and a workload
//! from the outside, so the harness can run unchanged while the traced
//! pass learns how its time splits between `step`, `inject`,
//! `drain_deliveries_into` and `generate_into`.

use phastlane_netsim::fault::{FailedDelivery, FaultPlan};
use phastlane_netsim::geometry::Mesh;
use phastlane_netsim::harness::SyntheticWorkload;
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::{FlightRecorder, PhaseBreakdown, PhaseProfiler, TraceBuffer};
use phastlane_netsim::packet::{Delivery, NewPacket, PacketId};
use phastlane_netsim::stats::{EnergyReport, NetworkStats};
use phastlane_netsim::telemetry::LinkCounters;
use std::time::Instant;

/// Call count and summed host time of one decorated function. Every
/// call is timed, so each carries the clock's own cost (two reads, some
/// tens of ns): the same on both sides of an A/B.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    pub calls: u64,
    pub ns: u64,
}

impl Busy {
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

/// A [`Network`] that forwards every method to `inner` and accumulates
/// the busy time of the three per-cycle calls.
pub struct Timed<N> {
    pub inner: N,
    pub step: Busy,
    pub inject: Busy,
    pub drain: Busy,
}

impl<N: Network> Timed<N> {
    pub fn new(inner: N) -> Self {
        Timed {
            inner,
            step: Busy::default(),
            inject: Busy::default(),
            drain: Busy::default(),
        }
    }
}

impl<N: Network> Network for Timed<N> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn mesh(&self) -> Mesh {
        self.inner.mesh()
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn inject(&mut self, packet: NewPacket) -> Option<PacketId> {
        self.inject.call(|| self.inner.inject(packet))
    }
    fn step(&mut self) {
        self.step.call(|| self.inner.step());
    }
    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        self.drain.call(|| self.inner.drain_deliveries())
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        self.drain.call(|| self.inner.drain_deliveries_into(out));
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn energy(&self) -> EnergyReport {
        self.inner.energy()
    }
    fn stats(&self) -> NetworkStats {
        self.inner.stats()
    }
    fn link_counters(&self) -> LinkCounters {
        self.inner.link_counters()
    }
    fn set_trace(&mut self, trace: TraceBuffer) {
        self.inner.set_trace(trace)
    }
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.inner.take_trace()
    }
    fn set_phase_profiler(&mut self, profiler: PhaseProfiler) {
        self.inner.set_phase_profiler(profiler)
    }
    fn take_phase_breakdown(&mut self) -> Option<PhaseBreakdown> {
        self.inner.take_phase_breakdown()
    }
    fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.inner.set_flight_recorder(recorder)
    }
    fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.inner.take_flight_recorder()
    }
    fn buffer_occupancy(&self) -> u64 {
        self.inner.buffer_occupancy()
    }
    fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.inner.set_fault_plan(plan, seed)
    }
    fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        self.inner.drain_failures()
    }
    fn drain_failures_into(&mut self, out: &mut Vec<FailedDelivery>) {
        self.inner.drain_failures_into(out)
    }
}

/// A [`SyntheticWorkload`] that forwards to `inner`, timing each
/// generation call and counting the packets it produced.
pub struct TimedWorkload<W> {
    pub inner: W,
    pub generate: Busy,
    pub packets: u64,
}

impl<W: SyntheticWorkload> TimedWorkload<W> {
    pub fn new(inner: W) -> Self {
        TimedWorkload {
            inner,
            generate: Busy::default(),
            packets: 0,
        }
    }
}

impl<W: SyntheticWorkload> SyntheticWorkload for TimedWorkload<W> {
    fn generate(&mut self, cycle: u64) -> Vec<NewPacket> {
        let out = self.generate.call(|| self.inner.generate(cycle));
        self.packets += out.len() as u64;
        out
    }
    fn generate_into(&mut self, cycle: u64, out: &mut Vec<NewPacket>) {
        let before = out.len();
        self.generate.call(|| self.inner.generate_into(cycle, out));
        self.packets += (out.len() - before) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_lab::runner::build_network;
    use phastlane_netsim::harness::{run_synthetic, SyntheticOptions, SyntheticResult};
    use phastlane_traffic::synthetic::BernoulliTraffic;
    use phastlane_traffic::Pattern;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }
    const OPTS: SyntheticOptions = SyntheticOptions {
        warmup: 50,
        measure: 400,
        drain: 2000,
    };

    fn network(name: &str, intensity: f64) -> Box<dyn Network + Send> {
        let mut net = build_network(name, mesh(), (intensity > 0.0).then_some(50)).unwrap();
        if intensity > 0.0 {
            net.set_fault_plan(FaultPlan::random(mesh(), 11, intensity), 11);
        }
        net
    }

    fn traffic() -> BernoulliTraffic {
        BernoulliTraffic::new(mesh(), Pattern::Uniform, 0.08, 5)
    }

    /// Everything of a result except its wall clock.
    fn simulated(r: &SyntheticResult) -> String {
        format!(
            "{:?} {:?} {} {} {} {} {} {} {:?}",
            r.latency,
            r.energy,
            r.offered_rate,
            r.accepted_rate,
            r.delivered_rate,
            r.unfinished,
            r.undeliverable,
            r.perf.cycles,
            r.perf.phases.map(|p| p.work),
        )
    }

    /// A decorator that dropped or mangled any forwarded call (the fault
    /// plan, a failure drain, the profiler hand-over) would change the
    /// simulated result; the decorated and plain runs must agree on all
    /// of it, on both networks, with and without faults.
    #[test]
    fn decorated_run_gives_the_identical_result() {
        for name in ["optical4", "electrical3"] {
            for intensity in [0.0, 0.2] {
                let mut plain = network(name, intensity);
                plain.set_phase_profiler(PhaseProfiler::enabled(8));
                let expected = run_synthetic(&mut plain, &mut traffic(), OPTS);

                let mut timed = Timed::new(network(name, intensity));
                timed.set_phase_profiler(PhaseProfiler::enabled(8));
                let mut workload = TimedWorkload::new(traffic());
                let got = run_synthetic(&mut timed, &mut workload, OPTS);

                assert_eq!(
                    simulated(&got),
                    simulated(&expected),
                    "{name} @ {intensity}"
                );
                assert!(got.perf.phases.is_some(), "profiler reached the network");
                assert_eq!(
                    format!("{:?}", timed.stats()),
                    format!("{:?}", plain.stats())
                );
                assert_eq!(timed.step.calls, got.perf.cycles);
                assert_eq!(timed.drain.calls, got.perf.cycles);
                assert!(timed.inject.calls > 0 && workload.packets > 0);
                assert!(workload.generate.calls <= got.perf.cycles);
            }
        }
    }

    #[test]
    fn observers_pass_through_the_decorator() {
        let mut timed = Timed::new(network("optical4", 0.0));
        timed.set_trace(TraceBuffer::ring(64));
        timed.set_flight_recorder(FlightRecorder::new(3, 1));
        run_synthetic(&mut timed, &mut traffic(), OPTS);
        assert!(timed.take_trace().is_some_and(|t| t.recorded() > 0));
        assert!(timed.take_flight_recorder().is_some());
        assert_eq!(timed.name(), timed.inner.name());
        assert_eq!(timed.cycle(), timed.inner.cycle());
        assert_eq!(timed.in_flight(), timed.inner.in_flight());
        assert_eq!(timed.buffer_occupancy(), timed.inner.buffer_occupancy());
    }
}
