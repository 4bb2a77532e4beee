//! An idealized reference network: infinite bandwidth, fixed
//! per-destination latency, no contention, no energy.
//!
//! Useful as (a) a lower bound when interpreting results from the real
//! simulators and (b) a deterministic fixture for testing the harness —
//! every latency it produces is exactly `base_latency + distance *
//! per_hop_latency`.

use crate::geometry::Mesh;
use crate::network::Network;
use crate::packet::{Delivery, NewPacket, PacketId};
use crate::stats::{EnergyReport, NetworkStats};
use std::collections::BTreeMap;

/// The ideal network.
#[derive(Debug, Clone)]
pub struct IdealNetwork {
    mesh: Mesh,
    base_latency: u64,
    per_hop_latency: u64,
    cycle: u64,
    next_id: u64,
    /// Future deliveries ordered by due cycle.
    pending: BTreeMap<u64, Vec<Delivery>>,
    in_flight: usize,
    ready: Vec<Delivery>,
    stats: NetworkStats,
}

impl IdealNetwork {
    /// Creates an ideal network with the given latency model.
    ///
    /// # Panics
    ///
    /// Panics if both latency components are zero (a delivery must take
    /// at least one cycle).
    pub fn new(mesh: Mesh, base_latency: u64, per_hop_latency: u64) -> Self {
        assert!(
            base_latency + per_hop_latency > 0,
            "an ideal network still needs non-zero latency"
        );
        IdealNetwork {
            mesh,
            base_latency,
            per_hop_latency,
            cycle: 0,
            next_id: 0,
            pending: BTreeMap::new(),
            in_flight: 0,
            ready: Vec::new(),
            stats: NetworkStats::default(),
        }
    }

    /// The latency this network gives a packet between two nodes.
    pub fn latency_between(&self, a: crate::geometry::NodeId, b: crate::geometry::NodeId) -> u64 {
        self.base_latency + u64::from(self.mesh.distance(a, b)) * self.per_hop_latency
    }
}

impl Network for IdealNetwork {
    fn name(&self) -> String {
        format!("Ideal(b{},h{})", self.base_latency, self.per_hop_latency)
    }

    fn mesh(&self) -> Mesh {
        self.mesh
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn inject(&mut self, packet: NewPacket) -> Option<PacketId> {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        self.stats.injected += 1;
        let dests = packet.dests.expand(packet.src, self.mesh.nodes());
        if dests.is_empty() {
            self.ready.push(Delivery {
                packet: id,
                src: packet.src,
                dest: packet.src,
                injected_cycle: self.cycle,
                delivered_cycle: self.cycle,
            });
            self.stats.delivered += 1;
            return Some(id);
        }
        self.in_flight += 1;
        for dest in dests {
            let due = self.cycle + self.latency_between(packet.src, dest);
            self.pending.entry(due).or_default().push(Delivery {
                packet: id,
                src: packet.src,
                dest,
                injected_cycle: self.cycle,
                delivered_cycle: due,
            });
        }
        Some(id)
    }

    #[expect(clippy::disallowed_types, reason = "iteration order reaches no output")]
    fn step(&mut self) {
        self.cycle += 1;
        // Deliver everything due by the new cycle.
        let due: Vec<u64> = self.pending.range(..=self.cycle).map(|(&c, _)| c).collect();
        let mut finished: std::collections::HashMap<PacketId, usize> =
            std::collections::HashMap::new();
        for c in due {
            for d in self.pending.remove(&c).unwrap_or_default() {
                *finished.entry(d.packet).or_default() += 1;
                self.stats.delivered += 1;
                self.stats.latency.record(d.latency());
                self.ready.push(d);
            }
        }
        // A packet leaves flight when none of its deliveries remain
        // anywhere in the pending map.
        for (id, _) in finished {
            let still_pending = self.pending.values().flatten().any(|d| d.packet == id);
            if !still_pending {
                self.in_flight -= 1;
            }
        }
    }

    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.ready)
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn energy(&self) -> EnergyReport {
        EnergyReport::default()
    }

    fn stats(&self) -> NetworkStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::NodeId;
    use crate::packet::PacketKind;

    #[test]
    fn latency_is_exact() {
        let mut net = IdealNetwork::new(Mesh::PAPER, 2, 1);
        net.inject(NewPacket::unicast(NodeId(0), NodeId(63)))
            .unwrap();
        while net.in_flight() > 0 {
            net.step();
        }
        let d = net.drain_deliveries();
        assert_eq!(d[0].latency(), 2 + 14);
    }

    #[test]
    fn broadcast_delivers_each_at_its_distance() {
        let mut net = IdealNetwork::new(Mesh::PAPER, 1, 2);
        net.inject(NewPacket::broadcast(NodeId(0), PacketKind::Invalidate))
            .unwrap();
        while net.in_flight() > 0 {
            net.step();
        }
        let d = net.drain_deliveries();
        assert_eq!(d.len(), 63);
        for x in d {
            assert_eq!(
                x.latency(),
                1 + 2 * u64::from(Mesh::PAPER.distance(NodeId(0), x.dest))
            );
        }
    }

    #[test]
    fn in_flight_counts_packets_not_copies() {
        let mut net = IdealNetwork::new(Mesh::PAPER, 1, 1);
        net.inject(NewPacket::broadcast(NodeId(9), PacketKind::ReadRequest))
            .unwrap();
        net.inject(NewPacket::unicast(NodeId(0), NodeId(1)))
            .unwrap();
        assert_eq!(net.in_flight(), 2);
        for _ in 0..100 {
            net.step();
        }
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero latency")]
    fn zero_latency_rejected() {
        let _ = IdealNetwork::new(Mesh::PAPER, 0, 0);
    }
}
