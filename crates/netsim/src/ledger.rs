//! Per-destination delivery accounting, shared by both network models.
//!
//! Every accepted packet owes one copy to each of its destinations, and
//! each copy ends as exactly one [`Delivery`] or one [`FailedDelivery`].
//! [`DeliveryLedger`] is the only place that rule is written down: the
//! only decrement of the owed count, and the only push of either record.

use crate::fastmap::FastMap;
use crate::fault::FailedDelivery;
use crate::geometry::NodeId;
use crate::obs::{EventKind, Obs};
use crate::packet::{Delivery, PacketId, PacketKind};
use crate::stats::NetworkStats;

/// Immutable identity of an accepted packet: what the ledger needs to
/// account for one of its destination copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketOrigin {
    /// The network-assigned packet id.
    pub id: PacketId,
    /// Originating node.
    pub src: NodeId,
    /// Operation kind (latency is also summarised per kind).
    pub kind: PacketKind,
    /// Cycle the packet entered the source NIC.
    pub injected_cycle: u64,
}

/// The delivery accounting of one network.
#[derive(Debug, Default)]
pub struct DeliveryLedger {
    /// Destination copies still owed per packet id (keyed by the raw id —
    /// sequential, so the open-addressing map probes are short).
    outstanding: FastMap<usize>,
    deliveries: Vec<Delivery>,
    failures: Vec<FailedDelivery>,
    /// Destination copies accepted so far, and how many are still owed.
    accepted: u64,
    owed: u64,
    /// Aggregate counters. The ledger maintains `injected`, `delivered`,
    /// `undeliverable` and the latency summaries; the owning network
    /// bumps the rest (drops, retransmissions, reroutes, ECC).
    pub stats: NetworkStats,
}

impl DeliveryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts packet `id` from `src` into the network, owing `copies`
    /// destination copies.
    pub fn accept(&mut self, obs: &mut Obs, now: u64, id: PacketId, src: NodeId, copies: usize) {
        self.outstanding.insert(id.0, copies);
        self.accepted += copies as u64;
        self.owed += copies as u64;
        self.stats.injected += 1;
        obs.emit(now, EventKind::Inject, src, None, Some(id));
    }

    /// The degenerate self-send: accepted and delivered locally in the
    /// same cycle, never entering the network (and never owed).
    pub fn self_send(&mut self, obs: &mut Obs, now: u64, id: PacketId, src: NodeId) {
        self.accepted += 1;
        self.stats.injected += 1;
        self.stats.delivered += 1;
        obs.emit(now, EventKind::Inject, src, None, Some(id));
        obs.emit(now, EventKind::Eject, src, None, Some(id));
        self.deliveries.push(Delivery {
            packet: id,
            src,
            dest: src,
            injected_cycle: now,
            delivered_cycle: now,
        });
    }

    /// Records the copy of `packet` owed to `dest` as delivered: ejected
    /// during cycle `now`, in the processor's hands at `delivered_cycle`.
    pub fn deliver(
        &mut self,
        obs: &mut Obs,
        packet: PacketOrigin,
        dest: NodeId,
        now: u64,
        delivered_cycle: u64,
    ) {
        obs.emit(now, EventKind::Eject, dest, None, Some(packet.id));
        self.deliveries.push(Delivery {
            packet: packet.id,
            src: packet.src,
            dest,
            injected_cycle: packet.injected_cycle,
            delivered_cycle,
        });
        self.stats.delivered += 1;
        let lat = delivered_cycle - packet.injected_cycle;
        self.stats.latency.record(lat);
        self.stats.latency_by_kind.record(packet.kind, lat);
        self.settle(packet.id);
    }

    /// Records the copy of `packet` owed to `dest` as terminally
    /// undeliverable, given up on at router `at` during cycle `now`. The
    /// packet's owed count shrinks exactly as a delivery would shrink
    /// it, so closed-loop harnesses observe completion.
    pub fn fail(
        &mut self,
        obs: &mut Obs,
        packet: PacketOrigin,
        dest: NodeId,
        at: NodeId,
        now: u64,
    ) {
        self.stats.undeliverable += 1;
        self.failures.push(FailedDelivery {
            packet: packet.id,
            src: packet.src,
            dest,
            cycle: now,
        });
        obs.emit(now, EventKind::Undeliverable, at, None, Some(packet.id));
        self.settle(packet.id);
    }

    /// One owed copy of `id` reached its terminal record.
    fn settle(&mut self, id: PacketId) {
        let rem = self
            .outstanding
            .get_mut(id.0)
            .expect("terminal record for a copy nobody owes");
        *rem -= 1;
        if *rem == 0 {
            self.outstanding.remove(id.0);
        }
        self.owed -= 1;
        debug_assert_eq!(
            self.accepted,
            self.stats.delivered + self.stats.undeliverable + self.owed,
            "accepted copies = delivered + failed + still owed"
        );
        debug_assert_eq!(self.owed == 0, self.outstanding.is_empty());
    }

    /// Packets accepted but still owing at least one destination copy.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Deliveries recorded since the last drain.
    pub fn pending_deliveries(&self) -> usize {
        self.deliveries.len()
    }

    /// Returns and clears the recorded deliveries.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Appends the recorded deliveries to `out` and clears them, keeping
    /// the internal buffer.
    pub fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    /// Returns and clears the recorded terminal failures.
    pub fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        std::mem::take(&mut self.failures)
    }

    /// Appends the recorded terminal failures to `out` and clears them.
    pub fn drain_failures_into(&mut self, out: &mut Vec<FailedDelivery>) {
        out.append(&mut self.failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64) -> PacketOrigin {
        PacketOrigin {
            id: PacketId(id),
            src: NodeId(0),
            kind: PacketKind::Data,
            injected_cycle: 3,
        }
    }

    #[test]
    fn a_packet_leaves_flight_with_its_last_terminal_record() {
        let mut obs = Obs::off();
        let mut ledger = DeliveryLedger::new();
        ledger.accept(&mut obs, 3, PacketId(7), NodeId(0), 2);
        ledger.self_send(&mut obs, 3, PacketId(8), NodeId(4));
        assert_eq!(ledger.in_flight(), 1, "a self-send is never owed");

        ledger.deliver(&mut obs, packet(7), NodeId(5), 9, 10);
        assert_eq!(ledger.in_flight(), 1);
        ledger.fail(&mut obs, packet(7), NodeId(6), NodeId(2), 11);
        assert_eq!(ledger.in_flight(), 0);

        let delivered = ledger.drain_deliveries();
        assert_eq!(delivered.len(), 2);
        assert_eq!((delivered[1].dest, delivered[1].latency()), (NodeId(5), 7));
        let failed = ledger.drain_failures();
        assert_eq!((failed[0].dest, failed[0].cycle), (NodeId(6), 11));
        assert_eq!(ledger.pending_deliveries(), 0);
        let s = &ledger.stats;
        assert_eq!((s.injected, s.delivered, s.undeliverable), (2, 2, 1));
        assert_eq!(s.latency.count(), 1, "self-sends record no latency");
    }

    #[test]
    #[should_panic(expected = "nobody owes")]
    fn a_copy_cannot_end_twice() {
        let mut obs = Obs::off();
        let mut ledger = DeliveryLedger::new();
        ledger.accept(&mut obs, 0, PacketId(1), NodeId(0), 1);
        ledger.deliver(&mut obs, packet(1), NodeId(5), 4, 5);
        ledger.deliver(&mut obs, packet(1), NodeId(5), 4, 5);
    }
}
