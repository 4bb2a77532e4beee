//! Per-destination delivery accounting, shared by both network models.
//!
//! Every accepted packet owes one copy to each of its destinations, and
//! each copy ends as exactly one [`Delivery`] or one [`FailedDelivery`].
//! [`DeliveryLedger`] is the only place that rule is written down: the
//! only decrement of the owed count, and the only push of either record.
//!
//! It is also where packet identity lives. The ledger issues the ids —
//! consecutive, one per accepted packet — so the owed counts need no
//! map: they sit in a dense window at slot `id - oldest live id`, and a
//! packet's slot is retired with its last terminal record.

use crate::fault::FailedDelivery;
use crate::geometry::NodeId;
use crate::idwindow::IdWindow;
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
    /// The id the next accepted packet gets.
    next_id: u64,
    /// Destination copies still owed per live packet id; a settled
    /// packet (and a self-send, settled at birth) has no entry.
    outstanding: IdWindow<u32>,
    /// Packets in `outstanding`.
    in_flight: usize,
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

    /// The id the next accepted packet must carry. Peeking does not
    /// consume it, so a packet the NIC turns away costs no id.
    pub fn next_id(&self) -> PacketId {
        PacketId(self.next_id)
    }

    /// Consumes the next id, which must be `id`.
    fn issue(&mut self, id: PacketId) {
        assert_eq!(id.0, self.next_id, "packet ids are issued consecutively");
        self.next_id += 1;
    }

    /// Accepts packet `id` (the ledger's [`next_id`](Self::next_id)) from
    /// `src` into the network, owing `copies` destination copies.
    pub fn accept(&mut self, obs: &mut Obs, now: u64, id: PacketId, src: NodeId, copies: usize) {
        self.issue(id);
        let copies = u32::try_from(copies).expect("a packet owes at most one copy per node");
        self.outstanding.insert(id.0, copies);
        self.in_flight += 1;
        self.accepted += u64::from(copies);
        self.owed += u64::from(copies);
        self.stats.injected += 1;
        obs.emit(now, EventKind::Inject, src, None, Some(id));
    }

    /// The degenerate self-send: accepted and delivered locally in the
    /// same cycle, never entering the network (and never owed).
    pub fn self_send(&mut self, obs: &mut Obs, now: u64, id: PacketId, src: NodeId) {
        self.issue(id);
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
            self.in_flight -= 1;
        }
        self.owed -= 1;
        debug_assert_eq!(
            self.accepted,
            self.stats.delivered + self.stats.undeliverable + self.owed,
            "accepted copies = delivered + failed + still owed"
        );
        debug_assert_eq!(self.owed == 0, self.outstanding.len() == 0);
    }

    /// Packets accepted but still owing at least one destination copy.
    pub fn in_flight(&self) -> usize {
        self.in_flight
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
    use crate::rng::SimRng;
    #[expect(clippy::disallowed_types, reason = "test: the reference model")]
    use std::collections::HashMap;

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
        assert_eq!(ledger.next_id(), PacketId(0));
        ledger.accept(&mut obs, 3, PacketId(0), NodeId(0), 2);
        assert_eq!(ledger.next_id(), PacketId(1), "accepting consumes the id");
        ledger.self_send(&mut obs, 3, PacketId(1), NodeId(4));
        assert_eq!(ledger.next_id(), PacketId(2), "so does a self-send");
        assert_eq!(ledger.in_flight(), 1, "a self-send is never owed");

        ledger.deliver(&mut obs, packet(0), NodeId(5), 9, 10);
        assert_eq!(ledger.in_flight(), 1);
        ledger.fail(&mut obs, packet(0), NodeId(6), NodeId(2), 11);
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
    #[should_panic(expected = "issued consecutively")]
    fn only_the_next_id_is_accepted() {
        let mut ledger = DeliveryLedger::new();
        ledger.accept(&mut Obs::off(), 0, PacketId(1), NodeId(0), 1);
    }

    /// The packet's slot was retired with its only copy.
    #[test]
    #[should_panic(expected = "nobody owes")]
    fn a_copy_cannot_end_twice() {
        let mut obs = Obs::off();
        let mut ledger = DeliveryLedger::new();
        ledger.accept(&mut obs, 0, PacketId(0), NodeId(0), 1);
        ledger.deliver(&mut obs, packet(0), NodeId(5), 4, 5);
        ledger.deliver(&mut obs, packet(0), NodeId(5), 4, 5);
    }

    /// The packet's slot is still in the window — an older packet holds
    /// the front — but owes nothing.
    #[test]
    #[should_panic(expected = "nobody owes")]
    fn a_copy_cannot_end_twice_behind_a_live_packet() {
        let mut obs = Obs::off();
        let mut ledger = DeliveryLedger::new();
        ledger.accept(&mut obs, 0, PacketId(0), NodeId(0), 1);
        ledger.accept(&mut obs, 0, PacketId(1), NodeId(0), 1);
        ledger.deliver(&mut obs, packet(1), NodeId(5), 4, 5);
        ledger.deliver(&mut obs, packet(1), NodeId(5), 4, 5);
    }

    /// The ledger against a `HashMap` of owed counts, on a network whose
    /// ids start at `first` (a reused one's do not start at 0). With
    /// `hold`, the first packet is never settled, so the window's front
    /// cannot retire for the whole run.
    #[expect(clippy::disallowed_types, reason = "test: the reference model")]
    fn owed_counts_match_a_map(first: u64, hold: bool, rng: &mut SimRng) {
        let mut obs = Obs::off();
        let mut ledger = DeliveryLedger::new();
        ledger.next_id = first;
        let mut model: HashMap<u64, u32> = HashMap::new();
        // Ids free to settle, and the newest id that went into the window.
        let (mut live, mut newest) = (Vec::new(), first);
        if hold {
            ledger.accept(&mut obs, 0, PacketId(first), NodeId(0), 2);
            model.insert(first, 2);
        }
        let (mut longest, mut capacity) = (0, 0);
        // A step is also the cycle it happens in; `packet()` entered at 3.
        for step in 3..2_003u64 {
            let roll = rng.gen_range(0..100u32);
            let next = ledger.next_id();
            if live.len() >= 48 || (roll >= 45 && !live.is_empty()) {
                let pick = rng.gen_range(0..live.len());
                let id: u64 = live[pick];
                if roll.is_multiple_of(2) {
                    ledger.deliver(&mut obs, packet(id), NodeId(1), step, step + 1);
                } else {
                    ledger.fail(&mut obs, packet(id), NodeId(1), NodeId(2), step);
                }
                let owed = model.get_mut(&id).unwrap();
                *owed -= 1;
                if *owed == 0 {
                    model.remove(&id);
                    live.swap_remove(pick);
                    assert_eq!(ledger.outstanding.get(id), None, "settled id {id}");
                }
            } else if roll < 5 {
                ledger.self_send(&mut obs, step, next, NodeId(3));
                assert_eq!(ledger.outstanding.get(next.0), None, "self-send {next:?}");
            } else {
                let copies = if roll < 25 { rng.gen_range(1..64) } else { 1 };
                ledger.accept(&mut obs, step, next, NodeId(3), copies as usize);
                model.insert(next.0, copies);
                live.push(next.0);
                newest = next.0;
            }

            assert_eq!(ledger.in_flight(), model.len());
            for (&id, owed) in &model {
                assert_eq!(ledger.outstanding.get(id), Some(owed), "live id {id}");
            }
            let window = &ledger.outstanding;
            assert_eq!(window.get(first.wrapping_sub(1)), None);
            // Oldest live id to newest accepted; empty when nothing is owed.
            let span = model.keys().min().map_or(0, |oldest| newest - oldest + 1);
            assert_eq!(window.len() as u64, span, "step {step}");
            // It allocates only to hold a span longer than any before.
            if window.len() <= longest {
                assert_eq!(window.capacity(), capacity, "step {step}");
            }
            longest = longest.max(window.len());
            capacity = window.capacity();
        }
        assert_eq!(model.contains_key(&first), hold);
    }

    #[test]
    fn owed_counts_match_a_map_over_random_runs() {
        let mut rng = SimRng::seed_from_u64(0x001E_D6E4);
        for first in [0, 977, (1u64 << 32) + 2] {
            for hold in [false, true] {
                owed_counts_match_a_map(first, hold, &mut rng);
            }
        }
    }
}
