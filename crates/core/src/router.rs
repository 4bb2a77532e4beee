//! Per-router electrical state: the five buffer queues (four input ports
//! plus the local node), and the rotating-priority visit order of the
//! arbiter that serves them (§2.1.1).

use crate::config::BufferDepth;
use phastlane_netsim::geometry::{Direction, Port};
use phastlane_netsim::packet::{PacketId, PacketKind, TargetList};
use phastlane_netsim::NodeId;
use std::collections::VecDeque;

/// Immutable identity of a packet message as it moves through the
/// network. A multi-destination packet becomes several messages (one per
/// multicast column message), all sharing the same [`PacketId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCore {
    /// The network-assigned packet id.
    pub id: PacketId,
    /// Originating node.
    pub src: NodeId,
    /// Operation kind.
    pub kind: PacketKind,
    /// Whether this message taps en-route targets (multicast).
    pub multicast: bool,
    /// Cycle the packet entered the source NIC.
    pub injected_cycle: u64,
}

/// One electrically-buffered message awaiting (re)launch.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Unique id for matching launches to drop signals.
    pub uid: u64,
    /// Packet identity.
    pub core: PacketCore,
    /// Remaining delivery targets, in path order.
    pub targets: TargetList,
    /// Earliest cycle this entry may launch (backoff after drops).
    pub ready_at: u64,
    /// Consecutive drops suffered by this entry (drives backoff).
    pub attempts: u32,
}

/// The electrical side of one Phastlane router.
///
/// Entries launched this cycle are *not* moved out of their queue: they
/// stay parked at the front (still holding buffer space, exactly as the
/// paper's buffers do) and only their `(queue, flight)` coordinates are
/// recorded, in launch order. Next cycle's confirm phase pops each
/// parked entry once — either freeing it (confirmed) or re-queueing it
/// with backoff (dropped) — so the hot launch path never copies an
/// [`Entry`].
#[derive(Debug, Clone)]
pub struct RouterState {
    /// Buffered entries per port (N, S, E, W, Local order per
    /// [`Port::index`]): the first `launched_per_queue[q]` entries of
    /// queue `q` are parked (launched, unconfirmed), the rest wait.
    queues: [VecDeque<Entry>; 5],
    /// `(queue, flight-arena index)` of entries launched this cycle,
    /// awaiting the (absence of a) drop signal, in launch order.
    launched: Vec<(u8, u32)>,
    /// Launched-entry count per queue: the head for arbitration purposes
    /// is the first entry *past* that prefix.
    launched_per_queue: [u32; 5],
    /// Bitmask of queues with an arbitrable head: bit `q` is set iff
    /// `queues[q].len() > launched_per_queue[q]`. Kept in sync by every
    /// queue mutation so the arbitration scan can reject empty queues
    /// with one bit test instead of touching their storage.
    arbitrable: u8,
    /// Total waiting entries across all queues, excluding parked ones
    /// (cached; the arbitrate sweep tests it at every busy router).
    waiting: u32,
    depth: BufferDepth,
}

impl RouterState {
    /// Creates an empty router with the given buffer depth.
    pub fn new(depth: BufferDepth) -> Self {
        RouterState {
            queues: Default::default(),
            launched: Vec::new(),
            launched_per_queue: [0; 5],
            arbitrable: 0,
            waiting: 0,
            depth,
        }
    }

    /// Occupancy of one queue, counting launched-but-unconfirmed entries
    /// (which stay parked in the queue).
    pub fn occupancy(&self, queue: usize) -> usize {
        self.queues[queue].len()
    }

    /// Total occupancy across all queues, counting launched entries.
    pub fn total_occupancy(&self) -> usize {
        self.waiting() + self.launched.len()
    }

    /// Whether `queue` can take another entry (per-queue depth for the
    /// paper's static partition, router total for a shared pool).
    pub fn has_room(&self, queue: usize) -> bool {
        self.depth
            .has_room_with_total(self.occupancy(queue), self.total_occupancy())
    }

    /// Queue index for a packet arriving from `entry` (the input-port
    /// buffer it is received into).
    pub fn input_queue(entry: Direction) -> usize {
        Port::Dir(entry).index()
    }

    /// Queue index of the local-node buffer.
    pub fn local_queue() -> usize {
        Port::Local.index()
    }

    /// Pushes an entry onto a queue. The caller must have checked
    /// [`has_room`](Self::has_room) (infinite depths always have room).
    pub fn push(&mut self, queue: usize, entry: Entry) {
        self.queues[queue].push_back(entry);
        self.waiting += 1;
        self.arbitrable |= 1 << queue;
    }

    /// Head of a queue for arbitration purposes — the first entry past
    /// the launched prefix, if any.
    #[inline]
    pub fn head(&self, queue: usize) -> Option<&Entry> {
        self.queues[queue].get(self.launched_per_queue[queue] as usize)
    }

    /// Mutable head of a queue (used to back off an entry in place when
    /// every usable output is faulted).
    pub fn head_mut(&mut self, queue: usize) -> Option<&mut Entry> {
        self.queues[queue].get_mut(self.launched_per_queue[queue] as usize)
    }

    /// Removes and returns the head of a queue *without* marking it
    /// launched (used when the network terminally gives up on an entry).
    pub fn pop_head(&mut self, queue: usize) -> Entry {
        let e = self.queues[queue]
            .remove(self.launched_per_queue[queue] as usize)
            .expect("pop_head on empty queue");
        self.waiting -= 1;
        if self.queues[queue].len() <= self.launched_per_queue[queue] as usize {
            self.arbitrable &= !(1 << queue);
        }
        e
    }

    /// Marks the head of a queue launched as flight `flight` of this
    /// cycle's flight arena and returns a reference to it. The entry
    /// stays parked in the queue (still holding its buffer slot) until
    /// next cycle's confirm phase.
    #[inline]
    pub fn launch_head(&mut self, queue: usize, flight: u32) -> &Entry {
        let pos = self.launched_per_queue[queue] as usize;
        assert!(pos < self.queues[queue].len(), "launch_head on empty queue");
        self.waiting -= 1;
        self.launched_per_queue[queue] += 1;
        self.launched.push((queue as u8, flight));
        if self.queues[queue].len() == self.launched_per_queue[queue] as usize {
            self.arbitrable &= !(1 << queue);
        }
        &self.queues[queue][pos]
    }

    /// Bitmask of queues whose [`head`](Self::head) is `Some` — the
    /// arbitration scan's cheap pre-filter.
    #[inline]
    pub fn arbitrable(&self) -> u8 {
        self.arbitrable
    }

    /// Whether any entries were launched last cycle (confirm-phase fast
    /// path: idle routers skip it entirely).
    pub fn has_launched(&self) -> bool {
        !self.launched.is_empty()
    }

    /// Moves the launch-order `(queue, flight)` list into `scratch`
    /// (cleared first) so the confirm phase can process it, and resets
    /// the launch bookkeeping. The two buffers swap storage, so both
    /// retain their capacity across cycles — no allocation once warm.
    /// The parked entries themselves are retrieved one by one with
    /// [`pop_launched`](Self::pop_launched).
    pub fn begin_confirm(&mut self, scratch: &mut Vec<(u8, u32)>) {
        scratch.clear();
        std::mem::swap(&mut self.launched, scratch);
        self.launched_per_queue = [0; 5];
        let mut mask = 0u8;
        for (q, queue) in self.queues.iter().enumerate() {
            if !queue.is_empty() {
                mask |= 1 << q;
            }
        }
        self.arbitrable = mask;
    }

    /// Removes and returns the oldest still-parked launched entry of a
    /// queue (its front). Valid only between
    /// [`begin_confirm`](Self::begin_confirm) and the next launch phase,
    /// once per recorded `(queue, flight)` pair — per-queue launch order
    /// matches queue order, so repeated front pops line up with the
    /// launch-order list.
    pub fn pop_launched(&mut self, queue: usize) -> Entry {
        let e = self.queues[queue]
            .pop_front()
            .expect("launched entry parked at queue front");
        if self.queues[queue].is_empty() {
            self.arbitrable &= !(1 << queue);
        }
        e
    }

    /// Total waiting entries across all queues (excludes launched).
    #[inline]
    pub fn waiting(&self) -> usize {
        debug_assert_eq!(
            self.waiting as usize,
            self.queues.iter().map(VecDeque::len).sum::<usize>() - self.launched.len()
        );
        self.waiting as usize
    }

    /// Whether the router holds nothing at all: no waiting entry and no
    /// parked launch. With an empty NIC, this is when the network's
    /// busy-router mask may drop the router.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.waiting == 0 && self.launched.is_empty()
    }
}

/// The queue visit order of the rotating-priority arbiter in `cycle`.
///
/// The paper's pointer moves one queue per cycle at every router, busy
/// or idle, and every router starts at queue 0 in cycle 0 — so it is a
/// function of the cycle number and needs no per-router state.
#[inline]
pub fn rotation(cycle: u64) -> [usize; 5] {
    const ORDERS: [[usize; 5]; 5] = [
        [0, 1, 2, 3, 4],
        [1, 2, 3, 4, 0],
        [2, 3, 4, 0, 1],
        [3, 4, 0, 1, 2],
        [4, 0, 1, 2, 3],
    ];
    ORDERS[(cycle % 5) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(uid: u64) -> Entry {
        Entry {
            uid,
            core: PacketCore {
                id: PacketId(uid),
                src: NodeId(0),
                kind: PacketKind::Data,
                multicast: false,
                injected_cycle: 0,
            },
            targets: [NodeId(1)].into_iter().collect(),
            ready_at: 0,
            attempts: 0,
        }
    }

    #[test]
    fn occupancy_counts_launched() {
        let mut r = RouterState::new(BufferDepth::Finite(2));
        r.push(0, entry(1));
        r.push(0, entry(2));
        assert!(!r.has_room(0));
        r.launch_head(0, 7);
        // Launched entry still occupies its slot, and the arbitration
        // head moves past it.
        assert_eq!(r.occupancy(0), 2);
        assert!(!r.has_room(0));
        assert!(r.has_launched());
        assert_eq!(r.head(0).unwrap().uid, 2);
        let mut scratch = Vec::new();
        r.begin_confirm(&mut scratch);
        assert_eq!(scratch, vec![(0u8, 7u32)]);
        assert!(!r.has_launched());
        let confirmed = r.pop_launched(0);
        assert_eq!(confirmed.uid, 1);
        assert_eq!(r.occupancy(0), 1);
        assert!(r.has_room(0));
    }

    #[test]
    fn rotation_cycles_through_all_queues() {
        assert_eq!(rotation(0), [0, 1, 2, 3, 4]);
        assert_eq!(rotation(1), [1, 2, 3, 4, 0]);
        assert_eq!(rotation(4), [4, 0, 1, 2, 3]);
        assert_eq!(rotation(5), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn queue_indices() {
        assert_eq!(RouterState::input_queue(Direction::North), 0);
        assert_eq!(RouterState::input_queue(Direction::West), 3);
        assert_eq!(RouterState::local_queue(), 4);
    }

    #[test]
    fn infinite_depth_never_full() {
        let mut r = RouterState::new(BufferDepth::Infinite);
        for i in 0..1000 {
            assert!(r.has_room(2));
            r.push(2, entry(i));
        }
        assert_eq!(r.waiting(), 1000);
    }

    #[test]
    #[should_panic(expected = "empty queue")]
    fn launch_from_empty_panics() {
        let mut r = RouterState::new(BufferDepth::Infinite);
        r.launch_head(1, 0);
    }
}
