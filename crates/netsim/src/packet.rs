//! Packet and message types shared by both network implementations.
//!
//! Both the Phastlane network and the electrical baseline use single-flit,
//! 80-byte packets (Tables 1 and 2): a 64-byte cache line plus address,
//! operation type, source id, ECC, and routing control.

use crate::geometry::NodeId;
use std::fmt;

/// Total packet size in bytes (one flit).
pub const PACKET_BYTES: u32 = 80;
/// Total packet size in bits.
pub const PACKET_BITS: u32 = PACKET_BYTES * 8;

/// Unique identifier a network assigns to an injected packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The coherence-level operation a packet carries. Only used for
/// statistics and trace bookkeeping; the networks treat all kinds alike
/// except for multicast routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A read (GetS) coherence request — broadcast in a snoopy system.
    ReadRequest,
    /// A write/upgrade (GetX) coherence request — broadcast.
    WriteRequest,
    /// A data response (cache-to-cache or from a memory controller).
    DataResponse,
    /// An invalidate — broadcast.
    Invalidate,
    /// A writeback to a memory controller.
    Writeback,
    /// Generic point-to-point data (synthetic workloads).
    Data,
}

impl PacketKind {
    /// Every kind, in declaration order (dense-array indexing).
    pub const ALL: [PacketKind; 6] = [
        PacketKind::ReadRequest,
        PacketKind::WriteRequest,
        PacketKind::DataResponse,
        PacketKind::Invalidate,
        PacketKind::Writeback,
        PacketKind::Data,
    ];

    /// Dense index of this kind (position in [`PacketKind::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this kind is broadcast in a snoopy protocol.
    pub fn is_snoop_broadcast(self) -> bool {
        matches!(
            self,
            PacketKind::ReadRequest | PacketKind::WriteRequest | PacketKind::Invalidate
        )
    }
}

/// Destination set of a packet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DestSet {
    /// A single destination.
    Unicast(NodeId),
    /// An explicit list of destinations (deduplicated, excludes source).
    Multicast(Vec<NodeId>),
    /// Every node except the source.
    Broadcast,
}

impl DestSet {
    /// Expands to the concrete destination list for a given source and
    /// node count. Destinations equal to `src` are dropped; duplicates in
    /// a multicast list are dropped.
    pub fn expand(&self, src: NodeId, nodes: usize) -> Vec<NodeId> {
        match self {
            DestSet::Unicast(d) => {
                if *d == src {
                    Vec::new()
                } else {
                    vec![*d]
                }
            }
            DestSet::Multicast(list) => {
                let mut out: Vec<NodeId> = Vec::with_capacity(list.len());
                for &d in list {
                    if d != src && !out.contains(&d) {
                        out.push(d);
                    }
                }
                out
            }
            DestSet::Broadcast => (0..nodes as u16)
                .map(NodeId)
                .filter(|&n| n != src)
                .collect(),
        }
    }

    /// How many deliveries (or terminal failures) a packet from `src`
    /// to this set ends in: one per expanded destination, and the one
    /// local delivery a degenerate self-send still reports.
    pub fn deliveries(&self, src: NodeId, nodes: usize) -> usize {
        match self {
            DestSet::Unicast(_) => 1,
            _ => self.expand(src, nodes).len().max(1),
        }
    }

    /// Whether this is a multi-destination set.
    pub fn is_multi(&self) -> bool {
        match self {
            DestSet::Unicast(_) => false,
            DestSet::Multicast(list) => list.len() > 1,
            DestSet::Broadcast => true,
        }
    }
}

/// Destinations a message still has to reach, stored inline when short.
///
/// The Phastlane hot path clones and shrinks these lists on every launch
/// and delivery; a heap list would make that a malloc per event. Up to
/// [`TargetList::INLINE`] targets live directly in the structure — which
/// covers every per-column message an 8x8 broadcast produces — and only
/// longer lists (large-mesh broadcasts) spill to the heap. Order is
/// preserved; the list dereferences to a `[NodeId]` slice.
#[derive(Clone)]
pub struct TargetList(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [NodeId; TargetList::INLINE],
    },
    Spill(Vec<NodeId>),
}

impl TargetList {
    /// Number of targets stored without heap allocation.
    pub const INLINE: usize = 8;

    /// Creates an empty list.
    pub fn new() -> Self {
        TargetList(Repr::Inline {
            len: 0,
            buf: [NodeId(0); Self::INLINE],
        })
    }

    /// Appends a target, preserving order.
    pub fn push(&mut self, node: NodeId) {
        match &mut self.0 {
            Repr::Inline { len, buf } if (*len as usize) < Self::INLINE => {
                buf[*len as usize] = node;
                *len += 1;
            }
            Repr::Inline { len, buf } => {
                let mut v = Vec::with_capacity(Self::INLINE * 2);
                v.extend_from_slice(&buf[..*len as usize]);
                v.push(node);
                self.0 = Repr::Spill(v);
            }
            Repr::Spill(v) => v.push(node),
        }
    }

    /// Keeps only targets for which `f` returns true, preserving order.
    pub fn retain(&mut self, mut f: impl FnMut(&NodeId) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let mut kept = 0usize;
                for i in 0..*len as usize {
                    if f(&buf[i]) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spill(v) => v.retain(f),
        }
    }

    /// Removes all targets.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Spill(v) => v.clear(),
        }
    }

    /// The targets as a slice, in insertion order.
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spill(v) => v,
        }
    }

    /// The first target, if any.
    pub fn first(&self) -> Option<&NodeId> {
        self.as_slice().first()
    }

    /// Copies the current contents of `other` into `self`, reusing any
    /// spill capacity `self` already owns (the flight-pool reset path).
    pub fn clone_from_list(&mut self, other: &TargetList) {
        match (&mut self.0, &other.0) {
            (Repr::Spill(dst), Repr::Spill(src)) => {
                dst.clear();
                dst.extend_from_slice(src);
            }
            (Repr::Spill(dst), Repr::Inline { len, buf }) => {
                dst.clear();
                dst.extend_from_slice(&buf[..*len as usize]);
            }
            (dst, _) => *dst = other.0.clone(),
        }
    }
}

impl Default for TargetList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for TargetList {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl PartialEq for TargetList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TargetList {}

impl fmt::Debug for TargetList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<&[NodeId]> for TargetList {
    fn from(nodes: &[NodeId]) -> Self {
        nodes.iter().copied().collect()
    }
}

impl FromIterator<NodeId> for TargetList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut out = TargetList::new();
        for n in iter {
            out.push(n);
        }
        out
    }
}

impl<'a> IntoIterator for &'a TargetList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A request to inject one packet, handed to [`crate::network::Network::inject`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NewPacket {
    /// Source node.
    pub src: NodeId,
    /// Destination(s).
    pub dests: DestSet,
    /// Operation kind (statistics / multicast handling).
    pub kind: PacketKind,
}

impl NewPacket {
    /// Convenience constructor for a unicast data packet.
    pub fn unicast(src: NodeId, dst: NodeId) -> Self {
        NewPacket {
            src,
            dests: DestSet::Unicast(dst),
            kind: PacketKind::Data,
        }
    }

    /// Convenience constructor for a broadcast packet.
    pub fn broadcast(src: NodeId, kind: PacketKind) -> Self {
        NewPacket {
            src,
            dests: DestSet::Broadcast,
            kind,
        }
    }
}

/// Record of one packet copy arriving at one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Delivery {
    /// The packet.
    pub packet: PacketId,
    /// Source node.
    pub src: NodeId,
    /// The destination this copy arrived at.
    pub dest: NodeId,
    /// Cycle the packet entered the source NIC.
    pub injected_cycle: u64,
    /// Cycle this copy was delivered.
    pub delivered_cycle: u64,
}

impl Delivery {
    /// Latency from NIC entry to delivery at this destination.
    pub fn latency(&self) -> u64 {
        self.delivered_cycle.saturating_sub(self.injected_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_unicast() {
        let d = DestSet::Unicast(NodeId(5));
        assert_eq!(d.expand(NodeId(0), 64), vec![NodeId(5)]);
        // Self-send collapses to nothing.
        assert!(d.expand(NodeId(5), 64).is_empty());
    }

    #[test]
    fn deliveries_counts_destinations_and_the_local_self_send() {
        let (n0, n1, n5) = (NodeId(0), NodeId(1), NodeId(5));
        assert_eq!(DestSet::Unicast(n5).deliveries(n0, 64), 1);
        assert_eq!(DestSet::Unicast(n5).deliveries(n5, 64), 1);
        assert_eq!(DestSet::Broadcast.deliveries(n0, 64), 63);
        assert_eq!(
            DestSet::Multicast(vec![n1, n5, n1, n0]).deliveries(n0, 64),
            2
        );
        assert_eq!(DestSet::Multicast(vec![n0]).deliveries(n0, 64), 1);
    }

    #[test]
    fn expand_broadcast_excludes_source() {
        let d = DestSet::Broadcast.expand(NodeId(3), 8);
        assert_eq!(d.len(), 7);
        assert!(!d.contains(&NodeId(3)));
    }

    #[test]
    fn expand_multicast_dedups() {
        let d = DestSet::Multicast(vec![NodeId(1), NodeId(2), NodeId(1), NodeId(0)]);
        assert_eq!(d.expand(NodeId(0), 8), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn is_multi() {
        assert!(!DestSet::Unicast(NodeId(1)).is_multi());
        assert!(DestSet::Broadcast.is_multi());
        assert!(DestSet::Multicast(vec![NodeId(1), NodeId(2)]).is_multi());
        assert!(!DestSet::Multicast(vec![NodeId(1)]).is_multi());
    }

    #[test]
    fn snoop_broadcast_kinds() {
        assert!(PacketKind::ReadRequest.is_snoop_broadcast());
        assert!(PacketKind::Invalidate.is_snoop_broadcast());
        assert!(!PacketKind::DataResponse.is_snoop_broadcast());
        assert!(!PacketKind::Data.is_snoop_broadcast());
    }

    #[test]
    fn delivery_latency() {
        let d = Delivery {
            packet: PacketId(1),
            src: NodeId(0),
            dest: NodeId(1),
            injected_cycle: 10,
            delivered_cycle: 14,
        };
        assert_eq!(d.latency(), 4);
    }

    #[test]
    fn packet_size_is_80_bytes() {
        assert_eq!(PACKET_BITS, 640);
    }

    #[test]
    fn target_list_inline_then_spills() {
        let mut t = TargetList::new();
        assert!(t.is_empty());
        for i in 0..TargetList::INLINE as u16 {
            t.push(NodeId(i));
        }
        assert_eq!(t.len(), TargetList::INLINE);
        // One more forces the spill; order must be preserved across it.
        t.push(NodeId(100));
        assert_eq!(t.len(), TargetList::INLINE + 1);
        let expect: Vec<NodeId> = (0..TargetList::INLINE as u16)
            .map(NodeId)
            .chain([NodeId(100)])
            .collect();
        assert_eq!(t.as_slice(), expect.as_slice());
    }

    #[test]
    fn target_list_retain_preserves_order() {
        let mut t: TargetList = [1u16, 2, 3, 4, 5].into_iter().map(NodeId).collect();
        t.retain(|n| n.0 % 2 == 1);
        assert_eq!(t.as_slice(), &[NodeId(1), NodeId(3), NodeId(5)]);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn target_list_equality_ignores_representation() {
        let inline: TargetList = (0..4u16).map(NodeId).collect();
        let mut spilled: TargetList = (0..12u16).map(NodeId).collect();
        spilled.retain(|n| n.0 < 4);
        assert_eq!(inline, spilled);
        assert_eq!(spilled.first(), Some(&NodeId(0)));
    }

    #[test]
    fn target_list_clone_from_list_matches_clone() {
        let src: TargetList = (0..12u16).map(NodeId).collect();
        let mut dst = TargetList::new();
        dst.clone_from_list(&src);
        assert_eq!(dst, src);
        let short: TargetList = [NodeId(9)].as_slice().into();
        dst.clone_from_list(&short);
        assert_eq!(dst, short);
    }
}
