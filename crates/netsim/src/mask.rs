//! A fixed-capacity node bitset supporting meshes of up to 256 nodes —
//! the "tens and eventually hundreds of processing cores" the paper's
//! introduction targets.

use crate::geometry::NodeId;
use std::fmt;

/// Number of nodes a [`NodeMask`] can address.
pub const MASK_CAPACITY: usize = 256;
const WORDS: usize = MASK_CAPACITY / 64;

/// The set bits of `word`, ascending. Callers with a multi-word mask run
/// it over a *copy* of each word inside a loop over the words; keep that
/// two-level form — a flat cursor walk over the live mask changed what
/// LLVM inlines into the optical `step` and gave back most of the busy
/// worklist's gain (EXPERIMENTS.md "Optical core: busy-router worklist").
#[inline]
pub fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// A set of nodes as a 256-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeMask {
    words: [u64; WORDS],
}

impl NodeMask {
    /// The empty set.
    pub const EMPTY: NodeMask = NodeMask { words: [0; WORDS] };

    /// Builds a mask from nodes.
    ///
    /// # Panics
    ///
    /// Panics if any node index is ≥ [`MASK_CAPACITY`].
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut m = NodeMask::EMPTY;
        for n in nodes {
            m.insert(n);
        }
        m
    }

    /// Inserts a node.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of capacity.
    pub fn insert(&mut self, node: NodeId) {
        let i = node.index();
        assert!(i < MASK_CAPACITY, "node {node} exceeds mask capacity");
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes a node (no-op if absent).
    pub fn remove(&mut self, node: NodeId) {
        let i = node.index();
        if i < MASK_CAPACITY {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Whether the node is present.
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        i < MASK_CAPACITY && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set intersection.
    #[must_use]
    pub fn and(&self, other: &NodeMask) -> NodeMask {
        let mut out = NodeMask::EMPTY;
        for i in 0..WORDS {
            out.words[i] = self.words[i] & other.words[i];
        }
        out
    }

    /// Set union.
    #[must_use]
    pub fn or(&self, other: &NodeMask) -> NodeMask {
        let mut out = NodeMask::EMPTY;
        for i in 0..WORDS {
            out.words[i] = self.words[i] | other.words[i];
        }
        out
    }

    /// Elements of `self` not in `other`.
    #[must_use]
    pub fn minus(&self, other: &NodeMask) -> NodeMask {
        let mut out = NodeMask::EMPTY;
        for i in 0..WORDS {
            out.words[i] = self.words[i] & !other.words[i];
        }
        out
    }

    /// Whether the two sets share any node.
    pub fn intersects(&self, other: &NodeMask) -> bool {
        !self.and(other).is_empty()
    }

    /// Iterates the nodes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..WORDS).flat_map(move |w| {
            set_bits(self.words[w]).map(move |bit| NodeId((w * 64 + bit) as u16))
        })
    }
}

impl FromIterator<NodeId> for NodeMask {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        NodeMask::from_nodes(iter)
    }
}

impl fmt::Display for NodeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", n.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut m = NodeMask::EMPTY;
        assert!(m.is_empty());
        m.insert(NodeId(0));
        m.insert(NodeId(63));
        m.insert(NodeId(64));
        m.insert(NodeId(255));
        assert_eq!(m.len(), 4);
        for n in [0u16, 63, 64, 255] {
            assert!(m.contains(NodeId(n)));
        }
        assert!(!m.contains(NodeId(100)));
        m.remove(NodeId(64));
        assert!(!m.contains(NodeId(64)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn set_algebra() {
        let a = NodeMask::from_nodes([NodeId(1), NodeId(2), NodeId(200)]);
        let b = NodeMask::from_nodes([NodeId(2), NodeId(3)]);
        assert_eq!(a.and(&b), NodeMask::from_nodes([NodeId(2)]));
        assert_eq!(
            a.or(&b),
            NodeMask::from_nodes([NodeId(1), NodeId(2), NodeId(3), NodeId(200)])
        );
        assert_eq!(a.minus(&b), NodeMask::from_nodes([NodeId(1), NodeId(200)]));
        assert!(a.intersects(&b));
        assert!(!a.minus(&b).intersects(&b));
    }

    #[test]
    fn iter_ascending_across_words() {
        let m = NodeMask::from_nodes([NodeId(200), NodeId(5), NodeId(64), NodeId(63)]);
        let v: Vec<u16> = m.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![5, 63, 64, 200]);
    }

    #[test]
    fn display_lists_members() {
        let m = NodeMask::from_nodes([NodeId(3), NodeId(1)]);
        assert_eq!(m.to_string(), "{1,3}");
        assert_eq!(NodeMask::EMPTY.to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn over_capacity_rejected() {
        let mut m = NodeMask::EMPTY;
        m.insert(NodeId(256));
    }

    #[test]
    fn from_iterator() {
        let m: NodeMask = (0..10u16).map(NodeId).collect();
        assert_eq!(m.len(), 10);
    }
}
