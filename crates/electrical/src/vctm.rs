//! Virtual Circuit Tree Multicasting (Jerger et al., ISCA 2008), the
//! broadcast mechanism the paper adds to its electrical baseline (§4).
//!
//! A multicast flit follows a dimension-order tree rooted at its source:
//! along the source's row in both directions, branching north/south into
//! each column. At each tree node the flit forks one copy per child
//! branch whose subtree still contains targets, and delivers locally if
//! this node is a target. Trees are deterministic from (source, current
//! node), which models VCTM's steady state where every tree is already
//! installed — a simplification that *favours the baseline* (no setup
//! unicasts).
//!
//! Target sets are [`NodeMask`] bitsets, sized for meshes up to 256
//! nodes. The subtree a branch covers depends only on the node and the
//! output direction, so [`TreeRegions`] holds those regions per mesh and
//! [`tree_fork`] is four mask intersections, not a scan of the mesh.

use phastlane_netsim::geometry::{Direction, Mesh, NodeId};
use phastlane_netsim::mask::NodeMask;

/// A set of multicast target nodes.
pub type TargetMask = NodeMask;

/// Builds a mask from a list of nodes.
pub fn mask_of(nodes: &[NodeId]) -> TargetMask {
    NodeMask::from_nodes(nodes.iter().copied())
}

/// Whether `node` is in `mask`.
pub fn mask_contains(mask: TargetMask, node: NodeId) -> bool {
    mask.contains(node)
}

/// Number of targets in a mask.
pub fn mask_len(mask: TargetMask) -> usize {
    mask.len()
}

/// One child branch of the multicast tree at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeBranch {
    /// Output direction of the branch.
    pub out: Direction,
    /// Targets covered by the branch's subtree.
    pub submask: TargetMask,
}

/// The child branches of one fork, in tree order (east, west, north,
/// south; at most one per direction). Dereferences to a slice.
#[derive(Debug, Clone, Copy)]
pub struct TreeBranches {
    items: [TreeBranch; 4],
    len: usize,
}

impl std::ops::Deref for TreeBranches {
    type Target = [TreeBranch];

    fn deref(&self) -> &[TreeBranch] {
        &self.items[..self.len]
    }
}

/// The subtree regions of one mesh: `region(at, dir)` is every node a
/// tree flit leaving `at` through `dir` can still reach — the columns
/// beyond `at` for east and west, the rest of `at`'s own column for
/// north and south. The regions depend on `(at, dir)` only, never on the
/// tree's source, so they are built once per mesh and a branch's
/// subtree is `mask & region`.
#[derive(Debug, Clone)]
pub struct TreeRegions {
    mesh: Mesh,
    /// `regions[at][dir as usize]`; empty for a mesh past the mask
    /// capacity, which can carry unicast traffic only.
    regions: Vec<[TargetMask; 4]>,
}

impl TreeRegions {
    /// Builds the region table of `mesh`.
    pub fn new(mesh: Mesh) -> Self {
        let mut regions = Vec::new();
        if mesh.nodes() <= phastlane_netsim::mask::MASK_CAPACITY {
            regions = vec![[NodeMask::EMPTY; 4]; mesh.nodes()];
            for (at, region) in mesh.iter_nodes().zip(&mut regions) {
                let a = mesh.coord(at);
                for n in mesh.iter_nodes() {
                    let c = mesh.coord(n);
                    let dir = if c.x > a.x {
                        Direction::East
                    } else if c.x < a.x {
                        Direction::West
                    } else if c.y < a.y {
                        Direction::North
                    } else if c.y > a.y {
                        Direction::South
                    } else {
                        continue;
                    };
                    region[dir as usize].insert(n);
                }
            }
        }
        TreeRegions { mesh, regions }
    }

    /// The nodes a tree flit leaving `at` through `dir` can reach.
    ///
    /// # Panics
    ///
    /// Panics if the mesh exceeds the 256-node mask capacity.
    pub fn region(&self, at: NodeId, dir: Direction) -> TargetMask {
        assert!(
            !self.regions.is_empty(),
            "target masks support up to 256 nodes"
        );
        self.regions[at.index()][dir as usize]
    }
}

/// The multicast tree decision at node `at` for a tree rooted at `src`:
/// the child branches (with non-empty subtrees) and whether `at` itself
/// is a delivery target.
///
/// # Panics
///
/// Panics if the mesh exceeds the 256-node mask capacity.
pub fn tree_fork(
    regions: &TreeRegions,
    src: NodeId,
    at: NodeId,
    mask: TargetMask,
) -> (TreeBranches, bool) {
    let s = regions.mesh.coord(src);
    let a = regions.mesh.coord(at);
    let deliver = mask_contains(mask, at);

    let mut branches = TreeBranches {
        items: [TreeBranch {
            out: Direction::North,
            submask: NodeMask::EMPTY,
        }; 4],
        len: 0,
    };
    let mut push = |out: Direction| {
        let submask = regions.region(at, out).and(&mask);
        if !submask.is_empty() {
            branches.items[branches.len] = TreeBranch { out, submask };
            branches.len += 1;
        }
    };

    if a.y == s.y {
        // On the source row: row continuation(s) plus column branches.
        if at == src {
            push(Direction::East);
            push(Direction::West);
        } else if a.x > s.x {
            push(Direction::East);
        } else {
            push(Direction::West);
        }
        push(Direction::North);
        push(Direction::South);
    } else if a.y < s.y {
        // Above the source row: continue north only.
        push(Direction::North);
    } else {
        push(Direction::South);
    }
    (branches, deliver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::geometry::Coord;

    fn broadcast_mask(mesh: Mesh, src: NodeId) -> TargetMask {
        mask_of(&mesh.iter_nodes().filter(|&n| n != src).collect::<Vec<_>>())
    }

    /// Walks the whole tree, asserting every target is delivered exactly
    /// once and branches never revisit nodes.
    fn walk(mesh: Mesh, src: NodeId, mask: TargetMask) -> Vec<NodeId> {
        let regions = TreeRegions::new(mesh);
        let mut delivered = Vec::new();
        let mut frontier = vec![(src, mask)];
        let mut visited = std::collections::HashSet::new();
        while let Some((at, m)) = frontier.pop() {
            assert!(visited.insert((at, m)), "revisited {at}");
            let (branches, deliver) = tree_fork(&regions, src, at, m);
            if deliver {
                delivered.push(at);
            }
            // Branch submasks partition the remaining targets.
            let mut seen = if deliver {
                NodeMask::from_nodes([at])
            } else {
                NodeMask::EMPTY
            };
            for b in branches.iter() {
                assert!(
                    !seen.intersects(&b.submask),
                    "overlapping branch submasks at {at}"
                );
                seen = seen.or(&b.submask);
                let next = mesh.neighbor(at, b.out).expect("branch stays in mesh");
                frontier.push((next, b.submask));
            }
            assert_eq!(
                seen, m,
                "branches + local delivery must cover the mask at {at}"
            );
        }
        delivered.sort_unstable();
        delivered
    }

    #[test]
    fn broadcast_tree_covers_all_nodes_from_every_source() {
        let mesh = Mesh::PAPER;
        for src in mesh.iter_nodes() {
            let mask = broadcast_mask(mesh, src);
            let delivered = walk(mesh, src, mask);
            assert_eq!(delivered.len(), 63, "src {src}");
        }
    }

    #[test]
    fn subset_tree_covers_exactly_the_subset() {
        let mesh = Mesh::PAPER;
        let targets = [NodeId(3), NodeId(42), NodeId(17), NodeId(60)];
        let mask = mask_of(&targets);
        let delivered = walk(mesh, NodeId(9), mask);
        let mut expect: Vec<NodeId> = targets.to_vec();
        expect.sort_unstable();
        assert_eq!(delivered, expect);
    }

    #[test]
    fn source_in_mask_is_ignored_by_fork_children() {
        let mesh = Mesh::PAPER;
        // A mask containing the source: tree_fork at src reports
        // deliver=true (caller decides), children exclude it.
        let mask = mask_of(&[NodeId(0), NodeId(1)]);
        let (branches, deliver) = tree_fork(&TreeRegions::new(mesh), NodeId(0), NodeId(0), mask);
        assert!(deliver);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].out, Direction::East);
        assert_eq!(branches[0].submask, mask_of(&[NodeId(1)]));
    }

    #[test]
    fn off_row_nodes_continue_along_column_only() {
        let mesh = Mesh::PAPER;
        let src = NodeId(0); // (0,0)
        let at = mesh.node_at(Coord { x: 0, y: 2 });
        let mask = broadcast_mask(mesh, src);
        let (branches, _) = tree_fork(&TreeRegions::new(mesh), src, at, mask);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].out, Direction::South);
    }

    #[test]
    fn regions_are_the_coordinate_predicates() {
        for mesh in [Mesh::PAPER, Mesh::new(8, 4), Mesh::new(3, 5)] {
            let regions = TreeRegions::new(mesh);
            for at in mesh.iter_nodes() {
                let a = mesh.coord(at);
                let scan = |pred: &dyn Fn(Coord) -> bool| {
                    NodeMask::from_nodes(mesh.iter_nodes().filter(|&n| pred(mesh.coord(n))))
                };
                let want = [
                    (Direction::East, scan(&|c| c.x > a.x)),
                    (Direction::West, scan(&|c| c.x < a.x)),
                    (Direction::North, scan(&|c| c.x == a.x && c.y < a.y)),
                    (Direction::South, scan(&|c| c.x == a.x && c.y > a.y)),
                ];
                for (dir, mask) in want {
                    assert_eq!(regions.region(at, dir), mask, "{at} {dir}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "256 nodes")]
    fn a_mesh_past_the_mask_capacity_has_no_regions() {
        let regions = TreeRegions::new(Mesh::new(20, 20));
        let _ = regions.region(NodeId(0), Direction::East);
    }

    #[test]
    fn mask_helpers() {
        let m = mask_of(&[NodeId(0), NodeId(63)]);
        assert!(mask_contains(m, NodeId(0)));
        assert!(mask_contains(m, NodeId(63)));
        assert!(!mask_contains(m, NodeId(5)));
        assert_eq!(mask_len(m), 2);
    }

    #[test]
    fn empty_mask_no_branches() {
        let regions = TreeRegions::new(Mesh::PAPER);
        let (branches, deliver) = tree_fork(&regions, NodeId(5), NodeId(5), NodeMask::EMPTY);
        assert!(branches.is_empty());
        assert!(!deliver);
    }

    #[test]
    fn broadcast_tree_covers_a_16x16_mesh() {
        // "Tens and eventually hundreds of processing cores": the tree
        // generalizes past 64 nodes.
        let mesh = Mesh::new(16, 16);
        let src = NodeId(100);
        let mask = NodeMask::from_nodes(mesh.iter_nodes().filter(|&n| n != src));
        let delivered = walk(mesh, src, mask);
        assert_eq!(delivered.len(), 255);
    }
}
