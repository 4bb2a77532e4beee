//! Channel-dependency-graph (CDG) deadlock analysis (Dally–Seitz).
//!
//! A *channel* is one directed mesh link — the pair `(upstream node,
//! direction)`. The routing function induces *dependencies* between
//! channels: if some packet can occupy channel `a` while waiting for
//! channel `b` at the router between them, the CDG has an edge `a -> b`.
//! Dally & Seitz: a routing function is deadlock-free on a network iff
//! its CDG is acyclic. When it is not, the analyzer produces a concrete
//! **minimal witness cycle** — the shortest channel loop a blocked-packet
//! chain could close — rather than a bare boolean, so a broken routing
//! policy is debuggable from the report alone.
//!
//! Two builders cover the repo's routing functions:
//!
//! * [`Cdg::of_mesh_xy`] — dimension-order (XY) routing on a
//!   [`Mesh`], including the fault-rerouting detours of
//!   [`FaultView::unicast_hop`] (which take a hop through the *other*
//!   dimension and therefore add YX turns to the turn set). With an
//!   empty fault plan this is the paper's baseline and is provably
//!   acyclic (the XY turn model); under fault plans the mixed XY/YX
//!   turn set can close cycles, which the analyzer reports.
//! * [`Cdg::of_ring_dor`] — naive dimension-order routing on a 1-D
//!   **torus** (a wraparound ring): every packet keeps moving "east"
//!   until it arrives. The wraparound channel closes the classic ring
//!   cycle, the textbook deadlocking configuration; this is the
//!   analyzer's known-answer seed for a failing verdict.
//!
//! The walk runs the networks' own fault-routing rule over
//! [`FaultView::all_active`], every scheduled fault treated as
//! permanent: a static verdict must hold at every cycle the fault could
//! be active.

use phastlane_netsim::fault::{FaultPlan, FaultView, Hop};
use phastlane_netsim::geometry::{Direction, Mesh, NodeId};
use std::fmt;

/// One directed mesh link: the channel leaving `node` toward `dir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    /// Upstream endpoint.
    pub node: NodeId,
    /// Link direction out of `node`.
    pub dir: Direction,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.node, self.dir)
    }
}

/// The channel-dependency graph over a fixed node count.
///
/// Channels are densely indexed as `node * 4 + direction`; edges are
/// deduplicated and kept sorted, so every query below is deterministic.
#[derive(Debug, Clone)]
pub struct Cdg {
    nodes: usize,
    edges: Vec<Vec<usize>>,
}

impl Cdg {
    /// An empty CDG over `nodes` mesh nodes.
    pub fn new(nodes: usize) -> Cdg {
        Cdg {
            nodes,
            edges: vec![Vec::new(); nodes * 4],
        }
    }

    fn index(&self, c: Channel) -> usize {
        c.node.index() * 4 + c.dir as usize
    }

    fn channel(&self, index: usize) -> Channel {
        Channel {
            node: NodeId((index / 4) as u16),
            dir: Direction::ALL[index % 4],
        }
    }

    /// Records that a packet occupying `from` can wait for `to`.
    pub fn add_dependency(&mut self, from: Channel, to: Channel) {
        let (f, t) = (self.index(from), self.index(to));
        let row = &mut self.edges[f];
        if let Err(pos) = row.binary_search(&t) {
            row.insert(pos, t);
        }
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Number of channels that appear in at least one dependency.
    pub fn active_channels(&self) -> usize {
        let mut used = vec![false; self.edges.len()];
        for (i, row) in self.edges.iter().enumerate() {
            if !row.is_empty() {
                used[i] = true;
            }
            for &t in row {
                used[t] = true;
            }
        }
        used.iter().filter(|&&u| u).count()
    }

    /// Total node count the graph was built over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The shortest dependency cycle, as the channel sequence
    /// `c0 -> c1 -> ... -> c0` (first channel not repeated), or `None`
    /// when the CDG is acyclic — i.e. the routing function is
    /// deadlock-free on this topology (Dally–Seitz).
    ///
    /// Minimality: a BFS from every channel back to itself finds the
    /// globally shortest cycle; ties break toward the lowest starting
    /// channel index, so the witness is deterministic.
    pub fn shortest_cycle(&self) -> Option<Vec<Channel>> {
        let n = self.edges.len();
        let mut best: Option<Vec<usize>> = None;
        let mut parent = vec![usize::MAX; n];
        let mut dist = vec![u32::MAX; n];
        for start in 0..n {
            if self.edges[start].is_empty() {
                continue;
            }
            if let Some(b) = &best {
                if b.len() == 1 {
                    break; // a self-loop can't be beaten
                }
            }
            // BFS from the successors of `start` back to `start`.
            parent.fill(usize::MAX);
            dist.fill(u32::MAX);
            let mut queue = std::collections::VecDeque::new();
            dist[start] = 0;
            queue.push_back(start);
            'bfs: while let Some(u) = queue.pop_front() {
                for &v in &self.edges[u] {
                    if v == start {
                        // Closed a cycle of length dist[u] + 1.
                        let mut cycle = Vec::with_capacity(dist[u] as usize + 1);
                        let mut cur = u;
                        while cur != usize::MAX {
                            cycle.push(cur);
                            cur = parent[cur];
                        }
                        cycle.reverse(); // start .. u in walk order
                        if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                            best = Some(cycle);
                        }
                        break 'bfs;
                    }
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        parent[v] = u;
                        // Prune paths already no shorter than the best.
                        if best.as_ref().is_none_or(|b| (dist[v] as usize) < b.len()) {
                            queue.push_back(v);
                        }
                    }
                }
            }
        }
        best.map(|cycle| cycle.into_iter().map(|i| self.channel(i)).collect())
    }

    /// Builds the CDG of XY dimension-order routing (plus the
    /// fault-plan's detours) on `mesh`: every (src, dst) pair's static
    /// walk contributes one dependency per consecutive channel pair.
    /// Unreachable pairs contribute the prefix walked before the
    /// partition — those channels can still hold waiting packets.
    pub fn of_mesh_xy(mesh: Mesh, plan: &FaultPlan) -> Cdg {
        let view = FaultView::all_active(plan, mesh);
        let mut cdg = Cdg::new(mesh.nodes());
        for src in mesh.iter_nodes() {
            for dst in mesh.iter_nodes() {
                if src == dst {
                    continue;
                }
                let channels = match route_walk(mesh, &view, src, dst) {
                    Walk::Reached(c) => c,
                    Walk::Partitioned { walked, .. } => walked,
                };
                for pair in channels.windows(2) {
                    cdg.add_dependency(pair[0], pair[1]);
                }
            }
        }
        cdg
    }

    /// Builds the CDG of naive dimension-order routing on a 1-D torus
    /// (unidirectional wraparound ring of `len` nodes): every packet
    /// moves "east", wrapping from the last node back to node 0, until
    /// it reaches its destination.
    ///
    /// This is the textbook deadlocking configuration — the wraparound
    /// link closes a dependency cycle through every ring channel — and
    /// serves as the analyzer's known-answer failing input. (The
    /// workspace [`Mesh`] is deliberately torus-free; this synthetic
    /// view exists so the failing verdict stays testable.)
    ///
    /// # Panics
    ///
    /// Panics if `len < 2` (a ring needs at least two nodes).
    pub fn of_ring_dor(len: u16) -> Cdg {
        assert!(len >= 2, "a ring needs at least two nodes");
        let mut cdg = Cdg::new(usize::from(len));
        let east = |i: u16| Channel {
            node: NodeId(i),
            dir: Direction::East,
        };
        for src in 0..len {
            for dst in 0..len {
                if src == dst {
                    continue;
                }
                let mut cur = src;
                while cur != dst {
                    let next = (cur + 1) % len;
                    if next != dst {
                        cdg.add_dependency(east(cur), east(next));
                    }
                    cur = next;
                }
            }
        }
        cdg
    }
}

/// The outcome of one static route walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Walk {
    /// The destination is reachable; the channel sequence traversed.
    Reached(Vec<Channel>),
    /// The walk wedged before the destination.
    Partitioned {
        /// The node where no productive live hop remained.
        at: NodeId,
        /// The channels traversed up to the wedge.
        walked: Vec<Channel>,
    },
}

/// Statically walks the routing function from `src` to `dst` over
/// `view` (the analyzer passes [`FaultView::all_active`]): at each node
/// take the hop [`FaultView::unicast_hop`] answers, the rule both
/// networks run, or report the pair partitioned where it stalls.
///
/// Every step strictly decreases the Manhattan distance to `dst`, so the
/// walk always terminates in at most `distance(src, dst)` hops.
pub fn route_walk(mesh: Mesh, view: &FaultView, src: NodeId, dst: NodeId) -> Walk {
    let mut walked = Vec::new();
    let mut cur = src;
    while cur != dst {
        let dir = match view.unicast_hop(mesh, cur, dst) {
            Hop::Xy(dir) | Hop::Detour(dir) => dir,
            Hop::Stalled(_) => return Walk::Partitioned { at: cur, walked },
        };
        walked.push(Channel { node: cur, dir });
        cur = mesh
            .neighbor(cur, dir)
            .expect("live hops stay inside the mesh");
    }
    Walk::Reached(walked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::fault::{Fault, FaultKind};

    #[test]
    fn paper_mesh_xy_is_deadlock_free() {
        // Known answer: the 8x8 mesh under fault-free dimension-order
        // routing obeys the XY turn model, so its CDG must be acyclic.
        let cdg = Cdg::of_mesh_xy(Mesh::PAPER, &FaultPlan::new());
        assert!(cdg.edge_count() > 0, "the CDG is non-trivial");
        assert_eq!(cdg.shortest_cycle(), None);
    }

    #[test]
    fn all_mesh_sizes_stay_acyclic_without_faults() {
        for (w, h) in [(2, 2), (4, 4), (8, 2), (3, 5)] {
            let cdg = Cdg::of_mesh_xy(Mesh::new(w, h), &FaultPlan::new());
            assert_eq!(cdg.shortest_cycle(), None, "{w}x{h}");
        }
    }

    #[test]
    fn torus_ring_dor_yields_the_full_ring_witness() {
        // Known answer: naive DOR on a wraparound ring closes the
        // textbook channel cycle through every ring link — the witness
        // is the whole ring, every hop eastward.
        let cdg = Cdg::of_ring_dor(4);
        let witness = cdg.shortest_cycle().expect("ring DOR deadlocks");
        assert_eq!(witness.len(), 4);
        for (i, c) in witness.iter().enumerate() {
            assert_eq!(c.dir, Direction::East);
            // Consecutive witness channels chain around the ring.
            let next = &witness[(i + 1) % witness.len()];
            assert_eq!((c.node.0 + 1) % 4, next.node.0);
        }
    }

    #[test]
    fn witness_is_minimal() {
        // A hand-built CDG with a 5-cycle and a 2-cycle: the witness
        // must be the 2-cycle.
        let mut cdg = Cdg::new(4);
        let c = |node: u16, dir| Channel {
            node: NodeId(node),
            dir,
        };
        let five = [
            c(0, Direction::East),
            c(1, Direction::East),
            c(2, Direction::East),
            c(3, Direction::West),
            c(2, Direction::West),
        ];
        for i in 0..five.len() {
            cdg.add_dependency(five[i], five[(i + 1) % five.len()]);
        }
        cdg.add_dependency(c(1, Direction::North), c(1, Direction::South));
        cdg.add_dependency(c(1, Direction::South), c(1, Direction::North));
        let witness = cdg.shortest_cycle().expect("cycles exist");
        assert_eq!(witness.len(), 2, "{witness:?}");
    }

    #[test]
    fn route_walk_matches_xy_when_fault_free() {
        let mesh = Mesh::new(4, 4);
        let view = FaultView::all_active(&FaultPlan::new(), mesh);
        for src in mesh.iter_nodes() {
            for dst in mesh.iter_nodes() {
                match route_walk(mesh, &view, src, dst) {
                    Walk::Reached(channels) => {
                        assert_eq!(channels.len() as u32, mesh.distance(src, dst));
                    }
                    Walk::Partitioned { .. } => panic!("{src}->{dst} partitioned without faults"),
                }
            }
        }
    }

    #[test]
    fn route_walk_detours_around_a_dead_link() {
        // 0 -> 5 on a 4x4 mesh with the east link out of 0 dead: the
        // static walk takes the one-hop detour and goes south first.
        let mesh = Mesh::new(4, 4);
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LinkDown {
            node: NodeId(0),
            dir: Direction::East,
        }));
        let view = FaultView::all_active(&plan, mesh);
        match route_walk(mesh, &view, NodeId(0), NodeId(5)) {
            Walk::Reached(channels) => {
                assert_eq!(channels[0].dir, Direction::South);
                assert_eq!(channels.len(), 2);
            }
            w => panic!("expected a detour, got {w:?}"),
        }
        // 0 -> 1 shares the row: no productive alternative.
        assert_eq!(
            route_walk(mesh, &view, NodeId(0), NodeId(1)),
            Walk::Partitioned {
                at: NodeId(0),
                walked: vec![]
            }
        );
    }

    #[test]
    fn transient_faults_count_as_worst_case() {
        let mesh = Mesh::new(4, 4);
        let mut plan = FaultPlan::new();
        plan.push(Fault::transient(
            FaultKind::LinkDown {
                node: NodeId(0),
                dir: Direction::East,
            },
            100,
            10,
        ));
        let view = FaultView::all_active(&plan, mesh);
        assert!(view.blocked(NodeId(0), Direction::East));
        assert!(!view.blocked(NodeId(1), Direction::East));
        // Outside the window too, the static walk detours.
        assert_eq!(
            view.unicast_hop(mesh, NodeId(0), NodeId(5)),
            Hop::Detour(Direction::South)
        );
    }

    #[test]
    fn channel_display_and_index_roundtrip() {
        let cdg = Cdg::new(16);
        for node in 0..16u16 {
            for dir in Direction::ALL {
                let c = Channel {
                    node: NodeId(node),
                    dir,
                };
                assert_eq!(cdg.channel(cdg.index(c)), c);
            }
        }
        let c = Channel {
            node: NodeId(3),
            dir: Direction::East,
        };
        assert_eq!(c.to_string(), "n3->E");
    }
}
