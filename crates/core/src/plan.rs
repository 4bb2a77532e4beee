//! Flight plans: the per-cycle optical traversal a launched packet
//! attempts.
//!
//! A launch covers up to `max_hops` hops of the packet's dimension-order
//! path in a single cycle (§2.1.3). The plan lists, for every router
//! touched, how the packet enters, whether the local node receives a copy
//! (multicast tap), and how it leaves — forward, final accept, or an
//! interim stop where the packet is electrically buffered and relaunched
//! in a later cycle.

use phastlane_netsim::geometry::{Direction, Mesh, NodeId};
use phastlane_netsim::routing::{classify_turn, xy_route_prefix_into, Turn};

/// Why a plan ends at its last router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopKind {
    /// The last delivery target: the packet is received and consumed.
    Accept,
    /// An interim node: the packet is buffered and relaunched later
    /// (its Local control bit is set but more route remains).
    Interim,
}

/// How the packet leaves a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepExit {
    /// Continue through the given output port.
    Forward(Direction),
    /// Stop here.
    Stop(StopKind),
}

/// One router touched by a flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// The router.
    pub router: NodeId,
    /// Input direction the packet arrives from (`None` at the launch
    /// router, where the packet enters from the electrical buffers).
    pub entry: Option<Direction>,
    /// Whether this router's local node receives a copy via a broadcast
    /// tap resonator (multicast target en route, §2.1.4).
    pub tap: bool,
    /// How the packet leaves.
    pub exit: StepExit,
}

impl PlanStep {
    /// The turn class of a forwarding step, used for fixed-priority
    /// arbitration (straight beats turns). Launch steps have no entry and
    /// are classed separately by the router (buffered packets have
    /// priority).
    pub fn turn(&self) -> Option<Turn> {
        match (self.entry, self.exit) {
            (Some(from), StepExit::Forward(to)) => Some(classify_turn(from, to)),
            _ => None,
        }
    }
}

/// The traversal a single launch attempts in one cycle.
///
/// The `Default` plan is empty and only valid as pooled storage for a
/// later [`Plan::rebuild_with`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    steps: Vec<PlanStep>,
}

impl Plan {
    /// Builds a plan from `from` through `targets` (in path order),
    /// covering at most `max_hops` hops. `multicast` marks en-route
    /// targets as taps.
    ///
    /// The concatenated XY paths between consecutive waypoints must not
    /// fold back on themselves (no U-turns); the multicast splitter
    /// guarantees this by ordering targets monotonically along a column.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty, contains `from`, or produces a
    /// U-turn.
    pub fn build(
        mesh: Mesh,
        from: NodeId,
        targets: &[NodeId],
        multicast: bool,
        max_hops: u32,
    ) -> Plan {
        let mut plan = Plan { steps: Vec::new() };
        let mut dirs = Vec::new();
        plan.rebuild_with(&mut dirs, mesh, from, targets, multicast, max_hops);
        plan
    }

    /// Rebuilds this plan in place, reusing its step storage and the
    /// caller's `dirs` scratch buffer — the hot path builds one plan per
    /// launch, so this avoids two allocations per launch.
    ///
    /// Only the segment is computed: hop directions are collected as far
    /// as one past `max_hops` (a hop beyond the segment is what tells a
    /// final accept from an interim stop) and the rest of the itinerary
    /// is left for the relaunch that will fly it. A U-turn is therefore
    /// caught by the launch whose segment reaches it.
    ///
    /// Same contract and panics as [`Plan::build`].
    pub fn rebuild_with(
        &mut self,
        dirs: &mut Vec<Direction>,
        mesh: Mesh,
        from: NodeId,
        targets: &[NodeId],
        multicast: bool,
        max_hops: u32,
    ) {
        assert!(!targets.is_empty(), "plan needs at least one target");
        assert!(max_hops > 0, "max_hops must be positive");

        let seg_limit = max_hops as usize;
        let horizon = seg_limit.saturating_add(1);
        dirs.clear();
        let mut cursor = from;
        for &t in targets {
            assert!(t != cursor, "target {t} coincides with current position");
            if dirs.len() < horizon {
                xy_route_prefix_into(mesh, cursor, t, horizon, dirs);
            }
            cursor = t;
        }
        debug_assert!(
            dirs.windows(2).all(|w| w[1] != w[0].opposite()),
            "multicast target order produced a U-turn from {from} through {targets:?}"
        );

        let seg_hops = dirs.len().min(seg_limit);
        let route_ends_here = dirs.len() == seg_hops;

        let steps = &mut self.steps;
        steps.clear();
        steps.reserve(seg_hops + 1);
        steps.push(PlanStep {
            router: from,
            entry: None,
            tap: false,
            exit: StepExit::Forward(dirs[0]),
        });
        // Row-major ids: a hop is ±1 along a row, ±width along a column.
        // Stepping off the north or south edge leaves the id range (a
        // wrapped id is far outside it); the hop counts come from
        // coordinate differences, so a row cannot be overrun.
        let width = mesh.width();
        let mut node = from;
        for (i, &dir) in dirs.iter().take(seg_hops).enumerate() {
            node = NodeId(match dir {
                Direction::North => node.0.wrapping_sub(width),
                Direction::South => node.0.wrapping_add(width),
                Direction::East => node.0.wrapping_add(1),
                Direction::West => node.0.wrapping_sub(1),
            });
            assert!(mesh.contains(node), "route stays in mesh");
            let is_last_of_segment = i + 1 == seg_hops;
            let exit = if is_last_of_segment {
                if route_ends_here {
                    StepExit::Stop(StopKind::Accept)
                } else {
                    StepExit::Stop(StopKind::Interim)
                }
            } else {
                StepExit::Forward(dirs[i + 1])
            };
            // A target reached mid-flight is a tap; the final Accept
            // consumes the packet at the last target directly. The
            // target scan is skipped outright for unicast plans (the
            // overwhelmingly common case on the hot path).
            let tap =
                multicast && exit != StepExit::Stop(StopKind::Accept) && targets.contains(&node);
            steps.push(PlanStep {
                router: node,
                entry: Some(dir),
                tap,
                exit,
            });
        }
    }

    /// The builder [`rebuild_with`](Self::rebuild_with) replaced, kept
    /// verbatim as its test reference: routes the whole itinerary
    /// through every target, then walks the segment with
    /// [`Mesh::neighbor`].
    #[cfg(test)]
    fn reference_rebuild(
        &mut self,
        dirs: &mut Vec<Direction>,
        mesh: Mesh,
        from: NodeId,
        targets: &[NodeId],
        multicast: bool,
        max_hops: u32,
    ) {
        assert!(!targets.is_empty(), "plan needs at least one target");
        assert!(max_hops > 0, "max_hops must be positive");

        // Full hop direction list through all targets, and the set of
        // nodes that are targets.
        dirs.clear();
        let mut cursor = from;
        for &t in targets {
            assert!(t != cursor, "target {t} coincides with current position");
            phastlane_netsim::routing::xy_route_into(mesh, cursor, t, dirs);
            cursor = t;
        }
        debug_assert!(
            dirs.windows(2).all(|w| w[1] != w[0].opposite()),
            "multicast target order produced a U-turn from {from} through {targets:?}"
        );

        let total_hops = dirs.len() as u32;
        let seg_hops = total_hops.min(max_hops) as usize;

        let steps = &mut self.steps;
        steps.clear();
        steps.reserve(seg_hops + 1);
        steps.push(PlanStep {
            router: from,
            entry: None,
            tap: false,
            exit: StepExit::Forward(dirs[0]),
        });
        let mut node = from;
        for (i, &dir) in dirs.iter().take(seg_hops).enumerate() {
            node = mesh.neighbor(node, dir).expect("route stays in mesh");
            let is_last_of_segment = i + 1 == seg_hops;
            let exit = if is_last_of_segment {
                if (i as u32) + 1 == total_hops {
                    StepExit::Stop(StopKind::Accept)
                } else {
                    StepExit::Stop(StopKind::Interim)
                }
            } else {
                StepExit::Forward(dirs[i + 1])
            };
            // A target reached mid-flight is a tap; the final Accept
            // consumes the packet at the last target directly. The
            // target scan is skipped outright for unicast plans (the
            // overwhelmingly common case on the hot path).
            let tap =
                multicast && exit != StepExit::Stop(StopKind::Accept) && targets.contains(&node);
            steps.push(PlanStep {
                router: node,
                entry: Some(dir),
                tap,
                exit,
            });
        }
    }

    /// The steps, launch router first.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Number of hops this plan covers (steps minus the launch router).
    pub fn hops(&self) -> u32 {
        (self.steps.len() - 1) as u32
    }

    /// Output port of the launch router.
    pub fn first_exit(&self) -> Direction {
        match self.steps[0].exit {
            StepExit::Forward(d) => d,
            StepExit::Stop(_) => unreachable!("launch step always forwards"),
        }
    }

    /// Whether the plan ends in an interim stop (more route remains after
    /// this cycle).
    pub fn ends_at_interim(&self) -> bool {
        matches!(
            self.steps.last().expect("plan non-empty").exit,
            StepExit::Stop(StopKind::Interim)
        )
    }

    /// The delivery targets this plan reaches (taps plus a final accept).
    pub fn deliveries(&self) -> Vec<NodeId> {
        self.steps
            .iter()
            .filter(|s| s.tap || s.exit == StepExit::Stop(StopKind::Accept))
            .map(|s| s.router)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::geometry::Coord;

    fn mesh() -> Mesh {
        Mesh::PAPER
    }

    fn vd(ids: &[u16]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn short_unicast_fits_one_segment() {
        let p = Plan::build(mesh(), NodeId(0), &vd(&[3]), false, 4);
        assert_eq!(p.hops(), 3);
        assert!(!p.ends_at_interim());
        assert_eq!(p.deliveries(), vec![NodeId(3)]);
        assert_eq!(p.first_exit(), Direction::East);
    }

    #[test]
    fn long_unicast_truncates_at_interim() {
        // 0 -> 63 is 14 hops; with 4 hops/cycle the first segment stops at
        // the 4th router along the XY path.
        let p = Plan::build(mesh(), NodeId(0), &vd(&[63]), false, 4);
        assert_eq!(p.hops(), 4);
        assert!(p.ends_at_interim());
        assert_eq!(p.steps().last().unwrap().router, NodeId(4));
        assert!(p.deliveries().is_empty());
    }

    #[test]
    fn exact_boundary_is_accept_not_interim() {
        let p = Plan::build(mesh(), NodeId(0), &vd(&[4]), false, 4);
        assert_eq!(p.hops(), 4);
        assert!(!p.ends_at_interim());
        assert_eq!(p.deliveries(), vec![NodeId(4)]);
    }

    #[test]
    fn multicast_taps_en_route_targets() {
        // Down column 2 from (2,0): targets (2,1), (2,2), (2,3).
        let m = mesh();
        let src = m.node_at(Coord { x: 2, y: 0 });
        let t = |y| m.node_at(Coord { x: 2, y }).0;
        let p = Plan::build(m, src, &vd(&[t(1), t(2), t(3)]), true, 8);
        assert_eq!(p.hops(), 3);
        assert_eq!(
            p.deliveries(),
            vec![NodeId(t(1)), NodeId(t(2)), NodeId(t(3))]
        );
        // First two are taps, last is an accept.
        let taps: Vec<bool> = p.steps()[1..].iter().map(|s| s.tap).collect();
        assert_eq!(taps, vec![true, true, false]);
        assert_eq!(
            p.steps().last().unwrap().exit,
            StepExit::Stop(StopKind::Accept)
        );
    }

    #[test]
    fn multicast_interim_on_truncation() {
        // Row traversal then a long column, truncated mid-column.
        let m = mesh();
        let src = m.node_at(Coord { x: 0, y: 0 });
        let targets = vd(&[
            m.node_at(Coord { x: 3, y: 2 }).0,
            m.node_at(Coord { x: 3, y: 6 }).0,
        ]);
        let p = Plan::build(m, src, &targets, true, 5);
        assert_eq!(p.hops(), 5);
        assert!(p.ends_at_interim());
        // The tap at (3,2) happens inside the segment (3 + 2 = 5 hops is
        // the segment end, which is the tap router -> tap + interim).
        let last = p.steps().last().unwrap();
        assert_eq!(last.router, m.node_at(Coord { x: 3, y: 2 }));
        assert!(last.tap, "interim router that is also a target still taps");
    }

    #[test]
    fn entry_directions_chain() {
        let p = Plan::build(mesh(), NodeId(0), &vd(&[18]), false, 8); // (0,0)->(2,2)
        let steps = p.steps();
        assert_eq!(steps[0].entry, None);
        for w in steps.windows(2) {
            if let StepExit::Forward(d) = w[0].exit {
                assert_eq!(w[1].entry, Some(d));
            }
        }
    }

    #[test]
    fn turn_classification_on_xy_corner() {
        // (0,0) -> (2,2): east, east, then south = a turn at (2,0).
        let p = Plan::build(mesh(), NodeId(0), &vd(&[18]), false, 8);
        let turns: Vec<Option<Turn>> = p.steps().iter().map(|s| s.turn()).collect();
        assert_eq!(turns[0], None); // launch
        assert_eq!(turns[1], Some(Turn::Straight));
        assert_eq!(turns[2], Some(Turn::Right)); // east -> south is a right turn
    }

    #[test]
    fn rebuild_with_matches_fresh_build() {
        // Reusing the step and direction buffers must be invisible.
        let mut dirs = Vec::new();
        let mut p = Plan::build(mesh(), NodeId(0), &vd(&[63]), false, 4);
        p.rebuild_with(&mut dirs, mesh(), NodeId(5), &vd(&[7]), false, 4);
        assert_eq!(p, Plan::build(mesh(), NodeId(5), &vd(&[7]), false, 4));
        p.rebuild_with(&mut dirs, mesh(), NodeId(0), &vd(&[18]), true, 8);
        assert_eq!(p, Plan::build(mesh(), NodeId(0), &vd(&[18]), true, 8));
    }

    /// Builds the same plan with both builders — into reused storage, as
    /// the hot path does — and compares them step for step.
    fn assert_matches_reference(
        m: Mesh,
        from: NodeId,
        targets: &[NodeId],
        multicast: bool,
        max_hops: u32,
    ) {
        let (mut dirs, mut ref_dirs) = (Vec::new(), Vec::new());
        let (mut plan, mut reference) = (Plan::default(), Plan::default());
        plan.rebuild_with(&mut dirs, m, from, targets, multicast, max_hops);
        reference.reference_rebuild(&mut ref_dirs, m, from, targets, multicast, max_hops);
        assert_eq!(
            plan.steps(),
            reference.steps(),
            "{from} through {targets:?}, multicast {multicast}, max_hops {max_hops}"
        );
        assert!(dirs.len() <= (max_hops as usize).saturating_add(1));
    }

    const HOP_LIMITS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 14, u32::MAX];

    #[test]
    fn segment_only_unicast_plans_match_the_reference_exhaustively() {
        for m in [Mesh::PAPER, Mesh::new(5, 3)] {
            for from in m.iter_nodes() {
                for to in m.iter_nodes().filter(|&to| to != from) {
                    for max_hops in HOP_LIMITS {
                        assert_matches_reference(m, from, &[to], false, max_hops);
                    }
                }
            }
        }
    }

    #[test]
    fn segment_only_multicast_plans_match_the_reference() {
        use crate::multicast::split_multicast;
        use phastlane_netsim::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(0x0091_A175);
        for m in [Mesh::PAPER, Mesh::new(5, 3)] {
            let nodes = m.nodes() as u16;
            for case in 0..400 {
                let src = NodeId(rng.gen_range(0..nodes));
                // Every fourth case a broadcast, else a random subset.
                let targets: Vec<NodeId> = m
                    .iter_nodes()
                    .filter(|_| case % 4 == 0 || rng.gen_bool(0.2))
                    .collect();
                for message in split_multicast(m, src, &targets) {
                    for max_hops in HOP_LIMITS {
                        assert_matches_reference(m, src, &message, true, max_hops);
                    }
                }
            }
        }
    }

    #[test]
    fn segment_only_detour_plans_match_the_reference() {
        // The fault path's two-waypoint unicast: out through the other
        // dimension to the corner, then on to the destination.
        for m in [Mesh::PAPER, Mesh::new(5, 3)] {
            for from in m.iter_nodes() {
                for dest in m.iter_nodes() {
                    let (f, d) = (m.coord(from), m.coord(dest));
                    if f.x == d.x || f.y == d.y {
                        continue;
                    }
                    let corner = m.node_at(Coord { x: f.x, y: d.y });
                    for max_hops in HOP_LIMITS {
                        assert_matches_reference(m, from, &[corner, dest], false, max_hops);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_rejected() {
        let _ = Plan::build(mesh(), NodeId(0), &[], false, 4);
    }

    #[test]
    #[should_panic(expected = "coincides")]
    fn self_target_rejected() {
        let _ = Plan::build(mesh(), NodeId(0), &vd(&[0]), false, 4);
    }

    #[test]
    #[should_panic(expected = "coincides")]
    fn repeated_target_beyond_the_segment_is_still_rejected() {
        // 0 -> 63 is 14 hops; the repeat lies far past a 4-hop segment
        // and its one-hop lookahead.
        let _ = Plan::build(mesh(), NodeId(0), &vd(&[63, 63]), false, 4);
    }
}
