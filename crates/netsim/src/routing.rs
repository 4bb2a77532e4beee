//! Dimension-order (XY) routing, used by both networks (Tables 1 and 2).

use crate::geometry::{Direction, Mesh, NodeId};

/// Returns the XY dimension-order direction sequence from `src` to `dst`:
/// all X (east/west) hops first, then all Y (north/south) hops.
///
/// The result is empty when `src == dst`.
///
/// # Panics
///
/// Panics if either node is outside the mesh.
pub fn xy_route(mesh: Mesh, src: NodeId, dst: NodeId) -> Vec<Direction> {
    let mut dirs = Vec::with_capacity(mesh.distance(src, dst) as usize);
    xy_route_into(mesh, src, dst, &mut dirs);
    dirs
}

/// Appends the XY route from `src` to `dst` onto `dirs` without
/// allocating (the hot path reuses one scratch buffer across legs and
/// cycles).
///
/// # Panics
///
/// Panics if either node is outside the mesh.
pub fn xy_route_into(mesh: Mesh, src: NodeId, dst: NodeId, dirs: &mut Vec<Direction>) {
    xy_route_prefix_into(mesh, src, dst, usize::MAX, dirs);
}

/// [`xy_route_into`], but stops once `dirs` holds `limit` hops in all:
/// a launch covers at most `max_hops` of its route, so the optical
/// plan builder never needs the rest.
///
/// # Panics
///
/// Panics if either node is outside the mesh.
pub fn xy_route_prefix_into(
    mesh: Mesh,
    src: NodeId,
    dst: NodeId,
    limit: usize,
    dirs: &mut Vec<Direction>,
) {
    let (a, b) = (mesh.coord(src), mesh.coord(dst));
    let (dx, dy) = (
        i32::from(b.x) - i32::from(a.x),
        i32::from(b.y) - i32::from(a.y),
    );
    let x_dir = if dx > 0 {
        Direction::East
    } else {
        Direction::West
    };
    let x_hops = (dx.unsigned_abs() as usize).min(limit.saturating_sub(dirs.len()));
    dirs.extend(std::iter::repeat_n(x_dir, x_hops));
    let y_dir = if dy > 0 {
        Direction::South
    } else {
        Direction::North
    };
    let y_hops = (dy.unsigned_abs() as usize).min(limit.saturating_sub(dirs.len()));
    dirs.extend(std::iter::repeat_n(y_dir, y_hops));
}

/// The first hop direction under XY routing, or `None` if already at the
/// destination.
#[inline]
pub fn xy_first_hop(mesh: Mesh, src: NodeId, dst: NodeId) -> Option<Direction> {
    let (a, b) = (mesh.coord(src), mesh.coord(dst));
    if b.x > a.x {
        Some(Direction::East)
    } else if b.x < a.x {
        Some(Direction::West)
    } else if b.y > a.y {
        Some(Direction::South)
    } else if b.y < a.y {
        Some(Direction::North)
    } else {
        None
    }
}

/// The node sequence visited by the XY route, *excluding* `src` and
/// including `dst`.
pub fn xy_path_nodes(mesh: Mesh, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    let mut cur = src;
    for dir in xy_route(mesh, src, dst) {
        cur = mesh
            .neighbor(cur, dir)
            .expect("XY route stays inside the mesh");
        nodes.push(cur);
    }
    nodes
}

/// How a packet leaves a router relative to how it entered: the Phastlane
/// control fields (Straight / Left / Right / Local) are predecoded from
/// this classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Turn {
    /// Continue on the same dimension and sense.
    Straight,
    /// Turn left relative to travel direction.
    Left,
    /// Turn right relative to travel direction.
    Right,
}

/// Classifies the turn from incoming travel direction `from` to outgoing
/// direction `to`.
///
/// # Panics
///
/// Panics on a U-turn (`to == from.opposite()`), which dimension-order
/// routing never produces.
pub fn classify_turn(from: Direction, to: Direction) -> Turn {
    use Direction::*;
    if from == to {
        return Turn::Straight;
    }
    assert!(
        to != from.opposite(),
        "U-turn {from}->{to} is not a valid XY route step"
    );
    // `from` is the direction of travel. Facing that way, determine the
    // sense of the turn.
    match (from, to) {
        (North, East) | (East, South) | (South, West) | (West, North) => Turn::Right,
        (North, West) | (West, South) | (South, East) | (East, North) => Turn::Left,
        _ => unreachable!("all non-straight, non-uturn cases covered"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;

    #[test]
    fn route_is_x_then_y() {
        let m = Mesh::PAPER;
        let src = m.node_at(Coord { x: 1, y: 1 });
        let dst = m.node_at(Coord { x: 4, y: 6 });
        let r = xy_route(m, src, dst);
        assert_eq!(
            r,
            vec![
                Direction::East,
                Direction::East,
                Direction::East,
                Direction::South,
                Direction::South,
                Direction::South,
                Direction::South,
                Direction::South,
            ]
        );
    }

    #[test]
    fn route_length_equals_distance() {
        let m = Mesh::PAPER;
        for src in m.iter_nodes() {
            for dst in m.iter_nodes() {
                assert_eq!(xy_route(m, src, dst).len() as u32, m.distance(src, dst));
            }
        }
    }

    #[test]
    fn route_into_appends() {
        let m = Mesh::PAPER;
        let mut dirs = vec![Direction::North];
        xy_route_into(m, NodeId(0), NodeId(2), &mut dirs);
        assert_eq!(
            dirs,
            vec![Direction::North, Direction::East, Direction::East]
        );
    }

    #[test]
    fn route_prefix_is_the_route_cut_at_the_limit() {
        let m = Mesh::new(5, 3);
        for src in m.iter_nodes() {
            for dst in m.iter_nodes() {
                let full = xy_route(m, src, dst);
                for limit in 0..8 {
                    // Two hops already held count against the limit.
                    let mut dirs = vec![Direction::North; 2];
                    xy_route_prefix_into(m, src, dst, limit, &mut dirs);
                    let kept = full.len().min(limit.saturating_sub(2));
                    assert_eq!(dirs[2..], full[..kept], "{src}->{dst} limit {limit}");
                }
            }
        }
    }

    #[test]
    fn path_nodes_end_at_destination() {
        let m = Mesh::PAPER;
        let path = xy_path_nodes(m, NodeId(0), NodeId(63));
        assert_eq!(path.len(), 14);
        assert_eq!(*path.last().unwrap(), NodeId(63));
    }

    #[test]
    fn first_hop_matches_route() {
        let m = Mesh::PAPER;
        for src in m.iter_nodes() {
            for dst in m.iter_nodes() {
                let route = xy_route(m, src, dst);
                assert_eq!(xy_first_hop(m, src, dst), route.first().copied());
            }
        }
    }

    #[test]
    fn xy_makes_at_most_one_turn() {
        let m = Mesh::PAPER;
        for src in m.iter_nodes() {
            for dst in m.iter_nodes() {
                let r = xy_route(m, src, dst);
                let turns = r
                    .windows(2)
                    .filter(|w| classify_turn(w[0], w[1]) != Turn::Straight)
                    .count();
                assert!(turns <= 1, "{src}->{dst} had {turns} turns");
            }
        }
    }

    #[test]
    fn turn_classification() {
        use Direction::*;
        assert_eq!(classify_turn(North, North), Turn::Straight);
        assert_eq!(classify_turn(North, East), Turn::Right);
        assert_eq!(classify_turn(North, West), Turn::Left);
        assert_eq!(classify_turn(South, East), Turn::Left);
        assert_eq!(classify_turn(South, West), Turn::Right);
        assert_eq!(classify_turn(East, South), Turn::Right);
        assert_eq!(classify_turn(West, South), Turn::Left);
    }

    #[test]
    #[should_panic(expected = "U-turn")]
    fn uturn_panics() {
        let _ = classify_turn(Direction::North, Direction::South);
    }
}
