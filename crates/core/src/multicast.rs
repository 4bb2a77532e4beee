//! Multicast message construction (§2.1.4).
//!
//! In a snoopy system, broadcasts are realised as up to 16 multicast
//! packets: for each mesh column, one message covers the targets at or
//! above the source's row (routing along the row, then north) and one
//! covers the targets below (row, then south). A source on the top or
//! bottom row needs only one message per column — 8 total — because the
//! single entry-row target folds into the message covering the rest of
//! the column.

use phastlane_netsim::geometry::{Coord, Mesh, NodeId};
use phastlane_netsim::packet::TargetList;

/// Splits a set of delivery targets into dimension-order multicast
/// messages. Each returned list is ordered along the message's path
/// (row first, then monotonically along the column), which is the order
/// [`crate::plan::Plan::build`] requires.
///
/// Targets equal to `src` are ignored.
pub fn split_multicast(mesh: Mesh, src: NodeId, targets: &[NodeId]) -> Vec<TargetList> {
    let s = mesh.coord(src);
    let width = usize::from(mesh.width());
    // Partition targets by column.
    let mut columns: Vec<Vec<Coord>> = vec![Vec::new(); width];
    for &t in targets {
        if t == src {
            continue;
        }
        let c = mesh.coord(t);
        columns[usize::from(c.x)].push(c);
    }

    let mut messages = Vec::new();
    for col in columns.iter_mut() {
        if col.is_empty() {
            continue;
        }
        col.sort_by_key(|c| c.y);
        // Up part: targets at or above the source row, ordered
        // entry-row-first (descending y). Down part: strictly below,
        // ascending.
        let mut up: Vec<Coord> = col.iter().filter(|c| c.y <= s.y).copied().collect();
        up.reverse();
        let down: Vec<Coord> = col.iter().filter(|c| c.y > s.y).copied().collect();

        // If the up part is exactly the entry-row node, the down message
        // passes through it anyway — fold it in (this is what makes a
        // top-row source need only 8 messages for a broadcast).
        if up.len() == 1 && up[0].y == s.y && !down.is_empty() {
            let mut merged = up.clone();
            merged.extend(&down);
            messages.push(to_list(mesh, &merged));
            continue;
        }
        if !up.is_empty() {
            messages.push(to_list(mesh, &up));
        }
        if !down.is_empty() {
            messages.push(to_list(mesh, &down));
        }
    }
    messages
}

fn to_list(mesh: Mesh, coords: &[Coord]) -> TargetList {
    coords.iter().map(|&c| mesh.node_at(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broadcast_targets(mesh: Mesh, src: NodeId) -> Vec<NodeId> {
        mesh.iter_nodes().filter(|&n| n != src).collect()
    }

    #[expect(clippy::disallowed_types, reason = "test: membership checks only")]
    fn all_covered(messages: &[TargetList], targets: &[NodeId]) {
        let mut seen = std::collections::HashSet::new();
        for m in messages {
            for &t in m {
                assert!(seen.insert(t), "target {t} covered twice");
            }
        }
        for &t in targets {
            assert!(seen.contains(&t), "target {t} not covered");
        }
        assert_eq!(seen.len(), targets.len());
    }

    #[test]
    fn interior_broadcast_uses_16_messages() {
        let mesh = Mesh::PAPER;
        let src = mesh.node_at(Coord { x: 3, y: 3 });
        let targets = broadcast_targets(mesh, src);
        let msgs = split_multicast(mesh, src, &targets);
        assert_eq!(msgs.len(), 16, "paper: up to 16 multicast messages");
        all_covered(&msgs, &targets);
    }

    #[test]
    fn top_row_broadcast_uses_8_messages() {
        let mesh = Mesh::PAPER;
        let src = mesh.node_at(Coord { x: 3, y: 0 });
        let targets = broadcast_targets(mesh, src);
        let msgs = split_multicast(mesh, src, &targets);
        assert_eq!(msgs.len(), 8, "paper: eight if on the top row");
        all_covered(&msgs, &targets);
    }

    #[test]
    fn bottom_row_broadcast_uses_8_messages() {
        let mesh = Mesh::PAPER;
        let src = mesh.node_at(Coord { x: 5, y: 7 });
        let targets = broadcast_targets(mesh, src);
        let msgs = split_multicast(mesh, src, &targets);
        assert_eq!(msgs.len(), 8);
        all_covered(&msgs, &targets);
    }

    #[test]
    fn corner_broadcast_uses_8_messages() {
        let mesh = Mesh::PAPER;
        let src = NodeId(0);
        let targets = broadcast_targets(mesh, src);
        let msgs = split_multicast(mesh, src, &targets);
        assert_eq!(msgs.len(), 8);
        all_covered(&msgs, &targets);
    }

    #[test]
    fn message_order_is_monotone_along_column() {
        let mesh = Mesh::PAPER;
        let src = mesh.node_at(Coord { x: 3, y: 3 });
        for msg in split_multicast(mesh, src, &broadcast_targets(mesh, src)) {
            let ys: Vec<u16> = msg.iter().map(|&n| mesh.coord(n).y).collect();
            let ascending = ys.windows(2).all(|w| w[0] <= w[1]);
            let descending = ys.windows(2).all(|w| w[0] >= w[1]);
            assert!(ascending || descending, "non-monotone column order {ys:?}");
            // All in one column.
            let xs: Vec<u16> = msg.iter().map(|&n| mesh.coord(n).x).collect();
            assert!(xs.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn subset_multicast_only_covers_requested() {
        let mesh = Mesh::PAPER;
        let src = NodeId(0);
        let targets = vec![NodeId(1), NodeId(9), NodeId(57)];
        let msgs = split_multicast(mesh, src, &targets);
        all_covered(&msgs, &targets);
        assert!(msgs.len() <= 3);
    }

    #[test]
    fn source_excluded() {
        let mesh = Mesh::PAPER;
        let msgs = split_multicast(mesh, NodeId(5), &[NodeId(5)]);
        assert!(msgs.is_empty());
    }

    #[test]
    fn plans_build_from_every_broadcast_message() {
        // The ordering contract: every message must build a valid plan
        // (no U-turns) from the source.
        let mesh = Mesh::PAPER;
        for src in mesh.iter_nodes() {
            let targets = broadcast_targets(mesh, src);
            for msg in split_multicast(mesh, src, &targets) {
                let plan = crate::plan::Plan::build(mesh, src, &msg, true, 14);
                // Covered targets within one segment == message targets
                // when the segment is long enough.
                if plan.hops() <= 14 && !plan.ends_at_interim() {
                    assert_eq!(plan.deliveries().len(), msg.len());
                }
            }
        }
    }
}
