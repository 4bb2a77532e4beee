//! Synthetic traffic permutation patterns (§4, Figure 9) plus the usual
//! extras (uniform random, hotspot, nearest neighbour).
//!
//! Destinations are computed on the node index bits (6 bits for the
//! paper's 64-node mesh), following the standard Dally & Towles
//! definitions Booksim uses.

use phastlane_netsim::geometry::{Coord, Mesh, NodeId};
use phastlane_netsim::rng::SimRng;
use std::fmt;

/// A synthetic traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Uniformly random destination.
    Uniform,
    /// Destination is the bitwise complement of the source index.
    BitComplement,
    /// Destination is the bit-reversed source index.
    BitReverse,
    /// Destination is the source index rotated left by one bit (perfect
    /// shuffle).
    Shuffle,
    /// Destination is the matrix transpose of the source coordinate.
    Transpose,
    /// A fraction of traffic goes to one hot node, the rest uniform.
    Hotspot {
        /// The hot node.
        target: NodeId,
        /// Fraction of packets aimed at the hot node.
        fraction: f64,
    },
    /// Destination is the next node in row-major order (wrapping).
    NearestNeighbor,
}

impl Pattern {
    /// Computes the destination for a packet from `src`.
    ///
    /// Permutation patterns may map a node to itself (e.g. the diagonal
    /// under transpose); callers typically skip such packets.
    ///
    /// # Panics
    ///
    /// Panics if [`check_mesh`](Pattern::check_mesh) refuses `mesh`, or
    /// `src` is out of range.
    pub fn dest(self, mesh: Mesh, src: NodeId, rng: &mut SimRng) -> NodeId {
        let n = mesh.nodes();
        assert!(
            n.is_power_of_two(),
            "bit patterns need a power-of-two node count"
        );
        assert!(mesh.contains(src), "source {src} outside mesh");
        let bits = n.trailing_zeros();
        let i = src.index();
        let d = match self {
            Pattern::Uniform => rng.gen_range(0..n),
            Pattern::BitComplement => !i & (n - 1),
            Pattern::BitReverse => {
                let mut r = 0usize;
                for b in 0..bits {
                    if i & (1 << b) != 0 {
                        r |= 1 << (bits - 1 - b);
                    }
                }
                r
            }
            Pattern::Shuffle => ((i << 1) | (i >> (bits - 1))) & (n - 1),
            Pattern::Transpose => {
                let c = mesh.coord(src);
                return mesh.node_at(Coord { x: c.y, y: c.x });
            }
            Pattern::Hotspot { target, fraction } => {
                if rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                    return target;
                }
                rng.gen_range(0..n)
            }
            Pattern::NearestNeighbor => (i + 1) % n,
        };
        NodeId(d as u16)
    }

    /// Whether this pattern can address every node of `mesh`: the
    /// predicate [`dest`](Pattern::dest) assumes. Every pattern's
    /// arithmetic runs on node-index bits, so the node count must be a
    /// power of two, and transpose swaps x and y, so its mesh must be
    /// square.
    ///
    /// # Errors
    ///
    /// The reason, naming the mesh, when it cannot.
    pub fn check_mesh(self, mesh: Mesh) -> Result<(), String> {
        let (w, h) = (mesh.width(), mesh.height());
        if !mesh.nodes().is_power_of_two() {
            Err(format!(
                "synthetic patterns need a power-of-two node count, mesh is {w}x{h} = {} nodes",
                mesh.nodes()
            ))
        } else if self == Pattern::Transpose && w != h {
            Err(format!("transpose needs a square mesh, mesh is {w}x{h}"))
        } else {
            Ok(())
        }
    }

    /// Parses a pattern from its CLI/spec-file name (`uniform`,
    /// `bitcomp`, `bitrev`, `shuffle`, `transpose`, `neighbor`,
    /// `hotspot`), case-insensitively. The hotspot pattern uses its
    /// conventional parameters (node 0, 30 % of traffic).
    pub fn from_name(name: &str) -> Option<Pattern> {
        Some(match name.to_ascii_lowercase().as_str() {
            "uniform" => Pattern::Uniform,
            "bitcomp" => Pattern::BitComplement,
            "bitrev" => Pattern::BitReverse,
            "shuffle" => Pattern::Shuffle,
            "transpose" => Pattern::Transpose,
            "neighbor" => Pattern::NearestNeighbor,
            "hotspot" => Pattern::Hotspot {
                target: NodeId(0),
                fraction: 0.3,
            },
            _ => return None,
        })
    }

    /// The `from_name` spelling of this pattern (its canonical
    /// spec-file/CLI token).
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::BitComplement => "bitcomp",
            Pattern::BitReverse => "bitrev",
            Pattern::Shuffle => "shuffle",
            Pattern::Transpose => "transpose",
            Pattern::Hotspot { .. } => "hotspot",
            Pattern::NearestNeighbor => "neighbor",
        }
    }

    /// The label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Uniform => "Uniform",
            Pattern::BitComplement => "Bit Comp",
            Pattern::BitReverse => "Bit Reverse",
            Pattern::Shuffle => "Shuffle",
            Pattern::Transpose => "Transpose",
            Pattern::Hotspot { .. } => "Hotspot",
            Pattern::NearestNeighbor => "Neighbor",
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    #[test]
    fn names_roundtrip_through_from_name() {
        for p in [
            Pattern::Uniform,
            Pattern::BitComplement,
            Pattern::BitReverse,
            Pattern::Shuffle,
            Pattern::Transpose,
            Pattern::NearestNeighbor,
        ] {
            assert_eq!(Pattern::from_name(p.name()), Some(p));
        }
        assert!(matches!(
            Pattern::from_name("HOTSPOT"),
            Some(Pattern::Hotspot { .. })
        ));
        assert_eq!(Pattern::from_name("warp"), None);
    }

    #[test]
    fn check_mesh_names_what_dest_cannot_address() {
        assert_eq!(Pattern::Transpose.check_mesh(Mesh::new(4, 4)), Ok(()));
        assert_eq!(Pattern::Uniform.check_mesh(Mesh::new(8, 4)), Ok(()));
        let e = Pattern::Uniform.check_mesh(Mesh::new(3, 3)).unwrap_err();
        assert!(e.contains("power-of-two") && e.contains("3x3 = 9"), "{e}");
        let e = Pattern::Transpose.check_mesh(Mesh::new(8, 4)).unwrap_err();
        assert!(e.contains("square") && e.contains("8x4"), "{e}");
    }

    #[test]
    fn bit_complement_examples() {
        let m = Mesh::PAPER;
        let mut r = rng();
        assert_eq!(
            Pattern::BitComplement.dest(m, NodeId(0), &mut r),
            NodeId(63)
        );
        assert_eq!(
            Pattern::BitComplement.dest(m, NodeId(21), &mut r),
            NodeId(42)
        );
    }

    #[test]
    fn bit_reverse_examples() {
        let m = Mesh::PAPER;
        let mut r = rng();
        // 0b000001 -> 0b100000
        assert_eq!(Pattern::BitReverse.dest(m, NodeId(1), &mut r), NodeId(32));
        // Palindromic index maps to itself.
        assert_eq!(
            Pattern::BitReverse.dest(m, NodeId(0b100001), &mut r),
            NodeId(0b100001)
        );
    }

    #[test]
    fn shuffle_rotates_left() {
        let m = Mesh::PAPER;
        let mut r = rng();
        assert_eq!(Pattern::Shuffle.dest(m, NodeId(1), &mut r), NodeId(2));
        assert_eq!(Pattern::Shuffle.dest(m, NodeId(32), &mut r), NodeId(1));
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = Mesh::PAPER;
        let mut r = rng();
        let src = m.node_at(Coord { x: 2, y: 5 });
        let dst = m.node_at(Coord { x: 5, y: 2 });
        assert_eq!(Pattern::Transpose.dest(m, src, &mut r), dst);
        // Diagonal is a fixed point.
        let diag = m.node_at(Coord { x: 3, y: 3 });
        assert_eq!(Pattern::Transpose.dest(m, diag, &mut r), diag);
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "test: membership checks only")]
    fn permutations_are_bijections() {
        let m = Mesh::PAPER;
        let mut r = rng();
        for p in [
            Pattern::BitComplement,
            Pattern::BitReverse,
            Pattern::Shuffle,
            Pattern::Transpose,
        ] {
            let mut seen = std::collections::HashSet::new();
            for src in m.iter_nodes() {
                assert!(seen.insert(p.dest(m, src, &mut r)), "{p} not a bijection");
            }
            assert_eq!(seen.len(), 64);
        }
    }

    #[test]
    fn hotspot_biases_toward_target() {
        let m = Mesh::PAPER;
        let mut r = rng();
        let p = Pattern::Hotspot {
            target: NodeId(9),
            fraction: 0.8,
        };
        let hits = (0..1000)
            .filter(|_| p.dest(m, NodeId(0), &mut r) == NodeId(9))
            .count();
        assert!(hits > 700, "hotspot hits {hits}/1000");
    }

    #[test]
    fn uniform_stays_in_range() {
        let m = Mesh::PAPER;
        let mut r = rng();
        for _ in 0..100 {
            assert!(m.contains(Pattern::Uniform.dest(m, NodeId(5), &mut r)));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_mesh_rejected() {
        let m = Mesh::new(3, 3);
        let mut r = rng();
        let _ = Pattern::BitComplement.dest(m, NodeId(0), &mut r);
    }
}
