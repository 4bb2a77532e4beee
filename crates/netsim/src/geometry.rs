//! 2D-mesh geometry: node identifiers, coordinates, directions, and ports.

use std::fmt;

/// A node (router + attached core/cache/MC tile) in the mesh, identified by
/// its row-major index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// An (x, y) coordinate in the mesh. `x` grows eastward, `y` grows
/// southward; (0, 0) is the north-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// One of the four mesh link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Toward smaller `y`.
    North,
    /// Toward larger `y`.
    South,
    /// Toward larger `x`.
    East,
    /// Toward smaller `x`.
    West,
}

impl Direction {
    /// All four directions.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A router port: one of the four link directions or the local
/// (node-attachment) port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// A link port.
    Dir(Direction),
    /// The local injection/ejection port.
    Local,
}

impl Port {
    /// All five ports in a fixed arbitration order (N, S, E, W, Local).
    pub const ALL: [Port; 5] = [
        Port::Dir(Direction::North),
        Port::Dir(Direction::South),
        Port::Dir(Direction::East),
        Port::Dir(Direction::West),
        Port::Local,
    ];

    /// Dense index for table lookups (0..=4, Local last).
    pub fn index(self) -> usize {
        match self {
            Port::Dir(Direction::North) => 0,
            Port::Dir(Direction::South) => 1,
            Port::Dir(Direction::East) => 2,
            Port::Dir(Direction::West) => 3,
            Port::Local => 4,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Dir(d) => write!(f, "{d}"),
            Port::Local => f.write_str("L"),
        }
    }
}

/// Most nodes a mesh may have: every node needs its own [`NodeId`], a
/// `u16`.
pub const MAX_NODES: usize = 1 << 16;

/// A rectangular 2D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// The paper's 8x8, 64-node configuration.
    pub const PAPER: Mesh = Mesh {
        width: 8,
        height: 8,
    };

    /// Creates a mesh of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh has more than
    /// [`MAX_NODES`] nodes.
    pub fn new(width: u16, height: u16) -> Self {
        Mesh::checked(width, height).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses a `WxH` mesh (`8x8`, `4x6`): the one mesh parser of the
    /// workspace, behind both the `--mesh` flag and the lab spec's `mesh`
    /// key.
    ///
    /// # Errors
    ///
    /// Refuses malformed input, a zero dimension, and a mesh of more
    /// nodes than a [`NodeId`] can name ([`MAX_NODES`]).
    pub fn parse(text: &str) -> Result<Mesh, String> {
        let (w, h) = text
            .split_once('x')
            .ok_or_else(|| format!("mesh expects WxH, got {text:?}"))?;
        let width = w.parse().map_err(|_| format!("bad mesh width {w:?}"))?;
        let height = h.parse().map_err(|_| format!("bad mesh height {h:?}"))?;
        Mesh::checked(width, height)
    }

    fn checked(width: u16, height: u16) -> Result<Mesh, String> {
        let mesh = Mesh { width, height };
        if width == 0 || height == 0 {
            Err("mesh dimensions must be positive".into())
        } else if mesh.nodes() > MAX_NODES {
            Err(format!(
                "mesh {width}x{height} has {} nodes; a node id names at most {MAX_NODES}",
                mesh.nodes()
            ))
        } else {
            Ok(mesh)
        }
    }

    /// Mesh width (columns).
    pub fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total node count.
    pub fn nodes(self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Whether `node` is a valid id for this mesh.
    pub fn contains(self, node: NodeId) -> bool {
        node.index() < self.nodes()
    }

    /// Coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coord(self, node: NodeId) -> Coord {
        assert!(
            self.contains(node),
            "node {node} outside {}x{} mesh",
            self.width,
            self.height
        );
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// Node at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn node_at(self, coord: Coord) -> NodeId {
        assert!(
            coord.x < self.width && coord.y < self.height,
            "coord {coord} outside {}x{} mesh",
            self.width,
            self.height
        );
        NodeId(coord.y * self.width + coord.x)
    }

    /// The neighbour of `node` in `dir`, if it exists.
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let next = match dir {
            Direction::North => (c.y > 0).then(|| Coord { x: c.x, y: c.y - 1 }),
            Direction::South => (c.y + 1 < self.height).then(|| Coord { x: c.x, y: c.y + 1 }),
            Direction::East => (c.x + 1 < self.width).then(|| Coord { x: c.x + 1, y: c.y }),
            Direction::West => (c.x > 0).then(|| Coord { x: c.x - 1, y: c.y }),
        }?;
        Some(self.node_at(next))
    }

    /// Manhattan (hop) distance between two nodes.
    pub fn distance(self, a: NodeId, b: NodeId) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        let dx = i32::from(ca.x) - i32::from(cb.x);
        let dy = i32::from(ca.y) - i32::from(cb.y);
        dx.unsigned_abs() + dy.unsigned_abs()
    }

    /// Iterator over every node id.
    pub fn iter_nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(|i| NodeId(i as u16))
    }
}

impl Default for Mesh {
    fn default() -> Self {
        Mesh::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mesh_is_8x8() {
        let m = Mesh::PAPER;
        assert_eq!(m.nodes(), 64);
        assert_eq!((m.width(), m.height()), (8, 8));
    }

    #[test]
    fn parse_refuses_what_a_node_id_cannot_name() {
        assert_eq!(Mesh::parse("4x6"), Ok(Mesh::new(4, 6)));
        assert_eq!(Mesh::parse("16x16"), Ok(Mesh::new(16, 16)));
        let largest = Mesh::parse("256x256").unwrap();
        assert_eq!(largest.nodes(), MAX_NODES);
        assert_eq!(largest.iter_nodes().count(), MAX_NODES);
        assert_eq!(largest.iter_nodes().last(), Some(NodeId(u16::MAX)));
        for (bad, why) in [
            ("4", "expects WxH"),
            ("x4", "bad mesh width"),
            ("4x-1", "bad mesh height"),
            ("4x70000", "bad mesh height"),
            ("0x4", "positive"),
            ("4x0", "positive"),
            ("256x512", "131072 nodes"),
            ("256x257", "at most 65536"),
        ] {
            let e = Mesh::parse(bad).expect_err(bad);
            assert!(e.contains(why), "{bad}: {e}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn new_refuses_an_unnameable_mesh() {
        let _ = Mesh::new(512, 512);
    }

    #[test]
    fn coord_roundtrip() {
        let m = Mesh::PAPER;
        for node in m.iter_nodes() {
            assert_eq!(m.node_at(m.coord(node)), node);
        }
    }

    #[test]
    fn corner_coordinates() {
        let m = Mesh::PAPER;
        assert_eq!(m.coord(NodeId(0)), Coord { x: 0, y: 0 });
        assert_eq!(m.coord(NodeId(7)), Coord { x: 7, y: 0 });
        assert_eq!(m.coord(NodeId(56)), Coord { x: 0, y: 7 });
        assert_eq!(m.coord(NodeId(63)), Coord { x: 7, y: 7 });
    }

    #[test]
    fn neighbors_at_edges() {
        let m = Mesh::PAPER;
        assert_eq!(m.neighbor(NodeId(0), Direction::North), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::West), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::East), Some(NodeId(1)));
        assert_eq!(m.neighbor(NodeId(0), Direction::South), Some(NodeId(8)));
        assert_eq!(m.neighbor(NodeId(63), Direction::South), None);
        assert_eq!(m.neighbor(NodeId(63), Direction::East), None);
    }

    #[test]
    fn neighbor_is_symmetric() {
        let m = Mesh::new(5, 3);
        for n in m.iter_nodes() {
            for d in Direction::ALL {
                if let Some(nb) = m.neighbor(n, d) {
                    assert_eq!(m.neighbor(nb, d.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn distance_examples() {
        let m = Mesh::PAPER;
        assert_eq!(m.distance(NodeId(0), NodeId(63)), 14);
        assert_eq!(m.distance(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.distance(NodeId(0), NodeId(1)), 1);
        assert_eq!(m.distance(NodeId(3), NodeId(24)), 6); // (3,0) -> (0,3)
    }

    #[test]
    fn port_indices_dense_and_unique() {
        let mut seen = [false; 5];
        for p in Port::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn coord_out_of_range_panics() {
        let _ = Mesh::new(2, 2).coord(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_rejected() {
        let _ = Mesh::new(0, 4);
    }
}
