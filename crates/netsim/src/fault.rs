//! Deterministic fault injection: schedulable device failures both
//! networks consume to model graceful degradation.
//!
//! The Phastlane paper already treats one failure mode — buffer-overflow
//! drops — as a first-class mechanism (§2.1.2). This module generalizes
//! that to *device* failures: dead optical links/waveguides, stuck
//! routers, laser-power droop (which tightens the photonics loss budget
//! and shrinks the reachable hop count), and transient bit errors that
//! exercise the SECDED path in [`crate::ecc`].
//!
//! A [`FaultPlan`] is a plain list of [`Fault`]s, each active over a
//! cycle window (`start`, optional `duration`; `None` means permanent).
//! Plans are deterministic by construction: they are either parsed from a
//! text file ([`FaultPlan::parse`]) or generated from a seed
//! ([`FaultPlan::random`]), and the networks query them with pure
//! functions of the cycle counter. An **empty plan is guaranteed
//! zero-effect**: every network fault hook is gated on
//! [`FaultPlan::is_empty`] and faulty-path randomness comes from a
//! dedicated RNG stream, so seeded runs without faults stay byte-identical
//! to a build without this module.

use crate::geometry::{Coord, Direction, Mesh, NodeId};
use crate::obs::{EventKind, Obs};
use crate::packet::PacketId;
use crate::rng::SimRng;

/// The device failure a [`Fault`] models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The directed link leaving `node` toward `dir` is dead (a broken
    /// waveguide or driver); nothing may traverse it.
    LinkDown {
        /// Upstream endpoint of the dead link.
        node: NodeId,
        /// Direction of the dead link out of `node`.
        dir: Direction,
    },
    /// The router at `node` is stuck: packets may neither enter, leave,
    /// nor eject there while the fault is active.
    RouterStuck {
        /// The stuck router.
        node: NodeId,
    },
    /// Laser power droop: the effective crossing efficiency is multiplied
    /// by `factor` (< 1.0), raising worst-case loss so fewer hops fit the
    /// nominal optical power budget.
    LaserDroop {
        /// Multiplier applied to the configured crossing efficiency.
        factor: f64,
    },
    /// Transient bit errors: each delivery flips payload bits with
    /// probability `rate`, exercising the SECDED encode/decode path.
    BitError {
        /// Per-delivery corruption probability.
        rate: f64,
    },
}

/// One scheduled fault: a kind plus its active cycle window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What fails.
    pub kind: FaultKind,
    /// First cycle the fault is active.
    pub start: u64,
    /// Active cycle count; `None` means permanent.
    pub duration: Option<u64>,
}

impl Fault {
    /// A fault active from cycle 0 forever.
    pub fn permanent(kind: FaultKind) -> Fault {
        Fault {
            kind,
            start: 0,
            duration: None,
        }
    }

    /// A fault active for `duration` cycles starting at `start`.
    pub fn transient(kind: FaultKind, start: u64, duration: u64) -> Fault {
        Fault {
            kind,
            start,
            duration: Some(duration),
        }
    }

    /// Whether the fault is active at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        cycle >= self.start
            && self
                .duration
                .is_none_or(|d| cycle < self.start.saturating_add(d))
    }

    /// The mesh node this fault is anchored at, for trace events
    /// (global faults report node 0).
    pub fn site(&self) -> NodeId {
        match self.kind {
            FaultKind::LinkDown { node, .. } | FaultKind::RouterStuck { node } => node,
            FaultKind::LaserDroop { .. } | FaultKind::BitError { .. } => NodeId(0),
        }
    }

    /// The faulted link direction, when the fault is link-scoped.
    pub fn port(&self) -> Option<Direction> {
        match self.kind {
            FaultKind::LinkDown { dir, .. } => Some(dir),
            _ => None,
        }
    }
}

/// A deterministic schedule of device failures.
///
/// The empty plan is the (zero-effect) default; networks check
/// [`is_empty`](FaultPlan::is_empty) before touching any fault path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty (zero-effect) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault to the schedule.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the directed link `node -> dir` is dead at `cycle`.
    pub fn link_down(&self, cycle: u64, node: NodeId, dir: Direction) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::LinkDown { node: n, dir: d } if n == node && d == dir)
                && f.active_at(cycle)
        })
    }

    /// Whether the router at `node` is stuck at `cycle`.
    pub fn router_stuck(&self, cycle: u64, node: NodeId) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::RouterStuck { node: n } if n == node) && f.active_at(cycle)
        })
    }

    /// Whether the hop out of `from` toward `dir` is unusable at `cycle`:
    /// the link is dead, either endpoint router is stuck, or the hop
    /// leaves the mesh.
    pub fn blocked(&self, cycle: u64, mesh: Mesh, from: NodeId, dir: Direction) -> bool {
        let Some(next) = mesh.neighbor(from, dir) else {
            return true;
        };
        self.link_down(cycle, from, dir)
            || self.router_stuck(cycle, from)
            || self.router_stuck(cycle, next)
    }

    /// Product of all active laser-droop factors at `cycle` (1.0 when no
    /// droop is active).
    pub fn efficiency_factor(&self, cycle: u64) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.active_at(cycle))
            .filter_map(|f| match f.kind {
                FaultKind::LaserDroop { factor } => Some(factor),
                _ => None,
            })
            .product()
    }

    /// The largest active bit-error rate at `cycle` (0.0 when none).
    pub fn bit_error_rate(&self, cycle: u64) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.active_at(cycle))
            .filter_map(|f| match f.kind {
                FaultKind::BitError { rate } => Some(rate),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Faults whose state toggles exactly at `cycle`: `(fault, true)` on
    /// injection, `(fault, false)` on clearing. Used for trace events.
    pub fn edges_at(&self, cycle: u64) -> impl Iterator<Item = (&Fault, bool)> {
        self.faults.iter().filter_map(move |f| {
            if f.start == cycle {
                Some((f, true))
            } else if f
                .duration
                .is_some_and(|d| f.start.saturating_add(d) == cycle)
            {
                Some((f, false))
            } else {
                None
            }
        })
    }

    /// Emits the trace edge events of `cycle`: `FaultInjected` for every
    /// fault starting, `FaultCleared` for every window ending.
    pub fn emit_edges(&self, obs: &mut Obs, cycle: u64) {
        for (fault, injected) in self.edges_at(cycle) {
            let kind = if injected {
                EventKind::FaultInjected
            } else {
                EventKind::FaultCleared
            };
            obs.emit(cycle, kind, fault.site(), fault.port(), None);
        }
    }

    /// Parses a plan from its text form. One fault per line:
    ///
    /// ```text
    /// # comment / blank lines ignored
    /// link n3 east @100 +500     # link node3 -> east, cycles [100, 600)
    /// router n12                 # stuck router, permanent from cycle 0
    /// droop 0.95 @200            # laser droop to 95% efficiency
    /// biterr 0.001               # 0.1% per-delivery bit-error rate
    /// ```
    ///
    /// `@start` defaults to 0 and `+duration` to permanent.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("fault plan line {}: {msg}: {raw:?}", ln + 1);
            let mut start = 0u64;
            let mut duration = None;
            let mut words = Vec::new();
            for tok in line.split_whitespace() {
                if let Some(s) = tok.strip_prefix('@') {
                    start = s.parse().map_err(|_| err("bad @start"))?;
                } else if let Some(d) = tok.strip_prefix('+') {
                    duration = Some(d.parse().map_err(|_| err("bad +duration"))?);
                } else {
                    words.push(tok);
                }
            }
            let node = |w: &str| -> Result<NodeId, String> {
                w.strip_prefix('n')
                    .unwrap_or(w)
                    .parse()
                    .map(NodeId)
                    .map_err(|_| err("bad node"))
            };
            let kind = match words.as_slice() {
                ["link", n, d] => FaultKind::LinkDown {
                    node: node(n)?,
                    dir: parse_direction(d).ok_or_else(|| err("bad direction"))?,
                },
                ["router", n] => FaultKind::RouterStuck { node: node(n)? },
                ["droop", f] => FaultKind::LaserDroop {
                    factor: f.parse().map_err(|_| err("bad factor"))?,
                },
                ["biterr", r] => FaultKind::BitError {
                    rate: r.parse().map_err(|_| err("bad rate"))?,
                },
                _ => return Err(err("expected link/router/droop/biterr")),
            };
            plan.push(Fault {
                kind,
                start,
                duration,
            });
        }
        Ok(plan)
    }

    /// Renders the plan back to its [`parse`](FaultPlan::parse) text form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for f in &self.faults {
            match f.kind {
                FaultKind::LinkDown { node, dir } => {
                    out.push_str(&format!("link n{} {}", node.0, direction_name(dir)));
                }
                FaultKind::RouterStuck { node } => out.push_str(&format!("router n{}", node.0)),
                FaultKind::LaserDroop { factor } => out.push_str(&format!("droop {factor}")),
                FaultKind::BitError { rate } => out.push_str(&format!("biterr {rate}")),
            }
            if f.start != 0 {
                out.push_str(&format!(" @{}", f.start));
            }
            if let Some(d) = f.duration {
                out.push_str(&format!(" +{d}"));
            }
            out.push('\n');
        }
        out
    }

    /// Generates a seeded random plan whose severity scales with
    /// `intensity` in `[0, 1]`: permanent dead links over roughly
    /// `intensity / 2` of the mesh's directed links, one stuck router at
    /// `intensity >= 0.25`, plus laser droop and a bit-error rate
    /// proportional to `intensity`. `intensity == 0` yields the empty
    /// (zero-effect) plan.
    pub fn random(mesh: Mesh, seed: u64, intensity: f64) -> FaultPlan {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::new();
        if intensity == 0.0 {
            return plan;
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let mut links: Vec<(NodeId, Direction)> = Vec::new();
        for node in mesh.iter_nodes() {
            for dir in Direction::ALL {
                if mesh.neighbor(node, dir).is_some() {
                    links.push((node, dir));
                }
            }
        }
        let want = ((links.len() as f64 * intensity * 0.5).round() as usize).max(1);
        for _ in 0..want.min(links.len()) {
            let i = rng.gen_range(0..links.len());
            let (node, dir) = links.swap_remove(i);
            plan.push(Fault::permanent(FaultKind::LinkDown { node, dir }));
        }
        if intensity >= 0.25 {
            let node = NodeId(rng.gen_range(0..mesh.nodes()) as u16);
            plan.push(Fault::permanent(FaultKind::RouterStuck { node }));
        }
        plan.push(Fault::permanent(FaultKind::LaserDroop {
            factor: 1.0 - 0.1 * intensity,
        }));
        plan.push(Fault::permanent(FaultKind::BitError {
            rate: 0.05 * intensity,
        }));
        plan
    }
}

/// A packet destination the network gave up on: the retry cap (or
/// livelock guard) fired and the packet is terminally `Undeliverable`.
///
/// Failures are the explicit counterpart of [`crate::packet::Delivery`]:
/// under faults, every injected destination ends as exactly one of the
/// two — there is no silent loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedDelivery {
    /// The packet that gave up.
    pub packet: PacketId,
    /// Originating node.
    pub src: NodeId,
    /// The destination that will never be reached.
    pub dest: NodeId,
    /// Cycle the network declared the destination undeliverable.
    pub cycle: u64,
}

/// Picks a productive detour for a unicast whose XY first hop out of
/// `from` toward `to` is faulted: route the *other* dimension first (YX
/// for this packet) via the corner waypoint `(from.x, to.y)`.
///
/// Returns `(first_hop, corner)` when such a detour exists and its first
/// hop is live, `None` otherwise (single productive dimension, or the
/// detour hop is also faulted). Restricting detours to productive
/// directions keeps every launch strictly decreasing the Manhattan
/// distance, so fault rerouting can never livelock.
pub fn productive_detour(
    plan: &FaultPlan,
    cycle: u64,
    mesh: Mesh,
    from: NodeId,
    to: NodeId,
) -> Option<(Direction, NodeId)> {
    let (a, b) = (mesh.coord(from), mesh.coord(to));
    if a.x == b.x || a.y == b.y {
        return None;
    }
    let corner = mesh.node_at(Coord { x: a.x, y: b.y });
    let dir = if b.y > a.y {
        Direction::South
    } else {
        Direction::North
    };
    (!plan.blocked(cycle, mesh, from, dir)).then_some((dir, corner))
}

fn parse_direction(s: &str) -> Option<Direction> {
    match s {
        "north" | "n" => Some(Direction::North),
        "south" | "s" => Some(Direction::South),
        "east" | "e" => Some(Direction::East),
        "west" | "w" => Some(Direction::West),
        _ => None,
    }
}

fn direction_name(d: Direction) -> &'static str {
    match d {
        Direction::North => "north",
        Direction::South => "south",
        Direction::East => "east",
        Direction::West => "west",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_and_permanence() {
        let f = Fault::transient(FaultKind::RouterStuck { node: NodeId(3) }, 10, 5);
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(14));
        assert!(!f.active_at(15));
        let p = Fault::permanent(FaultKind::RouterStuck { node: NodeId(3) });
        assert!(p.active_at(0));
        assert!(p.active_at(u64::MAX));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        let mesh = Mesh::new(4, 4);
        assert!(plan.is_empty());
        assert!(!plan.link_down(0, NodeId(0), Direction::East));
        assert!(!plan.router_stuck(0, NodeId(0)));
        assert!(!plan.blocked(0, mesh, NodeId(0), Direction::East));
        assert_eq!(plan.efficiency_factor(0), 1.0);
        assert_eq!(plan.bit_error_rate(0), 0.0);
        assert_eq!(plan.edges_at(0).count(), 0);
    }

    #[test]
    fn blocked_covers_link_routers_and_edge() {
        let mesh = Mesh::new(4, 4);
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LinkDown {
            node: NodeId(0),
            dir: Direction::East,
        }));
        plan.push(Fault::permanent(FaultKind::RouterStuck { node: NodeId(5) }));
        // The dead link itself.
        assert!(plan.blocked(0, mesh, NodeId(0), Direction::East));
        // The reverse direction of the same physical span is separate.
        assert!(!plan.blocked(0, mesh, NodeId(1), Direction::West));
        // Hops into and out of a stuck router.
        assert!(plan.blocked(0, mesh, NodeId(4), Direction::East)); // 4 -> 5
        assert!(plan.blocked(0, mesh, NodeId(5), Direction::East)); // 5 -> 6
                                                                    // Off-mesh is always blocked.
        assert!(plan.blocked(0, mesh, NodeId(0), Direction::West));
    }

    #[test]
    fn droop_and_biterr_compose() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LaserDroop { factor: 0.9 }));
        plan.push(Fault::transient(
            FaultKind::LaserDroop { factor: 0.5 },
            10,
            10,
        ));
        plan.push(Fault::permanent(FaultKind::BitError { rate: 0.01 }));
        plan.push(Fault::transient(FaultKind::BitError { rate: 0.2 }, 10, 10));
        assert_eq!(plan.efficiency_factor(0), 0.9);
        assert!((plan.efficiency_factor(15) - 0.45).abs() < 1e-12);
        assert_eq!(plan.bit_error_rate(0), 0.01);
        assert_eq!(plan.bit_error_rate(15), 0.2);
    }

    #[test]
    fn edges_report_injection_and_clearing() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::transient(
            FaultKind::RouterStuck { node: NodeId(1) },
            5,
            3,
        ));
        assert_eq!(plan.edges_at(5).count(), 1);
        assert!(plan.edges_at(5).next().unwrap().1);
        assert_eq!(plan.edges_at(8).count(), 1);
        assert!(!plan.edges_at(8).next().unwrap().1);
        assert_eq!(plan.edges_at(6).count(), 0);
    }

    #[test]
    fn parse_encode_roundtrip() {
        let text = "\
# a comment
link n3 east @100 +500
router n12
droop 0.95 @200
biterr 0.001
";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.faults()[0],
            Fault::transient(
                FaultKind::LinkDown {
                    node: NodeId(3),
                    dir: Direction::East
                },
                100,
                500
            )
        );
        let reparsed = FaultPlan::parse(&plan.encode()).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("link n3").is_err());
        assert!(FaultPlan::parse("link n3 up").is_err());
        assert!(FaultPlan::parse("router n3 @x").is_err());
        assert!(FaultPlan::parse("warp n3").is_err());
    }

    #[test]
    fn parse_errors_name_the_line_and_the_problem() {
        // Every malformed token class produces a clear, located error —
        // a fat-fingered plan file must never panic or half-apply.
        let cases: [(&str, &str); 7] = [
            ("router nX", "bad node"),
            ("router n-1", "bad node"),
            ("link n3 sideways", "bad direction"),
            ("droop fast", "bad factor"),
            ("biterr lots", "bad rate"),
            ("router n3 +forever", "bad +duration"),
            ("droop", "expected link/router/droop/biterr"),
        ];
        for (text, want) in cases {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.contains(want), "{text:?}: {err}");
            assert!(err.contains("line 1"), "{text:?}: {err}");
        }
        // The reported line number accounts for comments and blanks.
        let err =
            FaultPlan::parse("# header\n\nrouter n1\nlink n2 north\nbiterr much\n").unwrap_err();
        assert!(err.contains("line 5"), "{err}");
        // An error leaves nothing half-applied: parse is all-or-nothing.
        assert!(FaultPlan::parse("router n1\nwarp n2\n").is_err());
    }

    #[test]
    fn random_is_seeded_and_scales() {
        let mesh = Mesh::new(4, 4);
        assert!(FaultPlan::random(mesh, 1, 0.0).is_empty());
        let a = FaultPlan::random(mesh, 1, 0.2);
        let b = FaultPlan::random(mesh, 1, 0.2);
        let c = FaultPlan::random(mesh, 2, 0.2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let heavy = FaultPlan::random(mesh, 1, 0.8);
        assert!(heavy.len() > a.len());
        // All link faults reference real links.
        for f in heavy.faults() {
            if let FaultKind::LinkDown { node, dir } = f.kind {
                assert!(mesh.neighbor(node, dir).is_some());
            }
        }
    }

    #[test]
    fn detour_prefers_live_productive_dimension() {
        let mesh = Mesh::new(4, 4);
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LinkDown {
            node: NodeId(0),
            dir: Direction::East,
        }));
        // 0 -> 5 (one east, one south): detour south via corner node 4.
        let (dir, corner) = productive_detour(&plan, 0, mesh, NodeId(0), NodeId(5)).unwrap();
        assert_eq!(dir, Direction::South);
        assert_eq!(corner, NodeId(4));
        // 0 -> 1 shares the row: no productive alternative.
        assert!(productive_detour(&plan, 0, mesh, NodeId(0), NodeId(1)).is_none());
        // Detour dimension also dead: stuck.
        plan.push(Fault::permanent(FaultKind::LinkDown {
            node: NodeId(0),
            dir: Direction::South,
        }));
        assert!(productive_detour(&plan, 0, mesh, NodeId(0), NodeId(5)).is_none());
    }
}
