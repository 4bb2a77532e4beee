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
//! ([`FaultPlan::random`]). The networks query a plan through a
//! [`FaultView`]: its answers for the current window of cycles in which
//! no fault starts or ends, rebuilt only at those edges, so a hot-loop
//! lookup is a bit test instead of a scan. An **empty plan is guaranteed
//! zero-effect**: every network fault hook is gated on
//! [`FaultPlan::is_empty`] and faulty-path randomness comes from a
//! dedicated RNG stream, so seeded runs without faults stay byte-identical
//! to a build without this module.

use crate::geometry::{Direction, Mesh, NodeId};
use crate::obs::{EventKind, Obs};
use crate::packet::PacketId;
use crate::rng::SimRng;
use crate::routing::xy_first_hop;

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
    /// `@start` defaults to 0 and `+duration` to permanent; a duration
    /// is at least 1 cycle. A `droop`
    /// factor must lie in (0, 1] and a `biterr` rate in [0, 1].
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
                    // A `+0` window is never active, yet its start would
                    // still trace an injection that nothing clears.
                    let d = d.parse().ok().filter(|&d: &u64| d > 0);
                    duration = Some(d.ok_or_else(|| err("bad +duration, want at least 1"))?);
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
                    factor: f
                        .parse()
                        .ok()
                        .filter(|f: &f64| *f > 0.0 && *f <= 1.0)
                        .ok_or_else(|| err("bad factor, want (0, 1]"))?,
                },
                ["biterr", r] => FaultKind::BitError {
                    rate: r
                        .parse()
                        .ok()
                        .filter(|r: &f64| (0.0..=1.0).contains(r))
                        .ok_or_else(|| err("bad rate, want [0, 1]"))?,
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

/// The linear scans of the plan's fault list that [`FaultView`] replaces:
/// the reference its tests hold every view answer to.
#[cfg(test)]
impl FaultPlan {
    /// Whether the directed link `node -> dir` is dead at `cycle`.
    fn link_down(&self, cycle: u64, node: NodeId, dir: Direction) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::LinkDown { node: n, dir: d } if n == node && d == dir)
                && f.active_at(cycle)
        })
    }

    /// Whether the router at `node` is stuck at `cycle`.
    fn router_stuck(&self, cycle: u64, node: NodeId) -> bool {
        self.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::RouterStuck { node: n } if n == node) && f.active_at(cycle)
        })
    }

    /// Whether the hop out of `from` toward `dir` is unusable at `cycle`:
    /// the link is dead, either endpoint router is stuck, or the hop
    /// leaves the mesh.
    fn blocked(&self, cycle: u64, mesh: Mesh, from: NodeId, dir: Direction) -> bool {
        let Some(next) = mesh.neighbor(from, dir) else {
            return true;
        };
        self.link_down(cycle, from, dir)
            || self.router_stuck(cycle, from)
            || self.router_stuck(cycle, next)
    }

    /// Product of all active laser-droop factors at `cycle` (1.0 when no
    /// droop is active).
    fn efficiency_factor(&self, cycle: u64) -> f64 {
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
    fn bit_error_rate(&self, cycle: u64) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.active_at(cycle))
            .filter_map(|f| match f.kind {
                FaultKind::BitError { rate } => Some(rate),
                _ => None,
            })
            .fold(0.0, f64::max)
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

/// Where a unicast goes next from a router, as [`FaultView::unicast_hop`]
/// decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The dimension-order (XY) hop is live.
    Xy(Direction),
    /// The XY hop is blocked; the productive hop through the other
    /// dimension is live.
    Detour(Direction),
    /// No productive hop is live: the unicast waits, its XY hop named.
    Stalled(Direction),
}

/// Bit 4 of a [`FaultView`] router entry: the router is stuck.
const STUCK: u8 = 1 << 4;

/// A [`FaultPlan`]'s answers over one window of cycles in which no fault
/// starts or ends, so every lookup in a network's hot loop is O(1)
/// instead of a scan of the fault list.
///
/// A network advances its view every faulted cycle; [`advance`] rebuilds
/// it, in O(nodes + faults), only on the cycle of a fault edge (or the
/// first faulted cycle). Those are the only cycles on which the plan's
/// answers can change, so every answer equals a scan of the plan's fault
/// list at the same cycle (the module's tests hold it to one).
/// [`all_active`] builds the analyzer's worst case through the same
/// loop: every fault at once.
///
/// [`advance`]: FaultView::advance
/// [`all_active`]: FaultView::all_active
#[derive(Debug)]
pub struct FaultView {
    /// Per router: bit `d` set when the hop toward `Direction::ALL[d]` is
    /// blocked (dead link, stuck endpoint or off-mesh), [`STUCK`] when
    /// the router itself is stuck. Empty until the first build.
    routers: Vec<u8>,
    /// Product of the active laser-droop factors (1.0 when none).
    efficiency_factor: f64,
    /// The largest active bit-error rate (0.0 when none).
    bit_error_rate: f64,
    /// The next cycle at which any fault starts or ends; the view holds
    /// for every cycle before it.
    valid_until: u64,
}

impl Default for FaultView {
    /// An unbuilt view: the first [`advance`](FaultView::advance) builds.
    fn default() -> FaultView {
        FaultView {
            routers: Vec::new(),
            efficiency_factor: 1.0,
            bit_error_rate: 0.0,
            valid_until: 0,
        }
    }
}

impl FaultView {
    /// Brings the view to cycle `now` of `plan` on `mesh`: rebuilds it
    /// when `now` has reached [`valid_until`](FaultView::valid_until)
    /// and answers whether it did. Cycles must not run backwards between
    /// rebuilds; [`invalidate`](FaultView::invalidate) on a new plan.
    pub fn advance(&mut self, plan: &FaultPlan, mesh: Mesh, now: u64) -> bool {
        if now < self.valid_until {
            return false;
        }
        let nodes = mesh.nodes();
        self.routers.clear();
        self.routers.resize(nodes, 0);
        self.efficiency_factor = 1.0;
        self.bit_error_rate = 0.0;
        self.valid_until = u64::MAX;
        for f in &plan.faults {
            let end = f.duration.map(|d| f.start.saturating_add(d));
            for edge in std::iter::once(f.start).chain(end) {
                if edge > now {
                    self.valid_until = self.valid_until.min(edge);
                }
            }
            if !f.active_at(now) {
                continue;
            }
            // Product and max in list order, as the scans fold them.
            match f.kind {
                FaultKind::LinkDown { node, dir } if node.index() < nodes => {
                    self.routers[node.index()] |= 1 << dir as usize;
                }
                FaultKind::RouterStuck { node } if node.index() < nodes => {
                    self.routers[node.index()] |= STUCK;
                }
                FaultKind::LaserDroop { factor } => self.efficiency_factor *= factor,
                FaultKind::BitError { rate } => {
                    self.bit_error_rate = self.bit_error_rate.max(rate);
                }
                // Faults anchored off the mesh block nothing on it.
                FaultKind::LinkDown { .. } | FaultKind::RouterStuck { .. } => {}
            }
        }
        for node in mesh.iter_nodes() {
            let here = self.routers[node.index()];
            for dir in Direction::ALL {
                let blocked = mesh
                    .neighbor(node, dir)
                    .is_none_or(|next| (here | self.routers[next.index()]) & STUCK != 0);
                if blocked {
                    self.routers[node.index()] |= 1 << dir as usize;
                }
            }
        }
        true
    }

    /// The worst-case static view of `plan`: every scheduled fault active
    /// at once, windows ignored, so a verdict read from it holds at every
    /// cycle. It is `plan` with every window made permanent, built by
    /// [`advance`](FaultView::advance), and never expires.
    pub fn all_active(plan: &FaultPlan, mesh: Mesh) -> FaultView {
        let permanent = plan.faults.iter().map(|f| Fault::permanent(f.kind));
        let permanent = FaultPlan {
            faults: permanent.collect(),
        };
        let mut view = FaultView::default();
        view.advance(&permanent, mesh, 0);
        view
    }

    /// Forgets the view, so the next [`advance`](FaultView::advance)
    /// rebuilds it (a new plan was installed).
    pub fn invalidate(&mut self) {
        self.valid_until = 0;
    }

    /// The next cycle at which any fault starts or ends (`u64::MAX` when
    /// none does): the view holds strictly before it.
    pub fn valid_until(&self) -> u64 {
        self.valid_until
    }

    /// Whether the router at `node` is stuck.
    #[inline]
    pub fn router_stuck(&self, node: NodeId) -> bool {
        self.routers[node.index()] & STUCK != 0
    }

    /// Whether the hop out of `from` toward `dir` is unusable: the link
    /// is dead, either endpoint router is stuck, or the hop leaves the
    /// mesh.
    #[inline]
    pub fn blocked(&self, from: NodeId, dir: Direction) -> bool {
        self.routers[from.index()] >> dir as usize & 1 != 0
    }

    /// The blocked hops out of `node`, bit `d` for `Direction::ALL[d]`.
    #[inline]
    pub fn blocked_outputs(&self, node: NodeId) -> u8 {
        self.routers[node.index()] & !STUCK
    }

    /// The fault-routing rule, the one place a unicast's next hop out of
    /// `at` toward `dst` (`at != dst`) is decided under faults: the XY
    /// hop if it is live, else the productive hop through the other
    /// dimension if that one is, else a stall. Both networks and the
    /// analyzer's static walk run it. Every hop strictly decreases the
    /// distance to `dst`, so rerouting never livelocks.
    pub fn unicast_hop(&self, mesh: Mesh, at: NodeId, dst: NodeId) -> Hop {
        let xy = xy_first_hop(mesh, at, dst).expect("a unicast hop leaves its destination");
        if !self.blocked(at, xy) {
            return Hop::Xy(xy);
        }
        // XY moves along x first: the other dimension is productive only
        // while both coordinates differ.
        let (a, b) = (mesh.coord(at), mesh.coord(dst));
        let dir = if b.y > a.y {
            Direction::South
        } else {
            Direction::North
        };
        if a.x == b.x || a.y == b.y || self.blocked(at, dir) {
            Hop::Stalled(xy)
        } else {
            Hop::Detour(dir)
        }
    }

    /// Product of the active laser-droop factors (1.0 when none): the
    /// factor the optical hop reach is solved under.
    pub fn efficiency_factor(&self) -> f64 {
        self.efficiency_factor
    }

    /// The largest active bit-error rate (0.0 when none).
    pub fn bit_error_rate(&self) -> f64 {
        self.bit_error_rate
    }
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
        let view = view_at(&plan, mesh, 0);
        assert!(!view.blocked(NodeId(5), Direction::East));
        assert_eq!(view.valid_until(), u64::MAX);
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
        let cases: [(&str, &str); 18] = [
            ("router nX", "bad node"),
            ("router n-1", "bad node"),
            ("link n3 sideways", "bad direction"),
            ("droop fast", "bad factor"),
            ("droop 0", "bad factor, want (0, 1]"),
            ("droop -1", "bad factor"),
            ("droop NaN", "bad factor"),
            ("droop inf", "bad factor"),
            ("droop 2", "bad factor"),
            ("droop 1.0000001", "bad factor"),
            ("biterr lots", "bad rate"),
            ("biterr 2", "bad rate, want [0, 1]"),
            ("biterr -0.5", "bad rate"),
            ("biterr NaN", "bad rate"),
            ("biterr inf", "bad rate"),
            ("router n3 +forever", "bad +duration"),
            // Never active, yet its start would trace an injection.
            ("link n3 east @100 +0", "bad +duration, want at least 1"),
            ("droop", "expected link/router/droop/biterr"),
        ];
        for (text, want) in cases {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.contains(want), "{text:?}: {err}");
            assert!(err.contains("line 1"), "{text:?}: {err}");
        }
        // The closed ends of both ranges are valid.
        let ends = FaultPlan::parse("droop 1\nbiterr 0\nbiterr 1\n").unwrap();
        assert_eq!(ends.len(), 3);
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
        // 0 -> 5 (one east, one south): detour one hop south.
        let view = view_at(&plan, mesh, 0);
        let hop = |view: &FaultView, to: u16| view.unicast_hop(mesh, NodeId(0), NodeId(to));
        assert_eq!(hop(&view, 5), Hop::Detour(Direction::South));
        // 0 -> 4 needs no detour: its XY hop is live.
        assert_eq!(hop(&view, 4), Hop::Xy(Direction::South));
        // 0 -> 1 shares the row: no productive alternative.
        assert_eq!(hop(&view, 1), Hop::Stalled(Direction::East));
        // Detour dimension also dead: stalled on the XY hop.
        plan.push(Fault::permanent(FaultKind::LinkDown {
            node: NodeId(0),
            dir: Direction::South,
        }));
        let view = view_at(&plan, mesh, 0);
        assert_eq!(hop(&view, 5), Hop::Stalled(Direction::East));
    }

    fn view_at(plan: &FaultPlan, mesh: Mesh, cycle: u64) -> FaultView {
        let mut view = FaultView::default();
        assert!(view.advance(plan, mesh, cycle), "an unbuilt view builds");
        view
    }

    /// `random`'s permanent faults plus four transient windows (a dead
    /// link, a clearing stuck router, a bit-error burst and a droop), as
    /// the faulted step digests run them.
    fn with_transients(mut plan: FaultPlan, mesh: Mesh) -> FaultPlan {
        let late = NodeId(mesh.nodes() as u16 - 2);
        for (kind, start, duration) in [
            (
                FaultKind::LinkDown {
                    node: NodeId(1),
                    dir: Direction::East,
                },
                40,
                60,
            ),
            (FaultKind::RouterStuck { node: late }, 60, 50),
            (FaultKind::BitError { rate: 0.2 }, 30, 80),
            (FaultKind::LaserDroop { factor: 0.9 }, 100, 40),
        ] {
            plan.push(Fault::transient(kind, start, duration));
        }
        plan
    }

    /// Holds every answer of `view` to the linear scans of `plan` at
    /// cycle `t`.
    fn assert_answers_as_scans(view: &FaultView, plan: &FaultPlan, mesh: Mesh, t: u64) {
        use phastlane_photonics::power::PowerPoint;
        use phastlane_photonics::wdm::WdmConfig;
        // The optical hop reach under droop for the 4-, 5- and 8-hop designs.
        let reach = |factor: f64| {
            [4, 5, 8].map(|hops| PowerPoint::new(WdmConfig::PAPER, hops, 0.98).reach_under(factor))
        };
        for node in mesh.iter_nodes() {
            assert_eq!(
                view.router_stuck(node),
                plan.router_stuck(t, node),
                "{node} @{t}"
            );
            let mut outs = 0;
            for dir in Direction::ALL {
                let blocked = plan.blocked(t, mesh, node, dir);
                assert_eq!(view.blocked(node, dir), blocked, "{node} {dir:?} @{t}");
                outs |= u8::from(blocked) << dir as usize;
            }
            assert_eq!(view.blocked_outputs(node), outs, "{node} @{t}");
        }
        let factor = plan.efficiency_factor(t);
        assert_eq!(view.efficiency_factor().to_bits(), factor.to_bits(), "@{t}");
        assert_eq!(reach(view.efficiency_factor()), reach(factor), "@{t}");
        assert_eq!(
            view.bit_error_rate().to_bits(),
            plan.bit_error_rate(t).to_bits()
        );
    }

    /// Walks a view through every cycle from 0 to past `plan`'s last
    /// edge and holds each answer to the linear scans at that cycle. The
    /// view is rebuilt only on edge cycles, so equal answers at every
    /// cycle also mean no scan answer changes strictly inside a window.
    /// Then holds [`FaultView::all_active`] to the scans of the same plan
    /// with every window made permanent.
    fn assert_view_matches_scans(plan: &FaultPlan, mesh: Mesh) {
        let last_edge = plan
            .faults()
            .iter()
            .map(|f| {
                f.start
                    .max(f.duration.map_or(0, |d| f.start.saturating_add(d)))
            })
            .max()
            .unwrap_or(0);
        let mut view = FaultView::default();
        for t in 0..=last_edge + 2 {
            let rebuilt = view.advance(plan, mesh, t);
            let edge = plan.edges_at(t).next().is_some();
            assert!(
                t == 0 || rebuilt == edge,
                "cycle {t}: rebuilt {rebuilt}, edge {edge}"
            );
            assert!(view.valid_until() > t);
            assert_answers_as_scans(&view, plan, mesh, t);
        }
        assert_eq!(view.valid_until(), u64::MAX, "no edge after the last");

        let worst = FaultView::all_active(plan, mesh);
        assert_eq!(worst.valid_until(), u64::MAX);
        let permanent = plan.faults.iter().map(|f| Fault::permanent(f.kind));
        let permanent = FaultPlan {
            faults: permanent.collect(),
        };
        assert_answers_as_scans(&worst, &permanent, mesh, 0);
    }

    #[test]
    fn view_answers_as_the_scans_do_at_every_cycle() {
        for mesh in [Mesh::new(8, 8), Mesh::new(8, 4), Mesh::new(5, 3)] {
            for intensity in [0.05, 0.15, 0.3] {
                let plan = FaultPlan::random(mesh, 2009, intensity);
                assert_view_matches_scans(&plan, mesh);
                assert_view_matches_scans(&with_transients(plan, mesh), mesh);
            }
        }
        // Overlapping windows of one kind, late starts, a fault anchored
        // off the 8x4 mesh, and edges on adjacent cycles.
        let plan = FaultPlan::parse(
            "link n3 east @10 +20\n\
             router n4 @15 +10\n\
             router n4 @20 +30\n\
             router n99 @8 +4\n\
             droop 0.9 @5 +40\n\
             droop 0.8 @25 +10\n\
             biterr 0.01 @12\n\
             biterr 0.2 @18 +4\n\
             link n2 south @30\n\
             router n9 @31 +1\n",
        )
        .unwrap();
        assert_view_matches_scans(&plan, Mesh::new(8, 4));
    }
}
