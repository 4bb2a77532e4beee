//! Static reachability and optical-envelope analysis.
//!
//! Two independent questions, both answerable before cycle 0:
//!
//! * **Residual connectivity** — under the worst-case view of a
//!   [`FaultPlan`] ([`FaultView::all_active`], every fault treated as
//!   permanent), which (src, dst) pairs can still be routed by the
//!   networks' fault-routing rule, [`FaultView::unicast_hop`]? The
//!   complement is the exact set of statically partitioned pairs — the
//!   pairs both simulators declare `Undeliverable` under permanent link
//!   and router faults (`tests/static_equals_dynamic.rs` holds them to it). The
//!   analyzer *predicts* those outcomes instead of discovering them at
//!   the retry cap.
//! * **Optical envelope** — the photonics loss budget is a static
//!   property of the design point (Li et al.'s worst-case-loss framing):
//!   the laser is provisioned for `max_hops` hops at the configured
//!   crossing efficiency, and an active [`LaserDroop`] multiplies that
//!   efficiency down, shrinking the number of hops the provisioned power
//!   still covers. When even a single hop no longer closes the budget,
//!   the configuration is statically infeasible — no packet can ever be
//!   delivered optically.
//!
//! [`LaserDroop`]: phastlane_netsim::fault::FaultKind::LaserDroop

use crate::cdg::{route_walk, Walk};
use phastlane_lab::runner::optical_config;
use phastlane_netsim::fault::{FaultPlan, FaultView};
use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_photonics::power::PowerPoint;

/// Residual connectivity of a mesh under a fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residual {
    /// Ordered (src, dst) pairs the static walk cannot route — the
    /// predicted `Undeliverable` pairs.
    pub partitioned: Vec<(NodeId, NodeId)>,
    /// Total ordered pairs examined (`nodes * (nodes - 1)`).
    pub total_pairs: usize,
}

impl Residual {
    /// Whether every pair remains routable.
    pub fn fully_connected(&self) -> bool {
        self.partitioned.is_empty()
    }
}

/// Computes residual connectivity: statically walks every ordered
/// (src, dst) pair under the worst-case fault view and collects the
/// pairs that wedge. Deterministic: pairs are visited and reported in
/// ascending (src, dst) order.
pub fn residual_connectivity(mesh: Mesh, plan: &FaultPlan) -> Residual {
    let view = FaultView::all_active(plan, mesh);
    let mut partitioned = Vec::new();
    for src in mesh.iter_nodes() {
        for dst in mesh.iter_nodes() {
            if src == dst {
                continue;
            }
            if let Walk::Partitioned { .. } = route_walk(mesh, &view, src, dst) {
                partitioned.push((src, dst));
            }
        }
    }
    Residual {
        partitioned,
        total_pairs: mesh.nodes() * (mesh.nodes() - 1),
    }
}

/// The static optical feasibility of one network configuration under a
/// fault plan's laser droop.
#[derive(Debug, Clone, PartialEq)]
pub struct OpticalEnvelope {
    /// WDM degree of the data path.
    pub wdm: u32,
    /// Hops per cycle the design is provisioned for.
    pub max_hops: u32,
    /// Nominal per-crossing efficiency.
    pub crossing_efficiency: f64,
    /// Product of the plan's droop factors (worst case; 1.0 = none).
    pub droop_factor: f64,
    /// Hops per cycle the *provisioned* laser power still covers at the
    /// drooped efficiency. `0` means even one hop no longer closes the
    /// loss budget: statically infeasible.
    pub effective_hops: u32,
    /// Mesh diameter in hops (corner to corner under XY).
    pub diameter: u32,
    /// Minimum cycles for a diameter-length transit at the effective
    /// hop reach, or `None` when infeasible.
    pub min_transit_cycles: Option<u32>,
}

impl OpticalEnvelope {
    /// Whether the budget still closes for at least one hop per cycle.
    pub fn feasible(&self) -> bool {
        self.effective_hops > 0
    }
}

/// Evaluates the optical envelope of `net` on `mesh` under `plan`'s
/// worst-case droop, every droop at once ([`FaultView::all_active`]).
/// Returns `Ok(None)` for electrical networks.
///
/// The provisioned power is the peak power of the *nominal* design
/// point ([`PowerPoint::peak_optical_power`] at `max_hops` and the
/// configured efficiency); the effective hop reach is the largest hop
/// count whose drooped-efficiency peak power still fits under it —
/// [`PowerPoint::reach_under`], the rule the optical core runs every
/// cycle.
///
/// # Errors
///
/// Errors on an unknown network name.
pub fn optical_envelope(
    net: &str,
    mesh: Mesh,
    plan: &FaultPlan,
) -> Result<Option<OpticalEnvelope>, String> {
    let Some(cfg) = optical_config(net)? else {
        return Ok(None);
    };
    let droop = FaultView::all_active(plan, mesh).efficiency_factor();
    let effective_hops =
        PowerPoint::new(cfg.wdm, cfg.max_hops, cfg.crossing_efficiency).reach_under(droop);
    let corner = NodeId(0);
    let far = NodeId((mesh.nodes() - 1) as u16);
    let diameter = mesh.distance(corner, far);
    Ok(Some(OpticalEnvelope {
        wdm: cfg.wdm.payload_wdm,
        max_hops: cfg.max_hops,
        crossing_efficiency: cfg.crossing_efficiency,
        droop_factor: droop,
        effective_hops,
        diameter,
        min_transit_cycles: (effective_hops > 0).then(|| diameter.div_ceil(effective_hops)),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::fault::{Fault, FaultKind};
    use phastlane_netsim::geometry::Direction;

    #[test]
    fn empty_plan_keeps_full_connectivity() {
        let r = residual_connectivity(Mesh::new(4, 4), &FaultPlan::new());
        assert!(r.fully_connected());
        assert_eq!(r.total_pairs, 16 * 15);
    }

    #[test]
    fn row_cut_partitions_the_exact_pair_set() {
        // Known answer: cut every vertical link between row 1 and row 2
        // of a 4x4 mesh (both directions). The mesh splits into a top
        // half (nodes 0..8) and a bottom half (nodes 8..16); exactly the
        // 2 * 8 * 8 = 128 cross-half ordered pairs are partitioned.
        let mesh = Mesh::new(4, 4);
        let mut plan = FaultPlan::new();
        for x in 0..4u16 {
            plan.push(Fault::permanent(FaultKind::LinkDown {
                node: NodeId(4 + x), // row 1
                dir: Direction::South,
            }));
            plan.push(Fault::permanent(FaultKind::LinkDown {
                node: NodeId(8 + x), // row 2
                dir: Direction::North,
            }));
        }
        let r = residual_connectivity(mesh, &plan);
        let mut expect = Vec::new();
        for src in mesh.iter_nodes() {
            for dst in mesh.iter_nodes() {
                if src == dst {
                    continue;
                }
                if (src.0 < 8) != (dst.0 < 8) {
                    expect.push((src, dst));
                }
            }
        }
        assert_eq!(r.partitioned.len(), 128);
        assert_eq!(r.partitioned, expect);
    }

    #[test]
    fn single_dead_link_is_routed_around() {
        // One dead link in the mesh interior: detours (and the reverse
        // direction of the same span) keep every pair connected.
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LinkDown {
            node: NodeId(5),
            dir: Direction::East,
        }));
        let r = residual_connectivity(Mesh::new(4, 4), &plan);
        // XY + productive detours cannot always route around even one
        // dead link (same-row pairs have no productive alternative), but
        // the damage must be exactly the same-row pairs crossing it.
        for (src, dst) in &r.partitioned {
            let mesh = Mesh::new(4, 4);
            let (a, b) = (mesh.coord(*src), mesh.coord(*dst));
            assert_eq!(a.y, b.y, "only same-row pairs may wedge: {src}->{dst}");
        }
    }

    #[test]
    fn stuck_router_isolates_its_node() {
        let mesh = Mesh::new(4, 4);
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::RouterStuck { node: NodeId(5) }));
        let r = residual_connectivity(mesh, &plan);
        // Every pair into or out of the stuck node is partitioned.
        for other in mesh.iter_nodes() {
            if other == NodeId(5) {
                continue;
            }
            assert!(r.partitioned.contains(&(NodeId(5), other)), "{other}");
            assert!(r.partitioned.contains(&(other, NodeId(5))), "{other}");
        }
    }

    #[test]
    fn nominal_envelope_covers_the_design_point() {
        let env = optical_envelope("optical4", Mesh::PAPER, &FaultPlan::new())
            .unwrap()
            .expect("optical nets have an envelope");
        assert_eq!(env.max_hops, 4);
        assert_eq!(env.effective_hops, 4, "no droop, full provisioned reach");
        assert_eq!(env.diameter, 14);
        assert_eq!(env.min_transit_cycles, Some(4)); // ceil(14 / 4)
        assert!(env.feasible());
    }

    #[test]
    fn droop_shrinks_the_effective_reach() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LaserDroop { factor: 0.97 }));
        let env = optical_envelope("optical4", Mesh::PAPER, &plan)
            .unwrap()
            .unwrap();
        assert!((env.droop_factor - 0.97).abs() < 1e-12);
        assert!(
            env.effective_hops < 4,
            "a 3% droop must cost at least one hop, got {}",
            env.effective_hops
        );
        assert!(env.feasible());
    }

    #[test]
    fn severe_droop_is_statically_infeasible() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LaserDroop { factor: 0.5 }));
        let env = optical_envelope("optical4", Mesh::PAPER, &plan)
            .unwrap()
            .unwrap();
        assert_eq!(env.effective_hops, 0);
        assert!(!env.feasible());
        assert_eq!(env.min_transit_cycles, None);
    }

    #[test]
    fn droop_factors_compose_multiplicatively() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::permanent(FaultKind::LaserDroop { factor: 0.99 }));
        plan.push(Fault::transient(
            FaultKind::LaserDroop { factor: 0.98 },
            5,
            10,
        ));
        let env = optical_envelope("optical4", Mesh::PAPER, &plan)
            .unwrap()
            .unwrap();
        assert!((env.droop_factor - 0.99 * 0.98).abs() < 1e-12);
    }

    #[test]
    fn electrical_nets_have_no_envelope() {
        assert_eq!(
            optical_envelope("electrical3", Mesh::PAPER, &FaultPlan::new()).unwrap(),
            None
        );
    }

    #[test]
    fn unknown_net_is_an_error() {
        let err = optical_envelope("warp", Mesh::PAPER, &FaultPlan::new()).unwrap_err();
        assert!(err.contains("unknown network"), "{err}");
    }
}
