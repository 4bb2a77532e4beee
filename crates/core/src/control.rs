//! The predecoded Router Control bits carried optically with each packet
//! (§2.1, Figure 3).
//!
//! Each packet carries up to 14 *groups* of five control bits — Straight,
//! Left, Right, Local, and Multicast — one group per router it may
//! traverse. The groups ride on two control waveguides: C0 holds Groups
//! 1–7 on wavelengths λ1–λ35, C1 holds Groups 8–14. Each router consumes
//! Group 1 to set its turn/receive resonators, then *frequency-translates*
//! the remaining C0 groups down five wavelengths onto the output C1
//! waveguide while the physical C1 waveguide shifts into the C0 position —
//! lining the next router's group up at Group 1 again.
//!
//! The simulator's flight plans are built first (they know geometry); this
//! module encodes a plan into control groups and decodes them back, so
//! tests can verify the optical control encoding is faithful and lossless.
//!
//! Groups here are ordered by *consumption* (router 1, router 2, …). The
//! physical shift/translate hardware actually consumes waveguide
//! positions in the interleaved order 1, 8, 2, 9, …; the mapping from
//! consumption order to physical position — which the source uses when
//! driving its modulators — is [`crate::channels::group_position_for_router`].

use crate::plan::{Plan, PlanStep, StepExit, StopKind};
use phastlane_netsim::geometry::Direction;
use phastlane_netsim::routing::{classify_turn, Turn};

/// Maximum control groups a packet can carry: 70 bits / 5 = 14, enough
/// for the 14-hop worst-case path of an 8x8 mesh.
pub const MAX_GROUPS: usize = 14;
/// Groups carried per control waveguide (35-way WDM / 5 bits).
pub const GROUPS_PER_WAVEGUIDE: usize = 7;

/// One router's five predecoded control bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControlGroup {
    /// Continue straight through the router.
    pub straight: bool,
    /// Turn left (relative to travel direction).
    pub left: bool,
    /// Turn right.
    pub right: bool,
    /// Receive the packet at this router (destination or interim node).
    pub local: bool,
    /// Multicast: the local node receives a copy; combined with `local`
    /// this router is a multicast delivery endpoint.
    pub multicast: bool,
}

impl ControlGroup {
    /// At most one of straight/left/right may be set, and a group with
    /// none of them set must have `local` set (the packet stops).
    pub fn is_well_formed(&self) -> bool {
        let dirs = u8::from(self.straight) + u8::from(self.left) + u8::from(self.right);
        dirs <= 1 && (dirs == 1 || self.local)
    }

    /// The five bits in wire order (Straight, Left, Right, Local,
    /// Multicast).
    pub fn wire_bits(&self) -> [bool; 5] {
        [
            self.straight,
            self.left,
            self.right,
            self.local,
            self.multicast,
        ]
    }
}

/// The full control payload of a packet: Groups 1..=N.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteControl {
    groups: Vec<ControlGroup>,
}

/// Error decoding a control group against an entry direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "control decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// The routing action a router takes after decoding Group 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedAction {
    /// Forward out of the given port; `tap` means the local node takes a
    /// multicast copy as the packet passes.
    Forward {
        /// Output direction.
        out: Direction,
        /// Broadcast tap for the local node.
        tap: bool,
    },
    /// Receive and consume the packet (final destination / last multicast
    /// target).
    Accept,
    /// Receive and buffer the packet; this router assumes responsibility
    /// for the rest of the route.
    InterimStop {
        /// Whether the local node also keeps a multicast copy.
        tap: bool,
    },
}

impl RouteControl {
    /// Encodes the control groups for a plan: one group per router after
    /// the launch router (the source drives its own output mux directly).
    ///
    /// # Panics
    ///
    /// Panics if the plan needs more than [`MAX_GROUPS`] groups.
    pub fn encode(plan: &Plan) -> RouteControl {
        let steps = &plan.steps()[1..];
        let mut groups: Vec<ControlGroup> = steps.iter().map(Self::encode_step).collect();
        // A plan ending at an interim node stands for a longer route: the
        // full packet control would carry further groups (ending in the
        // final destination's Local bit), and it is exactly the presence
        // of a later Local bit that tells the interim node to assume
        // responsibility rather than consume the packet (§2.1.3). Model
        // the continuation as one trailing group.
        if plan.ends_at_interim() {
            groups.push(ControlGroup {
                local: true,
                ..ControlGroup::default()
            });
        }
        assert!(
            groups.len() <= MAX_GROUPS,
            "route of {} groups exceeds the {MAX_GROUPS}-group control budget",
            groups.len()
        );
        RouteControl { groups }
    }

    fn encode_step(step: &PlanStep) -> ControlGroup {
        let mut g = ControlGroup {
            multicast: step.tap,
            ..ControlGroup::default()
        };
        match step.exit {
            StepExit::Forward(out) => {
                let entry = step.entry.expect("non-launch steps have an entry");
                match classify_turn(entry, out) {
                    Turn::Straight => g.straight = true,
                    Turn::Left => g.left = true,
                    Turn::Right => g.right = true,
                }
            }
            StepExit::Stop(kind) => {
                g.local = true;
                if kind == StopKind::Accept {
                    // Final multicast target: Local + Multicast both set.
                    // (For unicast the Multicast bit simply stays clear.)
                }
            }
        }
        g
    }

    /// Group 1 — the group the current router consumes.
    pub fn group1(&self) -> Option<ControlGroup> {
        self.groups.first().copied()
    }

    /// Number of groups remaining.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups remain.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The frequency translation performed at each output port: Group 1
    /// is consumed, Groups 2..N shift into positions 1..N-1 (C0's
    /// λ6–λ35 translate to λ1–λ30 on the outgoing C1, which physically
    /// becomes C0).
    pub fn translate(&self) -> RouteControl {
        RouteControl {
            groups: self.groups.iter().skip(1).copied().collect(),
        }
    }

    /// Decodes Group 1 relative to the packet's entry direction.
    ///
    /// An interim stop is a Local bit with more groups remaining; the
    /// final accept is a Local bit on the last group.
    ///
    /// # Errors
    ///
    /// Returns an error if no groups remain or Group 1 is malformed.
    pub fn decode(&self, entry: Direction) -> Result<DecodedAction, DecodeError> {
        let g = self
            .group1()
            .ok_or_else(|| DecodeError("no control groups remain".into()))?;
        if !g.is_well_formed() {
            return Err(DecodeError(format!("malformed group {g:?}")));
        }
        if g.local {
            return Ok(if self.len() == 1 {
                DecodedAction::Accept
            } else {
                DecodedAction::InterimStop { tap: g.multicast }
            });
        }
        let out = if g.straight {
            entry
        } else if g.left {
            turn_left(entry)
        } else {
            turn_right(entry)
        };
        Ok(DecodedAction::Forward {
            out,
            tap: g.multicast,
        })
    }

    /// The 35 bit values on the C0 waveguide (Groups 1–7), λ1 first.
    /// Absent groups read as zero.
    pub fn c0_bits(&self) -> [bool; 35] {
        self.waveguide_bits(0)
    }

    /// The 35 bit values on the C1 waveguide (Groups 8–14).
    pub fn c1_bits(&self) -> [bool; 35] {
        self.waveguide_bits(GROUPS_PER_WAVEGUIDE)
    }

    fn waveguide_bits(&self, first_group: usize) -> [bool; 35] {
        let mut out = [false; 35];
        for (slot, g) in self
            .groups
            .iter()
            .skip(first_group)
            .take(GROUPS_PER_WAVEGUIDE)
            .enumerate()
        {
            out[slot * 5..slot * 5 + 5].copy_from_slice(&g.wire_bits());
        }
        out
    }
}

/// Direction after a left turn while travelling in `dir`.
fn turn_left(dir: Direction) -> Direction {
    match dir {
        Direction::North => Direction::West,
        Direction::West => Direction::South,
        Direction::South => Direction::East,
        Direction::East => Direction::North,
    }
}

/// Direction after a right turn while travelling in `dir`.
fn turn_right(dir: Direction) -> Direction {
    turn_left(dir).opposite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use phastlane_netsim::geometry::{Mesh, NodeId};

    fn vd(ids: &[u16]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// Walks the control groups through decode/translate and checks each
    /// decoded action against the plan it was encoded from.
    fn roundtrip(plan: &Plan) {
        let mut ctl = RouteControl::encode(plan);
        for step in &plan.steps()[1..] {
            let entry = step.entry.expect("entry set after launch");
            let action = ctl.decode(entry).expect("decodable");
            match step.exit {
                StepExit::Forward(out) => {
                    assert_eq!(action, DecodedAction::Forward { out, tap: step.tap })
                }
                StepExit::Stop(StopKind::Accept) => assert_eq!(action, DecodedAction::Accept),
                StepExit::Stop(StopKind::Interim) => {
                    assert_eq!(action, DecodedAction::InterimStop { tap: step.tap })
                }
            }
            ctl = ctl.translate();
        }
        if plan.ends_at_interim() {
            assert_eq!(
                ctl.len(),
                1,
                "continuation sentinel remains after an interim stop"
            );
        } else {
            assert!(ctl.is_empty(), "all groups consumed");
        }
    }

    #[test]
    fn unicast_roundtrip() {
        let plan = Plan::build(Mesh::PAPER, NodeId(0), &vd(&[18]), false, 8);
        roundtrip(&plan);
    }

    #[test]
    fn interim_roundtrip() {
        let plan = Plan::build(Mesh::PAPER, NodeId(0), &vd(&[63]), false, 4);
        roundtrip(&plan);
    }

    #[test]
    fn multicast_roundtrip() {
        let plan = Plan::build(Mesh::PAPER, NodeId(2), &vd(&[10, 18, 26]), true, 8);
        roundtrip(&plan);
    }

    #[test]
    fn corner_to_corner_uses_all_14_groups() {
        // 14-hop path with an unbounded segment = 14 groups, the budget.
        let plan = Plan::build(Mesh::PAPER, NodeId(0), &vd(&[63]), false, 14);
        let ctl = RouteControl::encode(&plan);
        assert_eq!(ctl.len(), 14);
        roundtrip(&plan);
    }

    #[test]
    fn c0_holds_first_seven_groups() {
        let plan = Plan::build(Mesh::PAPER, NodeId(0), &vd(&[63]), false, 14);
        let ctl = RouteControl::encode(&plan);
        let c0 = ctl.c0_bits();
        let c1 = ctl.c1_bits();
        // Group 1 of this route is "straight east" -> Straight bit on λ1.
        assert!(c0[0]);
        // Groups 8-14 exist, so C1 is not all zero.
        assert!(c1.iter().any(|&b| b));
        // After 7 translations, old group 8 is the new group 1.
        let mut t = ctl.clone();
        for _ in 0..7 {
            t = t.translate();
        }
        assert_eq!(t.c0_bits()[..5], c1[..5]);
    }

    #[test]
    fn translate_consumes_groups() {
        let plan = Plan::build(Mesh::PAPER, NodeId(0), &vd(&[3]), false, 8);
        let ctl = RouteControl::encode(&plan);
        assert_eq!(ctl.len(), 3);
        assert_eq!(ctl.translate().len(), 2);
        assert_eq!(ctl.translate().translate().translate().len(), 0);
    }

    #[test]
    fn decode_empty_errors() {
        let err = RouteControl::default()
            .decode(Direction::North)
            .unwrap_err();
        assert!(err.to_string().contains("no control groups"));
    }

    #[test]
    fn malformed_group_rejected() {
        let g = ControlGroup {
            straight: true,
            left: true,
            ..Default::default()
        };
        assert!(!g.is_well_formed());
        let ctl = RouteControl { groups: vec![g] };
        assert!(ctl.decode(Direction::North).is_err());
    }

    #[test]
    fn stop_only_group_is_well_formed() {
        let g = ControlGroup {
            local: true,
            ..Default::default()
        };
        assert!(g.is_well_formed());
        let g2 = ControlGroup::default();
        assert!(!g2.is_well_formed(), "no direction and no local is dead");
    }

    #[test]
    fn turn_helpers_are_inverse() {
        for d in Direction::ALL {
            assert_eq!(turn_right(turn_left(d)), d);
            assert_eq!(turn_left(turn_right(d)), d);
            assert_eq!(classify_turn(d, turn_left(d)), Turn::Left);
            assert_eq!(classify_turn(d, turn_right(d)), Turn::Right);
        }
    }
}
