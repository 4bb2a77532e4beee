//! The baseline electrical virtual-channel network simulator (Table 2).
//!
//! An input-queued VC router per node: 10 single-flit VCs per port,
//! credit-based flow control with wait-for-tail credit, separable
//! iSLIP VC and switch allocation, crossbar input speedup 4, and a 2- or
//! 3-cycle router pipeline (route lookahead + speculation collapse the
//! stages; a flit that arrives at cycle *T* departs at *T + delay* and
//! lands in the next router at *T + delay + 1*, one link cycle later).
//! Ejection bypasses the
//! crossbar: a flit reaching its destination router is accepted by the
//! processor one cycle after arrival. Broadcasts use pre-installed VCTM
//! trees ([`crate::vctm`]).
//!
//! [`ElectricalNetwork::step`] is a driver over the eight phases of a
//! cycle, marking the hot-loop profiler after each group:
//!
//! | # | phase function | `Phase` mark |
//! |---|---|---|
//! | — | the fault view, rebuilt at fault edges (edge events) | `Fault` |
//! | 1 | `return_credits` | `Drain` |
//! | 2 | `land_arrivals` | `Drain` |
//! | 3 | `eject` (ejection bypass) | `Eject` |
//! | 4 | `inject_from_nics`; a stuck router's NIC: `age_out_nic` | `Route` |
//! | 5 | `allocate_vcs` → `allocate_output_vcs` per output | `Arbitrate` |
//! | 6 | `switch_and_traverse` → `traverse_router` per router | `Traverse` |
//! | 7 | `recycle_vcs`; a stalled flit under faults: `abandon` | `Drain` |
//! | 8 | leakage, clock (in the driver) | `Drain` |
//!
//! Phases 7–8 are resource recycling, so their time accrues to `Drain`
//! alongside phases 1–2.
//!
//! # Layout
//!
//! Flits are `Copy` values (branches inline, at most one per output) in
//! one flat slot array, `(router * 5 + port) * V + vc`. Beside it each
//! router keeps a `u16` occupancy mask per input port, a `u16` credit
//! mask per output direction, and four readiness masks that say which
//! flits have work in which phase: `eject_due` (a local delivery owed),
//! `want_vc` (eligible branches waiting for a downstream VC, one `u128`
//! per output), `has_vc` (granted branches that have not crossed) and
//! `touched` (ejected or crossed this cycle, so possibly finished). They
//! change only where a flit's state does: placement, ejection, a VC
//! grant, a crossing and a free. A flit still in the router pipeline
//! waits on a per-router eligibility wheel, bucket
//! `eligible_at & wheel_mask`, sized so no two pending cycles share a
//! bucket; VC allocation first moves the current bucket into `want_vc`.
//! So eject, VC allocation, switch-candidate selection and recycling
//! walk the set bits of pending work in ascending (router, port, vc)
//! order, never every resident flit (under a fault plan recycling
//! walks every occupied VC, as any flit may be stall-abandoned), and the
//! two round-robin pointers (`va_ptr`, `vc_sel`) are mask rotations.
//! Debug builds check each busy router's masks against a scan of its VCs
//! once per cycle, and credit conservation on every link at the end of
//! every cycle. A steady-state `step`
//! allocates nothing (`tests/zero_alloc.rs`): the link and credit
//! buffers are drained in place, switch allocation works on fixed
//! arrays ([`crate::islip`]), and a tree branch's targets are
//! `mask & region(here, out)` from the per-mesh table in
//! [`crate::vctm::TreeRegions`]. Under a fault plan every stuck-router
//! and blocked-output lookup is a bit test in a [`FaultView`], rebuilt
//! only on the cycle a fault starts or ends; a router's blocked outputs
//! are one 4-bit mask of it.
//!
//! The visiting order is behaviour, not style: trace events and
//! delivery order follow it, and `tests/step_digest.rs` pins it across
//! commits. Energy does not: the hot loop only counts events
//! ([`ElectricalNetwork::energy_counts`]), and [`power::energy`] prices
//! them when [`Network::energy`] is read.

use crate::config::ElectricalConfig;
use crate::islip::{first_from, Islip, MAX_PORTS};
use crate::power::{self, EnergyCounts};
use crate::vctm::{mask_of, tree_fork, TargetMask, TreeRegions};
use phastlane_netsim::fault::{FailedDelivery, FaultPlan, FaultView, Hop};
use phastlane_netsim::geometry::{Direction, Mesh, NodeId, Port};
use phastlane_netsim::ledger::{DeliveryLedger, PacketOrigin};
use phastlane_netsim::mask::set_bits;
use phastlane_netsim::network::Network;
use phastlane_netsim::nic::{Nic, NIC_ENTRIES};
use phastlane_netsim::obs::{
    EventKind, FlightRecorder, Obs, Phase, PhaseBreakdown, PhaseProfiler, TraceBuffer,
};
use phastlane_netsim::packet::{Delivery, DestSet, NewPacket, PacketId};
use phastlane_netsim::routing::xy_first_hop;
use phastlane_netsim::stats::{EnergyReport, NetworkStats};
use phastlane_netsim::telemetry::LinkCounters;

/// Most VCs a port can have: the width of the per-port masks.
const MAX_VCS: usize = 16;

/// The mask of a port's `vcs_per_port` VCs.
fn vc_mask(vcs_per_port: usize) -> u16 {
    u16::MAX >> (MAX_VCS - vcs_per_port)
}

/// Routing state a flit carries.
#[derive(Debug, Clone, Copy)]
enum Route {
    Unicast(NodeId),
    /// A VCTM multicast: remaining targets of this subtree.
    Tree(TargetMask),
}

/// One pending output branch of a flit (unicast flits have one; tree
/// flits fork). A tree branch carries `route mask & region(here, out)`,
/// derived when its copy leaves rather than stored per branch.
#[derive(Debug, Clone, Copy)]
struct Branch {
    out: Direction,
    /// Downstream VC reserved by the VC allocator.
    out_vc: Option<u8>,
    done: bool,
}

/// A flit occupying a VC.
#[derive(Debug, Clone, Copy)]
struct Flit {
    core: PacketOrigin,
    route: Route,
    in_port: Port,
    eligible_at: u64,
    /// The first `n_branches` are this flit's branches, in tree order;
    /// no two share an output (a mesh router has four).
    branches: [Branch; 4],
    n_branches: u8,
    /// Local delivery pending at this cycle (ejection bypass).
    eject_at: Option<u64>,
}

// A slot may not outgrow the `Vec`-branched flit it replaced (120 bytes
// plus a heap block per flit): `peak_rss_mb` is a ledger metric.
const _: () = assert!(std::mem::size_of::<Option<Flit>>() <= 112);

impl Flit {
    fn branches(&self) -> &[Branch] {
        &self.branches[..usize::from(self.n_branches)]
    }

    fn push_branch(&mut self, out: Direction) {
        self.branches[usize::from(self.n_branches)] = Branch {
            out,
            out_vc: None,
            done: false,
        };
        self.n_branches += 1;
    }

    /// The branch leaving through `out`.
    fn branch_mut(&mut self, out: Direction) -> &mut Branch {
        self.branches[..usize::from(self.n_branches)]
            .iter_mut()
            .find(|b| b.out == out)
            .expect("the allocators only name outputs the flit branches to")
    }

    fn finished(&self) -> bool {
        self.eject_at.is_none() && self.branches().iter().all(|b| b.done)
    }
}

/// Per-router control state; the flits themselves live in
/// [`ElectricalNetwork::slots`]. Masks hold one bit per VC.
#[derive(Debug, Clone)]
struct Router {
    /// `occupied[port]`: the VCs of input `port` holding a flit.
    occupied: [u16; 5],
    /// `want_vc[dir]`: eligible flits with a branch to `dir` still
    /// waiting for a downstream VC, bit `port * MAX_VCS + vc`.
    want_vc: [u128; 4],
    /// `has_vc[port][dir]`: the VCs whose branch to `dir` holds a
    /// downstream VC and has not crossed.
    has_vc: [[u16; 4]; 5],
    /// `eject_due[port]`: the VCs whose flit owes a local delivery.
    eject_due: [u16; 5],
    /// `touched[port]`: the VCs whose flit ejected or crossed this
    /// cycle, the only ones that can have finished.
    touched: [u16; 5],
    /// `credits[dir]`: the free VCs of the downstream input port.
    credits: [u16; 4],
    /// VC-allocator rotation per output direction: the first requester
    /// to serve, as `port * MAX_VCS + vc`.
    va_ptr: [u8; 4],
    /// Switch allocator state (5 inputs x 4 outputs).
    sa: Islip,
    /// Round-robin VC selector per (input port, output dir).
    vc_sel: [[u8; 4]; 5],
    /// The router across each output link, if the mesh has one.
    neighbors: [Option<NodeId>; 4],
}

impl Router {
    fn new(mesh: Mesh, here: NodeId, vc_mask: u16) -> Self {
        let neighbors = Direction::ALL.map(|dir| mesh.neighbor(here, dir));
        Router {
            occupied: [0; 5],
            want_vc: [0; 4],
            has_vc: [[0; 4]; 5],
            eject_due: [0; 5],
            touched: [0; 5],
            credits: neighbors.map(|n| if n.is_some() { vc_mask } else { 0 }),
            va_ptr: [0; 4],
            sa: Islip::new(5, 4),
            vc_sel: [[0; 4]; 5],
            neighbors,
        }
    }

    /// Idle routers skip every phase.
    fn is_idle(&self) -> bool {
        self.occupied == [0; 5]
    }

    /// Empties VC `vc` of input `port`: every mask forgets it.
    fn release(&mut self, port: usize, vc: usize) {
        let keep = !(1u16 << vc);
        self.occupied[port] &= keep;
        self.eject_due[port] &= keep;
        self.touched[port] &= keep;
        for has in &mut self.has_vc[port] {
            *has &= keep;
        }
        let keep_want = !(1u128 << (port * MAX_VCS + vc));
        for want in &mut self.want_vc {
            *want &= keep_want;
        }
    }
}

/// A flit in flight on a link.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    router: usize,
    port: usize,
    vc: usize,
    flit: Flit,
}

/// A credit travelling back upstream.
#[derive(Debug, Clone, Copy)]
struct CreditReturn {
    router: usize,
    dir: usize,
    vc: usize,
}

/// The baseline electrical network.
#[derive(Debug)]
pub struct ElectricalNetwork {
    cfg: ElectricalConfig,
    cycle: u64,
    routers: Vec<Router>,
    /// Every VC of every router, flat: `(router * 5 + port) * V + vc`.
    /// `Router::occupied` says which hold a flit, so no phase scans the
    /// empty ones.
    slots: Vec<Option<Flit>>,
    /// The eligibility wheel: flits with branches still in the router
    /// pipeline, one bit per VC in `wheel[bucket(router, eligible_at)][port]`
    /// (`wheel_mask + 1` buckets per router). `allocate_vcs` promotes
    /// the current bucket into `Router::want_vc`.
    wheel: Vec<[u16; 5]>,
    wheel_mask: u64,
    nics: Vec<Nic<(PacketOrigin, Route)>>,
    /// Link arrivals and upstream credits of the previous cycle; drained
    /// in place every cycle, so their capacity is reused.
    incoming: Vec<Arrival>,
    credit_returns: Vec<CreditReturn>,
    /// VCTM subtree regions of this mesh.
    regions: TreeRegions,
    /// Packet ids, owed destination copies, deliveries, terminal
    /// failures, stats.
    ledger: DeliveryLedger,
    /// Sources whose VCTM tree is already installed (dense, per node).
    warm_trees: Vec<bool>,
    /// Energy events the hot loop counts. `cycles` and `traversals`
    /// stay 0 here: [`Self::energy_counts`] reads `cycle` and the link
    /// counters' total.
    energy: EnergyCounts,
    links: LinkCounters,
    /// Observability handle: one branch per emit site when disabled.
    obs: Obs,
    /// Hot-loop phase profiler: one branch per mark site when disabled.
    profiler: PhaseProfiler,
    /// Scheduled device failures; the empty plan is zero-effect (every
    /// fault hook is gated on it).
    fault_plan: FaultPlan,
    /// The plan's state this cycle, rebuilt at fault edges.
    faults: FaultView,
    /// The plan's state next cycle: a flit that crosses a link is routed
    /// at its next router as of the cycle it lands there.
    faults_next: FaultView,
    /// Debug builds: one counter per directed link for the credit
    /// conservation check (empty in release).
    credit_audit: Vec<usize>,
}

/// How long a flit may sit unserviced before a fault plan declares its
/// remaining targets undeliverable (the electrical livelock guard; only
/// consulted while a fault plan is installed). Far beyond any contention
/// stall the 1-flit-per-VC router can produce on an 8x8 mesh.
const STALL_ABANDON_CYCLES: u64 = 2_000;

impl ElectricalNetwork {
    /// Builds a network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on a configuration this model does not implement: no VCs
    /// or more than 16 per port, or an input speedup of zero.
    pub fn new(cfg: ElectricalConfig) -> Self {
        assert!(
            (1..=MAX_VCS).contains(&cfg.vcs_per_port),
            "vcs_per_port must be 1 to {MAX_VCS} (the VC mask width), not {}",
            cfg.vcs_per_port
        );
        assert!(
            cfg.input_speedup >= 1,
            "input_speedup must be at least 1: at 0 no flit ever crosses a switch"
        );
        let mesh = cfg.mesh;
        let nodes = cfg.mesh.nodes();
        let routers = mesh
            .iter_nodes()
            .map(|here| Router::new(mesh, here, vc_mask(cfg.vcs_per_port)))
            .collect();
        let nics = (0..nodes).map(|_| Nic::new(NIC_ENTRIES)).collect();
        // A flit is placed at most `router_delay + vctm_setup_penalty`
        // cycles before it is eligible, so no two pending cycles share
        // a bucket.
        let wheel_len = (cfg.router_delay + cfg.vctm_setup_penalty + 2).next_power_of_two();
        ElectricalNetwork {
            routers,
            slots: vec![None; nodes * 5 * cfg.vcs_per_port],
            wheel: vec![[0; 5]; nodes * wheel_len as usize],
            wheel_mask: wheel_len - 1,
            nics,
            // At most one flit leaves per directed link and cycle.
            incoming: Vec::with_capacity(4 * nodes),
            credit_returns: Vec::with_capacity(4 * nodes),
            regions: TreeRegions::new(mesh),
            ledger: DeliveryLedger::new(),
            warm_trees: vec![false; nodes],
            energy: EnergyCounts::default(),
            links: LinkCounters::for_mesh(mesh),
            obs: Obs::off(),
            profiler: PhaseProfiler::off(),
            fault_plan: FaultPlan::new(),
            faults: FaultView::default(),
            faults_next: FaultView::default(),
            credit_audit: vec![0; if cfg!(debug_assertions) { 4 * nodes } else { 0 }],
            cfg,
            cycle: 0,
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &ElectricalConfig {
        &self.cfg
    }

    /// The energy events so far; [`Network::energy`] is
    /// [`power::energy`] of them.
    pub fn energy_counts(&self) -> EnergyCounts {
        EnergyCounts {
            cycles: self.cycle,
            traversals: self.links.total(),
            ..self.energy
        }
    }

    /// Index into `slots` of VC `vc` of input `port` of router `r_idx`.
    fn slot(&self, r_idx: usize, port: usize, vc: usize) -> usize {
        (r_idx * 5 + port) * self.cfg.vcs_per_port + vc
    }

    /// Index into `wheel` of router `r_idx`'s bucket for cycle `at`.
    fn bucket(&self, r_idx: usize, at: u64) -> usize {
        (r_idx as u64 * (self.wheel_mask + 1) + (at & self.wheel_mask)) as usize
    }

    /// Puts `flit` into the free VC `vc` of input `port` of router
    /// `r_idx`: a flit owing a delivery is due for ejection, and one
    /// with branches waits on the wheel until its eligible cycle.
    fn place(&mut self, r_idx: usize, port: usize, vc: usize, flit: Flit) {
        let bit = 1 << vc;
        let slot = self.slot(r_idx, port, vc);
        debug_assert!(self.slots[slot].is_none(), "reserved VC occupied");
        let router = &mut self.routers[r_idx];
        router.occupied[port] |= bit;
        if flit.eject_at.is_some() {
            router.eject_due[port] |= bit;
        }
        if flit.n_branches > 0 {
            let bucket = self.bucket(r_idx, flit.eligible_at);
            self.wheel[bucket][port] |= bit;
        }
        self.energy.buffer_writes += 1;
        self.slots[slot] = Some(flit);
    }

    fn make_flit(
        &mut self,
        at: NodeId,
        core: PacketOrigin,
        route: Route,
        in_port: Port,
        now: u64,
    ) -> Flit {
        let mesh = self.cfg.mesh;
        let mut flit = Flit {
            core,
            route,
            in_port,
            eligible_at: now + self.cfg.router_delay,
            branches: [Branch {
                out: Direction::North,
                out_vc: None,
                done: true,
            }; 4],
            n_branches: 0,
            eject_at: None,
        };
        let eject = match route {
            Route::Unicast(dest) if dest == at => true,
            Route::Unicast(dest) => {
                let mut out = xy_first_hop(mesh, at, dest).expect("dest != at");
                if !self.fault_plan.is_empty() {
                    // A flit that crosses a link is routed at its next
                    // router as of the next cycle, so `now` is this cycle
                    // or the next. A stalled branch keeps its dead XY
                    // output: the VC allocator never grants it, and the
                    // stall-abandon guard eventually declares the target
                    // undeliverable.
                    let faults = if now == self.cycle {
                        &self.faults
                    } else {
                        &self.faults_next
                    };
                    if let Hop::Detour(dir) = faults.unicast_hop(mesh, at, dest) {
                        out = dir;
                        self.ledger.stats.rerouted += 1;
                        self.obs
                            .emit(now, EventKind::FaultReroute, at, Some(dir), Some(core.id));
                    }
                }
                flit.push_branch(out);
                false
            }
            Route::Tree(mask) => {
                let (forks, deliver) = tree_fork(&self.regions, core.src, at, mask);
                for fork in forks.iter() {
                    flit.push_branch(fork.out);
                }
                deliver
            }
        };
        flit.eject_at = eject.then_some(now + 1);
        flit
    }

    /// The routing state carried by the flit copy that leaves router
    /// `here` through `out`, for a flit routed by `route`.
    fn branch_route(&self, route: Route, here: NodeId, out: Direction) -> Route {
        match route {
            Route::Unicast(dest) => Route::Unicast(dest),
            Route::Tree(mask) => {
                let submask = mask.and(&self.regions.region(here, out));
                debug_assert!(!submask.is_empty(), "tree branches carry targets");
                Route::Tree(submask)
            }
        }
    }

    /// Declares `route`'s targets terminally undeliverable at `at`.
    fn fail_route(&mut self, packet: PacketOrigin, route: Route, at: NodeId, now: u64) {
        match route {
            Route::Unicast(dest) => self.ledger.fail(&mut self.obs, packet, dest, at, now),
            Route::Tree(mask) => {
                for t in mask.iter() {
                    self.ledger.fail(&mut self.obs, packet, t, at, now);
                }
            }
        }
    }

    /// Phase 1: credits return.
    fn return_credits(&mut self) {
        self.profiler
            .add_work(Phase::Drain, self.credit_returns.len() as u64);
        for cr in self.credit_returns.drain(..) {
            let credits = &mut self.routers[cr.router].credits[cr.dir];
            debug_assert!(*credits & (1 << cr.vc) == 0, "credit returned twice");
            *credits |= 1 << cr.vc;
        }
    }

    /// Phase 2: link arrivals land in their reserved VCs.
    fn land_arrivals(&mut self) {
        for i in 0..self.incoming.len() {
            let Arrival {
                router,
                port,
                vc,
                flit,
            } = self.incoming[i];
            self.place(router, port, vc, flit);
        }
        self.incoming.clear();
    }

    /// Phase 3: ejection bypass — deliver flits one cycle after
    /// arrival, without the crossbar.
    fn eject(&mut self, now: u64, faulted: bool) {
        let delivered_before = self.ledger.pending_deliveries();
        for r_idx in 0..self.routers.len() {
            if self.routers[r_idx].eject_due == [0; 5] {
                continue;
            }
            let here = NodeId(r_idx as u16);
            if faulted && self.faults.router_stuck(here) {
                continue; // a stuck router cannot even eject
            }
            for port in 0..5 {
                for vc in set_bits(u64::from(self.routers[r_idx].eject_due[port])) {
                    let slot = self.slot(r_idx, port, vc);
                    let flit = self.slots[slot].as_mut().expect("occupied VC holds a flit");
                    if flit.eject_at.is_some_and(|t| t <= now) {
                        flit.eject_at = None;
                        let router = &mut self.routers[r_idx];
                        router.eject_due[port] &= !(1 << vc);
                        router.touched[port] |= 1 << vc;
                        self.energy.ejections += 1;
                        self.ledger
                            .deliver(&mut self.obs, flit.core, here, now, now);
                    }
                }
            }
        }
        let ejected = self.ledger.pending_deliveries() - delivered_before;
        self.profiler.add_work(Phase::Eject, ejected as u64);
    }

    /// Phase 4: injection — one flit per node per cycle into a free
    /// local-port VC.
    fn inject_from_nics(&mut self, now: u64, faulted: bool) {
        let local = Port::Local.index();
        let vc_mask = vc_mask(self.cfg.vcs_per_port);
        let mut route_work = 0u64;
        for r_idx in 0..self.routers.len() {
            let here = NodeId(r_idx as u16);
            if self.nics[r_idx].is_empty() {
                continue;
            }
            if faulted && self.faults.router_stuck(here) {
                self.age_out_nic(here, now);
                continue;
            }
            let free = !self.routers[r_idx].occupied[local] & vc_mask;
            if free == 0 {
                continue;
            }
            let vc = free.trailing_zeros() as usize;
            let (core, route) = self.nics[r_idx].pop().expect("checked non-empty");
            let mut flit = self.make_flit(here, core, route, Port::Local, now);
            if let Route::Tree(_) = route {
                if self.cfg.vctm_setup_penalty > 0
                    && !std::mem::replace(&mut self.warm_trees[core.src.index()], true)
                {
                    flit.eligible_at += self.cfg.vctm_setup_penalty;
                }
            }
            self.place(r_idx, local, vc, flit);
            route_work += 1;
        }
        self.profiler.add_work(Phase::Route, route_work);
    }

    /// A stuck router accepts no new traffic — and a permanent fault
    /// would strand its own NIC queue forever. Age out entries waiting
    /// far past any transient window, failing their targets terminally
    /// so accounting stays closed.
    fn age_out_nic(&mut self, here: NodeId, now: u64) {
        while let Some((core, _)) = self.nics[here.index()].front() {
            if now.saturating_sub(core.injected_cycle) <= STALL_ABANDON_CYCLES {
                break;
            }
            let (core, route) = self.nics[here.index()].pop().expect("checked non-empty");
            self.ledger.stats.retry_exhausted += 1;
            self.fail_route(core, route, here, now);
        }
    }

    /// Phase 5: VC allocation at every live output of every busy router.
    fn allocate_vcs(&mut self, now: u64) {
        let mut arb_work = 0u64;
        for r_idx in 0..self.routers.len() {
            if self.routers[r_idx].is_idle() {
                continue;
            }
            self.promote_eligible(r_idx, now);
            debug_assert!(
                self.masks_match_the_slots(r_idx, now),
                "router {r_idx}'s readiness masks disagree with its VCs at cycle {now}"
            );
            let dead = self.dead_outputs(r_idx);
            for dir in Direction::ALL {
                let d = dir as usize;
                // Never grant VCs across a faulted link; the edge of the
                // mesh has no credits to grant.
                let requesters = self.routers[r_idx].want_vc[d];
                if requesters != 0 && dead >> d & 1 == 0 {
                    arb_work += self.allocate_output_vcs(r_idx, dir, requesters);
                }
            }
        }
        self.profiler.add_work(Phase::Arbitrate, arb_work);
    }

    /// The blocked outputs of router `r_idx` this cycle, one bit per
    /// direction (none without a fault plan).
    fn dead_outputs(&self, r_idx: usize) -> u8 {
        if self.fault_plan.is_empty() {
            0
        } else {
            self.faults.blocked_outputs(NodeId(r_idx as u16))
        }
    }

    /// Moves router `r_idx`'s flits that become eligible at `now` off
    /// the wheel: each branch of theirs starts requesting a VC.
    fn promote_eligible(&mut self, r_idx: usize, now: u64) {
        let bucket = self.bucket(r_idx, now);
        let due = std::mem::take(&mut self.wheel[bucket]);
        for (port, &vcs) in due.iter().enumerate() {
            for vc in set_bits(u64::from(vcs)) {
                let flit = self.slots[self.slot(r_idx, port, vc)]
                    .as_ref()
                    .expect("a wheel entry holds a flit");
                debug_assert_eq!(flit.eligible_at, now, "one pending cycle per bucket");
                for b in flit.branches() {
                    self.routers[r_idx].want_vc[b.out as usize] |= 1 << (port * MAX_VCS + vc);
                }
            }
        }
    }

    /// Grants the free downstream VCs of router `r_idx`'s output `dir`
    /// to `requesters`, round-robin from the VA pointer, lowest free VC
    /// first; returns the number of grants.
    fn allocate_output_vcs(&mut self, r_idx: usize, dir: Direction, requesters: u128) -> u64 {
        let d = dir as usize;
        // Requesters from the pointer up go first, then the wrapped ones.
        let below_ptr = (1u128 << self.routers[r_idx].va_ptr[d]) - 1;
        let mut granted = 0;
        for mut turn in [requesters & !below_ptr, requesters & below_ptr] {
            while turn != 0 {
                let free = self.routers[r_idx].credits[d];
                if free == 0 {
                    return granted;
                }
                let at = turn.trailing_zeros() as usize;
                turn &= turn - 1;
                let slot = self.slot(r_idx, at / MAX_VCS, at % MAX_VCS);
                let flit = self.slots[slot].as_mut().expect("requester exists");
                flit.branch_mut(dir).out_vc = Some(free.trailing_zeros() as u8);
                let router = &mut self.routers[r_idx];
                router.want_vc[d] &= !(1 << at);
                router.has_vc[at / MAX_VCS][d] |= 1 << (at % MAX_VCS);
                router.credits[d] = free & (free - 1);
                router.va_ptr[d] = (at + 1) as u8;
                self.energy.vc_grants += 1;
                granted += 1;
            }
        }
        granted
    }

    /// Phase 6: switch allocation (iSLIP) and traversal.
    fn switch_and_traverse(&mut self, now: u64, faulted: bool) {
        for r_idx in 0..self.routers.len() {
            if self.routers[r_idx].is_idle() {
                continue;
            }
            let here = NodeId(r_idx as u16);
            if faulted && self.faults.router_stuck(here) {
                continue; // nothing moves through a stuck router
            }
            self.traverse_router(here, now);
        }
        // Link traversals this cycle = arrivals queued for the next one.
        self.profiler
            .add_work(Phase::Traverse, self.incoming.len() as u64);
    }

    /// The switch requests of router `r_idx`: per input port the outputs
    /// it asks for, and per (input port, output) the candidate VC —
    /// chosen round-robin from the VC selector among the VCs whose
    /// branch holds a downstream VC on that output. Granted VCs across a
    /// now-dead link wait.
    fn switch_requests(&self, r_idx: usize) -> ([u8; 5], [[usize; 4]; 5]) {
        let router = &self.routers[r_idx];
        let live = !self.dead_outputs(r_idx);
        let mut requests = [0u8; 5];
        let mut candidate = [[0usize; 4]; 5];
        for (port, ready) in router.has_vc.iter().enumerate() {
            for (d, &ready) in ready.iter().enumerate() {
                if live >> d & 1 == 0 {
                    continue;
                }
                if let Some(vc) = first_from(ready, router.vc_sel[port][d]) {
                    candidate[port][d] = vc;
                    requests[port] |= 1 << d;
                }
            }
        }
        (requests, candidate)
    }

    /// One router's switch allocation: matched branches cross the
    /// crossbar and their flit copies leave on the link.
    fn traverse_router(&mut self, here: NodeId, now: u64) {
        let r_idx = here.index();
        let (requests, candidate) = self.switch_requests(r_idx);
        if requests == [0; 5] {
            return; // iSLIP over no requests matches nothing and moves no pointer
        }
        let mut matches = [(0, 0); MAX_PORTS];
        let n_matches = self.routers[r_idx].sa.allocate(
            &requests,
            self.cfg.input_speedup,
            self.cfg.islip_iterations,
            &mut matches,
        );
        for &(port, d) in &matches[..n_matches] {
            let vc = candidate[port][d];
            let dir = Direction::ALL[d];
            let next = self.routers[r_idx].neighbors[d].expect("VA only grants real links");
            let slot = self.slot(r_idx, port, vc);
            let f = self.slots[slot].as_mut().expect("candidate flit exists");
            let b = f.branch_mut(dir);
            let out_vc = b.out_vc.expect("SA requires an allocated VC");
            b.done = true;
            let (core, route) = (f.core, f.route);
            let route = self.branch_route(route, here, dir);
            // Also the traversal count energy is priced from.
            self.links.record(here, dir);
            self.obs.emit(
                now,
                EventKind::LinkTraversal,
                here,
                Some(dir),
                Some(core.id),
            );
            let router = &mut self.routers[r_idx];
            router.has_vc[port][d] &= !(1 << vc);
            router.touched[port] |= 1 << vc;
            router.vc_sel[port][d] = ((vc + 1) % self.cfg.vcs_per_port) as u8;
            let in_port = Port::Dir(dir.opposite());
            let flit = self.make_flit(next, core, route, in_port, now + 1);
            self.incoming.push(Arrival {
                router: next.index(),
                port: in_port.index(),
                vc: usize::from(out_vc),
                flit,
            });
        }
    }

    /// Phase 7: free finished VCs and send credits upstream. Only a flit
    /// that ejected or crossed this cycle can have finished; under a
    /// fault plan any flit may have stalled long enough to abandon.
    fn recycle_vcs(&mut self, now: u64, faulted: bool) {
        for r_idx in 0..self.routers.len() {
            let router = &mut self.routers[r_idx];
            let touched = std::mem::take(&mut router.touched);
            let candidates = if faulted { router.occupied } else { touched };
            if candidates == [0; 5] {
                continue;
            }
            let here = NodeId(r_idx as u16);
            for (port, &vcs) in candidates.iter().enumerate() {
                for vc in set_bits(u64::from(vcs)) {
                    let slot = self.slot(r_idx, port, vc);
                    let f = self.slots[slot].as_ref().expect("occupied VC holds a flit");
                    let finished = f.finished();
                    let abandon =
                        faulted && now.saturating_sub(f.eligible_at) > STALL_ABANDON_CYCLES;
                    if !finished && !abandon {
                        continue;
                    }
                    let flit = self.slots[slot].take().expect("checked");
                    self.routers[r_idx].release(port, vc);
                    if !finished {
                        self.abandon(&flit, here, now);
                    }
                    if let Port::Dir(in_dir) = flit.in_port {
                        let upstream = self.routers[r_idx].neighbors[in_dir as usize]
                            .expect("flit arrived over a real link");
                        self.credit_returns.push(CreditReturn {
                            router: upstream.index(),
                            dir: in_dir.opposite() as usize,
                            vc,
                        });
                    }
                }
            }
        }
    }

    /// Stall-abandon: a fault plan is active and `flit`, just removed
    /// from router `here`, has been unserviceable for far longer than
    /// congestion alone could explain. Its remaining targets are
    /// terminally undeliverable; reserved downstream VCs are released
    /// so the fabric around the fault keeps flowing.
    fn abandon(&mut self, flit: &Flit, here: NodeId, now: u64) {
        self.ledger.stats.retry_exhausted += 1;
        if flit.eject_at.is_some() {
            self.ledger.fail(&mut self.obs, flit.core, here, here, now);
        }
        for b in flit.branches().iter().filter(|b| !b.done) {
            if let Some(ovc) = b.out_vc {
                self.routers[here.index()].credits[b.out as usize] |= 1 << ovc;
            }
            let route = self.branch_route(flit.route, here, b.out);
            self.fail_route(flit.core, route, here, now);
        }
    }

    /// Debug check: router `r_idx`'s readiness masks are what a scan of
    /// its VCs at cycle `now`, after promotion, finds, and each flit
    /// still in the pipeline is on the wheel. (Promotion checks that a
    /// wheel entry is a flit due that cycle.)
    fn masks_match_the_slots(&self, r_idx: usize, now: u64) -> bool {
        let router = &self.routers[r_idx];
        let mut want_vc = [0u128; 4];
        let mut has_vc = [[0u16; 4]; 5];
        let mut eject_due = [0u16; 5];
        let mut wheel_ok = true;
        for (port, &occupied) in router.occupied.iter().enumerate() {
            for vc in set_bits(u64::from(occupied)) {
                let flit = self.slots[self.slot(r_idx, port, vc)]
                    .as_ref()
                    .expect("occupied VC holds a flit");
                if flit.eject_at.is_some() {
                    eject_due[port] |= 1 << vc;
                }
                if flit.n_branches > 0 && flit.eligible_at > now {
                    wheel_ok &=
                        self.wheel[self.bucket(r_idx, flit.eligible_at)][port] >> vc & 1 == 1;
                }
                for b in flit.branches() {
                    if b.done {
                        continue;
                    }
                    if b.out_vc.is_some() {
                        has_vc[port][b.out as usize] |= 1 << vc;
                    } else if flit.eligible_at <= now {
                        want_vc[b.out as usize] |= 1 << (port * MAX_VCS + vc);
                    }
                }
            }
        }
        let touched_ok = (0..5).all(|p| router.touched[p] & !router.occupied[p] == 0);
        wheel_ok
            && touched_ok
            && want_vc == router.want_vc
            && has_vc == router.has_vc
            && eject_due == router.eject_due
    }

    /// Debug check at the end of a cycle: every VC of every input port
    /// with an upstream link is in exactly one place. Per directed link,
    /// the sum of its free credits, the branches holding a VC on it that
    /// have not crossed, its arrivals, the occupied VCs of the
    /// downstream input port and the credits returning over it is
    /// `vcs_per_port`. One pass over the occupied VCs and the two link
    /// buffers.
    fn assert_credits_conserved(&mut self) {
        let mut audit = std::mem::take(&mut self.credit_audit);
        audit.fill(0);
        // The link into input `Dir(dir)` of `r_idx` leaves its neighbour
        // that way through `dir.opposite()`.
        let upstream = |routers: &[Router], r_idx: usize, dir: Direction| {
            let up = routers[r_idx].neighbors[dir as usize].expect("input port has a link");
            up.index() * 4 + dir.opposite() as usize
        };
        for (r_idx, router) in self.routers.iter().enumerate() {
            for d in 0..4 {
                audit[r_idx * 4 + d] += router.credits[d].count_ones() as usize;
            }
            if router.is_idle() {
                continue;
            }
            for (port, &occupied) in router.occupied.iter().enumerate() {
                if let Port::Dir(dir) = Port::ALL[port] {
                    if occupied != 0 {
                        audit[upstream(&self.routers, r_idx, dir)] +=
                            occupied.count_ones() as usize;
                    }
                }
                for vc in set_bits(u64::from(occupied)) {
                    let flit = self.slots[self.slot(r_idx, port, vc)]
                        .as_ref()
                        .expect("occupied VC holds a flit");
                    for b in flit
                        .branches()
                        .iter()
                        .filter(|b| !b.done && b.out_vc.is_some())
                    {
                        audit[r_idx * 4 + b.out as usize] += 1;
                    }
                }
            }
        }
        for a in &self.incoming {
            let Port::Dir(dir) = Port::ALL[a.port] else {
                unreachable!("arrivals land on link ports")
            };
            audit[upstream(&self.routers, a.router, dir)] += 1;
        }
        for cr in &self.credit_returns {
            audit[cr.router * 4 + cr.dir] += 1;
        }
        for (r_idx, router) in self.routers.iter().enumerate() {
            for d in 0..4 {
                let expected = if router.neighbors[d].is_some() {
                    self.cfg.vcs_per_port
                } else {
                    0
                };
                assert_eq!(
                    audit[r_idx * 4 + d],
                    expected,
                    "credits of router {r_idx}'s output {d} not conserved at cycle {}",
                    self.cycle
                );
            }
        }
        self.credit_audit = audit;
    }

    /// Total occupied VCs (diagnostics).
    pub fn occupied_vcs(&self) -> usize {
        let occupied = self
            .routers
            .iter()
            .flat_map(|r| r.occupied)
            .map(|vcs| vcs.count_ones() as usize)
            .sum();
        debug_assert_eq!(
            occupied,
            self.slots.iter().filter(|s| s.is_some()).count(),
            "occupancy masks track the slots"
        );
        occupied
    }
}

impl Network for ElectricalNetwork {
    fn name(&self) -> String {
        self.cfg.label()
    }

    fn mesh(&self) -> Mesh {
        self.cfg.mesh
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn inject(&mut self, packet: NewPacket) -> Option<PacketId> {
        let id = self.ledger.next_id();
        // Unicast fast path: no destination list per packet.
        let (route, copies) = match packet.dests {
            DestSet::Unicast(dest) if dest != packet.src => (Route::Unicast(dest), 1),
            ref dests => match *dests.expand(packet.src, self.cfg.mesh.nodes()) {
                [] => {
                    self.ledger
                        .self_send(&mut self.obs, self.cycle, id, packet.src);
                    return Some(id);
                }
                [dest] => (Route::Unicast(dest), 1),
                ref dests => (Route::Tree(mask_of(dests)), dests.len()),
            },
        };
        let core = PacketOrigin {
            id,
            src: packet.src,
            kind: packet.kind,
            injected_cycle: self.cycle,
        };
        if self.nics[packet.src.index()]
            .try_push((core, route))
            .is_err()
        {
            self.obs
                .emit(self.cycle, EventKind::NicRetry, packet.src, None, None);
            return None;
        }
        self.ledger
            .accept(&mut self.obs, self.cycle, id, packet.src, copies);
        Some(id)
    }

    fn step(&mut self) {
        let now = self.cycle;
        self.profiler.begin_cycle();

        // Every fault hook is gated on this, so no plan is zero-effect.
        let faulted = !self.fault_plan.is_empty();
        if faulted {
            let mesh = self.cfg.mesh;
            if self.faults.advance(&self.fault_plan, mesh, now) {
                self.fault_plan.emit_edges(&mut self.obs, now);
            }
            self.faults_next.advance(&self.fault_plan, mesh, now + 1);
        }
        self.profiler.mark(Phase::Fault);
        self.return_credits();
        self.land_arrivals();
        self.profiler.mark(Phase::Drain);
        self.eject(now, faulted);
        self.profiler.mark(Phase::Eject);
        self.inject_from_nics(now, faulted);
        self.profiler.mark(Phase::Route);
        self.allocate_vcs(now);
        self.profiler.mark(Phase::Arbitrate);
        self.switch_and_traverse(now, faulted);
        self.profiler.mark(Phase::Traverse);
        self.recycle_vcs(now, faulted);
        if cfg!(debug_assertions) {
            self.assert_credits_conserved();
        }
        self.cycle += 1;
        self.profiler.mark(Phase::Drain);
    }

    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        self.ledger.drain_deliveries()
    }

    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        self.ledger.drain_deliveries_into(out);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan, _seed: u64) {
        // The electrical model uses no fault-path randomness: link and
        // router faults mask deterministically, and the optical-only
        // droop/bit-error faults do not apply here.
        self.fault_plan = plan;
        self.faults.invalidate();
        self.faults_next.invalidate();
    }

    fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        self.ledger.drain_failures()
    }

    fn drain_failures_into(&mut self, out: &mut Vec<FailedDelivery>) {
        self.ledger.drain_failures_into(out);
    }

    fn in_flight(&self) -> usize {
        self.ledger.in_flight()
    }

    fn energy(&self) -> EnergyReport {
        power::energy(&self.energy_counts(), self.cfg.mesh.nodes())
    }

    fn stats(&self) -> NetworkStats {
        self.ledger.stats.clone()
    }

    fn link_counters(&self) -> LinkCounters {
        self.links.clone()
    }

    fn set_trace(&mut self, trace: TraceBuffer) {
        self.obs.attach_trace(trace);
    }

    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.obs.take()
    }

    fn set_phase_profiler(&mut self, profiler: PhaseProfiler) {
        self.profiler = profiler;
    }

    fn take_phase_breakdown(&mut self) -> Option<PhaseBreakdown> {
        self.profiler.take_breakdown()
    }

    fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.obs.attach_flight(recorder);
    }

    fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.obs.take_flight()
    }

    fn buffer_occupancy(&self) -> u64 {
        self.occupied_vcs() as u64
    }
}
