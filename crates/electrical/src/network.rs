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
//! | — | `FaultPlan::emit_edges` (fault edge events) | `Fault` |
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

use crate::config::ElectricalConfig;
use crate::islip::Islip;
use crate::power::EnergyLedger;
use crate::vctm::{mask_of, tree_fork, TargetMask};
use phastlane_netsim::fault::{productive_detour, FailedDelivery, FaultPlan};
use phastlane_netsim::geometry::{Direction, Mesh, NodeId, Port};
use phastlane_netsim::ledger::{DeliveryLedger, PacketOrigin};
use phastlane_netsim::mask::NodeMask;
use phastlane_netsim::network::Network;
use phastlane_netsim::nic::Nic;
use phastlane_netsim::obs::{
    EventKind, FlightRecorder, Obs, Phase, PhaseBreakdown, PhaseProfiler, TraceBuffer,
};
use phastlane_netsim::packet::{Delivery, NewPacket, PacketId};
use phastlane_netsim::routing::xy_first_hop;
use phastlane_netsim::stats::{EnergyReport, NetworkStats};
use phastlane_netsim::telemetry::LinkCounters;

/// Routing state a flit carries.
#[derive(Debug, Clone, Copy)]
enum Route {
    Unicast(NodeId),
    /// A VCTM multicast: remaining targets of this subtree.
    Tree(TargetMask),
}

/// One pending output branch of a flit (unicast flits have one; tree
/// flits fork).
#[derive(Debug, Clone, Copy)]
struct Branch {
    out: Direction,
    /// Subtree targets carried by this branch (empty for unicast).
    mask: TargetMask,
    /// Downstream VC reserved by the VC allocator.
    out_vc: Option<usize>,
    done: bool,
}

/// The routing state carried by the flit copy that leaves through
/// branch `b` of a flit routed by `route`.
fn branch_route(route: Route, b: &Branch) -> Route {
    match route {
        Route::Unicast(dest) => Route::Unicast(dest),
        Route::Tree(_) => {
            debug_assert!(!b.mask.is_empty(), "tree branches carry masks");
            Route::Tree(b.mask)
        }
    }
}

/// A flit occupying a VC.
#[derive(Debug, Clone)]
struct Flit {
    core: PacketOrigin,
    route: Route,
    in_port: Port,
    eligible_at: u64,
    branches: Vec<Branch>,
    /// Local delivery pending at this cycle (ejection bypass).
    eject_at: Option<u64>,
}

impl Flit {
    fn finished(&self) -> bool {
        self.eject_at.is_none() && self.branches.iter().all(|b| b.done)
    }
}

/// Per-router state.
#[derive(Debug)]
struct Router {
    /// `vcs[port][vc]`.
    vcs: Vec<Vec<Option<Flit>>>,
    /// `credits[dir][vc]`: a free slot at the downstream input port.
    credits: Vec<Vec<bool>>,
    /// VC-allocator rotation per output direction (flattened port*V+vc).
    va_ptr: Vec<usize>,
    /// Switch allocator state (5 inputs x 4 outputs).
    sa: Islip,
    /// Round-robin VC selector per (input port, output dir).
    vc_sel: Vec<Vec<usize>>,
    /// Number of occupied VCs (fast-path: idle routers skip every phase).
    occupied: usize,
}

impl Router {
    fn new(cfg: &ElectricalConfig) -> Self {
        let v = cfg.vcs_per_port;
        Router {
            vcs: (0..5).map(|_| vec![None; v]).collect(),
            credits: (0..4).map(|_| vec![true; v]).collect(),
            va_ptr: vec![0; 4],
            sa: Islip::new(5, 4),
            vc_sel: (0..5).map(|_| vec![0; 4]).collect(),
            occupied: 0,
        }
    }
}

/// A flit in flight on a link.
#[derive(Debug)]
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
    nics: Vec<Nic<(PacketOrigin, Route)>>,
    incoming: Vec<Arrival>,
    credit_returns: Vec<CreditReturn>,
    /// Owed destination copies, deliveries, terminal failures, stats.
    ledger: DeliveryLedger,
    next_id: u64,
    /// Sources whose VCTM tree is already installed (dense, per node).
    warm_trees: Vec<bool>,
    energy: EnergyLedger,
    links: LinkCounters,
    /// Observability handle: one branch per emit site when disabled.
    obs: Obs,
    /// Hot-loop phase profiler: one branch per mark site when disabled.
    profiler: PhaseProfiler,
    /// Scheduled device failures; the empty plan is zero-effect (every
    /// fault hook is gated on it).
    fault_plan: FaultPlan,
}

/// How long a flit may sit unserviced before a fault plan declares its
/// remaining targets undeliverable (the electrical livelock guard; only
/// consulted while a fault plan is installed). Far beyond any contention
/// stall the 1-flit-per-VC router can produce on an 8x8 mesh.
const STALL_ABANDON_CYCLES: u64 = 2_000;

impl ElectricalNetwork {
    /// Builds a network from a configuration.
    pub fn new(cfg: ElectricalConfig) -> Self {
        assert_eq!(
            cfg.entries_per_vc, 1,
            "this model implements the paper's 1-entry-per-VC configuration"
        );
        let mesh = cfg.mesh;
        let nodes = cfg.mesh.nodes();
        let routers = (0..nodes).map(|_| Router::new(&cfg)).collect();
        let nics = (0..nodes).map(|_| Nic::new(cfg.nic_entries)).collect();
        let energy = EnergyLedger::new(nodes);
        ElectricalNetwork {
            cfg,
            cycle: 0,
            routers,
            nics,
            incoming: Vec::new(),
            credit_returns: Vec::new(),
            ledger: DeliveryLedger::new(),
            next_id: 0,
            warm_trees: vec![false; nodes],
            energy,
            links: LinkCounters::for_mesh(mesh),
            obs: Obs::off(),
            profiler: PhaseProfiler::off(),
            fault_plan: FaultPlan::new(),
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &ElectricalConfig {
        &self.cfg
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
        let (branches, eject) = match route {
            Route::Unicast(dest) => {
                if dest == at {
                    (Vec::new(), true)
                } else {
                    let mut out = xy_first_hop(mesh, at, dest).expect("dest != at");
                    if !self.fault_plan.is_empty() && self.fault_plan.blocked(now, mesh, at, out) {
                        // Dead preferred link: detour through the other
                        // dimension when that still makes progress toward
                        // the destination. (When it does not, the branch
                        // keeps its dead output; the VC allocator will
                        // never grant it and the stall-abandon guard
                        // eventually declares the target undeliverable.)
                        if let Some((dir, _)) =
                            productive_detour(&self.fault_plan, now, mesh, at, dest)
                        {
                            out = dir;
                            self.ledger.stats.rerouted += 1;
                            self.obs.emit(
                                now,
                                EventKind::FaultReroute,
                                at,
                                Some(dir),
                                Some(core.id),
                            );
                        }
                    }
                    (
                        vec![Branch {
                            out,
                            mask: NodeMask::EMPTY,
                            out_vc: None,
                            done: false,
                        }],
                        false,
                    )
                }
            }
            Route::Tree(mask) => {
                let (forks, deliver) = tree_fork(mesh, core.src, at, mask);
                let branches = forks
                    .iter()
                    .map(|f| Branch {
                        out: f.out,
                        mask: f.submask,
                        out_vc: None,
                        done: false,
                    })
                    .collect();
                (branches, deliver)
            }
        };
        Flit {
            core,
            route,
            in_port,
            eligible_at: now + self.cfg.router_delay,
            branches,
            eject_at: eject.then_some(now + 1),
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
        for cr in std::mem::take(&mut self.credit_returns) {
            debug_assert!(!self.routers[cr.router].credits[cr.dir][cr.vc]);
            self.routers[cr.router].credits[cr.dir][cr.vc] = true;
        }
    }

    /// Phase 2: link arrivals land in their reserved VCs.
    fn land_arrivals(&mut self) {
        for a in std::mem::take(&mut self.incoming) {
            let r = &mut self.routers[a.router];
            let slot = &mut r.vcs[a.port][a.vc];
            debug_assert!(slot.is_none(), "reserved VC occupied");
            self.energy.on_buffer_write();
            *slot = Some(a.flit);
            r.occupied += 1;
        }
    }

    /// Phase 3: ejection bypass — deliver flits one cycle after
    /// arrival, without the crossbar.
    fn eject(&mut self, now: u64, faulted: bool) {
        let delivered_before = self.ledger.pending_deliveries();
        for (r_idx, router) in self.routers.iter_mut().enumerate() {
            if router.occupied == 0 {
                continue;
            }
            let here = NodeId(r_idx as u16);
            if faulted && self.fault_plan.router_stuck(now, here) {
                continue; // a stuck router cannot even eject
            }
            for flit in router.vcs.iter_mut().flatten().flatten() {
                if flit.eject_at.is_some_and(|t| t <= now) {
                    flit.eject_at = None;
                    self.energy.on_buffer_read();
                    self.ledger
                        .deliver(&mut self.obs, flit.core, here, now, now);
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
        let mut route_work = 0u64;
        for r_idx in 0..self.routers.len() {
            let here = NodeId(r_idx as u16);
            if self.nics[r_idx].is_empty() {
                continue;
            }
            if faulted && self.fault_plan.router_stuck(now, here) {
                self.age_out_nic(here, now);
                continue;
            }
            let Some(vc) = self.routers[r_idx].vcs[local]
                .iter()
                .position(Option::is_none)
            else {
                continue;
            };
            let (core, route) = self.nics[r_idx].pop().expect("checked non-empty");
            let mut flit = self.make_flit(here, core, route, Port::Local, now);
            if let Route::Tree(_) = route {
                if self.cfg.vctm_setup_penalty > 0
                    && !std::mem::replace(&mut self.warm_trees[core.src.index()], true)
                {
                    flit.eligible_at += self.cfg.vctm_setup_penalty;
                }
            }
            self.energy.on_buffer_write();
            self.routers[r_idx].vcs[local][vc] = Some(flit);
            self.routers[r_idx].occupied += 1;
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
    fn allocate_vcs(&mut self, now: u64, faulted: bool) {
        let mesh = self.cfg.mesh;
        let mut arb_work = 0u64;
        for r_idx in 0..self.routers.len() {
            if self.routers[r_idx].occupied == 0 {
                continue;
            }
            let here = NodeId(r_idx as u16);
            for dir in Direction::ALL {
                if mesh.neighbor(here, dir).is_none() {
                    continue;
                }
                if faulted && self.fault_plan.blocked(now, mesh, here, dir) {
                    continue; // never grant VCs across a faulted link
                }
                arb_work += self.allocate_output_vcs(r_idx, dir, now);
            }
        }
        self.profiler.add_work(Phase::Arbitrate, arb_work);
    }

    /// Grants the free downstream VCs of router `r_idx`'s output `dir`
    /// to eligible branches, round-robin from the VA pointer; returns
    /// the number of grants.
    fn allocate_output_vcs(&mut self, r_idx: usize, dir: Direction, now: u64) -> u64 {
        let vcs_per_port = self.cfg.vcs_per_port;
        let d = Port::Dir(dir).index();
        let router = &mut self.routers[r_idx];
        // Gather requesters (port, vc, branch index) in flattened
        // order.
        let mut requesters: Vec<(usize, usize, usize)> = Vec::new();
        for port in 0..5 {
            for vc in 0..vcs_per_port {
                if let Some(f) = router.vcs[port][vc].as_ref() {
                    if f.eligible_at > now {
                        continue;
                    }
                    for (bi, b) in f.branches.iter().enumerate() {
                        if b.out == dir && b.out_vc.is_none() && !b.done {
                            requesters.push((port, vc, bi));
                        }
                    }
                }
            }
        }
        if requesters.is_empty() {
            return 0;
        }
        // Rotate requesters to start at the VA pointer.
        let ptr = router.va_ptr[d];
        let split = requesters
            .iter()
            .position(|&(p, v, _)| p * vcs_per_port + v >= ptr)
            .unwrap_or(0);
        requesters.rotate_left(split);

        let mut free_vcs: Vec<usize> = (0..vcs_per_port)
            .filter(|&v| router.credits[d][v])
            .collect();
        free_vcs.reverse(); // pop() yields ascending order
        let mut granted = 0;
        for (port, vc, bi) in requesters {
            let Some(out_vc) = free_vcs.pop() else { break };
            router.credits[d][out_vc] = false;
            let f = router.vcs[port][vc].as_mut().expect("requester exists");
            f.branches[bi].out_vc = Some(out_vc);
            self.energy.on_allocation();
            granted += 1;
            router.va_ptr[d] = port * vcs_per_port + vc + 1;
        }
        granted
    }

    /// Phase 6: switch allocation (iSLIP) and traversal.
    fn switch_and_traverse(&mut self, now: u64, faulted: bool) {
        for r_idx in 0..self.routers.len() {
            if self.routers[r_idx].occupied == 0 {
                continue;
            }
            let here = NodeId(r_idx as u16);
            if faulted && self.fault_plan.router_stuck(now, here) {
                continue; // nothing moves through a stuck router
            }
            self.traverse_router(here, now, faulted);
        }
        // Link traversals this cycle = arrivals queued for the next one.
        self.profiler
            .add_work(Phase::Traverse, self.incoming.len() as u64);
    }

    /// One router's switch allocation: matched branches cross the
    /// crossbar and their flit copies leave on the link.
    fn traverse_router(&mut self, here: NodeId, now: u64, faulted: bool) {
        let mesh = self.cfg.mesh;
        let vcs_per_port = self.cfg.vcs_per_port;
        let r_idx = here.index();
        // Candidate branch per (input port, output dir), chosen
        // round-robin over VCs.
        let mut candidate: [[Option<(usize, usize)>; 4]; 5] = Default::default();
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); 5];
        for port in 0..5 {
            for dir in Direction::ALL {
                let d = Port::Dir(dir).index();
                if faulted && self.fault_plan.blocked(now, mesh, here, dir) {
                    continue; // granted VCs across a now-dead link wait
                }
                let sel = self.routers[r_idx].vc_sel[port][d];
                for k in 0..vcs_per_port {
                    let vc = (sel + k) % vcs_per_port;
                    let Some(f) = self.routers[r_idx].vcs[port][vc].as_ref() else {
                        continue;
                    };
                    if f.eligible_at > now {
                        continue;
                    }
                    if let Some(bi) = f
                        .branches
                        .iter()
                        .position(|b| b.out == dir && b.out_vc.is_some() && !b.done)
                    {
                        candidate[port][d] = Some((vc, bi));
                        requests[port].push(d);
                        break;
                    }
                }
            }
        }
        let matches = self.routers[r_idx].sa.allocate(
            &requests,
            self.cfg.input_speedup,
            self.cfg.islip_iterations,
        );
        for (port, d) in matches {
            let (vc, bi) = candidate[port][d].expect("matched request had a candidate");
            let dir = match Port::ALL[d] {
                Port::Dir(dir) => dir,
                Port::Local => unreachable!("outputs are directions"),
            };
            let next = mesh.neighbor(here, dir).expect("VA only grants real links");
            let f = self.routers[r_idx].vcs[port][vc]
                .as_mut()
                .expect("candidate flit exists");
            let b = &mut f.branches[bi];
            let out_vc = b.out_vc.expect("SA requires an allocated VC");
            b.done = true;
            let (core, route) = (f.core, branch_route(f.route, b));
            self.energy.on_allocation();
            self.energy.on_buffer_read();
            self.energy.on_crossbar();
            self.energy.on_link();
            self.links.record(here, dir);
            self.obs.emit(
                now,
                EventKind::LinkTraversal,
                here,
                Some(dir),
                Some(core.id),
            );
            self.routers[r_idx].vc_sel[port][d] = (vc + 1) % vcs_per_port;
            let in_port = Port::Dir(dir.opposite());
            let flit = self.make_flit(next, core, route, in_port, now + 1);
            self.incoming.push(Arrival {
                router: next.index(),
                port: in_port.index(),
                vc: out_vc,
                flit,
            });
        }
    }

    /// Phase 7: free finished VCs and send credits upstream.
    fn recycle_vcs(&mut self, now: u64, faulted: bool) {
        let mesh = self.cfg.mesh;
        for r_idx in 0..self.routers.len() {
            if self.routers[r_idx].occupied == 0 {
                continue;
            }
            let here = NodeId(r_idx as u16);
            for port in 0..5 {
                for vc in 0..self.cfg.vcs_per_port {
                    let Some(f) = self.routers[r_idx].vcs[port][vc].as_ref() else {
                        continue;
                    };
                    let finished = f.finished();
                    let abandon =
                        faulted && now.saturating_sub(f.eligible_at) > STALL_ABANDON_CYCLES;
                    if !finished && !abandon {
                        continue;
                    }
                    let flit = self.routers[r_idx].vcs[port][vc].take().expect("checked");
                    self.routers[r_idx].occupied -= 1;
                    if !finished {
                        self.abandon(&flit, here, now);
                    }
                    if let Port::Dir(in_dir) = flit.in_port {
                        let upstream = mesh
                            .neighbor(here, in_dir)
                            .expect("flit arrived over a real link");
                        let up_out = Port::Dir(in_dir.opposite()).index();
                        self.credit_returns.push(CreditReturn {
                            router: upstream.index(),
                            dir: up_out,
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
        for b in flit.branches.iter().filter(|b| !b.done) {
            if let Some(ovc) = b.out_vc {
                let d = Port::Dir(b.out).index();
                self.routers[here.index()].credits[d][ovc] = true;
            }
            self.fail_route(flit.core, branch_route(flit.route, b), here, now);
        }
    }

    /// Total occupied VCs (diagnostics).
    pub fn occupied_vcs(&self) -> usize {
        self.routers
            .iter()
            .map(|r| r.vcs.iter().flatten().filter(|s| s.is_some()).count())
            .sum()
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
        let nodes = self.cfg.mesh.nodes();
        let dests = packet.dests.expand(packet.src, nodes);
        let id = PacketId(self.next_id);
        if dests.is_empty() {
            self.next_id += 1;
            self.ledger
                .self_send(&mut self.obs, self.cycle, id, packet.src);
            return Some(id);
        }
        let route = if dests.len() == 1 {
            Route::Unicast(dests[0])
        } else {
            Route::Tree(mask_of(&dests))
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
            .accept(&mut self.obs, self.cycle, id, packet.src, dests.len());
        self.next_id += 1;
        Some(id)
    }

    fn step(&mut self) {
        let now = self.cycle;
        self.profiler.begin_cycle();

        // Every fault hook is gated on this, so no plan is zero-effect.
        let faulted = !self.fault_plan.is_empty();
        if faulted {
            self.fault_plan.emit_edges(&mut self.obs, now);
        }
        self.profiler.mark(Phase::Fault);
        self.return_credits();
        self.land_arrivals();
        self.profiler.mark(Phase::Drain);
        self.eject(now, faulted);
        self.profiler.mark(Phase::Eject);
        self.inject_from_nics(now, faulted);
        self.profiler.mark(Phase::Route);
        self.allocate_vcs(now, faulted);
        self.profiler.mark(Phase::Arbitrate);
        self.switch_and_traverse(now, faulted);
        self.profiler.mark(Phase::Traverse);
        self.recycle_vcs(now, faulted);
        self.energy.on_cycle();
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
        self.energy.report()
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
