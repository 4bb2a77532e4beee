//! The cycle-accurate Phastlane network simulator (§2).
//!
//! [`PhastlaneNetwork::step`] is a driver: it calls one function per
//! phase and marks the hot-loop profiler after each.
//!
//! | phase function | `Phase` mark | paper | visits |
//! |---|---|---|---|
//! | `fault_bookkeeping` | `Fault` | — | the fault plan |
//! | `confirm_launches` | `Drain` | §2.1.2 | busy routers |
//! | `drain_nics` | `Route` | Table 1 | busy routers |
//! | `arbitrate_and_launch` | `Arbitrate` | §2.1.1 | busy routers |
//! | `wavefront` | `Traverse` | §2.1.2–§2.1.3 | this cycle's flights |
//! | `end_cycle` | `Eject` | — | — |
//!
//! A cycle costs what happens in it: the three per-router sweeps walk
//! the *busy-router worklist*, a bitmask in which a clear bit means the
//! router's queues, parked launches and NIC are all empty. Set bits are
//! visited in ascending router order inside each phase — the order the
//! full walk had — so trace events, both RNG streams and the running
//! energy sum are those of a walk over all N routers. The three sweeps
//! are not merged into one per-router pass: that would interleave one
//! router's `DropReturn` / `Retransmit` events with another's
//! `OpticalTransit`.
//!
//! 1. **Fault bookkeeping** — fault edge events, the hop reach under
//!    laser droop, the bit-error rate; the nominal values with no plan.
//! 2. **Confirm/revert** — launches from the previous cycle either
//!    succeeded (the packet was delivered or an intermediate router
//!    assumed responsibility) and their buffer slots free, or a Packet
//!    Dropped signal arrived over the optical return path and the
//!    launcher reverts the entry with a randomized backoff — or, past
//!    the retry cap, `give_up`s on its remaining targets.
//! 3. **NIC drain** — packets move from the 50-entry NIC into the local
//!    buffer while space allows.
//! 4. **Arbitration & launch** — `arbitrate_router`: each router's
//!    rotating-priority arbiter picks up to four buffered packets for
//!    its four output ports, visiting its five queues in the order
//!    `router::rotation(cycle)` (the paper's pointer moves once per
//!    cycle at every router, so it is the cycle number mod 5 and no
//!    router stores it). `service_head` decides what one queue head
//!    does and `launch` claims its output port: buffered packets have
//!    priority over newly arriving ones. Under a fault plan a head whose
//!    preferred output is faulted takes a productive detour or
//!    `stall_or_give_up`s in place, and a head that an ECC-rejected
//!    delivery re-buffered at its own target router ejects locally
//!    (through the same `deliver` as the wavefront) instead of launching.
//!    A router left with nothing — no waiting entry, no parked launch,
//!    an empty NIC — leaves the worklist here; `inject` and
//!    `block_flight` put one back on it.
//! 5. **Optical wavefront** — all launched packets traverse up to
//!    `max_hops` routers within the cycle, along a plan that covers
//!    that segment only. At each router `claim_exit`
//!    resolves contention with the paper's fixed priorities (straight
//!    beats turns); losers are received and buffered at their input
//!    port, or dropped when the buffer is full (`block_flight`).
//!    `receive_copy` delivers multicast taps en route and the final
//!    accept, unless SECDED rejects the copy; interim stops buffer the
//!    packet for the next segment (§2.1.3).
//! 6. **End of cycle** — leakage accrues and the clock advances.

use crate::config::PhastlaneConfig;
use crate::control::RouteControl;
use crate::dropnet::{ReturnPath, ReturnPathRegistry};
use crate::multicast::split_multicast;
use crate::plan::{Plan, StepExit, StopKind};
use crate::policies::ArbitrationPolicy;
use crate::power::EnergyLedger;
use crate::router::{rotation, Entry, PacketCore, RouterState};
use phastlane_netsim::ecc::{self, Decoded};
use phastlane_netsim::fault::{productive_detour, FailedDelivery, FaultPlan};
use phastlane_netsim::geometry::{Direction, Mesh, NodeId, Port};
use phastlane_netsim::ledger::{DeliveryLedger, PacketOrigin};
use phastlane_netsim::mask::set_bits;
use phastlane_netsim::network::Network;
use phastlane_netsim::nic::Nic;
use phastlane_netsim::obs::{
    EventKind, FlightRecorder, Obs, Phase, PhaseBreakdown, PhaseProfiler, TraceBuffer,
};
use phastlane_netsim::packet::{Delivery, DestSet, NewPacket, PacketId, PacketKind, TargetList};
use phastlane_netsim::rng::SimRng;
use phastlane_netsim::routing::{classify_turn, xy_first_hop, Turn};
use phastlane_netsim::stats::{EnergyReport, NetworkStats};
use phastlane_netsim::telemetry::LinkCounters;
use phastlane_photonics::power::PowerPoint;

/// What a transient bit error did to one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EccOutcome {
    /// No error (or no bit-error fault active).
    Clean,
    /// A single upset, corrected by SECDED; delivery proceeds.
    Corrected,
    /// A double upset: SECDED detects but cannot correct; the delivery
    /// is rejected and the packet re-buffered for retransmission.
    Uncorrectable,
}

/// What one queue head did in one arbitration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadAction {
    /// Nothing: no ready head, output claimed, stalled, or given up.
    Skipped,
    /// An ECC-re-buffered copy ejected at its own target router.
    EjectedLocally,
    /// The head launched as this cycle's next flight.
    Launched,
}

/// An in-flight optical packet during one cycle's wavefront.
///
/// Flights are pooled: at the start of each launch phase the previous
/// cycle's flights return to a free list and are reset in place, so
/// their plan/trail/target buffers are reused instead of reallocated.
#[derive(Debug)]
struct Flight {
    uid: u64,
    core: PacketCore,
    plan: Plan,
    /// Targets not yet delivered (shrinks as taps/accepts happen).
    remaining: TargetList,
    /// `(router, exit)` claims made this cycle, for return-path
    /// construction on a drop.
    trail: Vec<(NodeId, Direction)>,
    alive: bool,
}

impl Flight {
    /// An inert flight for the pool; every field is overwritten on
    /// launch.
    fn blank() -> Flight {
        Flight {
            uid: 0,
            core: PacketCore {
                id: PacketId(0),
                src: NodeId(0),
                kind: PacketKind::Data,
                multicast: false,
                injected_cycle: 0,
            },
            plan: Plan::default(),
            remaining: TargetList::new(),
            trail: Vec::new(),
            alive: false,
        }
    }
}

/// An output-port claim for the current cycle.
#[derive(Debug, Clone, Copy)]
struct Claim {
    /// Index into the cycle's flight arena.
    flight: u32,
    /// Plan step at which the claim was made.
    step: u16,
    /// Priority rank, lower wins: the former `(u8, u8)` lexicographic
    /// rank packed big-endian, so `u16` order matches tuple order.
    /// Buffered launches claim at rank 0 and are never displaced;
    /// through-traffic ranks come from the configured `PathPriority`.
    rank: u16,
}

/// Packs a `PathPriority` rank pair preserving lexicographic order.
#[inline]
fn pack_rank((a, b): (u8, u8)) -> u16 {
    (u16::from(a) << 8) | u16::from(b)
}

/// The delivery ledger's view of a message's packet identity.
fn origin(core: PacketCore) -> PacketOrigin {
    PacketOrigin {
        id: core.id,
        src: core.src,
        kind: core.kind,
        injected_cycle: core.injected_cycle,
    }
}

/// Sets bit `i` of a bitmask stored as 64-bit words.
#[inline]
fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// Output-port claims for the current cycle, indexed by directed link
/// (`router * 4 + direction`, matching [`Port::index`] order).
///
/// Epoch-stamped: a slot is live iff its stamp equals the current epoch,
/// so clearing between cycles is one counter bump instead of a hash-map
/// clear, and every lookup is a direct array access instead of a SipHash
/// probe — this table is hit on every optical hop.
#[derive(Debug)]
struct ClaimTable {
    stamp: Vec<u64>,
    claim: Vec<Claim>,
    epoch: u64,
}

impl ClaimTable {
    fn new(nodes: usize) -> ClaimTable {
        ClaimTable {
            stamp: vec![0; nodes * 4],
            claim: vec![
                Claim {
                    flight: 0,
                    step: 0,
                    rank: 0,
                };
                nodes * 4
            ],
            epoch: 0,
        }
    }

    /// Invalidates every claim (start of the launch phase).
    fn begin_cycle(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn index(node: NodeId, dir: Direction) -> usize {
        node.index() * 4 + Port::Dir(dir).index()
    }

    #[inline]
    fn get(&self, node: NodeId, dir: Direction) -> Option<Claim> {
        let idx = Self::index(node, dir);
        if self.stamp[idx] == self.epoch {
            Some(self.claim[idx])
        } else {
            None
        }
    }

    #[inline]
    fn contains(&self, node: NodeId, dir: Direction) -> bool {
        self.stamp[Self::index(node, dir)] == self.epoch
    }

    #[inline]
    fn insert(&mut self, node: NodeId, dir: Direction, claim: Claim) {
        let idx = Self::index(node, dir);
        self.stamp[idx] = self.epoch;
        self.claim[idx] = claim;
    }
}

/// The Phastlane hybrid electrical/optical network.
#[derive(Debug)]
pub struct PhastlaneNetwork {
    cfg: PhastlaneConfig,
    cycle: u64,
    routers: Vec<RouterState>,
    nics: Vec<Nic<Entry>>,
    /// Busy-router worklist, one bit per router (word `r / 64`, bit
    /// `r % 64`). Invariant: a clear bit means the router's five queues
    /// (waiting and parked entries alike) and its NIC are all empty, so
    /// the three per-router sweeps visit set bits only. Set where an
    /// entry reaches an idle router (`inject`, `block_flight`), cleared
    /// by the arbitrate sweep.
    busy: Vec<u64>,
    next_uid: u64,
    /// Packet ids, owed destination copies, deliveries, terminal
    /// failures, stats.
    ledger: DeliveryLedger,
    /// Drop signals travelling the return path, indexed by the launching
    /// cycle's flight index: `Some(targets still owed)` when that flight
    /// was dropped. Consumed at the start of the next cycle by the
    /// launcher, whose launch record remembers its flight index.
    drop_slots: Vec<Option<TargetList>>,
    /// Flight arena: the first [`Self::n_flights`] slots are this
    /// cycle's optical flights; slots beyond that are retired flights
    /// whose plan/trail/target buffers await in-place reuse. A launch
    /// never moves a `Flight` — it refills the next slot.
    flights: Vec<Flight>,
    /// Live-flight count (arena prefix length), reset each launch phase.
    n_flights: usize,
    /// Output-port claims for the current cycle.
    claims: ClaimTable,
    /// Confirm-phase scratch: swaps with each router's launched list.
    confirm_scratch: Vec<(u8, u32)>,
    /// Plan-construction scratch (hop direction list).
    plan_dirs: Vec<Direction>,
    energy: EnergyLedger,
    rng: SimRng,
    /// Per-cycle drop-signal link tracker (footnote-4 invariant).
    return_paths: ReturnPathRegistry,
    /// Cumulative per-link traversal counts.
    links: LinkCounters,
    /// Observability handle: one branch per emit site when disabled.
    obs: Obs,
    /// Hot-loop phase profiler: one branch per mark site when disabled.
    profiler: PhaseProfiler,
    /// Scheduled device failures; the empty plan is guaranteed
    /// zero-effect (every fault hook is gated on it).
    fault_plan: FaultPlan,
    /// Dedicated RNG for fault-path randomness (stall backoff jitter,
    /// bit-error positions), kept separate from `rng` so an empty plan
    /// leaves the main backoff stream untouched.
    fault_rng: SimRng,
}

impl PhastlaneNetwork {
    /// Builds a network from a configuration.
    pub fn new(cfg: PhastlaneConfig) -> Self {
        let mesh = cfg.mesh;
        let nodes = cfg.mesh.nodes();
        let routers = (0..nodes).map(|_| RouterState::new(cfg.buffers)).collect();
        let nics = (0..nodes).map(|_| Nic::new(cfg.nic_entries)).collect();
        let energy = EnergyLedger::new(nodes, cfg.wdm, cfg.max_hops, cfg.crossing_efficiency);
        let rng = SimRng::seed_from_u64(cfg.seed);
        PhastlaneNetwork {
            cfg,
            cycle: 0,
            routers,
            nics,
            busy: vec![0; nodes.div_ceil(64)],
            next_uid: 0,
            ledger: DeliveryLedger::new(),
            drop_slots: Vec::new(),
            flights: Vec::new(),
            n_flights: 0,
            claims: ClaimTable::new(nodes),
            confirm_scratch: Vec::new(),
            plan_dirs: Vec::new(),
            energy,
            rng,
            return_paths: ReturnPathRegistry::new(),
            links: LinkCounters::for_mesh(mesh),
            obs: Obs::off(),
            profiler: PhaseProfiler::off(),
            fault_plan: FaultPlan::new(),
            fault_rng: SimRng::seed_from_u64(0),
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &PhastlaneConfig {
        &self.cfg
    }

    /// Total waiting entries across all router buffers (diagnostics).
    pub fn buffered_packets(&self) -> usize {
        self.routers.iter().map(RouterState::waiting).sum()
    }

    /// Routers on the busy worklist (diagnostics): zero once every queue
    /// and NIC has drained and one more cycle has swept the list.
    pub fn busy_routers(&self) -> usize {
        self.busy.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the worklist covers every router that holds anything —
    /// the full scan the busy mask replaced, kept as its check.
    fn busy_mask_covers_all_work(&self) -> bool {
        self.routers
            .iter()
            .zip(&self.nics)
            .enumerate()
            .all(|(r, (state, nic))| {
                self.busy[r / 64] >> (r % 64) & 1 == 1 || (state.is_empty() && nic.is_empty())
            })
    }

    /// ASCII heatmap of current buffer occupancy per router — a snapshot
    /// of where packets are parked electrically (useful when debugging
    /// drop storms).
    pub fn occupancy_heatmap(&self) -> String {
        let values: Vec<u64> = self.routers.iter().map(|r| r.waiting() as u64).collect();
        phastlane_netsim::telemetry::render_heatmap(self.cfg.mesh, &values)
    }

    fn fresh_uid(&mut self) -> u64 {
        let uid = self.next_uid;
        self.next_uid += 1;
        uid
    }

    /// Ejects the copy of `core` owed to the local node of router `at`.
    fn deliver(&mut self, core: PacketCore, at: NodeId, now: u64) {
        self.energy.on_receive();
        self.ledger
            .deliver(&mut self.obs, origin(core), at, now, now + 1);
    }

    /// Receives blocked (or interim) flight `fi` into `router`'s
    /// input-port buffer, or drops it and signals the launcher.
    fn block_flight(&mut self, fi: usize, router: NodeId, entry_dir: Direction, now: u64) {
        let flight = &mut self.flights[fi];
        debug_assert!(flight.alive);
        flight.alive = false;
        if flight.remaining.is_empty() {
            // Everything this message owed was already delivered by taps;
            // nothing to buffer or retransmit.
            return;
        }
        let qi = RouterState::input_queue(entry_dir);
        let state = &mut self.routers[router.index()];
        let id = Some(flight.core.id);
        if state.has_room(qi) {
            self.obs.emit(
                now,
                EventKind::ElectricalFallback,
                router,
                Some(entry_dir),
                id,
            );
            self.energy.on_receive();
            self.energy.on_buffer_write();
            let uid = self.next_uid;
            self.next_uid += 1;
            set_bit(&mut self.busy, router.index());
            state.push(
                qi,
                Entry {
                    uid,
                    core: flight.core,
                    targets: flight.remaining.clone(),
                    ready_at: now + 1,
                    attempts: 0,
                },
            );
        } else {
            self.obs
                .emit(now, EventKind::BufferOverflow, router, Some(entry_dir), id);
            self.ledger.stats.dropped += 1;
            // The drop signal travels the registered return path in the
            // next cycle. Footnote 4: return paths of the same cycle are
            // link-disjoint by construction, because forward paths never
            // share output ports.
            let path = ReturnPath::from_forward_trail(self.cfg.mesh, &flight.trail);
            debug_assert_eq!(path.dropped_at(), router);
            let registered = self.return_paths.register(&path);
            debug_assert!(
                registered.is_ok(),
                "return paths overlapped: {registered:?}"
            );
            self.energy.on_drop_signal();
            debug_assert!(
                self.drop_slots[fi].is_none(),
                "one launch cannot drop twice"
            );
            self.drop_slots[fi] = Some(std::mem::take(&mut flight.remaining));
        }
    }

    /// The retry cap / livelock guard fired: every remaining target of
    /// `entry` becomes a terminal [`FailedDelivery`]. The packet leaves
    /// the in-flight set so closed-loop harnesses observe completion.
    /// (Takes the two fields it needs, not `&mut self`, so the confirm
    /// sweep can call it while iterating the routers.)
    fn give_up(ledger: &mut DeliveryLedger, obs: &mut Obs, entry: &Entry, at: NodeId, now: u64) {
        ledger.stats.retry_exhausted += 1;
        for &dest in &entry.targets {
            ledger.fail(obs, origin(entry.core), dest, at, now);
        }
    }

    /// Hop reach under the current laser-droop factor: the largest hop
    /// count whose worst-case loss (at the degraded crossing efficiency)
    /// still fits the power budget provisioned for the *nominal*
    /// `max_hops` reach. Clamped to at least one hop.
    fn effective_max_hops(&self, now: u64) -> u32 {
        let factor = self.fault_plan.efficiency_factor(now);
        if factor >= 1.0 {
            return self.cfg.max_hops;
        }
        let budget = PowerPoint::new(
            self.cfg.wdm,
            self.cfg.max_hops,
            self.cfg.crossing_efficiency,
        )
        .peak_optical_power();
        let degraded = self.cfg.crossing_efficiency * factor;
        (1..=self.cfg.max_hops)
            .take_while(|&h| {
                PowerPoint::new(self.cfg.wdm, h, degraded).peak_optical_power() <= budget
            })
            .last()
            .unwrap_or(1)
    }

    /// Rolls for a transient bit error on one delivery and, when one
    /// occurs, actually runs the flipped payload through the SECDED
    /// code: single upsets come back [`Decoded::Corrected`], double
    /// upsets [`Decoded::Uncorrectable`]. Inert (no RNG draw) at rate 0.
    fn roll_bit_error(rate: f64, rng: &mut SimRng, payload: u64) -> EccOutcome {
        if rate <= 0.0 || !rng.gen_bool(rate) {
            return EccOutcome::Clean;
        }
        let mut cw = ecc::encode(payload);
        let b1 = (rng.gen_u64() % 64) as u32;
        // One error event in eight hits two bits of the same word.
        if rng.gen_bool(0.125) {
            let b2 = (b1 + 1 + (rng.gen_u64() % 63) as u32) % 64;
            cw.data ^= (1 << b1) | (1 << b2);
            debug_assert_eq!(ecc::decode(cw), Decoded::Uncorrectable);
            EccOutcome::Uncorrectable
        } else {
            cw.data ^= 1 << b1;
            debug_assert_eq!(ecc::decode(cw), Decoded::Corrected(payload));
            EccOutcome::Corrected
        }
    }
    /// Fault bookkeeping for this cycle: edge events, then the hop reach
    /// under laser droop and the transient bit-error rate. Everything
    /// collapses to the nominal values when no plan is installed, so an
    /// empty plan is exactly zero-effect.
    fn fault_bookkeeping(&mut self, now: u64) -> (u32, f64) {
        if self.fault_plan.is_empty() {
            return (self.cfg.max_hops, 0.0);
        }
        self.fault_plan.emit_edges(&mut self.obs, now);
        (
            self.effective_max_hops(now),
            self.fault_plan.bit_error_rate(now),
        )
    }

    /// Confirms or reverts last cycle's launches. Busy routers that
    /// launched nothing are skipped outright; for the rest, the launched
    /// list swaps into a reused scratch buffer. A reverted entry
    /// re-queues at its launcher, which is on the worklist already.
    fn confirm_launches(&mut self, now: u64) {
        let mut scratch = std::mem::take(&mut self.confirm_scratch);
        for w in 0..self.busy.len() {
            for bit in set_bits(self.busy[w]) {
                let r_idx = w * 64 + bit;
                let state = &mut self.routers[r_idx];
                if !state.has_launched() {
                    continue;
                }
                state.begin_confirm(&mut scratch);
                self.profiler.add_work(Phase::Drain, scratch.len() as u64);
                let launcher = NodeId(r_idx as u16);
                for &(queue, flight) in &scratch {
                    let qi = usize::from(queue);
                    let mut entry = state.pop_launched(qi);
                    // No drop signal: confirmed — the slot simply frees.
                    let Some(remaining) = self.drop_slots[flight as usize].take() else {
                        continue;
                    };
                    let id = Some(entry.core.id);
                    self.obs
                        .emit(now, EventKind::DropReturn, launcher, None, id);
                    entry.targets = remaining;
                    if entry.attempts >= self.cfg.retry_limit {
                        Self::give_up(&mut self.ledger, &mut self.obs, &entry, launcher, now);
                        continue;
                    }
                    let roll = self.rng.gen_u64();
                    entry.ready_at = now + self.cfg.backoff.delay(entry.attempts, roll);
                    entry.attempts += 1;
                    self.ledger.stats.retransmitted += 1;
                    self.obs
                        .emit(now, EventKind::Retransmit, launcher, None, id);
                    state.push(qi, entry);
                }
            }
        }
        self.confirm_scratch = scratch;
        debug_assert!(
            self.drop_slots.iter().all(Option::is_none),
            "drop signal with no matching launch"
        );
    }

    /// Moves packets from each busy router's NIC into its local buffer
    /// while it has room.
    fn drain_nics(&mut self) {
        let local_q = RouterState::local_queue();
        let mut route_work = 0u64;
        for w in 0..self.busy.len() {
            for bit in set_bits(self.busy[w]) {
                let r_idx = w * 64 + bit;
                let nic = &mut self.nics[r_idx];
                if nic.is_empty() {
                    continue;
                }
                let state = &mut self.routers[r_idx];
                while state.has_room(local_q) {
                    match nic.pop() {
                        Some(entry) => {
                            self.energy.on_buffer_write();
                            state.push(local_q, entry);
                            route_work += 1;
                        }
                        None => break,
                    }
                }
            }
        }
        self.profiler.add_work(Phase::Route, route_work);
    }

    /// Rotating-priority arbitration and launch at every busy router,
    /// which then leaves the worklist if it holds nothing any more. Last
    /// cycle's flights retire to the pool (keeping their buffers) and
    /// the claim table rolls its epoch instead of clearing.
    fn arbitrate_and_launch(&mut self, now: u64, hops: u32) {
        self.claims.begin_cycle();
        self.n_flights = 0;
        self.drop_slots.clear();
        for w in 0..self.busy.len() {
            for bit in set_bits(self.busy[w]) {
                let r_idx = w * 64 + bit;
                if self.routers[r_idx].waiting() > 0 {
                    self.arbitrate_router(NodeId(r_idx as u16), now, hops);
                }
                // A launch parks its entry until next cycle's confirm,
                // so a router that launched stays on the list.
                if self.routers[r_idx].is_empty() && self.nics[r_idx].is_empty() {
                    self.busy[w] &= !(1 << bit);
                }
            }
        }
        self.profiler
            .add_work(Phase::Arbitrate, self.n_flights as u64);
    }

    /// One router's arbitration: up to four launches, visiting the five
    /// queues in the policy's order until a pass makes no progress.
    fn arbitrate_router(&mut self, here: NodeId, now: u64, hops: u32) {
        let state = &self.routers[here.index()];
        // Only age-based arbitration inspects the queue heads; the
        // rotating/fixed orders are pure permutations, so skip the five
        // head loads for them.
        let order = match self.cfg.arbitration {
            ArbitrationPolicy::OldestFirst => {
                let heads = [0, 1, 2, 3, 4].map(|q| state.head(q));
                self.cfg.arbitration.queue_order(rotation(now), heads)
            }
            policy => policy.queue_order(rotation(now), [None; 5]),
        };
        let mut launches = 0u32;
        let mut progress = true;
        // Re-pass filter: without faults, a queue skipped in one pass
        // (empty, not ready, or claim-blocked — all invariant within the
        // cycle) cannot become launchable in a later pass; only a queue
        // that just launched exposes a new head. Fault handling mutates
        // heads in place, so it keeps the full rescan.
        let fault_free = self.fault_plan.is_empty();
        let mut eligible = [true; 5];
        while launches < 4 && progress {
            progress = false;
            for &qi in &order {
                if launches >= 4 {
                    break;
                }
                if fault_free && !eligible[qi] {
                    continue;
                }
                eligible[qi] = false;
                match self.service_head(here, qi, now, hops) {
                    HeadAction::Skipped => {}
                    HeadAction::EjectedLocally => progress = true,
                    HeadAction::Launched => {
                        launches += 1;
                        progress = true;
                        eligible[qi] = true;
                    }
                }
            }
        }
    }

    /// Decides what the head of queue `qi` at router `here` does this
    /// pass: nothing (empty, backing off, output claimed, stalled on a
    /// fault, given up), a local ejection, or a launch — straight down
    /// its XY path, or around a faulted first hop.
    fn service_head(&mut self, here: NodeId, qi: usize, now: u64, hops: u32) -> HeadAction {
        let mesh = self.cfg.mesh;
        let state = &mut self.routers[here.index()];
        if state.arbitrable() & (1 << qi) == 0 {
            return HeadAction::Skipped;
        }
        let Some(head) = state.head_mut(qi) else {
            return HeadAction::Skipped;
        };
        if head.ready_at > now {
            return HeadAction::Skipped;
        }
        let faulted = !self.fault_plan.is_empty();
        if faulted && head.targets.contains(&here) {
            // Only an ECC-rejected optical delivery re-buffers a packet
            // at its own target router. The electrical buffer copy is
            // clean (SECDED covers the optical hop), so the target ejects
            // locally instead of launching.
            head.targets.retain(|&t| t != here);
            let core = head.core;
            if head.targets.is_empty() {
                let _ = state.pop_head(qi);
            }
            self.deliver(core, here, now);
            return HeadAction::EjectedLocally;
        }
        let first = *head.targets.first().expect("entries keep >= 1 target");
        let mut out = xy_first_hop(mesh, here, first)
            .expect("buffered targets never equal the holding router");
        let mut waypoint: Option<NodeId> = None;
        if faulted {
            let stuck_here = self.fault_plan.router_stuck(now, here);
            if stuck_here || self.fault_plan.blocked(now, mesh, here, out) {
                // The preferred output is faulted. A unicast at a working
                // router may detour through the other dimension if that
                // makes real progress toward the destination; otherwise
                // the entry backs off in place until the fault clears or
                // the retry cap declares it undeliverable.
                let unicast = !head.core.multicast && head.targets.len() == 1;
                let detour = (!stuck_here && unicast)
                    .then(|| productive_detour(&self.fault_plan, now, mesh, here, first))
                    .flatten();
                let Some((dir, corner)) = detour else {
                    self.stall_or_give_up(here, qi, out, now);
                    return HeadAction::Skipped;
                };
                out = dir;
                waypoint = Some(corner);
            }
        }
        if self.claims.contains(here, out) {
            return HeadAction::Skipped;
        }
        self.launch(here, qi, out, waypoint, now, hops);
        HeadAction::Launched
    }

    /// The head of queue `qi` cannot leave `here` (faulted output, no
    /// productive detour): it backs off in place, or — past the retry
    /// cap — its targets are declared undeliverable.
    fn stall_or_give_up(&mut self, here: NodeId, qi: usize, out: Direction, now: u64) {
        let state = &mut self.routers[here.index()];
        let head = state.head_mut(qi).expect("caller checked the head");
        if head.attempts >= self.cfg.retry_limit {
            let entry = state.pop_head(qi);
            Self::give_up(&mut self.ledger, &mut self.obs, &entry, here, now);
            return;
        }
        // Flat jittered delay rather than the exponential drop backoff:
        // growth only helps congestion decongest, and a dead link never
        // does. Short stalls keep the queue moving toward the retry cap
        // so head-of-line entries resolve quickly.
        let roll = self.fault_rng.gen_u64();
        head.ready_at = now + 1 + roll % 8;
        head.attempts += 1;
        let id = Some(head.core.id);
        self.obs
            .emit(now, EventKind::FaultStall, here, Some(out), id);
    }

    /// Launches the head of queue `qi` out of `here` through `out`, as
    /// the next flight of this cycle: builds its plan (a detour via
    /// `waypoint` is an ordinary two-waypoint unicast plan; the corner
    /// is not tapped because the plan is not multicast), claims the
    /// output port, and parks the entry until next cycle's confirm.
    fn launch(
        &mut self,
        here: NodeId,
        qi: usize,
        out: Direction,
        waypoint: Option<NodeId>,
        now: u64,
        hops: u32,
    ) {
        let mesh = self.cfg.mesh;
        let fi = self.n_flights;
        if self.flights.len() == fi {
            self.flights.push(Flight::blank());
        }
        let entry = self.routers[here.index()].launch_head(qi, fi as u32);
        let id = Some(entry.core.id);
        let flight = &mut self.flights[fi];
        let detour;
        let (targets, multicast): (&[NodeId], bool) = match waypoint {
            Some(corner) => {
                let first = *entry.targets.first().expect("entries keep >= 1 target");
                detour = [corner, first];
                self.ledger.stats.rerouted += 1;
                self.obs
                    .emit(now, EventKind::FaultReroute, here, Some(out), id);
                (&detour, false)
            }
            None => (&entry.targets, entry.core.multicast),
        };
        flight
            .plan
            .rebuild_with(&mut self.plan_dirs, mesh, here, targets, multicast, hops);
        debug_assert_eq!(flight.plan.first_exit(), out);
        debug_assert_eq!(
            RouteControl::encode(&flight.plan).len(),
            flight.plan.steps().len() - 1 + usize::from(flight.plan.ends_at_interim())
        );
        let claim = Claim {
            flight: fi as u32,
            step: 0,
            rank: 0,
        };
        self.claims.insert(here, out, claim);
        self.links.record(here, out);
        self.obs
            .emit(now, EventKind::OpticalTransit, here, Some(out), id);
        flight.uid = entry.uid;
        flight.core = entry.core;
        flight.remaining.clone_from_list(&entry.targets);
        flight.trail.clear();
        flight.trail.push((here, out));
        flight.alive = true;
        self.n_flights += 1;
        self.drop_slots.push(None);
        self.energy.on_buffer_read();
        self.energy.on_launch();
    }

    /// The optical wavefront: every flight advances one router per
    /// step, all flights in launch order within a step.
    fn wavefront(&mut self, now: u64, ber: f64) {
        let plan_len = |f: &Flight| f.plan.steps().len();
        let flights = &self.flights[..self.n_flights];
        if self.profiler.is_enabled() {
            let wavefront_steps = flights.iter().map(|f| plan_len(f) as u64).sum();
            self.profiler.add_work(Phase::Traverse, wavefront_steps);
        }
        let max_len = flights.iter().map(plan_len).max().unwrap_or(0);
        for s in 1..max_len {
            for fi in 0..self.n_flights {
                let f = &self.flights[fi];
                if !f.alive {
                    continue;
                }
                let Some(&step) = f.plan.steps().get(s) else {
                    continue;
                };
                let entry_dir = step.entry.expect("only the launch step has no entry");
                if step.tap && !self.receive_copy(fi, step.router, entry_dir, ber, now) {
                    continue;
                }
                match step.exit {
                    StepExit::Forward(out) => {
                        self.claim_exit(fi, s, step.router, entry_dir, out, now);
                    }
                    StepExit::Stop(StopKind::Accept) => {
                        if self.receive_copy(fi, step.router, entry_dir, ber, now) {
                            self.flights[fi].alive = false;
                            debug_assert!(self.flights[fi].remaining.is_empty());
                        }
                    }
                    StepExit::Stop(StopKind::Interim) => {
                        self.block_flight(fi, step.router, entry_dir, now);
                    }
                }
            }
        }
    }

    /// The local node of `router` receives its copy of flight `fi` (a
    /// multicast tap or the final accept), subject to a bit-error roll.
    /// Returns whether the copy was delivered; when SECDED detects a
    /// double upset the delivery is rejected instead and the whole
    /// remaining itinerary re-buffered here for retransmission.
    fn receive_copy(
        &mut self,
        fi: usize,
        router: NodeId,
        entry_dir: Direction,
        ber: f64,
        now: u64,
    ) -> bool {
        let flight = &mut self.flights[fi];
        let id = Some(flight.core.id);
        let outcome = Self::roll_bit_error(ber, &mut self.fault_rng, flight.uid);
        if outcome == EccOutcome::Uncorrectable {
            self.ledger.stats.ecc_uncorrectable += 1;
            self.obs
                .emit(now, EventKind::EccUncorrectable, router, None, id);
            self.block_flight(fi, router, entry_dir, now);
            return false;
        }
        if outcome == EccOutcome::Corrected {
            self.ledger.stats.ecc_corrected += 1;
            self.obs
                .emit(now, EventKind::EccCorrected, router, None, id);
        }
        let before = flight.remaining.len();
        flight.remaining.retain(|&t| t != router);
        debug_assert_eq!(
            flight.remaining.len() + 1,
            before,
            "delivery target {router} not in itinerary"
        );
        let core = flight.core;
        self.deliver(core, router, now);
        true
    }

    /// Flight `fi`, at plan step `s`, contends for the output port
    /// `out` of `router`: it takes a free port, displaces a same-step
    /// incumbent of lower priority (who is received at its own input
    /// port), or is itself received at `entry_dir`.
    fn claim_exit(
        &mut self,
        fi: usize,
        s: usize,
        router: NodeId,
        entry_dir: Direction,
        out: Direction,
        now: u64,
    ) {
        let id = Some(self.flights[fi].core.id);
        if !self.fault_plan.is_empty() && self.fault_plan.blocked(now, self.cfg.mesh, router, out) {
            // The wavefront ran into a faulted link or stuck router
            // mid-flight: forced electrical fallback at this hop.
            self.ledger.stats.rerouted += 1;
            self.obs
                .emit(now, EventKind::FaultReroute, router, Some(out), id);
            self.block_flight(fi, router, entry_dir, now);
            return;
        }
        let turn_class = match classify_turn(entry_dir, out) {
            Turn::Straight => 1,
            Turn::Left => 2,
            Turn::Right => 3,
        };
        let rank = pack_rank(
            self.cfg
                .path_priority
                .rank(turn_class, entry_dir as u8, now),
        );
        let incumbent = self.claims.get(router, out);
        if incumbent.is_some_and(|c| c.step as usize != s || rank >= c.rank) {
            self.block_flight(fi, router, entry_dir, now);
            return;
        }
        let claim = Claim {
            flight: fi as u32,
            step: s as u16,
            rank,
        };
        self.claims.insert(router, out, claim);
        self.flights[fi].trail.push((router, out));
        if incumbent.is_none() {
            self.links.record(router, out);
        }
        self.obs
            .emit(now, EventKind::OpticalTransit, router, Some(out), id);
        if let Some(c) = incumbent {
            // This packet's control bits force the incumbent (a
            // lower-priority turn) to be received at its input port. It
            // never actually exits this router: undo its claim in the
            // trail.
            let loser = c.flight as usize;
            let loser_step = self.flights[loser].plan.steps()[s];
            let loser_entry = loser_step.entry.expect("incumbent arrived via a link");
            self.flights[loser].trail.pop();
            self.block_flight(loser, loser_step.router, loser_entry, now);
        }
    }

    /// Leakage accrues and the clock advances.
    fn end_cycle(&mut self, delivered_before: usize) {
        debug_assert_eq!(
            self.ledger.stats.dropped,
            self.return_paths.signals_total(),
            "every dropped packet produces exactly one drop-return signal"
        );
        self.energy.on_cycle();
        self.cycle += 1;
        let ejected = self.ledger.pending_deliveries() - delivered_before;
        self.profiler.add_work(Phase::Eject, ejected as u64);
    }
}

impl Network for PhastlaneNetwork {
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
        let id = self.ledger.next_id();

        // Unicast fast path: synthetic sweeps inject thousands of
        // single-destination packets per run, none of which need the
        // destination-list or multicast-split allocations below.
        if let DestSet::Unicast(d) = packet.dests {
            if d != packet.src {
                let nic = &self.nics[packet.src.index()];
                if nic.len() + 1 > nic.capacity() {
                    self.obs
                        .emit(self.cycle, EventKind::NicRetry, packet.src, None, None);
                    return None;
                }
                let core = PacketCore {
                    id,
                    src: packet.src,
                    kind: packet.kind,
                    multicast: false,
                    injected_cycle: self.cycle,
                };
                let uid = self.fresh_uid();
                let entry = Entry {
                    uid,
                    core,
                    targets: [d].into_iter().collect(),
                    ready_at: self.cycle,
                    attempts: 0,
                };
                let pushed = self.nics[packet.src.index()].try_push(entry);
                assert!(pushed.is_ok(), "capacity verified above");
                set_bit(&mut self.busy, packet.src.index());
                self.ledger
                    .accept(&mut self.obs, self.cycle, id, packet.src, 1);
                return Some(id);
            }
        }

        let dests = packet.dests.expand(packet.src, nodes);

        if dests.is_empty() {
            // Degenerate self-send: delivered locally without the network.
            self.ledger
                .self_send(&mut self.obs, self.cycle, id, packet.src);
            return Some(id);
        }

        let multicast = dests.len() > 1;
        let messages: Vec<TargetList> = if multicast {
            split_multicast(self.cfg.mesh, packet.src, &dests)
        } else {
            vec![dests.as_slice().into()]
        };
        debug_assert!(!messages.is_empty());

        // All multicast messages of a broadcast enter the NIC atomically.
        let nic = &self.nics[packet.src.index()];
        if nic.len() + messages.len() > nic.capacity() {
            self.obs
                .emit(self.cycle, EventKind::NicRetry, packet.src, None, None);
            return None;
        }
        let core = PacketCore {
            id,
            src: packet.src,
            kind: packet.kind,
            multicast,
            injected_cycle: self.cycle,
        };
        for targets in messages {
            let uid = self.fresh_uid();
            let entry = Entry {
                uid,
                core,
                targets,
                ready_at: self.cycle,
                attempts: 0,
            };
            let pushed = self.nics[packet.src.index()].try_push(entry);
            assert!(pushed.is_ok(), "capacity verified above");
        }
        set_bit(&mut self.busy, packet.src.index());
        self.ledger
            .accept(&mut self.obs, self.cycle, id, packet.src, dests.len());
        Some(id)
    }

    fn step(&mut self) {
        let now = self.cycle;
        debug_assert!(
            self.busy_mask_covers_all_work(),
            "a router holds entries but is not on the busy worklist"
        );
        self.return_paths.clear();
        self.profiler.begin_cycle();
        let delivered_before = self.ledger.pending_deliveries();

        let (hops, ber) = self.fault_bookkeeping(now);
        self.profiler.mark(Phase::Fault);
        self.confirm_launches(now);
        self.profiler.mark(Phase::Drain);
        self.drain_nics();
        self.profiler.mark(Phase::Route);
        self.arbitrate_and_launch(now, hops);
        self.profiler.mark(Phase::Arbitrate);
        self.wavefront(now, ber);
        self.profiler.mark(Phase::Traverse);
        self.end_cycle(delivered_before);
        self.profiler.mark(Phase::Eject);
    }

    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        self.ledger.drain_deliveries()
    }

    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        self.ledger.drain_deliveries_into(out);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.fault_plan = plan;
        self.fault_rng = SimRng::seed_from_u64(seed);
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
        self.buffered_packets() as u64
    }
}
