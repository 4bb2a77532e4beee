//! The conformance kit: [`conformance`] runs the contracts every
//! [`Network`] owes on fresh networks, and [`differential`] runs two
//! networks in lockstep on one schedule and fails at the first cycle in
//! which they differ, naming it and printing both sides. Both drain
//! through the `_into` forms, as the harness does.

use phastlane_repro::netsim::geometry::Coord;
use phastlane_repro::netsim::rng::SimRng;
use phastlane_repro::netsim::stats::EnergyReport;
use phastlane_repro::netsim::{Delivery, DestSet, FailedDelivery, FaultPlan, Mesh, Network};
use phastlane_repro::netsim::{NewPacket, NodeId, PacketKind};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// How much of the kit a network owes: an `Ideal` one never refuses a
/// packet and ignores fault plans, so the contracts skip checking that
/// a refusal or a terminal failure happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Full,
    Ideal,
}

/// Runs every contract on networks built by `make`: self-send,
/// exactly-once delivery of unicast, multicast and broadcast, the books
/// after every cycle with and without a random fault plan (conservation,
/// energy that never falls), no dynamic work while idle, and a refused
/// `inject` delivering nothing later.
pub fn conformance<N: Network>(make: impl Fn() -> N, scope: Scope) {
    // A packet to its own source is delivered inside `inject`, with
    // latency zero, and leaves nothing in flight.
    let mut net = make();
    let id = net.inject(NewPacket::unicast(NodeId(5), NodeId(5)));
    let (arrived, _) = drained(&mut net);
    let got: Vec<_> = arrived
        .iter()
        .map(|d| (d.packet, d.dest, d.latency()))
        .collect();
    assert_eq!(got, [(id.unwrap(), NodeId(5), 0)], "{}", net.name());
    assert_eq!(net.in_flight(), 0);
    exactly_once(&make, 0x0C0F_0001, 24);
    conserves_every_cycle(&mut make(), 0x0C0F_0002, 0.0, |c| c < 200, 600);
    // Long enough for Optical4's default retry cap to give up on a packet
    // stalled at a stuck router, and past the electrical baseline's
    // 2 000-cycle stall-abandon guard, so that copies fail terminally
    // inside the window.
    let mut faulted = make();
    conserves_every_cycle(&mut faulted, 0x0C0F_0003, 0.3, |c| c < 60, 6_000);
    let failed = faulted.stats().undeliverable > 0;
    assert!(failed || scope == Scope::Ideal, "the fault plan never bit");
    idle_does_no_dynamic_work(&mut make());
    // One source offers 60 broadcasts in one cycle. The refused ones take
    // no id and are offered again later until accepted; every copy
    // arrives exactly once.
    net = make();
    let src = net.mesh().node_at(Coord { x: 3, y: 3 });
    let burst = vec![NewPacket::broadcast(src, PacketKind::WriteRequest); 60];
    let books = drive(&mut net, &[burst], 20_000);
    assert!(books.refused > 0 || scope == Scope::Ideal, "never refused");
    books.all_delivered(&net);
}

/// A random packet: a unicast (to its own source one time in `nodes`),
/// one time in five a three-target multicast, one in ten a broadcast.
fn random_packet(rng: &mut SimRng, nodes: u16) -> NewPacket {
    use PacketKind::{Data, DataResponse, ReadRequest, Writeback};
    let (src, dst) = (NodeId(rng.gen_range(0..nodes)), rng.gen_range(0..nodes));
    let kind = [Data, ReadRequest, DataResponse, Writeback][rng.gen_range(0..4)];
    let dests = match rng.gen_range(0u8..10) {
        0 => DestSet::Broadcast,
        1..=2 => {
            let targets = [dst, dst.wrapping_mul(13) % nodes, (dst + 17) % nodes];
            DestSet::Multicast(targets.map(NodeId).to_vec())
        }
        _ => DestSet::Unicast(NodeId(dst)),
    };
    NewPacket { src, dests, kind }
}

/// Between one and `max_len - 1` random packets.
pub fn random_packets(rng: &mut SimRng, nodes: u16, max_len: usize) -> Vec<NewPacket> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| random_packet(rng, nodes)).collect()
}

/// Packets offered per cycle: `schedule[c]` in cycle `c`.
pub type Schedule = [Vec<NewPacket>];

/// `cycles` cycles of random traffic: in cycle `c` each node offers a
/// packet with probability `rate(c)`.
pub fn random_schedule(
    mesh: Mesh,
    seed: u64,
    cycles: u64,
    rate: impl Fn(u64) -> f64,
) -> Vec<Vec<NewPacket>> {
    let (mut rng, nodes) = (SimRng::seed_from_u64(seed), mesh.nodes() as u16);
    let mut cycle = |c| {
        let offers = (0..nodes).filter(|_| rng.gen_bool(rate(c))).count();
        (0..offers)
            .map(|_| random_packet(&mut rng, nodes))
            .collect()
    };
    (0..cycles).map(&mut cycle).collect()
}

/// Drains `net`'s deliveries and failures through the `_into` forms.
fn drained(net: &mut dyn Network) -> (Vec<Delivery>, Vec<FailedDelivery>) {
    let (mut delivered, mut failed) = (Vec::new(), Vec::new());
    net.drain_deliveries_into(&mut delivered);
    net.drain_failures_into(&mut failed);
    (delivered, failed)
}

/// The books of one drive of a fresh network: every accepted
/// `(packet, dest)` copy is owed until it ends as exactly one delivery
/// or one terminal failure.
#[derive(Default)]
struct Books {
    owed: BTreeSet<(u64, u16)>,
    accepted: u64,
    packets: u64,
    refused: u64,
    failed: u64,
    /// Packets still refused when the drive stopped.
    unaccepted: usize,
    energy: EnergyReport,
}

impl Books {
    /// Offers `packet`; an accepted one takes the next consecutive id and
    /// owes one copy per destination (a self-send its one local copy).
    fn inject(&mut self, net: &mut dyn Network, packet: &NewPacket) -> bool {
        let Some(id) = net.inject(packet.clone()) else {
            self.refused += 1;
            return false;
        };
        assert_eq!(id.0, self.packets, "ids go in acceptance order");
        self.packets += 1;
        let mut dests = packet.dests.expand(packet.src, net.mesh().nodes());
        if dests.is_empty() {
            dests.push(packet.src);
        }
        self.accepted += dests.len() as u64;
        for d in dests {
            assert!(self.owed.insert((id.0, d.0)), "packet id {id:?} reused");
        }
        true
    }

    /// Steps once; each delivery and failure drained must end a copy
    /// still owed. Then `accepted = delivered + failed + owed` by the
    /// network's counters, which count the failures drained;
    /// `in_flight()` counts the packets still owed; no energy term fell.
    fn step(&mut self, net: &mut dyn Network) {
        net.step();
        let (name, cycle) = (net.name(), net.cycle());
        let (delivered, failed) = drained(net);
        self.failed += failed.len() as u64;
        let delivered = delivered.into_iter().map(|d| (d.packet, d.dest));
        for (id, dest) in delivered.chain(failed.into_iter().map(|f| (f.packet, f.dest))) {
            let owed = self.owed.remove(&(id.0, dest.0));
            assert!(owed, "{name} cycle {cycle}: {id:?} at {dest} ended twice");
        }
        let stats = net.stats();
        let ended = stats.delivered + stats.undeliverable + self.owed.len() as u64;
        let books = (self.accepted, self.failed);
        assert_eq!(books, (ended, stats.undeliverable), "{name} cycle {cycle}");
        let owed: BTreeSet<u64> = self.owed.iter().map(|&(id, _)| id).collect();
        assert_eq!(net.in_flight(), owed.len(), "{name} cycle {cycle}");
        let e = net.energy();
        let terms = |e: &EnergyReport| [e.dynamic_pj, e.leakage_pj, e.laser_pj, e.link_pj];
        let fell = std::iter::zip(terms(&e), terms(&self.energy)).any(|(x, y)| x < y);
        assert!(!fell, "{name} cycle {cycle}: energy fell to {e:?}");
        self.energy = e;
    }

    /// The drive ended with every packet offered accepted, nothing in
    /// flight and no failure: every copy was delivered exactly once.
    fn all_delivered(&self, net: &dyn Network) {
        let name = net.name();
        assert_eq!(self.unaccepted, 0, "{name}: packets refused to the end");
        assert_eq!(net.in_flight(), 0, "{name}: workload did not drain");
        assert_eq!(self.failed, 0, "{name}: copies failed");
    }
}

/// Offers `schedule[c]` to a fresh `net` in cycle `c`, and a refused
/// packet again in every later cycle, then steps on until idle: `limit`
/// cycles in all at most. The books are checked after every step, and
/// count the packets still refused at the end.
fn drive(net: &mut dyn Network, schedule: &Schedule, limit: u64) -> Books {
    let (mut books, mut queue) = (Books::default(), Vec::new());
    for c in 0..limit as usize {
        if c >= schedule.len() && queue.is_empty() && net.in_flight() == 0 {
            break;
        }
        queue.extend(schedule.get(c).into_iter().flatten().cloned());
        queue.retain(|p| !books.inject(net, p));
        books.step(net);
    }
    books.unaccepted = queue.len();
    books
}

/// `rounds` times, a fresh network takes a batch of random packets:
/// [`delivers_exactly_once`].
pub fn exactly_once<N: Network>(make: impl Fn() -> N, seed: u64, rounds: u32) {
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..rounds {
        let mut net = make();
        let batch = random_packets(&mut rng, net.mesh().nodes() as u16, 25);
        delivers_exactly_once(&mut net, batch);
    }
}

/// A fresh `net` takes `batch` in one cycle and runs until idle, within
/// 10 000 cycles: every packet is accepted, every copy is delivered
/// exactly once, none fails, and the idle network does no more work.
pub fn delivers_exactly_once(net: &mut dyn Network, batch: Vec<NewPacket>) {
    drive(net, &[batch], 10_000).all_delivered(net);
    idle_does_no_dynamic_work(net);
}

/// Drives random traffic, six packets on average in every cycle that
/// `bursting` picks, for `cycles` on a fresh network under a random
/// fault plan of the given intensity (none at 0), checking the books
/// after every step.
pub fn conserves_every_cycle(
    net: &mut dyn Network,
    seed: u64,
    intensity: f64,
    bursting: impl Fn(u64) -> bool,
    cycles: u64,
) {
    let mesh = net.mesh();
    if intensity > 0.0 {
        net.set_fault_plan(FaultPlan::random(mesh, seed, intensity), seed);
    }
    let burst = |c| f64::from(u8::from(bursting(c))) * 6.0 / mesh.nodes() as f64;
    drive(net, &random_schedule(mesh, seed, cycles, burst), cycles);
    assert!(net.stats().delivered > 0, "{}", net.name());
}

/// Stepping a network with nothing in it, fresh or drained, spends no
/// dynamic, laser or link energy and moves no counter.
fn idle_does_no_dynamic_work(net: &mut dyn Network) {
    let (was, stats) = (net.energy(), net.stats());
    let mut d = Vec::new();
    for _ in 0..100 {
        net.step();
        d.extend(drained(net).0);
    }
    let (e, name) = (net.energy(), net.name());
    let work = |e: EnergyReport| (e.dynamic_pj, e.laser_pj, e.link_pj);
    assert_eq!(work(e), work(was), "{name}: idle dynamic energy");
    assert!(d.is_empty() && net.in_flight() == 0 && e.leakage_pj >= was.leakage_pj);
    assert_eq!(net.stats(), stats, "{name}: idle cycles moved a counter");
}

/// `Err` names the cycle and the observation, then both sides' values.
fn same<T: PartialEq + Debug>(cycle: u64, what: &str, a: T, b: T) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let difference = format!("cycle {cycle}: {what} differ\n  a: {a:?}\n  b: {b:?}");
    Err(difference)
}

/// Runs `schedule` on `a` and `b` in lockstep as [`drive`] does, then
/// steps both until idle, for at most `drain` cycles more. Each cycle
/// offers both the same packets and compares the `inject` answers;
/// after each `step` it compares `cycle()`, the deliveries and the
/// failures drained, in order, `in_flight()` and `stats()`. `Ok` holds
/// how many deliveries and failures were compared; `Err`, the first
/// difference, at the `cycle()` at which it was seen.
pub fn first_difference(
    a: &mut dyn Network,
    b: &mut dyn Network,
    schedule: &Schedule,
    drain: u64,
) -> Result<(usize, usize), String> {
    let (mut queue, mut compared) = (Vec::new(), (0, 0));
    for c in 0..schedule.len() + drain as usize {
        if c >= schedule.len() && queue.is_empty() && a.in_flight() + b.in_flight() == 0 {
            break;
        }
        queue.extend(schedule.get(c).into_iter().flatten().cloned());
        let mut refused = Vec::new();
        for p in queue.drain(..) {
            let (ia, ib) = (a.inject(p.clone()), b.inject(p.clone()));
            same(a.cycle(), "inject answers", (&p, ia), (&p, ib))?;
            refused.extend(ia.is_none().then_some(p));
        }
        queue = refused;
        a.step();
        b.step();
        let cycle = a.cycle();
        same(cycle, "cycles", cycle, b.cycle())?;
        let ((da, fa), (db, fb)) = (drained(a), drained(b));
        same(cycle, "deliveries", &da, &db)?;
        same(cycle, "failures", &fa, &fb)?;
        same(cycle, "in_flight", a.in_flight(), b.in_flight())?;
        same(cycle, "stats", a.stats(), b.stats())?;
        compared = (compared.0 + da.len(), compared.1 + fa.len());
    }
    Ok(compared)
}

/// [`first_difference`], failing at the first difference; returns the
/// numbers of deliveries and failures compared.
pub fn differential(a: &mut dyn Network, b: &mut dyn Network, s: &Schedule) -> (usize, usize) {
    let names = format!("{} vs {}", a.name(), b.name());
    first_difference(a, b, s, 20_000).unwrap_or_else(|m| panic!("{names}: {m}"))
}
