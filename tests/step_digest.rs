//! The cross-commit `step()` pin: seeded runs over the axes
//! `results/specs/golden.lab` does not cover — every optical buffer
//! organisation × `ArbitrationPolicy` × `PathPriority`, both electrical
//! pipelines, fault plans that bring dead links, a stuck router, laser
//! droop, bit errors and transient windows, finite retry caps, and
//! multicast/broadcast/self-send traffic — each folded into one FNV-1a 64
//! digest of every `SimEvent`, every drained `Delivery` and
//! `FailedDelivery` (in drain order, per cycle) and the final
//! `NetworkStats`, `EnergyReport` and `LinkCounters`.
//!
//! The constants below were recorded at commit c09981f, before the
//! per-phase split of the two `step()` bodies. They are the contract
//! that lets the hot loops be rearranged freely: none of it may move a
//! single emitted event, RNG draw or energy event. If this test
//! fails, the change altered simulated behaviour — fix the code, do not
//! re-record the digests. (`print_digest_table`, ignored, prints the
//! table in source form for the day a cell is *added*.)
//!
//! `ELECTRICAL_AXES` was added later and recorded at commit c2dd9f7,
//! before the electrical crate's flat-layout rewrite: the axes that
//! rewrite touches and the 24 original electrical cells never reach —
//! 2 and 16 VCs per port, one iSLIP iteration, input speedup 1, a
//! saturated mesh whose NICs refuse injections, and a non-square mesh.
//!
//! `OPTICAL_AXES` was added later still and recorded at commit f4349dc,
//! before broadcast injection memoised its column split: broadcast-only
//! storms that fill the source NICs, so refused broadcasts (`inject`
//! answering `None`, a `NicRetry` event) occur in every cell, on 8x8,
//! 8x4, 5x3 and 16x16 (whose column messages spill past the eight inline
//! targets), at fault intensity 0 and 0.3. Each storm runs twice on the
//! same seed: once as `DestSet::Broadcast` and once as the explicit
//! all-but-source `DestSet::Multicast` list, the same packets by another
//! path — the two digests of a pair must also agree with each other.
//!
//! One deliberate behaviour change re-recorded `OPTICAL` once: the optical
//! fault detour became the one-hop rule the electrical network and the
//! static analyzer run (the detour waypoint is the neighbour through the
//! other dimension, no longer the corner `(x, dst.y)`). Only faulted
//! cells (`f0.15`, `f0.3`) moved; every fault-free optical cell and every
//! electrical cell kept the digest it had.
//!
//! A second deliberate change re-recorded every table once: energy became
//! a function of event counts, evaluated when `energy()` is read, instead
//! of a running `f64` sum the hot loop added to event by event. The sum
//! and the product differ only by float reassociation, so only the four
//! energy words of each cell moved. Before the re-record, the counted
//! energy was held to the running sum within 1e-9 relative on every cell
//! (the largest difference was 2.9e-12), and every cell's digest with its
//! four energy words left out was identical before and after.

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim;
use phastlane_repro::netsim::fault::{Fault, FaultKind, FaultPlan};
use phastlane_repro::netsim::obs::TraceBuffer;
use phastlane_repro::netsim::packet::PacketKind;
use phastlane_repro::netsim::rng::SimRng;
use phastlane_repro::netsim::{DestSet, Direction, Mesh, Network, NewPacket, NodeId};
use phastlane_repro::optical::{
    ArbitrationPolicy, PathPriority, PhastlaneConfig, PhastlaneNetwork,
};

/// FNV-1a 64 over the little-endian bytes of every folded value.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt(&mut self, v: Option<u64>) {
        self.u64(v.unwrap_or(u64::MAX));
    }
}

const INTENSITIES: [f64; 3] = [0.0, 0.15, 0.3];

/// `FaultPlan::random` (permanent faults only) plus four transient
/// windows, so fault edges, a clearing stuck router, a burst of bit
/// errors and a moving hop reach all occur mid-run.
fn plan_for(mesh: Mesh, seed: u64, intensity: f64) -> FaultPlan {
    let mut plan = FaultPlan::random(mesh, seed, intensity);
    if !plan.is_empty() {
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
    }
    plan
}

/// One cycle of offered traffic: Bernoulli per node, uniform
/// destinations (a destination equal to the source is the degenerate
/// self-send); the mix adds broadcasts and three-target multicasts.
fn offered(rng: &mut SimRng, mesh: Mesh, rate: f64, mixed: bool) -> Vec<NewPacket> {
    let nodes = mesh.nodes() as u16;
    let mut out = Vec::new();
    for src in 0..nodes {
        if !rng.gen_bool(rate) {
            continue;
        }
        let dst = rng.gen_range(0..nodes);
        let kind = PacketKind::ALL[rng.gen_range(0..PacketKind::ALL.len())];
        let dests = match if mixed { rng.gen_range(0u8..10) } else { 9 } {
            0 => DestSet::Broadcast,
            1 => DestSet::Multicast(vec![
                NodeId(dst),
                NodeId(dst.wrapping_mul(13) % nodes),
                NodeId(dst.wrapping_add(5) % nodes),
            ]),
            _ => DestSet::Unicast(NodeId(dst)),
        };
        out.push(NewPacket {
            src: NodeId(src),
            dests,
            kind,
        });
    }
    out
}

struct Drive {
    seed: u64,
    rate: f64,
    mixed: bool,
    inject_cycles: u64,
    total_cycles: u64,
}

/// Runs one cell and returns its digest.
fn run_cell(net: &mut dyn Network, plan: FaultPlan, drive: &Drive) -> u64 {
    let mesh = net.mesh();
    let mut h = Fnv::new();
    let mut rng = SimRng::seed_from_u64(drive.seed);
    net.set_fault_plan(plan, drive.seed ^ 0xFA17);
    net.set_trace(TraceBuffer::new());
    for cycle in 0..drive.total_cycles {
        if cycle < drive.inject_cycles {
            for p in offered(&mut rng, mesh, drive.rate, drive.mixed) {
                h.opt(net.inject(p).map(|id| id.0));
            }
        }
        net.step();
        for d in net.drain_deliveries() {
            for v in [
                d.packet.0,
                u64::from(d.src.0),
                u64::from(d.dest.0),
                d.injected_cycle,
                d.delivered_cycle,
            ] {
                h.u64(v);
            }
        }
        h.u64(u64::MAX);
        for f in net.drain_failures() {
            for v in [f.packet.0, u64::from(f.src.0), u64::from(f.dest.0), f.cycle] {
                h.u64(v);
            }
        }
        h.u64(net.in_flight() as u64);
    }

    let trace = net.take_trace().expect("trace attached above");
    assert_eq!(trace.evicted() + trace.filtered(), 0, "trace is unbounded");
    for e in trace.events() {
        h.u64(e.cycle);
        h.bytes(e.kind.name().as_bytes());
        h.u64(u64::from(e.node.0));
        h.opt(e.port.map(|d| d as u64));
        h.opt(e.packet.map(|p| p.0));
    }

    let s = net.stats();
    for v in [
        s.injected,
        s.delivered,
        s.dropped,
        s.retransmitted,
        s.undeliverable,
        s.retry_exhausted,
        s.rerouted,
        s.ecc_corrected,
        s.ecc_uncorrectable,
    ] {
        h.u64(v);
    }
    let kinds = PacketKind::ALL.map(|k| s.latency_by_kind.get(k));
    for lat in std::iter::once(Some(&s.latency)).chain(kinds) {
        let Some(lat) = lat else {
            h.u64(0);
            continue;
        };
        h.u64(lat.count());
        h.opt(lat.mean().map(f64::to_bits));
        h.opt(lat.min());
        h.u64(lat.max());
        h.opt(lat.percentile(50.0));
        h.opt(lat.percentile(99.0));
    }
    let e = net.energy();
    for v in [e.dynamic_pj, e.leakage_pj, e.laser_pj, e.link_pj] {
        h.u64(v.to_bits());
    }
    let links = net.link_counters();
    for node in mesh.iter_nodes() {
        for dir in Direction::ALL {
            h.u64(links.get(node, dir));
        }
    }
    h.0
}

const MESHES: [(u16, u16); 2] = [(4, 4), (8, 8)];

/// Every optical cell, in table order, as `(label, digest)`.
fn optical_cells() -> Vec<(String, u64)> {
    let configs = [
        PhastlaneConfig::optical4(),
        PhastlaneConfig::optical8(),
        PhastlaneConfig::optical4_ib(),
        PhastlaneConfig::optical4_shared_pool(),
    ];
    let mut cells = Vec::new();
    let mut seed = 0x57E9_0000u64;
    for base in configs {
        let name = base.label();
        for (w, hgt) in MESHES {
            for arbitration in ArbitrationPolicy::ALL {
                for path_priority in PathPriority::ALL {
                    for intensity in INTENSITIES {
                        for mixed in [false, true] {
                            seed += 1;
                            let mesh = Mesh::new(w, hgt);
                            let mut cfg = base.clone();
                            cfg.mesh = mesh;
                            cfg.arbitration = arbitration;
                            cfg.path_priority = path_priority;
                            // Finite, so both give-up paths (drop-return
                            // past the cap, fault stall past the cap) fire.
                            cfg.retry_limit = 8;
                            cfg.seed ^= seed;
                            let mut net = PhastlaneNetwork::new(cfg);
                            let drive = Drive {
                                seed,
                                rate: if mixed { 0.12 } else { 0.35 },
                                mixed,
                                inject_cycles: 150,
                                total_cycles: 450,
                            };
                            let digest =
                                run_cell(&mut net, plan_for(mesh, seed, intensity), &drive);
                            cells.push((
                                format!(
                                    "{name}/{w}x{hgt}/{arbitration}/{path_priority}/f{intensity}/{}",
                                    if mixed { "mixed" } else { "unicast" }
                                ),
                                digest,
                            ));
                        }
                    }
                }
            }
        }
    }
    cells
}

/// Every electrical cell. The faulted 4x4 cells run past the
/// 2 000-cycle stall-abandon guard so the NIC age-out and VC abandon
/// paths fire (the 8x8 ones stop short of it to keep the test quick).
fn electrical_cells() -> Vec<(String, u64)> {
    let configs = [
        ElectricalConfig::electrical3(),
        ElectricalConfig::electrical2(),
    ];
    let mut cells = Vec::new();
    let mut seed = 0xE1EC_0000u64;
    for base in configs {
        let name = base.label();
        for (w, hgt) in MESHES {
            for intensity in INTENSITIES {
                for mixed in [false, true] {
                    seed += 1;
                    let mesh = Mesh::new(w, hgt);
                    let mut cfg = base.clone();
                    cfg.mesh = mesh;
                    // The mixed cells also pay the cold-tree VCTM set-up.
                    cfg.vctm_setup_penalty = if mixed { 3 } else { 0 };
                    let mut net = ElectricalNetwork::new(cfg);
                    let drive = Drive {
                        seed,
                        rate: if mixed { 0.08 } else { 0.25 },
                        mixed,
                        inject_cycles: 200,
                        total_cycles: if intensity > 0.0 && w == 4 {
                            2_400
                        } else {
                            500
                        },
                    };
                    let digest = run_cell(&mut net, plan_for(mesh, seed, intensity), &drive);
                    cells.push((
                        format!(
                            "{name}/{w}x{hgt}/f{intensity}/{}",
                            if mixed { "mixed" } else { "unicast" }
                        ),
                        digest,
                    ));
                }
            }
        }
    }
    cells
}

/// The electrical axes the 24 cells above hold at their Table 2
/// defaults, each at fault intensity 0 and 0.3, unicast and mixed, on
/// 8x8 unless the axis is the mesh. The rates are chosen so the axis
/// bites: 2 VCs starve at the default rate, 16 VCs and the Table 2
/// router fill every VC only past saturation (where `inject` refuses),
/// and one iteration or speedup 1 needs contention to differ from the
/// default. Every faulted cell runs past the stall-abandon guard.
fn electrical_axis_cells() -> Vec<(String, u64)> {
    type Axis = (&'static str, fn(&mut ElectricalConfig), f64, f64);
    let axes: [Axis; 6] = [
        ("vcs2", |c| c.vcs_per_port = 2, 0.25, 0.08),
        ("vcs16", |c| c.vcs_per_port = 16, 0.6, 0.3),
        ("islip1", |c| c.islip_iterations = 1, 0.35, 0.12),
        ("speedup1", |c| c.input_speedup = 1, 0.35, 0.12),
        ("saturated", |_| {}, 0.9, 0.5),
        ("8x4", |c| c.mesh = Mesh::new(8, 4), 0.25, 0.08),
    ];
    let mut cells = Vec::new();
    let mut seed = 0xE1EC_1000u64;
    for (axis, apply, unicast_rate, mixed_rate) in axes {
        for intensity in [0.0, 0.3] {
            for mixed in [false, true] {
                seed += 1;
                let mut cfg = ElectricalConfig::electrical3();
                apply(&mut cfg);
                cfg.vctm_setup_penalty = if mixed { 3 } else { 0 };
                let mesh = cfg.mesh;
                let mut net = ElectricalNetwork::new(cfg);
                let drive = Drive {
                    seed,
                    rate: if mixed { mixed_rate } else { unicast_rate },
                    mixed,
                    inject_cycles: 200,
                    total_cycles: if intensity > 0.0 { 2_400 } else { 500 },
                };
                let digest = run_cell(&mut net, plan_for(mesh, seed, intensity), &drive);
                cells.push((
                    format!(
                        "Electrical3/{axis}/f{intensity}/{}",
                        if mixed { "mixed" } else { "unicast" }
                    ),
                    digest,
                ));
            }
        }
    }
    cells
}

/// An optical network whose every injection is a broadcast: `offered`'s
/// unicast draws pick the sources, kinds and RNG stream, and the
/// destination becomes every node but the source — `DestSet::Broadcast`,
/// or with `explicit` the same nodes as a `DestSet::Multicast` list.
/// Counts the injections the source NIC refused.
struct Storm {
    net: PhastlaneNetwork,
    explicit: bool,
    refused: u64,
}

impl Network for Storm {
    fn name(&self) -> String {
        self.net.name()
    }
    fn mesh(&self) -> Mesh {
        self.net.mesh()
    }
    fn cycle(&self) -> u64 {
        self.net.cycle()
    }
    fn inject(&mut self, packet: NewPacket) -> Option<netsim::PacketId> {
        let src = packet.src;
        let dests = if self.explicit {
            DestSet::Multicast(self.mesh().iter_nodes().filter(|&n| n != src).collect())
        } else {
            DestSet::Broadcast
        };
        let id = self.net.inject(NewPacket { dests, ..packet });
        self.refused += u64::from(id.is_none());
        id
    }
    fn step(&mut self) {
        self.net.step();
    }
    fn drain_deliveries(&mut self) -> Vec<netsim::Delivery> {
        self.net.drain_deliveries()
    }
    fn drain_failures(&mut self) -> Vec<netsim::FailedDelivery> {
        self.net.drain_failures()
    }
    fn in_flight(&self) -> usize {
        self.net.in_flight()
    }
    fn energy(&self) -> netsim::stats::EnergyReport {
        self.net.energy()
    }
    fn stats(&self) -> netsim::stats::NetworkStats {
        self.net.stats()
    }
    fn link_counters(&self) -> netsim::telemetry::LinkCounters {
        self.net.link_counters()
    }
    fn set_trace(&mut self, trace: TraceBuffer) {
        self.net.set_trace(trace);
    }
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.net.take_trace()
    }
    fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.net.set_fault_plan(plan, seed);
    }
}

/// Optical4 broadcast storms, as `(label, digest, refused injections)`:
/// per mesh a rate at which the source NICs fill, fault intensity 0 and
/// 0.3, and each seed once per destination spelling.
fn optical_axis_runs() -> Vec<(String, u64, u64)> {
    let meshes = [(8, 8, 0.1), (8, 4, 0.15), (5, 3, 0.2), (16, 16, 0.03)];
    let mut runs = Vec::new();
    let mut seed = 0x57E9_1000u64;
    for (w, hgt, rate) in meshes {
        for intensity in [0.0, 0.3] {
            seed += 1;
            for explicit in [false, true] {
                let mesh = Mesh::new(w, hgt);
                let mut cfg = PhastlaneConfig::optical4();
                cfg.mesh = mesh;
                cfg.retry_limit = 8;
                cfg.seed ^= seed;
                let mut storm = Storm {
                    net: PhastlaneNetwork::new(cfg),
                    explicit,
                    refused: 0,
                };
                let drive = Drive {
                    seed,
                    rate,
                    mixed: false,
                    inject_cycles: 120,
                    total_cycles: 400,
                };
                let digest = run_cell(&mut storm, plan_for(mesh, seed, intensity), &drive);
                let spelling = if explicit {
                    "all-but-source"
                } else {
                    "broadcast"
                };
                runs.push((
                    format!("Optical4/storm/{w}x{hgt}/f{intensity}/{spelling}"),
                    digest,
                    storm.refused,
                ));
            }
        }
    }
    runs
}

fn optical_axis_cells() -> Vec<(String, u64)> {
    let runs = optical_axis_runs().into_iter();
    runs.map(|(label, digest, _)| (label, digest)).collect()
}

fn check(fresh: &[(String, u64)], recorded: &[(&str, u64)]) {
    assert_eq!(fresh.len(), recorded.len(), "cell count changed");
    let moved: Vec<String> = fresh
        .iter()
        .zip(recorded)
        .filter(|((label, digest), (want_label, want))| label != want_label || digest != want)
        .map(|((label, digest), (_, want))| format!("{label}: {digest:#018x} != {want:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} cells drifted from the recorded step() behaviour:\n{}",
        moved.len(),
        fresh.len(),
        moved.join("\n")
    );
}

#[test]
fn optical_step_digests_match_the_recorded_ones() {
    check(&optical_cells(), OPTICAL);
}

#[test]
fn electrical_step_digests_match_the_recorded_ones() {
    check(&electrical_cells(), ELECTRICAL);
}

#[test]
fn electrical_axis_digests_match_the_recorded_ones() {
    check(&electrical_axis_cells(), ELECTRICAL_AXES);
}

#[test]
fn optical_axis_digests_match_the_recorded_ones() {
    let runs = optical_axis_runs();
    for (label, _, refused) in &runs {
        assert!(*refused > 0, "{label}: no NIC refused a broadcast");
    }
    for pair in runs.chunks(2) {
        assert_eq!(pair[0].1, pair[1].1, "{} != {}", pair[0].0, pair[1].0);
    }
    let cells: Vec<(String, u64)> = runs.into_iter().map(|(l, d, _)| (l, d)).collect();
    check(&cells, OPTICAL_AXES);
}

#[test]
#[ignore = "prints the digest tables in source form"]
fn print_digest_table() {
    for (name, cells) in [
        ("OPTICAL", optical_cells()),
        ("ELECTRICAL", electrical_cells()),
        ("ELECTRICAL_AXES", electrical_axis_cells()),
        ("OPTICAL_AXES", optical_axis_cells()),
    ] {
        println!("#[rustfmt::skip]\nconst {name}: &[(&str, u64)] = &[");
        for (label, digest) in cells {
            println!("    (\"{label}\", {digest:#018x}),");
        }
        println!("];");
    }
}

#[rustfmt::skip]
const OPTICAL: &[(&str, u64)] = &[
    ("Optical4/4x4/rotating-priority/fixed/f0/unicast", 0xcfe944b801a08b4a),
    ("Optical4/4x4/rotating-priority/fixed/f0/mixed", 0x0657f1e1020c7d77),
    ("Optical4/4x4/rotating-priority/fixed/f0.15/unicast", 0xaa3a3cddc9368f8e),
    ("Optical4/4x4/rotating-priority/fixed/f0.15/mixed", 0x50ef7c3ffec6f686),
    ("Optical4/4x4/rotating-priority/fixed/f0.3/unicast", 0xa45f94969b124477),
    ("Optical4/4x4/rotating-priority/fixed/f0.3/mixed", 0x0acaf779ad10c4fa),
    ("Optical4/4x4/rotating-priority/round-robin/f0/unicast", 0x137388d4ab85ada9),
    ("Optical4/4x4/rotating-priority/round-robin/f0/mixed", 0x6e5dfefdcdabf55b),
    ("Optical4/4x4/rotating-priority/round-robin/f0.15/unicast", 0xe13e72d790346382),
    ("Optical4/4x4/rotating-priority/round-robin/f0.15/mixed", 0x28b8ff8e37febba7),
    ("Optical4/4x4/rotating-priority/round-robin/f0.3/unicast", 0x03bcf267449956ed),
    ("Optical4/4x4/rotating-priority/round-robin/f0.3/mixed", 0x8846ad6facea2fbe),
    ("Optical4/4x4/fixed-order/fixed/f0/unicast", 0x3ae6877fe46ff92b),
    ("Optical4/4x4/fixed-order/fixed/f0/mixed", 0x01f03b28e4c14cfa),
    ("Optical4/4x4/fixed-order/fixed/f0.15/unicast", 0x69c3c297e9cc41f3),
    ("Optical4/4x4/fixed-order/fixed/f0.15/mixed", 0xbee61909f0cc7a06),
    ("Optical4/4x4/fixed-order/fixed/f0.3/unicast", 0x3c44013aa9fc4141),
    ("Optical4/4x4/fixed-order/fixed/f0.3/mixed", 0x66f255a2ed132385),
    ("Optical4/4x4/fixed-order/round-robin/f0/unicast", 0x97a0806fd716307a),
    ("Optical4/4x4/fixed-order/round-robin/f0/mixed", 0x7d89d453971647cf),
    ("Optical4/4x4/fixed-order/round-robin/f0.15/unicast", 0x30f42ed8f24931c2),
    ("Optical4/4x4/fixed-order/round-robin/f0.15/mixed", 0x273510b4d32ceeb1),
    ("Optical4/4x4/fixed-order/round-robin/f0.3/unicast", 0x81575891e48cf2ed),
    ("Optical4/4x4/fixed-order/round-robin/f0.3/mixed", 0xede55b96a40ada44),
    ("Optical4/4x4/oldest-first/fixed/f0/unicast", 0x8f07b0e1761eb2e8),
    ("Optical4/4x4/oldest-first/fixed/f0/mixed", 0x3d8292c27efea5b7),
    ("Optical4/4x4/oldest-first/fixed/f0.15/unicast", 0x99d15e66b6eca328),
    ("Optical4/4x4/oldest-first/fixed/f0.15/mixed", 0x4f484b2a4f192737),
    ("Optical4/4x4/oldest-first/fixed/f0.3/unicast", 0xd1c7371b4cf8998e),
    ("Optical4/4x4/oldest-first/fixed/f0.3/mixed", 0x4c5eb16d81927608),
    ("Optical4/4x4/oldest-first/round-robin/f0/unicast", 0xae55361b9819d388),
    ("Optical4/4x4/oldest-first/round-robin/f0/mixed", 0xc332b34b2bd0e346),
    ("Optical4/4x4/oldest-first/round-robin/f0.15/unicast", 0xbab22013e83b76e3),
    ("Optical4/4x4/oldest-first/round-robin/f0.15/mixed", 0x41d45c9179444cd0),
    ("Optical4/4x4/oldest-first/round-robin/f0.3/unicast", 0x98f22d8f042340ca),
    ("Optical4/4x4/oldest-first/round-robin/f0.3/mixed", 0xbbb188512da50dd2),
    ("Optical4/8x8/rotating-priority/fixed/f0/unicast", 0x9697b3a827bfcc90),
    ("Optical4/8x8/rotating-priority/fixed/f0/mixed", 0xec3f1f4e25e5d1cb),
    ("Optical4/8x8/rotating-priority/fixed/f0.15/unicast", 0x4095fe6707a00b54),
    ("Optical4/8x8/rotating-priority/fixed/f0.15/mixed", 0xaec1172843fd77de),
    ("Optical4/8x8/rotating-priority/fixed/f0.3/unicast", 0xd469056736d50f6f),
    ("Optical4/8x8/rotating-priority/fixed/f0.3/mixed", 0x41d96602312625ef),
    ("Optical4/8x8/rotating-priority/round-robin/f0/unicast", 0x9b747057855bf33b),
    ("Optical4/8x8/rotating-priority/round-robin/f0/mixed", 0x90a789221570ad92),
    ("Optical4/8x8/rotating-priority/round-robin/f0.15/unicast", 0x8c01ea254f908f80),
    ("Optical4/8x8/rotating-priority/round-robin/f0.15/mixed", 0x688e8f336035d61e),
    ("Optical4/8x8/rotating-priority/round-robin/f0.3/unicast", 0x526750548f272608),
    ("Optical4/8x8/rotating-priority/round-robin/f0.3/mixed", 0x9a6b7877e24568c7),
    ("Optical4/8x8/fixed-order/fixed/f0/unicast", 0x5ad9ef5ff9eed3cd),
    ("Optical4/8x8/fixed-order/fixed/f0/mixed", 0x32ad64059287e395),
    ("Optical4/8x8/fixed-order/fixed/f0.15/unicast", 0x825433c75e8bd406),
    ("Optical4/8x8/fixed-order/fixed/f0.15/mixed", 0x86cc52e04b78f7bd),
    ("Optical4/8x8/fixed-order/fixed/f0.3/unicast", 0xae4c9544e7f4a766),
    ("Optical4/8x8/fixed-order/fixed/f0.3/mixed", 0x65c82b58b8b6317f),
    ("Optical4/8x8/fixed-order/round-robin/f0/unicast", 0x117e950cac0b66e1),
    ("Optical4/8x8/fixed-order/round-robin/f0/mixed", 0x5d64ea17d52fb2c9),
    ("Optical4/8x8/fixed-order/round-robin/f0.15/unicast", 0x682285eac5a8d893),
    ("Optical4/8x8/fixed-order/round-robin/f0.15/mixed", 0x5dc780da87f529db),
    ("Optical4/8x8/fixed-order/round-robin/f0.3/unicast", 0x1f2cf96e86aedeef),
    ("Optical4/8x8/fixed-order/round-robin/f0.3/mixed", 0x724eed9daa086ec5),
    ("Optical4/8x8/oldest-first/fixed/f0/unicast", 0x256afd3cd5ff1f6e),
    ("Optical4/8x8/oldest-first/fixed/f0/mixed", 0x1ba4c258f077911e),
    ("Optical4/8x8/oldest-first/fixed/f0.15/unicast", 0x1fb52b8c02768a01),
    ("Optical4/8x8/oldest-first/fixed/f0.15/mixed", 0x184f66172ca556b9),
    ("Optical4/8x8/oldest-first/fixed/f0.3/unicast", 0xfc5f2d621f64be9a),
    ("Optical4/8x8/oldest-first/fixed/f0.3/mixed", 0xb81b66503513bb6a),
    ("Optical4/8x8/oldest-first/round-robin/f0/unicast", 0x2890f9b2206bbf97),
    ("Optical4/8x8/oldest-first/round-robin/f0/mixed", 0x628ca8fd570e00f8),
    ("Optical4/8x8/oldest-first/round-robin/f0.15/unicast", 0xfa75852568d7606c),
    ("Optical4/8x8/oldest-first/round-robin/f0.15/mixed", 0x536f7dfa68ebc042),
    ("Optical4/8x8/oldest-first/round-robin/f0.3/unicast", 0xe581ad35a798eeb3),
    ("Optical4/8x8/oldest-first/round-robin/f0.3/mixed", 0x154cb4ab9ea53665),
    ("Optical8/4x4/rotating-priority/fixed/f0/unicast", 0x00d802004d80c25c),
    ("Optical8/4x4/rotating-priority/fixed/f0/mixed", 0x039c13c79f9393d3),
    ("Optical8/4x4/rotating-priority/fixed/f0.15/unicast", 0x563e41caa1ebb7cc),
    ("Optical8/4x4/rotating-priority/fixed/f0.15/mixed", 0x8d2ec509c64ae68a),
    ("Optical8/4x4/rotating-priority/fixed/f0.3/unicast", 0x06e041a215c575b8),
    ("Optical8/4x4/rotating-priority/fixed/f0.3/mixed", 0xd8f70006f9744127),
    ("Optical8/4x4/rotating-priority/round-robin/f0/unicast", 0x3308667753b8a407),
    ("Optical8/4x4/rotating-priority/round-robin/f0/mixed", 0x2fae0ab5f9397089),
    ("Optical8/4x4/rotating-priority/round-robin/f0.15/unicast", 0xf2010363e4a46f5f),
    ("Optical8/4x4/rotating-priority/round-robin/f0.15/mixed", 0x0d2afb19ca1f9579),
    ("Optical8/4x4/rotating-priority/round-robin/f0.3/unicast", 0xeeba84b6b838ac75),
    ("Optical8/4x4/rotating-priority/round-robin/f0.3/mixed", 0xff706a0ee2b33d76),
    ("Optical8/4x4/fixed-order/fixed/f0/unicast", 0x5e290ecd2eccf764),
    ("Optical8/4x4/fixed-order/fixed/f0/mixed", 0x9ab69c8151eb2f88),
    ("Optical8/4x4/fixed-order/fixed/f0.15/unicast", 0x4d72e4a5fe80a20d),
    ("Optical8/4x4/fixed-order/fixed/f0.15/mixed", 0x92ba1c65c078dff5),
    ("Optical8/4x4/fixed-order/fixed/f0.3/unicast", 0x14ad3d4f1b4994e5),
    ("Optical8/4x4/fixed-order/fixed/f0.3/mixed", 0x24e7004128f8cb50),
    ("Optical8/4x4/fixed-order/round-robin/f0/unicast", 0xf14c61b2d7dd6c92),
    ("Optical8/4x4/fixed-order/round-robin/f0/mixed", 0x197471847f6542a8),
    ("Optical8/4x4/fixed-order/round-robin/f0.15/unicast", 0x20cba29029210096),
    ("Optical8/4x4/fixed-order/round-robin/f0.15/mixed", 0xeadbf062b658b958),
    ("Optical8/4x4/fixed-order/round-robin/f0.3/unicast", 0x9e3758da5a7c4ffd),
    ("Optical8/4x4/fixed-order/round-robin/f0.3/mixed", 0xb95d47fdb865c800),
    ("Optical8/4x4/oldest-first/fixed/f0/unicast", 0x0597e0ab59920520),
    ("Optical8/4x4/oldest-first/fixed/f0/mixed", 0x6d998398a2a9e47d),
    ("Optical8/4x4/oldest-first/fixed/f0.15/unicast", 0x62112d6b1703ad8b),
    ("Optical8/4x4/oldest-first/fixed/f0.15/mixed", 0x1faa1c53644615da),
    ("Optical8/4x4/oldest-first/fixed/f0.3/unicast", 0x3fd3704e6ccb7dab),
    ("Optical8/4x4/oldest-first/fixed/f0.3/mixed", 0x9aebd02155fc1a18),
    ("Optical8/4x4/oldest-first/round-robin/f0/unicast", 0xbf25b70c1b2d4dfa),
    ("Optical8/4x4/oldest-first/round-robin/f0/mixed", 0x19f85b7d642c98e5),
    ("Optical8/4x4/oldest-first/round-robin/f0.15/unicast", 0x81ecdad6994f9bc2),
    ("Optical8/4x4/oldest-first/round-robin/f0.15/mixed", 0x5a55e91bd9138879),
    ("Optical8/4x4/oldest-first/round-robin/f0.3/unicast", 0x699a833cd4226fd2),
    ("Optical8/4x4/oldest-first/round-robin/f0.3/mixed", 0x6ec67ddd864379b6),
    ("Optical8/8x8/rotating-priority/fixed/f0/unicast", 0x335dab7b68b41e73),
    ("Optical8/8x8/rotating-priority/fixed/f0/mixed", 0x65f7109c10d6a5c1),
    ("Optical8/8x8/rotating-priority/fixed/f0.15/unicast", 0x5f44467e854d0c1f),
    ("Optical8/8x8/rotating-priority/fixed/f0.15/mixed", 0xc003d0a7cb225b35),
    ("Optical8/8x8/rotating-priority/fixed/f0.3/unicast", 0x589fedd0c0ba38b7),
    ("Optical8/8x8/rotating-priority/fixed/f0.3/mixed", 0xfdd375162d70db9a),
    ("Optical8/8x8/rotating-priority/round-robin/f0/unicast", 0xd026dc8b53fdfa16),
    ("Optical8/8x8/rotating-priority/round-robin/f0/mixed", 0xb7165acb9c345012),
    ("Optical8/8x8/rotating-priority/round-robin/f0.15/unicast", 0xe71ce83025d56148),
    ("Optical8/8x8/rotating-priority/round-robin/f0.15/mixed", 0x7400003157bd1a3e),
    ("Optical8/8x8/rotating-priority/round-robin/f0.3/unicast", 0x4521afc75c267b40),
    ("Optical8/8x8/rotating-priority/round-robin/f0.3/mixed", 0x2871907962785243),
    ("Optical8/8x8/fixed-order/fixed/f0/unicast", 0xa733f134e5e0740f),
    ("Optical8/8x8/fixed-order/fixed/f0/mixed", 0x09c13292f5d74154),
    ("Optical8/8x8/fixed-order/fixed/f0.15/unicast", 0x23c6f32c261aa8e9),
    ("Optical8/8x8/fixed-order/fixed/f0.15/mixed", 0x6072abaa7fa2eede),
    ("Optical8/8x8/fixed-order/fixed/f0.3/unicast", 0x0a29451a44585441),
    ("Optical8/8x8/fixed-order/fixed/f0.3/mixed", 0x28052d335699df2f),
    ("Optical8/8x8/fixed-order/round-robin/f0/unicast", 0xa10cd0a9f60aed8a),
    ("Optical8/8x8/fixed-order/round-robin/f0/mixed", 0xe2f1b38f2892910a),
    ("Optical8/8x8/fixed-order/round-robin/f0.15/unicast", 0x965e31b6a0a37ec5),
    ("Optical8/8x8/fixed-order/round-robin/f0.15/mixed", 0x346c598b184d8ae4),
    ("Optical8/8x8/fixed-order/round-robin/f0.3/unicast", 0x0a5e08e60d2c1187),
    ("Optical8/8x8/fixed-order/round-robin/f0.3/mixed", 0x859157dc73517fa1),
    ("Optical8/8x8/oldest-first/fixed/f0/unicast", 0xe462b1e923ef278e),
    ("Optical8/8x8/oldest-first/fixed/f0/mixed", 0xbd6994e813d66d3c),
    ("Optical8/8x8/oldest-first/fixed/f0.15/unicast", 0xcd4198c18676dc2d),
    ("Optical8/8x8/oldest-first/fixed/f0.15/mixed", 0xe0cbe4c0964ba32b),
    ("Optical8/8x8/oldest-first/fixed/f0.3/unicast", 0x90a5fff25c0afd5a),
    ("Optical8/8x8/oldest-first/fixed/f0.3/mixed", 0xd8608f87e68f95ab),
    ("Optical8/8x8/oldest-first/round-robin/f0/unicast", 0x036f7c83bf487bfc),
    ("Optical8/8x8/oldest-first/round-robin/f0/mixed", 0xbfeae1933e95ac11),
    ("Optical8/8x8/oldest-first/round-robin/f0.15/unicast", 0xcab21c00bfece49b),
    ("Optical8/8x8/oldest-first/round-robin/f0.15/mixed", 0x46e311bc0e5ae133),
    ("Optical8/8x8/oldest-first/round-robin/f0.3/unicast", 0xdc18679308a6a142),
    ("Optical8/8x8/oldest-first/round-robin/f0.3/mixed", 0xc633cc6688009ae3),
    ("Optical4IB/4x4/rotating-priority/fixed/f0/unicast", 0x62c8d544cbc396c1),
    ("Optical4IB/4x4/rotating-priority/fixed/f0/mixed", 0x717a27e3bed4a716),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.15/unicast", 0xbeeaa1eb0ad05e93),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.15/mixed", 0x4faa576daa4281c4),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.3/unicast", 0xecfd1419c291d041),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.3/mixed", 0x39f0e47a09871fa6),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0/unicast", 0x9f0f33a3195d2e18),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0/mixed", 0x48688468bc095c26),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.15/unicast", 0x3f794fc902f9ce85),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.15/mixed", 0x6bd4b8f4e6a0d3c3),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.3/unicast", 0x94e4097fffd0a486),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.3/mixed", 0x15963f373b760bc8),
    ("Optical4IB/4x4/fixed-order/fixed/f0/unicast", 0x3eab5f2b0cf2de48),
    ("Optical4IB/4x4/fixed-order/fixed/f0/mixed", 0x502b43faf50d4df1),
    ("Optical4IB/4x4/fixed-order/fixed/f0.15/unicast", 0x527c8e513fa78845),
    ("Optical4IB/4x4/fixed-order/fixed/f0.15/mixed", 0x9738319a11360647),
    ("Optical4IB/4x4/fixed-order/fixed/f0.3/unicast", 0xa1b4e149f3749c21),
    ("Optical4IB/4x4/fixed-order/fixed/f0.3/mixed", 0x438f200d577a7a4d),
    ("Optical4IB/4x4/fixed-order/round-robin/f0/unicast", 0x6f910f9b5dcfd32f),
    ("Optical4IB/4x4/fixed-order/round-robin/f0/mixed", 0xd940b177a2bf15f1),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.15/unicast", 0xbc7d1fd07de5dca1),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.15/mixed", 0x32822c5ec4c9db68),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.3/unicast", 0x038a79f5912aefc5),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.3/mixed", 0xc3b1b9224b5e2a1f),
    ("Optical4IB/4x4/oldest-first/fixed/f0/unicast", 0x972c1af88fc62104),
    ("Optical4IB/4x4/oldest-first/fixed/f0/mixed", 0x82addf9bff73eefb),
    ("Optical4IB/4x4/oldest-first/fixed/f0.15/unicast", 0xcd2ec833e6352f26),
    ("Optical4IB/4x4/oldest-first/fixed/f0.15/mixed", 0xe21055ad13df55f5),
    ("Optical4IB/4x4/oldest-first/fixed/f0.3/unicast", 0x98af4bc4236670f8),
    ("Optical4IB/4x4/oldest-first/fixed/f0.3/mixed", 0x5428b40621c8237b),
    ("Optical4IB/4x4/oldest-first/round-robin/f0/unicast", 0xa1e755a67b445ba5),
    ("Optical4IB/4x4/oldest-first/round-robin/f0/mixed", 0x06425a97c897dbe1),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.15/unicast", 0xdc1b7df276d69c90),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.15/mixed", 0x97f776bb9a2d43b3),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.3/unicast", 0x709d670ae447db9d),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.3/mixed", 0x1754e06f5fcdc836),
    ("Optical4IB/8x8/rotating-priority/fixed/f0/unicast", 0x277c2a65e779b896),
    ("Optical4IB/8x8/rotating-priority/fixed/f0/mixed", 0xe03fe0b5f143b336),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.15/unicast", 0x44e5c426efd7f7a7),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.15/mixed", 0x50165a3bada63be7),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.3/unicast", 0x34ac992ae07eeb56),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.3/mixed", 0x8bd0cfc5c4b2927d),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0/unicast", 0xc78e00675d2b6a88),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0/mixed", 0x18d137cbf6c8d69a),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.15/unicast", 0x331f97eaaf006de8),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.15/mixed", 0xbfe56cdb807562ee),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.3/unicast", 0x4dc53cd079bef1bc),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.3/mixed", 0x049742d86dc1aa06),
    ("Optical4IB/8x8/fixed-order/fixed/f0/unicast", 0x026169cc526242cd),
    ("Optical4IB/8x8/fixed-order/fixed/f0/mixed", 0xe4b53f80bcccf533),
    ("Optical4IB/8x8/fixed-order/fixed/f0.15/unicast", 0xacc84dba38c1c406),
    ("Optical4IB/8x8/fixed-order/fixed/f0.15/mixed", 0x89c40565900e16e7),
    ("Optical4IB/8x8/fixed-order/fixed/f0.3/unicast", 0xdd8070dbf64d54a4),
    ("Optical4IB/8x8/fixed-order/fixed/f0.3/mixed", 0x729bcf1582f2db7d),
    ("Optical4IB/8x8/fixed-order/round-robin/f0/unicast", 0xc38bfb3205c26d9c),
    ("Optical4IB/8x8/fixed-order/round-robin/f0/mixed", 0xc503d2d0c5ba5370),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.15/unicast", 0x56875a4d09d3c03f),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.15/mixed", 0xd913066228a5e5df),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.3/unicast", 0xaaa64ac497d8cb0b),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.3/mixed", 0xfb88a4ec7f092e24),
    ("Optical4IB/8x8/oldest-first/fixed/f0/unicast", 0xf46bf56b18c8725f),
    ("Optical4IB/8x8/oldest-first/fixed/f0/mixed", 0x106692998f8d9fe5),
    ("Optical4IB/8x8/oldest-first/fixed/f0.15/unicast", 0xb25872dc87188a90),
    ("Optical4IB/8x8/oldest-first/fixed/f0.15/mixed", 0xefa3ecb4dcd704c6),
    ("Optical4IB/8x8/oldest-first/fixed/f0.3/unicast", 0xbe16b4479127f212),
    ("Optical4IB/8x8/oldest-first/fixed/f0.3/mixed", 0xea994373c878973c),
    ("Optical4IB/8x8/oldest-first/round-robin/f0/unicast", 0xd32a05f0cb5431d7),
    ("Optical4IB/8x8/oldest-first/round-robin/f0/mixed", 0x2031227017c98770),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.15/unicast", 0x7718cea60b64d8d6),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.15/mixed", 0xbf54d40c9fc40400),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.3/unicast", 0x2085eac51d3428a8),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.3/mixed", 0x784c80dde596f3c9),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0/unicast", 0x331423bb9466ed25),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0/mixed", 0x416c6f4aeccb7b9d),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.15/unicast", 0xf7cf3869111587f9),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.15/mixed", 0x27e12ab20ce00a6c),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.3/unicast", 0xb0c40ce1ac805e63),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.3/mixed", 0xf98d487514adcd05),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0/unicast", 0xb1b0b4ebbe715c20),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0/mixed", 0x333377c7c5c2e177),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.15/unicast", 0x362dcb8353032453),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.15/mixed", 0xfba0ecd187c0b592),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.3/unicast", 0xa1869a2c1c065a89),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.3/mixed", 0xa534574f7cb8a6ad),
    ("Optical4SP50/4x4/fixed-order/fixed/f0/unicast", 0xc563843e3f4538de),
    ("Optical4SP50/4x4/fixed-order/fixed/f0/mixed", 0x3f8b8acbfc45e4ea),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.15/unicast", 0x77fcaa98c9c14436),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.15/mixed", 0x9de70dbf9357673b),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.3/unicast", 0xd0f8b32b0fefaf1b),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.3/mixed", 0xe5c07d9b6f1707d1),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0/unicast", 0x7e7697a950af4ea3),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0/mixed", 0xcb930fa914aa5d75),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.15/unicast", 0xd59ce556afa63bc8),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.15/mixed", 0xeeaf2851c64c2121),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.3/unicast", 0x4c6dfc262c5c5447),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.3/mixed", 0x65adc8ac88c63241),
    ("Optical4SP50/4x4/oldest-first/fixed/f0/unicast", 0xcd3bfce1f58d54af),
    ("Optical4SP50/4x4/oldest-first/fixed/f0/mixed", 0xa9d08326c092705b),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.15/unicast", 0xee85baac99ea1e17),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.15/mixed", 0x91cd4cbd781f5da3),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.3/unicast", 0x71f119471a2afe83),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.3/mixed", 0x2cc496e1b2fff85d),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0/unicast", 0xa67d841b7d0ed70e),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0/mixed", 0xaa4bc2f6fd660b2a),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.15/unicast", 0x2c5d10737b191e66),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.15/mixed", 0x77dba23a46748035),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.3/unicast", 0xb028ea529bdcadc1),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.3/mixed", 0xc22d94ae742fe6a4),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0/unicast", 0x7dc5ce36e72490c2),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0/mixed", 0x4f011715f462af91),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.15/unicast", 0xe7c590af63be305c),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.15/mixed", 0xdbcb6e0382a5097d),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.3/unicast", 0xd8b36df83d12667b),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.3/mixed", 0x1cff521937b95a78),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0/unicast", 0x7e260817b50dc5cb),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0/mixed", 0x707b82c7fd99ab6a),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.15/unicast", 0x3522a270a9f42919),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.15/mixed", 0x3e722c2bbbdb8747),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.3/unicast", 0x46f8c507b1e66b88),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.3/mixed", 0xa285af36719effc4),
    ("Optical4SP50/8x8/fixed-order/fixed/f0/unicast", 0x53f0cd218e608c2d),
    ("Optical4SP50/8x8/fixed-order/fixed/f0/mixed", 0x33c9f6ac9b670db2),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.15/unicast", 0xb2be8f551ffa924d),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.15/mixed", 0xb6965077c19246d0),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.3/unicast", 0x3157bf7a7f525f41),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.3/mixed", 0xa22e8d237004659e),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0/unicast", 0x92ed7e1bd002a438),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0/mixed", 0x1cd3791b47670c9c),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.15/unicast", 0x386200aef4c387d7),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.15/mixed", 0x0582422442de0ff2),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.3/unicast", 0x6ffc281ff2aa94fc),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.3/mixed", 0x9767331848728761),
    ("Optical4SP50/8x8/oldest-first/fixed/f0/unicast", 0x61ab18c8dcf0664a),
    ("Optical4SP50/8x8/oldest-first/fixed/f0/mixed", 0xe127e5f69465aa57),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.15/unicast", 0x8ea932d089aa198d),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.15/mixed", 0x15fdf54f189b355b),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.3/unicast", 0x36a02d20b9ee15c7),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.3/mixed", 0x60083c976a921caf),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0/unicast", 0xd888b6476315eee8),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0/mixed", 0x3038f78778adc362),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.15/unicast", 0x39add18fd0a68a64),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.15/mixed", 0xa49ce5e90951d508),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.3/unicast", 0xb8595e8003bbfdf8),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.3/mixed", 0x6c06e0c137462cab),
];

#[rustfmt::skip]
const ELECTRICAL: &[(&str, u64)] = &[
    ("Electrical3/4x4/f0/unicast", 0xf2e55d6659ffc11a),
    ("Electrical3/4x4/f0/mixed", 0x559d1713cb32e60d),
    ("Electrical3/4x4/f0.15/unicast", 0x1a8d526329846ab6),
    ("Electrical3/4x4/f0.15/mixed", 0x709c05b3f9b0a3ca),
    ("Electrical3/4x4/f0.3/unicast", 0x4db0a7aef2a4588a),
    ("Electrical3/4x4/f0.3/mixed", 0x76f31497ae1a74a2),
    ("Electrical3/8x8/f0/unicast", 0xe0b2c28897364c2f),
    ("Electrical3/8x8/f0/mixed", 0x47a5b473eed2e6e0),
    ("Electrical3/8x8/f0.15/unicast", 0x0e2cdb905d979d59),
    ("Electrical3/8x8/f0.15/mixed", 0x05226eeba5bd92fd),
    ("Electrical3/8x8/f0.3/unicast", 0x39312105704282cd),
    ("Electrical3/8x8/f0.3/mixed", 0xeb15ff9672fc9130),
    ("Electrical2/4x4/f0/unicast", 0x9630c955b47ae706),
    ("Electrical2/4x4/f0/mixed", 0x4a39eba0faabe0de),
    ("Electrical2/4x4/f0.15/unicast", 0x6d6b6de8f4778c90),
    ("Electrical2/4x4/f0.15/mixed", 0x3a70552d90f41eb2),
    ("Electrical2/4x4/f0.3/unicast", 0x95d46e62d8ac32c6),
    ("Electrical2/4x4/f0.3/mixed", 0xb9ee79c2f7bd7538),
    ("Electrical2/8x8/f0/unicast", 0xf3dd33335b1ed894),
    ("Electrical2/8x8/f0/mixed", 0x43acbf4a693fd4d6),
    ("Electrical2/8x8/f0.15/unicast", 0x78e543a102c4da9d),
    ("Electrical2/8x8/f0.15/mixed", 0x59d6d88b075c631e),
    ("Electrical2/8x8/f0.3/unicast", 0xe5fec239261cb7da),
    ("Electrical2/8x8/f0.3/mixed", 0x92930d1bab53fd1a),
];

#[rustfmt::skip]
const ELECTRICAL_AXES: &[(&str, u64)] = &[
    ("Electrical3/vcs2/f0/unicast", 0x0f2f8394e6bda03b),
    ("Electrical3/vcs2/f0/mixed", 0x9f325319fcc96afc),
    ("Electrical3/vcs2/f0.3/unicast", 0x6e9b87f3af81d3bc),
    ("Electrical3/vcs2/f0.3/mixed", 0xe624d915a036e5b1),
    ("Electrical3/vcs16/f0/unicast", 0x32e8ab72b01667cb),
    ("Electrical3/vcs16/f0/mixed", 0xe0b5c5019f1bc961),
    ("Electrical3/vcs16/f0.3/unicast", 0x4ba0140ce26e4475),
    ("Electrical3/vcs16/f0.3/mixed", 0x718d17951c083d3f),
    ("Electrical3/islip1/f0/unicast", 0x86f9b96945e1f6c4),
    ("Electrical3/islip1/f0/mixed", 0x1c7f319ac9f6e161),
    ("Electrical3/islip1/f0.3/unicast", 0x7d661b94f403f045),
    ("Electrical3/islip1/f0.3/mixed", 0xe6130a9f359face6),
    ("Electrical3/speedup1/f0/unicast", 0x562405654665bf52),
    ("Electrical3/speedup1/f0/mixed", 0x6604839fc2c582de),
    ("Electrical3/speedup1/f0.3/unicast", 0x4045651a4efa773d),
    ("Electrical3/speedup1/f0.3/mixed", 0x787368fe2dab8b25),
    ("Electrical3/saturated/f0/unicast", 0x53ca58ad042e6c19),
    ("Electrical3/saturated/f0/mixed", 0x4b405efefd3e2ef3),
    ("Electrical3/saturated/f0.3/unicast", 0x9d33f06ee02aa2a3),
    ("Electrical3/saturated/f0.3/mixed", 0x5ba7ade5391c0efa),
    ("Electrical3/8x4/f0/unicast", 0xb5f1cf0bc8015aa9),
    ("Electrical3/8x4/f0/mixed", 0xc6df921de539d430),
    ("Electrical3/8x4/f0.3/unicast", 0x7529d81cf77f8479),
    ("Electrical3/8x4/f0.3/mixed", 0xb98d8be1a70bddcf),
];

#[rustfmt::skip]
const OPTICAL_AXES: &[(&str, u64)] = &[
    ("Optical4/storm/8x8/f0/broadcast", 0x69d1873bf55b0889),
    ("Optical4/storm/8x8/f0/all-but-source", 0x69d1873bf55b0889),
    ("Optical4/storm/8x8/f0.3/broadcast", 0x2902020a1d89b7ae),
    ("Optical4/storm/8x8/f0.3/all-but-source", 0x2902020a1d89b7ae),
    ("Optical4/storm/8x4/f0/broadcast", 0xa73ea03c3a127215),
    ("Optical4/storm/8x4/f0/all-but-source", 0xa73ea03c3a127215),
    ("Optical4/storm/8x4/f0.3/broadcast", 0xdbf9e01d250687a2),
    ("Optical4/storm/8x4/f0.3/all-but-source", 0xdbf9e01d250687a2),
    ("Optical4/storm/5x3/f0/broadcast", 0x1f998ea911912923),
    ("Optical4/storm/5x3/f0/all-but-source", 0x1f998ea911912923),
    ("Optical4/storm/5x3/f0.3/broadcast", 0x207e7ad55b89c085),
    ("Optical4/storm/5x3/f0.3/all-but-source", 0x207e7ad55b89c085),
    ("Optical4/storm/16x16/f0/broadcast", 0x8434554df3776318),
    ("Optical4/storm/16x16/f0/all-but-source", 0x8434554df3776318),
    ("Optical4/storm/16x16/f0.3/broadcast", 0x550c197798ccb796),
    ("Optical4/storm/16x16/f0.3/all-but-source", 0x550c197798ccb796),
];
