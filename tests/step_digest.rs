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
//! single emitted event, RNG draw or energy increment. If this test
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
    ("Optical4/4x4/rotating-priority/fixed/f0/unicast", 0x5ca0ad03f5468436),
    ("Optical4/4x4/rotating-priority/fixed/f0/mixed", 0x557b9f8e1ba7bc7d),
    ("Optical4/4x4/rotating-priority/fixed/f0.15/unicast", 0x4df7e1e90c07e746),
    ("Optical4/4x4/rotating-priority/fixed/f0.15/mixed", 0xaa987eeedb9092a3),
    ("Optical4/4x4/rotating-priority/fixed/f0.3/unicast", 0x6e0f1415079c03ba),
    ("Optical4/4x4/rotating-priority/fixed/f0.3/mixed", 0xb7dc4270ca6594cb),
    ("Optical4/4x4/rotating-priority/round-robin/f0/unicast", 0xba4324737aeec241),
    ("Optical4/4x4/rotating-priority/round-robin/f0/mixed", 0x5952009612afd317),
    ("Optical4/4x4/rotating-priority/round-robin/f0.15/unicast", 0xa0fe711e3c6c553c),
    ("Optical4/4x4/rotating-priority/round-robin/f0.15/mixed", 0x5f2e5c3c8a2e6197),
    ("Optical4/4x4/rotating-priority/round-robin/f0.3/unicast", 0x3740f3ee1c3e3985),
    ("Optical4/4x4/rotating-priority/round-robin/f0.3/mixed", 0x7d24afe7f029d124),
    ("Optical4/4x4/fixed-order/fixed/f0/unicast", 0xc3fa283e2c8f9626),
    ("Optical4/4x4/fixed-order/fixed/f0/mixed", 0xf35a64b58855713b),
    ("Optical4/4x4/fixed-order/fixed/f0.15/unicast", 0x1e61945cc5b834e8),
    ("Optical4/4x4/fixed-order/fixed/f0.15/mixed", 0x550dbfd336b82887),
    ("Optical4/4x4/fixed-order/fixed/f0.3/unicast", 0x313ebce1c4ed0d48),
    ("Optical4/4x4/fixed-order/fixed/f0.3/mixed", 0xfe21536803c25afd),
    ("Optical4/4x4/fixed-order/round-robin/f0/unicast", 0xb91df489dcb96a00),
    ("Optical4/4x4/fixed-order/round-robin/f0/mixed", 0x4ac59c8258866d8a),
    ("Optical4/4x4/fixed-order/round-robin/f0.15/unicast", 0x721a1a80c252f18c),
    ("Optical4/4x4/fixed-order/round-robin/f0.15/mixed", 0x47ffb3a558f8b7b1),
    ("Optical4/4x4/fixed-order/round-robin/f0.3/unicast", 0x95c64ec932f3376e),
    ("Optical4/4x4/fixed-order/round-robin/f0.3/mixed", 0x4572021f8fa4f8fb),
    ("Optical4/4x4/oldest-first/fixed/f0/unicast", 0x00f9bf1415c587de),
    ("Optical4/4x4/oldest-first/fixed/f0/mixed", 0x5d61575be403c564),
    ("Optical4/4x4/oldest-first/fixed/f0.15/unicast", 0xb25cecb2750d8de3),
    ("Optical4/4x4/oldest-first/fixed/f0.15/mixed", 0x9e57c68e92fd4ab1),
    ("Optical4/4x4/oldest-first/fixed/f0.3/unicast", 0x8aff21c0c342f1ca),
    ("Optical4/4x4/oldest-first/fixed/f0.3/mixed", 0xed70dad7a93a88e6),
    ("Optical4/4x4/oldest-first/round-robin/f0/unicast", 0x25531b9c08100f00),
    ("Optical4/4x4/oldest-first/round-robin/f0/mixed", 0x16196a963660360e),
    ("Optical4/4x4/oldest-first/round-robin/f0.15/unicast", 0xd26d13f062e4e7f4),
    ("Optical4/4x4/oldest-first/round-robin/f0.15/mixed", 0xcd0bf4657b18cfc9),
    ("Optical4/4x4/oldest-first/round-robin/f0.3/unicast", 0x2567a08598060673),
    ("Optical4/4x4/oldest-first/round-robin/f0.3/mixed", 0x546479ac50a03df8),
    ("Optical4/8x8/rotating-priority/fixed/f0/unicast", 0x85631f3c7cb55d50),
    ("Optical4/8x8/rotating-priority/fixed/f0/mixed", 0x64d2651af04afb52),
    ("Optical4/8x8/rotating-priority/fixed/f0.15/unicast", 0xa74d4569cbd9e5f3),
    ("Optical4/8x8/rotating-priority/fixed/f0.15/mixed", 0x8c8c6dbc405c970b),
    ("Optical4/8x8/rotating-priority/fixed/f0.3/unicast", 0x16b87cdefd916f91),
    ("Optical4/8x8/rotating-priority/fixed/f0.3/mixed", 0x8aa913ff97c43d4a),
    ("Optical4/8x8/rotating-priority/round-robin/f0/unicast", 0x0b9f3a583b4207ae),
    ("Optical4/8x8/rotating-priority/round-robin/f0/mixed", 0x82f0fbb1b3d892ea),
    ("Optical4/8x8/rotating-priority/round-robin/f0.15/unicast", 0x78d43fad9558d379),
    ("Optical4/8x8/rotating-priority/round-robin/f0.15/mixed", 0x7661f68c867c7d04),
    ("Optical4/8x8/rotating-priority/round-robin/f0.3/unicast", 0x466ac93ace8cfbfd),
    ("Optical4/8x8/rotating-priority/round-robin/f0.3/mixed", 0xe51caab6fb2f4489),
    ("Optical4/8x8/fixed-order/fixed/f0/unicast", 0x03ba5e52c8fda3fa),
    ("Optical4/8x8/fixed-order/fixed/f0/mixed", 0x14ae81a78f070dde),
    ("Optical4/8x8/fixed-order/fixed/f0.15/unicast", 0x41ba64ff0686a9af),
    ("Optical4/8x8/fixed-order/fixed/f0.15/mixed", 0x25c55fc658f99ca7),
    ("Optical4/8x8/fixed-order/fixed/f0.3/unicast", 0x3a54974825003999),
    ("Optical4/8x8/fixed-order/fixed/f0.3/mixed", 0xc395b47ec61956a7),
    ("Optical4/8x8/fixed-order/round-robin/f0/unicast", 0xcbdcecc98abb12e0),
    ("Optical4/8x8/fixed-order/round-robin/f0/mixed", 0x5a4462311d4da838),
    ("Optical4/8x8/fixed-order/round-robin/f0.15/unicast", 0x080b334ff83e686a),
    ("Optical4/8x8/fixed-order/round-robin/f0.15/mixed", 0xc638813d5b4b9224),
    ("Optical4/8x8/fixed-order/round-robin/f0.3/unicast", 0xba9b2f624265efee),
    ("Optical4/8x8/fixed-order/round-robin/f0.3/mixed", 0x04c67b7bc26179ae),
    ("Optical4/8x8/oldest-first/fixed/f0/unicast", 0x11407949ae1895a0),
    ("Optical4/8x8/oldest-first/fixed/f0/mixed", 0x6ea678c0488bba90),
    ("Optical4/8x8/oldest-first/fixed/f0.15/unicast", 0x146a7be3188b9a62),
    ("Optical4/8x8/oldest-first/fixed/f0.15/mixed", 0x24131c201434b511),
    ("Optical4/8x8/oldest-first/fixed/f0.3/unicast", 0xa31f78a5c3aa95d7),
    ("Optical4/8x8/oldest-first/fixed/f0.3/mixed", 0x1766aa8357a127e1),
    ("Optical4/8x8/oldest-first/round-robin/f0/unicast", 0x0524d001bea00f5c),
    ("Optical4/8x8/oldest-first/round-robin/f0/mixed", 0x10cf6237f342934a),
    ("Optical4/8x8/oldest-first/round-robin/f0.15/unicast", 0xe01f515f768ef71a),
    ("Optical4/8x8/oldest-first/round-robin/f0.15/mixed", 0x6ef1cc1266e07286),
    ("Optical4/8x8/oldest-first/round-robin/f0.3/unicast", 0x1c0f49dc74c8a646),
    ("Optical4/8x8/oldest-first/round-robin/f0.3/mixed", 0xc3f39cb99fbafc1c),
    ("Optical8/4x4/rotating-priority/fixed/f0/unicast", 0x44d61f22bfd523ea),
    ("Optical8/4x4/rotating-priority/fixed/f0/mixed", 0x7143ef1ef1d1d5e2),
    ("Optical8/4x4/rotating-priority/fixed/f0.15/unicast", 0xc8af9681e6815bc9),
    ("Optical8/4x4/rotating-priority/fixed/f0.15/mixed", 0x288edb88dfa7116d),
    ("Optical8/4x4/rotating-priority/fixed/f0.3/unicast", 0x54b3f3941c8d7c10),
    ("Optical8/4x4/rotating-priority/fixed/f0.3/mixed", 0x05ec3bb218bc411f),
    ("Optical8/4x4/rotating-priority/round-robin/f0/unicast", 0xe6f644dcdbe6d75e),
    ("Optical8/4x4/rotating-priority/round-robin/f0/mixed", 0x65e91b5a680afbdb),
    ("Optical8/4x4/rotating-priority/round-robin/f0.15/unicast", 0x9a35d095dcbf21a5),
    ("Optical8/4x4/rotating-priority/round-robin/f0.15/mixed", 0x05868a8da2b15767),
    ("Optical8/4x4/rotating-priority/round-robin/f0.3/unicast", 0x122b34ca84a89bf9),
    ("Optical8/4x4/rotating-priority/round-robin/f0.3/mixed", 0x9b380c031cc38600),
    ("Optical8/4x4/fixed-order/fixed/f0/unicast", 0xab8c8d0aa627c461),
    ("Optical8/4x4/fixed-order/fixed/f0/mixed", 0x89db383c2b9e750a),
    ("Optical8/4x4/fixed-order/fixed/f0.15/unicast", 0x920bac11ff8cf99d),
    ("Optical8/4x4/fixed-order/fixed/f0.15/mixed", 0x884c0e568fdc8ae8),
    ("Optical8/4x4/fixed-order/fixed/f0.3/unicast", 0xbbe1dc968fbe1000),
    ("Optical8/4x4/fixed-order/fixed/f0.3/mixed", 0x1ba81fccd717d62a),
    ("Optical8/4x4/fixed-order/round-robin/f0/unicast", 0x20a7a983ca561037),
    ("Optical8/4x4/fixed-order/round-robin/f0/mixed", 0x251e4c525d07f265),
    ("Optical8/4x4/fixed-order/round-robin/f0.15/unicast", 0xee794ea16083d764),
    ("Optical8/4x4/fixed-order/round-robin/f0.15/mixed", 0xcd70c5a1bc2245ee),
    ("Optical8/4x4/fixed-order/round-robin/f0.3/unicast", 0x3de5c43e881b75ae),
    ("Optical8/4x4/fixed-order/round-robin/f0.3/mixed", 0xa7d6c08eea025ad3),
    ("Optical8/4x4/oldest-first/fixed/f0/unicast", 0x19854805b3d3cced),
    ("Optical8/4x4/oldest-first/fixed/f0/mixed", 0xd0cbbcd8599bb1eb),
    ("Optical8/4x4/oldest-first/fixed/f0.15/unicast", 0x35e8873a4ff4951a),
    ("Optical8/4x4/oldest-first/fixed/f0.15/mixed", 0x584d7d693bb285f1),
    ("Optical8/4x4/oldest-first/fixed/f0.3/unicast", 0x8e26eb2ef29a9eac),
    ("Optical8/4x4/oldest-first/fixed/f0.3/mixed", 0x0e0d14eaeac9aee0),
    ("Optical8/4x4/oldest-first/round-robin/f0/unicast", 0xce0869ba31aac486),
    ("Optical8/4x4/oldest-first/round-robin/f0/mixed", 0xe88c4f4f0ae64112),
    ("Optical8/4x4/oldest-first/round-robin/f0.15/unicast", 0xf50185853ccf2fb2),
    ("Optical8/4x4/oldest-first/round-robin/f0.15/mixed", 0x794df98dda1c2ae7),
    ("Optical8/4x4/oldest-first/round-robin/f0.3/unicast", 0xea3c9db4996e6d2b),
    ("Optical8/4x4/oldest-first/round-robin/f0.3/mixed", 0x6740e9178c350ca4),
    ("Optical8/8x8/rotating-priority/fixed/f0/unicast", 0x7d96336ca5c5059a),
    ("Optical8/8x8/rotating-priority/fixed/f0/mixed", 0x0e48958f9a0b8b42),
    ("Optical8/8x8/rotating-priority/fixed/f0.15/unicast", 0x916be656a49af6d7),
    ("Optical8/8x8/rotating-priority/fixed/f0.15/mixed", 0xf7837d6dabe194a8),
    ("Optical8/8x8/rotating-priority/fixed/f0.3/unicast", 0x797cba10b0e982bb),
    ("Optical8/8x8/rotating-priority/fixed/f0.3/mixed", 0xa46cfffe11298906),
    ("Optical8/8x8/rotating-priority/round-robin/f0/unicast", 0x5f5e2adc1936b99d),
    ("Optical8/8x8/rotating-priority/round-robin/f0/mixed", 0x4cfa967305806dcd),
    ("Optical8/8x8/rotating-priority/round-robin/f0.15/unicast", 0xcbf8f0389f473970),
    ("Optical8/8x8/rotating-priority/round-robin/f0.15/mixed", 0x78584d4ae07c3101),
    ("Optical8/8x8/rotating-priority/round-robin/f0.3/unicast", 0x16a1db22c0723385),
    ("Optical8/8x8/rotating-priority/round-robin/f0.3/mixed", 0xcc5d0e802cb368b5),
    ("Optical8/8x8/fixed-order/fixed/f0/unicast", 0x516eaf2812d5e9bd),
    ("Optical8/8x8/fixed-order/fixed/f0/mixed", 0xccb2aa8421fc9f14),
    ("Optical8/8x8/fixed-order/fixed/f0.15/unicast", 0x125cb787c92ad9ef),
    ("Optical8/8x8/fixed-order/fixed/f0.15/mixed", 0xb2c3dc65263f6f75),
    ("Optical8/8x8/fixed-order/fixed/f0.3/unicast", 0x35a2c88eed7b9429),
    ("Optical8/8x8/fixed-order/fixed/f0.3/mixed", 0x09b0ea43cb03f957),
    ("Optical8/8x8/fixed-order/round-robin/f0/unicast", 0x1b65a02ace0ed815),
    ("Optical8/8x8/fixed-order/round-robin/f0/mixed", 0xe6bb24d20365762c),
    ("Optical8/8x8/fixed-order/round-robin/f0.15/unicast", 0xfa02a2f960e846f3),
    ("Optical8/8x8/fixed-order/round-robin/f0.15/mixed", 0xc8e4d5667aa7648a),
    ("Optical8/8x8/fixed-order/round-robin/f0.3/unicast", 0x38b2fe1b1e88fec3),
    ("Optical8/8x8/fixed-order/round-robin/f0.3/mixed", 0x1685fa5b624adc64),
    ("Optical8/8x8/oldest-first/fixed/f0/unicast", 0xcaf9f3a7a2d8891b),
    ("Optical8/8x8/oldest-first/fixed/f0/mixed", 0xf7ee8f700a6ef71b),
    ("Optical8/8x8/oldest-first/fixed/f0.15/unicast", 0x1f5934bfefc0bdc3),
    ("Optical8/8x8/oldest-first/fixed/f0.15/mixed", 0x6a9a971188909832),
    ("Optical8/8x8/oldest-first/fixed/f0.3/unicast", 0xf9a97476710fad52),
    ("Optical8/8x8/oldest-first/fixed/f0.3/mixed", 0x68fe502a8e6f5330),
    ("Optical8/8x8/oldest-first/round-robin/f0/unicast", 0x6de1def54d4d6d59),
    ("Optical8/8x8/oldest-first/round-robin/f0/mixed", 0x1ce61758acd1e4e0),
    ("Optical8/8x8/oldest-first/round-robin/f0.15/unicast", 0x34c3bf72661d7b92),
    ("Optical8/8x8/oldest-first/round-robin/f0.15/mixed", 0x390be6ec181e1bfb),
    ("Optical8/8x8/oldest-first/round-robin/f0.3/unicast", 0xc14cf8aee8b6138f),
    ("Optical8/8x8/oldest-first/round-robin/f0.3/mixed", 0xc75bde1f15cd46d6),
    ("Optical4IB/4x4/rotating-priority/fixed/f0/unicast", 0x630274e11d66a114),
    ("Optical4IB/4x4/rotating-priority/fixed/f0/mixed", 0x4b3b3b45c584e5bf),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.15/unicast", 0xd777cb7fe9cc7a39),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.15/mixed", 0x739ccd0014dcf262),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.3/unicast", 0xa9134097407ffe9b),
    ("Optical4IB/4x4/rotating-priority/fixed/f0.3/mixed", 0x4d0b5190ca09c546),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0/unicast", 0xb6e5b6c8376d4dcb),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0/mixed", 0x5285068de7eb8255),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.15/unicast", 0x64404308535fa33d),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.15/mixed", 0x690a6b7aa881318b),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.3/unicast", 0x2675c6955b251a82),
    ("Optical4IB/4x4/rotating-priority/round-robin/f0.3/mixed", 0xe95d1c36b4f3c53e),
    ("Optical4IB/4x4/fixed-order/fixed/f0/unicast", 0x9b08948659e310c6),
    ("Optical4IB/4x4/fixed-order/fixed/f0/mixed", 0xeae5adfb59df0cea),
    ("Optical4IB/4x4/fixed-order/fixed/f0.15/unicast", 0x794ea8f8fd610364),
    ("Optical4IB/4x4/fixed-order/fixed/f0.15/mixed", 0x6c32e2111fd06c09),
    ("Optical4IB/4x4/fixed-order/fixed/f0.3/unicast", 0xb5589e1596c88d26),
    ("Optical4IB/4x4/fixed-order/fixed/f0.3/mixed", 0x7e7e56c8a7a50264),
    ("Optical4IB/4x4/fixed-order/round-robin/f0/unicast", 0xaffd51eeb7d6232a),
    ("Optical4IB/4x4/fixed-order/round-robin/f0/mixed", 0xf51451304a18bd12),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.15/unicast", 0x5fe4cfc4a29c746f),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.15/mixed", 0x5d51cd53dde312df),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.3/unicast", 0x9ef5ea445bd9e6d7),
    ("Optical4IB/4x4/fixed-order/round-robin/f0.3/mixed", 0xa4039606ee1def2f),
    ("Optical4IB/4x4/oldest-first/fixed/f0/unicast", 0x8778de7bb1069146),
    ("Optical4IB/4x4/oldest-first/fixed/f0/mixed", 0x5094681f89efe571),
    ("Optical4IB/4x4/oldest-first/fixed/f0.15/unicast", 0x3f62fad3ab7a0d79),
    ("Optical4IB/4x4/oldest-first/fixed/f0.15/mixed", 0x7e089e0d6df77320),
    ("Optical4IB/4x4/oldest-first/fixed/f0.3/unicast", 0x2ddbad88b430ae13),
    ("Optical4IB/4x4/oldest-first/fixed/f0.3/mixed", 0xea61fa0deea0e793),
    ("Optical4IB/4x4/oldest-first/round-robin/f0/unicast", 0x5c190221318b2e28),
    ("Optical4IB/4x4/oldest-first/round-robin/f0/mixed", 0xc702840fab75e27a),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.15/unicast", 0xcd87f92ce135eded),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.15/mixed", 0xd68b759b24196d37),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.3/unicast", 0x35e586df0fb91c72),
    ("Optical4IB/4x4/oldest-first/round-robin/f0.3/mixed", 0xdfad5f3f639ed96e),
    ("Optical4IB/8x8/rotating-priority/fixed/f0/unicast", 0x87c6a68b046ba1ab),
    ("Optical4IB/8x8/rotating-priority/fixed/f0/mixed", 0xf216921449805dd9),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.15/unicast", 0x06c29d3cb40bfc24),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.15/mixed", 0x118a5539e4d6ab1e),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.3/unicast", 0x97a12817e65e1cf8),
    ("Optical4IB/8x8/rotating-priority/fixed/f0.3/mixed", 0x827be57f1fef7a88),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0/unicast", 0xe8f07ca977fb5a33),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0/mixed", 0x512eb546a09ca2aa),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.15/unicast", 0x01ca5391a7ce0344),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.15/mixed", 0x0e7ec3efff7ad515),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.3/unicast", 0x648e53465d1a44ca),
    ("Optical4IB/8x8/rotating-priority/round-robin/f0.3/mixed", 0xbbd71a2c5e66b1cd),
    ("Optical4IB/8x8/fixed-order/fixed/f0/unicast", 0xb639b479af4e09a9),
    ("Optical4IB/8x8/fixed-order/fixed/f0/mixed", 0x7cce3d313dd7576a),
    ("Optical4IB/8x8/fixed-order/fixed/f0.15/unicast", 0x454304f808b6ec92),
    ("Optical4IB/8x8/fixed-order/fixed/f0.15/mixed", 0x67ab76b65abff5ad),
    ("Optical4IB/8x8/fixed-order/fixed/f0.3/unicast", 0x0669884d30279f14),
    ("Optical4IB/8x8/fixed-order/fixed/f0.3/mixed", 0xdd82bb664f1af715),
    ("Optical4IB/8x8/fixed-order/round-robin/f0/unicast", 0xe9b6196911680672),
    ("Optical4IB/8x8/fixed-order/round-robin/f0/mixed", 0x5fa4136a5432f925),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.15/unicast", 0x859a5562ad804432),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.15/mixed", 0xfd4912816cfa0565),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.3/unicast", 0x09289a68639c713d),
    ("Optical4IB/8x8/fixed-order/round-robin/f0.3/mixed", 0x1285db783dcbce9f),
    ("Optical4IB/8x8/oldest-first/fixed/f0/unicast", 0xd5aa65c278339b4f),
    ("Optical4IB/8x8/oldest-first/fixed/f0/mixed", 0xffefba71e7cdfce1),
    ("Optical4IB/8x8/oldest-first/fixed/f0.15/unicast", 0x51bbfba9f6bc195c),
    ("Optical4IB/8x8/oldest-first/fixed/f0.15/mixed", 0xcddd48fbf67b3840),
    ("Optical4IB/8x8/oldest-first/fixed/f0.3/unicast", 0xa913fd8a210bb378),
    ("Optical4IB/8x8/oldest-first/fixed/f0.3/mixed", 0x9a6e6753ffd67da8),
    ("Optical4IB/8x8/oldest-first/round-robin/f0/unicast", 0x7b703ce1b6a9185c),
    ("Optical4IB/8x8/oldest-first/round-robin/f0/mixed", 0x58211b23ed044c4b),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.15/unicast", 0x30fb6c95da83ff0b),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.15/mixed", 0x91a4819e135f84b2),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.3/unicast", 0x88fe15f35a6e73e9),
    ("Optical4IB/8x8/oldest-first/round-robin/f0.3/mixed", 0x46a3c8c2f9c10057),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0/unicast", 0x239b252a8eab3c19),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0/mixed", 0x4f43bddd373b4a89),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.15/unicast", 0x0ace84ed1979fb16),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.15/mixed", 0xcab9d404852ebf21),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.3/unicast", 0xeec3336099d596b4),
    ("Optical4SP50/4x4/rotating-priority/fixed/f0.3/mixed", 0x5b1129618a4083eb),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0/unicast", 0x23031c24123f4e81),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0/mixed", 0x4b789eb0f3cf0d9b),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.15/unicast", 0x3be2ce4c2c312009),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.15/mixed", 0x0cbcff55af4e83c9),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.3/unicast", 0x9090603a0e0dab99),
    ("Optical4SP50/4x4/rotating-priority/round-robin/f0.3/mixed", 0x5633df8f8809d996),
    ("Optical4SP50/4x4/fixed-order/fixed/f0/unicast", 0x6f4214901c21b2ad),
    ("Optical4SP50/4x4/fixed-order/fixed/f0/mixed", 0xd5eab95eead952f0),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.15/unicast", 0xd11741bb461b2e6d),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.15/mixed", 0x9f3a4075d7353cbc),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.3/unicast", 0xfe1cc928036b21a6),
    ("Optical4SP50/4x4/fixed-order/fixed/f0.3/mixed", 0x4e761a9b21921bdb),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0/unicast", 0x6c35e5f11ebb1af8),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0/mixed", 0x61a32fe069d81579),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.15/unicast", 0x7985be14623231d2),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.15/mixed", 0x25b2ac60639af07a),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.3/unicast", 0x60efe5be43ae8809),
    ("Optical4SP50/4x4/fixed-order/round-robin/f0.3/mixed", 0x1b7cb8d03a483cec),
    ("Optical4SP50/4x4/oldest-first/fixed/f0/unicast", 0x17dbc59617b65542),
    ("Optical4SP50/4x4/oldest-first/fixed/f0/mixed", 0xd4d6cb4de3e5c6bf),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.15/unicast", 0xe11c7aae9d614ba4),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.15/mixed", 0xf4e2098564b303a9),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.3/unicast", 0x165d00bd3cad8de2),
    ("Optical4SP50/4x4/oldest-first/fixed/f0.3/mixed", 0x3aff52b96ba7d364),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0/unicast", 0xe337484cf084f87c),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0/mixed", 0xc339eb135d151e38),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.15/unicast", 0x97c2fb4671ba0680),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.15/mixed", 0x335daf36310e8bc6),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.3/unicast", 0x3d181bc92365d5ac),
    ("Optical4SP50/4x4/oldest-first/round-robin/f0.3/mixed", 0x8a2cf35e73a7bdbf),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0/unicast", 0x652053e5b14d36ea),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0/mixed", 0x84d7680f0214f5ad),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.15/unicast", 0x145363af99e31e8c),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.15/mixed", 0x07fed3d1e788b4d6),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.3/unicast", 0xc731a17ca42f3422),
    ("Optical4SP50/8x8/rotating-priority/fixed/f0.3/mixed", 0x1331112ad8e8cac4),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0/unicast", 0x81fd99091f38f041),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0/mixed", 0xe94ddd6cdfadca38),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.15/unicast", 0x73616d19a92d8778),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.15/mixed", 0x5daecb97845aac36),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.3/unicast", 0x169d239663e00225),
    ("Optical4SP50/8x8/rotating-priority/round-robin/f0.3/mixed", 0xe3a94f22b47c34e0),
    ("Optical4SP50/8x8/fixed-order/fixed/f0/unicast", 0xb6c321fe3b85c91d),
    ("Optical4SP50/8x8/fixed-order/fixed/f0/mixed", 0x2ef6165aeaeeca33),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.15/unicast", 0x703ebc92d9df61d8),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.15/mixed", 0x91a2e2f29f848355),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.3/unicast", 0x8296e50dd35d439f),
    ("Optical4SP50/8x8/fixed-order/fixed/f0.3/mixed", 0xef79db826148e35e),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0/unicast", 0x0c78dc38064c6469),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0/mixed", 0x6e4c3bd05762c0dd),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.15/unicast", 0x5e2076b8e345526c),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.15/mixed", 0x9d471aabbf711505),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.3/unicast", 0x8ef70537bebefc5b),
    ("Optical4SP50/8x8/fixed-order/round-robin/f0.3/mixed", 0xb53aeb54b20438f7),
    ("Optical4SP50/8x8/oldest-first/fixed/f0/unicast", 0xf54d7dae12cbc0e3),
    ("Optical4SP50/8x8/oldest-first/fixed/f0/mixed", 0xb5996a556abbce9e),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.15/unicast", 0xf89b437000418761),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.15/mixed", 0x98583168916a38b1),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.3/unicast", 0x5c04890f1f6fbbab),
    ("Optical4SP50/8x8/oldest-first/fixed/f0.3/mixed", 0x26290aeb65b50806),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0/unicast", 0xc5bd183bcf06270f),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0/mixed", 0xcec282a9173dcbb7),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.15/unicast", 0x37a2879869ab98f5),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.15/mixed", 0xe3c51fadb0b40dc8),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.3/unicast", 0x702e009371b679c1),
    ("Optical4SP50/8x8/oldest-first/round-robin/f0.3/mixed", 0x0b266e3081ddc426),
];

#[rustfmt::skip]
const ELECTRICAL: &[(&str, u64)] = &[
    ("Electrical3/4x4/f0/unicast", 0x169042f9f1752ed5),
    ("Electrical3/4x4/f0/mixed", 0xbb7646e9258becbc),
    ("Electrical3/4x4/f0.15/unicast", 0xea1cbc512b4369c4),
    ("Electrical3/4x4/f0.15/mixed", 0x508fe0e55ac0b4bb),
    ("Electrical3/4x4/f0.3/unicast", 0x09812f6fb0919a53),
    ("Electrical3/4x4/f0.3/mixed", 0x5630bd7d40434f3b),
    ("Electrical3/8x8/f0/unicast", 0x974a32dc0e655652),
    ("Electrical3/8x8/f0/mixed", 0x5590154bb2c7857c),
    ("Electrical3/8x8/f0.15/unicast", 0x0276138b8c623686),
    ("Electrical3/8x8/f0.15/mixed", 0x8c93a16f63e5b4a9),
    ("Electrical3/8x8/f0.3/unicast", 0xf0c34f4241f65fc0),
    ("Electrical3/8x8/f0.3/mixed", 0x95d935796ce58862),
    ("Electrical2/4x4/f0/unicast", 0x91f91353679bcefd),
    ("Electrical2/4x4/f0/mixed", 0x7f1b8509858bb1e4),
    ("Electrical2/4x4/f0.15/unicast", 0x03fec545c62ecb08),
    ("Electrical2/4x4/f0.15/mixed", 0xc332a45d748fba76),
    ("Electrical2/4x4/f0.3/unicast", 0x580d99032dd87f8e),
    ("Electrical2/4x4/f0.3/mixed", 0x49cfdf003c5b6f65),
    ("Electrical2/8x8/f0/unicast", 0xa69bcb214210b23b),
    ("Electrical2/8x8/f0/mixed", 0x48bb247b4f750f93),
    ("Electrical2/8x8/f0.15/unicast", 0x035fdb5033f22c66),
    ("Electrical2/8x8/f0.15/mixed", 0x48d97e98d38cd8bb),
    ("Electrical2/8x8/f0.3/unicast", 0xdc7158559ff5227d),
    ("Electrical2/8x8/f0.3/mixed", 0x8ba66109e59de0f7),
];

#[rustfmt::skip]
const ELECTRICAL_AXES: &[(&str, u64)] = &[
    ("Electrical3/vcs2/f0/unicast", 0xb9a172712c98f5b0),
    ("Electrical3/vcs2/f0/mixed", 0x12b010e02e44794a),
    ("Electrical3/vcs2/f0.3/unicast", 0x738d5dee26831533),
    ("Electrical3/vcs2/f0.3/mixed", 0x6bfd83d7aa8aaf58),
    ("Electrical3/vcs16/f0/unicast", 0x773dd34d3d3d73f4),
    ("Electrical3/vcs16/f0/mixed", 0xb23bfb3a141dc172),
    ("Electrical3/vcs16/f0.3/unicast", 0x4967e44dd84ba00d),
    ("Electrical3/vcs16/f0.3/mixed", 0x25694059a96a4e06),
    ("Electrical3/islip1/f0/unicast", 0x13722d88437a3522),
    ("Electrical3/islip1/f0/mixed", 0xc8d70de2849c2e97),
    ("Electrical3/islip1/f0.3/unicast", 0x760ede388bf7e8c4),
    ("Electrical3/islip1/f0.3/mixed", 0xe22435f2d6e5a01f),
    ("Electrical3/speedup1/f0/unicast", 0xc0983fc6067af156),
    ("Electrical3/speedup1/f0/mixed", 0x6fd25673a5e70bac),
    ("Electrical3/speedup1/f0.3/unicast", 0xa6e937f4efde95d9),
    ("Electrical3/speedup1/f0.3/mixed", 0x29cf53278a43dd16),
    ("Electrical3/saturated/f0/unicast", 0xf1ae8022e6419c03),
    ("Electrical3/saturated/f0/mixed", 0x318d0b3a1b319dd1),
    ("Electrical3/saturated/f0.3/unicast", 0x89e02c551877d0d0),
    ("Electrical3/saturated/f0.3/mixed", 0x1f7152ab93634733),
    ("Electrical3/8x4/f0/unicast", 0x729e48f252cb70a3),
    ("Electrical3/8x4/f0/mixed", 0x1d151975942fa6e2),
    ("Electrical3/8x4/f0.3/unicast", 0xd99f93987ff6987f),
    ("Electrical3/8x4/f0.3/mixed", 0x84b873bd3cc81aca),
];

#[rustfmt::skip]
const OPTICAL_AXES: &[(&str, u64)] = &[
    ("Optical4/storm/8x8/f0/broadcast", 0x04297eb9fd89e780),
    ("Optical4/storm/8x8/f0/all-but-source", 0x04297eb9fd89e780),
    ("Optical4/storm/8x8/f0.3/broadcast", 0x9d6f69708ecfd712),
    ("Optical4/storm/8x8/f0.3/all-but-source", 0x9d6f69708ecfd712),
    ("Optical4/storm/8x4/f0/broadcast", 0x8a846e53e2189fac),
    ("Optical4/storm/8x4/f0/all-but-source", 0x8a846e53e2189fac),
    ("Optical4/storm/8x4/f0.3/broadcast", 0x73153c088675aa4b),
    ("Optical4/storm/8x4/f0.3/all-but-source", 0x73153c088675aa4b),
    ("Optical4/storm/5x3/f0/broadcast", 0x173dda1a61651d5c),
    ("Optical4/storm/5x3/f0/all-but-source", 0x173dda1a61651d5c),
    ("Optical4/storm/5x3/f0.3/broadcast", 0x762d8afeadf7960c),
    ("Optical4/storm/5x3/f0.3/all-but-source", 0x762d8afeadf7960c),
    ("Optical4/storm/16x16/f0/broadcast", 0x8cf9fa00560c92ae),
    ("Optical4/storm/16x16/f0/all-but-source", 0x8cf9fa00560c92ae),
    ("Optical4/storm/16x16/f0.3/broadcast", 0x96a34b335f426d93),
    ("Optical4/storm/16x16/f0.3/all-but-source", 0x96a34b335f426d93),
];
