//! The cross-commit harness pin: what `run_synthetic_guarded` and
//! `run_trace_guarded` *report* for seeded runs, folded into FNV-1a 64
//! digests — every `SyntheticResult` / `TraceResult` field except wall
//! time (the complete latency summary, the three rates' bits, energy
//! bits, `unfinished`, `undeliverable`, `completed`, `completion_cycle`,
//! `timed_out`, the interrupt's reason string, `perf.cycles`) plus the
//! compact JSON of a `MetricsSeries` sampled every 64 cycles.
//! `tests/step_digest.rs` pins what the networks do; this file pins what
//! the two drives make of it: source queues and NIC refusals, the
//! measurement window, the dependency graph of a replay (full and
//! per-destination waiters, self-sends, per-source FIFO order),
//! terminal failures, the metrics-window close, every watchdog verdict,
//! and a network that was used before.
//!
//! The constants below were recorded at commit 92bdbd1, before the two
//! drives were rebuilt over one shared stepper and the replay's
//! `HashMap`s became dense tables. If this test fails, the change
//! altered what a drive reports — fix the code, do not re-record the
//! digests. (`print_digest_table`, ignored, prints the tables in source
//! form for the day a cell is *added*.)
//!
//! One deliberate change re-recorded the tables once: both networks'
//! energy became a function of event counts, evaluated when `energy()` is
//! read, instead of a running `f64` sum the hot loop added to. That moves
//! the energy bits by float reassociation only. Every cell's digest with
//! its four energy words left out was identical before and after; the
//! one cell whose digest did not move is `ideal/f0`, whose network spends
//! no energy.

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::fault::{Fault, FaultKind, FaultPlan};
use phastlane_repro::netsim::harness::{
    run_synthetic_guarded, run_trace_guarded, Dep, MsgId, SyntheticOptions, SyntheticResult, Trace,
    TraceMessage, TraceOptions, TraceResult,
};
use phastlane_repro::netsim::ideal::IdealNetwork;
use phastlane_repro::netsim::obs::{MetricsCollector, PerfProfile};
use phastlane_repro::netsim::packet::PacketKind;
use phastlane_repro::netsim::stats::{EnergyReport, LatencyStats};
use phastlane_repro::netsim::{DestSet, Interrupt, Mesh, Network, NodeId, Watchdog};
use phastlane_repro::optical::{PhastlaneConfig, PhastlaneNetwork};
use phastlane_repro::traffic::coherence::generate_trace;
use phastlane_repro::traffic::{splash2, BernoulliTraffic, Pattern};

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

    /// The complete summary (count, exact sum, min, max, histogram)
    /// plus the derived values reports print.
    fn latency(&mut self, l: &LatencyStats) {
        self.bytes(l.to_json().to_string_compact().as_bytes());
        self.opt(l.mean().map(f64::to_bits));
        self.opt(l.percentile(50.0));
        self.opt(l.percentile(99.0));
    }

    /// The fields both result types share, then the metrics series.
    fn tail(
        &mut self,
        energy: &EnergyReport,
        interrupt: &Option<Interrupt>,
        perf: &PerfProfile,
        metrics: MetricsCollector,
    ) {
        for v in [
            energy.dynamic_pj,
            energy.leakage_pj,
            energy.laser_pj,
            energy.link_pj,
        ] {
            self.u64(v.to_bits());
        }
        match interrupt {
            Some(i) => self.bytes(i.reason().as_bytes()),
            None => self.u64(u64::MAX),
        }
        self.u64(perf.cycles);
        self.u64(u64::from(perf.phases.is_some()));
        let series = metrics.into_series().to_json().to_string_compact();
        self.bytes(series.as_bytes());
    }
}

fn synthetic_digest(r: &SyntheticResult, metrics: MetricsCollector) -> u64 {
    let mut h = Fnv::new();
    h.latency(&r.latency);
    for rate in [r.offered_rate, r.accepted_rate, r.delivered_rate] {
        h.u64(rate.to_bits());
    }
    h.u64(r.unfinished);
    h.u64(r.undeliverable);
    h.tail(&r.energy, &r.interrupt, &r.perf, metrics);
    h.0
}

fn trace_digest(r: &TraceResult, metrics: MetricsCollector) -> u64 {
    let mut h = Fnv::new();
    h.latency(&r.latency);
    h.u64(r.completion_cycle);
    h.u64(r.completed);
    h.u64(r.undeliverable);
    h.u64(u64::from(r.timed_out));
    h.tail(&r.energy, &r.interrupt, &r.perf, metrics);
    h.0
}

const SAMPLE_EVERY: u64 = 64;
const NETS: [&str; 2] = ["optical4", "electrical3"];
/// Fault-free, and the `FaultPlan::random` mix (dead links, a stuck
/// router, droop, bit errors) under which optical sources give up
/// after 8 retries.
const INTENSITIES: [f64; 2] = [0.0, 0.3];

/// A fresh network; `plan`, when not empty, is installed with the
/// retry cap given (`None` keeps the configuration's own, which
/// congestion and even a wedged mesh never reach).
fn build(net: &str, plan: FaultPlan, seed: u64, retry_limit: Option<u32>) -> Box<dyn Network> {
    let mut built: Box<dyn Network> = match net {
        "optical4" => {
            let mut cfg = PhastlaneConfig::optical4();
            if let Some(limit) = retry_limit {
                cfg.retry_limit = limit;
            }
            Box::new(PhastlaneNetwork::new(cfg))
        }
        "electrical3" => Box::new(ElectricalNetwork::new(ElectricalConfig::electrical3())),
        "ideal" => Box::new(IdealNetwork::new(Mesh::PAPER, 2, 1)),
        other => panic!("no such network {other:?}"),
    };
    if !plan.is_empty() {
        built.set_fault_plan(plan, seed);
    }
    built
}

/// A fresh network under `FaultPlan::random` at `intensity` (none at
/// 0), optical sources giving up after 8 retries.
fn build_faulted(net: &str, seed: u64, intensity: f64) -> Box<dyn Network> {
    let plan = FaultPlan::random(Mesh::PAPER, seed, intensity);
    build(net, plan, seed, (intensity > 0.0).then_some(8))
}

/// Every router wedged for good: packets queue and nothing ever moves.
fn all_routers_stuck() -> FaultPlan {
    let mut plan = FaultPlan::new();
    for node in Mesh::PAPER.iter_nodes() {
        plan.push(Fault::permanent(FaultKind::RouterStuck { node }));
    }
    plan
}

/// A SPLASH2 benchmark at scale 0.05 — the scaling written out, because
/// the cells must build at the commit that recorded them.
fn benchmark_trace(name: &str) -> Trace {
    let mut profile = splash2::benchmark(name).expect("known benchmark");
    profile.misses_per_core = ((profile.misses_per_core as f64 * 0.05).round() as usize).max(2);
    generate_trace(Mesh::PAPER, &profile)
}

fn synthetic_cell(
    net: &mut dyn Network,
    pattern: Pattern,
    rate: f64,
    seed: u64,
    opts: SyntheticOptions,
    watchdog: Option<Watchdog>,
) -> (SyntheticResult, u64) {
    let mesh = net.mesh();
    let mut workload = BernoulliTraffic::new(mesh, pattern, rate, seed);
    let mut metrics = MetricsCollector::new(SAMPLE_EVERY, mesh.nodes());
    let r = run_synthetic_guarded(net, &mut workload, opts, Some(&mut metrics), watchdog);
    let digest = synthetic_digest(&r, metrics);
    (r, digest)
}

fn trace_cell(
    net: &mut dyn Network,
    trace: &Trace,
    max_cycles: u64,
    watchdog: Option<Watchdog>,
) -> (TraceResult, u64) {
    let mut metrics = MetricsCollector::new(SAMPLE_EVERY, net.mesh().nodes());
    let opts = TraceOptions { max_cycles };
    let r = run_trace_guarded(net, trace, opts, Some(&mut metrics), watchdog);
    let digest = trace_digest(&r, metrics);
    (r, digest)
}

const OPTS: SyntheticOptions = SyntheticOptions {
    warmup: 100,
    measure: 400,
    drain: 1_500,
};

/// Long enough that the electrical baseline's 2 000-cycle stall-abandon
/// guard fires inside the drain.
const FAULTED_OPTS: SyntheticOptions = SyntheticOptions {
    warmup: 100,
    measure: 400,
    drain: 2_600,
};

/// {optical4, electrical3} × {uniform 0.05, transpose 0.40 — past
/// saturation, so NICs refuse and the run ends on its hard limit} ×
/// {fault-free, faulted}.
fn synthetic_cells() -> Vec<(String, u64)> {
    let mut cells = Vec::new();
    let mut seed = 0x5D17_0000u64;
    for net in NETS {
        for (pattern, rate) in [(Pattern::Uniform, 0.05), (Pattern::Transpose, 0.40)] {
            for intensity in INTENSITIES {
                seed += 1;
                let opts = if intensity > 0.0 { FAULTED_OPTS } else { OPTS };
                let mut built = build_faulted(net, seed, intensity);
                let (_, digest) = synthetic_cell(&mut *built, pattern, rate, seed, opts, None);
                cells.push((
                    format!("{net}/{}/{rate}/f{intensity}", pattern.name()),
                    digest,
                ));
            }
        }
    }
    cells
}

/// Cycle limit of the faulted replays: a dependency chain through the
/// stuck router costs the electrical baseline 2 000 cycles per link, so
/// those cells may end here instead of completing.
const FAULTED_MAX_CYCLES: u64 = 12_000;

/// FFT / Ocean / Radix at scale 0.05 × the same nets and intensities.
fn replay_cells() -> Vec<(String, u64)> {
    let mut cells = Vec::new();
    let mut seed = 0x5D17_1000u64;
    for name in ["FFT", "Ocean", "Radix"] {
        let trace = benchmark_trace(name);
        for net in NETS {
            for intensity in INTENSITIES {
                seed += 1;
                let max_cycles = if intensity > 0.0 {
                    FAULTED_MAX_CYCLES
                } else {
                    TraceOptions::default().max_cycles
                };
                let mut built = build_faulted(net, seed, intensity);
                let (_, digest) = trace_cell(&mut *built, &trace, max_cycles, None);
                cells.push((format!("{name}/{net}/f{intensity}"), digest));
            }
        }
    }
    cells
}

/// Every way a run ends other than by finishing: each watchdog verdict
/// on each drive, the replay's own cycle limit, and the three
/// coincidences — a limit or budget that lands on the very cycle the
/// work completes, and a watchdog with nothing armed.
fn watchdog_cells() -> Vec<(String, u64)> {
    let seed = 0x5D17_2000u64;
    let fft = benchmark_trace("FFT");
    let optical = || build("optical4", FaultPlan::new(), seed, None);
    let wedged = || build("optical4", all_routers_stuck(), seed, None);
    let synthetic = |net: &mut dyn Network, wd: Option<Watchdog>| {
        synthetic_cell(net, Pattern::Uniform, 0.05, seed, OPTS, wd)
    };
    let mut cells = Vec::new();

    let (plain_s, plain_s_digest) = synthetic(&mut *optical(), None);
    let (plain_t, plain_t_digest) = trace_cell(&mut *optical(), &fft, 1_000_000, None);
    assert!(plain_s.interrupt.is_none() && plain_s.unfinished == 0);
    assert!(!plain_t.timed_out && plain_t.completed == fft.len() as u64);

    // Nothing armed: the run an absent watchdog gives.
    let (_, d) = synthetic(&mut *optical(), Some(Watchdog::new()));
    assert_eq!(d, plain_s_digest);
    cells.push(("synthetic/unarmed".to_string(), d));
    let (_, d) = trace_cell(&mut *optical(), &fft, 1_000_000, Some(Watchdog::new()));
    assert_eq!(d, plain_t_digest);
    cells.push(("replay/unarmed".to_string(), d));

    // A cycle budget that expires mid-run.
    let budget = |cycles| Some(Watchdog::new().with_cycle_budget(cycles));
    let (r, d) = synthetic(&mut *optical(), budget(250));
    assert_eq!(r.interrupt, Some(Interrupt::CycleBudget { budget: 250 }));
    cells.push(("synthetic/budget-mid-run".to_string(), d));
    let (r, d) = trace_cell(&mut *optical(), &fft, 1_000_000, budget(300));
    assert!(r.timed_out && r.completed < fft.len() as u64);
    cells.push(("replay/budget-mid-run".to_string(), d));

    // Work pending, nothing moving: the livelock window.
    let livelock = || Some(Watchdog::new().with_livelock_window(200));
    let stretched = SyntheticOptions {
        drain: 50_000,
        ..OPTS
    };
    let (r, d) = synthetic_cell(
        &mut *wedged(),
        Pattern::Uniform,
        0.05,
        seed,
        stretched,
        livelock(),
    );
    assert!(matches!(r.interrupt, Some(Interrupt::Livelock { .. })));
    cells.push(("synthetic/livelock".to_string(), d));
    let (r, d) = trace_cell(&mut *wedged(), &fft, 1_000_000, livelock());
    assert!(matches!(r.interrupt, Some(Interrupt::Livelock { .. })));
    cells.push(("replay/livelock".to_string(), d));

    // The replay's own cycle limit, mid-run and on the completing cycle
    // (the latter is a completed replay, not a timeout).
    let (r, d) = trace_cell(&mut *optical(), &fft, 300, None);
    assert!(r.timed_out && r.interrupt.is_none());
    cells.push(("replay/max-cycles".to_string(), d));
    let (r, d) = trace_cell(&mut *optical(), &fft, plain_t.perf.cycles, None);
    assert!(!r.timed_out && r.completed == fft.len() as u64);
    cells.push(("replay/max-cycles-on-completion".to_string(), d));

    // A budget that expires on the completing cycle: the verdict wins,
    // although every message was delivered.
    let (r, d) = trace_cell(
        &mut *optical(),
        &fft,
        1_000_000,
        budget(plain_t.perf.cycles),
    );
    assert!(r.timed_out && r.interrupt.is_some() && r.completed == fft.len() as u64);
    cells.push(("replay/budget-on-completion".to_string(), d));
    let (r, d) = synthetic(&mut *optical(), budget(plain_s.perf.cycles));
    assert!(r.interrupt.is_some() && r.unfinished == 0);
    assert_eq!(r.perf.cycles, plain_s.perf.cycles);
    cells.push(("synthetic/budget-on-early-exit".to_string(), d));

    cells
}

/// Five runs back to back on one network, so later ones start at a
/// non-zero cycle with shifted packet ids, and two of them inherit
/// stragglers: the saturated sweep point ends on its hard limit with
/// packets queued in NICs, the cut-short Ocean replay with packets in
/// flight.
fn reused_cells() -> Vec<(String, u64)> {
    let [fft, ocean, radix] = ["FFT", "Ocean", "Radix"].map(benchmark_trace);
    let short = SyntheticOptions {
        warmup: 50,
        measure: 200,
        drain: 150,
    };
    let mut cells = Vec::new();
    for net in NETS {
        let seed = 0x5D17_3000u64;
        let mut built = build(net, FaultPlan::new(), seed, None);
        let net_ref = &mut *built;
        let mut push = |label: &str, digest: u64| cells.push((format!("{net}/{label}"), digest));

        let (r, d) = synthetic_cell(net_ref, Pattern::Transpose, 0.40, seed, short, None);
        assert!(r.unfinished > 0, "{net}: stragglers left behind");
        push("1-saturated", d);
        let (r, d) = trace_cell(net_ref, &fft, 1_000_000, None);
        assert!(!r.timed_out);
        push("2-fft", d);
        let (r, d) = trace_cell(net_ref, &ocean, 300, None);
        assert!(r.timed_out);
        push("3-ocean-cut-short", d);
        let (r, d) = synthetic_cell(net_ref, Pattern::Uniform, 0.05, seed + 1, short, None);
        assert_eq!(r.unfinished, 0);
        push("4-uniform", d);
        let (r, d) = trace_cell(net_ref, &radix, 1_000_000, None);
        assert!(!r.timed_out);
        push("5-radix", d);
    }
    cells
}

/// A trace no generator produces, for the replay's corners:
/// * 60 unicasts from node 0 eligible at cycle 0 — ten more than a NIC
///   holds, so the head of node 0's queue stalls — with a self-send
///   queued behind them and a message waiting on that self-send;
/// * a broadcast with two waiters on one destination, one on the
///   farthest, and one waiting on a destination *and* on full delivery;
/// * a multicast that lists a duplicate and its own source;
/// * a self-send that itself waits, and a waiter on it;
/// * message ids that are not trace positions.
fn hand_built_trace() -> Trace {
    let id = |i: u32| MsgId(100 + 7 * i);
    let msg = |i: u32, src: u16, dests: DestSet, earliest: u64, deps: Vec<Dep>, think: u64| {
        TraceMessage {
            id: id(i),
            src: NodeId(src),
            dests,
            kind: PacketKind::ALL[i as usize % PacketKind::ALL.len()],
            earliest,
            deps,
            think,
        }
    };
    let to = |n: u16| DestSet::Unicast(NodeId(n));
    let mut messages: Vec<TraceMessage> = (0..60)
        .map(|i| msg(i, 0, to(1 + (i as u16 * 11) % 63), 0, vec![], 0))
        .collect();
    messages.extend([
        msg(60, 0, to(0), 0, vec![], 0),
        msg(61, 5, to(9), 0, vec![Dep::full(id(60))], 3),
        msg(62, 10, DestSet::Broadcast, 2, vec![], 0),
        msg(63, 11, to(10), 0, vec![Dep::at(id(62), NodeId(11))], 1),
        msg(64, 63, to(10), 0, vec![Dep::at(id(62), NodeId(63))], 0),
        msg(65, 11, to(12), 0, vec![Dep::at(id(62), NodeId(11))], 5),
        msg(
            66,
            20,
            to(21),
            4,
            vec![Dep::full(id(62)), Dep::at(id(62), NodeId(20))],
            2,
        ),
        msg(
            67,
            30,
            DestSet::Multicast(vec![NodeId(31), NodeId(33), NodeId(31), NodeId(30)]),
            0,
            vec![Dep::full(id(61))],
            0,
        ),
        msg(68, 31, to(30), 0, vec![Dep::at(id(67), NodeId(33))], 1),
        msg(69, 40, to(40), 0, vec![Dep::full(id(68))], 4),
        msg(
            70,
            40,
            to(41),
            0,
            vec![Dep::full(id(69)), Dep::full(id(0))],
            0,
        ),
    ]);
    Trace { messages }
}

fn hand_built_cells() -> Vec<(String, u64)> {
    let trace = hand_built_trace();
    let seed = 0x5D17_4000u64;
    let mut cells = Vec::new();
    for (net, intensity) in [
        ("ideal", 0.0),
        ("optical4", 0.0),
        ("optical4", 0.3),
        ("electrical3", 0.0),
    ] {
        let mut built = build_faulted(net, seed, intensity);
        let (r, digest) = trace_cell(&mut *built, &trace, FAULTED_MAX_CYCLES, None);
        assert!(!r.timed_out, "{net}/f{intensity}");
        assert_eq!(r.completed, trace.len() as u64, "{net}/f{intensity}");
        cells.push((format!("{net}/f{intensity}"), digest));
    }
    cells
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
        "{} of {} cells drifted from what the harness reported when they were recorded:\n{}",
        moved.len(),
        fresh.len(),
        moved.join("\n")
    );
}

#[test]
fn synthetic_digests_match_the_recorded_ones() {
    check(&synthetic_cells(), SYNTHETIC);
}

#[test]
fn replay_digests_match_the_recorded_ones() {
    check(&replay_cells(), REPLAY);
}

#[test]
fn watchdog_digests_match_the_recorded_ones() {
    check(&watchdog_cells(), WATCHDOG);
}

#[test]
fn reused_network_digests_match_the_recorded_ones() {
    check(&reused_cells(), REUSED);
}

#[test]
fn hand_built_trace_digests_match_the_recorded_ones() {
    check(&hand_built_cells(), HAND_BUILT);
}

#[test]
#[ignore = "prints the digest tables in source form"]
fn print_digest_table() {
    for (name, cells) in [
        ("SYNTHETIC", synthetic_cells()),
        ("REPLAY", replay_cells()),
        ("WATCHDOG", watchdog_cells()),
        ("REUSED", reused_cells()),
        ("HAND_BUILT", hand_built_cells()),
    ] {
        println!("#[rustfmt::skip]\nconst {name}: &[(&str, u64)] = &[");
        for (label, digest) in cells {
            println!("    (\"{label}\", {digest:#018x}),");
        }
        println!("];\n");
    }
}

#[rustfmt::skip]
const SYNTHETIC: &[(&str, u64)] = &[
    ("optical4/uniform/0.05/f0", 0x3369ebc212e2311f),
    ("optical4/uniform/0.05/f0.3", 0xb8284ed285067a1e),
    ("optical4/transpose/0.4/f0", 0x4369f82e53304610),
    ("optical4/transpose/0.4/f0.3", 0x1c86565aac5c7b9e),
    ("electrical3/uniform/0.05/f0", 0x73754d978f6fca03),
    ("electrical3/uniform/0.05/f0.3", 0x4fecefe604f3a297),
    ("electrical3/transpose/0.4/f0", 0x9d46b2f3c3355638),
    ("electrical3/transpose/0.4/f0.3", 0x6f3a4577650ebd56),
];

#[rustfmt::skip]
const REPLAY: &[(&str, u64)] = &[
    ("FFT/optical4/f0", 0x680f3b2ca2772867),
    ("FFT/optical4/f0.3", 0x7ca40fff71e9df1e),
    ("FFT/electrical3/f0", 0x073891cf41889598),
    ("FFT/electrical3/f0.3", 0xc7884a7c0fe926ff),
    ("Ocean/optical4/f0", 0x87bbc4c543550c41),
    ("Ocean/optical4/f0.3", 0x33db05c1630ea9d2),
    ("Ocean/electrical3/f0", 0x3e91f5c7bf8049c1),
    ("Ocean/electrical3/f0.3", 0xd64c39b25f6ff537),
    ("Radix/optical4/f0", 0x46f637af6a26e919),
    ("Radix/optical4/f0.3", 0xa82e1b1b85614afc),
    ("Radix/electrical3/f0", 0xcd47de6e1b3f9d35),
    ("Radix/electrical3/f0.3", 0xb3148c9c9ae28161),
];

#[rustfmt::skip]
const WATCHDOG: &[(&str, u64)] = &[
    ("synthetic/unarmed", 0x12842af2c5613a29),
    ("replay/unarmed", 0x680f3b2ca2772867),
    ("synthetic/budget-mid-run", 0xefd959e4742cbf9b),
    ("replay/budget-mid-run", 0x0d213ba61b36e583),
    ("synthetic/livelock", 0x6060dccfddcffaea),
    ("replay/livelock", 0x8bdbc20aa0136568),
    ("replay/max-cycles", 0x1d9c715927654abc),
    ("replay/max-cycles-on-completion", 0x680f3b2ca2772867),
    ("replay/budget-on-completion", 0x2dd81c0093437672),
    ("synthetic/budget-on-early-exit", 0x0e49d048e4124b8a),
];

#[rustfmt::skip]
const REUSED: &[(&str, u64)] = &[
    ("optical4/1-saturated", 0x89cc98e7af45ed85),
    ("optical4/2-fft", 0xf5796ccec04f0486),
    ("optical4/3-ocean-cut-short", 0xf17a96b89502adf7),
    ("optical4/4-uniform", 0xe9b4fe2943fe04bd),
    ("optical4/5-radix", 0x436c71694671af32),
    ("electrical3/1-saturated", 0xc10b1c24c639c79a),
    ("electrical3/2-fft", 0x4289bef9e5313a3e),
    ("electrical3/3-ocean-cut-short", 0xe670dbb3e8cb08ee),
    ("electrical3/4-uniform", 0x4b17ecab5f9a1d66),
    ("electrical3/5-radix", 0x0b45e060a609bb2e),
];

#[rustfmt::skip]
const HAND_BUILT: &[(&str, u64)] = &[
    ("ideal/f0", 0x07bb9c026d10deaf),
    ("optical4/f0", 0xbbbe142bf7613c86),
    ("optical4/f0.3", 0xed5c78446f9b34cd),
    ("electrical3/f0", 0x3a65cb37246935b7),
];
