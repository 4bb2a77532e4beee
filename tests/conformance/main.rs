//! Runs the conformance kit on every `Network` in the workspace, the
//! lockstep `differential` on its callers, and the counted-allocation
//! cases of each network's hot calls.
//!
//! A new network, or a reference stepper written to check one, plugs in
//! with one `conformance(|| ..., scope)` test below; checking it cycle
//! for cycle against another network is one `differential` call.

mod alloc;
mod kit;

use kit::{conformance, differential, first_difference, random_schedule, Scope};
use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::ideal::IdealNetwork;
use phastlane_repro::netsim::stats::{EnergyReport, NetworkStats};
use phastlane_repro::netsim::{Delivery, FaultPlan, Mesh, Network, NewPacket, PacketId};
use phastlane_repro::optical::{BufferDepth, PhastlaneConfig, PhastlaneNetwork};
use std::path::Path;

fn optical4() -> PhastlaneNetwork {
    PhastlaneNetwork::new(PhastlaneConfig::optical4())
}

fn electrical3() -> ElectricalNetwork {
    ElectricalNetwork::new(ElectricalConfig::electrical3())
}

/// Optical4 as the paper's figures run it, and with one-entry buffers
/// that put drops, drop signals and retransmissions in every contract.
#[test]
fn optical4_conforms() {
    let tiny = PhastlaneConfig::with_hops_and_buffers(4, BufferDepth::Finite(1));
    for cfg in [PhastlaneConfig::optical4(), tiny] {
        conformance(|| PhastlaneNetwork::new(cfg.clone()), Scope::Full);
    }
}

/// Every copy of a random batch arrives exactly once on every other
/// optical configuration of the paper's figures.
#[test]
fn every_optical_config_delivers_exactly_once() {
    for cfg in [
        PhastlaneConfig::optical5(),
        PhastlaneConfig::optical8(),
        PhastlaneConfig::optical4_b32(),
        PhastlaneConfig::optical4_b64(),
        PhastlaneConfig::optical4_ib(),
        PhastlaneConfig::optical4_shared_pool(),
    ] {
        kit::exactly_once(|| PhastlaneNetwork::new(cfg.clone()), 0x0092_0903, 8);
    }
}

/// Electrical3 and Electrical2.
#[test]
fn electrical_conforms() {
    for cfg in [3, 2].map(ElectricalConfig::with_router_delay) {
        conformance(|| ElectricalNetwork::new(cfg.clone()), Scope::Full);
    }
}

#[test]
fn ideal_conforms() {
    conformance(|| IdealNetwork::new(Mesh::PAPER, 1, 1), Scope::Ideal);
}

/// The exactly-once contract at soak length: tens of thousands of fresh
/// networks. Run explicitly with `cargo test -- --ignored`.
#[test]
#[ignore = "long soak; run with --ignored"]
fn soak_exactly_once() {
    kit::exactly_once(optical4, 0x50AC, 20_000);
    kit::exactly_once(electrical3, 0x50AC, 20_000);
}

/// A network against a `Box` of itself under one random fault plan, so
/// every forwarded call, the failure drain included, meets the direct one.
fn box_of_self<N: Network>(make: impl Fn() -> N, fails: bool) {
    let (mut direct, mut boxed) = (make(), Box::new(make()));
    let mesh = direct.mesh();
    let plan = FaultPlan::random(mesh, 0x0B0C, 0.3);
    direct.set_fault_plan(plan.clone(), 7);
    boxed.set_fault_plan(plan, 7);
    let schedule = random_schedule(mesh, 0x0B0D, 150, |_| 0.03);
    let (delivered, failed) = differential(&mut direct, &mut boxed, &schedule);
    assert!(delivered > 300 && (failed > 0) == fails, "{failed}");
}

#[test]
fn a_box_forwards_every_call() {
    box_of_self(optical4, true);
    box_of_self(electrical3, true);
    box_of_self(|| IdealNetwork::new(Mesh::PAPER, 1, 1), false);
}

/// Installing an empty fault plan, with a fault seed, changes nothing
/// that any cycle shows.
fn empty_plan_is_zero_effect<N: Network>(make: impl Fn() -> N) {
    let (mut plain, mut planned) = (make(), make());
    planned.set_fault_plan(FaultPlan::new(), 12345);
    let schedule = random_schedule(plain.mesh(), 0x0E0F, 400, |_| 0.05);
    let (delivered, _) = differential(&mut plain, &mut planned, &schedule);
    assert!(delivered > 1_000, "{delivered}");
}

#[test]
fn an_empty_fault_plan_is_zero_effect() {
    empty_plan_is_zero_effect(optical4);
    let tiny = PhastlaneConfig::with_hops_and_buffers(4, BufferDepth::Finite(1));
    empty_plan_is_zero_effect(|| PhastlaneNetwork::new(tiny.clone()));
    empty_plan_is_zero_effect(electrical3);
}

/// Holds back one delivery drained at cycle `at` until the next drain.
struct Delay<N> {
    inner: N,
    at: u64,
    held: Option<Delivery>,
}

impl<N: Network> Network for Delay<N> {
    fn name(&self) -> String {
        format!("Delay({})", self.inner.name())
    }
    fn mesh(&self) -> Mesh {
        self.inner.mesh()
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn inject(&mut self, packet: NewPacket) -> Option<PacketId> {
        self.inner.inject(packet)
    }
    fn step(&mut self) {
        self.inner.step();
    }
    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        unreachable!("the kit drains through drain_deliveries_into")
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.extend(self.held.take());
        let start = out.len();
        self.inner.drain_deliveries_into(out);
        if self.inner.cycle() == self.at && out.len() > start {
            self.held = Some(out.remove(start));
        }
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn energy(&self) -> EnergyReport {
        self.inner.energy()
    }
    fn stats(&self) -> NetworkStats {
        self.inner.stats()
    }
}

/// The driver finds a planted one-cycle delay at the cycle it was
/// planted (one in which optical4 delivers on this schedule), and prints
/// both sides' deliveries there.
#[test]
fn differential_names_the_cycle_of_a_planted_delay() {
    let schedule = random_schedule(Mesh::PAPER, 0x0DE1, 200, |_| 0.05);
    let mut delayed = Delay {
        inner: optical4(),
        at: 60,
        held: None,
    };
    let mismatch = first_difference(&mut optical4(), &mut delayed, &schedule, 1_000)
        .expect_err("a delayed delivery is a difference");
    let head = "cycle 60: deliveries differ\n  a: [Delivery {";
    assert!(mismatch.starts_with(head), "{mismatch}");
}

/// Every `impl ... Network for T` that starts a line of `crates/*/src`
/// is run by a `conformance` call in the code of this file; the
/// `Box<N>` forwarding impl is covered by `differential` instead.
/// Comment lines are left out of the search, and the callee's `(` is
/// added here at run time, so neither a doc nor this test's own source
/// reads as a call.
#[test]
fn every_network_in_the_workspace_is_run_by_the_kit() {
    let code: Vec<&str> = include_str!("main.rs")
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect();
    let code = code.join("\n");
    let called = |callee: &str, with: &str| {
        let callee = format!("{callee}(");
        let mut calls = code
            .split(&callee)
            .skip(1)
            .map(|r| r.split_once(';').map_or(r, |c| c.0));
        calls.any(|call| call.contains(with))
    };
    let mut paths = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")];
    let mut found = Vec::new();
    while let Some(path) = paths.pop() {
        if path.is_dir() {
            let entries = std::fs::read_dir(&path).expect("readable directory");
            paths.extend(entries.map(|e| e.expect("directory entry").path()));
        } else if path
            .to_str()
            .is_some_and(|p| p.contains("/src/") && p.ends_with(".rs"))
        {
            let text = std::fs::read_to_string(&path).expect("readable source");
            let impls = text.lines().filter(|line| line.starts_with("impl"));
            let types = impls.filter_map(|line| line.split_once(" Network for "));
            found.extend(types.map(|(_, t)| t.split([' ', '{']).next().unwrap_or(t).to_string()));
        }
    }
    let run = |name: &String| {
        called("conformance", &format!("{name}::new("))
            || name == "Box<N>" && called("differential", "&mut boxed")
    };
    let missing: Vec<_> = found.iter().filter(|name| !run(name)).collect();
    assert!(found.len() >= 4 && missing.is_empty(), "{missing:?}");
}
