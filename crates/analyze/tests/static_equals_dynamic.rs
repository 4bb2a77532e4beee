//! Static equals dynamic: the pairs `residual_connectivity` reports
//! partitioned are exactly the pairs each simulator declares
//! `Undeliverable`.
//!
//! Both networks and the analyzer run one fault-routing rule,
//! `FaultView::unicast_hop`; this test holds the claim to the networks
//! themselves. Every ordered (src, dst) pair is sent as one unicast at a
//! time, run to quiescence, on permanent plans of dead links and stuck
//! routers (`FaultPlan::random` with its droop and bit errors removed:
//! a drooped reach or an ECC reject changes how a packet flies, not
//! whether a route exists). Where a network disagrees, the test names
//! the plan and the pairs; the rule and the grid stay as they are.
//!
//! Release runs the grid 4x4, 8x4 and 8x8 × intensities 0.05 / 0.15 /
//! 0.3 × fault seeds 0 - 3. Debug builds thin it to 4x4 × the three
//! intensities × seed 0. Both builds also run two known answers.

use phastlane_analyze::residual_connectivity;
use phastlane_lab::runner::build_network;
use phastlane_netsim::fault::{FaultKind, FaultPlan};
use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::NewPacket;

const NETS: [&str; 2] = ["optical4", "electrical3"];

/// A network that has not quiesced within this many cycles of one
/// unicast's injection is hung: far past both give-up rules (the optical
/// retry cap of 1000 short stalls, the electrical 2000-cycle abandon).
const QUIESCE_CYCLES: u64 = 50_000;

/// `FaultPlan::random`'s permanent dead links and stuck routers.
fn link_and_router_plan(mesh: Mesh, seed: u64, intensity: f64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for f in FaultPlan::random(mesh, seed, intensity).faults() {
        if matches!(
            f.kind,
            FaultKind::LinkDown { .. } | FaultKind::RouterStuck { .. }
        ) {
            plan.push(*f);
        }
    }
    plan
}

/// The pairs `net` declares undeliverable under `plan`, sending every
/// ordered pair alone and running it to quiescence. Also checks that
/// every pair ends as exactly one delivery or one failure.
fn undeliverable(net: &str, mesh: Mesh, plan: &FaultPlan) -> Vec<(NodeId, NodeId)> {
    let mut network = build_network(net, mesh, None).expect("known network");
    network.set_fault_plan(plan.clone(), 1);
    let (mut delivered, mut failed) = (0, Vec::new());
    for src in mesh.iter_nodes() {
        for dst in mesh.iter_nodes().filter(|&dst| dst != src) {
            network
                .inject(NewPacket::unicast(src, dst))
                .expect("an idle NIC accepts a unicast");
            let start = network.cycle();
            while network.in_flight() > 0 {
                assert!(
                    network.cycle() - start < QUIESCE_CYCLES,
                    "{net} {src}->{dst} did not quiesce under\n{}",
                    plan.encode()
                );
                network.step();
            }
            let deliveries = network.drain_deliveries();
            let failures = network.drain_failures();
            assert_eq!(
                deliveries.len() + failures.len(),
                1,
                "{net} {src}->{dst}: one unicast ends once"
            );
            delivered += deliveries.len();
            failed.extend(failures.iter().map(|f| (f.src, f.dest)));
        }
    }
    let pairs = mesh.nodes() * (mesh.nodes() - 1);
    assert_eq!(delivered + failed.len(), pairs, "{net}: every pair ends");
    failed.sort_unstable();
    failed
}

/// The pairs on which `net`'s outcome differs from the analyzer's, as
/// one report line, or `None` when they agree.
fn disagreement(label: &str, net: &str, mesh: Mesh, plan: &FaultPlan) -> Option<String> {
    let predicted = residual_connectivity(mesh, plan).partitioned;
    let observed = undeliverable(net, mesh, plan);
    if predicted == observed {
        return None;
    }
    let only = |a: &[(NodeId, NodeId)], b: &[(NodeId, NodeId)]| -> Vec<String> {
        a.iter()
            .filter(|p| !b.contains(p))
            .map(|(s, d)| format!("{s}->{d}"))
            .collect()
    };
    Some(format!(
        "{label} {net}: static {} partitioned, {net} {} undeliverable; \
         static only: {:?}; {net} only: {:?}",
        predicted.len(),
        observed.len(),
        only(&predicted, &observed),
        only(&observed, &predicted),
    ))
}

#[test]
fn partitioned_pairs_are_the_undeliverable_pairs() {
    let (meshes, seeds): (&[(u16, u16)], u64) = if cfg!(debug_assertions) {
        (&[(4, 4)], 1)
    } else {
        (&[(4, 4), (8, 4), (8, 8)], 4)
    };
    let mut report = Vec::new();
    for &(w, h) in meshes {
        let mesh = Mesh::new(w, h);
        for intensity in [0.05, 0.15, 0.3] {
            for seed in 0..seeds {
                let plan = link_and_router_plan(mesh, seed, intensity);
                let label = format!("{w}x{h} i={intensity} seed {seed}");
                for net in NETS {
                    report.extend(disagreement(&label, net, mesh, &plan));
                }
            }
        }
    }
    assert!(report.is_empty(), "{}", report.join("\n"));
}

/// Two pairs on which the optical corner detour disagreed with the
/// analyzer, each with the answer all three now give.
#[test]
fn known_answers_agree_in_all_three() {
    let cases = [
        // At n1 the rule detours one hop south to n5 and goes on east
        // to n6, whose hop south is dead with no other productive
        // dimension: partitioned. A flight to the corner n9 went round.
        ("link n1 east\nlink n6 south\n", 0, 10, true),
        // Routed n2 -> n6 -> n5 -> n4 -> n8 by the one-hop rule; a
        // flight to the corner n10 met the stuck n9 and gave up there.
        (
            "link n15 west\nlink n1 west\nlink n4 north\nlink n14 west\n\
             link n7 south\nlink n2 west\nlink n5 south\nrouter n9\n",
            2,
            8,
            false,
        ),
    ];
    let mesh = Mesh::new(4, 4);
    for (text, src, dst, partitioned) in cases {
        let plan = FaultPlan::parse(text).expect("valid plan");
        let pair = (NodeId(src), NodeId(dst));
        let residual = residual_connectivity(mesh, &plan);
        assert_eq!(
            residual.partitioned.contains(&pair),
            partitioned,
            "static n{src}->n{dst} under\n{text}"
        );
        for net in NETS {
            let observed = undeliverable(net, mesh, &plan);
            assert_eq!(
                observed.contains(&pair),
                partitioned,
                "{net} n{src}->n{dst} under\n{text}"
            );
            assert_eq!(observed, residual.partitioned, "{net} under\n{text}");
        }
    }
}
