//! Harness verification against the ideal network, where every expected
//! number can be computed by hand.

use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::harness::{
    run_synthetic, run_trace, Dep, MsgId, SyntheticOptions, Trace, TraceMessage, TraceOptions,
};
use phastlane_netsim::ideal::IdealNetwork;
use phastlane_netsim::packet::{DestSet, NewPacket, PacketKind};

fn ideal() -> IdealNetwork {
    IdealNetwork::new(Mesh::PAPER, 2, 1)
}

#[test]
fn synthetic_run_measures_exact_latency() {
    // One packet per cycle from node 0 to node 1: latency is exactly
    // base 2 + 1 hop = 3 on the ideal network.
    let mut net = ideal();
    let mut workload = |_cycle: u64| vec![NewPacket::unicast(NodeId(0), NodeId(1))];
    let opts = SyntheticOptions {
        warmup: 10,
        measure: 100,
        drain: 100,
    };
    let result = run_synthetic(&mut net, &mut workload, opts);
    assert_eq!(result.latency.mean(), Some(3.0));
    assert_eq!(result.latency.min(), Some(3));
    assert_eq!(result.latency.max(), 3);
    assert_eq!(result.unfinished, 0);
    // One packet per cycle over 64 nodes.
    assert!((result.offered_rate - 1.0 / 64.0).abs() < 1e-9);
    assert!((result.accepted_rate - result.offered_rate).abs() < 1e-9);
}

#[test]
fn synthetic_run_waits_for_every_destination_of_a_broadcast() {
    // One broadcast from node 0 every 10 cycles: the 10 inside the
    // measurement window owe 63 deliveries each, and the run is drained
    // — early — only once all 630 landed: the last one, sent at cycle
    // 100, reaches the far corner 2 + 14 cycles later. (Counting one per
    // packet, the first broadcast used to underflow the outstanding
    // count.)
    let mut net = ideal();
    let mut workload = |cycle: u64| {
        if cycle.is_multiple_of(10) {
            vec![NewPacket::broadcast(NodeId(0), PacketKind::ReadRequest)]
        } else {
            Vec::new()
        }
    };
    let opts = SyntheticOptions {
        warmup: 10,
        measure: 100,
        drain: 100,
    };
    let result = run_synthetic(&mut net, &mut workload, opts);
    assert_eq!(result.unfinished, 0);
    assert_eq!(result.latency.count(), 630);
    assert_eq!(result.perf.cycles, 100 + 2 + 14, "early exit");
}

#[test]
fn trace_chain_timing_is_exact() {
    // A three-message chain on the ideal network:
    //   m0: n0 -> n1 at earliest 5           (delivers at 5 + 3 = 8)
    //   m1: n1 -> n2, dep m0, think 4        (eligible 12, delivers 15)
    //   m2: n2 -> n0 (2 hops), dep m1, think 0 (eligible 15, delivers 19)
    let msg = |id, src, dst, earliest, deps: Vec<Dep>, think| TraceMessage {
        id: MsgId(id),
        src: NodeId(src),
        dests: DestSet::Unicast(NodeId(dst)),
        kind: PacketKind::Data,
        earliest,
        deps,
        think,
    };
    let trace = Trace {
        messages: vec![
            msg(0, 0, 1, 5, vec![], 0),
            msg(1, 1, 2, 0, vec![Dep::full(MsgId(0))], 4),
            msg(2, 2, 0, 0, vec![Dep::at(MsgId(1), NodeId(2))], 0),
        ],
    };
    let mut net = ideal();
    let r = run_trace(&mut net, &trace, TraceOptions::default());
    assert!(!r.timed_out);
    assert_eq!(r.completed, 3);
    assert_eq!(r.completion_cycle, 19);
}

#[test]
fn per_destination_dep_fires_before_full_delivery() {
    // m0 broadcasts from a corner; a dependent keyed on the *adjacent*
    // node becomes eligible long before the farthest copy lands.
    let trace = Trace {
        messages: vec![
            TraceMessage {
                id: MsgId(0),
                src: NodeId(0),
                dests: DestSet::Broadcast,
                kind: PacketKind::ReadRequest,
                earliest: 0,
                deps: vec![],
                think: 0,
            },
            TraceMessage {
                id: MsgId(1),
                src: NodeId(1),
                dests: DestSet::Unicast(NodeId(0)),
                kind: PacketKind::DataResponse,
                earliest: 0,
                deps: vec![Dep::at(MsgId(0), NodeId(1))],
                think: 0,
            },
        ],
    };
    let mut net = ideal();
    let r = run_trace(&mut net, &trace, TraceOptions::default());
    // m0 reaches n1 at cycle 3 (injected at 1 after the stall-queue
    // cycle, plus base 2 + 1 hop... measured: completion is bounded by
    // the farthest broadcast copy, 2 + 14 hops).
    assert!(!r.timed_out);
    assert_eq!(r.completed, 2);
    // The response (1 hop from n1 to n0) lands well before the broadcast
    // finishes at ~n63: completion equals the broadcast tail, not the
    // response.
    let broadcast_tail = 2 + 14;
    assert!(r.completion_cycle >= broadcast_tail);
    assert!(r.completion_cycle <= broadcast_tail + 3);
}

#[test]
fn self_send_message_completes_without_network() {
    let trace = Trace {
        messages: vec![
            TraceMessage {
                id: MsgId(0),
                src: NodeId(7),
                dests: DestSet::Unicast(NodeId(7)),
                kind: PacketKind::Writeback,
                earliest: 3,
                deps: vec![],
                think: 0,
            },
            TraceMessage {
                id: MsgId(1),
                src: NodeId(7),
                dests: DestSet::Unicast(NodeId(15)), // (7,1): one hop south of n7
                kind: PacketKind::Data,
                earliest: 0,
                deps: vec![Dep::full(MsgId(0))],
                think: 2,
            },
        ],
    };
    let mut net = ideal();
    let r = run_trace(&mut net, &trace, TraceOptions::default());
    assert!(!r.timed_out);
    assert_eq!(r.completed, 2);
    // m0 resolves at its earliest (3); m1 eligible at 5, injected, lands
    // 3 cycles later.
    assert_eq!(r.completion_cycle, 3 + 2 + 3);
}

#[test]
fn timeout_reported_when_trace_cannot_finish() {
    let trace = Trace {
        messages: vec![TraceMessage {
            id: MsgId(0),
            src: NodeId(0),
            dests: DestSet::Unicast(NodeId(1)),
            kind: PacketKind::Data,
            earliest: 1_000_000,
            deps: vec![],
            think: 0,
        }],
    };
    let mut net = ideal();
    let r = run_trace(&mut net, &trace, TraceOptions { max_cycles: 100 });
    assert!(r.timed_out);
    assert_eq!(r.completed, 0);
}

#[test]
fn trace_append_remaps_ids_and_offsets_time() {
    let mk = |id, src, dst, earliest, deps: Vec<Dep>| TraceMessage {
        id: MsgId(id),
        src: NodeId(src),
        dests: DestSet::Unicast(NodeId(dst)),
        kind: PacketKind::Data,
        earliest,
        deps,
        think: 0,
    };
    let mut a = Trace {
        messages: vec![
            mk(0, 0, 1, 0, vec![]),
            mk(1, 1, 2, 0, vec![Dep::full(MsgId(0))]),
        ],
    };
    let b = Trace {
        messages: vec![
            mk(0, 3, 4, 5, vec![]),
            mk(1, 4, 5, 0, vec![Dep::at(MsgId(0), NodeId(4))]),
        ],
    };
    a.append(&b, 100);
    assert_eq!(a.len(), 4);
    assert!(a.validate().is_ok(), "append preserves validity");
    // The appended messages got fresh ids and shifted times.
    assert_eq!(a.messages[2].id, MsgId(2));
    assert_eq!(a.messages[2].earliest, 105);
    assert_eq!(a.messages[3].deps[0].msg, MsgId(2));
    // And the composed trace actually replays.
    let mut net = ideal();
    let r = run_trace(&mut net, &a, TraceOptions::default());
    assert!(!r.timed_out);
    assert_eq!(r.completed, 4);
    assert_eq!(a.of_kind(PacketKind::Data).count(), 4);
}
