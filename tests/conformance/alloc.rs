//! Heap allocations inside the hot calls, counted per network under one
//! counting `GlobalAlloc`. The flag and the counter are thread-local,
//! so cases running in parallel on libtest's threads never count each
//! other (nor the kit's other tests).

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::rng::SimRng;
use phastlane_repro::netsim::{Mesh, Network, NewPacket, NodeId, PacketKind};
use phastlane_repro::optical::{PhastlaneConfig, PhastlaneNetwork};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Set on a case's thread around each counted call.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations and reallocations made on this thread while counting.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note() {
        if COUNTING.with(Cell::get) {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the const-
// initialised, destructor-free thread-locals allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the heap allocations it made on
/// this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, COUNT.with(Cell::get) - before)
}

/// Steps `net` `warm_up + counted` cycles, offering `traffic`'s packets
/// before each, and returns the deliveries and the heap allocations
/// inside the last `counted` `step()` calls.
fn steady_state_step(
    net: &mut dyn Network,
    (warm_up, counted_steps): (u64, u64),
    mut traffic: impl FnMut(&mut dyn Network),
) -> (usize, u64) {
    let (mut deliveries, mut delivered, mut allocations) = (Vec::new(), 0, 0);
    for cycle in 0..warm_up + counted_steps {
        traffic(net);
        if cycle < warm_up {
            net.step();
        } else {
            allocations += counted(|| net.step()).1;
        }
        net.drain_deliveries_into(&mut deliveries);
        delivered += deliveries.len();
        deliveries.clear();
    }
    (delivered, allocations)
}

/// `PhastlaneNetwork::step` allocates nothing in steady state, as long
/// as nothing is dropped: flights, plans, trails and the confirm scratch
/// are pooled, target lists of up to eight nodes sit inline, and the
/// busy-router worklist is a bitmask updated in place. (A dropped packet
/// builds its `ReturnPath`, which does allocate; and the pools grow
/// lazily on first use, hence the long warm-up — after 200 cycles this
/// mix still counts some forty first-time growths.) It counts in release
/// builds only, where CI's release test step runs it: `launch`'s debug
/// assertions encode every plan's control bits into a fresh `Vec`.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions in launch() allocate")]
fn optical_drop_free_steady_state_step_allocates_nothing() {
    let nodes = Mesh::PAPER.nodes() as u16;
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut rng = SimRng::seed_from_u64(0x0091_A10C);
    // Uniform unicast, 0.05 packets per node per cycle; 2 000 cycles of
    // warm-up, then 500 counted ones.
    let (delivered, allocations) = steady_state_step(&mut net, (2_000, 500), |net| {
        for src in 0..nodes {
            if rng.gen_bool(0.05) {
                let dst = (src + rng.gen_range(1..nodes)) % nodes;
                net.inject(NewPacket::unicast(NodeId(src), NodeId(dst)));
            }
        }
    });
    assert!(delivered > 7_000, "the mix kept the mesh busy: {delivered}");
    assert_eq!(net.stats().dropped, 0, "the claim is for drop-free cycles");
    assert_eq!(allocations, 0, "in 500 steady-state step() calls");
}

const COUNTED: u64 = 1_000;

/// One round: every source broadcasts until its NIC refuses (or the
/// budget of counted injections runs out), then the mesh steps until
/// every packet is delivered. Returns `(accepted, refused, allocations)`,
/// the last counted inside the `inject` calls.
fn round(net: &mut PhastlaneNetwork, count: bool, budget: &mut u64) -> (u64, u64, u64) {
    let (mut accepted, mut refused, mut allocations) = (0, 0, 0);
    'sources: for src in 0..net.mesh().nodes() as u16 {
        loop {
            if count && *budget == 0 {
                break 'sources;
            }
            let packet = NewPacket::broadcast(NodeId(src), PacketKind::Invalidate);
            let id = if count {
                let (id, n) = counted(|| net.inject(packet));
                allocations += n;
                id
            } else {
                net.inject(packet)
            };
            *budget -= u64::from(count);
            if id.is_none() {
                refused += 1;
                break;
            }
            accepted += 1;
        }
    }
    let mut deliveries = Vec::new();
    for _ in 0..20_000 {
        if net.in_flight() == 0 {
            break;
        }
        net.step();
        net.drain_deliveries_into(&mut deliveries);
        deliveries.clear();
    }
    assert_eq!(net.in_flight(), 0, "the mesh drains between rounds");
    (accepted, refused, allocations)
}

/// A broadcast injection allocates nothing once its source has
/// broadcast before: the column split is memoised per source, so an
/// accepted broadcast copies its inline target lists into NIC entries
/// and a refused one costs a capacity test. Rounds of "every source
/// broadcasts until its NIC refuses, then the mesh drains" repeat the
/// same NIC occupancies and the same packet-id span, so after the first
/// round neither a NIC queue nor the delivery ledger grows. Only the
/// `inject` calls are counted, never `step`.
#[test]
fn optical_broadcast_inject_allocates_nothing_after_each_sources_first_broadcast() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut budget = COUNTED;
    // The warm-up round: each source's first broadcast, and the NIC
    // queues and the ledger's id window at their largest.
    let (warm, _, _) = round(&mut net, false, &mut budget);
    assert!(warm >= 64, "every source broadcast at least once");
    let (mut accepted, mut refused, mut allocations) = (0, 0, 0);
    while budget > 0 {
        let (a, r, n) = round(&mut net, true, &mut budget);
        (accepted, refused, allocations) = (accepted + a, refused + r, allocations + n);
    }
    assert_eq!(accepted + refused, COUNTED);
    assert!(
        accepted > 500 && refused > 150,
        "{accepted} accepted, {refused} refused"
    );
    assert_eq!(
        allocations, 0,
        "heap allocations inside {COUNTED} broadcast inject() calls"
    );
}

/// `ElectricalNetwork::step` allocates nothing in steady state: flits
/// are `Copy` values in a flat slot array, the allocators work on masks
/// and fixed arrays, and the per-cycle link and credit buffers are
/// drained in place.
#[test]
fn electrical_steady_state_step_allocates_nothing() {
    let nodes = Mesh::PAPER.nodes() as u16;
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let mut rng = SimRng::seed_from_u64(0x00E1_EC07);
    // Rate 0.1 per node, one packet in ten a broadcast; 200 cycles of
    // warm-up, then 500 counted ones.
    let (delivered, allocations) = steady_state_step(&mut net, (200, 500), |net| {
        for src in 0..nodes {
            if !rng.gen_bool(0.1) {
                continue;
            }
            net.inject(if rng.gen_range(0u8..10) == 0 {
                NewPacket::broadcast(NodeId(src), PacketKind::Invalidate)
            } else {
                let dst = (src + rng.gen_range(1..nodes)) % nodes;
                NewPacket::unicast(NodeId(src), NodeId(dst))
            });
        }
    });
    assert!(delivered > 10_000, "the mix kept the mesh busy");
    assert_eq!(allocations, 0, "in 500 steady-state step() calls");
}
