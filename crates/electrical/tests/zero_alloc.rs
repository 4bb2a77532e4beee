//! `ElectricalNetwork::step` allocates nothing in steady state: flits
//! are `Copy` values in a flat slot array, the allocators work on masks
//! and fixed arrays, and the per-cycle link and credit buffers are
//! drained in place. This binary holds this one test, so its counting
//! allocator sees no other test's traffic.

use phastlane_electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_netsim::packet::PacketKind;
use phastlane_netsim::rng::SimRng;
use phastlane_netsim::{Mesh, Network, NewPacket, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the test's thread around each `step()` call.
    static IN_STEP: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS_IN_STEP: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter
// and the const-initialised, destructor-free thread-local allocate
// nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if IN_STEP.with(Cell::get) {
            ALLOCATIONS_IN_STEP.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if IN_STEP.with(Cell::get) {
            ALLOCATIONS_IN_STEP.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_step_allocates_nothing() {
    let mesh = Mesh::PAPER;
    let nodes = mesh.nodes() as u16;
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let mut rng = SimRng::seed_from_u64(0x00E1_EC07);
    let mut deliveries = Vec::new();
    let mut delivered = 0;
    for cycle in 0..700 {
        // Rate 0.1 per node, one packet in ten a broadcast.
        for src in 0..nodes {
            if !rng.gen_bool(0.1) {
                continue;
            }
            let packet = if rng.gen_range(0u8..10) == 0 {
                NewPacket::broadcast(NodeId(src), PacketKind::Invalidate)
            } else {
                let dst = (src + rng.gen_range(1..nodes)) % nodes;
                NewPacket::unicast(NodeId(src), NodeId(dst))
            };
            net.inject(packet);
        }
        // 200 cycles of warm-up, then 500 counted ones.
        IN_STEP.with(|c| c.set(cycle >= 200));
        net.step();
        IN_STEP.with(|c| c.set(false));
        net.drain_deliveries_into(&mut deliveries);
        delivered += deliveries.len();
        deliveries.clear();
    }
    assert!(
        delivered > 10_000,
        "the mix kept the mesh busy: {delivered}"
    );
    assert_eq!(
        ALLOCATIONS_IN_STEP.load(Ordering::Relaxed),
        0,
        "heap allocations inside 500 steady-state step() calls"
    );
}
