//! `PhastlaneNetwork::step` allocates nothing in steady state, as long
//! as nothing is dropped: flights, plans, trails and the confirm scratch
//! are pooled, target lists of up to eight nodes sit inline, and the
//! busy-router worklist is a bitmask updated in place. (A dropped packet
//! builds its `ReturnPath`, which does allocate; and the pools grow
//! lazily on first use, hence the long warm-up — after 200 cycles this
//! mix still counts some forty first-time growths.) This binary holds
//! this one test, so its counting allocator sees no other test's
//! traffic. It counts in release builds only, where CI's release test
//! step runs it: `launch`'s debug assertions encode every plan's
//! control bits into a fresh `Vec`.

use phastlane_core::{PhastlaneConfig, PhastlaneNetwork};
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

const WARM_UP: u64 = 2_000;
const COUNTED: u64 = 500;

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions in launch() allocate")]
fn drop_free_steady_state_step_allocates_nothing() {
    let nodes = Mesh::PAPER.nodes() as u16;
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut rng = SimRng::seed_from_u64(0x0091_A10C);
    let mut deliveries = Vec::new();
    let mut delivered = 0;
    for cycle in 0..WARM_UP + COUNTED {
        // Uniform unicast, 0.05 packets per node per cycle.
        for src in 0..nodes {
            if rng.gen_bool(0.05) {
                let dst = (src + rng.gen_range(1..nodes)) % nodes;
                net.inject(NewPacket::unicast(NodeId(src), NodeId(dst)));
            }
        }
        IN_STEP.with(|c| c.set(cycle >= WARM_UP));
        net.step();
        IN_STEP.with(|c| c.set(false));
        net.drain_deliveries_into(&mut deliveries);
        delivered += deliveries.len();
        deliveries.clear();
    }
    assert!(delivered > 7_000, "the mix kept the mesh busy: {delivered}");
    assert_eq!(net.stats().dropped, 0, "the claim is for drop-free cycles");
    assert_eq!(
        ALLOCATIONS_IN_STEP.load(Ordering::Relaxed),
        0,
        "heap allocations inside {COUNTED} steady-state step() calls"
    );
}
