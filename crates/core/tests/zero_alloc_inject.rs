//! A broadcast injection allocates nothing once its source has
//! broadcast before: the column split is memoised per source, so an
//! accepted broadcast copies its inline target lists into NIC entries
//! and a refused one costs a capacity test. Rounds of "every source
//! broadcasts until its NIC refuses, then the mesh drains" repeat the
//! same NIC occupancies and the same packet-id span, so after the first
//! round neither a NIC queue nor the delivery ledger grows. This binary
//! holds this one test, so its counting allocator sees no other test's
//! traffic; only the `inject` calls are counted, never `step`.

use phastlane_core::{PhastlaneConfig, PhastlaneNetwork};
use phastlane_netsim::{DestSet, Network, NewPacket, NodeId, PacketKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the test's thread around each counted `inject()` call.
    static IN_INJECT: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS_IN_INJECT: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter
// and the const-initialised, destructor-free thread-local allocate
// nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if IN_INJECT.with(Cell::get) {
            ALLOCATIONS_IN_INJECT.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if IN_INJECT.with(Cell::get) {
            ALLOCATIONS_IN_INJECT.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const COUNTED: u64 = 1_000;

/// One round: every source broadcasts until its NIC refuses (or the
/// budget of counted injections runs out), then the mesh steps until
/// every packet is delivered. Returns `(accepted, refused)`.
fn round(net: &mut PhastlaneNetwork, counted: bool, budget: &mut u64) -> (u64, u64) {
    let (mut accepted, mut refused) = (0, 0);
    'sources: for src in 0..net.mesh().nodes() as u16 {
        loop {
            if counted && *budget == 0 {
                break 'sources;
            }
            let packet = NewPacket {
                src: NodeId(src),
                dests: DestSet::Broadcast,
                kind: PacketKind::Invalidate,
            };
            IN_INJECT.with(|c| c.set(counted));
            let id = net.inject(packet);
            IN_INJECT.with(|c| c.set(false));
            *budget -= u64::from(counted);
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
    (accepted, refused)
}

#[test]
fn broadcast_inject_allocates_nothing_after_each_sources_first_broadcast() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut budget = COUNTED;
    // The warm-up round: each source's first broadcast, and the NIC
    // queues and the ledger's id window at their largest.
    let (warm, _) = round(&mut net, false, &mut budget);
    assert!(warm >= 64, "every source broadcast at least once");
    let (mut accepted, mut refused) = (0, 0);
    while budget > 0 {
        let (a, r) = round(&mut net, true, &mut budget);
        accepted += a;
        refused += r;
    }
    assert_eq!(accepted + refused, COUNTED);
    assert!(
        accepted > 500 && refused > 150,
        "{accepted} accepted, {refused} refused"
    );
    assert_eq!(
        ALLOCATIONS_IN_INJECT.load(Ordering::Relaxed),
        0,
        "heap allocations inside {COUNTED} broadcast inject() calls"
    );
}
