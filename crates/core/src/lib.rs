//! # Phastlane: a rapid transit optical routing network
//!
//! A cycle-accurate simulator of the Phastlane hybrid electrical/optical
//! on-chip network (*Cianchetti, Kerekes, Albonesi — ISCA 2009*).
//!
//! Phastlane is a 2D mesh of optical crossbar switches for cache-coherent
//! multicores. Packets carry *predecoded source routing* bits optically
//! alongside the data (two control waveguides, 14 groups of five bits),
//! letting an unblocked packet transit up to 4–8 routers in a single
//! 4 GHz cycle. On contention, the loser is received into electrical
//! buffers; when those are full the packet is dropped and the source is
//! notified within one cycle over a dedicated optical return path, then
//! backs off and retransmits. Broadcasts decompose into up to 16
//! column-multicast messages whose en-route routers tap a fraction of the
//! optical power.
//!
//! Modules:
//!
//! * [`config`] — Table 1 configurations (`Optical4`, `Optical4B32`, …);
//! * [`control`] — the C0/C1 control-waveguide encoding (Figure 3);
//! * [`channels`] — bit-to-(waveguide, wavelength) assignment (Figure 2);
//! * [`plan`] — per-cycle flight plans (segments, taps, interim stops);
//! * [`multicast`] — broadcast decomposition into column messages;
//! * [`router`] — electrical buffers and the rotating-priority order;
//! * [`network`] — the simulator, implementing
//!   [`phastlane_netsim::Network`];
//! * [`power`] — optical + electrical energy accounting.
//!
//! # Example
//!
//! Send one packet corner to corner and watch it arrive:
//!
//! ```
//! use phastlane_core::{PhastlaneConfig, PhastlaneNetwork};
//! use phastlane_netsim::{Network, NewPacket, NodeId};
//!
//! let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
//! net.inject(NewPacket::unicast(NodeId(0), NodeId(63))).unwrap();
//! while net.in_flight() > 0 {
//!     net.step();
//! }
//! let deliveries = net.drain_deliveries();
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].dest, NodeId(63));
//! // 14 hops at 4 hops/cycle: four launch cycles.
//! assert!(deliveries[0].latency() <= 8);
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod channels;
pub mod config;
pub mod control;
pub mod dropnet;
pub mod multicast;
pub mod network;
pub mod plan;
pub mod policies;
pub mod power;
pub mod router;

pub use config::{BackoffPolicy, BufferDepth, PhastlaneConfig};
pub use network::PhastlaneNetwork;
pub use policies::{ArbitrationPolicy, PathPriority};

/// Version tag for the hot-path data layout (flight arena, parked
/// launch entries, arbitrable bitmask, busy-router worklist with no
/// per-router rotation pointer). The perf ledger (`benchmark/`)
/// stamps it into `results.json` so a perf number is attributable to
/// the layout that produced it; bump when the per-cycle memory layout
/// changes.
pub const ARENA_LAYOUT: &str = "soa-v3";

// Compile-time `Send` guarantee: the `phastlane-lab` scheduler runs
// whole networks on `std::thread` workers. A future `Rc`/raw-pointer
// refactor must fail right here at build time, not in the scheduler.
fn _assert_send<T: Send>() {}
const _: fn() = _assert_send::<PhastlaneNetwork>;
const _: fn() = _assert_send::<PhastlaneConfig>;
