//! Shared cycle-accurate network-simulation substrate for the Phastlane
//! reproduction.
//!
//! This crate contains everything the optical (`phastlane-core`) and
//! electrical (`phastlane-electrical`) simulators have in common, so that
//! experiments can drive either through one interface:
//!
//! * [`geometry`] — 2D mesh, nodes, directions, ports;
//! * [`routing`] — dimension-order (XY) routing and turn classification;
//! * [`packet`] — single-flit 80-byte packets, destination sets,
//!   deliveries;
//! * [`nic`] — the 50-entry network-interface buffer;
//! * [`ecc`] — SECDED protection for the 64-byte payload;
//! * [`fault`] — deterministic fault injection (dead links, stuck
//!   routers, laser droop, bit errors) and terminal delivery failures;
//! * [`ledger`] — the per-destination delivery accounting both
//!   simulators share: it issues the consecutive packet ids and keeps
//!   owed copies, deliveries and terminal failures;
//! * [`mask`] — 256-node bitsets for multicast target tracking;
//! * [`network`] — the [`network::Network`] trait;
//! * [`ideal`] — a contention-free reference network (lower bound and
//!   harness fixture);
//! * [`harness`] — open-loop synthetic runs and dependency-aware trace
//!   replay;
//! * [`stats`] — latency/energy accounting;
//! * [`rng`] — the in-tree deterministic PRNG (no external crates);
//! * [`obs`] — the observability layer: event traces, time-series
//!   metrics, structured run reports.
//!
//! # Example
//!
//! Routing a packet across the paper's 8x8 mesh:
//!
//! ```
//! use phastlane_netsim::geometry::{Mesh, NodeId};
//! use phastlane_netsim::routing::xy_route;
//!
//! let mesh = Mesh::PAPER;
//! let route = xy_route(mesh, NodeId(0), NodeId(63));
//! assert_eq!(route.len(), 14); // corner to corner
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod ecc;
pub mod fault;
pub mod geometry;
pub mod harness;
pub mod ideal;
mod idwindow;
pub mod ledger;
pub mod mask;
pub mod network;
pub mod nic;
pub mod obs;
pub mod packet;
pub mod rng;
pub mod routing;
pub mod stats;
pub mod telemetry;
pub mod watchdog;

pub use fault::{FailedDelivery, Fault, FaultKind, FaultPlan};
pub use geometry::{Direction, Mesh, NodeId, Port};
pub use network::Network;
pub use packet::{Delivery, DestSet, NewPacket, PacketId, PacketKind};
pub use watchdog::{CancelToken, Interrupt, Watchdog};

// Compile-time `Send` guarantees: everything the `phastlane-lab`
// worker-pool scheduler moves to (or builds on) worker threads must be
// `Send`, and a future `Rc`/raw-pointer refactor must fail right here
// at build time instead of breaking the scheduler. The two concrete
// `Network` impls assert the same in their own crates.
fn _assert_send<T: Send>() {}
const _: fn() = _assert_send::<ideal::IdealNetwork>;
const _: fn() = _assert_send::<fault::FaultPlan>;
const _: fn() = _assert_send::<harness::Trace>;
const _: fn() = _assert_send::<harness::SyntheticResult>;
const _: fn() = _assert_send::<harness::TraceResult>;
const _: fn() = _assert_send::<obs::TraceBuffer>;
const _: fn() = _assert_send::<obs::PhaseProfiler>;
const _: fn() = _assert_send::<obs::PhaseBreakdown>;
const _: fn() = _assert_send::<obs::FlightRecorder>;
const _: fn() = _assert_send::<rng::SimRng>;
const _: fn() = _assert_send::<watchdog::Watchdog>;
// The progress sink is *shared* across worker threads, so it must be
// `Sync` as well.
fn _assert_sync<T: Sync>() {}
const _: fn() = _assert_sync::<obs::EventSink>;
const _: fn() = _assert_send::<obs::EventSink>;
// The cancellation token is shared between the supervisor and every
// worker it guards.
const _: fn() = _assert_sync::<watchdog::CancelToken>;
const _: fn() = _assert_send::<watchdog::CancelToken>;
