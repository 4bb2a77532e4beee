//! Baseline electrical virtual-channel mesh network for the Phastlane
//! reproduction (the paper's modified-Booksim comparator, §4, Table 2).
//!
//! An aggressive 16 nm input-queued VC router: single-flit 80-byte
//! packets, 10 VCs per port with one entry each, iSLIP VC and switch
//! allocators, crossbar input speedup of 4, 2- or 3-cycle pipeline via
//! lookahead and speculation, ejection bypassing the crossbar, 50-entry
//! NIC buffering, and Virtual Circuit Tree Multicasting for broadcasts.
//!
//! * [`config`] — Table 2 parameters (`Electrical3`, `Electrical2`);
//! * [`islip`] — the iSLIP allocator;
//! * [`vctm`] — multicast tree construction over target bitmasks;
//! * [`network`] — the simulator, implementing
//!   [`phastlane_netsim::Network`];
//! * [`power`] — CACTI/Balfour-Dally-style energy accounting.
//!
//! # Example
//!
//! ```
//! use phastlane_electrical::{ElectricalConfig, ElectricalNetwork};
//! use phastlane_netsim::{Network, NewPacket, NodeId};
//!
//! let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
//! net.inject(NewPacket::unicast(NodeId(0), NodeId(9))).unwrap();
//! while net.in_flight() > 0 {
//!     net.step();
//! }
//! // Two hops at 3+1 cycles per hop, plus ejection.
//! assert_eq!(net.drain_deliveries()[0].latency(), 9);
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod config;
pub mod islip;
pub mod network;
pub mod power;
pub mod vctm;

pub use config::ElectricalConfig;
pub use network::ElectricalNetwork;

// Compile-time `Send` guarantee: the `phastlane-lab` scheduler runs
// whole networks on `std::thread` workers. A future `Rc`/raw-pointer
// refactor must fail right here at build time, not in the scheduler.
fn _assert_send<T: Send>() {}
const _: fn() = _assert_send::<ElectricalNetwork>;
const _: fn() = _assert_send::<ElectricalConfig>;
