//! Static verification of Phastlane network configurations.
//!
//! Everything in this crate runs *before* cycle 0: it reasons about the
//! topology, the routing function, the photonic loss budget, and a
//! fault plan without simulating a single packet. The point is to turn
//! slow dynamic failures (a deadlocked matrix cell, a job that retries
//! to its cap and reports `Undeliverable`, a laser that can no longer
//! close one hop) into fast static verdicts with concrete evidence —
//! a minimal channel-dependency cycle, an exact partitioned pair set,
//! an effective-hop count of zero.
//!
//! Modules:
//!
//! * [`cdg`] — channel-dependency-graph construction and the
//!   Dally–Seitz acyclicity check, with a minimal witness cycle when it
//!   fails.
//! * [`reach`] — per-pair reachability under worst-case faults and the
//!   optical envelope (effective hops under laser droop).
//! * [`lablint`] — `.lab` spec lint and the `lab run --preflight` gate.
//! * [`srclint`] — determinism-hygiene lint over the workspace sources.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod cdg;
pub mod lablint;
pub mod reach;
pub mod srclint;

pub use cdg::{Cdg, Channel, Walk};
pub use lablint::{lint_spec, preflight, Level, SpecFinding};
pub use reach::{optical_envelope, residual_connectivity, OpticalEnvelope, Residual};
pub use srclint::{scan_workspace, SrcFinding};
