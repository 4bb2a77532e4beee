//! Umbrella crate for the Phastlane reproduction workspace.
//!
//! This crate only re-exports the member crates so that the workspace-level
//! integration tests (`tests/`) and examples (`examples/`) have a single
//! dependency surface. All functionality lives in the member crates:
//!
//! - [`photonics`] — device/technology models (paper §3)
//! - [`netsim`] — shared cycle-accurate simulation substrate
//! - [`traffic`] — synthetic patterns and SPLASH2-style coherence traces
//! - [`optical`] — the Phastlane optical network (paper §2)
//! - [`electrical`] — the baseline electrical virtual-channel network

#![warn(clippy::too_many_lines)]

pub use phastlane_core as optical;
pub use phastlane_electrical as electrical;
pub use phastlane_netsim as netsim;
pub use phastlane_photonics as photonics;
pub use phastlane_traffic as traffic;
