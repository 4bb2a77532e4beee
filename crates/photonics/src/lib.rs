//! Nanophotonic device, delay, optical power, and area models for the
//! Phastlane reproduction.
//!
//! This crate implements §3 of *Cianchetti, Kerekes, Albonesi, "Phastlane:
//! A Rapid Transit Optical Routing Network" (ISCA 2009)* — the router
//! design-space exploration that fixes the network configuration the
//! simulator crates then use:
//!
//! * [`scaling`] — optimistic/average/pessimistic technology-scaling fits
//!   for the optical transmit and receive chains (Figure 4);
//! * [`devices`] — waveguide, ring-resonator, modulator, and receiver
//!   models;
//! * [`wdm`] — packaging of the 80-byte single-flit packet onto payload
//!   and control waveguides (Table 1, Figure 3);
//! * [`delay`] — critical-path analysis of the router's internal
//!   operations and the max-hops-per-cycle solver (Figures 5 and 6);
//! * [`power`] — the peak optical power loss-budget model (Figure 7);
//! * [`area`] — the router area model and the 64-wavelength sweet spot
//!   (Figure 8).
//!
//! # Example
//!
//! Recomputing the paper's headline design-space result — 8, 5, and 4 hops
//! per 4 GHz cycle under optimistic, average, and pessimistic scaling:
//!
//! ```
//! use phastlane_photonics::delay::RouterDesign;
//! use phastlane_photonics::scaling::Scaling;
//!
//! let hops: Vec<u32> = Scaling::ALL
//!     .iter()
//!     .map(|&s| RouterDesign::paper(s).max_hops_per_cycle())
//!     .collect();
//! assert_eq!(hops, vec![8, 5, 4]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod area;
pub mod delay;
pub mod devices;
pub mod power;
pub mod scaling;
pub mod units;
pub mod wdm;

pub use delay::RouterDesign;
pub use scaling::Scaling;
pub use wdm::WdmConfig;
