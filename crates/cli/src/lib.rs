//! `phastlane` — command-line interface to the Phastlane (ISCA 2009)
//! reproduction: run simulations, sweeps, trace workflows, and the §3
//! design-space models without writing Rust.
//!
//! The binary in `main.rs` is a thin wrapper; everything lives here so
//! integration tests can drive the real command path in-process.

#![warn(clippy::too_many_lines)]

pub mod analyze;
pub mod args;
mod chart;
pub mod commands;
mod figures;
pub mod lab;
mod report;
pub mod serve_cmd;
