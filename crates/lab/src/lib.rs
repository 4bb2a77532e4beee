//! Declarative experiment orchestration for the Phastlane reproduction.
//!
//! The paper's evaluation (§4, Figures 9–11) is a grid of runs: injection
//! -rate sweeps per pattern per network, SPLASH2 replays, fault ablations
//! — dozens of independent simulations. This crate turns that grid into a
//! first-class artifact:
//!
//! * [`spec`] — a hand-rolled, dependency-free scenario-spec format
//!   ([`LabSpec`]) describing a matrix of runs (networks × patterns ×
//!   injection rates × fault intensities × seed replicas, plus optional
//!   SPLASH2 replay jobs), expanded into an ordered job list;
//! * [`runner`] — builds a network by name and executes one job
//!   end-to-end on the current thread, under `catch_unwind`, so one
//!   crashing simulation records a terminal `panicked` outcome instead
//!   of killing the sweep;
//! * [`scheduler`] — fans the job list out over a `std::thread` worker
//!   pool. Every job's RNG seed is derived from the spec seed and the
//!   job's matrix index via [`phastlane_netsim::rng::SimRng`], never
//!   from thread scheduling, and results are collected by job index, so
//!   a run with 8 workers is **byte-identical** to a serial run;
//! * [`report`] — aggregates per-job results into a [`LabReport`] whose
//!   canonical JSON contains no wall-clock data (diffable across
//!   machines), with the perf profile (total wall time, aggregate
//!   simulated cycles/sec, parallel speedup vs. one worker) exported
//!   separately;
//! * [`baseline`] — a named baseline store (`results/baselines/*.json`)
//!   and the regression gate: [`baseline::compare`] diffs a fresh run
//!   against a recorded baseline and reports regressions in mean/p99
//!   latency and saturation rate — the deterministic metrics — beyond
//!   configurable tolerances;
//! * [`journal`] — an append-only NDJSON checkpoint of finished jobs;
//!   `lab run --resume` replays it and re-runs only the remainder,
//!   byte-identical to an uninterrupted run;
//! * [`store`] — atomic (temp+rename) writes and checksummed reads for
//!   durable artifacts, with quarantine for corrupt files.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod baseline;
pub mod journal;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod spec;
pub mod store;

pub use baseline::Tolerances;
pub use report::{GroupSaturation, JobRecord, LabReport};
pub use scheduler::{run_lab, run_lab_with};
pub use spec::{derive_seed, JobSpec, LabSpec, Work};
