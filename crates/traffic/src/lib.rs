//! Workload generation for the Phastlane reproduction: the synthetic
//! patterns of Figure 9 and the SPLASH2-style coherence traces of
//! Figures 10 and 11.
//!
//! * [`patterns`] — bit-permutation traffic patterns (bit complement,
//!   bit reverse, shuffle, transpose, …);
//! * [`synthetic`] — open-loop Bernoulli injection over a pattern;
//! * [`coherence`] — statistical snoopy-coherence trace synthesis (the
//!   SESC substitute; see `DESIGN.md`);
//! * [`cache`] / [`cachegen`] — Table 4 set-associative cache hierarchy
//!   and the cache-accurate trace generator built on it;
//! * [`splash2`] — calibrated per-benchmark profiles for Table 3;
//! * [`codec`] — a plain-text trace file format.
//!
//! # Example
//!
//! Generate the Ocean trace and inspect its message mix:
//!
//! ```
//! use phastlane_netsim::geometry::Mesh;
//! use phastlane_traffic::coherence::{generate_trace, summarize};
//! use phastlane_traffic::splash2;
//!
//! let mut profile = splash2::benchmark("Ocean").expect("known benchmark");
//! profile.misses_per_core = 10; // trim for the example
//! let trace = generate_trace(Mesh::PAPER, &profile);
//! let mix = summarize(&trace);
//! assert_eq!(mix.requests, 64 * 10);
//! assert_eq!(mix.responses, 64 * 10);
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod cache;
pub mod cachegen;
pub mod codec;
pub mod coherence;
pub mod patterns;
pub mod splash2;
pub mod synthetic;

pub use coherence::BenchmarkProfile;
pub use patterns::Pattern;
pub use synthetic::BernoulliTraffic;

// Compile-time `Send` guarantee: the `phastlane-lab` scheduler builds
// and drives workloads on `std::thread` workers. A future `Rc`/raw-
// pointer refactor must fail right here at build time, not there.
fn _assert_send<T: Send>() {}
const _: fn() = _assert_send::<BernoulliTraffic>;
const _: fn() = _assert_send::<Pattern>;
const _: fn() = _assert_send::<BenchmarkProfile>;
const _: fn() = _assert_send::<cachegen::CacheWorkload>;
