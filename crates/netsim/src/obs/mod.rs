//! Observability: structured event traces, time-series metrics, and
//! run reports — zero-cost when disabled.
//!
//! The paper's congestion story (Figs. 9–11) lives in *where* and *when*
//! packets fall back to electrical buffers, overflow, and retransmit.
//! End-of-run aggregates cannot show that, so this module provides three
//! progressively heavier views:
//!
//! 1. [`event`] — a per-event structured trace ([`SimEvent`]) collected
//!    into a [`TraceBuffer`] (unbounded or ring mode) with severity
//!    filtering;
//! 2. [`metrics`] — interval-sampled time series ([`MetricsSeries`]):
//!    offered/accepted/delivered load, latency percentiles, buffer
//!    occupancy, drops and retries per sample window;
//! 3. [`report`] — a structured run report ([`RunReport`]) with a
//!    simulator performance profile ([`PerfProfile`]), exportable as
//!    JSON or CSV through the dependency-free [`json`] serializer.
//!
//! Live telemetry adds three more views on top:
//!
//! 4. [`phase`] — a [`PhaseProfiler`] attributing hot-loop time and
//!    work to the six per-cycle phases (route / arbitrate / traverse /
//!    eject / fault / drain), with batched wall-clock sampling, feeding
//!    a [`PhaseBreakdown`] into [`PerfProfile`] and `lab run --perf-out`;
//! 5. [`flight`] — a packet [`FlightRecorder`] capturing per-packet
//!    journeys (seeded sample + every Undeliverable packet) for
//!    post-mortem diagnosis, riding the same [`Obs::emit`] path as the
//!    trace buffer;
//! 6. [`sink`] — a bounded, backpressure-aware NDJSON [`EventSink`] the
//!    lab worker pool streams per-job lifecycle events through;
//! 7. [`fanout`] — a broadcast hub ([`EventFanout`]) multiplying one
//!    sink's NDJSON stream to any number of subscribers (each blocking
//!    on its own bounded queue, with its own drop accounting), the
//!    junction the `phastlane-serve` event endpoints hang off.
//!
//! # Cost model
//!
//! Networks own an [`Obs`] handle and a [`PhaseProfiler`] that are off
//! by default. Every emit/mark site compiles to one branch on an
//! `Option` discriminant when disabled; no event values are constructed
//! and no clock is read. Metric sampling lives in the harness, not the
//! per-cycle network loops, and only runs when a collector is attached.
//! The profiler amortizes `Instant::now()` by timing only every N-th
//! cycle (see [`phase`]); the flight recorder and trace buffer bound
//! memory via eviction caps.

pub mod event;
pub mod fanout;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod report;
pub mod sink;

pub use event::{EventKind, Obs, Severity, SimEvent, TraceBuffer};
pub use fanout::{EventFanout, FanoutClosed, FanoutSubscriber};
pub use flight::{FlightRecorder, FlightStep, Journey};
pub use metrics::{CycleTotals, MetricSample, MetricsCollector, MetricsSeries};
pub use phase::{Phase, PhaseBreakdown, PhaseProfiler};
pub use report::{PerfProfile, RunReport};
pub use sink::{EventSink, SinkReport, EVENT_SCHEMA_VERSION};
