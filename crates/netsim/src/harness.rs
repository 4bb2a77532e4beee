//! Workload harnesses: open-loop synthetic traffic and closed-loop trace
//! replay with inter-message dependencies.
//!
//! The paper evaluates both ways (§4): synthetic injection-rate sweeps for
//! latency/saturation curves (Figure 9), and SPLASH2 traces for network
//! speedup and power (Figures 10 and 11). Trace replay here is
//! *dependency-aware*: a response message only becomes eligible once the
//! request it answers was delivered, so a faster network finishes the
//! trace sooner — which is what "network speedup" measures.
//!
//! Both kinds run the same way: a drive (`SyntheticDrive`, `TraceDrive`)
//! with `new` / `done` / `tick` / `finish`, each embedding one `Stepper`
//! that owns what a cycle costs whatever the workload — the network
//! step and its drained deliveries and failures, the metrics-window
//! close, the watchdog, the wall clock. A drive adds only what to
//! inject this cycle and what a delivery means.

use crate::fault::FailedDelivery;
use crate::geometry::NodeId;
use crate::idwindow::IdWindow;
use crate::network::Network;
use crate::obs::{CycleTotals, MetricsCollector, PerfProfile};
use crate::packet::{Delivery, DestSet, NewPacket, PacketId, PacketKind};
use crate::stats::{EnergyReport, LatencyStats};
use crate::watchdog::{Interrupt, Watchdog};
use std::cmp::Reverse;
#[expect(clippy::disallowed_types, reason = "lookup-only: never iterated")]
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Open-loop synthetic traffic
// ---------------------------------------------------------------------------

/// A source of synthetic traffic: called once per cycle, returns the
/// packets generated that cycle (possibly none).
pub trait SyntheticWorkload {
    /// Packets generated in `cycle`.
    fn generate(&mut self, cycle: u64) -> Vec<NewPacket>;

    /// Appends this cycle's packets to `out` instead of returning a
    /// fresh allocation. The harness calls this once per cycle with a
    /// reused buffer; workloads with a hand-rolled generator should
    /// override it (the default falls back to [`generate`](Self::generate)).
    fn generate_into(&mut self, cycle: u64, out: &mut Vec<NewPacket>) {
        out.append(&mut self.generate(cycle));
    }
}

impl<F: FnMut(u64) -> Vec<NewPacket>> SyntheticWorkload for F {
    fn generate(&mut self, cycle: u64) -> Vec<NewPacket> {
        self(cycle)
    }
}

/// Result of an open-loop run.
#[derive(Debug, Clone)]
pub struct SyntheticResult {
    /// Latency (generation to delivery, per destination) of packets
    /// generated during the measurement window.
    pub latency: LatencyStats,
    /// Packets generated per node per cycle during measurement.
    pub offered_rate: f64,
    /// Packets accepted into NICs per node per cycle during measurement.
    pub accepted_rate: f64,
    /// Deliveries per node per cycle during measurement.
    pub delivered_rate: f64,
    /// Energy spent during the measurement window.
    pub energy: EnergyReport,
    /// Number of measured packets still undelivered when the run ended
    /// (non-zero means the network was saturated).
    pub unfinished: u64,
    /// Per-destination deliveries the network terminally gave up on
    /// (retry cap under a fault plan). These count as *resolved* — they
    /// no longer block drain — but not as delivered.
    pub undeliverable: u64,
    /// Set when a [`Watchdog`] stopped the run early; the counters above
    /// then describe the partial run up to the interrupt.
    pub interrupt: Option<Interrupt>,
    /// Simulator throughput over the whole run (warmup + measure + drain).
    pub perf: PerfProfile,
}

/// Options for [`run_synthetic`].
#[derive(Debug, Clone, Copy)]
pub struct SyntheticOptions {
    /// Cycles to run before measuring (network warm-up).
    pub warmup: u64,
    /// Cycles of the measurement window.
    pub measure: u64,
    /// Extra cycles allowed to drain measured packets after generation
    /// stops.
    pub drain: u64,
}

impl Default for SyntheticOptions {
    fn default() -> Self {
        SyntheticOptions {
            warmup: 1_000,
            measure: 4_000,
            drain: 8_000,
        }
    }
}

/// Runs a synthetic workload against a network.
///
/// Generated packets that do not fit in their NIC are held in an unbounded
/// per-source queue (the "source queue"); latency is measured from
/// *generation*, so source queueing delay is included — this is what makes
/// latency diverge at saturation.
pub fn run_synthetic<N: Network + ?Sized, W: SyntheticWorkload>(
    net: &mut N,
    workload: &mut W,
    opts: SyntheticOptions,
) -> SyntheticResult {
    run_synthetic_guarded(net, workload, opts, None, None)
}

/// [`run_synthetic`] with an optional time-series metrics collector.
///
/// When `metrics` is given, the harness feeds it per-cycle offered,
/// accepted, and NIC-rejection counts plus every delivery's latency, and
/// closes sample windows on the collector's interval (cycle numbers are
/// relative to the start of the run). The collector's network-counter
/// snapshots (`dropped`, `retransmitted`, occupancy) are only queried on
/// window boundaries, so sampling adds no per-cycle cost beyond a few
/// counter increments.
pub fn run_synthetic_observed<N: Network + ?Sized, W: SyntheticWorkload>(
    net: &mut N,
    workload: &mut W,
    opts: SyntheticOptions,
    metrics: Option<&mut MetricsCollector>,
) -> SyntheticResult {
    run_synthetic_guarded(net, workload, opts, metrics, None)
}

/// [`run_synthetic_observed`] with an optional [`Watchdog`]: the drive
/// stops at the first interrupt and records the verdict in
/// [`SyntheticResult::interrupt`].
pub fn run_synthetic_guarded<N: Network + ?Sized, W: SyntheticWorkload>(
    net: &mut N,
    workload: &mut W,
    opts: SyntheticOptions,
    mut metrics: Option<&mut MetricsCollector>,
    watchdog: Option<Watchdog>,
) -> SyntheticResult {
    let mut drive = SyntheticDrive::new(net, opts, watchdog);
    while !drive.done() {
        drive.tick(net, workload, metrics.as_deref_mut());
    }
    drive.finish(net, metrics)
}

/// The cumulative counters and gauges a metrics window closes on.
fn cycle_totals<N: Network + ?Sized>(net: &N) -> CycleTotals {
    CycleTotals::from_stats(&net.stats(), net.in_flight() as u64, net.buffer_occupancy())
}

/// What both drives do every cycle whatever the workload: keep the
/// clock, step the network and collect what it resolved, close the
/// metrics window, ask the watchdog, and time the whole run.
struct Stepper {
    wall_start: Instant,
    base_cycle: u64,
    /// Cycles simulated so far.
    rel: u64,
    /// What the last simulated cycle delivered and terminally gave up
    /// on, in drain order; reused across the whole run.
    deliveries: Vec<Delivery>,
    failures: Vec<FailedDelivery>,
    watchdog: Option<Watchdog>,
    interrupt: Option<Interrupt>,
}

impl Stepper {
    /// Starts the wall clock at `net`'s current cycle. An unarmed
    /// watchdog is dropped, so the supervision cost without one is a
    /// single branch per cycle.
    #[expect(
        clippy::disallowed_methods,
        reason = "run wall_seconds for the perf layer; excluded from the canonical report"
    )]
    fn new<N: Network + ?Sized>(net: &N, watchdog: Option<Watchdog>) -> Self {
        Stepper {
            wall_start: Instant::now(),
            base_cycle: net.cycle(),
            rel: 0,
            deliveries: Vec::new(),
            failures: Vec::new(),
            watchdog: watchdog.filter(Watchdog::is_armed),
            interrupt: None,
        }
    }

    /// Simulates one cycle and drains its deliveries and failures into
    /// the two buffers.
    fn advance<N: Network + ?Sized>(&mut self, net: &mut N) {
        net.step();
        self.rel = net.cycle() - self.base_cycle;
        self.deliveries.clear();
        net.drain_deliveries_into(&mut self.deliveries);
        self.failures.clear();
        net.drain_failures_into(&mut self.failures);
    }

    /// Ends the cycle [`advance`](Self::advance) simulated, after the
    /// drive has accounted its results: flushes the metrics window if
    /// this cycle fills it (the network's counters are only fetched
    /// then), and lets the watchdog rule. `progress` says whether any
    /// packet was injected, delivered or terminally failed this cycle;
    /// `pending` — whether work is still outstanding — is only
    /// evaluated once the livelock window has elapsed.
    fn end_cycle<N: Network + ?Sized>(
        &mut self,
        net: &N,
        metrics: Option<&mut MetricsCollector>,
        progress: bool,
        pending: impl FnOnce() -> bool,
    ) {
        let closed = self.rel - 1;
        if let Some(m) = metrics {
            if m.at_boundary(closed) {
                m.end_cycle(closed, cycle_totals(net));
            }
        }
        if let Some(wd) = self.watchdog.as_mut() {
            if progress {
                wd.note_progress(self.rel);
            }
            self.interrupt = wd.check(self.rel, pending);
        }
    }

    /// Flushes the trailing metrics window and stops the clock.
    fn finish<N: Network + ?Sized>(
        self,
        net: &mut N,
        metrics: Option<&mut MetricsCollector>,
    ) -> (PerfProfile, Option<Interrupt>) {
        if let Some(m) = metrics {
            m.finish(self.rel.saturating_sub(1), cycle_totals(net));
        }
        let perf = PerfProfile::new(self.rel, self.wall_start.elapsed())
            .with_phases(net.take_phase_breakdown());
        (perf, self.interrupt)
    }
}

/// The per-cycle state machine behind [`run_synthetic_guarded`]: source
/// queues and measurement-window bookkeeping for one synthetic run.
struct SyntheticDrive {
    core: Stepper,
    nodes: usize,
    source_queues: Vec<VecDeque<(NewPacket, u64)>>,
    /// Packet id -> (generation cycle, measured?); hit once per accepted
    /// packet and once per delivery.
    gen_cycle: IdWindow<(u64, bool)>,
    /// Per-cycle scratch buffer, reused across the whole run.
    gen_buf: Vec<NewPacket>,
    latency: LatencyStats,
    offered: u64,
    accepted: u64,
    delivered: u64,
    undeliverable: u64,
    /// Destinations of measured packets not yet delivered or given up on.
    measured_outstanding: u64,
    /// The measurement window and the cycle the run ends at the latest,
    /// as network cycles (the base cycle included).
    measure: Range<u64>,
    hard_end: u64,
    energy_start: Option<EnergyReport>,
    /// Set when every measured packet drained early.
    drained: bool,
    /// Packets sitting in `source_queues` (cheap pending-work signal for
    /// the watchdog's livelock check).
    queued: u64,
}

impl SyntheticDrive {
    /// Prepares a drive for `net` (which supplies the node count and the
    /// base cycle) and starts its wall clock.
    fn new<N: Network + ?Sized>(
        net: &N,
        opts: SyntheticOptions,
        watchdog: Option<Watchdog>,
    ) -> Self {
        let nodes = net.mesh().nodes();
        let measure_start = net.cycle() + opts.warmup;
        let measure_end = measure_start + opts.measure;
        SyntheticDrive {
            core: Stepper::new(net, watchdog),
            nodes,
            source_queues: vec![VecDeque::new(); nodes],
            gen_cycle: IdWindow::default(),
            gen_buf: Vec::new(),
            latency: LatencyStats::new(),
            offered: 0,
            accepted: 0,
            delivered: 0,
            undeliverable: 0,
            measured_outstanding: 0,
            measure: measure_start..measure_end,
            hard_end: measure_end + opts.drain,
            energy_start: None,
            drained: false,
            queued: 0,
        }
    }

    /// Whether the run is over: the hard cycle limit was reached, every
    /// measured packet resolved after the measurement window, or a
    /// watchdog stopped the run.
    fn done(&self) -> bool {
        self.drained
            || self.core.interrupt.is_some()
            || self.core.base_cycle + self.core.rel >= self.hard_end
    }

    /// Advances the run by one cycle: generate, inject, step the
    /// network, account deliveries and failures.
    fn tick<N: Network + ?Sized, W: SyntheticWorkload>(
        &mut self,
        net: &mut N,
        workload: &mut W,
        mut metrics: Option<&mut MetricsCollector>,
    ) {
        debug_assert!(!self.done(), "tick called on a finished drive");
        let cycle = net.cycle();
        if cycle == self.measure.start {
            self.energy_start = Some(net.energy());
        }
        // Generate only until the measurement window closes; afterwards
        // we just drain.
        if cycle < self.measure.end {
            self.gen_buf.clear();
            workload.generate_into(cycle, &mut self.gen_buf);
            for p in self.gen_buf.drain(..) {
                if cycle >= self.measure.start {
                    self.offered += 1;
                }
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_offered(1);
                }
                self.source_queues[p.src.index()].push_back((p, cycle));
                self.queued += 1;
            }
        }
        let injected = self.inject(net, metrics.as_deref_mut());
        self.core.advance(net);
        let progress =
            injected || !self.core.deliveries.is_empty() || !self.core.failures.is_empty();
        self.account(metrics.as_deref_mut());

        // Early exit once every measured packet has drained.
        if cycle + 1 >= self.measure.end && self.measured_outstanding == 0 {
            self.drained = true;
        }
        let (net, queued) = (&*net, self.queued);
        self.core
            .end_cycle(net, metrics, progress, || queued > 0 || net.in_flight() > 0);
    }

    /// Injects from each source queue, in order, until its NIC refuses
    /// (the head then retries next cycle). Returns whether any packet
    /// was accepted.
    fn inject<N: Network + ?Sized>(
        &mut self,
        net: &mut N,
        mut metrics: Option<&mut MetricsCollector>,
    ) -> bool {
        let mut injected = false;
        for q in &mut self.source_queues {
            while let Some((p, _)) = q.front() {
                let Some(id) = net.inject(p.clone()) else {
                    if let Some(m) = metrics.as_deref_mut() {
                        m.on_rejected(1);
                    }
                    break;
                };
                let (p, gen) = q.pop_front().expect("the head just injected");
                self.queued -= 1;
                injected = true;
                let measured = self.measure.contains(&gen);
                if measured {
                    self.accepted += 1;
                    self.measured_outstanding += p.dests.deliveries(p.src, self.nodes) as u64;
                }
                self.gen_cycle.insert(id.0, (gen, measured));
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_accepted(1);
                }
            }
        }
        injected
    }

    /// Accounts what the last cycle delivered and gave up on. The one
    /// step of a tick that is not generic over the network, so without
    /// the hint it stays out of line in this crate (≈ 1 % of a synthetic
    /// job).
    #[inline]
    fn account(&mut self, mut metrics: Option<&mut MetricsCollector>) {
        for d in &self.core.deliveries {
            let Some(&(gen, measured)) = self.gen_cycle.get(d.packet.0) else {
                continue;
            };
            let latency = d.delivered_cycle.saturating_sub(gen);
            if let Some(m) = metrics.as_deref_mut() {
                m.on_delivered(latency);
            }
            if measured {
                self.latency.record(latency);
                // Throughput counts only deliveries inside the
                // measurement window: a saturated network keeps
                // delivering during the drain, but that is backlog,
                // not sustained throughput.
                if d.delivered_cycle < self.measure.end {
                    self.delivered += 1;
                }
                self.measured_outstanding -= 1;
            }
        }
        // Terminally-failed deliveries (retry cap under a fault plan)
        // resolve their destination just like a delivery would —
        // otherwise the drain would wait forever on packets that can
        // never arrive.
        for f in &self.core.failures {
            self.undeliverable += 1;
            if let Some(&(_, true)) = self.gen_cycle.get(f.packet.0) {
                self.measured_outstanding -= 1;
            }
        }
    }

    /// Closes the run and summarizes it.
    fn finish<N: Network + ?Sized>(
        self,
        net: &mut N,
        metrics: Option<&mut MetricsCollector>,
    ) -> SyntheticResult {
        let energy_start = self.energy_start.unwrap_or_default();
        let denom = self.nodes as f64 * (self.measure.end - self.measure.start) as f64;
        let (perf, interrupt) = self.core.finish(net, metrics);
        SyntheticResult {
            latency: self.latency,
            offered_rate: self.offered as f64 / denom,
            accepted_rate: self.accepted as f64 / denom,
            delivered_rate: self.delivered as f64 / denom,
            energy: net.energy().delta_since(&energy_start),
            unfinished: self.measured_outstanding,
            undeliverable: self.undeliverable,
            interrupt,
            perf,
        }
    }
}

// ---------------------------------------------------------------------------
// Closed-loop trace replay
// ---------------------------------------------------------------------------

/// Identifier of a message within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u32);

/// A dependency on an earlier message: either its *full* delivery (every
/// destination reached) or its delivery at one specific destination.
///
/// Per-destination dependencies model coherence accurately: a data
/// response may be produced as soon as the broadcast request reaches the
/// owning cache — it does not wait for the request to reach all 63
/// snoopers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep {
    /// The message depended upon.
    pub msg: MsgId,
    /// `None` = fully delivered; `Some(node)` = delivered at `node`.
    pub at: Option<NodeId>,
}

impl Dep {
    /// Dependency on full delivery.
    pub fn full(msg: MsgId) -> Dep {
        Dep { msg, at: None }
    }

    /// Dependency on delivery at one destination.
    pub fn at(msg: MsgId, node: NodeId) -> Dep {
        Dep {
            msg,
            at: Some(node),
        }
    }
}

impl From<MsgId> for Dep {
    fn from(msg: MsgId) -> Dep {
        Dep::full(msg)
    }
}

/// One message of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMessage {
    /// Trace-unique id.
    pub id: MsgId,
    /// Source node.
    pub src: NodeId,
    /// Destination(s).
    pub dests: DestSet,
    /// Operation kind.
    pub kind: PacketKind,
    /// Earliest cycle this message may inject (program order / compute
    /// time at the source).
    pub earliest: u64,
    /// Dependencies that must be satisfied before this message becomes
    /// eligible (e.g. the request a response answers, or the previous
    /// outstanding miss of the same core).
    pub deps: Vec<Dep>,
    /// Additional think time after the last dependency delivers.
    pub think: u64,
}

/// A complete workload trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Messages; ids must be unique and dependencies must refer to
    /// earlier-listed messages (no cycles).
    pub messages: Vec<TraceMessage>,
}

impl Trace {
    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Appends another trace's messages, remapping its ids (and internal
    /// dependencies) past this trace's id space and offsetting its
    /// `earliest` times by `at`. Useful for composing workload phases.
    ///
    /// # Panics
    ///
    /// Panics if either trace fails validation.
    pub fn append(&mut self, other: &Trace, at: u64) {
        self.validate().expect("base trace is valid");
        other.validate().expect("appended trace is valid");
        let base = self.messages.iter().map(|m| m.id.0 + 1).max().unwrap_or(0);
        for m in &other.messages {
            let mut m = m.clone();
            m.id = MsgId(m.id.0 + base);
            for d in &mut m.deps {
                d.msg = MsgId(d.msg.0 + base);
            }
            m.earliest += at;
            self.messages.push(m);
        }
    }

    /// Messages of one kind.
    pub fn of_kind(&self, kind: PacketKind) -> impl Iterator<Item = &TraceMessage> {
        self.messages.iter().filter(move |m| m.kind == kind)
    }

    /// Validates id uniqueness and acyclic, backward-pointing deps.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    #[expect(clippy::disallowed_types, reason = "lookup-only: never iterated")]
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for m in &self.messages {
            for d in &m.deps {
                if !seen.contains(&d.msg) {
                    return Err(format!(
                        "message {:?} depends on {:?} which does not precede it",
                        m.id, d.msg
                    ));
                }
            }
            if !seen.insert(m.id) {
                return Err(format!("duplicate message id {:?}", m.id));
            }
        }
        Ok(())
    }
}

/// Result of a trace replay.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Cycle at which the last message was fully delivered (the trace's
    /// network-limited completion time).
    pub completion_cycle: u64,
    /// Per-destination delivery latencies (from eligibility, i.e. network
    /// + NIC time only).
    pub latency: LatencyStats,
    /// Total energy spent.
    pub energy: EnergyReport,
    /// Messages fully delivered.
    pub completed: u64,
    /// Per-destination deliveries the network terminally gave up on
    /// (retry cap under a fault plan). Failed destinations still resolve
    /// the dependencies waiting on them, so the replay terminates.
    pub undeliverable: u64,
    /// True if the replay hit the cycle limit before completing.
    pub timed_out: bool,
    /// Set when a [`Watchdog`] stopped the replay early (`timed_out` is
    /// also set in that case).
    pub interrupt: Option<Interrupt>,
    /// Simulator throughput over the replay.
    pub perf: PerfProfile,
}

/// Options for [`run_trace`].
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Hard cycle limit (guards against livelock in a miscalibrated
    /// configuration).
    pub max_cycles: u64,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            max_cycles: 10_000_000,
        }
    }
}

/// Replays a trace to completion, honouring message dependencies.
///
/// # Panics
///
/// Panics if the trace fails [`Trace::validate`].
pub fn run_trace<N: Network + ?Sized>(
    net: &mut N,
    trace: &Trace,
    opts: TraceOptions,
) -> TraceResult {
    run_trace_guarded(net, trace, opts, None, None)
}

/// [`run_trace`] with an optional time-series metrics collector (see
/// [`run_synthetic_observed`] for the sampling contract).
pub fn run_trace_observed<N: Network + ?Sized>(
    net: &mut N,
    trace: &Trace,
    opts: TraceOptions,
    metrics: Option<&mut MetricsCollector>,
) -> TraceResult {
    run_trace_guarded(net, trace, opts, metrics, None)
}

/// [`run_trace_observed`] with an optional [`Watchdog`]. An interrupt
/// marks the result `timed_out` and records the verdict; the partial
/// counters describe the replay up to the stop point.
pub fn run_trace_guarded<N: Network + ?Sized>(
    net: &mut N,
    trace: &Trace,
    opts: TraceOptions,
    mut metrics: Option<&mut MetricsCollector>,
    watchdog: Option<Watchdog>,
) -> TraceResult {
    let mut drive = TraceDrive::new(net, trace, opts, watchdog);
    while !drive.done() {
        drive.tick(net, metrics.as_deref_mut());
    }
    drive.finish(net, metrics)
}

/// The dependency graph of a trace under replay, as dense tables
/// indexed by trace position (message ids are only looked up while
/// building it), plus the packets in flight.
struct DepGraph<'t> {
    messages: &'t [TraceMessage],
    /// Destinations each message has yet to reach or give up on. A
    /// self-send owes none to begin with and never enters the network.
    owed: Vec<u32>,
    /// Dependencies each message still waits on.
    unmet: Vec<u32>,
    /// Cycle each message becomes eligible (final once `unmet` is 0):
    /// `earliest`, pushed back as dependencies resolve.
    ready_at: Vec<u64>,
    /// Waiters on each message's full delivery, emptied when it
    /// completes, and on its delivery at one destination.
    on_full: Vec<Vec<usize>>,
    on_dest: Vec<Vec<(NodeId, usize)>>,
    /// Min-heap of `(ready_at, position)` over messages nothing holds
    /// back any more.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Packet id -> trace position of the message it carries.
    in_flight: IdWindow<usize>,
    /// Packets in `in_flight` that still owe a destination.
    flying: usize,
    completed: u64,
    /// Cycle the latest message completed (network cycles).
    completion_cycle: u64,
}

impl<'t> DepGraph<'t> {
    /// Lays out the tables for `trace` replayed from `base_cycle` on a
    /// mesh of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics on a dependency at a node its message never reaches.
    #[expect(clippy::disallowed_types, reason = "lookup-only: never iterated")]
    fn new(trace: &'t Trace, nodes: usize, base_cycle: u64) -> Self {
        let messages = &trace.messages[..];
        let position: HashMap<MsgId, usize> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id, i))
            .collect();
        let dests: Vec<Vec<NodeId>> = messages
            .iter()
            .map(|m| m.dests.expand(m.src, nodes))
            .collect();
        let mut on_full = vec![Vec::new(); messages.len()];
        let mut on_dest = vec![Vec::new(); messages.len()];
        for (i, m) in messages.iter().enumerate() {
            for d in &m.deps {
                let on = position[&d.msg];
                match d.at {
                    None => on_full[on].push(i),
                    Some(node) => {
                        assert!(
                            dests[on].contains(&node),
                            "message {:?} depends on {:?} at {node}, which is not a destination",
                            m.id,
                            d.msg
                        );
                        on_dest[on].push((node, i));
                    }
                }
            }
        }
        let ready_at: Vec<u64> = messages.iter().map(|m| base_cycle + m.earliest).collect();
        let ready = messages
            .iter()
            .enumerate()
            .filter(|(_, m)| m.deps.is_empty())
            .map(|(i, _)| Reverse((ready_at[i], i)))
            .collect();
        DepGraph {
            messages,
            owed: dests.iter().map(|d| d.len() as u32).collect(),
            unmet: messages.iter().map(|m| m.deps.len() as u32).collect(),
            ready_at,
            on_full,
            on_dest,
            ready,
            in_flight: IdWindow::default(),
            flying: 0,
            completed: 0,
            completion_cycle: base_cycle,
        }
    }

    /// One dependency of `waiter` resolved at `cycle`.
    fn resolve(&mut self, waiter: usize, cycle: u64) {
        let ready_at = &mut self.ready_at[waiter];
        *ready_at = (*ready_at).max(cycle + self.messages[waiter].think);
        self.unmet[waiter] -= 1;
        if self.unmet[waiter] == 0 {
            self.ready.push(Reverse((*ready_at, waiter)));
        }
    }

    /// `msg` reached (or gave up on) its last destination at `cycle`.
    fn complete(&mut self, msg: usize, cycle: u64) {
        self.completed += 1;
        self.completion_cycle = self.completion_cycle.max(cycle);
        for waiter in std::mem::take(&mut self.on_full[msg]) {
            self.resolve(waiter, cycle);
        }
    }

    /// One destination of `packet` resolved at `cycle` — delivered or
    /// terminally failed, its waiters cannot tell: the depending core
    /// observes a failed transaction and moves on, and the message still
    /// counts toward completion, so the replay terminates instead of
    /// spinning. Returns the cycle the message became eligible (latency
    /// is counted from it), or `None` for a packet this replay does not
    /// have in flight.
    fn settle(&mut self, packet: PacketId, dest: NodeId, cycle: u64) -> Option<u64> {
        let msg = *self.in_flight.get(packet.0)?;
        if self.owed[msg] == 0 {
            return None;
        }
        self.owed[msg] -= 1;
        for k in 0..self.on_dest[msg].len() {
            let (node, waiter) = self.on_dest[msg][k];
            if node == dest {
                self.resolve(waiter, cycle);
            }
        }
        if self.owed[msg] == 0 {
            self.flying -= 1;
            self.complete(msg, cycle);
        }
        Some(self.ready_at[msg])
    }
}

/// The per-cycle state machine behind [`run_trace_guarded`].
struct TraceDrive<'t> {
    core: Stepper,
    graph: DepGraph<'t>,
    max_cycles: u64,
    energy_start: EnergyReport,
    /// Eligible messages waiting for their source's NIC, in the order
    /// they became eligible.
    stalled: Vec<VecDeque<usize>>,
    latency: LatencyStats,
    undeliverable: u64,
}

impl<'t> TraceDrive<'t> {
    /// Prepares the replay of `trace` on `net` and starts its wall clock.
    ///
    /// # Panics
    ///
    /// Panics if the trace fails [`Trace::validate`].
    fn new<N: Network + ?Sized>(
        net: &N,
        trace: &'t Trace,
        opts: TraceOptions,
        watchdog: Option<Watchdog>,
    ) -> Self {
        trace.validate().expect("invalid trace");
        let core = Stepper::new(net, watchdog);
        let nodes = net.mesh().nodes();
        TraceDrive {
            graph: DepGraph::new(trace, nodes, core.base_cycle),
            core,
            max_cycles: opts.max_cycles,
            energy_start: net.energy(),
            stalled: vec![VecDeque::new(); nodes],
            latency: LatencyStats::new(),
            undeliverable: 0,
        }
    }

    /// Whether the replay is over: every message completed, the cycle
    /// limit was reached, or a watchdog stopped it.
    fn done(&self) -> bool {
        self.graph.completed == self.graph.messages.len() as u64
            || self.core.interrupt.is_some()
            || self.core.rel >= self.max_cycles
    }

    /// Advances the replay by one cycle: queue what became eligible,
    /// inject, step the network, settle deliveries and failures.
    fn tick<N: Network + ?Sized>(
        &mut self,
        net: &mut N,
        mut metrics: Option<&mut MetricsCollector>,
    ) {
        debug_assert!(!self.done(), "tick called on a finished drive");
        let cycle = net.cycle();
        while let Some(&Reverse((at, msg))) = self.graph.ready.peek() {
            if at > cycle {
                break;
            }
            self.graph.ready.pop();
            self.stalled[self.graph.messages[msg].src.index()].push_back(msg);
            if let Some(m) = metrics.as_deref_mut() {
                m.on_offered(1);
            }
        }
        let mut progress = self.inject(net, cycle, metrics.as_deref_mut());
        self.core.advance(net);

        for d in &self.core.deliveries {
            let Some(eligible) = self.graph.settle(d.packet, d.dest, d.delivered_cycle) else {
                continue;
            };
            progress = true;
            let latency = d.delivered_cycle.saturating_sub(eligible);
            self.latency.record(latency);
            if let Some(m) = metrics.as_deref_mut() {
                m.on_delivered(latency);
            }
        }
        for f in &self.core.failures {
            if self.graph.settle(f.packet, f.dest, f.cycle).is_some() {
                progress = true;
                self.undeliverable += 1;
            }
        }

        let (graph, stalled) = (&self.graph, &self.stalled);
        self.core.end_cycle(&*net, metrics, progress, || {
            graph.flying > 0 || stalled.iter().any(|q| !q.is_empty())
        });
    }

    /// Injects queued messages in FIFO order per source until its NIC
    /// refuses. A degenerate self-send completes on the spot, without
    /// the network — once it is at the head of its queue. Returns
    /// whether any packet was accepted.
    fn inject<N: Network + ?Sized>(
        &mut self,
        net: &mut N,
        cycle: u64,
        mut metrics: Option<&mut MetricsCollector>,
    ) -> bool {
        let mut injected = false;
        for q in &mut self.stalled {
            while let Some(&msg) = q.front() {
                if self.graph.owed[msg] == 0 {
                    q.pop_front();
                    self.graph.complete(msg, cycle);
                    continue;
                }
                let m = &self.graph.messages[msg];
                let packet = NewPacket {
                    src: m.src,
                    dests: m.dests.clone(),
                    kind: m.kind,
                };
                let Some(id) = net.inject(packet) else {
                    if let Some(m) = metrics.as_deref_mut() {
                        m.on_rejected(1);
                    }
                    break;
                };
                q.pop_front();
                injected = true;
                self.graph.in_flight.insert(id.0, msg);
                self.graph.flying += 1;
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_accepted(1);
                }
            }
        }
        injected
    }

    /// Closes the replay and summarizes it.
    fn finish<N: Network + ?Sized>(
        self,
        net: &mut N,
        metrics: Option<&mut MetricsCollector>,
    ) -> TraceResult {
        let completed = self.graph.completed;
        let unfinished = completed < self.graph.messages.len() as u64;
        let completion_cycle = self.graph.completion_cycle - self.core.base_cycle;
        let (perf, interrupt) = self.core.finish(net, metrics);
        TraceResult {
            completion_cycle,
            latency: self.latency,
            energy: net.energy().delta_since(&self.energy_start),
            completed,
            undeliverable: self.undeliverable,
            // A verdict on the very cycle the last message completed
            // still reads as a timeout.
            timed_out: unfinished || interrupt.is_some(),
            interrupt,
            perf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Mesh;
    use crate::ideal::IdealNetwork;
    use crate::rng::SimRng;

    /// The window against a map: consecutive ids from an arbitrary first
    /// one (with the odd gap), then every id around the window looked up
    /// in scrambled order.
    #[test]
    #[expect(clippy::disallowed_types, reason = "test: the reference model")]
    fn id_window_answers_like_the_map_it_replaced() {
        let mut rng = SimRng::seed_from_u64(0x1D0F_F5E7);
        for first in [0u64, 1, 977, u64::from(u32::MAX) + 3] {
            let mut window = IdWindow::default();
            let mut map = HashMap::new();
            let mut id = first;
            for n in 0..500u64 {
                window.insert(id, (n, n % 3 == 0));
                map.insert(id, (n, n % 3 == 0));
                id += if rng.gen_bool(0.05) { 3 } else { 1 };
            }
            let lo = first.saturating_sub(5);
            let mut probes: Vec<u64> = (lo..id + 5).collect();
            for i in (1..probes.len()).rev() {
                probes.swap(i, rng.gen_range(0..i + 1));
            }
            for probe in probes {
                assert_eq!(window.get(probe), map.get(&probe), "id {probe}");
            }
        }
        assert_eq!(IdWindow::<(u64, bool)>::default().get(0), None);
    }

    #[test]
    #[should_panic(expected = "never fall below")]
    fn id_window_rejects_an_id_below_its_first() {
        let mut window = IdWindow::default();
        window.insert(10, ());
        window.insert(9, ());
    }

    /// Two packets a cycle between pseudo-random pairs, as a function of
    /// the cycle relative to `base` so a reused network sees the same
    /// traffic a fresh one does.
    fn scattered_pairs(base: u64) -> impl FnMut(u64) -> Vec<NewPacket> {
        move |cycle| {
            let rel = cycle - base;
            (0..2u64)
                .map(|k| {
                    let src = (rel * 7 + k * 29) % 64;
                    let dst = (src + 1 + (rel * 13 + k * 5) % 63) % 64;
                    NewPacket::unicast(NodeId(src as u16), NodeId(dst as u16))
                })
                .collect()
        }
    }

    /// A network used before hands this run ids that do not start at 0,
    /// and the ideal network delivers by distance, not in id order. The
    /// literals were recorded with the hash map this window replaced.
    #[test]
    fn reused_network_measures_what_a_fresh_one_does() {
        let opts = SyntheticOptions {
            warmup: 20,
            measure: 200,
            drain: 100,
        };
        let mut fresh = IdealNetwork::new(Mesh::PAPER, 2, 1);
        let expected = run_synthetic(&mut fresh, &mut scattered_pairs(0), opts);

        let mut reused = IdealNetwork::new(Mesh::PAPER, 2, 1);
        let first = run_synthetic(&mut reused, &mut scattered_pairs(0), opts);
        let base = reused.cycle();
        assert!(base > 0 && reused.stats().injected > 0);
        let second = run_synthetic(&mut reused, &mut scattered_pairs(base), opts);

        for r in [&first, &second] {
            assert_eq!(r.latency, expected.latency);
            assert_eq!(r.offered_rate, expected.offered_rate);
            assert_eq!(r.accepted_rate, expected.accepted_rate);
            assert_eq!(r.delivered_rate, expected.delivered_rate);
            assert_eq!((r.unfinished, r.undeliverable), (0, 0));
            assert_eq!(r.perf.cycles, expected.perf.cycles);
        }
        assert_eq!(second.latency.count(), 400);
        assert_eq!(second.latency.mean(), Some(7.3575));
        assert_eq!(second.latency.max(), 15);
        assert_eq!(second.delivered_rate, 0.029_921_875);
        assert_eq!(second.perf.cycles, 230);
    }

    #[test]
    fn trace_validation_catches_forward_dep() {
        let t = Trace {
            messages: vec![TraceMessage {
                id: MsgId(0),
                src: NodeId(0),
                dests: DestSet::Unicast(NodeId(1)),
                kind: PacketKind::Data,
                earliest: 0,
                deps: vec![Dep::full(MsgId(1))],
                think: 0,
            }],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn trace_validation_catches_duplicate_id() {
        let m = TraceMessage {
            id: MsgId(0),
            src: NodeId(0),
            dests: DestSet::Unicast(NodeId(1)),
            kind: PacketKind::Data,
            earliest: 0,
            deps: vec![],
            think: 0,
        };
        let t = Trace {
            messages: vec![m.clone(), m],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn trace_validation_accepts_backward_deps() {
        let t = Trace {
            messages: vec![
                TraceMessage {
                    id: MsgId(0),
                    src: NodeId(0),
                    dests: DestSet::Unicast(NodeId(1)),
                    kind: PacketKind::ReadRequest,
                    earliest: 0,
                    deps: vec![],
                    think: 0,
                },
                TraceMessage {
                    id: MsgId(1),
                    src: NodeId(1),
                    dests: DestSet::Unicast(NodeId(0)),
                    kind: PacketKind::DataResponse,
                    earliest: 0,
                    deps: vec![Dep::full(MsgId(0))],
                    think: 2,
                },
            ],
        };
        assert!(t.validate().is_ok());
    }

    #[test]
    fn default_options_are_sane() {
        let s = SyntheticOptions::default();
        assert!(s.warmup > 0 && s.measure > 0 && s.drain > 0);
        assert!(TraceOptions::default().max_cycles > 1_000_000);
    }
}
