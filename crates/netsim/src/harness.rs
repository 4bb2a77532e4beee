//! Workload harnesses: open-loop synthetic traffic and closed-loop trace
//! replay with inter-message dependencies.
//!
//! The paper evaluates both ways (§4): synthetic injection-rate sweeps for
//! latency/saturation curves (Figure 9), and SPLASH2 traces for network
//! speedup and power (Figures 10 and 11). Trace replay here is
//! *dependency-aware*: a response message only becomes eligible once the
//! request it answers was delivered, so a faster network finishes the
//! trace sooner — which is what "network speedup" measures.

use crate::geometry::NodeId;
use crate::network::Network;
use crate::obs::{CycleTotals, MetricsCollector, PerfProfile};
use crate::packet::{DestSet, NewPacket, PacketId, PacketKind};
use crate::stats::{EnergyReport, LatencyStats};
use crate::watchdog::{Interrupt, Watchdog};
use std::collections::{HashMap, VecDeque};
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

/// A `packet id -> V` table for the ids one run sees, stored densely:
/// slot `id - first id seen`. Every network hands out consecutive ids
/// ([`Network::inject`]), so a run's ids are one contiguous window —
/// shifted from zero when the network was used before — and recording
/// the next one is a `push`. Entries are never removed: a late delivery
/// may still ask for any of them.
#[derive(Debug)]
struct IdWindow<V> {
    first: u64,
    slots: Vec<Option<V>>,
}

impl<V: Clone> IdWindow<V> {
    fn new() -> Self {
        IdWindow {
            first: 0,
            slots: Vec::new(),
        }
    }

    /// Records `id -> value`. An id past the next consecutive one leaves
    /// unknown slots behind it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is below the first id recorded.
    fn insert(&mut self, id: u64, value: V) {
        if self.slots.is_empty() {
            self.first = id;
        }
        let slot =
            id.checked_sub(self.first)
                .expect("packet ids never fall below the first one a run saw") as usize;
        if slot < self.slots.len() {
            self.slots[slot] = Some(value);
        } else {
            self.slots.resize(slot, None);
            self.slots.push(Some(value));
        }
    }

    /// Looks up an id; `None` for one never recorded.
    #[inline]
    fn get(&self, id: u64) -> Option<&V> {
        let slot = id.checked_sub(self.first)?;
        self.slots.get(slot as usize)?.as_ref()
    }
}

/// The per-cycle state machine behind [`run_synthetic_guarded`]: source
/// queues, measurement-window bookkeeping, and scratch buffers for one
/// synthetic run.
struct SyntheticDrive {
    wall_start: Instant,
    opts: SyntheticOptions,
    nodes: usize,
    source_queues: Vec<VecDeque<(NewPacket, u64)>>,
    /// Packet id -> (generation cycle, measured?); hit once per accepted
    /// packet and once per delivery.
    gen_cycle: IdWindow<(u64, bool)>,
    // Per-cycle scratch buffers, reused across the whole run.
    gen_buf: Vec<NewPacket>,
    delivery_buf: Vec<crate::packet::Delivery>,
    failure_buf: Vec<crate::FailedDelivery>,
    latency: LatencyStats,
    offered: u64,
    accepted: u64,
    delivered: u64,
    undeliverable: u64,
    measured_outstanding: u64,
    measure_start: u64,
    measure_end: u64,
    hard_end: u64,
    energy_start: Option<EnergyReport>,
    base_cycle: u64,
    /// Cycles simulated so far (`net.cycle() - base_cycle` after the
    /// last [`tick`](Self::tick)).
    rel: u64,
    /// Set when every measured packet drained early.
    drained: bool,
    /// Packets sitting in `source_queues` (cheap pending-work signal for
    /// the watchdog's livelock check).
    queued: u64,
    watchdog: Option<Watchdog>,
    interrupt: Option<Interrupt>,
}

impl SyntheticDrive {
    /// Prepares a drive for `net` (which supplies the node count and the
    /// base cycle) and starts its wall clock. An unarmed watchdog is
    /// dropped, so the supervision cost without one is a single branch
    /// per cycle.
    fn new<N: Network + ?Sized>(
        net: &N,
        opts: SyntheticOptions,
        watchdog: Option<Watchdog>,
    ) -> Self {
        let nodes = net.mesh().nodes();
        SyntheticDrive {
            wall_start: Instant::now(),
            opts,
            nodes,
            source_queues: vec![VecDeque::new(); nodes],
            gen_cycle: IdWindow::new(),
            gen_buf: Vec::new(),
            delivery_buf: Vec::new(),
            failure_buf: Vec::new(),
            latency: LatencyStats::new(),
            offered: 0,
            accepted: 0,
            delivered: 0,
            undeliverable: 0,
            measured_outstanding: 0,
            measure_start: opts.warmup,
            measure_end: opts.warmup + opts.measure,
            hard_end: opts.warmup + opts.measure + opts.drain,
            energy_start: None,
            base_cycle: net.cycle(),
            rel: 0,
            drained: false,
            queued: 0,
            watchdog: watchdog.filter(Watchdog::is_armed),
            interrupt: None,
        }
    }

    /// Whether the run is over: the hard cycle limit was reached, every
    /// measured packet resolved after the measurement window, or a
    /// watchdog stopped the run.
    fn done(&self) -> bool {
        self.drained || self.interrupt.is_some() || self.rel >= self.hard_end
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
        let rel = cycle - self.base_cycle;
        let measuring = rel >= self.measure_start && rel < self.measure_end;
        if rel == self.measure_start {
            self.energy_start = Some(net.energy());
        }

        // Generate new packets (only until the measurement window closes;
        // afterwards we just drain).
        if rel < self.measure_end {
            self.gen_buf.clear();
            workload.generate_into(cycle, &mut self.gen_buf);
            for p in self.gen_buf.drain(..) {
                if measuring {
                    self.offered += 1;
                }
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_offered(1);
                }
                self.source_queues[p.src.index()].push_back((p, cycle));
                self.queued += 1;
            }
        }

        // Progress (for livelock detection): any packet injected,
        // delivered, or terminally failed this cycle.
        let mut progress = false;

        // Try to inject from each source queue, in order.
        for q in &mut self.source_queues {
            while let Some((p, gen)) = q.front() {
                let (p, gen) = (p.clone(), *gen);
                match net.inject(p) {
                    Some(id) => {
                        q.pop_front();
                        self.queued -= 1;
                        progress = true;
                        let rel_gen = gen - self.base_cycle;
                        let measured = rel_gen >= self.measure_start && rel_gen < self.measure_end;
                        if measured {
                            self.accepted += 1;
                            self.measured_outstanding += 1;
                        }
                        self.gen_cycle.insert(id.0, (gen, measured));
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_accepted(1);
                        }
                    }
                    None => {
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_rejected(1);
                        }
                        break; // NIC full; retry next cycle
                    }
                }
            }
        }

        net.step();
        self.rel = net.cycle() - self.base_cycle;

        self.delivery_buf.clear();
        net.drain_deliveries_into(&mut self.delivery_buf);
        progress |= !self.delivery_buf.is_empty();
        for d in &self.delivery_buf {
            if let Some(&(gen, measured)) = self.gen_cycle.get(d.packet.0) {
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_delivered(d.delivered_cycle.saturating_sub(gen));
                }
                if measured {
                    self.latency.record(d.delivered_cycle.saturating_sub(gen));
                    // Throughput counts only deliveries inside the
                    // measurement window: a saturated network keeps
                    // delivering during the drain, but that is backlog,
                    // not sustained throughput.
                    if d.delivered_cycle - self.base_cycle < self.measure_end {
                        self.delivered += 1;
                    }
                    self.measured_outstanding -= 1;
                }
            }
        }

        // Terminally-failed deliveries (retry cap under a fault plan)
        // resolve their packet just like a delivery would — otherwise the
        // drain loop would wait forever on packets that can never arrive.
        self.failure_buf.clear();
        net.drain_failures_into(&mut self.failure_buf);
        progress |= !self.failure_buf.is_empty();
        for f in &self.failure_buf {
            self.undeliverable += 1;
            if let Some(&(_, measured)) = self.gen_cycle.get(f.packet.0) {
                if measured {
                    self.measured_outstanding -= 1;
                }
            }
        }

        if let Some(m) = metrics {
            if m.at_boundary(rel) {
                let st = net.stats();
                let totals =
                    CycleTotals::from_stats(&st, net.in_flight() as u64, net.buffer_occupancy());
                m.end_cycle(rel, totals);
            }
        }

        // Early exit once every measured packet has drained.
        if rel + 1 >= self.measure_end && self.measured_outstanding == 0 {
            self.drained = true;
        }

        // Supervision: one branch when no watchdog is attached. The
        // pending-work closure is only evaluated if the livelock window
        // actually elapsed (it costs a virtual call on the network).
        if let Some(wd) = self.watchdog.as_mut() {
            if progress {
                wd.note_progress(self.rel);
            }
            let queued = self.queued;
            self.interrupt = wd.check(self.rel, || queued > 0 || net.in_flight() > 0);
        }
    }

    /// Closes the run and summarizes it.
    fn finish<N: Network + ?Sized>(
        self,
        net: &mut N,
        metrics: Option<&mut MetricsCollector>,
    ) -> SyntheticResult {
        if let Some(m) = metrics {
            let st = net.stats();
            let totals =
                CycleTotals::from_stats(&st, net.in_flight() as u64, net.buffer_occupancy());
            m.finish(self.rel.saturating_sub(1), totals);
        }
        let energy_start = self.energy_start.unwrap_or_default();
        let denom = (self.nodes as f64) * (self.opts.measure as f64);
        SyntheticResult {
            latency: self.latency,
            offered_rate: self.offered as f64 / denom,
            accepted_rate: self.accepted as f64 / denom,
            delivered_rate: self.delivered as f64 / denom,
            energy: net.energy().delta_since(&energy_start),
            unfinished: self.measured_outstanding,
            undeliverable: self.undeliverable,
            interrupt: self.interrupt,
            perf: PerfProfile::new(self.rel, self.wall_start.elapsed())
                .with_phases(net.take_phase_breakdown()),
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
    mut watchdog: Option<Watchdog>,
) -> TraceResult {
    trace.validate().expect("invalid trace");
    let wall_start = Instant::now();
    let energy_start = net.energy();
    let base_cycle = net.cycle();

    let n = trace.len();
    let nodes = net.mesh().nodes();
    let mut dep_remaining: Vec<u32> = Vec::with_capacity(n);
    // Dependents waiting on a message's full delivery / on one
    // destination of it.
    let mut full_deps: HashMap<MsgId, Vec<usize>> = HashMap::new();
    let mut dest_deps: HashMap<(MsgId, NodeId), Vec<usize>> = HashMap::new();
    let mut dest_lists: HashMap<MsgId, Vec<NodeId>> = HashMap::with_capacity(n);
    for m in &trace.messages {
        dest_lists.insert(m.id, m.dests.expand(m.src, nodes));
    }
    for (i, m) in trace.messages.iter().enumerate() {
        dep_remaining.push(m.deps.len() as u32);
        for d in &m.deps {
            match d.at {
                None => full_deps.entry(d.msg).or_default().push(i),
                Some(node) => {
                    assert!(
                        dest_lists[&d.msg].contains(&node),
                        "message {:?} depends on {:?} at {node}, which is not a destination",
                        m.id,
                        d.msg
                    );
                    dest_deps.entry((d.msg, node)).or_default().push(i);
                }
            }
        }
    }

    // ready_at[i]: cycle at which message i becomes eligible (valid once
    // dep_remaining[i] == 0). Initialized to `earliest`, bumped as deps
    // deliver.
    let mut ready_at: Vec<u64> = trace
        .messages
        .iter()
        .map(|m| base_cycle + m.earliest)
        .collect();
    // Min-heap of (ready_at, index) for dependency-free messages.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    for i in 0..n {
        if dep_remaining[i] == 0 {
            heap.push(std::cmp::Reverse((ready_at[i], i)));
        }
    }

    // Per-source stall queues for messages that found the NIC full.
    let mut stalled: Vec<VecDeque<usize>> = vec![VecDeque::new(); nodes];
    // In-flight tracking: PacketId -> (msg index, remaining dests, eligible cycle).
    let mut in_flight: HashMap<PacketId, (usize, usize, u64)> = HashMap::new();
    let mut latency = LatencyStats::new();
    let mut completed = 0u64;
    let mut undeliverable = 0u64;
    let mut completion_cycle = base_cycle;
    let mut timed_out = false;
    let mut interrupt: Option<Interrupt> = None;

    let mut cycle = base_cycle;
    while completed < n as u64 {
        if cycle - base_cycle >= opts.max_cycles {
            timed_out = true;
            break;
        }
        // Progress this cycle (for livelock detection): any packet
        // injected, delivered, or terminally failed.
        let mut progress = false;

        // Move newly-eligible messages into their source's stall queue.
        while let Some(&std::cmp::Reverse((t, i))) = heap.peek() {
            if t > cycle {
                break;
            }
            heap.pop();
            stalled[trace.messages[i].src.index()].push_back(i);
            if let Some(m) = metrics.as_deref_mut() {
                m.on_offered(1);
            }
        }

        // Try to inject stalled messages in FIFO order per source.
        for q in &mut stalled {
            while let Some(&i) = q.front() {
                let m = &trace.messages[i];
                let ndests = dest_lists[&m.id].len();
                if ndests == 0 {
                    // Degenerate self-send: treat as immediately delivered.
                    q.pop_front();
                    completed += 1;
                    completion_cycle = completion_cycle.max(cycle);
                    for &dep_i in full_deps.get(&m.id).map(Vec::as_slice).unwrap_or(&[]) {
                        resolve_dep(
                            dep_i,
                            cycle,
                            &trace.messages,
                            &mut dep_remaining,
                            &mut ready_at,
                            &mut heap,
                        );
                    }
                    continue;
                }
                let p = NewPacket {
                    src: m.src,
                    dests: m.dests.clone(),
                    kind: m.kind,
                };
                match net.inject(p) {
                    Some(id) => {
                        q.pop_front();
                        progress = true;
                        in_flight.insert(id, (i, ndests, ready_at[i]));
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_accepted(1);
                        }
                    }
                    None => {
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_rejected(1);
                        }
                        break;
                    }
                }
            }
        }

        net.step();
        cycle = net.cycle();

        for d in net.drain_deliveries() {
            if let Some(entry) = in_flight.get_mut(&d.packet) {
                entry.1 -= 1;
                progress = true;
                latency.record(d.delivered_cycle.saturating_sub(entry.2));
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_delivered(d.delivered_cycle.saturating_sub(entry.2));
                }
                let msg_id = trace.messages[entry.0].id;
                for &dep_i in dest_deps
                    .get(&(msg_id, d.dest))
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                {
                    resolve_dep(
                        dep_i,
                        d.delivered_cycle,
                        &trace.messages,
                        &mut dep_remaining,
                        &mut ready_at,
                        &mut heap,
                    );
                }
                if entry.1 == 0 {
                    let (i, _, _) = in_flight.remove(&d.packet).expect("entry exists");
                    completed += 1;
                    completion_cycle = completion_cycle.max(d.delivered_cycle);
                    let id = trace.messages[i].id;
                    for &dep_i in full_deps.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                        resolve_dep(
                            dep_i,
                            d.delivered_cycle,
                            &trace.messages,
                            &mut dep_remaining,
                            &mut ready_at,
                            &mut heap,
                        );
                    }
                }
            }
        }

        // A terminally-failed destination resolves its waiters exactly as
        // a delivery would (the depending core observes a failed
        // transaction and moves on); the message still counts toward
        // completion so the replay terminates instead of spinning.
        for f in net.drain_failures() {
            if let Some(entry) = in_flight.get_mut(&f.packet) {
                entry.1 -= 1;
                progress = true;
                undeliverable += 1;
                let msg_id = trace.messages[entry.0].id;
                for &dep_i in dest_deps
                    .get(&(msg_id, f.dest))
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                {
                    resolve_dep(
                        dep_i,
                        f.cycle,
                        &trace.messages,
                        &mut dep_remaining,
                        &mut ready_at,
                        &mut heap,
                    );
                }
                if entry.1 == 0 {
                    let (i, _, _) = in_flight.remove(&f.packet).expect("entry exists");
                    completed += 1;
                    completion_cycle = completion_cycle.max(f.cycle);
                    let id = trace.messages[i].id;
                    for &dep_i in full_deps.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                        resolve_dep(
                            dep_i,
                            f.cycle,
                            &trace.messages,
                            &mut dep_remaining,
                            &mut ready_at,
                            &mut heap,
                        );
                    }
                }
            }
        }

        if let Some(m) = metrics.as_deref_mut() {
            let rel = cycle - base_cycle;
            if rel > 0 && m.at_boundary(rel - 1) {
                let st = net.stats();
                let totals =
                    CycleTotals::from_stats(&st, net.in_flight() as u64, net.buffer_occupancy());
                m.end_cycle(rel - 1, totals);
            }
        }

        // Supervision: one branch when no watchdog is attached.
        if let Some(wd) = watchdog.as_mut() {
            let rel = cycle - base_cycle;
            if progress {
                wd.note_progress(rel);
            }
            let verdict = wd.check(rel, || {
                !in_flight.is_empty() || stalled.iter().any(|q| !q.is_empty())
            });
            if let Some(v) = verdict {
                timed_out = true;
                interrupt = Some(v);
                break;
            }
        }
    }

    if let Some(m) = metrics {
        let st = net.stats();
        let totals = CycleTotals::from_stats(&st, net.in_flight() as u64, net.buffer_occupancy());
        m.finish((cycle - base_cycle).saturating_sub(1), totals);
    }

    TraceResult {
        completion_cycle: completion_cycle - base_cycle,
        latency,
        energy: net.energy().delta_since(&energy_start),
        completed,
        undeliverable,
        timed_out,
        interrupt,
        perf: PerfProfile::new(cycle - base_cycle, wall_start.elapsed())
            .with_phases(net.take_phase_breakdown()),
    }
}

fn resolve_dep(
    dep_i: usize,
    delivered_cycle: u64,
    messages: &[TraceMessage],
    dep_remaining: &mut [u32],
    ready_at: &mut [u64],
    heap: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
) {
    let m = &messages[dep_i];
    ready_at[dep_i] = ready_at[dep_i].max(delivered_cycle + m.think);
    dep_remaining[dep_i] -= 1;
    if dep_remaining[dep_i] == 0 {
        heap.push(std::cmp::Reverse((ready_at[dep_i], dep_i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmap::FastMap;
    use crate::geometry::Mesh;
    use crate::ideal::IdealNetwork;
    use crate::rng::SimRng;

    /// The window against the map it replaced: consecutive ids from an
    /// arbitrary first one (with the odd gap), then every id around the
    /// window looked up in scrambled order.
    #[test]
    fn id_window_answers_like_the_map_it_replaced() {
        let mut rng = SimRng::seed_from_u64(0x1D0F_F5E7);
        for first in [0u64, 1, 977, u64::from(u32::MAX) + 3] {
            let mut window = IdWindow::new();
            let mut map = FastMap::new();
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
                assert_eq!(window.get(probe), map.get(probe), "id {probe}");
            }
        }
        assert_eq!(IdWindow::<(u64, bool)>::new().get(0), None);
    }

    #[test]
    #[should_panic(expected = "never fall below")]
    fn id_window_rejects_an_id_below_its_first() {
        let mut window = IdWindow::new();
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
    /// literals were recorded with the `FastMap` this window replaced.
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
