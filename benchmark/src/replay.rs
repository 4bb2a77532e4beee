//! The traced replay: every job of a spec is run again through the
//! public pieces `runner::build_job_network` / `run_job` use, with the
//! network and workload wrapped in timing decorators, so the job's host
//! time splits into layers without touching anything inside `crates/`.
//!
//! The replay must reproduce the front door's `JobRecord` (cycles and
//! the whole latency histogram) exactly, or the run fails: a replay
//! that simulated something else would attribute time to the wrong
//! work.

use crate::spans::{SpanId, Tracer};
use crate::timed::{Busy, Timed, TimedWorkload};
use phastlane_lab::runner::build_network;
use phastlane_lab::spec::{expand, JobSpec, Work};
use phastlane_lab::{JobRecord, LabSpec};
use phastlane_netsim::fault::FaultPlan;
use phastlane_netsim::geometry::Mesh;
use phastlane_netsim::harness::{run_synthetic, run_trace, SyntheticOptions, Trace, TraceOptions};
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::{PhaseBreakdown, PhaseProfiler};
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;
use phastlane_traffic::synthetic::BernoulliTraffic;

/// Phase-profiler wall-sampling stride of the profiled replay.
const PROFILE_EVERY: u32 = 32;

/// Host time and call count of one decorated function, summed over
/// jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub ns: u64,
    pub calls: u64,
}

impl Total {
    fn add(&mut self, busy: &Busy) {
        self.ns += busy.ns;
        self.calls += busy.calls;
    }
}

/// What the replay learned about one network layer (`core` for the
/// optical configurations, `electrical` for the baseline).
#[derive(Debug, Default, Clone)]
pub struct NetLayer {
    pub jobs: u64,
    pub cycles: u64,
    pub step: Total,
    pub inject: Total,
    pub drain: Total,
    pub build_ns: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub retransmitted: u64,
    pub rerouted: u64,
    pub undeliverable: u64,
    pub phases: PhaseBreakdown,
}

#[derive(Debug, Default)]
pub struct Replay {
    pub core: NetLayer,
    pub electrical: NetLayer,
    /// Self time of `run_synthetic` / `run_trace` (span minus children)
    /// and the cycles they drove.
    pub synthetic_self_ns: u64,
    pub synthetic_cycles: u64,
    pub trace_self_ns: u64,
    pub trace_cycles: u64,
    pub generate: Total,
    pub packets: u64,
    pub trace_gen_ns: u64,
    pub trace_messages: u64,
    /// Host time of the decorated jobs, network build to network drop.
    pub jobs_wall_ns: u64,
    /// One message per job whose replay did not match its record.
    pub mismatches: Vec<String>,
}

impl Replay {
    pub fn layer(&self, name: &str) -> &NetLayer {
        match name {
            "core" => &self.core,
            _ => &self.electrical,
        }
    }

    fn layer_mut(&mut self, name: &str) -> &mut NetLayer {
        match name {
            "core" => &mut self.core,
            _ => &mut self.electrical,
        }
    }
}

/// The layer a network configuration name belongs to.
pub fn layer_of(net: &str) -> &'static str {
    if net.starts_with("optical") {
        "core"
    } else {
        "electrical"
    }
}

/// The network of one job before its fault plan, with the retry policy
/// `runner::build_job_network` gives it: the spec's limit, or the tight
/// cap faulted jobs default to.
pub fn build_job_network(spec: &LabSpec, job: &JobSpec) -> Result<Box<dyn Network + Send>, String> {
    let retry_limit = spec
        .retry_limit
        .or_else(|| (job.intensity > 0.0).then_some(50));
    build_network(&job.net, spec.mesh, retry_limit)
}

/// Installs the job's random fault plan, as `runner::build_job_network`
/// does for a faulted job; fault-free jobs get none.
pub fn install_fault_plan(spec: &LabSpec, job: &JobSpec, net: &mut dyn Network) {
    if job.intensity > 0.0 {
        let plan = FaultPlan::random(spec.mesh, job.fault_seed, job.intensity);
        net.set_fault_plan(plan, job.fault_seed);
    }
}

/// [`build_job_network`] + [`install_fault_plan`] under spans; also
/// returns the build's host time.
fn job_network(
    spec: &LabSpec,
    job: &JobSpec,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(Box<dyn Network + Send>, u64), String> {
    let span = tracer.open(
        Some(parent),
        Some(job.index),
        layer_of(&job.net),
        "build_network",
    );
    let mut net = build_job_network(spec, job)?;
    tracer.close(span);
    let build_ns = tracer.span(span).duration_ns();
    if job.intensity > 0.0 {
        let span = tracer.open(Some(parent), Some(job.index), "netsim", "fault_plan");
        install_fault_plan(spec, job, &mut net);
        tracer.close(span);
    }
    Ok((net, build_ns))
}

/// The trace of one replay job, exactly as `runner::run_job` makes it.
fn job_trace(spec: &LabSpec, job: &JobSpec, benchmark: &str) -> Result<Trace, String> {
    let mut profile =
        splash2::benchmark(benchmark).ok_or_else(|| format!("unknown benchmark {benchmark:?}"))?;
    profile.misses_per_core =
        ((profile.misses_per_core as f64 * spec.scale).round() as usize).max(2);
    if spec.mesh != Mesh::PAPER {
        profile.active_cores = profile.active_cores.min(spec.mesh.nodes());
    }
    profile.seed = job.seed;
    Ok(generate_trace(spec.mesh, &profile))
}

fn trace_options(spec: &LabSpec) -> TraceOptions {
    TraceOptions {
        max_cycles: spec.max_cycles,
    }
}

fn synthetic_options(spec: &LabSpec) -> SyntheticOptions {
    SyntheticOptions {
        warmup: spec.warmup,
        measure: spec.measure,
        drain: spec.drain,
    }
}

/// Replays every job of `spec` decorated, then every distinct cell once
/// more under the phase profiler. `records` are the front door's, in
/// matrix order.
pub fn replay(
    spec: &LabSpec,
    records: &[JobRecord],
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Replay, String> {
    let jobs = expand(spec);
    if jobs.len() != records.len() {
        return Err(format!(
            "spec expands to {} jobs but the front door recorded {}",
            jobs.len(),
            records.len()
        ));
    }
    let mut out = Replay::default();
    for (job, rec) in jobs.iter().zip(records) {
        decorated_job(spec, job, rec, tracer, parent, &mut out)?;
    }
    for job in jobs.iter().filter(|j| j.replica == 0) {
        profiled_job(spec, job, tracer, parent, &mut out)?;
    }
    Ok(out)
}

fn decorated_job(
    spec: &LabSpec,
    job: &JobSpec,
    rec: &JobRecord,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Replay,
) -> Result<(), String> {
    let layer = layer_of(&job.net);
    let idx = Some(job.index);
    let job_span = tracer.open(Some(parent), idx, "bench", "replay_job");
    let (net, build_ns) = job_network(spec, job, tracer, job_span)?;
    let mut net = Timed::new(net);

    let run_span;
    let (latency, perf, generate, packets) = match &job.work {
        Work::Synthetic { pattern, rate } => {
            let span = tracer.open(Some(job_span), idx, "traffic", "workload_new");
            let source = BernoulliTraffic::new(spec.mesh, *pattern, *rate, job.seed);
            let mut workload = TimedWorkload::new(source);
            tracer.close(span);
            run_span = tracer.open(Some(job_span), idx, "netsim", "harness.run_synthetic");
            let r = run_synthetic(&mut net, &mut workload, synthetic_options(spec));
            tracer.close(run_span);
            (r.latency, r.perf, workload.generate, workload.packets)
        }
        Work::Replay { benchmark } => {
            let span = tracer.open(Some(job_span), idx, "traffic", "generate_trace");
            let trace = job_trace(spec, job, benchmark)?;
            tracer.close(span);
            out.trace_gen_ns += tracer.span(span).duration_ns();
            out.trace_messages += trace.len() as u64;
            run_span = tracer.open(Some(job_span), idx, "netsim", "harness.run_trace");
            let r = run_trace(&mut net, &trace, trace_options(spec));
            tracer.close(run_span);
            (r.latency, r.perf, Busy::default(), 0)
        }
    };
    let replayed_trace = matches!(job.work, Work::Replay { .. });

    // The decorators' totals become child spans laid end to end from
    // the run's start: their order inside the loop is lost, their sum
    // and the harness's self time are not.
    let mut at = tracer.span(run_span).start_ns;
    for (span_layer, name, busy) in [
        (layer, "step", net.step),
        (layer, "inject", net.inject),
        (layer, "drain_deliveries", net.drain),
        ("traffic", "generate", generate),
    ] {
        if busy.calls > 0 {
            tracer.record(
                Some(run_span),
                idx,
                span_layer,
                name,
                at,
                at + busy.ns,
                busy.calls,
            );
            at += busy.ns;
        }
    }
    let children = net.step.ns + net.inject.ns + net.drain.ns + generate.ns;
    let self_ns = tracer.span(run_span).duration_ns().saturating_sub(children);
    if replayed_trace {
        out.trace_self_ns += self_ns;
        out.trace_cycles += perf.cycles;
    } else {
        out.synthetic_self_ns += self_ns;
        out.synthetic_cycles += perf.cycles;
    }
    out.generate.add(&generate);
    out.packets += packets;

    let stats = net.stats();
    let span = tracer.open(Some(job_span), idx, layer, "drop_network");
    let (step, inject, drain) = (net.step, net.inject, net.drain);
    drop(net);
    tracer.close(span);
    tracer.close(job_span);
    out.jobs_wall_ns += tracer.span(job_span).duration_ns();

    let l = out.layer_mut(layer);
    l.jobs += 1;
    l.cycles += perf.cycles;
    l.step.add(&step);
    l.inject.add(&inject);
    l.drain.add(&drain);
    l.build_ns += build_ns;
    l.delivered += stats.delivered;
    l.dropped += stats.dropped;
    l.retransmitted += stats.retransmitted;
    l.rerouted += stats.rerouted;
    l.undeliverable += stats.undeliverable;

    if perf.cycles != rec.cycles || latency != rec.latency {
        out.mismatches.push(format!(
            "job {}: replay ran {} cycles / {} deliveries, the front door {} / {}",
            job.index,
            perf.cycles,
            latency.count(),
            rec.cycles,
            rec.latency.count()
        ));
    }
    Ok(())
}

/// One more run of the cell, undecorated, with the phase profiler on:
/// the six-phase wall split and the exact work counters.
fn profiled_job(
    spec: &LabSpec,
    job: &JobSpec,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Replay,
) -> Result<(), String> {
    let layer = layer_of(&job.net);
    let idx = Some(job.index);
    let job_span = tracer.open(Some(parent), idx, "bench", "profiled_job");
    let (mut net, _) = job_network(spec, job, tracer, job_span)?;
    net.set_phase_profiler(PhaseProfiler::enabled(PROFILE_EVERY));
    let phases = match &job.work {
        Work::Synthetic { pattern, rate } => {
            let mut workload = BernoulliTraffic::new(spec.mesh, *pattern, *rate, job.seed);
            let span = tracer.open(Some(job_span), idx, layer, "profiled_run");
            let r = run_synthetic(&mut net, &mut workload, synthetic_options(spec));
            tracer.close(span);
            r.perf.phases
        }
        Work::Replay { benchmark } => {
            let span = tracer.open(Some(job_span), idx, "traffic", "generate_trace");
            let trace = job_trace(spec, job, benchmark)?;
            tracer.close(span);
            let span = tracer.open(Some(job_span), idx, layer, "profiled_run");
            let r = run_trace(&mut net, &trace, trace_options(spec));
            tracer.close(span);
            r.perf.phases
        }
    };
    let span = tracer.open(Some(job_span), idx, layer, "drop_network");
    drop(net);
    tracer.close(span);
    tracer.close(job_span);
    match phases {
        Some(p) => out.layer_mut(layer).phases.merge(&p),
        None => out
            .mismatches
            .push(format!("job {}: no phase breakdown came back", job.index)),
    }
    Ok(())
}
