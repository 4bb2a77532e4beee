//! Builds networks by name and executes one lab job end-to-end.
//!
//! A job runs entirely on the calling thread: the network is built,
//! faulted, driven, and dropped here, so nothing but the plain-data
//! [`JobRecord`] ever crosses a thread boundary. Everything the job does
//! is seeded from [`JobSpec::seed`] / [`JobSpec::fault_seed`] — both
//! pure functions of the spec — which is what makes the scheduler's
//! worker count invisible in the results.

use crate::report::{JobOutcome, JobRecord};
use crate::spec::{JobSpec, LabSpec, SabotageKind, Work};
use phastlane_core::{PhastlaneConfig, PhastlaneNetwork};
use phastlane_electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_netsim::fault::{Fault, FaultKind, FaultPlan};
use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::harness::{
    run_synthetic_guarded, run_trace_guarded, SyntheticOptions, SyntheticResult, TraceOptions,
};
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::PhaseProfiler;
use phastlane_netsim::watchdog::{CancelToken, Watchdog};
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;
use phastlane_traffic::synthetic::BernoulliTraffic;
use phastlane_traffic::Pattern;
use std::time::Instant;

/// Every network configuration name [`build_network`] accepts.
pub const NETWORKS: [&str; 9] = [
    "optical4",
    "optical5",
    "optical8",
    "optical4b32",
    "optical4b64",
    "optical4ib",
    "optical4sp50",
    "electrical2",
    "electrical3",
];

/// Whether `name` is a known network configuration (case-insensitive).
pub fn known_network(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    NETWORKS.contains(&lower.as_str())
}

/// The optical configuration behind a network name, or `None` for the
/// electrical baselines — the one name → [`PhastlaneConfig`] table of
/// the workspace (case-insensitive).
///
/// # Errors
///
/// Errors on a name outside [`NETWORKS`].
pub fn optical_config(name: &str) -> Result<Option<PhastlaneConfig>, String> {
    Ok(Some(match name.to_ascii_lowercase().as_str() {
        "optical4" => PhastlaneConfig::optical4(),
        "optical5" => PhastlaneConfig::optical5(),
        "optical8" => PhastlaneConfig::optical8(),
        "optical4b32" => PhastlaneConfig::optical4_b32(),
        "optical4b64" => PhastlaneConfig::optical4_b64(),
        "optical4ib" => PhastlaneConfig::optical4_ib(),
        "optical4sp50" => PhastlaneConfig::optical4_shared_pool(),
        "electrical2" | "electrical3" => return Ok(None),
        other => {
            return Err(format!(
                "unknown network {other:?}; known: {}",
                NETWORKS.join(" ")
            ))
        }
    }))
}

/// Builds a network from its configuration name, with an optional
/// retry-limit override (the fault subsystem's livelock guard; only
/// meaningful for the optical configs).
///
/// The box is `Send` so jobs can run on worker threads.
///
/// # Errors
///
/// Errors on an unknown name.
pub fn build_network(
    name: &str,
    mesh: Mesh,
    retry_limit: Option<u32>,
) -> Result<Box<dyn Network + Send>, String> {
    if let Some(mut cfg) = optical_config(name)? {
        cfg.mesh = mesh;
        if let Some(limit) = retry_limit {
            cfg.retry_limit = limit;
        }
        return Ok(Box::new(PhastlaneNetwork::new(cfg)));
    }
    // `optical_config` answers `None` for exactly these two names.
    let mut cfg = if name.eq_ignore_ascii_case("electrical2") {
        ElectricalConfig::electrical2()
    } else {
        ElectricalConfig::electrical3()
    };
    cfg.mesh = mesh;
    Ok(Box::new(ElectricalNetwork::new(cfg)))
}

/// The fault plan one job runs under, if any: the replica's random plan
/// at the job's intensity, unless the job is sabotaged.
pub fn job_fault_plan(spec: &LabSpec, job: &JobSpec) -> Option<FaultPlan> {
    if spec.sabotage_for(job.index) == Some(SabotageKind::Livelock) {
        // Deliberate livelock (harness testing): every router wedges
        // permanently, so packets queue but never move and the
        // watchdog's livelock detector must fire. Overrides the job's
        // regular fault plan.
        let mut plan = FaultPlan::new();
        for node in 0..spec.mesh.nodes() {
            plan.push(Fault::permanent(FaultKind::RouterStuck {
                node: NodeId(node as u16),
            }));
        }
        return Some(plan);
    }
    (job.intensity > 0.0).then(|| FaultPlan::random(spec.mesh, job.fault_seed, job.intensity))
}

/// Builds one job's network with the spec's retry policy and fault plan
/// applied: faulted jobs default to the chaos soak's tight retry cap so
/// the drain phase terminates; fault-free jobs run uncapped. When the
/// spec asks for profiling, a [`PhaseProfiler`] is attached — pure
/// observation, so the canonical results are unchanged.
fn build_job_network(spec: &LabSpec, job: &JobSpec) -> Result<Box<dyn Network + Send>, String> {
    let retry_limit = spec
        .retry_limit
        .or_else(|| (job.intensity > 0.0).then_some(50));
    let mut net = build_network(&job.net, spec.mesh, retry_limit)?;
    if let Some(plan) = job_fault_plan(spec, job) {
        net.set_fault_plan(plan, job.fault_seed);
    }
    if spec.profile > 0 {
        net.set_phase_profiler(PhaseProfiler::enabled(spec.profile));
    }
    Ok(net)
}

/// Default livelock window armed for sabotaged-livelock jobs when the
/// spec does not set one, so the deliberate wedge is detected instead of
/// burning the whole drain allowance.
const SABOTAGE_LIVELOCK_WINDOW: u64 = 2_000;

/// Builds one job's watchdog from the spec's supervision keys (plus the
/// supervisor's cancellation token, when running supervised). Returns
/// `None` when nothing is armed — the drive then pays only one branch
/// per cycle.
pub fn watchdog_for(
    spec: &LabSpec,
    job: &JobSpec,
    cancel: Option<&CancelToken>,
) -> Option<Watchdog> {
    let mut wd = Watchdog::new();
    if let Some(b) = spec.cycle_budget {
        wd = wd.with_cycle_budget(b);
    }
    let mut window = spec.livelock_window;
    if spec.sabotage_for(job.index) == Some(SabotageKind::Livelock) && window.is_none() {
        window = Some(SABOTAGE_LIVELOCK_WINDOW);
    }
    if let Some(w) = window {
        wd = wd.with_livelock_window(w);
    }
    if let Some(s) = spec.wall_budget {
        wd = wd.with_wall_budget(std::time::Duration::from_secs_f64(s));
    }
    if let Some(token) = cancel {
        wd = wd.with_cancel(token.clone());
    }
    wd.is_armed().then_some(wd)
}

/// Whether the network kept up with the offered load — the one
/// stability rule behind every saturation curve: deliveries tracked
/// offered packets and nothing was left stranded.
fn kept_up(r: &SyntheticResult) -> bool {
    r.unfinished == 0 && r.delivered_rate >= 0.90 * r.offered_rate
}

/// Summarizes one synthetic run as its job's record (wall clock still
/// zero; the caller attributes it).
fn synthetic_record(job: &JobSpec, pattern: &Pattern, rate: f64, r: SyntheticResult) -> JobRecord {
    let stable = kept_up(&r);
    // A watchdog interrupt makes the metrics partial: the job is marked
    // timed out, carries the verdict as its outcome, and abstains from
    // the stability vote (so saturation curves only see full runs).
    let outcome = match &r.interrupt {
        Some(i) => JobOutcome::TimedOut { reason: i.reason() },
        None => JobOutcome::Completed,
    };
    let interrupted = r.interrupt.is_some();
    JobRecord {
        index: job.index,
        net: job.net.clone(),
        pattern: Some(pattern.name().to_string()),
        rate: Some(rate),
        benchmark: None,
        intensity: job.intensity,
        replica: job.replica,
        seed: job.seed,
        cycles: r.perf.cycles,
        latency: r.latency,
        energy_pj: r.energy.total_pj(),
        offered_rate: Some(r.offered_rate),
        accepted_rate: Some(r.accepted_rate),
        delivered_rate: Some(r.delivered_rate),
        completion_cycle: None,
        unfinished: r.unfinished,
        undeliverable: r.undeliverable,
        timed_out: interrupted,
        stable: if interrupted { None } else { Some(stable) },
        outcome,
        wall_seconds: 0.0,
        phases: r.perf.phases,
    }
}

/// The effective synthetic drive options for one job. A
/// sabotaged-livelock job gets its drain stretched so the watchdog —
/// not the drain allowance — is what ends it, at a deterministic cycle.
fn synthetic_opts(spec: &LabSpec, job: &JobSpec) -> SyntheticOptions {
    let drain = if spec.sabotage_for(job.index) == Some(SabotageKind::Livelock) {
        spec.drain.max(1_000_000)
    } else {
        spec.drain
    };
    SyntheticOptions {
        warmup: spec.warmup,
        measure: spec.measure,
        drain,
    }
}

/// Runs one job of the expanded matrix and summarizes it.
///
/// # Errors
///
/// Errors on an unknown network or benchmark name (normally caught at
/// spec-parse time already).
pub fn run_job(spec: &LabSpec, job: &JobSpec) -> Result<JobRecord, String> {
    run_job_watched(spec, job, None)
}

/// [`run_job`] with a watchdog armed from the spec's supervision keys
/// (and the supervisor's cancellation token, if any).
///
/// # Errors
///
/// Same as [`run_job`].
pub fn run_job_watched(
    spec: &LabSpec,
    job: &JobSpec,
    cancel: Option<&CancelToken>,
) -> Result<JobRecord, String> {
    let wall_start = Instant::now();
    let mut net = build_job_network(spec, job)?;
    let watchdog = watchdog_for(spec, job, cancel);

    let mut rec = match &job.work {
        Work::Synthetic { pattern, rate } => {
            let mut workload = BernoulliTraffic::new(spec.mesh, *pattern, *rate, job.seed);
            let r = run_synthetic_guarded(
                &mut net,
                &mut workload,
                synthetic_opts(spec, job),
                None,
                watchdog,
            );
            synthetic_record(job, pattern, *rate, r)
        }
        Work::Replay { benchmark } => {
            let mut profile = splash2::benchmark(benchmark)
                .ok_or_else(|| format!("unknown benchmark {benchmark:?}"))?
                .scaled(spec.scale, spec.mesh);
            profile.seed = job.seed;
            let trace = generate_trace(spec.mesh, &profile);
            let r = run_trace_guarded(
                &mut net,
                &trace,
                TraceOptions {
                    max_cycles: spec.max_cycles,
                },
                None,
                watchdog,
            );
            let outcome = match &r.interrupt {
                Some(i) => JobOutcome::TimedOut { reason: i.reason() },
                None => JobOutcome::Completed,
            };
            JobRecord {
                index: job.index,
                net: job.net.clone(),
                pattern: None,
                rate: None,
                benchmark: Some(benchmark.clone()),
                intensity: job.intensity,
                replica: job.replica,
                seed: job.seed,
                cycles: r.perf.cycles,
                latency: r.latency,
                energy_pj: r.energy.total_pj(),
                offered_rate: None,
                accepted_rate: None,
                delivered_rate: None,
                completion_cycle: Some(r.completion_cycle),
                unfinished: 0,
                undeliverable: r.undeliverable,
                timed_out: r.timed_out,
                stable: None,
                outcome,
                wall_seconds: 0.0,
                phases: r.perf.phases,
            }
        }
    };
    rec.wall_seconds = wall_start.elapsed().as_secs_f64();
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::expand;

    #[test]
    fn every_advertised_network_builds() {
        for n in NETWORKS {
            assert!(known_network(n), "{n}");
            assert!(build_network(n, Mesh::new(4, 4), None).is_ok(), "{n}");
            assert_eq!(
                optical_config(n).unwrap().is_some(),
                n.starts_with("optical"),
                "{n}"
            );
        }
        assert!(!known_network("warp-drive"));
        assert!(build_network("warp-drive", Mesh::new(4, 4), None).is_err());
        assert!(optical_config("warp-drive").is_err());
    }

    #[test]
    fn unstable_when_unfinished() {
        let run = |delivered_rate: f64, unfinished: u64| SyntheticResult {
            latency: Default::default(),
            offered_rate: 0.1,
            accepted_rate: 0.1,
            delivered_rate,
            energy: Default::default(),
            unfinished,
            undeliverable: 0,
            interrupt: None,
            perf: Default::default(),
        };
        assert!(!kept_up(&run(0.1, 1)));
        assert!(kept_up(&run(0.095, 0)));
        assert!(!kept_up(&run(0.05, 0)));
    }

    #[test]
    fn synthetic_job_is_reproducible() {
        let spec = LabSpec::parse(
            "mesh 4x4\nnets optical4\npatterns uniform\nrates 0.03\n\
             warmup 100\nmeasure 400\ndrain 1000\n",
        )
        .unwrap();
        let jobs = expand(&spec);
        assert_eq!(jobs.len(), 1);
        let a = run_job(&spec, &jobs[0]).unwrap();
        let b = run_job(&spec, &jobs[0]).unwrap();
        assert!(a.latency.count() > 0, "some packets measured");
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.delivered_rate, b.delivered_rate);
        assert_eq!(a.energy_pj, b.energy_pj);
    }

    #[test]
    fn replay_job_completes() {
        let spec = LabSpec::parse(
            "mesh 4x4\nnets electrical2\npatterns uniform\nrates 0.02\n\
             benchmarks LU\nscale 0.02\nwarmup 50\nmeasure 100\ndrain 500\n",
        )
        .unwrap();
        let job = expand(&spec)
            .into_iter()
            .find(|j| matches!(j.work, Work::Replay { .. }))
            .expect("replay job exists");
        let rec = run_job(&spec, &job).unwrap();
        assert!(!rec.timed_out);
        assert!(rec.completion_cycle.unwrap() > 0);
        assert_eq!(rec.benchmark.as_deref(), Some("LU"));
    }

    #[test]
    fn faulted_job_applies_a_plan() {
        let spec = LabSpec::parse(
            "mesh 4x4\nnets optical4\npatterns uniform\nrates 0.03\n\
             intensities 0.25\nwarmup 100\nmeasure 400\ndrain 4000\n",
        )
        .unwrap();
        let jobs = expand(&spec);
        let rec = run_job(&spec, &jobs[0]).unwrap();
        // Under a non-trivial plan the run still resolves every packet.
        assert_eq!(rec.unfinished, 0, "drain resolved all packets");
    }
}
