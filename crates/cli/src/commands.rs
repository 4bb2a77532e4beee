//! Implementations of the `phastlane` subcommands.

use crate::args::{ArgError, Parsed};
use phastlane_lab::runner::build_network;
use phastlane_netsim::fault::FaultPlan;
use phastlane_netsim::harness::{
    run_synthetic_observed, run_trace, run_trace_observed, SyntheticOptions, Trace, TraceOptions,
    TraceResult,
};
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::json::JsonValue;
use phastlane_netsim::obs::{
    FlightRecorder, MetricsCollector, Phase, PhaseBreakdown, PhaseProfiler, RunReport, Severity,
    TraceBuffer,
};
use phastlane_netsim::Mesh;
use phastlane_photonics::delay::{RouterDesign, CLOCK_GHZ};
use phastlane_photonics::devices::Waveguide;
use phastlane_photonics::power::PowerPoint;
use phastlane_photonics::scaling::Scaling;
use phastlane_photonics::wdm::WdmConfig;
use phastlane_traffic::coherence::{check_scale, generate_trace};
use phastlane_traffic::splash2;
use phastlane_traffic::synthetic::BernoulliTraffic;
use phastlane_traffic::Pattern;

/// Replays `trace` on a fresh network of the lab configuration `name`;
/// the network comes back for its label, counters and link loads.
pub(crate) fn replay_on(
    name: &str,
    mesh: Mesh,
    trace: &Trace,
) -> Result<(TraceResult, Box<dyn Network + Send>), ArgError> {
    let mut net = build_network(name, mesh, None).map_err(ArgError)?;
    let result = run_trace(&mut net, trace, TraceOptions::default());
    Ok((result, net))
}

/// Average network power over a replay, in milliwatts.
pub(crate) fn average_power_mw(r: &TraceResult) -> f64 {
    r.energy
        .average_power_mw(r.completion_cycle.max(1), CLOCK_GHZ)
}

/// Parses `--mesh WxH` (default 8x8).
///
/// # Errors
///
/// Errors where [`Mesh::parse`] does: malformed or zero dimensions, or
/// more nodes than a node id names.
pub fn parse_mesh(p: &Parsed) -> Result<Mesh, ArgError> {
    p.get("mesh").map_or(Ok(Mesh::PAPER), |s| {
        Mesh::parse(s).map_err(|e| ArgError(format!("--mesh: {e}")))
    })
}

/// Parses the comma-separated numbers of option `--key`; an absent
/// option is `default`.
fn parse_list(p: &Parsed, key: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
    let Some(list) = p.get(key) else {
        return Ok(default.to_vec());
    };
    list.split(',')
        .map(|s| {
            s.parse()
                .map_err(|_| ArgError(format!("invalid value for --{key}: {s:?}")))
        })
        .collect()
}

/// Observability options shared by `simulate` and `sweep`: where to
/// export the event trace, metrics series, and run report, plus the
/// sampling interval and trace bounds.
struct ObsArgs {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    report_out: Option<String>,
    sample_interval: u64,
    ring: Option<usize>,
    severity: Severity,
    flight_out: Option<String>,
    flight_sample: u64,
    profile: bool,
}

fn parse_obs(p: &Parsed) -> Result<ObsArgs, ArgError> {
    let severity = match p.get("severity") {
        None => Severity::Debug,
        Some(s) => Severity::from_name(s)
            .ok_or_else(|| ArgError(format!("unknown severity {s:?}; try debug, info, warn")))?,
    };
    let ring = match p.get("ring") {
        None => None,
        Some(_) => {
            let n: usize = p.get_parsed("ring", 0)?;
            if n == 0 {
                return Err(ArgError("--ring requires a positive capacity".into()));
            }
            Some(n)
        }
    };
    let sample_interval: u64 = p.get_parsed("sample-interval", 100)?;
    if sample_interval == 0 {
        return Err(ArgError("--sample-interval must be positive".into()));
    }
    let flight_sample: u64 = p.get_parsed("flight-sample", 64)?;
    if flight_sample == 0 {
        return Err(ArgError("--flight-sample must be positive".into()));
    }
    Ok(ObsArgs {
        trace_out: p.get("trace-out").map(str::to_string),
        metrics_out: p.get("metrics-out").map(str::to_string),
        report_out: p.get("report-out").map(str::to_string),
        sample_interval,
        ring,
        severity,
        flight_out: p.get("flight-recorder").map(str::to_string),
        flight_sample,
        profile: p.flag("profile"),
    })
}

impl ObsArgs {
    /// Attaches every instrument the flags ask for to a freshly built
    /// network — event trace, phase profiler, flight recorder (its
    /// sampling seeded with `seed`) — and returns the metrics collector
    /// for the run to feed, when `--metrics-out` asks for one.
    fn attach(&self, net: &mut dyn Network, seed: u64) -> Option<MetricsCollector> {
        if self.trace_out.is_some() {
            let buffer = match self.ring {
                Some(n) => TraceBuffer::ring(n),
                None => TraceBuffer::new(),
            };
            net.set_trace(buffer.with_min_severity(self.severity));
        }
        if self.profile {
            net.set_phase_profiler(PhaseProfiler::enabled(PhaseProfiler::DEFAULT_SAMPLE_EVERY));
        }
        if self.flight_out.is_some() {
            net.set_flight_recorder(FlightRecorder::new(seed, self.flight_sample));
        }
        self.metrics_out
            .as_ref()
            .map(|_| MetricsCollector::new(self.sample_interval, net.mesh().nodes()))
    }

    /// Takes the instruments back off `net` and writes every export the
    /// flags ask for — flight recorder, trace, metrics, `report` —
    /// returning the `--profile` table and one console line per file,
    /// each behind `indent`. A run that is one `point` of several (a rate
    /// of a sweep, an intensity of a soak) gets `-r<point>` before each
    /// file's extension, so the points do not overwrite one another.
    fn export(
        &self,
        net: &mut dyn Network,
        metrics: Option<MetricsCollector>,
        point: Option<f64>,
        indent: &str,
        report: RunReport,
    ) -> Result<String, ArgError> {
        let at = |path: &str| match (point, path.rsplit_once('.')) {
            (None, _) => path.to_string(),
            (Some(p), Some((stem, ext))) => format!("{stem}-r{p}.{ext}"),
            (Some(p), None) => format!("{path}-r{p}"),
        };
        let mut out = report
            .perf
            .phases
            .as_ref()
            .map_or(String::new(), phase_table);
        if let (Some(path), Some(fr)) = (&self.flight_out, net.take_flight_recorder()) {
            let (path, json) = (at(path), fr.to_json());
            // The dump has no CSV form.
            write_export(&path, &json, || pretty(&json))?;
            out.push_str(&format!(
                "{indent}flight recorder: {} journeys of {} packets seen -> {path}\n",
                fr.pinned(),
                json.get("packets_seen")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
            ));
        }
        if let Some(path) = &self.trace_out {
            let path = at(path);
            let tb = net.take_trace().unwrap_or_default();
            write_export(&path, &tb.to_json(), || tb.to_csv())?;
            out.push_str(&format!(
                "{indent}trace: {} events ({} evicted, {} filtered) -> {path}\n",
                tb.len(),
                tb.evicted(),
                tb.filtered()
            ));
        }
        if let (Some(path), Some(m)) = (&self.metrics_out, metrics) {
            let path = at(path);
            let series = m.into_series();
            write_export(&path, &series.to_json(), || series.to_csv())?;
            out.push_str(&format!(
                "{indent}metrics: {} samples -> {path}\n",
                series.samples.len()
            ));
        }
        if let Some(path) = &self.report_out {
            let path = at(path);
            write_export(&path, &report.to_json(), || report.to_csv())?;
            out.push_str(&format!("{indent}report -> {path}\n"));
        }
        Ok(out)
    }
}

/// Human-readable per-phase table for `--profile` output.
fn phase_table(b: &PhaseBreakdown) -> String {
    let mut out = format!(
        "phase breakdown ({} cycles, {} wall-sampled):\n",
        b.cycles, b.sampled_cycles
    );
    for ph in Phase::ALL {
        out.push_str(&format!(
            "  {:>9} {:>6.1}%  work {}\n",
            ph.name(),
            b.share(ph) * 100.0,
            b.work[ph.index()]
        ));
    }
    out
}

/// Fault-injection options shared by `simulate`, `sweep`, `chaos`, and
/// `analyze`: the plan itself plus the seed for fault-path randomness.
pub(crate) struct FaultArgs {
    pub(crate) plan: FaultPlan,
    seed: u64,
    retry_limit: Option<u32>,
}

/// Parses `--fault-plan FILE` / `--fault-rate R` / `--fault-seed S` /
/// `--retry-limit L`. Returns `None` when no fault source was given (the
/// network then runs with the guaranteed-zero-effect empty plan).
pub(crate) fn parse_fault(p: &Parsed, mesh: Mesh) -> Result<Option<FaultArgs>, ArgError> {
    let seed: u64 = p.get_parsed("fault-seed", 1)?;
    let retry_limit = match p.get("retry-limit") {
        None => None,
        Some(_) => Some(p.get_parsed("retry-limit", 0u32)?),
    };
    let plan = match (p.get("fault-plan"), p.get("fault-rate")) {
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "--fault-plan and --fault-rate are mutually exclusive".into(),
            ))
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
            FaultPlan::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))?
        }
        (None, Some(_)) => {
            let rate: f64 = p.get_parsed("fault-rate", 0.0)?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(ArgError("--fault-rate must be in [0, 1]".into()));
            }
            FaultPlan::random(mesh, seed, rate)
        }
        (None, None) => {
            return Ok(retry_limit.map(|_| FaultArgs {
                plan: FaultPlan::new(),
                seed,
                retry_limit,
            }))
        }
    };
    Ok(Some(FaultArgs {
        plan,
        seed,
        retry_limit,
    }))
}

/// Pretty JSON with its trailing newline.
fn pretty(json: &JsonValue) -> String {
    let mut s = json.to_string_pretty();
    if !s.ends_with('\n') {
        s.push('\n');
    }
    s
}

/// Writes a JSON or CSV export, picked by the `.csv` extension.
fn write_export(
    path: &str,
    json: &JsonValue,
    csv: impl FnOnce() -> String,
) -> Result<(), ArgError> {
    let body = if path.ends_with(".csv") {
        csv()
    } else {
        pretty(json)
    };
    std::fs::write(path, body).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

fn load_benchmark_trace(p: &Parsed, mesh: Mesh) -> Result<(String, Trace), ArgError> {
    let name = p.get("benchmark").unwrap_or("FFT");
    let scale: f64 = p.get_parsed("scale", 0.25)?;
    check_scale(scale).map_err(|e| ArgError(format!("--{e}")))?;
    let profile = splash2::benchmark(name)
        .ok_or_else(|| ArgError(format!("unknown benchmark {name:?} (see Table 3)")))?
        .scaled(scale, mesh);
    Ok((profile.name.to_string(), generate_trace(mesh, &profile)))
}

/// `phastlane simulate`: replay a benchmark trace on one network.
///
/// # Errors
///
/// Propagates argument errors.
pub fn cmd_simulate(p: &Parsed) -> Result<String, ArgError> {
    let mesh = parse_mesh(p)?;
    let obs = parse_obs(p)?;
    let fault = parse_fault(p, mesh)?;
    let (name, trace) = load_benchmark_trace(p, mesh)?;
    let retry_limit = fault.as_ref().and_then(|f| f.retry_limit);
    let mut net =
        build_network(p.get("net").unwrap_or("optical4"), mesh, retry_limit).map_err(ArgError)?;
    if let Some(f) = &fault {
        net.set_fault_plan(f.plan.clone(), f.seed);
    }
    let opts = TraceOptions::default();
    // The trace itself is deterministic, so the flight recorder's
    // sampling seed is the only knob --seed turns here.
    let mut metrics = obs.attach(net.as_mut(), p.get_parsed("seed", 7)?);
    let r = run_trace_observed(&mut net, &trace, opts, metrics.as_mut());
    let stats = net.stats();
    let mut out = String::new();
    out.push_str(&format!(
        "{} on {}: {} messages\n",
        name,
        net.name(),
        trace.len()
    ));
    if r.timed_out {
        out.push_str(&format!("TIMED OUT after {} cycles\n", opts.max_cycles));
    }
    out.push_str(&format!(
        "completion: {} cycles  latency[{}]\n",
        r.completion_cycle, r.latency
    ));
    out.push_str(&format!(
        "drops: {}  retransmits: {}\n",
        stats.dropped, stats.retransmitted
    ));
    if let Some(f) = &fault {
        out.push_str(&format!(
            "faults: {}  rerouted: {}  undeliverable: {} (retry cap hit {} times)\n",
            f.plan.len(),
            stats.rerouted,
            stats.undeliverable,
            stats.retry_exhausted,
        ));
        if stats.ecc_corrected + stats.ecc_uncorrectable > 0 {
            out.push_str(&format!(
                "ecc: {} corrected, {} uncorrectable\n",
                stats.ecc_corrected, stats.ecc_uncorrectable
            ));
        }
    }
    out.push_str(&format!(
        "power: {:.0} mW ({:.0} pJ dynamic, {:.0} pJ laser, {:.0} pJ link, {:.0} pJ leakage)\n",
        average_power_mw(&r),
        r.energy.dynamic_pj,
        r.energy.laser_pj,
        r.energy.link_pj,
        r.energy.leakage_pj,
    ));
    out.push_str(&format!(
        "sim speed: {:.0} cycles/s ({:.3} s wall)\n",
        r.perf.cycles_per_sec(),
        r.perf.wall_seconds
    ));
    let mut extra = vec![
        ("benchmark".into(), JsonValue::Str(name)),
        ("messages".into(), JsonValue::Uint(trace.len() as u64)),
    ];
    if let Some(f) = &fault {
        extra.push(("faults".into(), JsonValue::Uint(f.plan.len() as u64)));
        extra.push(("fault_seed".into(), JsonValue::Uint(f.seed)));
    }
    let report = RunReport {
        network: net.name(),
        width: mesh.width(),
        height: mesh.height(),
        seed: None,
        cycles: r.completion_cycle,
        stats,
        energy: r.energy,
        perf: r.perf,
        extra,
    };
    out.push_str(&obs.export(net.as_mut(), metrics, None, "", report)?);
    Ok(out)
}

/// `phastlane compare`: the same trace on two networks, with speedup.
///
/// # Errors
///
/// Propagates argument errors.
pub fn cmd_compare(p: &Parsed) -> Result<String, ArgError> {
    let mesh = parse_mesh(p)?;
    let (name, trace) = load_benchmark_trace(p, mesh)?;
    let mut out = format!("{name}: {} messages\n", trace.len());
    let mut base: Option<u64> = None;
    for net_name in ["electrical3", p.get("net").unwrap_or("optical4")] {
        let (r, net) = replay_on(net_name, mesh, &trace)?;
        out.push_str(&format!(
            "{:12} {:>9} cycles  {:>8.0} mW\n",
            net.name(),
            r.completion_cycle,
            average_power_mw(&r)
        ));
        match base {
            None => base = Some(r.completion_cycle),
            Some(b) => out.push_str(&format!(
                "network speedup: {:.2}x\n",
                b as f64 / r.completion_cycle.max(1) as f64
            )),
        }
    }
    Ok(out)
}

/// `phastlane sweep`: latency at each `--rate` (a comma list) for a pattern.
///
/// # Errors
///
/// Propagates argument errors.
pub fn cmd_sweep(p: &Parsed) -> Result<String, ArgError> {
    let mesh = parse_mesh(p)?;
    let pattern_name = p.get("pattern").unwrap_or("uniform");
    let pattern = Pattern::from_name(pattern_name)
        .ok_or_else(|| ArgError(format!("unknown pattern {pattern_name:?}")))?;
    pattern.check_mesh(mesh).map_err(ArgError)?;
    let rates = parse_list(p, "rate", &[0.05])?;
    if let Some(bad) = rates
        .iter()
        .find(|r| !r.is_finite() || !(0.0..=1.0).contains(*r))
    {
        return Err(ArgError(format!(
            "injection rates must be finite and in [0, 1], got {bad}"
        )));
    }
    let net_name = p.get("net").unwrap_or("optical4");
    let obs = parse_obs(p)?;
    let fault = parse_fault(p, mesh)?;
    let seed: u64 = p.get_parsed("seed", 7)?;
    let multi = rates.len() > 1;
    let mut out = format!(
        "{} on {net_name} ({}x{})\n",
        pattern.label(),
        mesh.width(),
        mesh.height()
    );
    out.push_str(&format!(
        "{:>8} {:>10} {:>8} {:>10}\n",
        "rate", "latency", "p99", "delivered"
    ));
    let retry_limit = fault.as_ref().and_then(|f| f.retry_limit);
    for rate in rates {
        let mut net = build_network(net_name, mesh, retry_limit).map_err(ArgError)?;
        if let Some(f) = &fault {
            net.set_fault_plan(f.plan.clone(), f.seed);
        }
        let mut metrics = obs.attach(net.as_mut(), seed);
        let mut w = BernoulliTraffic::new(mesh, pattern, rate, seed);
        let r = run_synthetic_observed(
            &mut net,
            &mut w,
            SyntheticOptions {
                warmup: 500,
                measure: 2_000,
                drain: 6_000,
            },
            metrics.as_mut(),
        );
        out.push_str(&format!(
            "{rate:>8.3} {:>10.2} {:>8} {:>10.3}\n",
            r.latency.mean().unwrap_or(f64::NAN),
            r.latency
                .percentile(99.0)
                .map_or("-".into(), |v| v.to_string()),
            r.delivered_rate
        ));
        if r.undeliverable > 0 {
            out.push_str(&format!(
                "  undeliverable: {} (rerouted {})\n",
                r.undeliverable,
                net.stats().rerouted
            ));
        }
        let report = RunReport {
            network: net.name(),
            width: mesh.width(),
            height: mesh.height(),
            seed: Some(seed),
            cycles: r.perf.cycles,
            stats: net.stats(),
            energy: r.energy,
            perf: r.perf,
            extra: vec![
                (
                    "pattern".into(),
                    JsonValue::Str(pattern.label().to_string()),
                ),
                ("offered_rate".into(), JsonValue::Num(rate)),
                ("delivered_rate".into(), JsonValue::Num(r.delivered_rate)),
            ],
        };
        let point = multi.then_some(rate);
        out.push_str(&obs.export(net.as_mut(), metrics, point, "  ", report)?);
    }
    Ok(out)
}

/// `phastlane trace gen|info|replay`: trace-file workflows using the
/// text codec.
///
/// # Errors
///
/// Propagates argument and I/O errors.
pub fn cmd_trace(p: &Parsed) -> Result<String, ArgError> {
    let io_err = |e: std::io::Error| ArgError(format!("i/o error: {e}"));
    match p.positional(1) {
        Some("gen") => {
            let mesh = parse_mesh(p)?;
            let (name, trace) = load_benchmark_trace(p, mesh)?;
            let out_path = p.get("out").unwrap_or("trace.txt").to_string();
            std::fs::write(&out_path, phastlane_traffic::codec::encode(&trace)).map_err(io_err)?;
            Ok(format!(
                "{name}: wrote {} messages to {out_path}\n",
                trace.len()
            ))
        }
        Some("info") => {
            let path = p
                .positional(2)
                .ok_or_else(|| ArgError("trace info <file>".into()))?;
            let text = std::fs::read_to_string(path).map_err(io_err)?;
            let trace =
                phastlane_traffic::codec::decode(&text).map_err(|e| ArgError(e.to_string()))?;
            let mix = phastlane_traffic::coherence::summarize(&trace);
            Ok(format!(
                "{path}: {} messages ({} requests, {} responses, {} writebacks, {} barrier)\n",
                trace.len(),
                mix.requests,
                mix.responses,
                mix.writebacks,
                mix.barrier_msgs
            ))
        }
        Some("replay") => {
            let path = p
                .positional(2)
                .ok_or_else(|| ArgError("trace replay <file> [--net N]".into()))?;
            let text = std::fs::read_to_string(path).map_err(io_err)?;
            let trace =
                phastlane_traffic::codec::decode(&text).map_err(|e| ArgError(e.to_string()))?;
            let mesh = parse_mesh(p)?;
            let (r, net) = replay_on(p.get("net").unwrap_or("optical4"), mesh, &trace)?;
            Ok(format!(
                "{path} on {}: {} cycles, latency[{}]\n",
                net.name(),
                r.completion_cycle,
                r.latency
            ))
        }
        other => Err(ArgError(format!(
            "trace subcommand must be gen|info|replay, got {other:?}"
        ))),
    }
}

/// `phastlane trace-dump`: inspect a JSON event trace written by
/// `--trace-out` — per-kind histogram plus (optionally filtered) event
/// listing.
///
/// # Errors
///
/// Propagates argument, I/O, and parse errors.
pub fn cmd_trace_dump(p: &Parsed) -> Result<String, ArgError> {
    let path = p.positional(1).ok_or_else(|| {
        ArgError("trace-dump <file.json> [--kind K] [--node N] [--limit L] [--counts]".into())
    })?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let json =
        phastlane_netsim::obs::json::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let events = json
        .get("events")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| ArgError(format!("{path}: not a trace export (no \"events\" array)")))?;

    let kind_filter = match p.get("kind") {
        None => None,
        Some(k) => Some(
            phastlane_netsim::obs::EventKind::from_name(k)
                .ok_or_else(|| ArgError(format!("unknown event kind {k:?}")))?
                .name(),
        ),
    };
    let node_filter: Option<u64> = match p.get("node") {
        None => None,
        Some(_) => Some(p.get_parsed("node", 0)?),
    };
    let limit: usize = p.get_parsed("limit", 40)?;

    let mut out = String::new();
    let stat = |k: &str| json.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    out.push_str(&format!(
        "{path}: {} events retained ({} recorded, {} evicted, {} filtered)\n",
        events.len(),
        stat("recorded"),
        stat("evicted"),
        stat("filtered"),
    ));

    // Per-kind histogram over the retained events.
    let mut counts: Vec<(String, u64)> = Vec::new();
    for e in events {
        let kind = e.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
        match counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, c)) => *c += 1,
            None => counts.push((kind.to_string(), 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (kind, c) in &counts {
        out.push_str(&format!("{kind:>20} {c:>8}\n"));
    }
    if p.flag("counts") {
        return Ok(out);
    }

    out.push_str(&format!(
        "\n{:>10} {:>20} {:>5} {:>6} {:>8}\n",
        "cycle", "kind", "node", "port", "packet"
    ));
    let mut shown = 0usize;
    for e in events {
        let kind = e.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
        if kind_filter.is_some_and(|k| k != kind) {
            continue;
        }
        let node = e.get("node").and_then(JsonValue::as_u64);
        if node_filter.is_some() && node != node_filter {
            continue;
        }
        if shown == limit {
            out.push_str("... (raise --limit for more)\n");
            break;
        }
        shown += 1;
        let opt_u = |k: &str| {
            e.get(k)
                .and_then(JsonValue::as_u64)
                .map_or("-".to_string(), |v| v.to_string())
        };
        out.push_str(&format!(
            "{:>10} {kind:>20} {:>5} {:>6} {:>8}\n",
            opt_u("cycle"),
            opt_u("node"),
            e.get("port").and_then(JsonValue::as_str).unwrap_or("-"),
            opt_u("packet"),
        ));
    }
    Ok(out)
}

/// `phastlane design`: the §3 analytic models from the command line.
///
/// # Errors
///
/// Propagates argument errors.
pub fn cmd_design(p: &Parsed) -> Result<String, ArgError> {
    let named = |key: &'static str| move |e: String| ArgError(format!("--{key}: {e}"));
    let wavelengths: u32 = p.get_parsed("wavelengths", 64)?;
    WdmConfig::check_degree(wavelengths).map_err(named("wavelengths"))?;
    let wdm = WdmConfig::new(wavelengths);
    let hops: u32 = p.get_parsed("hops", 4)?;
    PowerPoint::check_hops(hops).map_err(named("hops"))?;
    let eff: f64 = p.get_parsed("efficiency", 0.98)?;
    Waveguide::check_crossing_efficiency(eff).map_err(named("efficiency"))?;
    let mut out = String::new();
    out.push_str(&format!(
        "wavelengths: {wavelengths}, waveguides: {}\n",
        wdm.total_waveguides()
    ));
    for s in Scaling::ALL {
        let d = RouterDesign {
            wdm,
            scaling: s,
            node: phastlane_photonics::units::TechNode::NM16,
        };
        out.push_str(&format!(
            "{s:12}: {} hops per 4 GHz cycle\n",
            d.max_hops_per_cycle()
        ));
    }
    let power = PowerPoint::new(wdm, hops, eff).peak_optical_power();
    out.push_str(&format!(
        "peak optical power at {hops} hops, {:.1}% crossings: {:.1} W\n",
        eff * 100.0,
        power.as_watts()
    ));
    let area = phastlane_photonics::area::RouterArea::for_wdm(wdm);
    out.push_str(&format!("router area: {:.2} mm^2\n", area.total().value()));
    Ok(out)
}

/// `phastlane chaos`: a soak sweep across fault intensities. For each
/// intensity a seeded random fault plan is generated and a synthetic
/// uniform-traffic run executes on a fresh network; the table reports the
/// delivered fraction, p99 latency inflation over the fault-free
/// baseline, and undeliverable counts. Every accepted packet must end
/// delivered or explicitly undeliverable — leftover in-flight packets
/// are flagged as UNRESOLVED.
///
/// # Errors
///
/// Propagates argument errors.
pub fn cmd_chaos(p: &Parsed) -> Result<String, ArgError> {
    let mesh = parse_mesh(p)?;
    Pattern::Uniform.check_mesh(mesh).map_err(ArgError)?;
    let net_name = p.get("net").unwrap_or("optical4");
    let rate: f64 = p.get_parsed("rate", 0.05)?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(ArgError(format!(
            "injection rates must be finite and in [0, 1], got {rate}"
        )));
    }
    let seed: u64 = p.get_parsed("seed", 7)?;
    let fault_seed: u64 = p.get_parsed("fault-seed", 1)?;
    // A tight retry cap keeps the soak's drain phase short; override with
    // --retry-limit for longer-suffering sources.
    let retry_limit: u32 = p.get_parsed("retry-limit", 50)?;
    let intensities = parse_list(p, "intensities", &[0.0, 0.1, 0.25, 0.5])?;
    if intensities.iter().any(|i| !(0.0..=1.0).contains(i)) {
        return Err(ArgError("intensities must be in [0, 1]".into()));
    }
    let obs = parse_obs(p)?;
    // The drain window is generous: under heavy fault intensities every
    // stranded packet must walk to its retry cap (head-of-line, one queue
    // entry at a time) before the run can account for it.
    let opts = SyntheticOptions {
        warmup: 500,
        measure: 2_000,
        drain: 60_000,
    };

    let mut out = format!(
        "chaos soak: {net_name} ({}x{}), uniform rate {rate}, fault seed {fault_seed}\n",
        mesh.width(),
        mesh.height()
    );
    out.push_str(&format!(
        "{:>9} {:>7} {:>10} {:>8} {:>6} {:>8} {:>9}\n",
        "intensity", "faults", "delivered", "p99", "p99x", "undeliv", "rerouted"
    ));
    let mut baseline_p99: Option<u64> = None;
    for &intensity in &intensities {
        let plan = FaultPlan::random(mesh, fault_seed, intensity);
        let mut net = build_network(net_name, mesh, Some(retry_limit)).map_err(ArgError)?;
        if !plan.is_empty() {
            net.set_fault_plan(plan.clone(), fault_seed);
        }
        let mut metrics = obs.attach(net.as_mut(), seed);
        let mut w = BernoulliTraffic::new(mesh, Pattern::Uniform, rate, seed);
        let r = run_synthetic_observed(&mut net, &mut w, opts, metrics.as_mut());
        let stats = net.stats();
        let resolved = stats.delivered + stats.undeliverable;
        let delivered_frac = if resolved > 0 {
            stats.delivered as f64 / resolved as f64
        } else {
            1.0
        };
        let p99 = r.latency.percentile(99.0);
        if intensity == 0.0 && baseline_p99.is_none() {
            baseline_p99 = p99;
        }
        let inflation = match (baseline_p99, p99) {
            (Some(b), Some(v)) if b > 0 => format!("{:.2}", v as f64 / b as f64),
            _ => "-".into(),
        };
        out.push_str(&format!(
            "{intensity:>9.2} {:>7} {:>9.1}% {:>8} {:>6} {:>8} {:>9}\n",
            plan.len(),
            delivered_frac * 100.0,
            p99.map_or("-".into(), |v| v.to_string()),
            inflation,
            stats.undeliverable,
            stats.rerouted,
        ));
        if r.unfinished > 0 {
            out.push_str(&format!(
                "  UNRESOLVED: {} accepted packets neither delivered nor undeliverable\n",
                r.unfinished
            ));
        }
        let report = RunReport {
            network: net.name(),
            width: mesh.width(),
            height: mesh.height(),
            seed: Some(seed),
            cycles: r.perf.cycles,
            stats,
            energy: r.energy,
            perf: r.perf,
            extra: vec![
                ("intensity".into(), JsonValue::Num(intensity)),
                ("faults".into(), JsonValue::Uint(plan.len() as u64)),
                ("fault_seed".into(), JsonValue::Uint(fault_seed)),
                ("fault_plan".into(), JsonValue::Str(plan.encode())),
                ("delivered_fraction".into(), JsonValue::Num(delivered_frac)),
                ("unresolved".into(), JsonValue::Uint(r.unfinished)),
            ],
        };
        let point = (intensities.len() > 1).then_some(intensity);
        out.push_str(&obs.export(net.as_mut(), metrics, point, "  ", report)?);
    }
    Ok(out)
}

/// Usage text.
pub fn usage() -> String {
    let text = "phastlane — Phastlane (ISCA 2009) reproduction CLI

USAGE:
  phastlane simulate [--net N] [--benchmark B] [--scale S] [--mesh WxH]
  phastlane compare  [--net N] [--benchmark B] [--scale S]
  phastlane sweep    [--net N] [--pattern P] [--rate R1,R2,..] [--seed S]
  phastlane chaos    [--net N] [--rate R] [--intensities I1,I2,..] [--seed S]
                     [--fault-seed S] [--retry-limit L]
  phastlane lab run     SPEC [--workers N] [--report-out F]
                     [--perf-out F] [--progress[=FILE]] [--profile]
                     [--journal F] [--resume F] [--preflight]
  phastlane lab record  SPEC [--baseline-dir DIR] [--workers N]
  phastlane lab compare SPEC [--baseline-dir DIR] [--workers N]
  phastlane serve    [--addr A] [--workers N] [--queue-depth D]
                     [--state-dir DIR] [--baseline-dir DIR] [--allow-shutdown]
  phastlane client submit SPEC [--addr A] [--workers N] [--wait]
                     [--report-out F]
  phastlane client status ID [--addr A]
  phastlane client watch  ID [--addr A]
  phastlane client shutdown  [--addr A]
  phastlane analyze  [--net N] [--mesh WxH] [--fault-plan F | --fault-rate R]
                     [--fault-seed S] [--json] [--out FILE]
  phastlane analyze  --ring LEN | --spec FILE [--json]
  phastlane trace gen    [--benchmark B] [--scale S] [--out FILE]
  phastlane trace info   FILE
  phastlane trace replay FILE [--net N]
  phastlane trace-dump FILE.json [--kind K] [--node N] [--limit L] [--counts]
  phastlane design   [--wavelengths W] [--hops H] [--efficiency E]
  phastlane figure   [NAME] [--quick] [--csv FILE] [--chart]
  phastlane help     (or --help after any command: this text)

observability (simulate, sweep, chaos):
  --trace-out FILE      export the cycle-accurate event trace (.json or .csv)
  --metrics-out FILE    export interval-sampled time-series metrics
  --report-out FILE     export the structured run report
  --sample-interval C   metrics window in cycles (default 100)
  --ring N              keep only the latest N trace events
  --severity S          trace floor: debug (default), info, warn
  --profile             per-phase hot-loop breakdown, timing one cycle in 32
                        (table + report; lab run: phases line + --perf-out)
  --flight-recorder F   dump per-packet journeys (every 1-in-N sampled
                        packet plus every undeliverable one) to F as JSON
  --flight-sample N     flight-recorder sampling interval (default 64)

lab progress (lab run):
  --progress[=FILE]     stream NDJSON job lifecycle events (queued, started,
                        finished with rolling cycles/s + ETA) to stderr or
                        FILE; purely observational, canonical report is
                        byte-identical

serving (serve, client):
  --addr A              bind/target address (default 127.0.0.1:7690)
  --queue-depth D       queued jobs beyond D are rejected with HTTP 429
  --state-dir DIR       keep a job log, reports and journals so a
                        restarted server recovers finished results and
                        resumes interrupted runs from their journals
  --allow-shutdown      honour POST /shutdown (otherwise signals only)
  --wait                client submit: poll until the job is terminal
  --report-out F        client submit: fetch the canonical report and
                        write it verbatim (byte-identical to `lab run`)

crash safety (lab run):
  --journal FILE        checkpoint every finished job to an append-only
                        NDJSON journal (one CRC-protected line per job)
  --resume FILE         replay a killed run's journal: finished jobs are
                        restored, only the remainder re-runs, and the
                        canonical report is byte-identical to an
                        uninterrupted run (requires the same spec)

fault injection (simulate, sweep, chaos; analyze takes the plan):
  --fault-plan FILE     scheduled faults (link nX DIR / router nX / droop F /
                        biterr R lines, each with optional @start +duration)
  --fault-rate R        seeded random permanent faults of intensity R in [0,1]
  --fault-seed S        seed for the random plan and fault-path RNG (default 1)
  --retry-limit L       retries before a message is declared undeliverable

static verification (analyze; no cycles simulated):
  default mode          channel-dependency-graph deadlock check (minimal
                        witness cycle when cyclic), residual connectivity
                        under the fault plan's worst-case view (predicted
                        undeliverable pairs), optical loss-budget envelope
                        (effective hops under laser droop)
  --ring LEN            known-deadlocking reference: naive DOR on a
                        unidirectional torus ring, always yields a witness
  --spec FILE           lint a lab spec; statically doomed matrices exit
                        non-zero (same gate as `lab run --preflight`)

lab spec keys (one `key value...` per line, # comments):
  name mesh seed nets patterns rates intensities replicas
  warmup measure drain retry-limit benchmarks scale max-cycles
  livelock-window wall-budget sabotage
  (warmup + measure + drain bound a synthetic job, max-cycles a replay;
  scale is at most 100)
  (supervision: livelock-window ends a job that has stopped making
  progress with a terminal timed_out outcome; wall-budget S caps wall
  seconds per job; a panicking job records a terminal panicked outcome
  after its one attempt; sabotage panic@I livelock@J deliberately breaks
  jobs I and J to exercise the harness)

networks: optical4 optical5 optical8 optical4b32 optical4b64 optical4ib
          optical4sp50 electrical2 electrical3
benchmarks: Barnes Cholesky FFT LU Ocean Radix Raytrace
            Water-NSquared Water-Spatial FMM
patterns: uniform bitcomp bitrev shuffle transpose neighbor hotspot
event kinds: inject nic_retry optical_transit link_traversal
             electrical_fallback buffer_overflow drop_return retransmit eject
             fault_injected fault_cleared fault_reroute fault_stall
             ecc_corrected ecc_uncorrectable undeliverable
";
    format!("{text}figures: {}\n", crate::figures::names().join(" "))
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Propagates errors from the subcommands.
pub fn dispatch(p: &Parsed) -> Result<String, ArgError> {
    if p.flag("help") {
        return Ok(usage());
    }
    match p.positional(0) {
        Some("simulate") => cmd_simulate(p),
        Some("compare") => cmd_compare(p),
        Some("sweep") => cmd_sweep(p),
        Some("chaos") => cmd_chaos(p),
        Some("lab") => crate::lab::cmd_lab(p),
        Some("serve") => crate::serve_cmd::cmd_serve(p),
        Some("client") => crate::serve_cmd::cmd_client(p),
        Some("analyze") => crate::analyze::cmd_analyze(p),
        Some("trace") => cmd_trace(p),
        Some("trace-dump") => cmd_trace_dump(p),
        Some("design") => cmd_design(p),
        Some("figure") => crate::figures::cmd_figure(p),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(ArgError(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(words: &[&str]) -> Parsed {
        Parsed::parse(words.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn unknown_network_is_an_error() {
        let p = parsed(&[
            "simulate",
            "--mesh",
            "4x4",
            "--benchmark",
            "LU",
            "--scale",
            "0.02",
            "--net",
            "warp-drive",
        ]);
        match dispatch(&p) {
            Err(e) => assert!(e.to_string().contains("unknown network"), "{e}"),
            Ok(_) => panic!("bogus network accepted"),
        }
    }

    #[test]
    fn mesh_parsing() {
        assert_eq!(parse_mesh(&parsed(&[])).unwrap(), Mesh::PAPER);
        assert_eq!(
            parse_mesh(&parsed(&["--mesh", "4x6"])).unwrap(),
            Mesh::new(4, 6)
        );
        assert!(parse_mesh(&parsed(&["--mesh", "nope"])).is_err());
        assert!(parse_mesh(&parsed(&["--mesh", "0x4"])).is_err());
        assert!(parse_mesh(&parsed(&["--mesh", "256x512"])).is_err());
    }

    #[test]
    fn simulate_small_benchmark_runs() {
        let p = parsed(&[
            "simulate",
            "--benchmark",
            "LU",
            "--scale",
            "0.02",
            "--net",
            "optical4",
        ]);
        let out = dispatch(&p).expect("runs");
        assert!(out.contains("LU on Optical4"));
        assert!(out.contains("completion:"));
    }

    #[test]
    fn compare_reports_speedup() {
        let p = parsed(&["compare", "--benchmark", "Water-Spatial", "--scale", "0.02"]);
        let out = dispatch(&p).expect("runs");
        assert!(out.contains("network speedup:"));
    }

    #[test]
    fn sweep_runs_one_rate() {
        let p = parsed(&["sweep", "--pattern", "shuffle", "--rate", "0.02"]);
        let out = dispatch(&p).expect("runs");
        assert!(out.contains("Shuffle"));
    }

    #[test]
    fn design_prints_hop_counts() {
        let p = parsed(&["design"]);
        let out = dispatch(&p).expect("runs");
        assert!(out.contains("optimistic  : 8 hops") || out.contains("8 hops"));
        assert!(out.contains("peak optical power"));
    }

    #[test]
    fn trace_gen_info_replay_roundtrip() {
        let dir = std::env::temp_dir().join("phastlane_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.trace");
        let gen = parsed(&[
            "trace",
            "gen",
            "--benchmark",
            "FFT",
            "--scale",
            "0.02",
            "--out",
            file.to_str().unwrap(),
        ]);
        dispatch(&gen).expect("gen");
        let info = parsed(&["trace", "info", file.to_str().unwrap()]);
        let out = dispatch(&info).expect("info");
        assert!(out.contains("messages"));
        let replay = parsed(&[
            "trace",
            "replay",
            file.to_str().unwrap(),
            "--net",
            "optical4",
        ]);
        let out = dispatch(&replay).expect("replay");
        assert!(out.contains("cycles"));
    }

    #[test]
    fn chaos_accounts_every_packet() {
        // Both network families have their own give-up machinery (retry
        // cap vs stall-abandon + NIC age-out); neither may leak packets.
        for net in ["optical4", "electrical2"] {
            let p = parsed(&[
                "chaos",
                "--net",
                net,
                "--mesh",
                "4x4",
                "--intensities",
                "0.0,0.25",
                "--fault-seed",
                "1",
            ]);
            let out = dispatch(&p).expect("runs");
            assert!(out.contains("chaos soak"));
            assert!(out.contains("intensity"), "table header present");
            assert!(
                !out.contains("UNRESOLVED"),
                "{net}: every packet delivered or undeliverable:\n{out}"
            );
        }
    }

    #[test]
    fn fault_plan_and_rate_are_mutually_exclusive() {
        let p = parsed(&[
            "simulate",
            "--benchmark",
            "LU",
            "--scale",
            "0.02",
            "--fault-plan",
            "x.plan",
            "--fault-rate",
            "0.1",
        ]);
        let e = dispatch(&p).expect_err("conflicting fault sources");
        assert!(e.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn simulate_with_faults_reports_degradation() {
        let p = parsed(&[
            "simulate",
            "--benchmark",
            "LU",
            "--scale",
            "0.02",
            "--net",
            "optical4",
            "--fault-rate",
            "0.2",
            "--fault-seed",
            "3",
            "--retry-limit",
            "10",
        ]);
        let out = dispatch(&p).expect("runs");
        assert!(out.contains("faults:"), "fault summary line present: {out}");
    }

    #[test]
    fn hostile_numeric_arguments_are_rejected_not_panicked() {
        // Negative, NaN, and out-of-range rates.
        for bad in ["-0.5", "NaN", "1.5", "inf"] {
            let e = dispatch(&parsed(&["sweep", "--rate", bad]))
                .expect_err(&format!("rate {bad} accepted"));
            assert!(
                e.to_string().contains("[0, 1]") || e.to_string().contains("bad rate"),
                "{bad}: {e}"
            );
            let e = dispatch(&parsed(&["chaos", "--mesh", "4x4", "--rate", bad]))
                .expect_err(&format!("chaos rate {bad} accepted"));
            assert!(!e.to_string().is_empty());
        }
        let e = dispatch(&parsed(&["sweep", "--rate", "0.02,-1"])).expect_err("negative rate");
        assert!(e.to_string().contains("[0, 1]"), "{e}");
        // `analyze` reads its fault flags through the same parser.
        for bad in ["-0.5", "NaN", "1.5", "inf"] {
            let e = dispatch(&parsed(&["analyze", "--mesh", "4x4", "--fault-rate", bad]))
                .expect_err(&format!("analyze fault rate {bad} accepted"));
            assert!(e.to_string().contains("[0, 1]"), "{bad}: {e}");
        }
        let e = dispatch(&parsed(&["analyze", "--fault-rate", "abc"])).expect_err("non-number");
        assert!(e.to_string().contains("--fault-rate"), "{e}");
        // A droop the power model cannot take is refused by its line, not
        // panicked on.
        let path = std::env::temp_dir().join("phastlane_cli_droop0.plan");
        std::fs::write(&path, "droop 0\n").unwrap();
        let plan = path.to_str().unwrap();
        for cmd in ["analyze", "simulate"] {
            let e = dispatch(&parsed(&[cmd, "--fault-plan", plan]))
                .expect_err(&format!("{cmd}: droop 0 accepted"));
            assert!(e.to_string().contains("line 1"), "{cmd}: {e}");
        }
        let _ = std::fs::remove_file(&path);
        // Two legal droops whose product underflows to zero: analyze
        // calls the plan infeasible, and the core falls back to one hop
        // per cycle instead of panicking in the power model.
        let path = std::env::temp_dir().join("phastlane_cli_droop_underflow.plan");
        std::fs::write(&path, "droop 1e-300\ndroop 1e-300\n").unwrap();
        let plan = path.to_str().unwrap();
        let out = dispatch(&parsed(&["analyze", "--mesh", "4x4", "--fault-plan", plan]))
            .expect("analyze reports the plan");
        assert!(
            out.contains("effective 0 hops — OPTICALLY INFEASIBLE"),
            "{out}"
        );
        let out = dispatch(&parsed(&[
            "simulate",
            "--mesh",
            "4x4",
            "--benchmark",
            "LU",
            "--scale",
            "0.02",
            "--fault-plan",
            plan,
        ]))
        .expect("an underflowing droop simulates");
        assert!(out.contains("completion:"), "{out}");
        let _ = std::fs::remove_file(&path);
        // A mesh the traffic patterns cannot address is refused by name.
        for cmd in [&["sweep", "--mesh", "3x3"][..], &["chaos", "--mesh", "3x3"]] {
            let e = dispatch(&parsed(cmd)).expect_err("3x3 accepted");
            assert!(
                e.to_string().contains("power-of-two node count"),
                "{cmd:?}: {e}"
            );
        }
        let e = dispatch(&parsed(&[
            "sweep",
            "--mesh",
            "8x4",
            "--pattern",
            "transpose",
        ]))
        .expect_err("non-square transpose accepted");
        assert!(e.to_string().contains("square mesh"), "{e}");
        // More nodes than a u16 node id can name.
        for cmd in ["sweep", "chaos", "simulate", "analyze"] {
            let e = dispatch(&parsed(&[cmd, "--mesh", "256x512"]))
                .expect_err(&format!("{cmd}: 256x512 accepted"));
            assert!(e.to_string().contains("at most 65536"), "{cmd}: {e}");
        }
        // Zero / NaN / negative --scale, and one whose trace no memory
        // holds.
        for bad in ["0", "-1", "NaN", "1e300", "1e308"] {
            let e = dispatch(&parsed(&["simulate", "--benchmark", "LU", "--scale", bad]))
                .expect_err(&format!("scale {bad} accepted"));
            assert!(e.to_string().contains("positive finite"), "{bad}: {e}");
        }
        // Numbers outside the §3 design models are refused by name.
        for (key, bad) in [
            ("wavelengths", "0"),
            ("hops", "0"),
            ("efficiency", "0"),
            ("efficiency", "1.5"),
            ("efficiency", "NaN"),
        ] {
            let e = dispatch(&parsed(&["design", &format!("--{key}"), bad]))
                .expect_err(&format!("design --{key} {bad} accepted"));
            assert!(e.to_string().starts_with(&format!("--{key}: ")), "{e}");
        }
        // Unparseable numeric values report their key.
        let e = dispatch(&parsed(&["sweep", "--rate", "abc"])).expect_err("non-number");
        assert!(e.to_string().contains("--rate"), "{e}");
    }

    #[test]
    fn usage_documents_crash_safety() {
        let u = usage();
        for key in ["--journal", "--resume", "livelock-window", "sabotage"] {
            assert!(u.contains(key), "usage missing {key}");
        }
    }

    #[test]
    fn usage_documents_exactly_the_options_the_parser_accepts() {
        let u = usage();
        let mut documented: Vec<&str> = u
            .split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut accepted: Vec<&str> = crate::args::VALUE_KEYS
            .iter()
            .chain(crate::args::FLAG_KEYS)
            .copied()
            .collect();
        accepted.sort_unstable();
        assert_eq!(documented, accepted);
    }

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&parsed(&[])).unwrap().contains("USAGE"));
        assert!(dispatch(&parsed(&["help"])).unwrap().contains("USAGE"));
        assert!(dispatch(&parsed(&["frobnicate"])).is_err());
        // --help after a command answers the usage instead of running it.
        let out = dispatch(&parsed(&["sweep", "--mesh", "4x4", "--help"])).unwrap();
        assert!(out.contains("USAGE") && !out.contains("delivered"), "{out}");
    }
}
