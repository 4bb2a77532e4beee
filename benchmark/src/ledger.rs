//! The two passes over a workload: untraced for the end-to-end metrics,
//! traced for the per-layer ones.

use crate::lab::{self, spanned, Pass};
use crate::metrics::{per_layer, NET_LAYERS};
use crate::obs;
use crate::outcome::{Outcome, Reported};
use crate::replay::{self, Replay};
use crate::serve::{self, Submission};
use crate::spans::{SpanId, Tracer};
use crate::stats::{floor, median, percentile};
use crate::workloads::{FrontDoor, Workload};
use phastlane_lab::journal::{self, Journal};
use phastlane_lab::scheduler::{run_lab_opts, RunOptions};
use phastlane_lab::spec::expand;
use phastlane_lab::{store, LabReport, LabSpec};
use phastlane_netsim::obs::json::JsonValue;
use phastlane_netsim::obs::Phase;
use phastlane_netsim::stats::LatencyStats;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of a microsecond-scale layer call in the traced pass.
const MICRO_REPS: usize = 31;
/// Front-door passes in the traced pass.
const TRACED_PASSES: usize = 9;

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What the timed repeats of either front door boil down to.
#[derive(Default)]
struct Repeats {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cycles_per_s: Vec<f64>,
    jobs_per_s: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Repeats {
    fn outcome(self, w: &'static Workload, seed: u64) -> Result<Outcome, String> {
        let unit = |name: &str| {
            crate::metrics::END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
                .expect("a declared end-to-end metric")
        };
        let metrics = vec![
            Reported::samples("setup_s", unit("setup_s"), &self.setup_s),
            Reported::samples("wall_s", unit("wall_s"), &self.wall_s),
            Reported::samples(
                "sim_cycles_per_s",
                unit("sim_cycles_per_s"),
                &self.cycles_per_s,
            ),
            Reported::samples("jobs_per_s", unit("jobs_per_s"), &self.jobs_per_s),
            Reported::single("peak_rss_mb", unit("peak_rss_mb"), peak_rss_mb()?),
        ];
        Ok(Outcome {
            workload: w.name,
            seed,
            traced: false,
            attempted: self.attempted,
            failures: self.failures,
            warnings: Vec::new(),
            metrics,
        })
    }
}

/// The untraced pass: every instrument off, nothing recorded but walls.
pub fn untraced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Outcome, String> {
    let text = w.spec_text(seed);
    let repeats = w.repeats(seconds);
    match w.front_door {
        FrontDoor::Lab { .. } => {
            // The first pass pays for page faults and cold caches that
            // the later ones never see.
            lab::pass(w, &text, out, None)?;
            let mut t = Repeats::default();
            let mut first_bytes: Option<String> = None;
            for _ in 0..repeats {
                let mut r = lab::repeat(w, &text, out)?;
                t.setup_s.push(r.setup_s);
                t.wall_s.push(r.wall_s);
                t.cycles_per_s.push(r.cycles as f64 / r.wall_s);
                t.jobs_per_s.push(r.jobs as f64 / r.wall_s);
                t.attempted += r.jobs * r.passes;
                t.failures.append(&mut r.failures);
                match &first_bytes {
                    None => first_bytes = Some(r.last.bytes),
                    Some(b) if *b != r.last.bytes => {
                        t.failures
                            .push("report bytes differ between repeats".into());
                    }
                    Some(_) => {}
                }
            }
            if let FrontDoor::Lab { workers: 2.., .. } = w.front_door {
                let serial = run_lab_opts(
                    &LabSpec::parse(&text)?,
                    RunOptions {
                        workers: 1,
                        ..RunOptions::default()
                    },
                )?;
                if Some(serial.canonical_json().to_string_pretty()) != first_bytes {
                    t.failures
                        .push("report bytes differ between workers 1 and 2".into());
                }
            }
            t.outcome(w, seed)
        }
        FrontDoor::Serve { .. } => {
            let m = serve_measure(w, &text, repeats, out, None)?;
            Repeats {
                setup_s: m.setup_s,
                wall_s: m.wall_s,
                cycles_per_s: m.cycles_per_s,
                jobs_per_s: m.jobs_per_s,
                attempted: m.submissions.len() as u64,
                failures: m.failures,
            }
            .outcome(w, seed)
        }
    }
}

/// Everything measured on the serve workload, shared by both passes.
struct ServeMeasure {
    /// The in-process lab run of the same spec: the bytes every served
    /// report must equal, and the records the replay starts from.
    lab: Pass,
    /// Each repeat's fastest set-up sequence, and every `server::start`
    /// in them.
    setup_s: Vec<f64>,
    start_s: Vec<f64>,
    wall_s: Vec<f64>,
    cycles_per_s: Vec<f64>,
    jobs_per_s: Vec<f64>,
    submissions: Vec<Submission>,
    failures: Vec<String>,
    healthz_ms: f64,
    statsz: (u64, u64, u64),
}

fn serve_measure(
    w: &'static Workload,
    text: &str,
    repeats: usize,
    out: &Path,
    mut trace: Option<(&mut Tracer, SpanId)>,
) -> Result<ServeMeasure, String> {
    let FrontDoor::Serve {
        clients,
        warmup,
        submissions,
    } = w.front_door
    else {
        return Err(format!("{} is not a serve workload", w.name));
    };
    let lab = lab::pass(w, text, out, trace.as_mut().map(|(t, p)| (&mut **t, *p)))?;
    let cycles_per_submission = lab.report.total_cycles() as f64;

    // Clients stamp their requests against the tracer's clock when there
    // is one, so their intervals are spans as they stand.
    let epoch = trace.as_ref().map_or_else(Instant::now, |(t, _)| t.epoch());
    let mut recorded = 0;
    let mut m = ServeMeasure {
        lab,
        setup_s: Vec::new(),
        start_s: Vec::new(),
        wall_s: Vec::new(),
        cycles_per_s: Vec::new(),
        jobs_per_s: Vec::new(),
        submissions: Vec::new(),
        failures: Vec::new(),
        healthz_ms: 0.0,
        statsz: (0, 0, 0),
    };
    let mut closed_loop =
        |m: &mut ServeMeasure, trace: &mut lab::Trace<'_>, addr: &str, per_client: usize| {
            let subs = serve::closed_loop(addr, text, &m.lab.bytes, clients, per_client, epoch);
            if let Some((tracer, parent)) = trace {
                record_submissions(tracer, *parent, &subs, recorded);
            }
            recorded += subs.len();
            m.failures
                .extend(subs.iter().filter_map(|s| s.failure.clone()));
            subs
        };
    // Every repeat is a deployment of its own. Its set-up is what comes
    // before the first timed submission: a fresh state directory, a
    // started server and the warm-up loop, where lazy set-up finishes.
    for repeat in 0..repeats {
        serve::clear_state(out)?;
        let begin = Instant::now();
        let server = spanned(&mut trace, "serve", "server_start", || serve::start(out))?;
        m.start_s.push(begin.elapsed().as_secs_f64());
        let addr = server.local_addr().to_string();
        closed_loop(&mut m, &mut trace, &addr, warmup);
        m.setup_s.push(begin.elapsed().as_secs_f64());

        let begin = Instant::now();
        let mut subs = closed_loop(&mut m, &mut trace, &addr, submissions);
        let wall_s = begin.elapsed().as_secs_f64();
        let completed = subs.iter().filter(|s| s.failure.is_none()).count() as f64;
        m.wall_s.push(wall_s);
        m.jobs_per_s.push(completed / wall_s);
        m.cycles_per_s
            .push(completed * cycles_per_submission / wall_s);
        m.submissions.append(&mut subs);

        // Only the traced pass reports these two.
        if repeat + 1 == repeats && trace.is_some() {
            m.healthz_ms = spanned(&mut trace, "serve", "healthz", || {
                serve::healthz_ms(&addr, 50)
            })?;
            m.statsz = spanned(&mut trace, "serve", "statsz", || serve::statsz(&addr))?;
        }
        let summary = spanned(&mut trace, "serve", "server_stop", || server.join());
        if summary.rejected > 0 {
            m.failures.push(format!(
                "{} submission(s) refused with 429",
                summary.rejected
            ));
        }
    }
    Ok(m)
}

/// Client-side spans of one closed loop: a `serve.job_round_trip` per
/// submission with its three requests as children.
fn record_submissions(tracer: &mut Tracer, parent: SpanId, subs: &[Submission], first_job: usize) {
    for (i, s) in subs.iter().enumerate() {
        let job = Some(first_job + i);
        let (start, end) = (s.post.start_ns, s.report.end_ns);
        let trip = tracer.record(Some(parent), job, "serve", "job_round_trip", start, end, 1);
        for (name, iv) in [
            ("post_jobs", s.post),
            ("events_wait", s.events),
            ("get_report", s.report),
        ] {
            tracer.record(Some(trip), job, "serve", name, iv.start_ns, iv.end_ns, 1);
        }
    }
}

/// Median duration in µs of `reps` calls of `f`, each under a span.
fn micro_us<T>(
    tracer: &mut Tracer,
    parent: SpanId,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let span = tracer.open(Some(parent), None, layer, name);
            black_box(f());
            tracer.close(span);
            tracer.span(span).duration_ns() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Per-layer values by name; whatever is not set is reported absent.
#[derive(Default)]
struct Layers(Vec<(String, f64)>);

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every declared per-layer metric, in declaration order.
    fn reported(&self) -> Vec<Reported> {
        per_layer()
            .into_iter()
            .map(|def| match self.get(&def.name) {
                Some(v) => Reported::single(&def.name, def.unit, v),
                None => Reported::absent(&def.name, def.unit),
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `core.*` / `electrical.*`, `netsim.*` and `traffic.*` metrics of
/// a replay.
fn replay_metrics(r: &Replay, l: &mut Layers) {
    let jobs_wall = r.jobs_wall_ns as f64;
    for layer in NET_LAYERS {
        let n = r.layer(layer);
        if n.jobs == 0 {
            continue;
        }
        let cycles = n.cycles as f64;
        let busy = (n.step.ns + n.inject.ns + n.drain.ns) as f64;
        l.set(
            format!("{layer}.step_ns_per_cycle"),
            ratio(n.step.ns as f64, cycles),
        );
        l.set(
            format!("{layer}.step_share"),
            ratio(n.step.ns as f64, jobs_wall),
        );
        l.set(
            format!("{layer}.inject_ns_per_packet"),
            ratio(n.inject.ns as f64, n.inject.calls as f64),
        );
        l.set(
            format!("{layer}.drain_ns_per_cycle"),
            ratio(n.drain.ns as f64, cycles),
        );
        l.set(
            format!("{layer}.ns_per_delivery"),
            ratio(busy, n.delivered as f64),
        );
        l.set(
            format!("{layer}.build_us"),
            ratio(n.build_ns as f64 / 1e3, n.jobs as f64),
        );
        for phase in Phase::ALL {
            l.set(
                format!("{layer}.phase.{}.share", phase.name()),
                n.phases.share(phase),
            );
            l.set(
                format!("{layer}.phase.{}.work_per_cycle", phase.name()),
                ratio(n.phases.work[phase.index()] as f64, n.phases.cycles as f64),
            );
        }
        for (name, count) in [
            ("dropped", n.dropped),
            ("retransmitted", n.retransmitted),
            ("rerouted", n.rerouted),
            ("undeliverable", n.undeliverable),
        ] {
            l.set(
                format!("{layer}.{name}_per_kcycle"),
                ratio(count as f64 * 1e3, cycles),
            );
        }
        l.set(
            format!("{layer}.useful_ratio"),
            ratio(n.delivered as f64, (n.delivered + n.dropped) as f64),
        );
    }
    if r.synthetic_cycles > 0 {
        l.set(
            "netsim.harness_self_ns_per_cycle",
            ratio(r.synthetic_self_ns as f64, r.synthetic_cycles as f64),
        );
        l.set(
            "traffic.generate_ns_per_cycle",
            ratio(r.generate.ns as f64, r.generate.calls as f64),
        );
        l.set(
            "traffic.generate_ns_per_packet",
            ratio(r.generate.ns as f64, r.packets as f64),
        );
    }
    if r.trace_cycles > 0 {
        l.set(
            "netsim.trace_self_ns_per_cycle",
            ratio(r.trace_self_ns as f64, r.trace_cycles as f64),
        );
        l.set("traffic.trace_gen_ms", r.trace_gen_ns as f64 / 1e6);
        l.set(
            "traffic.trace_gen_share",
            ratio(r.trace_gen_ns as f64, jobs_wall),
        );
        l.set("traffic.trace_messages", r.trace_messages as f64);
    }
    l.set(
        "netsim.harness_self_share",
        ratio((r.synthetic_self_ns + r.trace_self_ns) as f64, jobs_wall),
    );
}

/// The `sim.*` metrics: simulated results, exact for a seed.
fn sim_metrics(report: &LabReport, bytes: &str, l: &mut Layers) {
    let mut latency = LatencyStats::new();
    for j in &report.jobs {
        latency.merge(&j.latency);
    }
    l.set("sim.total_cycles", report.total_cycles() as f64);
    l.set("sim.measured_deliveries", latency.count() as f64);
    l.set("sim.mean_latency_cycles", latency.mean().unwrap_or(0.0));
    l.set(
        "sim.p99_latency_cycles",
        latency.percentile(99.0).unwrap_or(0) as f64,
    );
    l.set(
        "sim.energy_pj",
        report.jobs.iter().map(|j| j.energy_pj).sum::<f64>(),
    );
    l.set(
        "sim.report_crc32",
        f64::from(store::crc32(bytes.as_bytes())),
    );
}

/// Replays the front door's jobs decorated and folds the result into
/// `l`; returns the failures (jobs the replay did not reproduce).
fn replay_into(
    fronts: &[Pass],
    tracer: &mut Tracer,
    root: SpanId,
    l: &mut Layers,
) -> Result<Vec<String>, String> {
    let report = &fronts.last().ok_or("no front-door pass to replay")?.report;
    let span = tracer.open(Some(root), None, "bench", "replay");
    let r = replay::replay(&report.spec, &report.jobs, tracer, span)?;
    tracer.close(span);
    replay_metrics(&r, l);
    // The decorated jobs over the same jobs at the front door, the
    // latter at its median pass.
    let front_walls: Vec<f64> = fronts
        .iter()
        .map(|p| p.report.serial_wall_seconds())
        .collect();
    let undecorated_s = median(&front_walls);
    l.set(
        "trace.overhead_ratio",
        ratio(r.jobs_wall_ns as f64, undecorated_s * 1e9),
    );
    Ok(r.mismatches)
}

/// The traced pass: one front-door run under spans, the decorated and
/// profiled replays of its jobs, and the layer microbenchmarks.
pub fn traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<(Outcome, JsonValue), String> {
    let text = w.spec_text(seed);
    let mut tracer = Tracer::new();
    let root = tracer.open(None, None, "bench", "traced_pass");
    let mut l = Layers::default();
    let mut warnings = Vec::new();
    let (attempted, failures) = match w.front_door {
        FrontDoor::Lab { .. } => traced_lab(w, &text, seed, out, &mut tracer, root, &mut l)?,
        FrontDoor::Serve { .. } => {
            let repeats = w.repeats(seconds);
            traced_serve(w, &text, repeats, out, &mut tracer, root, &mut l)?
        }
    };
    tracer.close(root);
    l.set("trace.attributed_share", tracer.attributed_share(root));

    let step_share = |layer: &str| l.get(&format!("{layer}.step_share")).unwrap_or(0.0);
    if w.name == "optical-stable" && step_share("core") < 0.6 {
        warnings.push(format!(
            "core.step_share is {:.3}: the workload is meant to be dominated by core's step",
            step_share("core")
        ));
    }
    if w.name == "lab-smalljobs" && step_share("core") + step_share("electrical") > 0.3 {
        warnings.push(format!(
            "the network layers take {:.3} of the replay: the workload is meant to be dominated by the layers above the loop",
            step_share("core") + step_share("electrical")
        ));
    }
    let outcome = Outcome {
        workload: w.name,
        seed,
        traced: true,
        attempted,
        failures,
        warnings,
        metrics: l.reported(),
    };
    Ok((outcome, tracer.to_json(w.name)))
}

fn traced_lab(
    w: &'static Workload,
    text: &str,
    seed: u64,
    out: &Path,
    tracer: &mut Tracer,
    root: SpanId,
    l: &mut Layers,
) -> Result<(u64, Vec<String>), String> {
    let FrontDoor::Lab {
        workers,
        journal: journaled,
        ..
    } = w.front_door
    else {
        return Err(format!("{} is not a lab workload", w.name));
    };

    // Front door under spans, a few passes of it, so its microsecond-
    // scale spans are medians, not single readings.
    let mut fronts = Vec::with_capacity(TRACED_PASSES);
    let mut passes = Vec::with_capacity(TRACED_PASSES);
    for _ in 0..TRACED_PASSES {
        let front = tracer.open(Some(root), None, "bench", "frontdoor");
        passes.push(lab::pass(w, text, out, Some((&mut *tracer, front)))?);
        tracer.close(front);
        fronts.push(front);
    }
    let front = passes.last().expect("at least one front-door pass");
    let mut failures = lab::check_pass(w, front, out);
    let jobs = front.report.jobs.len();

    let span_us = |tracer: &Tracer, layer: &str, name: &str| -> Option<f64> {
        let samples: Vec<f64> = fronts
            .iter()
            .filter_map(|&f| tracer.child_duration_ns(f, layer, name))
            .map(|ns| ns as f64 / 1e3)
            .collect();
        (!samples.is_empty()).then(|| median(&samples))
    };
    for (metric, layer, name) in [
        ("lab.spec_parse_us", "lab", "spec_parse"),
        ("lab.journal_create_us", "lab", "journal_create"),
        ("lab.report_json_us", "lab", "report_json"),
        ("lab.store_write_us", "lab", "store_write"),
        ("analyze.preflight_us", "analyze", "preflight"),
    ] {
        if let Some(us) = span_us(tracer, layer, name) {
            l.set(metric, us);
        }
    }
    // What the pool spent beyond the jobs themselves, pass by pass: the
    // run's wall on every worker, minus the host time its own records
    // account for.
    let overheads_us: Vec<f64> = fronts
        .iter()
        .zip(&passes)
        .filter_map(|(&f, p)| {
            let run_ns = tracer.child_duration_ns(f, "lab", "run_lab_opts")?;
            Some(run_ns as f64 / 1e3 * workers as f64 - p.report.serial_wall_seconds() * 1e6)
        })
        .collect();
    l.set(
        "lab.sched_overhead_us_per_job",
        median(&overheads_us) / jobs as f64,
    );
    l.set("lab.report_bytes", front.bytes.len() as f64);

    let spec = front.report.spec.clone();
    l.set(
        "lab.expand_us",
        micro_us(tracer, root, "lab", "expand", MICRO_REPS, || expand(&spec)),
    );
    if journaled {
        let path = lab::journal_path(out, w);
        let span = tracer.open(Some(root), None, "lab", "journal_load");
        let loaded = journal::load(&path)?;
        tracer.close(span);
        l.set(
            "lab.journal_load_ms",
            tracer.span(span).duration_ns() as f64 / 1e6,
        );
        // The front door appends inside `run_lab_opts`; the same records
        // appended to a scratch journal cost the same calls.
        let scratch = Journal::create(&out.join(format!("{}.scratch.ndjson", w.name)), &spec)?;
        let span = tracer.open(Some(root), None, "lab", "journal_append");
        for rec in &loaded.records {
            scratch.append(rec);
        }
        tracer.close(span);
        l.set(
            "lab.journal_append_us_per_job",
            ratio(
                tracer.span(span).duration_ns() as f64 / 1e3,
                loaded.records.len() as f64,
            ),
        );
    }
    if workers > 1 {
        l.set(
            "lab.parallel_speedup_w2",
            parallel_speedup(&spec, workers, tracer, root)?,
        );
    }

    sim_metrics(&front.report, &front.bytes, l);
    failures.append(&mut replay_into(&passes, tracer, root, l)?);

    if w.name == "optical-stable" {
        let span = tracer.open(Some(root), None, "bench", "obs_reference");
        let r = obs::measure(seed, tracer, span);
        tracer.close(span);
        l.set("obs.profiler_on_ratio", r.profiler);
        l.set("obs.trace_on_ratio", r.trace);
        l.set("obs.flight_on_ratio", r.flight);
        l.set("obs.metrics_on_ratio", r.metrics);
        l.set("obs.progress_on_ratio", r.progress);
    }
    Ok((jobs as u64, failures))
}

/// Wall of `run_lab_opts` at one worker ÷ at `workers`, each side read
/// at the floor of alternating runs of the same spec.
fn parallel_speedup(
    spec: &LabSpec,
    workers: usize,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<f64, String> {
    let mut serial = Vec::with_capacity(TRACED_PASSES);
    let mut parallel = Vec::with_capacity(TRACED_PASSES);
    for _ in 0..TRACED_PASSES {
        for (n, samples, name) in [
            (1, &mut serial, "run_lab_opts_w1"),
            (workers, &mut parallel, "run_lab_opts_wN"),
        ] {
            let span = tracer.open(Some(root), None, "lab", name);
            let opts = RunOptions {
                workers: n,
                ..RunOptions::default()
            };
            black_box(run_lab_opts(spec, opts)?);
            tracer.close(span);
            samples.push(tracer.span(span).duration_ns() as f64);
        }
    }
    Ok(floor(serial) / floor(parallel))
}

fn traced_serve(
    w: &'static Workload,
    text: &str,
    repeats: usize,
    out: &Path,
    tracer: &mut Tracer,
    root: SpanId,
    l: &mut Layers,
) -> Result<(u64, Vec<String>), String> {
    let front = tracer.open(Some(root), None, "bench", "frontdoor");
    let m = serve_measure(w, text, repeats, out, Some((&mut *tracer, front)))?;
    tracer.close(front);
    let mut failures = m.failures;

    let ms = |f: fn(&Submission) -> f64| -> Vec<f64> { m.submissions.iter().map(f).collect() };
    let latency = ms(Submission::latency_ms);
    let p50 = median(&latency);
    l.set("serve.job_latency_p50_ms", p50);
    match percentile(&latency, 90) {
        Some(p90) => l.set("serve.job_latency_p90_ms", p90),
        None => failures.push(format!(
            "{} latency samples are too few for a p90",
            latency.len()
        )),
    }
    l.set("serve.post_jobs_ms_p50", median(&ms(|s| s.post.ms())));
    l.set("serve.events_wait_ms_p50", median(&ms(|s| s.events.ms())));
    l.set("serve.get_report_ms_p50", median(&ms(|s| s.report.ms())));
    l.set("serve.healthz_ms_p50", m.healthz_ms);
    l.set("serve.server_start_ms", median(&m.start_s) * 1e3);
    let (rejected, published, dropped) = m.statsz;
    l.set("serve.rejected", rejected as f64);
    l.set("serve.events_published", published as f64);
    l.set("serve.events_dropped", dropped as f64);

    // The same spec through the lab's front door, in process: what the
    // job costs without the service around it.
    let spec = m.lab.report.spec.clone();
    let in_process_ms = micro_us(tracer, root, "lab", "run_lab_opts", MICRO_REPS, || {
        run_lab_opts(&spec, RunOptions::default())
    }) / 1e3;
    l.set("serve.overhead_ms_p50", p50 - in_process_ms);
    l.set(
        "lab.spec_parse_us",
        micro_us(tracer, root, "lab", "spec_parse", MICRO_REPS, || {
            LabSpec::parse(text)
        }),
    );
    l.set(
        "analyze.preflight_us",
        micro_us(tracer, root, "analyze", "preflight", MICRO_REPS, || {
            phastlane_analyze::preflight(&spec)
        }),
    );
    l.set("lab.report_bytes", m.lab.bytes.len() as f64);

    sim_metrics(&m.lab.report, &m.lab.bytes, l);
    failures.append(&mut replay_into(
        std::slice::from_ref(&m.lab),
        tracer,
        root,
        l,
    )?);
    Ok((m.submissions.len() as u64, failures))
}
