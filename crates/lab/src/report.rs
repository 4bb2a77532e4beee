//! Aggregation of per-job results into a lab report.
//!
//! The report exists in two layers with a hard wall between them:
//!
//! * the **canonical** layer ([`LabReport::canonical_json`]) contains
//!   only simulation outcomes — deterministic functions of the spec. It
//!   deliberately excludes every wall-clock figure *and* the worker
//!   count, so two runs of the same spec are byte-identical regardless
//!   of machine, load, or `--workers`;
//! * the **perf** layer ([`LabReport::perf_json`]) carries the
//!   non-deterministic rest: total wall time, summed per-job wall time,
//!   aggregate simulated cycles per second, and the parallel speedup
//!   (serial wall estimate / actual wall).

use crate::spec::LabSpec;
use phastlane_netsim::obs::json::JsonValue;
use phastlane_netsim::obs::PhaseBreakdown;
use phastlane_netsim::stats::LatencyStats;

/// How a job's execution ended.
///
/// `Completed` covers every job that ran to its natural end — including
/// unstable or saturated ones (those verdicts live in `stable` /
/// `timed_out`). The other variants are *terminal harness outcomes*: the
/// supervisor stopped the job (watchdog) or caught it dying (panic), and
/// the record's metrics describe at most a partial run.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum JobOutcome {
    /// The job ran to completion.
    #[default]
    Completed,
    /// A watchdog stopped the job (cycle budget, livelock, wall budget,
    /// or cancellation — the reason string says which).
    TimedOut {
        /// Deterministic reason string (see
        /// `phastlane_netsim::watchdog::Interrupt::reason`).
        reason: String,
    },
    /// The job panicked; the worker pool survived and recorded it.
    Panicked {
        /// The panic payload's message, when it was a string.
        message: String,
    },
}

impl JobOutcome {
    /// Whether the job ran to its natural end.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed)
    }

    /// Short kind label (`completed` / `timed_out` / `panicked`).
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::TimedOut { .. } => "timed_out",
            JobOutcome::Panicked { .. } => "panicked",
        }
    }

    /// Serializes the outcome (used in both report and journal forms).
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![("kind".into(), JsonValue::Str(self.label().into()))];
        match self {
            JobOutcome::Completed => {}
            JobOutcome::TimedOut { reason } => {
                pairs.push(("reason".into(), JsonValue::Str(reason.clone())));
            }
            JobOutcome::Panicked { message } => {
                pairs.push(("message".into(), JsonValue::Str(message.clone())));
            }
        }
        JsonValue::Obj(pairs)
    }

    /// Parses [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Errors on a missing or unknown `kind`.
    pub fn from_json(v: &JsonValue) -> Result<JobOutcome, String> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "outcome: missing `kind`".to_string())?;
        let text = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        match kind {
            "completed" => Ok(JobOutcome::Completed),
            "timed_out" => Ok(JobOutcome::TimedOut {
                reason: text("reason"),
            }),
            "panicked" => Ok(JobOutcome::Panicked {
                message: text("message"),
            }),
            other => Err(format!("outcome: unknown kind {other:?}")),
        }
    }
}

/// Plain-data summary of one executed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Matrix index (matches [`crate::spec::JobSpec::index`]).
    pub index: usize,
    /// Network configuration name.
    pub net: String,
    /// Pattern token for synthetic jobs.
    pub pattern: Option<String>,
    /// Injection rate for synthetic jobs.
    pub rate: Option<f64>,
    /// Benchmark name for replay jobs.
    pub benchmark: Option<String>,
    /// Fault intensity.
    pub intensity: f64,
    /// Seed replica.
    pub replica: u32,
    /// The job's derived workload seed.
    pub seed: u64,
    /// Simulated cycles executed.
    pub cycles: u64,
    /// Measured delivery latencies.
    pub latency: LatencyStats,
    /// Total energy spent, picojoules.
    pub energy_pj: f64,
    /// Offered rate during measurement (synthetic only).
    pub offered_rate: Option<f64>,
    /// Accepted rate during measurement (synthetic only).
    pub accepted_rate: Option<f64>,
    /// Delivered rate during measurement (synthetic only).
    pub delivered_rate: Option<f64>,
    /// Trace completion cycle (replay only).
    pub completion_cycle: Option<u64>,
    /// Measured packets never resolved (synthetic only).
    pub unfinished: u64,
    /// Destinations terminally given up on.
    pub undeliverable: u64,
    /// Replay hit its cycle limit.
    pub timed_out: bool,
    /// Synthetic stability verdict (delivered ≥ 90% of offered, nothing
    /// unfinished); `None` for replay jobs.
    pub stable: Option<bool>,
    /// Terminal harness outcome. `Completed` (the default) is omitted
    /// from the canonical JSON so reports of healthy runs are
    /// byte-identical to those recorded before outcomes existed.
    pub outcome: JobOutcome,
    /// Wall-clock seconds this job took. **Never** part of the
    /// canonical report.
    pub wall_seconds: f64,
    /// Hot-loop phase breakdown, when the spec enabled profiling.
    /// Contains sampled wall time, so like `wall_seconds` it is
    /// **never** part of the canonical report — it surfaces merged in
    /// [`LabReport::perf_json`].
    pub phases: Option<PhaseBreakdown>,
}

impl JobRecord {
    /// Serializes the record with *full fidelity* — including the
    /// complete latency histogram and the perf-layer wall clock — so the
    /// run journal can reconstruct it bit-for-bit on resume. The one
    /// exception is `phases` (sampled profiler wall time): it is
    /// perf-layer-only observation and is not journaled; a resumed job
    /// simply reports no phase breakdown.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("index".into(), JsonValue::Uint(self.index as u64)),
            ("net".into(), JsonValue::Str(self.net.clone())),
            ("pattern".into(), opt_s(&self.pattern)),
            ("rate".into(), opt_f(self.rate)),
            ("benchmark".into(), opt_s(&self.benchmark)),
            ("intensity".into(), JsonValue::Num(self.intensity)),
            ("replica".into(), JsonValue::Uint(u64::from(self.replica))),
            ("seed".into(), JsonValue::Uint(self.seed)),
            ("cycles".into(), JsonValue::Uint(self.cycles)),
            ("latency".into(), self.latency.to_json()),
            ("energy_pj".into(), JsonValue::Num(self.energy_pj)),
            ("offered_rate".into(), opt_f(self.offered_rate)),
            ("accepted_rate".into(), opt_f(self.accepted_rate)),
            ("delivered_rate".into(), opt_f(self.delivered_rate)),
            ("completion_cycle".into(), opt_u(self.completion_cycle)),
            ("unfinished".into(), JsonValue::Uint(self.unfinished)),
            ("undeliverable".into(), JsonValue::Uint(self.undeliverable)),
            ("timed_out".into(), JsonValue::Bool(self.timed_out)),
            (
                "stable".into(),
                self.stable.map(JsonValue::Bool).unwrap_or(JsonValue::Null),
            ),
            ("outcome".into(), self.outcome.to_json()),
            ("wall_seconds".into(), JsonValue::Num(self.wall_seconds)),
        ])
    }

    /// Reconstructs a record from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<JobRecord, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record: missing `{k}`"));
        let uint = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("record: `{k}` is not an unsigned integer"))
        };
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("record: `{k}` is not a number"))
        };
        let opt_num = |k: &str| -> Result<Option<f64>, String> {
            match field(k)? {
                JsonValue::Null => Ok(None),
                x => Ok(Some(
                    x.as_f64()
                        .ok_or_else(|| format!("record: `{k}` is not a number"))?,
                )),
            }
        };
        let opt_uint = |k: &str| -> Result<Option<u64>, String> {
            match field(k)? {
                JsonValue::Null => Ok(None),
                x => Ok(Some(x.as_u64().ok_or_else(|| {
                    format!("record: `{k}` is not an unsigned integer")
                })?)),
            }
        };
        let opt_str = |k: &str| -> Result<Option<String>, String> {
            match field(k)? {
                JsonValue::Null => Ok(None),
                JsonValue::Str(s) => Ok(Some(s.clone())),
                _ => Err(format!("record: `{k}` is not a string")),
            }
        };
        let boolean = |k: &str| match field(k)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("record: `{k}` is not a bool")),
        };
        let stable = match field("stable")? {
            JsonValue::Null => None,
            JsonValue::Bool(b) => Some(*b),
            _ => return Err("record: `stable` is not a bool".into()),
        };
        Ok(JobRecord {
            index: uint("index")? as usize,
            net: field("net")?
                .as_str()
                .ok_or_else(|| "record: `net` is not a string".to_string())?
                .to_string(),
            pattern: opt_str("pattern")?,
            rate: opt_num("rate")?,
            benchmark: opt_str("benchmark")?,
            intensity: num("intensity")?,
            replica: uint("replica")? as u32,
            seed: uint("seed")?,
            cycles: uint("cycles")?,
            latency: LatencyStats::from_json(field("latency")?)?,
            energy_pj: num("energy_pj")?,
            offered_rate: opt_num("offered_rate")?,
            accepted_rate: opt_num("accepted_rate")?,
            delivered_rate: opt_num("delivered_rate")?,
            completion_cycle: opt_uint("completion_cycle")?,
            unfinished: uint("unfinished")?,
            undeliverable: uint("undeliverable")?,
            timed_out: boolean("timed_out")?,
            stable,
            outcome: JobOutcome::from_json(field("outcome")?)?,
            wall_seconds: num("wall_seconds")?,
            phases: None,
        })
    }
}

/// Outcome of saturation extraction from a sweep: distinguishes "the
/// network saturated at the very first measured rate" from "nothing was
/// swept at all", which a bare `Option<f64>` cannot. Whether a point is
/// stable is the runner's verdict (`runner::kept_up`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Saturation {
    /// The highest offered rate whose point was still stable.
    Stable(f64),
    /// Points were swept, but none was stable: the network was already
    /// saturated at the lowest measured rate. The payload is that
    /// lowest rate (saturation throughput is somewhere below it).
    SaturatedFromStart(f64),
    /// The sweep contained no points.
    NotSwept,
}

impl Saturation {
    /// Classifies `(offered_rate, stable)` pairs, in any order.
    pub fn classify(points: impl IntoIterator<Item = (f64, bool)>) -> Saturation {
        let mut best_stable: Option<f64> = None;
        let mut lowest_rate: Option<f64> = None;
        for (rate, stable) in points {
            lowest_rate = Some(lowest_rate.map_or(rate, |l: f64| l.min(rate)));
            if stable {
                best_stable = Some(best_stable.map_or(rate, |b: f64| b.max(rate)));
            }
        }
        match (best_stable, lowest_rate) {
            (Some(r), _) => Saturation::Stable(r),
            (None, Some(low)) => Saturation::SaturatedFromStart(low),
            (None, None) => Saturation::NotSwept,
        }
    }
}

/// Saturation verdict for one synthetic curve of the matrix (one
/// network × pattern × intensity × replica group, classified across its
/// injection rates).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSaturation {
    /// Network configuration name.
    pub net: String,
    /// Pattern token.
    pub pattern: String,
    /// Fault intensity.
    pub intensity: f64,
    /// Seed replica.
    pub replica: u32,
    /// The verdict.
    pub saturation: Saturation,
}

/// The aggregated outcome of one lab run.
#[derive(Debug, Clone)]
pub struct LabReport {
    /// The spec that produced this report.
    pub spec: LabSpec,
    /// Per-job records, ordered by matrix index.
    pub jobs: Vec<JobRecord>,
    /// Saturation verdicts per synthetic curve.
    pub saturations: Vec<GroupSaturation>,
    /// Worker threads the run used (perf layer only).
    pub workers: usize,
    /// Total wall-clock seconds (perf layer only).
    pub wall_seconds: f64,
}

fn opt_f(v: Option<f64>) -> JsonValue {
    v.map(JsonValue::Num).unwrap_or(JsonValue::Null)
}

fn opt_u(v: Option<u64>) -> JsonValue {
    v.map(JsonValue::Uint).unwrap_or(JsonValue::Null)
}

fn opt_s(v: &Option<String>) -> JsonValue {
    v.as_ref()
        .map(|s| JsonValue::Str(s.clone()))
        .unwrap_or(JsonValue::Null)
}

fn latency_json(l: &LatencyStats) -> JsonValue {
    let pct = |p: f64| (l.count() > 0).then(|| l.percentile(p)).flatten();
    JsonValue::Obj(vec![
        ("count".into(), JsonValue::Uint(l.count())),
        ("mean".into(), opt_f(l.mean())),
        ("min".into(), opt_u(l.min())),
        ("max".into(), JsonValue::Uint(l.max())),
        ("p50".into(), opt_u(pct(50.0))),
        ("p99".into(), opt_u(pct(99.0))),
    ])
}

fn saturation_json(s: Saturation) -> JsonValue {
    let (kind, rate) = match s {
        Saturation::Stable(r) => ("stable", Some(r)),
        Saturation::SaturatedFromStart(r) => ("saturated_from_start", Some(r)),
        Saturation::NotSwept => ("not_swept", None),
    };
    JsonValue::Obj(vec![
        ("kind".into(), JsonValue::Str(kind.into())),
        ("rate".into(), opt_f(rate)),
    ])
}

impl LabReport {
    /// Builds a report from the executed jobs (which must be in matrix
    /// order), deriving the per-curve saturation verdicts.
    pub fn new(spec: LabSpec, jobs: Vec<JobRecord>, workers: usize, wall_seconds: f64) -> Self {
        let saturations = classify_groups(&spec, &jobs);
        LabReport {
            spec,
            jobs,
            saturations,
            workers,
            wall_seconds,
        }
    }

    /// Sum of per-job wall times: an estimate of what a serial run
    /// would have cost, without running one.
    pub fn serial_wall_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_seconds).sum()
    }

    /// Parallel speedup over the serial estimate (1.0 for an instant
    /// run).
    pub fn speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.serial_wall_seconds() / self.wall_seconds
        } else {
            1.0
        }
    }

    /// Total simulated cycles across jobs.
    pub fn total_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.cycles).sum()
    }

    /// Aggregate simulator throughput: total simulated cycles per
    /// wall-clock second (0 for an instant run).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.total_cycles() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The deterministic layer: spec, per-job outcomes, saturation
    /// verdicts. Contains **no** wall-clock data and **no** worker
    /// count — byte-identical across worker counts and machines.
    pub fn canonical_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(self.spec.name.clone())),
            ("spec".into(), JsonValue::Str(self.spec.encode())),
            (
                "jobs".into(),
                JsonValue::Arr(
                    self.jobs
                        .iter()
                        .map(|j| {
                            let mut pairs = vec![
                                ("index".into(), JsonValue::Uint(j.index as u64)),
                                ("net".into(), JsonValue::Str(j.net.clone())),
                                ("pattern".into(), opt_s(&j.pattern)),
                                ("rate".into(), opt_f(j.rate)),
                                ("benchmark".into(), opt_s(&j.benchmark)),
                                ("intensity".into(), JsonValue::Num(j.intensity)),
                                ("replica".into(), JsonValue::Uint(u64::from(j.replica))),
                                ("seed".into(), JsonValue::Uint(j.seed)),
                                ("cycles".into(), JsonValue::Uint(j.cycles)),
                                ("latency".into(), latency_json(&j.latency)),
                                ("energy_pj".into(), JsonValue::Num(j.energy_pj)),
                                ("offered_rate".into(), opt_f(j.offered_rate)),
                                ("accepted_rate".into(), opt_f(j.accepted_rate)),
                                ("delivered_rate".into(), opt_f(j.delivered_rate)),
                                ("completion_cycle".into(), opt_u(j.completion_cycle)),
                                ("unfinished".into(), JsonValue::Uint(j.unfinished)),
                                ("undeliverable".into(), JsonValue::Uint(j.undeliverable)),
                                ("timed_out".into(), JsonValue::Bool(j.timed_out)),
                                (
                                    "stable".into(),
                                    j.stable.map(JsonValue::Bool).unwrap_or(JsonValue::Null),
                                ),
                            ];
                            // Omit-when-default: only failed jobs carry
                            // an outcome key, so healthy reports stay
                            // byte-identical to pre-outcome goldens.
                            if !j.outcome.is_completed() {
                                pairs.push(("outcome".into(), j.outcome.to_json()));
                            }
                            JsonValue::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
            (
                "saturations".into(),
                JsonValue::Arr(
                    self.saturations
                        .iter()
                        .map(|g| {
                            JsonValue::Obj(vec![
                                ("net".into(), JsonValue::Str(g.net.clone())),
                                ("pattern".into(), JsonValue::Str(g.pattern.clone())),
                                ("intensity".into(), JsonValue::Num(g.intensity)),
                                ("replica".into(), JsonValue::Uint(u64::from(g.replica))),
                                ("saturation".into(), saturation_json(g.saturation)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Per-job phase breakdowns folded into one lab-wide profile
    /// (`None` when no job was profiled).
    pub fn merged_phases(&self) -> Option<PhaseBreakdown> {
        let mut merged: Option<PhaseBreakdown> = None;
        for j in &self.jobs {
            if let Some(p) = &j.phases {
                merged.get_or_insert_with(PhaseBreakdown::default).merge(p);
            }
        }
        merged
    }

    /// The non-deterministic layer: wall clock, throughput, speedup,
    /// worker count, and (when profiled) the merged phase breakdown.
    pub fn perf_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("workers".into(), JsonValue::Uint(self.workers as u64)),
            ("jobs".into(), JsonValue::Uint(self.jobs.len() as u64)),
            ("wall_seconds".into(), JsonValue::Num(self.wall_seconds)),
            (
                "serial_wall_seconds".into(),
                JsonValue::Num(self.serial_wall_seconds()),
            ),
            ("speedup".into(), JsonValue::Num(self.speedup())),
            ("total_cycles".into(), JsonValue::Uint(self.total_cycles())),
            (
                "cycles_per_sec".into(),
                JsonValue::Num(self.cycles_per_sec()),
            ),
        ];
        if let Some(phases) = self.merged_phases() {
            pairs.push(("phases".into(), phases.to_json()));
        }
        JsonValue::Obj(pairs)
    }

    /// Both layers in one object (for human inspection; baseline
    /// comparisons read the layers separately).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("canonical".into(), self.canonical_json()),
            ("perf".into(), self.perf_json()),
        ])
    }

    /// Flat per-job CSV (canonical columns only).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,net,pattern,rate,benchmark,intensity,replica,seed,cycles,\
             latency_count,latency_mean,latency_p50,latency_p99,energy_pj,\
             offered_rate,accepted_rate,delivered_rate,completion_cycle,\
             unfinished,undeliverable,timed_out,stable,outcome\n",
        );
        let f = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
        let u = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        for j in &self.jobs {
            let pct = |p: f64| {
                (j.latency.count() > 0)
                    .then(|| j.latency.percentile(p))
                    .flatten()
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                j.index,
                j.net,
                j.pattern.as_deref().unwrap_or(""),
                f(j.rate),
                j.benchmark.as_deref().unwrap_or(""),
                j.intensity,
                j.replica,
                j.seed,
                j.cycles,
                j.latency.count(),
                f(j.latency.mean()),
                u(pct(50.0)),
                u(pct(99.0)),
                j.energy_pj,
                f(j.offered_rate),
                f(j.accepted_rate),
                f(j.delivered_rate),
                u(j.completion_cycle),
                j.unfinished,
                j.undeliverable,
                j.timed_out,
                j.stable.map(|b| b.to_string()).unwrap_or_default(),
                j.outcome.label(),
            ));
        }
        out
    }
}

/// Groups the synthetic jobs into curves (net × pattern × intensity ×
/// replica) and classifies each curve's saturation across its rates, in
/// spec order.
fn classify_groups(spec: &LabSpec, jobs: &[JobRecord]) -> Vec<GroupSaturation> {
    let mut groups = Vec::new();
    for net in &spec.nets {
        for &pattern in &spec.patterns {
            for &intensity in &spec.intensities {
                for replica in 0..spec.replicas {
                    let curve: Vec<(f64, bool)> = jobs
                        .iter()
                        .filter(|j| {
                            j.net == *net
                                && j.pattern.as_deref() == Some(pattern.name())
                                && j.intensity == intensity
                                && j.replica == replica
                        })
                        .filter_map(|j| Some((j.rate?, j.stable?)))
                        .collect();
                    if curve.is_empty() {
                        continue;
                    }
                    groups.push(GroupSaturation {
                        net: net.clone(),
                        pattern: pattern.name().to_string(),
                        intensity,
                        replica,
                        saturation: Saturation::classify(curve),
                    });
                }
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, rate: f64, stable: bool, wall: f64) -> JobRecord {
        let mut latency = LatencyStats::new();
        latency.record(10);
        JobRecord {
            index,
            net: "optical4".into(),
            pattern: Some("uniform".into()),
            rate: Some(rate),
            benchmark: None,
            intensity: 0.0,
            replica: 0,
            seed: 1,
            cycles: 1_000,
            latency,
            energy_pj: 5.0,
            offered_rate: Some(rate),
            accepted_rate: Some(rate),
            delivered_rate: Some(if stable { rate } else { 0.0 }),
            completion_cycle: None,
            unfinished: u64::from(!stable),
            undeliverable: 0,
            timed_out: false,
            stable: Some(stable),
            outcome: JobOutcome::Completed,
            wall_seconds: wall,
            phases: None,
        }
    }

    fn spec() -> LabSpec {
        LabSpec::parse("mesh 4x4\nnets optical4\npatterns uniform\nrates 0.1 0.2\n").unwrap()
    }

    #[test]
    fn canonical_json_hides_wall_clock_and_workers() {
        let fast = LabReport::new(spec(), vec![record(0, 0.1, true, 0.5)], 8, 0.5);
        let slow = LabReport::new(spec(), vec![record(0, 0.1, true, 9.0)], 1, 9.0);
        assert_eq!(
            fast.canonical_json().to_string_pretty(),
            slow.canonical_json().to_string_pretty(),
            "canonical layer must not leak timing or worker count"
        );
        let text = fast.canonical_json().to_string_compact();
        assert!(!text.contains("wall"), "no wall-clock key: {text}");
        assert!(!text.contains("workers"), "no workers key: {text}");
    }

    #[test]
    fn perf_layer_carries_speedup() {
        let r = LabReport::new(
            spec(),
            vec![record(0, 0.1, true, 2.0), record(1, 0.2, true, 2.0)],
            2,
            1.0,
        );
        assert_eq!(r.serial_wall_seconds(), 4.0);
        assert_eq!(r.speedup(), 4.0);
        assert_eq!(r.total_cycles(), 2_000);
        assert_eq!(r.cycles_per_sec(), 2_000.0);
        let perf = r.perf_json();
        assert_eq!(perf.get("workers").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(perf.get("speedup").and_then(JsonValue::as_f64), Some(4.0));
    }

    #[test]
    fn saturation_classified_per_curve() {
        let r = LabReport::new(
            spec(),
            vec![record(0, 0.1, true, 0.1), record(1, 0.2, false, 0.1)],
            1,
            0.2,
        );
        assert_eq!(r.saturations.len(), 1);
        assert_eq!(r.saturations[0].saturation, Saturation::Stable(0.1));
    }

    #[test]
    fn outcome_key_appears_only_for_failed_jobs() {
        let healthy = LabReport::new(spec(), vec![record(0, 0.1, true, 0.1)], 1, 0.1);
        let text = healthy.canonical_json().to_string_compact();
        assert!(
            !text.contains("outcome"),
            "completed jobs must not grow an outcome key (golden compat): {text}"
        );

        let mut failed = record(0, 0.1, true, 0.1);
        failed.outcome = JobOutcome::Panicked {
            message: "boom".into(),
        };
        let report = LabReport::new(spec(), vec![failed], 1, 0.1);
        let text = report.canonical_json().to_string_compact();
        assert!(text.contains("\"outcome\""), "{text}");
        assert!(text.contains("\"panicked\""), "{text}");
        assert!(text.contains("boom"), "{text}");
    }

    #[test]
    fn job_record_journal_round_trip_is_exact() {
        for rec in [record(3, 0.1, true, 1.25), {
            let mut r = record(7, 0.2, false, 0.5);
            r.outcome = JobOutcome::TimedOut {
                reason: "livelock: no progress for 2000 cycles (at cycle 2100)".into(),
            };
            r.benchmark = Some("FFT".into());
            r.completion_cycle = Some(123_456);
            r.stable = None;
            r
        }] {
            let text = rec.to_json().to_string_compact();
            let parsed = phastlane_netsim::obs::json::parse(&text).expect("valid json");
            let back = JobRecord::from_json(&parsed).expect("round-trips");
            assert_eq!(back, rec);
        }
        // Outcome kinds round-trip.
        for o in [
            JobOutcome::Completed,
            JobOutcome::TimedOut {
                reason: "cycle budget 10 exhausted".into(),
            },
            JobOutcome::Panicked {
                message: "index out of bounds".into(),
            },
        ] {
            assert_eq!(JobOutcome::from_json(&o.to_json()).unwrap(), o);
        }
    }

    #[test]
    fn csv_has_one_row_per_job() {
        let r = LabReport::new(
            spec(),
            vec![record(0, 0.1, true, 0.1), record(1, 0.2, true, 0.1)],
            1,
            0.2,
        );
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 rows:\n{csv}");
        assert!(csv.starts_with("index,net,pattern"));
    }

    #[test]
    fn saturation_is_last_stable_rate() {
        // In any order; the unstable tail does not count.
        let pts = [(0.3, false), (0.1, true), (0.2, true)];
        assert_eq!(Saturation::classify(pts), Saturation::Stable(0.2));
    }

    #[test]
    fn saturated_from_start_vs_not_swept() {
        // Neither has a stable rate; the enum tells them apart.
        let unstable = [(0.7, false), (0.5, false)];
        assert_eq!(
            Saturation::classify(unstable),
            Saturation::SaturatedFromStart(0.5)
        );
        assert_eq!(Saturation::classify([]), Saturation::NotSwept);
    }
}
