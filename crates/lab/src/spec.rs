//! The lab scenario-spec format and its expansion into a job matrix.
//!
//! A spec is a plain text file in the same hand-rolled style as
//! [`phastlane_netsim::fault::FaultPlan::parse`] (the build is offline —
//! no serde): one `key value...` pair per line, `#` comments, every key
//! optional with a sensible default, unknown or duplicate keys rejected.
//!
//! ```text
//! # fig9-shuffle.lab — one Figure 9 panel as a lab matrix
//! name fig9-shuffle
//! mesh 8x8
//! seed 7
//! nets optical4 electrical3
//! patterns shuffle
//! rates 0.02 0.06 0.10 0.16 0.22 0.30
//! warmup 500
//! measure 2000
//! drain 6000
//! ```
//!
//! [`expand`] unrolls the matrix — networks × patterns × rates ×
//! intensities × replicas, then networks × benchmarks × intensities ×
//! replicas for the optional replay jobs — into an ordered [`JobSpec`]
//! list. Job order, and therefore every derived seed, is a pure function
//! of the spec: the scheduler may execute jobs on any thread in any
//! order without perturbing a single result bit.

use crate::runner;
use phastlane_netsim::geometry::Mesh;
use phastlane_traffic::{splash2, Pattern};

/// A declarative description of an experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LabSpec {
    /// Experiment name (used in reports and baseline files).
    pub name: String,
    /// Mesh every job runs on.
    pub mesh: Mesh,
    /// Master seed; every job derives its own stream from it.
    pub seed: u64,
    /// Network configuration names (see [`runner::NETWORKS`]).
    pub nets: Vec<String>,
    /// Synthetic traffic patterns.
    pub patterns: Vec<Pattern>,
    /// Injection rates (packets per node per cycle) for synthetic jobs.
    pub rates: Vec<f64>,
    /// Fault intensities in `[0, 1]`; `0.0` means no fault plan.
    pub intensities: Vec<f64>,
    /// Seed replicas per matrix cell.
    pub replicas: u32,
    /// Synthetic warm-up cycles.
    pub warmup: u64,
    /// Synthetic measurement-window cycles.
    pub measure: u64,
    /// Synthetic drain cycles.
    pub drain: u64,
    /// Retry cap before a destination is declared undeliverable. When
    /// unset, faulted jobs (intensity > 0) default to 50 like the
    /// `chaos` soak; fault-free jobs run uncapped.
    pub retry_limit: Option<u32>,
    /// SPLASH2 benchmarks to replay (empty = no replay jobs).
    pub benchmarks: Vec<String>,
    /// Miss-count scale factor for replay jobs.
    pub scale: f64,
    /// Replay cycle limit (livelock guard).
    pub max_cycles: u64,
    /// Hot-loop phase-profiler wall-sampling stride: `0` (the default)
    /// runs unprofiled; `N > 0` attaches a
    /// [`phastlane_netsim::obs::PhaseProfiler`] to every job's network,
    /// timing one cycle in `N`.
    ///
    /// Profiling is pure observation — job results are bit-identical
    /// with it on or off — so like the worker count it is **excluded**
    /// from [`encode`](LabSpec::encode) and therefore from the canonical
    /// report and baseline identity; the breakdown lands in the perf
    /// layer only.
    pub profile: u32,
    /// Watchdog cycle budget per job: a job still running after this
    /// many cycles is stopped with a `TimedOut` outcome. Fires at a
    /// cycle-deterministic point, so the resulting record is
    /// reproducible. `None` = unbounded (the synthetic hard end /
    /// `max-cycles` still apply).
    pub cycle_budget: Option<u64>,
    /// Watchdog livelock window: a job with work pending but no packet
    /// injected, delivered, or terminally failed for this many cycles is
    /// stopped with a `TimedOut` outcome. Cycle-deterministic.
    pub livelock_window: Option<u64>,
    /// Watchdog wall-clock allowance per job attempt, in seconds. A
    /// safety valve only — when it fires the partial record is
    /// machine-dependent, unlike the cycle-based verdicts.
    pub wall_budget: Option<f64>,
    /// Bounded retries for transiently-failed jobs (panics and
    /// non-deterministic timeouts re-execute up to this many extra
    /// times, with seeded backoff). Deterministic verdicts (cycle
    /// budget, livelock) never retry — they would reproduce exactly.
    pub retries: u32,
    /// Base backoff between retries, milliseconds (doubled per attempt,
    /// plus a seeded jitter below one base unit).
    pub retry_backoff_ms: u64,
    /// Deliberate job failures for harness testing: the listed matrix
    /// indices panic or livelock on purpose, exercising the supervision
    /// path end-to-end. Changes outcomes, so (unlike `profile`)
    /// it **is** part of [`encode`](LabSpec::encode) when non-empty.
    pub sabotage: Vec<Sabotage>,
}

/// The failure a sabotaged job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageKind {
    /// The job panics as soon as it starts.
    Panic,
    /// The job's routers all wedge, so packets queue but never move —
    /// the watchdog's livelock detector must fire.
    Livelock,
}

/// One deliberately-failing job (`panic@3` / `livelock@5` in specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sabotage {
    /// What goes wrong.
    pub kind: SabotageKind,
    /// Matrix index of the victim job.
    pub index: usize,
}

impl Sabotage {
    /// Parses one `kind@index` token (`panic@3`, `livelock@5`).
    ///
    /// # Errors
    ///
    /// Errors on an unknown kind or a malformed index.
    pub fn parse(token: &str) -> Result<Sabotage, String> {
        let (kind, index) = token
            .split_once('@')
            .ok_or_else(|| format!("sabotage expects kind@index, got {token:?}"))?;
        let kind = match kind {
            "panic" => SabotageKind::Panic,
            "livelock" => SabotageKind::Livelock,
            other => return Err(format!("unknown sabotage kind {other:?}")),
        };
        let index = index
            .parse()
            .map_err(|_| format!("bad sabotage index in {token:?}"))?;
        Ok(Sabotage { kind, index })
    }

    fn encode(&self) -> String {
        let kind = match self.kind {
            SabotageKind::Panic => "panic",
            SabotageKind::Livelock => "livelock",
        };
        format!("{kind}@{}", self.index)
    }
}

impl Default for LabSpec {
    fn default() -> Self {
        LabSpec {
            name: "lab".into(),
            mesh: Mesh::PAPER,
            seed: 7,
            nets: vec!["optical4".into()],
            patterns: vec![Pattern::Uniform],
            rates: vec![0.05],
            intensities: vec![0.0],
            replicas: 1,
            warmup: 500,
            measure: 2_000,
            drain: 6_000,
            retry_limit: None,
            benchmarks: Vec::new(),
            scale: 0.05,
            max_cycles: 10_000_000,
            profile: 0,
            cycle_budget: None,
            livelock_window: None,
            wall_budget: None,
            retries: 0,
            retry_backoff_ms: 50,
            sabotage: Vec::new(),
        }
    }
}

impl LabSpec {
    /// Parses a spec from its text form.
    ///
    /// # Errors
    ///
    /// Returns a line-tagged message on unknown/duplicate keys, bad
    /// values, unknown networks/patterns/benchmarks, or out-of-range
    /// rates and intensities.
    pub fn parse(text: &str) -> Result<LabSpec, String> {
        let mut spec = LabSpec::default();
        let mut seen: Vec<(String, usize)> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("lab spec line {}: {msg}: {raw:?}", ln + 1);
            let mut words = line.split_whitespace();
            let key = words.next().expect("non-empty line has a first word");
            let values: Vec<&str> = words.collect();
            if let Some((_, first)) = seen.iter().find(|(k, _)| k == key) {
                return Err(err(&format!("duplicate key (first set at line {first})")));
            }
            seen.push((key.to_string(), ln + 1));
            if values.is_empty() {
                return Err(err("key needs at least one value"));
            }
            let one = || -> Result<&str, String> {
                if values.len() == 1 {
                    Ok(values[0])
                } else {
                    Err(err("key takes exactly one value"))
                }
            };
            match key {
                "name" => spec.name = one()?.to_string(),
                "mesh" => {
                    let v = one()?;
                    let (w, h) = v.split_once('x').ok_or_else(|| err("mesh expects WxH"))?;
                    let w: u16 = w.parse().map_err(|_| err("bad mesh width"))?;
                    let h: u16 = h.parse().map_err(|_| err("bad mesh height"))?;
                    if w == 0 || h == 0 {
                        return Err(err("mesh dimensions must be positive"));
                    }
                    spec.mesh = Mesh::new(w, h);
                }
                "seed" => spec.seed = one()?.parse().map_err(|_| err("bad seed"))?,
                "nets" => {
                    for v in &values {
                        if !runner::known_network(v) {
                            return Err(err(&format!(
                                "unknown network {v:?}; known: {}",
                                runner::NETWORKS.join(" ")
                            )));
                        }
                    }
                    spec.nets = values.iter().map(|v| v.to_lowercase()).collect();
                }
                "patterns" => {
                    spec.patterns = values
                        .iter()
                        .map(|v| {
                            Pattern::from_name(v)
                                .ok_or_else(|| err(&format!("unknown pattern {v:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "rates" => {
                    spec.rates = parse_f64_list(&values, 0.0..=1.0)
                        .map_err(|m| err(&format!("bad rate: {m}")))?;
                }
                "intensities" => {
                    spec.intensities = parse_f64_list(&values, 0.0..=1.0)
                        .map_err(|m| err(&format!("bad intensity: {m}")))?;
                }
                "replicas" => {
                    spec.replicas = one()?.parse().map_err(|_| err("bad replicas"))?;
                    if spec.replicas == 0 {
                        return Err(err("replicas must be positive"));
                    }
                }
                "warmup" => spec.warmup = one()?.parse().map_err(|_| err("bad warmup"))?,
                "measure" => {
                    spec.measure = one()?.parse().map_err(|_| err("bad measure"))?;
                    if spec.measure == 0 {
                        return Err(err("measure must be positive"));
                    }
                }
                "drain" => spec.drain = one()?.parse().map_err(|_| err("bad drain"))?,
                "retry-limit" => {
                    spec.retry_limit = Some(one()?.parse().map_err(|_| err("bad retry-limit"))?);
                }
                "benchmarks" => {
                    for v in &values {
                        if splash2::benchmark(v).is_none() {
                            return Err(err(&format!("unknown benchmark {v:?}")));
                        }
                    }
                    spec.benchmarks = values.iter().map(|v| v.to_string()).collect();
                }
                "scale" => {
                    spec.scale = one()?.parse().map_err(|_| err("bad scale"))?;
                    if spec.scale <= 0.0 || !spec.scale.is_finite() {
                        return Err(err("scale must be positive"));
                    }
                }
                "max-cycles" => {
                    spec.max_cycles = one()?.parse().map_err(|_| err("bad max-cycles"))?;
                    if spec.max_cycles == 0 {
                        return Err(err("max-cycles must be positive"));
                    }
                }
                "profile" => {
                    spec.profile = one()?.parse().map_err(|_| err("bad profile"))?;
                }
                "cycle-budget" => {
                    let b: u64 = one()?.parse().map_err(|_| err("bad cycle-budget"))?;
                    if b == 0 {
                        return Err(err("cycle-budget must be positive"));
                    }
                    spec.cycle_budget = Some(b);
                }
                "livelock-window" => {
                    let w: u64 = one()?.parse().map_err(|_| err("bad livelock-window"))?;
                    if w == 0 {
                        return Err(err("livelock-window must be positive"));
                    }
                    spec.livelock_window = Some(w);
                }
                "wall-budget" => {
                    let s: f64 = one()?.parse().map_err(|_| err("bad wall-budget"))?;
                    if !s.is_finite() || s <= 0.0 {
                        return Err(err("wall-budget must be positive seconds"));
                    }
                    spec.wall_budget = Some(s);
                }
                "retries" => {
                    spec.retries = one()?.parse().map_err(|_| err("bad retries"))?;
                }
                "retry-backoff-ms" => {
                    spec.retry_backoff_ms =
                        one()?.parse().map_err(|_| err("bad retry-backoff-ms"))?;
                }
                "sabotage" => {
                    spec.sabotage = values
                        .iter()
                        .map(|v| Sabotage::parse(v).map_err(|m| err(&m)))
                        .collect::<Result<_, _>>()?;
                }
                _ => return Err(err("unknown key")),
            }
        }
        Ok(spec)
    }

    /// Renders the spec back to its [`parse`](LabSpec::parse) text form.
    ///
    /// `profile` is deliberately omitted: like the worker count it is
    /// observation strategy, not experiment identity, and the encoding
    /// doubles as the canonical report's spec string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let join_f = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!(
            "mesh {}x{}\n",
            self.mesh.width(),
            self.mesh.height()
        ));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("nets {}\n", self.nets.join(" ")));
        out.push_str(&format!(
            "patterns {}\n",
            self.patterns
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(" ")
        ));
        out.push_str(&format!("rates {}\n", join_f(&self.rates)));
        out.push_str(&format!("intensities {}\n", join_f(&self.intensities)));
        out.push_str(&format!("replicas {}\n", self.replicas));
        out.push_str(&format!("warmup {}\n", self.warmup));
        out.push_str(&format!("measure {}\n", self.measure));
        out.push_str(&format!("drain {}\n", self.drain));
        if let Some(r) = self.retry_limit {
            out.push_str(&format!("retry-limit {r}\n"));
        }
        if !self.benchmarks.is_empty() {
            out.push_str(&format!("benchmarks {}\n", self.benchmarks.join(" ")));
            out.push_str(&format!("scale {}\n", self.scale));
        }
        out.push_str(&format!("max-cycles {}\n", self.max_cycles));
        // Supervision keys are emitted only when non-default, so specs
        // that never used them keep their exact pre-existing encoding —
        // and with it the identity of every committed baseline.
        if let Some(b) = self.cycle_budget {
            out.push_str(&format!("cycle-budget {b}\n"));
        }
        if let Some(w) = self.livelock_window {
            out.push_str(&format!("livelock-window {w}\n"));
        }
        if let Some(s) = self.wall_budget {
            out.push_str(&format!("wall-budget {s}\n"));
        }
        if self.retries > 0 {
            out.push_str(&format!("retries {}\n", self.retries));
        }
        if self.retry_backoff_ms != 50 {
            out.push_str(&format!("retry-backoff-ms {}\n", self.retry_backoff_ms));
        }
        if !self.sabotage.is_empty() {
            let tokens: Vec<String> = self.sabotage.iter().map(Sabotage::encode).collect();
            out.push_str(&format!("sabotage {}\n", tokens.join(" ")));
        }
        out
    }

    /// The sabotage entry for a job index, if any.
    pub fn sabotage_for(&self, index: usize) -> Option<SabotageKind> {
        self.sabotage
            .iter()
            .find(|s| s.index == index)
            .map(|s| s.kind)
    }

    /// Number of jobs the matrix expands to.
    pub fn job_count(&self) -> usize {
        let cells = self.nets.len() * self.patterns.len() * self.rates.len();
        let replays = self.nets.len() * self.benchmarks.len();
        (cells + replays) * self.intensities.len() * self.replicas as usize
    }
}

fn parse_f64_list(
    values: &[&str],
    range: std::ops::RangeInclusive<f64>,
) -> Result<Vec<f64>, String> {
    values
        .iter()
        .map(|v| {
            let x: f64 = v.parse().map_err(|_| format!("{v:?} is not a number"))?;
            if range.contains(&x) {
                Ok(x)
            } else {
                Err(format!("{x} outside [{}, {}]", range.start(), range.end()))
            }
        })
        .collect()
}

/// What one job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// An open-loop synthetic run.
    Synthetic {
        /// Traffic pattern.
        pattern: Pattern,
        /// Injection rate (packets per node per cycle).
        rate: f64,
    },
    /// A closed-loop SPLASH2 trace replay.
    Replay {
        /// Benchmark name (see [`phastlane_traffic::splash2`]).
        benchmark: String,
    },
}

/// One fully-resolved job of the expanded matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Position in the expanded matrix (stable across runs).
    pub index: usize,
    /// Network configuration name.
    pub net: String,
    /// The workload.
    pub work: Work,
    /// Fault intensity (`0.0` = no fault plan).
    pub intensity: f64,
    /// Seed replica within the matrix cell.
    pub replica: u32,
    /// Workload RNG seed, derived from the spec seed and `index`.
    pub seed: u64,
    /// Fault-plan/fault-path RNG seed, derived from the spec seed and
    /// `replica` only, so every cell of one replica degrades under the
    /// *same* fault plan (comparable curves).
    pub fault_seed: u64,
}

/// Derives an independent seed stream from a base seed and a stream
/// index. The derivation is a pure function of its arguments — thread
/// scheduling can never influence it.
///
/// Delegates to [`phastlane_netsim::rng::derive_stream`], the
/// workspace's one seed-derivation function; its output stream is
/// pinned there by unit tests, so committed baselines keep their seeds.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    phastlane_netsim::rng::derive_stream(base, stream)
}

/// The seed of a replica's random fault plan: replicas differ, every
/// job of one replica runs under the same faults.
pub fn fault_seed(seed: u64, replica: u32) -> u64 {
    derive_seed(seed, 0xFA17_0000 + u64::from(replica))
}

/// Expands a spec into its ordered job list: synthetic cells first
/// (nets × patterns × rates × intensities × replicas, inner-to-outer in
/// that reading order), then replay cells (nets × benchmarks ×
/// intensities × replicas).
pub fn expand(spec: &LabSpec) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(spec.job_count());
    let push = |net: &str, work: Work, intensity: f64, replica: u32, jobs: &mut Vec<JobSpec>| {
        let index = jobs.len();
        jobs.push(JobSpec {
            index,
            net: net.to_string(),
            work,
            intensity,
            replica,
            seed: derive_seed(spec.seed, index as u64),
            fault_seed: fault_seed(spec.seed, replica),
        });
    };
    for net in &spec.nets {
        for &pattern in &spec.patterns {
            for &rate in &spec.rates {
                for &intensity in &spec.intensities {
                    for replica in 0..spec.replicas {
                        push(
                            net,
                            Work::Synthetic { pattern, rate },
                            intensity,
                            replica,
                            &mut jobs,
                        );
                    }
                }
            }
        }
    }
    for net in &spec.nets {
        for benchmark in &spec.benchmarks {
            for &intensity in &spec.intensities {
                for replica in 0..spec.replicas {
                    push(
                        net,
                        Work::Replay {
                            benchmark: benchmark.clone(),
                        },
                        intensity,
                        replica,
                        &mut jobs,
                    );
                }
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
name smoke
mesh 4x4
seed 11
nets optical4 electrical3
patterns uniform transpose
rates 0.02 0.05   # trailing comment
intensities 0.0 0.25
replicas 2
warmup 100
measure 400
drain 1000
retry-limit 20
benchmarks FFT
scale 0.1
max-cycles 500000
";

    #[test]
    fn parse_reads_every_key() {
        let spec = LabSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.mesh, Mesh::new(4, 4));
        assert_eq!(spec.seed, 11);
        assert_eq!(spec.nets, vec!["optical4", "electrical3"]);
        assert_eq!(spec.patterns, vec![Pattern::Uniform, Pattern::Transpose]);
        assert_eq!(spec.rates, vec![0.02, 0.05]);
        assert_eq!(spec.intensities, vec![0.0, 0.25]);
        assert_eq!(spec.replicas, 2);
        assert_eq!((spec.warmup, spec.measure, spec.drain), (100, 400, 1000));
        assert_eq!(spec.retry_limit, Some(20));
        assert_eq!(spec.benchmarks, vec!["FFT"]);
        assert_eq!(spec.scale, 0.1);
        assert_eq!(spec.max_cycles, 500_000);
    }

    #[test]
    fn encode_roundtrips() {
        let spec = LabSpec::parse(SAMPLE).unwrap();
        let reparsed = LabSpec::parse(&spec.encode()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn profile_parses_but_stays_out_of_the_canonical_encoding() {
        let spec = LabSpec::parse("mesh 4x4\nprofile 32\n").unwrap();
        assert_eq!(spec.profile, 32);
        assert!(!spec.encode().contains("profile"), "{}", spec.encode());
        // Profiling is observation, not identity: reparsing the
        // encoding resets it to off.
        assert_eq!(LabSpec::parse(&spec.encode()).unwrap().profile, 0);
    }

    #[test]
    fn supervision_keys_parse_and_encode_only_when_set() {
        // Defaults leave the encoding untouched: committed baselines
        // recorded before these keys existed must keep their identity.
        let plain = LabSpec::parse("mesh 4x4\n").unwrap();
        for key in [
            "cycle-budget",
            "livelock-window",
            "wall-budget",
            "retries",
            "retry-backoff-ms",
            "sabotage",
        ] {
            assert!(!plain.encode().contains(key), "{key} leaked into encode");
        }
        let spec = LabSpec::parse(
            "mesh 4x4\ncycle-budget 5000\nlivelock-window 2000\n\
             wall-budget 1.5\nretries 2\nretry-backoff-ms 10\n\
             sabotage panic@0 livelock@3\n",
        )
        .unwrap();
        assert_eq!(spec.cycle_budget, Some(5000));
        assert_eq!(spec.livelock_window, Some(2000));
        assert_eq!(spec.wall_budget, Some(1.5));
        assert_eq!(spec.retries, 2);
        assert_eq!(spec.retry_backoff_ms, 10);
        assert_eq!(spec.sabotage_for(0), Some(SabotageKind::Panic));
        assert_eq!(spec.sabotage_for(3), Some(SabotageKind::Livelock));
        assert_eq!(spec.sabotage_for(1), None);
        // Non-default values round-trip through the encoding.
        assert_eq!(LabSpec::parse(&spec.encode()).unwrap(), spec);
    }

    #[test]
    fn supervision_keys_reject_garbage() {
        for bad in [
            "cycle-budget 0",
            "cycle-budget many",
            "livelock-window 0",
            "wall-budget -1",
            "wall-budget NaN",
            "wall-budget inf",
            "retries -1",
            "sabotage panic",     // missing @index
            "sabotage explode@1", // unknown kind
            "sabotage panic@minus-one",
        ] {
            assert!(LabSpec::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn defaults_apply_for_empty_spec() {
        let spec = LabSpec::parse("# nothing\n").unwrap();
        assert_eq!(spec, LabSpec::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "warp 1",                   // unknown key
            "nets warp-drive",          // unknown network
            "patterns zigzag",          // unknown pattern
            "benchmarks NotABenchmark", // unknown benchmark
            "rates 1.5",                // out of range
            "intensities -0.1",         // out of range
            "mesh 4",                   // malformed
            "mesh 0x4",                 // zero dimension
            "replicas 0",               // zero
            "measure 0",                // zero
            "mesh 4x4\nbatch 4",        // removed key
            "seed",                     // missing value
            "seed 1 2",                 // too many values
            "seed 1\nseed 2",           // duplicate
        ] {
            assert!(LabSpec::parse(bad).is_err(), "{bad:?} accepted");
        }
        let err = LabSpec::parse("mesh 4x4\nbatch 4\n").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("unknown key"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_keys_report_both_lines() {
        // A duplicate key is a hard, line-numbered error that names where
        // the key was first set — last-wins silent overrides would make a
        // fat-fingered spec run the wrong matrix.
        let err = LabSpec::parse("seed 1\nseed 2\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("duplicate key"), "{err}");
        assert!(err.contains("first set at line 1"), "{err}");
        // Comments and blanks don't shift the reported lines.
        let err = LabSpec::parse("# header\n\nmesh 4x4\nseed 1\n\nmesh 8x8\n").unwrap_err();
        assert!(err.contains("line 6"), "{err}");
        assert!(err.contains("first set at line 3"), "{err}");
        // Values never alias keys: repeating a *value* is fine.
        assert!(LabSpec::parse("rates 0.02 0.02\n").is_ok());
    }

    #[test]
    fn expansion_covers_the_matrix_in_stable_order() {
        let spec = LabSpec::parse(SAMPLE).unwrap();
        let jobs = expand(&spec);
        // 2 nets x 2 patterns x 2 rates x 2 intensities x 2 replicas
        // + 2 nets x 1 benchmark x 2 intensities x 2 replicas
        assert_eq!(jobs.len(), 32 + 8);
        assert_eq!(jobs.len(), spec.job_count());
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
        // First job is the first cell; replicas vary fastest.
        assert_eq!(jobs[0].net, "optical4");
        assert!(matches!(
            &jobs[0].work,
            Work::Synthetic { pattern: Pattern::Uniform, rate } if *rate == 0.02
        ));
        assert_eq!((jobs[0].intensity, jobs[0].replica), (0.0, 0));
        assert_eq!((jobs[1].intensity, jobs[1].replica), (0.0, 1));
        assert_eq!((jobs[2].intensity, jobs[2].replica), (0.25, 0));
        // Replay jobs come after every synthetic job.
        assert!(matches!(&jobs[32].work, Work::Replay { benchmark } if benchmark == "FFT"));
        // Expansion is deterministic.
        assert_eq!(expand(&spec), jobs);
    }

    #[test]
    fn derived_seeds_are_distinct_and_deterministic() {
        let spec = LabSpec::parse(SAMPLE).unwrap();
        let jobs = expand(&spec);
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len(), "every job gets its own seed");
        assert_eq!(derive_seed(11, 3), derive_seed(11, 3));
        assert_ne!(derive_seed(11, 3), derive_seed(12, 3));
        // Fault seeds depend only on the replica.
        assert_eq!(jobs[0].fault_seed, jobs[4].fault_seed);
        assert_ne!(jobs[0].fault_seed, jobs[1].fault_seed);
    }
}
