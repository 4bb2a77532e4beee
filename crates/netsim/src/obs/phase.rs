//! Per-phase profiling of the simulator hot loop.
//!
//! The per-cycle `step()` of both networks decomposes into the same six
//! logical phases — route, arbitrate, traverse, eject, fault, drain —
//! and the aggregate cycles/s number in [`PerfProfile`] cannot say which
//! of them a regression lives in. A [`PhaseProfiler`] instruments the
//! phase boundaries with two kinds of accumulators:
//!
//! * **work counters** — cheap deterministic per-phase unit counts
//!   (flights launched, wavefront steps walked, packets ejected, …)
//!   maintained every cycle;
//! * **batched wall time** — `Instant::now()` is expensive relative to a
//!   simulated cycle, so wall time is only sampled on every
//!   `sample_every`-th cycle: on a sampled cycle each phase boundary
//!   reads the clock once and attributes the delta to the phase that
//!   just ended. The per-phase *shares* converge to the true profile
//!   while the clock overhead is amortized `sample_every`-fold.
//!
//! Like [`Obs`](crate::obs::Obs), the handle is a single `Option` when
//! disabled: every `begin_cycle`/`mark`/`add_work` call is one
//! predictable branch and no clock is ever read.
//!
//! [`PerfProfile`]: crate::obs::PerfProfile

use crate::obs::json::JsonValue;
use std::time::Instant;

/// The six hot-loop phases shared by both network models. The mapping
/// from each network's concrete `step()` sections to these phases is
/// documented in `DESIGN.md` (telemetry pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Path setup: NIC-to-router transfers and local route computation.
    Route,
    /// Output/switch arbitration and launch decisions.
    Arbitrate,
    /// Link traversal: the optical wavefront walk, or electrical
    /// switch+link traversal.
    Traverse,
    /// Delivery at the destination (ejection and end-of-cycle
    /// accounting).
    Eject,
    /// Fault-plan bookkeeping: activating/clearing scheduled faults.
    Fault,
    /// Drop-network recovery and resource recycling: confirm/revert of
    /// launched packets, credit and VC lifecycle.
    Drain,
}

impl Phase {
    /// Number of phases (array dimension in [`PhaseBreakdown`]).
    pub const COUNT: usize = 6;

    /// Every phase, in stable export order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Route,
        Phase::Arbitrate,
        Phase::Traverse,
        Phase::Eject,
        Phase::Fault,
        Phase::Drain,
    ];

    /// Stable machine-readable name (used in JSON exports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Route => "route",
            Phase::Arbitrate => "arbitrate",
            Phase::Traverse => "traverse",
            Phase::Eject => "eject",
            Phase::Fault => "fault",
            Phase::Drain => "drain",
        }
    }

    /// Parses a [`name`](Self::name) back to a phase.
    pub fn from_name(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Index into the [`PhaseBreakdown`] arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated per-phase totals, detached from the profiler.
///
/// Plain copyable data: it crosses thread boundaries inside lab job
/// records and merges across jobs for the aggregate perf breakdown.
/// Wall-clock figures (`nanos`) belong to the perf layer and must never
/// enter a canonical report; the work counters are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Simulated cycles profiled.
    pub cycles: u64,
    /// Cycles on which wall time was sampled.
    pub sampled_cycles: u64,
    /// Sampled wall nanoseconds per phase, indexed by [`Phase::index`].
    pub nanos: [u64; Phase::COUNT],
    /// Deterministic work units per phase, indexed by [`Phase::index`].
    pub work: [u64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Total sampled wall nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// This phase's fraction of the total sampled wall time
    /// (0.0 when nothing was sampled).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos[phase.index()] as f64 / total as f64
        }
    }

    /// Folds another breakdown into this one (for aggregating per-job
    /// breakdowns into a lab-wide profile).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.cycles += other.cycles;
        self.sampled_cycles += other.sampled_cycles;
        for i in 0..Phase::COUNT {
            self.nanos[i] += other.nanos[i];
            self.work[i] += other.work[i];
        }
    }

    /// JSON object: `{"cycles", "sampled_cycles", "phases": [{"phase",
    /// "work", "sampled_nanos", "share"}, ...]}` in [`Phase::ALL`] order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("cycles".to_string(), JsonValue::Uint(self.cycles)),
            (
                "sampled_cycles".to_string(),
                JsonValue::Uint(self.sampled_cycles),
            ),
            (
                "phases".to_string(),
                JsonValue::Arr(
                    Phase::ALL
                        .into_iter()
                        .map(|p| {
                            JsonValue::Obj(vec![
                                ("phase".to_string(), JsonValue::Str(p.name().to_string())),
                                ("work".to_string(), JsonValue::Uint(self.work[p.index()])),
                                (
                                    "sampled_nanos".to_string(),
                                    JsonValue::Uint(self.nanos[p.index()]),
                                ),
                                ("share".to_string(), JsonValue::Num(self.share(p))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a [`to_json`](Self::to_json) object back (round-trip for
    /// perf tooling and tests).
    pub fn from_json(v: &JsonValue) -> Option<PhaseBreakdown> {
        let mut out = PhaseBreakdown {
            cycles: v.get("cycles")?.as_u64()?,
            sampled_cycles: v.get("sampled_cycles")?.as_u64()?,
            ..PhaseBreakdown::default()
        };
        for entry in v.get("phases")?.as_arr()? {
            let phase = Phase::from_name(entry.get("phase")?.as_str()?)?;
            out.work[phase.index()] = entry.get("work")?.as_u64()?;
            out.nanos[phase.index()] = entry.get("sampled_nanos")?.as_u64()?;
        }
        Some(out)
    }
}

/// Live profiler state (boxed behind the handle's `Option`).
#[derive(Debug)]
struct ProfilerState {
    sample_every: u32,
    /// Cycles until the next wall-sampled cycle.
    countdown: u32,
    /// Set at `begin_cycle` on sampled cycles; each `mark` advances it.
    anchor: Option<Instant>,
    breakdown: PhaseBreakdown,
}

/// The per-network phase-profiling handle.
///
/// Disabled ([`PhaseProfiler::off`], the default) this is a single
/// `None`; every call is one predictable branch and `Instant::now()` is
/// never reached.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    state: Option<Box<ProfilerState>>,
}

impl PhaseProfiler {
    /// Wall-sampling stride used when callers don't pick one: one clock
    /// read per phase per 32 cycles keeps overhead ≈1% on the measured
    /// hot loop while sampled shares converge within a few thousand
    /// cycles.
    pub const DEFAULT_SAMPLE_EVERY: u32 = 32;

    /// The disabled handle (default state of every network).
    pub const fn off() -> Self {
        PhaseProfiler { state: None }
    }

    /// An enabled profiler sampling wall time every `sample_every`
    /// cycles (clamped to ≥ 1; 1 = time every cycle).
    pub fn enabled(sample_every: u32) -> Self {
        PhaseProfiler {
            state: Some(Box::new(ProfilerState {
                sample_every: sample_every.max(1),
                countdown: 0,
                anchor: None,
                breakdown: PhaseBreakdown::default(),
            })),
        }
    }

    /// Whether profiling is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Opens a simulated cycle: counts it and decides whether this cycle
    /// is wall-sampled (anchoring the clock if so). Call once at the top
    /// of `step()`.
    #[inline]
    pub fn begin_cycle(&mut self) {
        if let Some(s) = &mut self.state {
            s.breakdown.cycles += 1;
            if s.countdown == 0 {
                s.countdown = s.sample_every - 1;
                s.breakdown.sampled_cycles += 1;
                s.anchor = Some(Instant::now());
            } else {
                s.countdown -= 1;
                s.anchor = None;
            }
        }
    }

    /// Closes a phase: on wall-sampled cycles, attributes the time since
    /// the previous mark (or `begin_cycle`) to `phase` and re-anchors.
    /// Call immediately **after** each phase's block; marking the same
    /// phase more than once per cycle accumulates.
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        if let Some(s) = &mut self.state {
            if let Some(anchor) = s.anchor {
                let now = Instant::now();
                s.breakdown.nanos[phase.index()] += now.duration_since(anchor).as_nanos() as u64;
                s.anchor = Some(now);
            }
        }
    }

    /// Adds `n` deterministic work units to `phase` (counted on every
    /// cycle, not only sampled ones).
    #[inline]
    pub fn add_work(&mut self, phase: Phase, n: u64) {
        if let Some(s) = &mut self.state {
            s.breakdown.work[phase.index()] += n;
        }
    }

    /// A copy of the totals so far (None when disabled).
    pub fn breakdown(&self) -> Option<PhaseBreakdown> {
        self.state.as_ref().map(|s| s.breakdown)
    }

    /// Detaches the accumulated totals, disabling the profiler.
    pub fn take_breakdown(&mut self) -> Option<PhaseBreakdown> {
        self.state.take().map(|s| s.breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;

    #[test]
    fn disabled_profiler_is_inert() {
        let mut p = PhaseProfiler::off();
        assert!(!p.is_enabled());
        p.begin_cycle();
        p.mark(Phase::Route);
        p.add_work(Phase::Route, 10);
        assert!(p.breakdown().is_none());
        assert!(p.take_breakdown().is_none());
    }

    #[test]
    fn counts_cycles_work_and_samples() {
        let mut p = PhaseProfiler::enabled(4);
        for _ in 0..8 {
            p.begin_cycle();
            p.add_work(Phase::Arbitrate, 2);
            p.mark(Phase::Arbitrate);
            p.mark(Phase::Traverse);
        }
        let b = p.take_breakdown().expect("enabled");
        assert!(!p.is_enabled(), "take detaches");
        assert_eq!(b.cycles, 8);
        assert_eq!(b.sampled_cycles, 2, "every 4th cycle sampled");
        assert_eq!(b.work[Phase::Arbitrate.index()], 16, "work on every cycle");
        assert_eq!(b.work[Phase::Route.index()], 0);
    }

    #[test]
    fn sample_every_one_times_every_cycle() {
        let mut p = PhaseProfiler::enabled(1);
        for _ in 0..5 {
            p.begin_cycle();
            p.mark(Phase::Eject);
        }
        let b = p.breakdown().unwrap();
        assert_eq!(b.sampled_cycles, 5);
    }

    #[test]
    fn shares_sum_to_one_when_sampled() {
        let mut b = PhaseBreakdown::default();
        b.nanos[Phase::Route.index()] = 30;
        b.nanos[Phase::Traverse.index()] = 70;
        let total: f64 = Phase::ALL.iter().map(|&p| b.share(p)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((b.share(Phase::Traverse) - 0.7).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::default().share(Phase::Route), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = PhaseBreakdown {
            cycles: 10,
            sampled_cycles: 2,
            ..PhaseBreakdown::default()
        };
        a.nanos[0] = 5;
        a.work[1] = 7;
        let mut b = a;
        b.cycles = 4;
        a.merge(&b);
        assert_eq!(a.cycles, 14);
        assert_eq!(a.sampled_cycles, 4);
        assert_eq!(a.nanos[0], 10);
        assert_eq!(a.work[1], 14);
    }

    #[test]
    fn json_round_trip() {
        let mut b = PhaseBreakdown {
            cycles: 123,
            sampled_cycles: 4,
            ..PhaseBreakdown::default()
        };
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            b.nanos[p.index()] = (i as u64 + 1) * 100;
            b.work[p.index()] = (i as u64 + 1) * 3;
        }
        let text = b.to_json().to_string_compact();
        let parsed = json::parse(&text).expect("valid json");
        let back = PhaseBreakdown::from_json(&parsed).expect("round-trips");
        assert_eq!(back, b);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("warp"), None);
    }
}
