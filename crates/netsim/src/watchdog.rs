//! Run supervision primitives: cooperative cancellation, cycle/wall
//! budgets, and livelock detection for the hot step loops.
//!
//! The lab scheduler (and, later, a serving layer) must be able to bound
//! a misbehaving job without killing the process: a job that spins
//! forever under a pathological fault plan, or one that exceeds its
//! cycle allowance, should *finish* with a timeout verdict instead of
//! hanging a worker thread. The [`Watchdog`] is that bound. It is
//! deliberately cheap: when a drive has no watchdog the per-cycle cost
//! is a single `Option` branch, and when it has one the common path is
//! two integer compares — the atomic cancellation flag and the
//! wall-clock read are gated to once every [`Watchdog::GATE`] cycles,
//! the same batched-`Instant` trick the phase profiler uses.
//!
//! Cycle-budget and livelock verdicts fire at *cycle-deterministic*
//! points, so a report containing them is still byte-identical across
//! worker counts and re-runs. Wall-clock and cancellation verdicts are
//! inherently machine-dependent; they exist as safety valves, not as
//! reproducible measurements.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A clonable cancellation flag shared between a supervisor and the
/// drives it guards. Cancelling is sticky and idempotent.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation of every drive holding a clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a watchdog stopped a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Interrupt {
    /// The shared [`CancelToken`] was cancelled.
    Cancelled,
    /// The run reached its cycle budget.
    CycleBudget {
        /// The configured budget, in cycles.
        budget: u64,
    },
    /// Work was pending but nothing made progress for a full window.
    Livelock {
        /// The configured no-progress window, in cycles.
        window: u64,
        /// The (relative) cycle at which the verdict fired.
        cycle: u64,
    },
    /// The run exceeded its wall-clock allowance.
    WallBudget {
        /// The configured allowance, in seconds.
        seconds: f64,
    },
}

impl Interrupt {
    /// A short, deterministic human-readable reason. The parameters in
    /// the string are configuration (and, for livelock, a
    /// cycle-deterministic firing point), never wall-clock measurements,
    /// so the string is stable across re-runs of the same spec + seed.
    pub fn reason(&self) -> String {
        match self {
            Interrupt::Cancelled => "cancelled".into(),
            Interrupt::CycleBudget { budget } => {
                format!("cycle budget {budget} exhausted")
            }
            Interrupt::Livelock { window, cycle } => {
                format!("livelock: no progress for {window} cycles (at cycle {cycle})")
            }
            Interrupt::WallBudget { seconds } => {
                format!("wall budget {seconds}s exceeded")
            }
        }
    }

    /// Whether this verdict fires at a cycle-deterministic point (so the
    /// resulting record is reproducible) or depends on wall time / an
    /// external signal.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            Interrupt::CycleBudget { .. } | Interrupt::Livelock { .. }
        )
    }
}

/// Per-run supervision state. Construct with [`Watchdog::new`] and the
/// `with_*` builders, hand it to a drive, and the drive calls
/// [`check`](Watchdog::check) once per cycle.
#[derive(Debug, Clone)]
pub struct Watchdog {
    token: Option<CancelToken>,
    cycle_budget: Option<u64>,
    livelock_window: Option<u64>,
    wall_deadline: Option<Instant>,
    wall_seconds: f64,
    last_progress: u64,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new()
    }
}

impl Watchdog {
    /// The expensive checks (atomic load, `Instant::now`) run once every
    /// `GATE` cycles. At typical simulator speeds (~10^5..10^6 cycles/s)
    /// that bounds cancellation/wall-budget latency to well under a
    /// second while keeping the per-cycle cost to integer compares.
    pub const GATE: u64 = 4096;

    /// A watchdog with nothing armed (every check passes).
    pub fn new() -> Watchdog {
        Watchdog {
            token: None,
            cycle_budget: None,
            livelock_window: None,
            wall_deadline: None,
            wall_seconds: 0.0,
            last_progress: 0,
        }
    }

    /// Arms cooperative cancellation via a shared token.
    pub fn with_cancel(mut self, token: CancelToken) -> Watchdog {
        self.token = Some(token);
        self
    }

    /// Arms a hard cycle budget (relative cycles).
    pub fn with_cycle_budget(mut self, budget: u64) -> Watchdog {
        self.cycle_budget = Some(budget);
        self
    }

    /// Arms livelock detection: if work is pending but no packet is
    /// injected, delivered, or terminally failed for `window` cycles,
    /// the run is stopped.
    pub fn with_livelock_window(mut self, window: u64) -> Watchdog {
        self.livelock_window = Some(window.max(1));
        self
    }

    /// Arms a wall-clock allowance counted from *now*.
    pub fn with_wall_budget(mut self, budget: Duration) -> Watchdog {
        self.wall_deadline = Some(Instant::now() + budget);
        self.wall_seconds = budget.as_secs_f64();
        self
    }

    /// Whether any check is armed. Drives may skip an unarmed watchdog
    /// entirely.
    pub fn is_armed(&self) -> bool {
        self.token.is_some()
            || self.cycle_budget.is_some()
            || self.livelock_window.is_some()
            || self.wall_deadline.is_some()
    }

    /// Records that the run made progress at relative cycle `rel`
    /// (a packet was injected, delivered, or terminally failed).
    #[inline]
    pub fn note_progress(&mut self, rel: u64) {
        self.last_progress = rel;
    }

    /// One per-cycle check. `pending` is consulted *only* when the
    /// livelock window has elapsed — it should report whether the run
    /// still has work outstanding (in-flight packets or queued
    /// injections); an idle network waiting for future traffic is not
    /// livelocked and resets the window instead of firing.
    #[inline]
    pub fn check<F: FnOnce() -> bool>(&mut self, rel: u64, pending: F) -> Option<Interrupt> {
        if let Some(budget) = self.cycle_budget {
            if rel >= budget {
                return Some(Interrupt::CycleBudget { budget });
            }
        }
        if let Some(window) = self.livelock_window {
            if rel.wrapping_sub(self.last_progress) >= window {
                if pending() {
                    return Some(Interrupt::Livelock { window, cycle: rel });
                }
                // Idle, not stuck: nothing is in flight or queued, the
                // workload simply has not produced traffic recently.
                self.last_progress = rel;
            }
        }
        if rel & (Self::GATE - 1) == 0 {
            if let Some(token) = &self.token {
                if token.is_cancelled() {
                    return Some(Interrupt::Cancelled);
                }
            }
            if let Some(deadline) = self.wall_deadline {
                if Instant::now() >= deadline {
                    return Some(Interrupt::WallBudget {
                        seconds: self.wall_seconds,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_watchdog_never_fires() {
        let mut wd = Watchdog::new();
        assert!(!wd.is_armed());
        for rel in 0..(Watchdog::GATE * 3) {
            assert_eq!(wd.check(rel, || true), None);
        }
    }

    #[test]
    fn cycle_budget_fires_exactly_at_budget() {
        let mut wd = Watchdog::new().with_cycle_budget(100);
        assert_eq!(wd.check(99, || true), None);
        assert_eq!(
            wd.check(100, || true),
            Some(Interrupt::CycleBudget { budget: 100 })
        );
    }

    #[test]
    fn livelock_fires_only_when_work_is_pending() {
        let mut wd = Watchdog::new().with_livelock_window(10);
        // Idle network: the window keeps resetting, never fires.
        for rel in 0..100 {
            assert_eq!(wd.check(rel, || false), None);
        }
        // Pending work with progress inside the window: no fire.
        let mut wd = Watchdog::new().with_livelock_window(10);
        for rel in 0..100 {
            if rel % 5 == 0 {
                wd.note_progress(rel);
            }
            assert_eq!(wd.check(rel, || true), None);
        }
        // Pending work, no progress: fires once the window elapses.
        let mut wd = Watchdog::new().with_livelock_window(10);
        wd.note_progress(7);
        for rel in 8..17 {
            assert_eq!(wd.check(rel, || true), None);
        }
        assert_eq!(
            wd.check(17, || true),
            Some(Interrupt::Livelock {
                window: 10,
                cycle: 17
            })
        );
    }

    #[test]
    fn cancel_token_fires_on_gate_cycles() {
        let token = CancelToken::new();
        let mut wd = Watchdog::new().with_cancel(token.clone());
        assert_eq!(wd.check(0, || true), None);
        token.cancel();
        assert!(token.is_cancelled());
        // Off-gate cycles do not consult the token.
        assert_eq!(wd.check(1, || true), None);
        assert_eq!(
            wd.check(Watchdog::GATE, || true),
            Some(Interrupt::Cancelled)
        );
    }

    #[test]
    fn wall_budget_fires_after_deadline() {
        let mut wd = Watchdog::new().with_wall_budget(Duration::from_secs(0));
        // Deadline already passed; first gated check fires.
        assert!(matches!(
            wd.check(0, || true),
            Some(Interrupt::WallBudget { .. })
        ));
    }

    #[test]
    fn reasons_are_deterministic_strings() {
        assert_eq!(Interrupt::Cancelled.reason(), "cancelled");
        assert_eq!(
            Interrupt::CycleBudget { budget: 5000 }.reason(),
            "cycle budget 5000 exhausted"
        );
        assert_eq!(
            Interrupt::Livelock {
                window: 2000,
                cycle: 2100
            }
            .reason(),
            "livelock: no progress for 2000 cycles (at cycle 2100)"
        );
        assert!(Interrupt::Livelock {
            window: 1,
            cycle: 1
        }
        .is_deterministic());
        assert!(!Interrupt::Cancelled.is_deterministic());
    }
}
