//! Supervised job execution: panic isolation and bounded retry.
//!
//! The scheduler routes every job through [`run_one_supervised`],
//! which wraps the actual simulation in `catch_unwind` so one job
//! hitting a simulator bug (or a deliberate `sabotage panic@N`) records
//! a terminal [`JobOutcome::Panicked`] instead of poisoning the worker
//! pool and killing the other 199 jobs of the sweep.
//!
//! Retry policy, applied per job:
//!
//! * **panics** retry up to `spec.retries` times with seeded
//!   exponential backoff, then record `Panicked` with the payload
//!   message;
//! * **deterministic watchdog verdicts** (cycle budget, livelock) are
//!   never retried — the same seed replays the same cycles, so the
//!   retry would burn the same budget to the same verdict;
//! * **wall-budget** timeouts are machine-weather and retry;
//! * **cancellation** returns immediately — the whole run is stopping.
//!
//! The backoff jitter is derived from the job seed, not the clock, so
//! a retried run's schedule is as reproducible as everything else here.

use crate::report::{JobOutcome, JobRecord};
use crate::runner;
use crate::spec::{derive_seed, JobSpec, LabSpec, SabotageKind};
use phastlane_netsim::stats::LatencyStats;
use phastlane_netsim::watchdog::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Longest single backoff sleep; keeps `retries 10` specs from
/// sleeping for minutes.
const MAX_BACKOFF_MS: u64 = 5_000;

/// Extracts a human-readable message from a panic payload. Panics via
/// `panic!("...")` carry `String` or `&str`; anything else gets a
/// placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Whether a watchdog verdict (by its reason string, which is part of
/// the record format) replays identically on a retry. Cycle budgets and
/// livelock fire at a deterministic simulated cycle; wall budgets and
/// cancellation depend on the machine.
fn reason_is_deterministic(reason: &str) -> bool {
    reason.starts_with("cycle budget") || reason.starts_with("livelock")
}

/// The terminal record for a job whose every attempt panicked: zero
/// cycles, empty latency, no stability vote — just the verdict.
fn panicked_record(job: &JobSpec, message: String) -> JobRecord {
    let (pattern, rate, benchmark) = match &job.work {
        crate::spec::Work::Synthetic { pattern, rate } => {
            (Some(pattern.name().to_string()), Some(*rate), None)
        }
        crate::spec::Work::Replay { benchmark } => (None, None, Some(benchmark.clone())),
    };
    JobRecord {
        index: job.index,
        net: job.net.clone(),
        pattern,
        rate,
        benchmark,
        intensity: job.intensity,
        replica: job.replica,
        seed: job.seed,
        cycles: 0,
        latency: LatencyStats::new(),
        energy_pj: 0.0,
        offered_rate: None,
        accepted_rate: None,
        delivered_rate: None,
        completion_cycle: None,
        unfinished: 0,
        undeliverable: 0,
        timed_out: false,
        stable: None,
        outcome: JobOutcome::Panicked { message },
        wall_seconds: 0.0,
        phases: None,
    }
}

/// Sleeps the seeded exponential backoff before retry `attempt` (1-up).
/// Base doubles per attempt; jitter is a pure function of the job seed
/// so reruns sleep identically.
fn backoff(spec: &LabSpec, job: &JobSpec, attempt: u32) {
    let base = spec
        .retry_backoff_ms
        .saturating_mul(1u64 << attempt.min(16))
        .min(MAX_BACKOFF_MS);
    let jitter = derive_seed(job.seed, 0xB0FF + attempt as u64) % (base / 2 + 1);
    std::thread::sleep(std::time::Duration::from_millis(
        (base + jitter).min(MAX_BACKOFF_MS),
    ));
}

/// Runs one job under full supervision: sabotage injection, panic
/// capture, and the retry policy above.
///
/// # Errors
///
/// Structural failures only (unknown network/benchmark); panics and
/// timeouts are *outcomes*, not errors.
pub fn run_one_supervised(
    spec: &LabSpec,
    job: &JobSpec,
    cancel: Option<&CancelToken>,
) -> Result<JobRecord, String> {
    let mut attempt = 0u32;
    loop {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if spec.sabotage_for(job.index) == Some(SabotageKind::Panic) {
                // Deliberate crash (harness testing): prove the
                // supervisor contains it.
                panic!("sabotage: deliberate panic in job {}", job.index);
            }
            runner::run_job_watched(spec, job, cancel)
        }));
        match caught {
            Ok(Ok(rec)) => {
                let retryable = match &rec.outcome {
                    JobOutcome::TimedOut { reason } => {
                        reason != "cancelled" && !reason_is_deterministic(reason)
                    }
                    _ => false,
                };
                if retryable && attempt < spec.retries {
                    attempt += 1;
                    backoff(spec, job, attempt);
                    continue;
                }
                return Ok(rec);
            }
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                let message = panic_message(payload);
                if attempt < spec.retries {
                    attempt += 1;
                    backoff(spec, job, attempt);
                    continue;
                }
                return Ok(panicked_record(job, message));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::expand;

    fn base_spec(extra: &str) -> LabSpec {
        LabSpec::parse(&format!(
            "mesh 4x4\nnets optical4\npatterns uniform\nrates 0.02\n\
             warmup 50\nmeasure 100\ndrain 400\n{extra}"
        ))
        .unwrap()
    }

    #[test]
    fn sabotaged_panic_becomes_a_terminal_outcome() {
        let spec = base_spec("sabotage panic@0\nretry-backoff-ms 1\n");
        let jobs = expand(&spec);
        let rec = run_one_supervised(&spec, &jobs[0], None).unwrap();
        match &rec.outcome {
            JobOutcome::Panicked { message } => {
                assert!(message.contains("deliberate panic in job 0"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(rec.cycles, 0);
        assert_eq!(rec.stable, None);
    }

    #[test]
    fn panic_retries_are_bounded() {
        // retries 2 → 3 attempts total, all panicking, still terminal.
        let spec = base_spec("sabotage panic@0\nretries 2\nretry-backoff-ms 1\n");
        let jobs = expand(&spec);
        let rec = run_one_supervised(&spec, &jobs[0], None).unwrap();
        assert!(matches!(rec.outcome, JobOutcome::Panicked { .. }));
    }

    #[test]
    fn healthy_supervised_run_matches_unsupervised() {
        let spec = base_spec("");
        let jobs = expand(&spec);
        let supervised = run_one_supervised(&spec, &jobs[0], None).unwrap();
        let plain = runner::run_job(&spec, &jobs[0]).unwrap();
        assert_eq!(supervised.latency, plain.latency);
        assert_eq!(supervised.energy_pj, plain.energy_pj);
        assert!(supervised.outcome.is_completed());
    }

    #[test]
    fn sabotaged_livelock_times_out_deterministically() {
        let spec = base_spec("sabotage livelock@0\nretry-backoff-ms 1\n");
        let jobs = expand(&spec);
        let a = run_one_supervised(&spec, &jobs[0], None).unwrap();
        let b = run_one_supervised(&spec, &jobs[0], None).unwrap();
        match (&a.outcome, &b.outcome) {
            (JobOutcome::TimedOut { reason: ra }, JobOutcome::TimedOut { reason: rb }) => {
                assert!(ra.starts_with("livelock"), "{ra}");
                assert_eq!(ra, rb, "livelock verdict is cycle-deterministic");
            }
            other => panic!("expected TimedOut pair, got {other:?}"),
        }
        assert!(a.timed_out);
        assert_eq!(a.stable, None);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn deterministic_verdicts_do_not_retry() {
        // A livelocked job with retries would re-run identically; the
        // policy skips the retry, so two calls cost the same wall time
        // order of magnitude (smoke: just assert the outcome stands).
        let spec = base_spec("sabotage livelock@0\nretries 3\nretry-backoff-ms 1\n");
        let jobs = expand(&spec);
        let rec = run_one_supervised(&spec, &jobs[0], None).unwrap();
        assert!(matches!(rec.outcome, JobOutcome::TimedOut { .. }));
    }
}
