//! The baseline store and the regression gate.
//!
//! `lab record` serializes a [`LabReport`] as `{name, canonical}` into
//! `results/baselines/<name>.json` — no wall-clock field, so the file is
//! byte-reproducible on any host at any worker count. `lab compare`
//! re-runs the spec
//! and calls [`compare`]: a structural mismatch (different spec, missing
//! jobs) is an **error** — the baseline is stale and must be re-recorded
//! — while metric movements beyond the [`Tolerances`] are reported as
//! **regressions** (the CLI exits non-zero on any).
//!
//! Everything gated here — mean/p99 latency and the saturation verdict
//! — is a deterministic function of the spec, so the tolerances can be
//! tight and the verdict is the same on every machine (improvements
//! never trip the gate). Simulator speed is wall-clock: it is measured
//! and gated only by the same-host A/B of `benchmark/`. Baselines
//! recorded before that split carry a `perf` object; it is ignored.

use crate::report::{LabReport, Saturation};
use phastlane_netsim::obs::json::JsonValue;

/// Slack before a metric movement counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Allowed relative increase in per-job mean latency.
    pub mean: f64,
    /// Allowed relative increase in per-job p99 latency.
    pub p99: f64,
    /// Allowed absolute decrease in a curve's stable saturation rate.
    pub saturation: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            mean: 0.05,
            p99: 0.10,
            saturation: 0.0,
        }
    }
}

/// Absolute slack under every relative check, so exact re-runs never
/// trip on float formatting.
const EPS: f64 = 1e-9;

/// Serializes a report as a named baseline.
pub fn baseline_json(name: &str, report: &LabReport) -> JsonValue {
    JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str(name.to_string())),
        ("canonical".into(), report.canonical_json()),
    ])
}

fn job_metric(job: &JsonValue, key: &str) -> Option<f64> {
    job.get("latency")?.get(key)?.as_f64()
}

fn saturation_from_json(v: &JsonValue) -> Option<Saturation> {
    let rate = || v.get("rate").and_then(JsonValue::as_f64);
    match v.get("kind")?.as_str()? {
        "stable" => Some(Saturation::Stable(rate()?)),
        "saturated_from_start" => Some(Saturation::SaturatedFromStart(rate()?)),
        "not_swept" => Some(Saturation::NotSwept),
        _ => None,
    }
}

/// Diffs a fresh run against a recorded baseline.
///
/// Returns the list of regressions (empty = gate passes).
///
/// # Errors
///
/// Errors when the baseline is structurally unusable for this spec:
/// malformed JSON shape, a different spec, or mismatched job lists.
/// Structural drift means the comparison is meaningless, not that the
/// code regressed — re-record the baseline instead.
pub fn compare(
    baseline: &JsonValue,
    fresh: &LabReport,
    tol: &Tolerances,
) -> Result<Vec<String>, String> {
    let canon = baseline
        .get("canonical")
        .ok_or("baseline has no \"canonical\" object")?;
    let base_spec = canon
        .get("spec")
        .and_then(JsonValue::as_str)
        .ok_or("baseline has no \"spec\" string")?;
    if base_spec != fresh.spec.encode() {
        return Err(format!(
            "baseline was recorded for a different spec; re-record it.\n\
             baseline spec:\n{base_spec}\ncurrent spec:\n{}",
            fresh.spec.encode()
        ));
    }
    let base_jobs = canon
        .get("jobs")
        .and_then(JsonValue::as_arr)
        .ok_or("baseline has no \"jobs\" array")?;
    if base_jobs.len() != fresh.jobs.len() {
        return Err(format!(
            "baseline has {} jobs, fresh run has {}",
            base_jobs.len(),
            fresh.jobs.len()
        ));
    }

    let mut regressions = Vec::new();
    for (base, job) in base_jobs.iter().zip(&fresh.jobs) {
        let label = format!(
            "job {} ({}/{}{})",
            job.index,
            job.net,
            job.pattern
                .clone()
                .or_else(|| job.benchmark.clone())
                .unwrap_or_default(),
            job.rate.map(|r| format!("@{r}")).unwrap_or_default(),
        );
        if let (Some(b), Some(f)) = (job_metric(base, "mean"), job.latency.mean()) {
            if f > b * (1.0 + tol.mean) + EPS {
                regressions.push(format!(
                    "{label}: mean latency {f:.2} exceeds baseline {b:.2} (+{:.1}% allowed)",
                    tol.mean * 100.0
                ));
            }
        }
        if let (Some(b), Some(f)) = (
            job_metric(base, "p99"),
            (job.latency.count() > 0)
                .then(|| job.latency.percentile(99.0))
                .flatten(),
        ) {
            let f = f as f64;
            if f > b * (1.0 + tol.p99) + EPS {
                regressions.push(format!(
                    "{label}: p99 latency {f} exceeds baseline {b} (+{:.1}% allowed)",
                    tol.p99 * 100.0
                ));
            }
        }
    }

    let base_sats = canon
        .get("saturations")
        .and_then(JsonValue::as_arr)
        .ok_or("baseline has no \"saturations\" array")?;
    if base_sats.len() != fresh.saturations.len() {
        return Err(format!(
            "baseline has {} saturation groups, fresh run has {}",
            base_sats.len(),
            fresh.saturations.len()
        ));
    }
    for (base, group) in base_sats.iter().zip(&fresh.saturations) {
        let label = format!(
            "curve {}/{} i={} r={}",
            group.net, group.pattern, group.intensity, group.replica
        );
        let b = base
            .get("saturation")
            .and_then(saturation_from_json)
            .ok_or_else(|| format!("{label}: baseline saturation unreadable"))?;
        match (b, group.saturation) {
            (Saturation::Stable(b), Saturation::Stable(f)) if f < b - tol.saturation - EPS => {
                regressions.push(format!(
                    "{label}: saturation rate {f} below baseline {b} (-{} allowed)",
                    tol.saturation
                ));
            }
            (Saturation::Stable(_), Saturation::Stable(_)) => {}
            (Saturation::Stable(b), fresh_sat) => {
                regressions.push(format!("{label}: was stable up to {b}, now {fresh_sat:?}"));
            }
            _ => {}
        }
    }

    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JobRecord;
    use crate::spec::LabSpec;
    use phastlane_netsim::stats::LatencyStats;

    fn report(mean_latency: u64) -> LabReport {
        let spec =
            LabSpec::parse("mesh 4x4\nnets optical4\npatterns uniform\nrates 0.1\n").unwrap();
        let mut latency = LatencyStats::new();
        latency.record(mean_latency);
        let job = JobRecord {
            index: 0,
            net: "optical4".into(),
            pattern: Some("uniform".into()),
            rate: Some(0.1),
            benchmark: None,
            intensity: 0.0,
            replica: 0,
            seed: 1,
            cycles: 1_000,
            latency,
            energy_pj: 5.0,
            offered_rate: Some(0.1),
            accepted_rate: Some(0.1),
            delivered_rate: Some(0.1),
            completion_cycle: None,
            unfinished: 0,
            undeliverable: 0,
            timed_out: false,
            stable: Some(true),
            outcome: crate::report::JobOutcome::Completed,
            wall_seconds: 0.25,
            phases: None,
        };
        LabReport::new(spec, vec![job], 1, 0.25)
    }

    #[test]
    fn identical_rerun_passes_clean() {
        let base = report(20);
        let recorded = baseline_json("t", &base);
        let regressions = compare(&recorded, &base, &Tolerances::default()).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn latency_regression_is_flagged() {
        let recorded = baseline_json("t", &report(20));
        let worse = report(40);
        let regressions = compare(&recorded, &worse, &Tolerances::default()).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("mean latency")),
            "{regressions:?}"
        );
        assert!(
            regressions.iter().any(|r| r.contains("p99")),
            "{regressions:?}"
        );
    }

    #[test]
    fn improvement_never_trips_the_gate() {
        let recorded = baseline_json("t", &report(40));
        let better = report(20);
        let regressions = compare(&recorded, &better, &Tolerances::default()).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn tolerance_absorbs_small_drift() {
        let recorded = baseline_json("t", &report(100));
        let slightly_worse = report(104);
        let tol = Tolerances::default(); // mean +5%
        let regressions = compare(&recorded, &slightly_worse, &tol).unwrap();
        assert!(
            !regressions.iter().any(|r| r.contains("mean")),
            "{regressions:?}"
        );
    }

    #[test]
    fn stable_to_saturated_is_a_regression() {
        let base = report(20);
        let recorded = baseline_json("t", &base);
        let mut collapsed = report(20);
        collapsed.jobs[0].stable = Some(false);
        collapsed.jobs[0].unfinished = 10;
        collapsed.saturations = {
            let mut s = collapsed.saturations;
            s[0].saturation = Saturation::SaturatedFromStart(0.1);
            s
        };
        let regressions = compare(&recorded, &collapsed, &Tolerances::default()).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("was stable")),
            "{regressions:?}"
        );
    }

    #[test]
    fn different_spec_is_a_structural_error() {
        let recorded = baseline_json("t", &report(20));
        let mut other = report(20);
        other.spec.seed = 99;
        let err = compare(&recorded, &other, &Tolerances::default()).unwrap_err();
        assert!(err.contains("different spec"), "{err}");
    }

    #[test]
    fn legacy_perf_block_is_ignored() {
        // Baselines recorded before the perf block was dropped carry a
        // wall-clock cycles_per_sec; however far the fresh run sits
        // below it, the gate no longer reads it.
        let base = report(20);
        let JsonValue::Obj(mut fields) = baseline_json("t", &base) else {
            panic!("baseline is an object");
        };
        fields.push((
            "perf".into(),
            JsonValue::Obj(vec![("cycles_per_sec".into(), JsonValue::Num(1e12))]),
        ));
        let regressions = compare(&JsonValue::Obj(fields), &base, &Tolerances::default()).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
    }
}
