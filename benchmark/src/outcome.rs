//! What one pass over one workload reports, and its two JSON forms: the
//! one-line result the driver reads and the detailed record the ledger
//! keeps.

use crate::stats::Summary;
use phastlane_netsim::obs::json::JsonValue;

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
    /// False when the layer does not run on this workload. The driver's
    /// result line must still carry the name (with value 0); the ledger's
    /// own table and records leave it out.
    pub applies: bool,
}

impl Reported {
    pub fn samples(name: &str, unit: &'static str, samples: &[f64]) -> Reported {
        Reported {
            name: name.to_string(),
            unit,
            summary: Summary::of(samples),
            applies: true,
        }
    }

    pub fn single(name: &str, unit: &'static str, value: f64) -> Reported {
        Reported::samples(name, unit, &[value])
    }

    pub fn absent(name: &str, unit: &'static str) -> Reported {
        Reported {
            applies: false,
            ..Reported::single(name, unit, 0.0)
        }
    }
}

/// The result of one pass (untraced or traced) over one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Jobs (or submissions) the timed section ran.
    pub attempted: u64,
    /// One message per job that did not complete, submission that was
    /// refused or failed, or output check that did not hold.
    pub failures: Vec<String>,
    /// Traced shares that contradict the workload's recorded reason.
    pub warnings: Vec<String>,
    pub metrics: Vec<Reported>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// `{"correct", "attempted", "failed", "metrics": {name: {"value",
    /// "unit"}}}` on one line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(m.summary.median)),
                        ("unit".into(), JsonValue::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Uint(self.attempted.max(1))),
            ("failed".into(), JsonValue::Uint(self.failed())),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
        .to_string_compact()
    }

    /// The ledger's record: every applicable metric with its quartiles
    /// and sample count, plus the check results.
    pub fn to_json(&self) -> JsonValue {
        let strings =
            |v: &[String]| JsonValue::Arr(v.iter().cloned().map(JsonValue::Str).collect());
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.applies)
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(m.summary.median)),
                        ("unit".into(), JsonValue::Str(m.unit.into())),
                        ("q1".into(), JsonValue::Num(m.summary.q1)),
                        ("q3".into(), JsonValue::Num(m.summary.q3)),
                        ("n".into(), JsonValue::Uint(m.summary.n as u64)),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("workload".into(), JsonValue::Str(self.workload.into())),
            ("seed".into(), JsonValue::Uint(self.seed)),
            ("traced".into(), JsonValue::Bool(self.traced)),
            ("attempted".into(), JsonValue::Uint(self.attempted)),
            ("failed".into(), JsonValue::Uint(self.failed())),
            ("failed_share".into(), JsonValue::Num(self.failed_share())),
            ("failures".into(), strings(&self.failures)),
            ("warnings".into(), strings(&self.warnings)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
    }

    /// One line per applicable metric: name, median, unit, quartiles.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().filter(|m| m.applies) {
            let s = &m.summary;
            out.push_str(&format!(
                "  {:<44} {:>16.6} {:<10}",
                m.name, s.median, m.unit
            ));
            if s.n > 1 {
                out.push_str(&format!(" [q1 {:.6}  q3 {:.6}  n {}]", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  {:<44} {:>16.6} {:<10} [{} of {} failed]\n",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.failed(),
            self.attempted
        ));
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}
