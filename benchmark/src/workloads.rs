//! The seven workloads: what each one runs, and why it is in the ledger.
//!
//! Work is fixed by the committed spec templates under `workloads/` and
//! the constants here — nothing is calibrated at run time, so two
//! commits measured with the same `--seconds` do identical work.

/// How a workload reaches the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrontDoor {
    /// In process, through the calls `phastlane lab run` makes.
    Lab {
        workers: usize,
        /// `phastlane_analyze::preflight` before the run.
        preflight: bool,
        /// `Journal::create` before the run, `journal::load` checked after.
        journal: bool,
        /// Whole-pipeline passes per repeat.
        passes: usize,
    },
    /// Over loopback HTTP to an in-process server: a closed loop of
    /// `clients` threads, each submitting its next spec only after the
    /// previous report arrived.
    Serve {
        clients: usize,
        /// Untimed submissions per client at the start of every repeat,
        /// on its freshly started server.
        warmup: usize,
        /// Timed submissions per client per repeat.
        submissions: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The `.lab` spec template; its `seed` line is replaced.
    pub template: &'static str,
    pub front_door: FrontDoor,
    /// What one repeat takes on the quiet 2-core reference host. Only
    /// used to turn `--seconds` into a repeat count; never measured.
    pub nominal_repeat_s: f64,
    /// The `stable` verdict every synthetic cell must carry for the
    /// workload to be what its name says.
    pub expect_stable: Option<bool>,
}

/// Fewest repeats a run makes, whatever `--seconds` says.
pub const MIN_REPEATS: usize = 3;

impl Workload {
    /// Repeats measured in a run of `seconds`: a pure function of the
    /// committed constants, so the work never depends on host speed.
    pub fn repeats(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_repeat_s) as usize).max(MIN_REPEATS)
    }

    /// The spec text for one seed.
    pub fn spec_text(&self, seed: u64) -> String {
        substitute_seed(self.template, seed)
    }
}

/// Replaces the value of the template's `seed` line.
///
/// # Panics
///
/// Panics when the template has no `seed` line: every committed
/// template has exactly one, and the unit tests parse them all.
pub fn substitute_seed(template: &str, seed: u64) -> String {
    let mut found = false;
    let mut out = String::with_capacity(template.len() + 8);
    for line in template.lines() {
        if line.split_whitespace().next() == Some("seed") {
            out.push_str(&format!("seed {seed}"));
            found = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    assert!(found, "spec template has no seed line");
    out
}

/// One worker, no preflight, no journal: the plain `lab run FILE`.
const fn plain_lab(passes: usize) -> FrontDoor {
    FrontDoor::Lab {
        workers: 1,
        preflight: false,
        journal: false,
        passes,
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "optical-stable",
        why: "12 optical4 cells below saturation: core's step does most of the work and most routers are quiet most cycles, so an active-router worklist must show here.",
        template: include_str!("../workloads/optical-stable.lab"),
        front_door: plain_lab(20),
        nominal_repeat_s: 2.6,
        expect_stable: Some(true),
    },
    Workload {
        name: "optical-saturated",
        why: "8 optical4 jobs past saturation: same layer, but overflow, drop-return, backoff and retransmit dominate; a quiet-path gain that costs the busy path shows here.",
        template: include_str!("../workloads/optical-saturated.lab"),
        front_door: plain_lab(24),
        nominal_repeat_s: 2.6,
        expect_stable: Some(false),
    },
    Workload {
        name: "optical-faulted",
        why: "24 optical4 jobs under random fault plans: the fault, reroute, ECC and give-up branches of the hot loop; a hoisted fault-free fast path must not slow this.",
        template: include_str!("../workloads/optical-faulted.lab"),
        front_door: plain_lab(20),
        nominal_repeat_s: 2.6,
        expect_stable: None,
    },
    Workload {
        name: "electrical-baseline",
        why: "electrical3 synthetic cells plus two VCTM-multicast replays: core is bypassed, so every core optimisation predicts no change; the baseline's only perf point.",
        template: include_str!("../workloads/electrical-baseline.lab"),
        front_door: plain_lab(16),
        nominal_repeat_s: 3.3,
        expect_stable: None,
    },
    Workload {
        name: "splash2-replay",
        why: "Closed-loop replay of all ten SPLASH2 profiles: trace generation, dependency tracking and column multicast, which no synthetic cell touches.",
        template: include_str!("../workloads/splash2-replay.lab"),
        front_door: plain_lab(14),
        nominal_repeat_s: 2.4,
        expect_stable: None,
    },
    Workload {
        name: "lab-smalljobs",
        why: "384 tiny 4x4 jobs on 2 workers with preflight, journal and atomic report: parse, expand, build, scheduler, supervise, journal and store do most of the work.",
        template: include_str!("../workloads/lab-smalljobs.lab"),
        front_door: FrontDoor::Lab {
            workers: 2,
            preflight: true,
            journal: true,
            passes: 120,
        },
        nominal_repeat_s: 3.0,
        expect_stable: None,
    },
    Workload {
        name: "serve-smalljobs",
        why: "Closed loop of 2 clients over loopback HTTP (POST, event stream, GET report) on a tiny spec: http codec, accept loop, registry, fan-out and store dominate.",
        template: include_str!("../workloads/serve-smalljobs.lab"),
        front_door: FrontDoor::Serve {
            clients: 2,
            warmup: 10,
            submissions: 35,
        },
        nominal_repeat_s: 2.8,
        expect_stable: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_lab::LabSpec;

    #[test]
    fn every_template_parses_with_a_substituted_seed() {
        for w in &WORKLOADS {
            let spec = LabSpec::parse(&w.spec_text(424_242)).unwrap_or_else(|e| {
                panic!("{}: {e}", w.name);
            });
            assert_eq!(spec.seed, 424_242, "{}", w.name);
            assert_eq!(spec.name, w.name);
            assert!(w.why.len() <= 200, "{}: why is one short line", w.name);
        }
    }

    #[test]
    fn substitution_touches_only_the_seed_line() {
        let text = substitute_seed("name x # seed 1\nseed 7 # master\nrates 0.5\n", 99);
        assert_eq!(text, "name x # seed 1\nseed 99\nrates 0.5\n");
    }

    #[test]
    fn repeats_scale_with_seconds_but_never_drop_below_three() {
        let w = find("optical-stable").unwrap();
        assert_eq!(w.repeats(1.0), 3);
        assert_eq!(w.repeats(10.0), 3);
        assert_eq!(w.repeats(26.5), 10);
    }
}
