//! Lab-spec lint and the `lab run --preflight` gate.
//!
//! [`lint_spec`] statically examines an expanded job matrix and reports
//! findings at two levels:
//!
//! * **Error** — the matrix is statically doomed: a fault plan
//!   partitions pairs that the cell's traffic pattern will address
//!   (guaranteed `Undeliverable` outcomes), the drooped laser cannot
//!   close even one hop, a sabotage index lies outside the matrix, a
//!   pattern would panic on this mesh, an electrical replay's VCTM
//!   multicast masks cannot name every node, or an optical replay's
//!   broadcast splits into more messages than its source's NIC holds.
//!   [`preflight`] refuses such specs.
//! * **Warning** — the run is legal but suspicious: a zero retry cap
//!   on a faulted matrix, or a channel-dependency cycle introduced by
//!   detour turns (survivable here because Phastlane drops and retries
//!   instead of holding links while waiting, but worth knowing about).
//!
//! The fault plans inspected are exactly the plans the runner would
//! build: `FaultPlan::random(mesh, fault_seed, intensity)` with the
//! fault seed derived the same way [`phastlane_lab::spec::expand`] does,
//! under the worst-case view of [`crate::cdg`] (every scheduled fault
//! treated as permanent).

use crate::cdg::Cdg;
use crate::reach::{optical_envelope, residual_connectivity};
use phastlane_core::multicast::split_multicast;
use phastlane_lab::runner::optical_config;
use phastlane_lab::spec::{fault_seed, LabSpec};
use phastlane_netsim::fault::FaultPlan;
use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::mask::MASK_CAPACITY;
use phastlane_netsim::nic::NIC_ENTRIES;
use phastlane_netsim::rng::SimRng;
use phastlane_traffic::Pattern;

/// Severity of a spec finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The matrix cannot produce the results it asks for.
    Error,
    /// Legal but suspicious; the run proceeds.
    Warning,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Error => "error",
            Level::Warning => "warning",
        })
    }
}

/// One static finding about a lab spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecFinding {
    /// Severity.
    pub level: Level,
    /// The matrix slice the finding applies to, if not spec-global
    /// (e.g. `"net=optical4 pattern=transpose intensity=0.3 replica=0"`).
    pub cell: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for SpecFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cell {
            Some(cell) => write!(f, "{}: [{cell}] {}", self.level, self.message),
            None => write!(f, "{}: {}", self.level, self.message),
        }
    }
}

impl SpecFinding {
    fn error(cell: Option<String>, message: String) -> SpecFinding {
        SpecFinding {
            level: Level::Error,
            cell,
            message,
        }
    }

    fn warning(cell: Option<String>, message: String) -> SpecFinding {
        SpecFinding {
            level: Level::Warning,
            cell,
            message,
        }
    }
}

/// The pair set a pattern statically addresses: `None` means "assume
/// every pair" (randomized patterns).
type PatternPairs = Option<Vec<(NodeId, NodeId)>>;

/// The ordered (src, dst) pairs a pattern addresses on `mesh`, or
/// `None` when the pattern is randomized (uniform, hotspot) and must be
/// assumed to address every pair eventually.
fn pattern_pairs(pattern: Pattern, mesh: Mesh) -> PatternPairs {
    match pattern {
        Pattern::Uniform | Pattern::Hotspot { .. } => None,
        _ => {
            // Deterministic patterns ignore the RNG; any seed works.
            let mut rng = SimRng::seed_from_u64(0);
            Some(
                mesh.iter_nodes()
                    .filter_map(|src| {
                        let dst = pattern.dest(mesh, src, &mut rng);
                        (dst != src).then_some((src, dst))
                    })
                    .collect(),
            )
        }
    }
}

fn fmt_pairs(pairs: &[(NodeId, NodeId)]) -> String {
    const SHOW: usize = 4;
    let shown: Vec<String> = pairs
        .iter()
        .take(SHOW)
        .map(|(s, d)| format!("{s}->{d}"))
        .collect();
    if pairs.len() > SHOW {
        format!("{} (+{} more)", shown.join(" "), pairs.len() - SHOW)
    } else {
        shown.join(" ")
    }
}

/// Statically lints an expanded spec. Findings are deterministic and
/// ordered: spec-global checks first, then faulted cells in matrix
/// order (intensity outer, replica inner).
pub fn lint_spec(spec: &LabSpec) -> Vec<SpecFinding> {
    let mut findings = Vec::new();
    let mesh = spec.mesh;

    for s in &spec.sabotage {
        if s.index >= spec.job_count() {
            findings.push(SpecFinding::error(
                None,
                format!(
                    "sabotage index {} outside the {}-job matrix",
                    s.index,
                    spec.job_count()
                ),
            ));
        }
    }

    // A replay multicasts. The electrical network routes a multicast as
    // a VCTM tree over node masks of `MASK_CAPACITY` bits; the optical
    // core enters a broadcast into its source's NIC as all of its
    // column-split messages at once, so a split no NIC holds panics.
    if !spec.benchmarks.is_empty() {
        let (w, h) = (mesh.width(), mesh.height());
        let (src, messages) = widest_broadcast(mesh);
        for net in &spec.nets {
            let message = match optical_config(net) {
                Ok(None) if mesh.nodes() > MASK_CAPACITY => format!(
                    "mesh {w}x{h} has {} nodes; electrical VCTM multicast masks \
                     hold {MASK_CAPACITY}",
                    mesh.nodes()
                ),
                Ok(Some(_)) if messages > NIC_ENTRIES => format!(
                    "mesh {w}x{h}: a broadcast from {src} splits into {messages} \
                     messages; the optical NIC holds {NIC_ENTRIES}"
                ),
                _ => continue,
            };
            findings.push(SpecFinding::error(
                Some(format!("net={net} work=replay")),
                message,
            ));
        }
    }

    if let Some(message) = spec.patterns.iter().find_map(|p| p.check_mesh(mesh).err()) {
        findings.push(SpecFinding::error(None, message));
        // Everything below calls into the pattern machinery; stop here.
        return findings;
    }

    let faulted = spec.intensities.iter().any(|&i| i > 0.0);
    if spec.retry_limit == Some(0) && faulted {
        findings.push(SpecFinding::warning(
            None,
            "retry-limit 0 on a faulted matrix: any dropped packet is \
             immediately undeliverable"
                .to_string(),
        ));
    }

    // Per-pattern address sets are fault-independent; compute them once.
    let pairs_by_pattern: Vec<(Pattern, PatternPairs)> = spec
        .patterns
        .iter()
        .map(|&p| (p, pattern_pairs(p, mesh)))
        .collect();

    for &intensity in &spec.intensities {
        if intensity <= 0.0 {
            continue;
        }
        for replica in 0..spec.replicas {
            let plan = slice_plan(spec, intensity, replica);
            let slice =
                |extra: &str| Some(format!("intensity={intensity} replica={replica}{extra}"));

            for net in &spec.nets {
                match optical_envelope(net, mesh, &plan) {
                    Ok(Some(env)) if !env.feasible() => {
                        findings.push(SpecFinding::error(
                            slice(&format!(" net={net}")),
                            format!(
                                "laser droop {:.4} leaves 0 effective hops of the \
                                 provisioned {}: optically infeasible",
                                env.droop_factor, env.max_hops
                            ),
                        ));
                    }
                    Ok(_) => {}
                    Err(e) => findings.push(SpecFinding::error(slice(&format!(" net={net}")), e)),
                }
            }

            let residual = residual_connectivity(mesh, &plan);
            if !residual.fully_connected() {
                let benchmarks_present = !spec.benchmarks.is_empty();
                for (pattern, pairs) in &pairs_by_pattern {
                    let doomed: Vec<(NodeId, NodeId)> = match pairs {
                        Some(pairs) => pairs
                            .iter()
                            .filter(|p| residual.partitioned.contains(p))
                            .copied()
                            .collect(),
                        // Randomized patterns address every pair
                        // eventually; any partition dooms them.
                        None => residual.partitioned.clone(),
                    };
                    if !doomed.is_empty() {
                        findings.push(SpecFinding::error(
                            slice(&format!(" pattern={}", pattern.name())),
                            format!(
                                "fault plan statically partitions {} of the pattern's \
                                 pairs: {}",
                                doomed.len(),
                                fmt_pairs(&doomed)
                            ),
                        ));
                    }
                }
                if benchmarks_present {
                    findings.push(SpecFinding::error(
                        slice(" work=replay"),
                        format!(
                            "fault plan statically partitions {} of {} pairs; replay \
                             traces address arbitrary pairs: {}",
                            residual.partitioned.len(),
                            residual.total_pairs,
                            fmt_pairs(&residual.partitioned)
                        ),
                    ));
                }
            }

            let cdg = Cdg::of_mesh_xy(mesh, &plan);
            if let Some(witness) = cdg.shortest_cycle() {
                let cycle: Vec<String> = witness.iter().map(|c| c.to_string()).collect();
                findings.push(SpecFinding::warning(
                    slice(""),
                    format!(
                        "detour turns close a {}-channel dependency cycle ({}); \
                         survivable under drop-and-retry, impossible under \
                         hold-and-wait",
                        witness.len(),
                        cycle.join(" -> ")
                    ),
                ));
            }
        }
    }

    findings
}

/// The source whose broadcast splits into the most messages on `mesh`
/// (the lowest such node), and that count: the split the optical core's
/// `inject` pushes into one NIC.
fn widest_broadcast(mesh: Mesh) -> (NodeId, usize) {
    let all: Vec<NodeId> = mesh.iter_nodes().collect();
    mesh.iter_nodes()
        .map(|src| (src, split_multicast(mesh, src, &all).len()))
        .min_by_key(|&(_, messages)| std::cmp::Reverse(messages))
        .expect("a mesh has nodes")
}

/// The fault plan the lab runner installs for the jobs of one faulted
/// (intensity, replica) slice of the matrix.
fn slice_plan(spec: &LabSpec, intensity: f64, replica: u32) -> FaultPlan {
    FaultPlan::random(spec.mesh, fault_seed(spec.seed, replica), intensity)
}

/// The preflight gate behind `lab run --preflight`: lints the spec and
/// refuses to run when any finding is an error.
///
/// # Errors
///
/// Returns the error findings, one per line, when the matrix is
/// statically doomed.
pub fn preflight(spec: &LabSpec) -> Result<Vec<SpecFinding>, String> {
    let findings = lint_spec(spec);
    let errors: Vec<String> = findings
        .iter()
        .filter(|f| f.level == Level::Error)
        .map(SpecFinding::to_string)
        .collect();
    if errors.is_empty() {
        Ok(findings)
    } else {
        Err(format!(
            "preflight: spec {:?} is statically doomed:\n{}",
            spec.name,
            errors.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> LabSpec {
        LabSpec::parse(text).unwrap()
    }

    #[test]
    fn clean_spec_has_no_findings() {
        let spec = parse("mesh 4x4\nnets optical4\npatterns transpose\n");
        assert_eq!(lint_spec(&spec), Vec::new());
        assert!(preflight(&spec).is_ok());
    }

    #[test]
    fn committed_style_fault_free_specs_pass() {
        let spec = parse(
            "name smoke\nmesh 8x8\nseed 7\nnets optical4 electrical3\n\
             patterns uniform transpose\nrates 0.02 0.1\nreplicas 2\n",
        );
        assert!(preflight(&spec).is_ok());
    }

    /// The linter inspects the fault plans the runner installs, slice by
    /// slice: one shared seed derivation, not two that happen to agree.
    #[test]
    fn linted_plans_are_the_plans_the_runner_installs() {
        let spec = parse(
            "mesh 4x4\nseed 11\nnets optical4\npatterns transpose\nrates 0.05\n\
             intensities 0 0.3\nreplicas 2\n",
        );
        for job in &phastlane_lab::spec::expand(&spec) {
            let linted =
                (job.intensity > 0.0).then(|| slice_plan(&spec, job.intensity, job.replica));
            assert_eq!(linted, phastlane_lab::runner::job_fault_plan(&spec, job));
        }
        assert_ne!(
            slice_plan(&spec, 0.3, 0),
            slice_plan(&spec, 0.3, 1),
            "replicas run under different faults"
        );
    }

    #[test]
    fn out_of_range_sabotage_is_an_error() {
        let spec = parse("mesh 4x4\nsabotage panic@999\n");
        let findings = lint_spec(&spec);
        assert!(findings
            .iter()
            .any(|f| f.level == Level::Error && f.message.contains("sabotage index 999")));
        assert!(preflight(&spec).is_err());
    }

    #[test]
    fn non_power_of_two_mesh_with_patterns_is_an_error() {
        let spec = parse("mesh 3x3\npatterns transpose\n");
        let findings = lint_spec(&spec);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].level, Level::Error);
        assert!(findings[0].message.contains("power-of-two"));
        let spec = parse("mesh 8x4\npatterns uniform transpose\n");
        let findings = lint_spec(&spec);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].level, Level::Error);
        assert!(findings[0].message.contains("square"), "{findings:?}");
    }

    #[test]
    fn electrical_replay_beyond_the_mask_capacity_is_an_error() {
        let spec = parse("mesh 32x32\nnets electrical3 optical4\nbenchmarks FFT\n");
        let err = preflight(&spec).unwrap_err();
        assert!(err.contains("[net=electrical3 work=replay]"), "{err}");
        assert!(err.contains("1024 nodes"), "{err}");
        assert_eq!(err.matches("VCTM").count(), 1, "{err}");
        // Synthetic unicast cells on the same mesh build no tree, and the
        // largest mesh the masks hold (figure scalability's 16x16) passes.
        assert!(preflight(&parse("mesh 32x32\nnets electrical3\n")).is_ok());
        let spec = parse("mesh 16x16\nnets electrical3 optical4\nbenchmarks FFT\n");
        assert!(preflight(&spec).is_ok());
    }

    #[test]
    fn optical_replay_beyond_the_nic_is_an_error() {
        // An interior source on 32x32 splits a broadcast into two
        // messages per column, 64 in all, past the NIC's 50 entries.
        let spec = parse("mesh 32x32\nnets optical4 electrical3\nbenchmarks FFT\n");
        let err = preflight(&spec).unwrap_err();
        let want = "[net=optical4 work=replay] mesh 32x32: a broadcast from n32 splits \
                    into 64 messages; the optical NIC holds 50";
        assert!(
            err.contains(want) && err.matches("optical NIC").count() == 1,
            "{err}"
        );
        // Synthetic unicast cells broadcast nothing, and figure
        // scalability's 16x16 replay (32 messages) passes.
        assert!(preflight(&parse("mesh 32x32\nnets optical4\n")).is_ok());
        assert_eq!(widest_broadcast(Mesh::new(16, 16)), (NodeId(16), 32));
        assert!(preflight(&parse("mesh 16x16\nnets optical4\nbenchmarks FFT\n")).is_ok());
    }

    #[test]
    fn zero_retry_limit_on_faulted_matrix_warns() {
        let spec = parse("mesh 4x4\nretry-limit 0\nintensities 0.1\npatterns transpose\n");
        let findings = lint_spec(&spec);
        assert!(findings
            .iter()
            .any(|f| f.level == Level::Warning && f.message.contains("retry-limit 0")));
    }

    #[test]
    fn heavy_faults_statically_doom_the_matrix() {
        // Intensity 1.0 activates every samplable fault; on a 4x4 mesh
        // the worst-case static view partitions pairs (and likely
        // starves the laser), so preflight must refuse with a non-empty
        // error listing.
        let spec = parse("mesh 4x4\nseed 7\nnets optical4\npatterns transpose\nintensities 1.0\n");
        let err = preflight(&spec).unwrap_err();
        assert!(err.contains("statically doomed"), "{err}");
        assert!(err.contains("error:"), "{err}");
    }

    #[test]
    fn deterministic_pattern_doom_lists_exact_pairs() {
        // Find an intensity that partitions at least one transpose pair
        // on the default seed; the finding must carry concrete pairs.
        let mut hit = None;
        for intensity in [0.4, 0.6, 0.8, 1.0] {
            let spec = parse(&format!(
                "mesh 4x4\nseed 7\nnets electrical2\npatterns transpose\nintensities {intensity}\n"
            ));
            let findings = lint_spec(&spec);
            if let Some(f) = findings
                .iter()
                .find(|f| f.level == Level::Error && f.message.contains("partitions"))
            {
                hit = Some(f.clone());
                break;
            }
        }
        let f = hit.expect("some intensity partitions a transpose pair");
        assert!(f.message.contains("->"), "{}", f.message);
        assert!(f
            .cell
            .as_deref()
            .unwrap_or("")
            .contains("pattern=transpose"));
    }

    #[test]
    fn findings_are_deterministic() {
        let spec = parse("mesh 4x4\nseed 7\nnets optical4\npatterns transpose\nintensities 0.8\n");
        assert_eq!(lint_spec(&spec), lint_spec(&spec));
    }
}
