//! The `phastlane analyze` subcommand: static verification with no
//! simulation — channel-dependency deadlock analysis, residual
//! connectivity under a fault plan, the optical loss-budget envelope,
//! and lab-spec preflight.
//!
//! Three modes:
//!
//! * `phastlane analyze [--net N] [--mesh WxH] [--fault-plan F |
//!   --fault-rate R] [--fault-seed S] [--json] [--out FILE]` — analyze
//!   one network configuration: CDG acyclicity (with a minimal witness
//!   cycle when it fails), per-pair reachability, optical envelope.
//! * `phastlane analyze --ring LEN` — the known-deadlocking reference:
//!   naive DOR on a LEN-node unidirectional torus ring; always yields a
//!   concrete witness cycle.
//! * `phastlane analyze --spec FILE [--json]` — lint a lab spec;
//!   errors (statically doomed matrix) exit non-zero.

use crate::args::{ArgError, Parsed};
use crate::commands::{parse_fault, parse_mesh};
use phastlane_analyze::cdg::Cdg;
use phastlane_analyze::lablint::{lint_spec, Level};
use phastlane_analyze::reach::{optical_envelope, residual_connectivity, OpticalEnvelope};
use phastlane_lab::LabSpec;
use phastlane_netsim::fault::FaultPlan;
use phastlane_netsim::obs::json::JsonValue;

fn witness_json(witness: &Option<Vec<phastlane_analyze::Channel>>) -> JsonValue {
    match witness {
        None => JsonValue::Null,
        Some(cycle) => JsonValue::Arr(
            cycle
                .iter()
                .map(|c| JsonValue::Str(c.to_string()))
                .collect(),
        ),
    }
}

fn envelope_json(env: &OpticalEnvelope) -> JsonValue {
    JsonValue::Obj(vec![
        ("wdm".into(), JsonValue::Uint(u64::from(env.wdm))),
        ("max_hops".into(), JsonValue::Uint(u64::from(env.max_hops))),
        (
            "crossing_efficiency".into(),
            JsonValue::Num(env.crossing_efficiency),
        ),
        ("droop_factor".into(), JsonValue::Num(env.droop_factor)),
        (
            "effective_hops".into(),
            JsonValue::Uint(u64::from(env.effective_hops)),
        ),
        ("diameter".into(), JsonValue::Uint(u64::from(env.diameter))),
        (
            "min_transit_cycles".into(),
            match env.min_transit_cycles {
                Some(c) => JsonValue::Uint(u64::from(c)),
                None => JsonValue::Null,
            },
        ),
        ("feasible".into(), JsonValue::Bool(env.feasible())),
    ])
}

fn emit(p: &Parsed, human: String, json: JsonValue) -> Result<String, ArgError> {
    let text = if p.flag("json") {
        json.to_string_pretty()
    } else {
        human
    };
    if let Some(path) = p.get("out") {
        std::fs::write(path, &text).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        Ok(format!("analysis -> {path}\n"))
    } else {
        Ok(text)
    }
}

fn analyze_ring(p: &Parsed) -> Result<String, ArgError> {
    let len: u16 = p.get_parsed("ring", 8)?;
    if len < 2 {
        return Err(ArgError("--ring needs at least 2 nodes".into()));
    }
    let cdg = Cdg::of_ring_dor(len);
    let witness = cdg.shortest_cycle();
    let mut human = format!(
        "analyze ring: naive DOR on a {len}-node unidirectional torus ring\n\
         cdg: {} channels, {} dependencies\n",
        cdg.active_channels(),
        cdg.edge_count()
    );
    match &witness {
        Some(cycle) => {
            let chain: Vec<String> = cycle.iter().map(|c| c.to_string()).collect();
            human.push_str(&format!(
                "verdict: CYCLIC — deadlock possible\n\
                 minimal witness ({} channels): {}\n",
                cycle.len(),
                chain.join(" -> ")
            ));
        }
        None => human.push_str("verdict: acyclic — deadlock-free\n"),
    }
    let json = JsonValue::Obj(vec![
        ("mode".into(), JsonValue::Str("ring-dor".into())),
        ("ring".into(), JsonValue::Uint(len as u64)),
        ("deadlock_free".into(), JsonValue::Bool(witness.is_none())),
        ("witness".into(), witness_json(&witness)),
    ]);
    emit(p, human, json)
}

fn analyze_network(p: &Parsed) -> Result<String, ArgError> {
    let net = p.get("net").unwrap_or("optical4");
    let mesh = parse_mesh(p)?;
    let plan = parse_fault(p, mesh)?.map_or_else(FaultPlan::new, |f| f.plan);
    let cdg = Cdg::of_mesh_xy(mesh, &plan);
    let witness = cdg.shortest_cycle();
    let envelope = optical_envelope(net, mesh, &plan).map_err(ArgError)?;
    let residual = residual_connectivity(mesh, &plan);

    let mut human = format!(
        "analyze {net} on {}x{} mesh ({} fault(s) scheduled, worst-case view)\n\
         cdg: {} channels, {} dependencies\n",
        mesh.width(),
        mesh.height(),
        plan.faults().len(),
        cdg.active_channels(),
        cdg.edge_count(),
    );
    match &witness {
        None => human.push_str("deadlock: acyclic CDG — deadlock-free\n"),
        Some(cycle) => {
            let chain: Vec<String> = cycle.iter().map(|c| c.to_string()).collect();
            human.push_str(&format!(
                "deadlock: CYCLIC — minimal witness ({} channels): {}\n\
                 (survivable under Phastlane's drop-and-retry; fatal under \
                 hold-and-wait)\n",
                cycle.len(),
                chain.join(" -> ")
            ));
        }
    }
    match &envelope {
        None => human.push_str("envelope: electrical network, no optical budget\n"),
        Some(env) => {
            human.push_str(&format!(
                "envelope: wdm {}, provisioned {} hops @ eff {:.3}, droop {:.4} \
                 -> effective {} hops",
                env.wdm,
                env.max_hops,
                env.crossing_efficiency,
                env.droop_factor,
                env.effective_hops
            ));
            match env.min_transit_cycles {
                Some(c) => human.push_str(&format!(
                    ", diameter {} -> min transit {} cycle(s)\n",
                    env.diameter, c
                )),
                None => human.push_str(" — OPTICALLY INFEASIBLE\n"),
            }
        }
    }
    let reachable = residual.total_pairs - residual.partitioned.len();
    human.push_str(&format!(
        "connectivity: {reachable}/{} ordered pairs reachable\n",
        residual.total_pairs
    ));
    if !residual.partitioned.is_empty() {
        const SHOW: usize = 8;
        let shown: Vec<String> = residual
            .partitioned
            .iter()
            .take(SHOW)
            .map(|(s, d)| format!("{s}->{d}"))
            .collect();
        human.push_str(&format!(
            "partitioned ({} pair(s), predicted undeliverable): {}{}\n",
            residual.partitioned.len(),
            shown.join(" "),
            if residual.partitioned.len() > SHOW {
                format!(" (+{} more)", residual.partitioned.len() - SHOW)
            } else {
                String::new()
            }
        ));
    }

    let json = JsonValue::Obj(vec![
        ("mode".into(), JsonValue::Str("network".into())),
        ("net".into(), JsonValue::Str(net.to_string())),
        (
            "mesh".into(),
            JsonValue::Str(format!("{}x{}", mesh.width(), mesh.height())),
        ),
        ("faults".into(), JsonValue::Uint(plan.faults().len() as u64)),
        (
            "channels".into(),
            JsonValue::Uint(cdg.active_channels() as u64),
        ),
        (
            "dependencies".into(),
            JsonValue::Uint(cdg.edge_count() as u64),
        ),
        ("deadlock_free".into(), JsonValue::Bool(witness.is_none())),
        ("witness".into(), witness_json(&witness)),
        (
            "envelope".into(),
            match &envelope {
                Some(env) => envelope_json(env),
                None => JsonValue::Null,
            },
        ),
        (
            "total_pairs".into(),
            JsonValue::Uint(residual.total_pairs as u64),
        ),
        (
            "partitioned".into(),
            JsonValue::Arr(
                residual
                    .partitioned
                    .iter()
                    .map(|(s, d)| {
                        JsonValue::Arr(vec![
                            JsonValue::Uint(u64::from(s.0)),
                            JsonValue::Uint(u64::from(d.0)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    emit(p, human, json)
}

fn analyze_spec(p: &Parsed, path: &str) -> Result<String, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let spec = LabSpec::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let findings = lint_spec(&spec);
    let errors = findings.iter().filter(|f| f.level == Level::Error).count();
    let warnings = findings.len() - errors;
    let json = JsonValue::Obj(vec![
        ("mode".into(), JsonValue::Str("spec".into())),
        ("spec".into(), JsonValue::Str(spec.name.clone())),
        ("jobs".into(), JsonValue::Uint(spec.job_count() as u64)),
        ("errors".into(), JsonValue::Uint(errors as u64)),
        ("warnings".into(), JsonValue::Uint(warnings as u64)),
        (
            "findings".into(),
            JsonValue::Arr(
                findings
                    .iter()
                    .map(|f| {
                        JsonValue::Obj(vec![
                            ("level".into(), JsonValue::Str(f.level.to_string())),
                            (
                                "cell".into(),
                                match &f.cell {
                                    Some(c) => JsonValue::Str(c.clone()),
                                    None => JsonValue::Null,
                                },
                            ),
                            ("message".into(), JsonValue::Str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut human = format!(
        "analyze spec {path}: {} job(s), {errors} error(s), {warnings} warning(s)\n",
        spec.job_count()
    );
    for f in &findings {
        human.push_str(&format!("  {f}\n"));
    }
    let out = emit(p, human, json)?;
    if errors > 0 {
        return Err(ArgError(format!(
            "{out}spec {path} is statically doomed ({errors} error(s))"
        )));
    }
    Ok(out)
}

/// `phastlane analyze`.
///
/// # Errors
///
/// Argument/IO errors; `--spec` errors on a statically doomed matrix.
pub fn cmd_analyze(p: &Parsed) -> Result<String, ArgError> {
    if let Some(path) = p.get("spec") {
        let path = path.to_string();
        analyze_spec(p, &path)
    } else if p.get("ring").is_some() {
        analyze_ring(p)
    } else {
        analyze_network(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(words: &[&str]) -> Parsed {
        Parsed::parse(words.iter().map(|s| s.to_string())).expect("parses")
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("phastlane-analyze-cmd-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn fault_free_paper_mesh_is_clean() {
        let out = cmd_analyze(&parsed(&["analyze"])).expect("analyzes");
        assert!(out.contains("deadlock-free"), "{out}");
        assert!(out.contains("4032/4032 ordered pairs reachable"), "{out}");
        assert!(out.contains("effective 4 hops"), "{out}");
    }

    #[test]
    fn ring_mode_produces_a_concrete_witness_cycle() {
        let out = cmd_analyze(&parsed(&["analyze", "--ring", "4"])).expect("analyzes");
        assert!(out.contains("CYCLIC"), "{out}");
        assert!(out.contains("witness (4 channels)"), "{out}");
        assert!(out.contains("n0->E"), "{out}");
        // And as machine-readable JSON.
        let js = cmd_analyze(&parsed(&["analyze", "--ring", "4", "--json"])).expect("json");
        assert!(js.contains("\"deadlock_free\": false"), "{js}");
        assert!(js.contains("\"n0->E\""), "{js}");
    }

    #[test]
    fn heavy_faults_surface_partitions_and_droop() {
        let out = cmd_analyze(&parsed(&[
            "analyze",
            "--mesh",
            "4x4",
            "--fault-rate",
            "1.0",
            "--fault-seed",
            "7",
        ]))
        .expect("analyzes");
        assert!(out.contains("partitioned"), "{out}");
        assert!(out.contains("predicted undeliverable"), "{out}");
    }

    #[test]
    fn spec_mode_gates_doomed_specs() {
        let dir = scratch("spec");
        let good = dir.join("good.lab");
        std::fs::write(&good, "mesh 4x4\nnets optical4\npatterns transpose\n").unwrap();
        let out = cmd_analyze(&parsed(&["analyze", "--spec", good.to_str().unwrap()]))
            .expect("clean spec passes");
        assert!(out.contains("0 error(s)"), "{out}");
        let doomed = dir.join("doomed.lab");
        std::fs::write(
            &doomed,
            "mesh 4x4\nseed 7\nnets optical4\npatterns transpose\nintensities 1.0\n",
        )
        .unwrap();
        let err = cmd_analyze(&parsed(&["analyze", "--spec", doomed.to_str().unwrap()]))
            .expect_err("doomed spec fails");
        assert!(err.to_string().contains("statically doomed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_writes_the_report_to_a_file() {
        let dir = scratch("out");
        let path = dir.join("cdg.json");
        let out = cmd_analyze(&parsed(&[
            "analyze",
            "--json",
            "--out",
            path.to_str().unwrap(),
        ]))
        .expect("writes");
        assert!(out.contains("analysis ->"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"deadlock_free\": true"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
