//! End-to-end crash-safety gates: a lab must survive panicking jobs,
//! livelocked networks, and being killed mid-run — and a resumed run
//! must reproduce the uninterrupted canonical report byte-for-byte.

use phastlane_lab::journal::{self, Journal};
use phastlane_lab::report::JobOutcome;
use phastlane_lab::scheduler::{run_lab_opts, run_lab_with, RunOptions};
use phastlane_lab::spec::{Sabotage, SabotageKind};
use phastlane_lab::{run_lab, LabSpec};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phastlane-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const SPEC: &str = "name crash-it\nmesh 4x4\nseed 11\nnets optical4 electrical2\n\
                    patterns uniform transpose\nrates 0.02 0.04\n\
                    warmup 100\nmeasure 300\ndrain 1000\n";

#[test]
fn interrupted_run_resumes_to_a_byte_identical_report() {
    let dir = scratch("resume");
    let spec = LabSpec::parse(SPEC).unwrap();
    let reference = run_lab(&spec, 2)
        .unwrap()
        .canonical_json()
        .to_string_pretty();

    // Full journaled run stands in for the pre-crash process; we then
    // replay truncated prefixes of its journal — every possible "the
    // process died after N jobs" point, including torn mid-line tails.
    let jpath = dir.join("run.ndjson");
    let journal = Journal::create(&jpath, &spec).unwrap();
    run_lab_opts(
        &spec,
        RunOptions {
            workers: 2,
            journal: Some(&journal),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(journal.write_errors(), 0);
    drop(journal);

    let full = std::fs::read_to_string(&jpath).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), 9, "header + 8 records: {full}");

    for keep in [0usize, 1, 4, 8] {
        let mut partial: String = lines[..=keep].join("\n");
        partial.push('\n');
        if keep < 8 {
            // And a torn tail: half of the next record.
            partial.push_str(&lines[keep + 1][..lines[keep + 1].len() / 2]);
        }
        let ppath = dir.join(format!("partial-{keep}.ndjson"));
        std::fs::write(&ppath, &partial).unwrap();

        let recovered = journal::load(&ppath).unwrap();
        assert_eq!(recovered.spec, spec.encode());
        assert_eq!(recovered.records.len(), keep, "kept {keep}");
        let resumed = run_lab_opts(
            &spec,
            RunOptions {
                workers: 2,
                resumed: recovered.records,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            resumed.canonical_json().to_string_pretty(),
            reference,
            "resume after {keep} finished jobs must be byte-identical"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sabotaged_jobs_end_terminal_and_leave_the_rest_untouched() {
    // 4 jobs; job 1 panics, job 2 livelocks. The run must complete with
    // terminal outcomes for both and healthy records for the others.
    let healthy = LabSpec::parse(SPEC).unwrap();
    let mut spec = healthy.clone();
    spec.sabotage = vec![
        Sabotage::parse("panic@1").unwrap(),
        Sabotage::parse("livelock@2").unwrap(),
    ];

    let report = run_lab_with(&spec, 2, None).expect("sabotaged lab completes");
    assert_eq!(report.jobs.len(), 8);
    match &report.jobs[1].outcome {
        JobOutcome::Panicked { message } => assert!(message.contains("job 1"), "{message}"),
        other => panic!("job 1 should be Panicked, got {other:?}"),
    }
    match &report.jobs[2].outcome {
        JobOutcome::TimedOut { reason } => assert!(reason.starts_with("livelock"), "{reason}"),
        other => panic!("job 2 should be TimedOut, got {other:?}"),
    }

    // Every non-sabotaged record matches the healthy run bit-for-bit.
    let clean = run_lab(&healthy, 1).unwrap();
    for i in [0usize, 3, 4, 5, 6, 7] {
        assert!(report.jobs[i].outcome.is_completed(), "job {i}");
        assert_eq!(
            report.jobs[i].latency, clean.jobs[i].latency,
            "sabotage of jobs 1/2 must not perturb job {i}"
        );
        assert_eq!(report.jobs[i].energy_pj, clean.jobs[i].energy_pj);
    }

    // And the sabotaged run itself is reproducible: same spec, same
    // outcomes, same canonical bytes.
    let again = run_lab_with(&spec, 1, None).unwrap();
    assert_eq!(
        report.canonical_json().to_string_pretty(),
        again.canonical_json().to_string_pretty(),
        "terminal outcomes are part of the deterministic record"
    );
}

#[test]
fn livelock_interrupts_are_deterministic_terminal_outcomes() {
    // Every job of the matrix wedges its optical routers (the electrical
    // baseline gives stuck packets up instead): the livelock watchdog
    // ends each at a cycle-deterministic point.
    let mut spec = LabSpec::parse(SPEC).unwrap();
    spec.nets = vec!["optical4".into()];
    spec.sabotage = (0..spec.job_count())
        .map(|index| Sabotage {
            kind: SabotageKind::Livelock,
            index,
        })
        .collect();
    let a = run_lab_with(&spec, 2, None).unwrap();
    let b = run_lab_with(&spec, 1, None).unwrap();
    for j in &a.jobs {
        match &j.outcome {
            JobOutcome::TimedOut { reason } => {
                assert!(reason.starts_with("livelock"), "{reason}");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(j.timed_out);
        assert_eq!(j.stable, None, "interrupted jobs abstain from stability");
    }
    assert_eq!(
        a.canonical_json().to_string_pretty(),
        b.canonical_json().to_string_pretty(),
        "livelock interrupts land on the same cycle regardless of workers"
    );
}

#[test]
fn resumed_records_with_bogus_indices_are_rejected() {
    let spec = LabSpec::parse(SPEC).unwrap();
    let report = run_lab(&spec, 1).unwrap();
    let mut bad = report.jobs[0].clone();
    bad.index = 99;
    let err = run_lab_opts(
        &spec,
        RunOptions {
            workers: 1,
            resumed: vec![bad],
            ..RunOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("job 99"), "{err}");
}
