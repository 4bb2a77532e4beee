//! The SoA-core determinism gate: the committed golden export
//! (`tests/golden/golden.json`, recorded before the data-oriented
//! hot-path refactor) must be reproduced byte-for-byte by today's
//! simulator, for every worker count.
//!
//! This is the contract that lets the scheduler spread jobs over threads
//! and the core rearrange its memory layout freely: none of it may move
//! a single canonical bit. If this test fails, the refactor changed
//! simulated behavior — fix the code, do not re-record the golden.

use phastlane_lab::{run_lab, LabSpec};
use std::path::Path;

fn manifest_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn golden_export_is_bit_identical_across_worker_counts() {
    let spec_text = std::fs::read_to_string(manifest_path("../../results/specs/golden.lab"))
        .expect("read results/specs/golden.lab");
    let golden = std::fs::read_to_string(manifest_path("tests/golden/golden.json"))
        .expect("read committed golden export");

    let spec = LabSpec::parse(&spec_text).expect("golden spec parses");
    for workers in [1usize, 2] {
        let report = run_lab(&spec, workers).expect("golden spec runs");
        let fresh = report.canonical_json().to_string_pretty();
        assert_eq!(
            fresh, golden,
            "canonical export drifted from the pre-refactor golden (workers={workers})"
        );
    }
}
