//! End-to-end determinism: the same seeded sweep, run twice through the
//! real CLI command path, must export byte-identical trace and metrics
//! files. This is the contract that makes `--trace-out` diffs usable
//! for regression hunting — any wall-clock or iteration-order leak
//! into the exports breaks it.

use phastlane_cli::args::Parsed;
use phastlane_cli::commands::dispatch;

fn parse(words: &[String]) -> Parsed {
    Parsed::parse(words.iter().cloned()).expect("args parse")
}

/// Runs a 4x4 sweep exporting trace + metrics into `dir`, returning the
/// raw bytes of both files.
fn run_sweep_once(dir: &std::path::Path, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let trace = dir.join(format!("trace-{seed}.json"));
    let metrics = dir.join(format!("metrics-{seed}.json"));
    let args: Vec<String> = [
        "sweep",
        "--mesh",
        "4x4",
        "--net",
        "optical4",
        "--pattern",
        "transpose",
        "--rate",
        "0.08",
        "--seed",
        &seed.to_string(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--sample-interval",
        "64",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = dispatch(&parse(&args)).expect("sweep runs");
    assert!(out.contains("trace:"), "sweep output mentions trace: {out}");
    let t = std::fs::read(&trace).expect("trace file written");
    let m = std::fs::read(&metrics).expect("metrics file written");
    (t, m)
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phastlane-determinism-{name}"));
    // Recreate from scratch so stale files from a prior run can't mask
    // a missing write.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn seeded_sweep_exports_are_byte_identical() {
    let dir = scratch_dir("repeat");
    let (t1, m1) = run_sweep_once(&dir, 42);
    // Overwrite with a second run of the identical command line.
    let (t2, m2) = run_sweep_once(&dir, 42);
    assert!(!t1.is_empty() && !m1.is_empty());
    assert_eq!(t1, t2, "trace export differs between identical runs");
    assert_eq!(m1, m2, "metrics export differs between identical runs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_seeds_diverge() {
    // Guards against the degenerate way to pass the test above: a seed
    // that is parsed but never actually fed to the traffic source.
    let dir = scratch_dir("diverge");
    let (t1, _) = run_sweep_once(&dir, 1);
    let (t2, _) = run_sweep_once(&dir, 2);
    assert_ne!(t1, t2, "trace export ignores the seed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a faulted 4x4 sweep (random fault plan from `fault_seed`) and
/// returns the raw trace + metrics export bytes.
fn run_faulted_once(dir: &std::path::Path, tag: &str, fault_seed: u64) -> (Vec<u8>, Vec<u8>) {
    let trace = dir.join(format!("trace-{tag}.json"));
    let metrics = dir.join(format!("metrics-{tag}.json"));
    let args: Vec<String> = [
        "sweep",
        "--mesh",
        "4x4",
        "--net",
        "optical4",
        "--pattern",
        "uniform",
        "--rate",
        "0.05",
        "--seed",
        "7",
        "--fault-rate",
        "0.3",
        "--fault-seed",
        &fault_seed.to_string(),
        "--retry-limit",
        "20",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--sample-interval",
        "64",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    dispatch(&parse(&args)).expect("faulted sweep runs");
    let t = std::fs::read(&trace).expect("trace file written");
    let m = std::fs::read(&metrics).expect("metrics file written");
    (t, m)
}

#[test]
fn seeded_fault_runs_are_byte_identical() {
    // Fault injection adds its own RNG stream (random plan generation,
    // stall backoff, bit-error rolls); none of it may leak wall-clock or
    // ordering nondeterminism into the exports.
    let dir = scratch_dir("fault-repeat");
    let (t1, m1) = run_faulted_once(&dir, "a", 3);
    let (t2, m2) = run_faulted_once(&dir, "b", 3);
    assert!(!t1.is_empty() && !m1.is_empty());
    assert_eq!(
        t1, t2,
        "faulted trace export differs between identical runs"
    );
    assert_eq!(
        m1, m2,
        "faulted metrics export differs between identical runs"
    );

    // The fault machinery must actually have fired, and its new event
    // kinds must round-trip through the export.
    let text = String::from_utf8(t1.clone()).expect("trace export is utf-8");
    assert!(
        text.contains("fault_injected"),
        "faulted trace records fault injections"
    );
    assert!(
        text.contains("fault_reroute") || text.contains("fault_stall"),
        "faulted trace records degraded routing activity"
    );

    // And the fault seed must matter.
    let (t3, _) = run_faulted_once(&dir, "c", 4);
    assert_ne!(t1, t3, "trace export ignores the fault seed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `lab run` on `spec_path` with `workers` threads and returns the
/// raw bytes of the canonical report export.
fn run_lab_once(dir: &std::path::Path, spec_path: &str, workers: usize) -> Vec<u8> {
    let report = dir.join(format!("report-w{workers}.json"));
    let args: Vec<String> = [
        "lab",
        "run",
        spec_path,
        "--workers",
        &workers.to_string(),
        "--report-out",
        report.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = dispatch(&parse(&args)).expect("lab run succeeds");
    assert!(
        out.contains("concurrency"),
        "lab output reports perf: {out}"
    );
    std::fs::read(&report).expect("report file written")
}

/// Runs a chaos soak with the flight recorder attached and returns the
/// raw bytes of the per-intensity journey dump.
fn run_flight_once(dir: &std::path::Path, tag: &str, seed: u64) -> Vec<u8> {
    let flight = dir.join(format!("flight-{tag}.json"));
    let args: Vec<String> = [
        "chaos",
        "--mesh",
        "4x4",
        "--net",
        "optical4",
        "--intensities",
        "0.25",
        "--seed",
        &seed.to_string(),
        "--fault-seed",
        "3",
        "--flight-recorder",
        flight.to_str().unwrap(),
        "--flight-sample",
        "16",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = dispatch(&parse(&args)).expect("chaos runs");
    assert!(
        out.contains("flight recorder:"),
        "chaos output mentions the dump: {out}"
    );
    std::fs::read(&flight).expect("flight dump written")
}

#[test]
fn flight_recorder_dump_is_byte_identical_across_runs() {
    // The recorder samples by a pure hash of (seed, packet id) and dumps
    // journeys sorted by id — nothing about wall clock, HashMap ordering,
    // or eviction timing may leak into the export.
    let dir = scratch_dir("flight");
    let d1 = run_flight_once(&dir, "a", 7);
    let d2 = run_flight_once(&dir, "b", 7);
    assert!(!d1.is_empty());
    assert_eq!(d1, d2, "flight dump differs between identical runs");

    let text = String::from_utf8(d1.clone()).expect("dump is utf-8");
    assert!(text.contains("\"journeys\""), "{text}");
    assert!(
        text.contains("\"sampled\": true") || text.contains("\"undeliverable\": true"),
        "dump holds sampled or pinned-undeliverable journeys: {text}"
    );

    // The sampling seed must matter.
    let d3 = run_flight_once(&dir, "c", 8);
    assert_ne!(d1, d3, "flight dump ignores the sampling seed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lab_report_is_byte_identical_across_worker_counts() {
    // The lab's whole determinism contract: per-job seeds are derived
    // from the spec, never from thread scheduling, and the canonical
    // report contains no wall-clock data — so a parallel run must
    // export the very same bytes as a serial one. An 8-point spec over
    // two network families (with a faulted lane) gives the worker pool
    // real interleaving to get wrong.
    let dir = scratch_dir("lab-workers");
    let spec = dir.join("matrix.lab");
    std::fs::write(
        &spec,
        "name workers-test\nmesh 4x4\nseed 9\nnets optical4 electrical2\n\
         patterns uniform transpose\nrates 0.02 0.05\nintensities 0.0 0.2\n\
         warmup 100\nmeasure 300\ndrain 2000\n",
    )
    .expect("spec written");
    let spec_path = spec.to_str().unwrap();
    let serial = run_lab_once(&dir, spec_path, 1);
    let parallel = run_lab_once(&dir, spec_path, 8);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "canonical lab report differs between 1 and 8 workers"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
