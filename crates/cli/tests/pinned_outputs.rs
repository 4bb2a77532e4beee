//! Pins what the job-running commands print and write: a fixed list of
//! `sweep`, `chaos`, `simulate` and `figure scalability` invocations,
//! each run through `dispatch` into its own directory, folded into
//! FNV-1a 64 digests of
//!
//! - the console text, with the directory replaced by `<dir>` and
//!   without `simulate`'s wall-clock `sim speed:` line;
//! - every file the command wrote (so the `-r<point>` names are pinned
//!   too), with `--report-out`'s `perf` object removed.
//!
//! A failure means a command's output moved. Run
//! `cargo test -p phastlane-cli --test pinned_outputs -- --ignored --nocapture`
//! to print the table, and re-record only for a deliberate change.

use phastlane_cli::args::Parsed;
use phastlane_cli::commands::dispatch;
use phastlane_netsim::obs::json::{self, JsonValue};
use std::path::Path;

/// FNV-1a 64 over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hand-written plan the `--fault-plan` invocations read: a timed
/// link fault, a stuck router from cycle 300, and bit errors.
const PLAN: &str = "link n5 east @100 +800\nrouter n10 @300\nbiterr 0.01\n";
const PLAN_FILE: &str = "fault.plan";

/// Every export flag, each writing into the invocation's directory.
const EXPORTS: [&str; 8] = [
    "--trace-out",
    "trace.json",
    "--metrics-out",
    "metrics.csv",
    "--flight-recorder",
    "flight.json",
    "--report-out",
    "report.json",
];

/// The pinned invocations: a label and the words after the program
/// name. Words named in [`EXPORTS`] and `fault.plan` are paths in the
/// invocation's directory.
fn invocations() -> Vec<(&'static str, Vec<&'static str>)> {
    let sweep = [
        "sweep",
        "--mesh",
        "4x4",
        "--rate",
        "0.02,0.05",
        "--seed",
        "11",
    ];
    let simulate = [
        "simulate",
        "--mesh",
        "4x4",
        "--benchmark",
        "LU",
        "--scale",
        "0.02",
    ];
    let chaos = |net| {
        vec![
            "chaos",
            "--net",
            net,
            "--mesh",
            "4x4",
            "--intensities",
            "0.0,0.25",
            "--fault-seed",
            "1",
        ]
    };
    let with = |base: &[&'static str], more: &[&'static str]| {
        let mut words = base.to_vec();
        words.extend_from_slice(more);
        words.extend_from_slice(&EXPORTS);
        words
    };
    let fault_rate = ["--fault-rate", "0.25", "--retry-limit", "20"];
    let fault_plan = ["--fault-plan", PLAN_FILE];
    vec![
        ("sweep", with(&sweep, &[])),
        ("sweep-fault-rate", with(&sweep, &fault_rate)),
        ("sweep-fault-plan", with(&sweep, &fault_plan)),
        ("chaos-optical4", with(&chaos("optical4"), &[])),
        ("chaos-electrical3", with(&chaos("electrical3"), &[])),
        ("simulate", with(&simulate, &[])),
        (
            "simulate-fault-rate",
            with(
                &simulate,
                &[
                    "--fault-rate",
                    "0.2",
                    "--fault-seed",
                    "3",
                    "--retry-limit",
                    "10",
                ],
            ),
        ),
        ("simulate-fault-plan", with(&simulate, &fault_plan)),
        (
            "figure-scalability",
            vec!["figure", "scalability", "--quick"],
        ),
    ]
}

/// What one file contributes: its bytes, or a run report's compact
/// JSON without the wall-clock `perf` object.
fn file_bytes(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).expect("export readable");
    let name = path.file_name().unwrap().to_str().unwrap();
    if !name.starts_with("report") {
        return bytes;
    }
    let text = String::from_utf8(bytes).expect("report is utf-8");
    let JsonValue::Obj(pairs) = json::parse(&text).expect("report parses") else {
        panic!("{name}: report is not an object");
    };
    let kept = pairs.into_iter().filter(|(k, _)| k != "perf").collect();
    JsonValue::Obj(kept).to_string_compact().into_bytes()
}

/// Runs one invocation in a fresh directory and returns its digests:
/// the console text first, then each written file by name.
fn run(label: &str, words: &[&str]) -> Vec<(String, u64)> {
    let dir = std::env::temp_dir().join(format!("phastlane-pinned-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join(PLAN_FILE), PLAN).expect("plan written");
    let in_dir = |w: &str| EXPORTS.contains(&w) || w == PLAN_FILE;
    let args = words.iter().map(|w| {
        if in_dir(w) && !w.starts_with("--") {
            dir.join(w).to_str().unwrap().to_string()
        } else {
            (*w).to_string()
        }
    });
    let out = dispatch(&Parsed::parse(args).expect("args parse"))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let console: String = out
        .replace(dir.to_str().unwrap(), "<dir>")
        .lines()
        .filter(|l| !l.starts_with("sim speed:"))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut digests = vec![(format!("{label} console"), fnv(console.as_bytes()))];
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir lists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| !p.ends_with(PLAN_FILE))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_str().unwrap();
        digests.push((format!("{label} {name}"), fnv(&file_bytes(&path))));
    }
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

fn all_digests() -> Vec<(String, u64)> {
    invocations()
        .iter()
        .flat_map(|(label, words)| run(label, words))
        .collect()
}

#[rustfmt::skip]
const PINNED: &[(&str, u64)] = &[
    ("sweep console", 0x6173728fe3a9ed4d),
    ("sweep flight-r0.02.json", 0x1bbd8bca99aa0d40),
    ("sweep flight-r0.05.json", 0x959b383d59bde983),
    ("sweep metrics-r0.02.csv", 0x1944bf2b097ca33b),
    ("sweep metrics-r0.05.csv", 0xd9912b63c3ee145d),
    ("sweep report-r0.02.json", 0xb364d845871dff76),
    ("sweep report-r0.05.json", 0x87f4edf1873b79b6),
    ("sweep trace-r0.02.json", 0xbbd66ce47df6a89d),
    ("sweep trace-r0.05.json", 0xa5334920a3ddf17b),
    ("sweep-fault-rate console", 0x58a55d292365b1de),
    ("sweep-fault-rate flight-r0.02.json", 0x73d2908c6ae387a6),
    ("sweep-fault-rate flight-r0.05.json", 0x656c340faf3f644d),
    ("sweep-fault-rate metrics-r0.02.csv", 0xf8f47661981f58f2),
    ("sweep-fault-rate metrics-r0.05.csv", 0xbb8650158dc29999),
    ("sweep-fault-rate report-r0.02.json", 0x93290edcd0a8d02e),
    ("sweep-fault-rate report-r0.05.json", 0x6d28e9a8ea33effc),
    ("sweep-fault-rate trace-r0.02.json", 0x87ecb39940a77824),
    ("sweep-fault-rate trace-r0.05.json", 0xb87eda4fc3d2d676),
    ("sweep-fault-plan console", 0xea03c4e58fa2b89e),
    ("sweep-fault-plan flight-r0.02.json", 0xc307af16486dc540),
    ("sweep-fault-plan flight-r0.05.json", 0xeec120170b94d529),
    ("sweep-fault-plan metrics-r0.02.csv", 0x33c6216f8f5af355),
    ("sweep-fault-plan metrics-r0.05.csv", 0x5e3d4c0895f58073),
    ("sweep-fault-plan report-r0.02.json", 0xa186f296117f2344),
    ("sweep-fault-plan report-r0.05.json", 0x80df46a270e0b5d0),
    ("sweep-fault-plan trace-r0.02.json", 0xfb38967c6c71a96c),
    ("sweep-fault-plan trace-r0.05.json", 0xf7d3ddb137dbbec0),
    ("chaos-optical4 console", 0xad34c0ca8f985e91),
    ("chaos-optical4 flight-r0.25.json", 0xe592e5e5f4149b55),
    ("chaos-optical4 flight-r0.json", 0x7abb25d599d9eb66),
    ("chaos-optical4 metrics-r0.25.csv", 0x0694c7315db5b65d),
    ("chaos-optical4 metrics-r0.csv", 0x61a32faead83da31),
    ("chaos-optical4 report-r0.25.json", 0xeea167043742e75c),
    ("chaos-optical4 report-r0.json", 0x62cbdd042ab56040),
    ("chaos-optical4 trace-r0.25.json", 0xe6b10a43150bba0f),
    ("chaos-optical4 trace-r0.json", 0xa869ee9d969ba663),
    ("chaos-electrical3 console", 0xc65d5cfb7e036f7f),
    ("chaos-electrical3 flight-r0.25.json", 0xfc35a4a82724b3bd),
    ("chaos-electrical3 flight-r0.json", 0x85a7a112f9a81ca4),
    ("chaos-electrical3 metrics-r0.25.csv", 0x498d7619d461345b),
    ("chaos-electrical3 metrics-r0.csv", 0xea6aab8bc90e7f50),
    ("chaos-electrical3 report-r0.25.json", 0xc74767dd09384228),
    ("chaos-electrical3 report-r0.json", 0x92c06b5e9e952d36),
    ("chaos-electrical3 trace-r0.25.json", 0x22940e23424da7c1),
    ("chaos-electrical3 trace-r0.json", 0x3be8c05e2e4444b1),
    ("simulate console", 0x52203413610a8613),
    ("simulate flight.json", 0x3f1781b62c2de403),
    ("simulate metrics.csv", 0x70689de5d48f146b),
    ("simulate report.json", 0x429d1abd2c995bc1),
    ("simulate trace.json", 0x56f6639289accd94),
    ("simulate-fault-rate console", 0x8aafac3997ed8dfc),
    ("simulate-fault-rate flight.json", 0x8ef44348ddf37367),
    ("simulate-fault-rate metrics.csv", 0xd6ceb9e3272db40f),
    ("simulate-fault-rate report.json", 0xec5ed48daeaf4ad6),
    ("simulate-fault-rate trace.json", 0x3c4af31d0feae356),
    ("simulate-fault-plan console", 0x12d3ad726a26661a),
    ("simulate-fault-plan flight.json", 0x216a408f41183bd1),
    ("simulate-fault-plan metrics.csv", 0x4c294b859278b692),
    ("simulate-fault-plan report.json", 0x30772af74ea0e091),
    ("simulate-fault-plan trace.json", 0x0a8511eec5248fb3),
    ("figure-scalability console", 0x965d6215d98e075e),
];

#[test]
fn cli_outputs_match_pinned_digests() {
    let got = all_digests();
    let moved: Vec<String> = got
        .iter()
        .map(|(l, d)| (l.as_str(), *d))
        .zip(
            PINNED
                .iter()
                .copied()
                .map(Some)
                .chain(std::iter::repeat(None)),
        )
        .filter(|(g, p)| Some(*g) != *p)
        .map(|((l, d), p)| format!("{l}: got {d:#018x}, pinned {p:x?}"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == PINNED.len(),
        "{} of {} pinned outputs moved ({} produced):\n{}",
        moved.len(),
        PINNED.len(),
        got.len(),
        moved.join("\n")
    );
}

#[test]
#[ignore = "prints the digest table in source form"]
fn print_cli_digest_table() {
    println!("#[rustfmt::skip]\nconst PINNED: &[(&str, u64)] = &[");
    for (label, digest) in all_digests() {
        println!("    (\"{label}\", {digest:#018x}),");
    }
    println!("];");
}
