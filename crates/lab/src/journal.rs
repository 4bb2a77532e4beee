//! Append-only NDJSON run journal: the checkpoint half of
//! checkpoint/resume.
//!
//! While a lab runs, every finished job's full record is appended as
//! one self-checking line. If the process is killed — SIGKILL, OOM,
//! power loss — the journal holds every job that completed; `lab run
//! --resume <journal>` replays those records into their result slots
//! and re-runs only the remainder, producing a canonical report
//! byte-identical to an uninterrupted run.
//!
//! Format, one JSON object per line:
//!
//! ```text
//! {"phastlane_journal": 1, "spec": "<spec.encode()>"}     header
//! {"crc": 3735928559, "record": {...full JobRecord...}}   per job
//! ```
//!
//! Each record line carries a CRC-32 of its record's compact JSON, so
//! a torn tail (the line being written when the process died) is
//! detected and dropped rather than half-parsed. Reading stops at the
//! first bad line: everything before it is trustworthy, everything
//! after it is unreachable garbage by construction of append-only
//! writes. Records are deduplicated by job index, last write wins.
//!
//! Appends are best-effort by design: a full disk degrades the journal
//! (counted in [`Journal::write_errors`]), never the run itself.
//!
//! The line framing — [`frame`] / [`unframe`] — is the repository's one
//! self-checking record format; the job server's log uses it too.

use crate::report::JobRecord;
use crate::spec::LabSpec;
use crate::store::crc32;
use phastlane_netsim::obs::json::{self, JsonValue};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Format version stamped in the header line.
const VERSION: u64 = 1;

/// An open journal being appended to by a running lab.
pub struct Journal {
    path: PathBuf,
    file: Mutex<BufWriter<File>>,
    write_errors: AtomicUsize,
}

impl Journal {
    /// Creates (truncating any previous file) a journal for one run of
    /// `spec` and writes the header line. The header pins the exact
    /// spec encoding, so a later `--resume` against a different spec is
    /// rejected instead of silently mixing runs.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn create(path: &Path, spec: &LabSpec) -> Result<Journal, String> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = BufWriter::new(file);
        let header = JsonValue::Obj(vec![
            ("phastlane_journal".into(), JsonValue::Uint(VERSION)),
            ("spec".into(), JsonValue::Str(spec.encode())),
        ]);
        writeln!(w, "{}", header.to_string_compact())
            .and_then(|()| w.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(w),
            write_errors: AtomicUsize::new(0),
        })
    }

    /// Appends one finished job's record and flushes, so the line is in
    /// the OS page cache before the next job is scheduled. Best-effort:
    /// failures bump [`Journal::write_errors`] and the run continues —
    /// a sick disk must never take the science down with it.
    pub fn append(&self, rec: &JobRecord) {
        let mut line = frame("record", &rec.to_json());
        line.push('\n');
        let mut w = self.file.lock().expect("journal lock");
        let wrote = w.write_all(line.as_bytes()).and_then(|()| w.flush());
        if wrote.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many appends failed (0 on a healthy disk).
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Everything recovered from a journal file on `--resume`.
#[derive(Debug)]
pub struct Recovered {
    /// The spec encoding pinned in the header.
    pub spec: String,
    /// Finished-job records, deduplicated by index (last write wins),
    /// in ascending index order.
    pub records: Vec<JobRecord>,
    /// Lines dropped at the tail: `0` for a cleanly-stopped journal,
    /// `1`+ when the process died mid-append (the torn line and
    /// anything after it).
    pub torn_lines: usize,
}

/// Reads a journal back, tolerating a torn tail. The header must parse;
/// record lines are consumed until the first line that is torn,
/// unparseable, or fails its CRC — that line and the rest are counted
/// in [`Recovered::torn_lines`] and discarded.
///
/// # Errors
///
/// If the file is unreadable, empty, or its header line is not a valid
/// journal header (wrong file, not a torn one).
pub fn load(path: &Path) -> Result<Recovered, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let mut lines = raw.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| format!("journal {} is empty", path.display()))?;
    let header = json::parse(header_line)
        .map_err(|e| format!("journal {} has a malformed header: {e}", path.display()))?;
    if header.get("phastlane_journal").and_then(|v| v.as_u64()) != Some(VERSION) {
        return Err(format!(
            "{} is not a phastlane journal (missing version stamp)",
            path.display()
        ));
    }
    let spec = header
        .get("spec")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("journal {} header lacks a spec", path.display()))?
        .to_string();

    let mut by_index: Vec<(usize, JobRecord)> = Vec::new();
    let mut torn = 0usize;
    for (n, line) in lines.enumerate() {
        let parsed = parse_record_line(line);
        match parsed {
            Some(rec) => by_index.push((rec.index, rec)),
            None => {
                // First bad line: everything from here on is after the
                // crash point; count and stop.
                torn = raw.lines().count() - 1 - n;
                break;
            }
        }
    }
    // Dedup by index, last write wins. No writer here journals a job
    // twice since the lab lost its retry loop, but the reader does not
    // rely on that: an older journal, or two joined by hand, still
    // resumes to one record per slot.
    by_index.sort_by_key(|(i, _)| *i);
    let mut records: Vec<JobRecord> = Vec::with_capacity(by_index.len());
    for (i, rec) in by_index {
        match records.last() {
            Some(last) if last.index == i => *records.last_mut().unwrap() = rec,
            _ => records.push(rec),
        }
    }
    Ok(Recovered {
        spec,
        records,
        torn_lines: torn,
    })
}

/// Frames `body` as one self-checking line (no newline):
/// `{"crc":<CRC-32 of the body's compact JSON>,"<key>":<body>}`.
///
/// The line is built in one buffer: the body is written in place, its
/// CRC taken over those bytes, and the digits inserted after `"crc":`.
pub fn frame(key: &str, body: &JsonValue) -> String {
    const CRC_AT: usize = "{\"crc\":".len();
    // A job record frames to about 600 bytes; larger bodies grow the
    // buffer as usual.
    let mut line = String::with_capacity(1024);
    line.push_str("{\"crc\":,");
    json::write_escaped(key, &mut line);
    line.push(':');
    let body_at = line.len();
    body.write_compact(&mut line);
    let crc = crc32(&line.as_bytes()[body_at..]);
    line.push('}');
    line.insert_str(CRC_AT, json::uint_text(u64::from(crc), &mut [0; 20]));
    line
}

/// The key and body of a line [`frame`] wrote, or `None` for anything
/// torn: bad JSON, another shape, or a CRC that does not match the body.
pub fn unframe(line: &str) -> Option<(String, JsonValue)> {
    let JsonValue::Obj(pairs) = json::parse(line).ok()? else {
        return None;
    };
    let [(crc_key, crc), (key, body)] = <[_; 2]>::try_from(pairs).ok()?;
    let intact = crc_key == "crc"
        && crc.as_u64() == Some(u64::from(crc32(body.to_string_compact().as_bytes())));
    intact.then_some((key, body))
}

/// Parses one record line, returning `None` for anything torn or for a
/// well-framed line that is not a job record.
fn parse_record_line(line: &str) -> Option<JobRecord> {
    match unframe(line)? {
        (key, record) if key == "record" => JobRecord::from_json(&record).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JobOutcome;
    use phastlane_netsim::stats::LatencyStats;

    fn spec() -> LabSpec {
        LabSpec::parse(
            "mesh 4x4\nnets optical4\npatterns uniform\nrates 0.02\n\
             warmup 50\nmeasure 100\ndrain 400\n",
        )
        .unwrap()
    }

    fn record(index: usize) -> JobRecord {
        let mut latency = LatencyStats::new();
        latency.record(3 + index as u64);
        JobRecord {
            index,
            net: "optical4".into(),
            pattern: Some("uniform".into()),
            rate: Some(0.02),
            benchmark: None,
            intensity: 0.0,
            replica: 0,
            seed: 42,
            cycles: 550,
            latency,
            energy_pj: 12.5,
            offered_rate: Some(0.02),
            accepted_rate: Some(0.02),
            delivered_rate: Some(0.019),
            completion_cycle: None,
            unfinished: 0,
            undeliverable: 0,
            timed_out: false,
            stable: Some(true),
            outcome: JobOutcome::Completed,
            wall_seconds: 0.25,
            phases: None,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "phastlane-journal-{tag}-{}.ndjson",
            std::process::id()
        ))
    }

    #[test]
    fn journal_round_trips_records() {
        let path = tmp("roundtrip");
        let spec = spec();
        let j = Journal::create(&path, &spec).unwrap();
        j.append(&record(0));
        j.append(&record(2));
        assert_eq!(j.write_errors(), 0);
        drop(j);

        let rec = load(&path).unwrap();
        assert_eq!(rec.spec, spec.encode());
        assert_eq!(rec.torn_lines, 0);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0].index, 0);
        assert_eq!(rec.records[1].index, 2);
        assert_eq!(rec.records[1].latency, record(2).latency);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn");
        let j = Journal::create(&path, &spec()).unwrap();
        j.append(&record(0));
        j.append(&record(1));
        drop(j);
        // Simulate a SIGKILL mid-append: chop the last line in half.
        let raw = std::fs::read_to_string(&path).unwrap();
        let cut = raw.len() - 40;
        std::fs::write(&path, &raw[..cut]).unwrap();

        let rec = load(&path).unwrap();
        assert_eq!(rec.records.len(), 1, "only the intact record survives");
        assert_eq!(rec.records[0].index, 0);
        assert_eq!(rec.torn_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_indices_dedup_last_wins() {
        let path = tmp("dedup");
        let j = Journal::create(&path, &spec()).unwrap();
        let mut first = record(1);
        first.outcome = JobOutcome::TimedOut {
            reason: "wall budget 1s exceeded".into(),
        };
        first.timed_out = true;
        j.append(&first);
        j.append(&record(1)); // a later line for the same job
        drop(j);

        let rec = load(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert!(rec.records[0].outcome.is_completed(), "the later line wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn framed_lines_round_trip_and_torn_ones_do_not() {
        let body = record(3).to_json();
        let line = frame("record", &body);
        assert_eq!(unframe(&line), Some(("record".into(), body)));
        // Every strict prefix is torn, and so is a flipped body byte.
        for cut in 0..line.len() {
            assert_eq!(unframe(&line[..cut]), None, "cut at {cut}");
        }
        let flipped = line.replacen("optical4", "optical5", 1);
        assert_eq!(unframe(&flipped), None);
    }

    /// A journal written by the binary that still had the allocating
    /// JSON writer and the bitwise CRC (`lab run
    /// results/specs/ci-smoke.lab --journal`): it must still load
    /// whole, and framing each loaded record again must give back its
    /// line byte for byte.
    #[test]
    fn an_older_binarys_journal_loads_and_reframes_identically() {
        let path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/ci-smoke.journal"
        ));
        let recovered = load(path).unwrap();
        assert_eq!(recovered.torn_lines, 0);
        let raw = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = raw.lines().skip(1).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(recovered.records.len(), lines.len());
        for line in lines {
            let rec = parse_record_line(line).expect("an intact record line");
            assert_eq!(frame("record", &rec.to_json()), line);
        }
    }

    #[test]
    fn non_journal_files_are_rejected_with_context() {
        let path = tmp("reject");
        std::fs::write(&path, "{\"spec\": \"x\"}\n").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("not a phastlane journal"), "{err}");

        std::fs::write(&path, "").unwrap();
        assert!(load(&path).unwrap_err().contains("empty"));
        let _ = std::fs::remove_file(&path);
    }
}
