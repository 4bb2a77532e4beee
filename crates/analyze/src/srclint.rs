//! Determinism-hygiene lint over the workspace sources.
//!
//! The repo's central contract is that identical spec + seed produce
//! byte-identical canonical reports. The hazards that break that
//! contract are boring and recurring: a wall-clock read leaking into a
//! result, iteration over an unordered hash container feeding a
//! canonical encoding, ambient process state (environment variables,
//! thread identity) steering simulation. This lint scans
//! `crates/*/src/**/*.rs` line by line for those patterns, scoped to
//! the code paths where they matter:
//!
//! * `wall-clock` — `Instant::now` / `SystemTime::now` anywhere except
//!   the observability layer (`obs/`) and the watchdog and supervision
//!   modules (whose whole job is wall time).
//! * `hash-iteration` — `HashMap` / `HashSet` in the canonical-report
//!   paths (`crates/lab`, `crates/netsim/src/obs`), where unordered
//!   iteration order could leak into encoded output.
//! * `ambient-env` — `env::var` / `thread::current` in the simulation
//!   cores (`crates/core`, `crates/electrical`, `crates/netsim`).
//!
//! Findings are matched against an allowlist file
//! (`results/analyze/srclint-allow.txt`) of audited exceptions, one
//! `<file> <rule> # justification` per line. A finding without an
//! allowlist entry fails the lint; so does a stale entry without a
//! finding — the list can only ever shrink to fit.
//!
//! Heuristics, deliberately: lines after a `#[cfg(test)]` marker are
//! skipped (tests may use wall clocks freely; by repo convention the
//! test module is the last item), as are `//` comment lines. This is a
//! grep with scoping, not a type checker — cheap, deterministic, and
//! good enough to keep hazards from landing silently.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint rule: a name, the substrings that trigger it, and the
/// path scope it applies to.
struct Rule {
    name: &'static str,
    needles: &'static [&'static str],
    applies: fn(&str) -> bool,
}

fn wall_clock_scope(path: &str) -> bool {
    !(path.contains("/obs/") || path.ends_with("watchdog.rs") || path.ends_with("supervise.rs"))
}

fn hash_iteration_scope(path: &str) -> bool {
    path.starts_with("crates/lab/") || path.starts_with("crates/netsim/src/obs/")
}

fn ambient_env_scope(path: &str) -> bool {
    path.starts_with("crates/core/")
        || path.starts_with("crates/electrical/")
        || path.starts_with("crates/netsim/")
}

const RULES: [Rule; 3] = [
    Rule {
        name: "wall-clock",
        needles: &["Instant::now", "SystemTime::now"],
        applies: wall_clock_scope,
    },
    Rule {
        name: "hash-iteration",
        needles: &["HashMap", "HashSet"],
        applies: hash_iteration_scope,
    },
    Rule {
        name: "ambient-env",
        needles: &["env::var", "thread::current"],
        applies: ambient_env_scope,
    },
];

/// One determinism-hazard hit in the sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrcFinding {
    /// Workspace-relative file path with forward slashes.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Rule name (`wall-clock`, `hash-iteration`, `ambient-env`).
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for SrcFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Scans one source file (already read) under its workspace-relative
/// path. Exposed for tests; [`scan_workspace`] drives it.
pub fn scan_source(path: &str, text: &str) -> Vec<SrcFinding> {
    // The rule table itself spells out every needle; scanning it would
    // only ever flag the lint's own definition.
    if path == "crates/analyze/src/srclint.rs" {
        return Vec::new();
    }
    let rules: Vec<&Rule> = RULES.iter().filter(|r| (r.applies)(path)).collect();
    if rules.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line == "#[cfg(test)]" {
            // Repo convention: the test module is the last item.
            break;
        }
        if line.starts_with("//") {
            continue;
        }
        for rule in &rules {
            if rule.needles.iter().any(|n| line.contains(n)) {
                findings.push(SrcFinding {
                    file: path.to_string(),
                    line: ln + 1,
                    rule: rule.name,
                    excerpt: line.to_string(),
                });
            }
        }
    }
    findings
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every `crates/*/src/**/*.rs` under the workspace root.
/// Files are visited in sorted path order, so the finding list is
/// deterministic.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<SrcFinding>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&file)?;
        findings.extend(scan_source(&rel, &text));
    }
    Ok(findings)
}

/// One audited exception: this file may trigger this rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// Rule name the exception covers.
    pub rule: String,
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.file, self.rule)
    }
}

/// Parses an allowlist file: one `<file> <rule> # justification` per
/// line, `#` comments, blanks ignored.
///
/// # Errors
///
/// Errors on a malformed line or an unknown rule name.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let (Some(file), Some(rule), None) = (words.next(), words.next(), words.next()) else {
            return Err(format!(
                "srclint allowlist line {}: expected `<file> <rule>`, got {raw:?}",
                ln + 1
            ));
        };
        if !RULES.iter().any(|r| r.name == rule) {
            return Err(format!(
                "srclint allowlist line {}: unknown rule {rule:?}",
                ln + 1
            ));
        }
        entries.push(AllowEntry {
            file: file.to_string(),
            rule: rule.to_string(),
        });
    }
    Ok(entries)
}

/// The result of matching findings against an allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowVerdict {
    /// Findings with no covering allowlist entry — lint failures.
    pub violations: Vec<SrcFinding>,
    /// Allowlist entries with no matching finding — stale, also
    /// failures (the list may only shrink to fit).
    pub stale: Vec<AllowEntry>,
}

impl AllowVerdict {
    /// Whether the workspace is clean under the allowlist.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Matches findings against audited exceptions. An entry covers every
/// finding with the same (file, rule) — exceptions are per file, not
/// per line, so routine edits don't churn the list.
pub fn apply_allowlist(findings: &[SrcFinding], allow: &[AllowEntry]) -> AllowVerdict {
    let covered = |f: &SrcFinding| allow.iter().any(|a| a.file == f.file && a.rule == f.rule);
    let used = |a: &AllowEntry| {
        findings
            .iter()
            .any(|f| f.file == a.file && f.rule == a.rule)
    };
    AllowVerdict {
        violations: findings.iter().filter(|f| !covered(f)).cloned().collect(),
        stale: allow.iter().filter(|a| !used(a)).cloned().collect(),
    }
}

/// Renders the allowlist that would make `findings` pass: one unique
/// `<file> <rule>` per line in sorted order, preserving the
/// justification comment of any matching entry in `existing`. CI diffs
/// this against the committed file, so an audited list stays byte-
/// stable until the underlying findings actually change.
pub fn emit_allow(findings: &[SrcFinding], existing: &str) -> String {
    let mut keys: Vec<(String, &'static str)> =
        findings.iter().map(|f| (f.file.clone(), f.rule)).collect();
    keys.sort();
    keys.dedup();
    let mut out = String::from(
        "# srclint audited exceptions: <file> <rule> # justification\n\
         # regenerate with: phastlane analyze --src --emit-allow <path>\n",
    );
    for (file, rule) in keys {
        let prefix = format!("{file} {rule}");
        let line = existing
            .lines()
            .map(str::trim)
            .find(|l| l.split('#').next().unwrap_or("").trim() == prefix)
            .map(str::to_string)
            .unwrap_or_else(|| format!("{prefix} # unreviewed"));
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_flagged_outside_the_observability_layer() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let hits = scan_source("crates/lab/src/runner.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "wall-clock");
        assert_eq!(hits[0].line, 1);
        // Same line is fine in the exempted homes of wall time.
        for ok in [
            "crates/netsim/src/obs/phase.rs",
            "crates/lab/src/watchdog.rs",
            "crates/lab/src/supervise.rs",
        ] {
            assert_eq!(scan_source(ok, src), Vec::new(), "{ok}");
        }
    }

    #[test]
    fn hash_iteration_scoped_to_canonical_paths() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            scan_source("crates/lab/src/report.rs", src)[0].rule,
            "hash-iteration"
        );
        assert_eq!(
            scan_source("crates/netsim/src/obs/flight.rs", src)[0].rule,
            "hash-iteration"
        );
        // Outside the canonical-report paths, unordered containers are
        // someone else's problem.
        assert_eq!(scan_source("crates/cli/src/args.rs", src), Vec::new());
        assert_eq!(scan_source("crates/netsim/src/ideal.rs", src), Vec::new());
    }

    #[test]
    fn ambient_env_scoped_to_the_simulation_core() {
        let src = "let v = std::env::var(\"X\");\n";
        for core in [
            "crates/core/src/config.rs",
            "crates/electrical/src/network.rs",
            "crates/netsim/src/nic.rs",
        ] {
            assert_eq!(scan_source(core, src)[0].rule, "ambient-env", "{core}");
        }
        assert_eq!(scan_source("crates/cli/src/lab.rs", src), Vec::new());
    }

    #[test]
    fn test_modules_and_comments_are_skipped() {
        let src = "\
fn f() {}
// Instant::now in a comment is fine
#[cfg(test)]
mod tests {
    fn t() { let t = Instant::now(); }
}
";
        assert_eq!(scan_source("crates/lab/src/runner.rs", src), Vec::new());
    }

    #[test]
    fn allowlist_round_trip() {
        let findings = vec![
            SrcFinding {
                file: "crates/lab/src/runner.rs".into(),
                line: 10,
                rule: "wall-clock",
                excerpt: "let t = Instant::now();".into(),
            },
            SrcFinding {
                file: "crates/lab/src/runner.rs".into(),
                line: 20,
                rule: "wall-clock",
                excerpt: "let u = Instant::now();".into(),
            },
        ];
        // Uncovered findings are violations.
        let verdict = apply_allowlist(&findings, &[]);
        assert_eq!(verdict.violations.len(), 2);
        assert!(!verdict.clean());
        // One per-file entry covers both lines.
        let allow = parse_allowlist("crates/lab/src/runner.rs wall-clock # watchdog wall budget\n")
            .unwrap();
        assert!(apply_allowlist(&findings, &allow).clean());
        // A stale entry fails the other way.
        let verdict = apply_allowlist(&[], &allow);
        assert_eq!(verdict.stale, allow);
        assert!(!verdict.clean());
    }

    #[test]
    fn allowlist_rejects_garbage() {
        assert!(parse_allowlist("just-a-file\n").is_err());
        assert!(parse_allowlist("a.rs not-a-rule\n").is_err());
        assert!(parse_allowlist("a.rs wall-clock extra\n").is_err());
        assert!(parse_allowlist("# only comments\n\n").unwrap().is_empty());
    }

    #[test]
    fn emit_allow_preserves_existing_justifications() {
        let findings = vec![SrcFinding {
            file: "crates/lab/src/runner.rs".into(),
            line: 10,
            rule: "wall-clock",
            excerpt: "x".into(),
        }];
        let existing = "crates/lab/src/runner.rs wall-clock # watchdog wall budget\n";
        let out = emit_allow(&findings, existing);
        assert!(out.contains("# watchdog wall budget"), "{out}");
        let fresh = emit_allow(&findings, "");
        assert!(fresh.contains("# unreviewed"), "{fresh}");
        // Emitted text parses back to a covering allowlist.
        let entries = parse_allowlist(&out).unwrap();
        assert!(apply_allowlist(&findings, &entries).clean());
    }

    #[test]
    fn the_lint_does_not_flag_its_own_rule_table() {
        let src = "needles: &[\"Instant::now\", \"SystemTime::now\"],\n";
        assert_eq!(
            scan_source("crates/analyze/src/srclint.rs", src),
            Vec::new()
        );
    }
}
