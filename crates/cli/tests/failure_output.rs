//! What the `phastlane` binary prints when a command fails: the error
//! and a one-line pointer to `phastlane help`, never the usage text, so
//! a regression list or an HTTP status stays readable in a CI log.

use std::process::Command;

fn phastlane(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_phastlane"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn a_failed_command_prints_its_error_and_a_pointer_not_the_usage() {
    for args in [
        &["frobnicate"][..],
        &["lab", "run", "/no/such/file.lab"],
        &["lab", "run", "x.lab", "--no-such-option", "1"],
    ] {
        let out = phastlane(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        let lines: Vec<&str> = err.lines().collect();
        assert!(lines[0].starts_with("error: "), "{err}");
        assert_eq!(lines.last(), Some(&"try `phastlane help`"), "{err}");
        assert!(
            !err.contains("USAGE"),
            "usage dumped after the error: {err}"
        );
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn help_and_no_args_still_print_the_usage() {
    for args in [&["help"][..], &[]] {
        let out = phastlane(args);
        assert!(out.status.success());
        assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE:"));
    }
}
